"""Acceptance gate: ten end-to-end checks, each printing one PASS line with
its runtime against the stated budget.  Every numeric comparison is exact."""

import itertools
import random
import time
from collections import Counter

import _oracle as oracle
from weldmag.arrows import (
    insert_self_tree,
    leaf,
    node,
    realize_sorted,
    sorted_presentation,
    surgery,
)
from weldmag.gauss import (
    MOVE_KINDS,
    applicable_sites,
    apply_move,
    closure,
    longitude_series,
    parse,
    stack,
)
from weldmag.hall import generate_basic, hall_factorize
from weldmag.invariants import (
    action,
    action_compose,
    action_invert,
    compare,
    identity_action,
    link_vanishing,
    milnor,
    milnor_table,
)
from weldmag.magnus import TruncationPolicy, expand, series_mul
from weldmag.words import (
    commutator,
    conjugate,
    empty,
    generator,
    invert,
    multiply,
    power,
    word_from_letters,
)


def report(num, name, elapsed, bound):
    assert elapsed < bound, f"criterion {num} took {elapsed:.2f}s, budget {bound}s"
    print(f"ACCEPTANCE {num} {name}: PASS ({elapsed:.2f}s < {bound}s)")


def rand_word(rng, rank, max_len):
    return word_from_letters(rank, oracle.random_reduced_letters(rng, rank, rng.randint(0, max_len)))


def test_criterion_01_commutator_identities():
    rng = random.Random(101)
    t0 = time.perf_counter()
    for _ in range(1000):
        rank = rng.randint(2, 4)
        a, b, c = (rand_word(rng, rank, 8) for _ in range(3))
        ab = commutator(a, b)
        # C0: the inverse of a commutator
        assert invert(ab) == commutator(invert(b), invert(a))
        # C1: two one-sided unfoldings
        assert ab == multiply(conjugate(invert(b), invert(a)), b)
        assert ab == multiply(a, conjugate(invert(a), b))
        # C2: conjugation distributes
        assert conjugate(ab, c) == commutator(conjugate(a, c), conjugate(b, c))
        # C3: biadditivity up to conjugated correction
        assert commutator(a, multiply(b, c)) == multiply(
            commutator(a, c), conjugate(ab, c)
        )
        assert commutator(multiply(a, b), c) == multiply(
            conjugate(commutator(b, c), invert(a)), commutator(a, c)
        )
        # C4: the Hall-Witt style rearrangement
        lhs = commutator(ab, c)
        rhs = multiply(
            conjugate(
                commutator(invert(a), commutator(invert(c), invert(b))),
                multiply(b, invert(a)),
            ),
            conjugate(
                commutator(invert(b), commutator(invert(a), invert(c))),
                multiply(c, invert(a)),
            ),
        )
        assert lhs == rhs
        # C5: biadditivity with the correction in commutator form
        assert commutator(a, multiply(b, c)) == multiply(
            commutator(a, c),
            ab,
            commutator(commutator(invert(b), invert(a)), c),
        )
        assert commutator(multiply(a, b), c) == multiply(
            commutator(a, commutator(invert(c), invert(b))),
            commutator(b, c),
            commutator(a, c),
        )
    report(1, "commutator-identities", time.perf_counter() - t0, 1)


def test_criterion_02_magnus_faithfulness_exhaustive():
    t0 = time.perf_counter()
    rank, max_len, q = 3, 6, 7
    pol = TruncationPolicy.total_degree(rank, q)
    letter = {
        s * g: expand(word_from_letters(rank, [s * g]), pol)
        for g in range(1, rank + 1)
        for s in (1, -1)
    }
    one = expand(empty(rank), pol)
    assert one.is_one
    count = 1
    # depth-first sweep sharing prefix expansions; a reduced word never
    # repeats l followed by -l
    stack_ = [(one, 0, 0)]
    while stack_:
        series, depth, last = stack_.pop()
        if depth == max_len:
            continue
        for g in range(1, rank + 1):
            for s in (1, -1):
                l = s * g
                if l == -last:
                    continue
                child = series_mul(series, letter[l])
                count += 1
                assert not child.is_one
                stack_.append((child, depth + 1, l))
    assert count == 23437
    report(2, "magnus-faithfulness", time.perf_counter() - t0, 30)


def test_criterion_03_hall_suite():
    rng = random.Random(103)
    t0 = time.perf_counter()
    per_len = Counter(c.length for c in generate_basic(2, 5))
    assert [per_len[d] for d in range(1, 6)] == [2, 1, 2, 3, 6]
    assert [oracle.witt(2, d) for d in range(1, 6)] == [2, 1, 2, 3, 6]

    for _ in range(500):
        n = rng.randint(2, 3)
        k = rng.randint(1, 4)
        w = rand_word(rng, n, 8)
        exps, certified = hall_factorize(w, k)
        assert certified
        prod = empty(n)
        for c, e in zip(generate_basic(n, k), exps):
            if e:
                prod = multiply(prod, power(c.word, e))
        assert expand(multiply(invert(prod), w), TruncationPolicy.total_degree(n, k)).is_one

    for n in (2, 3):
        for d in range(1, 6):
            layer = [c for c in generate_basic(n, d) if c.length == d]
            pol = TruncationPolicy.total_degree(n, d)
            monos = list(itertools.product(range(1, n + 1), repeat=d))
            rows = [
                [expand(c.word, pol).coefficient(m) for m in monos] for c in layer
            ]
            assert oracle.exact_rank(rows) == len(layer) == oracle.witt(n, d)
    report(3, "hall-suite", time.perf_counter() - t0, 60)


def rand_commutator_word(rng, n):
    def factor():
        i, j = rng.sample(range(1, n + 1), 2)
        x = generator(n, i)
        y = generator(n, j)
        if rng.random() < 0.4:
            x = conjugate(x, rand_word(rng, n, 2))
        if rng.random() < 0.4:
            y = invert(y)
        return commutator(x, y)

    w = factor()
    if rng.random() < 0.5:
        w = multiply(w, factor())
    return w


def test_criterion_04_realizer_matches_expand():
    rng = random.Random(104)
    t0 = time.perf_counter()
    for _ in range(200):
        n = rng.randint(2, 3)
        ws = [rand_commutator_word(rng, n) if rng.random() < 0.8 else empty(n) for _ in range(n)]
        pol = TruncationPolicy.total_degree(n, 3)
        lams = longitude_series(realize_sorted(ws), policy=pol)
        expansions = [expand(w, pol) for w in ws]
        for length in range(2, 5):
            for I in itertools.product(range(1, n + 1), repeat=length):
                got = lams[I[-1] - 1].coefficient(I[:-1])
                want = expansions[I[-1] - 1].coefficient(I[:-1])
                assert got == want, (ws, I)
    report(4, "realizer-oracle-equality", time.perf_counter() - t0, 60)


def rand_code(rng, n, budget, roughen=True):
    """Random realized code with at most ``budget`` crossings."""
    ws = []
    left = budget
    for _ in range(n):
        l = rng.randint(0, min(3, left))
        ws.append(rand_word(rng, n, l))
        left -= len(ws[-1])
    code = realize_sorted(ws)
    if not roughen:
        return code
    inserts = 0
    for _ in range(rng.randint(0, 2)):
        kind = rng.choice(MOVE_KINDS)
        if kind.endswith("insert"):
            if inserts or sum(len(c) for c in code.components) // 2 + 2 > budget:
                continue
            inserts += 1
        sites = applicable_sites(code, kind)
        if sites:
            code = apply_move(code, kind, rng.choice(sites))
    return code


def test_criterion_05_three_mode_coherence():
    rng = random.Random(105)
    t0 = time.perf_counter()
    for trial in range(200):
        n = rng.randint(2, 3)
        k = rng.randint(1, 2)
        L = rand_code(rng, n, 10)
        style = trial % 3
        if style == 0:
            M = rand_code(rng, n, 10)
        elif style == 1:
            # welded moves never change the link, so these pairs are equal
            M = L
            for _ in range(2):
                kind = rng.choice(("OCswap", "R1delete", "R2delete"))
                sites = applicable_sites(M, kind)
                if sites:
                    M = apply_move(M, kind, rng.choice(sites))
        else:
            base = sorted_presentation(
                [rand_word(rng, n, 3) for _ in range(n)]
            )
            i = rng.randint(1, n)
            t = random_self_tree(rng, n, i, k + rng.randint(0, 1))
            L = surgery(base)
            M = surgery(insert_self_tree(base, i, t))
        answers = {
            mode: compare(L, M, k, mode)[0]
            for mode in ("table", "longitude", "action")
        }
        assert len(set(answers.values())) == 1, (trial, answers)
    report(5, "three-mode-coherence", time.perf_counter() - t0, 120)


def random_self_tree(rng, n, i, degree):
    if degree == 1:
        conj = None
        if rng.random() < 0.5:
            conj = rand_word(rng, n, 2)
        return leaf(i, twist=rng.choice((1, -1)), conjugator=conj)
    split = rng.randint(1, degree - 1)
    return node(
        random_self_tree(rng, n, i, split),
        random_self_tree(rng, n, i, degree - split),
        twist=rng.choice((1, -1)),
    )


def test_criterion_06_self_tree_insertions():
    rng = random.Random(106)
    t0 = time.perf_counter()
    for _ in range(200):
        n = rng.randint(2, 3)
        k = rng.randint(1, 2)
        pres = sorted_presentation([rand_word(rng, n, 4) for _ in range(n)])
        i = rng.randint(1, n)
        t = random_self_tree(rng, n, i, k + rng.randint(0, 1))
        pos = rng.randint(0, len(pres.slots[i - 1]))
        bumped = insert_self_tree(pres, i, t, position=pos)
        before = milnor_table(surgery(pres), k)
        after = milnor_table(surgery(bumped), k)
        assert before.entries == after.entries, (n, k, i)
    report(6, "self-tree-invariance", time.perf_counter() - t0, 120)


def test_criterion_07_move_invariance():
    rng = random.Random(107)
    t0 = time.perf_counter()
    pool = [rand_code(rng, rng.randint(2, 3), 10) for _ in range(20)]
    done = 0
    while done < 500:
        code = rng.choice(pool)
        kind = rng.choice(MOVE_KINDS)
        sites = applicable_sites(code, kind)
        if not sites:
            continue
        moved = apply_move(code, kind, rng.choice(sites))
        pol = TruncationPolicy.total_degree(code.n, 4)
        assert longitude_series(moved, pol) == longitude_series(code, pol), kind
        done += 1
    report(7, "welded-move-invariance", time.perf_counter() - t0, 60)


def test_criterion_08_action_group_structure():
    rng = random.Random(108)
    t0 = time.perf_counter()
    for _ in range(100):
        n = rng.randint(2, 3)
        k = rng.randint(1, 2)
        L, M = rand_code(rng, n, 8), rand_code(rng, n, 8)
        lhs = action_compose(action(L, k), action(M, k))
        rhs = action(stack(L, M), k)
        assert lhs == rhs and lhs.images == rhs.images
    for _ in range(100):
        n = rng.randint(2, 3)
        k = rng.randint(1, 2)
        phi = action(rand_code(rng, n, 8), k)
        psi = action_invert(phi)
        ident = identity_action(n, k)
        assert action_compose(phi, psi) == ident
        assert action_compose(psi, phi).images == ident.images
    report(8, "action-group-structure", time.perf_counter() - t0, 60)


def test_criterion_09_named_values():
    t0 = time.perf_counter()
    single = parse("1: U1+ / 2: O1+")
    assert milnor(single, (2, 1)) == 1
    assert milnor(single, (1, 2)) == 0
    # independent route: the longitude of strand 1 is the bare meridian word
    # of strand 2, whose naive expansion has X2 coefficient 1
    naive = oracle.expand_letters([2], 2)
    assert naive.get((2,), 0) == 1

    g = lambda i: generator(3, i)
    comm = realize_sorted([commutator(g(2), g(3)), empty(3), empty(3)])
    assert milnor(comm, (3, 2, 1)) == 1
    assert milnor(comm, (2, 3, 1)) == -1
    naive = oracle.expand_letters([2, -3, -2, 3], 3)
    assert naive.get((3, 2), 0) == 1 and naive.get((2, 3), 0) == -1

    deep = realize_sorted([commutator(g(2), commutator(g(2), g(3))), empty(3), empty(3)])
    trivial = parse("1: / 2: / 3:")
    for mode in ("table", "longitude", "action"):
        assert compare(deep, trivial, 1, mode)[0] is True
        assert compare(deep, trivial, 2, mode)[0] is False
    print(f"ACCEPTANCE 9 named-values: PASS ({time.perf_counter() - t0:.2f}s, exact)")


def test_criterion_10_link_vanishing():
    rng = random.Random(110)
    t0 = time.perf_counter()
    for n in (2, 3):
        unlink = parse("\n".join(f"{i}:" for i in range(1, n + 1)), closed=True)
        for k in (1, 2, 3):
            assert link_vanishing(unlink, k)
    clasp = parse("1: U1+ U2+ / 2: O1+ O2+", closed=True)
    assert not link_vanishing(clasp, 1)

    for _ in range(50):
        n = rng.randint(2, 3)
        k = rng.randint(1, 2)
        link = closure(rand_code(rng, n, 5, roughen=False))
        ranges = [range(max(1, len(c))) for c in link.components]
        answers = {
            link_vanishing(link, k, list(bp)) for bp in itertools.product(*ranges)
        }
        assert len(answers) == 1, (n, k)
    report(10, "link-vanishing", time.perf_counter() - t0, 60)
