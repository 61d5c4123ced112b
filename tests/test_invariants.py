import dataclasses
import itertools
import random
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _oracle as oracle
from weldmag import cli, invariants, magnus
from weldmag.arrows import insert_self_tree, leaf, node, realize_sorted, sorted_presentation, surgery
from weldmag.gauss import (
    applicable_sites,
    apply_move,
    closure,
    longitude_series,
    parse,
    serialize,
    stack,
)
from weldmag.invariants import (
    InvariantError,
    InvariantTable,
    KReducedAction,
    action,
    action_compose,
    action_invert,
    compare,
    identity_action,
    link_vanishing,
    milnor,
    milnor_table,
    r_index,
)
from weldmag.magnus import (
    MagnusError,
    Substitution,
    TruncationPolicy,
    expand,
    mul_letter,
    series_from_terms,
    series_inverse,
    series_mul,
    series_one,
)
from weldmag.words import (
    commutator, empty, generator, invert, multiply, parse_word, power, word_from_letters,
)

SINGLE = parse("1: U1+ / 2: O1+")
TRIVIAL2 = parse("1: / 2:")
TRIVIAL3 = parse("1: / 2: / 3:")


def comm223():
    g = lambda i: generator(3, i)
    return realize_sorted([commutator(g(2), commutator(g(2), g(3))), empty(3), empty(3)])


def random_realized(rng, n, max_len=6):
    ws = [
        word_from_letters(n, oracle.random_reduced_letters(rng, n, rng.randint(0, max_len)))
        for _ in range(n)
    ]
    return realize_sorted(ws)


def test_r_index():
    assert r_index((2, 3, 1)) == 1
    assert r_index((2, 2, 3)) == 2
    assert r_index((1,)) == 1


def test_milnor_basics():
    assert milnor(TRIVIAL2, (2, 1)) == 0
    assert milnor(TRIVIAL2, (1,)) == 0
    assert milnor(SINGLE, (2, 1)) == 1
    assert milnor(SINGLE, (1, 2)) == 0
    assert milnor(SINGLE, (1,)) == 0


def test_milnor_on_realized_commutator():
    g = lambda i: generator(3, i)
    code = realize_sorted([commutator(g(2), g(3)), empty(3), empty(3)])
    assert milnor(code, (3, 2, 1)) == 1
    assert milnor(code, (2, 3, 1)) == -1
    assert milnor(code, (2, 1)) == 0


def test_milnor_index_validation():
    with pytest.raises(InvariantError):
        milnor(SINGLE, ())
    with pytest.raises(InvariantError):
        milnor(SINGLE, (3, 1))
    with pytest.raises(InvariantError):
        milnor(SINGLE, (0, 1))


def test_table_trivial_and_single():
    assert milnor_table(TRIVIAL2, 2).is_zero
    t = milnor_table(SINGLE, 1)
    assert t.entries == {(2, 1): 1}
    assert t.format_lines() == ["mu(2,1) = 1"]


def test_table_filters_and_ordering():
    rng = random.Random(5)
    for _ in range(5):
        code = random_realized(rng, 2)
        t = milnor_table(code, 2)
        for I in t.entries:
            assert r_index(I) <= 2
            assert 2 <= len(I) <= 4
            assert len(set(I)) > 1  # pure powers never appear
        lens = [(len(I), I) for I, _ in t.items_sorted()]
        assert lens == sorted(lens)


def test_table_max_len_does_not_change_entries():
    code = comm223()
    t = milnor_table(code, 2)
    for max_len in (2, 3, 5):
        capped = milnor_table(code, 2, max_len=max_len)
        assert capped.max_len == max_len
        assert capped.entries == {I: v for I, v in t.entries.items() if len(I) <= max_len}
    with pytest.raises(InvariantError):
        milnor_table(code, 0)


def moved_or_kinked(rng, code, style):
    """The code for style "sorted"; after an R2insert, an R1insert and an
    OCswap at random sites for "moved"; for "kinked", with a kink of order
    UO at the top end of a component, whose under passage has its own arc
    as over-arc and keeps the longitude iteration going to the degree
    bound."""
    if style == "moved":
        for kind in ("R2insert", "R1insert", "OCswap"):
            code = apply_move(code, kind, rng.choice(applicable_sites(code, kind)))
    elif style == "kinked":
        i = rng.randint(1, code.n)
        top = len(code.components[i - 1])
        code = apply_move(code, "R1insert", (i, top, rng.choice((1, -1)), "UO"))
    return code


def total_degree_table(code, k, cap):
    """The table read the direct way: total-degree longitudes through
    degree cap - 1, then every index tuple up to length cap with r(I) <= k."""
    n = code.n
    lam = longitude_series(code, TruncationPolicy.total_degree(n, cap - 1))
    entries = {}
    for length in range(2, cap + 1):
        for I in itertools.product(range(1, n + 1), repeat=length):
            if r_index(I) <= k:
                v = lam[I[-1] - 1].coefficient(I[:-1])
                if v:
                    entries[I] = v
    return entries


# Largest total degree whose quotient stays small enough for the direct route.
DIRECT_DEGREE = {2: 5, 3: 6, 4: 5}


def test_table_and_milnor_match_total_degree_read_out():
    rng = random.Random(59)
    for n, k in itertools.product((2, 3, 4), (1, 2, 3)):
        for style in ("sorted", "moved", "kinked"):
            code = moved_or_kinked(rng, random_realized(rng, n, 5), style)
            top = min(n * k, DIRECT_DEGREE[n] + 1)
            max_len = rng.randint(2, top)
            if max_len == n * k and rng.random() < 0.5:
                max_len = None
            cap = n * k if max_len is None else max_len
            t = milnor_table(code, k, max_len)
            assert t.max_len == cap
            assert t.entries == total_degree_table(code, k, cap), (n, k, style, max_len)

            for _ in range(4):
                I = tuple(rng.randint(1, n) for _ in range(rng.randint(1, DIRECT_DEGREE[n] + 1)))
                want = 0
                if len(I) > 1:
                    pol = TruncationPolicy.total_degree(n, len(I) - 1)
                    want = longitude_series(code, pol)[I[-1] - 1].coefficient(I[:-1])
                assert milnor(code, I) == want, (n, I)
            I = (1,) * (k + 1) + (2,)  # r(I) = k + 1: outside every table
            lam2 = longitude_series(code, TruncationPolicy.total_degree(n, k + 1))[1]
            assert milnor(code, I) == lam2.coefficient(I[:-1])


def test_k_equal_modes_on_named_pairs():
    code = comm223()
    for mode in ("table", "longitude", "action"):
        assert compare(code, code, 2, mode)[0]
        assert compare(code, TRIVIAL3, 1, mode)[0]
        assert not compare(code, TRIVIAL3, 2, mode)[0]
        assert not compare(SINGLE, TRIVIAL2, 1, mode)[0]


def test_k_equal_validation():
    with pytest.raises(InvariantError, match="component counts differ"):
        compare(SINGLE, TRIVIAL3, 1)
    with pytest.raises(InvariantError, match="unknown mode"):
        compare(SINGLE, TRIVIAL2, 1, "fast")
    with pytest.raises(InvariantError, match="k must be"):
        compare(SINGLE, TRIVIAL2, 0)


def test_level_is_an_integer():
    """Every question reads k the same way: a string or a float is refused
    by name, as is k < 1, and numpy integers are integers."""
    for bad, message in (("2", "k must be an integer, got '2'"),
                         (1.5, "k must be an integer, got 1.5"),
                         (0, "k must be >= 1, got 0")):
        for ask in (lambda k: milnor_table(SINGLE, k), lambda k: action(SINGLE, k),
                    lambda k: compare(SINGLE, SINGLE, k),
                    lambda k: link_vanishing(closure(SINGLE), k)):
            with pytest.raises(InvariantError, match=re.escape(message)):
                ask(bad)
    assert milnor_table(SINGLE, np.int64(1)) == milnor_table(SINGLE, 1)


def test_index_entries_caps_and_variables_are_integers():
    """An index entry, max_len and a letter's variable are read the way k
    is: a float or a string is refused by name, never truncated or parsed
    into an answer (mu(2,1) = 1 here)."""
    for I, bad in (((2.9, 1.2), "2.9"), (("2", "1"), "'2'"), ((2, 1.0), "1.0")):
        with pytest.raises(InvariantError, match=re.escape(f"index entry must be an integer, got {bad}")):
            milnor(SINGLE, I)
    for cap in (1.5, 2.5, "2"):
        with pytest.raises(InvariantError, match=re.escape(f"max_len must be an integer, got {cap!r}")):
            milnor_table(SINGLE, 2, cap)
    with pytest.raises(MagnusError, match=re.escape("variable must be an integer, got 1.0")):
        mul_letter(series_one(TruncationPolicy.total_degree(2, 2)), 1.0)
    assert milnor(SINGLE, np.array([2, 1])) == milnor(SINGLE, (2, 1)) == 1
    assert milnor_table(SINGLE, 2, np.int64(2)) == milnor_table(SINGLE, 2, 2)


def test_table_refuses_max_len_below_2():
    """A max_len below 2 is refused like k < 1, not echoed with an empty
    table; a cap below 2 that comes from n*k = 1 still gives the empty
    table."""
    for bad in (1, 0, -5, np.int64(1)):
        with pytest.raises(InvariantError, match=re.escape(f"max_len must be >= 2, got {bad}")):
            milnor_table(SINGLE, 2, bad)
    knot = parse("1: O1+ U1+")
    assert milnor_table(knot, 1) == milnor_table(knot, 1, 5) == InvariantTable(k=1, max_len=1)


def test_k_equal_modes_agree_on_random_pairs():
    rng = random.Random(31)
    for _ in range(12):
        n = rng.randint(2, 3)
        k = rng.randint(1, 2)
        L, M = random_realized(rng, n, 4), random_realized(rng, n, 4)
        answers = {mode: compare(L, M, k, mode)[0] for mode in ("table", "longitude", "action")}
        assert len(set(answers.values())) == 1, answers


def component_passes_agree(L, M, k):
    """The longitude route from its definition: for each component i, one
    pass per link under component_caps(n, k, i), comparing longitude i."""
    for i in range(1, L.n + 1):
        pol = TruncationPolicy.component_caps(L.n, k, i)
        if longitude_series(L, policy=pol)[i - 1] != longitude_series(M, policy=pol)[i - 1]:
            return False
    return True


def refinement_pair(rng, n, k):
    """Two sorted codes whose words differ only on component i, by the
    iterated commutator [a_i, [a_i, ... [a_i, a_j]]] with m copies of a_i
    (j != i).  With m = k every nonconstant term of it has X_i at least k
    times, so the pair is equal at level k although the longitudes differ
    in uniform_caps(n, k); with m = k - 1 it shows in component i's
    refinement alone."""
    ws = [word_from_letters(n, oracle.random_reduced_letters(rng, n, 3)) for _ in range(n)]
    i, j = rng.sample(range(1, n + 1), 2)
    c = generator(n, j)
    for _ in range(k - rng.randint(0, 1)):
        c = commutator(generator(n, i), c)
    bumped = list(ws)
    bumped[i - 1] = multiply(ws[i - 1], c)
    return realize_sorted(ws), realize_sorted(bumped)


def test_longitude_route_matches_per_component_passes():
    rng = random.Random(606)
    seen = set()
    for trial in range(36):
        n, k = rng.randint(2, 3), rng.randint(1, 2)
        style = trial % 4
        L = random_realized(rng, n, 4)
        if style == 0:
            M = random_realized(rng, n, 4)
        elif style == 1:
            M = L
            for kind in ("R2insert", "OCswap", "R1insert"):
                sites = applicable_sites(M, kind)
                if sites:
                    M = apply_move(M, kind, rng.choice(sites))
        elif style == 2:
            base = sorted_presentation([generator(n, rng.randint(1, n)) for _ in range(n)])
            i = rng.randint(1, n)
            t = leaf(i, twist=rng.choice((1, -1)))
            for _ in range(k - 1 + rng.randint(0, 1)):
                t = node(t, leaf(i, conjugator=generator(n, rng.randint(1, n))))
            L, M = surgery(base), surgery(insert_self_tree(base, i, t))
        else:
            L, M = refinement_pair(rng, n, k)
        want = component_passes_agree(L, M, k)
        assert compare(L, M, k, "longitude")[0] is want, (trial, n, k)
        uniform = TruncationPolicy.uniform_caps(n, k)
        differ = longitude_series(L, policy=uniform) != longitude_series(M, policy=uniform)
        seen.add((style, want, differ))
    # equal pairs whose uniform-caps longitudes differ, and distinct
    # refinement pairs, both occur
    assert (3, True, True) in seen and (3, False, True) in seen
    assert (2, True, True) in seen and (1, True, False) in seen


def test_longitude_route_runs_the_table_pass_only(monkeypatch):
    """compare in longitude mode makes one pass per link under the
    milnor_table policy and reads its witness off those longitudes."""
    policies = []

    def recording(code, policy):
        policies.append(policy)
        return longitude_series(code, policy=policy)

    monkeypatch.setattr(invariants, "longitude_series", recording)
    code = comm223()
    for k in (1, 2, 3):
        policies.clear()
        got = compare(code, TRIVIAL3, k, mode="longitude")
        table_pol = TruncationPolicy.with_caps(3, (k + 1,) * 3, 3 * k - 1)
        assert policies == [table_pol, table_pol]
        assert got == compare(code, TRIVIAL3, k, mode="table")


def test_k_equal_witness():
    assert compare(SINGLE, TRIVIAL2, 1)[1][0] == (2, 1)
    assert compare(SINGLE, SINGLE, 2)[1] is None
    code = comm223()
    w = compare(code, TRIVIAL3, 2)[1][0]
    assert w is not None and milnor(code, w) != 0


def test_action_needs_one_uniform_caps_conjugator_per_variable():
    pol = TruncationPolicy.uniform_caps(2, 2)
    one = series_one(pol)
    bad = {
        "none": (),
        "too few": (one,),
        "too many": (one,) * 3,
        "mixed policies": (one, series_one(TruncationPolicy.uniform_caps(2, 1))),
        "no caps": (series_one(TruncationPolicy.total_degree(2, 4)),) * 2,
        "caps not uniform": (series_one(TruncationPolicy.component_caps(2, 2, 1)),) * 2,
        "degree below the caps": (series_one(TruncationPolicy.with_caps(2, (3, 3), 3)),) * 2,
        "k = 0": (series_one(TruncationPolicy.uniform_caps(2, 0)),) * 2,
    }
    for name, conj in bad.items():
        with pytest.raises(InvariantError, match="one conjugator per variable"):
            KReducedAction(conj)
            pytest.fail(name)
    phi = KReducedAction((one, one))
    assert [f.name for f in dataclasses.fields(KReducedAction)] == ["conjugators"]
    assert (phi.policy, phi.rank, phi.k) == (pol, 2, 2)
    assert phi == identity_action(2, 2) != identity_action(2, 1)
    with pytest.raises(InvariantError, match="k must be >= 1, got 0"):
        identity_action(2, 0)


def self_tree(rng, n, i, leaves):
    """A random commutator tree with the given number of leaves, each
    labeled i: every nonconstant term of its word holds X_i at least that
    many times."""
    if leaves == 1:
        conj = generator(n, rng.randint(1, n)) if rng.random() < 0.5 else None
        return leaf(i, twist=rng.choice((1, -1)), conjugator=conj)
    left = rng.randint(1, leaves - 1)
    twist = rng.choice((1, -1))
    return node(self_tree(rng, n, i, left), self_tree(rng, n, i, leaves - left), twist)


def perturbed(phi, rng):
    """phi's conjugators plus random terms on monomials that hold X_i k
    times, the monomials residue i drops."""
    n, k = phi.rank, phi.k
    conj = []
    for i, c in enumerate(phi.conjugators, start=1):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            others = [j for j in range(1, n + 1) if j != i for _ in range(rng.randint(0, k))]
            mono = [i] * k + others
            rng.shuffle(mono)
            terms[tuple(mono)] = rng.choice((-2, -1, 1, 3))
        conj.append(c + series_from_terms(phi.policy, terms))
    return KReducedAction(tuple(conj))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32),
    st.sampled_from(((2, 1), (2, 2), (2, 3), (3, 1), (3, 2))),
    st.sampled_from(("realized", "moved", "tree")),
)
def test_equal_residues_give_equal_images(seed, nk, style):
    """The lemma behind action_invert's certificate: actions with equal
    residues have equal images.  The pairs are the actions of a realized
    code and of the same words with an iterated commutator [a_i, ...,
    [a_i, a_j]] appended to word i (equal or not at level k), of a code and
    the code after welded moves, and of a code and the code with a self-tree
    of k or k + 1 leaves inserted, and each with conjugators perturbed on
    monomials that hold X_i k times."""
    rng = random.Random(seed)
    n, k = nk
    if style == "realized":
        L, M = refinement_pair(rng, n, k)
    elif style == "moved":
        L = random_realized(rng, n, 4)
        M = moved_or_kinked(rng, L, "moved")
    else:
        base = sorted_presentation(
            [word_from_letters(n, oracle.random_reduced_letters(rng, n, 3)) for _ in range(n)]
        )
        i = rng.randint(1, n)
        t = self_tree(rng, n, i, k + rng.randint(0, 1))
        L, M = surgery(base), surgery(insert_self_tree(base, i, t))
    phi, psi = action(L, k), action(M, k)
    if style != "realized":
        assert phi == psi
    bumped = perturbed(phi, rng)
    assert phi == bumped and phi.conjugators != bumped.conjugators
    for a, b in ((phi, psi), (phi, bumped), (psi, bumped)):
        if a == b:
            assert a.images == b.images


def test_identity_action_and_action_of_trivial():
    ident = identity_action(2, 2)
    assert action(TRIVIAL2, 2) == ident
    for c in ident.conjugators:
        assert c.is_one
    pol = ident.policy
    assert ident.images == tuple(mul_letter(series_one(pol), i) for i in (1, 2))


def test_action_of_single_crossing():
    phi = action(SINGLE, 2)
    pol = phi.policy
    assert phi.images[0] == expand(parse_word("A2 a1 a2", 2), pol)
    assert phi.images[1] == mul_letter(series_one(pol), 2)
    assert phi != identity_action(2, 2)
    with pytest.raises(InvariantError):
        action(SINGLE, 0)


def test_action_apply():
    """phi acts on a word through its substitution applied to the word's
    expansion: multiplicatively, trivially for the identity action, and
    only on words of phi's rank."""
    phi = action(SINGLE, 2)
    apply = Substitution(phi.conjugators)
    assert apply(expand(empty(2), phi.policy)).is_one
    w = parse_word("a1 a2", 2)
    lhs = apply(expand(w, phi.policy))
    rhs = series_mul(
        apply(expand(generator(2, 1), phi.policy)), apply(expand(generator(2, 2), phi.policy))
    )
    assert lhs == rhs
    ident = identity_action(2, 2)
    assert Substitution(ident.conjugators)(expand(w, ident.policy)) == expand(w, ident.policy)
    with pytest.raises(magnus.MagnusError, match="rank"):
        apply(expand(generator(3, 1), phi.policy))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32),
    st.sampled_from(((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3))),
    st.lists(st.tuples(st.integers(1, 3), st.integers(-3, 3)), max_size=6),
    st.booleans(),
)
@example(0, (2, 2), [], False)  # the empty word
@example(0, (2, 2), [(1, 1), (2, 1)], True)  # a1 a2 under the identity
def test_action_apply_is_the_product_of_image_powers(seed, nk, runs, identity):
    """phi(w) is phi's substitution applied to the expansion of w; the
    reference multiplies phi's images run by run, the inverse of an image
    standing in for each letter of a negative run."""
    rng = random.Random(seed)
    n, k = nk
    if identity:
        phi = identity_action(n, k)
    else:
        phi = action(moved_or_kinked(rng, random_realized(rng, n, 4), "moved"), k)
    w = multiply(empty(n), *(power(generator(n, (g - 1) % n + 1), e) for g, e in runs))
    want = series_one(phi.policy)
    for g, e in w.runs:
        image = phi.images[g - 1] if e > 0 else series_inverse(phi.images[g - 1])
        for _ in range(abs(e)):
            want = series_mul(want, image)
    got = Substitution(phi.conjugators)(expand(w, phi.policy))
    assert got == want
    if identity:
        assert got == expand(w, phi.policy)


def test_action_compose_identity_and_homomorphism():
    ident = identity_action(2, 1)
    phi = action(SINGLE, 1)
    assert action_compose(phi, ident) == phi
    assert action_compose(ident, phi) == phi

    rng = random.Random(41)
    for _ in range(6):
        n = rng.randint(2, 3)
        k = rng.randint(1, 2)
        L, M = random_realized(rng, n, 4), random_realized(rng, n, 4)
        lhs = action_compose(action(L, k), action(M, k))
        rhs = action(stack(L, M), k)
        assert lhs == rhs
        assert lhs.images == rhs.images


def test_action_compose_associative():
    rng = random.Random(43)
    acts = [action(random_realized(rng, 2, 4), 2) for _ in range(3)]
    a, b, c = acts
    assert action_compose(action_compose(a, b), c) == action_compose(a, action_compose(b, c))


def test_action_compose_validation():
    with pytest.raises(InvariantError, match="parameters differ"):
        action_compose(identity_action(2, 1), identity_action(2, 2))
    with pytest.raises(InvariantError, match="parameters differ"):
        action_compose(identity_action(2, 1), identity_action(3, 1))


def test_action_invert():
    rng = random.Random(47)
    ident2 = identity_action(2, 2)
    for L in [SINGLE, random_realized(rng, 2, 5), random_realized(rng, 2, 5)]:
        phi = action(L, 2)
        psi = action_invert(phi)
        assert action_compose(phi, psi) == ident2
        assert action_compose(psi, phi).images == ident2.images
    assert action_invert(ident2) == ident2


def test_action_compose_inverts_each_conjugator_once(monkeypatch):
    """One substitution per composition: n series_inverse calls, not n per
    conjugator."""
    rng = random.Random(53)
    phi, psi = action(random_realized(rng, 3, 5), 2), action(random_realized(rng, 3, 5), 2)
    calls = []
    real = magnus.series_inverse

    def counting(s):
        calls.append(s)
        return real(s)

    monkeypatch.setattr(magnus, "series_inverse", counting)
    # invariants itself no longer binds series_inverse; patch it if it does
    monkeypatch.setattr(invariants, "series_inverse", counting, raising=False)
    action_compose(phi, psi)
    assert 0 < len(calls) <= 3


def test_action_invert_reuses_the_substitution_inverses(monkeypatch):
    """At n=3: three inversions for phi's substitution, whose inverses are
    also the fixed-point targets and which composes phi then psi, and three
    for psi's, which composes psi then phi.  The certificate compares
    residues, so no composite's images are formed."""
    rng = random.Random(59)
    phi = action(random_realized(rng, 3, 5), 2)
    calls = []
    real = magnus.series_inverse

    def counting(s):
        calls.append(s)
        return real(s)

    monkeypatch.setattr(magnus, "series_inverse", counting)
    monkeypatch.setattr(invariants, "series_inverse", counting, raising=False)
    action_invert(phi)
    assert len(calls) == 6


def test_action_invert_forms_each_monomial_image_once(monkeypatch):
    """Every fixed-point round reuses phi's substitution.  A call forms
    the images its input still lacks in at most one segmented product per
    degree layer it fills, and its only other sum is the apply; the images
    kept are exactly the prefix closure of the supports applied, the
    constant included."""
    sums = [0]
    real = magnus.scatter_sum

    def counting(*args):
        sums[0] += 1
        return real(*args)

    subs = []

    class Recording(magnus.Substitution):
        def __init__(self, conjugators):
            super().__init__(conjugators)
            self.conjugators = tuple(conjugators)
            self.applied, self.layers = [], []
            subs.append(self)

        def _form_layer(self, new):
            (degree,) = set(self._space.deg[new].tolist())
            self.layers[-1].append(degree)
            return super()._form_layer(new)

        def __call__(self, s):
            self.applied.append(s)
            self.layers.append([])
            before = sums[0]
            out = super().__call__(s)
            assert sums[0] - before == len(self.layers[-1]) + 1
            return out

    rng = random.Random(59)
    phi = action(random_realized(rng, 3, 6), 2)
    monkeypatch.setattr(magnus, "scatter_sum", counting)
    monkeypatch.setattr(invariants, "Substitution", Recording)
    action_invert(phi)
    (sub,) = [s for s in subs if all(a is b for a, b in zip(s.conjugators, phi.conjugators))]
    n = phi.rank
    assert len(sub.applied) >= 2 * n and any(sub.layers)
    assert all(len(layers) == len(set(layers)) for layers in sub.layers)
    closure = {()}
    for s in sub.applied:
        closure.update(m[:j] for m, _ in s.items() for j in range(len(m)))
        closure.update(m for m, _ in s.items())
    assert int((sub._start >= 0).sum()) == len(closure) > n + 1


@pytest.mark.parametrize("n, k, seed", [(3, 2, 1), (2, 4, 3), (4, 1, 4)])
def test_halving_past_layer_terms_changes_no_result(monkeypatch, n, k, seed):
    """A segmented product or an apply that would gather more than
    magnus.LAYER_TERMS terms runs in halves.  At bounds of 1, 7 and 50
    terms, which split nearly every layer and apply of a 13-15-crossing
    moved code, action_invert and the substitution applied to each
    conjugator equal their results at the default bound."""
    rng = random.Random(seed)
    phi = action(moved_or_kinked(rng, random_realized(rng, n, 16 // n + 1), "moved"), k)
    calls = Counter()
    for name in ("_form_layer", "_apply"):
        def counted(self, *args, _real=getattr(magnus.Substitution, name), _name=name):
            calls[_name] += 1
            return _real(self, *args)

        monkeypatch.setattr(magnus.Substitution, name, counted)

    def answers():
        sub = Substitution(phi.conjugators)
        return action_invert(phi).conjugators, [sub(c) for c in phi.conjugators]

    want, default_calls = answers(), Counter(calls)
    for terms in (1, 7, 50):
        monkeypatch.setattr(magnus, "LAYER_TERMS", terms)
        calls.clear()
        assert answers() == want, terms
    assert calls["_form_layer"] > default_calls["_form_layer"] and calls["_apply"] > default_calls["_apply"]


def test_images_and_action_compare_never_build_the_operator(monkeypatch):
    """Construction forms only the inverses and the variable images; the
    right-multiplication operator is built by the first call that forms a
    monomial image."""

    def refuse(self):
        raise AssertionError("operator built")

    monkeypatch.setattr(magnus.Substitution, "_operator", property(refuse))
    rng = random.Random(61)
    L, M = random_realized(rng, 3, 5), random_realized(rng, 3, 5)
    phi = action(L, 2)
    assert len(phi.images) == 3
    argv = ["compare", serialize(L), serialize(M), "--k", "2", "--mode", "action"]
    assert cli.main(argv) in (0, 1)
    with pytest.raises(AssertionError, match="operator built"):
        action_compose(phi, action(M, 2))


def test_action_ignores_degree_k_self_trees():
    g = lambda i: generator(2, i)
    base = sorted_presentation([commutator(g(2), g(1)), empty(2)])
    t = node(leaf(1, conjugator=g(2)), leaf(1))
    bumped = insert_self_tree(base, 1, t, position=0)
    assert action(surgery(base), 2) == action(surgery(bumped), 2)


def test_link_vanishing_named_links():
    unlink = parse("1: / 2:", closed=True)
    for k in (1, 2, 3):
        assert link_vanishing(unlink, k)
    hopf = parse("1: U1+ / 2: O1+", closed=True)
    assert not link_vanishing(hopf, 1)
    closed = closure(comm223())
    assert link_vanishing(closed, 1)
    assert not link_vanishing(closed, 2)
    with pytest.raises(InvariantError):
        link_vanishing(unlink, 0)


def test_link_vanishing_is_basepoint_independent():
    rng = random.Random(53)
    links = [closure(comm223())]
    links += [closure(random_realized(rng, 2, 4)) for _ in range(2)]
    for link in links:
        for k in (1, 2):
            ranges = [range(max(1, len(c))) for c in link.components]
            answers = {link_vanishing(link, k, bp) for bp in itertools.product(*ranges)}
            assert len(answers) == 1, (serialize(link), k)

