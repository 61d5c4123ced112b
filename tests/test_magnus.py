import itertools
import math
import random
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _oracle as oracle
from weldmag import hall, magnus
from weldmag.magnus import (
    MagnusError,
    Substitution,
    TruncatedSeries,
    TruncationPolicy,
    _PolicySpace,
    expand,
    format_monomial,
    format_series,
    mul_letter,
    retruncate,
    series_from_terms,
    series_inverse,
    series_mul,
    series_one,
)
from weldmag.words import (
    Word,
    commutator,
    conjugate,
    generator,
    invert,
    multiply,
    parse_word,
    power,
    word_from_letters,
)


def as_dict(s):
    return {m: c for m, c in s.items()}


def rand_series(rng, policy, terms=6, span=9):
    out = {(): 1}
    monos = [m for m, _ in expand_all_monos(policy) if m != ()]
    for _ in range(terms if monos else 0):
        out[rng.choice(monos)] = rng.randint(-span, span)
    return series_from_terms(policy, out), {m: c for m, c in out.items() if c}


def expand_all_monos(policy):
    # every admissible monomial, with coefficient 0
    return [(m, 0) for m in all_monos(magnus._space(policy))]


def all_monos(space):
    """Every monomial of the space in index order, read off its letters
    matrix row by row."""
    return [tuple(row[:d]) for row, d in zip(space.letters.tolist(), space.deg.tolist())]


def test_policy_constructors():
    p = TruncationPolicy.total_degree(3, 4)
    assert p.rank == 3 and p.max_total_degree == 4 and p.caps == (5, 5, 5)
    u = TruncationPolicy.uniform_caps(3, 2)
    assert u.caps == (3, 3, 3) and u.max_total_degree == 6
    c = TruncationPolicy.component_caps(3, 2, 2)
    assert c.caps == (3, 2, 3) and c.max_total_degree == 5
    w = TruncationPolicy.with_caps(2, (2, 4))
    assert w.max_total_degree == 4
    with pytest.raises(MagnusError):
        TruncationPolicy.total_degree(0, 3)
    with pytest.raises(MagnusError):
        TruncationPolicy.with_caps(2, (0, 2))
    # a float or a string is refused by name, not rounded into a policy or
    # kept until a later step fails; numpy integers are integers
    for rank, q, caps, bad in (
        (2, 1.5, (3, 3), "total degree cap must be an integer, got 1.5"),
        (2, 3, (2.9, 2), "caps entry must be an integer, got 2.9"),
        (2, 3, ("3", 3), "caps entry must be an integer, got '3'"),
        (2.0, 3, (3, 3), "rank must be an integer, got 2.0"),
        (2, 3, None, "caps must be a sequence of integers, got None"),
        (2, 3, 3, "caps must be a sequence of integers, got 3"),
        (2, 3, "ab", "caps must be a sequence of integers, got 'ab'"),
    ):
        with pytest.raises(MagnusError, match=re.escape(bad)):
            TruncationPolicy(rank, q, caps)
    n = TruncationPolicy(np.int64(2), np.int32(3), (np.int8(2), 3))
    assert n == TruncationPolicy.with_caps(2, (2, 3))
    assert all(type(x) is int for x in (n.rank, n.max_total_degree, *n.caps))


# descriptions (rank, q, caps) with a cap above q + 1 or a degree above
# sum(caps) - rank, each with the policy of its ideal
REDUNDANT_DESCRIPTIONS = [
    ((2, 5, (2, 2)), TruncationPolicy.with_caps(2, (2, 2))),
    ((2, 3, (4, 4)), TruncationPolicy.total_degree(2, 3)),
    ((3, 3, (9, 1, 2)), TruncationPolicy.with_caps(3, (4, 1, 2), 3)),
    ((2, 0, (3, 1)), TruncationPolicy.with_caps(2, (1, 1))),
]


@pytest.mark.parametrize("description, policy", REDUNDANT_DESCRIPTIONS)
def test_one_ideal_has_one_policy(description, policy):
    """A cap above q + 1 or a degree above sum(caps) - rank drops nothing,
    so two descriptions of one ideal construct one policy, with one
    monomial space, and the policy is its own description."""
    rank, q, caps = description
    p = TruncationPolicy.with_caps(rank, caps, q)
    assert p == policy and hash(p) == hash(policy)
    assert series_one(p) == series_one(policy)
    assert magnus._space(p) is magnus._space(policy)
    assert TruncationPolicy(p.rank, p.max_total_degree, p.caps) == p
    monos = [m for d in range(q + 1) for m in itertools.product(range(1, rank + 1), repeat=d)
             if oracle.survives(m, q, caps)]
    assert all_monos(magnus._space(p)) == monos


def test_degree_arguments_are_range_checked():
    s = series_one(TruncationPolicy.total_degree(2, 3))
    for d in (-1, 4):
        with pytest.raises(MagnusError, match=rf"degree {d} out of range 0\.\.3"):
            s.degree_block(d)
    with pytest.raises(MagnusError, match=r"degree -2 out of range 0\.\.3"):
        s.agrees_through_degree(series_one(s.policy), -2)
    assert s.degree_block(0).tolist() == [1] and s.degree_block(3).shape == (8,)
    assert s.agrees_through_degree(s, 0) and s.agrees_through_degree(s, 7)


def test_expand_commutator_lowest_terms():
    """E([a1,a2]) = 1 + X2X1 - X1X2 + higher."""
    pol = TruncationPolicy.total_degree(2, 2)
    s = expand(commutator(generator(2, 1), generator(2, 2)), pol)
    assert as_dict(s) == {(): 1, (2, 1): 1, (1, 2): -1}


def test_expand_matches_naive_total_degree():
    rng = random.Random(3)
    for _ in range(120):
        rank = rng.randint(1, 3)
        q = rng.randint(1, 4)
        letters = oracle.random_reduced_letters(rng, rank, rng.randint(0, 6))
        w = word_from_letters(rank, letters)
        pol = TruncationPolicy.total_degree(rank, q)
        assert as_dict(expand(w, pol)) == oracle.expand_letters(list(w.letters()), q)


def test_expand_matches_naive_caps():
    rng = random.Random(4)
    for _ in range(120):
        rank = rng.randint(1, 3)
        caps = tuple(rng.randint(1, 3) for _ in range(rank))
        pol = TruncationPolicy.with_caps(rank, caps)
        letters = oracle.random_reduced_letters(rng, rank, rng.randint(0, 6))
        w = word_from_letters(rank, letters)
        got = as_dict(expand(w, pol))
        want = oracle.expand_letters(list(w.letters()), pol.max_total_degree, caps)
        assert got == want


def test_series_mul_matches_naive():
    rng = random.Random(5)
    for _ in range(80):
        rank = rng.randint(1, 3)
        if rng.random() < 0.5:
            pol = TruncationPolicy.total_degree(rank, rng.randint(1, 4))
        else:
            pol = TruncationPolicy.with_caps(rank, tuple(rng.randint(1, 3) for _ in range(rank)))
        a, da = rand_series(rng, pol)
        b, db = rand_series(rng, pol)
        got = as_dict(series_mul(a, b))
        want = oracle.mul(da, db, pol.max_total_degree, pol.caps)
        assert got == want


# codes of rank-1 monomials up to degree 70, or of caps (70, 1), pass int64
OVERFLOW_POLICIES = [TruncationPolicy.total_degree(1, 70), TruncationPolicy.with_caps(2, (70, 1))]

KERNEL_POLICIES = st.one_of(
    st.builds(TruncationPolicy.total_degree, st.integers(1, 3), st.integers(1, 4)),
    st.builds(TruncationPolicy.uniform_caps, st.integers(1, 3), st.integers(1, 2)),
    st.integers(2, 3).flatmap(
        lambda n: st.builds(
            TruncationPolicy.component_caps, st.just(n), st.integers(1, 2), st.integers(1, n)
        )
    ),
    st.lists(st.integers(1, 3), min_size=1, max_size=3).flatmap(
        lambda caps: st.builds(
            TruncationPolicy.with_caps,
            st.just(len(caps)),
            st.just(tuple(caps)),
            st.integers(0, sum(caps) - len(caps)),
        )
    ),
    st.sampled_from(OVERFLOW_POLICIES),
)


def record_paths(monkeypatch):
    """Lifts the size floor of the pair path, so that the pair count alone
    picks the path on small policies, and counts the products each triple
    source forms."""
    monkeypatch.setattr(magnus, "DENSE_BELOW_TRIPLES", 0)
    paths = {"pairs": 0, "dense": 0}
    real = magnus._support_pairs

    def recording(space, sv, tv, *degree):
        pairs = real(space, sv, tv, *degree)
        paths["dense" if pairs is None else "pairs"] += 1
        return pairs

    monkeypatch.setattr(magnus, "_support_pairs", recording)
    return paths


def kernel_operands(rng, policy, support, big):
    """Two random operands, from one term to full support, as dicts; the
    first scaled past float precision when big."""
    space = magnus._space(policy)
    monos = all_monos(space)

    def operand(full):
        picks = monos if full else rng.sample(monos, rng.randint(1, min(len(monos), 12)))
        return {m: rng.choice((-1, 1)) * rng.randint(1, 9) for m in picks}

    da, db = operand(support == "full"), operand(support != "sparse")
    if big:
        da = {m: c * (2**62 + 1) for m, c in da.items()}
    return da, db


def test_wide_total_degree_policy_takes_the_support_pairs(monkeypatch):
    """A total-degree policy's caps q + 1 never bind on a product within the
    degree, so no letter count is packed, and a rank too wide to pack them
    all still has the support pairs: sparse products of total_degree(16, 3),
    above the size floor of the pair path, take them and match the oracle."""
    policy = TruncationPolicy.total_degree(16, 3)
    space = magnus._space(policy)
    assert space.pairs_fit and space.triples >= magnus.DENSE_BELOW_TRIPLES
    paths = record_paths(monkeypatch)
    rng = random.Random(16)
    for _ in range(20):
        da, db = kernel_operands(rng, policy, "sparse", False)
        got = series_mul(series_from_terms(policy, da), series_from_terms(policy, db))
        assert as_dict(got) == oracle.mul(da, db, policy.max_total_degree, policy.caps)
    assert paths == {"pairs": 20, "dense": 0}


def test_kernel_rule_counts_the_triples_a_call_reads():
    """uniform_caps(4, 2) has 57,837 split triples, past the size floor of
    the pair path, and sparse operands take the support pairs for a whole
    product.  A degree block reads only its own triples: the blocks of
    degrees 1-5, below the floor, take the split triples however sparse the
    operands, and the degree-7 block, 20,160 triples, takes the pairs."""
    policy = TruncationPolicy.uniform_caps(4, 2)
    space = magnus._space(policy)
    s = series_from_terms(policy, {(1, 2): 1, (1, 1, 2, 2, 3, 3): -1})
    t = series_from_terms(policy, {(): 1, (4,): 2})
    assert magnus._support_pairs(space, s._vec, t._vec) is not None
    for degree in range(1, 6):
        first, last = space.triple_span(degree)
        assert last - first < magnus.DENSE_BELOW_TRIPLES
        assert magnus._support_pairs(space, s._vec, t._vec, degree) is None, degree
    first, last = space.triple_span(7)
    assert last - first == 20_160
    assert magnus._support_pairs(space, s._vec, t._vec, 7) is not None


def test_series_mul_kernel_matches_oracle(monkeypatch):
    """Both product paths against the dict oracle, from one-term operands
    to full support, on int64 and (coefficients times 2**62 + 1, past
    float precision) on Python ints; both paths must run."""
    paths = record_paths(monkeypatch)

    @given(
        KERNEL_POLICIES,
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from(["sparse", "mixed", "full"]),
        st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def check(policy, seed, support, big):
        da, db = kernel_operands(random.Random(seed), policy, support, big)
        a, b = series_from_terms(policy, da), series_from_terms(policy, db)
        for x, y, dx, dy in ((a, b, da, db), (b, a, db, da)):
            got = series_mul(x, y)
            assert as_dict(got) == oracle.mul(dx, dy, policy.max_total_degree, policy.caps)
            assert (got._vec.dtype == object) == big

    check()
    assert paths["pairs"] and paths["dense"], paths


def test_convolve_degree_block_matches_the_full_product(monkeypatch):
    """_convolve(..., degree=t) is degree block t of the oracle's product
    and zero elsewhere, on both triple sources."""
    paths = record_paths(monkeypatch)

    @given(
        KERNEL_POLICIES,
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from(["sparse", "mixed", "full"]),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def check(policy, seed, support, big):
        da, db = kernel_operands(random.Random(seed), policy, support, big)
        space = magnus._space(policy)
        want = oracle.mul(da, db, policy.max_total_degree, policy.caps)
        sv, tv = series_from_terms(policy, da)._vec, series_from_terms(policy, db)._vec
        for t in range(policy.max_total_degree + 1):
            got = TruncatedSeries(policy, magnus._convolve(space, sv, tv, degree=t))
            assert as_dict(got) == {m: c for m, c in want.items() if len(m) == t}

    check()
    assert paths["pairs"] and paths["dense"], paths


@pytest.mark.parametrize("constant", [1, -1])
def test_series_inverse_matches_oracle(monkeypatch, constant):
    """Back substitution one degree at a time against the oracle's
    geometric series, on both triple sources and past int64."""
    paths = record_paths(monkeypatch)

    @given(
        KERNEL_POLICIES,
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from(["sparse", "mixed", "full"]),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def check(policy, seed, support, big):
        da, _ = kernel_operands(random.Random(seed), policy, support, big)
        da[()] = constant
        got = series_inverse(series_from_terms(policy, da))
        assert as_dict(got) == oracle.inverse(da, policy.max_total_degree, policy.caps)

    check()
    assert paths["pairs"] and paths["dense"], paths


def test_series_add_sub_neg_match_naive():
    rng = random.Random(15)
    for _ in range(80):
        rank = rng.randint(1, 3)
        if rng.random() < 0.5:
            pol = TruncationPolicy.total_degree(rank, rng.randint(1, 4))
        else:
            pol = TruncationPolicy.with_caps(rank, tuple(rng.randint(1, 3) for _ in range(rank)))
        a, da = rand_series(rng, pol)
        b, db = rand_series(rng, pol)
        assert as_dict(a + b) == oracle.add(da, db)
        assert as_dict(a - b) == oracle.add(da, oracle.neg(db))
        assert as_dict(-a) == oracle.neg(da)


def test_series_inverse_and_pow():
    rng = random.Random(6)
    pol = TruncationPolicy.total_degree(2, 4)
    for _ in range(40):
        s, _ = rand_series(rng, pol)
        assert series_mul(s, series_inverse(s)).is_one
        assert series_mul(series_inverse(s), s).is_one
    minus = series_from_terms(pol, {(): -1, (1,): 2})
    assert series_mul(minus, series_inverse(minus)).is_one
    with pytest.raises(MagnusError):
        series_inverse(series_from_terms(pol, {(): 2}))


def test_expand_is_multiplicative():
    rng = random.Random(7)
    pol = TruncationPolicy.uniform_caps(3, 2)
    for _ in range(40):
        u = word_from_letters(3, oracle.random_reduced_letters(rng, 3, 5))
        v = word_from_letters(3, oracle.random_reduced_letters(rng, 3, 5))
        assert expand(multiply(u, v), pol) == series_mul(expand(u, pol), expand(v, pol))
        assert series_mul(expand(u, pol), expand(invert(u), pol)).is_one


def test_faithfulness_small():
    """expand(w) = 1 iff w is the empty word (all reduced words, len <= 3, rank 2)."""
    pol = TruncationPolicy.total_degree(2, 4)
    stack = [[]]
    count = 0
    while stack:
        prefix = stack.pop()
        w = word_from_letters(2, prefix)
        count += 1
        assert expand(w, pol).is_one == (len(prefix) == 0)
        if len(prefix) < 3:
            for l in (1, -1, 2, -2):
                if prefix and prefix[-1] == -l:
                    continue
                stack.append(prefix + [l])
    assert count == 1 + 4 + 4 * 3 + 4 * 9


def test_lcs_lower_bound():
    """The lowest degree of a nonconstant term of expand(w) at total degree
    q, the lower-central depth of w when it is at most q; an expansion equal
    to 1 means depth at least q + 1."""
    a, b, c = (generator(3, i) for i in (1, 2, 3))

    def lowest(w, q):
        s = expand(w, TruncationPolicy.total_degree(w.rank, q))
        return next(d for d in range(1, q + 1) if s.degree_block(d).any())

    assert expand(word_from_letters(3, []), TruncationPolicy.total_degree(3, 5)).is_one
    assert lowest(a, 5) == 1
    assert lowest(commutator(a, b), 5) == 2
    assert lowest(commutator(a, commutator(b, c)), 5) == 3
    deep = commutator(a, commutator(b, commutator(c, a)))
    assert expand(deep, TruncationPolicy.total_degree(3, 3)).is_one  # deviation starts at 4
    assert lowest(deep, 4) == 4
    with pytest.raises(MagnusError):
        TruncationPolicy.total_degree(3, 0)


def test_in_Jr():
    """Membership in the subgroup J_r of a cap vector r: expand(w) is 1
    under the policy that drops any monomial in which X_j occurs r_j times."""

    def in_Jr(w, caps):
        return expand(w, TruncationPolicy.with_caps(w.rank, caps)).is_one

    # conjugates of a2 commutated twice: two occurrences of X2 in every term
    a2, a3 = generator(3, 2), generator(3, 3)
    w = commutator(a2, conjugate(a2, a3))
    assert in_Jr(w, (3, 2, 3))       # J_2^2: cap X2 at 1 surviving occurrence
    assert not in_Jr(w, (3, 3, 3))   # J_2^3 needs three occurrences
    assert not in_Jr(a2, (3, 2, 3))
    assert in_Jr(power(a2, 5), (3, 1, 3))
    with pytest.raises(MagnusError):
        TruncationPolicy.with_caps(3, (3, 3))  # caps length mismatch


def test_coefficient():
    pol = TruncationPolicy.total_degree(2, 3)
    s = expand(commutator(generator(2, 1), generator(2, 2)), pol)
    assert s.coefficient((2, 1)) == 1
    assert s.coefficient((1, 2)) == -1
    assert s.coefficient(()) == 1
    assert s.coefficient((1,)) == 0
    with pytest.raises(MagnusError):
        s.coefficient((1, 1, 1, 1))  # outside the policy


def test_retruncate():
    fine = TruncationPolicy.uniform_caps(2, 2)
    coarse = TruncationPolicy.component_caps(2, 2, 1)
    rng = random.Random(8)
    for _ in range(30):
        s, d = rand_series(rng, fine)
        r = retruncate(s, coarse)
        want = oracle.clean(d, coarse.max_total_degree, coarse.caps)
        assert as_dict(r) == want
    with pytest.raises(MagnusError):
        retruncate(series_one(coarse), fine)  # refinement is not allowed


def test_substitute_conjugates_matches_naive():
    rng = random.Random(9)
    for trial in range(25):
        # keep the naive side small: rank 2 at k = 2, rank 3 at k = 1
        rank = 2 if trial % 5 else 3
        pol = TruncationPolicy.uniform_caps(rank, 2 if rank == 2 else 1)
        s, ds = rand_series(rng, pol, terms=4, span=4)
        conjs = []
        dconjs = []
        for _ in range(rank):
            w = word_from_letters(rank, oracle.random_reduced_letters(rng, rank, 3))
            conjs.append(expand(w, pol))
            dconjs.append(oracle.expand_letters(list(w.letters()), pol.max_total_degree, pol.caps))
        got = as_dict(Substitution(conjs)(s))
        want = oracle.substitute(ds, dconjs, pol.max_total_degree, pol.caps)
        assert got == want


def random_conjugators(rng, pol):
    """Unit series of random words under pol, with their oracle dicts."""
    conjs, dconjs = [], []
    for _ in range(pol.rank):
        w = word_from_letters(pol.rank, oracle.random_reduced_letters(rng, pol.rank, 3))
        conjs.append(expand(w, pol))
        dconjs.append(oracle.expand_letters(list(w.letters()), pol.max_total_degree, pol.caps))
    return conjs, dconjs


@given(
    st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=3),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_substitution_matches_oracle_on_caps_policies(caps, q, seed, big):
    """One Substitution applied to several series in a row: each result
    must match the oracle, so no cached monomial image carries one series'
    coefficients into the next."""
    rank = len(caps)
    pol = TruncationPolicy.with_caps(rank, caps, min(q, sum(caps) - rank))
    rng = random.Random(seed)
    conjs, dconjs = random_conjugators(rng, pol)
    sub = Substitution(conjs)
    for trial in range(4):
        s, ds = rand_series(rng, pol, terms=5, span=6)
        if big and trial == 1:
            ds = {m: c * 2**62 for m, c in ds.items()}
            s = series_from_terms(pol, ds)
        want = oracle.substitute(ds, dconjs, pol.max_total_degree, pol.caps)
        assert as_dict(sub(s)) == want
        assert as_dict(Substitution(conjs)(s)) == want


SUBSTITUTION_POLICIES = st.one_of(
    st.builds(TruncationPolicy.uniform_caps, st.integers(1, 3), st.integers(1, 2)),
    st.integers(2, 3).flatmap(
        lambda n: st.builds(
            TruncationPolicy.component_caps, st.just(n), st.integers(1, 2), st.integers(1, n)
        )
    ),
    st.builds(TruncationPolicy.total_degree, st.integers(1, 3), st.integers(1, 4)),
)


def test_layered_substitution_matches_oracle(monkeypatch):
    """One Substitution applied to three series: the first supported in a
    middle degree, the later ones in every degree, so that later calls form
    layers both below and above those already formed.  Big conjugators put
    images past int64 into the pool beside int64 ones.  Every result must
    match the oracle, and every segmented product forms one degree."""
    seen = {"below": 0, "above": 0, "mixed": 0}
    real = Substitution._form_layer

    def recording(self, new):
        (degree,) = set(self._space.deg[new].tolist())
        self.layers.append(degree)
        return real(self, new)

    monkeypatch.setattr(Substitution, "_form_layer", recording)

    @given(SUBSTITUTION_POLICIES, st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
    @example(TruncationPolicy.uniform_caps(2, 2), 5, True)  # its pool mixes
    @settings(max_examples=40, deadline=None)
    def check(policy, seed, big):
        rng = random.Random(seed)
        q, caps = policy.max_total_degree, policy.caps
        conjs, dconjs = random_conjugators(rng, policy)
        monos = expand_all_monos(policy)
        if big:
            m = rng.choice([m for m, _ in monos if m])
            dconjs[0] = oracle.add(dconjs[0], {m: 2**63 + 1})
            conjs[0] = series_from_terms(policy, dconjs[0])
        mid = (q + 1) // 2
        first = rng.choice([m for m, _ in monos if len(m) == mid])
        below = [m for m, _ in monos if len(m) < mid and m != first[: len(m)]]
        above = [m for m, _ in monos if len(m) > mid]
        supports = [[first], [rng.choice(x) for x in (below, above) if x]]
        supports.append([m for m, _ in rng.sample(monos, min(5, len(monos)))])
        sub = Substitution(conjs)
        sub.layers = []
        for call, support in enumerate(supports):
            ds = {m: rng.randint(-6, 6) or 1 for m in support}
            before = len(sub.layers)
            assert as_dict(sub(series_from_terms(policy, ds))) == oracle.substitute(ds, dconjs, q, caps)
            if call == 1:
                assert any(d < mid for d in sub.layers[before:]) == bool(below)
                assert any(d > mid for d in sub.layers[before:]) == bool(above)
                seen["below"] += bool(below)
                seen["above"] += bool(above)
        values = sub._values.tolist()
        seen["mixed"] += any(abs(x) >= 2**63 for x in values) and any(0 < abs(x) < 2**63 for x in values)

    check()
    assert all(seen.values()), seen


def test_substitution_on_python_int_codes_matches_oracle():
    """Rank 1 at k = 62: the codes pass int64, so products take the split
    triples; images formed over two calls, the second below and above the
    first's layers."""
    policy = TruncationPolicy.uniform_caps(1, 62)
    assert not magnus._space(policy).pairs_fit
    q = policy.max_total_degree
    dconj = {(): 1, (1,): 3, (1, 1): -2, (1,) * 5: 7}
    sub = Substitution([series_from_terms(policy, dconj)])
    for ds in ({(1,) * 30: 2, (1,) * 31: -1}, {(1,): 5, (1,) * 10: -3, (1,) * 62: 4}):
        got = sub(series_from_terms(policy, ds))
        assert as_dict(got) == oracle.substitute(ds, [dconj], q, policy.caps)
    assert int((sub._start >= 0).sum()) == 63


def test_substitution_object_path_matches_oracle():
    """A coefficient of 2**62 moves the sum to Python ints; the same
    substitution then still gives exact int64 results."""
    rng = random.Random(12)
    pol = TruncationPolicy.uniform_caps(2, 2)
    conjs, dconjs = random_conjugators(rng, pol)
    sub = Substitution(conjs)
    ds = {(): 1, (1,): 2**62, (1, 2): -3, (2, 1, 2): 2**62 + 1}
    got = sub(series_from_terms(pol, ds))
    assert got._vec.dtype == object
    assert as_dict(got) == oracle.substitute(ds, dconjs, pol.max_total_degree, pol.caps)
    s, ds = rand_series(rng, pol, terms=5, span=6)
    got = sub(s)
    assert as_dict(got) == oracle.substitute(ds, dconjs, pol.max_total_degree, pol.caps)
    # big conjugators put the monomial images themselves on Python ints
    dconjs = [{(): 1, (1,): 2**62, (2, 1): 3}, {(): 1, (2,): -5, (1, 2): 2**63}]
    sub = Substitution([series_from_terms(pol, d) for d in dconjs])
    ds = {(): 1, (1,): 1, (2,): 2, (1, 2): 3, (2, 1, 1): 4, (1, 2, 2, 1): 7}
    got = sub(series_from_terms(pol, ds))
    assert as_dict(got) == oracle.substitute(ds, dconjs, pol.max_total_degree, pol.caps)


def test_substitution_validation():
    pol = TruncationPolicy.uniform_caps(2, 1)
    other = TruncationPolicy.uniform_caps(2, 2)
    with pytest.raises(MagnusError, match="one conjugator per variable"):
        Substitution([series_one(pol)])
    with pytest.raises(MagnusError, match="one conjugator per variable"):
        Substitution([])
    with pytest.raises(MagnusError, match="conjugator policy"):
        Substitution([series_one(pol), series_one(other)])
    with pytest.raises(MagnusError, match="policy mismatch"):
        Substitution([series_one(pol)] * 2)(series_one(other))


def naive_splits(space):
    monos = all_monos(space)
    index = {m: i for i, m in enumerate(monos)}
    A, B, C = [], [], []
    for c, m in enumerate(monos):
        for cut in range(len(m) + 1):
            A.append(index[m[:cut]])
            B.append(index[m[cut:]])
            C.append(c)
    return A, B, C


SPACE_POLICIES = [
    TruncationPolicy.total_degree(1, 6),
    TruncationPolicy.total_degree(2, 1),
    TruncationPolicy.total_degree(3, 4),
    TruncationPolicy.uniform_caps(2, 3),
    TruncationPolicy.uniform_caps(3, 2),
    TruncationPolicy.component_caps(3, 2, 2),
    TruncationPolicy.component_caps(4, 1, 1),
    TruncationPolicy.with_caps(3, (2, 4, 3), 4),
    *OVERFLOW_POLICIES,
    *(TruncationPolicy.with_caps(rank, caps, q) for (rank, q, caps), _ in REDUNDANT_DESCRIPTIONS),
]


@pytest.mark.parametrize("policy", SPACE_POLICIES)
def test_policy_space_lists_admitted_monomials_in_order(policy):
    admitted, layer = [()], [()]
    while layer:
        layer = [m + (v,) for m in layer for v in range(1, policy.rank + 1)
                 if oracle.survives(m + (v,), policy.max_total_degree, policy.caps)]
        admitted += layer
    space = _PolicySpace(policy)
    monos = all_monos(space)
    assert monos == sorted(admitted, key=lambda m: (len(m), m))
    # letters pads with zeros in the smallest unsigned dtype holding the
    # rank, and letter_counts counts each letter in each row
    letters = space.letters
    assert letters.shape == (space.size, policy.max_total_degree)
    assert letters.dtype == np.min_scalar_type(policy.rank)
    assert not any(any(row[len(m):]) for row, m in zip(letters.tolist(), monos))
    assert space.letter_counts.dtype == np.min_scalar_type(policy.max_total_degree)
    assert space.letter_counts.tolist() == [[m.count(v) for v in range(1, policy.rank + 1)]
                                            for m in monos]
    assert {len(m) for m in monos} == set(range(policy.max_total_degree + 1))
    assert [space.find(m) for m in monos] == list(range(space.size))
    assert all(x < y for x, y in zip(space.codes.tolist(), space.codes[1:].tolist()))


@pytest.mark.parametrize("policy", SPACE_POLICIES)
def test_splits_match_naive_construction(policy):
    space = _PolicySpace(policy)
    A, B, C = space.splits()
    assert (A.tolist(), B.tolist(), C.tolist()) == naive_splits(space)
    assert (np.diff(C) >= 0).all()


def test_substitution_on_expansions_is_group_substitution():
    """Substituting X_j -> conj(X_j) into E(w) equals E(w with a_j -> a_j^c_j)."""
    rng = random.Random(10)
    pol = TruncationPolicy.uniform_caps(3, 2)
    for _ in range(20):
        w = word_from_letters(3, oracle.random_reduced_letters(rng, 3, 5))
        cs = [word_from_letters(3, oracle.random_reduced_letters(rng, 3, 3)) for _ in range(3)]
        image_parts = []
        for l in w.letters():
            g = abs(l)
            img = conjugate(generator(3, g), cs[g - 1])
            image_parts.append(img if l > 0 else invert(img))
        image_word = multiply(word_from_letters(3, []), *image_parts)
        lhs = Substitution([expand(c, pol) for c in cs])(expand(w, pol))
        assert lhs == expand(image_word, pol)


def test_big_coefficients_promote_beyond_int64():
    """(1+X1)^m keeps exact binomials for m far beyond the int64 guard."""
    pol = TruncationPolicy.total_degree(1, 4)
    m = 2 ** 40
    s = expand(Wpow(m), pol)
    for d in range(5):
        assert s.coefficient((1,) * d) == math.comb(m, d)
    t = series_mul(s, s)
    for d in range(5):
        assert t.coefficient((1,) * d) == math.comb(2 * m, d)
    inv = series_inverse(s)
    assert series_mul(inv, s).is_one
    neg = expand(Wpow(-m), pol)
    assert series_mul(neg, s).is_one
    for d in range(5):
        assert (s + s).coefficient((1,) * d) == 2 * math.comb(m, d)
        assert (s - neg).coefficient((1,) * d) == math.comb(m, d) - neg.coefficient((1,) * d)
        assert (-s).coefficient((1,) * d) == -math.comb(m, d)
    assert (s - s) == series_from_terms(pol, {})
    c = 2 ** 62 - 1  # an int64 coefficient whose triple is not
    small = series_from_terms(pol, {(): c})
    assert (small + small + small).coefficient(()) == 3 * c
    assert (small - -small - -small).coefficient(()) == 3 * c


def Wpow(m):
    return power(generator(1, 1), m)


def test_from_terms_rejects_bad_monomials():
    pol = TruncationPolicy.uniform_caps(2, 1)
    with pytest.raises(MagnusError):
        series_from_terms(pol, {(1, 1): 1})  # X1 twice, cap is 1 occurrence
    with pytest.raises(MagnusError):
        series_from_terms(pol, {(3,): 1})


def test_serialization_format():
    pol = TruncationPolicy.total_degree(2, 2)
    s = series_from_terms(pol, {(): 1, (1, 2): -3, (2,): 2})
    assert format_monomial(()) == "1"
    assert format_monomial((1, 2)) == "X1.X2"
    lines = format_series(s).splitlines()
    assert lines == ["1 : 1", "X2 : 2", "X1.X2 : -3"]
    assert format_series(series_one(pol)) == "1 : 1"


def test_labelled_items_match_format_monomial():
    """items() lists the nonzero terms in the oracle's (degree, lex) order of
    the admitted monomials, and labelled_items() formats the same monomials,
    in int64 and in object dtype, under total-degree, cap and table
    policies."""
    rng = random.Random(13)
    for pol in (TruncationPolicy.total_degree(3, 4), TruncationPolicy.uniform_caps(3, 2),
                TruncationPolicy.component_caps(3, 2, 2),
                TruncationPolicy.with_caps(3, (3, 3, 3), 5)):  # milnor_table's at n = 3, k = 2
        q, caps = pol.max_total_degree, pol.caps
        admitted = [m for d in range(q + 1) for m in itertools.product(range(1, 4), repeat=d)
                    if oracle.survives(m, q, caps)]
        for scale in (1, 2**70):
            for _ in range(3):  # later rounds read labels formatted earlier
                terms = {m: rng.randint(-5, 5) * scale for m in rng.sample(admitted, 12)}
                s = series_from_terms(pol, terms)
                assert s._vec.dtype == (np.int64 if scale == 1 else object)
                assert list(s.items()) == [(m, terms[m]) for m in admitted if terms.get(m)]
                want = [(format_monomial(m), c) for m, c in s.items()]
                assert list(s.labelled_items()) == want


def test_labels_are_formatted_only_when_read():
    """A policy keeps one label slot per monomial, and labelling a 3-term
    series fills exactly its 3 slots."""
    pol = TruncationPolicy.uniform_caps(4, 2)
    space = magnus._space(pol)
    space.__dict__.pop("labels", None)  # a fresh, empty set of slots
    s = series_from_terms(pol, {(): 1, (2, 1): -2, (4, 4, 3): 5})
    assert list(s.labelled_items()) == [("1", 1), ("X2.X1", -2), ("X4.X4.X3", 5)]
    assert space.labels.shape == (space.size,)
    assert np.count_nonzero(np.not_equal(space.labels, None)) == 3


def test_items_order_and_equality():
    pol = TruncationPolicy.total_degree(2, 2)
    s = series_from_terms(pol, {(2, 1): 4, (1,): 1, (): 1})
    assert [m for m, _ in s.items()] == [(), (1,), (2, 1)]
    t = series_from_terms(pol, {(): 1, (1,): 1, (2, 1): 4})
    assert s == t and hash is not None
    u = series_from_terms(TruncationPolicy.total_degree(2, 3), as_dict(s))
    assert s != u  # different policies never compare equal


def test_mul_letter_rejects_variables_out_of_range():
    one = series_one(TruncationPolicy.uniform_caps(2, 1))
    for v in (-1, 0, 3):
        with pytest.raises(MagnusError, match=rf"variable {v} out of range 1\.\.2"):
            magnus.mul_letter(one, v)


@given(
    st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=3),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=-3, max_value=3),
    st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_mul_letter_matches_the_product(caps, q, seed, mult, big):
    """mul_letter shifts letters on the right; the series_mul by the
    expansion of a_v^mult on the right is the reference."""
    rank = len(caps)
    pol = TruncationPolicy.with_caps(rank, caps, min(q, sum(caps) - rank))
    rng = random.Random(seed)
    s, ds = rand_series(rng, pol)
    if big:
        s = series_from_terms(pol, {m: c * 2**61 for m, c in ds.items()})
    v = rng.randint(1, rank)
    letter = expand(Word(rank, ((v, mult),) if mult else ()), pol)
    assert magnus.mul_letter(s, v, mult) == series_mul(s, letter)


SAFE = int(magnus.INT64_SAFE)


def binom(e, d):
    """The binomial coefficient C(e, d) for any integer e."""
    return math.prod(range(e - d + 1, e + 1)) // math.factorial(d)


def run_norm(mult, q):
    """The 1-norm of (1 + X)^mult through degree q."""
    return sum(abs(binom(mult, d)) for d in range(q + 1))


THRESHOLD_POLICY = TruncationPolicy.total_degree(2, 3)
Q = THRESHOLD_POLICY.max_total_degree
# sparse enough for the support pairs: 3 of them against 49 split triples
BASE_S = {(1,): -2, (2, 1): 3}
BASE_T = {(): 1, (1, 2): -1}


def scaled(d, c):
    return {m: c * x for m, x in d.items()}


def series(d):
    return series_from_terms(THRESHOLD_POLICY, d)


# Each case maps a scale c to (bound, run): the bound its kernel's
# docstring states, and a thunk giving (result, oracle's result).


def product_case(c):
    s, t = scaled(BASE_S, c), BASE_T
    return 5 * c * 2, lambda: (series_mul(series(s), series(t)), oracle.mul(s, t, Q))


def sum_case(sign):
    def case(c):
        s, t = scaled(BASE_S, c), scaled(BASE_T, c)

        def run():
            if sign > 0:
                return series(s) + series(t), oracle.add(s, t)
            return series(s) - series(t), oracle.add(s, oracle.neg(t))

        return 5 * c + 2 * c, run

    return case


def mul_letter_case(mult):
    def case(c):
        s = scaled(BASE_S, c)

        def run():
            letter = oracle.power({(): 1, (2,): 1}, mult, Q)
            return magnus.mul_letter(series(s), 2, mult), oracle.mul(s, letter, Q)

        return 5 * c * run_norm(mult, Q), run

    return case


def expand_case(m):
    """a1^m a2: the second run's bound, 2 ||(1 + X1)^m||_1, is the larger."""

    def run():
        want = oracle.mul(oracle.power({(): 1, (1,): 1}, m, Q), {(): 1, (2,): 1}, Q)
        return expand(Word(2, ((1, m), (2, 1))), THRESHOLD_POLICY), want

    return 2 * run_norm(m, Q), run


SUB_CONJUGATORS = [oracle.expand_letters([2], Q), oracle.expand_letters([-1, 2], Q)]
SUB_NORMS = {
    m: sum(map(abs, oracle.substitute({m: 1}, SUB_CONJUGATORS, Q).values())) for m in BASE_S}


def substitution_case(c):
    s = scaled(BASE_S, c)
    sub = lambda: Substitution([series(d) for d in SUB_CONJUGATORS])(series(s))
    bound = sum(abs(x) * SUB_NORMS[m] for m, x in s.items())
    return bound, lambda: (sub(), oracle.substitute(s, SUB_CONJUGATORS, Q))


def inverse_case(c):
    """(1 + c s)^-1: the top degree's sum, the largest, is bounded by
    ||s - 1||_1 ||y||_1 for y the inverse below the top degree."""
    d = {(): 1, **scaled(BASE_S, c)}
    want = oracle.inverse(d, Q)
    below = sum(abs(x) for m, x in want.items() if len(m) < Q)
    return 5 * c * below, lambda: (magnus.series_inverse(series(d)), want)


def hall_product_case(c):
    """Row norms 3 and 4 times max |v| = 2c."""
    a, v = [[1, -2, 0], [0, 3, 1]], [c, -c, 2 * c]
    got = lambda: hall._product(hall._sparse(np.array(a)), np.array(v, dtype=object))
    return 4 * 2 * c, lambda: (got(), [sum(x * y for x, y in zip(row, v)) for row in a])


THRESHOLD_CASES = {
    "product": product_case,
    "product-support-pairs": product_case,
    "sum": sum_case(1),
    "difference": sum_case(-1),
    **{f"mul_letter-{mult}-right": mul_letter_case(mult) for mult in (1, -1, 3, -2)},
    "expand": expand_case,
    "substitution": substitution_case,
    "inverse": inverse_case,
    "hall-product": hall_product_case,
}


@pytest.mark.parametrize("kernel", THRESHOLD_CASES)
def test_overflow_rule_at_threshold(monkeypatch, kernel):
    """Each kernel sums on int64 when its bound lies just below INT64_SAFE,
    and on exact Python ints from just above it on, here also with
    coefficients past int64."""
    if kernel == "product-support-pairs":
        monkeypatch.setattr(magnus, "DENSE_BELOW_TRIPLES", 0)
        real, paths = magnus._support_pairs, []
        monkeypatch.setattr(
            magnus, "_support_pairs", lambda *args: paths.append(real(*args)) or paths[-1])
    case = THRESHOLD_CASES[kernel]

    def least(target):
        """The smallest scale whose bound reaches target."""
        lo, hi = 0, 1
        while case(hi)[0] < target:
            lo, hi = hi, 2 * hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if case(mid)[0] < target else (lo, mid)
        return hi

    margin = SAFE >> 20  # far wider than the float rounding of a bound
    for c, wide in ((least(SAFE - margin) - 1, False), (least(SAFE + margin), True),
                    (least(SAFE << 8), True)):
        got, want = case(c)[1]()
        vec = got if isinstance(got, np.ndarray) else got._vec
        assert (vec.dtype == object) == wide, c
        assert (got.tolist() if isinstance(got, np.ndarray) else as_dict(got)) == want
    if kernel == "product-support-pairs":
        assert paths and all(p is not None for p in paths)


def test_small_values_on_python_ints_go_back_to_int64():
    """The rule follows the values, not the storage: a product whose bound
    passes INT64_SAFE is kept on Python ints even where its values are
    small, as a * a^-1 = 1 here, and every kernel then takes such an
    operand back to int64, exactly."""
    a = series({(): 1, (1,): 2**40})
    inv = magnus.series_inverse(a)
    one, s = series_mul(a, inv), series_mul(a, series_mul(inv, series(BASE_S)))
    assert one._vec.dtype == object and as_dict(one) == {(): 1}
    assert s._vec.dtype == object and as_dict(s) == BASE_S
    checks = [
        (series_mul(s, series(BASE_T)), oracle.mul(BASE_S, BASE_T, Q)),
        (series_mul(series(BASE_T), s), oracle.mul(BASE_T, BASE_S, Q)),
        (s + series(BASE_T), oracle.add(BASE_S, BASE_T)),
        (series(BASE_T) - s, oracle.add(BASE_T, oracle.neg(BASE_S))),
        (Substitution([series(d) for d in SUB_CONJUGATORS])(s),
         oracle.substitute(BASE_S, SUB_CONJUGATORS, Q)),
    ]
    for mult in (1, -1, 3, -2):
        letter = oracle.power({(): 1, (2,): 1}, mult, Q)
        checks.append((magnus.mul_letter(s, 2, mult), oracle.mul(BASE_S, letter, Q)))
        checks.append((magnus.mul_letter(one, 2, mult), letter))
    # a factor past int64 whose products are all 0
    big, zero = series({(1,): 2**70}), series({})
    checks += [(series_mul(big, zero), {}), (series_mul(zero, big), {})]
    for got, want in checks:
        assert got._vec.dtype == np.int64
        assert as_dict(got) == want

def test_substituting_into_zero_gives_zero():
    rng = random.Random(16)
    pol = TruncationPolicy.uniform_caps(2, 2)
    conjs, _ = random_conjugators(rng, pol)
    zero = series_from_terms(pol, {})
    assert Substitution(conjs)(zero) == zero
    assert Substitution(conjs)(zero).policy == pol
