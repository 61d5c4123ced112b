import functools
import itertools
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracle as oracle
from weldmag import hall, words
from weldmag.hall import HallError, generate_basic, hall_factorize
from weldmag.magnus import MagnusError, TruncationPolicy, expand
from weldmag.words import Word, empty, generator, invert, multiply, power, word_from_letters


def brackets(n, max_len):
    return [c.bracket for c in generate_basic(n, max_len)]


def test_counts_match_witt_numbers():
    for n in (2, 3):
        basis = generate_basic(n, 5)
        per_len = Counter(c.length for c in basis)
        for d in range(1, 6):
            assert per_len[d] == oracle.witt(n, d)
    # the frozen values behind the n = 2 check
    assert [oracle.witt(2, d) for d in range(1, 6)] == [2, 1, 2, 3, 6]
    assert [oracle.witt(3, d) for d in range(1, 5)] == [3, 3, 8, 18]


def test_rank_one_has_only_the_generator():
    basis = generate_basic(1, 6)
    assert brackets(1, 6) == ["a1"]
    assert basis[0].length == 1


def test_order_and_bracket_strings():
    assert brackets(2, 3) == [
        "a1",
        "a2",
        "[a1,a2]",
        "[a1,[a1,a2]]",
        "[a2,[a1,a2]]",
    ]
    # length-4 layer over two generators
    assert brackets(2, 4)[5:] == [
        "[a1,[a1,[a1,a2]]]",
        "[a2,[a1,[a1,a2]]]",
        "[a2,[a2,[a1,a2]]]",
    ]
    # each bracket string is its children's, and repr shows it
    for c in generate_basic(3, 5):
        want = f"a{c.generator}" if c.length == 1 else f"[{c.left.bracket},{c.right.bracket}]"
        assert c.bracket == want and repr(c) == f"BasicCommutator({c.ordinal}: {want})"
    # ordinals are just positions, and lengths never decrease
    basis = generate_basic(3, 4)
    assert [c.ordinal for c in basis] == list(range(len(basis)))
    lens = [c.length for c in basis]
    assert lens == sorted(lens)


def test_basis_invariants():
    for c in generate_basic(3, 5):
        if c.generator is not None:
            assert c.length == 1
            continue
        assert c.length == c.left.length + c.right.length
        assert c.left.ordinal < c.right.ordinal
        if c.right.left is not None:
            assert c.right.left.ordinal <= c.left.ordinal
        assert c.entries == tuple(
            a + b for a, b in zip(c.left.entries, c.right.entries)
        )


def test_generate_basic_rejects_bad_arguments():
    with pytest.raises(HallError):
        generate_basic(0, 3)
    with pytest.raises(HallError):
        generate_basic(2, 0)


def principal_terms(c, policy):
    """The principal part of c, the degree-length(c) block of the expansion
    of its word, as {monomial: coefficient}.  Under a total-degree policy
    the degree-d block lists every monomial of length d in lex order."""
    block = expand(c.word, policy).degree_block(c.length).tolist()
    monos = itertools.product(range(1, policy.rank + 1), repeat=c.length)
    return {m: v for m, v in zip(monos, block) if v}


def test_principal_part_examples():
    pol = TruncationPolicy.total_degree(2, 3)
    basis = generate_basic(2, 3)
    a1, a2, c12 = basis[0], basis[1], basis[2]
    assert principal_terms(a1, pol) == {(1,): 1}
    assert principal_terms(c12, pol) == {
        (2, 1): 1,
        (1, 2): -1,
    }
    # the homogeneous part is the full expansion minus higher noise
    s = expand(c12.word, pol)
    assert s.coefficient((2, 1)) == 1 and s.coefficient((1, 2)) == -1


def test_principal_part_multiplicities_and_nonvanishing():
    for n in (2, 3):
        pol = TruncationPolicy.total_degree(n, 4)
        for c in generate_basic(n, 4):
            terms = principal_terms(c, pol)
            assert terms, c.bracket
            for m in terms:
                assert len(m) == c.length
                counts = Counter(m)
                assert tuple(counts.get(g, 0) for g in range(1, n + 1)) == c.entries


def test_principal_part_requires_enough_degree():
    c = generate_basic(2, 3)[4]
    with pytest.raises(MagnusError, match=r"degree 3 out of range 0\.\.2"):
        expand(c.word, TruncationPolicy.total_degree(2, 2)).degree_block(c.length)


def test_principal_parts_independent_per_degree():
    for n in (2, 3):
        for d in range(1, 5):
            layer = [c for c in generate_basic(n, d) if c.length == d]
            pol = TruncationPolicy.total_degree(n, d)
            rows = [expand(c.word, pol).degree_block(d).tolist() for c in layer]
            assert oracle.exact_rank(rows) == len(layer) == oracle.witt(n, d)


def test_factorize_named_examples():
    # a1 a2 A1 A2 is the inverse commutator up to length-3 junk
    w = word_from_letters(2, [1, 2, -1, -2])
    exps, certified = hall_factorize(w, 2)
    assert exps == [0, 0, -1]
    assert certified

    exps, certified = hall_factorize(word_from_letters(2, [2, 1]), 1)
    assert exps == [1, 1]
    assert certified

    exps, certified = hall_factorize(empty(3), 4)
    assert not any(exps)
    assert certified


def test_factorize_rejects_bad_k():
    with pytest.raises(HallError):
        hall_factorize(word_from_letters(2, [1]), 0)


def test_factorize_basis_elements_give_indicator_vectors():
    basis = generate_basic(2, 4)
    for j, c in enumerate(basis):
        for sign in (1, -1):
            w = c.word if sign == 1 else invert(c.word)
            exps, certified = hall_factorize(w, 4)
            want = [0] * len(basis)
            want[j] = sign
            assert exps == want, c.bracket
            assert certified


def reconstruct(n, k, exps):
    out = empty(n)
    for c, e in zip(generate_basic(n, k), exps):
        if e:
            out = multiply(out, power(c.word, e))
    return out


def test_factorize_round_trips_random_words():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(2, 3)
        k = rng.randint(1, 4)
        w = word_from_letters(n, oracle.random_reduced_letters(rng, n, rng.randint(0, 8)))
        exps, certified = hall_factorize(w, k)
        assert certified
        prod = reconstruct(n, k, exps)
        rem = multiply(invert(prod), w)
        assert expand(rem, TruncationPolicy.total_degree(n, k)).is_one


def test_factorize_is_deterministic():
    w = word_from_letters(3, [3, -1, 2, 2, -3, 1, -2])
    assert hall_factorize(w, 3) == hall_factorize(w, 3)


@functools.lru_cache(maxsize=None)
def oracle_basis_expansions(n, k):
    return [oracle.expand_letters(list(c.word.letters()), k) for c in generate_basic(n, k)]


def assert_matches_oracle(w, k, exps):
    """expand(w) equals the product of the factor powers through degree k,
    both sides computed by the dict-based oracle."""
    if sum(abs(m) for _, m in w.runs) <= 60:
        lhs = oracle.expand_letters(list(w.letters()), k)
    else:
        lhs = oracle.one()
        for g, m in w.runs:
            lhs = oracle.mul(lhs, oracle.power({(): 1, (g,): 1}, m, k), k)
    rhs = oracle.one()
    for e_c, e in zip(oracle_basis_expansions(w.rank, k), exps):
        if e:
            rhs = oracle.mul(rhs, oracle.power(e_c, e, k), k)
    assert lhs == rhs


# (rank, k) pairs whose total-degree quotient stays small enough for the
# dict-based oracle; (2, 6) sends degree 3 through the binomial powers
SMALL_QUOTIENTS = [(2, 1), (2, 3), (2, 5), (2, 6), (3, 2), (3, 4), (4, 2), (4, 3)]


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_factorization_matches_oracle_product(data):
    """Multiplicities up to 2^70 drive expand and the solve
    onto Python ints."""
    n, k = data.draw(st.sampled_from(SMALL_QUOTIENTS))
    scale = data.draw(st.sampled_from([3, 10**3, 2**70]))
    runs = data.draw(st.lists(st.tuples(st.integers(1, n), st.integers(-scale, scale)), max_size=7))
    w = multiply(empty(n), *(power(generator(n, g), m) for g, m in runs if m))
    exps, certified = hall_factorize(w, k)
    assert certified
    assert len(exps) == len(generate_basic(n, k))
    assert_matches_oracle(w, k, exps)


def test_big_multiplicities_take_the_object_path():
    w = Word(2, ((1, 2**70), (2, -(2**70)), (1, 3)))
    assert expand(w, TruncationPolicy.total_degree(2, 5)).degree_block(1).dtype == object
    exps, certified = hall_factorize(w, 5)
    assert certified
    assert exps[:3] == [2**70 + 3, -(2**70), -3 * 2**70]
    assert max(abs(e) for e in exps) > 2**200
    assert_matches_oracle(w, 5, exps)


def test_factorize_stays_in_the_series_ring(monkeypatch):
    """No word rewriting per question: words.power and words.multiply are
    never called once the (rank, k) caches exist."""
    w = word_from_letters(4, [1, 2, -3, 4, 4, -1, 3])
    want = hall_factorize(w, 5)
    again = word_from_letters(4, [2, 2, -3, 4, 1, -1, 3, 3])
    expected_again = hall_factorize(again, 5)

    def forbidden(*args, **kwargs):
        raise AssertionError("word rewriting on the per-question path")

    monkeypatch.setattr(words, "power", forbidden)
    monkeypatch.setattr(words, "multiply", forbidden)
    assert hall_factorize(w, 5) == want
    assert hall_factorize(again, 5) == expected_again


def test_only_degrees_up_to_half_of_k_form_products(monkeypatch):
    """At k = 5 a question makes one product for the degree-1 factors and
    one per nonzero degree-2 exponent, and no power, once the (rank, k)
    caches exist."""
    w = word_from_letters(4, [1, 2, -3, 4, 4, -1, 3, 2, -4, -2, 1])
    want = hall_factorize(w, 5)
    degree2 = [e for c, e in zip(generate_basic(4, 5), want[0]) if c.length == 2]
    calls = []
    real = hall.series_mul

    def counted(s, t):
        calls.append(1)
        return real(s, t)

    monkeypatch.setattr(hall, "series_mul", counted)
    assert hall_factorize(w, 5) == want
    assert sum(1 for e in degree2 if e) >= 2
    assert len(calls) <= 1 + sum(1 for e in degree2 if e)


def test_set_up_expands_each_commutator_once_per_degree(monkeypatch):
    """The solvers read their columns off the brackets and expand no word;
    the powers expand no commutator word twice at one policy."""
    for cached in (hall._degree_solver, hall._powers):
        cached.cache_clear()
    seen = []
    real = hall.expand

    def recording(w, policy):
        seen.append((w, policy))
        return real(w, policy)

    monkeypatch.setattr(hall, "expand", recording)
    for d in range(1, 5):
        hall._degree_solver(3, d)
    assert seen == []
    w = word_from_letters(3, [1, 2, -3, 1, -2, 3, 3, -1, 2])
    exps, certified = hall_factorize(w, 4)
    assert certified
    assert_matches_oracle(w, 4, exps)
    commutator_words = Counter((c, p) for c, p in seen if len(c) > 1)
    assert commutator_words and max(commutator_words.values()) == 1


def test_principal_parts_are_the_lowest_blocks_of_the_expansions():
    """_principal, formed from the bracket structure, is the degree-|C|
    block of C's expansion, for ranks 1-4 and lengths up to 5."""
    for n in range(1, 5):
        for c in generate_basic(n, 5):
            block = expand(c.word, TruncationPolicy.total_degree(n, c.length)).degree_block(c.length)
            assert hall._principal(c, n).tolist() == block.tolist(), c


# A 20-letter rank-3 word (benchmark/inputs.random_letters, random.Random(4))
# and its exponents at max-len 6, as computed by word rewriting before the
# factorization moved into the series ring.
LONG_WORD = [-1, 2, 1, -3, -2, -2, -1, -2, 3, 2, 1, 3, 3, 2, 2, -1, 2, -1, -3, 2]
LONG_WORD_EXPONENTS = [
    # degree 1
    -2, 3, 1,
    # degree 2
    -2, -3, 10,
    # degree 3
    0, 1, -3, -17, 31, 13, 3, 0,
    # degree 4
    0, 0, 0, 6, -4, -49, 70, -6, -2, 33, 7, 3, 13, 1, 3, 24, -68, -39,
    # degree 5
    0, 0, 0, 0, 0, 17, -5, -107, 134, 0, 0, -15, -6, 62, 11, 12, -6, -1, 36, -1, 12,
    18, 1, 3, 0, -9, 5, 106, -187, -47, -6, -8, 10, 0, -48, 47, -120, -43, -7, -7,
    -26, -8, 131, -11, 135, 98, 11, 21,
    # degree 6
    0, 0, 0, 0, 0, 0, 0, 36, -6, -200, 231, 0, 0, 0, 0, -27, -13, 101, 13, 31, 0, 0,
    -15, -2, 71, -9, 31, -8, -1, 50, -1, 12, 23, 1, 3, 0, 0, 0, -38, 7, 284, -406,
    18, 6, -132, -14, -37, -52, 4, -28, -55, 155, 0, 0, 25, -8, -91, 148, -275, 20,
    5, -118, -5, -40, -68, -4, -15, -71, 260, 58, 0, 0, -65, -12, 255, -85, 310,
    -46, -9, 277, -3, 93, 163, 13, 24, 42, -349, -196, 4, 0, -42, 70, 14, 2, 2, 18,
    -20, 54, 17, 2, 2, 247, -442, -61, -9, -29, -492, -177, -24, -31, 285, 41, 57,
    34, -28, -5,
]  # fmt: skip


def test_long_word_keeps_its_exponents():
    exps, certified = hall_factorize(word_from_letters(3, LONG_WORD), 6)
    assert exps == LONG_WORD_EXPONENTS
    assert certified


def test_degree_solver_rejects_inconsistent_right_hand_sides():
    solve = hall._degree_solver(2, 2)
    # rows X1X1, X1X2, X2X1, X2X2; [a1,a2] has principal part X2X1 - X1X2
    assert solve(np.array([0, -1, 1, 0])) == [1]
    with pytest.raises(HallError, match="degree-2 system inconsistent at row 3"):
        solve(np.array([0, -1, 1, 1]))
    with pytest.raises(HallError, match="inconsistent at row 0"):
        solve(np.array([1, -1, 1, 0]))

    # a valid degree-4 block with X1^4, never a pivot row, disturbed
    rng = random.Random(3)
    w = word_from_letters(3, oracle.random_reduced_letters(rng, 3, 9))
    solve = hall._degree_solver(3, 4)
    basis = [c for c in generate_basic(3, 4) if c.length == 4]
    start = len(generate_basic(3, 3))
    exps, _ = hall_factorize(w, 4)
    b = np.zeros(3**4, dtype=np.int64)
    for c, e in zip(basis, exps[start:]):
        b += e * expand(c.word, TruncationPolicy.total_degree(3, 4)).degree_block(4)
    assert solve(b) == exps[start:]
    b[0] += 1
    with pytest.raises(HallError, match="degree-4 system inconsistent at row 0"):
        solve(b)


def test_integer_solver_checks_divisibility_then_every_row():
    # the pivot rows [[1, 1], [1, -1]] have determinant -2, so D = 2
    cols = np.array([[1, 1], [1, -1], [2, 0]])
    solve = hall._integer_solver(cols, [[0, 1]], 3)
    assert solve(np.array([4, 2, 6])) == [3, 1]
    # cols @ (1/2, 1/2): consistent with every row, but not integral
    with pytest.raises(HallError, match="non-integral exponent at degree 3: 1/2"):
        solve(np.array([1, 0, 1]))
    with pytest.raises(HallError, match="degree-3 system inconsistent at row 2"):
        solve(np.array([4, 2, 7]))
    # the same checks on Python ints
    big = np.array([2**70 + 1, 2**70 - 1, 2**71], dtype=object)
    assert solve(big) == [2**70, 1]
    with pytest.raises(HallError, match="inconsistent at row 2"):
        solve(big + np.array([0, 0, 2], dtype=object))


def exact_det(rows):
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for col in range(len(m)):
        piv = next((r for r in range(col, len(m)) if m[r][col]), None)
        if piv is None:
            return 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, len(m)):
            f = m[r][col] / m[col][col]
            m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return det


def test_fraction_free_inverse_is_exact():
    rng = random.Random(11)
    done = 0
    while done < 40:
        size = rng.randint(1, 6)
        # zeros on the diagonal force row swaps
        a = [[rng.choice([0, 0, 1, -1, 2, -3, 5]) for _ in range(size)] for _ in range(size)]
        det = exact_det(a)
        if det == 0:
            continue
        d, b = hall._fraction_free_inverse(a)
        assert d == abs(det)
        for i in range(size):
            for j in range(size):
                assert sum(a[i][t] * b[t][j] for t in range(size)) == d * (i == j)
        done += 1
