import random
import re

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weldmag import arrows, gauss, hall, invariants, magnus
from weldmag.words import (
    Word,
    WordError,
    commutator,
    conjugate,
    empty,
    format_word,
    generator,
    integer,
    integers,
    invert,
    multiply,
    parse_word,
    power,
    word_from_letters,
)


def rand_word(rng, rank, maxlen):
    letters = [rng.choice([s * g for g in range(1, rank + 1) for s in (1, -1)])
               for _ in range(rng.randint(0, maxlen))]
    return word_from_letters(rank, letters)


def test_reduce_examples():
    w = word_from_letters(2, [1, -1])
    assert w == empty(2) and not w.runs
    w = word_from_letters(2, [1, 2, -2, -1, 2])
    assert list(w.letters()) == [2]
    # runs merge: a1 a1 A1 a2 -> a1 a2
    w = word_from_letters(2, [1, 1, -1, 2])
    assert list(w.letters()) == [1, 2]


def test_word_validation():
    with pytest.raises(WordError):
        Word(2, ((3, 1),))
    with pytest.raises(WordError):
        Word(2, ((1, 0),))
    with pytest.raises(WordError):
        Word(0, ())
    # a float, a string or a run that is not a pair is refused by name, not
    # kept as a rank or raised later as a bare TypeError; numpy integers are
    # stored as ints
    for rank, runs, bad in (
        (2.0, (), "rank must be an integer, got 2.0"),
        ("2", (), "rank must be an integer, got '2'"),
        (2, ((1, 1.5),), "multiplicity must be an integer, got 1.5"),
        (2, ((1.0, 1),), "generator must be an integer, got 1.0"),
        (2, ((1,),), "runs must be (generator, multiplicity) pairs, got ((1,),)"),
        (2, (1,), "runs must be (generator, multiplicity) pairs, got (1,)"),
        (2, 5, "runs must be (generator, multiplicity) pairs, got 5"),
    ):
        with pytest.raises(WordError, match=re.escape(bad)):
            Word(rank, runs)
    w = Word(np.int64(2), ((np.int32(1), np.int8(-2)),))
    assert w == parse_word("A1 A1", 2)
    assert all(type(x) is int for x in (w.rank, *w.runs[0]))


def test_words_hold_reduced_runs_only():
    """Two adjacent runs of one generator would print like their merged run
    and still compare unequal to it, so construction rejects them."""
    with pytest.raises(WordError, match="adjacent runs of generator a1"):
        Word(2, ((1, 1), (1, 1)))
    with pytest.raises(WordError, match="adjacent runs of generator a2"):
        Word(2, ((1, 1), (2, 1), (2, -1)))
    assert Word(2, ((1, 2),)) == parse_word("a1 a1", 2)
    assert Word(2, ((1, 1), (2, 1), (1, -1))) == parse_word("a1 a2 A1", 2)


def test_parse_and_format():
    w = parse_word("a1 A2 a1", 3)
    assert list(w.letters()) == [1, -2, 1]
    assert format_word(w) == "a1 A2 a1"
    assert parse_word("", 2) == empty(2)
    assert format_word(empty(2)) == ""
    # round trip on random words
    rng = random.Random(0)
    for _ in range(50):
        w = rand_word(rng, 4, 10)
        assert parse_word(format_word(w), 4) == w


def test_parse_errors_name_token():
    with pytest.raises(WordError) as e:
        parse_word("a1 b2", 3)
    assert "b2" in str(e.value)
    with pytest.raises(WordError):
        parse_word("a9", 3)
    with pytest.raises(WordError):
        parse_word("a0", 3)


def test_multiply_reduce_invert():
    a = parse_word("a1 a2", 2)
    b = parse_word("A2 A1", 2)
    assert multiply(a, b) == empty(2)
    assert invert(a) == b
    assert multiply(a, invert(a), a) == a
    for op in (multiply, conjugate, commutator):
        with pytest.raises(WordError, match="rank mismatch"):
            op(a, empty(3))


def test_power():
    a = parse_word("a1", 2)
    assert power(a, 3) == parse_word("a1 a1 a1", 2)
    assert power(a, -2) == parse_word("A1 A1", 2)
    assert power(a, 0) == empty(2)
    with pytest.raises(WordError, match=re.escape("exponent must be an integer, got 2.0")):
        power(a, 2.0)


def test_conjugate_commutator_conventions():
    """x^y = inv(y) x y and [x,y] = x inv(y) inv(x) y."""
    a, b = generator(2, 1), generator(2, 2)
    assert format_word(conjugate(a, b)) == "A2 a1 a2"
    assert format_word(commutator(a, b)) == "a1 A2 A1 a2"


def test_commutator_identities_spot():
    rng = random.Random(42)
    for _ in range(100):
        r = rng.randint(2, 4)
        a, b, c = (rand_word(rng, r, 8) for _ in range(3))
        assert invert(commutator(a, b)) == commutator(invert(b), invert(a))
        assert commutator(a, b) == multiply(conjugate(invert(b), invert(a)), b)
        assert conjugate(commutator(a, b), c) == commutator(conjugate(a, c), conjugate(b, c))


@given(st.lists(st.integers(min_value=-3, max_value=3).filter(lambda x: x != 0), max_size=20))
@settings(max_examples=200, deadline=None)
def test_reduce_is_retraction(letters):
    w = word_from_letters(3, letters)
    assert word_from_letters(3, list(w.letters())) == w


@given(st.lists(st.integers(min_value=-3, max_value=3).filter(lambda x: x != 0), max_size=16),
       st.lists(st.integers(min_value=-3, max_value=3).filter(lambda x: x != 0), max_size=16))
@settings(max_examples=200, deadline=None)
def test_invert_antihomomorphism(ls1, ls2):
    u = word_from_letters(3, ls1)
    v = word_from_letters(3, ls2)
    assert invert(multiply(u, v)) == multiply(invert(v), invert(u))
    assert invert(invert(u)) == u


@st.composite
def words_of_one_rank(draw, count):
    rank = draw(st.integers(min_value=1, max_value=4))
    letters = st.lists(st.integers(min_value=-rank, max_value=rank).filter(bool), max_size=12)
    return [word_from_letters(rank, draw(letters)) for _ in range(count)]


@given(words_of_one_rank(3), st.integers(min_value=-6, max_value=6))
@settings(max_examples=300, deadline=None)
def test_group_operations_build_checked_words(ws, e):
    """The group operations build their results without a check; the
    checked constructor accepts each result and builds the same word."""
    x, y, z = ws
    for r in (multiply(x, y, z), invert(x), power(x, e), power(multiply(x, y), e),
              conjugate(x, y), commutator(x, y)):
        assert Word(r.rank, r.runs) == r


def test_generator_is_checked_as_a_word():
    for rank, index, bad in ((0, 1, "rank must be positive, got 0"),
                             (2, 3, "generator a3 out of range for rank 2"),
                             (2, 1.5, "generator must be an integer, got 1.5"),
                             (2, "1", "generator must be an integer, got '1'")):
        with pytest.raises(WordError, match=re.escape(bad)):
            generator(rank, index)


def test_integer_readers():
    """integer and integers take ints and numpy integers only, and raise
    the error class they are given, WordError by default."""
    assert integer(np.int8(-3), "x") == -3 and type(integer(np.int64(2), "x")) is int
    assert integers(np.array([2, 1]), "x") == (2, 1) and integers(iter([]), "x") == ()
    for value, bad in ((1.5, "x must be an integer, got 1.5"), ("1", "x must be an integer, got '1'")):
        with pytest.raises(WordError, match=re.escape(bad)):
            integer(value, "x")
    for values, bad in ((3, "got 3"), ("12", "got '12'"), (None, "got None"), (b"1", "got b'1'")):
        with pytest.raises(ValueError, match=re.escape(f"x must be a sequence of integers, {bad}")):
            integers(values, "x", ValueError)
    with pytest.raises(ValueError, match=re.escape("x entry must be an integer, got 1.0")):
        integers((1, 1.0), "x", ValueError)


SINGLE = "1: U1+ / 2: O1+"
POLICY = magnus.TruncationPolicy.total_degree(2, 2)
PRES = arrows.sorted_presentation([generator(2, 2), generator(2, 1)])


@pytest.mark.parametrize("error, ask", [
    pytest.param(hall.HallError, lambda: hall.generate_basic(2.5, 3), id="generate_basic-rank"),
    pytest.param(hall.HallError, lambda: hall.generate_basic(2, "3"), id="generate_basic-max_len"),
    pytest.param(hall.HallError, lambda: hall.hall_factorize(generator(2, 1), "2"), id="hall_factorize-k"),
    pytest.param(invariants.InvariantError, lambda: invariants.identity_action(2.5, 1),
                 id="identity_action-rank"),
    pytest.param(invariants.InvariantError, lambda: invariants.milnor(gauss.parse(SINGLE), 21),
                 id="milnor-int-index"),
    pytest.param(invariants.InvariantError, lambda: invariants.milnor(gauss.parse(SINGLE), None),
                 id="milnor-no-index"),
    pytest.param(invariants.InvariantError, lambda: invariants.r_index((1.5, 1.5)), id="r_index-entries"),
    pytest.param(magnus.MagnusError, lambda: magnus.series_from_terms(POLICY, {(1,): 1.5}),
                 id="series_from_terms-float"),
    pytest.param(magnus.MagnusError, lambda: magnus.series_from_terms(POLICY, {(1,): "x"}),
                 id="series_from_terms-string"),
    pytest.param(magnus.MagnusError, lambda: magnus.series_one(POLICY).degree_block(1.5),
                 id="degree_block"),
    pytest.param(magnus.MagnusError, lambda: magnus.series_one(POLICY).agrees_through_degree(
        magnus.series_one(POLICY), 1.5), id="agrees_through_degree"),
    pytest.param(arrows.ArrowError, lambda: arrows.leaf("1"), id="leaf-generator"),
    pytest.param(arrows.ArrowError, lambda: arrows.leaf(1, twist=1.0), id="leaf-twist"),
    pytest.param(arrows.ArrowError, lambda: arrows.insert_self_tree(PRES, "1", arrows.leaf(1)),
                 id="insert_self_tree-component"),
    pytest.param(arrows.ArrowError, lambda: arrows.insert_self_tree(PRES, 1, arrows.leaf(1), position="0"),
                 id="insert_self_tree-position"),
    pytest.param(hall.HallError, lambda: hall.generate_basic([2], 3), id="generate_basic-list"),
    pytest.param(magnus.MagnusError, lambda: magnus.TruncationPolicy.total_degree(2.5, 3),
                 id="total_degree-rank"),
    pytest.param(magnus.MagnusError, lambda: magnus.TruncationPolicy.total_degree(2, "3"),
                 id="total_degree-q"),
    pytest.param(magnus.MagnusError, lambda: magnus.TruncationPolicy.uniform_caps(2.5, 1),
                 id="uniform_caps-rank"),
    pytest.param(magnus.MagnusError, lambda: magnus.TruncationPolicy.uniform_caps(2, "1"),
                 id="uniform_caps-k"),
    pytest.param(magnus.MagnusError, lambda: magnus.TruncationPolicy.component_caps(2, 2, 1.5),
                 id="component_caps-component"),
    pytest.param(magnus.MagnusError, lambda: magnus.TruncationPolicy.component_caps(2, "2", 1),
                 id="component_caps-k"),
])
def test_entry_points_refuse_what_is_not_an_integer(error, ask):
    """Each entry point reads the integers it is given through integer or
    integers: a float, a string or a non-sequence raises the module's error
    by name, never a bare TypeError, and is never truncated into an answer."""
    with pytest.raises(error, match="must be an integer|must be a sequence of integers"):
        ask()
