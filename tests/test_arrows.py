import random

import pytest

import _oracle as oracle
from weldmag.arrows import (
    ArrowError,
    ArrowPresentation,
    insert_self_tree,
    leaf,
    node,
    parse_realizer,
    realize_sorted,
    sorted_presentation,
    surgery,
    tree_word,
)
from weldmag.gauss import longitude_series, serialize
from weldmag.invariants import milnor_table
from weldmag.magnus import TruncationPolicy, expand
from weldmag.words import (
    Word,
    WordError,
    commutator,
    conjugate,
    empty,
    format_word,
    generator,
    invert,
    multiply,
    parse_word,
    power,
    word_from_letters,
)


def gens(rank, *idx):
    return [generator(rank, i) for i in idx]


def test_tree_word_single_leaf():
    assert tree_word(leaf(1), rank=2) == generator(2, 1)
    assert tree_word(leaf(2, twist=-1), rank=2) == invert(generator(2, 2))


def test_tree_word_degree_four_example():
    # [[a,b],[d,e]] over generators a..e = a1..a5
    t = node(node(leaf(1), leaf(2)), node(leaf(4), leaf(5)))
    a, b, c, d, e = gens(5, 1, 2, 3, 4, 5)
    assert tree_word(t, rank=5) == commutator(commutator(a, b), commutator(d, e))

    # same tree with conjugating arrows: [[a^b, b^(c bar)],[d^(ec), e]]
    tc = node(
        node(leaf(1, conjugator=b), leaf(2, conjugator=invert(c))),
        node(leaf(4, conjugator=multiply(e, c)), leaf(5)),
    )
    want = commutator(
        commutator(conjugate(a, b), conjugate(b, invert(c))),
        commutator(conjugate(d, multiply(e, c)), e),
    )
    assert tree_word(tc, rank=5) == want


def test_tree_word_refuses_a_conjugator_of_another_rank():
    for conj in (generator(3, 2), empty(3)):
        with pytest.raises(WordError, match="rank mismatch"):
            tree_word(node(leaf(1, conjugator=conj), leaf(2)), rank=2)


def test_tree_word_twist_inverts_subtree():
    a, b = gens(2, 1, 2)
    assert tree_word(node(leaf(1), leaf(2), twist=-1), rank=2) == invert(commutator(a, b))
    assert tree_word(node(leaf(1, twist=-1), leaf(2)), rank=2) == commutator(invert(a), b)


def test_tree_degree_counts_leaves():
    # a tree's degree is its number of leaves, listed left to right
    t = node(node(leaf(1), leaf(1)), leaf(1, conjugator=generator(3, 2)))
    assert [l.generator for l in t.leaves()] == [1, 1, 1]
    assert [l.conjugator for l in t.leaves()] == [None, None, generator(3, 2)]


def test_expand_letters_examples():
    # surgery spells each slot word out letter by letter:
    # a2^(a3) = A3 a2 a3 gives Over passages on 3, 2, 3
    a2, a3 = gens(3, 2, 3)
    code = surgery(ArrowPresentation(3, ((conjugate(a2, a3),), (), ())))
    assert serialize(code) == "1: U1- U2+ U3+\n2: O2+\n3: O1- O3+"

    code = surgery(ArrowPresentation(3, ((commutator(a2, a3),), (), ())))
    assert serialize(code) == "1: U1+ U2- U3- U4+\n2: O1+ O3-\n3: O2- O4+"

    assert serialize(surgery(ArrowPresentation(3, ((empty(3),), (), ())))) == "1:\n2:\n3:"


def test_expand_letters_cancels_conjugator_edges():
    # a2^(a3) followed by a3 bar: the reduced slot word is A3 a2
    a2, a3 = gens(3, 2, 3)
    code = surgery(ArrowPresentation(3, ((multiply(conjugate(a2, a3), invert(a3)),), (), ())))
    assert serialize(code) == "1: U1- U2+\n2: O2+\n3: O1-"


def test_sorted_presentation_slot_is_the_word():
    w = parse_word("a2 A3 A2 a3 a1", 3)
    a1 = generator(3, 1)
    assert sorted_presentation([w, empty(3), a1]).slots == ((w,), (), (a1,))


def test_surgery_single_crossing_and_empty():
    pres = sorted_presentation([generator(2, 2), empty(2)])
    assert serialize(surgery(pres)) == "1: U1+\n2: O1+"
    trivial = surgery(sorted_presentation([empty(2), empty(2)]))
    assert serialize(trivial) == "1:\n2:"


def test_surgery_commutator_code():
    code = realize_sorted([commutator(generator(3, 2), generator(3, 3)), empty(3), empty(3)])
    assert serialize(code) == "1: U1+ U2- U3- U4+\n2: O1+ O3-\n3: O2- O4+"


def test_realizer_prescribes_longitudes():
    w1 = multiply(generator(3, 2), invert(generator(3, 3)))
    code = realize_sorted([w1, empty(3), empty(3)])
    pol = TruncationPolicy.total_degree(3, 2)
    l1, l2, l3 = longitude_series(code, policy=pol)
    assert l1 == expand(w1, pol)
    assert l1.coefficient((2,)) == 1
    assert l1.coefficient((3,)) == -1
    assert l2.is_one and l3.is_one

    comm = realize_sorted([commutator(generator(3, 2), generator(3, 3)), empty(3), empty(3)])
    (l1,) = longitude_series(comm, TruncationPolicy.total_degree(3, 3))[:1]
    assert l1.coefficient((3, 2)) == 1
    assert l1.coefficient((2, 3)) == -1


def test_realizer_soundness_random_words():
    # the i-th longitude is exactly alpha_i^(-e_i) w_i, any truncation
    rng = random.Random(23)
    for _ in range(25):
        n = rng.randint(2, 3)
        ws = [
            word_from_letters(n, oracle.random_reduced_letters(rng, n, rng.randint(0, 6)))
            for _ in range(n)
        ]
        pol = TruncationPolicy.total_degree(n, 4)
        lams = longitude_series(realize_sorted(ws), policy=pol)
        for i in range(n):
            e = sum(m for g, m in ws[i].runs if g == i + 1)
            target = multiply(power(generator(n, i + 1), -e), ws[i])
            assert lams[i] == expand(target, pol)


def test_cancelling_pair_leaves_longitudes_alone():
    w = parse_word("a2 A3 A2 a3", 3)
    base = sorted_presentation([w, empty(3), empty(3)])
    padded = ArrowPresentation(
        3,
        (
            (generator(3, 2), invert(generator(3, 2))) + base.slots[0],
            (),
            (),
        ),
    )
    pol = TruncationPolicy.total_degree(3, 3)
    assert longitude_series(surgery(padded), pol) == longitude_series(surgery(base), pol)


def test_insert_self_tree_validation_and_shape():
    pres = sorted_presentation([empty(2), empty(2)])
    t = leaf(1)
    out = insert_self_tree(pres, 1, t)
    assert len(out.slots[0]) == 1
    with pytest.raises(ArrowError, match="leaf"):
        insert_self_tree(pres, 2, t)
    with pytest.raises(ArrowError):
        insert_self_tree(pres, 0, t)


def test_insert_degree_two_self_tree_preserves_low_tables():
    w1 = commutator(generator(2, 2), generator(2, 1))
    base = sorted_presentation([w1, generator(2, 1)])
    # [a1^(a2), a1]: a degree-2 tree with both leaves on component 1
    t = node(leaf(1, conjugator=generator(2, 2)), leaf(1))
    bumped = insert_self_tree(base, 1, t, position=0)
    before = milnor_table(surgery(base), k=2)
    after = milnor_table(surgery(bumped), k=2)
    assert before.entries == after.entries


def test_parse_and_serialize_realizer():
    text = "1: a2 A3\n2: -\n3: a1"
    words = parse_realizer(text)
    assert words == (
        parse_word("a2 A3", 3),
        empty(3),
        parse_word("a1", 3),
    )
    assert "\n".join(f"{i}: {format_word(w) or '-'}" for i, w in enumerate(words, 1)) == text
    assert parse_realizer("1: a2 / 2: -") == (generator(2, 2), empty(2))


def test_parse_realizer_errors():
    with pytest.raises(ArrowError, match="listed twice"):
        parse_realizer("1: a1 / 1: a1")
    # a generator outside the rank is a word-level complaint
    with pytest.raises(ValueError, match="a9"):
        parse_realizer("1: a9")
    with pytest.raises(ArrowError):
        parse_realizer("nope")


def test_presentation_validation():
    with pytest.raises(ArrowError, match="one slot list per component"):
        ArrowPresentation(2, ((empty(2),),))
    with pytest.raises(ArrowError, match="has rank 3, expected 2"):
        ArrowPresentation(2, ((generator(3, 3),), ()))
