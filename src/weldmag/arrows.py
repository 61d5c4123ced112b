"""Tree presentations of welded string links and the sorted realizer.

Iterated-commutator trees are modeled by the free-group words they spell,
not by embedded planar diagrams: a leaf carries a generator index, a twist
sign and an optional conjugator word, an internal node takes the commutator
of its children (twist inverting the result).  Conjugators appear only on
tree leaves; tree_word writes them out.  A presentation assigns to each
component an ordered list of slots, each a reduced word, and surgery turns
each letter a_j^e of a slot word into one crossing: the Over passage goes
to the initial tail zone of component j and the Under passage to the head
zone of the slot's component.

Because every Over passage sits before every Under passage on its
component, each over-arc is a meridian, and the preferred longitudes of the
surgered diagram can be read off exactly: component i gets the word
alpha_i^(-e_i) * w_i where w_i is the concatenation of its slot words and
e_i the exponent sum of w_i at alpha_i.  realize_sorted uses this to build
a string link with prescribed longitudes, which the rest of the library
treats as an independent oracle.

Realizer text format: one line per component, ``i: WORD`` in the word token
syntax (``a2 A3``), with ``-`` standing for the empty word; ``/`` may
replace newlines.  The lines are read by gauss.numbered_lines, the reader
of the Gauss-code format.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .gauss import Passage, StringLinkCode, numbered_lines
from .words import Word, commutator, conjugate, integer, invert, parse_word

__all__ = [
    "ArrowError",
    "CommTree",
    "leaf",
    "node",
    "tree_word",
    "ArrowPresentation",
    "sorted_presentation",
    "surgery",
    "realize_sorted",
    "insert_self_tree",
    "parse_realizer",
]


class ArrowError(ValueError):
    """Invalid tree, slot, or presentation."""


@dataclass(frozen=True)
class CommTree:
    """Iterated-commutator tree.

    Leaf: ``generator`` set, ``left``/``right`` None, optional ``conjugator``.
    Node: ``generator`` None, both children set.  ``twist`` = -1 inverts the
    word contributed by the leaf or by the whole bracket.
    """

    generator: int | None = None
    twist: int = 1
    conjugator: Word | None = None
    left: "CommTree | None" = None
    right: "CommTree | None" = None

    def __post_init__(self) -> None:
        if integer(self.twist, "twist", ArrowError) not in (1, -1):
            raise ArrowError(f"twist must be +1 or -1, got {self.twist!r}")
        if self.generator is not None:
            if self.left is not None or self.right is not None:
                raise ArrowError("a leaf cannot have children")
            if integer(self.generator, "generator", ArrowError) < 1:
                raise ArrowError(f"generator index {self.generator} out of range")
        else:
            if self.left is None or self.right is None:
                raise ArrowError("an internal node needs two children")
            if self.conjugator is not None:
                raise ArrowError("conjugators live on leaves")

    @property
    def is_leaf(self) -> bool:
        return self.generator is not None

    def leaves(self) -> Iterable["CommTree"]:
        if self.is_leaf:
            yield self
        else:
            yield from self.left.leaves()
            yield from self.right.leaves()


def leaf(generator: int, twist: int = 1, conjugator: Word | None = None) -> CommTree:
    return CommTree(generator=generator, twist=twist, conjugator=conjugator)


def node(left: CommTree, right: CommTree, twist: int = 1) -> CommTree:
    return CommTree(left=left, right=right, twist=twist)


def tree_word(t: CommTree, rank: int) -> Word:
    """The word in F_rank spelled by a tree: leaves give (possibly inverted,
    possibly conjugated) generators, nodes give commutators of their
    children.  A leaf conjugator of another rank raises WordError."""

    def go(s: CommTree) -> Word:
        if s.is_leaf:
            w = Word(rank, ((s.generator, s.twist),))
            if s.conjugator is not None:
                w = conjugate(w, s.conjugator)
            return w
        w = commutator(go(s.left), go(s.right))
        return invert(w) if s.twist < 0 else w

    return go(t)


# -- slots and presentations -----------------------------------------------------


@dataclass(frozen=True)
class ArrowPresentation:
    """Sorted tree presentation: per component, an ordered list of slots,
    each a reduced word of the presentation's rank."""

    rank: int
    slots: tuple[tuple[Word, ...], ...]

    def __post_init__(self) -> None:
        if len(self.slots) != self.rank:
            raise ArrowError(f"need one slot list per component, got {len(self.slots)}")
        for i, row in enumerate(self.slots, start=1):
            for w in row:
                if w.rank != self.rank:
                    raise ArrowError(f"slot word of component {i} has rank {w.rank}, "
                                     f"expected {self.rank}")


def sorted_presentation(words: Sequence[Word]) -> ArrowPresentation:
    """One slot per component carrying the given word (empty words give no slot)."""
    n = len(words)
    rows = []
    for i, w in enumerate(words, start=1):
        if w.rank != n:
            raise ArrowError(f"word for component {i} has rank {w.rank}, expected {n}")
        rows.append((w,) if len(w) else ())
    return ArrowPresentation(n, tuple(rows))


def surgery(pres: ArrowPresentation) -> StringLinkCode:
    """Build the Gauss code: one crossing per slot letter, Over passages
    collected in tail zones, Under passages in head zones."""
    n = pres.rank
    tails: list[list[Passage]] = [[] for _ in range(n)]
    heads: list[list[Passage]] = [[] for _ in range(n)]
    cid = 0
    for i in range(1, n + 1):
        for w in pres.slots[i - 1]:
            for letter in w.letters():
                cid += 1
                eps = 1 if letter > 0 else -1
                tails[abs(letter) - 1].append(Passage(cid, "O", eps))
                heads[i - 1].append(Passage(cid, "U", eps))
    return StringLinkCode(tuple(tuple(tails[m] + heads[m]) for m in range(n)))


def realize_sorted(words: Sequence[Word]) -> StringLinkCode:
    """String link whose i-th preferred longitude is alpha_i^(-e_i) * w_i,
    with e_i the exponent sum of w_i at alpha_i."""
    return surgery(sorted_presentation(words))


def insert_self_tree(
    pres: ArrowPresentation, i: int, t: CommTree, position: int | None = None
) -> ArrowPresentation:
    """Insert tree_word(t) as a slot among component i's slots.

    Every leaf of ``t`` must be labeled i (leaf conjugators are
    unrestricted), so the inserted word lies in the normal closure of
    alpha_i; surgery spells it out letter by letter like any other slot.
    """
    i = integer(i, "component", ArrowError)
    if not 1 <= i <= pres.rank:
        raise ArrowError(f"component {i} out of range")
    for lf in t.leaves():
        if lf.generator != i:
            raise ArrowError(f"leaf label {lf.generator} differs from component {i}")
    w = tree_word(t, rank=pres.rank)
    row = list(pres.slots[i - 1])
    pos = len(row) if position is None else integer(position, "slot position", ArrowError)
    if not 0 <= pos <= len(row):
        raise ArrowError(f"slot position {pos} out of range")
    row.insert(pos, w)
    rows = list(pres.slots)
    rows[i - 1] = tuple(row)
    return ArrowPresentation(pres.rank, tuple(rows))


# -- realizer text format ----------------------------------------------------------


def parse_realizer(text: str) -> tuple[Word, ...]:
    """Parse ``i: WORD`` lines (``-`` = empty word) into one word per component."""
    bodies = numbered_lines(text, ArrowError, "realizer", str.strip)
    if not bodies:
        raise ArrowError("empty realizer input")
    n = len(bodies)
    return tuple(Word(n, ()) if body == "-" else parse_word(body, n) for body in bodies)

