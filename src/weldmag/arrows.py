"""Tree presentations of welded string links and the sorted realizer.

Iterated-commutator trees are modeled by the free-group words they spell,
not by embedded planar diagrams: a leaf carries a generator index, a twist
sign and an optional conjugator word, an internal node takes the commutator
of its children (twist inverting the result).  A presentation assigns to
each component an ordered list of slots; a slot is a sequence of signed,
conjugator-annotated letters, and surgery turns each fully expanded letter
(j, e) into one crossing: the Over passage goes to the initial tail zone of
component j and the Under passage to the head zone of the slot's component.

Because every Over passage sits before every Under passage on its
component, each over-arc is a meridian, and the preferred longitudes of the
surgered diagram can be read off exactly: component i gets the word
alpha_i^(-e_i) * w_i where w_i is the concatenation of its slot words and
e_i the exponent sum of w_i at alpha_i.  realize_sorted uses this to build
a string link with prescribed longitudes, which the rest of the library
treats as an independent oracle.

Realizer text format: one line per component, ``i: WORD`` in the word token
syntax (``a2 A3``), with ``-`` standing for the empty word; ``/`` may
replace newlines.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Sequence

from .gauss import Passage, StringLinkCode
from .words import Word, commutator, conjugate, format_word, invert, multiply, parse_word

__all__ = [
    "ArrowError",
    "CommTree",
    "leaf",
    "node",
    "tree_word",
    "Slot",
    "slot_from_word",
    "expand_letters",
    "ArrowPresentation",
    "sorted_presentation",
    "surgery",
    "realize_sorted",
    "insert_self_tree",
    "parse_realizer",
    "serialize_realizer",
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
        if self.twist not in (1, -1):
            raise ArrowError(f"twist must be +1 or -1, got {self.twist!r}")
        if self.generator is not None:
            if self.left is not None or self.right is not None:
                raise ArrowError("a leaf cannot have children")
            if self.generator < 1:
                raise ArrowError(f"generator index {self.generator} out of range")
        else:
            if self.left is None or self.right is None:
                raise ArrowError("an internal node needs two children")
            if self.conjugator is not None:
                raise ArrowError("conjugators live on leaves")

    @property
    def is_leaf(self) -> bool:
        return self.generator is not None

    @property
    def degree(self) -> int:
        if self.is_leaf:
            return 1
        return self.left.degree + self.right.degree

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


def _min_rank(t: CommTree) -> int:
    r = 0
    for lf in t.leaves():
        r = max(r, lf.generator)
        if lf.conjugator is not None:
            r = max(r, lf.conjugator.rank)
    return r


def tree_word(t: CommTree, rank: int | None = None) -> Word:
    """The word spelled by a tree: leaves give (possibly inverted, possibly
    conjugated) generators, nodes give commutators of their children."""
    r = _min_rank(t) if rank is None else rank
    if r < _min_rank(t):
        raise ArrowError(f"rank {rank} too small for the tree's generators")

    def go(s: CommTree) -> Word:
        if s.is_leaf:
            w = Word(r, ((s.generator, s.twist),))
            if s.conjugator is not None and len(s.conjugator):
                w = conjugate(w, Word(r, s.conjugator.runs))
            return w
        w = commutator(go(s.left), go(s.right))
        return invert(w) if s.twist < 0 else w

    return go(t)


# -- slots and presentations -----------------------------------------------------


@dataclass(frozen=True)
class Slot:
    """Ordered letters (generator, sign, conjugator or None) attached to one
    component; the slot word is the product of the conjugated letters."""

    component: int
    letters: tuple[tuple[int, int, Word | None], ...]

    def __post_init__(self) -> None:
        for g, s, conj in self.letters:
            if g < 1:
                raise ArrowError(f"generator index {g} out of range")
            if s not in (1, -1):
                raise ArrowError(f"letter sign must be +1 or -1, got {s!r}")
            if conj is not None and not isinstance(conj, Word):
                raise ArrowError("conjugator must be a Word or None")


def slot_from_word(component: int, w: Word) -> Slot:
    letters = tuple((abs(l), 1 if l > 0 else -1, None) for l in w.letters())
    return Slot(component, letters)


def slot_word(s: Slot, rank: int) -> Word:
    parts = []
    for g, sign, conj in s.letters:
        w = Word(rank, ((g, sign),))
        if conj is not None and len(conj):
            w = conjugate(w, Word(rank, conj.runs))
        parts.append(w)
    return multiply(Word(rank, ()), *parts)


def expand_letters(s: Slot) -> tuple[tuple[int, int], ...]:
    """Reduced letter sequence of the slot word with conjugators written out."""
    out: list[tuple[int, int]] = []

    def push(g: int, e: int) -> None:
        if out and out[-1] == (g, -e):
            out.pop()
        else:
            out.append((g, e))

    for g, sign, conj in s.letters:
        conj_letters = [] if conj is None else [(abs(l), 1 if l > 0 else -1) for l in conj.letters()]
        for cg, ce in reversed(conj_letters):
            push(cg, -ce)
        push(g, sign)
        for cg, ce in conj_letters:
            push(cg, ce)
    return tuple(out)


@dataclass(frozen=True)
class ArrowPresentation:
    """Sorted tree presentation: per component, an ordered list of slots."""

    rank: int
    slots: tuple[tuple[Slot, ...], ...]

    def __post_init__(self) -> None:
        if len(self.slots) != self.rank:
            raise ArrowError(f"need one slot list per component, got {len(self.slots)}")
        for i, row in enumerate(self.slots, start=1):
            for s in row:
                if s.component != i:
                    raise ArrowError(f"slot for component {s.component} filed under {i}")
                for g, _, conj in s.letters:
                    if g > self.rank:
                        raise ArrowError(f"generator index {g} out of range for rank {self.rank}")
                    if conj is not None and conj.rank != self.rank:
                        raise ArrowError("conjugator rank does not match the presentation")


def sorted_presentation(words: Sequence[Word]) -> ArrowPresentation:
    """One slot per component carrying the given word (empty words give no slot)."""
    n = len(words)
    rows = []
    for i, w in enumerate(words, start=1):
        if w.rank != n:
            raise ArrowError(f"word for component {i} has rank {w.rank}, expected {n}")
        rows.append((slot_from_word(i, w),) if len(w) else ())
    return ArrowPresentation(n, tuple(rows))


def surgery(pres: ArrowPresentation) -> StringLinkCode:
    """Build the Gauss code: one crossing per expanded slot letter, Over
    passages collected in tail zones, Under passages in head zones."""
    n = pres.rank
    tails: list[list[Passage]] = [[] for _ in range(n)]
    heads: list[list[Passage]] = [[] for _ in range(n)]
    cid = 0
    for i in range(1, n + 1):
        for s in pres.slots[i - 1]:
            for g, eps in expand_letters(s):
                cid += 1
                tails[g - 1].append(Passage(cid, "O", eps))
                heads[i - 1].append(Passage(cid, "U", eps))
    return StringLinkCode(tuple(tuple(tails[m] + heads[m]) for m in range(n)))


def realize_sorted(words: Sequence[Word]) -> StringLinkCode:
    """String link whose i-th preferred longitude is alpha_i^(-e_i) * w_i,
    with e_i the exponent sum of w_i at alpha_i."""
    return surgery(sorted_presentation(words))


def insert_self_tree(
    pres: ArrowPresentation, i: int, t: CommTree, position: int | None = None
) -> ArrowPresentation:
    """Insert a slot carrying tree_word(t) among component i's slots.

    Every leaf of ``t`` must be labeled i (conjugators are unrestricted), so
    the inserted word lies in the normal closure of alpha_i.
    """
    if not 1 <= i <= pres.rank:
        raise ArrowError(f"component {i} out of range")
    for lf in t.leaves():
        if lf.generator != i:
            raise ArrowError(f"leaf label {lf.generator} differs from component {i}")
    w = tree_word(t, rank=pres.rank)
    new_slot = Slot(i, tuple((abs(l), 1 if l > 0 else -1, None) for l in w.letters()))
    row = list(pres.slots[i - 1])
    pos = len(row) if position is None else position
    if not 0 <= pos <= len(row):
        raise ArrowError(f"slot position {pos} out of range")
    row.insert(pos, new_slot)
    rows = list(pres.slots)
    rows[i - 1] = tuple(row)
    return ArrowPresentation(pres.rank, tuple(rows))


# -- realizer text format ----------------------------------------------------------

_LINE = re.compile(r"^\s*([0-9]+)\s*:(.*)$")


def parse_realizer(text: str) -> tuple[Word, ...]:
    """Parse ``i: WORD`` lines (``-`` = empty word) into one word per component."""
    chunks = [c for part in text.splitlines() for c in part.split("/")]
    rows: dict[int, str] = {}
    for chunk in chunks:
        if not chunk.strip():
            continue
        m = _LINE.match(chunk)
        if not m:
            raise ArrowError(f"bad realizer line {chunk.strip()!r}")
        comp_no = int(m.group(1))
        if comp_no in rows:
            raise ArrowError(f"component {comp_no} listed twice")
        rows[comp_no] = m.group(2).strip()
    if not rows:
        raise ArrowError("empty realizer input")
    n = len(rows)
    if sorted(rows) != list(range(1, n + 1)):
        raise ArrowError(f"component numbers {sorted(rows)} are not 1..{n}")
    words = []
    for i in range(1, n + 1):
        body = rows[i]
        words.append(Word(n, ()) if body == "-" else parse_word(body, n))
    return tuple(words)


def serialize_realizer(words: Sequence[Word]) -> str:
    lines = []
    for i, w in enumerate(words, start=1):
        lines.append(f"{i}: {format_word(w) if len(w) else '-'}")
    return "\n".join(lines)
