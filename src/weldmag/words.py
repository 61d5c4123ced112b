"""Free-group words and the commutator calculus used throughout the package.

Elements of the free group F_n on generators a1..an are represented by
:class:`Word`: a run-length-compressed sequence of (generator, signed
multiplicity) pairs, always kept freely reduced (adjacent runs carry distinct
generators, multiplicities are nonzero).  Run-length compression matters
because iterated conjugation, the bread and butter of longitude computations,
produces long repetitive words.

Every word carries its ambient rank and all binary operations check it;
silent rank coercion hides diagram bugs downstream.  A word is checked once,
where it is built from outside data (``Word(...)``, :func:`generator`,
:func:`word_from_letters`, :func:`parse_word`); the group operations build
their results from the runs of checked words and check them no further.

Every module reads the integers a caller passes in through :func:`integer`
and :func:`integers`, with its own error class: a float or a string is
refused by name, never truncated into an answer or left to fail later.

Conventions (fixed once, used everywhere):

* inverse of x is written x̄,
* conjugation  x^y = ȳ x y,
* commutator  [x, y] = x ȳ x̄ y.

The usual commutator identities (inverse of a bracket, bracket-conjugate
interchangeling, expansion of brackets of products, and the Jacobi-type
rewriting of [[a,b],c]) all hold for these conventions as equalities of
reduced words; the test suite checks them on randomized inputs.

Text form: a word is whitespace-separated tokens ``a3`` (generator) and
``A3`` (inverse generator), e.g. ``a1 A2 a1``.  The empty word is the empty
token sequence.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from typing import Iterable, Iterator

__all__ = [
    "Word",
    "WordError",
    "integer",
    "integers",
    "empty",
    "generator",
    "word_from_letters",
    "multiply",
    "invert",
    "power",
    "conjugate",
    "commutator",
    "parse_word",
    "format_word",
]


class WordError(ValueError):
    """Raised on malformed word input or rank mismatch."""


def integer(value: object, what: str, error: type[ValueError] = WordError) -> int:
    """value as an int, for ints and numpy integers only; anything else
    raises ``error`` naming ``what``."""
    try:
        return operator.index(value)
    except TypeError:
        raise error(f"{what} must be an integer, got {value!r}") from None


def integers(values: object, what: str, error: type[ValueError] = WordError) -> tuple[int, ...]:
    """values as a tuple of ints, each read by :func:`integer` as a
    ``what`` entry; a string or a non-iterable raises ``error``."""
    if isinstance(values, (str, bytes)) or not isinstance(values, Iterable):
        raise error(f"{what} must be a sequence of integers, got {values!r}")
    return tuple(integer(v, f"{what} entry", error) for v in values)


def _merge_runs(runs: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    # Stack-based free reduction on run-length pairs of nonzero multiplicity.
    stack: list[tuple[int, int]] = []
    for gen, mult in runs:
        if stack and stack[-1][0] == gen:
            total = stack[-1][1] + mult
            stack.pop()
            if total:
                stack.append((gen, total))
        else:
            stack.append((gen, mult))
    return tuple(stack)


@dataclass(frozen=True)
class Word:
    """A freely reduced word in F_rank, stored as runs of equal letters.

    ``runs`` is a tuple of (generator index, signed multiplicity); generator
    indices are 1-based.  Instances are immutable and hashable.  Runs must
    already be reduced: a zero multiplicity or two adjacent runs of one
    generator raise :class:`WordError`, so equal elements are equal words.
    The module-level helpers reduce what they build.
    """

    rank: int
    runs: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        rank = integer(self.rank, "rank")
        if rank < 1:
            raise WordError(f"rank must be positive, got {rank}")
        try:
            runs = tuple((integer(g, "generator"), integer(m, "multiplicity"))
                         for g, m in self.runs)
        except WordError:
            raise
        except (TypeError, ValueError):
            raise WordError(
                f"runs must be (generator, multiplicity) pairs, got {self.runs!r}") from None
        previous = None
        for gen, mult in runs:
            if not 1 <= gen <= rank:
                raise WordError(f"generator a{gen} out of range for rank {rank}")
            if mult == 0:
                raise WordError("zero-multiplicity run in word")
            if gen == previous:
                raise WordError(f"adjacent runs of generator a{gen} in word")
            previous = gen
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "runs", runs)

    def letters(self) -> Iterator[int]:
        """Yield single letters as signed generator indices (+g / -g)."""
        for gen, mult in self.runs:
            step = 1 if mult > 0 else -1
            for _ in range(abs(mult)):
                yield step * gen

    def __len__(self) -> int:
        return sum(abs(m) for _, m in self.runs)

    def __repr__(self) -> str:
        return f"Word({self.rank}, {format_word(self)!r})"


def _unchecked(rank: int, runs: tuple[tuple[int, int], ...]) -> Word:
    """A Word of reduced, in-range runs built from checked words of this rank."""
    w = object.__new__(Word)
    w.__dict__.update(rank=rank, runs=runs)
    return w


def empty(rank: int) -> Word:
    """The identity of F_rank."""
    return Word(rank, ())


def generator(rank: int, index: int) -> Word:
    """The generator a_index as a word."""
    return Word(rank, ((index, 1),))


def word_from_letters(rank: int, letters: Iterable[int]) -> Word:
    """Build a reduced word from signed letters (+g for a_g, -g for its inverse)."""
    runs = []
    for letter in letters:
        if letter == 0:
            raise WordError("letter 0 is not a generator")
        runs.append((abs(letter), 1 if letter > 0 else -1))
    return Word(rank, _merge_runs(runs))


def multiply(*ws: Word) -> Word:
    """Reduced product of one or more words of one rank, left to right."""
    if not ws:
        raise WordError("multiply needs at least one word")
    rank = ws[0].rank
    runs: list[tuple[int, int]] = []
    for w in ws:
        if w.rank != rank:
            raise WordError(f"rank mismatch: {rank} vs {w.rank}")
        runs.extend(w.runs)
    return _unchecked(rank, _merge_runs(runs))


def invert(w: Word) -> Word:
    """Group inverse: reversed runs with negated multiplicities."""
    return _unchecked(w.rank, tuple((g, -m) for g, m in reversed(w.runs)))


def power(w: Word, e: int) -> Word:
    """w**e for any integer e."""
    e = integer(e, "exponent")
    base = w if e > 0 else invert(w)
    out = empty(w.rank)
    sq, m = base, abs(e)
    while m:
        if m & 1:
            out = multiply(out, sq)
        m >>= 1
        if m:
            sq = multiply(sq, sq)
    return out


def conjugate(x: Word, y: Word) -> Word:
    """x^y = ȳ x y."""
    return multiply(invert(y), x, y)


def commutator(x: Word, y: Word) -> Word:
    """[x, y] = x ȳ x̄ y."""
    return multiply(x, invert(y), invert(x), y)


_TOKEN = re.compile(r"([aA])([0-9]+)$")


def parse_word(text: str, rank: int) -> Word:
    """Parse whitespace-separated ``a1`` / ``A1`` tokens into a reduced word.

    Capital letters denote inverses.  Raises :class:`WordError` naming the
    first offending token.
    """
    letters = []
    for token in text.split():
        m = _TOKEN.match(token)
        if not m:
            raise WordError(f"bad word token {token!r}")
        idx = int(m.group(2))
        if not 1 <= idx <= rank:
            raise WordError(f"bad word token {token!r}: index out of range for rank {rank}")
        letters.append(idx if m.group(1) == "a" else -idx)
    return word_from_letters(rank, letters)


def format_word(w: Word) -> str:
    """Inverse of :func:`parse_word`; the empty word formats as ''."""
    return " ".join(f"a{l}" if l > 0 else f"A{-l}" for l in w.letters())
