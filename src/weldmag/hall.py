"""Basic commutators, unique Hall factorization, and principal parts.

This module is the structural counterweight to the series engine: it knows
the free group's lower central series through an ordered family of basic
commutators and can factor any word as an ordered product of their powers
times a certified high-degree remainder.  The series engine and this module
check each other in the test suite.

Basic commutators over generators a1..an, in the bracket convention
[x, y] = x ȳ x̄ y of :mod:`weldmag.words`:

* every generator is basic of length 1, ordered a1 < a2 < ...;
* [C, D] is basic when C and D are basic with C < D in the global order,
  lengths adding, and, when D = [E, F], additionally E <= C;
* commutators of length m follow all commutators of shorter length; inside
  one length the order is lexicographic on (left ordinal, right ordinal).

The per-length counts match the Witt necklace numbers, and the lowest
(principal) homogeneous parts of the Magnus expansions of the length-d
basic commutators are linearly independent, which is what makes the
degree-by-degree factorization below well posed with integer exponents.

The factorization works in the series ring at total degree k: the word is
expanded once, and each degree's factors are divided off the expansion, so
no word is ever rewritten and the cost does not follow the exponents.  The
degree-d exponents come from an integer solve over the principal parts:
one integer matrix over a common denominator, inverted fraction-free once
per (rank, degree), a divisibility check by that denominator, and a check
of every row of the system.  Either check failing raises HallError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import words
from .magnus import (
    INT64_SAFE,
    TruncatedSeries,
    TruncationPolicy,
    expand,
    series_from_terms,
    series_mul,
    series_pow,
)
from .words import Word

__all__ = [
    "HallError",
    "BasicCommutator",
    "generate_basic",
    "principal_part",
    "hall_factorize",
]


class HallError(ValueError):
    """Raised when a factorization solve is inconsistent or non-integral.

    Reaching this means the bracket conventions or the basis order have been
    broken somewhere; it cannot happen for valid inputs.
    """


@dataclass(frozen=True)
class BasicCommutator:
    """One member of the ordered basic-commutator family.

    Leaves have ``generator`` set; inner nodes carry ``left``/``right``.
    ``entries`` counts how many times each generator occurs, which bounds
    which quotients the commutator can see.
    """

    ordinal: int
    length: int
    generator: int | None
    left: "BasicCommutator | None"
    right: "BasicCommutator | None"
    word: Word
    entries: tuple[int, ...]

    @property
    def is_leaf(self) -> bool:
        return self.generator is not None

    def bracket(self) -> str:
        """Nested bracket string, e.g. ``[[a1,a2],a2]``."""
        if self.generator is not None:
            return f"a{self.generator}"
        return f"[{self.left.bracket()},{self.right.bracket()}]"

    def __repr__(self) -> str:
        return f"BasicCommutator({self.ordinal}: {self.bracket()})"


@lru_cache(maxsize=None)
def generate_basic(n: int, max_len: int) -> tuple[BasicCommutator, ...]:
    """All basic commutators of length <= max_len over a1..an, in order."""
    if n < 1:
        raise HallError(f"rank must be positive, got {n}")
    if max_len < 1:
        raise HallError(f"max_len must be at least 1, got {max_len}")
    out: list[BasicCommutator] = []
    by_len: list[list[BasicCommutator]] = [[]]
    for g in range(1, n + 1):
        entries = tuple(1 if j == g else 0 for j in range(1, n + 1))
        out.append(BasicCommutator(len(out), 1, g, None, None, words.generator(n, g), entries))
    by_len.append(list(out))
    for length in range(2, max_len + 1):
        candidates: list[tuple[int, int, BasicCommutator, BasicCommutator]] = []
        for llen in range(1, length):
            for c in by_len[llen]:
                for d in by_len[length - llen]:
                    if c.ordinal >= d.ordinal:
                        continue
                    if d.left is not None and d.left.ordinal > c.ordinal:
                        continue
                    candidates.append((c.ordinal, d.ordinal, c, d))
        candidates.sort(key=lambda t: (t[0], t[1]))
        layer = []
        for _, _, c, d in candidates:
            word = words.commutator(c.word, d.word)
            entries = tuple(a + b for a, b in zip(c.entries, d.entries))
            bc = BasicCommutator(len(out), length, None, c, d, word, entries)
            out.append(bc)
            layer.append(bc)
        by_len.append(layer)
    return tuple(out)


def principal_part(c: BasicCommutator, policy: TruncationPolicy) -> TruncatedSeries:
    """The homogeneous degree-length(c) part of expand(word of c).

    This is the lowest nonvanishing part of the expansion; every one of its
    monomials uses each variable exactly entries[v] times.
    """
    if policy.max_total_degree < c.length:
        raise HallError(
            f"policy degree {policy.max_total_degree} below commutator length {c.length}"
        )
    s = expand(c.word, policy)
    terms = {m: v for m, v in s.items() if len(m) == c.length}
    return series_from_terms(policy, terms)


# the prime 2^31 - 1: rows independent mod it are independent over Q
_PRIME = 2_147_483_647


def _independent_rows(rows: list[list[int]]) -> list[int]:
    """Indices of the first maximal set of rows independent mod _PRIME,
    taken greedily in order; such rows are independent over Q too."""
    reduced: list[tuple[int, list[int]]] = []  # (lead column, row with 1 there)
    keep: list[int] = []
    for i, row in enumerate(rows):
        r = [x % _PRIME for x in row]
        for lead, b in reduced:
            if r[lead]:
                f = r[lead]
                r = [(x - f * y) % _PRIME for x, y in zip(r, b)]
        lead = next((j for j, x in enumerate(r) if x), None)
        if lead is not None:
            inv = pow(r[lead], -1, _PRIME)
            reduced.append((lead, [x * inv % _PRIME for x in r]))
            keep.append(i)
    return keep


def _fraction_free_inverse(a: list[list[int]]) -> tuple[int, list[list[int]]]:
    """(D, B) with A B = D I and D > 0 for a nonsingular integer matrix A.

    Fraction-free Gauss-Jordan elimination of [A | I] (Bareiss, 1968): after
    pivot step k every entry is a (k+1)-minor, so each division by the
    previous pivot is exact, and at the end the left block is +-det(A) I.
    """
    m = len(a)
    rows = [list(r) + [int(i == j) for j in range(m)] for i, r in enumerate(a)]
    prev = 1
    for k in range(m):
        p = next(r for r in range(k, m) if rows[r][k])
        rows[k], rows[p] = rows[p], rows[k]
        piv = rows[k][k]
        for i in range(m):
            if i != k:
                f = rows[i][k]
                rows[i] = [(piv * x - f * y) // prev for x, y in zip(rows[i], rows[k])]
        prev = piv
    sign = 1 if prev > 0 else -1
    return sign * prev, [[sign * x for x in r[m:]] for r in rows]


def _product(a: np.ndarray, a_norm: float, v: np.ndarray) -> np.ndarray:
    """a @ v exactly: on int64 while a_norm * max|v| bounds every partial
    sum below the guard, on Python ints beyond it."""
    if a.dtype != object and v.dtype != object:
        if a_norm * int(np.abs(v).max(initial=0)) < INT64_SAFE:
            return a @ v
    return a.astype(object).dot(v.astype(object))


@lru_cache(maxsize=None)
def _degree_solver(n: int, d: int):
    """Exact solver for the degree-d principal-part system.

    Returns solve, which takes the degree-d coefficient vector (in lex
    monomial order) and returns the integer exponent vector over the
    length-d basic commutators, verified against every row.  A
    principal part only has monomials with its commutator's letter counts,
    so the unknowns split into one block per count vector.
    """
    basis = [c for c in generate_basic(n, d) if c.length == d]
    policy = TruncationPolicy.total_degree(n, d)
    cols = np.zeros((n**d, len(basis)), dtype=np.int64)
    by_entries: dict[tuple[int, ...], list[int]] = {}
    for j, c in enumerate(basis):
        cols[:, j] = principal_part(c, policy).degree_block(d)
        by_entries.setdefault(c.entries, []).append(j)
    return _integer_solver(cols, list(by_entries.values()), d)


def _integer_solver(cols: np.ndarray, blocks: list[list[int]], d: int):
    """solve(b) -> the integer x with cols @ x == b, or HallError.

    ``blocks`` partitions the unknowns so that no row has nonzero entries
    in two blocks.  Each block's pivot rows are chosen mod a prime and
    inverted fraction-free; the blocks share one denominator D, so a solve
    is one integer product over the pivot rows, a divisibility check by D,
    and one product verifying every row.
    """
    ncols = cols.shape[1]
    pivots: list[int] = []
    parts = []  # (unknowns, first pivot position, det, adjugate)
    for unknowns in blocks:
        rows = np.flatnonzero((cols[:, unknowns] != 0).any(axis=1))
        sub = cols[np.ix_(rows, unknowns)].tolist()
        keep = _independent_rows(sub)
        if len(keep) != len(unknowns):
            raise HallError(f"principal parts of length {d} are not independent")
        det, adj = _fraction_free_inverse([sub[i] for i in keep])
        parts.append((unknowns, len(pivots), det, adj))
        pivots.extend(int(rows[i]) for i in keep)
    denom = math.lcm(*(det for _, _, det, _ in parts))
    # row j of the inverse is row j of its block's adjugate, scaled to denom
    inv_rows = [
        (j, at, [x * (denom // det) for x in row])
        for unknowns, at, det, adj in parts
        for j, row in zip(unknowns, adj)
    ]
    inv_norm = max((sum(map(abs, row)) for _, _, row in inv_rows), default=0)
    inv = np.zeros((ncols, ncols), dtype=np.int64 if inv_norm < INT64_SAFE else object)
    for j, at, row in inv_rows:
        inv[j, at : at + len(row)] = row
    # a bound on the largest row 1-norm, safe against float rounding
    row_sums = np.abs(cols).sum(axis=1, dtype=np.float64)
    cols_norm = float(row_sums.max(initial=0.0)) * (1.0 + 1e-9) + 1.0
    pivot_rows = np.array(pivots, dtype=np.int64)

    def solve(b: np.ndarray) -> list[int]:
        y = _product(inv, inv_norm, b[pivot_rows])
        frac = np.flatnonzero(y % denom)
        if len(frac):
            num = int(y[frac[0]])
            g = math.gcd(num, denom)
            raise HallError(f"non-integral exponent at degree {d}: {num // g}/{denom // g}")
        x = y // denom
        bad = np.flatnonzero(_product(cols, cols_norm, x) != b)
        if len(bad):
            raise HallError(f"degree-{d} system inconsistent at row {bad[0]}")
        return [int(v) for v in x]

    return solve


@lru_cache(maxsize=None)
def _expansions(n: int, k: int) -> tuple[tuple[TruncatedSeries, TruncatedSeries], ...]:
    """(expand(c), expand(c^-1)) at total degree k for every c in
    generate_basic(n, k), so that no factor power needs an inversion."""
    policy = TruncationPolicy.total_degree(n, k)
    return tuple(
        (expand(c.word, policy), expand(words.invert(c.word), policy))
        for c in generate_basic(n, k)
    )


def hall_factorize(w: Word, k: int) -> tuple[list[int], bool]:
    """Factor w as an ordered product of basic-commutator powers.

    Returns (exponents, certified): exponents are aligned with
    ``generate_basic(w.rank, k)`` and satisfy
    w = C_1^{e_1} ... C_N^{e_N} * h, and ``certified`` is True when the
    remainder h provably has no Magnus terms in degrees 1..k (so it lies in
    the (k+1)-st lower central subgroup).

    The work stays in the series ring at total degree k: w is expanded
    once, and at each degree d the remainder's degree-d block is written in
    the principal-part basis of the length-d basic commutators by an exact
    integer solve (a divisibility check, then every row verified).  The
    remainder is then left-multiplied by the inverse of that degree's
    product of factor powers, one factor C^-e at a time, each a power of
    the cached expansion of C or of its inverse.  The cost follows the
    word's length and not the size of its exponents; ``certified`` reads
    the remainder's degree blocks 1..k.
    """
    if k < 1:
        raise HallError(f"k must be at least 1, got {k}")
    n = w.rank
    solvers = [_degree_solver(n, d) for d in range(1, k + 1)]
    expansions = _expansions(n, k)
    rem = expand(w, TruncationPolicy.total_degree(n, k))
    exps: list[int] = []
    for d, solve in enumerate(solvers, start=1):
        x = solve(rem.degree_block(d))
        # (C_1^x_1 ... C_m^x_m)^-1 rem = C_m^-x_m (... (C_1^-x_1 rem))
        for (e_c, e_c_inv), exp in zip(expansions[len(exps) :], x):
            if exp:
                rem = series_mul(series_pow(e_c_inv if exp > 0 else e_c, abs(exp)), rem)
        exps.extend(x)
    certified = not any(rem.degree_block_nonzero(d) for d in range(1, k + 1))
    return exps, certified
