"""Basic commutators and unique Hall factorization.

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

The factorization works in the series ring at total degree k.  The degree-1
exponents are the word's exponent sums, so their factors are divided off
the word itself, as at most n runs in front of it; that word is expanded
once and each higher degree's factors are divided off the expansion, so
the cost does not follow the exponents.  The degree-d exponents, d >= 2,
come from an integer solve over the principal parts, inverted
fraction-free once per (rank, degree), then a divisibility check and a
check of every row; either failing raises HallError.  As
[gamma_d, gamma_d] lies in gamma_2d (Magnus, Karrass and Solitar, ch. 5),
only degrees 2 <= d <= k/2 divide with products, each C^-x as
sum_j binom(-x, j) u^j over the cached powers of u = expand(C) - 1; at
2d > k the step is a sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import words
from .magnus import (
    TruncatedSeries,
    TruncationPolicy,
    exact_dtype,
    expand,
    scatter_sum,
    series_mul,
    series_one,
)
from .words import Word

__all__ = [
    "HallError",
    "BasicCommutator",
    "generate_basic",
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
    which quotients the commutator can see.  ``bracket`` is the nested
    bracket string, e.g. ``[[a1,a2],a2]``, formed once from the children's.
    """

    ordinal: int
    length: int
    generator: int | None
    left: "BasicCommutator | None"
    right: "BasicCommutator | None"
    word: Word
    entries: tuple[int, ...]
    bracket: str

    def __repr__(self) -> str:
        return f"BasicCommutator({self.ordinal}: {self.bracket})"


def generate_basic(n: int, max_len: int) -> tuple[BasicCommutator, ...]:
    """All basic commutators of length <= max_len over a1..an, in order."""
    return _basic(words.integer(n, "rank", HallError), words.integer(max_len, "max_len", HallError))


@lru_cache(maxsize=None)
def _basic(n: int, max_len: int) -> tuple[BasicCommutator, ...]:
    if n < 1:
        raise HallError(f"rank must be positive, got {n}")
    if max_len < 1:
        raise HallError(f"max_len must be at least 1, got {max_len}")
    out: list[BasicCommutator] = []
    by_len: list[list[BasicCommutator]] = [[]]
    for g in range(1, n + 1):
        entries = tuple(1 if j == g else 0 for j in range(1, n + 1))
        out.append(
            BasicCommutator(len(out), 1, g, None, None, words.generator(n, g), entries, f"a{g}"))
    by_len.append(list(out))
    for length in range(2, max_len + 1):
        candidates: list[tuple[BasicCommutator, BasicCommutator]] = []
        for llen in range(1, length):
            for c in by_len[llen]:
                for d in by_len[length - llen]:
                    if c.ordinal < d.ordinal and (d.left is None or d.left.ordinal <= c.ordinal):
                        candidates.append((c, d))
        candidates.sort(key=lambda t: (t[0].ordinal, t[1].ordinal))
        for c, d in candidates:
            word = words.commutator(c.word, d.word)
            entries = tuple(a + b for a, b in zip(c.entries, d.entries))
            bracket = f"[{c.bracket},{d.bracket}]"
            out.append(BasicCommutator(len(out), length, None, c, d, word, entries, bracket))
        by_len.append(out[len(out) - len(candidates) :])
    return tuple(out)


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


def _sparse(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, int]:
    """The nonzero entries (rows, cols, values) of a, its row count, and its
    largest row 1-norm as an int (summed in floats on int64, exactly on
    Python ints)."""
    rows, cols = np.nonzero(a)
    sums = np.abs(a).sum(axis=1, dtype=object if a.dtype == object else np.float64)
    return rows, cols, a[rows, cols], len(a), int(sums.max(initial=0))


def _product(a: tuple, v: np.ndarray) -> np.ndarray:
    """a @ v exactly for a matrix in _sparse form: one scatter_sum over its
    nonzeros, whose partial sums are bounded by the row norm times max |v|,
    an exact int."""
    rows, cols, vals, nrows, norm = a
    return scatter_sum(nrows, rows, v[cols], vals, norm * int(np.abs(v).max(initial=0)))


def _principal(c: BasicCommutator, n: int) -> np.ndarray:
    """C's principal part, the degree-|C| block of its Magnus expansion in
    lex order: X_g for a_g, and P(D) P(C) - P(C) P(D) for [C, D] = C D̄ C̄ D."""
    if c.generator is not None:
        return np.eye(n, dtype=np.int64)[c.generator - 1]
    left, right = _principal(c.left, n), _principal(c.right, n)
    return np.outer(right, left).ravel() - np.outer(left, right).ravel()


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
    principal = np.stack([_principal(c, n) for c in basis], axis=1)
    by_entries: dict[tuple[int, ...], list[int]] = {}
    for j, c in enumerate(basis):
        by_entries.setdefault(c.entries, []).append(j)
    return _integer_solver(principal, list(by_entries.values()), d)


def _integer_solver(cols: np.ndarray, blocks: list[list[int]], d: int):
    """solve(b) -> the integer x with cols @ x == b, or HallError.

    ``blocks`` partitions the unknowns so that no row has nonzero entries
    in two blocks.  Each block's pivot rows are chosen mod a prime and
    inverted fraction-free; the blocks share one denominator D, so a solve
    is one integer product over the pivot rows, a divisibility check by D,
    and one product verifying every row, each summed over the nonzeros.
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
    inv = np.zeros((ncols, ncols), dtype=exact_dtype(inv_norm))
    for j, at, row in inv_rows:
        inv[j, at : at + len(row)] = row
    inv, cols = _sparse(inv), _sparse(cols)
    pivot_rows = np.array(pivots, dtype=np.int64)

    def solve(b: np.ndarray) -> list[int]:
        y = _product(inv, b[pivot_rows])
        frac = np.flatnonzero(y % denom)
        if len(frac):
            num = int(y[frac[0]])
            g = math.gcd(num, denom)
            raise HallError(f"non-integral exponent at degree {d}: {num // g}/{denom // g}")
        x = y // denom
        # rows that no block touches sum to 0, so there b must be 0
        bad = np.flatnonzero(_product(cols, x) != b)
        if len(bad):
            raise HallError(f"degree-{d} system inconsistent at row {bad[0]}")
        return [int(v) for v in x]

    return solve


@lru_cache(maxsize=None)
def _powers(n: int, k: int, d: int) -> tuple:
    """In _sparse form, the columns u_c, u_c^2, ..., u_c^(k//d) of each length-d
    basic commutator C_c in order, u_c = expand(C_c) - 1 at total degree k."""
    policy = TruncationPolicy.total_degree(n, k)
    cols = []
    for c in (c for c in generate_basic(n, d) if c.length == d):
        p = [expand(c.word, policy) - series_one(policy)]
        while len(p) < k // d:
            p.append(series_mul(p[-1], p[0]))
        cols += [np.concatenate([s.degree_block(e) for e in range(k + 1)]) for s in p]
    return _sparse(np.stack(cols, axis=1))


def hall_factorize(w: Word, k: int) -> tuple[list[int], bool]:
    """Factor w as an ordered product of basic-commutator powers.

    Returns (exponents, certified): exponents are aligned with
    ``generate_basic(w.rank, k)`` and satisfy
    w = C_1^{e_1} ... C_N^{e_N} * h, and ``certified`` is True when the
    remainder h provably has no Magnus terms in degrees 1..k (so it lies in
    the (k+1)-st lower central subgroup).

    The degree-1 exponents x_g, where C_g = a_g, are w's exponent sums, so
    the word a_n^-x_n ... a_1^-x_1 w is expanded once at total degree k,
    giving the remainder 1 + r, r of degree >= 2.  At each degree d >= 2
    its degree-d block is solved exactly for the exponents x, and it is
    left-multiplied by C_m^-x_m ... C_1^-x_1: at 2 <= d <= k/2 by each
    C_c^-x_c = 1 + sum_j binom(-x_c, j) u_c^j, one product per nonzero
    x_c over the cached powers of u_c = expand(C_c) - 1;
    at 2d > k, where u_c u_c' vanishes, as rem - sum_c x_c u_c, no product.
    ``certified`` reads the remainder's degree blocks 1..k.
    """
    k = words.integer(k, "k", HallError)
    if k < 1:
        raise HallError(f"k must be at least 1, got {k}")
    n = w.rank
    policy = TruncationPolicy.total_degree(n, k)
    exps = [sum(m for g, m in w.runs if g == v) for v in range(1, n + 1)]
    head = Word(n, tuple((g, -exps[g - 1]) for g in range(n, 0, -1) if exps[g - 1]))
    rem = expand(words.multiply(head, w), policy)
    for d in range(2, k + 1):
        x = _degree_solver(n, d)(rem.degree_block(d))
        exps.extend(x)
        if not any(x):
            continue
        if 2 * d > k:
            rem = rem - TruncatedSeries(policy, _product(_powers(n, k, d), np.array(x, dtype=object)))
        else:
            u, j = _powers(n, k, d), k // d
            for c, e in enumerate(x):
                if e:  # binom(-e, i) is the falling factorial of -e over i!
                    b = np.zeros(len(x) * j, dtype=object)
                    b[c * j : c * j + j] = [
                        math.prod(range(-e - i + 1, -e + 1)) // math.factorial(i) for i in range(1, j + 1)]
                    factor = _product(u, b)
                    factor[0] = 1
                    rem = series_mul(TruncatedSeries(policy, factor), rem)
    certified = not any(rem.degree_block(d).any() for d in range(1, k + 1))
    return exps, certified
