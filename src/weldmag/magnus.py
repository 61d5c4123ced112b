"""Exact truncated noncommutative power series and the Magnus expansion.

The ring is Z<<X_1,...,X_n>> modulo a monomial ideal described by a
:class:`TruncationPolicy`: a total-degree cap q and per-variable occurrence
caps r = (r_1,...,r_n), where a monomial is dropped as soon as its degree
exceeds q or some X_j occurs at least r_j times.  The surviving monomials
form a finite, prefix- and suffix-closed set, so the quotient is computed
exactly: there is no approximation anywhere in this module, only discarding
of monomials that the chosen ideal kills.

The policies that matter downstream:

* caps (k+1,...,k+1): decides membership in the subgroup generated by the
  (k+1)-fold lower-central pieces of the meridian normal closures; with
  the total degree also capped below n*k it holds every coefficient a
  Milnor table reads,
* caps with k at slot i and k+1 elsewhere: the per-component refinement used
  to compare longitudes component by component,
* caps of one more than each multiplicity in a monomial: the smallest
  quotient holding that one coefficient,
* caps q+1 with total degree q: the plain degree cut, used for degree
  bookkeeping and the Hall basis.

Coefficients are exact integers of unbounded magnitude, kept in a numpy
vector indexed by the policy's monomial list.  One rule decides every sum:
each kernel bounds the partial sums it is about to form from the 1-norms of
its operands, computed when it runs unless the caller holds them (the
1-norm is submultiplicative for this algebra), and exact_dtype turns that
bound into int64 below INT64_SAFE and Python ints (object dtype) from it
on.  Overflow can therefore never wrap silently.  Series carry no bound
between operations.

Monomial indices are decoded in one place: a per-policy matrix of letters,
built on first read, whose rows every reader of terms gathers.

Every product of two series, or one degree block of it, is formed by
``_convolve`` as one scatter_sum: over index triples (a, b, c) with
mono_a * mono_b = mono_c, it adds sv[a] * tv[b] into slot c.  The triples
come from one of two sources.  The support pairs are only the pairs of
nonzero terms whose concatenation survives: supports are sorted by degree,
so the b that fit after a form a run of the right factor's support, found
by searchsorted; a pair that breaks a cap is dropped by one add and mask of
packed letter counts; and c is found by a searchsorted of the base-(n+1)
code of a.b among the policy's codes.  The split triples are all (a, b, c)
of the policy, read off the same codes and ordered by c, so each degree's
are one contiguous range.  A fixed rule in the code takes the split
triples where a call reads few of them, on operands with more than a
tenth as many pairs as those triples, and where the codes or the packed
counts would not fit in int64; the rule changes only the speed.  No sum
goes through floats.

The Magnus expansion maps the free group into the units of this ring by
a_i -> 1 + X_i.  A word's expansion equals 1 exactly when the word is
trivial, degree-truncation permitting, which is what makes every membership
test in this package a finite exact computation.  Multiplying a series by
the image of a_v^m on the right is a letter shift (mul_letter), not a
product: each monomial ending in X_v is taken from its parent.

The conjugating substitution X_v -> c_v^{-1} X_v c_v that a string link's
action induces is a :class:`Substitution`, built once per operation from
its conjugators.  It forms the n variable images on construction.  A call
forms the monomial images its input lacks one degree layer at a time, each
image its parent's image times one variable image, all of a layer in one
segmented product; it keeps them in one sparse pool and applies them to
any number of series as one gather and one scatter_sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator, Mapping, Sequence

import numpy as np

from .words import Word, integer, integers

__all__ = [
    "MagnusError",
    "TruncationPolicy",
    "TruncatedSeries",
    "series_one",
    "series_from_terms",
    "series_mul",
    "series_inverse",
    "mul_letter",
    "expand",
    "retruncate",
    "indexed_terms",
    "Substitution",
    "exact_dtype",
    "scatter_sum",
    "format_monomial",
    "format_series",
]

# A quarter of the int64 range, so that the float rounding of a bound
# cannot carry a sum past int64.
INT64_SAFE = 2.0**61


def exact_dtype(bound: float | int) -> type:
    """The one overflow rule: int64 for a sum whose partial sums are at most
    bound in magnitude while bound < INT64_SAFE, Python ints (object)
    otherwise, and for a NaN bound.  An int bound compares exactly."""
    return np.int64 if bound < INT64_SAFE else object


def scatter_sum(
    size: int, index: np.ndarray, left: np.ndarray, right: np.ndarray, bound: float | int
) -> np.ndarray:
    """np.add.at(out, index, left * right) into zeros of length size,
    exactly, in exact_dtype(bound).

    bound must be at least the sum of |left[i] * right[i]| over the i that
    share one index, for every index, so that it bounds every partial sum.
    The products overwrite left, so left must be an array the caller does
    not keep, such as a gather; that saves one array of the operands' size.
    """
    dtype = exact_dtype(bound)
    try:
        left, right = left.astype(dtype, copy=False), right.astype(dtype, copy=False)
    except OverflowError:
        # a factor lies beyond int64 where its products are 0, so the
        # products, which the bound covers, are cast, not the factors
        left = left.astype(object)
    np.multiply(left, right, out=left, casting="unsafe")
    out = np.zeros(size, dtype=dtype)
    np.add.at(out, index, left.astype(dtype, copy=False))
    return out


def _norm(vals: np.ndarray, weights: np.ndarray | None = None) -> float:
    """The 1-norm of vals, or sum |vals[i]| * weights[i], as a float; inf
    past the float range."""
    try:
        mags = np.abs(vals)
        return float(np.add.reduce(mags if weights is None else mags * weights, dtype=np.float64))
    except OverflowError:
        return math.inf


class MagnusError(ValueError):
    """Raised on policy mismatches, bad monomials, or non-unit inversion."""


@dataclass(frozen=True)
class TruncationPolicy:
    """Monomial ideal: keep monomials of total degree <= max_total_degree
    whose variable X_j occurs strictly fewer than caps[j-1] times.

    One ideal has one policy.  Construction lowers each cap to
    max_total_degree + 1, then max_total_degree to sum(caps) - rank, the
    largest degree a surviving monomial can have; one pass suffices, since
    each cap - 1 is at most sum(caps) - rank.  So every degree 0..q holds a
    monomial, and two descriptions of one ideal compare equal."""

    rank: int
    max_total_degree: int
    caps: tuple[int, ...]

    def __post_init__(self) -> None:
        rank = integer(self.rank, "rank", MagnusError)
        q = integer(self.max_total_degree, "total degree cap", MagnusError)
        caps = integers(self.caps, "caps", MagnusError)
        if rank < 1:
            raise MagnusError(f"rank must be positive, got {rank}")
        if q < 0:
            raise MagnusError("total degree cap must be nonnegative")
        if len(caps) != rank or any(c < 1 for c in caps):
            raise MagnusError(f"bad caps {caps!r} for rank {rank}")
        caps = tuple(min(c, q + 1) for c in caps)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "caps", caps)
        object.__setattr__(self, "max_total_degree", min(q, sum(caps) - rank))

    @classmethod
    def total_degree(cls, rank: int, q: int) -> "TruncationPolicy":
        """Total degree q alone: caps q + 1, which drop nothing of degree <= q."""
        rank, q = integer(rank, "rank", MagnusError), integer(q, "degree cutoff", MagnusError)
        if q < 1:
            raise MagnusError(f"degree cutoff must be at least 1, got {q}")
        return cls(rank, q, (q + 1,) * rank)

    @classmethod
    def with_caps(cls, rank: int, caps: Sequence[int], q: int | None = None) -> "TruncationPolicy":
        """Per-variable caps; q defaults to sum(caps) - rank, the largest
        degree any surviving monomial can have.  Normalized as the class
        says: with_caps(2, (4, 4), 3) is total_degree(2, 3)."""
        caps = integers(caps, "caps", MagnusError)
        return cls(rank, sum(caps) - rank if q is None else q, caps)

    @classmethod
    def uniform_caps(cls, rank: int, k: int) -> "TruncationPolicy":
        """Caps (k+1,...,k+1): the ideal whose unit coset detects J^k."""
        rank, k = integer(rank, "rank", MagnusError), integer(k, "k", MagnusError)
        return cls.with_caps(rank, (k + 1,) * rank)

    @classmethod
    def component_caps(cls, rank: int, k: int, i: int) -> "TruncationPolicy":
        """Caps k at slot i, k+1 elsewhere: detects the i-th refinement J_i^k."""
        rank, k = integer(rank, "rank", MagnusError), integer(k, "k", MagnusError)
        i = integer(i, "component", MagnusError)
        if not 1 <= i <= rank:
            raise MagnusError(f"component {i} out of range for rank {rank}")
        caps = [k + 1] * rank
        caps[i - 1] = k
        return cls.with_caps(rank, caps)


class _PolicySpace:
    """Precomputed combinatorics of one policy's surviving monomials.

    Monomials are listed sorted by (degree, lexicographic), which is also the
    serialization order.  Prefixes and suffixes of surviving monomials always
    survive, so parents, prefixes and suffixes stay inside the list.

    Monomial i is stored as parent[i] (itself without its last letter),
    last[i], deg[i] and codes[i], its letters read as base-(n+1) digits.
    A longer monomial has the larger code, and codes of one length compare
    lexicographically, so codes increase with i and a searchsorted on codes
    maps a code back to its index.  The code of m1.m2 is
    code(m1) * (n+1)^|m2| + code(m2).  counts[i] packs the counts of the
    letters whose cap is at most q, the only caps a product of degree <= q
    can break, into one int64: the j-th such letter's count in bits
    [w(j-1), wj), with w - 1 bits for the count and one guard bit; a pair of
    monomials within the degree breaks a cap exactly when counts[a] +
    counts[b] + cap_offset sets a guard bit, never when no cap is at most q
    and all three are zero.  Codes are
    int64 while (n+1)^q stays below 2^62 and Python ints beyond, and so are
    powers[s] = (n+1)^s; products form support pairs only when the codes
    and the packed counts fit in int64 (see _convolve).

    The letter map append[v] of X_v is (src, dst, slices): it takes each
    monomial dst ending in X_v, in index order and so by degree, from its
    parent src, and slices holds its nonempty degree slices as (dst, src)
    views.

    letters, built on first read, is the one decoder of monomials: monos,
    letter_counts, labelled_items and indexed_terms gather its rows.
    """

    def __init__(self, policy: TruncationPolicy) -> None:
        n, q = policy.rank, policy.max_total_degree
        base = n + 1
        self.policy = policy
        self.max_degree = q
        codes_fit = base**q < 2**62
        code_type = np.int64 if codes_fit else object
        cap = np.array(policy.caps, dtype=np.int64)
        letters = np.arange(1, n + 1, dtype=np.int64)

        # layer d+1 appends every admissible letter to each monomial of
        # layer d in order, so each layer comes out lexicographically sorted;
        # q <= sum(caps) - n, so no layer is empty
        parents = [np.full(1, -1, dtype=np.int64)]
        lasts = [np.zeros(1, dtype=np.int64)]
        codes = [np.zeros(1, dtype=code_type)]
        count = np.zeros((1, n), dtype=np.int64)
        counts = [count]
        deg_start = [0, 1]
        for _ in range(q):
            p = np.repeat(np.arange(len(lasts[-1]), dtype=np.int64), n)
            v = np.tile(letters, len(lasts[-1]))
            keep = count[p, v - 1] + 1 < cap[v - 1]
            p, v = p[keep], v[keep]
            count = count[p]
            count[np.arange(len(p)), v - 1] += 1
            counts.append(count)
            parents.append(p + deg_start[-2])
            lasts.append(v)
            codes.append(codes[-1][p] * base + v.astype(code_type))
            deg_start.append(deg_start[-1] + len(p))

        self.parent = np.concatenate(parents)
        self.last = np.concatenate(lasts)
        self.codes = np.concatenate(codes)
        self.size = len(self.codes)
        self.deg_start = deg_start  # deg d block is [deg_start[d], deg_start[d+1])
        self.deg = np.repeat(np.arange(q + 1, dtype=np.int64), np.diff(deg_start))
        # a monomial of degree d has d + 1 split triples
        self._triple_start = np.cumsum([0, *(np.arange(1, q + 2) * np.diff(deg_start))]).tolist()
        self.triples = self._triple_start[-1]
        self.counts = None
        bind = np.flatnonzero(cap <= q)
        guard = int(cap[bind].max(initial=0)).bit_length()
        width = guard + 1
        if len(bind) * width <= 62:
            shift = width * np.arange(len(bind), dtype=np.int64)
            self.counts = (np.concatenate(counts)[:, bind] << shift).sum(axis=1)
            self.cap_offset = int((((1 << guard) - cap[bind]) << shift).sum())
            self.cap_guard = int(((1 << guard) << shift).sum())
        self.pairs_fit = codes_fit and self.counts is not None
        self.powers = base ** np.arange(q + 1, dtype=code_type)

        self.append = [None]
        for v in range(1, n + 1):
            dst = np.flatnonzero(self.last == v)
            src, cuts = self.parent[dst], np.searchsorted(dst, deg_start).tolist()
            self.append.append(
                (src, dst, [(dst[lo:hi], src[lo:hi]) for lo, hi in zip(cuts, cuts[1:]) if hi > lo]))

        self._splits: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    @cached_property
    def letters(self) -> np.ndarray:
        """Monomial i's letters at [i, :deg[i]], zeros after them, in the
        smallest unsigned dtype holding the rank: each degree-d layer is its
        parents' rows with its last letters in column d - 1."""
        letters = np.zeros((self.size, self.max_degree), dtype=np.min_scalar_type(self.policy.rank))
        for d, (lo, hi) in enumerate(zip(self.deg_start[1:], self.deg_start[2:]), start=1):
            letters[lo:hi] = letters[self.parent[lo:hi]]
            letters[lo:hi, d - 1] = self.last[lo:hi]
        return letters

    @cached_property
    def letter_counts(self) -> np.ndarray:
        """The count of X_j in monomial i at [i, j - 1], for every letter,
        in the smallest unsigned dtype that holds the degree q: one bincount
        of the letters by row, whose column 0 counts the padding."""
        base = self.policy.rank + 1
        slots = self.letters + base * np.arange(self.size)[:, None]
        counts = np.bincount(slots.ravel(), minlength=base * self.size).reshape(self.size, base)
        return counts[:, 1:].astype(np.min_scalar_type(self.max_degree))

    @cached_property
    def labels(self) -> np.ndarray:
        """Each monomial's format_monomial string, None until first read."""
        return np.full(self.size, None, dtype=object)

    def triple_span(self, degree: int | None = None) -> tuple[int, int]:
        """Where in splits() the triples of the degree-d monomials lie, or
        all triples."""
        return (0, self.triples) if degree is None else tuple(self._triple_start[degree : degree + 2])

    def monos(self, idx: np.ndarray) -> list[tuple[int, ...]]:
        """The monomials at the ascending indices idx as tuples of letters,
        one gather of letters rows per degree."""
        cuts = np.searchsorted(idx, self.deg_start).tolist()
        out = []
        for d, (lo, hi) in enumerate(zip(cuts, cuts[1:])):
            out += map(tuple, self.letters[idx[lo:hi], :d].tolist())
        return out

    def find(self, mono: tuple[int, ...]) -> int | None:
        """Index of a monomial, or None when the policy drops it."""
        base = self.policy.rank + 1
        if len(mono) > self.max_degree or not all(0 < v < base for v in mono):
            return None
        code = 0
        for v in mono:
            code = code * base + v
        i = int(np.searchsorted(self.codes, code))
        return i if i < self.size and self.codes[i] == code else None

    def splits(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All concatenation triples (a, b, c) with mono_a * mono_b = mono_c,
        ordered by c and then by the cut position, so C is non-decreasing.
        Read off the codes: cutting c before its last s letters leaves codes
        codes[c] // (n+1)^s and codes[c] % (n+1)^s, found by searchsorted.
        """
        if self._splits is None:
            codes, deg = self.codes, self.deg
            run_end = np.cumsum(deg + 1) - 1
            C = np.repeat(np.arange(self.size, dtype=np.int64), deg + 1)
            A, B = np.empty_like(C), np.empty_like(C)
            for s, power in enumerate(self.powers):
                # each monomial of degree >= s, cut before its last s letters
                lo = self.deg_start[s]
                at = run_end[lo:] - s
                A[at] = np.searchsorted(codes, codes[lo:] // power)
                B[at] = np.searchsorted(codes, codes[lo:] % power)
            self._splits = (A, B, C)
        return self._splits


@lru_cache(maxsize=None)
def _space(policy: TruncationPolicy) -> _PolicySpace:
    return _PolicySpace(policy)


class TruncatedSeries:
    """An element of the truncated ring; treat instances as immutable.

    Coefficient access returns plain Python ints.  Equality compares the
    policy and every coefficient exactly.
    """

    __slots__ = ("policy", "_vec")

    def __init__(self, policy: TruncationPolicy, vec: np.ndarray):
        self.policy = policy
        self._vec = vec

    # -- queries ---------------------------------------------------------------

    def coefficient(self, mono: tuple[int, ...]) -> int:
        idx = _space(self.policy).find(tuple(mono))
        if idx is None:
            raise MagnusError(
                f"monomial {format_monomial(tuple(mono))} is outside the truncation policy"
            )
        return int(self._vec[idx])

    def constant(self) -> int:
        return int(self._vec[0])

    def items(self) -> Iterator[tuple[tuple[int, ...], int]]:
        """Nonzero (monomial, coefficient) pairs in (degree, lex) order."""
        nz = np.flatnonzero(self._vec != 0)
        return zip(_space(self.policy).monos(nz), self._vec[nz].tolist())

    def labelled_items(self) -> Iterator[tuple[str, int]]:
        """Nonzero (label, coefficient) pairs in items() order, each label
        the format_monomial string, formatted once per policy."""
        space, nz = _space(self.policy), np.flatnonzero(self._vec != 0)
        new = nz[np.equal(space.labels[nz], None)]
        space.labels[new] = list(map(format_monomial, space.monos(new)))
        return zip(space.labels[nz].tolist(), self._vec[nz].tolist())

    @property
    def is_one(self) -> bool:
        if self._vec[0] != 1:
            return False
        return not (self._vec[1:] != 0).any()

    def degree_block(self, d: int) -> np.ndarray:
        """The degree-d coefficients in (degree, lex) order, a read-only
        int64 or object-dtype view."""
        q, d = self.policy.max_total_degree, integer(d, "degree", MagnusError)
        if not 0 <= d <= q:
            raise MagnusError(f"degree {d} out of range 0..{q}")
        space = _space(self.policy)
        block = self._vec[space.deg_start[d] : space.deg_start[d + 1]]
        block.flags.writeable = False
        return block

    def agrees_through_degree(self, other: "TruncatedSeries", d: int) -> bool:
        """True if the two series have equal coefficients in all degrees <= d."""
        if self.policy != other.policy:
            raise MagnusError("policy mismatch")
        d = integer(d, "degree", MagnusError)
        if d < 0:
            raise MagnusError(f"degree {d} out of range 0..{self.policy.max_total_degree}")
        hi = _space(self.policy).deg_start[min(d, self.policy.max_total_degree) + 1]
        return bool(np.equal(self._vec[:hi], other._vec[:hi]).all())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        if self.policy != other.policy:
            return False
        return bool(np.equal(self._vec, other._vec).all())

    __hash__ = None  # type: ignore[assignment]

    # -- arithmetic; the one product is series_mul ---------------------------

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        _check_policies(self, other)
        sv, ov = self._vec, other._vec
        dtype = exact_dtype(_norm(sv) + _norm(ov))
        vec = sv.astype(dtype, copy=False) + ov.astype(dtype, copy=False)
        return TruncatedSeries(self.policy, vec)

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(self.policy, -self._vec)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self + -other

    def __repr__(self) -> str:
        terms = list(self.labelled_items())
        head = ", ".join(f"{label}:{c}" for label, c in terms[:4])
        if len(terms) > 4:
            head += ", ..."
        return f"TruncatedSeries({head or '0'})"


def series_one(policy: TruncationPolicy) -> TruncatedSeries:
    vec = np.zeros(_space(policy).size, dtype=np.int64)
    vec[0] = 1
    return TruncatedSeries(policy, vec)


def series_from_terms(policy: TruncationPolicy, terms: Mapping[tuple[int, ...], int]) -> TruncatedSeries:
    """Series with the given coefficients; monomials must satisfy the policy."""
    space = _space(policy)
    terms = {tuple(mono): integer(c, "coefficient", MagnusError) for mono, c in terms.items()}
    vec = np.zeros(space.size, dtype=exact_dtype(max(map(abs, terms.values()), default=0)))
    for mono, c in terms.items():
        idx = space.find(mono)
        if idx is None:
            raise MagnusError(f"monomial {format_monomial(mono)} is outside the truncation policy")
        vec[idx] = c
    return TruncatedSeries(policy, vec)


def _check_policies(s: TruncatedSeries, t: TruncatedSeries) -> None:
    if s.policy != t.policy:
        raise MagnusError("policy mismatch between series operands")


def series_mul(s: TruncatedSeries, t: TruncatedSeries) -> TruncatedSeries:
    """Convolution product in the quotient ring."""
    _check_policies(s, t)
    return TruncatedSeries(s.policy, _convolve(_space(s.policy), s._vec, t._vec))


# The kernel rule counts the triples a call reads: all for a whole product,
# one block's for a degree block.  Timing _convolve on each source (best of
# 5, numpy 2.4, one core) in two runs over 2,122 whole products recorded
# from the benchmark's four workloads: up to 1,849 triples the split triples
# won 2.4-2.5x (support pairs cost a fixed 25-70 us, split triples 12-19
# us); at hall's 7,737 (total_degree(4, 5)) the two tied within about 10%;
# from 28,882 on, the support pairs won below one pair per 12 triples, tied
# up to one per 8 (in one run, one per 4) and lost above that.
DENSE_BELOW_TRIPLES = 10_000
PAIR_COST = 10


def _segments(lo: np.ndarray | int, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A segmented arange: every position lo[j] <= p < hi[j], run by run,
    with the run j it lies in."""
    count = hi - lo
    owner = np.repeat(np.arange(len(count)), count)
    return owner, np.arange(len(owner)) + (lo - np.cumsum(count) + count)[owner]


def _support_pairs(space: _PolicySpace, sv: np.ndarray, tv: np.ndarray, degree: int | None = None):
    """The index triples (a, b, c) of the pairs of nonzero terms whose
    product survives, or with ``degree`` only those whose product has that
    degree, c the index of mono_a * mono_b, and the supports (ia, ib) of sv
    and tv; None when the split triples the call would read are the
    cheaper source."""
    first, last = space.triple_span(degree)
    if not space.pairs_fit or last - first < DENSE_BELOW_TRIPLES:
        return None
    ia, ib = np.flatnonzero(sv != 0), np.flatnonzero(tv != 0)
    deg, right = space.deg, space.deg[ib]
    # supports are sorted by degree, so the b that fit after a are a run of ib
    top = space.max_degree if degree is None else degree
    lo = 0 if degree is None else np.searchsorted(right, degree - deg[ia])
    hi = np.searchsorted(right, top - deg[ia], side="right")
    if int((hi - lo).sum()) * PAIR_COST > last - first:
        return None
    owner, at = _segments(lo, hi)
    a, b = ia[owner], ib[at]
    fit = ((space.counts[a] + space.counts[b] + space.cap_offset) & space.cap_guard) == 0
    a, b = a[fit], b[fit]
    codes = space.codes
    c = np.searchsorted(codes, codes[a] * space.powers[deg[b]] + codes[b])
    return a, b, c, ia, ib


def _convolve(space: _PolicySpace, sv: np.ndarray, tv: np.ndarray,
              norms: tuple[float, float] | None = None, degree: int | None = None) -> np.ndarray:
    """The product of the coefficient vectors sv and tv, or with ``degree``
    only its degree block, the rest left zero; every product of two series
    in this module is formed here.

    One scatter_sum adds sv[a] * tv[b] into slot c over the index triples
    (a, b, c) of the support pairs (see _support_pairs) or, when those are
    the dearer source, over the split triples of the policy (splits()),
    whose degree-d block is one contiguous range because they are ordered
    by c.  Each (a, b) occurs once, so ||sv||_1 * ||tv||_1 bounds every
    partial sum; norms are those two 1-norms where the caller holds them,
    and are read off the operands otherwise.
    """
    pairs = _support_pairs(space, sv, tv, degree)
    if pairs is None:
        span = slice(*space.triple_span(degree))
        pairs = (*(x[span] for x in space.splits()), slice(None), slice(None))
    a, b, c, ia, ib = pairs
    s_norm, t_norm = norms or (_norm(sv[ia]), _norm(tv[ib]))
    return scatter_sum(space.size, c, sv[a], tv[b], s_norm * t_norm)


def series_inverse(s: TruncatedSeries) -> TruncatedSeries:
    """Two-sided inverse; the constant term must be +1 or -1.

    For constant +1, y solves s * y = 1 by back substitution, one degree-t
    product per degree: y^(t) = -[(s - 1) * y]^(t) reads only y below degree
    t, so the inverse costs about one product's worth of triples.  The
    degree-t sum is bounded by ||s - 1||_1 times the 1-norm of y below
    degree t; the largest, at the top degree, decides the result's dtype.
    """
    c0 = s.constant()
    if c0 == -1:
        return -series_inverse(-s)
    if c0 != 1:
        raise MagnusError(f"series with constant term {c0} is not invertible here")
    space = _space(s.policy)
    u = s._vec.copy()
    u[0] = 0
    u_norm = _norm(u)
    y = series_one(s.policy)._vec
    for t in range(1, space.max_degree + 1):
        lo, hi = space.deg_start[t], space.deg_start[t + 1]
        layer = _convolve(space, u, y, (u_norm, _norm(y)), degree=t)[lo:hi]
        if layer.dtype == object:
            y = y.astype(object, copy=False)
        y[lo:hi] = -layer
    return TruncatedSeries(s.policy, y)


# -- expansion of words -------------------------------------------------------


def _mul_one_letter(space: _PolicySpace, v: int, vec: np.ndarray) -> np.ndarray:
    """vec times (1 + X_v), by X_v's letter map."""
    out = vec.astype(exact_dtype(2 * _norm(vec)))
    src, dst, _ = space.append[v]
    out[dst] += out[src]
    return out


def _div_one_letter(space: _PolicySpace, v: int, vec: np.ndarray) -> np.ndarray:
    """vec times (1 + X_v)^{-1}, by degree-increasing back substitution
    over X_v's letter map; each result is at most q + 1 terms of vec."""
    out = vec.astype(exact_dtype((space.max_degree + 1) * _norm(vec)))
    for dst, src in space.append[v][2]:
        out[dst] -= out[src]
    return out


def _binomial_coeffs(mult: int, dmax: int) -> list[int]:
    """Coefficients of (1+X)^mult through degree dmax, exact integers."""
    if mult >= 0:
        return [math.comb(mult, d) for d in range(min(mult, dmax) + 1)]
    m = -mult
    return [(-1) ** d * math.comb(m + d - 1, d) for d in range(dmax + 1)]


def _mul_run(space: _PolicySpace, v: int, vec: np.ndarray, mult: int) -> np.ndarray:
    """vec times (1 + X_v)^mult for any integer mult, by X_v's letter map;
    ||vec||_1 times the 1-norm of (1 + X_v)^mult's coefficients bounds
    every partial sum."""
    if mult == 1:
        return _mul_one_letter(space, v, vec)
    if mult == -1:
        return _div_one_letter(space, v, vec)
    coeffs = _binomial_coeffs(mult, space.max_degree)
    vec = vec.astype(exact_dtype(_norm(vec) * sum(map(abs, coeffs))), copy=False)
    src, dst, _ = space.append[v]
    out = vec * coeffs[0]
    term = vec
    for c in coeffs[1:]:
        shifted = np.zeros_like(term)
        shifted[dst] = term[src]
        term = shifted
        if not (term != 0).any():
            break
        if c:
            out = out + term * c
    return out


def mul_letter(s: TruncatedSeries, v: int, mult: int = 1) -> TruncatedSeries:
    """s * (1 + X_v)^mult: the Magnus image of a_v^mult applied on the
    right by letter shifts, with no product."""
    v, mult = integer(v, "variable", MagnusError), integer(mult, "multiplicity", MagnusError)
    if not 1 <= v <= s.policy.rank:
        raise MagnusError(f"variable {v} out of range 1..{s.policy.rank}")
    return TruncatedSeries(s.policy, _mul_run(_space(s.policy), v, s._vec, mult))


def expand(w: Word, policy: TruncationPolicy) -> TruncatedSeries:
    """Magnus expansion of a word: a_i -> 1 + X_i, multiplicatively.

    Runs of equal letters are handled with binomial coefficients, so long
    power runs cost one pass each regardless of multiplicity.
    """
    if w.rank != policy.rank:
        raise MagnusError(f"word rank {w.rank} does not match policy rank {policy.rank}")
    space = _space(policy)
    vec = series_one(policy)._vec
    for g, mult in w.runs:
        vec = _mul_run(space, g, vec, mult)
    return TruncatedSeries(policy, vec)


# -- structure maps ------------------------------------------------------------


@lru_cache(maxsize=None)
def _retrunc_map(old: TruncationPolicy, new: TruncationPolicy) -> np.ndarray:
    old_codes, new_codes = _space(old).codes, _space(new).codes
    pos = np.minimum(np.searchsorted(old_codes, new_codes), len(old_codes) - 1)
    if (old_codes[pos] != new_codes).any():
        raise MagnusError("target policy is not a coarsening of the source policy")
    return pos


def retruncate(s: TruncatedSeries, new_policy: TruncationPolicy) -> TruncatedSeries:
    """Push a series into a coarser quotient (every monomial the new policy
    keeps must already live in the old one)."""
    if new_policy == s.policy:
        return s
    if new_policy.rank != s.policy.rank:
        raise MagnusError("rank mismatch in retruncate")
    mapping = _retrunc_map(s.policy, new_policy)
    return TruncatedSeries(new_policy, s._vec[mapping])


def indexed_terms(series: Sequence[TruncatedSeries], k: int) -> dict[tuple[int, ...], int]:
    """The nonzero terms c X_J of series i, for each i of the n series of
    one rank-n policy, whose monomial J is not 1 and holds X_i fewer than k
    times, as a dict {J + (i,): c} that iterates by length and then
    lexicographically.

    The series are stacked as the columns of one (size, n) array, and one
    mask, nonzero and fewer than k in the policy's letter counts, picks the
    terms.  np.nonzero lists the kept (J, i) row by row, J ascending and
    then i, and monomial indices follow (degree, lex) order, so that is
    already the (length, lex) order of J + (i,): nothing is sorted.  The
    kept J are read one degree at a time, as their rows of the policy's
    letters with i as one more column.
    """
    k = integer(k, "k", MagnusError)
    if not series or len(series) != series[0].policy.rank:
        raise MagnusError("need one series per variable")
    for s in series:
        _check_policies(series[0], s)
    space = _space(series[0].policy)
    coeffs = np.stack([s._vec for s in series], axis=1)
    keep = (coeffs != 0) & (space.letter_counts < k)
    keep[0] = False
    rows, cols = np.nonzero(keep)
    index = []
    cuts = np.searchsorted(rows, space.deg_start).tolist()
    for d, (lo, hi) in enumerate(zip(cuts, cuts[1:])):
        kept = np.column_stack((space.letters[rows[lo:hi], :d], cols[lo:hi] + 1))
        index += map(tuple, kept.tolist())
    return dict(zip(index, coeffs[rows, cols].tolist()))


# A segmented product or an apply that would gather more terms than this
# runs in halves instead, which bounds its working memory at about 100 MB.
LAYER_TERMS = 1 << 20


class Substitution:
    """The ring endomorphism X_v -> c_v^{-1} X_v c_v for fixed conjugators.

    Each c_v must be a unit series, all under one policy.  The substitution
    sends every monomial to a sum of monomials with at least the original
    variable multiplicities, so it descends to all cap quotients; dropped
    monomials stay dropped.

    Build one per operation and apply it to every series that operation
    substitutes into.  Construction forms only the n variable images
    c_v^{-1} X_v c_v (one series_inverse and one product each), with their
    1-norms; the inverses c_v^{-1} are kept as ``inverses``.  A call forms
    the images its input's monomials still lack, with their prefixes, one
    degree layer at a time: the image of m.v is the image of m times the
    image of X_v, read off the right-multiplication operator of X_v's image
    (built on the first call that forms an image), and each layer is one
    segmented product (see _form_layer).  The images are kept in one pool,
    as indices and values with a start, stop and 1-norm per monomial.
    Applying the substitution to a series is then one gather of its
    monomials' images and one scatter_sum of them scaled, whose partial
    sums are bounded by sum |c_m| * ||image of m||_1 over its coefficients
    c_m.  Do not keep the object beyond the operation.
    """

    def __init__(self, conjugators: Sequence[TruncatedSeries]) -> None:
        if not conjugators or len(conjugators) != conjugators[0].policy.rank:
            raise MagnusError("need one conjugator per variable")
        policy = conjugators[0].policy
        for c in conjugators:
            if c.policy != policy:
                raise MagnusError("conjugator policy mismatch")
        self.policy = policy
        self._space = space = _space(policy)
        self.inverses = tuple(series_inverse(c) for c in conjugators)
        self.variable_images = tuple(
            series_mul(mul_letter(inv, v) - inv, c)
            for v, (inv, c) in enumerate(zip(self.inverses, conjugators), start=1)
        )
        self._variable_norms = np.array([_norm(img._vec) for img in self.variable_images])
        # the pool: monomial i's image is indices and values [start[i], stop[i]),
        # start -1 until it is formed; the constant's image is 1.  Indices fit
        # in int32: a policy of 2^31 monomials would not fit in memory.
        self._start = np.full(space.size, -1, dtype=np.int64)
        self._stop = np.zeros(space.size, dtype=np.int64)
        self._norms = np.zeros(space.size)
        self._start[0], self._stop[0], self._norms[0] = 0, 1, 1.0
        self._indices = np.zeros(1, dtype=np.int32)
        self._values = np.ones(1, dtype=np.int64)

    @cached_property
    def _operator(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Right multiplication by the variable images, as CSR rows: row
        (v - 1) * size + a, [rows[r], rows[r + 1]) of targets and coeffs,
        lists the (c, coefficient) terms of mono_a * image of X_v, read off
        the split triples whose right factor lies in that image's support."""
        A, B, C = self._space.splits()
        counts, targets, coeffs = [], [], []
        for img in self.variable_images:
            at = np.flatnonzero(img._vec[B] != 0)
            at = at[np.argsort(A[at], kind="stable")]
            counts.append(np.bincount(A[at], minlength=self._space.size))
            targets.append(C[at])
            coeffs.append(img._vec[B[at]])
        rows = np.cumsum(np.concatenate([[0], *counts]))
        return rows, np.concatenate(targets), np.concatenate(coeffs)

    def _form_layer(self, new: np.ndarray) -> None:
        """Forms the images of the monomials new, all of one degree and
        each with its parent's image formed, as one segmented product: every
        term (i, x) of the parent's image of segment j meets row (v, i) of
        the operator, v the segment's last letter, and one scatter_sum adds
        the products up by (j, c).  The parent's 1-norm times X_v's image's
        bounds every partial sum of segment j.  The nonzero sums are
        appended to the pool."""
        size = self._space.size
        rows, targets, coeffs = self._operator
        parent, v = self._space.parent[new], self._space.last[new] - 1
        start, stop = self._start[parent], self._stop[parent]
        fits = len(new) == 1 or (stop - start).sum() <= LAYER_TERMS
        if fits:
            seg, at = _segments(start, stop)
            row = v[seg] * size + self._indices[at]
            lo, hi = rows[row], rows[row + 1]
            fits = len(new) == 1 or (hi - lo).sum() <= LAYER_TERMS
        if not fits:
            for half in np.array_split(new, 2):
                self._form_layer(half)
            return
        term, op = _segments(lo, hi)
        slots, where = np.unique(seg[term] * size + targets[op], return_inverse=True)
        bound = (self._norms[parent] * self._variable_norms[v]).max()
        sums = scatter_sum(len(slots), where, self._values[at[term]], coeffs[op], bound)
        keep = np.flatnonzero(sums != 0)
        slots, sums = slots[keep], sums[keep]
        owner = slots // size
        count = np.bincount(owner, minlength=len(new))
        try:
            norms = np.bincount(owner, np.abs(sums).astype(np.float64), len(new))
        except OverflowError:
            norms = np.full(len(new), math.inf)
        if norms.max() < INT64_SAFE:
            sums = sums.astype(np.int64)
        # the pool is only ever gathered from, never viewed, so it grows in place
        end = len(self._indices)
        if sums.dtype == object:
            self._values = self._values.astype(object, copy=False)
        self._indices.resize(end + len(slots), refcheck=False)
        self._values.resize(end + len(slots), refcheck=False)
        self._indices[end:], self._values[end:] = slots - owner * size, sums
        self._start[new] = end + np.cumsum(count) - count
        self._stop[new] = self._start[new] + count
        self._norms[new] = norms

    def _form(self, idx: np.ndarray) -> None:
        """Forms the images of the monomials idx and of their prefixes that
        are not formed yet, one layer per degree, lowest first."""
        parent, start = self._space.parent, self._start
        missing = np.zeros(len(start), dtype=bool)
        layer = idx[start[idx] < 0]
        while len(layer):
            missing[layer] = True
            layer = parent[layer]
            layer = layer[start[layer] < 0]
        missing = np.flatnonzero(missing)
        cuts = np.searchsorted(missing, self._space.deg_start)
        for lo, hi in zip(cuts, cuts[1:]):
            if hi > lo:
                self._form_layer(missing[lo:hi])

    def __call__(self, s: TruncatedSeries) -> TruncatedSeries:
        if s.policy != self.policy:
            raise MagnusError("policy mismatch between series and substitution")
        nz = np.flatnonzero(s._vec != 0)
        if not len(nz):
            return s
        self._form(nz)
        coeffs = s._vec[nz]
        return TruncatedSeries(self.policy, self._apply(nz, coeffs, _norm(coeffs, self._norms[nz])))

    def _apply(self, idx: np.ndarray, coeffs: np.ndarray, bound: float) -> np.ndarray:
        """The sum of coeffs[j] times the image of idx[j], as one gather and
        one scatter_sum, or as the sum of two halves where that would gather
        more than LAYER_TERMS terms; bound covers every partial sum."""
        start, stop = self._start[idx], self._stop[idx]
        if len(idx) > 1 and (stop - start).sum() > LAYER_TERMS:
            half = len(idx) // 2
            return (self._apply(idx[:half], coeffs[:half], bound)
                    + self._apply(idx[half:], coeffs[half:], bound))
        term, at = _segments(start, stop)
        return scatter_sum(self._space.size, self._indices[at], coeffs[term], self._values[at], bound)


# -- serialization ---------------------------------------------------------------


def format_monomial(mono: tuple[int, ...]) -> str:
    return ".".join(f"X{v}" for v in mono) if mono else "1"


def format_series(s: TruncatedSeries) -> str:
    """One line per nonzero term, `X1.X2 : -3`, in (degree, lex) order;
    the constant term prints as `1 : c`."""
    return "\n".join(f"{label} : {c}" for label, c in s.labelled_items())
