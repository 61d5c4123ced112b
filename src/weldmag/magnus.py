"""Exact truncated noncommutative power series and the Magnus expansion.

The ring is Z<<X_1,...,X_n>> modulo a monomial ideal described by a
:class:`TruncationPolicy`: a total-degree cap q and optional per-variable
occurrence caps r = (r_1,...,r_n), where a monomial is dropped as soon as
some X_j occurs at least r_j times.  The surviving monomials form a finite,
prefix- and suffix-closed set, so the quotient is computed exactly: there is
no approximation anywhere in this module, only discarding of monomials that
the chosen ideal kills.

The policies that matter downstream:

* caps (k+1,...,k+1): decides membership in the subgroup generated by the
  (k+1)-fold lower-central pieces of the meridian normal closures; with
  the total degree also capped below n*k it holds every coefficient a
  Milnor table reads,
* caps with k at slot i and k+1 elsewhere: the per-component refinement used
  to compare longitudes component by component,
* caps of one more than each multiplicity in a monomial: the smallest
  quotient holding that one coefficient,
* plain total degree q: used for degree bookkeeping.

Coefficients are exact integers of unbounded magnitude.  The fast path keeps
them in an int64 numpy vector indexed by the policy's monomial list; every
operation is guarded by a conservative bound on the 1-norm of the result
(the 1-norm is submultiplicative for this algebra), and when the bound gets
anywhere near the int64 range the computation is promoted to an object-dtype
vector holding Python integers.  Overflow can therefore never wrap silently.

The Magnus expansion maps the free group into the units of this ring by
a_i -> 1 + X_i.  A word's expansion equals 1 exactly when the word is
trivial, degree-truncation permitting, which is what makes every membership
test in this package a finite exact computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Mapping, Sequence

import numpy as np

from .words import Word

__all__ = [
    "MagnusError",
    "TruncationPolicy",
    "TruncatedSeries",
    "series_one",
    "series_from_terms",
    "one_plus_x",
    "series_mul",
    "series_inverse",
    "series_pow",
    "expand",
    "coefficient",
    "lcs_lower_bound",
    "in_Jr",
    "retruncate",
    "substitute_conjugates",
    "format_monomial",
    "format_series",
]

# Promote to Python-int vectors once a result's 1-norm bound crosses this.
_INT64_SAFE = 2.0**61


class MagnusError(ValueError):
    """Raised on policy mismatches, bad monomials, or non-unit inversion."""


@dataclass(frozen=True)
class TruncationPolicy:
    """Monomial ideal: keep monomials of total degree <= max_total_degree
    whose variable X_j occurs strictly fewer than caps[j-1] times (when caps
    is given)."""

    rank: int
    max_total_degree: int
    caps: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise MagnusError(f"rank must be positive, got {self.rank}")
        if self.max_total_degree < 0:
            raise MagnusError("total degree cap must be nonnegative")
        if self.caps is not None:
            if len(self.caps) != self.rank:
                raise MagnusError("caps length must equal rank")
            if any(c < 1 for c in self.caps):
                raise MagnusError("caps must be positive")

    @classmethod
    def total_degree(cls, rank: int, q: int) -> "TruncationPolicy":
        if q < 1:
            raise MagnusError(f"degree cutoff must be at least 1, got {q}")
        return cls(rank, q)

    @classmethod
    def with_caps(cls, rank: int, caps: Sequence[int], q: int | None = None) -> "TruncationPolicy":
        """Per-variable caps; q defaults to sum(caps) - rank, the largest
        degree any surviving monomial can have."""
        caps = tuple(int(c) for c in caps)
        if len(caps) != rank or any(c < 1 for c in caps):
            raise MagnusError(f"bad caps {caps!r} for rank {rank}")
        if q is None:
            q = sum(caps) - rank
        return cls(rank, q, caps)

    @classmethod
    def uniform_caps(cls, rank: int, k: int) -> "TruncationPolicy":
        """Caps (k+1,...,k+1): the ideal whose unit coset detects J^k."""
        return cls.with_caps(rank, (k + 1,) * rank)

    @classmethod
    def component_caps(cls, rank: int, k: int, i: int) -> "TruncationPolicy":
        """Caps k at slot i, k+1 elsewhere: detects the i-th refinement J_i^k."""
        if not 1 <= i <= rank:
            raise MagnusError(f"component {i} out of range for rank {rank}")
        caps = [k + 1] * rank
        caps[i - 1] = k
        return cls.with_caps(rank, caps)

    def admits(self, mono: tuple[int, ...]) -> bool:
        if len(mono) > self.max_total_degree:
            return False
        if any(not 1 <= v <= self.rank for v in mono):
            return False
        if self.caps is not None:
            for v in set(mono):
                if mono.count(v) >= self.caps[v - 1]:
                    return False
        return True


class _PolicySpace:
    """Precomputed combinatorics of one policy's surviving monomials.

    Monomials are listed sorted by (degree, lexicographic), which is also the
    serialization order.  Prefixes and suffixes of surviving monomials always
    survive, so parent links and concatenation splits stay inside the list.
    """

    def __init__(self, policy: TruncationPolicy) -> None:
        n, q, caps = policy.rank, policy.max_total_degree, policy.caps
        monos: list[tuple[int, ...]] = [()]
        deg_start = [0, 1]
        layer: list[tuple[int, ...]] = [()]
        for _ in range(q):
            nxt: list[tuple[int, ...]] = []
            for m in layer:
                for v in range(1, n + 1):
                    if caps is None or m.count(v) + 1 <= caps[v - 1] - 1:
                        nxt.append(m + (v,))
            monos.extend(nxt)
            deg_start.append(len(monos))
            layer = nxt
            if not nxt:
                break
        while len(deg_start) < q + 2:
            deg_start.append(len(monos))

        self.policy = policy
        self.monos = monos
        self.size = len(monos)
        self.index: dict[tuple[int, ...], int] = {m: i for i, m in enumerate(monos)}
        self.deg_start = deg_start  # deg d block is [deg_start[d], deg_start[d+1])
        self.max_degree = q

        parent = np.full(self.size, -1, dtype=np.int64)
        last = np.zeros(self.size, dtype=np.int64)
        # append pairs per variable: (source index, target index)
        app_src: list[list[int]] = [[] for _ in range(n + 1)]
        app_dst: list[list[int]] = [[] for _ in range(n + 1)]
        for i, m in enumerate(monos):
            if m:
                p = self.index[m[:-1]]
                parent[i] = p
                last[i] = m[-1]
                app_src[m[-1]].append(p)
                app_dst[m[-1]].append(i)
        self.parent = parent
        self.last = last
        self.app_src = [np.array(a, dtype=np.int64) for a in app_src]
        self.app_dst = [np.array(a, dtype=np.int64) for a in app_dst]

        self._div_rows: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}
        self._splits: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def div_rows(self, v: int) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per degree d >= 1: (indices of monomials ending in X_v, their parents)."""
        rows = self._div_rows.get(v)
        if rows is None:
            rows = []
            for d in range(1, self.max_degree + 1):
                lo, hi = self.deg_start[d], self.deg_start[d + 1]
                idx = np.arange(lo, hi, dtype=np.int64)
                sel = idx[self.last[lo:hi] == v]
                rows.append((sel, self.parent[sel]))
            self._div_rows[v] = rows
        return rows

    def splits(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All concatenation triples (a, b, c) with mono_a * mono_b = mono_c."""
        if self._splits is None:
            A: list[int] = []
            B: list[int] = []
            C: list[int] = []
            for c_idx, m in enumerate(self.monos):
                for cut in range(len(m) + 1):
                    A.append(self.index[m[:cut]])
                    B.append(self.index[m[cut:]])
                    C.append(c_idx)
            self._splits = (
                np.array(A, dtype=np.int64),
                np.array(B, dtype=np.int64),
                np.array(C, dtype=np.int64),
            )
        return self._splits


@lru_cache(maxsize=None)
def _space(policy: TruncationPolicy) -> _PolicySpace:
    return _PolicySpace(policy)


def _fresh_bound(vec: np.ndarray) -> float:
    """Upper bound on the 1-norm, safe against float rounding."""
    if vec.dtype == object:
        total = 0
        for x in vec:
            total += abs(x)
        try:
            return float(total) * (1.0 + 1e-9) + 1.0
        except OverflowError:
            return float("inf")
    return float(np.abs(vec).sum(dtype=np.float64)) * (1.0 + 1e-9) + 1.0


def _to_object(vec: np.ndarray) -> np.ndarray:
    return vec if vec.dtype == object else vec.astype(object)


class TruncatedSeries:
    """An element of the truncated ring; treat instances as immutable.

    Coefficient access returns plain Python ints.  Equality compares the
    policy and every coefficient exactly.
    """

    __slots__ = ("policy", "_vec", "_bound")

    def __init__(self, policy: TruncationPolicy, vec: np.ndarray, bound: float | None = None):
        self.policy = policy
        self._vec = vec
        self._bound = _fresh_bound(vec) if bound is None else bound

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def _zeros(policy: TruncationPolicy) -> np.ndarray:
        return np.zeros(_space(policy).size, dtype=np.int64)

    # -- queries ---------------------------------------------------------------

    def coefficient(self, mono: tuple[int, ...]) -> int:
        space = _space(self.policy)
        idx = space.index.get(tuple(mono))
        if idx is None:
            raise MagnusError(
                f"monomial {format_monomial(tuple(mono))} is outside the truncation policy"
            )
        return int(self._vec[idx])

    def constant(self) -> int:
        return int(self._vec[0])

    def items(self) -> Iterator[tuple[tuple[int, ...], int]]:
        """Nonzero (monomial, coefficient) pairs in (degree, lex) order."""
        space = _space(self.policy)
        for i in np.flatnonzero(self._vec != 0):
            yield space.monos[int(i)], int(self._vec[int(i)])

    @property
    def is_one(self) -> bool:
        if self._vec[0] != 1:
            return False
        return not (self._vec[1:] != 0).any()

    @property
    def is_zero(self) -> bool:
        return not (self._vec != 0).any()

    def degree_block_nonzero(self, d: int) -> bool:
        space = _space(self.policy)
        lo, hi = space.deg_start[d], space.deg_start[d + 1]
        return bool((self._vec[lo:hi] != 0).any())

    def agrees_through_degree(self, other: "TruncatedSeries", d: int) -> bool:
        """True if the two series have equal coefficients in all degrees <= d."""
        if self.policy != other.policy:
            raise MagnusError("policy mismatch")
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
        if self._bound + other._bound >= _INT64_SAFE or sv.dtype == object or ov.dtype == object:
            sv, ov = _to_object(sv), _to_object(ov)
        return TruncatedSeries(self.policy, sv + ov)

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(self.policy, -self._vec, self._bound)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self + -other

    def __repr__(self) -> str:
        terms = list(self.items())
        head = ", ".join(f"{format_monomial(m)}:{c}" for m, c in terms[:4])
        if len(terms) > 4:
            head += ", ..."
        return f"TruncatedSeries({head or '0'})"


def series_one(policy: TruncationPolicy) -> TruncatedSeries:
    vec = TruncatedSeries._zeros(policy)
    vec[0] = 1
    return TruncatedSeries(policy, vec, 2.0)


def series_from_terms(policy: TruncationPolicy, terms: Mapping[tuple[int, ...], int]) -> TruncatedSeries:
    """Series with the given coefficients; monomials must satisfy the policy."""
    space = _space(policy)
    big = any(abs(c) >= 2**62 for c in terms.values())
    vec = np.zeros(space.size, dtype=object) if big else TruncatedSeries._zeros(policy)
    for mono, c in terms.items():
        mono = tuple(mono)
        idx = space.index.get(mono)
        if idx is None:
            raise MagnusError(f"monomial {format_monomial(mono)} is outside the truncation policy")
        vec[idx] = c if big else int(c)
    return TruncatedSeries(policy, vec)


def one_plus_x(policy: TruncationPolicy, v: int) -> TruncatedSeries:
    """The Magnus image 1 + X_v of the generator a_v."""
    return series_from_terms(policy, {(): 1, (v,): 1})


def _check_policies(s: TruncatedSeries, t: TruncatedSeries) -> None:
    if s.policy != t.policy:
        raise MagnusError("policy mismatch between series operands")


def series_mul(s: TruncatedSeries, t: TruncatedSeries) -> TruncatedSeries:
    """Convolution product in the quotient ring."""
    _check_policies(s, t)
    space = _space(s.policy)
    A, B, C = space.splits()
    est = s._bound * t._bound
    sv, tv = s._vec, t._vec
    if est >= _INT64_SAFE or sv.dtype == object or tv.dtype == object:
        sv, tv = _to_object(sv), _to_object(tv)
        out = np.zeros(space.size, dtype=object)
        vals = sv[A] * tv[B]
        for c_idx, val in zip(C, vals):
            if val:
                out[c_idx] += val
        return TruncatedSeries(s.policy, out)
    out = np.zeros(space.size, dtype=np.int64)
    np.add.at(out, C, sv[A] * tv[B])
    return TruncatedSeries(s.policy, out, min(est, _fresh_bound(out)))


def _scale(s: TruncatedSeries, c: int) -> TruncatedSeries:
    if c == 0:
        return TruncatedSeries(s.policy, TruncatedSeries._zeros(s.policy), 1.0)
    est = s._bound * abs(c)
    vec = s._vec
    if est >= _INT64_SAFE or vec.dtype == object:
        vec = _to_object(vec)
    return TruncatedSeries(s.policy, vec * c)


def series_inverse(s: TruncatedSeries) -> TruncatedSeries:
    """Two-sided inverse; the constant term must be +1 or -1.

    Computed as the truncated geometric series on the augmentation part,
    which terminates because that part is nilpotent in the quotient.
    """
    c0 = s.constant()
    if c0 == -1:
        return -series_inverse(-s)
    if c0 != 1:
        raise MagnusError(f"series with constant term {c0} is not invertible here")
    policy = s.policy
    u = series_one(policy) - s  # zero constant term
    inv = series_one(policy)
    pw = series_one(policy)
    for _ in range(policy.max_total_degree):
        pw = series_mul(pw, u)
        if pw.is_zero:
            break
        inv = inv + pw
    return inv


def series_pow(s: TruncatedSeries, e: int) -> TruncatedSeries:
    """s**e for any integer e (negative exponents invert first)."""
    if e < 0:
        return series_pow(series_inverse(s), -e)
    out = series_one(s.policy)
    base = s
    while e:
        if e & 1:
            out = series_mul(out, base)
        e >>= 1
        if e:
            base = series_mul(base, base)
    return out


# -- expansion of words -------------------------------------------------------


def _mul_one_letter(space: _PolicySpace, vec: np.ndarray, bound: float, v: int):
    """vec * (1 + X_v)."""
    est = 2.0 * bound
    if est >= _INT64_SAFE and vec.dtype != object:
        vec = _to_object(vec)
    out = vec.copy()
    src, dst = space.app_src[v], space.app_dst[v]
    out[dst] += vec[src]
    return out, est


def _div_one_letter(space: _PolicySpace, vec: np.ndarray, bound: float, v: int):
    """vec * (1 + X_v)^{-1}, by degree-increasing back substitution."""
    est = bound * (space.max_degree + 1)
    if est >= _INT64_SAFE and vec.dtype != object:
        vec = _to_object(vec)
    out = vec.copy()
    for sel, par in space.div_rows(v):
        if len(sel):
            out[sel] -= out[par]
    return out, est


def _binomial_coeffs(mult: int, dmax: int) -> list[int]:
    """Coefficients of (1+X)^mult through degree dmax, exact integers."""
    if mult >= 0:
        return [math.comb(mult, d) for d in range(min(mult, dmax) + 1)]
    m = -mult
    return [(-1) ** d * math.comb(m + d - 1, d) for d in range(dmax + 1)]


def _mul_run(space: _PolicySpace, vec: np.ndarray, bound: float, v: int, mult: int):
    """vec * (1 + X_v)^mult for any integer mult."""
    if mult == 1:
        return _mul_one_letter(space, vec, bound, v)
    if mult == -1:
        return _div_one_letter(space, vec, bound, v)
    coeffs = _binomial_coeffs(mult, space.max_degree)
    est = bound * float(sum(abs(c) for c in coeffs))
    if est >= _INT64_SAFE and vec.dtype != object:
        vec = _to_object(vec)
    src_dst = (space.app_src[v], space.app_dst[v])
    out = vec * coeffs[0]
    term = vec
    for c in coeffs[1:]:
        shifted = np.zeros_like(term)
        shifted[src_dst[1]] = term[src_dst[0]]
        term = shifted
        if not (term != 0).any():
            break
        if c:
            out = out + term * c
    return out, est


def expand(w: Word, policy: TruncationPolicy) -> TruncatedSeries:
    """Magnus expansion of a word: a_i -> 1 + X_i, multiplicatively.

    Runs of equal letters are handled with binomial coefficients, so long
    power runs cost one pass each regardless of multiplicity.
    """
    if w.rank != policy.rank:
        raise MagnusError(f"word rank {w.rank} does not match policy rank {policy.rank}")
    space = _space(policy)
    vec = TruncatedSeries._zeros(policy)
    vec[0] = 1
    bound = 2.0
    for g, mult in w.runs:
        vec, bound = _mul_run(space, vec, bound, g, mult)
        # keep the running bound tight so long words stay on the fast path
        bound = min(bound, _fresh_bound(vec))
    return TruncatedSeries(policy, vec, bound)


def coefficient(s: TruncatedSeries, mono: Sequence[int]) -> int:
    """Stored coefficient of the monomial (0 when absent)."""
    return s.coefficient(tuple(mono))


def lcs_lower_bound(w: Word, q: int) -> int | None:
    """Smallest degree of a nonzero nonconstant term of expand(w) at total
    degree q, or None meaning every such term vanishes (read: "at least q+1").

    By Magnus faithfulness this equals the largest k <= q such that w lies in
    the k-th lower central subgroup, whenever it is finite.
    """
    s = expand(w, TruncationPolicy.total_degree(w.rank, q))
    for d in range(1, q + 1):
        if s.degree_block_nonzero(d):
            return d
    return None


def in_Jr(w: Word, caps: Sequence[int]) -> bool:
    """Magnus membership test for the cap vector r.

    True exactly when expand(w) reduces to 1 under the policy that drops any
    monomial in which X_j occurs at least caps[j-1] times.  With caps all
    k+1 this decides J^k; with k at slot i and k+1 elsewhere it decides the
    component refinement J_i^k.
    """
    policy = TruncationPolicy.with_caps(w.rank, caps)
    return expand(w, policy).is_one


# -- structure maps ------------------------------------------------------------


@lru_cache(maxsize=None)
def _retrunc_map(old: TruncationPolicy, new: TruncationPolicy) -> np.ndarray:
    old_space, new_space = _space(old), _space(new)
    out = np.empty(new_space.size, dtype=np.int64)
    for i, m in enumerate(new_space.monos):
        j = old_space.index.get(m)
        if j is None:
            raise MagnusError("target policy is not a coarsening of the source policy")
        out[i] = j
    return out


def retruncate(s: TruncatedSeries, new_policy: TruncationPolicy) -> TruncatedSeries:
    """Push a series into a coarser quotient (every monomial the new policy
    keeps must already live in the old one)."""
    if new_policy == s.policy:
        return s
    if new_policy.rank != s.policy.rank:
        raise MagnusError("rank mismatch in retruncate")
    mapping = _retrunc_map(s.policy, new_policy)
    return TruncatedSeries(new_policy, s._vec[mapping])


def substitute_conjugates(s: TruncatedSeries, conjugators: Sequence[TruncatedSeries]) -> TruncatedSeries:
    """Apply the ring endomorphism X_v -> c_v^{-1} X_v c_v to s.

    Each c_v must be a unit series under the same policy.  The substitution
    sends every monomial to a sum of monomials with at least the original
    variable multiplicities, so it descends to all cap quotients; dropped
    monomials stay dropped.
    """
    policy = s.policy
    if len(conjugators) != policy.rank:
        raise MagnusError("need one conjugator per variable")
    for c in conjugators:
        if c.policy != policy:
            raise MagnusError("conjugator policy mismatch")
    space = _space(policy)

    images = {}
    for v in range(1, policy.rank + 1):
        xv = series_from_terms(policy, {(v,): 1})
        images[v] = series_mul(series_mul(series_inverse(conjugators[v - 1]), xv), conjugators[v - 1])

    nonzero = [int(i) for i in np.flatnonzero(s._vec != 0)]
    needed: set[int] = set()
    for i in nonzero:
        j = i
        while j > 0 and j not in needed:
            needed.add(j)
            j = int(space.parent[j])
    mono_image: dict[int, TruncatedSeries] = {0: series_one(policy)}
    for i in sorted(needed):
        p = int(space.parent[i])
        v = int(space.last[i])
        mono_image[i] = series_mul(mono_image[p], images[v])

    out = _scale(series_one(policy), s.constant()) if s.constant() else TruncatedSeries(
        policy, TruncatedSeries._zeros(policy), 1.0
    )
    for i in nonzero:
        if i == 0:
            continue
        out = out + _scale(mono_image[i], int(s._vec[i]) if s._vec.dtype != object else s._vec[i])
    return out


# -- serialization ---------------------------------------------------------------


def format_monomial(mono: tuple[int, ...]) -> str:
    return ".".join(f"X{v}" for v in mono) if mono else "1"


def format_series(s: TruncatedSeries) -> str:
    """One line per nonzero term, `X1.X2 : -3`, in (degree, lex) order;
    the constant term prints as `1 : c`."""
    return "\n".join(f"{format_monomial(m)} : {c}" for m, c in s.items())
