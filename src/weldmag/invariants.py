"""Milnor invariants, filtered tables, equivalence predicates, and actions.

mu(L, I) for I = (j_1, ..., j_l, i) is the integer coefficient of the
monomial X_{j_1}...X_{j_l} in the Magnus expansion of the i-th preferred
longitude; mu of a length-1 index is 0 by convention.  r(I) denotes the
largest multiplicity of any component index inside I.

Three predicates decide the same equivalence of two string links at level k
by independent computations:

* table: the filtered tables {mu(I) : r(I) <= k} agree;
* longitude: for each component the longitude series agree after capping
  occurrences of X_i at k - 1 and of every other variable at k;
* action: the induced conjugating substitutions agree on every generator in
  the quotient capping all occurrences at k.

compare decides by one route and, for a distinct pair, reports the first
index where the tables differ, with one longitude pass per link in every
mode.  The table and longitude routes run the milnor_table pass, every
variable capped at k + 1 occurrences and the degree at n*k - 1; the
longitude route retruncates longitude i to component i's caps above, which
is exact because they coarsen that quotient.  The action route runs one
pass in the all-caps-k quotient, uniform_caps(n, k), whose longitudes are
the action's conjugators.  Each route reads its witness table off the
longitudes of its own pass.

The action of a string link is stored as a KReducedAction holding only one
conjugator series per component, since the action sends each meridian to a
conjugate of itself; their policy, the all-caps-k quotient uniform_caps(n,
k), fixes n and k.  Each conjugator's residue, the longitude route's
retruncation, is the equality test; the generator images are derived on
first read, the image of a_i = 1 + X_i being 1 plus the variable image
c_i^{-1} X_i c_i that magnus.Substitution forms.  Equal residues give equal
images.  Actions compose like stacked string links and invert by a
successive-approximation solve, certified by the residues of the
compositions with phi on both sides.  Both build phi's substitution once
per call: composition applies it to each of psi's conjugators, inversion to
every round for every conjugator and then to the composition phi then psi.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

from .gauss import LinkCode, StringLinkCode, cut, longitude_series
from .magnus import (
    Substitution,
    TruncatedSeries,
    TruncationPolicy,
    retruncate,
    series_mul,
    series_one,
)
from .words import integer, integers

__all__ = [
    "InvariantError",
    "InversionError",
    "r_index",
    "milnor",
    "InvariantTable",
    "milnor_table",
    "compare",
    "KReducedAction",
    "identity_action",
    "action",
    "action_compose",
    "action_invert",
    "link_vanishing",
]


class InvariantError(ValueError):
    """Bad index, rank mismatch, or incompatible action parameters."""


class InversionError(RuntimeError):
    """Action inversion failed its runtime certificate (indicates a bug)."""


def r_index(I: Sequence[int]) -> int:
    """Largest multiplicity of any component index in I."""
    I = integers(I, "index", InvariantError)
    if not I:
        raise InvariantError("empty index sequence")
    return max(I.count(j) for j in set(I))


def _at_least(value: int, what: str, low: int) -> int:
    """value as an int, at least low."""
    value = integer(value, what, InvariantError)
    if value < low:
        raise InvariantError(f"{what} must be >= {low}, got {value}")
    return value


def _check_index(I: Sequence[int], n: int) -> tuple[int, ...]:
    I = integers(I, "index", InvariantError)
    if not I:
        raise InvariantError("empty index sequence")
    for j in I:
        if not 1 <= j <= n:
            raise InvariantError(f"index {j} out of range 1..{n}")
    return I


def milnor(L: StringLinkCode, I: Sequence[int]) -> int:
    """The invariant mu(I): coefficient of X_{j_1}...X_{j_l} in the series
    of the i-th longitude, where I = (j_1, ..., j_l, i).

    The longitudes are expanded in the sublink quotient of I: each variable
    X_j occurring m_j > 0 times in (j_1, ..., j_l) is capped at m_j + 1
    occurrences, every other variable at 1 (it is set to zero), and the
    degree at l.  The monomial X_{j_1}...X_{j_l} survives, and the set of
    surviving monomials is closed under prefixes and suffixes, so the
    quotient is a ring quotient and the coefficient is the one of the full
    expansion.  The cost follows l and the multiplicities in I, not n.
    """
    I = _check_index(I, L.n)
    if len(I) == 1:
        return 0
    head = I[:-1]
    caps = [head.count(j) + 1 for j in range(1, L.n + 1)]
    lam = longitude_series(L, policy=TruncationPolicy.with_caps(L.n, caps))
    return lam[I[-1] - 1].coefficient(head)


@dataclass
class InvariantTable:
    """All nonzero mu(I) with r(I) <= k and 2 <= |I| <= max_len."""

    k: int
    max_len: int
    entries: dict[tuple[int, ...], int] = field(default_factory=dict)

    def items_sorted(self) -> list[tuple[tuple[int, ...], int]]:
        return sorted(self.entries.items(), key=lambda kv: (len(kv[0]), kv[0]))

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def format_lines(self) -> list[str]:
        return [f"mu({','.join(map(str, I))}) = {v}" for I, v in self.items_sorted()]

    def first_difference(
        self, other: "InvariantTable"
    ) -> tuple[tuple[int, ...], int, int] | None:
        """The first index I (by length, then lexicographically) where the
        tables differ, with mu(I) here and in ``other``; None when they agree."""
        keys = set(self.entries) | set(other.entries)
        for I in sorted(keys, key=lambda t: (len(t), t)):
            mine, theirs = self.entries.get(I, 0), other.entries.get(I, 0)
            if mine != theirs:
                return I, mine, theirs
        return None


def milnor_table(L: StringLinkCode, k: int, max_len: int | None = None) -> InvariantTable:
    """Every mu(I) with r(I) <= k and |I| <= cap = min(max_len, n*k), from
    one longitude pass; a max_len below 2 is refused.

    The pass runs in the quotient that caps every variable at k + 1
    occurrences and the degree at cap - 1.  An entry I = (J, i) reads the
    coefficient of the monomial J, which has every variable at most k times
    and length at most cap - 1, so it survives; the surviving set is closed
    under prefixes and suffixes, so the quotient is a ring quotient and the
    longitude series in it is the projection of the full one.  The entries
    are then the nonzero monomials J of longitude i with fewer than k
    occurrences of X_i.  Cost follows that policy's monomial count (4,845
    at n=4, k=2), not the n^(n*k) index tuples of length up to n*k.
    """
    k, n = _at_least(k, "k", 1), L.n
    cap = n * k if max_len is None else min(_at_least(max_len, "max_len", 2), n * k)
    if cap < 2:
        return InvariantTable(k=k, max_len=cap)
    return _read_table(longitude_series(L, policy=_table_policy(n, k, cap)), k, cap)


def _table_policy(n: int, k: int, cap: int) -> TruncationPolicy:
    """Every variable capped at k + 1 occurrences and the degree at cap - 1."""
    return TruncationPolicy.with_caps(n, (k + 1,) * n, cap - 1)


def _read_table(longitudes: Sequence[TruncatedSeries], k: int, cap: int) -> InvariantTable:
    """The entries (J, i) with X_i fewer than k times in J, read off the
    nonzero monomials J of longitude i.  The longitudes live in a quotient
    that caps every variable at k + 1 occurrences and the degree at
    cap - 1, or at any higher degree when cap = n*k: a J read has degree at
    most n*k - 1 anyway."""
    table = InvariantTable(k=k, max_len=cap)
    for i, lam in enumerate(longitudes, start=1):
        for mono, v in lam.items():
            if mono and mono.count(i) < k:
                table.entries[mono + (i,)] = v
    return table


# -- the three equivalent predicates -----------------------------------------------


def compare(
    L: StringLinkCode, M: StringLinkCode, k: int, mode: str = "table"
) -> tuple[bool, tuple[tuple[int, ...], int, int] | None]:
    """The level-k verdict reached by one route ('table', 'longitude' or
    'action'), and for a distinct pair the first table difference as in
    InvariantTable.first_difference; both come from one longitude pass per
    link.

    The table route reads its verdict off the difference of the two
    milnor_table tables.  The longitude route takes the longitudes of the
    same pass, every variable capped at k + 1 and the degree at n*k - 1,
    and compares the residues, longitude i retruncated to
    component_caps(n, k, i): that policy is a coarsening of the pass's, so
    a residue is what a pass under it would give.  The action route takes
    each link's action, whose conjugators are its longitudes from one pass
    in the all-caps-k quotient uniform_caps(n, k), and compares the
    generator images.  Both read their witness tables off the longitudes of
    their pass: a monomial of the top degree n*k has every variable k times
    and is never read, so the tables are those of milnor_table.
    """
    if L.n != M.n:
        raise InvariantError(f"component counts differ: {L.n} vs {M.n}")
    n, k = L.n, _at_least(k, "k", 1)
    if mode == "table":
        diff = milnor_table(L, k).first_difference(milnor_table(M, k))
        return diff is None, diff
    if mode == "longitude":
        lams = [longitude_series(X, policy=_table_policy(n, k, n * k)) for X in (L, M)]
        equal = _residues(lams[0], k) == _residues(lams[1], k)
    elif mode == "action":
        phi, psi = action(L, k), action(M, k)
        equal = phi.images == psi.images
        lams = [phi.conjugators, psi.conjugators]
    else:
        raise InvariantError(f"unknown mode {mode!r}")
    if equal:
        return True, None
    mine, theirs = (_read_table(x, k, n * k) for x in lams)
    return False, mine.first_difference(theirs)


def _residues(series: Sequence[TruncatedSeries], k: int) -> tuple[TruncatedSeries, ...]:
    """Series i retruncated to component_caps(n, k, i): longitude i's class,
    or conjugator i's residue."""
    caps = TruncationPolicy.component_caps
    return tuple(retruncate(s, caps(len(series), k, i)) for i, s in enumerate(series, start=1))


# -- k-reduced free actions --------------------------------------------------------


@dataclass(frozen=True, eq=False)
class KReducedAction:
    """Conjugating substitution alpha_i -> conjugate by c_i, truncated with
    every variable capped at k occurrences.

    Only the conjugators are stored: the series of the c_i in the all-caps
    policy uniform_caps(n, k), which also fixes the rank n and the level k.
    Two values follow from them and are derived on first read: residues,
    their canonical forms with X_i additionally capped at k - 1 occurrences
    (the congruence test), and images, the series of the conjugated
    generators.

    Equal residues give equal images.  Residue i drops exactly the monomials
    in which X_i occurs k times, so conjugators with equal residues are d and
    d(1 + f), every monomial of f holding X_i k times.  Every term of
    d^-1 X_i d holds X_i, so its products with f on either side hold X_i
    k + 1 times and vanish: 1 + f commutes with d^-1 X_i d, and both
    conjugators give a_i the same image.
    """

    conjugators: tuple[TruncatedSeries, ...]

    def __post_init__(self) -> None:
        pols = {c.policy for c in self.conjugators}
        pol = next(iter(pols)) if len(pols) == 1 else None
        k = pol.caps[0] - 1 if pol is not None else 0
        if k < 1 or pol != TruncationPolicy.uniform_caps(len(self.conjugators), k):
            raise InvariantError(
                "an action needs one conjugator per variable under one uniform_caps(n, k) "
                f"policy with k >= 1, got {len(self.conjugators)} under {sorted(map(repr, pols))}"
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KReducedAction):
            return NotImplemented
        # residues carry their component_caps policy, so n and k agree too
        return self.residues == other.residues

    @property
    def policy(self) -> TruncationPolicy:
        return self.conjugators[0].policy

    @property
    def rank(self) -> int:
        return self.policy.rank

    @property
    def k(self) -> int:
        return self.policy.caps[0] - 1

    @cached_property
    def residues(self) -> tuple[TruncatedSeries, ...]:
        return _residues(self.conjugators, self.k)

    @cached_property
    def images(self) -> tuple[TruncatedSeries, ...]:
        # a_i = 1 + X_i goes to 1 + c_i^(-1) X_i c_i, the variable image
        one = series_one(self.policy)
        return tuple(one + x for x in Substitution(self.conjugators).variable_images)


def identity_action(n: int, k: int) -> KReducedAction:
    n = integer(n, "rank", InvariantError)
    return KReducedAction((series_one(TruncationPolicy.uniform_caps(n, _at_least(k, "k", 1))),) * n)


def action(L: StringLinkCode, k: int) -> KReducedAction:
    """The level-k action of a string link: conjugator i is its i-th
    longitude series in the all-caps quotient."""
    policy = TruncationPolicy.uniform_caps(L.n, _at_least(k, "k", 1))
    return KReducedAction(longitude_series(L, policy=policy))


def action_compose(phi: KReducedAction, psi: KReducedAction) -> KReducedAction:
    """The action of the stacking: phi's link at the bottom, psi's on top.

    Composite conjugator i is c_i(phi) * phi(c_i(psi)), matching how a
    longitude of the stacked link traverses the bottom part first and then
    the top part rewritten through the bottom.
    """
    if phi.policy != psi.policy:
        raise InvariantError(
            f"action parameters differ: (k={phi.k}, n={phi.rank}) vs (k={psi.k}, n={psi.rank})"
        )
    return _compose(phi, psi, Substitution(phi.conjugators))


def _compose(phi: KReducedAction, psi: KReducedAction, sub: Substitution) -> KReducedAction:
    """action_compose with phi's substitution already built."""
    return KReducedAction(tuple(
        series_mul(c_phi, sub(c_psi)) for c_phi, c_psi in zip(phi.conjugators, psi.conjugators)
    ))


def action_invert(phi: KReducedAction) -> KReducedAction:
    """The inverse action, found by solving phi(m_i) = c_i(phi)^(-1) with a
    degree-raising fixed-point iteration, then certified by composing back
    to the identity on both sides.  One substitution of phi serves every
    round for every conjugator and the composition phi then psi.

    The certificate compares residues only: equal residues give equal
    images (see KReducedAction), so a composite with the identity's
    residues has the identity's images, and they are not formed.
    """
    sub = Substitution(phi.conjugators)
    conj = []
    for target in sub.inverses:
        m = target
        for _ in range(phi.policy.max_total_degree + 1):
            # m <- target - (phi(m) - m); the correction degree rises each round
            new = target - (sub(m) - m)
            if new == m:
                break
            m = new
        else:
            raise InversionError("fixed point not reached within the degree bound")
        conj.append(m)
    psi = KReducedAction(tuple(conj))
    ident = identity_action(phi.rank, phi.k)
    for composite in (_compose(phi, psi, sub), action_compose(psi, phi)):
        if composite != ident:
            raise InversionError("composing with the computed inverse is not the identity")
    return psi


# -- closed links ------------------------------------------------------------------


def link_vanishing(
    link: LinkCode, k: int, basepoints: Sequence[int] | None = None
) -> bool:
    """Whether every mu(I) with r(I) <= k of the cut-open link vanishes.

    The answer does not depend on the chosen basepoints; the test suite
    checks that rather than this function assuming it silently.
    """
    return milnor_table(cut(link, basepoints), k).is_zero
