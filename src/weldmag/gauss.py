"""Gauss codes of welded (string) link diagrams and everything diagrammatic.

A diagram is stored purely combinatorially: each component is a sequence of
crossing passages (crossing id, Over/Under role, sign), read from the bottom
endpoint to the top endpoint for string links and cyclically for closed
links.  Virtual crossings are never represented; a Gauss code already
determines the welded object, and every quantity computed here is a welded
invariant, so virtual-crossing bookkeeping would be pure noise.

Text grammar (whitespace between tokens is free):

    file    := line+
    line    := INT ":" passage*
    passage := ("O" | "U") INT ("+" | "-")

Components are numbered 1..n, one line each; ``/`` may replace a newline in
inline arguments.  Example: ``1: U1+ / 2: O1+`` is a 2-component string link
with a single positive crossing in which component 2 passes over component 1.

From a code the module derives:

* the Wirtinger relations, one tuple per component: arcs are maximal runs
  between Under passages, and relation j of component i, its j-th Under
  passage under over-arc g with sign e, is a_{i,j+1} = (g^e)^{-1} a_{i,j} g^e;
* the self-writhe f_i of component i, read off the relations: the sum of
  the signs of component i's relations whose over-arc lies on component i;
* the preferred longitudes: component i's longitude is the last of the
  prefix products P_j = meridian^{-f_i} b_{i,1} ... b_{i,j} of the
  conjugating factors met along it, in the truncated series ring.  Every
  generator power is a letter shift: the writhe correction and its
  inverse, the starting value of each iterated arc, and each factor over
  a meridian.  Only over-arcs that are not meridians are iterated, each as
  the conjugate P_j^{-1} a_i P_j, by a fixed-point loop that gains one
  degree per sweep and certifies its own stabilization;
* the diagram moves R1, R2 and OC used by the invariance test suite, each
  applied exactly at the sites :func:`applicable_sites` lists, the stacking
  product, and cutting closed links open at chosen basepoints.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from .magnus import TruncationPolicy, TruncatedSeries, mul_letter, series_mul, series_one
from .words import integers

__all__ = [
    "GaussCodeError",
    "StabilizationError",
    "Passage",
    "StringLinkCode",
    "LinkCode",
    "WirtingerRelation",
    "numbered_lines",
    "parse",
    "serialize",
    "wirtinger",
    "longitude_series",
    "MOVE_KINDS",
    "applicable_sites",
    "apply_move",
    "stack",
    "closure",
    "cut",
]


class GaussCodeError(ValueError):
    """Malformed Gauss-code text or an invalid diagram."""


class StabilizationError(RuntimeError):
    """The longitude iteration failed its stabilization certificate.

    This signals an implementation bug, not bad input; valid codes always
    stabilize within the truncation degree.
    """


@dataclass(frozen=True)
class Passage:
    """One strand passage through a classical crossing."""

    cid: int
    role: str  # "O" or "U"
    sign: int  # +1 or -1

    def token(self) -> str:
        return f"{self.role}{self.cid}{'+' if self.sign > 0 else '-'}"


@dataclass(frozen=True)
class _Code:
    """The body of both code classes: each crossing has one Over and one
    Under passage of one sign."""

    components: tuple[tuple[Passage, ...], ...]

    def __post_init__(self) -> None:
        seen: dict[int, list[Passage]] = {}
        for comp in self.components:
            for p in comp:
                if p.role not in ("O", "U"):
                    raise GaussCodeError(f"bad role {p.role!r} on crossing {p.cid}")
                if p.sign not in (1, -1):
                    raise GaussCodeError(f"bad sign {p.sign!r} on crossing {p.cid}")
                seen.setdefault(p.cid, []).append(p)
        for cid, ps in seen.items():
            if len(ps) != 2:
                raise GaussCodeError(f"crossing {cid} appears {len(ps)} times, expected 2")
            if sorted(p.role for p in ps) != ["O", "U"]:
                raise GaussCodeError(f"crossing {cid} needs one Over and one Under passage")
            if ps[0].sign != ps[1].sign:
                raise GaussCodeError(f"crossing {cid} has mismatched signs")

    @property
    def n(self) -> int:
        return len(self.components)


class StringLinkCode(_Code):
    """Gauss code of a welded string link; components read bottom to top."""


class LinkCode(_Code):
    """Gauss code of a closed welded link; component sequences are cyclic."""


_LINE = re.compile(r"^\s*([0-9]+)\s*:(.*)$")
_PASSAGE = re.compile(r"\s*([OU])\s*([0-9]+)\s*([+-])")


def numbered_lines(
    text: str, error: type[ValueError], kind: str, read: Callable[[str], Any]
) -> list:
    """``read`` of the body of each ``i: ...`` line of ``text``, in component
    order 1..n, or [] for blank text; ``/`` may replace a newline.

    A line that is not ``i: ...`` raises ``error`` naming a bad ``kind``
    line, and so do a component listed twice and numbers other than 1..n.
    Each body is read as its line is met, so a fault inside a body is
    reported before the numbering of the lines after it is checked.
    """
    rows: dict[int, Any] = {}
    for chunk in (c for part in text.splitlines() for c in part.split("/")):
        if not chunk.strip():
            continue
        m = _LINE.match(chunk)
        if not m:
            raise error(f"bad {kind} line {chunk.strip()!r}")
        comp_no = int(m.group(1))
        if comp_no in rows:
            raise error(f"component {comp_no} listed twice")
        rows[comp_no] = read(m.group(2))
    n = len(rows)
    if sorted(rows) != list(range(1, n + 1)):
        raise error(f"component numbers {sorted(rows)} are not 1..{n}")
    return [rows[i] for i in range(1, n + 1)]


def _passages(rest: str) -> tuple[Passage, ...]:
    passages = []
    pos = 0
    while pos < len(rest):
        pm = _PASSAGE.match(rest, pos)
        if pm is None:
            if rest[pos:].strip():
                raise GaussCodeError(f"bad passage token {rest[pos:].strip().split()[0]!r}")
            break
        passages.append(Passage(int(pm.group(2)), pm.group(1), 1 if pm.group(3) == "+" else -1))
        pos = pm.end()
    return tuple(passages)


def parse(text: str, closed: bool = False) -> StringLinkCode | LinkCode:
    """Parse the grammar above; ``closed`` selects :class:`LinkCode`."""
    components = tuple(numbered_lines(text, GaussCodeError, "component", _passages))
    if not components:
        raise GaussCodeError("empty Gauss code")
    return LinkCode(components) if closed else StringLinkCode(components)


def serialize(code: StringLinkCode | LinkCode) -> str:
    """Canonical text form; parse(serialize(c)) reproduces c."""
    lines = []
    for i, comp in enumerate(code.components, start=1):
        lines.append(f"{i}: " + " ".join(p.token() for p in comp) if comp else f"{i}:")
    return "\n".join(lines)


# -- Wirtinger presentation ------------------------------------------------------


@dataclass(frozen=True)
class WirtingerRelation:
    """One Under passage: the arc after it is the arc before it conjugated
    by g^sign, for the arc generator ``over`` = (component, arc index)."""

    over: tuple[int, int]
    sign: int


def wirtinger(code: StringLinkCode | LinkCode) -> tuple[tuple[WirtingerRelation, ...], ...]:
    """The Wirtinger relations, one tuple per component: relation j of
    component i is its j-th Under passage and gives arc a_{i,j+1}, so the
    component has len(relations) + 1 arcs, the first its meridian.  An Over
    passage lies on the arc numbered one more than the Under passages before
    it.  A closed code is read as if cut open before each first passage."""
    over_arc: dict[int, tuple[int, int]] = {}
    for i, comp in enumerate(code.components, start=1):
        arc = 1
        for p in comp:
            if p.role == "O":
                over_arc[p.cid] = (i, arc)
            else:
                arc += 1
    return tuple(
        tuple(WirtingerRelation(over_arc[p.cid], p.sign) for p in comp if p.role == "U")
        for comp in code.components
    )


# -- preferred longitudes ----------------------------------------------------------


def longitude_series(code: StringLinkCode, policy: TruncationPolicy) -> tuple[TruncatedSeries, ...]:
    """Magnus expansions of the preferred longitudes, one series per component.

    Component i's relation factors b_1^e_1, ..., b_R^e_R (over-arc series to
    the crossing sign) give the prefixes P_j = W_i b_1^e_1 ... b_j^e_j, with
    W_i = (1+X_i)^(-f_i) for the self-writhe f_i, the sign sum of the
    factors whose over-arc lies on component i; the longitude is P_R, and arc
    (i, j+1) is P_j^-1 (1+X_i) P_j, as W_i commutes with 1+X_i.  A factor
    whose over-arc is a meridian is (1+X_v)^(+-1) exactly and costs a
    letter shift; only the iterated arcs, the over-arcs that are not
    meridians, cost products.  Each is formed in the powers its factors use
    as P_j^-1 ((1+X_i)^(+-1) P_j), one product, and P_j^-1 is kept only up
    to the component's last iterated arc.  A sorted code has no iterated
    arc: its pass is shifts only, one sweep, no product and no inverse.

    The iterated arcs are found by a Jacobi fixed-point iteration from
    their meridians: sweep t reads the values of sweep t-1, so it is exact
    in all degrees <= t, which the loop asserts on every iterated arc, and
    the loop ends on a witnessed fixed point, a sweep that changes no
    iterated arc.  A sweep recomputes a component from its first relation
    whose over-arc moved in the previous sweep, starting from the prefixes
    kept before that relation; the factors before it read the same arcs as
    when those prefixes were formed.  The first sweep counts every over-arc
    as moved and starts each component from its seeded prefixes W_i and
    W_i^-1, kept before relation 0; the seeds and the iterated arcs'
    starting meridians are letter shifts of 1.
    """
    if isinstance(code, LinkCode):
        raise GaussCodeError("longitudes need a string link; cut the closed link open first")
    n = code.n
    if policy.rank != n:
        raise GaussCodeError(f"policy rank {policy.rank} does not match {n} components")

    qeff = policy.max_total_degree
    one = series_one(policy)
    comps = wirtinger(code)
    iterated = {rel.over for rels in comps for rel in rels if rel.over[1] > 1}
    # P_j^-1 is needed for j below the index of component i's last iterated arc
    last = [max([j - 1 for c, j in iterated if c == i], default=0) for i in range(1, n + 1)]
    powers: dict = {key: set() for key in iterated}
    for rels, last_i in zip(comps, last):
        for j, rel in enumerate(rels, start=1):
            if rel.over in iterated:
                powers[rel.over].add(rel.sign)
                if j <= last_i:
                    powers[rel.over].add(-rel.sign)
    # arcs[(key, e)] is the arc's series to the power e = +-1, from its meridian
    arcs = {(key, e): mul_letter(one, key[0], e) for key, es in powers.items() for e in es}
    kept = {}  # (i, r) -> (P, P^-1) before relation r of component i
    for i, rels in enumerate(comps, start=1):
        f = sum(rel.sign for rel in rels if rel.over[0] == i)  # the self-writhe
        kept[(i, 0)] = mul_letter(one, i, -f), (mul_letter(one, i, f) if last[i - 1] else None)
    out = [kept[(i, 0)][0] for i in range(1, n + 1)]
    moved = {rel.over for rels in comps for rel in rels}  # sweep 1 reads every over-arc afresh
    for t in range(1, qeff + 2):
        new, moved_now = dict(arcs), set()
        for i, rels in enumerate(comps, start=1):
            start = next((r for r, rel in enumerate(rels) if rel.over in moved), None)
            if start is None:
                continue  # every factor reads the arcs it read before
            P, P_inv = kept[(i, start)]
            for r in range(start, len(rels)):
                over, e, inverse_too = rels[r].over, rels[r].sign, r < last[i - 1]
                if over in iterated:
                    kept[(i, r)] = P, P_inv
                    P = series_mul(P, arcs[(over, e)])
                    if inverse_too:
                        P_inv = series_mul(arcs[(over, -e)], P_inv)
                else:
                    P = mul_letter(P, over[0], e)
                    if inverse_too:
                        P_inv = mul_letter(P_inv, over[0], -e, left=True)
                key = (i, r + 2)
                for e in powers.get(key, ()):
                    value, old = series_mul(P_inv, mul_letter(P, i, e, left=True)), arcs[(key, e)]
                    if value != old:
                        if not value.agrees_through_degree(old, min(t - 1, qeff)):
                            raise StabilizationError(
                                f"arc {key} changed in a degree below iteration {t}"
                            )
                        moved_now.add(key)
                    new[(key, e)] = value
            out[i - 1] = P
        if not moved_now:
            return tuple(out)
        arcs, moved = new, moved_now
    raise StabilizationError(f"no fixed point within {qeff + 1} iterations")


# -- moves -------------------------------------------------------------------------


MOVE_KINDS = ("R1insert", "R1delete", "R2insert", "R2delete", "OCswap")


def applicable_sites(code: StringLinkCode, kind: str) -> list[tuple]:
    """Every site at which ``kind`` applies, in a fixed deterministic order.

    This list is the one rule for where a move applies: :func:`apply_move`
    takes exactly these sites.  Positions are 0-based; a gap ``pos`` of
    component i lies before its passage ``pos`` (``len`` is the top end),
    and a pair ``pos`` is its passages ``pos`` and ``pos + 1``.

    * R1insert (i, pos, sign, order): a kink at any gap, with its passages
      in ``order`` "OU" or "UO";
    * R1delete (i, pos): a pair that is the two passages of one crossing;
    * R2insert (a, pos_a, b, pos_b, sign, swap_u): two Over passages of
      opposite signs at gap pos_a of component a and their Under passages
      at a different gap pos_b of component b, in reverse order if
      ``swap_u``;
    * R2delete (a, pos_a, b, pos_b): an Over pair of opposite signs and,
      on a pair that does not overlap it, the Under passages of the same
      two crossings;
    * OCswap (i, pos): a pair of two Over passages.
    """
    comps = code.components
    gaps = [(i, pos) for i, comp in enumerate(comps, start=1) for pos in range(len(comp) + 1)]
    pairs = [
        (i, pos, comp[pos], comp[pos + 1])
        for i, comp in enumerate(comps, start=1)
        for pos in range(len(comp) - 1)
    ]
    if kind == "R1insert":
        return [
            (i, pos, sign, order) for i, pos in gaps for sign in (1, -1) for order in ("OU", "UO")
        ]
    if kind == "R1delete":
        return [(i, pos) for i, pos, p, q in pairs if p.cid == q.cid]
    if kind == "R2insert":
        return [
            (a, pos_a, b, pos_b, sign, swap_u)
            for a, pos_a in gaps
            for b, pos_b in gaps
            if (a, pos_a) != (b, pos_b)
            for sign in (1, -1)
            for swap_u in (False, True)
        ]
    if kind == "R2delete":
        # two Over passages of opposite signs belong to two distinct crossings
        return [
            (a, pos_a, b, pos_b)
            for a, pos_a, p1, p2 in pairs
            if p1.role == p2.role == "O" and p1.sign == -p2.sign
            for b, pos_b, q1, q2 in pairs
            if (a != b or abs(pos_a - pos_b) >= 2)
            and q1.role == q2.role == "U"
            and {q1.cid, q2.cid} == {p1.cid, p2.cid}
        ]
    if kind == "OCswap":
        return [(i, pos) for i, pos, p, q in pairs if p.role == q.role == "O"]
    raise GaussCodeError(f"unknown move kind {kind!r}")


def apply_move(code: StringLinkCode, kind: str, site: tuple) -> StringLinkCode:
    """Apply one R1/R2/OC move at a site that :func:`applicable_sites` lists.

    Any other site raises :class:`GaussCodeError`.  New crossings take the
    numbers after the largest one in use.
    """
    if site not in applicable_sites(code, kind):
        raise GaussCodeError(f"{kind} does not apply at site {site!r}")
    comps = [list(comp) for comp in code.components]
    top = max((p.cid for comp in comps for p in comp), default=0)
    c, d = top + 1, top + 2
    # each edit replaces ``drop`` passages of component i from ``pos`` on
    if kind == "R1insert":
        i, pos, sign, order = site
        edits = [(i, pos, 0, [Passage(c, order[0], sign), Passage(c, order[1], sign)])]
    elif kind == "R1delete":
        i, pos = site
        edits = [(i, pos, 2, [])]
    elif kind == "R2insert":
        a, pos_a, b, pos_b, sign, swap_u = site
        overs = [Passage(c, "O", sign), Passage(d, "O", -sign)]
        unders = [Passage(c, "U", sign), Passage(d, "U", -sign)]
        edits = [(a, pos_a, 0, overs), (b, pos_b, 0, unders[::-1] if swap_u else unders)]
    elif kind == "R2delete":
        a, pos_a, b, pos_b = site
        edits = [(a, pos_a, 2, []), (b, pos_b, 2, [])]
    else:  # OCswap
        i, pos = site
        edits = [(i, pos, 2, comps[i - 1][pos : pos + 2][::-1])]
    # the later position first, so that an earlier one on the same
    # component still points at the passages the site names
    for i, pos, drop, passages in sorted(edits, key=lambda e: e[1], reverse=True):
        comps[i - 1][pos : pos + drop] = passages
    return type(code)(tuple(tuple(comp) for comp in comps))


# -- stacking and closing ------------------------------------------------------------


def stack(first: StringLinkCode, second: StringLinkCode) -> StringLinkCode:
    """Stacking product: ``first`` at the bottom, ``second`` on top."""
    if first.n != second.n:
        raise GaussCodeError(f"component counts differ: {first.n} vs {second.n}")
    shift = max([p.cid for comp in first.components for p in comp], default=0)
    renamed = tuple(
        tuple(Passage(p.cid + shift, p.role, p.sign) for p in comp)
        for comp in second.components
    )
    return StringLinkCode(tuple(a + b for a, b in zip(first.components, renamed)))


def closure(code: StringLinkCode) -> LinkCode:
    """Close a string link by joining each component's endpoints."""
    return LinkCode(code.components)


def cut(link: LinkCode, basepoints: Sequence[int] | None = None) -> StringLinkCode:
    """Cut a closed link open at one basepoint arc per component.

    ``basepoints[i-1]`` is a rotation offset: component i is read linearly
    starting at that passage index.  Offsets default to 0 and must satisfy
    0 <= b < max(1, length).
    """
    basepoints = integers((0,) * link.n if basepoints is None else basepoints,
                          "basepoints", GaussCodeError)
    if len(basepoints) != link.n:
        raise GaussCodeError("need one basepoint per component")
    comps = []
    for comp, b in zip(link.components, basepoints):
        limit = max(1, len(comp))
        if not 0 <= b < limit:
            raise GaussCodeError(f"basepoint {b} out of range for component of length {len(comp)}")
        comps.append(comp[b:] + comp[:b])
    return StringLinkCode(tuple(comps))
