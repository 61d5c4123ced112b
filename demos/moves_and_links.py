"""
Diagram moves, closures, and vanishing for links
================================================

Gauss codes admit local moves (kink insertion and deletion, cancelling
pairs, over-strand swaps) that do not change the underlying object, and
the computed invariants do not move either. Closing a string link gives
a link; its invariants are read through a choice of basepoints, and the
vanishing question does not depend on that choice.
"""

import random

from weldmag.gauss import (
    MOVE_KINDS,
    applicable_sites,
    apply_move,
    closure,
    longitude_series,
    parse,
    serialize,
)
from weldmag.invariants import link_vanishing, milnor_table
from weldmag.magnus import TruncationPolicy

code = parse("1: U1+ U2- / 2: O1+ O2-")
print("start:", serialize(code).replace("\n", " / "))

# what can be done to this diagram
for kind in MOVE_KINDS:
    print(f"{kind}: {len(applicable_sites(code, kind))} sites")

# shuffle the diagram through a few random moves and watch the table
rng = random.Random(7)
moved = code
for _ in range(4):
    kind = rng.choice(MOVE_KINDS)
    sites = applicable_sites(moved, kind)
    if sites:
        moved = apply_move(moved, kind, rng.choice(sites))
        print("after", kind, "->", serialize(moved).replace("\n", " / "))

pol = TruncationPolicy.total_degree(code.n, 3)
same = longitude_series(moved, pol) == longitude_series(code, pol)
print("longitudes unchanged:", same)

# close the strands into a link; the clasp has linking number 2 with
# itself reversed, so nothing vanishes even at the coarsest level
clasp = parse("1: U1+ U2+ / 2: O1+ O2+", closed=True)
print("clasp vanishing at k=1:", link_vanishing(clasp, 1))

# an unlink vanishes at every level
unlink = parse("1: / 2:", closed=True)
print("unlink vanishing at k=3:", link_vanishing(unlink, 3))

# basepoints rotate where each component is cut open; the verdict is
# stable even though individual invariants may not be
hopf = parse("1: U1+ O2+ / 2: O1+ U2+", closed=True)
for bp in ([0, 0], [1, 0], [0, 1], [1, 1]):
    print(f"hopf-like, basepoints {bp}:", link_vanishing(hopf, 1, bp))

# the table of the cut-open clasp, for the curious
from weldmag.gauss import cut

print("clasp table at k=2:")
for line in milnor_table(cut(clasp), 2).format_lines():
    print(" ", line)
