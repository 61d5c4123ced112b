"""
Links as conjugating automorphisms
==================================

Up to level k, a string link acts on the reduced free group by
conjugating each generator. Stacking links composes the actions, and
every action inverts exactly. The action carries the same information
as the invariant table, packaged as a group element.
"""

from weldmag.gauss import parse, stack
from weldmag.invariants import action, action_compose, action_invert, identity_action
from weldmag.magnus import format_series

L = parse("1: U1+ / 2: O1+")
M = parse("1: U1- / 2: O1-")

phi = action(L, k=2)
print("action of L at k=2, rank", phi.rank)
for i, img in enumerate(phi.images, start=1):
    print(f"image of generator {i}:")
    print("  " + format_series(img).replace("\n", "\n  "))

# stacking diagrams composes the actions, in that order
lhs = action_compose(phi, action(M, 2))
rhs = action(stack(L, M), 2)
print("compose matches stacking:", lhs == rhs)

# here M is the reverse of L, so the composite is the identity
print("composite is the identity:", lhs == identity_action(2, 2))

# inversion produces a certified two-sided inverse
psi = action_invert(phi)
back = action_compose(phi, psi)
print("invert then compose is the identity:", back == identity_action(2, 2))
