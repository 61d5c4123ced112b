"""
From a Gauss code to a Milnor invariant table
=============================================

A string link is entered as one line per strand listing Over/Under
passages with signs. Longitudes are read off the Wirtinger presentation
and expanded; Milnor numbers are coefficients of those expansions.
"""

from weldmag.gauss import longitude_series, parse, serialize, wirtinger
from weldmag.invariants import milnor, milnor_table
from weldmag.magnus import TruncationPolicy, format_series

# two strands, one positive crossing: strand 1 goes under strand 2
code = parse("1: U1+ / 2: O1+")
print("code:")
print(serialize(code))

# the Wirtinger relations of each strand, one per Under passage; a strand
# has one arc more than it has relations
comps = wirtinger(code)
print("arcs per strand:", tuple(len(rels) + 1 for rels in comps))
for i, rels in enumerate(comps, start=1):
    for rel in rels:
        print(f"  strand {i} relation:", rel)

# longitudes as truncated series (degree 2 is plenty here)
lams = longitude_series(code, TruncationPolicy.total_degree(code.n, 2))
print("longitude of strand 1:")
print(format_series(lams[0]))

# mu(2 1) reads the X2 coefficient of strand 1's longitude: the linking number
print("mu(2,1) =", milnor(code, (2, 1)))
print("mu(1,2) =", milnor(code, (1, 2)))

# a 3-strand example realizing a commutator of meridians: the triple
# linking numbers show up with opposite signs and the pairwise ones vanish
tri = parse("1: U1+ U2- U3- U4+ / 2: O1+ O3- / 3: O2- O4+")
table = milnor_table(tri, k=1)
print("nonzero invariants with repeat index 1, length <= 3:")
for line in table.format_lines():
    print(" ", line)
