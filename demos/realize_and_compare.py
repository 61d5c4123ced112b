"""
Realizing prescribed longitudes and comparing links
===================================================

Any tuple of free words can be realized as a string link whose
longitudes match the words exactly (up to the forced framing power).
Comparison of two links up to a fixed repeat level k runs three
independent routes that must agree.
"""

from weldmag.arrows import realize_sorted
from weldmag.gauss import parse, serialize
from weldmag.invariants import compare, milnor, milnor_table
from weldmag.words import commutator, empty, generator

n = 3
g = lambda i: generator(n, i)

# ask for longitude [a2, [a2, a3]] on strand 1, trivial elsewhere
deep = commutator(g(2), commutator(g(2), g(3)))
L = realize_sorted([deep, empty(n), empty(n)])
print("realized code:")
print(serialize(L))

trivial = parse("1: / 2: / 3:")

# with one repeat allowed the two links are indistinguishable
for k in (1, 2):
    verdicts = [
        compare(L, trivial, k, mode=m)[0] for m in ("table", "longitude", "action")
    ]
    print(f"k={k} equal?", verdicts)

# the witness names one invariant that distinguishes them at k=2
I = compare(L, trivial, 2)[1][0]
print(f"witness: mu{I} = {milnor(L, I)} vs {milnor(trivial, I)}")

# the full k=2 table of the realized link
print("k=2 table:")
for line in milnor_table(L, 2, max_len=4).format_lines():
    print(" ", line)
