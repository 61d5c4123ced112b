"""
Basic commutators and Hall factorization
========================================

The lower central series of a free group is controlled by basic
commutators. This walks the basis for two generators and factors a word
as an ordered product of basic commutator powers.
"""

from weldmag.hall import generate_basic, hall_factorize
from weldmag.magnus import TruncationPolicy, expand, series_one
from weldmag.words import empty, invert, multiply, parse_word, power

# the ordered basis through length 4 on two generators
basis = generate_basic(2, 4)
print("basic commutators, rank 2, length <= 4:")
for c in basis:
    print(f"  #{c.ordinal}  len {c.length}  {c.word}")

# layer sizes match the classical necklace counts 2, 1, 2, 3
from collections import Counter

per_len = Counter(c.length for c in basis)
print("layer sizes:", [per_len[d] for d in range(1, 5)])

# the principal part of a basic commutator is its lowest-degree slice,
# and those slices are linearly independent degree by degree; at the
# commutator's own degree it is the whole expansion minus 1
pol = TruncationPolicy.total_degree(2, 2)
c = basis[2]  # the bracket [a1,a2]
print("principal part of", c.word, "=", expand(c.word, pol) - series_one(pol))

# factor a word: exponents line up with the basis order
w = parse_word("a2 a1 a2 A1 A2 A2", 2)
exps, certified = hall_factorize(w, 3)
print("word:", w)
for c, e in zip(generate_basic(2, 3), exps):
    if e:
        print(f"  exponent {e:+d} on {c.word}")
print("remainder certified deep:", certified)

# rebuild the product and check the remainder really is past length 3
prod = empty(2)
for c, e in zip(generate_basic(2, 3), exps):
    if e:
        prod = multiply(prod, power(c.word, e))
rem = multiply(invert(prod), w)
print("remainder lower bound says deep:", expand(rem, TruncationPolicy.total_degree(2, 3)).is_one)

# a longer word: its exponents run into the hundreds, yet the factorization
# costs about the same, since it divides factors off the word's truncated
# expansion and never rewrites the word itself
w = parse_word("A1 a2 a1 A3 A2 A2 A1 A2 a3 a2 a1 a3 a3 a2 a2 A1 a2 A1 A3 a2", 3)
exps, certified = hall_factorize(w, 6)
big = max(zip(exps, generate_basic(3, 6)), key=lambda pair: abs(pair[0]))
print("20-letter word, rank 3, length <= 6:")
print(f"  {sum(1 for e in exps if e)} nonzero exponents, largest {big[0]:+d} on {big[1].bracket}")
print("  certified:", certified)
