"""Naive reference implementations used to cross-check the fast paths.

Series here are plain dicts mapping monomial tuples (variable indices, in
order) to integer coefficients; no numpy, no shared index spaces, no run
tricks.  Slow but obviously correct.
"""

import functools
import itertools
import random
from fractions import Fraction


@functools.lru_cache(maxsize=None)
def _survives_cached(mono, q, caps):
    if len(mono) > q:
        return False
    if caps is not None:
        for v in set(mono):
            if mono.count(v) > caps[v - 1] - 1:
                return False
    return True


def survives(mono, q, caps=None):
    return _survives_cached(mono, q, None if caps is None else tuple(caps))


def clean(s, q, caps=None):
    return {m: c for m, c in s.items() if c and survives(m, q, caps)}


def one():
    return {(): 1}


def mul(a, b, q, caps=None):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = m1 + m2
            if survives(m, q, caps):
                out[m] = out.get(m, 0) + c1 * c2
    return clean(out, q, caps)


def add(a, b):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def neg(a):
    return {m: -c for m, c in a.items()}


def inverse(a, q, caps=None):
    c0 = a.get((), 0)
    assert c0 in (1, -1)
    u = {m: -c0 * c for m, c in a.items() if m}  # a = c0 (1 - u)
    out = one()
    power = one()
    for _ in range(q):
        power = mul(power, u, q, caps)
        if not power:
            break
        out = add(out, power)
    if c0 == -1:
        out = neg(out)
    return clean(out, q, caps)


def power(a, e, q, caps=None):
    """a**e for a series with constant term 1 and any integer e, by the
    binomial series sum_j C(e, j) (a - 1)^j, which stops at j = q."""
    assert a.get((), 0) == 1
    u = {m: c for m, c in a.items() if m}
    out, term, binom = one(), one(), 1
    for j in range(1, q + 1):
        term = mul(term, u, q, caps)
        if not term:
            break
        binom = binom * (e - j + 1) // j  # C(e, j), exact for any integer e
        out = add(out, {m: binom * c for m, c in term.items()})
    return clean(out, q, caps)


def expand_letters(letters, q, caps=None):
    """Magnus expansion of a letter sequence (positive = generator,
    negative = inverse), multiplied out one letter at a time."""
    s = one()
    for l in letters:
        if l > 0:
            f = {(): 1, (l,): 1}
        else:
            f = inverse({(): 1, (-l,): 1}, q, caps)
        s = mul(s, f, q, caps)
    return clean(s, q, caps)


def substitute(s, conjugators, q, caps=None):
    """X_v -> inv(c_v) X_v c_v, extended monomial by monomial."""
    factors = {}
    for v, c in enumerate(conjugators, start=1):
        inv_c = inverse(c, q, caps)
        factors[v] = mul(mul(inv_c, {(v,): 1}, q, caps), c, q, caps)
    out = {}
    for m, c in s.items():
        term = one()
        for v in m:
            term = mul(term, factors[v], q, caps)
        out = add(out, {mm: c * cc for mm, cc in term.items()})
    return clean(out, q, caps)


def exact_rank(rows):
    """Rank of an integer matrix, by Gaussian elimination over the rationals."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank, cols = 0, len(m[0]) if m else 0
    for col in range(cols):
        piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                f = m[r][col] / m[rank][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def witt(n, d):
    """Number of basic commutators of length d on n generators."""

    def mobius(m):
        if m == 1:
            return 1
        out, left = 1, m
        p = 2
        while p * p <= left:
            if left % p == 0:
                left //= p
                if left % p == 0:
                    return 0
                out = -out
            p += 1
        if left > 1:
            out = -out
        return out

    total = 0
    for e in range(1, d + 1):
        if d % e == 0:
            total += mobius(e) * n ** (d // e)
    assert total % d == 0
    return total // d


def random_reduced_letters(rng, rank, length):
    letters = []
    while len(letters) < length:
        l = rng.choice([s * g for g in range(1, rank + 1) for s in (1, -1)])
        if letters and letters[-1] == -l:
            continue
        letters.append(l)
    return letters
