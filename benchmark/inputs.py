"""Seeded question lists for the four workloads.

Everything here is plain Python and depends only on the seed: a question
names its subcommand or library call, its (n, k) or (rank, max-len), and
describes its diagrams by the words they realize.  The workload process
turns a description into Gauss-code text with weldmag's own realizer and
move engine; the reference checker reads the same description and never
looks at the code.

A diagram description is one of

* {"words": W, "moves": M}: ``arrows.realize_sorted`` of the letter lists
  W (+g for a_g, -g for its inverse), then the welded moves M in order,
  each [kind, u] picking site int(u * len(sites)) of
  ``gauss.applicable_sites``; kind "kink" stands for the R1insert sites of
  order UO at the top end of a component;
* {"stack": [A, B]}: ``gauss.stack`` of two sorted descriptions;
* {"words": W, "tree": [i, T]}: the sorted presentation of W with a slot
  carrying the self-tree T of component i appended by
  ``arrows.insert_self_tree``.  T is {"leaf": [twist, conjugator letters]}
  or {"node": [left, right, twist]}, every leaf labelled i.
"""

from __future__ import annotations

import random

WORKLOADS = ("table", "compare", "action", "hall")

# Welded moves used to unsort a realized diagram.  Sorted diagrams reach the
# longitude fixed point in two sweeps; these raise the sweep count.
MOVE_KINDS = ("R2insert", "OCswap", "R1insert")


def random_letters(rng: random.Random, rank: int, length: int) -> list[int]:
    """A freely reduced word of exactly ``length`` letters."""
    out: list[int] = []
    alphabet = [s * g for g in range(1, rank + 1) for s in (1, -1)]
    while len(out) < length:
        l = rng.choice(alphabet)
        if out and out[-1] == -l:
            continue
        out.append(l)
    return out


def random_words(rng: random.Random, n: int, crossings: int) -> list[list[int]]:
    """n words whose lengths add up to ``crossings`` (one crossing per
    letter of a sorted realization), spread as evenly as possible."""
    lens = [crossings // n + (1 if i < crossings % n else 0) for i in range(n)]
    return [random_letters(rng, n, length) for length in lens]


def random_moves(rng: random.Random, count: int) -> list:
    """``count`` moves, an equal number of each kind in random order, so that
    every moved diagram gains the same number of crossings, then one kink.

    The kink is an R1insert of order UO at the top end of a component: its
    under passage has its own arc as over-arc.  That loop keeps the
    longitude iteration going to the degree bound, so every moved diagram
    costs the same number of sweeps; without it the random moves leave some
    diagrams at three sweeps and others at the bound.
    """
    if not count:
        return []
    kinds = [MOVE_KINDS[i % len(MOVE_KINDS)] for i in range(count)]
    rng.shuffle(kinds)
    return [[kind, rng.random()] for kind in kinds] + [["kink", rng.random()]]


def sorted_code(rng, n, crossings, moves=0):
    return {"words": random_words(rng, n, crossings), "moves": random_moves(rng, moves)}


def stacked_code(rng, n, crossings):
    half = crossings // 2
    return {"stack": [sorted_code(rng, n, half), sorted_code(rng, n, crossings - half)]}


def self_tree(rng: random.Random, n: int, i: int, degree: int) -> dict:
    """A random bracket of ``degree`` leaves, all labelled i; every leaf gets
    a random twist and a one-letter conjugator."""
    if degree == 1:
        return {"leaf": [rng.choice((1, -1)), random_letters(rng, n, 1)]}
    left = rng.randint(1, degree - 1)
    return {"node": [self_tree(rng, n, i, left), self_tree(rng, n, i, degree - left),
                     rng.choice((1, -1))]}


def tree_code(rng, n, crossings, degree):
    i = rng.randint(1, n)
    return {"words": random_words(rng, n, crossings), "moves": [],
            "tree": [i, self_tree(rng, n, i, degree)]}


# -- workloads -----------------------------------------------------------------------
#
# Each builder returns (warmups, round): one untimed warm-up question per
# distinct (subcommand, n, k) or (rank, max-len), and the round of timed
# questions that every run repeats whole.  Each round is laid out so that
# the median question falls well inside one size class, never at a jump
# between two: in table and compare that class is three sorted questions of
# fixed cost, with as many questions cheaper as dearer.


def _table(rng):
    def q(n, k, code):
        return {"op": "table", "n": n, "k": k, "codes": [code]}

    warm = [q(3, 3, sorted_code(rng, 3, 20)), q(4, 2, sorted_code(rng, 4, 20))]
    rnd = [
        q(3, 3, sorted_code(rng, 3, 24)),
        q(3, 3, sorted_code(rng, 3, 21, moves=6)),
        q(3, 3, stacked_code(rng, 3, 24)),
        q(4, 2, sorted_code(rng, 4, 32)),
        q(4, 2, sorted_code(rng, 4, 32)),
        q(4, 2, sorted_code(rng, 4, 32)),
        q(4, 2, sorted_code(rng, 4, 28, moves=6)),
        q(4, 2, sorted_code(rng, 4, 28, moves=6)),
        q(4, 2, stacked_code(rng, 4, 32)),
    ]
    return warm, rnd


def _compare(rng):
    def moved_pair(n, crossings):
        base = random_words(rng, n, crossings)
        right = {"words": base, "moves": random_moves(rng, 6)}
        return [{"words": base, "moves": []}, right]

    def tree_pair(n, crossings, degree):
        right = tree_code(rng, n, crossings, degree)
        return [{"words": right["words"], "moves": []}, right]

    def distinct_pair(n, crossings):
        return [sorted_code(rng, n, crossings), sorted_code(rng, n, crossings)]

    def q(n, k, mode, codes):
        return {"op": "compare", "n": n, "k": k, "mode": mode, "codes": codes}

    warm = [q(3, 3, "action", distinct_pair(3, 18)), q(4, 2, "action", distinct_pair(4, 20))]
    rnd = [
        # equal pairs decided by the cheap routes
        q(3, 3, "longitude", tree_pair(3, 24, 3)),
        q(3, 3, "action", tree_pair(3, 24, 4)),
        q(4, 2, "longitude", moved_pair(4, 28)),
        # distinct sorted pairs: verdict, witness tables and two milnor calls
        q(3, 3, "longitude", distinct_pair(3, 24)),
        q(3, 3, "action", distinct_pair(3, 24)),
        q(3, 3, "table", distinct_pair(3, 24)),
        # equal pairs decided by tables at n*k = 8
        q(4, 2, "table", moved_pair(4, 28)),
        q(4, 2, "table", tree_pair(4, 28, 3)),
        q(4, 2, "action", moved_pair(4, 28)),
    ]
    return warm, rnd


def _action(rng):
    def cli(n, k, crossings, moves=0):
        return {"op": "action", "n": n, "k": k,
                "codes": [sorted_code(rng, n, crossings, moves)]}

    def compose(n, k, crossings):
        return {"op": "compose", "n": n, "k": k,
                "codes": [sorted_code(rng, n, crossings), sorted_code(rng, n, crossings)]}

    def invert(n, k, crossings):
        return {"op": "invert", "n": n, "k": k,
                "codes": [sorted_code(rng, n, crossings, moves=3)]}

    warm = [cli(3, 3, 18), cli(4, 2, 20), compose(3, 3, 12), compose(4, 2, 12),
            invert(3, 2, 16), invert(2, 4, 16), invert(5, 1, 16)]
    # The cost of a composition follows the density of the conjugators and
    # varies most from seed to seed; many small ones keep the round steady.
    rnd = ([cli(4, 2, 32) for _ in range(3)] + [cli(4, 2, 28, moves=6) for _ in range(2)]
           + [cli(3, 3, 30) for _ in range(3)] + [cli(3, 3, 26, moves=6) for _ in range(2)]
           + [invert(n, k, 30) for n, k in ((3, 2), (2, 4), (5, 1)) for _ in range(3)]
           + [compose(n, k, c) for n, k, c in ((4, 2, 16), (3, 3, 15)) for _ in range(3)])
    return warm, rnd


def _hall(rng):
    # Rank 4, max-len 5: the degree solver takes seconds to build in set-up
    # and a few tenths of a second per verified solve.  The rewriting cost
    # follows the exponents and so the word; thirty words per round keep the
    # round total steady from seed to seed.
    def q(rank, max_len, length):
        return {"op": "hall", "rank": rank, "max_len": max_len,
                "word": random_letters(rng, rank, length)}

    return [q(4, 5, 6)], [q(4, 5, 6) for _ in range(30)]


_BUILDERS = {"table": _table, "compare": _compare, "action": _action, "hall": _hall}


def make_spec(workload: str, seed: int) -> dict:
    """Warm-up and round questions of one workload; the same (workload,
    seed) always gives the same spec."""
    rng = random.Random(f"{workload}:{seed}")
    warm, rnd = _BUILDERS[workload](rng)
    for prefix, qs in (("w", warm), ("q", rnd)):
        for idx, q in enumerate(qs):
            q["id"] = f"{prefix}{idx}"
    return {"workload": workload, "seed": seed, "warmups": warm, "round": rnd}
