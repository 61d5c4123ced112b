#!/usr/bin/env python3
"""Show that the reference checker rejects wrong answers.

    python3 benchmark/selfcheck.py [--seed N]

For every workload this asks one round of questions, checks that the
checker accepts every genuine answer, then corrupts one answer of each
kind of question (table, compare with and without a witness, action,
compose, invert, hall) and checks that the checker rejects it.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import argparse
import copy
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import reference  # noqa: E402
from run import BenchError, DEADLINE_S, run_child  # noqa: E402


def _bump_series(pairs):
    """Add 1 to the coefficient of the last term of a series."""
    pairs[-1][1] += 1


def corrupt(op, ans):
    """A copy of the answer with one value changed, and what was changed."""
    bad = copy.deepcopy(ans)
    out = bad["out"]
    if op == "table":
        out["entries"][-1]["mu"] += 1
        return bad, "last table entry + 1"
    if op == "compare":
        if "witness" in out:
            out["witness"]["left"] += 1
            return bad, "witness left value + 1"
        out["result"] = "distinct"
        bad["rc"] = 1
        return bad, "verdict flipped to distinct"
    if op == "action":
        _bump_series(out["images"][0]["series"])
        return bad, "last term of image 1 + 1"
    if op == "compose":
        _bump_series(out["residues"][-1])
        return bad, "last term of the last composite residue + 1"
    if op == "invert":
        # the top terms of a conjugator may vanish in its component quotient,
        # where they do not change the action; X2 always survives there
        terms = out["conjugators"][0]
        hit = [t for t in terms if t[0] == [2]]
        if hit:
            hit[0][1] += 1
        else:
            terms.append([[2], 1])
        return bad, "coefficient of X2 in inverse conjugator 1 + 1"
    if op == "hall":
        out["factors"][-1]["exp"] += 1
        return bad, "exponent of the last factor + 1"
    raise ValueError(op)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    ok = True
    for workload in inputs.WORKLOADS:
        spec = inputs.make_spec(workload, args.seed)
        try:
            result = run_child({"spec": spec, "mode": "run", "seconds": 0, "trace_path": None},
                               time.monotonic() + DEADLINE_S)
        except BenchError as exc:
            print(f"{workload}: {exc}")
            return 1
        done = set()
        for q in spec["warmups"] + spec["round"]:
            ans = result["answers"][q["id"]]
            if "error" in ans:
                ok = False
                print(f"{workload} {q['id']} {q['op']}: question FAILED: {ans['error']}")
                continue
            reason = reference.check(q, ans, result["bases"])
            if reason:
                ok = False
                print(f"{workload} {q['id']} {q['op']}: genuine answer REJECTED: {reason}")
                continue
            kind = (q["op"], "witness" in (ans["out"] or {}))
            if kind in done or q["id"].startswith("w"):
                continue
            done.add(kind)
            bad, what = corrupt(q["op"], ans)
            reason = reference.check(q, bad, result["bases"])
            if reason is None:
                ok = False
                print(f"{workload} {q['id']} {q['op']}: corrupted answer ({what}) ACCEPTED")
            else:
                print(f"{workload} {q['id']} {q['op']}: corrupted answer ({what}) rejected: "
                      f"{reason}")
    print("selfcheck " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
