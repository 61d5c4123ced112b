#!/usr/bin/env python3
"""Seeded, reference-checked benchmark of weldmag.

    python3 benchmark/run.py --workload table --seed 1 --seconds 10 --trace 0

Workloads: table, compare, action, hall (see README.md and inputs.py).
Run from the repository root; weldmag is imported from ./src, the naive
reference expander from ./tests/_oracle.py.

The questions are built from the seed.  Set-up runs three times, each in a
fresh single-threaded process (BLAS pools pinned to one thread), and the
median is reported; the third process then runs the timed closed loop.
Every distinct answer is checked against the reference checker, and every
repeat of a question must give the same answer as its first ask.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics of a span-traced run with --trace 1.  Details of the run
go to benchmark/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # write nothing into the checkout but out/

import inputs  # noqa: E402
import spans  # noqa: E402

SETUP_SAMPLES = 3
DEADLINE_S = 170.0  # every run must end within 180 s

# One thread for every numeric pool numpy may start; fixed hashing so that
# set and dict orders repeat; no bytecode written into the checkout.
CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "PYTHONDONTWRITEBYTECODE": "1",
}


class BenchError(RuntimeError):
    pass


def run_child(request: dict, deadline: float) -> dict:
    env = dict(os.environ, **CHILD_ENV)
    env.pop("PYTHONPATH", None)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "workload.py")],
            input=json.dumps(request), capture_output=True, text=True, env=env, cwd=ROOT,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise BenchError("workload process ran past the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"workload process exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_answers(spec: dict, result: dict) -> list[str]:
    """Reasons for every wrong answer; an empty list means all are right."""
    import reference

    wrong = [f"{qid}: answer changed between rounds" for qid in result["unstable"]]
    for q in spec["warmups"] + spec["round"]:
        ans = result["answers"][q["id"]]
        if "error" in ans:
            if q["id"].startswith("w"):
                wrong.append(f"{q['id']} (warm-up): {ans['error']}")
            continue  # a failed timed question is counted in `failed`
        reason = reference.check(q, ans, result["bases"])
        if reason:
            wrong.append(f"{q['id']} ({q['op']}): {reason}")
    return wrong


def end_to_end(result: dict, setup_samples: list[float]) -> dict:
    units = {"answer_p50_s": "s", "answers_per_s": "1/s", "cpu_per_answer_s": "s",
             "peak_rss_mb": "MB"}
    metrics = {name: {"value": result[name], "unit": unit} for name, unit in units.items()}
    metrics["setup_s"] = {"value": statistics.median(setup_samples), "unit": "s"}
    return metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    for needed in ("src/weldmag/__init__.py", "tests/_oracle.py"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            print(f"error: {needed} not found; run from a weldmag checkout", file=sys.stderr)
            return 2

    deadline = time.monotonic() + DEADLINE_S
    spec = inputs.make_spec(args.workload, args.seed)
    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    trace_path = os.path.join(OUT, f"trace-{tag}.jsonl.gz") if args.trace else None

    try:
        samples = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                samples.append(run_child({"spec": spec, "mode": "setup"}, deadline)["setup_s"])
        result = run_child({"spec": spec, "mode": "run", "seconds": args.seconds,
                            "trace_path": trace_path}, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    samples.append(result["setup_s"])
    wrong = check_answers(spec, result)

    e2e = end_to_end(result, samples)
    if args.trace:
        metrics = result["layers"]
        missing = [name for name, _ in spans.metric_names() if name not in metrics]
        if missing:
            print(f"error: per-layer metrics missing: {missing}", file=sys.stderr)
            return 1
    else:
        metrics = e2e

    details = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "rounds": result["rounds"], "setup_samples_s": samples,
               "import_s": result["import_s"], "question_median_s": result["question_s"],
               "failed": result["failed"], "wrong": wrong, "end_to_end": e2e,
               "metrics": metrics}
    with open(os.path.join(OUT, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(details, fh, indent=1, sort_keys=True)
    for line in wrong[:20]:
        print(f"WRONG {line}")
    for line in result["failed"][:20]:
        print(f"FAILED {line}")
    print(json.dumps({"correct": not wrong, "attempted": result["attempted"],
                      "failed": len(result["failed"]), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
