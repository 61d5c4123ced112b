"""Span tracing around weldmag's public functions, for the traced run.

Each traced function is replaced, at every weldmag module that binds it, by
a wrapper that records one span: name, start, end, parent span and the
question it ran for.  Spans stay in memory and are written out when the
run ends; the per-layer figures are computed from them afterwards.
"""

from __future__ import annotations

import functools
import gzip
import json
import math
import sys
import time
from array import array

# (module, function) pairs; a pair missing from the program is skipped.
TARGETS = (
    ("cli", "main"),
    ("gauss", "parse"),
    ("gauss", "longitude_series"),
    ("magnus", "series_mul"),
    ("magnus", "series_inverse"),
    ("magnus", "expand"),
    ("magnus", "retruncate"),
    ("magnus", "substitute_conjugates"),
    ("invariants", "milnor_table"),
    ("invariants", "k_equal"),
    ("invariants", "k_equal_witness"),
    ("invariants", "milnor"),
    ("invariants", "action"),
    ("invariants", "action_compose"),
    ("invariants", "action_invert"),
    ("hall", "hall_factorize"),
    ("hall", "generate_basic"),
    ("hall", "principal_part"),
    ("words", "multiply"),
    ("words", "power"),
    ("words", "invert"),
    ("arrows", "realize_sorted"),
)

# Per-layer metrics of the timed questions, in report order.  Each is
# (metric name, span name, statistic, unit).
LAYER_METRICS = (
    [("cli.main.self_s", "cli.main", "self_s", "s"),
     ("gauss.parse.self_s", "gauss.parse", "self_s", "s"),
     ("gauss.longitude_series.self_s", "gauss.longitude_series", "self_s", "s"),
     ("gauss.longitude_series.calls", "gauss.longitude_series", "calls", "count"),
     ("gauss.longitude_series.series_mul_calls", "gauss.longitude_series", "series_mul_calls",
      "count"),
     ("gauss.longitude_series.monomials", "gauss.longitude_series", "monomials", "count")]
    + [(f"magnus.{f}.self_s", f"magnus.{f}", "self_s", "s")
       for f in ("series_mul", "series_inverse", "expand", "retruncate", "substitute_conjugates")]
    + [("magnus.series_mul.calls", "magnus.series_mul", "calls", "count"),
       ("magnus.substitute_conjugates.calls", "magnus.substitute_conjugates", "calls", "count")]
    + [(f"invariants.{f}.self_s", f"invariants.{f}", "self_s", "s")
       for f in ("milnor_table", "k_equal", "k_equal_witness", "milnor", "action",
                 "action_compose", "action_invert")]
    + [(f"hall.{f}.self_s", f"hall.{f}", "self_s", "s")
       for f in ("hall_factorize", "generate_basic", "principal_part")]
    + [(f"words.{f}.self_s", f"words.{f}", "self_s", "s") for f in ("multiply", "power", "invert")]
    + [("words.multiply.calls", "words.multiply", "calls", "count")]
)

# Question labels start with "w" for warm-ups and "q" for timed questions;
# spans outside any question belong to input generation.
BUCKETS = {"w": "warmup", "q": "timed"}

# Input generation is reported per round question, not per timed question.
GEN_METRIC = ("arrows.realize_sorted.self_s", "arrows.realize_sorted", "self_s", "s")


def metric_names():
    """Every per-layer metric name with its unit, in report order."""
    out = [(name, unit) for name, _, _, unit in LAYER_METRICS]
    out += [(f"warmup.{name}", unit) for name, _, _, unit in LAYER_METRICS]
    out.append((GEN_METRIC[0], GEN_METRIC[3]))
    return out


def policy_monomials(rank, q, caps):
    """Number of monomials a truncation policy keeps: words over rank
    letters of length <= q in which letter j occurs fewer than caps[j]
    times (no per-letter limit when caps is None)."""
    counts = [1] + [0] * q  # counts[L]: words of length L over the letters so far
    for j in range(rank):
        top = q if caps is None else min(q, caps[j] - 1)
        counts = [sum(counts[L - c] * math.comb(L, c) for c in range(min(L, top) + 1))
                  for L in range(q + 1)]
    return sum(counts)


class Tracer:
    """Spans in flat arrays; question index -1 marks input generation."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.question = array("i")
        self.monomials: dict[int, int] = {}
        self.questions: list[str] = []
        self._stack: list[int] = []
        self._current = -1

    def begin_question(self, label: str) -> None:
        self.questions.append(label)
        self._current = len(self.questions) - 1

    def end_question(self) -> None:
        self._current = -1

    def wrap(self, name: str, fn):
        nid = self._name_id.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        count_monomials = name == "gauss.longitude_series"
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.name)
            self.name.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.question.append(self._current)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self._stack.pop()
            if count_monomials and result:
                pol = result[0].policy
                self.monomials[idx] = policy_monomials(pol.rank, pol.max_total_degree, pol.caps)
            return result

        return traced

    def install(self, package: str = "weldmag") -> None:
        """Wrap every target at each loaded module of the package that binds it."""
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == package or key.startswith(package + "."))]
        for mod_name, fn_name in TARGETS:
            home = sys.modules.get(f"{package}.{mod_name}")
            original = getattr(home, fn_name, None) if home else None
            if original is None:
                continue
            traced = self.wrap(f"{mod_name}.{fn_name}", original)
            for m in modules:
                if getattr(m, fn_name, None) is original:
                    setattr(m, fn_name, traced)

    # -- reading the spans --------------------------------------------------------

    def totals(self):
        """{(bucket, span name): {self_s, calls, series_mul_calls, monomials}}
        with the bucket taken from the question label (see BUCKETS)."""
        n = len(self.name)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        long_id = self._name_id.get("gauss.longitude_series", -2)
        mul_id = self._name_id.get("magnus.series_mul", -2)
        in_pass = [False] * n  # inside a longitude pass
        out: dict = {}

        def rec(bucket, name):
            return out.setdefault((bucket, name), {"self_s": 0.0, "calls": 0,
                                                   "series_mul_calls": 0, "monomials": 0})

        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                in_pass[i] = in_pass[p] or self.name[p] == long_id
            qi = self.question[i]
            bucket = "gen" if qi < 0 else BUCKETS.get(self.questions[qi][0], "other")
            r = rec(bucket, self.names[self.name[i]])
            r["self_s"] += self.end[i] - self.start[i] - child[i]
            r["calls"] += 1
            r["monomials"] += self.monomials.get(i, 0)
            if self.name[i] == mul_id and in_pass[i]:
                rec(bucket, "gauss.longitude_series")["series_mul_calls"] += 1
        return out

    def layer_metrics(self, timed_questions: int, warmup_questions: int, round_size: int):
        totals = self.totals()
        empty = {"self_s": 0.0, "calls": 0, "series_mul_calls": 0, "monomials": 0}
        metrics = {}
        for prefix, bucket, per in (("", "timed", timed_questions),
                                    ("warmup.", "warmup", warmup_questions)):
            for name, span, stat, unit in LAYER_METRICS:
                value = totals.get((bucket, span), empty)[stat] / max(per, 1)
                metrics[prefix + name] = {"value": value, "unit": unit}
        name, span, stat, unit = GEN_METRIC
        metrics[name] = {"value": totals.get(("gen", span), empty)[stat] / round_size,
                         "unit": unit}
        return metrics

    def write(self, path: str) -> None:
        """One JSON line per span: name, start, end, parent, question label."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i in range(len(self.name)):
                qi = self.question[i]
                fh.write(json.dumps([self.names[self.name[i]], self.start[i], self.end[i],
                                     self.parent[i], self.questions[qi] if qi >= 0 else None])
                         + "\n")
