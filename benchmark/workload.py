"""One workload in one process: set-up, then a closed loop of questions.

Reads a JSON request on stdin: {"spec": ..., "mode": "setup" | "run",
"seconds": S, "trace_path": path or null}.  Prints one JSON result line on
stdout.  ``run.py`` starts this script; it is not meant to be run by hand.

Set-up is the import of weldmag plus one untimed warm-up question per
distinct (subcommand, n, k) or (rank, max-len); building the inputs is not
part of it.  The timed loop repeats the whole round of questions, each
asked as soon as the previous answer is in, until S seconds have passed.
Each question starts from Gauss-code text (or a word, for hall): CLI
questions go through ``weldmag.cli.main([..., "--json"])``, the action
algebra through the public ``weldmag.invariants`` functions.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


class Questions:
    """Builds the inputs of question specs and asks the questions."""

    def __init__(self) -> None:
        from weldmag import arrows, cli, gauss, invariants, words

        self.arrows, self.cli, self.gauss = arrows, cli, gauss
        self.invariants, self.words = invariants, words

    # -- inputs --------------------------------------------------------------------

    def _tree(self, t, i, n):
        if "leaf" in t:
            twist, conj = t["leaf"]
            c = self.words.word_from_letters(n, conj) if conj else None
            return self.arrows.leaf(i, twist, c)
        left, right, twist = t["node"]
        return self.arrows.node(self._tree(left, i, n), self._tree(right, i, n), twist)

    def build(self, desc):
        """Gauss code of a diagram description (see ``inputs``)."""
        if "stack" in desc:
            return self.gauss.stack(*(self.build(d) for d in desc["stack"]))
        n = len(desc["words"])
        ws = [self.words.word_from_letters(n, w) for w in desc["words"]]
        if "tree" in desc:
            i, t = desc["tree"]
            pres = self.arrows.sorted_presentation(ws)
            code = self.arrows.surgery(self.arrows.insert_self_tree(pres, i, self._tree(t, i, n)))
        else:
            code = self.arrows.realize_sorted(ws)
        for kind, u in desc["moves"]:
            if kind == "kink":
                kind = "R1insert"
                sites = [s for s in self.gauss.applicable_sites(code, kind)
                         if s[3] == "UO" and s[1] == len(code.components[s[0] - 1])]
            else:
                sites = self.gauss.applicable_sites(code, kind)
            code = self.gauss.apply_move(code, kind, sites[int(u * len(sites))])
        return code

    def prepare(self, q):
        """(argv or library call, its text inputs) for one question."""
        if q["op"] == "hall":
            word = " ".join(f"a{l}" if l > 0 else f"A{-l}" for l in q["word"])
            return ["hall", "--rank", str(q["rank"]), "--max-len", str(q["max_len"]),
                    "--factor", word, "--json"]
        texts = [self.gauss.serialize(self.build(d)) for d in q["codes"]]
        k = ["--k", str(q["k"])]
        if q["op"] == "table":
            return ["table", texts[0], *k, "--json"]
        if q["op"] == "action":
            return ["action", texts[0], *k, "--json"]
        if q["op"] == "compare":
            return ["compare", texts[0], texts[1], *k, "--mode", q["mode"], "--json"]
        return (q["op"], q["k"], texts)

    # -- asking ------------------------------------------------------------------------

    def ask(self, prepared):
        """Answer one question; returns what the round-to-round comparison
        and the checker need."""
        if isinstance(prepared, list):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(prepared)
            return {"rc": rc, "text": out.getvalue(), "err": err.getvalue()}
        op, k, texts = prepared
        inv = self.invariants
        codes = [self.gauss.parse(t) for t in texts]
        if op == "compose":
            return {"rc": 0, "action": inv.action_compose(inv.action(codes[0], k),
                                                          inv.action(codes[1], k))}
        return {"rc": 0, "action": inv.action_invert(inv.action(codes[0], k))}


def same_answer(a, b) -> bool:
    if "text" in a:
        return a["rc"] == b["rc"] and a["text"] == b["text"]
    x, y = a["action"], b["action"]
    return (x.conjugators == y.conjugators and x.residues == y.residues
            and x.images == y.images)


def for_checker(ans):
    """JSON-ready form of an answer."""
    if "text" in ans:
        try:
            out = json.loads(ans["text"])
        except ValueError:
            out = None
        return {"rc": ans["rc"], "out": out, "err": ans["err"][-300:]}
    phi = ans["action"]

    def items(series):
        return [[list(m), c] for m, c in series.items()]

    return {"rc": 0, "out": {"k": phi.k, "rank": phi.rank,
                             "conjugators": [items(s) for s in phi.conjugators],
                             "residues": [items(s) for s in phi.residues]}}


def main() -> int:
    request = json.load(sys.stdin)
    spec, mode = request["spec"], request["mode"]
    tracer = None

    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import weldmag  # noqa: F401
    from weldmag import arrows, cli, gauss, hall, invariants, magnus, words  # noqa: F401
    import_s = time.perf_counter() - t0

    if request.get("trace_path"):
        sys.path.insert(0, HERE)
        import spans

        tracer = spans.Tracer()
        tracer.install()

    qs = Questions()
    warm = [(q, qs.prepare(q)) for q in spec["warmups"]]
    rnd = [(q, qs.prepare(q)) for q in spec["round"]]

    def asked(q, prep, label):
        if tracer:
            tracer.begin_question(label)
        t = time.perf_counter()
        try:
            ans = qs.ask(prep)
        except Exception as exc:  # a failed question is counted, not fatal
            ans = {"rc": None, "error": f"{type(exc).__name__}: {exc}"}
        dt = time.perf_counter() - t
        if tracer:
            tracer.end_question()
        return ans, dt

    answers = {}
    setup_s = import_s
    for q, prep in warm:
        ans, dt = asked(q, prep, f"{q['id']}#0")
        setup_s += dt
        answers[q["id"]] = ans
    if mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    bases = {}
    for q, _ in warm:
        if q["op"] == "hall":
            if tracer:
                tracer.begin_question("basis")
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                cli.main(["hall", "--rank", str(q["rank"]), "--max-len", str(q["max_len"]),
                          "--json"])
            bases[f"{q['rank']},{q['max_len']}"] = json.loads(out.getvalue())["basis"]
            if tracer:
                tracer.end_question()

    times, failed, rounds, unstable = [], [], 0, []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    while True:
        for q, prep in rnd:
            ans, dt = asked(q, prep, f"{q['id']}#{rounds}")
            times.append(dt)
            if "error" in ans:
                failed.append(f"{q['id']}: {ans['error']}")
            if rounds == 0:
                answers[q["id"]] = ans
            elif "error" not in ans and "error" not in answers[q["id"]] \
                    and not same_answer(ans, answers[q["id"]]):
                unstable.append(q["id"])
        rounds += 1
        if time.perf_counter() - wall0 >= request["seconds"]:
            break
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {
        "setup_s": setup_s,
        "import_s": import_s,
        "rounds": rounds,
        "attempted": len(times),
        "failed": failed,
        "unstable": sorted(set(unstable)),
        "answer_p50_s": statistics.median(times),
        "answers_per_s": len(times) / wall,
        "cpu_per_answer_s": cpu / len(times),
        "peak_rss_mb": peak_kb / 1024.0,
        "question_s": {q["id"]: statistics.median(times[i::len(rnd)])
                       for i, (q, _) in enumerate(rnd)},
        "answers": {qid: (ans if "error" in ans else for_checker(ans))
                    for qid, ans in answers.items()},
        "bases": bases,
    }
    if tracer:
        result["layers"] = tracer.layer_metrics(len(times), len(warm), len(rnd))
        tracer.write(request["trace_path"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
