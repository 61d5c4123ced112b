"""The answer corpus: a fixed list of weldmag commands with, for each, its
exit code and the sha256 of its stdout and of its stderr, kept one JSON
object a line in corpus.jsonl beside this file.

The commands are every `$ weldmag` example of README.md and every CLI
question of the benchmark's seeds 1 and 2 in its four workloads, warm-ups
included, each once as text and once under --json.  The benchmark's
questions are built by its own input builder (benchmark/inputs.py and
benchmark/workload.py); a line stores the argv it built, so a replay needs
neither.  Each command runs in this process through weldmag.cli.main.

    python tests/corpus.py           # regenerate corpus.jsonl
    python tests/corpus.py --check   # replay every line; exit 1 on a difference

A change that alters an answer on purpose regenerates the file and lists
each changed command where it records the change.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import pathlib
import shlex
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
CORPUS = HERE / "corpus.jsonl"
SEEDS = (1, 2)
PROMPT = "$ weldmag "


def readme_commands() -> list[list[str]]:
    """The argv of each `$ weldmag` line inside a fenced README block."""
    found, block = [], False
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            block = not block
        elif block and line.startswith(PROMPT):
            found.append(shlex.split(line[len(PROMPT):]))
    return found


def benchmark_commands() -> list[list[str]]:
    """The argv of every CLI question, warm-ups first, of each seed and
    workload; the action workload's library calls have none."""
    sys.path.insert(0, str(ROOT / "benchmark"))
    import inputs
    import workload

    questions = workload.Questions()
    found = []
    for seed in SEEDS:
        for name in inputs.WORKLOADS:
            spec = inputs.make_spec(name, seed)
            for q in spec["warmups"] + spec["round"]:
                prepared = questions.prepare(q)
                if isinstance(prepared, list):
                    found.append(prepared)
    return found


def text_argv(argv: list[str]) -> tuple[str, ...]:
    """The command without --json."""
    return tuple(a for a in argv if a != "--json")


def commands() -> list[list[str]]:
    """Each command once as text and once under --json, in that order, in
    the order first met."""
    out = {}
    for argv in readme_commands() + benchmark_commands():
        text = text_argv(argv)
        out.update({text: None, (*text, "--json"): None})
    return [list(argv) for argv in out]


def run(argv: list[str]) -> dict:
    """The corpus line of one command."""
    from weldmag.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse refusals
            code = exc.code
    return {"argv": list(argv), "exit": code,
            "stdout": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            "stderr": hashlib.sha256(err.getvalue().encode()).hexdigest()}


def load() -> list[dict]:
    return [json.loads(line) for line in CORPUS.read_text(encoding="utf-8").splitlines()]


def differences(records: list[dict]) -> list[str]:
    """One line per record whose replay differs, naming the fields."""
    found = []
    for want in records:
        got = run(want["argv"])
        bad = [key for key in ("exit", "stdout", "stderr") if got[key] != want[key]]
        if bad:
            found.append(f"{'/'.join(bad)} differ: {json.dumps(want['argv'])[:200]}")
    return found


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="replay corpus.jsonl instead of regenerating it")
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    if args.check:
        records = load()
        found = differences(records)
        print("\n".join(found) or f"{len(records)} commands replayed, all identical")
        return 1 if found else 0
    lines = [json.dumps(run(argv)) for argv in commands()]
    CORPUS.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
    print(f"wrote {len(lines)} commands to {CORPUS.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
