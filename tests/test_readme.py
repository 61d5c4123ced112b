"""Every `$ weldmag ...` example in README.md runs, and prints exactly the
output lines the README shows under it; every fenced python block runs."""

import json
import pathlib
import shlex

import pytest

from weldmag.cli import main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
PROMPT = "$ weldmag "


def examples():
    """(command line, output lines shown under it) for each example in a
    fenced block, in README order."""
    found, block, current = [], False, None
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            block, current = not block, None
        elif block and line.startswith(PROMPT):
            current = (line[len(PROMPT):], [])
            found.append(current)
        elif current is not None:
            current[1].append(line)
    return found


EXAMPLES = examples()


def python_blocks():
    """The source of each fenced python block, in README order."""
    found, current = [], None
    for line in README.read_text(encoding="utf-8").splitlines():
        if current is None and line.startswith("```python"):
            current = []
            found.append(current)
        elif current is not None and line.startswith("```"):
            current = None
        elif current is not None:
            current.append(line)
    return ["\n".join(lines) + "\n" for lines in found]


def test_readme_examples_are_found():
    commands = {shlex.split(line)[0] for line, _ in EXAMPLES}
    assert commands == {"milnor", "table", "compare", "action", "realize", "hall", "moves",
                        "link-vanishing"}


@pytest.mark.parametrize("line, shown", EXAMPLES, ids=[line for line, _ in EXAMPLES])
def test_readme_example(capsys, line, shown):
    rc = main(shlex.split(line))
    out = capsys.readouterr().out
    assert rc in (0, 1)
    if shown:
        assert out == "".join(f"{text}\n" for text in shown)


@pytest.mark.parametrize("line", [line for line, _ in EXAMPLES], ids=str)
def test_readme_example_json_is_canonical(capsys, line):
    """Under --json, which every subcommand takes, each example prints one
    object exactly as json.dumps(..., sort_keys=True) renders it: the
    answer has one canonical renderer."""
    argv = shlex.split(line)
    if "--json" not in argv:
        argv.append("--json")
    assert main(argv) in (0, 1)
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), sort_keys=True) + "\n"


def test_readme_python_blocks_run(capsys):
    blocks = python_blocks()
    assert blocks
    for source in blocks:
        exec(compile(source, str(README), "exec"), {})
    assert "mu(2,1) = 1" in capsys.readouterr().out.splitlines()
