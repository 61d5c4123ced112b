"""Every `$ weldmag ...` example in README.md runs, and prints exactly the
output lines the README shows under it."""

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
