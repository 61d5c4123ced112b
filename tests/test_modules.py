"""Import discipline of the package modules, read from their syntax trees."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "weldmag"
MODULES = sorted(SRC.glob("*.py"))


def _imports_weldmag(node: ast.ImportFrom) -> bool:
    return node.level > 0 or (node.module or "").split(".")[0] == "weldmag"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_imports_across_modules_or_in_function_bodies(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    problems = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _imports_weldmag(node):
            for alias in node.names:
                if alias.name.startswith("_"):
                    problems.append(f"line {node.lineno}: private name {alias.name}")
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(node):
                if isinstance(inner, (ast.Import, ast.ImportFrom)):
                    problems.append(f"line {inner.lineno}: import inside {node.name}()")
    assert not problems, problems


ENV_READERS = {"environ", "environb", "getenv", "getenvb"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_environment_reads(path):
    """Behaviour is chosen by fixed rules in the code, never by environment
    variables, so no module reads os.environ or os.getenv."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    problems = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ENV_READERS:
            problems.append(f"line {node.lineno}: {ast.unparse(node)}")
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            for alias in node.names:
                if alias.name in ENV_READERS:
                    problems.append(f"line {node.lineno}: from os import {alias.name}")
    assert not problems, problems


def test_modules_are_found():
    assert {p.name for p in MODULES} >= {"gauss.py", "magnus.py", "invariants.py", "cli.py"}
