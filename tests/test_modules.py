"""Import and export discipline of the package modules."""

import ast
import dataclasses
import importlib
import inspect
import pathlib
import re
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "weldmag"
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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_only_the_standard_library_numpy_and_the_package(path):
    """The one runtime dependency is numpy; any other third-party import
    fails here before it reaches an install."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    allowed = sys.stdlib_module_names | {"numpy"}
    problems = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            tops = [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            tops = [node.module.split(".")[0]]
        else:
            continue
        problems += [f"line {node.lineno}: {top}" for top in tops if top not in allowed]
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


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_all_names_exist(path):
    """A name left in __all__ after its definition is deleted goes unnoticed
    otherwise, because nothing imports *."""
    module = importlib.import_module(f"weldmag.{path.stem}")
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, missing


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_is_attributes_are_properties(path):
    """A predicate left as a method is truthy as a bound method, so
    ``assert s.is_one`` would pass for any series."""
    module = importlib.import_module(f"weldmag.{path.stem}")
    problems = []
    for name in module.__all__:
        cls = getattr(module, name)
        if not inspect.isclass(cls):
            continue
        for attr in (a for a in dir(cls) if a.startswith("is_")):
            if not isinstance(inspect.getattr_static(cls, attr), property):
                problems.append(f"{name}.{attr}")
    assert not problems, problems


def test_package_imports_only_exported_names():
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    problems = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            exported = importlib.import_module(f"weldmag.{node.module}").__all__
            problems += [f"{node.module}.{a.name}" for a in node.names if a.name not in exported]
    assert not problems, problems


def test_modules_are_found():
    assert {p.name for p in MODULES} >= {"gauss.py", "magnus.py", "invariants.py", "cli.py"}


# Public names with no caller in the package, the README or the benchmark,
# each kept for its own reason.
KEPT = {
    "series_from_terms": "the one way to build a series from given terms",
    "r_index": "the paper's r(I), the largest multiplicity in an index",
    "closure": "the paper's link case: a string link closed up",
    "power": "the group power by repeated squaring, for the large exponents of tests and demos",
}

# Public class members with no reader in the package, the README or the
# benchmark, each kept for its own reason.
KEPT_MEMBERS = {
    "TruncatedSeries.is_one": "the documented membership test of J^k",
}

BENCHMARK = sorted((ROOT / "benchmark").glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _referenced_names(path, package=True):
    """The attributes a file reads, and the bare names it reads that it
    imports from the package or, in a package module, defines at module
    level.  A benchmark file's own functions are not the package's."""
    tree = _tree(path)
    own = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and package:
            own.add(node.name)
        elif isinstance(node, ast.ImportFrom) and _imports_weldmag(node):
            own.update(alias.asname or alias.name for alias in node.names)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in own:
            names.add(node.id)
    return names


def _readme_code_words():
    """The words of the README's fenced blocks and backtick spans."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    spans = re.findall(r"^```.*?^```|`[^`\n]+`", text, flags=re.S | re.M)
    return set(re.findall(r"\w+", " ".join(spans)))


def _exported_classes():
    for path in MODULES:
        if path.name == "__init__.py":
            continue
        module = importlib.import_module(f"weldmag.{path.stem}")
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isclass(obj):
                yield name, obj


def _public_members(cls):
    """The methods, properties and dataclass fields a class defines or
    inherits from a package class, without underscore names."""
    names = {f.name for f in dataclasses.fields(cls)} if dataclasses.is_dataclass(cls) else set()
    for klass in cls.__mro__:
        if klass.__module__.startswith("weldmag."):
            names.update(klass.__dict__)
    return {name for name in names if not name.startswith("_")}


def test_every_public_name_has_a_caller():
    """A name in a module's __all__ is used in the package, shown in a code
    span of the README or called by the benchmark, or is listed in KEPT with
    its reason.  Tests and demos do not count: a name only they call is a
    second way to do what the names they compose already do.  A bare name
    counts only where it is imported from the package or defined, so a
    local variable of the same name does not."""
    called = set().union(
        *(_referenced_names(p) for p in MODULES),
        *(_referenced_names(p, package=False) for p in BENCHMARK),
    )
    readme = _readme_code_words()
    exported = {
        name
        for path in MODULES
        if path.name != "__init__.py"
        for name in importlib.import_module(f"weldmag.{path.stem}").__all__
    }
    assert KEPT.keys() <= exported
    uncalled = sorted(exported - called - readme - KEPT.keys())
    assert not uncalled, uncalled
    assert not KEPT.keys() & (called | readme), "a kept name has a caller now"


def test_every_public_member_has_a_caller():
    """A method, property or field of an exported class is read as an
    attribute in the package or the benchmark, or shown in a code span of
    the README, or is listed in KEPT_MEMBERS with its reason.  A member only
    tests read is a stored or derived value nothing needs."""
    read = set()
    for path in MODULES + BENCHMARK:
        read.update(
            node.attr
            for node in ast.walk(_tree(path))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        )
    readme = _readme_code_words()
    members = {
        f"{name}.{member}": member
        for name, cls in _exported_classes()
        for member in _public_members(cls)
    }
    assert KEPT_MEMBERS.keys() <= members.keys()
    unread = sorted(
        key for key, member in members.items()
        if member not in read | readme and key not in KEPT_MEMBERS
    )
    assert not unread, unread
    assert not [key for key in KEPT_MEMBERS if members[key] in read | readme], (
        "a kept member has a reader now"
    )


def test_only_cli_main_writes():
    """The subcommand handlers of cli.py return their answer and main alone
    writes it, so an error cannot leave part of an answer behind: no other
    function calls print, open or a write method (a source file is read
    with read_text)."""
    problems = []
    for func in ast.walk(_tree(SRC / "cli.py")):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)) or func.name == "main":
            continue
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if (isinstance(f, ast.Name) and f.id in ("print", "open")) or (
                isinstance(f, ast.Attribute) and f.attr.startswith("write")
            ):
                problems.append(f"line {node.lineno}: {func.name} calls {ast.unparse(f)}")
    assert not problems, problems


def test_no_word_is_checked_again():
    """A Word is checked where it is built from outside data; the helpers
    of words.py build from runs that are already checked.  So outside
    words.py no Word(...) call reads another word's runs: it would check a
    checked word again, and could change its rank."""
    problems = []
    for path in (p for p in MODULES if p.name != "words.py"):
        for node in ast.walk(_tree(path)):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if not (isinstance(f, ast.Name) and f.id == "Word") and not (
                isinstance(f, ast.Attribute) and f.attr == "Word"
            ):
                continue
            args = [*node.args, *(k.value for k in node.keywords)]
            if any(isinstance(a, ast.Attribute) and a.attr == "runs"
                   for arg in args for a in ast.walk(arg)):
                problems.append(f"{path.name} line {node.lineno}: {ast.unparse(node)}")
    assert not problems, problems


def test_one_integer_reader():
    """words.integer and words.integers are the one way the package reads
    an integer a caller passes in, each module raising its own error class
    through them; so no other module imports operator or reads
    operator.index."""
    problems = []
    for path in (p for p in MODULES if p.name != "words.py"):
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Import) and any(a.name == "operator" for a in node.names):
                problems.append(f"{path.name} line {node.lineno}: import operator")
            elif isinstance(node, ast.ImportFrom) and node.module == "operator":
                problems.append(f"{path.name} line {node.lineno}: from operator import")
            elif isinstance(node, ast.Attribute) and node.attr == "index" and (
                isinstance(node.value, ast.Name) and node.value.id == "operator"
            ):
                problems.append(f"{path.name} line {node.lineno}: operator.index")
    assert not problems, problems
