"""Property tests of the Gauss-code parser, of the move engine and of the
CLI's exit contract."""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weldmag.cli import main
from weldmag.gauss import (
    MOVE_KINDS,
    GaussCodeError,
    LinkCode,
    Passage,
    StringLinkCode,
    applicable_sites,
    apply_move,
    parse,
    serialize,
)


@st.composite
def codes(draw):
    """A valid code: each crossing has one Over and one Under passage of one
    sign, placed anywhere on any component."""
    n = draw(st.integers(1, 4))
    comps = [[] for _ in range(n)]
    cids = draw(st.lists(st.integers(1, 99), max_size=6, unique=True))
    for cid in cids:
        sign = draw(st.sampled_from((1, -1)))
        for role in ("O", "U"):
            comp = comps[draw(st.integers(0, n - 1))]
            comp.insert(draw(st.integers(0, len(comp))), Passage(cid, role, sign))
    cls = draw(st.sampled_from((StringLinkCode, LinkCode)))
    return cls(tuple(tuple(c) for c in comps))


@settings(max_examples=150, deadline=None)
@given(codes())
def test_parse_serialize_round_trip(code):
    assert parse(serialize(code), closed=isinstance(code, LinkCode)) == code


@st.composite
def code_and_site(draw):
    """A code, a move kind and a site of that kind's shape: a listed site
    now and then, otherwise one with component numbers in 0..n+1 and
    positions in -1..length+1, inside and outside the ranges."""
    code, kind = draw(codes()), draw(st.sampled_from(MOVE_KINDS))
    listed = applicable_sites(code, kind)
    if listed and draw(st.booleans()):
        return code, kind, draw(st.sampled_from(listed))

    def place():
        i = draw(st.integers(0, code.n + 1))
        length = len(code.components[i - 1]) if 1 <= i <= code.n else 0
        return i, draw(st.integers(-1, length + 1))

    signs = st.sampled_from((1, -1))
    if kind == "R1insert":
        return code, kind, (*place(), draw(signs), draw(st.sampled_from(("OU", "UO"))))
    if kind == "R2insert":
        return code, kind, (*place(), *place(), draw(signs), draw(st.booleans()))
    if kind == "R2delete":
        return code, kind, (*place(), *place())
    return code, kind, place()


@settings(max_examples=400, deadline=None)
@given(code_and_site())
def test_apply_move_takes_exactly_the_listed_sites(case):
    code, kind, site = case
    if site in applicable_sites(code, kind):
        assert isinstance(apply_move(code, kind, site), type(code))
    else:
        with pytest.raises(GaussCodeError, match=f"{kind} does not apply at site"):
            apply_move(code, kind, site)


GRAMMAR = "OU0123456789+-:/ \n"


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(GRAMMAR, max_size=40), st.text(max_size=20)), st.booleans())
def test_arbitrary_text_parses_or_raises_gauss_code_error(text, closed):
    try:
        code = parse(text, closed=closed)
    except GaussCodeError:
        return
    assert isinstance(code, LinkCode if closed else StringLinkCode)
    assert parse(serialize(code), closed=closed) == code


CODE_TEXTS = (
    "1: U1+ / 2: O1+",
    "1: / 2:",
    "1: U1+ U2- U3- U4+ / 2: O1+ O3- / 3: O2- O4+",
    "1: / 2: / 3:",
    "1: O1+ U1+",
    "1: O1+",
    "",
)
REALIZERS = ("1: a2 / 2: -", "1: a2 A3 A2 a3 / 2: - / 3: -", "1: a3 / 2: -", "1: A1 / 2: a1", "")
# no digits in free text: a free-form number could ask for an unaffordable
# quotient
NOISE = st.text("OU+-:/ \n", max_size=12)


# the values of each option that takes one; an option may be drawn for a
# subcommand that does not take it.  Every integer is at most 3, wherever a
# permutation puts it, so no question is unaffordable; -o is not drawn.
OPTION_VALUES = {
    "--k": ("1", "2", "1", "2", "0", "-1", "x"),
    "--max-len": ("1", "2", "1", "2", "0", "-1", "x"),
    "--mode": ("table", "longitude", "action", "x"),
    "--index": ("2,1", "1,2,1", "1", "9,1", "-1,2", "x"),
    "--basepoints": ("0,0", "1,0,2", "2", "-1,0", "x"),
    "--rank": ("1", "2", "3", "0", "-1", "x"),
    "--factor": ("a1 a2 A1 A2", "a2 a1", "a3", "", "x"),
    "--kind": (*MOVE_KINDS, "x"),
    "--apply": ("-1", "0", "1", "2", "3", "x"),
    "--json": (),
}
COMMANDS = ("table", "compare", "action", "milnor", "link-vanishing", "hall", "realize", "moves")


@st.composite
def argvs(draw):
    """A subcommand, its positional arguments, required options and other
    options, with a bad value or a stray token now and then, in any order."""
    command = draw(st.sampled_from(COMMANDS))
    if command == "hall":  # its two required options, then any others
        args = [opt for name in ("--rank", "--max-len")
                for opt in (name, draw(st.sampled_from(OPTION_VALUES[name])))]
    elif command == "realize":
        args = [draw(st.sampled_from(REALIZERS))]
    else:
        args = [draw(st.sampled_from(CODE_TEXTS)) for _ in range(2 if command == "compare" else 1)]
    if command == "moves":
        args += ["--kind", draw(st.sampled_from(OPTION_VALUES["--kind"]))]
    options = draw(st.lists(st.sampled_from(sorted(OPTION_VALUES)), max_size=3))
    for opt in options:
        args.append(opt)
        if OPTION_VALUES[opt]:
            args.append(draw(st.sampled_from(OPTION_VALUES[opt])))
    if draw(st.integers(0, 4)) == 0:
        args.append(draw(NOISE))
    if draw(st.booleans()):
        args = draw(st.permutations(args))
    return [command, *args]


@settings(max_examples=150, deadline=None)
@given(argvs())
def test_cli_exits_0_1_or_2_and_prints_nothing_on_error(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code
    assert rc in (0, 1, 2), (rc, err.getvalue())
    if rc == 2:
        assert out.getvalue() == ""
