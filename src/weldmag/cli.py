"""Command line interface.

Subcommands: milnor, table, compare, action, realize, hall, moves,
link-vanishing.  Exit codes: 0 for success (and for `equal` / `vanishing`
verdicts), 1 for a negative verdict (`distinct` / `non-vanishing`), 2 for
any input or usage error.  Each handler returns its whole answer and `main`
alone writes it: stdout (or the `-o` file) gets the whole answer or nothing,
and an error goes to stderr alone.

Positional CODE and WORDS arguments name a file when one exists at that
path and are otherwise taken as inline text, with `/` standing for a line
break.  All output is deterministic; JSON output carries "schema": 1.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import pathlib
import sys

from . import arrows, gauss, hall, invariants, magnus, words

__all__ = ["main"]


def _read_source(arg: str) -> str:
    return pathlib.Path(arg).read_text(encoding="utf-8") if os.path.exists(arg) else arg


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError:
        raise ValueError(f"bad {what} list {text!r}; expected comma-separated integers") from None


# -- handlers ----------------------------------------------------------------------
# Each returns (exit status, answer): under --json the answer is the JSON
# object without its schema marker, otherwise the list of output lines.


def _cmd_milnor(args: argparse.Namespace) -> tuple[int, dict | list[str]]:
    code = gauss.parse(_read_source(args.code))
    I = _parse_ints(args.index, "index")
    value = invariants.milnor(code, I)
    return 0, {"I": list(I), "mu": value} if args.json else [invariants.format_mu(I, value)]


def _cmd_table(args: argparse.Namespace) -> tuple[int, dict | list[str]]:
    table = invariants.milnor_table(gauss.parse(_read_source(args.code)), args.k, args.max_len)
    if args.json:
        entries = [{"I": list(I), "mu": v} for I, v in table.entries.items()]
        return 0, {"k": table.k, "max_len": table.max_len, "entries": entries}
    return 0, table.format_lines()


def _cmd_compare(args: argparse.Namespace) -> tuple[int, dict | list[str]]:
    a = gauss.parse(_read_source(args.left))
    b = gauss.parse(_read_source(args.right))
    equal, diff = invariants.compare(a, b, args.k, args.mode)
    result = "equal" if equal else "distinct"
    answer = {"k": args.k, "mode": args.mode, "result": result} if args.json else [result]
    if diff is not None:
        I, va, vb = diff
        if args.json:
            answer["witness"] = {"I": list(I), "left": va, "right": vb}
        else:
            answer.append(f"witness: {invariants.format_mu(I, f'{va} vs {vb}')}")
    return 0 if equal else 1, answer


def _labelled(series: tuple[magnus.TruncatedSeries, ...]) -> list[dict]:
    return [{"component": i, "series": list(s.labelled_items())}
            for i, s in enumerate(series, start=1)]


def _cmd_action(args: argparse.Namespace) -> tuple[int, dict | list[str]]:
    phi = invariants.action(gauss.parse(_read_source(args.code)), args.k)
    if args.json:
        return 0, {"rank": phi.rank, "k": phi.k,
                   "conjugators": _labelled(phi.residues), "images": _labelled(phi.images)}
    lines = [f"action rank={phi.rank} k={phi.k}"]
    for i, r in enumerate(phi.residues, start=1):
        lines.append(f"conjugator {i}:")
        lines += [f"  {label} : {c}" for label, c in r.labelled_items()]
    return 0, lines


def _cmd_realize(args: argparse.Namespace) -> tuple[int, dict | list[str]]:
    code = arrows.realize_sorted(arrows.parse_realizer(_read_source(args.words)))
    lines = gauss.serialize(code).splitlines()
    return 0, {"code": lines} if args.json else lines


def _cmd_hall(args: argparse.Namespace) -> tuple[int, dict | list[str]]:
    basis = hall.generate_basic(args.rank, args.max_len)
    sizes = {"rank": args.rank, "max_len": args.max_len}
    if args.factor is None:
        brackets = [c.bracket for c in basis]
        return 0, {**sizes, "basis": brackets} if args.json else brackets
    w = words.parse_word(args.factor, args.rank)
    exps, certified = hall.hall_factorize(w, args.max_len)
    factors = [(c.bracket, e) for c, e in zip(basis, exps) if e]
    if args.json:
        return 0, {**sizes, "certified": certified,
                   "factors": [{"bracket": b, "exp": e} for b, e in factors]}
    return 0, [f"{b} ^ {e}" for b, e in factors] + ["certified" if certified else "uncertified"]


def _cmd_moves(args: argparse.Namespace) -> tuple[int, dict | list[str]]:
    code = gauss.parse(_read_source(args.code))
    sites = gauss.applicable_sites(code, args.kind)
    if args.apply is None:
        if args.output is not None:
            raise ValueError("-o has no effect without --apply")
        if args.json:
            return 0, {"kind": args.kind, "sites": [list(s) for s in sites]}
        return 0, [f"{idx}: {s}" for idx, s in enumerate(sites)]
    if not sites:
        raise ValueError(f"no {args.kind} site")
    if not 0 <= args.apply < len(sites):
        raise ValueError(f"site number {args.apply} out of range 0..{len(sites) - 1}")
    site = sites[args.apply]
    lines = gauss.serialize(gauss.apply_move(code, args.kind, site)).splitlines()
    return 0, {"kind": args.kind, "site": list(site), "code": lines} if args.json else lines


def _cmd_link_vanishing(args: argparse.Namespace) -> tuple[int, dict | list[str]]:
    link = gauss.parse(_read_source(args.code), closed=True)
    basepoints = _parse_ints(args.basepoints, "basepoint") if args.basepoints else None
    vanishing = invariants.link_vanishing(link, args.k, basepoints)
    result = "vanishing" if vanishing else "non-vanishing"
    return 0 if vanishing else 1, {"k": args.k, "result": result} if args.json else [result]


# -- parser ------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use and shared by later calls of main:
    building it costs more than a small question, and each build leaves
    cyclic garbage behind."""
    p = argparse.ArgumentParser(prog="weldmag",
                                description="Milnor invariants of welded string links")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, func, help):
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(func=func)
        return sp

    def add_k(sp):
        sp.add_argument("--k", type=int, default=1, help="filter level k >= 1")

    sp = add("milnor", _cmd_milnor, "one invariant mu(I)")
    sp.add_argument("code", help="Gauss-code file or inline text")
    sp.add_argument("--index", required=True, help="comma-separated index, e.g. 2,1")

    sp = add("table", _cmd_table, "nonzero mu(I) with r(I) <= k")
    sp.add_argument("code", help="Gauss-code file or inline text")
    sp.add_argument("--max-len", type=int, default=None, dest="max_len",
                    help="largest index length to report")
    add_k(sp)

    sp = add("compare", _cmd_compare, "decide the level-k equivalence of two codes")
    sp.add_argument("left", help="Gauss-code file or inline text")
    sp.add_argument("right", help="Gauss-code file or inline text")
    sp.add_argument("--mode", choices=("table", "longitude", "action"), default="table")
    add_k(sp)

    sp = add("action", _cmd_action, "conjugator residues and generator images")
    sp.add_argument("code", help="Gauss-code file or inline text")
    add_k(sp)

    sp = add("realize", _cmd_realize, "string link with prescribed longitude words")
    sp.add_argument("words", help="realizer file or inline text (i: WORD, - = empty)")
    sp.add_argument("-o", "--output", default=None, help="write the code to a file")

    sp = add("hall", _cmd_hall, "basic commutator basis, or factor a word")
    sp.add_argument("--rank", type=int, required=True)
    sp.add_argument("--max-len", type=int, required=True, dest="max_len")
    sp.add_argument("--factor", default=None, help="word to factor, e.g. 'a1 a2 A1 A2'")

    sp = add("moves", _cmd_moves, "list or apply diagram moves")
    sp.add_argument("code", help="Gauss-code file or inline text")
    sp.add_argument("--kind", choices=gauss.MOVE_KINDS, required=True)
    sp.add_argument("--apply", type=int, default=None, metavar="N",
                    help="apply the N-th listed site")
    sp.add_argument("-o", "--output", default=None, help="write the moved code to a file")

    sp = add("link-vanishing", _cmd_link_vanishing,
             "vanishing of all mu(I), r(I) <= k, closed link")
    sp.add_argument("code", help="closed Gauss-code file or inline text")
    sp.add_argument("--basepoints", default=None, help="comma-separated rotation offsets")
    add_k(sp)

    # one declaration for every subcommand, last, as each usage line shows it
    for sp in sub.choices.values():
        sp.add_argument("--json", action="store_true", help="JSON output")

    return p


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        status, answer = args.func(args)
        # each handler builds a fresh tree, so the encoder need not look for cycles
        text = (json.dumps({"schema": 1, **answer}, sort_keys=True, check_circular=False)
                if args.json else "\n".join(answer))
        if getattr(args, "output", None):
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        elif answer:
            print(text)
        return status
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
