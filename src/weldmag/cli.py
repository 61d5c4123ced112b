"""Command line interface.

Subcommands: milnor, table, compare, action, realize, hall, moves,
link-vanishing.  Results go to stdout, diagnostics to stderr.  Exit codes:
0 for success (and for `equal` / `vanishing` verdicts), 1 for a negative
verdict (`distinct` / `non-vanishing`), 2 for any input or usage error.

Positional CODE and WORDS arguments name a file when one exists at that
path and are otherwise taken as inline text, with `/` standing for a line
break.  All output is deterministic; JSON output carries "schema": 1.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import arrows, gauss, hall, invariants, magnus, words

__all__ = ["main"]


def _read_source(arg: str) -> str:
    if os.path.exists(arg):
        with open(arg, "r", encoding="utf-8") as fh:
            return fh.read()
    return arg


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _print_json(obj: dict, out_path: str | None = None) -> None:
    """Emit one JSON object with the schema marker and sorted keys."""
    _emit(json.dumps({"schema": 1, **obj}, sort_keys=True), out_path)


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError:
        raise ValueError(f"bad {what} list {text!r}; expected comma-separated integers") from None


# -- handlers ----------------------------------------------------------------------


def _cmd_milnor(args: argparse.Namespace) -> int:
    code = gauss.parse(_read_source(args.code))
    I = _parse_ints(args.index, "index")
    value = invariants.milnor(code, I)
    if args.json:
        _print_json({"I": list(I), "mu": value})
    else:
        print(f"mu({','.join(map(str, I))}) = {value}")
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    table = invariants.milnor_table(gauss.parse(_read_source(args.code)), args.k, args.max_len)
    if args.json:
        _print_json({"k": table.k, "max_len": table.max_len, "entries": table.to_json_obj()})
    else:
        for line in table.format_lines():
            print(line)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    a = gauss.parse(_read_source(args.left))
    b = gauss.parse(_read_source(args.right))
    equal, diff = invariants.compare(a, b, args.k, args.mode)
    if args.json:
        obj = {"k": args.k, "mode": args.mode, "result": "equal" if equal else "distinct"}
        if diff is not None:
            I, va, vb = diff
            obj["witness"] = {"I": list(I), "left": va, "right": vb}
        _print_json(obj)
    else:
        print("equal" if equal else "distinct")
        if diff is not None:
            I, va, vb = diff
            print(f"witness: mu({','.join(map(str, I))}) = {va} vs {vb}")
    return 0 if equal else 1


def _cmd_action(args: argparse.Namespace) -> int:
    code = gauss.parse(_read_source(args.code))
    phi = invariants.action(code, args.k)
    if args.json:
        _print_json({
            "rank": phi.rank,
            "k": phi.k,
            "conjugators": [
                {"component": i, "series": list(r.labelled_items())}
                for i, r in enumerate(phi.residues, start=1)
            ],
            "images": [
                {"component": i, "series": list(s.labelled_items())}
                for i, s in enumerate(phi.images, start=1)
            ],
        })
    else:
        print(f"action rank={phi.rank} k={phi.k}")
        for i, r in enumerate(phi.residues, start=1):
            print(f"conjugator {i}:")
            for line in magnus.format_series(r).splitlines():
                print(f"  {line}")
    return 0


def _cmd_realize(args: argparse.Namespace) -> int:
    ws = arrows.parse_realizer(_read_source(args.words))
    code = arrows.realize_sorted(ws)
    if args.json:
        _print_json({"code": gauss.serialize(code).splitlines()}, args.output)
    else:
        _emit(gauss.serialize(code), args.output)
    return 0


def _cmd_hall(args: argparse.Namespace) -> int:
    basis = hall.generate_basic(args.rank, args.max_len)
    if args.factor is None:
        if args.json:
            _print_json({"rank": args.rank, "max_len": args.max_len,
                         "basis": [c.bracket() for c in basis]})
        else:
            for c in basis:
                print(c.bracket())
        return 0
    w = words.parse_word(args.factor, args.rank)
    exps, certified = hall.hall_factorize(w, args.max_len)
    if args.json:
        _print_json({"rank": args.rank, "max_len": args.max_len, "certified": certified,
                     "factors": [{"bracket": c.bracket(), "exp": e}
                                 for c, e in zip(basis, exps) if e]})
    else:
        for c, e in zip(basis, exps):
            if e:
                print(f"{c.bracket()} ^ {e}")
        print("certified" if certified else "uncertified")
    return 0


def _cmd_moves(args: argparse.Namespace) -> int:
    code = gauss.parse(_read_source(args.code))
    sites = gauss.applicable_sites(code, args.kind)
    if args.apply is None:
        if args.output is not None:
            raise ValueError("-o has no effect without --apply")
        if args.json:
            _print_json({"kind": args.kind, "sites": [list(s) for s in sites]})
        else:
            for idx, s in enumerate(sites):
                print(f"{idx}: {s}")
        return 0
    if not sites:
        raise ValueError(f"no {args.kind} site")
    if not 0 <= args.apply < len(sites):
        raise ValueError(f"site number {args.apply} out of range 0..{len(sites) - 1}")
    moved = gauss.apply_move(code, args.kind, sites[args.apply])
    if args.json:
        _print_json({"kind": args.kind, "site": list(sites[args.apply]),
                     "code": gauss.serialize(moved).splitlines()}, args.output)
    else:
        _emit(gauss.serialize(moved), args.output)
    return 0


def _cmd_link_vanishing(args: argparse.Namespace) -> int:
    link = gauss.parse(_read_source(args.code), closed=True)
    basepoints = _parse_ints(args.basepoints, "basepoint") if args.basepoints else None
    vanishing = invariants.link_vanishing(link, args.k, basepoints)
    if args.json:
        _print_json({"k": args.k, "result": "vanishing" if vanishing else "non-vanishing"})
    else:
        print("vanishing" if vanishing else "non-vanishing")
    return 0 if vanishing else 1


# -- parser ------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use and shared by later calls of main:
    building it costs more than a small question, and each build leaves
    cyclic garbage behind."""
    p = argparse.ArgumentParser(prog="weldmag",
                                description="Milnor invariants of welded string links")
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--k", type=int, default=1, help="filter level k >= 1")
        sp.add_argument("--json", action="store_true", help="JSON output")

    sp = sub.add_parser("milnor", help="one invariant mu(I)")
    sp.add_argument("code", help="Gauss-code file or inline text")
    sp.add_argument("--index", required=True, help="comma-separated index, e.g. 2,1")
    sp.add_argument("--json", action="store_true", help="JSON output")
    sp.set_defaults(func=_cmd_milnor)

    sp = sub.add_parser("table", help="nonzero mu(I) with r(I) <= k")
    sp.add_argument("code", help="Gauss-code file or inline text")
    sp.add_argument("--max-len", type=int, default=None, dest="max_len",
                    help="largest index length to report")
    add_common(sp)
    sp.set_defaults(func=_cmd_table)

    sp = sub.add_parser("compare", help="decide the level-k equivalence of two codes")
    sp.add_argument("left", help="Gauss-code file or inline text")
    sp.add_argument("right", help="Gauss-code file or inline text")
    sp.add_argument("--mode", choices=("table", "longitude", "action"), default="table")
    add_common(sp)
    sp.set_defaults(func=_cmd_compare)

    sp = sub.add_parser("action", help="conjugator residues and generator images")
    sp.add_argument("code", help="Gauss-code file or inline text")
    add_common(sp)
    sp.set_defaults(func=_cmd_action)

    sp = sub.add_parser("realize", help="string link with prescribed longitude words")
    sp.add_argument("words", help="realizer file or inline text (i: WORD, - = empty)")
    sp.add_argument("-o", "--output", default=None, help="write the code to a file")
    sp.add_argument("--json", action="store_true", help="JSON output")
    sp.set_defaults(func=_cmd_realize)

    sp = sub.add_parser("hall", help="basic commutator basis, or factor a word")
    sp.add_argument("--rank", type=int, required=True)
    sp.add_argument("--max-len", type=int, required=True, dest="max_len")
    sp.add_argument("--factor", default=None, help="word to factor, e.g. 'a1 a2 A1 A2'")
    sp.add_argument("--json", action="store_true", help="JSON output")
    sp.set_defaults(func=_cmd_hall)

    sp = sub.add_parser("moves", help="list or apply diagram moves")
    sp.add_argument("code", help="Gauss-code file or inline text")
    sp.add_argument("--kind", choices=gauss.MOVE_KINDS, required=True)
    sp.add_argument("--apply", type=int, default=None, metavar="N",
                    help="apply the N-th listed site")
    sp.add_argument("-o", "--output", default=None, help="write the moved code to a file")
    sp.add_argument("--json", action="store_true", help="JSON output")
    sp.set_defaults(func=_cmd_moves)

    sp = sub.add_parser("link-vanishing", help="vanishing of all mu(I), r(I) <= k, closed link")
    sp.add_argument("code", help="closed Gauss-code file or inline text")
    sp.add_argument("--basepoints", default=None, help="comma-separated rotation offsets")
    add_common(sp)
    sp.set_defaults(func=_cmd_link_vanishing)

    return p


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
