"""Command-line front end.

Subcommands: h1, ladder, bibi, alt, decide, table.  Output is UTF-8
JSON, or flat TSV with --tsv.  Exit codes: 0 success (and exact
fixture match for `table`), 1 fixture mismatch or a reader that closed
stdout early (no traceback is printed), 2 invalid input.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from . import fixtures, tables
from .altmethod import alt_saturation_check, alt_target, h1_alt
from .bibi import BibiConfig, bibi_criterion, search_bibi
from .permgrp import CycleType
from .rootsys import DynkinType
from .saturation import decide, ladder_verdict
from .weil import Triple, h1_principal


def _integer(text: str) -> int:
    """An optional sign and ASCII digits; int() alone also reads "1_2" and "٩"."""
    if not re.fullmatch(r"[+-]?[0-9]+", text):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _flatten(value, prefix: str = "") -> list[tuple[str, str]]:
    if isinstance(value, dict):
        out = []
        for key, sub in value.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            out.extend(_flatten(sub, path))
        return out
    if isinstance(value, list):
        if all(not isinstance(v, (dict, list)) for v in value):
            return [(prefix, ",".join(str(v) for v in value))]
        return [(prefix, json.dumps(value))]
    return [(prefix, str(value))]


def _emit(report: dict, args) -> None:
    if args.tsv:
        for key, value in _flatten(report):
            print(f"{key}\t{value}")
    else:
        print(json.dumps(report, indent=2))


def _bibi(t: DynkinType, tr: Triple, args) -> dict:
    if t.family != "D":
        raise ValueError(f"the bibi method applies to type D_r only, got {t}")
    if args.k is not None:
        return bibi_criterion(BibiConfig(t.rank, args.k), tr).as_dict()
    return search_bibi(t.rank, tr).as_dict()


#: The subcommands taking --type and --triple: name -> (help, body of the report).
TYPED = {
    "h1": ("principal H^1 report for (type, triple)",
           lambda t, tr, args: h1_principal(t, tr).as_dict()),
    "ladder": ("principal-ladder verdict with the H^1 chain",
               lambda t, tr, args: ladder_verdict(t, tr).as_dict()),
    "bibi": ("SO(2k+1) x SO(2r-2k-1) < D_r criterion or sweep over k", _bibi),
    "decide": ("combined verdict: ladder, then bibi, then alt",
               lambda t, tr, args: decide(t, tr, alt_search=args.alt_search).as_dict()),
}


def cmd_typed(args) -> int:
    t, tr = DynkinType.parse(args.type), Triple.parse(args.triple)
    body = TYPED[args.command][1](t, tr, args)
    _emit({"type": str(t), "triple": list(tr.orders), **body}, args)
    return 0


def _parse_shapes(text: str, m: int) -> tuple[CycleType, CycleType, CycleType]:
    parts = text.split(",")
    if len(parts) != 3 or not all(p.strip() for p in parts):  # an empty term is refused, not dropped
        raise ValueError(f"--shapes needs three comma-separated cycle types, got {text!r}")
    return tuple(CycleType.parse(p).padded(m) for p in parts)


def cmd_alt(args) -> int:
    tr = Triple.parse(args.triple)
    m = args.m
    if args.shapes:
        shapes = _parse_shapes(args.shapes, m)
        report = h1_alt(m, shapes, tr)
        target = str(alt_target(m)) if m >= 8 else None  # so_6 (m = 7) is not B or D
        _emit({"m": m, "target": target, "triple": list(tr.orders),
               "shapes": [str(s) for s in shapes], "dim_v": report.dim_g,
               "fixed": list(report.fixed_dims), "z1": report.z1, "h1": report.h1},
              args)
        return 0
    verdict = alt_saturation_check(m, tr)
    _emit({"m": m, "triple": list(tr.orders), **verdict.as_dict()}, args)
    return 0


def cmd_table(args) -> int:
    log = (lambda line: print(line, file=sys.stderr)) if args.trace else None
    report = fixtures.check_table(args.id, c_max=args.sample_c,
                                  detail=args.regenerate, log=log)
    if args.regenerate:
        _emit({"id": report["id"], "rows": report["rows"]}, args)
        return 0
    _emit(report, args)
    return 0 if report["ok"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trisat",
        description="Exact saturation tests for hyperbolic triangle groups.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tsv", action="store_true", help="flat TSV output")

    sub = parser.add_subparsers(dest="command", required=True)

    for name, (text, _) in TYPED.items():
        p = sub.add_parser(name, parents=[common], help=text)
        p.add_argument("--type", required=True, help="Dynkin type, e.g. D7")
        p.add_argument("--triple", required=True, help="triple a,b,c e.g. 2,3,7")
        p.set_defaults(func=cmd_typed)
    sub.choices["bibi"].add_argument("--k", type=_integer, default=None,
                                     help="fix the smaller factor rank")
    sub.choices["decide"].add_argument(
        "--alt-search", action="store_true",
        help="allow the exhaustive Alt_m search beyond the built-in pairs")

    p = sub.add_parser("alt", parents=[common],
                       help="alternating-group method for Alt_m")
    p.add_argument("--m", type=_integer, required=True, help="degree of Alt_m")
    p.add_argument("--triple", required=True, help="triple a,b,c")
    p.add_argument("--shapes", default=None,
                   help='three cycle types "3^3,3^3,7.1^2" (short types are '
                        "padded with fixed points); reports H^1 only")
    p.set_defaults(func=cmd_alt)

    p = sub.add_parser("table", parents=[common],
                       help="recompute a built-in table and diff it")
    p.add_argument("--trace", action="store_true", help="verbose progress/detail on stderr")
    p.add_argument("--id", required=True, choices=fixtures.TABLES)
    p.add_argument("--sample-c", type=_integer, default=tables.DEFAULT_C_MAX,
                   help="cap for parameterized rows (default %(default)s)")
    p.add_argument("--regenerate", action="store_true",
                   help="print the recomputed rows instead of diffing")
    p.set_defaults(func=cmd_table)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that is gone raises here, not at exit
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout's last flush at exit would raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code

