"""Command-line interface: compute single values, emit tables, run the
identity verification suite.

Every command writes its lines into an unnamed temporary file as it
produces them (``verify`` each report, ``table`` each row) and keeps none
of them; ``main`` copies the file to -o PATH or stdout once the command
ends, so a command stopped by an error leaves both untouched.

Exit codes: 0 success / all identities pass, 1 verification failure,
2 usage or domain error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from contextlib import nullcontext
from fractions import Fraction
from typing import TextIO

from . import euler
from .characters import DirichletCharacter
from .errors import ArgumentViolation, PadicError
from .padic import PadicContext, PadicNumber, parse_rational, render, to_json_dict
from .report import report_writer
from .zeta_char import ell, zeta_char
from .zeta_czp import SeriesBudget, zeta_czp

COMPUTE_TARGETS = (
    "zeta-czp",
    "zeta-char",
    "ell",
    "euler-number",
    "euler-poly",
    "teichmuller",
)


def _common_options() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--p", type=int, default=None, help="odd prime (default 5)")
    common.add_argument(
        "--prec", type=int, default=16, help="guaranteed p-adic digits (default 16)"
    )
    common.add_argument(
        "--guard", type=int, default=8, help="internal guard digits (default 8)"
    )
    common.add_argument(
        "--format",
        choices=("text", "json", "csv"),
        default="text",
        help="output format: compute writes JSON with json and text otherwise; verify "
        "writes text, JSON lines or CSV; table euler always writes JSON and refuses csv, "
        "table zeta-values and ell-values write JSON with json and CSV otherwise",
    )
    common.add_argument(
        "--threads", type=int, default=1, help="has no effect (verify runs serially)"
    )
    common.add_argument(
        "--oracle-depth", type=int, default=5, help="truncation depth N for oracles"
    )
    common.add_argument(
        "--max-terms", type=int, default=6000, help="series term budget"
    )
    common.add_argument("--seed", type=int, default=20259, help="grid sampling seed")
    common.add_argument("-o", "--output", default=None, help="write output to PATH")
    return common


def build_parser() -> argparse.ArgumentParser:
    common = _common_options()
    parser = argparse.ArgumentParser(
        prog="padiczeta",
        description="p-adic Hurwitz-type Euler zeta functions: computation and "
        "identity verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser(
        "compute", parents=[common], help="evaluate one quantity"
    )
    p_compute.add_argument("target", choices=COMPUTE_TARGETS)
    p_compute.add_argument("--s", default=None, help="s as 'a/b' or digits 'v:d0,d1,...'")
    p_compute.add_argument("--x", default=None, help="x as 'a/b' or digits 'v:d0,d1,...'")
    p_compute.add_argument("--m", type=int, default=None, help="degree/index m")
    p_compute.add_argument("--char", default=None, help="character as 'v:k'")

    p_verify = sub.add_parser(
        "verify", parents=[common], help="run the identity verification suite"
    )
    p_verify.add_argument(
        "--identity",
        action="append",
        default=None,
        help="identity name or comma list (default: all); repeatable",
    )
    p_verify.add_argument(
        "--list-identities", action="store_true", help="list identity names and exit"
    )
    p_verify.add_argument(
        "--primes", default=None, help="comma list of primes (default 3,5,7)"
    )
    p_verify.add_argument(
        "--report-both-forms",
        action="store_true",
        help="also record residuals of the rearranged closed forms (informational)",
    )

    p_table = sub.add_parser(
        "table", parents=[common], help="emit value tables (json or csv)"
    )
    p_table.add_argument("kind", choices=("euler", "zeta-values", "ell-values"))
    p_table.add_argument("--max", type=int, default=20, help="euler: max degree")
    p_table.add_argument("--s-list", default="0,1,2", help="comma list of rationals")
    p_table.add_argument("--x-list", default=None, help="comma list of rationals")
    p_table.add_argument(
        "--chars",
        default=None,
        help="characters: 'v:k,v:k,...' or 'a..b' (v=1; default 0..min(3, p-2))",
    )
    return parser


def _emit(args, out: TextIO) -> None:
    """Copy ``out`` from its start to -o PATH (opened with mode "w", so PATH
    keeps its mode) or to stdout."""
    out.seek(0)
    target = open(args.output, "w", encoding="utf-8") if args.output else nullcontext(sys.stdout)
    with target as dest:
        shutil.copyfileobj(out, dest)


def _context(args) -> PadicContext:
    return PadicContext(args.p if args.p is not None else 5, args.prec, args.guard)


def _cmd_compute(args, out: TextIO) -> int:
    ctx = _context(args)
    budget = SeriesBudget(max_terms=args.max_terms, target_prec=args.prec)

    def need(flag, value):
        if value is None:
            raise PadicError(f"{args.target} requires {flag}")
        return value

    if args.target == "euler-number":
        value = euler.euler_number(need("--m", args.m))
    elif args.target == "euler-poly":
        m = need("--m", args.m)
        x = parse_rational(need("--x", args.x))
        value = euler.euler_poly(m, x)
    elif args.target == "zeta-czp":
        s = ctx.parse_value(need("--s", args.s))
        x = ctx.parse_value(need("--x", args.x))
        value = zeta_czp(ctx, s, x, budget)
    elif args.target == "zeta-char":
        chi = DirichletCharacter.parse(need("--char", args.char), ctx.p)
        s = ctx.parse_value(need("--s", args.s))
        x = ctx.parse_value(need("--x", args.x))
        value = zeta_char(ctx, chi, s, x, budget)
    elif args.target == "ell":
        chi = DirichletCharacter.parse(need("--char", args.char), ctx.p)
        s = ctx.parse_value(need("--s", args.s))
        value = ell(ctx, chi, s, budget)
    else:  # teichmuller
        x = ctx.parse_value(need("--x", args.x))
        value = ctx.teichmuller(x)

    if isinstance(value, PadicNumber):
        kind, text, data = "padic", render, to_json_dict
    else:
        kind, text, data = "rational", str, str
    if args.format == "json":
        payload = {"kind": kind, "value": data(value)}
        out.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")
    else:
        out.write(text(value) + "\n")
    return 0


def _selected_identities(args) -> list[str] | None:
    if not args.identity:
        return None
    names: list[str] = []
    for entry in args.identity:
        names.extend(n.strip() for n in entry.split(",") if n.strip())
    if any(n == "all" for n in names):
        return None
    return names


def _cmd_verify(args, out: TextIO) -> int:
    # imported here, so that compute and table do not load the identity network
    from .verify import IDENTITY_NAMES, VerifyConfig, run_verify

    if args.list_identities:
        out.writelines(name + "\n" for name in IDENTITY_NAMES)
        return 0
    if args.primes:
        primes = tuple(int(t) for t in args.primes.split(","))
    elif args.p is not None:
        primes = (args.p,)
    else:
        primes = (3, 5, 7)
    cfg = VerifyConfig(
        primes=primes,
        workprec=args.prec,
        series_guard=args.guard,
        oracle_depth=args.oracle_depth,
        max_terms=args.max_terms,
        seed=args.seed,
        report_both_forms=args.report_both_forms,
    )
    # each report is written as its check returns it and then dropped (map,
    # unlike a loop variable, keeps no reference to the last one)
    write = report_writer(out, args.format)
    total = failed = 0
    for passed in map(write, run_verify(cfg, _selected_identities(args))):
        total += 1
        failed += not passed
    if not args.output:
        sys.stderr.write(f"{total} checks, {failed} failed\n")
    return 1 if failed else 0


def _parse_rational_list(text: str) -> list[Fraction]:
    return [parse_rational(t) for t in text.split(",") if t.strip()]


def _parse_chars(text: str, p: int) -> list[DirichletCharacter]:
    text = text.strip()
    if ".." in text:
        lo, _, hi = text.partition("..")
        return [DirichletCharacter(p, 1, k) for k in range(int(lo), int(hi) + 1)]
    return [DirichletCharacter.parse(t, p) for t in text.split(",") if t.strip()]


def _table_rows(args, ctx: PadicContext, budget: SeriesBudget):
    """Yield each row's argument columns with its value, as the value is computed."""
    if args.kind == "zeta-values":
        if not args.x_list:
            raise PadicError("zeta-values requires --x-list")
        for s in _parse_rational_list(args.s_list):
            for x in _parse_rational_list(args.x_list):
                yield {"s": str(s), "x": str(x)}, zeta_czp(ctx, s, x, budget)
    else:  # ell-values
        for chi in _parse_chars(args.chars or f"0..{min(3, ctx.p - 2)}", ctx.p):
            for s in _parse_rational_list(args.s_list):
                yield {"char": chi.label, "s": str(s)}, ell(ctx, chi, s, budget)


def _cmd_table(args, out: TextIO) -> int:
    ctx = _context(args)
    budget = SeriesBudget(max_terms=args.max_terms, target_prec=args.prec)
    if args.kind == "euler":
        if args.format == "csv":
            raise ArgumentViolation("table euler writes JSON only; --format csv is refused")
        out.write(euler.table_json(args.max))
        return 0
    # JSON is one sorted, compact list; CSV (also for --format text) takes its
    # header from the first row's keys
    n = 0
    for n, (columns, value) in enumerate(_table_rows(args, ctx, budget), 1):
        row = {"p": ctx.p, "prec": args.prec, **columns, "value": render(value)}
        if args.format == "json":
            row["value_json"] = to_json_dict(value)
            line = json.dumps(row, sort_keys=True, separators=(",", ":"))
            out.write(("," if n > 1 else "[") + line)
        else:
            if n == 1:
                out.write(",".join(row) + "\n")
            out.write(",".join(f'"{v}"' for v in row.values()) + "\n")
    if not n:
        raise PadicError("table selection produced no rows")
    if args.format == "json":
        out.write("]\n")
    return 0


_COMMANDS = {"compute": _cmd_compute, "verify": _cmd_verify, "table": _cmd_table}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # the command writes into an unnamed file as it goes, so a run that
        # ends in an error (exit 2 or 3) leaves -o PATH and stdout untouched
        with tempfile.TemporaryFile("w+", encoding="utf-8", newline="") as out:
            code = _COMMANDS[args.command](args, out)
            _emit(args, out)
        return code
    except PadicError as exc:
        error = {"error": {"code": exc.code, "message": str(exc)}}
        print(json.dumps(error, sort_keys=True), file=sys.stderr)
        return 2
    except ValueError as exc:
        error = {"error": {"code": "InvalidArgument", "message": str(exc)}}
        print(json.dumps(error, sort_keys=True), file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
