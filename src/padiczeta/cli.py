"""Command-line interface: compute single values, emit tables, run the
identity verification suite.

Exit codes: 0 success / all identities pass, 1 verification failure,
2 usage or domain error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import euler
from .characters import DirichletCharacter
from .errors import PadicError
from .padic import PadicContext, parse_rational, render, to_json_dict
from .report import report_to_json_line, report_to_text, reports_to_csv
from .verify import (
    IDENTITY_NAMES,
    VerifyConfig,
    calibrate,
    default_slack,
    load_slack,
    run_verify,
)
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
        help="output format (csv applies to verify and table)",
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
        "--calibrate",
        action="store_true",
        help="measure oracle slack constants and write a fixture",
    )
    p_verify.add_argument(
        "--slack-fixture", default=None, help="path to a calibration fixture"
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
        "--chars", default="0..3", help="characters: 'v:k,v:k,...' or 'a..b' (v=1)"
    )
    return parser


def _emit(args, text: str) -> None:
    if args.output:
        try:
            Path(args.output).write_text(text, encoding="utf-8")
        except OSError as exc:
            print(f"I/O error: {exc}", file=sys.stderr)
            raise SystemExit(3)
    else:
        sys.stdout.write(text)


def _context(args) -> PadicContext:
    return PadicContext(args.p if args.p is not None else 5, args.prec, args.guard)


def _cmd_compute(args) -> int:
    ctx = _context(args)
    budget = SeriesBudget(max_terms=args.max_terms, target_prec=args.prec)

    def need(flag, value):
        if value is None:
            raise PadicError(f"{args.target} requires {flag}")
        return value

    if args.target == "euler-number":
        m = need("--m", args.m)
        value = euler.euler_number(m)
        payload = {"kind": "rational", "value": str(value)}
        text = str(value)
    elif args.target == "euler-poly":
        m = need("--m", args.m)
        x = parse_rational(need("--x", args.x))
        value = euler.euler_poly(m, x)
        payload = {"kind": "rational", "value": str(value)}
        text = str(value)
    else:
        if args.target == "zeta-czp":
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
        payload = {"kind": "padic", "value": to_json_dict(value)}
        text = render(value)

    if args.format == "json":
        _emit(args, json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")
    else:
        _emit(args, text + "\n")
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


def _cmd_verify(args) -> int:
    if args.list_identities:
        _emit(args, "\n".join(IDENTITY_NAMES) + "\n")
        return 0
    if args.oracle_depth < 2:
        raise ValueError(f"--oracle-depth must be at least 2, got {args.oracle_depth}")
    if args.primes:
        primes = tuple(int(t) for t in args.primes.split(","))
    elif args.p is not None:
        primes = (args.p,)
    else:
        primes = (3, 5, 7)
    slack = load_slack(args.slack_fixture) if args.slack_fixture else default_slack()
    cfg = VerifyConfig(
        primes=primes,
        workprec=args.prec,
        series_guard=args.guard,
        oracle_depth=args.oracle_depth,
        max_terms=args.max_terms,
        seed=args.seed,
        report_both_forms=args.report_both_forms,
        slack=slack,
    )
    if args.calibrate:
        measured = calibrate(cfg)
        body = (
            json.dumps(
                {"families": measured, "version": 1},
                sort_keys=True,
                separators=(",", ":"),
            )
            + "\n"
        )
        _emit(args, body)
        exceeded = {
            name: c for name, c in measured.items() if c > int(slack.get(name, 0))
        }
        if exceeded:
            print(f"measured slack exceeds fixture: {exceeded}", file=sys.stderr)
            return 1
        return 0
    reports = run_verify(cfg, _selected_identities(args))
    if args.format == "json":
        body = "".join(report_to_json_line(r) + "\n" for r in reports)
    elif args.format == "csv":
        body = reports_to_csv(reports)
    else:
        body = "".join(report_to_text(r) + "\n" for r in reports)
    _emit(args, body)
    failed = [r for r in reports if not r.passed]
    summary = f"{len(reports)} checks, {len(failed)} failed\n"
    if not args.output:
        sys.stderr.write(summary)
    return 1 if failed else 0


def _parse_rational_list(text: str) -> list[Fraction]:
    return [parse_rational(t) for t in text.split(",") if t.strip()]


def _parse_chars(text: str, p: int) -> list[DirichletCharacter]:
    text = text.strip()
    if ".." in text:
        lo, _, hi = text.partition("..")
        return [DirichletCharacter(p, 1, k) for k in range(int(lo), int(hi) + 1)]
    return [DirichletCharacter.parse(t, p) for t in text.split(",") if t.strip()]


def _cmd_table(args) -> int:
    ctx = _context(args)
    budget = SeriesBudget(max_terms=args.max_terms, target_prec=args.prec)
    if args.kind == "euler":
        table = euler.build_table(args.max)
        body = euler.table_to_json_bytes(table).decode()
        _emit(args, body)
        return 0

    rows: list[dict] = []
    if args.kind == "zeta-values":
        if not args.x_list:
            raise PadicError("zeta-values requires --x-list")
        for s in _parse_rational_list(args.s_list):
            for x in _parse_rational_list(args.x_list):
                value = zeta_czp(ctx, s, x, budget)
                rows.append(
                    {
                        "p": ctx.p,
                        "prec": args.prec,
                        "s": str(s),
                        "x": str(x),
                        "value": render(value),
                        "value_json": to_json_dict(value),
                    }
                )
    else:  # ell-values
        for chi in _parse_chars(args.chars, ctx.p):
            for s in _parse_rational_list(args.s_list):
                value = ell(ctx, chi, s, budget)
                rows.append(
                    {
                        "p": ctx.p,
                        "prec": args.prec,
                        "char": chi.label,
                        "s": str(s),
                        "value": render(value),
                        "value_json": to_json_dict(value),
                    }
                )

    if not rows:
        raise PadicError("table selection produced no rows")
    if args.format == "json":
        body = json.dumps(rows, sort_keys=True, separators=(",", ":")) + "\n"
    else:
        cols = [c for c in ("p", "prec", "char", "s", "x", "value") if c in rows[0]]
        lines = [",".join(cols)]
        for row in rows:
            lines.append(",".join(f'"{row[c]}"' for c in cols))
        body = "\n".join(lines) + "\n"
    _emit(args, body)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "compute":
            return _cmd_compute(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_table(args)
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
