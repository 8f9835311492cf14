"""Per-identity verification records and their canonical renderings.

A report captures one checked identity instance: the two sides in canonical
form, the guaranteed precision of each side, the agreement depth (largest k
with lhs == rhs mod p^k), and a pass/fail status.  ``agreement_depth`` is
None when equality was certified exactly (rational identities, or a
difference that is the exact zero).
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, TextIO

from .padic import PadicNumber, agreement_depth, render

__all__ = [
    "VerificationReport",
    "compare_exact",
    "compare_values",
    "render_param",
    "report_to_json_line",
    "report_to_text",
    "report_writer",
]


@dataclass(frozen=True, kw_only=True)
class VerificationReport:
    identity: str
    params: tuple[tuple[str, str], ...]
    lhs: str = ""
    rhs: str = ""
    lhs_prec: int | None = None
    rhs_prec: int | None = None
    agreement_depth: int | None = None
    required_depth: int | None = None
    reference_depth: int | None = None  # the N (or step exponent) an oracle ran at
    status: str  # pass | fail | budget
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def render_param(value) -> str:
    return render(value) if isinstance(value, PadicNumber) else str(value)


def params_tuple(params: dict) -> tuple[tuple[str, str], ...]:
    return tuple((k, render_param(v)) for k, v in params.items())


def compare_values(
    identity: str,
    params: dict,
    lhs: PadicNumber,
    rhs: PadicNumber,
    required_depth: int | None = None,
    reference_depth: int | None = None,
    note: str = "",
    informational: bool = False,
) -> VerificationReport:
    """Build a report comparing two p-adic values.

    When ``required_depth`` is None the rule is the default one: pass iff
    the agreement depth reaches the minimum of the two sides' guaranteed
    precisions.
    """
    depth = agreement_depth(lhs, rhs)
    lp = lhs.absprec
    rp = rhs.absprec
    shared = min(
        lp if lp is not None else math.inf,
        rp if rp is not None else math.inf,
    )
    if required_depth is None:
        required = shared if shared != math.inf else None
    else:
        required = required_depth
    if informational:
        status = "pass"
    elif required is None:
        status = "pass" if depth == math.inf else "fail"
    else:
        status = "pass" if depth >= required else "fail"
    return VerificationReport(
        identity=identity,
        params=params_tuple(params),
        lhs=render(lhs),
        rhs=render(rhs),
        lhs_prec=lp,
        rhs_prec=rp,
        agreement_depth=None if depth == math.inf else int(depth),
        required_depth=None if required in (None, math.inf) else int(required),
        reference_depth=reference_depth,
        status=status,
        note=note,
    )


def compare_exact(
    identity: str, params: dict, lhs: Fraction, rhs: Fraction, note: str = ""
) -> VerificationReport:
    """Report on an exact rational identity (zero tolerance)."""
    return VerificationReport(
        identity=identity,
        params=params_tuple(params),
        lhs=str(lhs),
        rhs=str(rhs),
        status="pass" if lhs == rhs else "fail",
        note=note,
    )


def budget_failure(identity: str, params: dict, note: str) -> VerificationReport:
    return VerificationReport(
        identity=identity, params=params_tuple(params), status="budget", note=note
    )


def _row(rep: VerificationReport) -> dict:
    """Field name -> value; a shallow ``dataclasses.asdict``, as every value
    is immutable."""
    return {f.name: getattr(rep, f.name) for f in dataclasses.fields(rep)}


def _params_text(rep: VerificationReport) -> str:
    return " ".join(f"{k}={v}" for k, v in rep.params)


def report_to_json_line(rep: VerificationReport) -> str:
    obj = {**_row(rep), "params": dict(rep.params)}
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def report_to_text(rep: VerificationReport) -> str:
    depth = "exact" if rep.agreement_depth is None else str(rep.agreement_depth)
    req = "-" if rep.required_depth is None else str(rep.required_depth)
    line = f"[{rep.status:>6}] {rep.identity} {_params_text(rep)} depth={depth} required={req}"
    if rep.note:
        line += f"  # {rep.note}"
    return line


# the CSV column order
CSV_FIELDS = [
    "identity",
    "status",
    "agreement_depth",
    "required_depth",
    "reference_depth",
    "lhs_prec",
    "rhs_prec",
    "params",
    "lhs",
    "rhs",
    "note",
]


def report_writer(out: TextIO, fmt: str) -> Callable[[VerificationReport], bool]:
    """A function that writes one report onto the text stream ``out`` as it
    arrives, in ``fmt`` (json, csv or text), and returns whether it passed.
    For CSV the header row is written here, once."""
    if fmt == "csv":
        table = csv.DictWriter(out, fieldnames=CSV_FIELDS, lineterminator="\n")
        table.writeheader()

    def write(rep: VerificationReport) -> bool:
        if fmt == "csv":
            table.writerow({**_row(rep), "params": _params_text(rep)})
        elif fmt == "json":
            out.write(report_to_json_line(rep) + "\n")
        else:
            out.write(report_to_text(rep) + "\n")
        return rep.passed

    return write
