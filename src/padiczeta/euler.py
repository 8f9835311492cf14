"""Exact Euler numbers E_m and Euler polynomial values E_m(x).

Everything here is exact rational arithmetic.  The zero-values E_n(0) are
generated by the recurrence 2 E_n(0) = -sum_{k<n} C(n,k) E_k(0) (n >= 1),
which is the x=0 instance of E_n(x+1) + E_n(x) = 2 x^n; the numbers E_n come
out of the conversion E_m = sum_k C(m,k) 2^k E_k(0).  The companion
conversion E_m(0) = 2^-m sum_k C(m,k) (-1)^(m-k) E_k is kept as a
cross-check only.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path

from .errors import DegreeOverflow, ParseError
from .report import VerificationReport

__all__ = [
    "EulerTable",
    "build_table",
    "cache_filename",
    "euler_number",
    "euler_poly",
    "euler_zero",
    "load_table",
    "save_table",
    "table_to_json_bytes",
    "verify_euler_identities",
]

_lock = threading.Lock()
_zero_values: list[Fraction] = [Fraction(1)]
_numbers: list[Fraction] = [Fraction(1)]


def _extend(degree: int) -> None:
    with _lock:
        n = len(_zero_values)
        while n <= degree:
            s = sum(comb(n, k) * _zero_values[k] for k in range(n))
            _zero_values.append(-s / 2)
            _numbers.append(
                sum(comb(n, k) * 2**k * _zero_values[k] for k in range(n + 1))
            )
            n += 1


def euler_zero(n: int) -> Fraction:
    """E_n(0), exactly."""
    if n >= len(_zero_values):
        _extend(n)
    return _zero_values[n]


def euler_number(n: int) -> Fraction:
    """The Euler number E_n, exactly (an integer)."""
    if n >= len(_numbers):
        _extend(n)
    return _numbers[n]


def euler_poly(m: int, x) -> Fraction:
    """E_m(x) = sum_i C(m,i) E_{m-i}(0) x^i, exactly."""
    if m >= len(_zero_values):
        _extend(m)
    return _poly(_zero_values, m, x)


def _poly(zero_values, m: int, x) -> Fraction:
    """E_m(x) from zero_values[i] = E_i(0), i <= m."""
    x = Fraction(x)
    acc = Fraction(0)
    xpow = Fraction(1)
    for i in range(m + 1):
        acc += comb(m, i) * zero_values[m - i] * xpow
        xpow *= x
    return acc


@dataclass(frozen=True)
class EulerTable:
    """Immutable table of E_i(0) and E_i for 0 <= i <= max_degree."""

    max_degree: int
    zero_values: tuple[Fraction, ...]
    numbers: tuple[Fraction, ...]

    def zero_value(self, m: int) -> Fraction:
        self._check(m)
        return self.zero_values[m]

    def number(self, m: int) -> Fraction:
        self._check(m)
        return self.numbers[m]

    def poly(self, m: int, x) -> Fraction:
        """E_m(x) from the tabled coefficients."""
        self._check(m)
        return _poly(self.zero_values, m, x)

    def _check(self, m: int) -> None:
        if not 0 <= m <= self.max_degree:
            raise DegreeOverflow(
                f"degree {m} outside table (max {self.max_degree});"
                " build a larger table"
            )


def build_table(max_degree: int) -> EulerTable:
    if max_degree < 0:
        raise DegreeOverflow("max_degree must be >= 0")
    _extend(max_degree)
    with _lock:
        return EulerTable(
            max_degree,
            tuple(_zero_values[: max_degree + 1]),
            tuple(_numbers[: max_degree + 1]),
        )


# ---- persistent cache format -------------------------------------------------


def table_to_json_bytes(table: EulerTable) -> bytes:
    obj = {
        "version": 1,
        "max_degree": table.max_degree,
        "E0": [[str(q.numerator), str(q.denominator)] for q in table.zero_values],
        "E": [[str(q.numerator), str(q.denominator)] for q in table.numbers],
    }
    return (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n").encode()


def cache_filename(max_degree: int) -> str:
    return f"euler_table_M{max_degree}.json"


def save_table(table: EulerTable, path) -> Path:
    path = Path(path)
    if path.is_dir():
        path = path / cache_filename(table.max_degree)
    path.write_bytes(table_to_json_bytes(table))
    return path


def load_table(path) -> EulerTable:
    try:
        obj = json.loads(Path(path).read_bytes())
        if obj["version"] != 1:
            raise ParseError(f"unsupported table version {obj['version']}")
        zeros = tuple(Fraction(int(n), int(d)) for n, d in obj["E0"])
        nums = tuple(Fraction(int(n), int(d)) for n, d in obj["E"])
        table = EulerTable(int(obj["max_degree"]), zeros, nums)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed Euler table file {path}") from exc
    if len(zeros) != table.max_degree + 1 or len(nums) != table.max_degree + 1:
        raise ParseError(f"inconsistent Euler table file {path}")
    return table


# ---- identity network ---------------------------------------------------------

_SHIFT_POINTS = [
    Fraction(0),
    Fraction(1),
    Fraction(-1),
    Fraction(1, 2),
    Fraction(-1, 2),
    Fraction(3),
    Fraction(2, 3),
    Fraction(-5, 4),
    Fraction(7, 2),
    Fraction(-3),
]

_QUADRATIC_POINTS = [
    Fraction(0),
    Fraction(1),
    Fraction(1, 2),
    Fraction(-1, 2),
    Fraction(3, 4),
]


def verify_euler_identities(max_degree: int) -> list[VerificationReport]:
    """Exact checks of the identity network up to the given degree.

    Covers: the E <-> E(0) conversion, the shift identity
    E_m(x+1) + E_m(x) = 2 x^m, the reflection E_m(1-x) = (-1)^m E_m(x),
    the distribution identity E_n(0) = N^n sum_j (-1)^j E_n(j/N) for odd N,
    and the quadratic convolution
    sum_i C(m,i) E_i(x) E_{m-i}(x) = 2((1-2x) E_m(2x) + E_{m+1}(2x)).
    All comparisons are exact with zero tolerance.
    """
    table = build_table(max_degree + 1)
    reports = []

    def aggregate(name: str, params: dict, failures: list[str]) -> None:
        reports.append(
            VerificationReport(
                identity=name,
                params=tuple((k, str(v)) for k, v in params.items()),
                lhs="(exact rational identity)",
                rhs="(exact rational identity)",
                lhs_prec=None,
                rhs_prec=None,
                agreement_depth=None,
                required_depth=None,
                reference_depth=None,
                status="pass" if not failures else "fail",
                note="" if not failures else "; ".join(failures[:4]),
            )
        )

    fails = []
    for m in range(max_degree + 1):
        lhs = table.zero_value(m)
        rhs = Fraction(
            sum(comb(m, k) * (-1) ** (m - k) * table.number(k) for k in range(m + 1)),
            2**m,
        )
        if lhs != rhs:
            fails.append(f"conversion m={m}")
    aggregate("euler-conversion", {"max_degree": max_degree}, fails)

    fails = []
    for m in range(max_degree + 1):
        for x in _SHIFT_POINTS:
            if table.poly(m, x + 1) + table.poly(m, x) != 2 * x**m:
                fails.append(f"shift m={m} x={x}")
    aggregate("euler-shift", {"max_degree": max_degree, "points": len(_SHIFT_POINTS)}, fails)

    fails = []
    for m in range(max_degree + 1):
        for x in _SHIFT_POINTS:
            if table.poly(m, 1 - x) != (-1) ** m * table.poly(m, x):
                fails.append(f"reflection m={m} x={x}")
    aggregate("euler-reflection", {"max_degree": max_degree}, fails)

    fails = []
    for n_mod in (1, 3, 5):
        for m in range(max_degree + 1):
            rhs = Fraction(n_mod) ** m * sum(
                (-1) ** j * table.poly(m, Fraction(j, n_mod)) for j in range(n_mod)
            )
            if table.zero_value(m) != rhs:
                fails.append(f"distribution N={n_mod} m={m}")
    aggregate("euler-distribution", {"max_degree": max_degree, "N": "1,3,5"}, fails)

    fails = []
    for m in range(max_degree + 1):
        for x in _QUADRATIC_POINTS:
            lhs = sum(
                comb(m, i) * table.poly(i, x) * table.poly(m - i, x)
                for i in range(m + 1)
            )
            rhs = 2 * ((1 - 2 * x) * table.poly(m, 2 * x) + table.poly(m + 1, 2 * x))
            if lhs != rhs:
                fails.append(f"quadratic m={m} x={x}")
    aggregate(
        "euler-quadratic", {"max_degree": max_degree, "points": len(_QUADRATIC_POINTS)}, fails
    )

    return reports
