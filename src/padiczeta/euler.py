"""Exact Euler numbers E_m and Euler polynomial values E_m(x).

Every value is read from one list of integers, the zigzag numbers A_n
(1, 1, 1, 2, 5, 16, 61, 272, ...): the secant numbers at even n and the
tangent numbers at odd n.  A_n is the last entry of row n of the
Seidel-Entringer (boustrophedon) triangle, whose row n is the running sums,
from 0, of row n-1 read backwards; the list grows from its last row by integer
additions only (Knuth-Buckholtz, Math. Comp. 21, 1967).  Three read-out rules
give the rest:

* E_n = (-1)^(n/2) A_n for even n, and 0 for odd n;
* 2^n E_n(0) is 1 at n = 0, 0 at even n >= 2, and (-1)^k A_n at n = 2k-1;
* E_m(a/b) = sum_i C(m,i) 2^(m-i) E_(m-i)(0) (2a)^i b^(m-i), divided once by
  2^m b^m.

The ``euler-exact`` identity network (``verify_euler_identities``) still
cross-checks these values against the defining relations, which the triangle
never uses.  Its ``euler-shift`` check at x = 0, E_n(1) + E_n(0) = 0, is the
recurrence 2 E_n(0) = -sum_{k<n} C(n,k) E_k(0); ``euler-conversion``,
E_m(0) = 2^-m sum_k C(m,k) (-1)^(m-k) E_k, relates the tangent half of the
triangle to the secant half.

A degree outside [0, MAX_DEGREE] raises ``DegreeOverflow`` before the
triangle grows.  Row n holds about n^2 log2(n) bits: at MAX_DEGREE = 6000 the
last row and the zigzag list hold 47 + 22 MB of integers (a peak RSS of
160 MB), grown in under a minute.  The bound equals the default series
budget of 6000 terms: a Laurent series within that budget reads E_i(0) or
E_i(u) for i <= 6000, so the bound never refuses it.
"""

from __future__ import annotations

import json
import threading
from fractions import Fraction
from itertools import accumulate
from math import comb

from .errors import DegreeOverflow
from .report import VerificationReport, params_tuple

__all__ = [
    "euler_number",
    "euler_poly",
    "euler_zero",
    "table_json",
    "verify_euler_identities",
]

MAX_DEGREE = 6000

_lock = threading.Lock()
_zigzags: list[int] = [1]  # A_0, A_1, ...
_row: list[int] = [1]  # the last row of the triangle, ending in _zigzags[-1]


def _zigzag(n: int) -> int:
    """A_n, extending the triangle as far as row n."""
    global _row
    if not 0 <= n <= MAX_DEGREE:
        raise DegreeOverflow(f"Euler degree must lie in [0, {MAX_DEGREE}], got {n}")
    if n >= len(_zigzags):
        with _lock:
            while len(_zigzags) <= n:
                _row = list(accumulate(reversed(_row), initial=0))
                _zigzags.append(_row[-1])
    return _zigzags[n]


def _scaled_zero(n: int) -> int:
    """2^n E_n(0), an integer."""
    a = _zigzag(n)
    if n % 2 == 0:
        return int(n == 0)
    return (-1) ** ((n + 1) // 2) * a


def euler_zero(n: int) -> Fraction:
    """E_n(0), exactly."""
    return Fraction(_scaled_zero(n), 2**n)


def euler_number(n: int) -> Fraction:
    """The Euler number E_n, exactly (an integer)."""
    a = _zigzag(n)
    return Fraction(0 if n % 2 else (-1) ** (n // 2) * a)


def euler_poly(m: int, x) -> Fraction:
    """E_m(x) = sum_i C(m,i) E_{m-i}(0) x^i, exactly."""
    _zigzag(m)  # a degree out of range raises here, not as an empty sum
    x = Fraction(x)
    a2, b = 2 * x.numerator, x.denominator
    total = 0
    for j in range(m + 1):  # j = m - i
        z = _scaled_zero(j)
        if z:
            total += comb(m, j) * z * a2 ** (m - j) * b**j
    return Fraction(total, (2 * b) ** m)


def table_json(max_degree: int) -> str:
    """E_i(0) and E_i for 0 <= i <= max_degree as one line of sorted, compact JSON."""
    _zigzag(max_degree)  # a degree out of range raises here, not as an empty table
    degrees = range(max_degree + 1)
    obj = {
        "version": 1,
        "max_degree": max_degree,
        "E0": [[str(q.numerator), str(q.denominator)] for q in map(euler_zero, degrees)],
        "E": [[str(q.numerator), str(q.denominator)] for q in map(euler_number, degrees)],
    }
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


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
    reports = []

    def aggregate(name: str, params: dict, failures: list[str]) -> None:
        reports.append(
            VerificationReport(
                identity=name,
                params=params_tuple(params),
                lhs="(exact rational identity)",
                rhs="(exact rational identity)",
                status="pass" if not failures else "fail",
                note="; ".join(failures[:4]),
            )
        )

    fails = []
    for m in range(max_degree + 1):
        lhs = euler_zero(m)
        rhs = Fraction(
            sum(comb(m, k) * (-1) ** (m - k) * euler_number(k) for k in range(m + 1)),
            2**m,
        )
        if lhs != rhs:
            fails.append(f"conversion m={m}")
    aggregate("euler-conversion", {"max_degree": max_degree}, fails)

    fails = []
    for m in range(max_degree + 1):
        for x in _SHIFT_POINTS:
            if euler_poly(m, x + 1) + euler_poly(m, x) != 2 * x**m:
                fails.append(f"shift m={m} x={x}")
    aggregate("euler-shift", {"max_degree": max_degree, "points": len(_SHIFT_POINTS)}, fails)

    fails = []
    for m in range(max_degree + 1):
        for x in _SHIFT_POINTS:
            if euler_poly(m, 1 - x) != (-1) ** m * euler_poly(m, x):
                fails.append(f"reflection m={m} x={x}")
    aggregate("euler-reflection", {"max_degree": max_degree}, fails)

    fails = []
    for n_mod in (1, 3, 5):
        for m in range(max_degree + 1):
            rhs = Fraction(n_mod) ** m * sum(
                (-1) ** j * euler_poly(m, Fraction(j, n_mod)) for j in range(n_mod)
            )
            if euler_zero(m) != rhs:
                fails.append(f"distribution N={n_mod} m={m}")
    aggregate("euler-distribution", {"max_degree": max_degree, "N": "1,3,5"}, fails)

    fails = []
    for m in range(max_degree + 1):
        for x in _QUADRATIC_POINTS:
            lhs = sum(
                comb(m, i) * euler_poly(i, x) * euler_poly(m - i, x)
                for i in range(m + 1)
            )
            rhs = 2 * ((1 - 2 * x) * euler_poly(m, 2 * x) + euler_poly(m + 1, 2 * x))
            if lhs != rhs:
                fails.append(f"quadratic m={m} x={x}")
    aggregate(
        "euler-quadratic", {"max_degree": max_degree, "points": len(_QUADRATIC_POINTS)}, fails
    )

    return reports
