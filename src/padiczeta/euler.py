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

The integer (2b)^m E_m(a/b) itself is ``_scaled_poly``; the Laurent
coefficient sets of ``zeta_czp`` read it, as ``euler_poly`` does before its
one division.

The ``euler-exact`` identity of ``verify`` cross-checks these values against
the defining relations, which the triangle never uses.  Its ``euler-shift``
check at x = 0, E_n(1) + E_n(0) = 0, is the recurrence
2 E_n(0) = -sum_{k<n} C(n,k) E_k(0); ``euler-conversion``,
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

__all__ = [
    "euler_number",
    "euler_poly",
    "euler_zero",
    "table_json",
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


def _scaled_poly(m: int, a: int, b: int) -> int:
    """(2b)^m E_m(a/b), an integer: sum_i C(m,i) 2^(m-i) E_(m-i)(0) (2a)^i b^(m-i)."""
    if not a:
        return _scaled_zero(m) * b**m
    _zigzag(m)  # a degree out of range raises here, not as an empty sum
    a2 = 2 * a
    total = 0
    for j in range(m + 1):  # j = m - i
        z = _scaled_zero(j)
        if z:
            total += comb(m, j) * z * a2 ** (m - j) * b**j
    return total


def euler_poly(m: int, x) -> Fraction:
    """E_m(x) = sum_i C(m,i) E_{m-i}(0) x^i, exactly."""
    x = Fraction(x)
    b = x.denominator
    return Fraction(_scaled_poly(m, x.numerator, b), (2 * b) ** m)


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
