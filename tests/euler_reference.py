"""The Fraction recurrence for Euler zero-values and numbers, and the Fraction
sum for Euler polynomial values.

The zero-values E_n(0) come from 2 E_n(0) = -sum_{k<n} C(n,k) E_k(0)
(n >= 1), the numbers from E_m = sum_k C(m,k) 2^k E_k(0), and E_m(x) is summed
term by term over Fractions.  The library reads all three from the integer
zigzag triangle instead; ``test_euler.py`` checks that both give the same
``Fraction``s.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

_zero_values: list[Fraction] = [Fraction(1)]
_numbers: list[Fraction] = [Fraction(1)]


def _extend(degree: int) -> None:
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
