import random
from fractions import Fraction

import euler_reference as ref
import pytest
import sympy

from padiczeta import euler
from padiczeta.errors import DegreeOverflow
from padiczeta.verify import VerifyConfig, run_verify


# hand-run recurrence 2 E_n(0) = -sum_{k<n} C(n,k) E_k(0) for n <= 4
HAND_ZERO_VALUES = [
    Fraction(1),
    Fraction(-1, 2),
    Fraction(0),
    Fraction(1, 4),
    Fraction(0),
]


def test_zero_values_match_hand_recurrence():
    for n, expected in enumerate(HAND_ZERO_VALUES):
        assert euler.euler_zero(n) == expected


def test_numbers_small():
    assert euler.euler_number(0) == 1
    assert euler.euler_number(2) == -1
    assert euler.euler_number(4) == 5
    assert euler.euler_number(6) == -61


def test_odd_numbers_vanish():
    for m in range(1, 22, 2):
        assert euler.euler_number(m) == 0


def test_sympy_cross_check():
    # independent implementation of both the numbers and the polynomials
    x = sympy.Symbol("x")
    for m in range(0, 26):
        assert euler.euler_number(m) == int(sympy.euler(m))
    for m in range(0, 12):
        poly = sympy.euler(m, x)
        for q in (Fraction(0), Fraction(1, 2), Fraction(3), Fraction(-2, 3)):
            expected = Fraction(str(poly.subs(x, sympy.Rational(q.numerator, q.denominator))))
            assert euler.euler_poly(m, q) == expected


def test_poly_at_half_and_spec_points():
    # E_m(1/2) = E_m / 2^m; vanishes for odd m
    for m in range(0, 16):
        assert euler.euler_poly(m, Fraction(1, 2)) == Fraction(
            euler.euler_number(m), 2**m
        )
    assert euler.euler_poly(1, Fraction(3)) == Fraction(5, 2)
    assert euler.euler_poly(0, Fraction(7, 11)) == 1


def test_zero_value_denominators_are_two_powers():
    for n in range(0, 30):
        den = euler.euler_zero(n).denominator
        assert den & (den - 1) == 0  # power of two, so a p-adic integer for odd p


def test_identity_network_exact():
    reports = list(run_verify(VerifyConfig(), ["euler-exact"]))
    assert {r.identity for r in reports} == {
        "euler-conversion",
        "euler-shift",
        "euler-reflection",
        "euler-distribution",
        "euler-quadratic",
    }
    assert all(r.status == "pass" for r in reports)


def test_zero_values_and_numbers_match_the_fraction_recurrence():
    for n in range(301):
        assert euler.euler_zero(n) == ref.euler_zero(n), n
        assert euler.euler_number(n) == ref.euler_number(n), n


def _poly_points():
    rng = random.Random(20259)
    points = [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2)]
    for _ in range(24):
        points.append(Fraction(rng.randrange(-50, 51), rng.randrange(1, 30)))
    for _ in range(10):
        den = rng.randrange(10**12, 10**15)
        points.append(Fraction(rng.randrange(-(10**18), 10**18), den))
    return points


def test_poly_matches_the_fraction_sum():
    points = _poly_points()
    assert len(set(points)) > 30
    for m in range(80):
        for x in points:
            assert euler.euler_poly(m, x) == ref.euler_poly(m, x), (m, x)


@pytest.mark.parametrize(
    "call",
    [
        lambda: euler.euler_zero(-1),
        lambda: euler.euler_number(-1),
        lambda: euler.euler_poly(-3, Fraction(1, 2)),
        lambda: euler.table_json(-1),
    ],
)
def test_negative_degree_raises(call):
    euler.euler_number(40)  # a warm list must not answer from its far end
    with pytest.raises(DegreeOverflow):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: euler.euler_zero(euler.MAX_DEGREE + 1),
        lambda: euler.euler_number(10**8),
        lambda: euler.euler_poly(euler.MAX_DEGREE + 1, Fraction(1, 2)),
        lambda: euler.table_json(10**8),
    ],
)
def test_degree_above_the_bound_raises_before_growth(call):
    grown = len(euler._zigzags)
    with pytest.raises(DegreeOverflow):
        call()
    assert len(euler._zigzags) == grown
