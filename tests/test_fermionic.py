import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padiczeta import euler, kernels
from padiczeta.characters import DirichletCharacter
from padiczeta.errors import EvaluationCapExceeded
from padiczeta.fermionic import (
    Integrand,
    alternating_power_sum,
    change_of_variable,
    integral_of_polynomial,
    integrate_monomial_shift,
    integrate_truncated,
)
from padiczeta.padic import PadicContext, agreement_depth
from padiczeta.verify import (
    _ALTERNATING_POINTS,
    _CHANGE_OF_VARIABLE_CASES,
    VerifyConfig,
    _check_change_of_variable,
    _check_shift_integral,
    _literal_alternating_sum,
)


class TestMonomialShift:
    def test_constant(self, ctx3):
        assert integrate_monomial_shift(ctx3, 0, Fraction(0)) == 1

    def test_linear_at_zero(self, ctx5):
        assert integrate_monomial_shift(ctx5, 1, Fraction(0)) == Fraction(-1, 2)

    def test_square_at_one_vanishes(self, ctx5):
        v = integrate_monomial_shift(ctx5, 2, Fraction(1))
        assert v.is_zero()


class TestTruncatedSums:
    def test_constant_is_exactly_one_at_every_depth(self, ctx3, ctx5):
        one = Integrand.polynomial([1])
        for ctx, depths in ((ctx3, (1, 2, 3, 4)), (ctx5, (1, 2, 3))):
            for n in depths:
                assert integrate_truncated(ctx, one, n) == 1

    def test_identity_function_nine_terms(self, ctx3):
        # sum_{a<9} (-1)^a a = 0-1+2-3+4-5+6-7+8 = 4
        v = integrate_truncated(ctx3, Integrand.polynomial([0, 1]), 2)
        assert v == 4
        # consistent with the closed form: v_3(4 - E_1(0)) >= 2
        e1 = ctx3.from_fraction(euler.euler_zero(1))
        assert agreement_depth(v, e1) >= 2

    def test_cap_refuses(self, ctx5):
        with pytest.raises(EvaluationCapExceeded):
            integrate_truncated(ctx5, Integrand.polynomial([1]), 9)

    def test_kernel_matches_object_level_sum(self, ctx3):
        # the integer-arithmetic kernel and the generic PadicNumber loop are
        # independent routes to the same partial sum
        x = Fraction(1, 2)
        sums = kernels.monomial_alternating_sums(3, 20, x, 3, (3,))
        f = Integrand.polynomial([x**3, 3 * x**2, 3 * x, 1])  # (1/2 + a)^3
        direct = integrate_truncated(ctx3, f, 3)
        assert agreement_depth(sums[(3, 3)], direct) >= 18


class TestAlternatingPowerSum:
    def test_single_term(self):
        assert alternating_power_sum(3, 1, Fraction(2, 7)) == Fraction(8, 343)

    def test_nine_terms_linear(self):
        assert alternating_power_sum(1, 9, Fraction(0)) == 4

    def test_odd_length_constant(self):
        for rho in (1, 3, 27, 729):
            assert alternating_power_sum(0, rho, Fraction(0)) == 1

    @given(
        st.integers(0, 6),
        st.integers(1, 90),
        st.fractions(min_value=-50, max_value=50, max_denominator=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_literal_sum(self, m, rho, x):
        literal = sum((-1) ** a * (x + a) ** m for a in range(rho))
        assert alternating_power_sum(m, rho, x) == literal

    def test_matches_literal_sum_at_729(self):
        x = Fraction(1, 2)
        literal = sum((-1) ** a * (x + a) ** 5 for a in range(3**6))
        assert alternating_power_sum(5, 3**6, x) == literal

    def test_integer_literal_of_the_verify_check(self):
        # the alternating-sum identity sums its literal side over the common
        # denominator; it is the Fraction sum at every one of its points
        assert len(_ALTERNATING_POINTS) == 90
        for m, rho, x in _ALTERNATING_POINTS:
            literal = sum((-1) ** a * (x + a) ** m for a in range(rho))
            assert _literal_alternating_sum(m, rho, x) == literal, (m, rho, x)


def shift_reports(coeffs, x):
    """The reports of verify's shift-integral check for f with these coefficients."""
    return _check_shift_integral(VerifyConfig(), coeffs, x)


class TestShiftIdentities:
    def test_constant(self):
        reports = shift_reports([1], Fraction(0))
        assert all(r.status == "pass" for r in reports)

    def test_square_at_zero(self):
        # E_2(1) + E_2(0) = 0 = 2 * 0^2
        reports = shift_reports([0, 0, 1], Fraction(0))
        assert all(r.status == "pass" for r in reports)
        assert euler.euler_poly(2, Fraction(1)) + euler.euler_poly(2, Fraction(0)) == 0

    def test_linear_at_three(self):
        # E_1(4) + E_1(3) = 6 = 2 * 3
        reports = shift_reports([0, 1], Fraction(3))
        assert all(r.status == "pass" for r in reports)
        assert euler.euler_poly(1, Fraction(4)) + euler.euler_poly(1, Fraction(3)) == 6

    def test_random_cubics(self):
        rng = random.Random(2024)
        for _ in range(10):
            coeffs = [Fraction(rng.randrange(-9, 10), rng.choice((1, 2, 4))) for _ in range(4)]
            x = Fraction(rng.randrange(-6, 7), rng.choice((1, 2, 3)))
            reports = shift_reports(coeffs, x)
            assert all(r.status == "pass" for r in reports)


class TestConvergenceRate:
    def test_difference_valuation_at_least_depth(self):
        # v_p( sum_{a<p^N} (x+a)^m (-1)^a - E_m(x) ) >= N
        for p in (3, 5):
            ctx = PadicContext(p, 16)
            prec = 24
            for x in (Fraction(0), Fraction(1), Fraction(1, 2), Fraction(3)):
                sums = kernels.monomial_alternating_sums(p, prec, x, 8, (2, 3, 4))
                for m in range(9):
                    target = ctx.from_fraction(euler.euler_poly(m, x), relprec=prec)
                    for n in (2, 3, 4):
                        assert agreement_depth(sums[(m, n)], target) >= n


class TestChangeOfVariable:
    def test_trivial_character_constant(self, ctx5):
        chi = DirichletCharacter.trivial(5, 1)
        lhs, rhs = change_of_variable(ctx5, chi, Integrand.polynomial([1]), 0, 3)
        # both sides equal sum over units j < 5 of (-1)^j
        expected = sum((-1) ** j for j in range(1, 5))
        assert lhs == expected
        assert agreement_depth(lhs, rhs) >= min(lhs.absprec, rhs.absprec)

    def test_linear_p3(self, ctx3):
        chi = DirichletCharacter.trivial(3, 1)
        lhs, rhs = change_of_variable(ctx3, chi, Integrand.polynomial([0, 1]), 0, 4)
        assert agreement_depth(lhs, rhs) >= 4 - 2

    def test_quadratic_twist_p5(self, ctx5):
        chi = DirichletCharacter(5, 1, 2)
        lhs, rhs = change_of_variable(ctx5, chi, Integrand.polynomial([0, 0, 1]), 2, 4)
        assert agreement_depth(lhs, rhs) >= 4 - 2

    @pytest.mark.parametrize("oracle_depth", range(2, 7))
    def test_reports_meet_the_proved_bound(self, oracle_depth):
        # v_p(lhs - rhs) >= N - v*deg f (proved at _check_change_of_variable),
        # with equality for the quadratic twist at p = 5 and the linear f at
        # p = 7; the p = 3 and constant cases agree to every digit
        cfg = VerifyConfig(oracle_depth=oracle_depth)
        n = min(oracle_depth, 4)
        for case in _CHANGE_OF_VARIABLE_CASES:
            p, v, k, coeffs, x = case
            (rep,) = _check_change_of_variable(cfg, *case)
            bound = n - v * (len(coeffs) - 1)
            assert rep.passed and rep.reference_depth == n
            assert rep.agreement_depth >= bound
            if (p, len(coeffs)) in ((5, 3), (7, 2)):
                assert rep.agreement_depth == bound
            else:
                assert rep.agreement_depth == min(rep.lhs_prec, rep.rhs_prec)

    def test_integrand_polynomial_eval_matches_coeffs(self, ctx5):
        f = Integrand.polynomial([Fraction(1, 2), 0, 3])
        assert f.eval_fraction(Fraction(2)) == Fraction(25, 2)
        v = f.eval_padic(ctx5, ctx5.from_int(2))
        assert v == Fraction(25, 2)

    def test_closed_form_is_linear_in_coefficients(self):
        f = Integrand.polynomial([2, 0, 1])
        x = Fraction(1, 3)
        expected = 2 * euler.euler_poly(0, x) + euler.euler_poly(2, x)
        assert integral_of_polynomial(f, x) == expected
