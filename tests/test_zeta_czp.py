import random
import types
from fractions import Fraction

import pytest
from padiczeta import padic
from padiczeta.characters import DirichletCharacter
from padiczeta.errors import (
    ArgumentInZp,
    BudgetExhausted,
    EvenN,
    ExponentOutsideDomain,
    ShiftConditionViolated,
)
from padiczeta.padic import PadicContext, agreement_depth
from padiczeta.zeta_czp import (
    SeriesBudget,
    ZetaArgumentCZp,
    distribution_czp,
    dzeta_dx,
    integral_of_zeta,
    integral_of_zeta_oracle,
    raabe_closed_forms,
    reflection_czp,
    zeta_czp,
    zeta_czp_oracle,
    zeta_shifted,
    zeta_special_neg,
    zeta_special_pos,
)
from padiczeta.zeta_char import zeta_char


class TestValueAtOne:
    def test_is_one_everywhere(self):
        rng = random.Random(808)
        for p in (3, 5, 7):
            ctx = PadicContext(p, 16)
            for _ in range(8):
                e = rng.choice((1, 2, 3))
                num = rng.randrange(1, p**5)
                while num % p == 0:
                    num = rng.randrange(1, p**5)
                val = zeta_czp(ctx, 1, Fraction(num, p**e))
                assert agreement_depth(val, ctx.one()) >= 16


class TestSpecialValues:
    def test_s_zero_closed_form(self, ctx5):
        # zeta(0, x) = omega_v(x)^-1 E_1(x) = <x>(x - 1/2)/x
        x = Fraction(1, 5)
        assert zeta_czp(ctx5, 0, x) == Fraction(-3, 2)

    def test_negative_integers_match_exact_route(self):
        for p, x in ((3, Fraction(1, 3)), (5, Fraction(1, 5)), (7, Fraction(3, 49))):
            ctx = PadicContext(p, 16)
            for m in range(1, 9):
                series = zeta_czp(ctx, 1 - m, x)
                exact = zeta_special_neg(ctx, m, x)
                assert agreement_depth(series, exact) >= 16

    def test_hand_values(self, ctx3, ctx5):
        assert zeta_special_neg(ctx3, 1, Fraction(1, 3)) == Fraction(-1, 2)
        assert zeta_special_neg(ctx5, 2, Fraction(1, 5)) == -4

    def test_positive_route_against_oracle(self, ctx5):
        formula, oracle = zeta_special_pos(ctx5, 2, Fraction(1, 5), 5)
        assert agreement_depth(formula, oracle) >= 5

    def test_negative_m_delegates(self, ctx5):
        formula, exact = zeta_special_pos(ctx5, -3, Fraction(1, 5), 5)
        assert agreement_depth(formula, exact) >= 16

    def test_zero_m_rejected(self, ctx5):
        from padiczeta.errors import ArgumentViolation

        with pytest.raises(ArgumentViolation):
            zeta_special_pos(ctx5, 0, Fraction(1, 5), 4)


class TestOracleAgreement:
    def test_small_grid(self):
        for p in (3, 5):
            ctx = PadicContext(p, 14)
            for s in (0, 2, -1, Fraction(1, 2)):
                for x in (Fraction(1, p), Fraction(-1, p)):
                    series = zeta_czp(ctx, s, x)
                    for n in (3, 4):
                        oracle = zeta_czp_oracle(ctx, s, x, n)
                        assert agreement_depth(series, oracle) >= n

    def test_spec_point_depth_six(self, ctx5):
        series = zeta_czp(ctx5, 3, Fraction(1, 5), SeriesBudget(target_prec=10))
        oracle = zeta_czp_oracle(ctx5, 3, Fraction(1, 5), 6)
        assert agreement_depth(series, oracle) >= 6

    def test_angle_splits_off_integer_part(self, ctx5):
        # <x+a> = <x>(1 + a/x) for negative-valuation x
        x = ctx5.from_fraction(Fraction(2, 25))
        for a in (1, 7, 12):
            lhs = ctx5.angle(x + a)
            rhs = ctx5.angle(x) * (ctx5.one() + ctx5.from_int(a) / x)
            assert agreement_depth(lhs, rhs) >= min(lhs.absprec, rhs.absprec)


class TestDomainErrors:
    def test_argument_in_zp(self, ctx5):
        with pytest.raises(ArgumentInZp):
            zeta_czp(ctx5, 2, Fraction(3))
        with pytest.raises(ArgumentInZp):
            ZetaArgumentCZp.build(ctx5, ctx5.exact_zero())

    def test_exponent_domain(self, ctx5):
        with pytest.raises(ExponentOutsideDomain):
            zeta_czp(ctx5, Fraction(1, 5), Fraction(1, 5))

    def test_budget_exhausted(self, ctx5):
        with pytest.raises(BudgetExhausted):
            zeta_czp(ctx5, 2, Fraction(1, 5), SeriesBudget(max_terms=3))

    def test_budget_checked_before_teichmuller(self, monkeypatch):
        # a precision no other test uses, so no Teichmuller digit is cached
        ctx = PadicContext(5, 41)

        def refuse(*args):
            raise AssertionError("Teichmuller digit computed before the budget check")

        monkeypatch.setattr(padic, "_teichmuller_digit", refuse)
        budget = SeriesBudget(max_terms=3)
        calls = [
            lambda: zeta_czp(ctx, Fraction(1, 2), Fraction(2, 5), budget),
            lambda: zeta_shifted(ctx, Fraction(1, 2), Fraction(2, 25), Fraction(1, 5), budget),
            lambda: integral_of_zeta(ctx, Fraction(1, 2), Fraction(2, 5), budget),
            lambda: zeta_char(ctx, DirichletCharacter(5, 1, 1), 2, 2, budget),
        ]
        for call in calls:
            with pytest.raises(BudgetExhausted):
                call()


def test_module_paths_name_modules():
    import padiczeta.zeta_char as char_module
    import padiczeta.zeta_czp as czp_module

    assert isinstance(czp_module, types.ModuleType) and callable(czp_module.zeta_czp)
    assert isinstance(char_module, types.ModuleType) and callable(char_module.zeta_char)


class TestShiftedExpansion:
    def test_u_zero_reduces(self, ctx5):
        x = Fraction(1, 5)
        a = zeta_shifted(ctx5, 2, x, Fraction(0))
        b = zeta_czp(ctx5, 2, x)
        assert agreement_depth(a, b) >= 16

    def test_functional_equation(self):
        rng = random.Random(55)
        for p in (3, 5, 7):
            ctx = PadicContext(p, 16)
            for s in (0, 1, 2, -2, rng.randrange(1, p**10)):
                x = Fraction(2, p)
                sp = ctx.coerce(s)
                lhs = zeta_shifted(ctx, sp, x, Fraction(1)) + zeta_czp(ctx, sp, x)
                xe = ctx.from_fraction(x)
                rhs = 2 * xe / ctx.omega_v(xe) * ctx.angle_power(xe, -sp)
                assert agreement_depth(lhs, rhs) >= 16

    def test_matches_direct_evaluation(self, ctx5):
        x = Fraction(1, 25)
        for u in (Fraction(1), Fraction(1, 2)):
            a = zeta_shifted(ctx5, 3, x, u)
            b = zeta_czp(ctx5, 3, x + u)
            assert agreement_depth(a, b) >= 16

    def test_oracle_cross_check(self, ctx5):
        x = Fraction(1, 25)
        a = zeta_shifted(ctx5, 2, x, Fraction(1, 2))
        oracle = zeta_czp_oracle(ctx5, 2, x + Fraction(1, 2), 4)
        assert agreement_depth(a, oracle) >= 4

    def test_shift_condition(self, ctx5):
        with pytest.raises(ShiftConditionViolated):
            zeta_shifted(ctx5, 2, Fraction(1, 5), Fraction(1, 25))


class TestDerivative:
    def test_factor_kills_s_one(self, ctx5):
        assert dzeta_dx(ctx5, 1, Fraction(1, 5)).is_zero()

    def test_s_zero_value(self, ctx5):
        # (1-0) omega_v^{-1} zeta(1, x) = <x>/x
        assert dzeta_dx(ctx5, 0, Fraction(1, 5)) == 5

    def test_finite_differences(self):
        for p in (3, 5):
            ctx = PadicContext(p, 16)
            x = Fraction(1, p)
            formula = dzeta_dx(ctx, 2, x)
            for k in (4, 6, 8):
                h = p**k
                fd = (zeta_czp(ctx, 2, x + h) - zeta_czp(ctx, 2, x)) / ctx.from_int(h)
                assert agreement_depth(fd, formula) >= k


class TestReflection:
    def test_generic_points(self):
        for p, x, s in ((5, Fraction(1, 5), 3), (7, Fraction(3, 49), -2)):
            ctx = PadicContext(p, 16)
            lhs, rhs = reflection_czp(ctx, s, x)
            assert agreement_depth(lhs, rhs) >= 16

    def test_reflection_consistent_with_exact_specials(self, ctx7):
        lhs, rhs = reflection_czp(ctx7, -2, Fraction(3, 49))
        exact = zeta_special_neg(ctx7, 3, Fraction(3, 49))
        assert agreement_depth(rhs, exact) >= 16
        assert agreement_depth(lhs, exact) >= 16


class TestDistribution:
    def test_n_one_trivial(self, ctx5):
        lhs, rhs = distribution_czp(ctx5, 2, Fraction(1, 5), 1)
        assert agreement_depth(lhs, rhs) >= 16

    def test_scaled_identity_holds(self):
        for p, n in ((3, 5), (5, 3), (7, 3)):
            ctx = PadicContext(p, 16)
            for s in (0, 2, Fraction(1, 2)):
                lhs, rhs = distribution_czp(ctx, s, Fraction(1, p), n)
                assert agreement_depth(lhs, rhs) >= 16

    def test_unscaled_form_residual_recorded(self, ctx5):
        # the form without the <N>^(s-1) factor misses: its residual has
        # valuation 1 (the factor is 1 mod p) and is recorded, not asserted
        lhs, rhs = distribution_czp(ctx5, 2, Fraction(1, 5), 3)
        assert agreement_depth(lhs, rhs) >= 16
        assert agreement_depth(lhs, zeta_czp(ctx5, 2, Fraction(3, 5))) == 1

    def test_s_zero_exact_cross_check(self, ctx5):
        # at s = 0 the left side reduces to exact Euler-polynomial data:
        # omega(3)/3 * omega_v(3x)^{-1} E_1(3x)
        x = Fraction(2, 5)
        lhs, _ = distribution_czp(ctx5, 0, x, 3)
        exact = ctx5.teichmuller(ctx5.from_int(3)) / 3 * zeta_special_neg(ctx5, 1, 3 * x)
        assert agreement_depth(lhs, exact) >= 16

    def test_even_n_rejected(self, ctx5):
        with pytest.raises(EvenN):
            distribution_czp(ctx5, 2, Fraction(1, 5), 2)


class TestRaabe:
    def test_termwise_at_s_one_is_one(self, ctx5):
        assert integral_of_zeta(ctx5, 1, Fraction(1, 5)) == 1

    def test_termwise_matches_oracle(self, ctx5):
        x = Fraction(1, 5)
        value = integral_of_zeta(ctx5, 2, x)
        oracle = integral_of_zeta_oracle(ctx5, 2, x, 4)
        assert agreement_depth(value, oracle) >= 4

    def test_closed_form_matches_termwise_and_oracle(self):
        for p in (3, 5):
            ctx = PadicContext(p, 16)
            x = Fraction(1, p)
            for s in (0, 2, 3):
                forms = raabe_closed_forms(ctx, s, x)
                shared = min(forms["termwise"].absprec, forms["closed"].absprec)
                assert agreement_depth(forms["termwise"], forms["closed"]) >= shared

    def test_variant_residual_at_s_one(self, ctx5):
        # the rearranged closed form evaluates to 2 + 1/x^2 at s=1 while the
        # integral is 1; the residual 1 + 1/x^2 is recorded, never asserted
        x = Fraction(1, 5)
        forms = raabe_closed_forms(ctx5, 1, x)
        residual = forms["variant"] - forms["termwise"]
        assert residual == 1 + Fraction(1, x**2)
        assert forms["termwise"] == 1


class TestPrecisionContract:
    def test_budget_target_caps_result(self, ctx5):
        v = zeta_czp(ctx5, 2, Fraction(1, 5), SeriesBudget(target_prec=10))
        assert v.absprec == 10

    def test_result_honest_under_recomputation(self):
        lo = PadicContext(5, 10)
        hi = PadicContext(5, 20)
        for s in (0, 2, 7):
            for x in (Fraction(1, 5), Fraction(2, 25)):
                a = zeta_czp(lo, s, x)
                b = zeta_czp(hi, s, x)
                assert agreement_depth(a, b) >= a.absprec
