import random
import sys
import types
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padiczeta import padic
from padiczeta.characters import DirichletCharacter
from padiczeta.errors import (
    ArgumentInZp,
    ArgumentViolation,
    BudgetExhausted,
    EvenN,
    ExponentOutsideDomain,
    ShiftConditionViolated,
)
from padiczeta.padic import PadicContext, agreement_depth, render
from padiczeta.zeta_czp import (
    SeriesBudget,
    _coefficients,
    _zeta_value,
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
from padiczeta.zeta_char import ell, power_series_zeta, zeta_char


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


# every evaluator of the Laurent expansion, called at x with its other arguments valid
FAMILY = {
    "zeta_czp": lambda ctx, x: zeta_czp(ctx, 2, x),
    "zeta_shifted": lambda ctx, x: zeta_shifted(ctx, 2, x, 0),
    "dzeta_dx": lambda ctx, x: dzeta_dx(ctx, 2, x),
    "reflection_czp": lambda ctx, x: reflection_czp(ctx, 2, x),
    "integral_of_zeta": lambda ctx, x: integral_of_zeta(ctx, 2, x),
    "raabe_closed_forms": lambda ctx, x: raabe_closed_forms(ctx, 2, x),
    "zeta_special_neg": lambda ctx, x: zeta_special_neg(ctx, 2, x),
    "zeta_special_pos": lambda ctx, x: zeta_special_pos(ctx, 2, x, 3),
}


class TestDomainErrors:
    def test_argument_in_zp(self, ctx5):
        for evaluate in FAMILY.values():
            for x in (ctx5.exact_zero(), ctx5.bounded_zero(3), Fraction(3), 0):
                with pytest.raises(ArgumentInZp):
                    evaluate(ctx5, x)

    @pytest.mark.parametrize("name", ["zeta_special_neg", "zeta_special_pos"])
    def test_special_values_need_a_rational_x(self, ctx5, name):
        # the series needs only the p-adic x; the exact route and the oracle need its rational form
        for x in ("1/5", ctx5.from_fraction(Fraction(1, 5))):
            with pytest.raises(ArgumentViolation, match="rational x"):
                FAMILY[name](ctx5, x)
        # m < 0 reaches the exact route through zeta_special_pos
        with pytest.raises(ArgumentViolation, match="exact special values need a rational x"):
            zeta_special_pos(ctx5, -2, "1/5", 3)

    def test_exponent_domain(self, ctx5):
        with pytest.raises(ExponentOutsideDomain):
            zeta_czp(ctx5, Fraction(1, 5), Fraction(1, 5))

    def test_budget_exhausted(self, ctx5):
        with pytest.raises(BudgetExhausted):
            zeta_czp(ctx5, 2, Fraction(1, 5), SeriesBudget(max_terms=3))

    def test_budget_checked_before_teichmuller(self, monkeypatch):
        # a precision no other test uses, so no zeta value is cached
        ctx = PadicContext(5, 41)

        class Lifted(Exception):
            pass

        def refuse(*args):
            raise Lifted

        # teichmuller_table and PadicContext.teichmuller both lift through it
        monkeypatch.setattr(padic, "_teichmuller_root", refuse)
        padic.teichmuller_table.cache_clear()
        calls = [
            lambda budget: zeta_czp(ctx, Fraction(1, 2), Fraction(2, 5), budget),
            lambda budget: zeta_shifted(
                ctx, Fraction(1, 2), Fraction(2, 25), Fraction(1, 5), budget
            ),
            lambda budget: integral_of_zeta(ctx, Fraction(1, 2), Fraction(2, 5), budget),
            lambda budget: zeta_char(ctx, DirichletCharacter(5, 1, 1), 2, 2, budget),
        ]
        for call in calls:
            with pytest.raises(BudgetExhausted):
                call(SeriesBudget(max_terms=3))
        # with the default budget the character sum reaches the lift; the
        # others need no omega (<x>^s goes through log and exp) and complete
        *series_calls, char_call = calls
        with pytest.raises(Lifted):
            char_call(SeriesBudget())
        for call in series_calls:
            assert call(SeriesBudget()).absprec >= ctx.workprec


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


class TestValueCache:
    def test_key_is_the_whole_context(self):
        # the same internal precision, but workprec caps the value differently
        x = Fraction(2, 3)
        a = zeta_czp(PadicContext(3, 16, 8), Fraction(1, 2), x)
        b = zeta_czp(PadicContext(3, 20, 4), Fraction(1, 2), x)
        assert (a.absprec, b.absprec) == (16, 20)

    def test_budget_targets_are_separate_entries(self, ctx5):
        _zeta_value.cache_clear()
        x = Fraction(3, 25)
        low = zeta_czp(ctx5, 2, x, SeriesBudget(target_prec=10))
        high = zeta_czp(ctx5, 2, x, SeriesBudget(target_prec=12))
        assert (low.absprec, high.absprec) == (10, 12)
        assert _zeta_value.cache_info().misses == 2
        assert agreement_depth(low, high) >= 10

    def test_fraction_and_equal_padic_share_an_entry(self, ctx5):
        _zeta_value.cache_clear()
        x = Fraction(7, 5)
        a = zeta_czp(ctx5, 3, x)
        b = zeta_czp(ctx5, 3, ctx5.from_fraction(x))
        info = _zeta_value.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
        assert render(a) == render(b)

    @pytest.mark.parametrize("name", sorted(set(FAMILY) - {"zeta_special_neg", "zeta_special_pos"}))
    def test_every_input_type_reads_one_entry(self, ctx5, name):
        # x is read once as a PadicNumber: a Fraction, its string and its embedding are one key
        x = Fraction(987654321, 25)
        _zeta_value.cache_clear()
        first = FAMILY[name](ctx5, x)
        misses = _zeta_value.cache_info().misses
        for same in (str(x), ctx5.from_fraction(x)):
            again = FAMILY[name](ctx5, same)
            assert _zeta_value.cache_info().misses == misses
            assert repr(again) == repr(first)

    def test_warm_value_equals_cold(self, ctx7):
        s, x = Fraction(1, 3), Fraction(10, 49)
        _zeta_value.cache_clear()
        cold = zeta_czp(ctx7, s, x)
        warm = zeta_czp(ctx7, s, x)
        assert _zeta_value.cache_info().hits == 1
        assert (render(warm), warm.absprec) == (render(cold), cold.absprec)

    def test_refusal_after_a_larger_budget_succeeded(self, ctx5):
        x = Fraction(4, 5)
        zeta_czp(ctx5, 2, x)
        with pytest.raises(BudgetExhausted):
            zeta_czp(ctx5, 2, x, SeriesBudget(max_terms=3))

    def test_warm_hit_does_no_padic_addition(self, ctx5, monkeypatch):
        # the key is s's own triple, so 1-s is formed only on a miss
        s, x = Fraction(3, 7), Fraction(6, 25)
        zeta_czp(ctx5, s, x)
        calls = []

        def counting(name):
            original = getattr(padic.PadicNumber, name)

            def wrapper(self, other):
                calls.append(name)
                return original(self, other)

            return wrapper

        for name in ("__add__", "__radd__", "__sub__", "__rsub__"):
            monkeypatch.setattr(padic.PadicNumber, name, counting(name))
        hits = _zeta_value.cache_info().hits
        zeta_czp(ctx5, s, x)
        zeta_czp(ctx5, ctx5.coerce(s), ctx5.coerce(x))
        assert _zeta_value.cache_info().hits == hits + 2
        assert calls == []

    def test_zeta_char_reads_the_zeta_czp_entries(self, ctx5):
        # each unit term of the representation sum at M = 5 is the cache entry
        # of zeta(s, (x+j)/5)
        chi = DirichletCharacter(5, 1, 3)
        s, x = Fraction(2, 3), 7
        _zeta_value.cache_clear()
        zeta_char(ctx5, chi, s, x)
        units = [j for j in range(5) if (x + j) % 5]
        before = _zeta_value.cache_info()
        assert before.misses == len(units)
        for j in units:
            zeta_czp(ctx5, s, Fraction(x + j, 5))
        after = _zeta_value.cache_info()
        assert (after.hits - before.hits, after.misses) == (len(units), before.misses)

    def test_warm_zeta_char_does_no_padic_arithmetic_per_term(self, ctx5, monkeypatch):
        chi = DirichletCharacter(5, 2, 1)
        s, x = Fraction(3, 7), Fraction(4, 9)
        cold = zeta_char(ctx5, chi, s, x)
        calls = []

        def counting(name, original):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            return wrapper

        for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__"):
            original = getattr(padic.PadicNumber, name)
            monkeypatch.setattr(padic.PadicNumber, name, counting(name, original))
        for module in (sys.modules[zeta_czp.__module__], sys.modules[zeta_char.__module__]):
            # raising=False: the representation sum need not import zeta_czp at all
            monkeypatch.setattr(module, "zeta_czp", counting("zeta_czp", zeta_czp), raising=False)
        warm = zeta_char(ctx5, chi, s, x)
        assert calls == []
        assert (render(warm), warm.absprec) == (render(cold), cold.absprec)

    def test_shifted_at_zero_shares_the_zeta_czp_entry(self, ctx7):
        s, x = Fraction(5, 4), Fraction(3, 49)
        _zeta_value.cache_clear()
        plain = zeta_czp(ctx7, s, x)
        shifted = zeta_shifted(ctx7, s, x, 0)
        info = _zeta_value.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
        assert shifted is plain

    def test_coefficient_sets_evicted_under_a_low_bound(self, monkeypatch):
        ctx = PadicContext(3, 300)
        ss = (Fraction(1, 2), Fraction(3, 2), Fraction(5, 2), 2, 3, -1)
        xs = (Fraction(1, 3), Fraction(2, 9))

        def key(value):
            return render(value), value.absprec

        cold, set_bits = {}, 0
        for s in ss:
            for x in xs:
                _zeta_value.cache_clear()
                _coefficients.cache_clear()
                cold[s, x] = key(zeta_czp(ctx, s, x))
                set_bits = max(set_bits, _coefficients.bits)
        _coefficients.cache_clear()
        monkeypatch.setattr(_coefficients, "max_bits", 2 * set_bits + set_bits // 2)
        # two passes in opposite orders: the second rebuilds evicted sets
        for order in ([(s, x) for x in xs for s in ss], [(s, x) for s in ss for x in xs][::-1]):
            _zeta_value.cache_clear()
            for s, x in order:
                assert key(zeta_czp(ctx, s, x)) == cold[s, x]
                assert 0 < _coefficients.bits <= _coefficients.max_bits
        info = _coefficients.cache_info()
        assert info.currsize < len(ss) < info.misses


def _digit_literal(valuation, digits):
    return f"{valuation}:{','.join(map(str, digits))}"


def _lift(p, valuation, digits, tail):
    """The rational p**valuation * (known digits + p**len(digits) * tail)."""
    mantissa = sum(d * p**i for i, d in enumerate(digits)) + tail * p ** len(digits)
    return Fraction(mantissa) * Fraction(p) ** valuation


class TestPrecisionContractUnderLifts:
    """Every digit a value claims holds for every lift of its inputs' unknown
    digits.  The value cache keys on (valuation, unit, relprec), so the
    limited inputs and each exact lift are separate entries."""

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_zeta_czp(self, data):
        p = data.draw(st.sampled_from((3, 5, 7)))
        ctx = PadicContext(p, 10)
        digit = st.integers(0, p - 1)
        vx = data.draw(st.integers(-2, -1))
        x_digits = [data.draw(st.integers(1, p - 1))] + data.draw(
            st.lists(digit, min_size=1, max_size=6)
        )
        s_digits = data.draw(st.lists(digit, min_size=1, max_size=8))
        x = ctx.parse_value(_digit_literal(vx, x_digits))
        s = ctx.parse_value(_digit_literal(0, s_digits))
        _zeta_value.cache_clear()
        value = zeta_czp(ctx, s, x)
        _zeta_value.cache_clear()
        # the zero tails come first: same units as the limited inputs, more digits
        tails = [(0, 0)] + [
            (data.draw(st.integers(0, p**12)), data.draw(st.integers(0, p**12)))
            for _ in range(3)
        ]
        for tx, ts in tails:
            x_lift = _lift(p, vx, x_digits, tx)
            s_lift = _lift(p, 0, s_digits, ts)
            assert agreement_depth(value, zeta_czp(ctx, s_lift, x_lift)) >= value.absprec
        again = zeta_czp(ctx, s, x)
        assert (render(again), again.absprec) == (render(value), value.absprec)

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_zeta_shifted(self, data):
        p = data.draw(st.sampled_from((3, 5, 7)))
        ctx = PadicContext(p, 10)
        digit = st.integers(0, p - 1)
        vx = data.draw(st.integers(-2, -1))
        x_digits = [data.draw(st.integers(1, p - 1))] + data.draw(
            st.lists(digit, min_size=1, max_size=6)
        )
        s_digits = data.draw(st.lists(digit, min_size=1, max_size=8))
        # an exact shift u != 0 with v_p(x) < v_p(u) <= 1
        vu = data.draw(st.integers(vx + 1, 1))
        u = data.draw(st.integers(1, 50).filter(lambda n: n % p)) * Fraction(p) ** vu
        x = ctx.parse_value(_digit_literal(vx, x_digits))
        s = ctx.parse_value(_digit_literal(0, s_digits))
        _zeta_value.cache_clear()
        value = zeta_shifted(ctx, s, x, u)
        for _ in range(3):
            x_lift = _lift(p, vx, x_digits, data.draw(st.integers(0, p**12)))
            s_lift = _lift(p, 0, s_digits, data.draw(st.integers(0, p**12)))
            lifted = zeta_shifted(ctx, s_lift, x_lift, u)
            assert agreement_depth(value, lifted) >= value.absprec

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_integral_of_zeta(self, data):
        p = data.draw(st.sampled_from((3, 5, 7)))
        ctx = PadicContext(p, 10)
        digit = st.integers(0, p - 1)
        vx = data.draw(st.integers(-2, -1))
        x_digits = [data.draw(st.integers(1, p - 1))] + data.draw(
            st.lists(digit, min_size=1, max_size=6)
        )
        s_digits = data.draw(st.lists(digit, min_size=1, max_size=8))
        x = ctx.parse_value(_digit_literal(vx, x_digits))
        s = ctx.parse_value(_digit_literal(0, s_digits))
        _zeta_value.cache_clear()
        value = integral_of_zeta(ctx, s, x)
        for _ in range(3):
            x_lift = _lift(p, vx, x_digits, data.draw(st.integers(0, p**12)))
            s_lift = _lift(p, 0, s_digits, data.draw(st.integers(0, p**12)))
            lifted = integral_of_zeta(ctx, s_lift, x_lift)
            assert agreement_depth(value, lifted) >= value.absprec

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_dzeta_dx(self, data):
        p = data.draw(st.sampled_from((3, 5, 7)))
        ctx = PadicContext(p, 10)
        digit = st.integers(0, p - 1)
        vx = data.draw(st.integers(-2, -1))
        x_digits = [data.draw(st.integers(1, p - 1))] + data.draw(
            st.lists(digit, min_size=1, max_size=6)
        )
        s_digits = data.draw(st.lists(digit, min_size=1, max_size=8))
        x = ctx.parse_value(_digit_literal(vx, x_digits))
        s = ctx.parse_value(_digit_literal(0, s_digits))
        _zeta_value.cache_clear()
        value = dzeta_dx(ctx, s, x)
        for _ in range(3):
            x_lift = _lift(p, vx, x_digits, data.draw(st.integers(0, p**12)))
            s_lift = _lift(p, 0, s_digits, data.draw(st.integers(0, p**12)))
            lifted = dzeta_dx(ctx, s_lift, x_lift)
            assert agreement_depth(value, lifted) >= value.absprec

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_zeta_char(self, data):
        p = data.draw(st.sampled_from((3, 5, 7)))
        ctx = PadicContext(p, 10)
        chi = DirichletCharacter(p, data.draw(st.integers(1, 2)), data.draw(st.integers(0, p - 2)))
        digit = st.integers(0, p - 1)
        x_digits = data.draw(st.lists(digit, min_size=2, max_size=7))
        s_digits = data.draw(st.lists(digit, min_size=1, max_size=8))
        x = ctx.parse_value(_digit_literal(0, x_digits))
        s = ctx.parse_value(_digit_literal(0, s_digits))
        value = zeta_char(ctx, chi, s, x)
        tails = st.integers(0, p**12)
        for _ in range(2):
            x_lift = _lift(p, 0, x_digits, data.draw(tails))
            s_lift = _lift(p, 0, s_digits, data.draw(tails))
            lifted = zeta_char(ctx, chi, s_lift, x_lift)
            assert agreement_depth(value, lifted) >= value.absprec

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_ell(self, data):
        p = data.draw(st.sampled_from((3, 5, 7)))
        ctx = PadicContext(p, 10)
        chi = DirichletCharacter(p, data.draw(st.integers(1, 2)), data.draw(st.integers(0, p - 2)))
        s_digits = data.draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=8))
        value = ell(ctx, chi, ctx.parse_value(_digit_literal(0, s_digits)))
        for _ in range(3):
            s_lift = _lift(p, 0, s_digits, data.draw(st.integers(0, p**12)))
            assert agreement_depth(value, ell(ctx, chi, s_lift)) >= value.absprec

    @settings(max_examples=15, deadline=None)
    @given(st.data())
    def test_power_series_zeta(self, data):
        p = data.draw(st.sampled_from((3, 5, 7)))
        ctx = PadicContext(p, 10)
        v = data.draw(st.integers(1, 2))
        chi = DirichletCharacter(p, v, data.draw(st.integers(0, p - 2)))
        digit = st.integers(0, p - 1)
        # x in p^v Z_p with a nonzero leading digit, so every lift keeps v_p(x)
        vx = data.draw(st.integers(v, v + 1))
        x_digits = [data.draw(st.integers(1, p - 1))] + data.draw(
            st.lists(digit, min_size=0, max_size=5)
        )
        s_digits = data.draw(st.lists(digit, min_size=1, max_size=8))
        terms = data.draw(st.integers(1, 8))
        x = ctx.parse_value(_digit_literal(vx, x_digits))
        s = ctx.parse_value(_digit_literal(0, s_digits))
        value = power_series_zeta(ctx, chi, s, x, terms)
        tails = st.integers(0, p**12)
        for _ in range(2):
            x_lift = _lift(p, vx, x_digits, data.draw(tails))
            s_lift = _lift(p, 0, s_digits, data.draw(tails))
            lifted = power_series_zeta(ctx, chi, s_lift, x_lift, terms)
            assert agreement_depth(value, lifted) >= value.absprec
