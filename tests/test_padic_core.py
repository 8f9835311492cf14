import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padiczeta.errors import (
    ArgumentViolation,
    DivisionByZero,
    EvaluationCapExceeded,
    ExponentOutsideDomain,
    NotAUnit,
    OutsideExpDomain,
    OutsideLogDomain,
    ZeroArgument,
)
from padiczeta.padic import (
    EVALUATION_CAP,
    MAX_MODULUS_BITS,
    PadicContext,
    PadicNumber,
    agreement_depth,
    alternating_sum,
    capped_power,
    from_json_dict,
    render,
    to_json_dict,
    vp_factorial,
)

from conftest import random_unit_fraction


class TestContextBound:
    def test_modulus_size_bound(self):
        # the largest internal precision whose p**internal_prec fits the bound
        for p in (3, 7, 10007):
            top = int(MAX_MODULUS_BITS / math.log2(p))
            assert PadicContext(p, top - 8).internal_prec == top
            with pytest.raises(ValueError):
                PadicContext(p, top - 7)
            with pytest.raises(ValueError):
                PadicContext(p, 1, top)
        PadicContext(3, 2000)

    def test_huge_precision_refused_before_the_modulus_is_built(self):
        # 3**(10**18) would not fit in memory
        with pytest.raises(ValueError):
            PadicContext(3, 10**18)


class TestEmbedding:
    def test_one_over_p(self, ctx5):
        x = ctx5.from_fraction(Fraction(1, 5))
        assert x.valuation == -1
        assert x.unit == 1

    def test_zero_is_exact(self, ctx7):
        assert ctx7.from_fraction(Fraction(0)).is_exact_zero

    def test_three_quarters_unit(self):
        # unit must satisfy 4*u = 3 mod 5^6 (extended-Euclid inverse)
        ctx = PadicContext(5, 6, 0)
        x = ctx.from_fraction(Fraction(3, 4))
        assert x.valuation == 0
        assert (4 * x.unit - 3) % 5**6 == 0

    def test_negative_embeds_canonically(self, ctx5):
        x = ctx5.from_fraction(Fraction(-1))
        assert x.unit == 5**ctx5.internal_prec - 1

    def test_json_round_trip(self, ctx5):
        for q in (Fraction(3, 4), Fraction(-7, 25), Fraction(50), Fraction(0)):
            x = ctx5.from_fraction(q)
            assert from_json_dict(to_json_dict(x)) == x
        az = ctx5.bounded_zero(9)
        assert from_json_dict(to_json_dict(az)).is_bounded_zero

    def test_digit_literal_parse(self, ctx5):
        x = ctx5.parse_value("-1:3,0,2")
        assert x.valuation == -1
        assert x.unit == 3 + 2 * 25
        assert x.relprec == 3


class TestFieldArithmetic:
    def test_cancellation_is_zero_at_full_shared_precision(self, ctx5):
        a = ctx5.from_fraction(Fraction(7, 3))
        z = a + (-a)
        assert z.is_zero()
        assert not z.is_exact_zero  # vanishing is certified to a depth, not exactly
        assert z.absprec == a.absprec

    def test_two_times_three(self, ctx5):
        assert ctx5.from_int(2) * ctx5.from_int(3) == 6

    def test_inverse_power_cancels_valuation(self):
        ctx = PadicContext(5, 8)
        x = ctx.from_fraction(Fraction(1, 5)) * 5
        assert x.valuation == 0
        assert x == 1

    def test_division_by_zero(self, ctx5):
        with pytest.raises(DivisionByZero):
            ctx5.one() / ctx5.exact_zero()
        with pytest.raises(DivisionByZero):
            ctx5.one() / ctx5.bounded_zero(12)

    def test_exact_zero_absorbs(self, ctx5):
        z = ctx5.exact_zero()
        assert (z * ctx5.from_int(7)).is_exact_zero
        assert (z + ctx5.from_int(7)) == 7

    def test_pow_negative(self, ctx5):
        x = ctx5.from_fraction(Fraction(2, 5))
        assert x**-2 * x**2 == 1

    @given(st.integers(-200, 200), st.integers(-200, 200), st.integers(-200, 200))
    @settings(max_examples=60, deadline=None)
    def test_ring_laws_match_exact_arithmetic(self, a, b, c):
        ctx = PadicContext(5, 12)
        pa, pb, pc = ctx.from_int(a), ctx.from_int(b), ctx.from_int(c)
        assert (pa + pb) * pc == (a + b) * c
        assert pa * pb + pc == a * b + c
        assert (pa + pb) + pc == pa + (pb + pc)

    @given(st.fractions(), st.fractions())
    @settings(max_examples=60, deadline=None)
    def test_field_ops_match_fractions(self, qa, qb):
        ctx = PadicContext(7, 10)
        pa, pb = ctx.from_fraction(qa), ctx.from_fraction(qb)
        assert pa + pb == qa + qb
        assert pa * pb == qa * qb
        if qb != 0:
            assert pa / pb == qa / qb


class TestTeichmuller:
    def test_omega_of_one(self, ctx5):
        assert ctx5.teichmuller(ctx5.one()) == 1

    def test_omega_constant_on_residue_class(self, ctx5):
        a = ctx5.teichmuller(ctx5.from_int(6))
        b = ctx5.teichmuller(ctx5.from_int(1 + 3 * 5**4))
        assert a == 1 and b == 1

    def test_omega_two_fixed_point(self):
        # iterate a -> a^5 mod 5^4 to its fixed point: 182
        ctx = PadicContext(5, 4, 0)
        w = ctx.teichmuller(ctx.from_int(2))
        assert w.integer_rep(4) == 182
        assert pow(182, 4, 5**4) == 1

    def test_not_a_unit(self, ctx5):
        with pytest.raises(NotAUnit):
            ctx5.teichmuller(ctx5.from_int(10))
        with pytest.raises(NotAUnit):
            ctx5.teichmuller(ctx5.exact_zero())

    def test_root_of_unity_and_congruence(self, ctx7):
        rng = random.Random(7001)
        mod = 7**ctx7.internal_prec
        for _ in range(25):
            u = rng.randrange(1, 7**5)
            while u % 7 == 0:
                u = rng.randrange(1, 7**5)
            w = ctx7.teichmuller(ctx7.from_int(u))
            rep = w.integer_rep(ctx7.internal_prec)
            assert pow(rep, 6, mod) == 1
            assert (rep - u) % 7 == 0


class TestAngleOmegaV:
    def test_angle_of_one_and_p_inverse(self, ctx5):
        assert ctx5.angle(ctx5.one()) == 1
        assert ctx5.angle(ctx5.from_fraction(Fraction(1, 5))) == 1

    def test_angle_two(self):
        ctx = PadicContext(5, 4, 0)
        assert ctx.angle(ctx.from_int(2)).integer_rep(4) == 261
        assert ctx.angle(ctx.from_int(2)).unit % 5 == 1

    def test_omega_v_examples(self, ctx5, ctx7):
        assert ctx5.omega_v(ctx5.one()) == 1
        w = ctx5.omega_v(ctx5.from_fraction(Fraction(1, 5)))
        assert w == Fraction(1, 5)
        x = PadicContext(7, 6).from_int(3)
        c7 = PadicContext(7, 6)
        assert c7.omega_v(x) * c7.angle(x) == 3

    def test_factorization_200_random(self):
        # omega_v(x) * <x> recovers x to full guaranteed precision
        rng = random.Random(424242)
        for p in (3, 5, 7):
            ctx = PadicContext(p, 14)
            for _ in range(67):
                q = random_unit_fraction(rng, p)
                x = ctx.from_fraction(q)
                back = ctx.omega_v(x) * ctx.angle(x)
                assert agreement_depth(back, x) >= x.absprec

    def test_angle_is_one_mod_p(self):
        rng = random.Random(11)
        for p in (3, 5, 7):
            ctx = PadicContext(p, 12)
            for _ in range(20):
                x = ctx.from_fraction(random_unit_fraction(rng, p))
                assert ctx.angle(x).unit % p == 1

    def test_local_constancy(self, ctx5):
        # the Teichmuller part depends only on x mod p
        x = ctx5.from_int(12)
        for k in (1, 3, 5):
            y = ctx5.from_int(12 + 7 * 5**k)
            assert ctx5.omega_v(y) == ctx5.omega_v(x)

    def test_zero_argument(self, ctx5):
        with pytest.raises(ZeroArgument):
            ctx5.angle(ctx5.exact_zero())
        with pytest.raises(ZeroArgument):
            ctx5.omega_v(ctx5.bounded_zero(4))


class TestLogExp:
    def test_log_one_vanishes_at_full_depth(self, ctx5):
        v = ctx5.log(ctx5.one())
        assert v.is_zero() and v.absprec == ctx5.internal_prec

    def test_round_trips(self, ctx5):
        for z in (Fraction(5), Fraction(25), Fraction(15)):
            ze = ctx5.from_fraction(z)
            assert agreement_depth(ctx5.log(ctx5.exp(ze)), ze) >= ze.absprec - 1
        assert ctx5.exp(ctx5.log(ctx5.from_int(6))) == 6

    def test_log_valuation_of_one_plus_25(self, ctx5):
        assert ctx5.log(ctx5.from_int(26)).valuation == 2

    def test_exp_partial_sum_oracle(self):
        # independent oracle: direct partial summation of sum 5^n / n! as an
        # exact rational, embedded afterwards
        ctx = PadicContext(5, 8, 4)
        acc = Fraction(0)
        fact = 1
        for n in range(0, 40):
            if n:
                fact *= n
            acc += Fraction(5**n, fact)
        expected = ctx.from_fraction(acc, relprec=8)
        got = ctx.exp(ctx.from_int(5))
        assert agreement_depth(got, expected) >= 8

    def test_domain_errors(self, ctx5):
        with pytest.raises(OutsideLogDomain):
            ctx5.log(ctx5.from_int(2))
        with pytest.raises(OutsideExpDomain):
            ctx5.exp(ctx5.from_int(3))

    def test_exp_of_bounded_zero(self, ctx5):
        v = ctx5.exp(ctx5.bounded_zero(6))
        assert v == 1 and v.absprec == 6


class TestUnitPower:
    def test_power_zero_and_one(self, ctx5):
        x = ctx5.from_int(7)
        assert ctx5.angle_power(x, 0) == 1
        assert agreement_depth(ctx5.angle_power(x, 1), ctx5.angle(x)) >= 15

    def test_cube_matches_repeated_product(self):
        ctx = PadicContext(5, 8)
        a = ctx.angle(ctx.from_int(2))
        via_exp = ctx.angle_power(ctx.from_int(2), 3)
        assert agreement_depth(via_exp, a * a * a) >= min(
            via_exp.absprec, (a * a * a).absprec
        )

    def test_multiplicativity_random(self, ctx7):
        rng = random.Random(99)
        for _ in range(10):
            s = ctx7.from_int(rng.randrange(0, 7**10))
            t = ctx7.from_int(rng.randrange(0, 7**10))
            x = ctx7.from_int(rng.randrange(2, 7**4) * 7 + 1)
            lhs = ctx7.angle_power(x, s + t)
            rhs = ctx7.angle_power(x, s) * ctx7.angle_power(x, t)
            assert agreement_depth(lhs, rhs) >= min(lhs.absprec, rhs.absprec) - 1

    def test_half_exponent_squares_back(self, ctx5):
        x = ctx5.from_int(6)
        r = ctx5.angle_power(x, Fraction(1, 2))
        assert agreement_depth(r * r, ctx5.angle(x)) >= 15

    def test_exponent_domain(self, ctx5):
        with pytest.raises(ExponentOutsideDomain):
            ctx5.angle_power(ctx5.from_int(2), Fraction(1, 5))


class TestBinomial:
    def test_zeroth(self, ctx5):
        assert ctx5.binomial(ctx5.from_int(9), 0) == 1

    def test_matches_integer_binomials(self, ctx5):
        for m in range(8):
            for i in range(m + 1):
                assert ctx5.binomial(ctx5.from_int(m), i) == math.comb(m, i)

    def test_negative_two_choose_two(self, ctx5):
        s = ctx5.from_int(3)
        assert ctx5.binomial(ctx5.one() - s, 2) == 3

    def test_integrality_for_zp_arguments(self, ctx5):
        rng = random.Random(5)
        for _ in range(15):
            s = ctx5.from_int(rng.randrange(0, 5**10))
            b = ctx5.binomial(s, rng.randrange(0, 12))
            assert b.is_zero() or b.valuation >= 0


class TestPrecisionModel:
    def test_addition_uses_min_absolute_precision(self, ctx5):
        a = ctx5.from_fraction(Fraction(1, 5), relprec=4)  # absprec 3
        b = ctx5.from_int(7, relprec=10)
        assert (a + b).absprec == 3

    def test_multiplication_uses_min_relative_precision(self, ctx5):
        a = ctx5.from_fraction(Fraction(2, 5), relprec=4)
        b = ctx5.from_int(7, relprec=10)
        c = a * b
        assert c.relprec == 4 and c.valuation == -1

    def test_division_by_factorial_costs_its_valuation(self, ctx5):
        assert vp_factorial(25, 5) == 6
        x = ctx5.from_int(1)
        y = x / math.factorial(25)
        assert y.valuation == -6
        assert y.absprec == x.absprec - 6

    def test_precision_honesty_sampled_ops(self):
        # recompute at +8 digits; every digit claimed at the lower precision
        # must be reproduced
        rng = random.Random(31337)
        for p in (3, 7):
            lo = PadicContext(p, 10, 4)
            hi = PadicContext(p, 18, 4)
            for _ in range(40):
                qa = random_unit_fraction(rng, p)
                qb = random_unit_fraction(rng, p)
                s_int = abs(qa.numerator) % p**6
                for build in (
                    lambda c: c.from_fraction(qa) * c.from_fraction(qb),
                    lambda c: c.from_fraction(qa) + c.from_fraction(qb),
                    lambda c: c.from_fraction(qa) / c.from_fraction(qb),
                    lambda c: c.angle(c.from_fraction(qa)),
                    lambda c: c.omega_v(c.from_fraction(qa)) ** 2,
                    lambda c: c.binomial(c.from_int(s_int), 4),
                    lambda c: c.angle_power(c.from_fraction(qa), c.from_int(s_int)),
                ):
                    lo_val = build(lo)
                    hi_val = build(hi)
                    assert agreement_depth(lo_val, hi_val) >= lo_val._absprec_inf()

    def test_agreement_depth_of_bounded_zero(self, ctx5):
        a = ctx5.from_int(7)
        assert agreement_depth(a, a) == a.absprec
        assert agreement_depth(a, ctx5.from_int(7 + 5**3, relprec=16)) == 3


def _key(x: PadicNumber) -> tuple:
    return (x.valuation, x.unit, x.relprec)


@st.composite
def _mixed_terms(draw):
    """A prime and a list of regular numbers, bounded zeros and exact zeros
    at mixed valuations and precisions."""
    p = draw(st.sampled_from((3, 5, 7)))
    regular = st.builds(
        lambda v, rel, u: PadicNumber(p, v, u % p**rel, rel),
        st.integers(-3, 8),
        st.integers(1, 10),
        st.integers(1, p**10).filter(lambda u: u % p),
    )
    bounded = st.integers(-3, 12).map(lambda a: PadicNumber.bounded_zero(p, a))
    exact = st.just(PadicNumber.exact_zero(p))
    return p, draw(st.lists(st.one_of(regular, bounded, exact), min_size=1, max_size=40))


class TestAlternatingSum:
    @given(_mixed_terms(), st.integers(1, 12))
    @settings(max_examples=200, deadline=None)
    def test_grouping_does_not_change_the_sum(self, case, chunk):
        p, terms = case
        signed = [-t if a % 2 else t for a, t in enumerate(terms)]
        # fixed-size chunks combined left to right, exact zeros included
        partials = []
        for start in range(0, len(signed), chunk):
            acc = signed[start]
            for t in signed[start + 1 : start + chunk]:
                acc = acc + t
            partials.append(acc)
        chunked = partials[0]
        for part in partials[1:]:
            chunked = chunked + part
        pairwise = signed
        while len(pairwise) > 1:
            pairs = [pairwise[i] + pairwise[i + 1] for i in range(0, len(pairwise) - 1, 2)]
            pairwise = pairs + pairwise[2 * len(pairs) :]
        total = alternating_sum(PadicContext(p, 8), len(terms), terms.__getitem__)
        assert _key(total) == _key(chunked) == _key(pairwise[0])

    def test_empty_sum_is_exact_zero(self, ctx5):
        assert alternating_sum(ctx5, 0, None).is_exact_zero

    def test_cap_refused_before_any_term(self, ctx3):
        calls = []

        def term(a):
            calls.append(a)
            return ctx3.one()

        # 10**5000 is too long to convert to a decimal string
        for n in (EVALUATION_CAP + 1, 10**5000):
            with pytest.raises(EvaluationCapExceeded):
                alternating_sum(ctx3, n, term)
        assert calls == []

    def test_capped_power_checks_the_exponent_first(self):
        assert capped_power(3, 12) == 3**12 <= EVALUATION_CAP < 3**13
        assert capped_power(1009, 1) == 1009
        # 3**(10**5000) could never be built; the exponent alone refuses it
        for p, e, error in (
            (3, 13, EvaluationCapExceeded),
            (1009, 2, EvaluationCapExceeded),
            (3, 10**7, EvaluationCapExceeded),
            (3, 10**5000, EvaluationCapExceeded),
            (3, -1, ArgumentViolation),
        ):
            with pytest.raises(error):
                capped_power(p, e)


class TestRendering:
    def test_render_forms(self, ctx5):
        assert render(ctx5.exact_zero()) == "0"
        assert render(ctx5.bounded_zero(4)) == "O(5^4)"
        x = PadicContext(5, 3, 0).from_fraction(Fraction(14, 5))
        assert render(x) == "5^-1 * (4 + 2*5 + 0*5^2)"

    def test_context_validation(self):
        with pytest.raises(ValueError):
            PadicContext(4, 10)
        with pytest.raises(ValueError):
            PadicContext(2, 10)
        with pytest.raises(ValueError):
            PadicContext(5, 0)
