import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padiczeta import padic
from padiczeta.errors import (
    ArgumentViolation,
    DivisionByZero,
    EvaluationCapExceeded,
    ExponentOutsideDomain,
    NotAUnit,
    OutsideExpDomain,
    OutsideLogDomain,
    ParseError,
    ZeroArgument,
)
from padiczeta.padic import (
    EVALUATION_CAP,
    MAX_MODULUS_BITS,
    PadicContext,
    PadicNumber,
    _power_residue,
    _vp_split,
    agreement_depth,
    alternating_sum,
    capped_power,
    from_json_dict,
    render,
    to_json_dict,
    vp_factorial,
    vp_int,
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

    def test_equal_contexts_hash_equal(self):
        # the hash is computed once, at construction; equality is the fields'
        for args in ((3, 16), (5, 12, 6), (1009, 60, 8)):
            a, b = PadicContext(*args), PadicContext(*args)
            assert a == b and a is not b and hash(a) == hash(b)
        assert len({PadicContext(3, 16), PadicContext(3, 16, 8), PadicContext(3, 16, 6)}) == 2


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

    @pytest.mark.parametrize("p", [3, 7, 10007])
    def test_digit_literal_valuation_bound(self, p):
        # |v| log2(p) is the size of the p**|v| a series or power of the value
        # builds: the literal is refused past the bound a context puts on its modulus
        ctx = PadicContext(p, 16)
        top = int(MAX_MODULUS_BITS / math.log2(p))
        for v in (top, -top):
            assert ctx.parse_value(f"{v}:1,1").valuation == v
        for v in (top + 1, -top - 1, 10**11, -(10**11)):
            with pytest.raises(ParseError, match="valuation"):
                ctx.parse_value(f"{v}:1")


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


def _defining_power(p, unit, rel, sv, su, sr):
    """u**n modulo p**T for n = s mod p**(T - k), by one modular pow, with
    T the precision that ``_power_residue`` claims: k = v_p(u - 1), or rel
    where u = 1 mod p**rel, and n = 0 for the bounded zero s = O(p**sv)."""
    z = (unit - 1) % p**rel
    k = _vp_split(z, p)[0] if z else rel
    target = sv + k + (min(sr, rel - k) if sr else 0)
    n = su * p**sv % p ** (target - k) if sr else 0
    return pow(unit, n, p**target), target


def _unit_of_order(p, k, rel, c):
    """1 + p**k * c modulo p**rel for c prime to p: v_p(u - 1) = k below rel,
    and u = 1 mod p**rel from k = rel up."""
    return (1 + p**k * c) % p**rel


class TestPowerResidue:
    """``_power_residue`` against the defining power: u**s modulo p**T is
    u**n for the integer n = s mod p**(T - k), which one modular pow gives
    with neither the binomial table nor log and exp."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_equals_the_defining_power(self, data):
        p = data.draw(st.sampled_from((3, 5, 7, 1009, 10007)), label="p")
        k = data.draw(st.sampled_from((1, 2, 3)), label="k")
        sv = data.draw(st.sampled_from((0, 1, 2)), label="sv")
        rel = data.draw(st.integers(1, 398), label="rel")
        sr = data.draw(st.integers(0, 400), label="sr")
        c = data.draw(st.integers(1, p**rel), label="c")
        unit = _unit_of_order(p, k, rel, c + (c % p == 0))
        su = 0
        if sr:
            # a small s leaves the high part 0 or short; the full range fills the table
            su = data.draw(st.one_of(st.integers(1, p**3), st.integers(1, p**sr)), label="su")
            su += su % p == 0
        expected = _defining_power(p, unit, rel, sv, su, sr)
        assert 1 <= expected[1] <= 400
        assert _power_residue(p, unit, rel, sv, su, sr) == expected

    @pytest.mark.parametrize("p", (3, 5, 7, 1009, 10007))
    def test_edges(self, p):
        # T = 200 and k = 1: the split point m is at least 2, and J = 199 // e
        # is at least 19, e = k + m
        memo = padic._binomial_coefficients
        rel, bits = 200, p.bit_length()
        m = math.isqrt(rel // bits) - 1
        e = 1 + m
        cases = {
            "high = 0": (2, rel),
            "high = 3 < J": (2 + 3 * p**m, rel),
            "a bounded-zero s": (0, 0),
        }
        for name, (su, sr) in cases.items():
            memo.cache_clear()
            args = (p, _unit_of_order(p, 1, rel, 2), rel, 0, su, sr)
            assert _power_residue(*args) == _defining_power(*args), name
            tables = [value for value, _ in memo._entries.values()]
            if name == "high = 3 < J":
                assert list(memo._entries) == [(p, rel, e, 3)]
                assert len(tables[0]) == 3 < (rel - 1) // e
            else:
                assert tables == [], name
        # k = rel: u = 1 mod p**rel, the log is a bounded zero
        for k in (1, 2, 3):
            args = (p, _unit_of_order(p, k, k, 2), k, 2, 2, rel)
            assert _power_residue(*args) == _defining_power(*args) == (1, k + 2)

    def test_memo_is_keyed_by_the_exponent(self):
        memo = padic._binomial_coefficients
        memo.cache_clear()
        # s = 2**150: past the first, every base-3 digit of 1/2 is 1, so its
        # digit windows at k = 1 and k = 2 coincide and so would its tables
        p, rel, su = 3, 100, 2**150
        args = (p, 4, rel, 0, su, rel)  # k = 1
        value = _power_residue(*args)
        assert memo.cache_info() == (0, 1, 1)
        assert _power_residue(*args) == value == _defining_power(*args)
        assert memo.cache_info() == (1, 1, 1)
        # another unit at the same k reads the same table
        assert _power_residue(p, 7, rel, 0, su, rel) == _defining_power(p, 7, rel, 0, su, rel)
        assert memo.cache_info() == (2, 1, 1)
        # k = 2 splits n at another point: a new table
        assert _power_residue(p, 19, rel, 0, su, rel) == _defining_power(p, 19, rel, 0, su, rel)
        assert memo.cache_info() == (2, 2, 2)


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


def _digit_operand(draw, p):
    """(value, valuation, digits) of a digit literal; leading zero digits
    raise the valuation, and all-zero digits give a bounded zero."""
    v = draw(st.integers(-2, 2))
    digits = draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=6))
    value = PadicContext(p, 8).parse_value(f"{v}:{','.join(map(str, digits))}")
    return value, v, digits


def _lift(draw, p, v, digits):
    """An exact rational with the given known digits: p**v times the digits
    plus p**len(digits) times a rational tail in Z_p."""
    tail = Fraction(
        draw(st.integers(-(p**8), p**8)), draw(st.integers(1, 50).filter(lambda d: d % p))
    )
    known = sum(d * p**i for i, d in enumerate(digits))
    return (known + tail * p ** len(digits)) * Fraction(p) ** v


def _claims_only_true_digits(p, value, exact):
    """value is the exact zero only where exact is 0, and otherwise agrees
    with exact to its absolute precision."""
    if value.is_exact_zero:
        return exact == 0
    return agreement_depth(value, PadicContext(p, 100, 0).from_fraction(exact)) >= value.absprec


def _partner(p):
    return st.one_of(
        st.integers(-500, 500),
        st.builds(
            Fraction,
            st.integers(-500, 500),
            st.sampled_from((1, 2, 3, 7, p, p * p, 2 * p**3)),
        ),
    )


class TestArithmeticUnderLifts:
    """+, -, * and / of ``PadicNumber`` operands with each other and with int
    and Fraction partners, and ``binomial``: every claimed digit holds for
    every exact rational lift of the operands' unknown digits."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_two_limited_operands(self, data):
        p = data.draw(st.sampled_from((3, 5, 7)))
        a, va, da = _digit_operand(data.draw, p)
        b, vb, db = _digit_operand(data.draw, p)
        results = {"+": a + b, "-": a - b, "*": a * b}
        if not b.is_zero():
            results["/"] = a / b
        for _ in range(3):
            la, lb = _lift(data.draw, p, va, da), _lift(data.draw, p, vb, db)
            exact = {"+": la + lb, "-": la - lb, "*": la * lb}
            if "/" in results:
                exact["/"] = la / lb
            for op, value in results.items():
                assert _claims_only_true_digits(p, value, exact[op]), (op, a, b, la, lb)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_exact_partner(self, data):
        p = data.draw(st.sampled_from((3, 5, 7)))
        a, va, da = _digit_operand(data.draw, p)
        q = data.draw(_partner(p))
        results = {"a+q": a + q, "q+a": q + a, "a-q": a - q, "q-a": q - a}
        results |= {"a*q": a * q, "q*a": q * a}
        if q != 0:
            results["a/q"] = a / q
        if not a.is_zero():
            results["q/a"] = q / a
        for _ in range(3):
            la = _lift(data.draw, p, va, da)
            exact = {"a+q": la + q, "q+a": q + la, "a-q": la - q, "q-a": q - la}
            exact |= {"a*q": la * q, "q*a": q * la}
            if "a/q" in results:
                exact["a/q"] = la / q
            if "q/a" in results:
                exact["q/a"] = q / la
            for op, value in results.items():
                assert _claims_only_true_digits(p, value, exact[op]), (op, a, q, la)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_binomial(self, data):
        p = data.draw(st.sampled_from((3, 5, 7)))
        s, vs, ds = _digit_operand(data.draw, p)
        i = data.draw(st.integers(0, 3 * p))
        value = PadicContext(p, 8).binomial(s, i)
        for _ in range(3):
            ls = _lift(data.draw, p, vs, ds)
            exact = math.prod(ls - j for j in range(i)) / math.factorial(i)
            assert _claims_only_true_digits(p, value, Fraction(exact)), (s, i, ls)


def _literal(draw, p, valuations, lead):
    """(value, valuation, digits) of a digit literal whose first digit is
    drawn from ``lead``; at most seven digits are known."""
    v = draw(st.sampled_from(valuations))
    digits = [draw(lead)] + draw(st.lists(st.integers(0, p - 1), max_size=6))
    value = PadicContext(p, 8).parse_value(f"{v}:{','.join(map(str, digits))}")
    return value, v, digits


class TestTranscendentalsUnderLifts:
    """log, exp, unit_power and angle_power of digit literals: every claimed
    digit holds at every exact rational lift of the unknown digits, where
    the function is evaluated at 40 digits."""

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_log(self, data):
        p = data.draw(st.sampled_from((3, 5, 7)))
        u, vu, du = _literal(data.draw, p, (0,), st.just(1))
        value = PadicContext(p, 8).log(u)
        reference = PadicContext(p, 40)
        for _ in range(3):
            lu = _lift(data.draw, p, vu, du)
            assert agreement_depth(value, reference.log(lu)) >= value.absprec, (u, lu)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_exp(self, data):
        p = data.draw(st.sampled_from((3, 5, 7)))
        z, vz, dz = _literal(data.draw, p, (1, 2), st.integers(0, p - 1))
        value = PadicContext(p, 8).exp(z)
        reference = PadicContext(p, 40)
        for _ in range(3):
            lz = _lift(data.draw, p, vz, dz)
            assert agreement_depth(value, reference.exp(lz)) >= value.absprec, (z, lz)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_unit_power(self, data):
        p = data.draw(st.sampled_from((3, 5, 7)))
        u, vu, du = _literal(data.draw, p, (0,), st.just(1))
        s, vs, ds = _literal(data.draw, p, (0, 1, 2), st.integers(0, p - 1))
        value = PadicContext(p, 8).unit_power(u, s)
        reference = PadicContext(p, 40)
        for _ in range(3):
            lu, ls = _lift(data.draw, p, vu, du), _lift(data.draw, p, vs, ds)
            lifted = reference.unit_power(lu, ls)
            assert agreement_depth(value, lifted) >= value.absprec, (u, s, lu, ls)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_angle_power(self, data):
        p = data.draw(st.sampled_from((3, 5, 7)))
        x, vx, dx = _literal(data.draw, p, (-2, -1, 0, 1, 2), st.integers(1, p - 1))
        s, vs, ds = _literal(data.draw, p, (0, 1, 2), st.integers(0, p - 1))
        value = PadicContext(p, 8).angle_power(x, s)
        reference = PadicContext(p, 40)
        for _ in range(3):
            lx, ls = _lift(data.draw, p, vx, dx), _lift(data.draw, p, vs, ds)
            lifted = reference.angle_power(lx, ls)
            assert agreement_depth(value, lifted) >= value.absprec, (x, s, lx, ls)


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


class TestValuations:
    def test_split_strips_every_factor_of_p(self):
        for p in (3, 5, 1009):
            for unit in (1, -2, 77, p + 1):
                for v in (0, 1, 6):
                    assert _vp_split(unit * p**v, p) == (v, unit)
                    assert vp_int(unit * p**v, p) == v

    def test_split_refuses_zero(self):
        with pytest.raises(ZeroArgument):
            _vp_split(0, 3)
        with pytest.raises(ZeroArgument):
            vp_int(0, 3)


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

    @pytest.mark.parametrize("p", (3, 5, 1009))
    def test_digits_match_the_divmod_loop(self, p):
        # the divide-and-conquer conversion gives the digits of one divmod
        # by p per digit, at lengths on both sides of every split
        rng = random.Random(5100 + p)
        lengths = [1, 2, 63, 64, 65, 127, 128, 129, 1000, 3000]
        lengths += [rng.randrange(1, 3001) for _ in range(10)]
        for count in lengths:
            unit = rng.randrange(1, p**count)
            while unit % p == 0:
                unit = rng.randrange(1, p**count)
            x = PadicNumber(p, rng.randrange(-3, 4), unit, count)
            digits, u = [], unit
            for _ in range(count):
                u, d = divmod(u, p)
                digits.append(d)
            assert to_json_dict(x)["digits"] == digits, count
            expected = " + ".join(
                str(d) if i == 0 else f"{d}*{p}" if i == 1 else f"{d}*{p}^{i}"
                for i, d in enumerate(digits)
            )
            assert render(x) == f"{p}^{x.valuation} * ({expected})", count

    def test_context_validation(self):
        with pytest.raises(ValueError):
            PadicContext(4, 10)
        with pytest.raises(ValueError):
            PadicContext(2, 10)
        with pytest.raises(ValueError):
            PadicContext(5, 0)
