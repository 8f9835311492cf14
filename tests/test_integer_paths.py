"""The integer-residue series, log/exp and representation sums give the bytes
of object arithmetic.

``object_reference`` evaluates every step as a ``PadicNumber`` operation;
the library works on integer residues with cached coefficients.  Values are
compared through ``render`` and ``to_json_dict``, library errors by their
type.
"""

import json
import math
import random
import sys
import threading
from fractions import Fraction
from functools import partial

import object_reference as ref
import pytest
import teichmuller_reference
from hypothesis import given, settings
from hypothesis import strategies as st

from padiczeta import euler, padic
from padiczeta.characters import DirichletCharacter, _char_values, char_eval
from padiczeta.errors import BudgetExhausted, PadicError
from padiczeta.padic import (
    PadicContext,
    PadicNumber,
    _teichmuller_root,
    render,
    teichmuller_table,
    to_json_dict,
    vp_fraction,
)
from padiczeta.zeta_char import _representation_sum
from padiczeta.zeta_czp import (
    SeriesBudget,
    _coefficients,
    _laurent_series,
    _triple,
    integral_of_zeta,
    zeta_czp,
    zeta_shifted,
)

PRIMES = (3, 5, 7, 1009)


def _outcome(fn, *args):
    try:
        value = fn(*args)
    except PadicError as exc:  # the exception type is part of the contract
        return type(exc).__name__
    return render(value), json.dumps(to_json_dict(value), sort_keys=True)


def _same(reference, library, *args):
    expected = _outcome(reference, *args)
    assert _outcome(library, *args) == expected, (reference.__name__, args)


def _coprime(rng, p, hi=10**6):
    while True:
        n = rng.randrange(1, hi)
        if n % p:
            return n


def _digits(rng, p, count, lead_nonzero=False):
    first = rng.randrange(1, p) if lead_nonzero else rng.randrange(p)
    return ",".join([str(first)] + [str(rng.randrange(p)) for _ in range(count - 1)])


def _exponents(ctx, rng):
    p = ctx.p
    return [
        1,  # 1 - s is a bounded zero
        0,
        -1,  # s = 1 - m: the binomial turns into a bounded zero
        -4,
        2,
        rng.randrange(2, p**12),
        Fraction(_coprime(rng, 2), _coprime(rng, p, 1000)),
        ctx.parse_value("0:" + _digits(rng, p, 2)),  # low relprec
        ctx.parse_value("0:1,0"),  # 1 - s = O(p^2): bounded from the first binomial on
        ctx.parse_value("1:" + _digits(rng, p, 3, lead_nonzero=True)),
        ctx.bounded_zero(3),
    ]


def _arguments(ctx, rng, k):
    p = ctx.p
    return [
        Fraction(_coprime(rng, p) * rng.choice((1, -1)), p**k),
        ctx.parse_value(f"{-k}:" + _digits(rng, p, 2, lead_nonzero=True)),
        ctx.parse_value(f"{-k}:" + _digits(rng, p, 9, lead_nonzero=True)),
    ]


def _weights(ctx, x, u):
    """(weight key, weight function, decay) of the three series at x."""
    k = -x.valuation
    return [
        ((Fraction(0), 0), euler.euler_zero, k),
        ((Fraction(0), 1), lambda i: euler.euler_zero(i + 1), k),
        ((u, 0), lambda i: euler.euler_poly(i, u), k + min(0, vp_fraction(u, ctx.p))),
    ]


@pytest.mark.parametrize("p", PRIMES)
def test_laurent_series_bytes(p):
    rng = random.Random(4100 + p)
    ctx = PadicContext(p, 8, 4)
    budget = SeriesBudget(target_prec=8)
    for s in _exponents(ctx, rng):
        one_minus_s = ctx.one() - ctx.coerce(s)
        # largest |v_p(x)| first: later arguments need more terms, and so
        # coefficient sets of their own
        for k in (3, 2, 1):
            for x in _arguments(ctx, rng, k):
                u = Fraction(_coprime(rng, p, 50), p ** (k - 1))
                _same(ref.zeta_czp, zeta_czp, ctx, s, x, budget)
                _same(ref.integral_of_zeta, integral_of_zeta, ctx, s, x, budget)
                _same(ref.zeta_shifted, zeta_shifted, ctx, s, x, u, budget)
                # the bare sums: the prefactor and the final cap can hide
                # their precision
                xp = ctx.coerce(x)
                for weight, fn, decay in _weights(ctx, xp, u):
                    expected = _outcome(
                        ref.weighted_series, ctx, one_minus_s, xp, fn, decay, budget
                    )
                    got = _outcome(_series_value, ctx, one_minus_s, xp, weight, decay, budget)
                    assert got == expected, (s, x, weight)


def _series_value(ctx, one_minus_s, x, weight, decay, budget):
    """The triple ``_laurent_series`` gives, as a value."""
    triple = _laurent_series(ctx, _triple(one_minus_s), _triple(x), weight, decay, budget)
    return PadicNumber(ctx.p, *triple)


@st.composite
def _coefficient_cases(draw):
    """(p, prec, triple of 1 - s, weight, terms, dx, rx) for the coefficient builder."""
    p = draw(st.sampled_from((3, 5, 7, 11, 1009)))
    prec = draw(st.integers(1, 40))

    def unit(rel):
        return draw(st.integers(0, p**rel - 1).filter(lambda n: n % p))

    kind = draw(st.sampled_from(("regular", "low", "zero", "integer")))
    if kind == "regular":
        v = draw(st.integers(0, 3))
        r = draw(st.integers(1, prec))
        one_minus_s = (v, unit(r), r)
    elif kind == "low":  # fewer digits than most steps need
        r = draw(st.integers(1, 2))
        one_minus_s = (draw(st.integers(0, 1)), unit(r), r)
    elif kind == "zero":  # O(p^A): bounded from the first step on
        one_minus_s = (draw(st.sampled_from((0, 1, prec))), 0, 0)
    else:  # 1 - s = m: the set vanishes from i = m on
        m = PadicNumber._normalize(p, 0, draw(st.integers(1, 80)), prec)
        one_minus_s = (m.valuation, m.unit, m.relprec)
    denominator = draw(st.sampled_from((1, 2, 3, p, p * p)))
    shift = Fraction(draw(st.integers(-60, 60).filter(bool)), denominator)
    weight = draw(st.sampled_from(((0, 0), (0, 1), (shift, 0))))
    # -v_p(x) and the relative precision of x, often fewer digits than prec
    dx, rx = draw(st.integers(1, 4)), draw(st.integers(1, prec + 2))
    return p, prec, one_minus_s, weight, draw(st.integers(1, 80)), dx, rx


@settings(max_examples=200, deadline=None)
@given(_coefficient_cases())
def test_coefficients_match_object_arithmetic(case):
    # the absolute precision of the sum, the base and both Horner halves of
    # the integer builder are those of PadicNumber products
    assert _coefficients.__wrapped__(*case) == ref.coefficients(*case)


def test_default_precision_bytes(ctx3, ctx7):
    rng = random.Random(4200)
    for ctx in (ctx3, ctx7):
        for s in (1, -2, Fraction(3, 2), rng.randrange(2, ctx.p**12)):
            x = Fraction(_coprime(rng, ctx.p), ctx.p)
            _same(ref.zeta_czp, zeta_czp, ctx, s, x)
            _same(ref.integral_of_zeta, integral_of_zeta, ctx, s, x)
            _same(ref.zeta_shifted, zeta_shifted, ctx, s, x, Fraction(1, 2))


@pytest.mark.parametrize("p", PRIMES)
def test_one_minus_s_bytes(p):
    # 1 - s at the edges of its precision: bounded zeros on both sides of 0
    # and of the internal precision, an s known beyond it, an s divisible by
    # p**prec and one that cancels 1 to every known digit
    rng = random.Random(4700 + p)
    ctx = PadicContext(p, 6, 2)
    prec = ctx.internal_prec
    exponents = [
        *(ctx.bounded_zero(a) for a in (-1, 0, 1, prec, prec + 2)),
        PadicNumber._normalize(p, 0, _coprime(rng, p, p**12), prec + 3),
        PadicNumber._normalize(p, prec, 1, prec + 3),
        PadicNumber._normalize(p, 0, 1 + p**5 * _coprime(rng, p), 5),
        ctx.exact_zero(),
    ]
    x = Fraction(_coprime(rng, p), p**2)
    for s in exponents:
        _same(ref.zeta_czp, zeta_czp, ctx, s, x)
        _same(ref.integral_of_zeta, integral_of_zeta, ctx, s, x)


@pytest.mark.parametrize("p", (3, 7))
def test_budget_exhausted_at_same_term_count(p):
    ctx = PadicContext(p, 16)
    x = Fraction(2, p)
    terms = ref._tail_start(p, 1, ctx.workprec + ctx.series_guard)
    for fn, reference in ((zeta_czp, ref.zeta_czp), (integral_of_zeta, ref.integral_of_zeta)):
        short = SeriesBudget(max_terms=terms - 1)
        with pytest.raises(BudgetExhausted):
            reference(ctx, 5, x, short)
        with pytest.raises(BudgetExhausted):
            fn(ctx, 5, x, short)
        _same(reference, fn, ctx, 5, x, SeriesBudget(max_terms=terms))


def _zp_arguments(ctx, rng):
    """x in Z_p: exact, rational, digit literals of valuation 0-2 (one with more
    digits than the internal precision), bounded zeros."""
    p = ctx.p
    return [
        0,
        rng.randrange(1, 10**6),
        Fraction(rng.randrange(-1000, 1000), _coprime(rng, p, 1000)),
        *(
            ctx.parse_value(f"{v}:" + _digits(rng, p, rng.randrange(2, 6), lead_nonzero=True))
            for v in (0, 1, 2)
        ),
        ctx.parse_value("0:" + _digits(rng, p, ctx.internal_prec + 3, lead_nonzero=True)),
        *(ctx.bounded_zero(a) for a in (-1, 0, 1, 3)),
    ]


def _char_exponents(ctx, rng):
    p = ctx.p
    return [
        0,
        1,
        1 - rng.randrange(1, 6),  # s = 1 - m
        rng.randrange(2, p**12),
        Fraction(_coprime(rng, 2), _coprime(rng, p, 1000)),
        ctx.parse_value("0:" + _digits(rng, p, 3)),
        ctx.bounded_zero(2),
    ]


@pytest.mark.parametrize("p", (3, 5, 7, 11))
def test_representation_sum_bytes(p):
    rng = random.Random(4500 + p)
    ctx = PadicContext(p, 8, 4)
    n = 5 if p == 3 else 3  # an odd factor N coprime to p
    moduli = (p, p * p, n * p)
    chars = [DirichletCharacter(p, v, k) for v in (1, 2) for k in range(p - 1)]
    # the default budget (twice as often), one refused for its term count and
    # a target below workprec
    default, short, low = SeriesBudget(), SeriesBudget(max_terms=3), SeriesBudget(target_prec=5)
    budgets = (default, default, short, low)
    exponents = _char_exponents(ctx, rng)
    cases = [(x, s) for x in _zp_arguments(ctx, rng) for s in exponents]
    for i, (x, s) in enumerate(cases):
        chi = chars[i % len(chars)]
        for big_m in moduli:
            budget = rng.choice(budgets)
            expected = _outcome(ref.representation_sum, ctx, chi, s, x, big_m, budget)
            got = _outcome(_representation_sum, ctx, chi, s, x, big_m, budget)
            assert got == expected, (chi, s, x, big_m, budget)


def test_representation_sum_refuses_a_long_sum_first(ctx3):
    # M = 3^13 > EVALUATION_CAP is refused before the precision of x is read
    chi = DirichletCharacter(3, 1, 1)
    for x in (ctx3.bounded_zero(0), 1):
        for fn in (ref.representation_sum, _representation_sum):
            assert _outcome(fn, ctx3, chi, 2, x, 3**13, SeriesBudget()) == "EvaluationCapExceeded"


# (workprec, guard) per prime where the exponent of a unit power is split into
# a low part by modular pow and a high part by log and exp on u**(p**m):
# m = 11 at p = 3 and 308 digits, m = 1 at p = 1009 and 68 digits (and 0 at
# 24); the other contexts split it at m <= 2
SPLIT_CONTEXTS = {3: (300, 8), 1009: (60, 8)}


def _split_exponents(ctx, rng):
    """v_p(s) above every split point (the low part is 0), and an integer
    below p (fewer digits than the split point: the high part is 0)."""
    p, prec = ctx.p, ctx.internal_prec
    return [
        PadicNumber._normalize(p, math.isqrt(prec) + 1, _coprime(rng, p, p**9), prec),
        rng.randrange(2, p),
    ]


@pytest.mark.parametrize("p", PRIMES)
def test_log_exp_unit_power_bytes(p):
    rng = random.Random(4300 + p)
    contexts = [(16, 8, 40), (5, 0, 40), (1, 0, 40)]
    if p in SPLIT_CONTEXTS:
        contexts.append((*SPLIT_CONTEXTS[p], 4))
    for workprec, guard, cases in contexts:
        ctx = PadicContext(p, workprec, guard)
        prec = ctx.internal_prec
        for _ in range(cases):
            rel = rng.randrange(1, prec + 3)
            unit = PadicNumber._normalize(p, 0, 1 + p * rng.randrange(p**rel), rel)
            k = rng.randrange(-1, 5)
            rz = rng.randrange(1, prec + 3)
            z = PadicNumber._normalize(p, k, _coprime(rng, p, p**rz + 2), k + rz)
            s = PadicNumber._normalize(p, rng.randrange(-1, 3), rng.randrange(p**rz), rz + 2)
            zeros = [ctx.bounded_zero(rng.randrange(-1, prec + 1)), ctx.exact_zero()]
            for arg in [unit, z, ctx.one(), _coprime(rng, p, 100)] + zeros:
                _same(ref.log, PadicContext.log, ctx, arg)
                _same(ref.exp, PadicContext.exp, ctx, arg)
            for exponent in [s] + zeros + _split_exponents(ctx, rng):
                _same(ref.unit_power, PadicContext.unit_power, ctx, unit, exponent)
            # a unit = 1 mod p**rel: the log is a bounded zero
            one = PadicNumber._normalize(p, 0, 1 + p**rel * rng.randrange(p), rel)
            _same(ref.unit_power, PadicContext.unit_power, ctx, one, s)


def _unit_power_of_angle(ctx, x, s):
    return ref.unit_power(ctx, ctx.angle(x), s)


@pytest.mark.parametrize("p", PRIMES)
def test_angle_power_bytes(p):
    rng = random.Random(4600 + p)
    for workprec, guard in ((16, 8), (5, 0), (1, 0)):
        ctx = PadicContext(p, workprec, guard)
        prec = ctx.internal_prec
        # digit literals at both sides of the internal precision, and beyond it
        relprecs = {1, 2, prec, prec + 3} | set(rng.sample(range(1, prec + 4), min(3, prec + 3)))
        arguments = [
            ctx.parse_value(f"{v}:" + _digits(rng, p, r, lead_nonzero=True))
            for v in range(-3, 3)
            for r in sorted(relprecs)
        ]
        arguments += [
            1,  # <1> = 1: the log is a bounded zero
            p,
            -_coprime(rng, p) * p**2,
            Fraction(_coprime(rng, p), p**2),
            Fraction(_coprime(rng, p), _coprime(rng, p, 1000)),
            *(ctx.bounded_zero(a) for a in (-1, 0, 3)),
            0,
            ctx.exact_zero(),
        ]
        exponents = [
            PadicNumber._normalize(p, 0, _coprime(rng, p, p**prec), prec),
            PadicNumber._normalize(p, 0, _coprime(rng, p, p**5), 2),  # fewer digits than x
            PadicNumber._normalize(p, 0, _coprime(rng, p, p**9), prec + 3),
            PadicNumber._normalize(p, 1, _coprime(rng, p, p**9), prec + 1),  # in pZ_p
            PadicNumber._normalize(p, 3, _coprime(rng, p, p**9), 5),
            Fraction(_coprime(rng, 2, 1000), _coprime(rng, p, 1000)),
            Fraction(1, p),  # outside Z_p
            PadicNumber._normalize(p, -1, _coprime(rng, p, p**4), 3),
            *(ctx.bounded_zero(a) for a in (-1, 0, 1, prec + 2)),
            ctx.exact_zero(),
            *_split_exponents(ctx, rng),
        ]
        for x in arguments:
            for s in exponents:
                _same(_unit_power_of_angle, PadicContext.angle_power, ctx, x, s)


@pytest.mark.parametrize("p", sorted(SPLIT_CONTEXTS))
def test_angle_power_bytes_split_exponent(p):
    rng = random.Random(4650 + p)
    ctx = PadicContext(p, *SPLIT_CONTEXTS[p])
    prec = ctx.internal_prec
    arguments = [
        ctx.parse_value(f"{v}:" + _digits(rng, p, r, lead_nonzero=True))
        for v, r in ((-1, prec), (0, prec + 3), (1, 2))
    ]
    arguments += [
        1,  # the log is a bounded zero
        1 + p ** (prec - 1),  # <x> = 1 mod p**(prec - 1): the log keeps one digit
        Fraction(_coprime(rng, p), p**2),
        Fraction(_coprime(rng, p), _coprime(rng, p, 1000)),
    ]
    exponents = [
        PadicNumber._normalize(p, 0, _coprime(rng, p, p**prec), prec),
        PadicNumber._normalize(p, 2, _coprime(rng, p, p**9), prec + 1),
        Fraction(_coprime(rng, 2, 1000), _coprime(rng, p, 1000)),
        ctx.bounded_zero(1),
        *_split_exponents(ctx, rng),
    ]
    for x in arguments:
        for s in exponents:
            _same(_unit_power_of_angle, PadicContext.angle_power, ctx, x, s)


@pytest.mark.parametrize("p", (3, 7, 1009))
def test_table_read_character_equals_char_eval(p):
    # omega(a mod p) from teichmuller_table against one lift per argument,
    # over every residue and the arguments char_eval refuses or sends to 0
    ctx = PadicContext(p, 16)
    arguments = [
        *range(-p, 2 * p),
        Fraction(_coprime(random.Random(p), p, 1000), 2),
        ctx.parse_value("0:1,2"),
        ctx.bounded_zero(0),  # unit status unknown
        ctx.bounded_zero(2),
        ctx.exact_zero(),
        Fraction(1, p),  # outside Z_p
    ]
    for k in sorted({0, 1, 2, p - 2} & set(range(p - 1))):
        chi = DirichletCharacter(p, 1 + k % 2, k)
        chi_at = _char_values(ctx, chi)
        for a in arguments:
            _same(partial(char_eval, ctx, chi), chi_at, a)
    other = DirichletCharacter(5, 1, 1)  # another prime
    _same(partial(char_eval, ctx, other), _char_values(ctx, other), 1)


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from((3, 5, 7, 11, 13, 1009, 10007)),
    st.integers(1, 300),
    st.data(),
)
def test_teichmuller_newton_matches_frobenius(p, prec, data):
    u = data.draw(st.integers(1, p - 1))
    expected = teichmuller_reference.teichmuller_root(p, prec, u)
    assert _teichmuller_root(p, prec, u) == expected
    assert PadicContext(p, prec, 0).teichmuller(u).unit == expected
    if p <= 13:  # a table at p = 10007 and 300 digits would hold 5 MB
        assert teichmuller_table(p, prec)[u] == expected


def test_concurrent_extension_of_shared_coefficients():
    # a precision no other test uses, so every thread starts on a cold set
    ctx = PadicContext(5, 13, 2)
    s = Fraction(7, 3)
    xs = [Fraction(n, 5**k) for k in (3, 2, 1) for n in (1, 2, 3, 4, 6, 7)]
    expected = {x: _outcome(ref.integral_of_zeta, ctx, s, x) for x in xs}
    results = {}
    errors = []

    def work(index, order):
        try:
            for x in order:
                # integral_of_zeta reads two memoised expansions; threads that
                # miss the same one at once build the same coefficient set
                results[(index, x)] = _outcome(integral_of_zeta, ctx, s, x)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    rng = random.Random(4400)
    threads = [
        threading.Thread(target=work, args=(i, rng.sample(xs, len(xs)))) for i in range(6)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and not errors
    assert len(results) == len(threads) * len(xs)
    assert all(value == expected[x] for (_, x), value in results.items())


@pytest.mark.parametrize(
    "p, prec",
    # least primitive roots 3, 5, 6, 7, 19, 21 and 5: none of them is 2
    [(7, 12), (23, 9), (41, 7), (71, 5), (191, 4), (409, 4), (10007, 4)],
)
def test_teichmuller_table_from_one_primitive_root(p, prec):
    table = teichmuller_table(p, prec)
    assert table[0] == 0
    assert list(table[1:]) == [
        teichmuller_reference.teichmuller_root(p, prec, u) for u in range(1, p)
    ]


def test_teichmuller_table_lifts_once(monkeypatch):
    lifts = []

    def counted(p, prec, u):
        lifts.append(u)
        return _teichmuller_root(p, prec, u)

    monkeypatch.setattr(padic, "_teichmuller_root", counted)
    teichmuller_table.cache_clear()
    teichmuller_table(409, 6)
    assert lifts == [21]


def test_teichmuller_table_cache_bounded_by_bits():
    teichmuller_table.cache_clear()
    table = teichmuller_table(10007, 300)  # about 45 million bits, under the 67 of the bound
    assert table[5] == _teichmuller_root(10007, 300, 5)
    assert teichmuller_table.cache_info() == (0, 1, 1)
    assert teichmuller_table(10007, 300) is table
    teichmuller_table(10007, 28)  # about 7 million bits
    assert teichmuller_table.cache_info() == (1, 2, 2)
    # about 60 million bits: the oldest table goes until the bound holds
    teichmuller_table(10007, 400)
    assert teichmuller_table.cache_info() == (1, 3, 2)
    assert list(teichmuller_table._entries) == [(10007, 28), (10007, 400)]
    assert 0 < teichmuller_table.bits <= teichmuller_table.max_bits == padic._MEMO_BITS
    teichmuller_table.cache_clear()


def test_memo_value_over_its_bound_is_kept_alone(monkeypatch):
    teichmuller_table.cache_clear()
    kept = teichmuller_table(3, 50)
    assert teichmuller_table(3, 50) is kept
    assert teichmuller_table.cache_info() == (1, 1, 1)
    assert teichmuller_table.bits == padic._retained_bits(kept)
    monkeypatch.setattr(teichmuller_table, "max_bits", teichmuller_table.bits)
    # the newest value is kept whatever its size: built once, read again
    big = teichmuller_table(3, 60)
    assert big == (0, _teichmuller_root(3, 60, 1), _teichmuller_root(3, 60, 2))
    assert teichmuller_table(3, 60) is big
    assert teichmuller_table.cache_info() == (2, 2, 1)
    assert teichmuller_table.bits == padic._retained_bits(big) > teichmuller_table.max_bits
    # and the next insert evicts it
    assert teichmuller_table(3, 50) == kept
    assert teichmuller_table.cache_info() == (2, 3, 1)
    assert list(teichmuller_table._entries) == [(3, 50)]
    teichmuller_table.cache_clear()
    assert teichmuller_table.cache_info() == (0, 0, 0) and teichmuller_table.bits == 0


def test_memo_hit_does_not_protect_the_oldest_entry():
    def build(n):
        return tuple(range(n, n + 40))

    memo = padic._BitsMemo(build, 2 * padic._retained_bits(build(1)))
    memo(1)
    memo(2)
    assert memo(1) == build(1)  # a hit: the entry stays the oldest
    memo(3)
    assert list(memo._entries) == [(2,), (3,)]
    assert memo.cache_info() == (1, 3, 2)
    assert memo.bits == memo.max_bits


def test_memo_accounting_under_threads():
    # a bound of about three values: every thread evicts what others read
    memo = padic._BitsMemo(lambda n: tuple(range(n, n + 40)), 3 * 40 * 300)
    keys = [n % 17 for n in range(300)]
    wrong = []

    def work(order):
        wrong.extend(n for n in order if memo(n) != tuple(range(n, n + 40)))

    rng = random.Random(4401)
    threads = [threading.Thread(target=work, args=(rng.sample(keys, len(keys)),)) for _ in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and not wrong
    info = memo.cache_info()
    assert info.hits + info.misses == len(threads) * len(keys)
    assert info.misses > 17  # values were evicted and built again
    assert 0 < memo.bits <= memo.max_bits
    assert memo.bits == sum(padic._retained_bits(v) for v, _ in memo._entries.values())
    assert info.currsize == len(memo._entries) < 17


def test_teichmuller_single_residue_leaves_table_cold():
    before = teichmuller_table.cache_info()
    ctx = PadicContext(10007, 4, 0)
    w = ctx.teichmuller(ctx.from_int(5))
    assert pow(w.unit, 10006, 10007**4) == 1 and w.unit % 10007 == 5
    assert teichmuller_table.cache_info().currsize == before.currsize
    table = teichmuller_table(7, 12)
    ctx7 = PadicContext(7, 12, 0)
    assert [ctx7.teichmuller(u).unit for u in range(1, 7)] == list(table[1:])
