"""The oracle kernels give the numbers of the literal per-term loops.

``kernel_reference`` computes every term a < p^N on its own; the library
evaluates each sum as a dot product of its first few terms with cached
weights (``kernels._alternating_newton_sum``).  Numbers are compared through
``render`` and ``absprec``; the Newton sums themselves are compared with
literal sums at the edges of their degree bound, and with the forward
differences of ``kernel_reference.alternating_newton_sum`` for any values.
"""

import sys
from fractions import Fraction

import kernel_reference as ref
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padiczeta import kernels
from padiczeta.characters import DirichletCharacter
from padiczeta.errors import ArgumentViolation, EvaluationCapExceeded
from padiczeta.padic import PadicContext, _BitsMemo, render, vp_int
from padiczeta.verify import _REGISTRY, VerifyConfig
from padiczeta.zeta_char import ell_limit_oracle, raabe_char, zeta_char_oracle
from padiczeta.zeta_czp import (
    integral_of_zeta_oracle,
    zeta_czp_oracle,
    zeta_special_pos,
)

ACCEPTANCE = VerifyConfig(primes=(3, 5, 7), workprec=16, oracle_depth=6)


def _grid(name):
    (identity,) = [i for i in _REGISTRY if i.name == name]
    return identity.grid(ACCEPTANCE)


# the literal loops cost p^N terms: p = 3 and 5 reach the acceptance depth 6,
# p = 7 stops at 7^4 = 2401 terms to keep the suite quick
_MAX_DEPTH = {3: 8, 5: 6, 7: 4}


def _depths(p, low=2):
    return tuple(range(low, _MAX_DEPTH[p] + 1))


def _key(number):
    return render(number), number.absprec


def _same_sums(expected, got):
    assert {n: _key(v) for n, v in got.items()} == {n: _key(v) for n, v in expected.items()}


def _special_pos_reference(ctx, m, x, depth):
    """omega_v(x)^m times the literal sum of (x+a)^(-m) (-1)^a."""
    omega_v = ctx.omega_v(x)
    return omega_v**m * ref.inverse_power_sums(ctx.p, ctx.internal_prec, x, m, (depth,))[depth]


def test_oracle_czp_grid():
    for p, s, x in _grid("oracle-czp"):
        prec = ACCEPTANCE.ctx(p).internal_prec
        depths = _depths(p)
        _same_sums(
            ref.hurwitz_sums(p, prec, x, s, depths), kernels.hurwitz_sums(p, prec, x, s, depths)
        )


def test_oracle_char_grid():
    for p, v, k, s, x in _grid("oracle-char"):
        ctx = ACCEPTANCE.ctx(p)
        depths = _depths(p, low=1)
        expected = ref.char_hurwitz_sums(p, ctx.internal_prec, k, x, s, depths)
        _same_sums(expected, kernels.char_hurwitz_sums(p, ctx.internal_prec, k, x, s, depths))
        chi = DirichletCharacter(p, v, k)
        depth = depths[-1]
        assert _key(zeta_char_oracle(ctx, chi, s, x, depth)) == _key(expected[depth])


def test_ell_oracle_grid():
    for p, v, k, s in _grid("ell-oracle"):
        ctx = ACCEPTANCE.ctx(p)
        chi = DirichletCharacter(p, v, k)
        expected = ref.char_hurwitz_sums(p, ctx.internal_prec, k, Fraction(0), s, _depths(p, low=1))
        for depth, value in expected.items():
            assert _key(ell_limit_oracle(ctx, chi, s, depth)) == _key(value), (p, k, s, depth)


def test_integral_convergence_grid():
    m_max = 12
    for p, x in _grid("integral-convergence"):
        depths = _depths(p)
        prec = ACCEPTANCE.workprec + 6 + max(depths)
        _same_sums(
            ref.monomial_alternating_sums(p, prec, x, m_max, depths),
            kernels.monomial_alternating_sums(p, prec, x, m_max, depths),
        )


def test_special_pos_grid():
    for p, m, x in _grid("special-pos"):
        ctx = ACCEPTANCE.ctx(p)
        for depth in _depths(p):
            expected = _special_pos_reference(ctx, m, x, depth)
            _, oracle = zeta_special_pos(ctx, m, x, depth)
            assert _key(oracle) == _key(expected), (p, m, x, depth)


@st.composite
def _kernel_inputs(draw):
    p = draw(st.sampled_from((3, 5, 7)))
    ctx = PadicContext(p, draw(st.integers(4, 16)), draw(st.integers(0, 8)))
    unit = st.integers(-(p**6), p**6).filter(lambda n: n % p)
    coprime = st.integers(1, 10**4).filter(lambda n: n % p)
    outside = Fraction(draw(unit), draw(coprime) * p ** draw(st.integers(1, 3)))
    inside = Fraction(draw(st.integers(-(p**6), p**6)), draw(coprime))
    digits = draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=12))
    s = draw(
        st.one_of(
            st.integers(-(p**12), p**12),
            st.builds(Fraction, st.integers(-(10**6), 10**6), coprime),
            st.just(
                ctx.parse_value(f"{draw(st.integers(0, 2))}:" + ",".join(map(str, digits)))
            ),
        )
    )
    k = draw(st.integers(0, p - 2))
    depths = tuple(sorted(draw(st.sets(st.integers(1, 3), min_size=1))))
    return ctx, outside, inside, s, k, depths


@settings(max_examples=60, deadline=None)
@given(_kernel_inputs())
def test_kernels_match_reference(inputs):
    ctx, outside, inside, s, k, depths = inputs
    p, prec = ctx.p, ctx.internal_prec
    expected = ref.hurwitz_sums(p, prec, outside, s, depths)
    _same_sums(expected, kernels.hurwitz_sums(p, prec, outside, s, depths))
    _same_sums(
        ref.char_hurwitz_sums(p, prec, k, inside, s, depths),
        kernels.char_hurwitz_sums(p, prec, k, inside, s, depths),
    )
    depth = depths[-1]
    assert _key(zeta_czp_oracle(ctx, s, outside, depth)) == _key(expected[depth])
    m = k + 1
    _, oracle = zeta_special_pos(ctx, m, outside, depth)
    assert _key(oracle) == _key(_special_pos_reference(ctx, m, outside, depth))


def _newton_degree(p, g_prec, v):
    """The least d with d*v + v_p(d!) >= g_prec (v_p(d!) by Legendre's sum)."""
    d = 0
    while d * v + sum(d // p**i for i in range(1, d + 1)) < g_prec:
        d += 1
    return d


def _literal(p, g_prec, f, counts):
    return {n: sum((-1) ** b * f(b) for b in range(n)) % p**g_prec for n in counts}


@st.composite
def _progressions(draw):
    p = draw(st.sampled_from((3, 5, 7)))
    g_prec = draw(st.integers(1, 40))
    unit = st.integers(-(10**6), 10**6).filter(lambda n: n % p)
    v = draw(st.integers(1, 3))
    step = p**v * draw(st.one_of(st.just(1), unit))  # cofactor 1 or any integer prime to p
    e = draw(
        st.one_of(
            st.integers(-(10**3), -1),
            st.just(0),
            # the reduced exponent of a non-integer s, as hurwitz_sums makes it
            st.builds(Fraction, unit, st.integers(2, 10**4).filter(lambda n: n % p)).map(
                lambda s: kernels._exponent_one_minus(p, g_prec - 1, s)
            ),
        )
    )
    degree = _newton_degree(p, g_prec, v)
    counts = {1, degree - 1, degree, degree + 1, draw(st.integers(1, 4 * degree + 8))} - {0}
    return p, g_prec, draw(unit), step, e, counts


@settings(max_examples=300, deadline=None)
@given(_progressions())
def test_angle_power_sums_match_literal_sums(inputs):
    p, g_prec, y0, step, e, counts = inputs
    assert vp_int(y0, p) == 0 and 1 <= vp_int(step, p) <= 3
    got = kernels._angle_power_sums(p, g_prec, y0, step, e, counts)
    mod = p**g_prec
    expected = _literal(p, g_prec, lambda b: pow(y0 + b * step, e, mod), counts)
    assert {n: total % mod for n, total in got.items()} == expected


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from((3, 5, 7)),
    st.integers(1, 30),
    st.lists(st.integers(-(10**9), 10**9), min_size=1, max_size=16),
    st.integers(1, 200),
)
def test_newton_sum_of_a_polynomial_and_of_short_counts(p, g_prec, coeffs, extra):
    # any values are summed exactly up to n = D; a polynomial of degree < D
    # at every n
    mod, degree = p**g_prec, len(coeffs)
    counts = {1, degree - 1, degree, degree + 1, extra} - {0}

    def poly(b):
        return sum(c * b**i for i, c in enumerate(coeffs)) % mod

    values = [poly(b) for b in range(degree)]
    assert kernels._alternating_newton_sum(p, g_prec, values, counts) == _literal(
        p, g_prec, poly, counts
    )
    short = {n for n in counts if n <= degree}
    assert kernels._alternating_newton_sum(p, g_prec, coeffs, short) == _literal(
        p, g_prec, lambda b: coeffs[b], short
    )


@st.composite
def _weight_inputs(draw):
    p = draw(st.sampled_from((3, 5, 7, 11, 1009)))
    g_prec = draw(st.integers(1, 40))
    degree = draw(st.integers(1, 30))
    big = p ** (g_prec + 2)
    values = draw(st.lists(st.integers(-big, big), min_size=degree, max_size=degree))
    powers = draw(st.sets(st.integers(0, 12), min_size=1, max_size=3))
    counts = {1, degree - 1, degree, degree + 1, *(p**n for n in powers)} - {0}
    return p, g_prec, values, counts


@settings(max_examples=300, deadline=None)
@given(_weight_inputs())
def test_weights_give_the_residues_of_the_difference_table(inputs):
    # the weights depend on (p, G, D, n) only, so any values, not only those
    # of a polynomial of degree < D, give the residues of the difference table
    p, g_prec, values, counts = inputs
    assert kernels._alternating_newton_sum(
        p, g_prec, values, counts
    ) == ref.alternating_newton_sum(p, g_prec, values, counts)


def test_negative_and_zero_depth_raise_argument_violation():
    ctx = PadicContext(3, 8)
    chi = DirichletCharacter(3, 1, 1)
    calls = [
        lambda: integral_of_zeta_oracle(ctx, 2, Fraction(1, 3), -1),
        lambda: raabe_char(ctx, chi, 2, 1, depth=-1),
        lambda: kernels.hurwitz_sums(3, 8, Fraction(1, 3), 2, (-1,)),
        lambda: kernels.char_hurwitz_sums(3, 8, 1, Fraction(1), 2, (0,)),
        lambda: kernels.char_hurwitz_sums(3, 8, 1, Fraction(1), 2, (3, 0)),
        lambda: kernels.monomial_alternating_sums(3, 8, Fraction(1), 2, (0,)),
    ]
    for call in calls:
        with pytest.raises(ArgumentViolation):
            call()


class _WeightsBuilt(Exception):
    pass


def test_depth_over_the_cap_raises(monkeypatch):
    # no kernel visits the p^N terms: the check on p**max(depths) alone keeps
    # the oracle depth under EVALUATION_CAP (3^12 <= 10^6 < 3^13), and it
    # comes before any weight vector is built
    calls = [
        (lambda d: kernels.hurwitz_sums(3, 8, Fraction(1, 3), 2, (d,)), 12),
        (lambda d: kernels.char_hurwitz_sums(3, 8, 1, Fraction(1), 2, (d,)), 12),
        (lambda d: kernels.monomial_alternating_sums(3, 8, Fraction(1), 2, (d,)), (2, 12)),
    ]
    for call, key in calls:
        assert key in call(12)

    def refuse(*key):
        raise _WeightsBuilt(key)

    monkeypatch.setattr(kernels, "_newton_weights", _BitsMemo(refuse))
    for call, _ in calls:
        with pytest.raises(_WeightsBuilt):
            call(12)  # with an empty memo, a depth under the cap builds weights
        for depth in (13, 10**7):
            with pytest.raises(EvaluationCapExceeded):
                call(depth)


def _vector_bits(weights):
    return 8 * (sys.getsizeof(weights) + sum(map(sys.getsizeof, weights)))


def test_weight_memo_stays_under_its_bound(monkeypatch):
    # at 1200 digits D is about 800 at v_p(den) = 1 and 480 at 2, and 3^7 > D,
    # so each vector holds D residues of about 1900 bits
    depths = (7, 9, 12)
    build = kernels._newton_weights.__wrapped__
    memo = _BitsMemo(build)
    monkeypatch.setattr(kernels, "_newton_weights", memo)
    expected = {}
    for x in (Fraction(1, 3), Fraction(2, 9)):
        expected[x] = kernels.hurwitz_sums(3, 1200, x, 3, depths)
        assert 0 < memo.bits <= memo.max_bits
    assert memo.cache_info().currsize == 2 * len(depths)
    assert memo.bits == sum(_vector_bits(w) for w, _ in memo._entries.values())
    # a bound of about one and a half vectors evicts the oldest vectors first
    small = _BitsMemo(build, 3 * 10**6)
    monkeypatch.setattr(kernels, "_newton_weights", small)
    for x, sums in expected.items():
        _same_sums(sums, kernels.hurwitz_sums(3, 1200, x, 3, depths))
        assert 0 < small.bits <= small.max_bits
        assert small.cache_info().currsize < len(depths)
        assert small.bits == sum(_vector_bits(w) for w, _ in small._entries.values())
        # the depths are summed in order, so the vector read last is kept
        assert next(reversed(small._entries))[3] == 3**12
    assert small.cache_info().misses == 2 * len(depths)
