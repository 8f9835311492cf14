"""The oracle kernels give the numbers of the literal per-term loops.

``kernel_reference`` computes every term a < p^N on its own; the library
evaluates each sum as a dot product of its first few terms with cached
weights (``kernels._alternating_newton_sum``), one residue class at a time
for the Raabe and change-of-variable oracles (``kernels._class_newton_sum``).
Numbers are compared through ``render`` and ``absprec``, the oracles of
``_class_newton_sum`` as (valuation, unit, relprec); the Newton sums
themselves are compared with literal sums at the edges of their degree
bound, and with the forward differences of
``kernel_reference.alternating_newton_sum`` for any values.
"""

import sys
from fractions import Fraction

import kernel_reference as ref
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padiczeta import kernels
from padiczeta import zeta_char as zeta_char_module
from padiczeta import zeta_czp as zeta_czp_module
from padiczeta.characters import DirichletCharacter
from padiczeta.errors import ArgumentViolation, EvaluationCapExceeded
from padiczeta.fermionic import Integrand, change_of_variable
from padiczeta.padic import PadicContext, _BitsMemo, render, vp_int
from padiczeta.verify import _REGISTRY, VerifyConfig
from padiczeta.zeta_char import ell_limit_oracle, raabe_char, zeta_char_oracle
from padiczeta.zeta_czp import (
    SeriesBudget,
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
        ctx = ACCEPTANCE.ctx(p)
        prec, s = ctx.internal_prec, ctx.coerce(s)
        depths = _depths(p)
        _same_sums(
            ref.hurwitz_sums(p, prec, x, s, depths), kernels.hurwitz_sums(p, prec, x, s, depths)
        )


def test_oracle_char_grid():
    for p, v, k, s, x in _grid("oracle-char"):
        ctx = ACCEPTANCE.ctx(p)
        s = ctx.coerce(s)
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
        s = ctx.coerce(s)
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
    p, prec, s = ctx.p, ctx.internal_prec, ctx.coerce(s)
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
                lambda s: kernels._exponent_one_minus(
                    p, g_prec - 1, PadicContext(p, g_prec, 0).coerce(s)
                )
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
        lambda: integral_of_zeta_oracle(ctx, 2, Fraction(1, 3), 0),
        lambda: raabe_char(ctx, chi, 2, 1, depth=-1),
        lambda: raabe_char(ctx, chi, 2, 1, depth=0),
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
    two = PadicContext(3, 8).coerce(2)
    calls = [
        (lambda d: kernels.hurwitz_sums(3, 8, Fraction(1, 3), two, (d,)), 12),
        (lambda d: kernels.char_hurwitz_sums(3, 8, 1, Fraction(1), two, (d,)), 12),
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
    three = PadicContext(3, 1200).coerce(3)
    build = kernels._newton_weights.__wrapped__
    memo = _BitsMemo(build)
    monkeypatch.setattr(kernels, "_newton_weights", memo)
    expected = {}
    for x in (Fraction(1, 3), Fraction(2, 9)):
        expected[x] = kernels.hurwitz_sums(3, 1200, x, three, depths)
        assert 0 < memo.bits <= memo.max_bits
    assert memo.cache_info().currsize == 2 * len(depths)
    assert memo.bits == sum(_vector_bits(w) for w, _ in memo._entries.values())
    # a bound of about one and a half vectors evicts the oldest vectors first
    small = _BitsMemo(build, 3 * 10**6)
    monkeypatch.setattr(kernels, "_newton_weights", small)
    for x, sums in expected.items():
        _same_sums(sums, kernels.hurwitz_sums(3, 1200, x, three, depths))
        assert 0 < small.bits <= small.max_bits
        assert small.cache_info().currsize < len(depths)
        assert small.bits == sum(_vector_bits(w) for w, _ in small._entries.values())
        # the depths are summed in order, so the vector read last is kept
        assert next(reversed(small._entries))[3] == 3**12
    assert small.cache_info().misses == 2 * len(depths)


# ---- the oracles summed from a few values per class ---------------------------

# the references evaluate every term: p^N is kept to 5^4
_LITERAL_TERMS = 625


def _triple(number):
    return number.valuation, number.unit, number.relprec


@st.composite
def _class_sum_inputs(draw):
    p = draw(st.sampled_from((3, 5, 7, 11)))
    ctx = PadicContext(p, draw(st.integers(8, 60)))
    depth = draw(st.integers(1, 4).filter(lambda n: p**n <= _LITERAL_TERMS))
    coprime = st.integers(1, 10**4).filter(lambda n: n % p)
    s = draw(
        st.one_of(
            st.integers(-20, 20),
            st.integers(-(p**40), p**40),
            st.builds(Fraction, st.integers(-(10**6), 10**6), coprime),
        )
    )
    unit = draw(st.integers(-(p**6), p**6).filter(lambda n: n % p))
    outside = Fraction(unit, draw(coprime) * p ** draw(st.integers(1, 2)))
    chi = DirichletCharacter(p, draw(st.integers(1, 2)), draw(st.integers(0, min(2, p - 2))))
    x = draw(st.integers(-(p**3), p**3))
    coeffs = draw(
        st.lists(
            st.builds(Fraction, st.integers(-50, 50), st.sampled_from((1, 2, p))),
            min_size=1,
            max_size=4,
        )
    )
    budget = SeriesBudget(target_prec=draw(st.sampled_from((None, 0, 4, 80))))
    return ctx, depth, s, outside, chi, x, Integrand.polynomial(coeffs), budget


@settings(max_examples=100, deadline=None)
@given(_class_sum_inputs())
def test_class_sums_equal_the_literal_sums(inputs):
    ctx, depth, s, outside, chi, x, f, budget = inputs
    assert _triple(integral_of_zeta_oracle(ctx, s, outside, depth, budget)) == _triple(
        ref.integral_of_zeta_oracle(ctx, s, outside, depth, budget)
    )
    lhs, _ = raabe_char(ctx, chi, s, x, depth, budget)
    assert _triple(lhs) == _triple(ref.raabe_char_oracle(ctx, chi, s, x, depth, budget))
    _, rhs = change_of_variable(ctx, chi, f, x, depth)
    assert _triple(rhs) == _triple(ref.change_of_variable_rhs(ctx, chi, f, x, depth))


def _refuse_weights(monkeypatch):
    def refuse(*key):
        raise _WeightsBuilt(key)

    monkeypatch.setattr(kernels, "_newton_weights", _BitsMemo(refuse))


# n/P <= D: every term is evaluated and summed with the weights (-1)^b; at
# p = 3, 16 digits, D is 12 at v = 1 and 7 at v = 2
_SHORT_CLASSES = [
    ("czp", 3, 2, 1, (0,)),  # 3^2 terms, D = 12
    ("char", 3, 3, 2, (0,)),  # classes of 3^(3-2) terms, D = 7
    ("char", 5, 2, 2, (0,)),  # one term a class
    ("cov", 3, 3, 2, (1, 2, 0, 1)),  # classes of 3 terms, D = 4
    ("cov", 5, 1, 2, (3,)),  # 5 terms, period 5^2 > 5
]
# n/P > D: the classes read the cached weights
_LONG_CLASSES = [
    ("czp", 3, 4, 1, (0,)),
    ("char", 3, 4, 1, (0,)),
    ("cov", 5, 3, 1, (0, 0, 1)),
]


def _oracle_pair(kind, p, depth, v, coeffs):
    """The kernel-backed oracle and its literal reference at one point."""
    ctx = PadicContext(p, 16)
    chi = DirichletCharacter(p, v, 1)
    if kind == "czp":
        x = Fraction(2, p)
        return (
            lambda: integral_of_zeta_oracle(ctx, 3, x, depth),
            lambda: ref.integral_of_zeta_oracle(ctx, 3, x, depth),
        )
    if kind == "char":
        return (
            lambda: raabe_char(ctx, chi, 2, 1, depth)[0],
            lambda: ref.raabe_char_oracle(ctx, chi, 2, 1, depth),
        )
    f = Integrand.polynomial(coeffs)
    return (
        lambda: change_of_variable(ctx, chi, f, 2, depth)[1],
        lambda: ref.change_of_variable_rhs(ctx, chi, f, 2, depth),
    )


@pytest.mark.parametrize("case", _SHORT_CLASSES)
def test_short_classes_take_every_value(monkeypatch, case):
    kernel, literal = _oracle_pair(*case)
    expected = _triple(literal())
    _refuse_weights(monkeypatch)
    assert _triple(kernel()) == expected


@pytest.mark.parametrize("case", _LONG_CLASSES)
def test_long_classes_read_the_weights(monkeypatch, case):
    kernel, literal = _oracle_pair(*case)
    assert _triple(kernel()) == _triple(literal())
    _refuse_weights(monkeypatch)
    with pytest.raises(_WeightsBuilt):
        kernel()


def test_raabe_czp_oracle_reads_d_series_values(ctx5):
    # 5^4 terms, of which the first D: one value-cache miss each
    x = Fraction(1, 5)
    degree = kernels._progression_degree(5, 1, 16)
    zeta_czp_module._zeta_value.cache_clear()
    integral_of_zeta_oracle(ctx5, 2, x, 4)
    assert zeta_czp_module._zeta_value.cache_info().misses == degree < 5**4


def test_raabe_char_oracle_reads_d_values_per_class(monkeypatch, ctx5):
    calls = []
    evaluate = zeta_char_module.zeta_char

    def counting(*args):
        calls.append(args[3])
        return evaluate(*args)

    monkeypatch.setattr(zeta_char_module, "zeta_char", counting)
    for v in (1, 2):
        calls.clear()
        raabe_char(ctx5, DirichletCharacter(5, v, 1), 2, 1, 4)
        degree = kernels._progression_degree(5, v, 16)
        # the closed form reads zeta(chi, s, 1) and zeta(chi omega, s-1, 1)
        assert len(calls) - 2 <= 5**v * degree < 5**4


def test_change_of_variable_reads_deg_plus_one_values_per_class(monkeypatch, ctx5):
    f = Integrand.polynomial([0, 0, 1])
    seen = []
    evaluate = Integrand.eval_padic

    def counting(self, ctx, a):
        if self is f:
            seen.append(a)
        return evaluate(self, ctx, a)

    monkeypatch.setattr(Integrand, "eval_padic", counting)
    change_of_variable(ctx5, DirichletCharacter(5, 1, 2), f, 2, 4)
    # the class with p | x+a is the exact zero and evaluates nothing
    assert len(seen) == 4 * 3
