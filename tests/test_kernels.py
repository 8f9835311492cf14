"""The oracle kernels give the numbers of the literal per-term loops.

``kernel_reference`` computes every term a < p^N on its own; the library sums
unit powers over arithmetic progressions (the character sums one progression
per residue class mod p).  Numbers are compared through ``render`` and
``absprec``.
"""

from fractions import Fraction

import kernel_reference as ref
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padiczeta import kernels
from padiczeta.characters import DirichletCharacter
from padiczeta.errors import ArgumentViolation
from padiczeta.padic import PadicContext, render
from padiczeta.verify import _REGISTRY, VerifyConfig
from padiczeta.zeta_char import ell_limit_oracle, raabe_char, zeta_char_oracle
from padiczeta.zeta_czp import (
    ZetaArgumentCZp,
    integral_of_zeta_oracle,
    zeta_czp_oracle,
    zeta_special_pos,
)

ACCEPTANCE = VerifyConfig(primes=(3, 5, 7), workprec=16, oracle_depth=6)


def _grid(name):
    (identity,) = [i for i in _REGISTRY if i.name == name]
    return identity.grid(ACCEPTANCE)


def _depths(p, low=2):
    return tuple(range(low, (3 if p == 7 else 4) + 1))


def _key(number):
    return render(number), number.absprec


def _same_sums(expected, got):
    assert {n: _key(v) for n, v in got.items()} == {n: _key(v) for n, v in expected.items()}


def _special_pos_reference(ctx, m, x, depth):
    """omega_v(x)^m times the literal sum of (x+a)^(-m) (-1)^a."""
    omega_v = ZetaArgumentCZp.build(ctx, x).omega_v
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
