"""The p-adic Hurwitz-type Euler zeta function on arguments outside Z_p.

For v_p(x) <= -1 and s in Z_p the function is evaluated through its
convergent Laurent expansion

    zeta(s, x) = <x>^(1-s) * sum_i C(1-s, i) E_i(0) x^(-i).

Term i has valuation at least i*|v_p(x)| - v_p(i!) (the binomial lies in
Z_p and |E_i(0)|_p <= 1), which yields an explicit truncation index for any
target precision.  The truncated alternating sums of <x+a>^(1-s) serve as
the independent oracle (``zeta_czp_oracle``; at s = 1+m they also give the
oracle of ``zeta_special_pos``); they are computed by the
modular-exponentiation kernel ``kernels.hurwitz_sums``, a genuinely different
route from the exp/log evaluation used here.

The coefficients C(1-s, i) w(i) do not depend on x.  For each weight w (E_i(0)
for zeta(s, x), E_i(u) for the shifted expansion, E_{i+1}(0) for the
integral) they are ``PadicNumber`` products, computed once per (p, internal
precision, 1-s) by the arithmetic's own precision rules and extended on demand
to as many terms as an argument needs.  An LRU cache keeps the last
``_COEFFICIENT_SETS`` such sets (a set is a few dozen numbers at the default
precision).  Each x then costs one integer Horner pass in 1/x modulo the sum's
absolute precision, which gives the same value and precision as summing the
terms as ``PadicNumber`` objects.  It is the only cache on the series path.
The term count is checked against the budget before the series or the
prefactor <x>^(1-s) does any work, so an unreachable precision is refused at
once.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from . import euler, kernels
from .errors import (
    ArgumentInZp,
    ArgumentViolation,
    BudgetExhausted,
    EvenN,
    ExponentOutsideDomain,
    ShiftConditionViolated,
)
from .padic import (
    PadicContext,
    PadicNumber,
    _embed_fraction,
    alternating_sum,
    capped_power,
    vp_fraction,
    vp_int,
)

__all__ = [
    "SeriesBudget",
    "ZetaArgumentCZp",
    "distribution_czp",
    "dzeta_dx",
    "integral_of_zeta",
    "integral_of_zeta_oracle",
    "raabe_closed_forms",
    "reflection_czp",
    "zeta_czp",
    "zeta_czp_oracle",
    "zeta_shifted",
    "zeta_special_neg",
    "zeta_special_pos",
]


@dataclass(frozen=True)
class SeriesBudget:
    """Series evaluation limits: term cap and target absolute precision."""

    max_terms: int = 6000
    target_prec: int | None = None

    def target(self, ctx: PadicContext) -> int:
        return ctx.workprec if self.target_prec is None else self.target_prec


_DEFAULT_BUDGET = SeriesBudget()


@dataclass(frozen=True)
class ZetaArgumentCZp:
    """An argument with v_p(x) <= -1; its angle and Teichmuller parts are
    computed on first use and then kept."""

    ctx: PadicContext
    value: PadicNumber
    exact: Fraction | None

    @staticmethod
    def build(ctx: PadicContext, x) -> "ZetaArgumentCZp":
        if isinstance(x, ZetaArgumentCZp):
            return x
        exact = None
        if isinstance(x, (int, Fraction)):
            exact = Fraction(x)
        xp = ctx.coerce(x)
        if xp.is_zero() or xp.valuation >= 0:
            raise ArgumentInZp("argument must have negative valuation")
        return ZetaArgumentCZp(ctx, xp, exact)

    @cached_property
    def angle(self) -> PadicNumber:
        return self.ctx.angle(self.value)

    @cached_property
    def omega_v(self) -> PadicNumber:
        return self.ctx.omega_v(self.value)


def _coerce_exponent(ctx: PadicContext, s) -> PadicNumber:
    sp = ctx.coerce(s)
    if not sp.is_zero() and sp.valuation < 0:
        raise ExponentOutsideDomain("s must lie in Z_p")
    return sp


def _series_terms(ctx: PadicContext, decay: int, budget: SeriesBudget) -> int:
    """Terms a series with decay v_p(term i) >= i*decay - v_p(i!) needs.

    That is the smallest i0 with i*decay - v_p(i!) >= target + guard for
    every i >= i0; more than ``budget.max_terms`` raises BudgetExhausted.
    """
    p = ctx.p
    num = (budget.target(ctx) + ctx.series_guard) * (p - 1) - 1
    den = decay * (p - 1) - 1
    terms = max(-(-num // den), 1)
    if terms > budget.max_terms:
        raise BudgetExhausted(
            f"series needs {terms} terms, budget allows {budget.max_terms}"
        )
    return terms


# A weight (u, offset) stands for w(i) = E_{i+offset}(u).
_EULER_ZERO = (Fraction(0), 0)
_EULER_NEXT = (Fraction(0), 1)
_COEFFICIENT_SETS = 256


class _Coefficients:
    """C(1-s, i) w(i) for i = 0, 1, ..., extended on demand.

    Every entry and the running binomial are ``PadicNumber`` products, so
    their precision is that of the arithmetic; an entry is the exact zero
    where w(i) = 0.
    """

    def __init__(self, p: int, prec: int, one_minus_s: tuple, weight: tuple):
        self.p = p
        self.prec = prec
        self.weight = weight
        self.one_minus_s = PadicNumber(p, *one_minus_s)
        self.binom = PadicNumber(p, 0, 1, prec)
        self.items: list[PadicNumber] = []
        self.lock = threading.Lock()

    def upto(self, n: int) -> list[PadicNumber]:
        """The entry list, holding at least n entries (it only ever grows)."""
        if len(self.items) < n:
            with self.lock:
                while len(self.items) < n:
                    self._extend()
        return self.items

    def _extend(self) -> None:
        i = len(self.items)
        u, offset = self.weight
        w = euler.euler_zero(i + offset) if u == 0 else euler.euler_poly(i + offset, u)
        self.items.append(self.binom * _embed_fraction(self.p, w, self.prec))
        self.binom = self.binom * (self.one_minus_s - i) / (i + 1)


@lru_cache(maxsize=_COEFFICIENT_SETS)
def _coefficients(p: int, prec: int, one_minus_s: tuple, weight: tuple) -> _Coefficients:
    return _Coefficients(p, prec, one_minus_s, weight)


def _laurent_series(
    ctx: PadicContext,
    one_minus_s: PadicNumber,
    x: PadicNumber,
    weight: tuple,
    decay: int,
    budget: SeriesBudget,
) -> PadicNumber:
    """sum_i C(one_minus_s, i) w(i) x^(-i) with tail-safe truncation.

    Term i is coefficient i times x^(-i), which has valuation i*dx and, for
    i >= 1, the relative precision of x.  The sum is known modulo the
    smallest absolute precision of its terms; it is formed by Horner's rule
    in p**dx / unit(x), scaled by p**-base for the smallest coefficient
    valuation base, modulo p**(absprec - base).
    """
    p = ctx.p
    terms = _series_terms(ctx, decay, budget)
    key = (one_minus_s.valuation, one_minus_s.unit, one_minus_s.relprec)
    items = _coefficients(p, ctx.internal_prec, key, weight).upto(terms)
    dx, rx = -x.valuation, x.relprec
    absprec = base = None
    for i in range(terms):
        v, r = items[i].valuation, items[i].relprec
        if r is None:
            continue
        if r == 0:
            a = v + i * dx
        else:
            a = v + (r if i == 0 else min(r, rx)) + i * dx
            if base is None or v < base:
                base = v
        if absprec is None or a < absprec:
            absprec = a
    if absprec is None:
        return ctx.exact_zero()
    if base is None or absprec <= base:
        return ctx.bounded_zero(absprec)
    mod = p ** (absprec - base)
    y = pow(x.unit, -1, mod) * p**dx % mod
    acc = 0
    for i in range(terms - 1, -1, -1):
        acc *= y
        c = items[i]
        if c.relprec:
            acc += c.unit * p ** (c.valuation - base)
        acc %= mod
    return PadicNumber._normalize(p, base, acc, absprec)


def zeta_czp(ctx: PadicContext, s, x, budget: SeriesBudget = _DEFAULT_BUDGET) -> PadicNumber:
    """zeta(s, x) for v_p(x) <= -1 via the Laurent expansion."""
    arg = ZetaArgumentCZp.build(ctx, x)
    one_minus_s = ctx.one() - _coerce_exponent(ctx, s)
    series = _laurent_series(
        ctx, one_minus_s, arg.value, _EULER_ZERO, -arg.value.valuation, budget
    )
    prefactor = ctx.unit_power(arg.angle, one_minus_s)
    return (prefactor * series).cap_absprec(budget.target(ctx))


def zeta_czp_oracle(ctx: PadicContext, s, x: Fraction, depth: int) -> PadicNumber:
    """Truncated alternating sum sum_{a<p^depth} <x+a>^(1-s) (-1)^a."""
    s_key = s if isinstance(s, (int, Fraction, PadicNumber)) else ctx.coerce(s)
    return kernels.hurwitz_sums(
        ctx.p, ctx.internal_prec, Fraction(x), s_key, (depth,)
    )[depth]


def zeta_special_neg(ctx: PadicContext, m: int, x) -> PadicNumber:
    """zeta(1-m, x) = omega_v(x)^(-m) E_m(x) through the exact route."""
    if m < 1:
        raise ArgumentViolation("m must be >= 1")
    arg = ZetaArgumentCZp.build(ctx, x)
    if arg.exact is None:
        raise ArgumentViolation("exact special values need a rational x")
    return arg.omega_v ** (-m) * ctx.from_fraction(euler.euler_poly(m, arg.exact))


def zeta_special_pos(
    ctx: PadicContext,
    m: int,
    x,
    depth: int,
    budget: SeriesBudget = _DEFAULT_BUDGET,
) -> tuple[PadicNumber, PadicNumber]:
    """(series value, oracle value) for zeta(1+m, x).

    The oracle side is omega_v(x)^m * sum_{a<p^depth} (x+a)^(-m) (-1)^a, that
    is the Hurwitz oracle at s = 1+m (its terms are <x+a>^(-m)).  It is kept
    modulo p^(internal_prec - e*m), e = -v_p(x): the precision of omega_v(x)^m
    times a sum of (x+a)^(-m) known modulo p^internal_prec.  Negative m
    delegates to the exact negative-integer route.
    """
    if m == 0:
        raise ArgumentViolation("m must be nonzero")
    arg = ZetaArgumentCZp.build(ctx, x)
    if m < 0:
        return zeta_czp(ctx, 1 + m, arg, budget), zeta_special_neg(ctx, -m, arg)
    if arg.exact is None:
        raise ArgumentViolation("the truncated oracle needs a rational x")
    formula = zeta_czp(ctx, 1 + m, arg, budget)
    sums = kernels.hurwitz_sums(ctx.p, ctx.internal_prec, arg.exact, 1 + m, (depth,))
    e = vp_int(arg.exact.denominator, ctx.p)
    return formula, sums[depth].cap_absprec(ctx.internal_prec - e * m)


def zeta_shifted(
    ctx: PadicContext, s, x, u, budget: SeriesBudget = _DEFAULT_BUDGET
) -> PadicNumber:
    """The shifted expansion <x>^(1-s) sum_i C(1-s,i) E_i(u) x^(-i).

    Valid when v_p(x) < v_p(u); at u = 0 it reduces to zeta(s, x).
    """
    u = Fraction(u)
    arg = ZetaArgumentCZp.build(ctx, x)
    if u == 0:
        return zeta_czp(ctx, s, arg, budget)
    vu = vp_fraction(u, ctx.p)
    if arg.value.valuation - vu >= 0:
        raise ShiftConditionViolated("need v_p(x) < v_p(u)")
    one_minus_s = ctx.one() - _coerce_exponent(ctx, s)
    decay = -arg.value.valuation + min(0, vu)
    series = _laurent_series(ctx, one_minus_s, arg.value, (u, 0), decay, budget)
    prefactor = ctx.unit_power(arg.angle, one_minus_s)
    return (prefactor * series).cap_absprec(budget.target(ctx))


def dzeta_dx(ctx: PadicContext, s, x, budget: SeriesBudget = _DEFAULT_BUDGET) -> PadicNumber:
    """d/dx zeta(s, x) = (1-s)/omega_v(x) * zeta(s+1, x)."""
    arg = ZetaArgumentCZp.build(ctx, x)
    sp = _coerce_exponent(ctx, s)
    factor = (ctx.one() - sp) / arg.omega_v
    if factor.is_exact_zero:
        return factor
    return factor * zeta_czp(ctx, sp + ctx.one(), arg, budget)


def reflection_czp(
    ctx: PadicContext, s, x, budget: SeriesBudget = _DEFAULT_BUDGET
) -> tuple[PadicNumber, PadicNumber]:
    """(zeta(s, 1-x), zeta(s, x)) - the two sides of the reflection identity."""
    arg = ZetaArgumentCZp.build(ctx, x)
    if arg.exact is not None:
        mirrored: object = 1 - arg.exact
    else:
        mirrored = 1 - arg.value
    return zeta_czp(ctx, s, mirrored, budget), zeta_czp(ctx, s, arg, budget)


def distribution_czp(
    ctx: PadicContext,
    s,
    x,
    n_parts: int,
    budget: SeriesBudget = _DEFAULT_BUDGET,
) -> tuple[PadicNumber, PadicNumber]:
    """Both sides of the distribution identity for odd N coprime to p:

        sum_{j<N} (-1)^j zeta(s, x + j/N) = <N>^(s-1) zeta(s, N x).

    Summing the shifted expansion termwise with the exact Euler-polynomial
    distribution identity produces the <N>^(s-1) factor (the expansion is in
    powers of 1/x on the left but the <Nx> prefactor differs from <x> by
    <N>); the factor is 1 at s = 1 and for N = 1.
    """
    if n_parts % 2 == 0:
        raise EvenN("the distribution identity needs odd N")
    if n_parts % ctx.p == 0:
        raise ArgumentViolation("N must be coprime to p")
    x = Fraction(x)
    if vp_fraction(n_parts * x, ctx.p) is None or vp_fraction(n_parts * x, ctx.p) >= 0:
        raise ArgumentViolation("N x must have negative valuation")
    sp = _coerce_exponent(ctx, s)
    lhs = alternating_sum(
        ctx, n_parts, lambda j: zeta_czp(ctx, sp, x + Fraction(j, n_parts), budget)
    )
    plain = zeta_czp(ctx, sp, n_parts * x, budget)
    factor = ctx.unit_power(ctx.angle(ctx.from_int(n_parts)), sp - ctx.one())
    return lhs, factor * plain


def integral_of_zeta(
    ctx: PadicContext, s, x, budget: SeriesBudget = _DEFAULT_BUDGET
) -> PadicNumber:
    """int zeta(s, x+a) dmu(a) via term-wise integration of the expansion.

    Using int E_i(a) dmu(a) = 2 (E_i(0) + E_{i+1}(0)) termwise:
        2 zeta(s,x) + 2 <x>^(1-s) sum_i C(1-s,i) E_{i+1}(0) x^(-i).
    """
    arg = ZetaArgumentCZp.build(ctx, x)
    sp = _coerce_exponent(ctx, s)
    one_minus_s = ctx.one() - sp
    tail = _laurent_series(
        ctx, one_minus_s, arg.value, _EULER_NEXT, -arg.value.valuation, budget
    )
    plain = zeta_czp(ctx, sp, arg, budget)
    prefactor = ctx.unit_power(arg.angle, one_minus_s)
    return (2 * plain + 2 * prefactor * tail).cap_absprec(budget.target(ctx))


def integral_of_zeta_oracle(
    ctx: PadicContext, s, x: Fraction, depth: int, budget: SeriesBudget = _DEFAULT_BUDGET
) -> PadicNumber:
    """Truncated alternating sum of zeta(s, x+a) over a < p^depth."""
    x = Fraction(x)
    return alternating_sum(
        ctx, capped_power(ctx.p, depth), lambda a: zeta_czp(ctx, s, x + a, budget)
    )


def raabe_closed_forms(
    ctx: PadicContext, s, x, budget: SeriesBudget = _DEFAULT_BUDGET
) -> dict[str, PadicNumber]:
    """The term-wise integral next to the two closed-form candidates.

    ``termwise``  - the term-by-term integrated expansion (canonical output);
    ``closed``    - 2 (1-x) zeta(s,x) + 2 omega_v(x) zeta(s-1,x), which agrees
                    with the term-wise identity (Pascal's rule on C(2-s,i));
    ``variant``   - 2 (1+1/x) zeta(s,x) - 2/(x <x>) zeta(s-1,x), an alternative
                    rearrangement that fails the s=1 spot check and is reported
                    for reference, never asserted.
    """
    arg = ZetaArgumentCZp.build(ctx, x)
    sp = _coerce_exponent(ctx, s)
    z_s = zeta_czp(ctx, sp, arg, budget)
    z_prev = zeta_czp(ctx, sp - ctx.one(), arg, budget)
    x_val = arg.value
    closed = 2 * (1 - x_val) * z_s + 2 * arg.omega_v * z_prev
    variant = 2 * (1 + 1 / x_val) * z_s - (2 / (x_val * arg.angle)) * z_prev
    return {
        "termwise": integral_of_zeta(ctx, sp, arg, budget),
        "closed": closed.cap_absprec(budget.target(ctx)),
        "variant": variant.cap_absprec(budget.target(ctx)),
    }
