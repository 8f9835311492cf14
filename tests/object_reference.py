"""The object-arithmetic evaluation of the Laurent series and its coefficient
sets, of log/exp and of the character representation sum.

Every step here is a ``PadicNumber`` operation, so the precision rules are
those of the arithmetic itself.  The library evaluates the same quantities on
integer residues; ``test_integer_paths.py`` checks that both produce the
same bytes.
"""

from __future__ import annotations

from fractions import Fraction

from padiczeta import euler, zeta_czp as czp
from padiczeta.characters import char_eval
from padiczeta.errors import (
    BudgetExhausted,
    EvaluationCapExceeded,
    ExponentOutsideDomain,
    OutsideExpDomain,
    OutsideLogDomain,
)
from padiczeta.padic import (
    EVALUATION_CAP,
    PadicContext,
    PadicNumber,
    _embed_fraction,
    vp_fraction,
    vp_int,
)
from padiczeta.zeta_char import _check_char, _coerce_zp
from padiczeta.zeta_czp import (
    SeriesBudget,
    _coerce_czp,
    _horner_order,
    _series_terms,
)


def _ilog(p: int, n: int) -> int:
    k = 0
    while p ** (k + 1) <= n:
        k += 1
    return k


def _tail_start(p: int, decay: int, target_total: int) -> int:
    num = target_total * (p - 1) - 1
    den = decay * (p - 1) - 1
    return max(-(-num // den), 1)


def log(ctx: PadicContext, u) -> PadicNumber:
    u = ctx.coerce(u)
    if u.is_zero() or u.valuation != 0 or u.unit % ctx.p != 1:
        raise OutsideLogDomain("log needs an argument congruent to 1 mod p")
    z = u - 1
    if z.is_zero():
        return z
    k = z.valuation
    target = z.absprec
    acc = z
    zpow = z
    n = 1
    while (n + 1) * k - _ilog(ctx.p, n + 1) < target:
        n += 1
        zpow = zpow * z
        term = zpow / n
        acc = acc + term if n % 2 == 1 else acc - term
    return acc


def exp(ctx: PadicContext, z) -> PadicNumber:
    z = ctx.coerce(z)
    if z.is_exact_zero:
        return ctx.one()
    if z.is_bounded_zero:
        if z.valuation < 1:
            raise OutsideExpDomain("exp needs valuation >= 1")
        return PadicNumber(ctx.p, 0, 1, z.valuation)
    if z.valuation < 1:
        raise OutsideExpDomain("exp needs valuation >= 1")
    k = z.valuation
    target = z.absprec
    acc = z + 1
    term = z
    n = 1
    while (n + 1) * (k * (ctx.p - 1) - 1) + 1 < target * (ctx.p - 1):
        n += 1
        term = term * z / n
        acc = acc + term
    return acc


def unit_power(ctx: PadicContext, u, s) -> PadicNumber:
    u = ctx.coerce(u)
    s = ctx.coerce(s)
    if not s.is_zero() and s.valuation < 0:
        raise ExponentOutsideDomain("exponent must lie in Z_p")
    if s.is_exact_zero:
        return ctx.one()
    return exp(ctx, s * log(ctx, u))


def weighted_series(ctx, one_minus_s, x, weight, decay, budget) -> PadicNumber:
    """sum_i C(one_minus_s, i) weight(i) x^(-i) with tail-safe truncation."""
    target_total = budget.target(ctx) + ctx.series_guard
    terms = _tail_start(ctx.p, decay, target_total)
    if terms > budget.max_terms:
        raise BudgetExhausted(
            f"series needs {terms} terms, budget allows {budget.max_terms}"
        )
    inv_x = 1 / x
    acc = None
    binom = ctx.one()
    xpow = ctx.one()
    for i in range(terms):
        w = weight(i)
        if w != 0:
            term = binom * ctx.from_fraction(w) * xpow
            acc = term if acc is None else acc + term
        binom = binom * (one_minus_s - i) / (i + 1)
        xpow = xpow * inv_x
    if acc is None:
        acc = ctx.exact_zero()
    return acc


def coefficients(p: int, prec: int, one_minus_s: tuple, weight: tuple, terms: int) -> tuple:
    """The coefficient set of ``zeta_czp._coefficients``, every entry and the
    running binomial a ``PadicNumber`` product: entry i is C(1-s, i) times
    w(i) = E_{i+offset}(u) embedded at relative precision prec, and the
    binomial steps by (1-s - i) / (i + 1)."""
    u, offset = weight
    one_minus_s = PadicNumber(p, *one_minus_s)
    binom = PadicNumber(p, 0, 1, prec)
    items = []
    for i in range(terms):
        w = euler.euler_zero(i + offset) if u == 0 else euler.euler_poly(i + offset, u)
        items.append(binom * _embed_fraction(p, w, prec))
        binom = binom * (one_minus_s - i) / (i + 1)
    entries = tuple(
        (i, c.valuation, c.relprec) for i, c in enumerate(items) if not c.is_exact_zero
    )
    base = min((c.valuation for c in items if c.relprec), default=None)
    scaled = [c.unit * p ** (c.valuation - base) if c.relprec else 0 for c in items]
    return entries, base, _horner_order(scaled[0::2]), _horner_order(scaled[1::2])


def _prefactor_and_series(ctx, s, x, weight, decay_shift, budget):
    xp = _coerce_czp(ctx, x)
    sp = ctx._exponent(s)
    one_minus_s = ctx.one() - sp
    prefactor = unit_power(ctx, ctx.angle(xp), one_minus_s)
    series = weighted_series(ctx, one_minus_s, xp, weight, -xp.valuation + decay_shift, budget)
    return prefactor, series


def zeta_czp(ctx, s, x, budget=SeriesBudget()) -> PadicNumber:
    prefactor, series = _prefactor_and_series(ctx, s, x, euler.euler_zero, 0, budget)
    return (prefactor * series).cap_absprec(budget.target(ctx))


def zeta_shifted(ctx, s, x, u, budget=SeriesBudget()) -> PadicNumber:
    """The shifted expansion for u != 0 (the library's validity checks are
    not repeated)."""
    u = Fraction(u)
    prefactor, series = _prefactor_and_series(
        ctx, s, x, lambda i: euler.euler_poly(i, u), min(0, vp_fraction(u, ctx.p)), budget
    )
    return (prefactor * series).cap_absprec(budget.target(ctx))


def integral_of_zeta(ctx, s, x, budget=SeriesBudget()) -> PadicNumber:
    prefactor, tail = _prefactor_and_series(
        ctx, s, x, lambda i: euler.euler_zero(i + 1), 0, budget
    )
    value = 2 * zeta_czp(ctx, s, x, budget) + 2 * prefactor * tail
    return value.cap_absprec(budget.target(ctx))


def alternating_sum(ctx: PadicContext, n: int, term) -> PadicNumber:
    """sum_{a<n} (-1)^a term(a) by PadicNumber addition, left to right."""
    if n > EVALUATION_CAP:
        raise EvaluationCapExceeded(f"the sum has more than {EVALUATION_CAP} terms")
    acc = None
    for a in range(n):
        t = term(a)
        if t.is_exact_zero:
            continue
        if a & 1:
            t = -t
        acc = t if acc is None else acc + t
    return ctx.exact_zero() if acc is None else acc


def representation_sum(ctx, chi, s, x, big_m, budget) -> PadicNumber:
    """sum_{j<M} chi(x+j) zeta(s, (x+j)/M) (-1)^j with x + j, chi(x+j),
    (x+j)/M, the public ``zeta_czp`` and every product and sum as
    ``PadicNumber`` values."""
    _check_char(ctx, chi)
    xp = _coerce_zp(ctx, x)
    _series_terms(ctx, vp_int(big_m, ctx.p), budget)
    s = ctx._exponent(s)
    inv_m = 1 / ctx.from_int(big_m)

    def term(j: int) -> PadicNumber:
        xj = xp + ctx.from_int(j) if j else xp
        cv = char_eval(ctx, chi, xj)
        return cv if cv.is_exact_zero else cv * czp.zeta_czp(ctx, s, xj * inv_m, budget)

    return alternating_sum(ctx, big_m, term).cap_absprec(budget.target(ctx))
