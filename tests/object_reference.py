"""The object-arithmetic evaluation of the Laurent series and its coefficient
sets, of log/exp and of the character representation sum.

Every step here is a ``PadicNumber`` operation, so the precision rules are
those of the arithmetic itself.  The library evaluates the same quantities on
integer residues; ``test_integer_paths.py`` checks that both produce the
same bytes.

The ``PadicNumber`` operators themselves, ``agreement_depth``, ``render`` and
``PadicContext.from_fraction`` are kept at the end in the form that reads
every operand through the predicates and the partner coercion, renders by
joining the digit terms and copies every rational; the library reads the
slots and fills a cached template, and ``test_object_paths.py`` checks that
both give the same values and errors.
"""

from __future__ import annotations

import math
from fractions import Fraction

from padiczeta import euler, zeta_czp as czp
from padiczeta.characters import char_eval
from padiczeta.errors import (
    BudgetExhausted,
    EvaluationCapExceeded,
    ExponentOutsideDomain,
    OutsideExpDomain,
    OutsideLogDomain,
    ParseError,
    PrecisionError,
)
from padiczeta.padic import (
    EVALUATION_CAP,
    PadicContext,
    PadicNumber,
    _base_p_digits,
    _embed_fraction,
    _normal_form,
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


def coefficients(
    p: int, prec: int, one_minus_s: tuple, weight: tuple, terms: int, dx: int, rx: int
) -> tuple:
    """The coefficient set of ``zeta_czp._coefficients``, every entry and the
    running binomial a ``PadicNumber`` product: entry i is C(1-s, i) times
    w(i) = E_{i+offset}(u) embedded at relative precision prec, and the
    binomial steps by (1-s - i) / (i + 1).  The set's absolute precision is
    the least of the terms c_i y^i that are not the exact zero, y = p**dx at
    relative precision rx and y^0 the one at relative precision prec."""
    u, offset = weight
    one_minus_s = PadicNumber(p, *one_minus_s)
    y = PadicNumber(p, dx, 1, rx)
    binom = ypow = PadicNumber(p, 0, 1, prec)
    items, precs = [], []
    for i in range(terms):
        w = euler.euler_zero(i + offset) if u == 0 else euler.euler_poly(i + offset, u)
        c = binom * _embed_fraction(p, w, prec)
        items.append(c)
        if not c.is_exact_zero:
            precs.append((c * ypow).absprec)
        binom = binom * (one_minus_s - i) / (i + 1)
        ypow = ypow * y
    base = min((c.valuation for c in items if c.relprec), default=None)
    scaled = [c.unit * p ** (c.valuation - base) if c.relprec else 0 for c in items]
    absprec = min(precs, default=None)
    return absprec, base, _horner_order(scaled[0::2]), _horner_order(scaled[1::2])


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


# ---- the PadicNumber operators, read through predicates and partners ----------


def _partner(a: PadicNumber, b):
    """b as a ``PadicNumber`` of a's prime; an int or Fraction is embedded at
    the precision a implies; None for any other type."""
    if isinstance(b, PadicNumber):
        if b.p != a.p:
            raise ParseError("mixing p-adic numbers with different primes")
        return b
    if not isinstance(b, (int, Fraction)):
        return None
    if b == 0:
        return PadicNumber.exact_zero(a.p)
    if a.is_exact_zero:
        raise PrecisionError("cannot infer a precision against an exact zero")
    v = vp_fraction(b, a.p)
    r = a.valuation - v if a.is_bounded_zero else max(a.relprec, a.absprec - v)
    return _embed_fraction(a.p, b, max(r, 1))


def neg(a: PadicNumber) -> PadicNumber:
    if a.is_zero():
        return a
    return PadicNumber(a.p, a.valuation, a.p**a.relprec - a.unit, a.relprec)


def add(a: PadicNumber, b) -> PadicNumber:
    b = _partner(a, b)
    if b is None:
        raise TypeError("unsupported operand")
    if a.is_exact_zero:
        return b
    if b.is_exact_zero:
        return a
    absprec = min(a.absprec, b.absprec)
    if a.is_bounded_zero and b.is_bounded_zero:
        return PadicNumber.bounded_zero(a.p, absprec)
    if a.is_bounded_zero:
        return b.cap_absprec(absprec)
    if b.is_bounded_zero:
        return a.cap_absprec(absprec)
    base = min(a.valuation, b.valuation)
    m = a.unit * a.p ** (a.valuation - base) + b.unit * a.p ** (b.valuation - base)
    return PadicNumber(a.p, *_normal_form(a.p, base, m, absprec))


def sub(a: PadicNumber, b) -> PadicNumber:
    b = _partner(a, b)
    if b is None:
        raise TypeError("unsupported operand")
    return add(a, neg(b))


def mul(a: PadicNumber, b) -> PadicNumber:
    b = _partner(a, b)
    if b is None:
        raise TypeError("unsupported operand")
    if a.is_exact_zero or b.is_exact_zero:
        return PadicNumber.exact_zero(a.p)
    if a.is_bounded_zero or b.is_bounded_zero:
        return PadicNumber.bounded_zero(a.p, a.valuation + b.valuation)
    rel = min(a.relprec, b.relprec)
    return PadicNumber(a.p, a.valuation + b.valuation, a.unit * b.unit % a.p**rel, rel)


def agreement_depth(a: PadicNumber, b: PadicNumber):
    d = sub(a, b)
    return math.inf if d.is_exact_zero else d.valuation


def render(x: PadicNumber) -> str:
    if x.is_exact_zero:
        return "0"
    if x.is_bounded_zero:
        return f"O({x.p}^{x.valuation})"
    parts = []
    for i, d in enumerate(_base_p_digits(x.unit, x.p, x.relprec)):
        if i == 0:
            parts.append(str(d))
        elif i == 1:
            parts.append(f"{d}*{x.p}")
        else:
            parts.append(f"{d}*{x.p}^{i}")
    return f"{x.p}^{x.valuation} * ({' + '.join(parts)})"


def from_fraction(ctx: PadicContext, q, relprec: int | None = None) -> PadicNumber:
    if not isinstance(q, int):
        q = Fraction(q)
    r = ctx.internal_prec if relprec is None else relprec
    if q != 0 and r < 1:
        raise ValueError("relprec must be >= 1")
    return _embed_fraction(ctx.p, q, r)
