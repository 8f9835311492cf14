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
integral) they are built on integers once per (p, internal precision, 1-s,
weight, term count): C(1-s, i) from the residues of 1-s-j modulo the
absolute precision of 1-s and the unit parts of j+1, with the valuation and
precision a chain of ``PadicNumber`` products gives, and w(i) = E_n(a/b) from
the integer (2b)^n E_n(a/b) and a running power of the inverse of 2 times the
unit part of b.
``tests/object_reference.py`` keeps the ``PadicNumber`` builder, pinned
entry by entry.  The set keeps only what the per-x pass reads: the
(valuation, relprec) of each entry, the least valuation base, and the
integers unit * p**(valuation - base) in Horner order, split by the parity
of i.  A ``padic._BitsMemo`` keeps ``_COEFFICIENT_BITS`` of sets (a few dozen
integers at the default precision, 0.4 MB at 1000 digits); a set is never
extended, a larger term count is a new entry.  The precision scan over the
entries runs once per (set, v_p(x), relprec of x), kept in the set; each x
then costs an integer Horner pass in 1/x modulo the sum's absolute precision,
which give the same value and precision as summing the terms as
``PadicNumber`` objects.  The prefactor <x>^(1-s) (``padic._angle_power_residue``),
its product with the sum and the cap are integers: one ``PadicNumber`` a value.

The identities ask for the same zeta(s, y) again and again (a representation
sum, its shifts and its twists at one s), so the whole expansion
<x>^(1-s) sum_i C(1-s, i) w(i) x^(-i) is kept in an ``lru_cache`` of
``_ZETA_VALUES`` entries.  ``zeta_czp`` (w = E_i(0)), ``zeta_shifted`` (E_i(u);
at u = 0 the entry of ``zeta_czp``) and the two halves of
``integral_of_zeta`` (E_i(0) and E_{i+1}(0)) each read it.  Its key is the
whole context (``workprec`` sets the cap, ``series_guard`` the term count), the
(valuation, unit, relprec) triples of s and x, the weight and the budget, so a
hit does no p-adic arithmetic.  An entry holds those two residues and a value
capped at the budget's target: a few hundred bytes at 16 digits, and at most
three numbers of ``padic.MAX_MODULUS_BITS`` bits (plus any longer x a caller
passes), less than one coefficient set at the same precision.  Callers share
a cached value, which is safe because a ``PadicNumber`` is never changed in
place.

The term count is checked against the budget before the series or the
prefactor <x>^(1-s) does any work, so an unreachable precision is refused at
once; a refusal is never cached, so it is raised on every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial

from . import euler, kernels
from .errors import (
    ArgumentInZp,
    ArgumentViolation,
    BudgetExhausted,
    EvenN,
    ShiftConditionViolated,
)
from .padic import (
    PadicContext,
    PadicNumber,
    _angle_power_residue,
    _BitsMemo,
    _normal_form,
    _vp_split,
    alternating_sum,
    capped_power,
    vp_fraction,
    vp_int,
)

__all__ = [
    "SeriesBudget",
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


def _coerce_czp(ctx: PadicContext, x) -> PadicNumber:
    """x as the ``PadicNumber`` every evaluator here reads, refused unless
    v_p(x) <= -1."""
    xp = ctx.coerce(x)
    if xp.is_zero() or xp.valuation >= 0:
        raise ArgumentInZp("argument must have negative valuation")
    return xp


def _exact(x) -> Fraction | None:
    """The rational an int or Fraction argument stands for; None otherwise."""
    return Fraction(x) if isinstance(x, (int, Fraction)) else None


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
_EULER_ZERO = (0, 0)
_EULER_NEXT = (0, 1)
_COEFFICIENT_BITS = 1 << 26  # 8 MiB: 10 times a 16-digit verify's sets, 20 sets at 1000 digits
_ZETA_VALUES = 1024


def _triple(value: PadicNumber) -> tuple:
    return value.valuation, value.unit, value.relprec


@partial(_BitsMemo, max_bits=_COEFFICIENT_BITS)
def _coefficients(p: int, prec: int, one_minus_s: tuple, weight: tuple, terms: int) -> tuple:
    """C(1-s, i) w(i) for i < terms, from the triple of 1-s, as the Horner
    pass of ``_laurent_series`` reads them.

    1 - s lies in Z_p: a regular triple of valuation >= 0, or the bounded
    zero O(p^A).  Its residue sigma is known modulo p^A, A its absolute
    precision, and C(sigma, i) = prod_{j<i} (sigma - j) / i! is built on
    integers with the precision rules of ``PadicNumber`` products:

    * step j has t_j = v_p((sigma - j) mod p^A), or t_j = A where that
      residue is 0, and from there on the binomial is the bounded zero
      O(p^(sum t_j - v_p(i!)));
    * otherwise the binomial has valuation sum t_j - v_p(i!), relative
      precision min(prec, A - t_j over the steps so far) and, as its unit,
      the product of the unit parts of the sigma - j times the inverses of
      the unit parts of 1, ..., i, kept modulo p^prec and reduced modulo
      p^relprec at each entry (relprec only falls).

    w(i) = E_n(u), n = i + offset, is read at relative precision prec from
    the integer (2b)^n E_n(a/b) for u = a/b (``euler._scaled_poly``; 2^n E_n(0)
    at u = 0): its unit part times (2 b_unit)^-n, b_unit the unit part of b,
    at its valuation minus n v_p(b).  An entry is the exact zero where
    w(i) = 0.  The set is (entries, base, even, odd):

    * (i, valuation, relprec) of every entry that is not the exact zero
      (relprec 0 for a bounded zero);
    * the least valuation base of the regular entries (None if none is);
    * the integers unit * p**(valuation - base) of the regular entries (0 for
      a zero) at even i and at odd i, each in Horner order (highest i first)
      and without its leading zeros, so that the zeros of E_i(0) at even
      i >= 2 cost nothing;
    * a dict where ``_laurent_series`` keeps the sum's absolute precision by
      (-v_p(x), relprec of x).

    ``tests/object_reference.py`` builds the same set by ``PadicNumber``
    arithmetic.
    """
    u, offset = weight
    sv, su, sr = one_minus_s
    a = sv + sr
    mod_a = p**a if a > 0 else 1
    sigma = su * p**sv % mod_a
    mod = p**prec
    # E_n(un/ud) with ud = p**tb * b_unit is the integer (2 ud)^n E_n(un/ud)
    # times p**(-n tb) (2 b_unit)**-n
    un, ud = Fraction(u).as_integer_ratio()
    tb, b_unit = _vp_split(ud, p)
    step = pow(2 * b_unit, -1, mod)
    scale = pow(step, offset, mod)  # (2 b_unit)**-(i + offset) modulo p**prec
    # the binomial: valuation, relprec, bounded zero or not, unit modulo p**prec
    val, rel, zero, unit = 0, prec, False, 1
    m = mod  # p**rel
    items = []
    for i in range(terms):
        # w(i) as p**tw * w, the unit w modulo p**prec
        n = i + offset
        w = euler._scaled_poly(n, un, ud)
        if w:
            tw, w = _vp_split(w, p)
            tw -= n * tb
            w = w % mod * scale
        if not w:
            items.append(None)
        elif zero:
            items.append((val + tw, 0, 0))
        else:
            items.append((val + tw, unit * w % m, rel))
        scale = scale * step % mod
        # step to C(sigma, i + 1): times sigma - i, over i + 1
        r = (sigma - i) % mod_a
        if r:
            t, r = _vp_split(r, p)
            if not zero and a - t < rel:
                rel, m = a - t, p ** (a - t)
        else:
            t, zero = a, True
        tq, q = _vp_split(i + 1, p)
        val += t - tq
        if not zero:
            unit = unit * r * pow(q, -1, mod) % mod
    entries = tuple((i, c[0], c[2]) for i, c in enumerate(items) if c is not None)
    base = min((v for _, v, r in entries if r), default=None)
    scaled = [c[1] * p ** (c[0] - base) if c and c[2] else 0 for c in items]
    return entries, base, _horner_order(scaled[0::2]), _horner_order(scaled[1::2]), {}


def _horner_order(coefficients: list[int]) -> tuple[int, ...]:
    """Coefficients of degree 0 up, highest degree first, leading zeros dropped."""
    while coefficients and not coefficients[-1]:
        coefficients.pop()
    return tuple(reversed(coefficients))


def _laurent_series(
    ctx: PadicContext,
    one_minus_s: tuple,
    x: tuple,
    weight: tuple,
    decay: int,
    budget: SeriesBudget,
) -> tuple:
    """sum_i C(1-s, i) w(i) x^(-i) with tail-safe truncation, as a
    (valuation, unit, relprec) triple, from the triples of 1-s and x.

    Term i is coefficient i times x^(-i), which has valuation i*dx and, for
    i >= 1, the relative precision of x.  The sum is known modulo the
    smallest absolute precision of its terms, kept in the set by (dx, rx).
    Scaled by p**-base it is the polynomial in y = p**dx / unit(x) with the
    pre-scaled coefficients, evaluated modulo p**(absprec - base) as
    even(y**2) + y odd(y**2), each half by Horner's rule, and normalised.
    """
    p, prec = ctx.p, ctx.internal_prec
    terms = _series_terms(ctx, decay, budget)
    entries, base, even, odd, scans = _coefficients(p, prec, one_minus_s, weight, terms)
    dx, rx = -x[0], x[2]
    if (dx, rx) not in scans:
        precs = (v + i * dx + (r if i == 0 or r < rx else rx) for i, v, r in entries)
        scans[dx, rx] = min(precs, default=None)
    absprec = scans[dx, rx]
    if absprec is None:
        return None, 0, None
    if base is None or absprec <= base:
        return absprec, 0, 0
    mod = p ** (absprec - base)
    y = pow(x[1], -1, mod) * p**dx % mod
    y2 = y * y % mod
    acc_even = acc_odd = 0
    for c in even:
        acc_even = (acc_even * y2 + c) % mod
    for c in odd:
        acc_odd = (acc_odd * y2 + c) % mod
    return _normal_form(p, base, acc_even + acc_odd * y, absprec)


@lru_cache(maxsize=_ZETA_VALUES)  # at most three numbers an entry, read tens of thousands of times
def _zeta_value(
    ctx: PadicContext, s: tuple, x: tuple, weight: tuple, budget: SeriesBudget
) -> PadicNumber:
    """<x>^(1-s) sum_i C(1-s, i) w(i) x^(-i), capped at the budget's target,
    from the (valuation, unit, relprec) triples of s and x."""
    p, prec = ctx.p, ctx.internal_prec
    sv, su, sr = s
    if sr is None:
        one_minus_s = (0, 1, prec)
    else:
        # 1 - s as PadicNumber subtraction forms it: known modulo the least
        # absolute precision of 1 and s (a regular s has sv >= 0)
        mantissa = 1 - su * p**sv if sr else 1
        one_minus_s = _normal_form(p, 0, mantissa, min(prec, sv + sr))
    u = weight[0]
    decay = -x[0] + (min(0, vp_fraction(u, p)) if u else 0)
    val, unit, rel = _laurent_series(ctx, one_minus_s, x, weight, decay, budget)
    power, power_rel = _angle_power_residue(p, prec, x[1], x[2], *one_minus_s)
    if rel is None:
        return ctx.exact_zero()
    # the product with the unit <x>^(1-s) as PadicNumber forms it, then the cap
    target = budget.target(ctx)
    rel = min(rel, power_rel, target - val) if rel else 0
    if rel > 0:
        return PadicNumber(p, val, unit * power % p**rel, rel)
    return ctx.bounded_zero(min(val, target))


def _expansion(
    ctx: PadicContext, s, xp: PadicNumber, weight: tuple, budget: SeriesBudget
) -> PadicNumber:
    return _zeta_value(ctx, _triple(ctx._exponent(s)), _triple(xp), weight, budget)


def zeta_czp(ctx: PadicContext, s, x, budget: SeriesBudget = _DEFAULT_BUDGET) -> PadicNumber:
    """zeta(s, x) for v_p(x) <= -1 via the Laurent expansion."""
    return _expansion(ctx, s, _coerce_czp(ctx, x), _EULER_ZERO, budget)


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
    xp = _coerce_czp(ctx, x)
    exact = _exact(x)
    if exact is None:
        raise ArgumentViolation("exact special values need a rational x")
    return ctx.omega_v(xp) ** (-m) * ctx.from_fraction(euler.euler_poly(m, exact))


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
    xp = _coerce_czp(ctx, x)
    if m < 0:
        return _expansion(ctx, 1 + m, xp, _EULER_ZERO, budget), zeta_special_neg(ctx, -m, x)
    exact = _exact(x)
    if exact is None:
        raise ArgumentViolation("the truncated oracle needs a rational x")
    formula = _expansion(ctx, 1 + m, xp, _EULER_ZERO, budget)
    sums = kernels.hurwitz_sums(ctx.p, ctx.internal_prec, exact, 1 + m, (depth,))
    e = vp_int(exact.denominator, ctx.p)
    return formula, sums[depth].cap_absprec(ctx.internal_prec - e * m)


def zeta_shifted(
    ctx: PadicContext, s, x, u, budget: SeriesBudget = _DEFAULT_BUDGET
) -> PadicNumber:
    """The shifted expansion <x>^(1-s) sum_i C(1-s,i) E_i(u) x^(-i).

    Valid when v_p(x) < v_p(u); at u = 0 it reduces to zeta(s, x).
    """
    u = Fraction(u)
    xp = _coerce_czp(ctx, x)
    if u != 0 and xp.valuation >= vp_fraction(u, ctx.p):
        raise ShiftConditionViolated("need v_p(x) < v_p(u)")
    return _expansion(ctx, s, xp, (u, 0), budget)


def dzeta_dx(ctx: PadicContext, s, x, budget: SeriesBudget = _DEFAULT_BUDGET) -> PadicNumber:
    """d/dx zeta(s, x) = (1-s)/omega_v(x) * zeta(s+1, x)."""
    xp = _coerce_czp(ctx, x)
    sp = ctx._exponent(s)
    factor = (ctx.one() - sp) / ctx.omega_v(xp)
    if factor.is_exact_zero:
        return factor
    return factor * _expansion(ctx, sp + ctx.one(), xp, _EULER_ZERO, budget)


def reflection_czp(
    ctx: PadicContext, s, x, budget: SeriesBudget = _DEFAULT_BUDGET
) -> tuple[PadicNumber, PadicNumber]:
    """(zeta(s, 1-x), zeta(s, x)) - the two sides of the reflection identity."""
    xp = _coerce_czp(ctx, x)
    exact = _exact(x)
    mirrored = 1 - (xp if exact is None else exact)
    return zeta_czp(ctx, s, mirrored, budget), _expansion(ctx, s, xp, _EULER_ZERO, budget)


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
    sp = ctx._exponent(s)
    lhs = alternating_sum(
        ctx, n_parts, lambda j: zeta_czp(ctx, sp, x + Fraction(j, n_parts), budget)
    )
    plain = zeta_czp(ctx, sp, n_parts * x, budget)
    return lhs, ctx.angle_power(n_parts, sp - ctx.one()) * plain


def integral_of_zeta(
    ctx: PadicContext, s, x, budget: SeriesBudget = _DEFAULT_BUDGET
) -> PadicNumber:
    """int zeta(s, x+a) dmu(a) via term-wise integration of the expansion.

    Using int E_i(a) dmu(a) = 2 (E_i(0) + E_{i+1}(0)) termwise:
        2 zeta(s,x) + 2 <x>^(1-s) sum_i C(1-s,i) E_{i+1}(0) x^(-i).
    """
    xp = _coerce_czp(ctx, x)
    plain = _expansion(ctx, s, xp, _EULER_ZERO, budget)
    tail = _expansion(ctx, s, xp, _EULER_NEXT, budget)
    return (2 * plain + 2 * tail).cap_absprec(budget.target(ctx))


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
    xp = _coerce_czp(ctx, x)
    sp = ctx._exponent(s)
    z_s = _expansion(ctx, sp, xp, _EULER_ZERO, budget)
    z_prev = _expansion(ctx, sp - ctx.one(), xp, _EULER_ZERO, budget)
    closed = 2 * (1 - xp) * z_s + 2 * ctx.omega_v(xp) * z_prev
    variant = 2 * (1 + 1 / xp) * z_s - (2 / (xp * ctx.angle(xp))) * z_prev
    return {
        "termwise": integral_of_zeta(ctx, sp, xp, budget),
        "closed": closed.cap_absprec(budget.target(ctx)),
        "variant": variant.cap_absprec(budget.target(ctx)),
    }
