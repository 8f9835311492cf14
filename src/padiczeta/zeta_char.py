"""The character-twisted zeta function on Z_p and the p-adic Euler ell-function.

For x in Z_p and a tame character chi modulo p^v the function is evaluated
through the representation sum

    zeta(chi, s, x) = sum_{j<M} chi(x+j) zeta(s, (x+j)/M) (-1)^j

at the canonical modulus M = p, so it costs p series evaluations whatever v
is; the terms with p | (x+j) vanish and the surviving arguments
automatically have negative valuation.  The sum gives the same value for every M = p^e (e >= 1)
and <N>^(s-1) times it for M = N p^e with N odd and coprime to p; literal
sums over such larger M appear only in ``representation_pair``, which checks
this.  ell(chi, s) = zeta(chi, s, 0).  The direct truncated sums
sum_{a<p^N} chi(x+a) <x+a>^(1-s) (-1)^a act as the independent oracle
(``zeta_char_oracle``, and ``ell_limit_oracle`` at x = 0); the kernel sums
them one residue class of a mod p at a time.
"""

from __future__ import annotations

from fractions import Fraction

from . import euler, kernels
from .characters import DirichletCharacter, char_eval
from .errors import ArgumentOutsideZp, ArgumentViolation, BudgetExhausted, ParseError
from .padic import PadicContext, PadicNumber, alternating_sum, capped_power, vp_int
from .report import (
    VerificationReport,
    compare_values,
    hypothesis_violation,
)
from .zeta_czp import (
    _DEFAULT_BUDGET,
    SeriesBudget,
    _coerce_exponent,
    _series_terms,
    zeta_czp,
)

__all__ = [
    "dzeta_char_dx",
    "ell",
    "ell_limit_oracle",
    "functional_reflection_distribution",
    "power_series_zeta",
    "raabe_char",
    "zeta_char",
    "zeta_char_oracle",
    "zeta_char_special",
]


def _check_char(ctx: PadicContext, chi: DirichletCharacter) -> None:
    if chi.p != ctx.p:
        raise ParseError("character prime differs from context prime")


def _coerce_zp(ctx: PadicContext, x) -> PadicNumber:
    xp = ctx.coerce(x)
    if not xp.is_zero() and xp.valuation < 0:
        raise ArgumentOutsideZp("argument must lie in Z_p")
    return xp


def zeta_char(
    ctx: PadicContext,
    chi: DirichletCharacter,
    s,
    x,
    budget: SeriesBudget = _DEFAULT_BUDGET,
) -> PadicNumber:
    """zeta(chi, s, x) for x in Z_p via the representation sum over M = p residues."""
    return _representation_sum(ctx, chi, s, x, ctx.p, budget)


def _representation_sum(
    ctx: PadicContext, chi: DirichletCharacter, s, x, big_m: int, budget: SeriesBudget
) -> PadicNumber:
    """sum_{j<M} chi(x+j) zeta(s, (x+j)/M) (-1)^j for an odd M divisible by p.

    Every term with chi(x+j) != 0 is a series in (x+j)/M of valuation
    -v_p(M), so its term budget is checked before any character value.
    """
    _check_char(ctx, chi)
    xp = _coerce_zp(ctx, x)
    _series_terms(ctx, vp_int(big_m, ctx.p), budget)
    inv_m = 1 / ctx.from_int(big_m)

    def term(j: int) -> PadicNumber:
        xj = xp + ctx.from_int(j) if j else xp
        cv = char_eval(ctx, chi, xj)
        return cv if cv.is_exact_zero else cv * zeta_czp(ctx, s, xj * inv_m, budget)

    return alternating_sum(ctx, big_m, term).cap_absprec(budget.target(ctx))


def ell(
    ctx: PadicContext,
    chi: DirichletCharacter,
    s,
    budget: SeriesBudget = _DEFAULT_BUDGET,
) -> PadicNumber:
    """The p-adic Euler ell-function: zeta(chi, s, 0).

    Vanishes identically (to working precision) for even characters.
    """
    return zeta_char(ctx, chi, s, 0, budget)


def ell_limit_oracle(
    ctx: PadicContext, chi: DirichletCharacter, s, depth: int
) -> PadicNumber:
    """Depth-N partial sum sum_{a<p^N, p∤a} <a>^(1-s) chi(a) (-1)^a."""
    return zeta_char_oracle(ctx, chi, s, 0, depth)


def zeta_char_oracle(
    ctx: PadicContext, chi: DirichletCharacter, s, x, depth: int
) -> PadicNumber:
    """Truncated sum sum_{a<p^N} chi(x+a) <x+a>^(1-s) (-1)^a for x in Z_p."""
    _check_char(ctx, chi)
    x = Fraction(x)
    if x.denominator % ctx.p == 0:
        raise ArgumentOutsideZp("oracle argument must lie in Z_p")
    return kernels.char_hurwitz_sums(
        ctx.p, ctx.internal_prec, chi.k, x, s, (depth,)
    )[depth]


def zeta_char_special(
    ctx: PadicContext,
    chi: DirichletCharacter,
    k: int,
    x: int,
    budget: SeriesBudget = _DEFAULT_BUDGET,
) -> tuple[PadicNumber, PadicNumber]:
    """Both routes to zeta(chi omega^k, 1-k, x) for integer k >= 1.

    The right-hand side is the finite Euler-polynomial sum
    p^(v k) sum_j chi(x+j) E_k((x+j)/p^v) (-1)^j with the polynomial values
    taken exactly and embedded afterwards.
    """
    _check_char(ctx, chi)
    if k < 1:
        raise ArgumentViolation("k must be >= 1")
    pv = capped_power(ctx.p, chi.v)
    lhs = zeta_char(ctx, chi.twist(k), 1 - k, x, budget)

    def term(j: int) -> PadicNumber:
        cv = char_eval(ctx, chi, x + j)
        if cv.is_exact_zero:
            return cv
        return cv * ctx.from_fraction(euler.euler_poly(k, Fraction(x + j, pv)))

    acc = alternating_sum(ctx, pv, term)
    rhs = (ctx.from_int(ctx.p) ** (chi.v * k) * acc).cap_absprec(budget.target(ctx))
    return lhs, rhs


def dzeta_char_dx(
    ctx: PadicContext,
    chi: DirichletCharacter,
    s,
    x,
    budget: SeriesBudget = _DEFAULT_BUDGET,
) -> PadicNumber:
    """d/dx zeta(chi, s, x) = (1-s) zeta(chi omega^(-1), s+1, x)."""
    sp = _coerce_exponent(ctx, s)
    factor = ctx.one() - sp
    if factor.is_exact_zero:
        return factor
    return factor * zeta_char(ctx, chi.twist(-1), sp + ctx.one(), x, budget)


def raabe_char(
    ctx: PadicContext,
    chi: DirichletCharacter,
    s,
    x: int,
    depth: int,
    budget: SeriesBudget = _DEFAULT_BUDGET,
) -> tuple[PadicNumber, PadicNumber]:
    """(oracle, closed form) for the integral of a -> zeta(chi, s, x+a).

    oracle:      sum_{i<p^N} zeta(chi, s, x+i) (-1)^i
    closed form: 2 (1-x) zeta(chi, s, x) + 2 zeta(chi omega, s-1, x)
    """
    _check_char(ctx, chi)
    sp = _coerce_exponent(ctx, s)
    acc = alternating_sum(
        ctx, capped_power(ctx.p, depth), lambda i: zeta_char(ctx, chi, sp, x + i, budget)
    )
    rhs = 2 * (ctx.one() - ctx.from_int(x)) * zeta_char(ctx, chi, sp, x, budget) + 2 * zeta_char(
        ctx, chi.twist(1), sp - ctx.one(), x, budget
    )
    return acc, rhs.cap_absprec(budget.target(ctx))


def power_series_zeta(
    ctx: PadicContext,
    chi: DirichletCharacter,
    s,
    x,
    terms: int,
    budget: SeriesBudget = _DEFAULT_BUDGET,
) -> PadicNumber:
    """The expansion sum_k C(1-s,k) ell(chi omega^(-k), s+k) x^k on p^v Z_p.

    The returned precision is capped by the tail bound
    min_{k>=terms} (k v_p(x) - v_p(k!)); with enough terms this reaches the
    budget target, otherwise the value honestly carries less.
    """
    _check_char(ctx, chi)
    if terms < 1:
        raise ArgumentViolation("need at least one term")
    if terms > budget.max_terms:
        raise BudgetExhausted(f"{terms} terms exceed the budget of {budget.max_terms}")
    xp = ctx.coerce(x)
    if not xp.is_zero() and xp.valuation < chi.v:
        raise ArgumentViolation("x must lie in p^v Z_p")
    sp = _coerce_exponent(ctx, s)
    one_minus_s = ctx.one() - sp
    if xp.is_zero():
        return ell(ctx, chi, sp, budget)
    vx = xp.valuation
    # valuation lower bound for every dropped term
    tail_bound = terms * vx - (terms - 1 + ctx.p - 2) // (ctx.p - 1)
    acc = None
    binom = ctx.one()
    xpow = ctx.one()
    for k in range(terms):
        coeff = ell(ctx, chi.twist(-k), sp + ctx.from_int(k) if k else sp, budget)
        term = binom * coeff * xpow
        acc = term if acc is None else acc + term
        binom = binom * (one_minus_s - k) / (k + 1)
        xpow = xpow * xp
    return acc.cap_absprec(min(budget.target(ctx), tail_bound))


def functional_reflection_distribution(
    ctx: PadicContext,
    chi: DirichletCharacter,
    s,
    x: int,
    n_parts: int,
    budget: SeriesBudget = _DEFAULT_BUDGET,
    slack: int = 0,
) -> list[VerificationReport]:
    """Reports for the functional equation, reflection, positive-integer
    values, and distribution identity at one (chi, s, x, N) gridpoint.

    Hypothesis violations are reported, not raised.
    """
    _check_char(ctx, chi)
    sp = _coerce_exponent(ctx, s)
    base = {"p": ctx.p, "char": chi.label, "s": s, "x": x}
    reports = []

    lhs = zeta_char(ctx, chi, sp, x + 1, budget) + zeta_char(ctx, chi, sp, x, budget)
    cv = char_eval(ctx, chi, ctx.from_int(x))
    if cv.is_exact_zero:
        rhs = ctx.exact_zero()
    else:
        rhs = 2 * cv * ctx.angle_power(ctx.from_int(x), ctx.one() - sp)
    reports.append(
        compare_values("functional-char", base, lhs, rhs, slack=slack)
    )

    lhs = zeta_char(ctx, chi, sp, 1 - x, budget)
    rhs = zeta_char(ctx, chi, sp, x, budget)
    if not chi.is_even:
        rhs = -rhs
    reports.append(compare_values("reflection-char", dict(base), lhs, rhs, slack=slack))

    for n in (1, 2, 3):
        lhs = zeta_char(ctx, chi, sp, n, budget)
        ell_val = ell(ctx, chi, sp, budget)
        inner = (-1) ** (n + 1) * ell_val
        for j in range(1, n):
            cv = char_eval(ctx, chi, ctx.from_int(j - n))
            if cv.is_exact_zero:
                continue
            term = 2 * ctx.angle_power(ctx.from_int(j - n), ctx.one() - sp) * cv
            inner = inner + (-1) ** (j + 1) * term
        rhs = chi_minus_one(ctx, chi) * inner
        reports.append(
            compare_values(
                "positive-n-char", {**base, "n": n}, lhs, rhs, slack=slack
            )
        )

    if n_parts % 2 == 0 or n_parts % ctx.p == 0:
        reports.append(
            hypothesis_violation(
                "distribution-char",
                {**base, "N": n_parts},
                "N must be odd and coprime to p",
            )
        )
    else:
        lhs = alternating_sum(
            ctx, n_parts, lambda i: zeta_char(ctx, chi, sp, x + Fraction(i, n_parts), budget)
        )
        chi_n = char_eval(ctx, chi, ctx.from_int(n_parts))
        stated = zeta_char(ctx, chi, sp, n_parts * x, budget) / chi_n
        scale = ctx.unit_power(ctx.angle(ctx.from_int(n_parts)), sp - ctx.one())
        reports.append(
            compare_values(
                "distribution-char", {**base, "N": n_parts}, lhs, scale * stated, slack=slack
            )
        )
        reports.append(
            compare_values(
                "distribution-char-unscaled",
                {**base, "N": n_parts},
                lhs,
                stated,
                informational=True,
                note="residual of the form without the <N>^(s-1) factor, recorded only",
            )
        )

    return reports


def chi_minus_one(ctx: PadicContext, chi: DirichletCharacter) -> PadicNumber:
    """chi(-1) = (-1)^k as a p-adic value."""
    return ctx.from_int(1 if chi.is_even else -1)


def representation_pair(
    ctx: PadicContext,
    chi: DirichletCharacter,
    s,
    x,
    factor: int = 1,
    power: int = 0,
    budget: SeriesBudget = _DEFAULT_BUDGET,
) -> tuple[PadicNumber, PadicNumber]:
    """(M-representation sum, its predicted value) for M = factor * p^(v+power).

    The literal sum over M residues is set against ``zeta_char``'s sum at
    M = p: pure p-power moduli reproduce that value exactly, and an odd
    coprime factor N scales it by <N>^(s-1).
    """
    if factor < 1 or factor % 2 == 0 or factor % ctx.p == 0:
        raise ArgumentViolation("modulus factor must be odd, positive, coprime to p")
    if power < 0:
        raise ArgumentViolation("modulus power must be >= 0")
    sp = _coerce_exponent(ctx, s)
    big_m = factor * capped_power(ctx.p, chi.v + power)
    big = _representation_sum(ctx, chi, sp, x, big_m, budget)
    canonical = zeta_char(ctx, chi, sp, x, budget)
    if factor > 1:
        canonical = ctx.unit_power(ctx.angle(ctx.from_int(factor)), sp - ctx.one()) * canonical
    return big, canonical
