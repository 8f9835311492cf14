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

The representation sum is one pass over integer residues, with no
``PadicNumber`` arithmetic per term.  x is read once as an integer known
modulo p^A; term j reads the ``zeta_czp`` value cache (``_zeta_value``) under
the key of zeta(s, (x+j)/M), the key that ``zeta_czp(ctx, s, (x+j)/M)`` itself
uses, so both routes share entries, and multiplies the value by omega(x+j)^k,
read from one ``padic.teichmuller_table`` per sum.  The signed products are
reduced and normalised once, which gives the value and precision of
term-by-term ``PadicNumber`` arithmetic (``tests/object_reference.py`` keeps
that route for comparison).

Every character here is omega^k, whatever its level v, so a value depends
on k and never on v; ``verify`` asks for most values at v = 1 and again at
v = 2.  Two ``lru_cache`` memos of ``_CHAR_VALUES`` entries each keep one
``PadicNumber`` an entry, keyed by k and never by chi or v:
``_representation_value`` by (context, k, the (valuation, unit, relprec)
triples of s and x, M, budget), the key fields that the sum reads, and
``_oracle_value`` by (p, internal precision, k, x, the triple of s, N).
Both read s through ``PadicContext._exponent``, as ``zeta_czp`` does, so a
series and its oracle refuse the same s with the same error.  ``zeta_char``,
``ell``, ``representation_pair``, ``power_series_zeta``, ``dzeta_char_dx``
and the ``raabe_char`` terms read the first, ``zeta_char_oracle`` and
``ell_limit_oracle`` the second.  The public functions make every refusal
before a memo is read, so a refused input is never cached and is raised on
every call.  An entry is a value capped at the budget's target and a key of
two small triples: a few hundred bytes at 16 digits, at most three numbers
of ``padic.MAX_MODULUS_BITS`` bits (plus any longer x a caller passes), the
bound of a ``zeta_czp._zeta_value`` entry.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from . import euler, kernels
from .characters import DirichletCharacter, _char_values
from .errors import (
    ArgumentOutsideZp,
    ArgumentViolation,
    BudgetExhausted,
    ParseError,
    PrecisionError,
)
from .padic import (
    PadicContext,
    PadicNumber,
    _check_sum_length,
    _residue_sum,
    _vp_split,
    alternating_sum,
    capped_power,
    teichmuller_table,
    vp_int,
)
from .zeta_czp import (
    _DEFAULT_BUDGET,
    _EULER_ZERO,
    SeriesBudget,
    _series_terms,
    _triple,
    _zeta_value,
)

__all__ = [
    "dzeta_char_dx",
    "ell",
    "ell_limit_oracle",
    "power_series_zeta",
    "raabe_char",
    "zeta_char",
    "zeta_char_oracle",
    "zeta_char_special",
]

_CHAR_VALUES = 2048  # a default verify computes 1,569 representation sums


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

    Every refusal comes here, before the memo is read, in this order: the
    character's prime, x outside Z_p, the term budget of a series of
    valuation -v_p(M) (checked before any character value), s outside Z_p,
    M over the evaluation cap, and an x whose unit status is unknown.  The
    value is ``_representation_value``'s, read by chi's exponent k alone.
    """
    _check_char(ctx, chi)
    xp = _coerce_zp(ctx, x)
    _series_terms(ctx, vp_int(big_m, ctx.p), budget)
    s_key = _triple(ctx._exponent(s))
    _check_sum_length(big_m)
    if xp.is_bounded_zero and xp.valuation < 1:
        raise PrecisionError("cannot evaluate character: unit status unknown")
    return _representation_value(ctx, chi.k, s_key, _triple(xp), big_m, budget)


@lru_cache(maxsize=_CHAR_VALUES)  # one value an entry
def _representation_value(
    ctx: PadicContext, k: int, s: tuple, x: tuple, big_m: int, budget: SeriesBudget
) -> PadicNumber:
    """The representation sum for chi = omega^k from the (valuation, unit,
    relprec) triples of s and x, all checked.

    x is an integer r0 known modulo p**A (A = prec for the exact zero).  With
    M = N p^e and c = min(A, prec), the unit term r = r0 + j reads
    ``_zeta_value`` at the triple (-e, r N^(-1) mod p^c, c), which is (x+j)/M
    as ``PadicNumber`` arithmetic forms it, and chi(x+j) is omega(r mod p)^k
    modulo p**prec, read from ``teichmuller_table``.  Each product keeps the
    precision of the ``PadicNumber`` product: relative precision
    min(prec, zeta.relprec), or only the absolute precision of a bounded-zero
    zeta.  ``padic._residue_sum`` reduces and normalises the sum once.
    """
    p, prec = ctx.p, ctx.internal_prec
    e, n_factor = _vp_split(big_m, p)
    xv, xu, xr = x
    if xr is None:
        r0, a0 = 0, prec
    elif not xr:
        r0, a0 = 0, xv
    else:
        r0, a0 = xu * p**xv, xv + xr
    c = min(a0, prec)
    mod, char_mod = p**c, p**prec
    n_inv = pow(n_factor, -1, mod)
    omega = teichmuller_table(p, prec)
    terms, absprec = [], None
    for j in range(big_m):
        r = r0 + j
        digit = r % p
        if digit == 0:
            continue
        z = _zeta_value(ctx, s, (-e, r * n_inv % mod, c), _EULER_ZERO, budget)
        if z.relprec is None:
            continue
        if z.relprec:
            u = pow(omega[digit], k, char_mod) * z.unit
            terms.append((z.valuation, -u if j & 1 else u))
            a = z.valuation + min(prec, z.relprec)
        else:
            a = z.valuation
        if absprec is None or a < absprec:
            absprec = a
    return _residue_sum(p, terms, absprec).cap_absprec(budget.target(ctx))


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
    """Truncated sum sum_{a<p^N} chi(x+a) <x+a>^(1-s) (-1)^a for a rational x
    in Z_p."""
    _check_char(ctx, chi)
    _coerce_zp(ctx, x)
    if isinstance(x, PadicNumber):
        raise ArgumentViolation("the truncated oracle needs a rational x")
    s_key = _triple(ctx._exponent(s))
    return _oracle_value(ctx.p, ctx.internal_prec, chi.k, Fraction(x), s_key, depth)


@lru_cache(maxsize=_CHAR_VALUES)  # one value an entry
def _oracle_value(p: int, prec: int, k: int, x: Fraction, s: tuple, depth: int) -> PadicNumber:
    """The kernel's depth-N sum for chi = omega^k from the (valuation, unit,
    relprec) triple of s."""
    return kernels.char_hurwitz_sums(p, prec, k, x, PadicNumber(p, *s), (depth,))[depth]


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
    chi_at = _char_values(ctx, chi)

    def term(j: int) -> PadicNumber:
        cv = chi_at(x + j)
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
    sp = ctx._exponent(s)
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

    oracle:      sum_{i<p^N} zeta(chi, s, x+i) (-1)^i, the truncated sum from
                 D = ``kernels._progression_degree(p, 1, target)`` values on
                 each class of i mod p (``kernels._class_newton_sum``)
    closed form: 2 (1-x) zeta(chi, s, x) + 2 zeta(chi omega, s-1, x)
    """
    _check_char(ctx, chi)
    sp = ctx._exponent(s)
    p = ctx.p
    n = kernels._oracle_length(p, depth)
    degree = kernels._progression_degree(p, 1, budget.target(ctx))
    acc = kernels._class_newton_sum(
        p, n, lambda i: zeta_char(ctx, chi, sp, x + i, budget), p, degree
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
    sp = ctx._exponent(s)
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
    sp = ctx._exponent(s)
    big_m = factor * capped_power(ctx.p, chi.v + power)
    big = _representation_sum(ctx, chi, sp, x, big_m, budget)
    canonical = zeta_char(ctx, chi, sp, x, budget)
    if factor > 1:
        canonical = ctx.angle_power(factor, sp - ctx.one()) * canonical
    return big, canonical
