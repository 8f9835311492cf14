"""The fermionic p-adic integral: closed forms and truncated-sum oracles.

The integral of f over Z_p against the alternating measure is the limit of
the partial sums sum_{a < p^N} f(a) (-1)^a.  For polynomial integrands the
closed form int (x+a)^m = E_m(x) turns everything into exact rational
arithmetic; ``integrate_truncated`` stays a literal partial sum
(``padic.alternating_sum``) and is used as the convergence oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from . import euler, kernels
from .characters import DirichletCharacter, _char_values
from .errors import ArgumentViolation
from .padic import PadicContext, PadicNumber, alternating_sum, capped_power

__all__ = [
    "Integrand",
    "alternating_power_sum",
    "change_of_variable",
    "integral_of_polynomial",
    "integrate_monomial_shift",
    "integrate_truncated",
]


@dataclass(frozen=True)
class Integrand:
    """A polynomial on Z_p by its coefficients (ascending, exact rationals)."""

    coeffs: tuple[Fraction, ...]

    @staticmethod
    def polynomial(coeffs) -> "Integrand":
        cs = tuple(Fraction(c) for c in coeffs)
        while len(cs) > 1 and cs[-1] == 0:
            cs = cs[:-1]
        return Integrand(cs)

    def eval_fraction(self, a) -> Fraction:
        a = Fraction(a)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * a + c
        return acc

    def eval_padic(self, ctx: PadicContext, a) -> PadicNumber:
        a = ctx.coerce(a)
        acc = ctx.from_fraction(self.coeffs[-1])
        for c in reversed(self.coeffs[:-1]):
            acc = acc * a + ctx.from_fraction(c)
        return acc


def integrate_monomial_shift(ctx: PadicContext, m: int, x) -> PadicNumber:
    """int (x+a)^m dmu(a) = E_m(x), embedded at working precision."""
    if m < 0:
        raise ArgumentViolation("monomial degree must be >= 0")
    return ctx.from_fraction(euler.euler_poly(m, Fraction(x)))


def integral_of_polynomial(f: Integrand, x) -> Fraction:
    """Exact closed form of int f(x+a) dmu(a) for polynomial f."""
    x = Fraction(x)
    return sum(
        (c * euler.euler_poly(k, x) for k, c in enumerate(f.coeffs)), Fraction(0)
    )


def integrate_truncated(ctx: PadicContext, f: Integrand, depth: int) -> PadicNumber:
    """The literal partial sum sum_{a<p^depth} f(a) (-1)^a.

    No convergence claim is made; this is the oracle primitive.  More than
    ``EVALUATION_CAP`` terms are refused with ``EvaluationCapExceeded``.
    """
    n = kernels._oracle_length(ctx.p, depth)
    return alternating_sum(ctx, n, lambda a: f.eval_padic(ctx, ctx.from_int(a)))


def alternating_power_sum(m: int, rho: int, x) -> Fraction:
    """sum_{a=0}^{rho-1} (-1)^a (x+a)^m, exactly, via the closed form.

    The shift identity telescopes the alternating sum into
    (E_m(x) - (-1)^rho E_m(x+rho)) / 2.
    """
    if m < 0 or rho < 1:
        raise ArgumentViolation("need m >= 0 and rho >= 1")
    x = Fraction(x)
    return (euler.euler_poly(m, x) - (-1) ** rho * euler.euler_poly(m, x + rho)) / 2


def change_of_variable(
    ctx: PadicContext,
    chi: DirichletCharacter,
    f: Integrand,
    x,
    depth: int,
) -> tuple[PadicNumber, PadicNumber]:
    """Both sides of the character change-of-variable identity.

    LHS: sum_{j<p^v} chi(x+j) g((x+j)/p^v) (-1)^j with
    g(y) = int f(y+a) dmu(a) = sum_k c_k E_k(y) built from the polynomial
    closed form.
    RHS: the depth-N truncated integral of a -> chi(x+a) f((x+a)/p^v), from
    deg f + 1 values on each class of a mod p^v, where it is a polynomial in
    a of degree deg f (``kernels._class_newton_sum``).
    """
    n = kernels._oracle_length(ctx.p, depth)
    x = ctx.coerce(x)
    if not x.is_zero() and x.valuation < 0:
        raise ArgumentViolation("x must lie in Z_p")
    n_pv = capped_power(ctx.p, chi.v)
    pv = ctx.from_int(n_pv)
    # (c_k, E_k) for the nonzero coefficients c_k of f; E_k(y) = sum_i C(k,i) E_{k-i}(0) y^i
    g_terms = []
    for k, c in enumerate(f.coeffs):
        if c != 0:
            e_k = [comb(k, i) * euler.euler_zero(k - i) for i in range(k + 1)]
            g_terms.append((ctx.from_fraction(c), Integrand.polynomial(e_k)))

    def g(y: PadicNumber) -> PadicNumber:
        acc = ctx.exact_zero()
        for c, e_k in g_terms:
            acc = acc + c * e_k.eval_padic(ctx, y)
        return acc

    chi_at = _char_values(ctx, chi)

    def twisted(h):
        # a -> chi(x+a) h((x+a)/p^v), the exact zero where chi vanishes
        def term(a: int) -> PadicNumber:
            xa = x + ctx.from_int(a)
            cv = chi_at(xa)
            return cv if cv.is_exact_zero else cv * h(xa / pv)

        return term

    lhs = alternating_sum(ctx, n_pv, twisted(g))
    rhs = kernels._class_newton_sum(
        ctx.p,
        n,
        twisted(lambda y: f.eval_padic(ctx, y)),
        n_pv,
        len(f.coeffs),
    )
    return lhs, rhs
