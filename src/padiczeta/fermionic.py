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

from . import euler
from .characters import DirichletCharacter, char_eval
from .errors import ArgumentViolation
from .padic import PadicContext, PadicNumber, alternating_sum
from .report import VerificationReport, compare_exact

__all__ = [
    "Integrand",
    "alternating_power_sum",
    "change_of_variable",
    "integral_of_polynomial",
    "integrate_monomial_shift",
    "integrate_truncated",
    "verify_shift_identities",
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

    @staticmethod
    def monomial(degree: int) -> "Integrand":
        return Integrand.polynomial([0] * degree + [1])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

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
    if depth < 1:
        raise ArgumentViolation("truncation depth must be >= 1")
    return alternating_sum(ctx, ctx.p**depth, lambda a: f.eval_padic(ctx, ctx.from_int(a)))


def alternating_power_sum(m: int, rho: int, x) -> Fraction:
    """sum_{a=0}^{rho-1} (-1)^a (x+a)^m, exactly, via the closed form.

    The shift identity telescopes the alternating sum into
    (E_m(x) - (-1)^rho E_m(x+rho)) / 2.
    """
    if m < 0 or rho < 1:
        raise ArgumentViolation("need m >= 0 and rho >= 1")
    x = Fraction(x)
    return (euler.euler_poly(m, x) - (-1) ** rho * euler.euler_poly(m, x + rho)) / 2


def verify_shift_identities(f: Integrand, x) -> list[VerificationReport]:
    """Exact checks of the forward/backward difference identities.

    For I(y) = int f(y+a) dmu(a):
      I(x) = f(x) - I(Delta f at x)/2        (Delta f)(a) = f(a+1) - f(a)
      I(x) = f(x-1) + I(nabla f at x)/2      (nabla f)(a) = f(a) - f(a-1)
    equivalently I(x+1) + I(x) = 2 f(x).
    """
    x = Fraction(x)
    table_ix = integral_of_polynomial(f, x)

    def shifted(g: Integrand, offset: Fraction) -> Integrand:
        # coefficients of a -> g(a + offset)
        out = [Fraction(0)] * (g.degree + 1)
        for k, c in enumerate(g.coeffs):
            for i in range(k + 1):
                out[i] += c * comb(k, i) * offset ** (k - i)
        return Integrand.polynomial(out)

    def poly_difference(a: Integrand, b: Integrand) -> Integrand:
        n = max(a.degree, b.degree) + 1
        ca = list(a.coeffs) + [Fraction(0)] * (n - len(a.coeffs))
        cb = list(b.coeffs) + [Fraction(0)] * (n - len(b.coeffs))
        return Integrand.polynomial([u - v for u, v in zip(ca, cb)])

    delta = poly_difference(shifted(f, Fraction(1)), f)
    nabla = poly_difference(f, shifted(f, Fraction(-1)))
    params = {"f": list(map(str, f.coeffs)), "x": x}
    reports = [
        compare_exact(
            "integral-shift-delta",
            params,
            table_ix,
            f.eval_fraction(x) - integral_of_polynomial(delta, x) / 2,
        ),
        compare_exact(
            "integral-shift-nabla",
            params,
            table_ix,
            f.eval_fraction(x - 1) + integral_of_polynomial(nabla, x) / 2,
        ),
        compare_exact(
            "integral-shift-pair",
            params,
            integral_of_polynomial(f, x + 1) + table_ix,
            2 * f.eval_fraction(x),
        ),
    ]
    return reports


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
    RHS: the depth-N truncated integral of a -> chi(x+a) f((x+a)/p^v).
    """
    if depth < 1:
        raise ArgumentViolation("truncation depth must be >= 1")
    x = ctx.coerce(x)
    if not x.is_zero() and x.valuation < 0:
        raise ArgumentViolation("x must lie in Z_p")
    pv = ctx.from_int(ctx.p**chi.v)
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

    def twisted(h):
        # a -> chi(x+a) h((x+a)/p^v), the exact zero where chi vanishes
        def term(a: int) -> PadicNumber:
            xa = x + ctx.from_int(a)
            cv = char_eval(ctx, chi, xa)
            return cv if cv.is_exact_zero else cv * h(xa / pv)

        return term

    lhs = alternating_sum(ctx, ctx.p**chi.v, twisted(g))
    return lhs, alternating_sum(ctx, ctx.p**depth, twisted(lambda y: f.eval_padic(ctx, y)))
