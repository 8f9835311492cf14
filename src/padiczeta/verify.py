"""Identity grids and the verification driver.

Each named identity is one registry record: a grid of parameter tuples and a
check that turns one tuple into reports.  ``run_verify`` runs the checks
serially, identity by identity and gridpoint by gridpoint, and yields each
check's reports as it returns them, so the report order is the grid order and
no more than one check's reports are held at a time.  The checks are the only
code that turns a comparison into a report; the evaluators they call return
values.

A check compared against a truncation states the agreement depth its
report requires in code, next to the comparison: the depth N of each
truncated-sum oracle and the step exponent k of the finite differences of
``derivative-*`` (``_compare_at_depth``), and N - v*deg f for
``change-of-variable``, whose proof is at ``_check_change_of_variable``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import chain, product
from math import comb
from typing import Callable, Iterator

from . import euler, kernels
from .characters import DirichletCharacter, _char_values
from .errors import PadicError
from .fermionic import (
    Integrand,
    alternating_power_sum,
    change_of_variable,
    integral_of_polynomial,
)
from .padic import PadicContext, agreement_depth, alternating_sum, capped_power
from .report import (
    VerificationReport,
    compare_exact,
    compare_values,
    params_tuple,
)
from .zeta_char import (
    dzeta_char_dx,
    ell,
    ell_limit_oracle,
    power_series_zeta,
    raabe_char,
    representation_pair,
    zeta_char,
    zeta_char_oracle,
    zeta_char_special,
)
from .zeta_czp import (
    SeriesBudget,
    distribution_czp,
    dzeta_dx,
    integral_of_zeta_oracle,
    raabe_closed_forms,
    reflection_czp,
    zeta_czp,
    zeta_czp_oracle,
    zeta_shifted,
    zeta_special_neg,
    zeta_special_pos,
)

__all__ = [
    "IDENTITY_NAMES",
    "VerifyConfig",
    "default_slack",
    "run_verify",
]

Reports = list[VerificationReport]
Task = tuple[str, Callable[[], Reports]]


@dataclass(frozen=True)
class VerifyConfig:
    primes: tuple[int, ...] = (3, 5, 7)
    workprec: int = 16
    series_guard: int = 8
    oracle_depth: int = 5
    max_terms: int = 6000
    seed: int = 20259
    report_both_forms: bool = False

    def __post_init__(self):
        if self.oracle_depth < 2:
            raise ValueError(
                f"oracle depth (--oracle-depth) must be at least 2, got {self.oracle_depth}"
            )
        # one context per p and one budget per run: the value memos keyed by
        # them find their keys by identity
        object.__setattr__(self, "_contexts", {})
        budget = SeriesBudget(max_terms=self.max_terms, target_prec=self.workprec)
        object.__setattr__(self, "_budget", budget)

    def ctx(self, p: int) -> PadicContext:
        ctx = self._contexts.get(p)
        if ctx is None:
            ctx = self._contexts[p] = PadicContext(p, self.workprec, self.series_guard)
        return ctx

    def budget(self) -> SeriesBudget:
        return self._budget

    def rng(self, name: str, p: int) -> random.Random:
        return random.Random(f"{self.seed}:{name}:{p}")

    def depth_char(self) -> int:
        return min(self.oracle_depth, 5)

    def depth_raabe(self, p: int) -> int:
        return min(self.oracle_depth, 3 if p >= 7 else 4)

    def fd_exponents(self) -> tuple[int, ...]:
        # the difference quotient at step p^k divides out k digits, so the
        # comparison can only resolve depth k when workprec >= 2k
        ks = tuple(k for k in (4, 6, 8) if 2 * k <= self.workprec)
        return ks or (max(1, self.workprec // 2),)


def _random_s(cfg: VerifyConfig, name: str, p: int, digits: int = 12) -> int:
    return cfg.rng(name, p).randrange(1, p**digits)


def _s_grid(cfg: VerifyConfig, name: str, p: int) -> list:
    return [0, 1, -1, 2, -2, 3, _random_s(cfg, name, p)]


def _x_grid(p: int) -> list[Fraction]:
    return [
        Fraction(1, p),
        Fraction(2, p),
        Fraction(3, p * p),
        Fraction(-1, p),
    ]


def _char_ks(p: int) -> list[int]:
    return [k for k in (0, 1, 2) if k <= p - 2]


# ---- the identity registry ----------------------------------------------------


@dataclass(frozen=True)
class _Identity:
    """One identity of the network.

    ``grid(cfg)`` returns its parameter tuples in report order, drawing any
    random point from ``cfg.rng(name, p)``; ``check(cfg, *params)`` returns
    the reports of one gridpoint and calls the evaluators by their
    module-global names.  A check compared against a truncation states the
    agreement depth it requires itself, as ``_compare_at_depth`` or the
    proved bound of ``_check_change_of_variable`` does.
    """

    name: str
    grid: Callable[[VerifyConfig], list[tuple]]
    check: Callable[..., Reports]

    def tasks(self, cfg: VerifyConfig) -> list[Task]:
        return [(self.name, partial(self.check, cfg, *params)) for params in self.grid(cfg)]


_REGISTRY: list[_Identity] = []


def _identity(name: str, grid):
    """Register the decorated check as identity ``name``, run over ``grid``."""

    def register(check):
        _REGISTRY.append(_Identity(name, grid, check))
        return check

    return register


def _single(cfg: VerifyConfig) -> list[tuple]:
    return [()]


def _per_p(axes) -> Callable[[VerifyConfig], list[tuple]]:
    """The grid of (p, *point) for each p and each point of product(*axes(cfg, p))."""
    return lambda cfg: [(p, *point) for p in cfg.primes for point in product(*axes(cfg, p))]


def _compare_at_depth(
    identity: str, params: dict, value, reference, depth: int, **kwargs
) -> VerificationReport:
    """compare_values requiring agreement depth ``depth``, its reference depth:
    N digits against a depth-N truncated-sum oracle (the oracle families), and
    k digits for the difference quotient at step p^k (``derivative-*``)."""
    return compare_values(
        identity, params, value, reference, required_depth=depth, reference_depth=depth, **kwargs
    )


# ---- identities, in report order ------------------------------------------------


# x of the Euler shift and reflection laws
_SHIFT_POINTS = (
    Fraction(0),
    Fraction(1),
    Fraction(-1),
    Fraction(1, 2),
    Fraction(-1, 2),
    Fraction(3),
    Fraction(2, 3),
    Fraction(-5, 4),
    Fraction(7, 2),
    Fraction(-3),
)

# x of the quadratic convolution
_QUADRATIC_POINTS = (
    Fraction(0),
    Fraction(1),
    Fraction(1, 2),
    Fraction(-1, 2),
    Fraction(3, 4),
)


def _exact_family(identity: str, params: dict, failures: list[str]) -> VerificationReport:
    """One report for a family of exact rational comparisons, with the first
    four failures as its note."""
    return VerificationReport(
        identity=identity,
        params=params_tuple(params),
        lhs="(exact rational identity)",
        rhs="(exact rational identity)",
        status="pass" if not failures else "fail",
        note="; ".join(failures[:4]),
    )


@_identity("euler-exact", _single)
def _check_euler_exact(cfg: VerifyConfig) -> Reports:
    """The Euler values up to degree 20 against their defining relations,
    with zero tolerance: the E <-> E(0) conversion, the shift
    E_m(x+1) + E_m(x) = 2 x^m, the reflection E_m(1-x) = (-1)^m E_m(x), the
    distribution E_m(0) = N^m sum_j (-1)^j E_m(j/N) for odd N, and the
    quadratic convolution
    sum_i C(m,i) E_i(x) E_{m-i}(x) = 2((1-2x) E_m(2x) + E_{m+1}(2x))."""
    top = 20
    degrees = range(top + 1)
    e_zero = euler.euler_zero
    values: dict[tuple[int, Fraction], Fraction] = {}

    def e_poly(m: int, x: Fraction) -> Fraction:
        # the relations read most (m, x) pairs several times: each value once
        value = values.get((m, x))
        if value is None:
            value = values[m, x] = euler.euler_poly(m, x)
        return value

    conversion = [
        f"conversion m={m}"
        for m in degrees
        if e_zero(m)
        != Fraction(
            sum(comb(m, k) * (-1) ** (m - k) * euler.euler_number(k) for k in range(m + 1)),
            2**m,
        )
    ]
    shift = [
        f"shift m={m} x={x}"
        for m in degrees
        for x in _SHIFT_POINTS
        if e_poly(m, x + 1) + e_poly(m, x) != 2 * x**m
    ]
    reflection = [
        f"reflection m={m} x={x}"
        for m in degrees
        for x in _SHIFT_POINTS
        if e_poly(m, 1 - x) != (-1) ** m * e_poly(m, x)
    ]
    distribution = [
        f"distribution N={n} m={m}"
        for n in (1, 3, 5)
        for m in degrees
        if e_zero(m)
        != Fraction(n) ** m * sum((-1) ** j * e_poly(m, Fraction(j, n)) for j in range(n))
    ]
    quadratic = [
        f"quadratic m={m} x={x}"
        for m in degrees
        for x in _QUADRATIC_POINTS
        if sum(comb(m, i) * e_poly(i, x) * e_poly(m - i, x) for i in range(m + 1))
        != 2 * ((1 - 2 * x) * e_poly(m, 2 * x) + e_poly(m + 1, 2 * x))
    ]
    return [
        _exact_family("euler-conversion", {"max_degree": top}, conversion),
        _exact_family("euler-shift", {"max_degree": top, "points": len(_SHIFT_POINTS)}, shift),
        _exact_family("euler-reflection", {"max_degree": top}, reflection),
        _exact_family("euler-distribution", {"max_degree": top, "N": "1,3,5"}, distribution),
        _exact_family(
            "euler-quadratic", {"max_degree": top, "points": len(_QUADRATIC_POINTS)}, quadratic
        ),
    ]


# (m, rho, x) of the alternating-sum check: 90 points
_ALTERNATING_POINTS = tuple(
    product((0, 1, 2, 3, 5, 8), (1, 2, 9, 27, 729), (Fraction(0), Fraction(1), Fraction(1, 2)))
)


def _literal_alternating_sum(m: int, rho: int, x: Fraction) -> Fraction:
    """sum_{a<rho} (-1)^a (x+a)^m term by term, over the common denominator
    d^m of x = n/d."""
    n, d = x.numerator, x.denominator
    return Fraction(sum((-1) ** a * (n + a * d) ** m for a in range(rho)), d**m)


@_identity("alternating-sum", _single)
def _check_alternating_sum(cfg: VerifyConfig) -> Reports:
    failures = [
        f"m={m} rho={rho} x={x}"
        for m, rho, x in _ALTERNATING_POINTS
        if alternating_power_sum(m, rho, x) != _literal_alternating_sum(m, rho, x)
    ]
    return [
        compare_exact(
            "alternating-sum",
            {"points": len(_ALTERNATING_POINTS)},
            Fraction(0),
            Fraction(0) if not failures else Fraction(1),
            note="; ".join(failures[:4]),
        )
    ]


def _shift_difference(f: Integrand, offset: int) -> Integrand:
    """The polynomial a -> f(a + offset) - f(a)."""
    out = [-c for c in f.coeffs]
    for k, c in enumerate(f.coeffs):
        for i in range(k + 1):
            out[i] += c * comb(k, i) * offset ** (k - i)
    return Integrand.polynomial(out)


@_identity(
    "shift-integral",
    lambda cfg: list(
        product(
            ((1,), (0, 1), (0, 0, 1), (1, -2, 0, 3)),
            (Fraction(0), Fraction(3), Fraction(1, 2), Fraction(-2)),
        )
    ),
)
def _check_shift_integral(cfg: VerifyConfig, coeffs, x: Fraction) -> Reports:
    """The difference identities of I(y) = int f(y+a) dmu(a), exactly:
    I(x) = f(x) - I(Delta f at x)/2 with (Delta f)(a) = f(a+1) - f(a),
    I(x) = f(x-1) + I(nabla f at x)/2 with (nabla f)(a) = f(a) - f(a-1),
    and I(x+1) + I(x) = 2 f(x)."""
    f = Integrand.polynomial(coeffs)
    at_x = integral_of_polynomial(f, x)
    params = {"f": list(map(str, f.coeffs)), "x": x}
    delta = _shift_difference(f, 1)
    minus_nabla = _shift_difference(f, -1)  # f(a-1) - f(a)
    return [
        compare_exact(
            "integral-shift-delta",
            params,
            at_x,
            f.eval_fraction(x) - integral_of_polynomial(delta, x) / 2,
        ),
        compare_exact(
            "integral-shift-nabla",
            params,
            at_x,
            f.eval_fraction(x - 1) - integral_of_polynomial(minus_nabla, x) / 2,
        ),
        compare_exact(
            "integral-shift-pair",
            params,
            integral_of_polynomial(f, x + 1) + at_x,
            2 * f.eval_fraction(x),
        ),
    ]


@_identity(
    "integral-convergence",
    _per_p(lambda cfg, p: ((Fraction(0), Fraction(1), Fraction(1, 2), Fraction(3)),)),
)
def _check_integral_convergence(cfg: VerifyConfig, p: int, x: Fraction) -> Reports:
    depths = tuple(range(2, min(cfg.oracle_depth, 6) + 1))
    m_max = 12
    ctx = cfg.ctx(p)
    prec = cfg.workprec + 6 + max(depths)
    sums = kernels.monomial_alternating_sums(p, prec, x, m_max, depths)
    targets = [ctx.from_fraction(euler.euler_poly(m, x), relprec=prec) for m in range(m_max + 1)]
    out = []
    for n_depth in depths:
        depth_at = {m: agreement_depth(sums[(m, n_depth)], t) for m, t in enumerate(targets)}
        worst = min(depth_at, key=depth_at.get)
        out.append(
            compare_values(
                "integral-convergence",
                {"p": p, "x": x, "N": n_depth, "m_max": m_max},
                sums[(worst, n_depth)],
                targets[worst],
                required_depth=n_depth,
                reference_depth=n_depth,
                note=f"worst m={worst}",
            )
        )
    return out


def _grid_zeta_one(cfg: VerifyConfig) -> list[tuple]:
    per_p = {3: 17, 5: 17, 7: 16}
    points = []
    for p in cfg.primes:
        rng = cfg.rng("zeta-one", p)
        for _ in range(per_p.get(p, 16)):
            e = rng.choice((1, 1, 2, 3))
            num = rng.randrange(1, p**6)
            while num % p == 0:
                num = rng.randrange(1, p**6)
            if rng.random() < 0.5:
                num = -num
            points.append((p, Fraction(num, p**e)))
    return points


@_identity("zeta-one", _grid_zeta_one)
def _check_zeta_one(cfg: VerifyConfig, p: int, x: Fraction) -> Reports:
    ctx = cfg.ctx(p)
    val = zeta_czp(ctx, 1, x, cfg.budget())
    return [
        compare_values(
            "zeta-one",
            {"p": p, "x": x},
            val,
            ctx.from_int(1, relprec=cfg.workprec),
            required_depth=cfg.workprec,
        )
    ]


@_identity("special-neg", _per_p(lambda cfg, p: (_x_grid(p),)))
def _check_special_neg(cfg: VerifyConfig, p: int, x: Fraction) -> Reports:
    ctx = cfg.ctx(p)
    pairs = [
        (m, zeta_czp(ctx, 1 - m, x, cfg.budget()), zeta_special_neg(ctx, m, x)) for m in range(1, 9)
    ]
    m, series, exact = min(pairs, key=lambda pair: agreement_depth(pair[1], pair[2]))
    return [
        compare_values(
            "special-neg",
            {"p": p, "x": x, "m_max": 8},
            series,
            exact,
            required_depth=cfg.workprec,
            note=f"worst m={m}",
        )
    ]


@_identity(
    "special-pos",
    _per_p(lambda cfg, p: ((1, 2, 3), _x_grid(p)[:2])),
)
def _check_special_pos(cfg: VerifyConfig, p: int, m: int, x: Fraction) -> Reports:
    depth = cfg.oracle_depth
    values = zeta_special_pos(cfg.ctx(p), m, x, depth, cfg.budget())
    params = {"p": p, "m": m, "x": x, "N": depth}
    return [_compare_at_depth("special-pos", params, *values, depth)]


@_identity(
    "oracle-czp",
    _per_p(lambda cfg, p: (_s_grid(cfg, "oracle-czp", p), _x_grid(p))),
)
def _check_oracle_czp(cfg: VerifyConfig, p: int, s, x: Fraction) -> Reports:
    ctx = cfg.ctx(p)
    n_max = cfg.oracle_depth
    capped_power(p, n_max)  # refuse a huge depth before its depth list is built
    depths = tuple(range(2, n_max + 1))
    sp = ctx._exponent(s)
    series = zeta_czp(ctx, sp, x, cfg.budget())
    sums = kernels.hurwitz_sums(p, ctx.internal_prec, x, sp, depths)
    margins = {n: agreement_depth(series, sums[n]) - n for n in depths}
    n_depth = min(margins, key=margins.get)
    return [
        _compare_at_depth(
            "oracle-czp",
            {"p": p, "s": s, "x": x, "N": n_depth},
            series,
            sums[n_depth],
            n_depth,
            note=f"min margin over N=2..{n_max}: {margins[n_depth]}",
        )
    ]


@_identity(
    "oracle-char",
    _per_p(
        lambda cfg, p: (
            (1, 2), _char_ks(p), (0, 2, _random_s(cfg, "oracle-char", p)), (0, 1)
        )
    ),
)
def _check_oracle_char(cfg: VerifyConfig, p: int, v: int, k: int, s, x: int) -> Reports:
    ctx = cfg.ctx(p)
    chi = DirichletCharacter(p, v, k)
    depth = cfg.depth_char()
    series = zeta_char(ctx, chi, s, x, cfg.budget())
    oracle = zeta_char_oracle(ctx, chi, s, x, depth)
    params = {"p": p, "char": chi.label, "s": s, "x": x, "N": depth}
    return [_compare_at_depth("oracle-char", params, series, oracle, depth)]


@_identity(
    "ell-oracle",
    _per_p(lambda cfg, p: ((1, 2), [k for k in (1, 3) if k <= p - 2], (0, 2, 5))),
)
def _check_ell_oracle(cfg: VerifyConfig, p: int, v: int, k: int, s) -> Reports:
    ctx = cfg.ctx(p)
    chi = DirichletCharacter(p, v, k)
    depth = cfg.depth_char()
    value = ell(ctx, chi, s, cfg.budget())
    oracle = ell_limit_oracle(ctx, chi, s, depth)
    params = {"p": p, "char": chi.label, "s": s, "N": depth}
    return [_compare_at_depth("ell-oracle", params, value, oracle, depth)]


@_identity(
    "ell-even-zero",
    _per_p(
        lambda cfg, p: (
            (1, 2), range(0, p - 1, 2), (0, 1, -1, 2, _random_s(cfg, "ell-even-zero", p))
        )
    ),
)
def _check_ell_even_zero(cfg: VerifyConfig, p: int, v: int, k: int, s) -> Reports:
    ctx = cfg.ctx(p)
    chi = DirichletCharacter(p, v, k)
    value = ell(ctx, chi, s, cfg.budget())
    return [
        compare_values(
            "ell-even-zero",
            {"p": p, "char": chi.label, "s": s},
            value,
            ctx.bounded_zero(cfg.workprec),
            required_depth=cfg.workprec,
        )
    ]


@_identity(
    "functional-czp", _per_p(lambda cfg, p: (_s_grid(cfg, "functional-czp", p), _x_grid(p)))
)
def _check_functional_czp(cfg: VerifyConfig, p: int, s, x: Fraction) -> Reports:
    ctx = cfg.ctx(p)
    sp = ctx.coerce(s)
    lhs = zeta_czp(ctx, sp, x + 1, cfg.budget()) + zeta_czp(ctx, sp, x, cfg.budget())
    xe = ctx.from_fraction(x)
    rhs = 2 * xe / ctx.omega_v(xe) * ctx.angle_power(xe, -sp)
    return [compare_values("functional-czp", {"p": p, "s": s, "x": x}, lhs, rhs)]


@_identity(
    "reflection-czp", _per_p(lambda cfg, p: (_s_grid(cfg, "reflection-czp", p), _x_grid(p)))
)
def _check_reflection_czp(cfg: VerifyConfig, p: int, s, x: Fraction) -> Reports:
    ctx = cfg.ctx(p)
    lhs, rhs = reflection_czp(ctx, s, x, cfg.budget())
    return [compare_values("reflection-czp", {"p": p, "s": s, "x": x}, lhs, rhs)]


@_identity(
    "distribution-czp",
    _per_p(lambda cfg, p: ((0, 2, 3, _random_s(cfg, "distribution-czp", p)), _x_grid(p))),
)
def _check_distribution_czp(cfg: VerifyConfig, p: int, s, x: Fraction) -> Reports:
    ctx = cfg.ctx(p)
    n_parts = 5 if p == 3 else 3
    lhs, rhs = distribution_czp(ctx, s, x, n_parts, cfg.budget())
    params = {"p": p, "s": s, "x": x, "N": n_parts}
    out = [compare_values("distribution-czp", params, lhs, rhs)]
    if cfg.report_both_forms:
        out.append(
            compare_values(
                "distribution-czp-unscaled",
                params,
                lhs,
                zeta_czp(ctx, s, n_parts * x, cfg.budget()),
                informational=True,
                note="residual without the <N>^(s-1) factor, recorded only",
            )
        )
    return out


@_identity(
    "derivative-czp",
    _per_p(
        lambda cfg, p: (
            (0, 2, _random_s(cfg, "derivative-czp", p, 6)), _x_grid(p)[:2], cfg.fd_exponents()
        )
    ),
)
def _check_derivative_czp(cfg: VerifyConfig, p: int, s, x: Fraction, k: int) -> Reports:
    ctx = cfg.ctx(p)
    h = p**k
    fd = (
        zeta_czp(ctx, s, x + h, cfg.budget()) - zeta_czp(ctx, s, x, cfg.budget())
    ) / ctx.from_int(h)
    formula = dzeta_dx(ctx, s, x, cfg.budget())
    params = {"p": p, "s": s, "x": x, "h": f"{p}^{k}"}
    return [_compare_at_depth("derivative-czp", params, fd, formula, k)]


def _grid_shifted_expansion(cfg: VerifyConfig) -> list[tuple]:
    """(p, s, x, u, against_oracle): per p the grid against zeta(s, x + u),
    then one point against the truncated-sum oracle."""
    points = []
    for p in cfg.primes:
        s_values = (0, 2, _random_s(cfg, "shifted-expansion", p))
        for s, x, u in product(s_values, _x_grid(p), (Fraction(1), Fraction(1, 2))):
            points.append((p, s, x, u, False))
        points.append((p, 2, Fraction(1, p * p), Fraction(1, 2), True))
    return points


@_identity("shifted-expansion", _grid_shifted_expansion)
def _check_shifted_expansion(
    cfg: VerifyConfig, p: int, s, x: Fraction, u: Fraction, against_oracle: bool
) -> Reports:
    ctx = cfg.ctx(p)
    lhs = zeta_shifted(ctx, s, x, u, cfg.budget())
    if not against_oracle:
        rhs = zeta_czp(ctx, s, x + u, cfg.budget())
        return [
            compare_values("shifted-expansion", {"p": p, "s": s, "x": x, "u": u}, lhs, rhs)
        ]
    depth = cfg.oracle_depth
    oracle = zeta_czp_oracle(ctx, s, x + u, depth)
    params = {"p": p, "s": s, "x": x, "u": u, "N": depth}
    return [_compare_at_depth("shifted-expansion-oracle", params, lhs, oracle, depth)]


@_identity(
    "raabe-czp",
    # (p, s, x, with_oracle): the oracle runs at the second s and the first x
    lambda cfg: [
        (p, s, x, (i, j) == (1, 0))
        for p in cfg.primes
        for (i, s), (j, x) in product(
            enumerate((0, 2, 3, _random_s(cfg, "raabe-czp", p))), enumerate(_x_grid(p)[:2])
        )
    ],
)
def _check_raabe_czp(cfg: VerifyConfig, p: int, s, x: Fraction, with_oracle: bool) -> Reports:
    ctx = cfg.ctx(p)
    forms = raabe_closed_forms(ctx, s, x, cfg.budget())
    params = {"p": p, "s": s, "x": x}
    out = [compare_values("raabe-czp", params, forms["termwise"], forms["closed"])]
    if cfg.report_both_forms:
        out.append(
            compare_values(
                "raabe-czp-variant",
                params,
                forms["termwise"],
                forms["variant"],
                informational=True,
                note="residual of the alternative closed form, recorded only",
            )
        )
    if with_oracle:
        depth = cfg.depth_raabe(p)
        oracle = integral_of_zeta_oracle(ctx, s, x, depth, cfg.budget())
        out.append(
            _compare_at_depth(
                "raabe-czp-oracle", {**params, "N": depth}, forms["termwise"], oracle, depth
            )
        )
    return out


@_identity(
    "char-suite",
    # the x-in-Z_p identity suite
    _per_p(lambda cfg, p: ((1, 2), _char_ks(p), (0, 1, -1, 2), (0, 1, 2, p))),
)
def _check_char_suite(cfg: VerifyConfig, p: int, v: int, k: int, s, x: int) -> Reports:
    """The functional equation, the reflection, the values at x = 1, 2, 3 and
    the distribution identity of zeta(chi, s, x) at one gridpoint.  N is 5 at
    p = 3 and 3 otherwise, odd and coprime to p as the distribution needs."""
    ctx = cfg.ctx(p)
    chi = DirichletCharacter(p, v, k)
    budget = cfg.budget()
    sp = ctx.coerce(s)
    one_minus_s = ctx.one() - sp
    base = {"p": p, "char": chi.label, "s": s, "x": x}
    out = []

    lhs = zeta_char(ctx, chi, sp, x + 1, budget) + zeta_char(ctx, chi, sp, x, budget)
    chi_at = _char_values(ctx, chi)
    cv = chi_at(ctx.from_int(x))
    if cv.is_exact_zero:
        rhs = ctx.exact_zero()
    else:
        rhs = 2 * cv * ctx.angle_power(ctx.from_int(x), one_minus_s)
    out.append(compare_values("functional-char", base, lhs, rhs))

    lhs = zeta_char(ctx, chi, sp, 1 - x, budget)
    rhs = zeta_char(ctx, chi, sp, x, budget)
    out.append(compare_values("reflection-char", base, lhs, rhs if chi.is_even else -rhs))

    ell_val = ell(ctx, chi, sp, budget)
    for n in (1, 2, 3):
        lhs = zeta_char(ctx, chi, sp, n, budget)
        inner = (-1) ** (n + 1) * ell_val
        for j in range(1, n):
            cv = chi_at(ctx.from_int(j - n))
            if cv.is_exact_zero:
                continue
            term = 2 * ctx.angle_power(ctx.from_int(j - n), one_minus_s) * cv
            inner = inner + (-1) ** (j + 1) * term
        rhs = ctx.from_int(1 if chi.is_even else -1) * inner  # chi(-1) inner
        out.append(compare_values("positive-n-char", {**base, "n": n}, lhs, rhs))

    n_parts = 5 if p == 3 else 3
    params = {**base, "N": n_parts}
    lhs = alternating_sum(
        ctx, n_parts, lambda i: zeta_char(ctx, chi, sp, x + Fraction(i, n_parts), budget)
    )
    chi_n = chi_at(ctx.from_int(n_parts))
    stated = zeta_char(ctx, chi, sp, n_parts * x, budget) / chi_n
    scale = ctx.angle_power(n_parts, sp - ctx.one())
    out.append(compare_values("distribution-char", params, lhs, scale * stated))
    if cfg.report_both_forms:
        out.append(
            compare_values(
                "distribution-char-unscaled",
                params,
                lhs,
                stated,
                informational=True,
                note="residual of the form without the <N>^(s-1) factor, recorded only",
            )
        )
    return out


@_identity(
    "special-char",
    lambda cfg: [
        (p, v, k0, k, x)
        for p in cfg.primes
        for v, ks in ((1, (1, 2, 3, 4, 5, 6)), (2, (1, 2)))
        for k0, k, x in product((0, 1), ks, (0, 1))
    ],
)
def _check_special_char(cfg: VerifyConfig, p: int, v: int, k0: int, k: int, x: int) -> Reports:
    ctx = cfg.ctx(p)
    chi = DirichletCharacter(p, v, k0)
    lhs, rhs = zeta_char_special(ctx, chi, k, x, cfg.budget())
    return [
        compare_values("special-char", {"p": p, "char": chi.label, "k": k, "x": x}, lhs, rhs)
    ]


def _grid_derivative_char(cfg: VerifyConfig) -> list[tuple]:
    """(p, v, k, s, x, h_exp); h_exp None is the corollary at s = 0, x = 1."""
    points = []
    for p, v, k in product(cfg.primes, (1, 2), (0, 1)):
        for s, x, h_exp in product((0, 2), (0, 1), cfg.fd_exponents()[:2]):
            points.append((p, v, k, s, x, h_exp))
        points.append((p, v, k, 0, 1, None))
    return points


@_identity("derivative-char", _grid_derivative_char)
def _check_derivative_char(
    cfg: VerifyConfig, p: int, v: int, k: int, s, x: int, h_exp: int | None
) -> Reports:
    ctx = cfg.ctx(p)
    chi = DirichletCharacter(p, v, k)
    if h_exp is None:
        # d/dx at (chi omega, 0, x) collapses to the plain character sum
        lhs = dzeta_char_dx(ctx, chi.twist(1), 0, x, cfg.budget())
        chi_at = _char_values(ctx, chi)
        rhs = alternating_sum(ctx, capped_power(p, v), lambda j: chi_at(x + j))
        return [
            compare_values(
                "derivative-char-at-zero",
                {"p": p, "char": chi.label, "x": x},
                lhs,
                rhs.cap_absprec(cfg.workprec),
            )
        ]
    h = p**h_exp
    fd = (
        zeta_char(ctx, chi, s, x + h, cfg.budget())
        - zeta_char(ctx, chi, s, x, cfg.budget())
    ) / ctx.from_int(h)
    formula = dzeta_char_dx(ctx, chi, s, x, cfg.budget())
    params = {"p": p, "char": chi.label, "s": s, "x": x, "h": f"{p}^{h_exp}"}
    return [_compare_at_depth("derivative-char", params, fd, formula, h_exp)]


@_identity(
    "representation-char",
    # (p, v, k, s, x, factor, power): the modulus is factor * p^(v + power)
    lambda cfg: [
        (p, v, k, s, x, factor, power)
        for p, v, k, s, x in product(cfg.primes, (1, 2), (0, 1), (0, 2), (0, 1))
        for factor, power in ((5 if p == 3 else 3, 0), (1, 1))
    ],
)
def _check_representation_char(
    cfg: VerifyConfig, p: int, v: int, k: int, s, x: int, factor: int, power: int
) -> Reports:
    ctx = cfg.ctx(p)
    chi = DirichletCharacter(p, v, k)
    lhs, rhs = representation_pair(ctx, chi, s, x, factor, power, cfg.budget())
    kind = f"{factor}*p^(v+{power})" if factor > 1 else f"p^(v+{power})"
    return [
        compare_values(
            "representation-char",
            {"p": p, "char": chi.label, "s": s, "x": x, "M": kind},
            lhs,
            rhs,
        )
    ]


@_identity("power-series-char", _per_p(lambda cfg, p: ((1, 2), (0, 1), (0, 2), (1, 2))))
def _check_power_series_char(cfg: VerifyConfig, p: int, v: int, k: int, s, x_mult: int) -> Reports:
    ctx = cfg.ctx(p)
    chi = DirichletCharacter(p, v, k)
    x = x_mult * p**v
    decay = v
    terms = -(-((cfg.workprec + 2) * (p - 1)) // (decay * (p - 1) - 1)) + 2
    series = power_series_zeta(ctx, chi, s, x, terms, cfg.budget())
    direct = zeta_char(ctx, chi, s, x, cfg.budget())
    return [
        compare_values(
            "power-series-char",
            {"p": p, "char": chi.label, "s": s, "x": x, "K": terms},
            series,
            direct,
        )
    ]


# p -> (v, k, s, x) points
_RAABE_CHAR_POINTS = {
    3: [(1, 0, 1, 2), (1, 1, 0, 1), (2, 1, 2, 0)],
    5: [(1, 0, 1, 2), (1, 1, 0, 1)],
    7: [(1, 1, 0, 1), (1, 0, 2, 0)],
}


@_identity(
    "raabe-char",
    lambda cfg: [
        (p, *point) for p in cfg.primes for point in _RAABE_CHAR_POINTS.get(p, [(1, 0, 1, 1)])
    ],
)
def _check_raabe_char(cfg: VerifyConfig, p: int, v: int, k: int, s, x: int) -> Reports:
    ctx = cfg.ctx(p)
    chi = DirichletCharacter(p, v, k)
    depth = cfg.depth_raabe(p)
    lhs, rhs = raabe_char(ctx, chi, s, x, depth, cfg.budget())
    params = {"p": p, "char": chi.label, "s": s, "x": x, "N": depth}
    return [_compare_at_depth("raabe-char", params, lhs, rhs, depth)]


# (p, v, k, coefficients of f, x)
_CHANGE_OF_VARIABLE_CASES = (
    (3, 1, 0, (0, 1), 0),
    (5, 1, 2, (0, 0, 1), 2),
    (5, 1, 0, (1,), 0),
    (7, 1, 1, (0, 1), 1),
)

# the most digits a case may lose, v*deg f at its largest over the cases
# (proved at the check): every case requires N minus this, N - 2
_CHANGE_OF_VARIABLE_LOSS = max(
    v * (len(coeffs) - 1) for _, v, _, coeffs, _ in _CHANGE_OF_VARIABLE_CASES
)


def default_slack() -> dict[str, int]:
    """The digits each oracle family may lose below its depth N: the proved
    loss of ``change-of-variable``; every other family loses none."""
    return {"change-of-variable": _CHANGE_OF_VARIABLE_LOSS}


@_identity(
    "change-of-variable",
    lambda cfg: [case for case in _CHANGE_OF_VARIABLE_CASES if case[0] in cfg.primes],
)
def _check_change_of_variable(
    cfg: VerifyConfig, p: int, v: int, k: int, coeffs, x: int
) -> Reports:
    """Both sides agree to at least N - v*deg f digits at depth N >= v.

    Write a = j + p^v*b with j < p^v and b < n = p^(N-v).  Both p^v and n are
    odd, so (-1)^a = (-1)^j (-1)^b, and chi(x+a) = chi(x+j): class j of the
    truncated integral is (-1)^j chi(x+j) sum_{b<n} (-1)^b f(y_j + b) with
    y_j = (x+j)/p^v.  On y^m, E_m(y+1) + E_m(y) = 2 y^m telescopes over the
    odd count n to (E_m(y_j) + E_m(y_j + n))/2, which differs from the left
    side's E_m(y_j) by
        (E_m(y_j + n) - E_m(y_j))/2 = sum_{i>=1} C(m,i) E_{m-i}(y_j) n^i / 2.
    E_l(y) = sum_i C(l,i) E_{l-i}(0) y^i with E_{l-i}(0) in Z_p (p is odd)
    and v_p(y_j) >= -v, so term i has valuation at least
    i(N-v) - v(m-i) = iN - vm >= N - vm.  chi's values are units or 0, so
    for f with Z_p coefficients (the cases' are integers) the two sides
    differ by valuation at least N - v*deg f.  Each case requires N minus
    the largest such loss over the cases, ``_CHANGE_OF_VARIABLE_LOSS``.
    """
    ctx = cfg.ctx(p)
    chi = DirichletCharacter(p, v, k)
    depth = min(cfg.oracle_depth, 4)
    lhs, rhs = change_of_variable(ctx, chi, Integrand.polynomial(coeffs), x, depth)
    params = {"p": p, "char": chi.label, "f": list(map(str, coeffs)), "x": x, "N": depth}
    return [
        compare_values(
            "change-of-variable",
            params,
            lhs,
            rhs,
            required_depth=depth - _CHANGE_OF_VARIABLE_LOSS,
            reference_depth=depth,
        )
    ]


# identity name -> task builder(cfg); run_verify looks the builders up here
# when it runs
_BUILDERS: dict[str, Callable[[VerifyConfig], list[Task]]] = {
    identity.name: identity.tasks for identity in _REGISTRY
}

IDENTITY_NAMES = tuple(_BUILDERS)


def run_verify(
    cfg: VerifyConfig, names: list[str] | None = None
) -> Iterator[VerificationReport]:
    """Run the selected identities serially and yield their reports in grid order.

    Unknown names are refused at once; each check runs when the iterator
    reaches its gridpoint, and its list of reports is dropped once yielded.
    """
    selected = list(IDENTITY_NAMES) if not names else names
    unknown = [n for n in selected if n not in _BUILDERS]
    if unknown:
        raise PadicError(f"unknown identities: {', '.join(unknown)}")
    return chain.from_iterable(task() for name in selected for _, task in _BUILDERS[name](cfg))

