"""Identity grids, the verification driver, and slack calibration.

Each named identity is one registry record: a grid of parameter tuples and a
check that turns one tuple into reports.  ``run_verify`` runs the checks
serially, identity by identity and gridpoint by gridpoint, and yields each
check's reports as it returns them, so the report order is the grid order and
no more than one check's reports are held at a time.  The checks are the only
code that turns a comparison into a report; the evaluators they call return
values.

Oracle-backed identities pass when the agreement depth reaches N - c, where
the per-family slack constants c come from a checked-in calibration fixture
(regenerated with ``verify --calibrate``).  A verification run fails if any
measured slack exceeds the fixture.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import partial
from importlib import resources
from itertools import chain, product
from math import comb
from typing import Callable, Iterator, Mapping

from . import euler, kernels
from .characters import DirichletCharacter, _char_values
from .errors import PadicError, ParseError
from .fermionic import (
    Integrand,
    alternating_power_sum,
    change_of_variable,
    integral_of_polynomial,
)
from .padic import PadicContext, agreement_depth, alternating_sum, capped_power
from .report import (
    VerificationReport,
    budget_failure,
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
    "calibrate",
    "default_slack",
    "run_verify",
]

Reports = list[VerificationReport]
Task = tuple[str, Callable[[], Reports]]


def _parse_slack(text: str, source) -> dict[str, int]:
    """The slack constants of a calibration fixture: a JSON object whose
    ``families`` object maps each report family to an integer (text that is
    not JSON raises ValueError)."""
    obj = json.loads(text)
    families = obj.get("families") if isinstance(obj, dict) else None
    if not isinstance(families, dict) or any(type(v) is not int for v in families.values()):
        raise ParseError(
            f"{source}: a calibration fixture is an object whose \"families\" maps"
            " report families to integers"
        )
    return families


def default_slack() -> dict[str, int]:
    """Slack constants from the packaged calibration fixture."""
    path = resources.files("padiczeta").joinpath("data/calibration.json")
    return _parse_slack(path.read_text(), path)


def load_slack(path) -> dict[str, int]:
    with open(path, "r", encoding="utf-8") as fh:
        return _parse_slack(fh.read(), path)


@dataclass(frozen=True)
class VerifyConfig:
    primes: tuple[int, ...] = (3, 5, 7)
    workprec: int = 16
    series_guard: int = 8
    oracle_depth: int = 5
    max_terms: int = 6000
    seed: int = 20259
    report_both_forms: bool = False
    slack: Mapping[str, int] = field(default_factory=default_slack)

    def __post_init__(self):
        if self.oracle_depth < 2:
            raise ValueError(
                f"oracle depth (--oracle-depth) must be at least 2, got {self.oracle_depth}"
            )

    def ctx(self, p: int) -> PadicContext:
        return PadicContext(p, self.workprec, self.series_guard)

    def budget(self) -> SeriesBudget:
        return SeriesBudget(max_terms=self.max_terms, target_prec=self.workprec)

    def rng(self, name: str, p: int) -> random.Random:
        return random.Random(f"{self.seed}:{name}:{p}")

    def c(self, family: str) -> int:
        return int(self.slack.get(family, 0))

    def depth_czp(self) -> int:
        return self.oracle_depth

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
    module-global names.  ``families`` maps each report identity that is
    compared against an oracle to the calibrated slack family it feeds.
    """

    name: str
    grid: Callable[[VerifyConfig], list[tuple]]
    check: Callable[..., Reports]
    families: Mapping[str, str]

    def tasks(self, cfg: VerifyConfig) -> list[Task]:
        return [(self.name, partial(self.check, cfg, *params)) for params in self.grid(cfg)]


_REGISTRY: list[_Identity] = []


def _identity(name: str, grid, families: Mapping[str, str] | None = None):
    """Register the decorated check as identity ``name``, run over ``grid``."""

    def register(check):
        _REGISTRY.append(_Identity(name, grid, check, families or {}))
        return check

    return register


def _single(cfg: VerifyConfig) -> list[tuple]:
    return [()]


def _per_p(axes) -> Callable[[VerifyConfig], list[tuple]]:
    """The grid of (p, *point) for each p and each point of product(*axes(cfg, p))."""
    return lambda cfg: [(p, *point) for p in cfg.primes for point in product(*axes(cfg, p))]


def _compare_calibrated(
    cfg: VerifyConfig, identity: str, params: dict, value, oracle, depth: int, **kwargs
) -> VerificationReport:
    """compare_values at reference depth N = ``depth``, passing at agreement
    depth N - c, where c is the calibrated slack of the report's family."""
    return compare_values(
        identity,
        params,
        value,
        oracle,
        required_depth=depth - cfg.c(_REPORT_FAMILY[identity]),
        reference_depth=depth,
        **kwargs,
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
    e_zero, e_poly = euler.euler_zero, euler.euler_poly
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
        worst = None
        for m, target in enumerate(targets):
            d = agreement_depth(sums[(m, n_depth)], target)
            if worst is None or d < worst[0]:
                worst = (d, m)
        out.append(
            compare_values(
                "integral-convergence",
                {"p": p, "x": x, "N": n_depth, "m_max": m_max},
                sums[(worst[1], n_depth)],
                targets[worst[1]],
                required_depth=n_depth,
                reference_depth=n_depth,
                note=f"worst m={worst[1]}",
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
    worst = None
    for m in range(1, 9):
        series = zeta_czp(ctx, 1 - m, x, cfg.budget())
        exact = zeta_special_neg(ctx, m, x)
        d = agreement_depth(series, exact)
        if worst is None or d < worst[0]:
            worst = (d, m, series, exact)
    return [
        compare_values(
            "special-neg",
            {"p": p, "x": x, "m_max": 8},
            worst[2],
            worst[3],
            required_depth=cfg.workprec,
            note=f"worst m={worst[1]}",
        )
    ]


@_identity(
    "special-pos",
    _per_p(lambda cfg, p: ((1, 2, 3), _x_grid(p)[:2])),
    {"special-pos": "special-pos"},
)
def _check_special_pos(cfg: VerifyConfig, p: int, m: int, x: Fraction) -> Reports:
    ctx = cfg.ctx(p)
    depth = cfg.depth_czp()
    params = {"p": p, "m": m, "x": x, "N": depth}
    try:
        values = zeta_special_pos(ctx, m, x, depth, cfg.budget())
        return [_compare_calibrated(cfg, "special-pos", params, *values, depth)]
    except PadicError as exc:
        return [budget_failure("special-pos", params, f"{exc.code}: {exc}")]


@_identity(
    "oracle-czp",
    _per_p(lambda cfg, p: (_s_grid(cfg, "oracle-czp", p), _x_grid(p))),
    {"oracle-czp": "oracle-czp"},
)
def _check_oracle_czp(cfg: VerifyConfig, p: int, s, x: Fraction) -> Reports:
    ctx = cfg.ctx(p)
    n_max = cfg.depth_czp()
    capped_power(p, n_max)  # refuse a huge depth before its depth list is built
    depths = tuple(range(2, n_max + 1))
    series = zeta_czp(ctx, s, x, cfg.budget())
    sums = kernels.hurwitz_sums(p, ctx.internal_prec, x, s, depths)
    worst = None
    for n_depth in depths:
        d = agreement_depth(series, sums[n_depth])
        margin = d - n_depth
        if worst is None or margin < worst[0]:
            worst = (margin, n_depth)
    n_depth = worst[1]
    return [
        _compare_calibrated(
            cfg,
            "oracle-czp",
            {"p": p, "s": s, "x": x, "N": n_depth},
            series,
            sums[n_depth],
            n_depth,
            note=f"min margin over N=2..{n_max}: {worst[0]}",
        )
    ]


@_identity(
    "oracle-char",
    _per_p(
        lambda cfg, p: (
            (1, 2), _char_ks(p), (0, 2, _random_s(cfg, "oracle-char", p)), (0, 1)
        )
    ),
    {"oracle-char": "oracle-char"},
)
def _check_oracle_char(cfg: VerifyConfig, p: int, v: int, k: int, s, x: int) -> Reports:
    ctx = cfg.ctx(p)
    chi = DirichletCharacter(p, v, k)
    depth = cfg.depth_char()
    series = zeta_char(ctx, chi, s, x, cfg.budget())
    oracle = zeta_char_oracle(ctx, chi, s, x, depth)
    params = {"p": p, "char": chi.label, "s": s, "x": x, "N": depth}
    return [_compare_calibrated(cfg, "oracle-char", params, series, oracle, depth)]


@_identity(
    "ell-oracle",
    _per_p(lambda cfg, p: ((1, 2), [k for k in (1, 3) if k <= p - 2], (0, 2, 5))),
    {"ell-oracle": "ell-oracle"},
)
def _check_ell_oracle(cfg: VerifyConfig, p: int, v: int, k: int, s) -> Reports:
    ctx = cfg.ctx(p)
    chi = DirichletCharacter(p, v, k)
    depth = cfg.depth_char()
    value = ell(ctx, chi, s, cfg.budget())
    oracle = ell_limit_oracle(ctx, chi, s, depth)
    params = {"p": p, "char": chi.label, "s": s, "N": depth}
    return [_compare_calibrated(cfg, "ell-oracle", params, value, oracle, depth)]


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
    {"derivative-czp": "derivative-czp"},
)
def _check_derivative_czp(cfg: VerifyConfig, p: int, s, x: Fraction, k: int) -> Reports:
    ctx = cfg.ctx(p)
    h = p**k
    fd = (
        zeta_czp(ctx, s, x + h, cfg.budget()) - zeta_czp(ctx, s, x, cfg.budget())
    ) / ctx.from_int(h)
    formula = dzeta_dx(ctx, s, x, cfg.budget())
    params = {"p": p, "s": s, "x": x, "h": f"{p}^{k}"}
    return [_compare_calibrated(cfg, "derivative-czp", params, fd, formula, k)]


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


@_identity(
    "shifted-expansion", _grid_shifted_expansion, {"shifted-expansion-oracle": "oracle-czp"}
)
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
    depth = cfg.depth_czp()
    oracle = zeta_czp_oracle(ctx, s, x + u, depth)
    params = {"p": p, "s": s, "x": x, "u": u, "N": depth}
    return [_compare_calibrated(cfg, "shifted-expansion-oracle", params, lhs, oracle, depth)]


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
    {"raabe-czp-oracle": "raabe-czp-oracle"},
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
            _compare_calibrated(
                cfg, "raabe-czp-oracle", {**params, "N": depth}, forms["termwise"], oracle, depth
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


@_identity("derivative-char", _grid_derivative_char, {"derivative-char": "derivative-char"})
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
    return [_compare_calibrated(cfg, "derivative-char", params, fd, formula, h_exp)]


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
    {"raabe-char": "raabe-char-oracle"},
)
def _check_raabe_char(cfg: VerifyConfig, p: int, v: int, k: int, s, x: int) -> Reports:
    ctx = cfg.ctx(p)
    chi = DirichletCharacter(p, v, k)
    depth = cfg.depth_raabe(p)
    lhs, rhs = raabe_char(ctx, chi, s, x, depth, cfg.budget())
    params = {"p": p, "char": chi.label, "s": s, "x": x, "N": depth}
    return [_compare_calibrated(cfg, "raabe-char", params, lhs, rhs, depth)]


# (p, v, k, coefficients of f, x)
_CHANGE_OF_VARIABLE_CASES = (
    (3, 1, 0, (0, 1), 0),
    (5, 1, 2, (0, 0, 1), 2),
    (5, 1, 0, (1,), 0),
    (7, 1, 1, (0, 1), 1),
)


@_identity(
    "change-of-variable",
    lambda cfg: [case for case in _CHANGE_OF_VARIABLE_CASES if case[0] in cfg.primes],
    {"change-of-variable": "change-of-variable"},
)
def _check_change_of_variable(
    cfg: VerifyConfig, p: int, v: int, k: int, coeffs, x: int
) -> Reports:
    ctx = cfg.ctx(p)
    chi = DirichletCharacter(p, v, k)
    depth = min(cfg.oracle_depth, 4)
    lhs, rhs = change_of_variable(ctx, chi, Integrand.polynomial(coeffs), x, depth)
    params = {"p": p, "char": chi.label, "f": list(map(str, coeffs)), "x": x, "N": depth}
    return [_compare_calibrated(cfg, "change-of-variable", params, lhs, rhs, depth)]


# identity name -> task builder(cfg); run_verify looks the builders up here
# when it runs
_BUILDERS: dict[str, Callable[[VerifyConfig], list[Task]]] = {
    identity.name: identity.tasks for identity in _REGISTRY
}

IDENTITY_NAMES = tuple(_BUILDERS)

# report identity -> calibrated slack family
_REPORT_FAMILY = {
    report: family for identity in _REGISTRY for report, family in identity.families.items()
}

CALIBRATED_FAMILIES = tuple(dict.fromkeys(_REPORT_FAMILY.values()))


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


def calibrate(cfg: VerifyConfig) -> dict[str, int]:
    """Measure the oracle slack constants on the standard grids.

    Returns max(0, reference_depth - agreement_depth) per family, the
    smallest integers making every oracle comparison pass, folded over the
    reports as ``run_verify`` yields them.
    """
    wide = replace(cfg, slack={name: 10**6 for name in CALIBRATED_FAMILIES})
    measured = {name: 0 for name in CALIBRATED_FAMILIES}
    names = [identity.name for identity in _REGISTRY if identity.families]
    for rep in run_verify(wide, names):
        family = _REPORT_FAMILY.get(rep.identity)
        if family is None or rep.reference_depth is None or rep.agreement_depth is None:
            continue
        measured[family] = max(measured[family], rep.reference_depth - rep.agreement_depth)
    return measured
