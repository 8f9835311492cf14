"""The literal per-term loops of the oracle kernels, one loop per kernel, and
the forward-difference sum that the kernels' cached weights replaced.

Each term a < p^N is computed on its own: the Hurwitz sums scale x + a by the
inverse Teichmuller digit of x, the character sums look up chi and omega^-1
by the residue of x + a, the inverse-power sums raise x + a to -m, and the
monomial sums raise x + a to every m <= m_max.  The three series-valued and
polynomial oracles (the Raabe oracle of ``zeta_czp``, that of ``zeta_char``
and the right side of the change of variable) sum every term as a
``PadicNumber`` with ``padic.alternating_sum``.  The library sums none of
these terms: it evaluates each sum from a few values per residue class with
cached weights.  ``test_kernels.py`` checks that both give the same
``PadicNumber``s, and that the weights give the residues of
``alternating_newton_sum``, which forms the forward differences of the
values on every call.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from padiczeta.characters import _char_values
from padiczeta.errors import ArgumentViolation
from padiczeta.kernels import _exponent_one_minus, _snapshots, wrap_mod
from padiczeta.padic import (
    PadicNumber,
    alternating_sum,
    capped_power,
    teichmuller_table,
    vp_fraction,
    vp_int,
)
from padiczeta.zeta_char import zeta_char
from padiczeta.zeta_czp import SeriesBudget, zeta_czp


def alternating_newton_sum(p: int, g_prec: int, values, counts) -> dict[int, int]:
    """sum_{b<n} (-1)^b values[b] mod p**g_prec for each n in counts, as
    sum_{j<D} Delta^j f(0) S_j(n) from a table of forward differences."""
    mod = p**g_prec
    half = (mod + 1) // 2  # 1/2 modulo the odd p**g_prec
    diffs, row = [], list(values)  # Delta^j f(0) for j < D
    while row:
        diffs.append(row[0])
        row = [(b - a) % mod for a, b in zip(row, row[1:])]
    out: dict[int, int] = {}
    for n in counts:
        sign = (-1) ** n
        total, s_j, binom = 0, 0, 1  # binom = C(n, j)
        for j, diff in enumerate(diffs):
            s_j = ((j == 0) - sign * binom - s_j) * half % mod
            total += diff * s_j
            binom = binom * (n - j) // (j + 1)
        out[n] = total % mod
    return out


@lru_cache(maxsize=64)
def _inverse_teichmuller_table(p: int, prec: int) -> tuple[int, ...]:
    mod = p**prec
    table = teichmuller_table(p, prec)
    return tuple(pow(w, -1, mod) if w else 0 for w in table)


def hurwitz_sums(
    p: int, prec: int, x: Fraction, s: PadicNumber, depths: tuple[int, ...]
) -> dict[int, PadicNumber]:
    """Partial sums sum_{a<p^N} <x+a>^(1-s) (-1)^a for each N in depths, s a
    ``PadicNumber`` in Z_p."""
    x = Fraction(x)
    if vp_fraction(x, p) is None or vp_fraction(x, p) >= 0:
        raise ArgumentViolation("oracle argument must have negative valuation")
    n_max = max(depths)
    n_terms = capped_power(p, n_max)
    guard = 4
    g_prec = prec + guard
    mod = p**g_prec
    a_num, b_den = x.numerator, x.denominator
    e = vp_int(b_den, p)
    b_unit = b_den // p**e
    b_inv = pow(b_unit, -1, mod)
    winv = _inverse_teichmuller_table(p, g_prec)[
        a_num * pow(b_unit, -1, p) % p
    ]
    exponent = _exponent_one_minus(p, g_prec - 1, s)
    # t^exponent = t^(1-s) only modulo p^(K+1), K the absolute precision of s
    known = prec if s.absprec is None else min(prec, s.absprec + 1)
    targets = {p**n: n for n in depths}
    out: dict[int, PadicNumber] = {}
    acc = 0
    n_int = a_num
    for a in range(n_terms):
        t = (n_int * b_inv % mod) * winv % mod
        term = pow(t, exponent, mod)
        acc = acc + term if a % 2 == 0 else acc - term
        n_int += b_den
        if a + 1 in targets:
            out[targets[a + 1]] = wrap_mod(p, acc, known)
    return out


def char_hurwitz_sums(
    p: int, prec: int, k: int, x: Fraction, s: PadicNumber, depths: tuple[int, ...]
) -> dict[int, PadicNumber]:
    """Partial sums sum_{a<p^N} chi(x+a) <x+a>^(1-s) (-1)^a, chi = omega^k, s a
    ``PadicNumber`` in Z_p."""
    x = Fraction(x)
    vx = vp_fraction(x, p)
    if vx is not None and vx < 0:
        raise ArgumentViolation("character oracle argument must lie in Z_p")
    n_max = max(depths)
    n_terms = capped_power(p, n_max)
    guard = 4
    g_prec = prec + guard
    mod = p**g_prec
    x_rep = 0 if x == 0 else x.numerator * pow(x.denominator, -1, mod) % mod
    om = teichmuller_table(p, g_prec)
    ominv = _inverse_teichmuller_table(p, g_prec)
    exponent = _exponent_one_minus(p, g_prec - 1, s)
    # t^exponent = t^(1-s) only modulo p^(K+1), K the absolute precision of s
    known = prec if s.absprec is None else min(prec, s.absprec + 1)
    # chi(n) t^(1-s) with t = n/omega(n); chi(n) = omega(n)^k needs only n mod p
    chi_tab = tuple(pow(om[u], k, mod) if u else 0 for u in range(p))
    targets = {p**n: n for n in depths}
    out: dict[int, PadicNumber] = {}
    acc = 0
    n_int = x_rep
    for a in range(n_terms):
        u = n_int % p
        if u:
            t = n_int * ominv[u] % mod
            term = chi_tab[u] * pow(t, exponent, mod) % mod
            acc = acc + term if a % 2 == 0 else acc - term
        n_int += 1
        if a + 1 in targets:
            out[targets[a + 1]] = wrap_mod(p, acc, known)
    return out


def inverse_power_sums(
    p: int, prec: int, x: Fraction, m: int, depths: tuple[int, ...]
) -> dict[int, PadicNumber]:
    """Partial sums sum_{a<p^N} (x+a)^(-m) (-1)^a for x of negative valuation."""
    x = Fraction(x)
    vx = vp_fraction(x, p)
    if vx is None or vx >= 0:
        raise ArgumentViolation("inverse-power oracle needs negative valuation")
    if m < 1:
        raise ArgumentViolation("exponent m must be >= 1")
    n_max = max(depths)
    n_terms = capped_power(p, n_max)
    mod = p**prec
    a_num, b_den = x.numerator, x.denominator
    b_pow = pow(b_den, m, mod)
    targets = {p**n: n for n in depths}
    out: dict[int, PadicNumber] = {}
    acc = 0
    n_int = a_num
    for a in range(n_terms):
        term = b_pow * pow(n_int, -m, mod) % mod
        acc = acc + term if a % 2 == 0 else acc - term
        n_int += b_den
        if a + 1 in targets:
            out[targets[a + 1]] = wrap_mod(p, acc, prec)
    return out


def monomial_alternating_sums(
    p: int, prec: int, x: Fraction, m_max: int, depths: tuple[int, ...]
) -> dict[tuple[int, int], PadicNumber]:
    """Partial sums sum_{a<p^N} (x+a)^m (-1)^a for all 0 <= m <= m_max.

    One pass over a < p^max(depths), snapshotting every requested depth.
    x may be any rational with denominator coprime to p.  The returned
    values are exact modulo p**prec.
    """
    x = Fraction(x)
    if x.denominator % p == 0:
        raise ArgumentViolation("monomial oracle needs x in Z_p")
    targets = _snapshots(p, depths)
    mod = p**prec
    a_num, b_den = x.numerator, x.denominator
    b_inv = pow(b_den, -1, mod)
    acc = [0] * (m_max + 1)
    out: dict[tuple[int, int], PadicNumber] = {}
    n_int = a_num % mod
    step = b_den % mod
    for a in range(max(targets)):
        pw = 1
        if a % 2 == 0:
            for m in range(m_max + 1):
                acc[m] += pw
                pw = pw * n_int % mod
        else:
            for m in range(m_max + 1):
                acc[m] -= pw
                pw = pw * n_int % mod
        n_int = (n_int + step) % mod
        if a + 1 in targets:
            n_depth = targets[a + 1]
            scale = 1
            for m in range(m_max + 1):
                out[(m, n_depth)] = wrap_mod(p, acc[m] * scale % mod, prec)
                scale = scale * b_inv % mod
    return out


def integral_of_zeta_oracle(ctx, s, x: Fraction, depth: int, budget=SeriesBudget()):
    """sum_{a<p^depth} zeta(s, x+a) (-1)^a, one series value a term."""
    x = Fraction(x)
    return alternating_sum(
        ctx, capped_power(ctx.p, depth), lambda a: zeta_czp(ctx, s, x + a, budget)
    )


def raabe_char_oracle(ctx, chi, s, x: int, depth: int, budget=SeriesBudget()):
    """sum_{i<p^depth} zeta(chi, s, x+i) (-1)^i, one representation sum a term."""
    sp = ctx._exponent(s)
    return alternating_sum(
        ctx, capped_power(ctx.p, depth), lambda i: zeta_char(ctx, chi, sp, x + i, budget)
    )


def change_of_variable_rhs(ctx, chi, f, x, depth: int):
    """sum_{a<p^depth} chi(x+a) f((x+a)/p^v) (-1)^a, the exact zero where p | x+a."""
    x = ctx.coerce(x)
    pv = ctx.from_int(capped_power(ctx.p, chi.v))
    chi_at = _char_values(ctx, chi)

    def term(a: int) -> PadicNumber:
        xa = x + ctx.from_int(a)
        cv = chi_at(xa)
        return cv if cv.is_exact_zero else cv * f.eval_padic(ctx, xa / pv)

    return alternating_sum(ctx, capped_power(ctx.p, depth), term)
