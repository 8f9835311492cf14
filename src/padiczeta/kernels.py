"""Integer-arithmetic hot loops behind the truncated alternating-sum oracles.

These routines compute partial sums sum_{a < p^N} f(a) (-1)^a exactly modulo
p^G using plain integers, snapshotting at every requested depth N in a single
pass.  They are deliberately independent of the analytic evaluation path
(series + exp/log): unit powers here go through modular exponentiation, so
oracle comparisons cross-check two genuinely different computations.

For a unit t = 1 mod p and s in Z_p, t^s is congruent to t^(s mod p^K)
modulo p^(K+1); non-integer exponents are reduced that way.  Exact integer
exponents are used directly (Python's pow handles negative exponents with a
modulus).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import ArgumentViolation
from .padic import EVALUATION_CAP, PadicNumber, capped_power, teichmuller_table, vp_fraction, vp_int

__all__ = [
    "EVALUATION_CAP",
    "char_hurwitz_sums",
    "hurwitz_sums",
    "inverse_power_sums",
    "monomial_alternating_sums",
    "wrap_mod",
]


@lru_cache(maxsize=64)
def _inverse_teichmuller_table(p: int, prec: int) -> tuple[int, ...]:
    mod = p**prec
    table = teichmuller_table(p, prec)
    return tuple(pow(w, -1, mod) if w else 0 for w in table)


def wrap_mod(p: int, value: int, absprec: int) -> PadicNumber:
    """Package an integer known modulo p**absprec as a PadicNumber."""
    return PadicNumber._normalize(p, 0, value, absprec)


def _exponent_one_minus(p: int, modexp: int, s) -> int:
    """An integer e with t^e = t^(1-s) mod p^(modexp+1) for all t = 1 mod p."""
    if isinstance(s, int):
        return 1 - s
    if isinstance(s, Fraction):
        if s.denominator == 1:
            return 1 - int(s)
        if s.denominator % p == 0:
            raise ArgumentViolation("exponent s must lie in Z_p")
        mod = p**modexp
        rep = s.numerator * pow(s.denominator, -1, mod) % mod
        return (1 - rep) % mod
    if isinstance(s, PadicNumber):
        if not s.is_zero() and s.valuation < 0:
            raise ArgumentViolation("exponent s must lie in Z_p")
        rep = s.integer_rep(min(modexp, s._absprec_inf() if s.is_zero() else s.absprec))
        return (1 - rep) % p**modexp
    raise ArgumentViolation(f"unsupported exponent {s!r}")


def hurwitz_sums(
    p: int, prec: int, x: Fraction, s, depths: tuple[int, ...]
) -> dict[int, PadicNumber]:
    """Partial sums sum_{a<p^N} <x+a>^(1-s) (-1)^a for each N in depths.

    Requires v_p(x) <= -1.  Results carry absolute precision ``prec``.
    """
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
            out[targets[a + 1]] = wrap_mod(p, acc, prec)
    return out


def char_hurwitz_sums(
    p: int, prec: int, k: int, x: Fraction, s, depths: tuple[int, ...]
) -> dict[int, PadicNumber]:
    """Partial sums sum_{a<p^N} chi(x+a) <x+a>^(1-s) (-1)^a, chi = omega^k.

    chi vanishes on multiples of p; x must lie in Z_p (denominator coprime
    to p).  Results carry absolute precision ``prec``.
    """
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
    n_max = max(depths)
    n_terms = capped_power(p, n_max)
    mod = p**prec
    a_num, b_den = x.numerator, x.denominator
    b_inv = pow(b_den, -1, mod)
    acc = [0] * (m_max + 1)
    targets = {p**n: n for n in depths}
    out: dict[tuple[int, int], PadicNumber] = {}
    n_int = a_num % mod
    step = b_den % mod
    for a in range(n_terms):
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
