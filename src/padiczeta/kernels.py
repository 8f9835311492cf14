"""Integer-arithmetic kernels behind the truncated alternating-sum oracles.

Each kernel returns sum_{a < p^N} (-1)^a f(a) exactly modulo p^G at every
requested depth N, without visiting the p^N terms.  ``_alternating_newton_sum``
takes f(0), ..., f(D-1) and uses Newton's forward differences (Mahler's
theorem; Robert, *A Course in p-adic Analysis*, GTM 198, ch. 4):

    sum_{b<n} (-1)^b f(b) = sum_{j<D} Delta^j f(0) S_j(n),  S_j(n) = sum_{b<n} (-1)^b C(b,j),

where S_j(n) is the y^j coefficient of (1 - (-1)^n (1+y)^n)/(2+y): an integer
found by halvings, and 2 is a unit for odd p.  As f(b) = sum_{j<=b} Delta^j
f(0) C(b,j), this holds for any f when n <= D, and for every n once Delta^j
f(0) = 0 mod p^G for all j >= D.  In ``_angle_power_sums`` f(b) = (y0 +
b*step)^e with y0 prime to p and v = v_p(step) >= 1.  With t = step/y0,
f(b) = y0^e sum_k C(e,k) t^k b^k, C(e,k) in Z_p for any e in Z_p (negative or
reduced too); Delta^j(b^k)(0) = j! S(k,j) (Stirling) is 0 for k < j, so
v_p(Delta^j f(0)) >= j*v + v_p(j!), and D = the least d with d*v + v_p(d!) >= G
suffices.  The monomials (x+a)^m are polynomials of degree m in a: D = m + 1.

The oracles stay independent of the series path: nothing reads an Euler
number or log/exp, and unit powers are modular ``pow`` of the actual terms.
An angle <x+a> is y0 + b*step times a unit c free of b, and c^e leaves the
sum.  ``hurwitz_sums`` (and the special-value oracle, s = 1 + m) is one
progression x + a = (num + a*den)/den.  ``char_hurwitz_sums`` splits a = r +
p*b: on each class chi(x+a) and omega(x+a) are constant and (-1)^a = (-1)^r
(-1)^b.  As t^s = t^(s mod p^K) mod p^(K+1) for t = 1 mod p, s in Z_p, a
non-integer exponent is reduced; Python's pow inverts a negative one.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ArgumentViolation
from .padic import EVALUATION_CAP, PadicNumber, capped_power, teichmuller_table
from .padic import vp_factorial, vp_fraction, vp_int

__all__ = [
    "EVALUATION_CAP",
    "char_hurwitz_sums",
    "hurwitz_sums",
    "monomial_alternating_sums",
    "wrap_mod",
]

_GUARD = 4  # extra digits of the unit-power sums, dropped by wrap_mod


def wrap_mod(p: int, value: int, absprec: int) -> PadicNumber:
    """Package an integer known modulo p**absprec as a PadicNumber."""
    return PadicNumber._normalize(p, 0, value, absprec)


def _snapshots(p: int, depths: tuple[int, ...], shift: int = 0) -> dict[int, int]:
    """{p**(N - shift): N} for each depth N; p**max(N) terms at most."""
    if min(depths) < 1:
        raise ArgumentViolation("oracle depth must be >= 1")
    capped_power(p, max(depths))
    return {p ** (n - shift): n for n in depths}


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


def _alternating_newton_sum(p: int, g_prec: int, values, counts) -> dict[int, int]:
    """sum_{b<n} (-1)^b values[b] mod p**g_prec for each n in counts (module docstring)."""
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


def _angle_power_sums(p: int, g_prec: int, y0: int, step: int, e: int, counts) -> dict[int, int]:
    """sum_{b<n} (-1)^b (y0 + b*step)^e modulo p**g_prec for each n in counts.

    y0 is prime to p and p divides step, so every term is a unit.
    """
    v = vp_int(step, p)
    degree = 0
    while degree * v + vp_factorial(degree, p) < g_prec:
        degree += 1
    mod = p**g_prec
    values = [pow(y0 + b * step, e, mod) for b in range(degree)]
    return _alternating_newton_sum(p, g_prec, values, counts)


def hurwitz_sums(
    p: int, prec: int, x: Fraction, s, depths: tuple[int, ...]
) -> dict[int, PadicNumber]:
    """Partial sums sum_{a<p^N} <x+a>^(1-s) (-1)^a for each N in depths.

    Requires v_p(x) <= -1.  Results carry absolute precision ``prec``.
    """
    x = Fraction(x)
    if vp_fraction(x, p) is None or vp_fraction(x, p) >= 0:
        raise ArgumentViolation("oracle argument must have negative valuation")
    counts = _snapshots(p, depths)
    g_prec = prec + _GUARD
    mod = p**g_prec
    num, den = x.numerator, x.denominator
    b_unit = den // p ** vp_int(den, p)
    # <x+a> = (num + a*den) / (b_unit * omega(num/b_unit))
    omega = teichmuller_table(p, g_prec)[num * pow(b_unit, -1, p) % p]
    exponent = _exponent_one_minus(p, g_prec - 1, s)
    factor = pow(b_unit * omega, -exponent, mod)
    sums = _angle_power_sums(p, g_prec, num, den, exponent, counts)
    return {counts[n]: wrap_mod(p, factor * acc, prec) for n, acc in sums.items()}


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
    counts = _snapshots(p, depths, shift=1)
    g_prec = prec + _GUARD
    mod = p**g_prec
    num, den = x.numerator, x.denominator
    om = teichmuller_table(p, g_prec)
    exponent = _exponent_one_minus(p, g_prec - 1, s)
    acc = dict.fromkeys(counts, 0)
    # class r: a = r + p*b, x + a = (num + r*den + p*den*b)/den, and
    # chi(x+a) (-1)^a = omega(u)^k (-1)^r (-1)^b with u = x + r mod p
    for r in range(p):
        u = (num + r * den) * pow(den, -1, p) % p
        if not u:
            continue
        weight = pow(om[u], k, mod) * pow(den * om[u], -exponent, mod) * (-1) ** r
        sums = _angle_power_sums(p, g_prec, num + r * den, p * den, exponent, counts)
        for n, class_sum in sums.items():
            acc[n] += weight * class_sum
    return {counts[n]: wrap_mod(p, total, prec) for n, total in acc.items()}


def monomial_alternating_sums(
    p: int, prec: int, x: Fraction, m_max: int, depths: tuple[int, ...]
) -> dict[tuple[int, int], PadicNumber]:
    """Partial sums sum_{a<p^N} (x+a)^m (-1)^a for all 0 <= m <= m_max.

    (x+a)^m has degree m in a, so m + 1 values give every depth.  x may be any
    rational with denominator coprime to p; the values are exact mod p**prec.
    """
    x = Fraction(x)
    if x.denominator % p == 0:
        raise ArgumentViolation("monomial oracle needs x in Z_p")
    targets = _snapshots(p, depths)
    mod = p**prec
    a_num, b_den = x.numerator, x.denominator
    b_inv = pow(b_den, -1, mod)
    out: dict[tuple[int, int], PadicNumber] = {}
    for m in range(m_max + 1):
        # (x+a)^m = (a_num + a*b_den)^m / b_den^m
        values = [pow(a_num + a * b_den, m, mod) for a in range(m + 1)]
        scale = pow(b_inv, m, mod)
        for n, total in _alternating_newton_sum(p, prec, values, targets).items():
            out[(m, targets[n])] = wrap_mod(p, total * scale % mod, prec)
    return out
