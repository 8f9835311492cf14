"""Integer-arithmetic hot loops behind the truncated alternating-sum oracles.

These routines compute partial sums sum_{a < p^N} f(a) (-1)^a exactly modulo
p^G using plain integers, snapshotting at every requested depth N in a single
pass.  They are deliberately independent of the analytic evaluation path
(series + exp/log): unit powers here go through modular exponentiation, so
oracle comparisons cross-check two genuinely different computations.

Every unit-power sum runs through one loop, ``_angle_power_sums``: the sum of
(-1)^b (y0 + b*step)^e modulo p^G over an integer progression with step
divisible by p.  An angle is such an integer times a unit c that does not
depend on b, and (c*y)^e = c^e * y^e for an integer exponent e, so c^e is
taken out of the sum.  In ``hurwitz_sums`` x + a = (num + a*den)/den is one
progression, a = 0, 1, ...  ``char_hurwitz_sums`` splits a = r + p*b by its
residue r < p: on each class chi(x+a) = chi(x+r) and omega(x+a) =
omega(x+r) are constant, (-1)^a = (-1)^r (-1)^b because p is odd, and the
numerators num + r*den + p*den*b form a progression.  The sums are therefore
congruent modulo p^G to those of the per-term angles, and every returned
number is the same.  The loop raises small integers, not residues modulo
p^G, to the power e, so a negative e inverts a small integer.  The monomial
sums (x+a)^m have a loop of their own.

For a unit t = 1 mod p and s in Z_p, t^s is congruent to t^(s mod p^K)
modulo p^(K+1); non-integer exponents are reduced that way.  Exact integer
exponents are used directly (Python's pow handles negative exponents with a
modulus).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ArgumentViolation
from .padic import EVALUATION_CAP, PadicNumber, capped_power, teichmuller_table, vp_fraction, vp_int

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


def _angle_power_sums(
    p: int, g_prec: int, y0: int, step: int, e: int, counts
) -> dict[int, int]:
    """sum_{b<n} (-1)^b (y0 + b*step)^e modulo p**g_prec for each n in counts.

    y0 and step are integers, y0 prime to p and step divisible by p, so every
    term is a unit.  The sums are returned unreduced.
    """
    mod = p**g_prec
    targets = set(counts)
    out: dict[int, int] = {}
    acc = 0
    y = y0
    for b in range(max(targets)):
        term = pow(y, e, mod)
        acc = acc + term if b % 2 == 0 else acc - term
        y += step
        if b + 1 in targets:
            out[b + 1] = acc
    return out


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
