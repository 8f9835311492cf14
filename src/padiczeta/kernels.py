"""Integer-arithmetic kernels behind the truncated alternating-sum oracles.

Kim's fermionic integral of f over Z_p is the limit of the truncated sums
sum_{a<p^N} (-1)^a f(a).  Each kernel returns such a sum without visiting
its p^N terms.  ``_alternating_newton_sum`` takes f(0), ..., f(D-1) and uses
Newton's forward differences (Mahler's theorem; Robert, *A Course in p-adic
Analysis*, GTM 198, ch. 4):

    sum_{b<n} (-1)^b f(b) = sum_{j<D} Delta^j f(0) S_j(n),  S_j(n) = sum_{b<n} (-1)^b C(b,j),

where S_j(n) is the y^j coefficient of (1 - (-1)^n (1+y)^n)/(2+y): an integer
found by halvings, and 2 is a unit for odd p.  As f(b) = sum_{j<=b} Delta^j
f(0) C(b,j), this holds for any f when n <= D, and for every n once Delta^j
f(0) = 0 mod p^G for all j >= D.  As Delta^j f(0) = sum_{b<=j} (-1)^(j-b)
C(j,b) f(b), the sum is linear in the values:

    sum_{b<n} (-1)^b f(b) = sum_{b<D} W[b] f(b),  W[b] = sum_{j=b}^{D-1} (-1)^(j-b) C(j,b) S_j(n),

for any values, with the same residue mod p^G.  The weights depend on (p, G,
D, n) only (``_newton_weights`` builds them in O(D) steps and keeps them in a
``padic._BitsMemo``, vectors of D integers of G digits, D about 800 at p = 3,
G = 1204), so each depth costs one dot product of D integers.

The decay.  If f(b) = sum_k c_k b^k with v_p(c_k) >= k*v, then, as
Delta^j(b^k)(0) = j! S(k,j) (Stirling) is 0 for k < j, v_p(Delta^j f(0)) >=
j*v + v_p(j!), and D = the least d >= 1 with d*v + v_p(d!) >= G suffices
(``_progression_degree``, computed once per (p, v, G)).  A polynomial of
degree d has Delta^j f = 0 for j > d: D = d + 1 at any G.

Integer progressions.  In ``_angle_power_sums`` f(b) = (y0 + b*step)^e with
y0 prime to p and v = v_p(step) >= 1.  With t = step/y0, f(b) = y0^e sum_k
C(e,k) t^k b^k, C(e,k) in Z_p for any e in Z_p (negative or reduced too), so
v_p(c_k) >= k*v.  The monomials (x+a)^m are polynomials of degree m in a:
D = m + 1.  These oracles stay independent of the series path: nothing reads
an Euler number, log/exp or the binomial tables of the series prefactor, and
unit powers are modular ``pow`` of the actual terms.  An angle <x+a> is
y0 + b*step times a unit c free of b, and c^e leaves the sum.
``hurwitz_sums`` (and the special-value oracle, s = 1 +
m) is one progression x + a = (num + a*den)/den.  ``char_hurwitz_sums``
splits a = r + p*b: on each class chi(x+a) and omega(x+a) are constant and
(-1)^a = (-1)^r (-1)^b.  As t^c = t^c' mod p^(K+1) for t = 1 mod p if c = c'
mod p^K, the exponent 1 - s is its residue of least absolute value mod p^K,
K the lesser of the digits and the precision of s: 1 - s for an integer s.
So the sums are known modulo p^(K+1) only, and claim no more digits.

Value functions.  ``_class_newton_sum(p, n, term, P, D)`` sums the
``PadicNumber`` values term(a), a < n = p^N.  With a = r + P*b for r < P and
b < n/P (P = 1, p or p^v, at most n), (-1)^a = (-1)^r (-1)^b, and each class
sum is sum_{b<D} W[b] term(r + P*b) with the weights of (p, G, D, n/P), or
the literal sum of its n/P values when n/P <= D.  Its three callers, with
f(b) = term(r + P*b) on a class:

* ``zeta_czp.integral_of_zeta_oracle``, term(a) = zeta(s, x+a) for a
  rational x with v_p(x) = -e <= -1, P = 1.  As v_p(b/x) >= e, <x+b> =
  <x> (1 + b/x) and

      zeta(s, x+b) = <x>^(1-s) sum_i C(1-s,i) E_i(0) x^(-i) (1 + b/x)^(1-s-i),

  a power series in b/x with Z_p coefficients (C(1-s,i), E_i(0) and x^(-i)
  lie in Z_p, and (1+t)^c = sum_k C(c,k) t^k for c in Z_p).  So v_p(c_k) >=
  k*e: D = ``_progression_degree(p, e, G)``.
* ``zeta_char.raabe_char``, term(a) = zeta(chi, s, x+a) for an integer x, P
  = p.  chi = omega^k for every level v, so chi(y + p b) = chi(y), and on
  the class y = y0 + p b the representation sum reads

      zeta(chi, s, y0 + p b) = sum_{j<p} chi(y0+j) (-1)^j zeta(s, X_j + b)

  with X_j = (y0+j)/p, where the skipped j (p | y0+j) depend on y0 mod p
  only.  v_p(X_j) = -1, so each zeta(s, X_j + b) is the series above in
  b/X_j, of valuation >= 1, and chi(y0+j) is a unit: v_p(c_k) >= k, D =
  ``_progression_degree(p, 1, G)``.
* the right side of ``fermionic.change_of_variable``, term(a) = chi(x+a)
  g((x+a)/p^v) for a polynomial g of degree d and x in Z_p, P = p^v.  On a
  class chi(x+a) is constant and g((x+r)/p^v + b) is a polynomial of degree
  d in b: D = d + 1, exact at any G.

For the first two G is the budget's target, which caps every value, and the
values lie in Z_p.

The result is the literal sum (``padic.alternating_sum``) as a
``PadicNumber``: value, valuation and relative precision.  That sum is the
canonical form of sum_a (-1)^a term(a) modulo p^A, A the least absolute
precision of the terms that are not the exact zero (``padic._residue_sum``),
and each term is its f(a) modulo p^A.  The kernel takes A over the values it
evaluates, base their least valuation, and weights modulo p^(A - base):
then sum_b W[b] term(r + P*b) = sum_b (-1)^b f(b) mod p^A on every class,
as the two differ by the tail sum_{j>=D} Delta^j f(0) S_j(n/P) (in p^A Z_p
by the decay, A <= G) and by the weights' reduction times values of
valuation >= base.  So the two forms agree once A is the least precision of
every term, which holds because every term of a class has the precision of
the ones evaluated:

* zeta(s, x+b): x + b is an exact rational of valuation -e, read at the
  internal precision R, so every term reads ``zeta_czp._zeta_value`` under
  the same (valuation, relprec) key.  The value has valuation 0 (the i = 0
  term is 1, the others lie in p Z_p) and absolute precision min(A_L, r_pow,
  target): A_L, the Laurent sum's, is carried by the coefficient set of
  (e, R), and r_pow, the prefactor's, is min(k + A_s, t + R), with t and
  A_s the valuation and absolute precision of 1-s and k = v_p(u^(p-1) - 1)
  for u the unit part of x + b.  As u = u_0 mod p^e, either k is the same
  at every b, or k >= e at every b; then k + A_s >= e + A_s >= A_L, as the
  i = 1 term -(1-s)/(2x) is known only modulo p^(e + A_s) (a one-term
  series needs target + guard <= e, and then k + A_s >= target).
* zeta(chi, s, x+i): x + i is an integer, read at relprec R, so every
  series of every representation sum reads the key (-1, ., R), whose
  absolute precision is the same for every unit (the case k >= e = 1 above).
  So every product with chi(x+i+j), a unit of relprec R, has one absolute
  precision, and so has their sum, capped at the target.
* chi(x+a) g((x+a)/p^v): the term is the exact zero where p | x+a, so every
  other term has v_p(x+a) = 0 and y = (x+a)/p^v has valuation -v and relprec
  rho = min(A_x, R), A_x the absolute precision of x.  Write A(z) and v(z)
  for the absolute precision and valuation of a ``PadicNumber`` and m(z) =
  min(A(z), v(z) + rho) (m = A for a bounded zero).  ``PadicNumber``'s
  rules give A(zy) = m(zy) = m(z) - v, and, for a coefficient c (relprec R
  >= rho), A(z + c) = min(A(z), v(c) + R) and m(z + c) = min(m(z), v(c) +
  rho), whether or not the sum cancels (a zero c changes neither).  So
  Horner's rule, from the leading coefficient down, gives g(y) an absolute
  precision that no value enters, and chi(x+a), a unit of relprec R >=
  relprec(g(y)), keeps it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import mul

from .errors import ArgumentViolation
from .padic import EVALUATION_CAP, PadicNumber, capped_power, teichmuller_table
from .padic import _BitsMemo, _check_sum_length, _residue_sum, _vp_split
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


def _oracle_length(p: int, depth: int) -> int:
    """p**N, the length of a depth-N oracle sum, refused for N < 1 and above
    ``EVALUATION_CAP``."""
    if depth < 1:
        raise ArgumentViolation("oracle depth must be >= 1")
    return capped_power(p, depth)


def _snapshots(p: int, depths: tuple[int, ...], shift: int = 0) -> dict[int, int]:
    """{p**(N - shift): N} for each depth N; p**max(N) terms at most."""
    _oracle_length(p, min(depths))
    _oracle_length(p, max(depths))
    return {p ** (n - shift): n for n in depths}


def _exponent_one_minus(p: int, modexp: int, s: PadicNumber) -> int:
    """The e of least absolute value with e = 1 - s mod p^K, K = min(modexp,
    absolute precision of s): t^e = t^(1-s) mod p^(K+1) for all t = 1 mod p,
    and an integer s gives e = 1 - s."""
    if not isinstance(s, PadicNumber) or (not s.is_zero() and s.valuation < 0):
        raise ArgumentViolation("exponent s must be a PadicNumber in Z_p")
    digits = min(modexp, s._absprec_inf())
    mod = p ** max(digits, 0)
    e = (1 - s.integer_rep(digits)) % mod
    return e - mod if 2 * e > mod else e


def _known_digits(prec: int, s: PadicNumber) -> int:
    """The digits of a sum of t^(1-s), t = 1 mod p: min(prec, K + 1) for K
    the absolute precision of s (``_exponent_one_minus``)."""
    return min(prec, s._absprec_inf() + 1)


@_BitsMemo
def _newton_weights(p: int, g_prec: int, degree: int, n: int) -> tuple[int, ...]:
    """W[b] = sum_{j=b}^{D-1} (-1)^(j-b) C(j,b) S_j(n) mod p**g_prec for b < D = degree.

    W(z) = sum_b W[b] z^b is T(z-1) for T(y) = sum_{j<D} S_j(n) y^j, the part
    below y^D of F(y) = sum_{a<n} (-1)^a (1+y)^a.  For n <= D, T = F and
    W[b] = (-1)^b for b < n.  Otherwise (2+y) T(y) = R(y) + S_{D-1}(n) y^D,
    R the part below y^D of 1 - (-1)^n (1+y)^n, so (1+z) W(z) = R(z-1) +
    S_{D-1}(n) (z-1)^D, whose z^b coefficient is, as sum_{i<=k} (-1)^i C(m,i)
    = (-1)^k C(m-1,k),

        Q[b] = [b = 0] + (-1)^(D-b) ((-1)^n C(n,b) C(n-b-1, D-1-b) + C(D,b) S_{D-1}(n)),

    and W[b] = Q[b] - W[b-1].
    """
    if n <= degree:
        return tuple((-1) ** b if b < n else 0 for b in range(degree))
    mod = p**g_prec
    half = (mod + 1) // 2  # 1/2 modulo the odd p**g_prec
    sign = (-1) ** n
    top, binom = 0, 1  # S_j(n) by 2 S_j + S_{j-1} = [j = 0] - (-1)^n C(n,j); binom = C(n,j)
    for j in range(degree):
        top = ((j == 0) - sign * binom - top) * half % mod
        binom = binom * (n - j) // (j + 1)
    weights, w = [], 0
    tail, edge = math.comb(n - 1, degree - 1), 1  # C(n,b) C(n-b-1, D-1-b), C(D,b)
    for b in range(degree):
        q = (b == 0) + (-1) ** (degree - b) * (sign * tail + edge * top)
        w = (q - w) % mod
        weights.append(w)
        tail = tail * (n - b) * (degree - 1 - b) // ((b + 1) * (n - b - 1))
        edge = edge * (degree - b) // (b + 1)
    return tuple(weights)


def _alternating_newton_sum(p: int, g_prec: int, values, counts) -> dict[int, int]:
    """sum_{b<n} (-1)^b values[b] mod p**g_prec for each n in counts (module docstring)."""
    mod = p**g_prec
    degree = len(values)
    out: dict[int, int] = {}
    for n in counts:
        out[n] = sum(map(mul, values, _newton_weights(p, g_prec, degree, n))) % mod
    return out


@lru_cache(maxsize=256)  # one small int per entry: a count bound is a bits bound
def _progression_degree(p: int, v: int, g_prec: int) -> int:
    """The least D >= 1 with D*v + v_p(D!) >= g_prec (module docstring)."""
    degree = 1
    while degree * v + vp_factorial(degree, p) < g_prec:
        degree += 1
    return degree


def _class_newton_sum(p: int, n: int, term, period: int, degree: int) -> PadicNumber:
    """sum_{a<n} (-1)^a term(a) from at most period * degree values (module docstring).

    n and period are powers of p and term(a) is a ``PadicNumber``; on each
    class a = r + period*b, ``degree`` values must give the class sum, and a
    class of n/period <= degree terms is summed whole.  The result is
    ``padic.alternating_sum`` of the n terms; n > EVALUATION_CAP is refused
    before any term is evaluated.
    """
    _check_sum_length(n)
    period = min(period, n)
    length = n // period
    classes = [[term(r + period * b) for b in range(min(length, degree))] for r in range(period)]
    evaluated = [t for values in classes for t in values if not t.is_exact_zero]
    absprec = min((t.absprec for t in evaluated), default=None)
    base = min((t.valuation for t in evaluated if t.relprec), default=None)
    terms = []
    if base is not None and base < absprec:  # else every value is 0 mod p**absprec
        g_prec = absprec - base
        mod = p**g_prec
        for r, values in enumerate(classes):
            ints = [t.unit * p ** (t.valuation - base) % mod if t.relprec else 0 for t in values]
            if length > degree:
                total = _alternating_newton_sum(p, g_prec, ints, (length,))[length]
            else:
                total = sum(ints[0::2]) - sum(ints[1::2])
            terms.append((base, -total if r & 1 else total))
    return _residue_sum(p, terms, absprec)


def _angle_power_sums(p: int, g_prec: int, y0: int, step: int, e: int, counts) -> dict[int, int]:
    """sum_{b<n} (-1)^b (y0 + b*step)^e modulo p**g_prec for each n in counts.

    y0 is prime to p and p divides step, so every term is a unit.
    """
    mod = p**g_prec
    degree = _progression_degree(p, vp_int(step, p), g_prec)
    values = [pow(y0 + b * step, e, mod) for b in range(degree)]
    return _alternating_newton_sum(p, g_prec, values, counts)


def hurwitz_sums(
    p: int, prec: int, x: Fraction, s: PadicNumber, depths: tuple[int, ...]
) -> dict[int, PadicNumber]:
    """Partial sums sum_{a<p^N} <x+a>^(1-s) (-1)^a for each N in depths.

    Requires v_p(x) <= -1.  Results carry absolute precision ``prec``, or
    K + 1 for s known modulo p^K with K < prec.
    """
    x = Fraction(x)
    if vp_fraction(x, p) is None or vp_fraction(x, p) >= 0:
        raise ArgumentViolation("oracle argument must have negative valuation")
    counts = _snapshots(p, depths)
    g_prec = prec + _GUARD
    mod = p**g_prec
    num, den = x.numerator, x.denominator
    _, b_unit = _vp_split(den, p)
    # <x+a> = (num + a*den) / (b_unit * omega(num/b_unit))
    omega = teichmuller_table(p, g_prec)[num * pow(b_unit, -1, p) % p]
    exponent = _exponent_one_minus(p, g_prec - 1, s)
    factor = pow(b_unit * omega, -exponent, mod)
    sums = _angle_power_sums(p, g_prec, num, den, exponent, counts)
    known = _known_digits(prec, s)
    return {counts[n]: wrap_mod(p, factor * acc, known) for n, acc in sums.items()}


def char_hurwitz_sums(
    p: int, prec: int, k: int, x: Fraction, s: PadicNumber, depths: tuple[int, ...]
) -> dict[int, PadicNumber]:
    """Partial sums sum_{a<p^N} chi(x+a) <x+a>^(1-s) (-1)^a, chi = omega^k.

    chi vanishes on multiples of p; x must lie in Z_p (denominator coprime
    to p).  Results carry absolute precision ``prec``, or K + 1 for s known
    modulo p^K with K < prec.
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
    known = _known_digits(prec, s)
    return {counts[n]: wrap_mod(p, total, known) for n, total in acc.items()}


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
