"""Finite-precision arithmetic in Q_p with conservative precision tracking.

A nonzero element is stored in capped-relative form ``p**valuation * unit``
with the unit kept modulo ``p**relprec``.  Three kinds of value exist:

* regular numbers: ``relprec >= 1`` and ``unit`` a p-coprime residue in
  ``[1, p**relprec)``;
* bounded zeros ``O(p^A)``: indistinguishable from 0 modulo ``p^A``
  (``relprec == 0``, the bound ``A`` is kept in ``valuation``);
* the exact zero, a genuine zero rather than an approximation.

Arithmetic never claims a digit that is not implied by the operands'
claimed digits: multiplicative operations keep the minimum relative
precision, additive operations the minimum absolute precision.  When a sum
cancels below its guaranteed absolute precision the result degrades to a
bounded zero instead of pretending to vanish exactly.

All values are immutable; every operation is a pure function of its inputs,
so the module is safe for unsynchronised concurrent use.  Teichmuller values
are memoised behind bounded ``functools.lru_cache`` caches: single residues
(used by ``PadicContext.teichmuller``) and whole residue tables (used by the
oracle kernels).

``PadicContext.log`` and ``exp`` sum their series as one integer residue over
cached coefficients (see the helpers at the end of the module), with the
precision that term-by-term ``PadicNumber`` arithmetic gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import (
    ArgumentViolation,
    DivisionByZero,
    EvaluationCapExceeded,
    ExponentOutsideDomain,
    NotAUnit,
    OutsideExpDomain,
    OutsideLogDomain,
    ParseError,
    PrecisionError,
    ZeroArgument,
)

__all__ = [
    "EVALUATION_CAP",
    "MAX_MODULUS_BITS",
    "PadicContext",
    "PadicNumber",
    "agreement_depth",
    "alternating_sum",
    "capped_power",
    "from_json_dict",
    "is_odd_prime",
    "parse_rational",
    "render",
    "to_json_dict",
    "vp_fraction",
    "vp_int",
]

EVALUATION_CAP = 10**6
# the largest modulus p**internal_prec a PadicContext accepts, in bits
# (128 KiB integers: about 661,000 digits at p = 3, 78,900 at p = 10007)
MAX_MODULUS_BITS = 2**20


def is_odd_prime(n: int) -> bool:
    if n < 3 or n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def vp_int(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    if n == 0:
        raise ZeroArgument("valuation of 0 is infinite")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def vp_fraction(q: Fraction, p: int) -> int | None:
    """p-adic valuation of a rational, or None for 0."""
    if q == 0:
        return None
    return vp_int(q.numerator, p) - vp_int(q.denominator, p)


def vp_factorial(n: int, p: int) -> int:
    """v_p(n!) via the digit-sum formula (n - s_p(n)) / (p - 1)."""
    s, m = 0, n
    while m:
        s += m % p
        m //= p
    return (n - s) // (p - 1)


def parse_rational(text: str) -> Fraction:
    """Parse 'a/b' or 'a' in decimal."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"not a rational literal: {text!r}") from exc


def _teichmuller_root(p: int, prec: int, u: int) -> int:
    """omega(u) mod p**prec for a residue u coprime to p.

    Computed by the Frobenius iteration y -> y**p, which gains one digit per
    step; the iteration is capped and checked for a fixed point.
    """
    mod = p**prec
    y = u % mod
    for _ in range(prec + 2):
        y_next = pow(y, p, mod)
        if y_next == y:
            break
        y = y_next
    if pow(y, p, mod) != y:
        raise PrecisionError("Teichmuller iteration failed to stabilise")
    return y


@lru_cache(maxsize=4096)
def _teichmuller_digit(p: int, prec: int, u: int) -> int:
    return _teichmuller_root(p, prec, u)


@lru_cache(maxsize=64)
def teichmuller_table(p: int, prec: int) -> tuple[int, ...]:
    """omega(u) mod p**prec for u = 0..p-1 (entry 0 is unused and set to 0)."""
    return (0,) + tuple(_teichmuller_root(p, prec, u) for u in range(1, p))


class PadicNumber:
    """Immutable element of Q_p at tracked finite precision."""

    __slots__ = ("p", "valuation", "unit", "relprec")

    def __init__(self, p: int, valuation: int | None, unit: int, relprec: int | None):
        self.p = p
        self.valuation = valuation
        self.unit = unit
        self.relprec = relprec

    # ---- constructors -------------------------------------------------

    @staticmethod
    def exact_zero(p: int) -> "PadicNumber":
        return PadicNumber(p, None, 0, None)

    @staticmethod
    def bounded_zero(p: int, absprec: int) -> "PadicNumber":
        """A value known only to be congruent to 0 modulo p**absprec."""
        return PadicNumber(p, absprec, 0, 0)

    @classmethod
    def _normalize(cls, p: int, base_val: int, mantissa: int, absprec: int) -> "PadicNumber":
        """The value p**base_val * mantissa known modulo p**absprec."""
        width = absprec - base_val
        if width <= 0:
            return cls.bounded_zero(p, absprec)
        m = mantissa % p**width
        if m == 0:
            return cls.bounded_zero(p, absprec)
        t = vp_int(m, p)
        val = base_val + t
        rel = absprec - val
        unit = (m // p**t) % p**rel
        return cls(p, val, unit, rel)

    # ---- predicates ----------------------------------------------------

    @property
    def is_exact_zero(self) -> bool:
        return self.relprec is None

    @property
    def is_bounded_zero(self) -> bool:
        return self.relprec == 0

    def is_zero(self) -> bool:
        """True when indistinguishable from zero at the claimed precision."""
        return self.relprec is None or self.relprec == 0

    @property
    def absprec(self) -> int | None:
        """Absolute precision: the value is known modulo p**absprec.

        None (conceptually infinite) for the exact zero.
        """
        if self.relprec is None:
            return None
        if self.relprec == 0:
            return self.valuation
        return self.valuation + self.relprec

    def _absprec_inf(self) -> float:
        a = self.absprec
        return math.inf if a is None else a

    # ---- precision handling ---------------------------------------------

    def cap_absprec(self, absprec: int) -> "PadicNumber":
        """Forget digits beyond p**absprec."""
        if self.is_exact_zero:
            return self
        if self.is_bounded_zero:
            return PadicNumber.bounded_zero(self.p, min(self.valuation, absprec))
        if self.absprec <= absprec:
            return self
        rel = absprec - self.valuation
        if rel <= 0:
            return PadicNumber.bounded_zero(self.p, absprec)
        return PadicNumber(self.p, self.valuation, self.unit % self.p**rel, rel)

    def integer_rep(self, digits: int) -> int:
        """Canonical integer representative modulo p**digits (needs val >= 0)."""
        if self.is_zero():
            if not self.is_exact_zero and self.valuation < digits:
                raise PrecisionError("representative requested beyond known precision")
            return 0
        if self.valuation < 0:
            raise ZeroArgument("no integer representative: negative valuation")
        if self.absprec < digits:
            raise PrecisionError("representative requested beyond known precision")
        return (self.unit * self.p**self.valuation) % self.p**digits

    # ---- coercion of int/Fraction partners -------------------------------

    def _embed_like(self, q) -> "PadicNumber":
        # an int has .numerator and .denominator too, so it is not converted
        if not isinstance(q, (int, Fraction)):
            return NotImplemented
        if q == 0:
            return PadicNumber.exact_zero(self.p)
        if self.is_exact_zero:
            raise PrecisionError(
                "cannot infer a precision to embed an exact rational against"
                " an exact zero; embed it via PadicContext first"
            )
        v = vp_fraction(q, self.p)
        if self.is_bounded_zero:
            r = self.valuation - v
        else:
            r = max(self.relprec, self.absprec - v)
        return _embed_fraction(self.p, q, max(r, 1))

    def _binary_partner(self, other):
        if isinstance(other, PadicNumber):
            if other.p != self.p:
                raise ParseError("mixing p-adic numbers with different primes")
            return other
        return self._embed_like(other)

    # ---- arithmetic -------------------------------------------------------

    def __neg__(self) -> "PadicNumber":
        if self.is_zero():
            return self
        mod = self.p**self.relprec
        return PadicNumber(self.p, self.valuation, mod - self.unit, self.relprec)

    def __add__(self, other):
        other = self._binary_partner(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_exact_zero:
            return other
        if other.is_exact_zero:
            return self
        absprec = min(self.absprec, other.absprec)
        if self.is_bounded_zero and other.is_bounded_zero:
            return PadicNumber.bounded_zero(self.p, absprec)
        if self.is_bounded_zero:
            return other.cap_absprec(absprec)
        if other.is_bounded_zero:
            return self.cap_absprec(absprec)
        base = min(self.valuation, other.valuation)
        m = self.unit * self.p ** (self.valuation - base) + other.unit * self.p ** (
            other.valuation - base
        )
        return PadicNumber._normalize(self.p, base, m, absprec)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._binary_partner(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self._binary_partner(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_exact_zero or other.is_exact_zero:
            return PadicNumber.exact_zero(self.p)
        if self.is_bounded_zero or other.is_bounded_zero:
            return PadicNumber.bounded_zero(self.p, self.valuation + other.valuation)
        rel = min(self.relprec, other.relprec)
        unit = (self.unit * other.unit) % self.p**rel
        return PadicNumber(self.p, self.valuation + other.valuation, unit, rel)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._binary_partner(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise DivisionByZero(
                "division by exact zero"
                if other.is_exact_zero
                else "division by a value indistinguishable from zero"
            )
        if self.is_exact_zero:
            return self
        if self.is_bounded_zero:
            return PadicNumber.bounded_zero(self.p, self.valuation - other.valuation)
        rel = min(self.relprec, other.relprec)
        mod = self.p**rel
        unit = (self.unit * pow(other.unit, -1, mod)) % mod
        return PadicNumber(self.p, self.valuation - other.valuation, unit, rel)

    def __rtruediv__(self, other):
        num = self._embed_like(other)
        if num is NotImplemented:
            return NotImplemented
        return num / self

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if self.is_exact_zero:
            if n > 0:
                return self
            raise ZeroArgument("zero cannot be raised to a non-positive power")
        if self.is_bounded_zero:
            if n > 0:
                return PadicNumber.bounded_zero(self.p, self.valuation * n)
            if n == 0:
                return PadicNumber(self.p, 0, 1, max(self.valuation, 1))
            raise DivisionByZero("inverting a value indistinguishable from zero")
        if n == 0:
            return PadicNumber(self.p, 0, 1, self.relprec)
        mod = self.p**self.relprec
        return PadicNumber(self.p, self.valuation * n, pow(self.unit, n, mod), self.relprec)

    # ---- comparison ---------------------------------------------------------

    def __eq__(self, other):
        try:
            partner = self._binary_partner(other)
        except (ParseError, PrecisionError):
            return NotImplemented
        if partner is NotImplemented:
            return NotImplemented
        return (self - partner).is_zero()

    __hash__ = None

    def __repr__(self):
        return f"PadicNumber({render(self)})"


def _embed_fraction(p: int, q: Fraction, relprec: int) -> PadicNumber:
    if q == 0:
        return PadicNumber.exact_zero(p)
    vn = vp_int(q.numerator, p)
    vd = vp_int(q.denominator, p)
    mod = p**relprec
    num_unit = q.numerator // p**vn
    den_unit = q.denominator // p**vd
    unit = (num_unit * pow(den_unit, -1, mod)) % mod
    return PadicNumber(p, vn - vd, unit, relprec)


def agreement_depth(a: PadicNumber, b: PadicNumber) -> int | float:
    """Largest k with a == b mod p**k, capped at the shared absolute precision.

    Returns math.inf when the difference is the exact zero.
    """
    d = a - b
    if d.is_exact_zero:
        return math.inf
    return d.valuation


def capped_power(p: int, e: int) -> int:
    """p**e as the length of a sum, refused above ``EVALUATION_CAP``.

    The exponent is compared first (p**e >= 2**e), so a huge e raises
    ``EvaluationCapExceeded`` without building p**e.  A negative e raises
    ``ArgumentViolation``.
    """
    if e < 0:
        raise ArgumentViolation(f"the exponent of a sum length must be >= 0, got {e}")
    if e >= EVALUATION_CAP.bit_length() or p**e > EVALUATION_CAP:
        # like n in alternating_sum, e may be too large to print
        raise EvaluationCapExceeded(f"the sum has more than {EVALUATION_CAP} terms")
    return p**e


def alternating_sum(ctx: PadicContext, n: int, term) -> PadicNumber:
    """sum_{a<n} (-1)^a term(a), summed left to right from the exact zero.

    n > EVALUATION_CAP is refused with ``EvaluationCapExceeded`` before any
    term is evaluated; exact-zero terms are skipped.  The result is the
    canonical form of the sum modulo p**(least absolute precision of the
    terms), so it does not depend on how the terms are grouped.
    """
    if n > EVALUATION_CAP:
        # n itself may be too large to print
        raise EvaluationCapExceeded(f"the sum has more than {EVALUATION_CAP} terms")
    acc = None
    for a in range(n):
        t = term(a)
        if t.is_exact_zero:
            continue
        if a & 1:
            t = -t
        acc = t if acc is None else acc + t
    return ctx.exact_zero() if acc is None else acc


# ---- canonical renderings ---------------------------------------------------


def render(x: PadicNumber) -> str:
    """Canonical text form ``p^v * (d0 + d1*p + ...)`` with little-endian digits."""
    if x.is_exact_zero:
        return "0"
    if x.is_bounded_zero:
        return f"O({x.p}^{x.valuation})"
    digits = _digits_of(x)
    parts = []
    for i, d in enumerate(digits):
        if i == 0:
            parts.append(str(d))
        elif i == 1:
            parts.append(f"{d}*{x.p}")
        else:
            parts.append(f"{d}*{x.p}^{i}")
    return f"{x.p}^{x.valuation} * ({' + '.join(parts)})"


def _digits_of(x: PadicNumber) -> list[int]:
    digits = []
    u = x.unit
    for _ in range(x.relprec):
        u, d = divmod(u, x.p)
        digits.append(d)
    return digits


def to_json_dict(x: PadicNumber) -> dict:
    if x.is_exact_zero:
        return {"p": x.p, "valuation": None, "digits": [], "relprec": None}
    if x.is_bounded_zero:
        return {"p": x.p, "valuation": x.valuation, "digits": [], "relprec": 0}
    return {
        "p": x.p,
        "valuation": x.valuation,
        "digits": _digits_of(x),
        "relprec": x.relprec,
    }


def from_json_dict(d: dict) -> PadicNumber:
    try:
        p = int(d["p"])
        if d["relprec"] is None:
            return PadicNumber.exact_zero(p)
        relprec = int(d["relprec"])
        valuation = int(d["valuation"])
        if relprec == 0:
            return PadicNumber.bounded_zero(p, valuation)
        digits = [int(t) for t in d["digits"]]
        if len(digits) != relprec or any(not 0 <= t < p for t in digits):
            raise ParseError("digit list inconsistent with relprec")
        mantissa = sum(t * p**i for i, t in enumerate(digits))
        return PadicNumber._normalize(p, valuation, mantissa, valuation + relprec)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed p-adic JSON object: {d!r}") from exc


# ---- evaluation context ------------------------------------------------------


@dataclass(frozen=True)
class PadicContext:
    """Odd prime, target precision, and guard digits carried internally.

    ``workprec`` is the number of guaranteed p-adic digits results aim for;
    ``series_guard`` extra digits are carried through intermediate work to
    absorb precision loss in series tails and factorial divisions.  A modulus
    p**(workprec + series_guard) of more than ``MAX_MODULUS_BITS`` bits is
    refused with ValueError.
    """

    p: int
    workprec: int
    series_guard: int = 8

    def __post_init__(self):
        if not is_odd_prime(self.p):
            raise ValueError(f"p must be an odd prime >= 3, got {self.p}")
        if self.workprec < 1:
            raise ValueError("workprec must be >= 1")
        if self.series_guard < 0:
            raise ValueError("series_guard must be >= 0")
        # internal_prec * log2(p) is the size of p**internal_prec, which is not built
        if self.internal_prec * math.log2(self.p) > MAX_MODULUS_BITS:
            raise ValueError(
                f"p**{self.internal_prec} has more than {MAX_MODULUS_BITS} bits"
            )

    @property
    def internal_prec(self) -> int:
        return self.workprec + self.series_guard

    # ---- element constructors ----

    def exact_zero(self) -> PadicNumber:
        return PadicNumber.exact_zero(self.p)

    def bounded_zero(self, absprec: int) -> PadicNumber:
        return PadicNumber.bounded_zero(self.p, absprec)

    def one(self) -> PadicNumber:
        return PadicNumber(self.p, 0, 1, self.internal_prec)

    def from_fraction(self, q, relprec: int | None = None) -> PadicNumber:
        """Image of a rational in Q_p at relprec digits (default internal)."""
        q = Fraction(q)
        r = self.internal_prec if relprec is None else relprec
        if q != 0 and r < 1:
            raise ValueError("relprec must be >= 1")
        return _embed_fraction(self.p, q, r)

    def from_int(self, n: int, relprec: int | None = None) -> PadicNumber:
        return self.from_fraction(Fraction(n), relprec)

    def coerce(self, value) -> PadicNumber:
        if isinstance(value, PadicNumber):
            if value.p != self.p:
                raise ParseError(
                    f"value has p={value.p}, context has p={self.p}"
                )
            return value
        if isinstance(value, (int, Fraction)):
            return self.from_fraction(value)
        if isinstance(value, str):
            return self.from_fraction(parse_rational(value))
        raise ParseError(f"cannot coerce {value!r} into Q_{self.p}")

    def parse_value(self, text: str) -> PadicNumber:
        """Parse a rational 'a/b' or a digit literal 'v:d0,d1,...'."""
        if ":" in text:
            head, _, tail = text.partition(":")
            try:
                val = int(head)
                digits = [int(t) for t in tail.split(",") if t != ""]
            except ValueError as exc:
                raise ParseError(f"bad digit literal: {text!r}") from exc
            if not digits or any(not 0 <= d < self.p for d in digits):
                raise ParseError(f"bad digit literal: {text!r}")
            mantissa = sum(d * self.p**i for i, d in enumerate(digits))
            return PadicNumber._normalize(self.p, val, mantissa, val + len(digits))
        return self.coerce(text)

    # ---- Teichmuller machinery ----

    def teichmuller(self, x) -> PadicNumber:
        """The (p-1)-th root of unity congruent to the unit x modulo p."""
        x = self.coerce(x)
        if x.is_zero() or x.valuation != 0:
            raise NotAUnit("Teichmuller character needs a p-adic unit")
        w = _teichmuller_digit(self.p, self.internal_prec, x.unit % self.p)
        return PadicNumber(self.p, 0, w, self.internal_prec)

    def angle(self, x) -> PadicNumber:
        """<x> = u/omega(u) for the unit part u of x; always 1 mod p."""
        x = self.coerce(x)
        if x.is_zero():
            raise ZeroArgument("<x> is undefined at values indistinguishable from 0")
        u = PadicNumber(self.p, 0, x.unit, x.relprec)
        return u / self.teichmuller(u)

    def omega_v(self, x) -> PadicNumber:
        """x/<x> = p**v_p(x) * omega(unit part of x)."""
        x = self.coerce(x)
        if x.is_zero():
            raise ZeroArgument("omega_v is undefined at values indistinguishable from 0")
        u = PadicNumber(self.p, 0, x.unit, x.relprec)
        w = self.teichmuller(u)
        return PadicNumber(self.p, x.valuation, w.unit, w.relprec)

    # ---- logarithm / exponential on their convergence domains ----

    def log(self, u) -> PadicNumber:
        """log on 1 + pZ_p via the alternating series sum (-1)^(n+1) (u-1)^n / n."""
        u = self.coerce(u)
        p = self.p
        if u.is_zero() or u.valuation != 0 or u.unit % p != 1:
            raise OutsideLogDomain("log needs an argument congruent to 1 mod p")
        target = u.relprec
        z = PadicNumber._normalize(p, 0, u.unit - 1, target)
        if z.is_zero():
            return z
        series = _horner(_log_coefficients(p, z.valuation, target), z.unit, p**target)
        return PadicNumber._normalize(p, 0, series, target)

    def exp(self, z) -> PadicNumber:
        """exp on pZ_p via the power series with factorial-valuation bookkeeping."""
        z = self.coerce(z)
        if z.is_exact_zero:
            return self.one()
        if z.is_bounded_zero:
            if z.valuation < 1:
                raise OutsideExpDomain("exp needs valuation >= 1")
            return PadicNumber(self.p, 0, 1, z.valuation)
        if z.valuation < 1:
            raise OutsideExpDomain("exp needs valuation >= 1")
        p = self.p
        target = z.absprec
        series = _horner(_exp_coefficients(p, z.valuation, target), z.unit, p**target)
        return PadicNumber._normalize(p, 0, 1 + series, target)

    # ---- <x>^s and generalised binomials ----

    def unit_power(self, u, s) -> PadicNumber:
        """u**s = exp(s log u) for u congruent to 1 mod p and s in Z_p."""
        u = self.coerce(u)
        s = self.coerce(s)
        if not s.is_zero() and s.valuation < 0:
            raise ExponentOutsideDomain("exponent must lie in Z_p")
        if s.is_exact_zero:
            return self.one()
        return self.exp(s * self.log(u))

    def angle_power(self, x, s) -> PadicNumber:
        """<x>**s for nonzero x and s in Z_p."""
        return self.unit_power(self.angle(x), s)

    def binomial(self, s, i: int) -> PadicNumber:
        """Generalised binomial coefficient s(s-1)...(s-i+1)/i!."""
        if i < 0:
            return self.exact_zero()
        if i == 0:
            return self.one()
        s = self.coerce(s)
        acc = s
        for j in range(1, i):
            acc = acc * (s - j)
        return acc / math.factorial(i)


# ---- log/exp series on integer residues ----------------------------------------
#
# For z = p**k * zu known modulo p**target (k >= 1), term n of either series
# is c_n * zu**n with c_n = p**e_n / m_n for a p-adic unit m_n and e_n >= k,
# so every term is known modulo p**target: changing zu by a multiple of
# p**(target-k) moves it by a multiple of p**target.  A capped sum's residue
# modulo its smallest absolute precision does not depend on the order of
# addition, so sum_n c_n zu**n reduced once modulo p**target is the value
# term-by-term PadicNumber arithmetic gives.  The coefficients depend on
# (p, k, target) only and are cached; the term counts follow the stopping
# rules of the object-arithmetic loops.


@lru_cache(maxsize=256)
def _log_coefficients(p: int, k: int, target: int) -> tuple[int, ...]:
    """(-1)**(n+1) p**(n*k) / n modulo p**target for n = 1..N."""
    mod = p**target
    out = []
    n = 1
    while True:
        t = vp_int(n, p)
        e = n * k - t
        c = 0
        if e < target:
            c = pow(n // p**t, -1, p ** (target - e)) * p**e
        out.append(c if n % 2 == 1 else (-c) % mod)
        if (n + 1) * k - _ilog(p, n + 1) >= target:
            return tuple(out)
        n += 1


@lru_cache(maxsize=256)
def _exp_coefficients(p: int, k: int, target: int) -> tuple[int, ...]:
    """p**(n*k) / n! modulo p**target for n = 1..N."""
    mod = p**target
    out = []
    val, inv_unit = 0, 1  # v_p of p**(n*k)/n!, inverse of the unit part of n!
    n = 1
    while True:
        t = vp_int(n, p)
        val += k - t
        inv_unit = inv_unit * pow(n // p**t, -1, mod) % mod
        out.append(inv_unit * p**val % mod if val < target else 0)
        # stop once n*k - (n-1)/(p-1) >= target: a lower bound for the
        # valuation n*k - v_p(n!) of every later term
        if (n + 1) * (k * (p - 1) - 1) + 1 >= target * (p - 1):
            return tuple(out)
        n += 1


def _horner(coeffs: tuple[int, ...], zu: int, mod: int) -> int:
    """sum_{n>=1} coeffs[n-1] * zu**n modulo mod."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc + c) * zu % mod
    return acc


def _ilog(p: int, n: int) -> int:
    """floor(log_p n) for n >= 1."""
    k = 0
    while p ** (k + 1) <= n:
        k += 1
    return k
