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
are lifted by Newton's iteration (``_teichmuller_root``).
``PadicContext.teichmuller`` makes one uncached lift per call; the residue
sums of the oracle kernels and of ``zeta_char`` read ``teichmuller_table``,
all of omega mod p**prec from one lift.  Every cache of big integers in the
package is a ``_BitsMemo``, bounded by bits as its values grow with precision.

``PadicContext.log`` and ``exp`` sum their series as one integer residue over
memoised coefficients, with the precision that term-by-term ``PadicNumber``
arithmetic gives.  ``unit_power`` and ``angle_power`` share one integer route
that claims the precision of exp(s log u) and computes u**n for an integer n,
u**low by modular pow and u**(p**m * high) by log and exp on u**(p**m): the
same digits, with shorter series (see the helpers at the end of the module).
"""

from __future__ import annotations

import math
import sys
import threading
from collections import OrderedDict, namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import partial, update_wrapper

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
    return _vp_split(n, p)[0]


def _vp_split(n: int, p: int) -> tuple[int, int]:
    """(v_p(n), n / p**v_p(n)) for a nonzero integer n."""
    if n == 0:
        raise ZeroArgument("valuation of 0 is infinite")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


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


def _inverse_of_p_minus_1(p: int, mod: int) -> int:
    """1/(p-1) modulo mod = p**k, which is -(1 + p + ... + p**(k-1))."""
    return mod - (mod - 1) // (p - 1)


def _teichmuller_root(p: int, prec: int, u: int) -> int:
    """omega(u) mod p**prec for a residue u coprime to p.

    Computed by Newton's iteration for y**(p-1) = 1 from y = u mod p:
    y -> y (p - y**(p-1)) / (p-1) modulo p**k doubles the number of correct
    digits k at each step (k = 1, 2, 4, ..., prec), so a lift costs
    log2(prec) modular powers.  The result is checked to be a fixed point of
    the Frobenius map y -> y**p, which omega is.
    """
    mod = p**prec
    inv = _inverse_of_p_minus_1(p, mod)
    y, k = u % p, 1
    while k < prec:
        k = min(2 * k, prec)
        m = p**k
        y = y * (p - pow(y, p - 1, m)) * inv % m
    if pow(y, p, mod) != y:
        raise PrecisionError("Teichmuller iteration failed to stabilise")
    return y


_MemoInfo = namedtuple("MemoInfo", "hits misses currsize")


class _BitsMemo:
    """fn's values by argument tuple, the least recently used evicted until
    the retained ``sys.getsizeof`` bits (of each value and of everything in
    its tuples) are at most ``max_bits``; a larger value is returned and not
    kept.  A lock guards it for threaded library callers, which
    ``test_memo_accounting_under_threads`` pins (``verify`` runs serially)."""

    def __init__(self, fn, max_bits: int):
        update_wrapper(self, fn)
        self.max_bits = max_bits
        self._lock = threading.Lock()
        self.cache_clear()

    def __call__(self, *key):
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self.hits += 1
                self._entries.move_to_end(key)
                return entry[0]
            self.misses += 1
        value = self.__wrapped__(*key)
        size = _retained_bits(value)
        with self._lock:
            if size <= self.max_bits and key not in self._entries:
                self._entries[key] = (value, size)
                self.bits += size
                while self.bits > self.max_bits:
                    self.bits -= self._entries.popitem(last=False)[1][1]
        return value

    def cache_info(self) -> _MemoInfo:
        return _MemoInfo(self.hits, self.misses, len(self._entries))

    def cache_clear(self) -> None:
        with self._lock:
            self._entries: OrderedDict[tuple, tuple[object, int]] = OrderedDict()
            self.bits = self.hits = self.misses = 0


def _retained_bits(value) -> int:
    inner = sum(map(_retained_bits, value)) if isinstance(value, tuple) else 0
    return 8 * sys.getsizeof(value) + inner


# 4 MiB: keeps p = 10007 at 28 digits (7 Mbit), not at 300 (45 Mbit), where a
# call sums about p series, which cost more than the table
_TABLE_BITS = 1 << 25


@partial(_BitsMemo, max_bits=_TABLE_BITS)
def teichmuller_table(p: int, prec: int) -> tuple[int, ...]:
    """omega(u) mod p**prec for u = 0..p-1 (entry 0 is unused and set to 0).

    omega is multiplicative, so with g the least primitive root of p the
    entry at the digit g**i mod p is omega(g)**i: one Newton lift and p-2
    products.
    """
    # g is the first candidate whose powers take p-1 steps to return to 1;
    # for a composite p the walk might never return, so p is checked first
    if not is_odd_prime(p):
        raise ArgumentViolation(f"p must be an odd prime, got {p}")
    g, powers = 1, []
    while len(powers) != p - 1:
        g += 1
        powers, d = [1], g
        while d != 1:
            powers.append(d)
            d = d * g % p
    omega_g, mod = _teichmuller_root(p, prec, g), p**prec
    table, w = [0] * p, 1
    for d in powers:
        table[d] = w
        w = w * omega_g % mod
    return tuple(table)


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
        return cls(p, *_normal_form(p, base_val, mantissa, absprec))

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


def _normal_form(p: int, base_val: int, mantissa: int, absprec: int) -> tuple[int, int, int]:
    """The (valuation, unit, relprec) triple of p**base_val * mantissa known
    modulo p**absprec; (absprec, 0, 0) is the bounded zero."""
    width = absprec - base_val
    m = mantissa % p**width if width > 0 else 0
    if m == 0:
        return absprec, 0, 0
    t, m = _vp_split(m, p)
    return base_val + t, m, width - t


def _embed_fraction(p: int, q: int | Fraction, relprec: int) -> PadicNumber:
    if q == 0:
        return PadicNumber.exact_zero(p)
    vn, num_unit = _vp_split(q.numerator, p)
    vd, den_unit = _vp_split(q.denominator, p)
    mod = p**relprec
    if den_unit != 1:
        num_unit *= pow(den_unit, -1, mod)
    return PadicNumber(p, vn - vd, num_unit % mod, relprec)


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


def _check_sum_length(n: int) -> None:
    """Refuse a sum of n > ``EVALUATION_CAP`` terms with ``EvaluationCapExceeded``."""
    if n > EVALUATION_CAP:
        # n itself may be too large to print
        raise EvaluationCapExceeded(f"the sum has more than {EVALUATION_CAP} terms")


def _residue_sum(p: int, terms: list[tuple[int, int]], absprec: int | None) -> PadicNumber:
    """sum unit * p**val over the (val, unit) pairs, modulo p**absprec.

    ``absprec`` is the least absolute precision of the summands, bounded
    zeros included, and None when every summand is the exact zero.  The sum
    is reduced once and normalised once; a sum of ``PadicNumber`` objects
    gives this canonical form whatever the grouping, because every partial
    sum is known modulo at least p**absprec.
    """
    if absprec is None:
        return PadicNumber.exact_zero(p)
    if not terms:
        return PadicNumber.bounded_zero(p, absprec)
    base = min(v for v, _ in terms)
    total = sum(u * p ** (v - base) for v, u in terms)
    return PadicNumber._normalize(p, base, total, absprec)


def alternating_sum(ctx: PadicContext, n: int, term) -> PadicNumber:
    """sum_{a<n} (-1)^a term(a), the exact zero when every term is one.

    n > EVALUATION_CAP is refused with ``EvaluationCapExceeded`` before any
    term is evaluated; exact-zero terms are skipped.  The result is the
    canonical form of the sum modulo p**(least absolute precision of the
    terms) (``_residue_sum``), so it does not depend on how the terms are
    grouped.
    """
    _check_sum_length(n)
    terms, absprec = [], None
    for a in range(n):
        t = term(a)
        if t.is_exact_zero:
            continue
        if t.relprec:
            terms.append((t.valuation, -t.unit if a & 1 else t.unit))
        if absprec is None or t.absprec < absprec:
            absprec = t.absprec
    return _residue_sum(ctx.p, terms, absprec)


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


# short digit strings, every one at the default precision, take the divmod loop unsplit
_DIGIT_BLOCK = 64


def _digits_of(x: PadicNumber) -> list[int]:
    return _base_p_digits(x.unit, x.p, x.relprec)


def _base_p_digits(n: int, p: int, count: int) -> list[int]:
    """The lowest ``count`` base-p digits of n >= 0, least significant first.

    Above ``_DIGIT_BLOCK`` digits n is split as high * p**h + low, h half the
    count, and each half converted on its own: about two divisions of the
    whole number in all, where one divmod by p per digit is quadratic in the
    count.
    """
    if count <= _DIGIT_BLOCK:
        digits = []
        for _ in range(count):
            n, d = divmod(n, p)
            digits.append(d)
        return digits
    h = count // 2
    high, low = divmod(n, p**h)
    return _base_p_digits(low, p, h) + _base_p_digits(high, p, count - h)


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
        # an int has .numerator and .denominator, so it is embedded as it is
        if not isinstance(q, int):
            q = Fraction(q)
        r = self.internal_prec if relprec is None else relprec
        if q != 0 and r < 1:
            raise ValueError("relprec must be >= 1")
        return _embed_fraction(self.p, q, r)

    def from_int(self, n: int, relprec: int | None = None) -> PadicNumber:
        return self.from_fraction(n, relprec)

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
            # the series and powers of the value build p**|val|: bounded as the modulus is
            if abs(val) * math.log2(self.p) > MAX_MODULUS_BITS:
                raise ParseError(
                    f"digit literal valuation {val}: p**{abs(val)} has more than"
                    f" {MAX_MODULUS_BITS} bits"
                )
            mantissa = sum(d * self.p**i for i, d in enumerate(digits))
            return PadicNumber._normalize(self.p, val, mantissa, val + len(digits))
        return self.coerce(text)

    # ---- Teichmuller machinery ----

    def teichmuller(self, x) -> PadicNumber:
        """The (p-1)-th root of unity congruent to the unit x modulo p."""
        x = self.coerce(x)
        if x.is_zero() or x.valuation != 0:
            raise NotAUnit("Teichmuller character needs a p-adic unit")
        w = _teichmuller_root(self.p, self.internal_prec, x.unit)
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
        _check_log_domain(u)
        return PadicNumber(self.p, *_log_residue(self.p, u.unit, u.relprec))

    def exp(self, z) -> PadicNumber:
        """exp on pZ_p via the power series with factorial-valuation bookkeeping."""
        z = self.coerce(z)
        if z.is_exact_zero:
            return self.one()
        unit = _exp_residue(self.p, z.valuation, z.unit, z.relprec)
        return PadicNumber(self.p, 0, unit, z.absprec)

    # ---- <x>^s and generalised binomials ----

    def _exponent(self, s) -> PadicNumber:
        s = self.coerce(s)
        if not s.is_zero() and s.valuation < 0:
            raise ExponentOutsideDomain("exponent must lie in Z_p")
        return s

    def unit_power(self, u, s) -> PadicNumber:
        """u**s = exp(s log u) for u congruent to 1 mod p and s in Z_p."""
        u = self.coerce(u)
        s = self._exponent(s)
        if s.is_exact_zero:
            return self.one()
        _check_log_domain(u)
        value, rel = _power_residue(self.p, u.unit, u.relprec, s.valuation, s.unit, s.relprec)
        return PadicNumber(self.p, 0, value, rel)

    def angle_power(self, x, s) -> PadicNumber:
        """<x>**s for nonzero x and s in Z_p.

        For the unit part u of x, <x>**(p-1) = u**(p-1) because
        omega(u)**(p-1) = 1, so <x>**s = (u**(p-1))**(s/(p-1)): the same value
        and precision as unit_power(angle(x), s), with no Teichmuller value.
        """
        x = self.coerce(x)
        if x.is_zero():
            raise ZeroArgument("<x> is undefined at values indistinguishable from 0")
        s = self._exponent(s)
        if s.is_exact_zero:
            return self.one()
        power = _angle_power_residue(
            self.p, self.internal_prec, x.unit, x.relprec, s.valuation, s.unit, s.relprec
        )
        return PadicNumber(self.p, 0, *power)

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
# ``_log_residue`` and ``_exp_residue`` are the integer halves of
# ``PadicContext.log`` and ``exp``.  ``_power_residue`` (``unit_power``,
# ``angle_power``) claims the precision p**T of exp(s log u) under the product
# rule; as u**(p**j) = 1 mod p**(k + j), k = v_p(u - 1), u**s mod p**T is u**n
# for the integer n = s mod p**(T - k), whatever the route.  It splits
# n = low + p**m * high (argument reduction, Brent 1976): u**low and
# b = u**(p**m) by modular pow, b**high = exp(high log b) by series of about
# T/(k + m) terms instead of T/k.  A digit of m costs about 2 log2(p)
# products, so m = isqrt(T / bit_length(p)) - k, or 0 (p = 1009, 24 digits).
#
# For z = p**k * zu known modulo p**target (k >= 1), term n of either series
# is c_n * zu**n with c_n = p**e_n / m_n for a p-adic unit m_n and e_n >= k,
# so every term is known modulo p**target: changing zu by a multiple of
# p**(target-k) moves it by a multiple of p**target.  A capped sum's residue
# modulo its smallest absolute precision does not depend on the order of
# addition, so sum_n c_n zu**n reduced once modulo p**target is the value
# term-by-term PadicNumber arithmetic gives.  The coefficients depend on
# (p, k, target) only and are memoised, up to 4 MiB for each series (7 Mbit
# of log and 15 of exp at p = 3, k = 1, 2000 digits); the term counts follow
# the stopping rules of the object-arithmetic loops.
_SERIES_BITS = 1 << 25


@partial(_BitsMemo, max_bits=_SERIES_BITS)
def _log_coefficients(p: int, k: int, target: int) -> tuple[int, ...]:
    """(-1)**(n+1) p**(n*k) / n modulo p**target for n = 1..N."""
    mod = p**target
    out = []
    n = 1
    while True:
        t, n_unit = _vp_split(n, p)
        e = n * k - t
        c = 0
        if e < target:
            c = pow(n_unit, -1, p ** (target - e)) * p**e
        out.append(c if n % 2 == 1 else (-c) % mod)
        if (n + 1) * k - _ilog(p, n + 1) >= target:
            return tuple(out)
        n += 1


@partial(_BitsMemo, max_bits=_SERIES_BITS)
def _exp_coefficients(p: int, k: int, target: int) -> tuple[int, ...]:
    """p**(n*k) / n! modulo p**target for n = 1..N."""
    mod = p**target
    out = []
    val, inv_unit = 0, 1  # v_p of p**(n*k)/n!, inverse of the unit part of n!
    n = 1
    while True:
        t, n_unit = _vp_split(n, p)
        val += k - t
        inv_unit = inv_unit * pow(n_unit, -1, mod) % mod
        out.append(inv_unit * p**val % mod if val < target else 0)
        # stop once n*k - (n-1)/(p-1) >= target: a lower bound for the
        # valuation n*k - v_p(n!) of every later term
        if (n + 1) * (k * (p - 1) - 1) + 1 >= target * (p - 1):
            return tuple(out)
        n += 1


def _check_log_domain(u: PadicNumber) -> None:
    if u.is_zero() or u.valuation != 0 or u.unit % u.p != 1:
        raise OutsideLogDomain("log needs an argument congruent to 1 mod p")


def _log_residue(p: int, unit: int, target: int) -> tuple[int, int, int]:
    """log of a residue unit = 1 mod p known modulo p**target, as the
    (valuation, unit, relprec) triple of its value; (target, 0, 0) is the
    bounded zero O(p**target)."""
    mod = p**target
    m = (unit - 1) % mod
    if not m:
        return target, 0, 0
    k, zu = _vp_split(m, p)
    series = _horner(_log_coefficients(p, k, target), zu, mod)
    # v_p(log(1 + z)) = v_p(z) for v_p(z) >= 1 and odd p: the n = 1 term
    # p**k * zu has the least valuation
    return k, series // p**k, target - k


def _exp_residue(p: int, val: int, unit: int, rel: int) -> int:
    """exp(p**val * unit) as a residue modulo p**(val + rel), the precision of
    the argument; rel = 0 is the bounded zero O(p**val)."""
    if val < 1:
        raise OutsideExpDomain("exp needs valuation >= 1")
    if not rel:
        return 1
    # every term has valuation >= 1, so 1 + series is a unit below p**target
    target = val + rel
    return 1 + _horner(_exp_coefficients(p, val, target), unit, p**target)


def _power_residue(p: int, unit: int, rel: int, sv: int, su: int, sr: int) -> tuple[int, int]:
    """unit**s as (residue, relprec) for a residue unit = 1 mod p known modulo
    p**rel and s = p**sv * su known to relprec sr (0 for the bounded zero
    O(p**sv)), s not the exact zero.  With k = v_p(unit - 1), or k = rel
    where the log is a bounded zero, the relprec is sv + k + min(sr, rel - k),
    or sv + k (the value 1) where s or the log is a bounded zero."""
    z = (unit - 1) % p**rel
    k = _vp_split(z, p)[0] if z else rel
    if not sr or k == rel:
        # exp of a bounded zero: 1, or OutsideExpDomain below valuation 1
        return _exp_residue(p, sv + k, 0, 0), sv + k
    target = sv + k + min(sr, rel - k)
    mod = p**target
    # unit**n for n = s mod p**(target - k) = low + p**m * high (see above)
    m = max(math.isqrt(target // p.bit_length()) - k, 0)
    high, low = divmod(su * p**sv % p ** (target - k), p**m)
    value = pow(unit, low, mod)
    if high:
        # b**high = exp(high log b) for b = unit**(p**m), which is 1 modulo
        # exactly p**(k + m); high < p**(target - k - m), the relprec of log b
        lv, lu, lr = _log_residue(p, pow(unit, p**m, mod), target)
        hv, hu = _vp_split(high, p)
        value = value * _exp_residue(p, lv + hv, hu * lu % p ** (lr - hv), lr - hv) % mod
    return value, target


def _angle_power_residue(p: int, prec: int, xu: int, xr: int, sv: int, su: int, sr: int) -> tuple:
    """``PadicContext.angle_power`` as (residue, relprec), for the unit part
    xu of x known to relprec xr and s = p**sv * su, not the exact zero."""
    rel = min(xr, prec)
    if sr:
        mod = p**sr
        su = su * _inverse_of_p_minus_1(p, mod) % mod
    return _power_residue(p, pow(xu, p - 1, p**rel), rel, sv, su, sr)


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
