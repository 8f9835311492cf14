"""Tame Dirichlet characters modulo p^v.

Only characters with values in Z_p are supported: on units they are integer
powers omega^k of the Teichmuller character (0 <= k <= p-2), and they vanish
on multiples of p.  A character formally carries a modulus exponent v >= 1.
Its values do not depend on v (it is induced from a character modulo p), so
``zeta_char`` sums over p residues for every v; v still sets the domain
p^v Z_p of the power-series expansion and the length of the literal p^v
sums that some identities check.  Characters whose order is divisible by p
take values outside Q_p and are out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ArgumentOutsideZp, ParseError, PrecisionError
from .padic import PadicContext, PadicNumber, is_odd_prime, teichmuller_table

__all__ = ["DirichletCharacter", "char_eval"]


@dataclass(frozen=True)
class DirichletCharacter:
    p: int
    v: int
    k: int

    def __post_init__(self):
        if not is_odd_prime(self.p):
            raise ValueError(f"p must be an odd prime, got {self.p}")
        if self.v < 1:
            raise ValueError("modulus exponent v must be >= 1")
        if not 0 <= self.k <= self.p - 2:
            raise ValueError(f"Teichmuller exponent must lie in [0, {self.p - 2}]")

    @property
    def modulus(self) -> int:
        return self.p**self.v

    @property
    def is_even(self) -> bool:
        """chi(-1) = (-1)^k, so even means even k."""
        return self.k % 2 == 0

    @property
    def label(self) -> str:
        return f"{self.v}:{self.k}"

    def twist(self, j: int) -> "DirichletCharacter":
        """chi * omega^j (same modulus)."""
        return DirichletCharacter(self.p, self.v, (self.k + j) % (self.p - 1))

    @staticmethod
    def trivial(p: int, v: int = 1) -> "DirichletCharacter":
        return DirichletCharacter(p, v, 0)

    @staticmethod
    def parse(text: str, p: int) -> "DirichletCharacter":
        """Parse a 'v:k' label."""
        head, sep, tail = text.partition(":")
        if not sep:
            raise ParseError(f"character must be given as 'v:k', got {text!r}")
        try:
            v, k = int(head), int(tail)
        except ValueError as exc:
            raise ParseError(f"character must be given as 'v:k', got {text!r}") from exc
        try:
            return DirichletCharacter(p, v, k)
        except ValueError as exc:
            raise ParseError(str(exc)) from exc


def char_eval(ctx: PadicContext, chi: DirichletCharacter, a) -> PadicNumber:
    """chi(a) for a in Z_p: omega(a)^k on units, exact zero on p | a."""
    digit = _unit_digit(ctx, chi, a)
    return ctx.teichmuller(digit) ** chi.k if digit else ctx.exact_zero()


def _char_values(ctx: PadicContext, chi: DirichletCharacter):
    """``char_eval(ctx, chi, .)`` for sums over many arguments: omega(a mod p)
    is read from ``teichmuller_table``, whose entries are the lifts."""
    p, prec = ctx.p, ctx.internal_prec
    mod, omega = p**prec, teichmuller_table(p, prec)

    def value(a) -> PadicNumber:
        d = _unit_digit(ctx, chi, a)
        return PadicNumber(p, 0, pow(omega[d], chi.k, mod), prec) if d else ctx.exact_zero()

    return value


def _unit_digit(ctx: PadicContext, chi: DirichletCharacter, a) -> int:
    """a mod p for a in Z_p, 0 where chi(a) = 0."""
    if chi.p != ctx.p:
        raise ParseError("character prime differs from context prime")
    a = ctx.coerce(a)
    if a.is_exact_zero:
        return 0
    if a.is_bounded_zero:
        if a.valuation >= 1:
            return 0
        raise PrecisionError("cannot evaluate character: unit status unknown")
    if a.valuation < 0:
        raise ArgumentOutsideZp("character arguments must lie in Z_p")
    return 0 if a.valuation >= 1 else a.unit % ctx.p
