"""The Frobenius iteration for the Teichmuller lift.

``padic._teichmuller_root`` lifts by Newton's iteration; this is the earlier
route, one digit per step, kept so that ``test_integer_paths.py`` can check
that both give the same residues.
"""

from __future__ import annotations

from padiczeta.errors import PrecisionError


def teichmuller_root(p: int, prec: int, u: int) -> int:
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
