"""Seeded input generator for the ``value-grid`` workload.

Pure standard library: it never imports the package under test, so the
program receives only the values generated here.  Each item is a plain
tuple that the worker turns into a call:

* ``("czp", p, s, x)``          -> ``zeta_czp(ctx, s, x)`` with v_p(x) in {-1,-2,-3}
* ``("char", p, s, x, v, k)``   -> ``zeta_char(ctx, omega^k mod p^v, s, x)`` with x in Z_p

For each prime a few s values are shared by many fresh x, so no two items
repeat (s, x, chi) while an s-keyed coefficient cache would still be reused.
Characters are drawn only for p <= 7 (see MIX): the representation sum
costs p^v series evaluations, about 1009 for the smallest character at
p = 1009, which would make one call outweigh the rest of the grid.
"""

from __future__ import annotations

import random
from fractions import Fraction

PRIMES = (3, 5, 7, 1009)
S_PER_PRIME = 3
# items per prime: (zeta_czp, zeta_char v=1, zeta_char v=2)
MIX = {3: (200, 60, 30), 5: (200, 60, 30), 7: (200, 60, 30), 1009: (200, 0, 0)}


def _coprime(rng: random.Random, lo: int, hi: int, p: int) -> int:
    while True:
        n = rng.randrange(lo, hi)
        if n % p:
            return n


def _s_values(rng: random.Random, p: int) -> list:
    """Two large integers and one rational with denominator prime to p."""
    return [
        rng.randrange(2, p**12),
        rng.randrange(2, p**12),
        Fraction(_coprime(rng, 1, 10**6, 2), _coprime(rng, 2, 10**3, p)),
    ]


def generate(seed: int) -> list[tuple]:
    """The grid for one seed, in call order (primes interleaved)."""
    rng = random.Random(f"value-grid:{seed}")
    items: list[tuple] = []
    seen: set[tuple] = set()

    def add(item: tuple) -> bool:
        key = item[1:]
        if key in seen:
            return False
        seen.add(key)
        items.append(item)
        return True

    for p in PRIMES:
        s_values = _s_values(rng, p)
        n_czp, n_v1, n_v2 = MIX[p]
        count = 0
        while count < n_czp:
            k = 1 + count % 3
            x = Fraction(_coprime(rng, 1, 10**9, p), p**k)
            count += add(("czp", p, s_values[count % S_PER_PRIME], x))
        for v, n in ((1, n_v1), (2, n_v2)):
            count = 0
            while count < n:
                x = Fraction(rng.randrange(0, 10**9), _coprime(rng, 1, 10**3, p))
                k = rng.randrange(0, p - 1)
                count += add(("char", p, s_values[count % S_PER_PRIME], x, v, k))
    rng.shuffle(items)
    return items
