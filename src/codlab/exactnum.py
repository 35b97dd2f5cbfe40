"""Exact integer arithmetic helpers.

Every quantity in this package is an exact integer or an exact fraction;
no floating point is used in any comparison of group orders, hook
products, or class-number bounds.  Python ints are arbitrary precision,
so the only work here is the number theory: primality, prime powers
and factorisation.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial as _factorial, isqrt


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test.

    The primes handled here are characteristics of finite fields and
    never exceed a few thousand, so trial division is the honest tool.
    """
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d <= isqrt(n):
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class PrimePower:
    """A field size q = p**k with p prime and k >= 1."""

    p: int
    k: int

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")
        if self.k < 1:
            raise ValueError(f"k = {self.k} must be >= 1")

    @property
    def q(self) -> int:
        return self.p ** self.k


def factorial(n: int) -> int:
    if n < 0:
        raise ValueError("factorial of a negative number")
    return _factorial(n)


def factor(n: int) -> list[tuple[int, int]]:
    """Prime factorisation of n >= 1 as (prime, exponent) pairs, ascending."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    out: list[tuple[int, int]] = []
    e = (n & -n).bit_length() - 1  # the power of two, in one step
    if e:
        n >>= e
        out.append((2, e))
    d = 3
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 2
    if n > 1:
        out.append((n, 1))
    return out


def format_factored(n: int) -> str:
    """Render n >= 1 as a compact prime-power product, e.g. 2^6·3^2·5."""
    if n == 1:
        return "1"
    parts = []
    for p, e in factor(n):
        parts.append(str(p) if e == 1 else f"{p}^{e}")
    return "·".join(parts)
