"""Exact integer arithmetic helpers.

Every quantity in this package is an exact integer or an exact fraction;
no floating point is used in any comparison of group orders, hook
products, or class-number bounds.  Python ints are arbitrary precision,
so the only work here is the number theory: primality, prime powers,
factorisation and the factored text form of a number.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import repeat
from math import factorial as _factorial, gcd, isqrt
from types import MappingProxyType
from typing import Iterable, Mapping


# Below this bound trial division needs at most 128 odd divisors, and
# every characteristic the search meets lies below it.
_TRIAL_DIVISION_BELOW = 1 << 16

# Miller-Rabin to the first 13 prime bases is deterministic below this
# bound (Sorenson and Webster, Math. Comp. 86 (2017), psi_13).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_PROVEN_BELOW = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic primality test for n < MR_PROVEN_BELOW.

    Trial division below _TRIAL_DIVISION_BELOW, Miller-Rabin to the
    bases proven for the whole range above it.  Larger n raise
    ValueError: no answer is given that is not proven.
    """
    if n < _TRIAL_DIVISION_BELOW:
        if n < 2:
            return False
        if n < 4:
            return True
        if n % 2 == 0:
            return False
        root = isqrt(n)
        d = 3
        while d <= root:
            if n % d == 0:
                return False
            d += 2
        return True
    if n >= MR_PROVEN_BELOW:
        raise ValueError(
            f"{n} is beyond the proven primality range (< {MR_PROVEN_BELOW})"
        )
    if n % 2 == 0:
        return False
    m = n - 1
    s = (m & -m).bit_length() - 1  # n - 1 = odd * 2^s
    odd = m >> s
    for a in _MR_BASES:
        x = pow(a, odd, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def exact_root(n: int, k: int) -> int | None:
    """The r with r**k == n, or None; n >= 1 odd, k = 2 or k odd.

    For odd k the map x -> x**k permutes the odd residues modulo 2^m,
    so an odd root below 2^m is pow(n, k^-1 mod 2^(m-1), 2^m): one
    modular power finds the only candidate and one exact power checks
    it.  No floating point is used.
    """
    if k == 2:
        r = isqrt(n)
    else:
        m = n.bit_length() // k + 1
        r = pow(n, pow(k, -1, 1 << (m - 1)), 1 << m)
    return r if r ** k == n else None


class PrimePower(namedtuple("PrimePower", "p k")):
    """A field size q = p**k with p prime and k >= 1."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> PrimePower:
        self = super().__new__(cls, *args, **kwargs)
        if not is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")
        if self.k < 1:
            raise ValueError(f"k = {self.k} must be >= 1")
        return self

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
            # strip d two at a time, then the odd one left over, if any
            n //= d
            e = 1
            dd = d * d
            while n % dd == 0:
                n //= dd
                e += 2
            if n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 2
    if n > 1:
        out.append((n, 1))
    return out


@lru_cache(maxsize=256)
def _power_texts(p: int, e: int) -> Mapping[int, str]:
    """p^k -> its text ("p" or "p^k") for k <= e, and 1 -> ""."""
    text = {p ** k: str(p) if k == 1 else f"{p}^{k}" for k in range(1, e + 1)}
    text[1] = ""
    return MappingProxyType(text)  # shared by every caller, so read only


def format_divisors(values: Iterable[int], multiple: int) -> list[str]:
    """The factored text of each value, e.g. 2^6·3^2·5; each must divide multiple.

    multiple >= 1 is factored once.  Each value then costs one gcd with
    each prime power p^E of multiple, and gcd(v, p^E) = p^k is looked up
    in a table of texts.  A value that does not divide multiple raises
    ArithmeticError, so every text is exact.
    """
    values = tuple(values)
    for v in values:
        if v < 1 or multiple % v:
            raise ArithmeticError(f"{v} does not divide {multiple}")
    columns = [
        map(_power_texts(p, e).__getitem__, map(gcd, values, repeat(p ** e)))
        for p, e in factor(multiple)
    ]
    if not columns:  # multiple == 1
        return ["1"] * len(values)
    return ["·".join(filter(None, parts)) or "1" for parts in zip(*columns)]


def format_factored(n: int) -> str:
    """Render n >= 1 as a compact prime-power product, e.g. 2^6·3^2·5."""
    return format_divisors((n,), n)[0]
