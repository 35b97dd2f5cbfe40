"""Exact integer arithmetic helpers.

Every quantity in this package is an exact integer, and a class-number
bound is a pair of them; no floating point is used in any comparison of
group orders, hook products, or class-number bounds.  Python ints are arbitrary precision,
so the only work here is the number theory: primality, prime powers,
factorisation and the factored text form of a number.  Primality has one
algorithm for every n it accepts, Miller-Rabin to bases proven
deterministic below MR_PROVEN_BELOW; larger n are refused.
"""

from __future__ import annotations

from collections import namedtuple
from functools import partial, reduce
from itertools import repeat
from math import factorial as _factorial, gcd, isqrt, prod
from operator import add, and_, neg
from typing import Iterator, Sequence


# Miller-Rabin to the first 13 prime bases is deterministic below this
# bound (Sorenson and Webster, Math. Comp. 86 (2017), psi_13).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_PROVEN_BELOW = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic primality test for n < MR_PROVEN_BELOW, by one
    algorithm: Miller-Rabin to _MR_BASES, proven for that whole range.

    The bases are first tried as divisors: a base a divides n only if n is
    a or composite.  A composite n with no prime factor up to 41 is at
    least 43^2, so below that an n with no base as a divisor is prime
    exactly when n > 1.  Larger n raise ValueError: no answer is given
    that is not proven.
    """
    if n >= MR_PROVEN_BELOW:
        raise ValueError(
            f"{n} is beyond the proven primality range (< {MR_PROVEN_BELOW})"
        )
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    if n < 43 * 43:
        return n > 1
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
    """Prime factorisation of n >= 1 as (prime, exponent) pairs, ascending,
    by trial division: 2, then each odd d while d * d <= n."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    out: list[tuple[int, int]] = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


# Largest divisor count prod(E + 1) of one block of odd primes in
# format_known_divisors.  Rendering the 16,215 values of cod(A_40) took 23 ms
# at 4096 (two blocks), 25-26 ms at 1024 and 2048, 42 ms at 65,536 and
# 63 ms with no bound, as a block's table renders every divisor that
# occurs; one gcd per odd prime took 43 ms.  Cutting 2 into the blocks
# too, instead of reading its power off the low bit, took 27 ms at 4096
# (three blocks; 2-core VM, Python 3.11, best of 9).
_BLOCK_DIVISORS = 4096


class _BlockTexts(dict):
    """g -> "·p^k·q..." for each divisor g of one block, built on first use.

    The entry for 1 is "", so texts of consecutive blocks join by plain
    concatenation and the leading "·" is dropped once at the end.
    """

    __slots__ = ("primes",)

    def __init__(self, primes: list[int]) -> None:
        super().__init__({1: ""})
        self.primes = primes

    def __missing__(self, g: int) -> str:
        parts = []
        rest = g
        for p in self.primes:
            k = 0
            while rest % p == 0:
                rest //= p
                k += 1
            if k:
                parts.append(f"·{p}" if k == 1 else f"·{p}^{k}")
        text = self[g] = "".join(parts)
        return text


def _blocks(primes: list[tuple[int, int]]) -> list[tuple[int, _BlockTexts]]:
    """Runs of consecutive (p, E) of primes, each with its modulus and texts.

    A run grows while its divisor count prod(E + 1) stays within
    _BLOCK_DIVISORS; a prime whose E + 1 alone exceeds it is a run by
    itself.
    """
    runs: list[list[tuple[int, int]]] = []
    count = 0
    for p, e in primes:
        if not runs or count * (e + 1) > _BLOCK_DIVISORS:
            runs.append([])
            count = 1
        runs[-1].append((p, e))
        count *= e + 1
    return [
        (prod(p ** e for p, e in run), _BlockTexts([p for p, _ in run]))
        for run in runs
    ]


def format_known_divisors(values: Sequence[int], multiple: int) -> Iterator[str]:
    """The factored text of each value, e.g. 2^6·3^2·5, as an iterator, so
    a caller that streams the texts holds one at a time.  Each value must
    divide multiple, which is proved where the values come from, not here
    (a non-divisor gets a wrong text): CodegreeSet.__new__ proves it for a
    CodegreeSet's values and order, and format_factored's value is multiple.

    multiple >= 1 is factored once.  A value's power of 2 is read off the
    bit length of its lowest set bit, v & -v.  The ascending odd primes of
    multiple are cut into blocks of consecutive primes, each with at most
    _BLOCK_DIVISORS divisors (a prime with more is a block by itself).
    Each value then costs one gcd with each block's part M of multiple,
    and the text of gcd(v, M) comes from a table of that block built for
    this call: only the divisors that occur are rendered, once each.
    Fewer blocks mean fewer gcds per value; a larger bound means more
    distinct divisors per block to render, which is why the bound is small.
    """
    primes = factor(multiple)
    columns = [
        map(texts.__getitem__, map(gcd, values, repeat(modulus)))
        for modulus, texts in _blocks([(p, e) for p, e in primes if p != 2])
    ]
    if primes and primes[0][0] == 2:  # the text of 2^k at the bit length k + 1 of v & -v
        twos = ["", "", "·2", *(f"·2^{k}" for k in range(2, primes[0][1] + 1))]
        lowest = map(int.bit_length, map(and_, values, map(neg, values)))
        columns.insert(0, map(twos.__getitem__, lowest))
    joined = reduce(partial(map, add), columns, repeat("", len(values)))
    return (text[1:] or "1" for text in joined)


def format_factored(n: int) -> str:
    """Render n >= 1 as a compact prime-power product, e.g. 2^6·3^2·5; n is
    its own multiple, and factor refuses n < 1 with ValueError."""
    return next(format_known_divisors((n,), n))
