"""Independent reference helpers used only by the tests.

Small, direct implementations of definitions the library never needs
on its own: divisibility, p-adic valuations, Legendre's formula, the
partitions of n, conjugates by column counts, single hook lengths and
the hook product cell by cell, corner removal, degrees by the branching
rule, the text form of a partition, partition counts, Frobenius
coordinates, the direct routes to the A_n entries and to the n!/2 sieve,
Schur's spin degrees in exact fractions, factorisation one division at
a time, the factored text of a number by trial division, the parameter
boxes the family sweeps once enumerated, the class-number bounds and
order formulas of the Lie families as their sources print them, the
degrees and class number of PSL(2,q) by the series pattern, the
shipped degree records as their JSON lines read, the classes of
isomorphic catalog groups as the ATLAS lists them, and the subset test
by bisection in sorted tuples.  The
tests check the library's fast paths against them; none of these share
code with the partition and hook machinery they check.  A partition is
a tuple of weakly decreasing positive ints; cells are 1-based (row,
column) pairs.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

from codlab.catalog import _PACKAGED_DATA, RANK_FLOOR, GroupId, lie
from codlab.exactnum import PrimePower, is_prime

Partition = tuple[int, ...]
Cell = tuple[int, int]


def divides(a: int, b: int) -> bool:
    """True iff a divides b.  a must be positive."""
    if a <= 0:
        raise ValueError(f"divisor must be positive, got {a}")
    return b % a == 0


def valuation(n: int, p: int) -> int:
    """Largest e with p**e dividing n.  n must be nonzero."""
    if n == 0:
        raise ValueError("valuation of zero is undefined")
    if p < 2:
        raise ValueError(f"p must be >= 2, got {p}")
    n = abs(n)
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def factorial_valuation(n: int, p: int) -> int:
    """v_p(n!) by the digit-sum free form of Legendre's identity.

    Sums floor(n / p**i) without materialising n! itself.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if not is_prime(p):
        raise ValueError(f"p = {p} must be prime")
    total = 0
    power = p
    while power <= n:
        total += n // power
        power *= p
    return total


def check_partition(parts: Partition) -> Partition:
    """Validate weakly decreasing positive parts; returns its argument."""
    for i, part in enumerate(parts):
        if part < 1:
            raise ValueError(f"parts must be positive, got {parts}")
        if i > 0 and parts[i - 1] < part:
            raise ValueError(f"parts must be weakly decreasing, got {parts}")
    return parts


def partition_size(parts: Partition) -> int:
    return sum(parts)


def partitions(n: int, cap: int | None = None) -> Iterator[Partition]:
    """Every partition of n with no part above cap (default n)."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap or n), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def conjugate(parts: Partition) -> Partition:
    """Conjugate by definition: column j holds one cell per row of length >= j."""
    width = parts[0] if parts else 0
    return tuple(sum(1 for part in parts if part >= j) for j in range(1, width + 1))


def parse_partition(text: str) -> Partition:
    """Parse the text form "[3,2]" or "3,2" into a partition."""
    body = text.strip()
    if body.startswith("[") and body.endswith("]"):
        body = body[1:-1]
    if not body.strip():
        return ()
    try:
        parts = tuple(int(piece.strip()) for piece in body.split(","))
    except ValueError as exc:
        raise ValueError(f"cannot parse partition from {text!r}") from exc
    return check_partition(parts)


def format_partition(parts: Partition) -> str:
    return "[" + ",".join(str(p) for p in parts) + "]"


def contains_cell(parts: Partition, cell: Cell) -> bool:
    i, j = cell
    return 1 <= i <= len(parts) and 1 <= j <= parts[i - 1]


def hook_length(parts: Partition, cell: Cell) -> int:
    """Arm + leg + 1 for a cell of the diagram."""
    if not contains_cell(parts, cell):
        raise ValueError(f"cell {cell} not in partition {parts}")
    i, j = cell
    arm = parts[i - 1] - j
    leg = sum(1 for r in range(i, len(parts)) if parts[r] >= j)
    return arm + leg + 1


def cell_hook_product(parts: Partition) -> int:
    """Hook product by definition: hook_length over every cell."""
    return math.prod(
        hook_length(parts, (i, j))
        for i, part in enumerate(parts, start=1)
        for j in range(1, part + 1)
    )


def corners(parts: Partition) -> list[Cell]:
    """Removable cells: (i, parts[i-1]) where the next row is shorter."""
    out = []
    for i, part in enumerate(parts, start=1):
        below = parts[i] if i < len(parts) else 0
        if part > below:
            out.append((i, part))
    return out


def remove_corner(parts: Partition, cell: Cell) -> Partition:
    """Partition of n-1 obtained by deleting a corner cell."""
    if cell not in corners(parts):
        raise ValueError(f"{cell} is not a corner of {parts}")
    i = cell[0]
    shrunk = list(parts)
    shrunk[i - 1] -= 1
    if shrunk[i - 1] == 0:
        shrunk.pop(i - 1)
    return tuple(shrunk)


@lru_cache(maxsize=None)
def branching_degree(parts: Partition) -> int:
    """Dimension via the branching rule only; no hook lengths."""
    if parts == (1,):
        return 1
    return sum(branching_degree(remove_corner(parts, c)) for c in corners(parts))


def pentagonal_partition_counts(limit: int) -> list[int]:
    """p(0..limit) via Euler's recurrence, independent of enumeration."""
    p = [1] + [0] * limit
    for n in range(1, limit + 1):
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > n:
                break
            sign = -1 if k % 2 == 0 else 1
            p[n] += sign * p[n - g1]
            if g2 <= n:
                p[n] += sign * p[n - g2]
            k += 1
    return p


def distinct_odd_partition_counts(limit: int) -> list[int]:
    """Partitions of 0..limit into distinct odd parts.

    Reading a self-conjugate shape hook by hook along its diagonal gives
    such a partition, so these are also the self-conjugate counts.
    """
    counts = [1] + [0] * limit
    for part in range(1, limit + 1, 2):
        for m in range(limit, part - 1, -1):
            counts[m] += counts[m - part]
    return counts


def frobenius(parts: Partition) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Frobenius coordinates (a | b): a_i = lam_i - i, b_i = lam'_i - i, i <= d."""
    cols = conjugate(parts)
    d = sum(1 for i, part in enumerate(parts, start=1) if part >= i)
    return (
        tuple(parts[i] - i - 1 for i in range(d)),
        tuple(cols[i] - i - 1 for i in range(d)),
    )


def beta_shape(beta: tuple[int, ...]) -> Partition:
    """The partition whose first-column hooks, over len(beta) rows with
    zero parts allowed, are the decreasing run beta."""
    d = len(beta)
    return tuple(p for p in (x - (d - 1 - i) for i, x in enumerate(beta)) if p > 0)


def alt_irr_entries_direct(n: int) -> Iterator[tuple[Partition, bool, int, int]]:
    """(partition, split, dim, codegree) per conjugate pair, the direct way.

    Walks every shape, takes its conjugate, keeps the lex-smaller member
    of each pair and divides n! by its hook product.
    """
    n_factorial = math.factorial(n)
    for lam in partitions(n):
        conj = conjugate(lam)
        if conj > lam:
            continue
        if lam == (n,):
            yield conj, False, 1, 1
            continue
        hp = cell_hook_product(lam)
        dim = n_factorial // hp
        if lam == conj:
            yield lam, True, dim // 2, hp
        else:
            yield conj, False, dim, hp // 2


def spin_degrees(n: int) -> list[Fraction]:
    """The faithful irreducible degrees of the double cover 2.A_n, sorted,
    as exact fractions of Schur's formula: a partition lam of n into
    distinct parts, l of them, gives 2^floor((n-l)/2) * n!/prod lam_i! *
    prod_{i<j} (lam_i - lam_j)/(lam_i + lam_j), as two characters of half
    that degree when n - l is even and as one otherwise."""
    degrees = []
    for lam in partitions(n):
        ell = len(lam)
        if len(set(lam)) < ell:
            continue
        d = Fraction(2 ** ((n - ell) // 2) * math.factorial(n),
                     math.prod(map(math.factorial, lam)))
        for i, a in enumerate(lam):
            for b in lam[i + 1:]:
                d *= Fraction(a - b, a + b)
        degrees += [d / 2, d / 2] if (n - ell) % 2 == 0 else [d]
    return sorted(degrees)


def factor_stepwise(n: int) -> list[tuple[int, int]]:
    """Prime factorisation of n >= 1, dividing by each odd d once per step."""
    out: list[tuple[int, int]] = []
    e = (n & -n).bit_length() - 1
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


def factored_text(n: int) -> str:
    """The text p^k·q·... of n >= 1, ascending, by trial division of n by
    every d = 2, 3, 4, ...; "1" for n = 1."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    terms = []
    d = 2
    while d * d <= n:
        k = 0
        while n % d == 0:
            n //= d
            k += 1
        if k:
            terms.append(str(d) if k == 1 else f"{d}^{k}")
        d += 1
    if n > 1:
        terms.append(str(n))
    return "·".join(terms) or "1"


# The (m_hi, p_hi, k_hi) box of legal points each Lie family's sweep
# enumerated before it walked to proven frontiers: edges found by scanning
# one parameter at a time, widened to a hand-set floor for PSL, PSU and
# O-.  The other families enumerated no box.  The tests keep these points
# as a fixed, wide sample of the parameter space.
SWEEP_BOXES = {
    "PSL": (6, 17, 63), "PSU": (6, 7, 42), "PSp": (4, 2, 2),
    "OmegaOdd": (2, 3, 1), "OPlus": (4, 2, 1), "OMinus": (5, 3, 3),
    "G2": (0, 2, 2), "TriD4": (0, 2, 1), "Suzuki": (4, 2, 9),
}


def box_points(family: str, box: tuple[int, int, int]) -> Iterator[GroupId]:
    """Every legal point of family in the box, each over a field of q
    elements (G2(2) is not simple, and G2(2)' is PSU(3,3), a point of the
    PSU box); the box's m edge is ignored for the exceptional families."""
    m_hi, p_hi, k_hi = box
    for m in range(RANK_FLOOR[family], m_hi + 1) if family in RANK_FLOOR else [None]:
        for p in filter(is_prime, range(2, p_hi + 1)):
            for k in range(1, k_hi + 1):
                try:
                    yield lie(family, PrimePower(p, k), m=m)
                except ValueError:
                    continue


# Class-number bounds k(G) <= bound, as catalog held them before each Lie
# family's facts were gathered into one row.  Classical: C*q^m with the
# constants of Fulman and Guralnick, Trans. Amer. Math. Soc. 364 (2012).
# Exceptional: polynomials in q from Luebeck's class-number polynomials,
# coefficients by descending degree.
CLASSICAL_CLASS_CONSTANTS = {
    "PSL": Fraction(5, 2), "PSU": Fraction(413, 50), "PSp": Fraction(76, 5),
    "OmegaOdd": Fraction(73, 10), "OPlus": Fraction(15), "OMinus": Fraction(15),
}
EXCEPTIONAL_CLASS_POLYNOMIALS = {
    "G2": (1, 2, 9),
    "F4": (1, 2, 7, 15, 31),
    "E6": (1, 1, 2, 2, 15, 21, 60),
    "E7": (1, 1, 2, 7, 17, 35, 71, 103),
    "E8": (1, 1, 2, 3, 10, 16, 40, 67, 112),
    "TwistedE6": (1, 1, 2, 4, 18, 26, 62),
    "TriD4": (1, 1, 1, 1, 6),
    "Suzuki": (1, 3),
    "Ree": (1, 8),
    "TwistedF4": (1, 4, 17),
}


def lie_class_bound(family: str, m: int | None, q: int) -> Fraction:
    """The class-number bound of family at rank m over q, term by term."""
    if family in CLASSICAL_CLASS_CONSTANTS:
        return CLASSICAL_CLASS_CONSTANTS[family] * q ** m
    poly = EXCEPTIONAL_CLASS_POLYNOMIALS[family]
    return Fraction(sum(c * q ** (len(poly) - 1 - i) for i, c in enumerate(poly)))


def _prod_minus_one(q: int, exponents) -> int:
    return math.prod(q ** i - 1 for i in exponents)


# |G| of each exceptional simple group over q, written out as Carter,
# Simple Groups of Lie Type, prints it.
EXCEPTIONAL_ORDERS = {
    "G2": lambda q: q ** 6 * (q ** 6 - 1) * (q ** 2 - 1),
    "F4": lambda q: q ** 24 * _prod_minus_one(q, (12, 8, 6, 2)),
    "E6": lambda q: q ** 36 * _prod_minus_one(q, (12, 9, 8, 6, 5, 2)) // math.gcd(3, q - 1),
    "E7": lambda q: (q ** 63 * _prod_minus_one(q, (18, 14, 12, 10, 8, 6, 2))
                     // math.gcd(2, q - 1)),
    "E8": lambda q: q ** 120 * _prod_minus_one(q, (30, 24, 20, 18, 14, 12, 8, 2)),
    "TwistedE6": lambda q: (q ** 36 * (q ** 12 - 1) * (q ** 9 + 1) * (q ** 8 - 1)
                            * (q ** 6 - 1) * (q ** 5 + 1) * (q ** 2 - 1) // math.gcd(3, q + 1)),
    "TriD4": lambda q: q ** 12 * (q ** 8 + q ** 4 + 1) * (q ** 6 - 1) * (q ** 2 - 1),
    "Suzuki": lambda q: q ** 2 * (q ** 2 + 1) * (q - 1),
    "Ree": lambda q: q ** 3 * (q ** 3 + 1) * (q - 1),
    "TwistedF4": lambda q: q ** 12 * (q ** 6 + 1) * (q ** 4 - 1) * (q ** 3 + 1) * (q - 1),
}


def lie_order(family: str, m: int | None, q: int) -> int:
    """|G| of family at rank m over q: PSL(m+1,q), PSU(m+1,q), PSp(2m,q),
    Omega(2m+1,q), P-Omega+-(2m,q), or an exceptional group."""
    if family in ("PSL", "PSU"):
        n, s = m + 1, (1 if family == "PSL" else -1)
        return (q ** (n * (n - 1) // 2) * math.prod(q ** i - s ** i for i in range(2, n + 1))
                // math.gcd(n, q - s))
    if family in ("PSp", "OmegaOdd"):
        return q ** (m * m) * _prod_minus_one(q, range(2, 2 * m + 1, 2)) // math.gcd(2, q - 1)
    if family in ("OPlus", "OMinus"):
        twist = q ** m - 1 if family == "OPlus" else q ** m + 1
        return (q ** (m * (m - 1)) * twist * _prod_minus_one(q, range(2, 2 * m - 1, 2))
                // math.gcd(4, twist))
    return EXCEPTIONAL_ORDERS[family](q)


def psl2_degrees(q: int) -> list[int]:
    """The degrees of PSL(2,q), q >= 4 a prime power, sorted, by the series
    pattern: 1, q, q + 1 and q - 1, and for odd q two halves of (q + 1) when
    q = 1 mod 4, of (q - 1) when q = 3 mod 4."""
    if q % 2 == 0:
        degs = [1, q] + [q + 1] * ((q - 2) // 2) + [q - 1] * (q // 2)
    elif q % 4 == 1:
        degs = [1, q, (q + 1) // 2, (q + 1) // 2]
        degs += [q + 1] * ((q - 5) // 4) + [q - 1] * ((q - 1) // 4)
    else:
        degs = [1, q, (q - 1) // 2, (q - 1) // 2]
        degs += [q + 1] * ((q - 3) // 4) + [q - 1] * ((q - 3) // 4)
    return sorted(degs)


def psl2_class_number(q: int) -> int:
    """k(PSL(2,q)): q + 1 classes for even q, (q + 5)/2 for odd q."""
    return q + 1 if q % 2 == 0 else (q + 5) // 2


def sp4_class_number(q: int) -> int:
    """k(Sp(4,q)) = q^2 + 2q + 3 for even q (Enomoto, Osaka J. Math. 9
    (1972)); Sp(4,q) = PSp(4,q) there, as its centre is trivial."""
    return q * q + 2 * q + 3


def shipped_records() -> dict[str, dict]:
    """Each degree record of the shipped data file, as the JSON object its
    line holds, by its label and by each of its aliases."""
    lines = _PACKAGED_DATA.read_text(encoding="utf-8").splitlines()[1:]
    return {key: rec for rec in map(json.loads, lines)
            for key in (rec["label"], *rec.get("aliases", ()))}


# Each set of catalog labels that name one group (ATLAS of Finite Groups,
# introduction); a catalog group outside them is named once.
ISOMORPHIC_LABELS = (
    {"A5", "PSL(2,4)", "PSL(2,5)"},
    {"A6", "PSL(2,9)"},
    {"A8", "PSL(4,2)"},
    {"PSL(2,7)", "PSL(3,2)"},
    {"PSU(3,3)", "G2(2)'"},
    {"Omega(5,3)", "PSU(4,2)"},
)


def same_group(a: str, b: str) -> bool:
    """Whether the labels a and b, as group_label writes them, name one group."""
    return a == b or any({a, b} <= labels for labels in ISOMORPHIC_LABELS)


def subset_check_by_bisection(label: str, h_values: tuple[int, ...], n: int,
                              a_values: tuple[int, ...]) -> tuple[str, int | None, int, int]:
    """(verdict, witness, |cod(H)|, |cod(A_n)|) for the group named label,
    from the sorted tuples cod(H) and cod(A_n): the witness is the first
    value of cod(H) that bisection does not find in cod(A_n), and a subset
    is "isomorphic" when label names A_n."""
    witness = None
    for v in h_values:
        i = bisect_left(a_values, v)
        if i == len(a_values) or a_values[i] != v:
            witness = v
            break
    if witness is not None:
        verdict = "subset_refuted"
    elif same_group(label, f"A{n}"):
        verdict = "isomorphic"
    else:
        verdict = "subset_holds"
    return verdict, witness, len(h_values), len(a_values)
