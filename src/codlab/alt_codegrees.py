"""Codegree sets of alternating groups via hook lengths.

For n >= 5 the alternating group A_n is simple, so every non-trivial
irreducible character is faithful and its codegree is |A_n| divided by
its degree.  Restricting from S_n: a partition pair {lam, lam'} with
lam != lam' gives a single A_n-irreducible of dimension n!/H(lam) and
codegree H(lam)/2, while a self-conjugate lam splits into two halves of
dimension (n!/H(lam))/2 and codegree H(lam).  The minimal non-trivial
codegree is strictly increasing in n, which is the monotonicity fact the
search engine leans on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .exactnum import factorial
from .partitions import (
    Partition,
    conjugate,
    enumerate_partitions,
    hook_product,
)

@dataclass(frozen=True)
class AltIrrEntry:
    """One A_n-irreducible (or split pair) canonicalised by conjugation.

    partition: lexicographically smaller of {lam, conjugate(lam)}
    split: True iff the shape is self-conjugate
    dim: dimension of one A_n-constituent
    codegree: |A_n| / dim for non-trivial entries, 1 for the trivial one
    """

    partition: Partition
    split: bool
    dim: int
    codegree: int


@dataclass(frozen=True)
class CodegreeSet:
    """The set cod(G) = {cod(chi)} with its group label and order."""

    group_label: str
    order: int
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if 1 not in self.values:
            raise ValueError("codegree set must contain 1")
        if list(self.values) != sorted(set(self.values)):
            raise ValueError("values must be sorted and duplicate-free")
        for v in self.values:
            if self.order % v != 0:
                raise ValueError(f"codegree {v} does not divide order {self.order}")


def _degree(n: int, n_factorial: int, hp: int) -> int:
    """n!/H(lam), refusing a hook product that does not divide n!."""
    dim, rest = divmod(n_factorial, hp)
    if rest:
        raise ArithmeticError(f"hook product {hp} does not divide {n}!")
    return dim


def sym_degree(parts: Partition) -> int:
    """Dimension of the S_n irreducible for this shape (hook formula)."""
    n = sum(parts)
    return _degree(n, factorial(n), hook_product(parts))


def alt_irr_entries(n: int) -> Iterator[AltIrrEntry]:
    """One entry per unordered conjugate pair of partitions of n, n >= 5.

    Reverse-lex enumeration meets the larger member of each pair first,
    so the smaller one is skipped when it comes round.  The trivial
    shape (n) (paired with the sign shape (1,...,1)) is the trivial
    A_n-character and gets codegree 1 directly.  A non-self-conjugate
    shape's codegree H(lam)/2 must be an integer, so an odd hook
    product is refused like any other failed exact check.
    """
    if n < 5:
        raise ValueError(f"n must be >= 5, got {n}")
    n_factorial = factorial(n)
    for lam in enumerate_partitions(n):
        conj = conjugate(lam)
        if conj > lam:
            continue
        if lam == (n,):
            yield AltIrrEntry(conj, False, 1, 1)
            continue
        hp = hook_product(lam)
        dim = _degree(n, n_factorial, hp)
        if lam == conj:
            if dim % 2 != 0:
                raise ArithmeticError(f"self-conjugate {lam} has odd dimension {dim}")
            yield AltIrrEntry(lam, True, dim // 2, hp)
        else:
            if hp % 2 != 0:
                raise ArithmeticError(f"non-self-conjugate {lam} has odd hook product")
            yield AltIrrEntry(conj, False, dim, hp // 2)


def alt_degree_multiset(n: int) -> list[int]:
    """Degrees of Irr(A_n) with multiplicity (split entries count twice)."""
    out: list[int] = []
    for entry in alt_irr_entries(n):
        out.extend([entry.dim, entry.dim] if entry.split else [entry.dim])
    return sorted(out)


def alt_codegree_set(n: int) -> CodegreeSet:
    """cod(A_n) = {1} union {(n!/2)/dim over non-trivial irreducibles}."""
    half = factorial(n) // 2
    values = {1}
    total = 0
    for entry in alt_irr_entries(n):
        total += 2 * entry.dim * entry.dim if entry.split else entry.dim * entry.dim
        if entry.codegree != 1:
            if half % entry.dim != 0:
                raise ArithmeticError(f"dim {entry.dim} does not divide |A_{n}|")
            if entry.codegree != half // entry.dim:
                raise ArithmeticError(f"codegree mismatch for {entry.partition}")
            values.add(entry.codegree)
    if total != half:
        raise ArithmeticError(f"sum of squared dimensions {total} != |A_{n}| = {half}")
    return CodegreeSet(f"A{n}", half, tuple(sorted(values)))


def min_nontrivial_codegree(n: int) -> int:
    """Smallest codegree above 1, i.e. (n!/2) / (largest non-trivial degree)."""
    best = None
    for entry in alt_irr_entries(n):
        if entry.codegree == 1:
            continue
        if best is None or entry.codegree < best:
            best = entry.codegree
    assert best is not None
    return best


def verify_min_codegree_monotone(n_lo: int, n_hi: int) -> tuple[bool, list[tuple[int, int]]]:
    """Check a_{n-1} < a_n for every n in (n_lo, n_hi]; returns witnesses.

    The witness list holds (n, a_n) for n_lo..n_hi so a failure can be
    localised without rerunning.
    """
    if not (5 <= n_lo <= n_hi):
        raise ValueError(f"need 5 <= n_lo <= n_hi, got ({n_lo}, {n_hi})")
    witness = [(n, min_nontrivial_codegree(n)) for n in range(n_lo, n_hi + 1)]
    ok = all(prev[1] < cur[1] for prev, cur in zip(witness, witness[1:]))
    return ok, witness
