"""Independent reference helpers used only by the tests.

Small, direct implementations of definitions the library never needs
on its own: divisibility, p-adic valuations, Legendre's formula, single
hook lengths, corner removal and the text form of a partition.  The
tests check the library's fast paths against them.  Cells are 1-based
(row, column) pairs.
"""

from __future__ import annotations

from codlab.exactnum import is_prime
from codlab.partitions import Partition

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
