"""Hook products of integer partitions.

A partition is a tuple of weakly decreasing positive ints (no trailing
zeros); the empty tuple is the partition of 0.  The irreducible
character of the symmetric group indexed by a partition of n has
dimension n! divided by the product of all hook lengths, which is why
the hook product is the object this package keeps returning to: for
the alternating group the codegree of a constituent is the hook product
itself (self-conjugate shape) or half of it (everything else).
"""

from __future__ import annotations

from math import factorial as _factorial

Partition = tuple[int, ...]


def hook_product(parts: Partition) -> int:
    """Product of all hook lengths; n!/hook_product is the S_n dimension.

    With first-column hooks h_i = parts[i] + len - 1 - i, the hooks of
    row i are {1, ..., h_i} minus {h_i - h_j : j > i}, so each row
    contributes the exact quotient h_i! / prod_{j>i} (h_i - h_j).  This
    needs neither the conjugate nor the individual hooks.
    """
    ell = len(parts)
    first = [part + ell - 1 - i for i, part in enumerate(parts)]
    total = 1
    for i, h in enumerate(first):
        gaps = 1
        for g in first[i + 1:]:
            gaps *= h - g
        total *= _factorial(h) // gaps
    return total
