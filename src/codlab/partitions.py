"""Integer partitions, Young diagrams and hook lengths.

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
from typing import Iterator

Partition = tuple[int, ...]


def enumerate_partitions(n: int) -> Iterator[Partition]:
    """All partitions of n in reverse lexicographic order, (n) first.

    Iterative, after Zoghbi and Stojmenovic's ZS1 (1998): x holds the
    current partition padded with ones, m is its number of parts and h
    the index of its last part above 1.  Each step lowers x[h] by one
    and refills the freed cells with parts as large as x[h] allows.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        yield ()
        return
    x = [1] * n
    x[0] = n
    m = 1
    h = 0 if n > 1 else -1
    yield (n,)
    while h >= 0:
        if x[h] == 2:
            x[h] = 1
            m += 1
            h -= 1
        else:
            r = x[h] - 1
            t = m - h  # cells to refill: one from x[h] and the trailing ones
            x[h] = r
            while t >= r:
                h += 1
                x[h] = r
                t -= r
            if t == 0:
                m = h + 1
            else:
                m = h + 2
                if t > 1:
                    h += 1
                    x[h] = t
        yield tuple(x[:m])


def conjugate(parts: Partition) -> Partition:
    """Transpose of the Young diagram: column lengths become rows.

    Column lengths only shrink from left to right, so one pointer
    walking up from the last row finds each of them in linear time.
    """
    if not parts:
        return ()
    out = []
    rows = len(parts)
    for col in range(1, parts[0] + 1):
        while parts[rows - 1] < col:
            rows -= 1
        out.append(rows)
    return tuple(out)


def is_self_conjugate(parts: Partition) -> bool:
    return parts == conjugate(parts)


def hook_lengths(parts: Partition) -> list[list[int]]:
    """Hook lengths of every cell, row by row."""
    cols = conjugate(parts)
    return [
        [(row_len - j) + (cols[j - 1] - i) + 1 for j in range(1, row_len + 1)]
        for i, row_len in enumerate(parts, start=1)
    ]


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
