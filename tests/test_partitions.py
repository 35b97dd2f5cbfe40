"""Hook products and the partition oracles the other suites lean on.

The independent checks here are the classics: Euler's pentagonal-number
recurrence for partition counts, conjugation as an involution, and the
branching rule d(lambda) = sum of d(mu) over corner-removals, which
pins the hook-length dimensions without using hooks at all.  Partitions
come from the oracle's recursive enumerator, which the recurrence
checks first.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from codlab.alt_codegrees import sym_degree
from codlab.partitions import hook_product
from oracles import (
    branching_degree,
    cell_hook_product,
    check_partition,
    conjugate,
    corners,
    format_partition,
    hook_length,
    parse_partition,
    partition_size,
    partitions,
    pentagonal_partition_counts,
    remove_corner,
)


def hook_rows(lam):
    """Hook lengths of every cell, row by row."""
    return [[hook_length(lam, (i, j)) for j in range(1, part + 1)]
            for i, part in enumerate(lam, start=1)]


def test_enumeration_counts_match_pentagonal():
    assert list(partitions(0)) == [()]
    counts = pentagonal_partition_counts(28)
    for n in range(1, 29):
        parts = list(partitions(n))
        assert len(set(parts)) == len(parts) == counts[n]
        assert all(check_partition(lam) == lam for lam in parts)
        assert all(partition_size(lam) == n for lam in parts)


@given(st.integers(min_value=0, max_value=30), st.data())
def test_conjugate_involution(n, data):
    lam = data.draw(st.sampled_from(list(partitions(n))))
    mu = conjugate(lam)
    assert check_partition(mu) == mu
    assert partition_size(mu) == n
    assert conjugate(mu) == lam
    # a hook is the cell, its arm along the row and its leg down the column
    for i, part in enumerate(lam, start=1):
        for j in range(1, part + 1):
            assert hook_length(lam, (i, j)) == (part - j) + (mu[j - 1] - i) + 1


def test_parse_format_roundtrip():
    assert parse_partition("[3,2]") == (3, 2)
    assert parse_partition("3,2") == (3, 2)
    assert format_partition((3, 2)) == "[3,2]"
    assert parse_partition("[]") == ()  # the empty partition of 0
    with pytest.raises(ValueError):
        parse_partition("[2,3]")
    with pytest.raises(ValueError):
        parse_partition("[3,0]")


def test_hook_lengths_explicit():
    # (3,2): first row hooks 4,3,1; second row 2,1; product 24, dim 5
    assert hook_rows((3, 2)) == [[4, 3, 1], [2, 1]]
    assert hook_product((3, 2)) == 24
    assert sym_degree((3, 2)) == 5
    assert hook_length((3, 2), (1, 1)) == 4


def test_hook_lengths_staircase():
    # (3,2,1) is self-conjugate with hook products known by hand
    assert conjugate((3, 2, 1)) == (3, 2, 1)
    assert hook_rows((3, 2, 1)) == [[5, 3, 1], [3, 1], [1]]
    assert hook_product((3, 2, 1)) == 45


@given(st.integers(min_value=2, max_value=12), st.data())
def test_corner_removal(n, data):
    lam = data.draw(st.sampled_from(list(partitions(n))))
    cs = corners(lam)
    assert cs, "every non-empty partition has a corner"
    for cell in cs:
        mu = remove_corner(lam, cell)
        assert partition_size(mu) == n - 1


@pytest.mark.parametrize("n", range(2, 13))
def test_hook_formula_matches_branching_rule(n):
    for lam in partitions(n):
        assert hook_product(lam) == cell_hook_product(lam)
        assert sym_degree(lam) == branching_degree(lam)


@pytest.mark.parametrize("n", range(1, 13))
def test_sum_of_squares_is_factorial(n):
    assert sum(sym_degree(lam) ** 2 for lam in partitions(n)) == math.factorial(n)


@settings(max_examples=40)
@given(st.integers(min_value=0, max_value=25), st.data())
def test_hook_product_conjugation_invariant(n, data):
    lam = data.draw(st.sampled_from(list(partitions(n))))
    assert hook_product(lam) == cell_hook_product(lam)
    assert hook_product(lam) == hook_product(conjugate(lam))
