"""Codegree sets of alternating groups.

Expected sets for small n were fixed ahead of time from the standard
character degree lists (each cross-checked by sum of squares equal to
n!/2) and are frozen here; the library must reproduce them from hook
lengths alone.
"""

import gc
import itertools
import math
import re
import sys
import threading
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import codlab.alt_codegrees as alt_codegrees
from codlab.alt_codegrees import (
    _LEMMA_FROM,
    CodegreeSet,
    _corner_bound,
    _codegree_blocks,
    alt_codegree_members,
    alt_codegree_set,
    prove_min_codegree_monotone,
    twisted_codegree_set_2a9,
    verify_min_codegree_monotone,
)
from codlab.catalog import parse_group_label, simple_codegree_set
from codlab.partitions import hook_product
from codlab.search import check_subset
from oracles import (
    alt_irr_entries_direct,
    beta_shape,
    distinct_odd_partition_counts,
    frobenius,
    partitions,
    pentagonal_partition_counts,
    shipped_records,
    spin_degrees,
)

EXPECTED_COD = {
    5: (1, 12, 15, 20),
    6: (1, 36, 40, 45, 72),
    7: (1, 72, 120, 168, 180, 252, 420),
    8: (1, 288, 315, 360, 448, 576, 720, 960, 1008, 1440, 2880),
    9: (1, 840, 960, 1080, 1120, 1512, 1728, 2160, 3240, 3780, 4320,
        5184, 6480, 6720, 8640, 22680),
}

EXPECTED_DEGREES = {
    5: [1, 3, 3, 4, 5],
    6: [1, 5, 5, 8, 8, 9, 10],
    7: [1, 6, 10, 10, 14, 14, 15, 21, 35],
    8: [1, 7, 14, 20, 21, 21, 21, 28, 35, 45, 45, 56, 64, 70],
    9: [1, 8, 21, 21, 27, 28, 35, 35, 42, 48, 56, 84, 105, 120,
        162, 168, 189, 216],
}

EXPECTED_MIN = {5: 12, 6: 36, 7: 72, 8: 288, 9: 840}


def degrees(n):
    """Degrees of Irr(A_n) with multiplicity, each |A_n|/c from the walk's
    codegree c, the trivial character's 1 giving degree 1."""
    half = math.factorial(n) // 2
    return sorted(1 if c == 1 else half // c
                  for _, codegrees in _codegree_blocks(n, n) for c in codegrees)


def walked_codegrees(n_lo, n_hi):
    """{n: Counter of the codegrees the walk of n_lo..n_hi yields for n}."""
    counts = {n: Counter() for n in range(n_lo, n_hi + 1)}
    for n, codegrees in _codegree_blocks(n_lo, n_hi):
        counts[n].update(codegrees)
    return counts


def direct_codegrees(n):
    """The oracle's codegrees of Irr(A_n) with multiplicity: a split
    (self-conjugate) shape gives two irreducibles of one codegree."""
    return Counter(c for _, split, _, c in alt_irr_entries_direct(n) for _ in range(1 + split))


def class_number(n):
    """k(A_n) = (p(n) + 3 sc(n)) / 2: a pair of shapes gives one irreducible
    and a self-conjugate shape two, with sc(n) self-conjugate shapes."""
    p = pentagonal_partition_counts(n)[n]
    sc = distinct_odd_partition_counts(n)[n]
    return (p + 3 * sc) // 2


@pytest.mark.parametrize("n", sorted(EXPECTED_COD))
def test_codegree_sets_frozen(n):
    cs = alt_codegree_set(n)
    assert cs.values == EXPECTED_COD[n]
    assert cs.order == math.factorial(n) // 2
    assert cs.group_label == f"A{n}"


@pytest.mark.parametrize("n", sorted(EXPECTED_DEGREES))
def test_degree_multisets_frozen(n):
    assert degrees(n) == EXPECTED_DEGREES[n]


@pytest.mark.parametrize("n", sorted(EXPECTED_MIN))
def test_min_codegrees(n):
    assert verify_min_codegree_monotone(n, n) == (True, [(n, EXPECTED_MIN[n])])


def test_monotonicity_small():
    ok, witnesses = verify_min_codegree_monotone(5, 16)
    assert ok
    assert witnesses[0] == (5, 12)
    assert witnesses[1] == (6, 36)
    values = [a for _, a in witnesses]
    assert values == sorted(values)
    assert len(set(values)) == len(values)


def test_min_codegree_ratio_bound():
    # a_N = |A_N|/D_N with M_N/2 <= D_N <= M_N (largest degrees of A_N, S_N),
    # and by the branching rule M_N <= r(N)*M_{N-1}, where a partition of N
    # has at most r(N) removable corners; so a_N/a_{N-1} >= N/(2r(N)) > 1
    ok, witnesses = verify_min_codegree_monotone(5, 40)
    assert ok
    a = dict(witnesses)
    margins = []
    for n in range(7, 41):
        r = (math.isqrt(8 * n + 1) - 1) // 2  # largest r with r(r+1)/2 <= n
        assert r * (r + 1) // 2 <= n < (r + 1) * (r + 2) // 2
        ratio, bound = Fraction(a[n], a[n - 1]), Fraction(n, 2 * r)
        assert ratio >= bound > 1, n
        margins.append(ratio / bound)
    assert min(margins) == Fraction(12, 7)  # at N = 7: ratio 2, bound 7/6


def test_branching_step_inequality_on_a_grid():
    # r(N) is the largest r with r(r+1)/2 <= N, and N > 2r(N) from N = 7 on
    r = 0
    for n in range(1, 10**4 + 1):
        while (r + 1) * (r + 2) // 2 <= n:
            r += 1
        assert _corner_bound(n) == r, n
        assert n > 2 * r or n < _LEMMA_FROM, n
    # the walk hands over to the lemma at the first N past its last failure
    assert _LEMMA_FROM == 7 and _corner_bound(6) == 3


def test_monotone_proof_walks_only_its_base():
    assert prove_min_codegree_monotone() == verify_min_codegree_monotone(5, 7)
    assert prove_min_codegree_monotone() == (True, [(5, 12), (6, 36), (7, 72)])


@pytest.mark.parametrize("n", range(5, 21))
def test_min_codegree_square_beats_order(n):
    # a_n^2 > n!/2, the quantitative heart of the monotonicity argument
    (_, a), = verify_min_codegree_monotone(n, n)[1]
    assert a * a > math.factorial(n) // 2


@given(st.integers(min_value=5, max_value=14))
@settings(max_examples=10, deadline=None)
def test_codegree_set_structure(n):
    cs = alt_codegree_set(n)
    half = math.factorial(n) // 2
    assert cs.values[0] == 1
    assert list(cs.values) == sorted(set(cs.values))
    assert all(half % v == 0 for v in cs.values)


@pytest.mark.parametrize("n", range(5, 15))
def test_entries_consistent(n):
    # one codegree per irreducible, each dividing |A_n|, with degrees
    # |A_n|/c whose squares sum to |A_n|
    half = math.factorial(n) // 2
    counts = walked_codegrees(n, n)[n]
    assert counts == direct_codegrees(n)
    assert sum(counts.values()) == class_number(n)
    assert all(half % c == 0 for c in counts)
    assert sum(k * (1 if c == 1 else half // c) ** 2 for c, k in counts.items()) == half


def test_trivial_entry():
    # the trivial pair {(6), (1^6)} = (5 | 0) is the first block of n = 6,
    # alone, and the only irreducible with codegree 1
    blocks = list(_codegree_blocks(6, 6))
    assert blocks[0] == (6, [1])
    assert frobenius((6,)) == ((5,), (0,))
    assert walked_codegrees(6, 6)[6][1] == direct_codegrees(6)[1] == 1
    assert sum(len(codegrees) for _, codegrees in blocks) == class_number(6) == 7


def test_codegree_set_validation():
    with pytest.raises(ValueError):
        CodegreeSet("X", 60, (12, 15))  # missing 1
    with pytest.raises(ValueError):
        CodegreeSet("X", 60, (1, 7))  # 7 does not divide 60
    for values in ((1, 5, 3), (1, 3, 3)):
        with pytest.raises(ValueError, match="sorted and duplicate-free"):
            CodegreeSet("X", 60, values)
    # built by keyword, the same checks run
    with pytest.raises(ValueError, match="codegree 7 does not divide order 60"):
        CodegreeSet(group_label="X", order=60, values=(1, 7))
    with pytest.raises(ValueError, match="must contain 1"):
        CodegreeSet("X", values=(12, 15), order=60)


@pytest.mark.parametrize("degrees,squares,message", [
    # A5's degrees with 5 replaced by 6: 6 does not divide 60, and the
    # squares no longer sum to 60, which is named first
    ([1, 3, 3, 4, 6], None, "sum of squared degrees is not 60"),
    # the squares sum to 60, but 0 and -4 divide nothing
    ([0, 1, 3, 3, 4, 5], None, "degree 0 does not divide |A5| = 60"),
    ([-4, 1, 3, 3, 5], None, "degree -4 does not divide |A5| = 60"),
    # 7^2 + 11^2 is 170, but only a stated part of it is asked for
    ([7, 11], 170, "degree 7 does not divide |A5| = 60"),
], ids=["squares-first", "zero", "negative", "stated-squares"])
def test_from_degrees_checks_the_squares_then_each_degree(degrees, squares, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        CodegreeSet.from_degrees("A5", 60, degrees, squares=squares)


def test_from_degrees_gives_the_codegrees_of_the_faithful_degrees():
    assert CodegreeSet.from_degrees("A5", 60, [1, 3, 3, 4, 5]) == alt_codegree_set(5)
    assert CodegreeSet.from_degrees("A5", 60, [1, 3, 3, 4, 5], squares=60) == alt_codegree_set(5)
    # a stated part of the order: two faithful characters of degree 2 of SL(2,5)
    assert CodegreeSet.from_degrees("SL(2,5)", 120, [2, 2], squares=8) == (
        "SL(2,5)", 120, (1, 60))


@pytest.mark.parametrize("n", range(5, 31))
def test_entries_match_direct_enumeration(n):
    counts = walked_codegrees(n, n)[n]
    assert counts == direct_codegrees(n)
    # one codegree per irreducible: k(A_n) = (p(n) + 3 sc(n)) / 2
    assert sum(counts.values()) == class_number(n)


def test_frobenius_hook_identity():
    # H(a | b) = H(a) H(b) prod (a_i + b_j + 1), H(x) of the shape with beta set x
    for n in range(1, 26):
        for lam in partitions(n):
            a, b = frobenius(lam)
            assert len(a) + sum(a) + sum(b) == n
            cross = math.prod(x + y + 1 for x in a for y in b)
            assert hook_product(lam) == (
                hook_product(beta_shape(a)) * hook_product(beta_shape(b)) * cross
            ), lam


def test_a8_degrees_match_shipped_psl42_record():
    # the record of PSL(4,2) = A8 holds the degrees the walk of n = 8 gives
    assert degrees(8) == shipped_records()["PSL(4,2)"]["degrees"]


def traced_peak(call):
    """Peak bytes that tracemalloc sees while call() runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_min_codegree_memory_stays_streaming():
    # the run lists of two Durfee sizes at most, each heavy list dropped
    # once no later step reads it; the peaks here are about 0.34 and
    # 0.60 MB (0.43 and 0.80 MB if the heavy lists stay to the end of d)
    assert traced_peak(lambda: verify_min_codegree_monotone(40, 40)) < 500_000
    assert traced_peak(lambda: verify_min_codegree_monotone(45, 45)) < 700_000


@pytest.mark.parametrize("lo,hi", [(5, 40), (5, 6), (17, 23), (5, 5), (12, 12), (40, 40)])
def test_monotone_scan_matches_per_n_minima(lo, hi):
    ok, witnesses = verify_min_codegree_monotone(lo, hi)
    per_n = [w for n in range(lo, hi + 1) for w in verify_min_codegree_monotone(n, n)[1]]
    assert witnesses == per_n
    assert ok


def test_range_walk_is_the_union_of_single_n_walks():
    walked = walked_codegrees(5, 40)
    assert walked == {n: walked_codegrees(n, n)[n] for n in range(5, 41)}
    for n, counts in walked.items():
        assert sum(counts.values()) == class_number(n), n
    # and, below n = 21, the direct enumeration of every shape
    for n in range(5, 21):
        assert walked[n] == direct_codegrees(n), n


def test_range_walk_yields_once_per_block():
    # one list per (Durfee size d, light sum t, n) with t from d(d-1)/2 to
    # (n - d)/2, the trivial pair being the block d = 1, t = 0 of each n:
    # 1296 resumptions of the consumer for the 108,386 irreducibles of
    # A_5..A_40, not one per conjugate pair
    blocks = Counter(n for n, _ in _codegree_blocks(5, 40))
    expected = {n: sum((n - d) // 2 - d * (d - 1) // 2 + 1 for d in range(1, math.isqrt(n) + 1))
                for n in range(5, 41)}
    assert blocks == expected
    assert sum(blocks.values()) == 1296 < 2000
    assert {n: sum(c.values()) for n, c in walked_codegrees(5, 40).items()} == {
        n: class_number(n) for n in range(5, 41)}


def test_range_walk_builds_each_run_list_once(monkeypatch):
    # each (Durfee size, sum) run list is built at most once per walk
    built = Counter()
    run_list = alt_codegrees._run_list

    def counting_run_list(d, total, shorter, fact):
        built[d, total] += 1
        return run_list(d, total, shorter, fact)

    monkeypatch.setattr(alt_codegrees, "_run_list", counting_run_list)
    for lo, hi in ((5, 40), (17, 23), (30, 30)):
        built.clear()
        assert sum(1 for _ in _codegree_blocks(lo, hi)) > 0
        assert max(built.values()) == 1, [k for k, c in built.items() if c > 1]


def test_run_lists_match_brute_force():
    # every strictly decreasing d-tuple summing to s, lex-decreasing, with
    # H(x) = prod x_i! / prod_{i<j} (x_i - x_j) computed directly
    fact = [math.factorial(i) for i in range(21)]
    level = {}
    for d in range(1, 6):
        shorter, level = level, {}
        for s in range(d * (d - 1) // 2, 21):
            level[s] = alt_codegrees._run_list(d, s, shorter, fact)
            expected = [
                x for x in itertools.combinations(range(s, -1, -1), d) if sum(x) == s
            ]
            assert [r for r, _ in level[s]] == expected, (d, s)
            for r, h in level[s]:
                gaps = math.prod(x - y for x, y in itertools.combinations(r, 2))
                assert h * gaps == math.prod(map(math.factorial, r)), r


def test_walks_leave_no_reference_cycles():
    # every table a walk builds is freed by reference counting alone
    gc.collect()
    gc.disable()
    try:
        for _ in _codegree_blocks(5, 30):
            pass
        alt_codegree_set(20)
        verify_min_codegree_monotone(5, 12)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_range_walk_validation():
    with pytest.raises(ValueError, match=r"^n must be >= 5, got 4$"):
        list(_codegree_blocks(4, 10))
    with pytest.raises(ValueError, match=r"^n must be >= 5, got 4$"):
        alt_codegree_set(4)
    for lo, hi in ((12, 11), (6, 5)):
        with pytest.raises(ValueError, match=re.escape(f"need n_lo <= n_hi, got ({lo}, {hi})")):
            list(_codegree_blocks(lo, hi))
    with pytest.raises(ValueError, match=re.escape("need 5 <= n_lo <= n_hi, got (6, 5)")):
        verify_min_codegree_monotone(6, 5)


def _lose_run(monkeypatch, lost):
    """Make the walk drop the run lost, and every shape built on it."""
    run_list = alt_codegrees._run_list
    monkeypatch.setattr(alt_codegrees, "_run_list", lambda d, total, shorter, fact: [
        (r, h) for r, h in run_list(d, total, shorter, fact) if r != lost])


def test_codegree_set_checks_the_sum_of_squares(monkeypatch):
    # a walk that loses one shape, here the self-conjugate (3, 2, 1) =
    # (2, 0 | 2, 0) of dimension 16, is refused: 360 - 2 * 8^2 = 232
    _lose_run(monkeypatch, (2, 0))
    with pytest.raises(ArithmeticError,
                       match=f"^{re.escape('sum of squared dimensions 232 != |A_6| = 360')}$"):
        alt_codegree_set(6)


@pytest.mark.parametrize("walk", [
    lambda: verify_min_codegree_monotone(5, 12),
    prove_min_codegree_monotone,
], ids=["verify-monotone", "prove-monotone"])
def test_every_walk_checks_the_sum_of_squares(monkeypatch, walk):
    # the range walks of min-cod and of the monotonicity proof run the same
    # check as alt_codegree_set: without the run (2, 0), A5 loses (3, 2) =
    # (2, 0 | 1, 0) of dimension 5, and a_5 would read 15 instead of 12
    _lose_run(monkeypatch, (2, 0))
    with pytest.raises(ArithmeticError,
                       match=f"^{re.escape('sum of squared dimensions 35 != |A_5| = 60')}$"):
        walk()


@pytest.mark.parametrize("n,run,scale,message", [
    # H(3) = 3! times 7: the pair (3 | 1) of n = 5 gets H = 42 * 1 * 5
    (5, (3,), (7, 1), "hook product 210 does not divide 5!"),
    # H(3) halved: H(3 | 1) = 15 is odd, so its codegree H/2 is no integer
    (5, (3,), (1, 2), "non-self-conjugate ((3,) | (1,)) has odd hook product"),
    # H(2, 0) times 4 on both sides: H(2, 0 | 2, 0) = 16 * 45 = 6!, dimension 1
    (6, (2, 0), (4, 1), "self-conjugate ((2, 0) | (2, 0)) has odd dimension 1"),
], ids=["hook-product-not-dividing", "odd-hook-product", "odd-self-conjugate-dimension"])
def test_walk_checks_every_shape(monkeypatch, n, run, scale, message):
    # each per-shape check of the walk is reached through one corrupt H(x)
    run_list = alt_codegrees._run_list
    times, over = scale

    def corrupt_run_list(d, total, shorter, fact):
        return [(r, h * times // over if r == run else h)
                for r, h in run_list(d, total, shorter, fact)]

    monkeypatch.setattr(alt_codegrees, "_run_list", corrupt_run_list)
    with pytest.raises(ArithmeticError, match=f"^{re.escape(message)}$"):
        alt_codegree_set(n)


def test_sym_degree_checks_the_hook_product(monkeypatch):
    monkeypatch.setattr(alt_codegrees, "hook_product", lambda parts: 7)
    with pytest.raises(ArithmeticError, match=re.escape("hook product 7 does not divide 5!")):
        alt_codegrees.sym_degree((3, 1, 1))


# The faithful degrees of 2.A9 as the shipped data file once held them, in
# a record of their own
FORMER_2A9_DEGREES = [8, 8, 48, 48, 56, 112, 120, 120, 160, 168, 168, 224]


def test_twisted_2a9_is_the_former_records_set():
    cod = twisted_codegree_set_2a9()
    former = {*alt_codegree_set(9).values, *(math.factorial(9) // d for d in FORMER_2A9_DEGREES)}
    assert cod == ("2.A9", math.factorial(9), tuple(sorted(former)))


def test_twisted_2a9_matches_the_spin_degree_oracle():
    degrees = spin_degrees(9)
    assert degrees == FORMER_2A9_DEGREES
    oracle = {*EXPECTED_COD[9], *(math.factorial(9) // int(d) for d in degrees)}
    assert twisted_codegree_set_2a9().values == tuple(sorted(oracle))


def test_spin_degree_oracle_is_whole_and_squares_to_half_the_order():
    # the faithful characters of 2.A_n make up |2.A_n| - |A_n| = n!/2
    for n in range(4, 13):
        degrees = spin_degrees(n)
        assert all(d.denominator == 1 for d in degrees), n
        assert sum(d * d for d in degrees) == math.factorial(n) // 2, n


def test_strict_partitions_are_the_partitions_into_distinct_parts():
    for n in range(16):
        expected = [lam for lam in partitions(n) if len(set(lam)) == len(lam)]
        assert list(alt_codegrees._strict_partitions(n, n)) == expected, n


@pytest.mark.parametrize("parts,error,message", [
    # 2^4 * 9!/10! / 2 = 4/5
    ([(10,)], ArithmeticError, "spin degree 5806080/7257600 of (10,) is not whole"),
    # the true degrees and a degree 0 from the repeated part of (2, 2): the
    # squares still sum to 9!/2, but 0 divides nothing (a whole positive
    # value of the formula small enough to keep that sum, below 430, divides 9!)
    ([*alt_codegrees._strict_partitions(9, 9), (2, 2)], ValueError,
     "degree 0 does not divide |2.A9| = 362880"),
    # only the two characters of degree 8
    ([(9,)], ValueError, "sum of squared degrees is not 181440"),
], ids=["not-whole", "not-a-divisor", "squares"])
def test_twisted_2a9_checks_each_degree_and_the_sum_of_squares(monkeypatch, parts, error,
                                                              message):
    monkeypatch.setattr(alt_codegrees, "_strict_partitions", lambda n, most: iter(parts))
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        twisted_codegree_set_2a9()


def test_the_set_is_walked_on_every_call_and_the_index_once_per_process(walks):
    first = alt_codegree_set(12)
    assert alt_codegree_set(12) == first
    assert walks == [(12, 12)] * 2 and not alt_codegrees._MEMO
    walks.clear()
    members = alt_codegree_members(12)
    assert alt_codegree_members(12) is members
    assert members == frozenset(first.values)
    assert walks == [(12, 12)]


def test_memoised_sets_equal_fresh_walks():
    kept = [alt_codegree_members(n) for n in range(5, 31)]
    assert [frozenset(alt_codegree_set(n).values) for n in range(5, 31)] == kept
    alt_codegrees._MEMO.clear()
    for n, members in zip(range(5, 31), kept):
        fresh = alt_codegree_members(n)
        assert fresh is not members and fresh == members


def test_memo_keeps_the_same_n_in_any_call_order(monkeypatch, walks):
    # with the bound at 7, A5, A6 and A7 are kept and A8 and A9 walked again
    # on every call, whichever n comes first: only n decides what is kept
    monkeypatch.setattr(alt_codegrees, "_MEMO_MAX_N", 7)
    for order in ((8, 5, 9, 6, 7), (7, 9, 6, 5, 8)):
        alt_codegrees._MEMO.clear()
        walks.clear()
        for n in order * 2:
            assert alt_codegree_members(n) == frozenset(EXPECTED_COD[n])
        assert sorted(alt_codegrees._MEMO) == [5, 6, 7]
        assert walks == [(n, n) for n in (*order, *(m for m in order if m > 7))]


def test_membership_index_holds_only_the_memoised_sets(monkeypatch, walks):
    # the bound of test_memo_keeps_the_same_n_in_any_call_order: A8 and A9
    # are past it, so no index is kept for them, and each kept index holds
    # its own n's values.  The catalog is loaded first, as its loader fills
    # the memo with A5, A6, A8
    j2 = parse_group_label("J2")
    h_cod = simple_codegree_set(j2).values
    alt_codegrees._MEMO.clear()
    walks.clear()
    monkeypatch.setattr(alt_codegrees, "_MEMO_MAX_N", 7)
    for n in (8, 5, 9, 6, 7):
        res = check_subset(j2, n)
        assert res.witness == min(set(h_cod) - set(EXPECTED_COD[n]))
        assert res.a_cod_size == len(EXPECTED_COD[n])
    assert list(alt_codegrees._MEMO) == [5, 6, 7]
    for n, members in alt_codegrees._MEMO.items():
        assert members == frozenset(EXPECTED_COD[n]) and alt_codegree_members(n) is members
    assert walks == [(n, n) for n in (8, 5, 9, 6, 7)]


def test_memo_is_shared_and_bounded_under_threads(monkeypatch):
    # eight threads, more than the cores, switching every microsecond, each
    # asking for n = 5..16 from its own starting point, past a bound of 12
    monkeypatch.setattr(alt_codegrees, "_MEMO_MAX_N", 12)
    ns = list(range(5, 17))
    got = []

    def ask(start):
        got.append({n: alt_codegree_members(n) for n in ns[start:] + ns[:start]})

    threads = [threading.Thread(target=ask, args=(3 * i % len(ns),)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and len(got) == 8
    held = alt_codegrees._MEMO
    assert sorted(held) == list(range(5, 13))
    for sets in got:
        assert [sets[n] for n in ns] == [got[0][n] for n in ns]
        assert all(sets[n] is held[n] for n in held)


def test_membership_index_is_one_object_per_n_under_threads(monkeypatch):
    # two threads that both miss n = 12: each walk waits after its last block
    # until the other thread's walk has ended too, so both build an index
    # before either stores, and the store must hand both the first one.  Then
    # each thread checks J2 and A8's other name at 8 and 12
    groups = [parse_group_label(label) for label in ("J2", "PSL(4,2)")]
    for g in groups:
        simple_codegree_set(g)  # the loader walks A5, A6 and A8 before the threads start
    walk = alt_codegrees._codegree_blocks

    def meeting(n_lo, n_hi):
        yield from walk(n_lo, n_hi)
        barrier.wait()

    monkeypatch.setattr(alt_codegrees, "_codegree_blocks", meeting)
    barrier = threading.Barrier(2, timeout=10)
    got = []

    def run():
        got.append((alt_codegree_members(12),
                    [check_subset(g, n) for n in (8, 12) for g in groups]))

    threads = [threading.Thread(target=run) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads) and len(got) == 2
    assert got[0][0] is got[1][0] is alt_codegrees._MEMO[12]
    assert got[0][1] == got[1][1]
    assert [c.verdict for c in got[0][1][:2]] == ["subset_refuted", "isomorphic"]
    assert [c.a_cod_size for c in got[0][1][2:]] == [len(alt_codegrees._MEMO[12])] * 2


def test_memo_keeps_exactly_the_n_up_to_its_bound():
    # the indexes of n = 5..38 hold 62,449 values, within 2^16, and the index
    # of 39 would take them to 75,426: that is where the bound of 38 comes from
    sizes = {n: len(alt_codegree_members(n)) for n in range(5, 41)}
    assert alt_codegrees._MEMO_MAX_N == 38
    assert sum(sizes[n] for n in range(5, 39)) == 62449 <= 1 << 16
    assert sum(sizes[n] for n in range(5, 40)) == 75426 > 1 << 16
    assert list(alt_codegrees._MEMO) == list(range(5, 39))
    assert all(alt_codegree_members(n) is alt_codegrees._MEMO[n] for n in range(5, 39))
    for n in (39, 40):
        assert alt_codegree_members(n) is not alt_codegree_members(n)
    assert list(alt_codegrees._MEMO) == list(range(5, 39))
    alt_codegrees._MEMO.clear()
    for n in (37, 38, 39):
        alt_codegree_members(n)
    assert list(alt_codegrees._MEMO) == [37, 38]


def test_monotone_scan_memory_stays_small(monkeypatch):
    # the run lists of two Durfee sizes at most, each heavy list dropped
    # once no later step reads it: a peak of 1566 live runs for (5, 40),
    # 2429 if the heavy lists stay to the end of each Durfee size
    live = peak = 0
    run_list = alt_codegrees._run_list

    class Runs(list):
        def __del__(self):
            nonlocal live
            live -= len(self)

    def counting_run_list(d, total, shorter, fact):
        nonlocal live, peak
        runs = Runs(run_list(d, total, shorter, fact))
        live += len(runs)
        peak = max(peak, live)
        return runs

    monkeypatch.setattr(alt_codegrees, "_run_list", counting_run_list)
    assert verify_min_codegree_monotone(5, 40)[0]
    assert live == 0 and peak < 1800
