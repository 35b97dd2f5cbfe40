"""Exception search: sieves, the walk's step lemmas, frozen tables, discharge.

Expected rows and witnesses were worked out by hand from the frozen
codegree sets before this module existed; the sweep must reproduce
them exactly.  Witness soundness (witness divides |H| but lies outside
cod(A_n)) is re-verified from scratch here rather than trusted.
"""

import json
import math
from itertools import count, islice
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import codlab.alt_codegrees as alt_codegrees
from codlab.alt_codegrees import CodegreeSet, alt_codegree_set
from codlab.catalog import (
    CLASSICAL_FAMILIES,
    LIE_FAMILIES,
    RANK_FLOOR,
    SPORADIC_LABELS,
    TWISTED_ODD_POWER,
    DataFileError,
    GroupId,
    PrimePower,
    class_number_bound,
    group_label,
    group_order,
    _order_formula,
    lie,
    order_class_shape,
    parse_group_label,
    simple_codegree_set,
    sporadic,
    sporadic_entries,
)
from codlab.exactnum import is_prime
from codlab.search import (
    _class_number_limit,
    _first_missing,
    _k_tail,
    _log2_factorial_floor,
    _m_tail,
    _p_stop,
    _p_tail,
    _refuted_by_bits,
    _sieve,
    _walk,
    check_subset,
    compare_with_golden,
    discharge_rows,
    n_min,
    render_rows_csv,
    run_full_verification,
    schur_a9_size_check,
    schur_degree_equation_solutions,
    sweep_family,
    sweep_sporadic,
)
from oracles import SWEEP_BOXES, box_points, subset_check_by_bisection

# (m, q, n, ratio) per family, the frozen sweep outcome
EXPECTED_PSL_ROWS = [
    (1, 4, 5, 1), (1, 4, 6, 6), (1, 8, 7, 5), (1, 9, 6, 1), (1, 9, 7, 7),
    (1, 5, 5, 1), (1, 5, 6, 6), (1, 7, 7, 15),
    (2, 4, 8, 1), (2, 4, 9, 9), (3, 2, 8, 1), (3, 2, 9, 9),
]
EXPECTED_PSU_ROWS = [(2, 3, 9, 30), (3, 2, 9, 7)]
EXPECTED_OMEGA_ROWS = [(2, 3, 9, 7)]

EXPECTED_WITNESSES = {
    ("PSL(2,4)", 6): 12,
    ("PSL(2,5)", 6): 12,
    ("PSL(2,7)", 7): 21,
    ("PSL(2,8)", 7): 56,
    ("PSL(2,9)", 7): 36,
    ("PSL(3,4)", 8): 320,
    ("PSL(3,4)", 9): 315,
    ("PSL(4,2)", 9): 288,
    ("PSU(3,3)", 9): 189,
    ("PSU(4,2)", 9): 320,
    ("Omega(5,3)", 9): 320,
    ("J2", 10): 1800,
}

ISOMORPHIC_PAIRS = {
    ("PSL(2,4)", 5), ("PSL(2,5)", 5), ("PSL(2,9)", 6), ("PSL(4,2)", 8),
}


def test_n_min():
    assert n_min(parse_group_label("PSL(3,4)")) == 6
    assert n_min(parse_group_label("Omega(5,3)")) == 8
    assert n_min(parse_group_label("E8(2)")) == 120
    assert n_min(parse_group_label("2B2(8)")) == 6
    assert n_min(sporadic("M11")) == 5
    assert n_min(GroupId("G2Prime2")) == 5


def refuted(g):
    """The walk's bit test at g, which has a q."""
    return _refuted_by_bits(order_class_shape(g.family, g.m), g.q.q, n_min(g))


def sieved(g):
    """_sieve(g), for a point the sweep can meet: never one that the
    walk's bit test refuses, which _sieve is not asked to decide."""
    assert g.q is None or not refuted(g), g
    return _sieve(g)


def candidate_n_range(g):
    """The n that the sweep meets for g, in increasing order."""
    return [n for n, _ in sieved(g) or ()]


def feasible(g):
    """The sieve's exact inequality |A_max(5, n_min)| < |H| * k-bound."""
    return sieved(g) is not None


@pytest.mark.parametrize(
    "label,expected",
    [
        ("PSL(2,7)", [7]),
        ("PSL(3,4)", [8, 9]),
        ("PSL(4,2)", [8, 9]),
        ("PSU(3,3)", [9]),
        ("Omega(5,3)", [9]),
        ("J2", [10]),
        ("M11", []),
        ("G2(4)", []),  # order divides no n!/2 inside its window
    ],
)
def test_candidate_n_range(label, expected):
    assert candidate_n_range(parse_group_label(label)) == expected


def test_candidate_range_entries_divide():
    for label in ("PSL(3,4)", "J2", "Omega(5,3)"):
        g = parse_group_label(label)
        order = group_order(g)
        for n in candidate_n_range(g):
            assert (math.factorial(n) // 2) % order == 0
            assert n >= max(5, n_min(g))


def test_candidate_range_cutoff_is_tight():
    # one past the last candidate, the class-number inequality fails
    from codlab.catalog import class_number_bound

    for label in ("PSL(2,7)", "PSL(3,4)", "PSL(4,2)", "PSU(3,3)",
                  "Omega(5,3)", "J2"):
        g = parse_group_label(label)
        last = candidate_n_range(g)[-1]
        num, den = class_number_bound(g)
        lhs = math.factorial(last + 1) // 2
        assert lhs * den >= group_order(g) * num


def oracle_feasible(g):
    """The sieve inequality with n!/2 computed in full."""
    num, den = class_number_bound(g)
    half = math.factorial(max(5, n_min(g))) // 2
    return half * den < group_order(g) * num


def oracle_candidate_n_range(g):
    """candidate_n_range by walking n! up from max(5, n_min) in full; each
    n it passes has fewer bits of floor(log2 i) summed over i <= n, less
    one, than the limit, as 2^(S(n) - 1) <= n!/2 < limit requires."""
    order = group_order(g)
    num, den = class_number_bound(g)
    limit_bits = (-(-order * num // den)).bit_length()
    n = max(5, n_min(g))
    out = []
    while (half := math.factorial(n) // 2) * den < order * num:
        if half % order == 0:
            out.append(n)
        assert sum(i.bit_length() - 1 for i in range(2, n + 1)) - 1 < limit_bits, (g, n)
        n += 1
    return out


def test_sieve_matches_full_factorial_oracle():
    # every point of the old sweep boxes plus the sporadic and Tits groups
    points = [sporadic(entry.label) for entry in sporadic_entries()]
    assert len(points) == 27
    examined = {}
    for family, box in SWEEP_BOXES.items():
        in_box = list(box_points(family, box))
        examined[family] = len(in_box)
        points.extend(in_box)
    assert examined == {
        "PSL": 2644, "PSU": 839, "PSp": 4, "OmegaOdd": 1, "OPlus": 1,
        "OMinus": 12, "G2": 2, "TriD4": 1, "Suzuki": 4,
    }
    assert len(points) == 27 + 3508
    assert max(n_min(g) for g in points) == 21168  # PSL(7,17^63)
    passed = by_bits = 0
    for g in points:
        oracle = oracle_feasible(g)
        if g.q is not None and refuted(g):
            # the walk refuses it by bits, and the full n!/2 agrees
            assert not oracle, g
            by_bits += 1
            continue
        assert feasible(g) == oracle, g
        assert candidate_n_range(g) == oracle_candidate_n_range(g), g
        passed += oracle
    assert by_bits == 3338
    assert passed == 126


def lie_sweep_points():
    """Every point of the old sweep boxes that has a q (all but G2(2)')."""
    return [
        g for family, box in SWEEP_BOXES.items()
        for g in box_points(family, box) if g.q is not None
    ]


def lie_frame_points():
    """Points just past each old box: rank + 2, the next 3 primes, k + 5.

    A family without a box gets the frame of the empty box (0, 0, 0).
    """
    points = []
    for family in LIE_FAMILIES:
        box = SWEEP_BOXES.get(family)
        inner = set(box_points(family, box)) if box else set()
        m_hi, p_hi, k_hi = box or (0, 0, 0)
        p_next = list(islice(filter(is_prime, count(p_hi + 1)), 3))[-1]
        frame = box_points(family, (m_hi + 2, p_next, k_hi + 5))
        points.extend(g for g in frame if g not in inner and g.q is not None)
    return points


def check_bit_bound(g):
    """order_class_shape's bound B = bitlen(q)(D + d) + c on the limit is
    sound at g, and the order formula's q-degree D is tight there."""
    order = group_order(g)
    limit = _class_number_limit(g, order)
    _, degree, c = order_class_shape(g.family, g.m)
    bits = g.q.q.bit_length() * degree + c
    assert limit.bit_length() <= bits, g
    q_degree = _order_formula(g.family, g.m)[1]
    assert (g.q.q.bit_length() - 1) * q_degree - 5 < order.bit_length(), g
    return limit.bit_length() == bits


def test_bit_bound_on_sweep_points():
    points = lie_sweep_points()
    assert len(points) == 3507
    reached = sum(check_bit_bound(g) for g in points)
    assert reached > 0  # the bound is attained, not just loose
    assert sum(map(refuted, points)) == 3338


def test_bit_bound_past_the_boxes():
    points = lie_frame_points()
    assert len(points) == 4785
    for g in points:
        check_bit_bound(g)


WALKED = {
    "PSL": 123, "PSU": 41, "PSp": 11, "OmegaOdd": 4, "OPlus": 9, "OMinus": 9,
    "G2": 6, "F4": 1, "E6": 1, "E7": 1, "E8": 0, "TwistedE6": 1, "TriD4": 3,
    "Suzuki": 7, "Ree": 0, "TwistedF4": 0,
}


def test_sweeps_build_one_order_per_walked_point(monkeypatch):
    # the walk's stops do all the refusing by bits: each walked point
    # builds |H| once, and none is refuted by bits
    built = []

    def recording_order(g):
        built.append(g)
        return group_order(g)

    monkeypatch.setattr("codlab.search.group_order", recording_order)
    for family in LIE_FAMILIES:
        sweep_family(family)
    monkeypatch.undo()
    assert len(built) == 217
    assert built == [g for family in LIE_FAMILIES for g in _walk(family)]
    assert not any(g.q is not None and refuted(g) for g in built)


def test_sieve_meets_first_n_up_to_78():
    # _sieve's domain: the 217 walked points, whose first n = max(5, n_min)
    # is at most 78, and the 27 sporadic groups, whose first n is 5.  The
    # first n are checked before any sieving, so a walk that let a point of
    # huge n_min through fails here rather than building its factorial.
    walked = [g for family in LIE_FAMILIES for g in _walk(family)]
    assert len(walked) == 217
    first = {g: max(5, n_min(g)) for g in walked}
    assert max(first.values()) == 78
    assert {group_label(g) for g, n in first.items() if n == 78} == {"PSL(13,2)", "PSU(13,2)"}
    points = [sporadic(label) for label in SPORADIC_LABELS]
    assert len(points) == 27
    assert {max(5, n_min(g)) for g in points} == {5}
    found = [_sieve(g) for g in walked]
    assert sum(f is None for f in found) == 118
    assert sum(f is not None for f in found) == 99


def test_walk_counts():
    walked = {f: sweep_family(f).points_examined for f in LIE_FAMILIES}
    assert walked == WALKED
    assert sum(walked.values()) == 217
    for family in LIE_FAMILIES:
        points = list(_walk(family))
        assert len(points) == len(set(points)) == WALKED[family]


def test_walk_covers_the_old_boxes():
    # every point of the old boxes and of the frame past them is walked,
    # or refuted by bits; so every point that passes the sieve is walked
    walked = {g for family in LIE_FAMILIES for g in _walk(family)}
    points = [g for family, box in SWEEP_BOXES.items() for g in box_points(family, box)]
    points += lie_frame_points()
    assert len(points) == 3508 + 4785
    skipped = [g for g in points if g not in walked]
    assert len(skipped) == 8092
    assert all(g.q is not None and refuted(g) for g in skipped)


def bit_gain(n, n_next):
    """S(max(5, n')) - S(max(5, n)), the bits that n! gains on the way."""
    return _log2_factorial_floor(max(5, n_next)) - _log2_factorial_floor(max(5, n))


def bit_cost(shape, q, q_next):
    """B at q' less B at q: the bits the limit may gain."""
    return (q_next.bit_length() - q.bit_length()) * shape[1]


def lemma_shapes():
    """(family, shape) for every Lie family at ranks floor..floor+10."""
    for family in LIE_FAMILIES:
        floor = RANK_FLOOR.get(family)
        for m in [None] if floor is None else range(floor, floor + 11):
            yield family, order_class_shape(family, m)


PRIMES = [p for p in range(2, 200) if is_prime(p)]


def test_k_step_lemma():
    # where the k tail holds, n! gains at least the limit's bits to k + step
    # (2 in the twisted families), and the tail holds there again
    held = 0
    for family, shape in lemma_shapes():
        step = 2 if family in TWISTED_ODD_POWER else 1
        for p in PRIMES:
            for k in range(1, 40):
                n, n_next = shape[0] * k * (p - 1), shape[0] * (k + step) * (p - 1)
                if not _k_tail(shape, p, n):
                    continue
                held += 1
                assert bit_gain(n, n_next) >= bit_cost(shape, p**k, p ** (k + step)), (
                    family, shape, p, k)
                assert _k_tail(shape, p, n_next), (family, shape, p, k)
    assert held > 130_000


def test_p_step_lemma():
    # where the p tail holds, n! gains at least the limit's bits on the way
    # to the next prime, for every k; the tails hold at the next prime again
    held = 0
    for family, shape in lemma_shapes():
        if family in TWISTED_ODD_POWER:
            continue
        e = shape[0]
        for p, p_next in zip(PRIMES, PRIMES[1:]):
            if not _p_tail(shape, e * (p - 1)):
                continue
            held += 1
            for k in range(1, 40):
                n, n_next = e * k * (p - 1), e * k * (p_next - 1)
                assert bit_gain(n, n_next) >= bit_cost(shape, p**k, p_next**k), (
                    family, shape, p, k)
            assert _p_tail(shape, e * (p_next - 1)), (family, shape, p)
            if _k_tail(shape, p, e * (p - 1)):
                assert _k_tail(shape, p_next, e * (p_next - 1)), (family, shape, p)
    assert held > 3_000


# Δe and Δ(D + d) from rank m to m + 1, as the module docstring states them
RANK_STEPS = {
    "PSL": lambda m: (m + 1, 2 * m + 4),
    "PSU": lambda m: (m + 1, 2 * m + 4),
    "PSp": lambda m: (2 * m + 1, 4 * m + 4),
    "OmegaOdd": lambda m: (2 * m + 1, 4 * m + 4),
    "OPlus": lambda m: (2 * m, 4 * m + 2),
    "OMinus": lambda m: (2 * m, 4 * m + 2),
}


@pytest.mark.parametrize("family", CLASSICAL_FAMILIES)
def test_m_step_lemma(family):
    # along the rank: Δe/Δ(D + d) does not decrease, c is constant, and an
    # m stop at m is an m stop at m + 1 whose bits at (2, 1) keep up
    floor = RANK_FLOOR[family]
    shapes = {m: order_class_shape(family, m) for m in range(floor, floor + 203)}
    stops = 0
    for m in range(floor, floor + 201):
        (e, degree, c), (e1, degree1, c1), (e2, degree2, _) = (
            shapes[m], shapes[m + 1], shapes[m + 2])
        assert (e1 - e, degree1 - degree) == RANK_STEPS[family](m)
        assert c1 == c
        assert (e2 - e1) * (degree1 - degree) >= (e1 - e) * (degree2 - degree1), m
        if _p_stop(shapes[m], 2) and _m_tail(family, m):
            stops += 1
            assert bit_gain(e, e1) >= 2 * (degree1 - degree), m
            assert _p_stop(shapes[m + 1], 2) and _m_tail(family, m + 1), m
    assert stops > 180


def test_log2_factorial_floor_closed_form():
    # S(n) = sum of floor(log2 i) for i <= n, and 2^S(n) <= n!
    total, fact = 0, 1
    for n in range(1, 3001):
        total += n.bit_length() - 1
        fact *= n
        assert _log2_factorial_floor(n) == total, n
        assert 1 << total <= fact, n


def test_a_point_past_the_frontier_is_refused_by_bits(monkeypatch):
    # PSL(7,17^63), n_min 21168, is refused by the walk's bit test with no
    # order and no factorial built; the PSL walk stops long before it
    built = []
    monkeypatch.setattr(
        "codlab.search.factorial", lambda k: built.append(k) or math.factorial(k)
    )
    monkeypatch.setattr("codlab.search.group_order", lambda g: built.append(g) or group_order(g))
    psl = lie("PSL", PrimePower(17, 63), m=6)
    assert n_min(psl) == 21168
    assert refuted(psl)
    assert psl not in set(_walk("PSL"))
    assert built == []


def test_candidate_range_infeasible_exceptional():
    # |A_36| already exceeds |E6(2)| * bound, so the window is empty
    assert candidate_n_range(parse_group_label("E6(2)")) == []


EXPECTED_BOUNDS = {
    "PSL": (5, 7, 42),
    "PSU": (5, 3, 8),
    "PSp": (4, 2, 2),
    "OmegaOdd": (2, 3, 1),
    "OPlus": (4, 2, 1),
    "OMinus": (4, 2, 1),
    "G2": (None, 2, 2),
    "TriD4": (None, 2, 1),
    "Suzuki": (4, 2, 9),
}

EMPTY_BOUND_FAMILIES = ("F4", "E6", "E7", "E8", "TwistedE6", "Ree", "TwistedF4")


@pytest.mark.parametrize("family", sorted(EXPECTED_BOUNDS))
def test_derived_bounds(family):
    rep = sweep_family(family)
    assert (rep.m_max, rep.p_max, rep.k_max) == EXPECTED_BOUNDS[family]


@pytest.mark.parametrize("family", EMPTY_BOUND_FAMILIES)
def test_infeasible_families(family):
    rep = sweep_family(family)
    assert (rep.m_max, rep.p_max, rep.k_max) == (None, None, None)
    assert rep.rows == ()


@pytest.mark.parametrize("family", ["Sporadic", "Alternating", "G2Prime2", "psl"])
def test_sweep_family_refuses_a_non_lie_family(family):
    with pytest.raises(ValueError, match=f"unknown Lie family '{family}'") as err:
        sweep_family(family)
    assert ", ".join(LIE_FAMILIES) in str(err.value)


def test_psl_sweep_matches_frozen_table():
    rep = sweep_family("PSL")
    got = [(r.m, r.q, r.n, r.ratio) for r in rep.rows]
    assert sorted(got) == sorted(EXPECTED_PSL_ROWS)
    assert len(rep.rows) == 12


def test_psu_and_omega_sweeps():
    psu = sweep_family("PSU")
    assert [(r.m, r.q, r.n, r.ratio) for r in psu.rows] == EXPECTED_PSU_ROWS
    om = sweep_family("OmegaOdd")
    assert [(r.m, r.q, r.n, r.ratio) for r in om.rows] == EXPECTED_OMEGA_ROWS


@pytest.mark.parametrize("family", ["PSp", "OPlus", "OMinus"])
def test_classical_families_without_rows(family):
    assert sweep_family(family).rows == ()


@pytest.mark.parametrize(
    "family",
    ["G2", "F4", "E6", "E7", "E8", "TwistedE6", "TriD4", "Suzuki", "Ree",
     "TwistedF4"],
)
def test_exceptional_sweeps_empty(family):
    rep = sweep_family(family)
    assert rep.rows == ()


def test_g2_swept_through_derived_subgroup():
    rep = sweep_family("G2")
    assert any("G2(2)'" in note and "6048" in note for note in rep.notes)


def test_suzuki_odd_power_bound():
    rep = sweep_family("Suzuki")
    assert rep.m_max == 4  # a <= 4, i.e. q = 2^3 .. 2^9
    assert rep.k_max == 9


def test_psp4_over_even_q_passes_no_sieve():
    # PSp(4, 2^k) is in no swept family: PSp starts at rank 3, and its
    # twin Omega(5, q) is swept for odd q only.  Exact ints only: no n
    # gives both |H| | n!/2 and 5 * n!/2 < 76 * q^2 * |H| (bound 76/5 q^m).
    for k in range(2, 13):
        q = 2**k
        order = q**4 * (q**2 - 1) * (q**4 - 1)
        limit = 76 * q**2 * order
        n_lo = 4 * k  # e*k*(p-1) with e = m^2 = 4 and p = 2
        assert q**12 < 2 * q**2 * order < 2 * q**12
        assert (5 * (math.factorial(n_lo) // 2) < limit) == (k <= 5), k
        n = 5
        while 5 * (math.factorial(n) // 2) < limit:
            assert (math.factorial(n) // 2) % order, (k, n)
            n += 1
    # k >= 13 stays infeasible: q^2 * |H| lies in (q^12 / 2, q^12), so each
    # step in k multiplies it by less than 2^13, while (4k)! gains
    # (4k+1)(4k+2)(4k+3)(4k+4) >= 25*26*27*28 for k >= 6
    assert 25 * 26 * 27 * 28 > 2**13


def test_sporadic_sweep():
    rows = sweep_sporadic()
    assert len(rows) == 1
    row = rows[0]
    assert (row.label, row.n, row.ratio) == ("J2", 10, 3)


def test_check_subset_verdicts(monkeypatch):
    for (label, n), witness in EXPECTED_WITNESSES.items():
        res = check_subset(parse_group_label(label), n)
        assert res.verdict == "subset_refuted", (label, n)
        assert res.witness == witness
        assert res.ok
    for label, n in ISOMORPHIC_PAIRS:
        res = check_subset(parse_group_label(label), n)
        assert res.verdict == "isomorphic", (label, n)
        assert res.witness is None
        assert res.ok
    # a group that is not A8 with exactly the codegrees of A8: the alarm
    a8 = alt_codegree_set(8)
    monkeypatch.setattr("codlab.search.simple_codegree_set",
                        lambda g: CodegreeSet("PSL(3,4)", a8.order, a8.values))
    res = check_subset(parse_group_label("PSL(3,4)"), 8)
    assert (res.verdict, res.witness, res.ok) == ("subset_holds", None, False)


def test_witnesses_sound():
    # independent re-check: witness is a codegree of H missing from A_n
    for (label, n), witness in EXPECTED_WITNESSES.items():
        h_cod = set(simple_codegree_set(parse_group_label(label)).values)
        a_cod = set(alt_codegree_set(n).values)
        assert witness in h_cod
        assert witness not in a_cod
        assert witness == min(h_cod - a_cod)


# The benchmark's query table (perfbench/oracle.json), read and never
# written here: (verdict, witness) of check_subset for each of 12 labels
# at n = 5..27, computed without codlab.
_QUERY_TABLE = json.loads(
    (Path(__file__).parents[1] / "perfbench" / "oracle.json").read_text("utf-8")
)["queries"]["table"]


def test_check_subset_matches_the_independent_query_table():
    assert len(_QUERY_TABLE) == 276
    for key, want in _QUERY_TABLE.items():
        label, n = key.rsplit("|", 1)
        res = check_subset(parse_group_label(label), int(n))
        assert [res.verdict, None if res.witness is None else str(res.witness)] == want, key


sorted_sets = st.frozensets(st.integers(1, 60), max_size=12).map(sorted).map(tuple)


@given(sorted_sets, sorted_sets)
@settings(max_examples=300, deadline=None)
def test_first_missing_is_the_least_of_the_set_difference(values, within):
    assert _first_missing(values, frozenset(within)) == min(set(values) - set(within),
                                                            default=None)


def _bisection_answer(label, n):
    """check_subset's fields, with the subset test of the bisection oracle."""
    h = simple_codegree_set(parse_group_label(label))
    verdict, witness, h_size, a_size = subset_check_by_bisection(
        h.group_label, h.values, n, alt_codegree_set(n).values)
    return h.group_label, n, verdict, witness, h.order, h_size, a_size


_QUERY_LABELS = sorted({key.rsplit("|", 1)[0] for key in _QUERY_TABLE})


def test_check_subset_matches_a_bisection_oracle():
    # the hash index of each cod(A_n) against bisection in its sorted tuple:
    # verdict, witness and both sizes, for the benchmark's 12 labels x 5..27
    assert len(_QUERY_LABELS) == 12
    for n in range(5, 28):
        for label in _QUERY_LABELS:
            assert check_subset(parse_group_label(label), n) == _bisection_answer(label, n), (
                label, n)
    assert sorted(alt_codegrees._MEMO) == list(range(5, 28))
    for n, members in alt_codegrees._MEMO.items():
        assert members == frozenset(alt_codegree_set(n).values)


def test_check_subset_matches_the_oracle_past_the_memo_bound(monkeypatch):
    # with every n past the memo's bound, cod(A_n) and its index are built
    # on every call and neither is kept
    monkeypatch.setattr(alt_codegrees, "_MEMO_MAX_N", 4)
    for n in (5, 8, 9):
        for label in _QUERY_LABELS:
            assert check_subset(parse_group_label(label), n) == _bisection_answer(label, n), (
                label, n)
        first = alt_codegrees.alt_codegree_members(n)
        assert first == frozenset(alt_codegree_set(n).values)
        assert alt_codegrees.alt_codegree_members(n) is not first
        assert alt_codegree_set(n) is not alt_codegree_set(n)
    assert not alt_codegrees._MEMO


def test_discharge_covers_all_rows():
    rows = sweep_family("PSL").rows + sweep_family("PSU").rows
    checks = discharge_rows(rows)
    assert len(checks) == len(rows)
    assert all(c.verdict in ("isomorphic", "subset_refuted") for c in checks)


def test_schur_equations():
    scan = schur_degree_equation_solutions()
    assert scan.solutions == (9,)
    assert scan.exhausted
    # the surviving identity: 8 = 2^(floor(9/2)-1)
    assert 9 - 1 == 2 ** (9 // 2 - 1)
    assert schur_degree_equation_solutions(10, 64).solutions == ()
    with pytest.raises(ValueError):
        schur_degree_equation_solutions(10, 9)
    with pytest.raises(ValueError):
        schur_degree_equation_solutions(7, 64)  # equations need n > 7


def test_schur_2a9_sizes():
    rep = schur_a9_size_check()
    assert (rep.a9_size, rep.twisted_size) == (16, 21)
    assert rep.proper_superset
    assert rep.new_values == (1620, 2268, 3024, 7560, 45360)
    assert rep.ok


def test_render_rows_csv_quotes_labels():
    text = render_rows_csv(sweep_family("PSU").rows)
    lines = text.splitlines()
    assert lines[0] == "family,label,m,p,k,q,n,ratio"
    assert lines[1] == 'PSU,"PSU(3,3)",2,3,1,3,9,30'


def test_golden_comparison_detects_drift():
    sp = sweep_sporadic()
    families = tuple(
        sweep_family(f) for f in ("PSL", "PSU", "OmegaOdd", "PSp")
    )
    ok, diffs = compare_with_golden(sp, families)
    assert ok and diffs == ()
    # drop a row: must be flagged
    clipped = families[0]._replace(rows=families[0].rows[:-1])
    ok, diffs = compare_with_golden(sp, (clipped,) + families[1:])
    assert not ok
    assert any("table_psl.csv" in d for d in diffs)
    # rows in a family with no golden file are flagged after every golden
    # diff, which follow the order of the golden files
    psl, psu, _, psp = families
    stray = psp._replace(rows=psl.rows[:2])
    ok, diffs = compare_with_golden(sp, families[:3] + (stray,))
    assert (ok, diffs) == (False, ("PSp: expected no rows, found 2",))
    ok, diffs = compare_with_golden(sp[:-1], (stray, psu, clipped))
    assert (ok, diffs) == (False, (
        "PSL: sweep output differs from table_psl.csv",
        "OmegaOdd: sweep output differs from table_omega_odd.csv",
        "Sporadic: sweep output differs from sporadic.csv",
        "PSp: expected no rows, found 2",
    ))


def test_full_verification_passes():
    rep = run_full_verification()
    assert rep.ok
    assert rep.monotone_ok
    assert rep.golden_ok
    assert len(rep.rows) == 16
    assert sum(1 for c in rep.checks if c.verdict == "isomorphic") == 4
    assert rep.unresolved == ()


def test_full_verification_walks_no_range_past_7(walks):
    # monotonicity past n = 7 is the branching lemma's; every other walk
    # is the single n of one codegree set, made once however often the
    # loader and the survivor checks ask for it
    assert run_full_verification().monotone_ok
    assert [r for r in walks if r[0] != r[1]] == [(5, 7)]
    assert max(n for r in walks for n in r) == 10  # cod(A10) for J2@10
    assert sorted(lo for lo, hi in walks if lo == hi) == [5, 6, 7, 8, 9, 10]


@given(st.sampled_from(["PSL", "PSU", "OmegaOdd"]))
@settings(max_examples=6, deadline=None)
def test_row_arithmetic_exact(family):
    # re-assert both sieve predicates on every emitted row
    from codlab.catalog import class_number_bound

    for row in sweep_family(family).rows:
        g = parse_group_label(row.label)
        order = group_order(g)
        half = math.factorial(row.n) // 2
        assert order * row.ratio == half
        num, den = class_number_bound(g)
        assert half * den < order * num


def test_sweeps_read_no_data_file(tmp_path, monkeypatch):
    # the size sieve reads |H| and k(H) from catalog's tables, so a missing
    # data file changes no sweep
    with_file = sweep_sporadic(), [sweep_family(f) for f in LIE_FAMILIES]
    monkeypatch.setenv("CODLAB_DATA", str(tmp_path / "missing.jsonl"))
    assert (sweep_sporadic(), [sweep_family(f) for f in LIE_FAMILIES]) == with_file
    assert class_number_bound(sporadic("M")) == (194, 1)


def test_missing_degree_record_is_loud(tmp_path, monkeypatch):
    # strip the J2 record: the discharge of J2 must name the gap
    from codlab.catalog import _PACKAGED_DATA

    lines = _PACKAGED_DATA.read_text("utf-8").splitlines()
    pruned = [ln for ln in lines if '"label": "J2"' not in ln]
    assert len(pruned) == len(lines) - 1
    target = tmp_path / "noj2.jsonl"
    target.write_text("\n".join(pruned) + "\n", "utf-8")
    monkeypatch.setenv("CODLAB_DATA", str(target))
    with pytest.raises(DataFileError, match="no degree data for J2"):
        simple_codegree_set(sporadic("J2"))
