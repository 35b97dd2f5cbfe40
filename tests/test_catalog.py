"""Group catalog: orders, bounds, labels, embedded degree data.

Order formulas are pinned against published values (ATLAS of Finite
Groups); sporadic orders are additionally checked against their full
prime factorizations, which is how those values are usually quoted.
"""

import importlib.util
import io
import json
import re
import sys
import tempfile
import threading
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, reject, settings, strategies as st

from codlab.catalog import (
    DataFileError,
    GroupId,
    LIE_FAMILIES,
    RANK_FLOOR,
    SPORADIC_LABELS,
    TWISTED_ODD_POWER,
    alternating,
    class_number_bound,
    group_label,
    group_order,
    lie,
    order_class_shape,
    parse_group_label,
    prime_power,
    representative,
    simple_codegree_set,
    sporadic,
    sporadic_entries,
    _PACKAGED_DATA,
    _SPORADIC_ATLAS,
    _load_catalog,
    _order_formula,
)
from codlab import alt_codegrees, catalog
from codlab.alt_codegrees import twisted_codegree_set_2a9
from codlab.cli import main
from codlab.exactnum import PrimePower, factor, format_factored
from codlab.search import _walk, check_subset, run_full_verification
from conftest import use_data_file
from oracles import (ISOMORPHIC_LABELS, lie_class_bound, lie_order, partitions,
                     psl2_class_number, psl2_degrees, same_group, shipped_records,
                     sp4_class_number, valuation)

KNOWN_ORDERS = {
    "PSL(2,4)": 60,
    "PSL(2,5)": 60,
    "PSL(2,7)": 168,
    "PSL(2,8)": 504,
    "PSL(2,9)": 360,
    "PSL(3,4)": 20160,
    "PSL(4,2)": 20160,
    "PSU(3,3)": 6048,
    "PSU(4,2)": 25920,
    "PSp(6,2)": 1451520,
    "Omega(5,3)": 25920,
    "Omega(7,3)": 4585351680,
    "O+(8,2)": 174182400,
    "O-(8,2)": 197406720,
    "G2(3)": 4245696,
    "G2(4)": 251596800,
    "2B2(8)": 29120,
    "2B2(32)": 32537600,
    "3D4(2)": 211341312,
    "2G2(27)": 10073444472,
    "F4(2)": 3311126603366400,
    "2E6(2)": 76532479683774853939200,
}


@pytest.mark.parametrize("label,order", sorted(KNOWN_ORDERS.items()))
def test_orders_match_published_values(label, order):
    assert group_order(parse_group_label(label)) == order


SPORADIC_FACTORIZATIONS = {
    "M11": [(2, 4), (3, 2), (5, 1), (11, 1)],
    "M12": [(2, 6), (3, 3), (5, 1), (11, 1)],
    "J1": [(2, 3), (3, 1), (5, 1), (7, 1), (11, 1), (19, 1)],
    "M22": [(2, 7), (3, 2), (5, 1), (7, 1), (11, 1)],
    "J2": [(2, 7), (3, 3), (5, 2), (7, 1)],
    "M23": [(2, 7), (3, 2), (5, 1), (7, 1), (11, 1), (23, 1)],
    "HS": [(2, 9), (3, 2), (5, 3), (7, 1), (11, 1)],
    "J3": [(2, 7), (3, 5), (5, 1), (17, 1), (19, 1)],
    "M24": [(2, 10), (3, 3), (5, 1), (7, 1), (11, 1), (23, 1)],
    "McL": [(2, 7), (3, 6), (5, 3), (7, 1), (11, 1)],
    "He": [(2, 10), (3, 3), (5, 2), (7, 3), (17, 1)],
    "Ru": [(2, 14), (3, 3), (5, 3), (7, 1), (13, 1), (29, 1)],
    "Suz": [(2, 13), (3, 7), (5, 2), (7, 1), (11, 1), (13, 1)],
    "ON": [(2, 9), (3, 4), (5, 1), (7, 3), (11, 1), (19, 1), (31, 1)],
    "Co3": [(2, 10), (3, 7), (5, 3), (7, 1), (11, 1), (23, 1)],
    "Co2": [(2, 18), (3, 6), (5, 3), (7, 1), (11, 1), (23, 1)],
    "Fi22": [(2, 17), (3, 9), (5, 2), (7, 1), (11, 1), (13, 1)],
    "HN": [(2, 14), (3, 6), (5, 6), (7, 1), (11, 1), (19, 1)],
    "Ly": [(2, 8), (3, 7), (5, 6), (7, 1), (11, 1), (31, 1), (37, 1), (67, 1)],
    "Th": [(2, 15), (3, 10), (5, 3), (7, 2), (13, 1), (19, 1), (31, 1)],
    "Fi23": [(2, 18), (3, 13), (5, 2), (7, 1), (11, 1), (13, 1), (17, 1), (23, 1)],
    "Co1": [(2, 21), (3, 9), (5, 4), (7, 2), (11, 1), (13, 1), (23, 1)],
    "J4": [(2, 21), (3, 3), (5, 1), (7, 1), (11, 3), (23, 1), (29, 1), (31, 1),
           (37, 1), (43, 1)],
    "2F4(2)'": [(2, 11), (3, 3), (5, 2), (13, 1)],
    "Fi24'": [(2, 21), (3, 16), (5, 2), (7, 3), (11, 1), (13, 1),
              (17, 1), (23, 1), (29, 1)],
    "B": [(2, 41), (3, 13), (5, 6), (7, 2), (11, 1), (13, 1), (17, 1),
          (19, 1), (23, 1), (31, 1), (47, 1)],
    "M": [(2, 46), (3, 20), (5, 9), (7, 6), (11, 2), (13, 3), (17, 1),
          (19, 1), (23, 1), (29, 1), (31, 1), (41, 1), (47, 1),
          (59, 1), (71, 1)],
}


@pytest.mark.parametrize("label", sorted(SPORADIC_FACTORIZATIONS))
def test_sporadic_orders_factor_correctly(label):
    # the library's table, against this copy
    entry = next(e for e in sporadic_entries() if e.label == label)
    assert factor(entry.order) == SPORADIC_FACTORIZATIONS[label]
    assert entry.order == group_order(sporadic(label))
    assert format_factored(entry.order) == _SPORADIC_ATLAS[label][0]


# k(H), the number of conjugacy classes, as the ATLAS of Finite Groups gives it
SPORADIC_CLASS_COUNTS = {
    "M11": 10, "M12": 15, "J1": 15, "M22": 12, "J2": 21, "M23": 17, "HS": 24,
    "J3": 21, "M24": 26, "McL": 24, "He": 33, "Ru": 36, "Suz": 43, "ON": 30,
    "Co3": 42, "Co2": 60, "Fi22": 65, "HN": 54, "Ly": 53, "Th": 48, "Fi23": 98,
    "Co1": 101, "J4": 62, "Fi24'": 108, "B": 184, "M": 194, "2F4(2)'": 22,
}


def test_sporadic_table_complete():
    entries = sporadic_entries()
    assert len(entries) == 27
    assert [e.label for e in entries] == list(SPORADIC_LABELS)
    assert set(SPORADIC_FACTORIZATIONS) == set(SPORADIC_LABELS)
    # the size sieve's k(H) for each sporadic group, against this copy
    assert {e.label: e.class_count for e in entries} == SPORADIC_CLASS_COUNTS
    for e in entries:
        assert class_number_bound(sporadic(e.label)) == (e.class_count, 1)


def test_alternating_coincidences():
    assert group_order(parse_group_label("PSL(2,4)")) == group_order(alternating(5))
    assert group_order(parse_group_label("PSL(2,9)")) == group_order(alternating(6))
    assert group_order(parse_group_label("PSL(4,2)")) == group_order(alternating(8))
    assert group_order(parse_group_label("PSU(4,2)")) == group_order(
        parse_group_label("Omega(5,3)")
    )


def test_isomorphism_table_is_the_atlas_classes():
    # each group the catalog names twice maps to one representative, an A_n
    # where it is one, of the same order; a representative maps to itself
    table = catalog._REPRESENTATIVE
    assert len(table) == len(catalog._ISOMORPHISMS) == 7
    assert all(source for _, _, source in catalog._ISOMORPHISMS)
    classes = {}
    for g, rep in table.items():
        assert representative(g) == rep and group_order(g) == group_order(rep), g
        assert representative(rep) == rep and rep not in table, rep
        classes.setdefault(rep, {group_label(rep)}).add(group_label(g))
    assert sorted(map(sorted, classes.values())) == sorted(map(sorted, ISOMORPHIC_LABELS))
    assert sorted(group_label(rep) for rep in classes if rep.family == "Alternating") == [
        "A5", "A6", "A8"]


def test_catalog_groups_of_one_order_are_one_group_or_artins_pairs():
    # over A5..A27, the sporadic groups and every point the sweeps walk, groups
    # of one order have one representative, save the pairs that are not
    # isomorphic: A8 and PSL(3,4), and PSp(2m,q) and Omega(2m+1,q) at odd q
    walked = [g for family in LIE_FAMILIES for g in _walk(family)]
    points = [*map(alternating, range(5, 28)), *map(sporadic, SPORADIC_LABELS), *walked]
    # each group named twice is met through its representative: an A_n, or a
    # walked point (G2(2)' through PSU(3,3))
    assert all(rep.family == "Alternating" or rep in walked
               for rep in catalog._REPRESENTATIVE.values())
    by_order = {}
    for g in points:
        by_order.setdefault(group_order(g), set()).add(representative(g))
    clashes = sorted(sorted(map(group_label, reps)) for reps in by_order.values()
                     if len(reps) > 1)
    assert clashes == [["A8", "PSL(3,4)"], ["Omega(7,3)", "PSp(6,3)"]]
    assert not any(same_group(*pair) for pair in clashes)


def test_every_shipped_alias_is_a_table_entry_of_its_record():
    lines = _PACKAGED_DATA.read_text(encoding="utf-8").splitlines()[1:]
    aliases = [(alias, rec["label"]) for rec in map(json.loads, lines)
               for alias in rec.get("aliases", ())]
    assert aliases == [("G2(2)'", "PSU(3,3)"), ("PSU(4,2)", "Omega(5,3)")]
    for alias, label in aliases:
        assert catalog._REPRESENTATIVE[parse_group_label(alias)] == parse_group_label(label)


def test_each_table_entry_gets_its_representatives_verdicts():
    # under its own label, with the verdict and witness of its representative,
    # whether the file has a record of it or not (PSL(3,2) has none)
    for label, rep_label, _ in catalog._ISOMORPHISMS:
        g, rep = parse_group_label(label), parse_group_label(rep_label)
        for n in range(5, 28):
            got, expected = check_subset(g, n), check_subset(rep, n)
            assert got._replace(label=rep_label) == expected, (label, n)
            assert got.label == label
    psl32 = check_subset(parse_group_label("PSL(3,2)"), 7)
    assert (psl32.label, psl32.verdict, psl32.witness, psl32.h_order) == (
        "PSL(3,2)", "subset_refuted", 21, 168)
    assert simple_codegree_set(parse_group_label("PSL(3,2)")).group_label == "PSL(3,2)"


_SAMPLE_POINTS = [
    ("PSL", 1, 2, 2), ("PSL", 2, 3, 1), ("PSL", 3, 2, 1), ("PSL", 4, 5, 1),
    ("PSU", 2, 3, 1), ("PSU", 3, 2, 1), ("PSU", 4, 2, 2),
    ("PSp", 3, 2, 1), ("PSp", 4, 3, 1),
    ("OmegaOdd", 2, 3, 1), ("OmegaOdd", 3, 3, 1), ("OmegaOdd", 2, 5, 1),
    ("OPlus", 4, 2, 1), ("OPlus", 4, 3, 1),
    ("OMinus", 4, 2, 1), ("OMinus", 5, 2, 1),
    ("G2", None, 3, 1), ("G2", None, 2, 2),
    ("F4", None, 2, 1), ("E6", None, 2, 1), ("E7", None, 2, 1),
    ("E8", None, 2, 1), ("TwistedE6", None, 2, 1), ("TriD4", None, 2, 1),
    ("Suzuki", None, 2, 3), ("Ree", None, 3, 3), ("TwistedF4", None, 2, 3),
]


def q_exponent(g):
    """e with |G|_p = q^e, as order_class_shape gives it."""
    return order_class_shape(g.family, g.m)[0]


def q_degree(g):
    """D, the q-degree of the order formula, so |G| <= q^D."""
    return _order_formula(g.family, g.m)[1]


@pytest.mark.parametrize("family,m,p,k", _SAMPLE_POINTS)
def test_q_part_valuation(family, m, p, k):
    # p divides no (q^i - 1) factor, so v_p(|G|) is exactly e*k
    g = lie(family, PrimePower(p, k), m=m)
    assert valuation(group_order(g), p) == q_exponent(g) * k


EXPECTED_EXPONENTS = {
    ("PSL", 3): 6, ("PSU", 2): 3, ("PSp", 3): 9, ("OmegaOdd", 2): 4,
    ("OPlus", 4): 12, ("OMinus", 4): 12, ("G2", None): 6,
    ("F4", None): 24, ("E6", None): 36, ("TwistedE6", None): 36,
    ("E7", None): 63, ("E8", None): 120, ("TriD4", None): 12,
    ("Suzuki", None): 2, ("Ree", None): 3, ("TwistedF4", None): 12,
}


_SMALLEST_Q = {
    "Suzuki": PrimePower(2, 3), "Ree": PrimePower(3, 3),
    "TwistedF4": PrimePower(2, 3), "OmegaOdd": PrimePower(3, 1),
    "PSU": PrimePower(3, 1), "G2": PrimePower(3, 1),
}


@pytest.mark.parametrize("key,e", sorted(EXPECTED_EXPONENTS.items(), key=str))
def test_q_part_exponents(key, e):
    family, m = key
    q = _SMALLEST_Q.get(family, PrimePower(2, 1))
    assert q_exponent(lie(family, q, m=m)) == e


@pytest.mark.parametrize(
    "label",
    ["PSL(2,4)", "PSL(5,3)", "PSU(3,5)", "PSp(8,2)", "Omega(7,5)",
     "O+(10,2)", "O-(8,3)", "G2(5)", "G2(2)'", "F4(2)", "E6(4)", "E7(2)",
     "E8(3)", "2E6(2)", "3D4(3)", "2B2(32)", "2G2(27)", "2F4(8)",
     "A7", "M11", "2F4(2)'"],
)
def test_label_roundtrip(label):
    assert group_label(parse_group_label(label)) == label


@pytest.mark.parametrize(
    "ctor",
    [
        lambda: lie("PSL", PrimePower(3, 1), m=1),   # PSL(2,3) solvable
        lambda: lie("PSU", PrimePower(2, 1), m=2),   # PSU(3,2) solvable
        lambda: lie("OmegaOdd", PrimePower(2, 2), m=2),  # even q
        lambda: lie("Suzuki", PrimePower(2, 2)),     # even power
        lambda: lie("Suzuki", PrimePower(2, 1)),     # 2B2(2) not simple
        lambda: lie("Ree", PrimePower(3, 1)),        # 2G2(3) not simple
        lambda: lie("G2", PrimePower(2, 1)),         # G2(2) not simple
        lambda: lie("PSp", PrimePower(2, 1), m=2),   # PSp(4,2) = S6 not simple
        lambda: lie("PSp", PrimePower(3, 1), m=2),   # odd q: Omega(5,3)
        lambda: lie("PSp", PrimePower(2, 2), m=1),   # rank below family floor
        lambda: sporadic("XYZ"),
        lambda: alternating(4),
        lambda: GroupId("NoSuchFamily"),
        lambda: prime_power(12),
    ],
)
def test_rejects_non_simple_parameters(ctor):
    with pytest.raises(ValueError):
        ctor()


def test_group_id_checks_keyword_fields():
    g = GroupId(family="PSL", m=1, q=PrimePower(p=2, k=2))
    assert g == lie("PSL", PrimePower(2, 2), m=1) == ("PSL", None, None, 1, (2, 2))
    with pytest.raises(ValueError, match="unknown sporadic label 'XYZ'"):
        GroupId(family="Sporadic", name="XYZ")
    with pytest.raises(ValueError, match="not simple"):
        GroupId(family="PSL", m=1, q=PrimePower(p=2, k=1))
    with pytest.raises(ValueError, match="alternating groups need n >= 5"):
        GroupId("Alternating", n=4)
    with pytest.raises(ValueError, match=r"^PSL needs a field size q$"):
        GroupId("PSL", m=1)
    with pytest.raises(ValueError, match=r"^PSL needs a rank parameter m$"):
        lie("PSL", PrimePower(2, 2))
    with pytest.raises(ValueError, match=r"^G2 takes no rank parameter$"):
        lie("G2", PrimePower(3, 1), m=1)


@given(st.integers(min_value=-3, max_value=10**6))
def test_prime_power_matches_factorisation(q):
    pairs = factor(q) if q >= 1 else []
    if len(pairs) == 1:
        got = prime_power(q)
        assert (got.p, got.k) == pairs[0]
    else:
        with pytest.raises(ValueError, match="is not a prime power"):
            prime_power(q)


@pytest.mark.parametrize(
    "q,pk",
    [
        (2**14000, (2, 14000)),
        (3**9000, (3, 9000)),
        ((2**61 - 1) ** 6, (2**61 - 1, 6)),
        (65537**35, (65537, 35)),
        ((10**24 + 7) ** 5, (10**24 + 7, 5)),
        (2**61 - 1, (2**61 - 1, 1)),
    ],
    ids=["2^14000", "3^9000", "M61^6", "65537^35", "(10^24+7)^5", "M61"],
)
def test_prime_power_large(q, pk):
    got = prime_power(q)
    assert (got.p, got.k) == pk


@pytest.mark.parametrize(
    "q",
    [6**40, 3**40 * 7, (2**31 - 1) ** 2 * (2**61 - 1) ** 2, 10**4000, 10**4000 + 1],
    ids=["6^40", "3^40*7", "M31^2*M61^2", "10^4000", "10^4000+1"],
)
def test_prime_power_rejects_large_non_prime_powers(q):
    with pytest.raises(ValueError):
        prime_power(q)


def test_prime_power_refuses_bases_beyond_proven_range():
    for q in (2**127 - 1, (2**89 - 1) ** 3):
        with pytest.raises(ValueError, match="beyond the proven primality range"):
            prime_power(q)


@pytest.mark.parametrize(
    "family,q",
    [("PSL", 4), ("PSU", 3), ("PSp", 4), ("OmegaOdd", 3), ("OPlus", 2), ("OMinus", 2)],
)
def test_rank_floor(family, q):
    # one rank below the floor is refused; at the floor q is the smallest legal field
    floor = RANK_FLOOR[family]
    with pytest.raises(ValueError, match=f"{family} needs m >= {floor}"):
        lie(family, prime_power(q), m=floor - 1)
    assert lie(family, prime_power(q), m=floor).m == floor
    for smaller in range(2, q):
        with pytest.raises(ValueError):
            lie(family, prime_power(smaller), m=floor)


def odd_q_floor(family):
    """The smallest rank of a classical family legal at every odd q: PSp(4, q)
    at odd q is Omega(5, q), so PSp starts at rank 3 there."""
    return 3 if family == "PSp" else RANK_FLOOR.get(family)


def test_class_number_bounds():
    # sporadic: exact class counts
    assert class_number_bound(sporadic("J2")) == (21, 1)
    assert class_number_bound(sporadic("M")) == (194, 1)
    # one refusal, for each group with no field size that is not sporadic
    for label in ("A5", "G2(2)'"):
        with pytest.raises(ValueError, match=rf"^{re.escape(label)} is not bounded here$"):
            class_number_bound(parse_group_label(label))
    # classical bounds are the published constants times q^m
    assert Fraction(*class_number_bound(parse_group_label("PSL(2,4)"))) == 10
    assert Fraction(*class_number_bound(parse_group_label("PSU(3,3)"))) * 50 == 413 * 9
    assert Fraction(*class_number_bound(parse_group_label("Omega(5,3)"))) * 10 == 73 * 9
    # every Lie family against the bounds and orders its sources print, at
    # ranks floor..floor+3 over three fields, the largest 2^61 - 1, or p^61
    # for a twisted family over odd powers of p; the floor of an odd q is
    # odd_q_floor's
    for family in LIE_FAMILIES:
        p = TWISTED_ODD_POWER.get(family)
        fields = ((p ** 3, p ** 5, p ** 61) if p
                  else (3 if family == "OmegaOdd" else 4, 5, 2 ** 61 - 1))
        for q in fields:
            floor = RANK_FLOOR.get(family) if q % 2 == 0 else odd_q_floor(family)
            for m in range(floor, floor + 4) if floor else [None]:
                g = lie(family, prime_power(q), m=m)
                bound = Fraction(*class_number_bound(g))
                assert bound == lie_class_bound(family, m, q), (family, m, q)
                assert group_order(g) == lie_order(family, m, q), (family, m, q)


def test_bounds_dominate_actual_class_counts():
    # every embedded degree list is a full character table, so its
    # length is the true class number and must respect the bound
    for label in ("PSL(2,4)", "PSL(2,5)", "PSL(2,7)", "PSL(2,8)",
                  "PSL(2,9)", "PSL(3,4)", "PSL(4,2)", "PSU(3,3)",
                  "Omega(5,3)"):
        rec = shipped_records()[label]
        bound = Fraction(*class_number_bound(parse_group_label(label)))
        assert len(rec["degrees"]) <= bound
    # PSU(3,3) = G2(2)': 14 classes against 413/50 * 3^2, the PSU row's bound
    assert len(shipped_records()["PSU(3,3)"]["degrees"]) == 14
    assert Fraction(*class_number_bound(parse_group_label("PSU(3,3)"))) == Fraction(3717, 50)


def test_psl2_records_are_the_series_pattern():
    # each shipped PSL(2,q) list is the series pattern ...
    groups = {parse_group_label(label): rec for label, rec in shipped_records().items()}
    shipped = {g.q.q: rec["degrees"] for g, rec in groups.items()
               if (g.family, g.m) == ("PSL", 1)}
    assert sorted(shipped) == [4, 5, 7, 8, 9]
    for q, degrees in shipped.items():
        assert degrees == psl2_degrees(q), q
    # ... which, at every prime power 4 <= q <= 128, has one degree per
    # class and squares that sum to the order
    prime_powers = [q for q in range(4, 129) if len(factor(q)) == 1]
    assert len(prime_powers) == 42
    for q in prime_powers:
        degrees = psl2_degrees(q)
        assert len(degrees) == psl2_class_number(q), q
        assert sum(d * d for d in degrees) == lie_order("PSL", 1, q), q


def test_psl2_class_numbers_within_bound():
    # the closed form stays under the bound on every q = p^k of the PSL
    # sweep box at m = 1 (PSL(2,2) and PSL(2,3) are not simple), and at each
    # m = 1 point that the sweep walks, q = 4 to 2^63
    checked = 0
    for p in (2, 3, 5, 7, 11, 13, 17):
        for k in range(1, 64):
            q = PrimePower(p, k)
            if q.q < 4:
                continue
            bound = Fraction(*class_number_bound(lie("PSL", q, m=1)))
            assert psl2_class_number(q.q) <= bound, q.q
            checked += 1
    assert checked == 7 * 63 - 2
    walked = [g for g in _walk("PSL") if g.m == 1]
    for g in walked:
        assert psl2_class_number(g.q.q) <= Fraction(*class_number_bound(g)), g.q.q
    assert len(walked) == 83 and max(g.q.q for g in walked) == 2**63


def test_psp4_bound_dominates_its_class_number():
    # k(PSp(4,q)) = q^2 + 2q + 3 for even q at each PSp(4, 2^k) point that
    # the sweep walks, k = 2 to 9; the formula holds at q = 2, where
    # Sp(4,2) = S6 has a class for each of the 11 partitions of 6
    assert sp4_class_number(2) == len(list(partitions(6))) == 11
    walked = [g for g in _walk("PSp") if g.m == 2]
    for g in walked:
        assert sp4_class_number(g.q.q) <= Fraction(*class_number_bound(g)), g.q.q
    assert [(g.q.p, g.q.k) for g in walked] == [(2, k) for k in range(2, 10)]


def test_suzuki_bound_is_its_class_number():
    # k(2B2(q)) = q + 3 (Suzuki, Ann. of Math. 75 (1962)) at each point that
    # the sweep walks, q = 2^3, 2^5, ..., 2^15
    walked = list(_walk("Suzuki"))
    for g in walked:
        assert class_number_bound(g) == (g.q.q + 3, 1), g.q.q
    assert [g.q.k for g in walked] == list(range(3, 17, 2))


def test_ree_bound_is_its_class_number():
    # k(2G2(q)) = q + 8 (Ward, Trans. AMS 121 (1966)) at each point that the
    # sweep walks, none today, and at q = 3^k for odd k from 3 to 15
    for g in [*_walk("Ree"), *(lie("Ree", PrimePower(3, k)) for k in range(3, 16, 2))]:
        assert class_number_bound(g) == (g.q.q + 8, 1), g.q.q


EXPECTED_Q_DEGREES = {
    ("PSL", 1): 3, ("PSL", 3): 15, ("PSU", 2): 8, ("PSp", 3): 21,
    ("OmegaOdd", 2): 10, ("OPlus", 4): 28, ("OMinus", 4): 28, ("G2", None): 14,
    ("F4", None): 52, ("E6", None): 78, ("TwistedE6", None): 78,
    ("E7", None): 133, ("E8", None): 248, ("TriD4", None): 28,
    ("Suzuki", None): 5, ("Ree", None): 7, ("TwistedF4", None): 26,
}


@pytest.mark.parametrize("key,d", sorted(EXPECTED_Q_DEGREES.items(), key=str))
def test_order_q_degrees(key, d):
    # over a large q the order has all but a few of the bits of q^D
    family, m = key
    q = PrimePower(3, 41) if family in ("OmegaOdd", "Ree") else PrimePower(2, 41)
    g = lie(family, q, m=m)
    assert q_degree(g) == d
    assert group_order(g).bit_length() in range(d * (g.q.q.bit_length() - 1) - 3,
                                                d * g.q.q.bit_length() + 1)


# the q-part exponent e(m) and the q-degree D(m) of each classical family
CLASSICAL_DEGREES = {
    "PSL": lambda m: (m * (m + 1) // 2, m * (m + 2)),
    "PSU": lambda m: (m * (m + 1) // 2, m * (m + 2)),
    "PSp": lambda m: (m * m, m * (2 * m + 1)),
    "OmegaOdd": lambda m: (m * m, m * (2 * m + 1)),
    "OPlus": lambda m: (m * (m - 1), m * (2 * m - 1)),
    "OMinus": lambda m: (m * (m - 1), m * (2 * m - 1)),
}


@pytest.mark.parametrize("family", sorted(CLASSICAL_DEGREES))
def test_classical_order_degrees_over_ranks(family):
    q = PrimePower(3, 41) if family == "OmegaOdd" else PrimePower(2, 41)
    b = q.q.bit_length()
    for m in range(RANK_FLOOR[family], RANK_FLOOR[family] + 7):
        g = lie(family, q, m=m)
        e, d = CLASSICAL_DEGREES[family](m)
        assert (q_exponent(g), q_degree(g)) == (e, d), m
        assert group_order(g).bit_length() in range(d * (b - 1) - 3, d * b + 1), m


# c, the bit length of the ceiled constant of each classical class bound
CLASS_BITS = {"PSL": 2, "PSU": 4, "PSp": 5, "OmegaOdd": 4, "OPlus": 4, "OMinus": 4}


@pytest.mark.parametrize("family", sorted(CLASSICAL_DEGREES))
def test_order_class_shape_over_ranks(family):
    # (e, D + d, c) with the class bound's degree d = m and c fixed
    for m in range(RANK_FLOOR[family], RANK_FLOOR[family] + 7):
        e, d = CLASSICAL_DEGREES[family](m)
        assert order_class_shape(family, m) == (e, d + m, CLASS_BITS[family]), m


# (e, D + d, c) of each exceptional family: its class bound is a polynomial
# in q of degree d, and c is the bit length of its coefficient sum
EXCEPTIONAL_SHAPES = {
    "Suzuki": (2, 6, 3), "Ree": (3, 8, 4), "G2": (6, 16, 4), "TwistedF4": (12, 28, 5),
    "TriD4": (12, 32, 4), "F4": (24, 56, 6), "E6": (36, 84, 7), "TwistedE6": (36, 84, 7),
    "E7": (63, 140, 8), "E8": (120, 256, 8),
}


@pytest.mark.parametrize("family", sorted(EXCEPTIONAL_SHAPES))
def test_order_class_shape_of_exceptional_families(family):
    assert order_class_shape(family, None) == EXCEPTIONAL_SHAPES[family]


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 31, 127, 8191, 65537, 2**31 - 1, 2**61 - 1)


@st.composite
def lie_points(draw, max_bits=200):
    """A legal (family, m, q) with q <= 2^max_bits."""
    family = draw(st.sampled_from(LIE_FAMILIES))
    m = None
    if family in RANK_FLOOR:
        m = draw(st.integers(RANK_FLOOR[family], RANK_FLOOR[family] + 6))
    primes = [p for p in _SMALL_PRIMES if (p - 1).bit_length() <= max_bits]
    p = TWISTED_ODD_POWER.get(family) or draw(st.sampled_from(primes))
    k_max = max_bits // (p - 1).bit_length()  # p^k <= 2^max_bits
    if family in TWISTED_ODD_POWER:
        k = 2 * draw(st.integers(1, (k_max - 1) // 2)) + 1
    else:
        k = draw(st.integers(1, k_max))
    try:
        return lie(family, PrimePower(p, k), m=m)
    except ValueError:  # PSL(2,2), PSL(2,3), PSU(3,2), PSp(4,2), PSp(4, odd q),
        # G2(2), Omega(2m+1, 2^k)
        reject()


@given(lie_points())
@settings(max_examples=300, deadline=None)
def test_order_class_bits_bound_the_limit(g):
    order = group_order(g)
    num, den = class_number_bound(g)
    limit = -(-order * num // den)
    _, degree, c = order_class_shape(g.family, g.m)
    assert limit.bit_length() <= g.q.q.bit_length() * degree + c
    assert order <= g.q.q ** q_degree(g)


@pytest.mark.parametrize("q", [2**31 - 1, 2**61 - 1], ids=["M31", "M61"])
def test_order_class_bits_at_q_just_below_a_power_of_two(q):
    # q < 2^b by 1 is where q^D nearly fills b*D bits, so a c one smaller
    # than the shape's shows here; the limit comes from group_order and
    # class_number_bound alone; q is odd, so ranks start at odd_q_floor
    points = [(family, m) for family in RANK_FLOOR
              for m in range(odd_q_floor(family), odd_q_floor(family) + 3)]
    points += [(family, None) for family in LIE_FAMILIES
               if family not in RANK_FLOOR and family not in TWISTED_ODD_POWER]
    spare = {}
    for family, m in points:
        g = lie(family, prime_power(q), m=m)
        num, den = class_number_bound(g)
        limit = -(-group_order(g) * num // den)
        _, degree, c = order_class_shape(family, m)
        bits = q.bit_length() * degree + c
        assert limit < 2 ** bits, group_label(g)
        spare[group_label(g)] = bits - limit.bit_length()
    assert len(spare) == 6 * 3 + 7
    # PSU(3,q) and PSU(5,q) meet the limit with no bit to spare
    assert min(spare.values()) == 0 == spare[f"PSU(3,{q})"]


@given(lie_points(max_bits=32))
@settings(max_examples=150, deadline=None)
def test_q_part_valuation_on_lie_points(g):
    # as test_q_part_valuation, with q <= 2^32 to keep the valuation short
    assert valuation(group_order(g), g.q.p) == q_exponent(g) * g.q.k


def test_degree_records_sum_of_squares():
    # each shipped line, read as its JSON, is a full character table
    records = shipped_records()
    for label in ("PSL(2,7)", "PSL(3,4)", "PSU(3,3)", "Omega(5,3)", "J2"):
        rec = records[label]
        assert sum(d * d for d in rec["degrees"]) == rec["order"]


def test_degree_record_aliases():
    # an alias names the same record, so its group has the same cod(H)
    records = shipped_records()
    for alias, label in (("PSU(4,2)", "Omega(5,3)"), ("G2(2)'", "PSU(3,3)")):
        assert records[alias] is records[label]
        a, b = (simple_codegree_set(parse_group_label(name)) for name in (alias, label))
        assert (a.group_label, b.group_label) == (alias, label)
        assert a.order == b.order and a.values == b.values
    with pytest.raises(DataFileError, match="no degree data for M11"):
        simple_codegree_set(sporadic("M11"))  # in the ATLAS table only, no degrees


EXPECTED_SIMPLE_COD = {
    "PSL(2,7)": (1, 21, 24, 28, 56),
    "PSL(2,8)": (1, 56, 63, 72),
    "PSL(3,4)": (1, 315, 320, 448, 576, 1008),
    "PSU(3,3)": (1, 189, 216, 224, 288, 432, 864, 1008),
    "Omega(5,3)": (1, 320, 405, 432, 576, 648, 864, 1080, 1296, 1728,
                   2592, 4320, 5184),
    "J2": (1, 1800, 2016, 2100, 2688, 2700, 3200, 3456, 3780, 4800,
           6720, 8640, 9600, 16800, 28800, 43200),
}


@pytest.mark.parametrize("label", sorted(EXPECTED_SIMPLE_COD))
def test_simple_codegree_sets(label):
    cs = simple_codegree_set(parse_group_label(label))
    assert cs.values == EXPECTED_SIMPLE_COD[label]


def test_simple_codegree_set_matches_alternating():
    # PSL(2,9) = A6: same codegrees through two different code paths
    assert (simple_codegree_set(parse_group_label("PSL(2,9)")).values
            == simple_codegree_set(alternating(6)).values)


# the label of each shipped record, then each shipped alias
RECORD_LABELS = ("PSL(2,4)", "PSL(2,5)", "PSL(2,7)", "PSL(2,8)", "PSL(2,9)", "PSL(4,2)",
                 "PSL(3,4)", "PSU(3,3)", "Omega(5,3)", "J2")
DATA_LABELS = RECORD_LABELS + ("G2(2)'", "PSU(4,2)")


def test_data_file_holds_degree_records_only():
    # one degree record a line after the header; the sporadic facts are catalog's
    lines = _PACKAGED_DATA.read_text(encoding="utf-8").splitlines()
    assert [json.loads(line)["record"] for line in lines[1:]] == ["degrees"] * 10
    table = _load_catalog(_PACKAGED_DATA)
    assert set(table) == set(map(parse_group_label, DATA_LABELS))
    assert all(cod.group_label == group_label(g) for g, cod in table.items())


def test_codegree_sets_trust_the_loaded_records(monkeypatch):
    # the loader checked each record against its group; a query asks no
    # order again
    catalog._table()
    calls = []
    monkeypatch.setattr("codlab.catalog.group_order", lambda g: calls.append(g))
    records = shipped_records()
    for label in DATA_LABELS:
        assert simple_codegree_set(parse_group_label(label)).order == records[label]["order"]
    assert calls == []


def test_a_catalog_set_is_the_loaded_files_own():
    # the loaded file is one table by group, and a query reads its set
    table = catalog._table()
    assert len(table) == len(DATA_LABELS)
    for g in map(parse_group_label, DATA_LABELS):
        assert simple_codegree_set(g) is table[g] is catalog._table()[g]


def test_a_record_serves_its_group_under_any_spelling(tmp_path, monkeypatch):
    # a record is filed by the group its label names, and its set by that
    # group's label
    text = _PACKAGED_DATA.read_text(encoding="utf-8")
    spelt = text.replace('"label": "PSL(2,7)"', '"label": " PSL(2, 7)"')
    assert spelt != text
    target = tmp_path / "spelt.jsonl"
    target.write_text(spelt, encoding="utf-8")
    use_data_file(monkeypatch, target)
    cod = simple_codegree_set(parse_group_label("PSL(2,7)"))
    assert (cod.group_label, cod.order, cod.values) == ("PSL(2,7)", 168,
                                                        EXPECTED_SIMPLE_COD["PSL(2,7)"])


def test_twisted_2a9():
    cs = twisted_codegree_set_2a9()
    assert cs.order == 362880
    assert len(cs.values) == 21
    a9 = simple_codegree_set(alternating(9)).values
    assert set(a9) < set(cs.values)
    assert set(cs.values) - set(a9) == {1620, 2268, 3024, 7560, 45360}


def test_loading_walks_each_coincidence_once(walks):
    # the loader checks each record of a group whose representative is an
    # A_n, PSL(2,4), PSL(2,5), PSL(2,9) and PSL(4,2), against cod(A5),
    # cod(A6) and cod(A8), and the checks of those pairs reuse them
    catalog._table()
    assert sorted(walks) == [(5, 5), (6, 6), (8, 8)]
    pairs = [(g, rep.n) for g, rep in catalog._REPRESENTATIVE.items()
             if rep.family == "Alternating"]
    assert sorted(map(group_label, dict(pairs))) == ["PSL(2,4)", "PSL(2,5)", "PSL(2,9)",
                                                     "PSL(4,2)"]
    for g, n in pairs:
        assert check_subset(g, n).verdict == "isomorphic"
    assert sorted(walks) == [(5, 5), (6, 6), (8, 8)]


def test_a_walk_failure_met_by_the_loader_is_not_a_data_file_error(monkeypatch):
    # the loader holds PSL(2,4), on line 2, to cod(A5): a walk that loses
    # the run (2, 0), and with it the shape (3, 2), fails with the walk's
    # own error, which no exit code of a data file refusal hides
    run_list = alt_codegrees._run_list
    monkeypatch.setattr(alt_codegrees, "_run_list", lambda d, total, shorter, fact: [
        (r, h) for r, h in run_list(d, total, shorter, fact) if r != (2, 0)])
    with pytest.raises(ArithmeticError, match=r"^sum of squared dimensions 35 != \|A_5\| = 60$"):
        _load_catalog(_PACKAGED_DATA)


def _builds(monkeypatch):
    """The label of every cod(H) the catalog builds from degrees, in order."""
    built = []
    build = catalog.CodegreeSet

    class Recording(build):
        __slots__ = ()

        @classmethod
        def from_degrees(cls, label, *args, **kwargs):
            built.append(label)
            return build.from_degrees(label, *args, **kwargs)

    monkeypatch.setattr(catalog, "CodegreeSet", Recording)
    return built


def test_catalog_codegree_set_is_built_once_per_data_file(monkeypatch):
    # the load builds the set of each record from its degrees once, under its
    # label; an alias files that set relabelled, and a query builds none
    built = _builds(monkeypatch)
    j2 = parse_group_label("J2")
    assert simple_codegree_set(j2) is simple_codegree_set(j2)
    for label in DATA_LABELS:
        simple_codegree_set(parse_group_label(label))
    assert sorted(built) == sorted(RECORD_LABELS) and len(built) == 10


def test_catalog_codegree_sets_are_shared_under_threads():
    # eight threads, more than the cores, switching every microsecond, each
    # asking for every catalog set of the loaded file, and for each group of
    # the isomorphism table, from its own start
    table = catalog._table()
    groups = [*map(parse_group_label, DATA_LABELS),
              *(g for g in catalog._REPRESENTATIVE if g not in table)]
    assert [group_label(g) for g in groups[len(DATA_LABELS):]] == ["PSL(3,2)"]
    got = []

    def ask(start):
        got.append({g: simple_codegree_set(g) for g in groups[start:] + groups[:start]})

    threads = [threading.Thread(target=ask, args=(i % len(groups),)) for i in range(8)]
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
    for sets in got:
        # a filed set is the file's own; a group with no record of its own
        # is answered from its representative's, relabelled
        assert all(sets[g] is table[g] for g in groups if g in table)
        assert all(sets[g] == simple_codegree_set(g) for g in groups)


def test_full_verification_builds_each_catalog_set_once(monkeypatch):
    built = _builds(monkeypatch)
    run_full_verification()
    assert sorted(built) == sorted(RECORD_LABELS)


def test_queries_build_no_catalog_set_after_the_load(monkeypatch):
    # every set was built when the file loaded: a run or a query only reads
    catalog._table()
    built = _builds(monkeypatch)
    run_full_verification()
    for label in DATA_LABELS:
        g = parse_group_label(label)
        for n in range(5, 28):
            check_subset(g, n)
    assert built == []


def test_a_cold_catalog_set_resolves_the_data_file_once(monkeypatch):
    # the first query loads the shipped file; every later query, of any
    # group, reads the table it gave
    loads = []
    load = catalog._load_catalog
    monkeypatch.setattr(catalog, "_load_catalog", lambda path: loads.append(path) or load(path))
    for label in (*DATA_LABELS, "PSL(3,2)", "J2"):
        simple_codegree_set(parse_group_label(label))
    assert loads == [_PACKAGED_DATA]


def test_a_missing_degree_record_is_refused_on_every_call():
    refusals = []
    for _ in range(2):
        with pytest.raises(DataFileError) as exc:
            simple_codegree_set(sporadic("M11"))
        refusals.append(str(exc.value))
    assert refusals == ["no degree data for M11"] * 2


def test_dixon_lists_are_their_derivation():
    # the shipped records are what Dixon-Schneider gives on the
    # projective-point permutation groups (Dixon 1967; Schneider 1990)
    spec = importlib.util.spec_from_file_location(
        "derive_degree_data",
        Path(__file__).resolve().parent.parent / "tools" / "derive_degree_data.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    derived = tool.derive()
    assert derived.keys() == {"PSL(3,4)", "PSU(3,3)", "Omega(5,3)"}
    for label, degrees in derived.items():
        assert degrees == shipped_records()[label]["degrees"], label


def test_shipped_file_is_in_canonical_form():
    # each line, the header too, is its JSON object as json.dumps writes
    # it, a record's fields in the order the loader lists them, and ends
    # with one newline
    lines = _PACKAGED_DATA.read_text(encoding="utf-8").splitlines(keepends=True)
    for line in lines:
        rec = json.loads(line)
        assert line == json.dumps(rec, separators=(", ", ": ")) + "\n"
    for rec in map(json.loads, lines[1:]):
        assert list(rec) == [field for field in catalog._FIELDS if field in rec]


_DATA_LINES = _PACKAGED_DATA.read_text(encoding="utf-8").splitlines()


def _without_key(line, i):
    rec = json.loads(line)
    keys = sorted(rec)
    del rec[keys[i % len(keys)]]
    return json.dumps(rec)


def _with_aliases(line, aliases):
    """A record line with its aliases replaced by the labels given."""
    return json.dumps({**json.loads(line), "aliases": aliases})


# labels of the isomorphism table, and PSL(3,4), of A8's order but not A8
_ALIAS_LABELS = sorted({*(label for pair in catalog._ISOMORPHISMS for label in pair[:2]),
                        "PSL(3,4)"})
_MANGLED_LINE = st.one_of(
    st.sampled_from(_DATA_LINES),
    st.tuples(st.sampled_from(_DATA_LINES), st.integers(0, 200)).map(
        lambda t: t[0][: t[1]]
    ),
    st.tuples(st.sampled_from(_DATA_LINES[1:]), st.integers(0, 9)).map(
        lambda t: _without_key(*t)
    ),
    st.recursive(
        st.none() | st.booleans() | st.integers() | st.text(max_size=8),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(
            st.sampled_from(["record", "label", "order", "degrees"]), inner
        ),
        max_leaves=6,
    ).map(json.dumps),
    st.text(max_size=30).filter(lambda t: "\n" not in t and "\r" not in t),
)


def _aliased_file(kept, row, aliases):
    """The shipped records that kept marks, and record row always, that one
    with the aliases given."""
    return [_with_aliases(line, aliases) if i == row else line
            for i, line in enumerate(_DATA_LINES[1:]) if kept[i] or i == row]


# a file of shipped records, some dropped, one with aliases drawn: it loads
# when each alias names its record's group and no group is filed twice
_ALIASED_FILE = st.tuples(st.lists(st.booleans(), min_size=10, max_size=10),
                          st.integers(0, 9),
                          st.lists(st.sampled_from(_ALIAS_LABELS), max_size=3)).map(
    lambda t: _aliased_file(*t))


_FUZZ_ARGV = (("check-subset", "J2", "10"), ("check-subset", "PSL(2,9)", "6"),
              ("search", "all", "--format", "json"))


@given(st.lists(_MANGLED_LINE, max_size=60) | _ALIASED_FILE, st.booleans(),
       st.sampled_from(_FUZZ_ARGV))
@settings(max_examples=150, deadline=None)
def test_loader_returns_or_raises_data_file_error(lines, keep_header, argv):
    if keep_header:
        lines = [_DATA_LINES[0], *lines]
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        path = Path(tmp) / "fuzz.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        use_data_file(mp, path)
        # the command line answers the file or refuses it in one line
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(list(argv))
        assert code in (0, 2, 3) and err.getvalue().count("\n") <= 1, (code, err.getvalue())
        try:
            cat = _load_catalog(path)
        except DataFileError as exc:
            assert str(exc).startswith(f"{path}:"), exc
        else:  # each record is checked, and filed under its label and under
            # each alias, which names the label's group
            json.loads(lines[0])
            filed = {}
            for line in filter(str.strip, lines[1:]):
                rec = json.loads(line)
                assert sum(d * d for d in rec["degrees"]) == rec["order"]
                label = group_label(parse_group_label(rec["label"]))
                for key in (rec["label"], *rec.get("aliases", ())):
                    g = parse_group_label(key)
                    assert same_group(group_label(g), label), (key, label)
                    filed[g] = {1, *(rec["order"] // d for d in rec["degrees"] if d > 1)}
            assert {g: set(cod.values) for g, cod in cat.items()} == filed
            assert all(cod.group_label == group_label(g) for g, cod in cat.items())


def _with_number(field, i, edit):
    """The data lines with one number replaced by edit(number): the order
    of degree record i, or degree i of the J2 record."""
    lines = list(_DATA_LINES)
    if field == "degree":
        [row] = [r for r, ln in enumerate(lines) if '"label": "J2"' in ln]
        rec = json.loads(lines[row])
        numbers, key = rec["degrees"], i % len(rec["degrees"])
    else:
        row = 1 + i % (len(lines) - 1)
        rec = json.loads(lines[row])
        numbers, key = rec, "order"
    value = numbers[key] = edit(numbers[key])
    lines[row] = json.dumps(rec)
    return lines, rec["label"], value


_JSON_SCALAR = (st.integers() | st.floats() | st.booleans() | st.none()
                | st.text(max_size=8) | st.integers(0, 10**6).map(str))
# the number written, the same value as a float or as text, or any JSON scalar
_NUMBER_EDIT = st.sampled_from([int, float, str]) | _JSON_SCALAR.map(lambda v: lambda _: v)


@given(st.sampled_from(["order", "degree"]), st.integers(0, 100), _NUMBER_EDIT)
@settings(max_examples=150, deadline=None)
def test_loader_reads_numbers_exactly(field, i, edit):
    # a number is loaded as exactly the JSON integer written, or refused
    lines, label, value = _with_number(field, i, edit)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "numbers.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        try:
            cat = _load_catalog(path)
        except DataFileError as exc:
            assert str(exc).startswith(f"{path}:"), exc
            return
    cod = cat[parse_group_label(label)]
    if field == "degree":  # the degree gives the codegree |J2| / degree
        assert type(value) is int and cod.order % value == 0
        assert (cod.order // value if value > 1 else 1) in cod.values
    else:
        assert type(value) is int and type(cod.order) is int and cod.order == value


def _with_field(field, i, value):
    """The data lines with value as one field of degree record i: its
    label or its provenance."""
    lines = list(_DATA_LINES)
    row = 1 + i % (len(lines) - 1)
    rec = json.loads(lines[row])
    was = rec["label"]
    rec[field] = value
    lines[row] = json.dumps(rec)
    return lines, was


@given(st.sampled_from(["label", "provenance"]), st.integers(0, 100),
       _JSON_SCALAR | st.sampled_from(DATA_LABELS + ("2.A9", "A5", "A8", "M11",
                                                     "ATLAS of Finite Groups"))
       | st.lists(st.text(max_size=3), max_size=2))
@settings(max_examples=150, deadline=None)
def test_loader_reads_fields_exactly(field, i, value):
    # a name is loaded only as the JSON text written
    lines, was = _with_field(field, i, value)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fields.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        try:
            cat = _load_catalog(path)
        except DataFileError as exc:
            assert str(exc).startswith(f"{path}:"), exc
            return
    if field == "label":  # filed under the name written, and no longer under the old one
        assert type(value) is str
        g, old = parse_group_label(value), parse_group_label(was)
        assert cat[g].group_label == group_label(g)
        assert (old in cat) == (g == old)
        # never under an A_n, whose codegrees come from hook lengths
        assert g.family != "Alternating"
    else:  # the provenance is text, and files nothing
        assert type(value) is str and cat == _load_catalog(_PACKAGED_DATA)


def test_corrupted_data_detected(tmp_path, monkeypatch):
    text = _PACKAGED_DATA.read_text(encoding="utf-8")
    bad = text.replace("[1, 6, 7, 7, 7, 14,", "[1, 6, 7, 7, 7, 15,")
    assert bad != text
    target = tmp_path / "bad.jsonl"
    target.write_text(bad, encoding="utf-8")
    use_data_file(monkeypatch, target)
    with pytest.raises(ValueError, match=r":9: degree record PSU\(3,3\): sum of squared"):
        simple_codegree_set(parse_group_label("PSU(3,3)"))
