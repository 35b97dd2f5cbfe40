"""Exception search over the finite simple groups.

For a simple group H with cod(H) contained in cod(A_n), two exact facts
pin down the possible n: |H| divides n!/2 (the largest codegree of H is
|H| itself and every codegree of A_n divides |A_n|), and
n!/2 < |H| * k(H) (counting codegrees against the number of irreducible
characters).  For H of Lie type over q = p^k there is also a lower bound
n >= e*k*(p-1) where q^e is the p-part of |H|, since the p-part of n!
is at most p^(n/(p-1)).

The sweep enumerates each family over a finite parameter box.  Box edges
are derived by increasing one parameter at a time, with the others at
their smallest legal values, until the exact inequality fails; factorial
growth beats q-polynomial growth, and a scan-ahead window asserts the
failure persists instead of assuming it.  The enumeration box is the
elementwise max of the derived edges and a fixed floor per family, so a
smaller derived box can never silently shrink coverage; every point in
the box is re-tested exactly, so a larger box never adds false rows.

Most points fail the size sieve by hundreds of bits, so each one is
first tested by bit length alone.  catalog.order_class_bits gives B with
ceil(|H| * k-bound) < 2^B from the bit length of q, the q-degree of the
order formula and the shape of the class bound, and 2^(S(n) - 1) <= n!/2
with S(n) the sum of floor(log2 i) over i <= n.  S(n) - 1 >= B at
n = max(5, n_min) therefore proves n!/2 >= |H| * k-bound there, which is
the refusal the exact test would reach; only the points it leaves open
build |H| and the limit.
"""

from __future__ import annotations

import csv
import io
from dataclasses import astuple, dataclass, fields
from itertools import count
from typing import Iterable, Iterator

from .alt_codegrees import alt_codegree_set, verify_min_codegree_monotone
from .catalog import (
    EXCEPTIONAL_FAMILIES,
    EXCEPTIONAL_PREFIX,
    LIE_FAMILIES,
    RANK_FLOOR,
    TWISTED_ODD_POWER,
    GroupId,
    PrimePower,
    class_number_bound,
    group_label,
    group_order,
    lie,
    order_class_bits,
    parse_group_label,
    q_part_exponent,
    simple_codegree_set,
    sporadic,
    sporadic_entries,
    twisted_codegree_set_2a9,
)
from .exactnum import factorial, is_prime

HARD_N_CAP = 200
_SCAN_AHEAD = 12
_MONOTONE_RANGE = (5, 30)
# `codlab search` target, lower case without '-' or '_' -> family: each
# Lie family's name, and each exceptional family's label prefix.
SEARCH_TARGETS = {f.lower(): f for f in LIE_FAMILIES} | {
    prefix.lower(): f for f, prefix in EXCEPTIONAL_PREFIX.items()
}

# Fixed per-family floors for the enumeration box (m, p, k).  The sweep
# never examines less than this box even if the derived edges are
# tighter; deltas between the two are recorded in the report notes.
_BOX_FLOOR: dict[str, tuple[int, int, int]] = {
    "PSL": (6, 17, 63),
    "PSU": (6, 7, 42),
    "PSp": (4, 2, 2),
    "OmegaOdd": (2, 3, 1),
    "OPlus": (4, 2, 1),
    "OMinus": (5, 3, 3),
}

# Known coincidences between catalog groups and alternating groups,
# used to justify an "isomorphic" verdict when orders and codegree sets
# both agree.
KNOWN_ISOMORPHIC: frozenset[tuple[str, int]] = frozenset(
    {("PSL(2,4)", 5), ("PSL(2,5)", 5), ("PSL(2,9)", 6), ("PSL(4,2)", 8)}
)


@dataclass(frozen=True)
class ExceptionRow:
    """One surviving (H, n) pair from a sweep."""

    family: str
    label: str
    m: int | None
    p: int | None
    k: int | None
    q: int | None
    n: int
    ratio: int  # (n!/2) / |H|, exact

    def sort_key(self) -> tuple:
        return (
            self.family, self.m or 0, self.p or 0, self.k or 0, self.label, self.n,
        )


ROW_HEADER = tuple(f.name for f in fields(ExceptionRow))


def row_cells(r: ExceptionRow) -> tuple[str, ...]:
    """One row as text cells in ROW_HEADER order, "" for an absent value."""
    return tuple("" if v is None else str(v) for v in astuple(r))


@dataclass(frozen=True)
class FamilyBounds:
    """Derived box edges for one Lie family (None = no feasible value).

    For the odd-power families (Suzuki, Ree, TwistedF4) m_max holds a,
    where q = p^(2a+1).
    """

    family: str
    m_max: int | None
    p_max: int | None
    k_max: int | None
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class FamilySweepReport:
    family: str
    bounds: FamilyBounds
    box: tuple[int, int, int] | None  # enumerated (m_hi, p_hi, k_hi)
    points_examined: int
    rows: tuple[ExceptionRow, ...]
    notes: tuple[str, ...]


@dataclass(frozen=True)
class SubsetCheck:
    """Outcome of testing cod(H) subset-of cod(A_n).

    "subset_holds" (containment without a known isomorphism) is an
    alarm state: it would contradict the classification the sweeps
    verify, so reports treat it as a failure.
    """

    label: str
    n: int
    verdict: str  # "isomorphic" | "subset_refuted" | "subset_holds"
    witness: int | None  # smallest codegree of H missing from cod(A_n)
    h_order: int
    h_cod_size: int
    a_cod_size: int


def n_min(g: GroupId) -> int:
    """Legendre lower bound for |H| dividing n!/2; 5 for non-Lie tags."""
    if g.q is None:
        return 5
    e = q_part_exponent(g)
    return e * g.q.k * (g.q.p - 1)  # type: ignore[union-attr]


def _class_number_limit(g: GroupId, order: int) -> int:
    """ceil(|H| * k-bound): n!/2 < |H| * k-bound iff n!/2 < this limit."""
    bound = class_number_bound(g)
    return -(-order * bound.numerator // bound.denominator)


def _log2_factorial_floor(n: int) -> int:
    """S(n) = sum of floor(log2 i) over 1 <= i <= n, so 2^S(n) <= n!.

    With L = floor(log2 n), the values floor(log2 i) = j < L each occur
    2^j times and L occurs n - 2^L + 1 times, which sums to the closed
    form below.
    """
    top = n.bit_length() - 1
    return top * (n + 1) - (2 << top) + 2


def _half_factorial_below(n: int, limit: int) -> int | None:
    """n!/2 if it is below limit, else None.

    n!/2 >= 2^(S(n) - 1), so once S(n) - 1 reaches the bit length of limit
    the answer is None without any factorial.  Otherwise n! is built once;
    each of the n factors i adds less than one bit beyond floor(log2 i), so
    n! then has at most n bits more than limit, whatever n is.
    """
    if _log2_factorial_floor(n) - 1 >= limit.bit_length():
        return None
    half = factorial(n) // 2
    return half if half < limit else None


def _refuted_by_bits(g: GroupId) -> bool:
    """True if n!/2 >= |H| * k-bound at n = max(5, n_min), by bit length alone.

    The limit is below 2^B for B = order_class_bits(g), so it has at most
    B bits, and S(n) - 1 >= B is the refusal _half_factorial_below would
    make, reached without building |H| or the limit.  False means only
    that the exact test must decide.
    """
    bits = order_class_bits(g)
    return bits is not None and _log2_factorial_floor(max(5, n_min(g))) - 1 >= bits


def _sieve_start(g: GroupId) -> tuple[int, int, int, int] | None:
    """(|H|, limit, n, n!/2) at n = max(5, n_min) if n!/2 < limit there,
    else None; limit is ceil(|H| * k-bound)."""
    if _refuted_by_bits(g):
        return None
    order = group_order(g)
    limit = _class_number_limit(g, order)
    n = max(5, n_min(g))
    half = _half_factorial_below(n, limit)
    return None if half is None else (order, limit, n, half)


def _feasible(g: GroupId) -> bool:
    """Exact inequality |A_max(5, n_min)| < |H| * k-bound."""
    return _sieve_start(g) is not None


def _candidates(g: GroupId) -> Iterator[tuple[int, int]]:
    """(n, (n!/2) / |H|) for all n with |H| | n!/2 and n!/2 < |H|*k-bound,
    n >= max(5, n_min).

    n!/2 is strictly increasing, so the first n where the bound fails is
    a natural cutoff.  Raises if the cutoff is not reached before
    HARD_N_CAP, rather than silently truncating.
    """
    start = _sieve_start(g)
    if start is None:
        return
    order, limit, n, half = start
    while half < limit:
        ratio, rest = divmod(half, order)
        if not rest:
            yield n, ratio
        n += 1
        if n > HARD_N_CAP:
            raise RuntimeError(
                f"candidate range for {group_label(g)} exceeded hard cap {HARD_N_CAP}"
            )
        half *= n


def _lowest_point(family: str, m: int | None, primes: Iterable[int]) -> GroupId | None:
    """The simple group (family, m, p^k) of smallest p in primes, then k <= 4."""
    for p in primes:
        for k in range(1, 5):
            try:
                return lie(family, PrimePower(p, k), m=m)
            except ValueError:
                continue
    return None


def _scan_last_feasible(
    points: Iterable[tuple[int, GroupId | None]], what: str
) -> tuple[int | None, int | None]:
    """First-failure scan with a persistence window.

    points maps each scanned value to its group, or to None when no legal
    group has that value (skipped).  Returns (last feasible value, first
    infeasible value).  Raises if feasibility reappears inside the
    scan-ahead window after the first failure: that would invalidate the
    single-crossing assumption the cutoff rests on.
    """
    last_ok: int | None = None
    first_bad: int | None = None
    misses = 0
    for v, g in points:
        if g is None:
            continue
        if _feasible(g):
            if first_bad is not None:
                raise ArithmeticError(
                    f"{what}: feasibility reappeared at {v} after failing at {first_bad}"
                )
            last_ok = v
        else:
            if first_bad is None:
                first_bad = v
            misses += 1
            if misses > _SCAN_AHEAD:
                break
    return last_ok, first_bad


def derive_family_bounds(family: str) -> FamilyBounds:
    """Per-family box edges by single-parameter first-failure scans."""
    notes: list[str] = []

    p = TWISTED_ODD_POWER.get(family)
    if p is not None:
        a_max, a_bad = _scan_last_feasible(
            ((a, lie(family, PrimePower(p, 2 * a + 1))) for a in range(1, 64)),
            f"{family} a-scan",
        )
        if a_max is None:
            notes.append(f"inequality already fails at a=1 (q={p ** 3})")
            return FamilyBounds(family, None, None, None, tuple(notes))
        notes.append(f"odd-power parameter a <= {a_max} (first failure at a={a_bad})")
        return FamilyBounds(family, a_max, p, 2 * a_max + 1, tuple(notes))

    m = m_max = None
    if family not in EXCEPTIONAL_FAMILIES:
        m = RANK_FLOOR[family]
        m_max, _ = _scan_last_feasible(
            ((mm, _lowest_point(family, mm, (2, 3, 5))) for mm in range(m, m + 64)),
            f"{family} m-scan",
        )
        if m_max is None:
            notes.append(f"inequality already fails at m={m}")
            return FamilyBounds(family, None, None, None, tuple(notes))

    p_max, _ = _scan_last_feasible(
        ((p, _lowest_point(family, m, (p,))) for p in filter(is_prime, count(2))),
        f"{family} p-scan",
    )
    lowest = _lowest_point(family, m, filter(is_prime, count(2)))
    p_lo, k_lo = lowest.q.p, lowest.q.k  # type: ignore[union-attr]
    if p_max is None:
        notes.append(f"inequality already fails at (p,k)=({p_lo},{k_lo})")
        return FamilyBounds(family, m_max, None, None, tuple(notes))

    k_max, _ = _scan_last_feasible(
        ((k, lie(family, PrimePower(p_lo, k), m=m)) for k in range(k_lo, k_lo + 256)),
        f"{family} k-scan",
    )
    assert k_max is not None  # k_lo is feasible whenever p_lo survived the p-scan
    return FamilyBounds(family, m_max, p_max, k_max, tuple(notes))


def _sweep_points(family: str, box: tuple[int, int, int]) -> Iterator[GroupId]:
    """All legal catalog points in the box; G2(2) swept as G2(2)'."""
    m_hi, p_hi, k_hi = box
    exceptional = family in EXCEPTIONAL_FAMILIES
    for m in [None] if exceptional else range(RANK_FLOOR[family], m_hi + 1):
        for p in filter(is_prime, range(2, p_hi + 1)):
            for k in range(1, k_hi + 1):
                if family == "G2" and (p, k) == (2, 1):
                    yield GroupId("G2Prime2")
                    continue
                try:
                    yield lie(family, PrimePower(p, k), m=m)
                except ValueError:
                    continue


def _rows_for_point(g: GroupId) -> Iterator[ExceptionRow]:
    p, k, q = (g.q.p, g.q.k, g.q.q) if g.q else (None, None, None)
    for n, ratio in _candidates(g):
        yield ExceptionRow(g.family, group_label(g), g.m, p, k, q, n, ratio)


def _sieve(points: list[GroupId]) -> tuple[ExceptionRow, ...]:
    """Rows of every point, in canonical order."""
    rows = [r for pt in points for r in _rows_for_point(pt)]
    return tuple(sorted(rows, key=ExceptionRow.sort_key))


def sweep_family(family: str) -> FamilySweepReport:
    """Enumerate one Lie family's box and sieve every point exactly."""
    bounds = derive_family_bounds(family)
    notes = list(bounds.notes)
    floor = _BOX_FLOOR.get(family)
    if bounds.p_max is None and floor is None:
        return FamilySweepReport(family, bounds, None, 0, (), tuple(notes))
    box = (bounds.m_max or 0, bounds.p_max or 0, bounds.k_max or 0)
    if floor is not None:
        widened = tuple(max(a, b) for a, b in zip(box, floor))
        if widened != box:
            notes.append(f"derived box {box} widened to enumeration floor {widened}")
        box = widened  # type: ignore[assignment]
    points = list(_sweep_points(family, box))  # type: ignore[arg-type]
    if any(pt.family == "G2Prime2" for pt in points):
        notes.append("point (p,k)=(2,1) swept as the simple group G2(2)' of order 6048")
    return FamilySweepReport(
        family, bounds, box, len(points), _sieve(points), tuple(notes)  # type: ignore[arg-type]
    )


def sweep_sporadic() -> tuple[ExceptionRow, ...]:
    """Sieve all 26 sporadic groups and the Tits group."""
    return _sieve([sporadic(entry.label) for entry in sporadic_entries()])


def check_subset(g: GroupId, n: int) -> SubsetCheck:
    """Decide cod(H) subset-of cod(A_n) for a survivor pair.

    Equal order and equal codegree set on a known coincidence pair, or
    on A_n itself, gives "isomorphic"; otherwise the smallest missing
    codegree is the refutation witness.  A subset relation on a
    non-isomorphic pair is "subset_holds" and treated as a failure
    upstream.
    """
    ch = simple_codegree_set(g)
    ca = alt_codegree_set(n)
    label = ch.group_label
    missing = sorted(set(ch.values) - set(ca.values))
    if not missing:
        if (label, n) in KNOWN_ISOMORPHIC or label == f"A{n}":
            if ch.order != ca.order or ch.values != ca.values:
                raise ArithmeticError(
                    f"known coincidence {label} = A{n} fails data check"
                )
            verdict = "isomorphic"
        else:
            verdict = "subset_holds"
        witness = None
    else:
        verdict = "subset_refuted"
        witness = missing[0]
    return SubsetCheck(
        label, n, verdict, witness, ch.order, len(ch.values), len(ca.values)
    )


def discharge_rows(rows: tuple[ExceptionRow, ...]) -> tuple[SubsetCheck, ...]:
    return tuple(check_subset(parse_group_label(r.label), r.n) for r in rows)


# ---------------------------------------------------------------------------
# Double cover of A9.


@dataclass(frozen=True)
class SchurScan:
    """Solutions of n-1 = 2^(floor((n-2)/2)-1) or n-1 = 2^(floor(n/2)-1)."""

    n_lo: int
    n_hi: int
    solutions: tuple[int, ...]
    exhausted: bool  # both right-hand sides exceed n-1 at the range end

    @property
    def ok(self) -> bool:
        """n = 9 is the only solution and none lies beyond the range."""
        return self.solutions == (9,) and self.exhausted


def schur_degree_equation_solutions(n_lo: int = 8, n_hi: int = 64) -> SchurScan:
    """Scan (n_lo, n_hi] for the two power-of-two degree equations.

    Both right-hand sides double every two steps of n while n-1 grows by
    one, so once both exceed n-1 they stay ahead; the scan records
    whether that holds at the top of the range.  The equations only
    arise for n > 7, hence the floor on n_lo.
    """
    if not (8 <= n_lo < n_hi):
        raise ValueError(f"need 8 <= n_lo < n_hi, got ({n_lo}, {n_hi})")
    sols = []
    last_close = None
    for n in range(n_lo + 1, n_hi + 1):
        rhs1 = 2 ** ((n - 2) // 2 - 1)
        rhs2 = 2 ** (n // 2 - 1)
        if n - 1 in (rhs1, rhs2):
            sols.append(n)
        if min(rhs1, rhs2) <= n - 1:
            last_close = n
    exhausted = last_close is not None and last_close < n_hi
    return SchurScan(n_lo, n_hi, tuple(sols), exhausted)


@dataclass(frozen=True)
class Schur2A9Report:
    a9_size: int
    twisted_size: int
    proper_superset: bool
    new_values: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return self.proper_superset and self.a9_size != self.twisted_size


def schur_a9_size_check() -> Schur2A9Report:
    """cod(A9) must be a proper subset of cod(2.A9) with different size."""
    a9 = alt_codegree_set(9)
    twisted = twisted_codegree_set_2a9()
    a9_vals = set(a9.values)
    tw_vals = set(twisted.values)
    return Schur2A9Report(
        a9_size=len(a9_vals),
        twisted_size=len(tw_vals),
        proper_superset=a9_vals < tw_vals,
        new_values=tuple(sorted(tw_vals - a9_vals)),
    )


# ---------------------------------------------------------------------------
# Full verification run.


@dataclass(frozen=True)
class VerificationReport:
    monotone_ok: bool
    monotone_range: tuple[int, int]
    sporadic_rows: tuple[ExceptionRow, ...]
    family_reports: tuple[FamilySweepReport, ...]
    rows: tuple[ExceptionRow, ...]  # sporadic and family rows, canonical order
    checks: tuple[SubsetCheck, ...]
    schur_scan: SchurScan
    schur_2a9: Schur2A9Report
    golden_ok: bool
    golden_diffs: tuple[str, ...]

    @property
    def unresolved(self) -> tuple[SubsetCheck, ...]:
        return tuple(c for c in self.checks if c.verdict == "subset_holds")

    @property
    def ok(self) -> bool:
        return (
            self.monotone_ok
            and not self.unresolved
            and self.schur_scan.ok
            and self.schur_2a9.ok
            and self.golden_ok
        )


def render_rows_csv(rows: tuple[ExceptionRow, ...]) -> str:
    """Canonical row serialisation, also the golden-file format: CSV with
    a header line, each line ending in a bare newline."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(ROW_HEADER)
    writer.writerows(map(row_cells, rows))
    return buf.getvalue()


_GOLDEN_FILES = {
    "PSL": "table_psl.csv",
    "OmegaOdd": "table_omega_odd.csv",
    "PSU": "table_psu.csv",
    "Sporadic": "sporadic.csv",
}


def _golden_text(name: str) -> str:
    from importlib import resources

    return resources.files("codlab").joinpath(f"data/golden/{name}").read_text("utf-8")


def compare_with_golden(
    sporadic_rows: tuple[ExceptionRow, ...],
    family_reports: tuple[FamilySweepReport, ...],
) -> tuple[bool, tuple[str, ...]]:
    """Byte-compare rendered rows against the packaged expected tables."""
    diffs: list[str] = []
    by_family = {rep.family: rep for rep in family_reports}
    for family, fname in _GOLDEN_FILES.items():
        if family == "Sporadic":
            got = render_rows_csv(sporadic_rows)
        else:
            rep = by_family.get(family)
            got = render_rows_csv(rep.rows if rep else ())
        want = _golden_text(fname)
        if got != want:
            diffs.append(f"{family}: sweep output differs from {fname}")
    for rep in family_reports:
        if rep.family not in _GOLDEN_FILES and rep.rows:
            diffs.append(f"{rep.family}: expected no rows, found {len(rep.rows)}")
    return (not diffs, tuple(diffs))


def run_full_verification() -> VerificationReport:
    """Reproduce every table and discharge every survivor."""
    monotone_ok, _ = verify_min_codegree_monotone(*_MONOTONE_RANGE)
    sporadic_rows = sweep_sporadic()
    family_reports = tuple(
        sweep_family(fam) for fam in LIE_FAMILIES
    )
    rows = tuple(sorted(
        sporadic_rows + tuple(r for rep in family_reports for r in rep.rows),
        key=ExceptionRow.sort_key,
    ))
    golden_ok, golden_diffs = compare_with_golden(sporadic_rows, family_reports)
    return VerificationReport(
        monotone_ok=monotone_ok,
        monotone_range=_MONOTONE_RANGE,
        sporadic_rows=sporadic_rows,
        family_reports=family_reports,
        rows=rows,
        checks=discharge_rows(rows),
        schur_scan=schur_degree_equation_solutions(),
        schur_2a9=schur_a9_size_check(),
        golden_ok=golden_ok,
        golden_diffs=golden_diffs,
    )
