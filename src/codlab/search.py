"""Exception search over the finite simple groups.

For a simple group H with cod(H) contained in cod(A_n), two exact facts
pin down the possible n: |H| divides n!/2 (the largest codegree of H is
|H| itself and every codegree of A_n divides |A_n|), and
n!/2 < |H| * k(H) (counting codegrees against the number of irreducible
characters).  For H of Lie type over q = p^k there is also a lower bound
n >= e*k*(p-1) where q^e is the p-part of |H|, since the p-part of n!
is at most p^(n/(p-1)).

Most points fail the size sieve by hundreds of bits, and bit length
alone shows it.  catalog.order_class_shape(family, m) gives (e, D + d, c)
with ceil(|H| * k-bound) < 2^B for B = bitlen(q)(D + d) + c, and
2^(S(n) - 1) <= n!/2 with S(n) the sum of floor(log2 i) over i <= n.  A
point is refuted by bits when S(max(5, n)) - 1 >= B at
n = n_min = e*k*(p-1): that proves n!/2 >= |H| * k-bound there, the
refusal the exact test would reach, so the point has no candidate n.

Each Lie family is walked in the order m, p, k, and each loop ends where
an integer step inequality proves every later point refuted by bits, so
the walk's stops do all the refusing by bits and no walked point is
tested by bits again.
With L(n) = floor(log2(n + 1)), S(n') - S(n) >= (n' - n) L(n) for
n' >= n, and the three step lemmas are:

- k: if (m, p, k) is refuted, n >= 5 and
  e(p - 1) L(n) >= bitlen(p - 1)(D + d), then (m, p, k + 1) is refuted
  and the inequality holds there again.  The step adds e(p - 1) factors
  of at least L(n) bits to S, and at most ceil(log2 p) = bitlen(p - 1)
  bits to bitlen(p^k).  The twisted families step k by 2, which doubles
  both sides.
- p (all but the twisted families, which have one prime): if (m, p, 1),
  evaluated arithmetically whether or not it is a legal group, meets
  the k lemma and e L(n) >= D + d, then (m, p', 1) meets both for the
  next prime p'.  By Bertrand p' < 2p, so bitlen(p'^k) grows by at most
  k and bitlen(p' - 1) by at most 1, while n grows by at least e*k.
- m (classical families): if (m, 2, 1) meets the p lemma and
  Δe L(e) >= 2Δ(D + d), Δ the step from m to m + 1, then (m + 1, 2, 1)
  meets both.  Three facts carry this along the rank: Δe/Δ(D + d) does
  not decrease in m ((m+1)/(2m+4) for PSL and PSU, (2m+1)/(4m+4) for
  PSp and Omega(2m+1), 2m/(4m+2) for O+-), c does not depend on m, and
  every gain grows along the tail, since L does not decrease.

A loop stops at the first point whose lemma holds, so that point and
every later one are refuted, and the walk yields the legal points
before the stops, each of which _sieve decides by exact comparison
alone.  Its first n, max(5, n_min), is at most 78 on the walk (PSL(13,2)
and PSU(13,2)) and 5 for the sporadic groups.  Parameter values are not
capped anywhere; the tests check each lemma on a grid.
"""

from __future__ import annotations

import csv
import io
from collections import namedtuple
from itertools import count
from pathlib import Path
from typing import Iterator

from .alt_codegrees import (
    alt_codegree_members,
    prove_min_codegree_monotone,
    twisted_codegree_set_2a9,
)
from .catalog import (
    EXCEPTIONAL_PREFIX,
    LIE_FAMILIES,
    RANK_FLOOR,
    SPORADIC_LABELS,
    TWISTED_ODD_POWER,
    GroupId,
    PrimePower,
    alternating,
    class_number_bound,
    group_label,
    group_order,
    lie,
    order_class_shape,
    parse_group_label,
    representative,
    simple_codegree_set,
    sporadic,
)
from .exactnum import factorial, is_prime

# the range `search all` prints for its monotonicity line
_MONOTONE_RANGE = (5, 30)
# `codlab search` target, lower case without '-' or '_' -> family: each
# Lie family's name, and each exceptional family's label prefix.
SEARCH_TARGETS = {f.lower(): f for f in LIE_FAMILIES} | {
    prefix.lower(): f for f, prefix in EXCEPTIONAL_PREFIX.items()
}


class ExceptionRow(namedtuple("ExceptionRow", "family label m p k q n ratio")):
    """One surviving (H, n) pair from a sweep; m, p, k and q are None
    where H has no such parameter, and ratio = (n!/2) / |H| exactly."""

    __slots__ = ()

    def sort_key(self) -> tuple:
        return (
            self.family, self.m or 0, self.p or 0, self.k or 0, self.label, self.n,
        )


def row_cells(r: ExceptionRow) -> tuple[str, ...]:
    """One row as text cells in field order, "" for an absent value."""
    return tuple("" if v is None else str(v) for v in r)


class FamilySweepReport(namedtuple(
    "FamilySweepReport", "family m_max p_max k_max points_examined rows"
)):
    """One Lie family's sweep.  m_max, p_max and k_max are the largest m,
    p and k of a walked point that passes the size sieve (None = no such
    point); for the odd-power families (Suzuki, Ree, TwistedF4) m_max
    holds a, where q = p^(2a+1).  points_examined counts the legal points
    walked, each a group of the family itself over a field of q elements."""

    __slots__ = ()


class SubsetCheck(namedtuple(
    "SubsetCheck", "label n verdict witness h_order h_cod_size a_cod_size"
)):
    """Outcome of testing cod(H) subset-of cod(A_n).

    verdict is "isomorphic", "subset_refuted" or "subset_holds", and
    witness the smallest codegree of H missing from cod(A_n), or None.
    "subset_holds" (containment without a known isomorphism) is an
    alarm state: it would contradict the classification the sweeps
    verify, so it is the one verdict that is not ok.
    """

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.verdict != "subset_holds"


def n_min(g: GroupId) -> int:
    """Legendre lower bound for |H| dividing n!/2; 5 for a group with no q."""
    if g.q is None:
        return 5
    e = order_class_shape(g.family, g.m)[0]
    return e * g.q.k * (g.q.p - 1)


def _class_number_limit(g: GroupId, order: int) -> int:
    """ceil(|H| * k-bound): n!/2 < |H| * k-bound iff n!/2 < this limit."""
    num, den = class_number_bound(g)
    return -(-order * num // den)


def _log2_factorial_floor(n: int) -> int:
    """S(n) = sum of floor(log2 i) over 1 <= i <= n, so 2^S(n) <= n!.

    With L = floor(log2 n), the values floor(log2 i) = j < L each occur
    2^j times and L occurs n - 2^L + 1 times, which sums to the closed
    form below.
    """
    top = n.bit_length() - 1
    return top * (n + 1) - (2 << top) + 2


def _refuted_by_bits(shape: tuple[int, int, int], q: int, n: int) -> bool:
    """True if n!/2 >= |H| * k-bound at max(5, n), by bit length alone, for
    H of order_class_shape shape over a field of q elements, n = n_min(H).

    The limit is below 2^B for B = bitlen(q)(D + d) + c (the bound proved
    in catalog.order_class_shape), and S - 1 >= B gives
    n!/2 >= 2^(S - 1) >= 2^B > limit: the refusal _sieve's exact
    comparison would make, reached without building |H|, the limit or
    n!.  False means only that the exact test must decide.
    """
    _, degree, c = shape
    return _log2_factorial_floor(max(5, n)) - 1 >= q.bit_length() * degree + c


def _sieve(g: GroupId) -> list[tuple[int, int]] | None:
    """(n, (n!/2) / |H|) for all n >= max(5, n_min) with |H| | n!/2 and
    n!/2 < |H| * k-bound, in increasing n; None if the size sieve already
    fails at n = max(5, n_min).

    n!/2 is built once, at max(5, n_min), and compared exactly with the
    limit; it strictly increases with n, so the first n where it reaches
    the limit ends the range.  _sieve meets only the walked points and
    the 27 sporadic groups, so the largest first n it meets is 78, at
    PSL(13,2) and PSU(13,2); a point beyond the frontier, such as
    PSL(7,17^63) with n_min 21168, is refused by the walk's
    _refuted_by_bits before any order is built.
    """
    order = group_order(g)
    limit = _class_number_limit(g, order)
    n = max(5, n_min(g))
    half = factorial(n) // 2
    if half >= limit:
        return None
    found = []
    while half < limit:
        ratio, rest = divmod(half, order)
        if not rest:
            found.append((n, ratio))
        n += 1
        half *= n
    return found


def _k_tail(shape: tuple[int, int, int], p: int, n: int) -> bool:
    """The k lemma's inequality at n = n_min: n >= 5 and
    e(p - 1) L(n) >= bitlen(p - 1)(D + d)."""
    e, degree, _ = shape
    gain = e * (p - 1) * ((n + 1).bit_length() - 1)
    return n >= 5 and gain >= (p - 1).bit_length() * degree


def _p_tail(shape: tuple[int, int, int], n: int) -> bool:
    """The p lemma's inequality at n = n_min of k = 1: e L(n) >= D + d."""
    e, degree, _ = shape
    return e * ((n + 1).bit_length() - 1) >= degree


def _m_tail(family: str, m: int) -> bool:
    """The m lemma's inequality: Δe L(e) >= 2Δ(D + d) from m to m + 1."""
    e, degree, _ = order_class_shape(family, m)
    e_next, degree_next, _ = order_class_shape(family, m + 1)
    return (e_next - e) * ((e + 1).bit_length() - 1) >= 2 * (degree_next - degree)


def _k_stop(shape: tuple[int, int, int], p: int, k: int) -> bool:
    """(m, p, k) and, by the k lemma, every later k are refuted by bits."""
    n = shape[0] * k * (p - 1)
    return _refuted_by_bits(shape, p**k, n) and _k_tail(shape, p, n)


def _p_stop(shape: tuple[int, int, int], p: int) -> bool:
    """Every (m, p', k) with p' >= p is refuted by bits (the k and p lemmas)."""
    return _k_stop(shape, p, 1) and _p_tail(shape, shape[0] * (p - 1))


def _walk(family: str) -> Iterator[GroupId]:
    """The legal points of a Lie family in the order m, p, k, each loop
    ended where a step lemma proves that point and every later one refuted
    by bits.  Each point is a group of the family over a field of q
    elements; G2(2) is not simple, and its derived group is met as
    PSU(3,3) in the PSU row."""
    fixed = TWISTED_ODD_POWER.get(family)
    for m in count(RANK_FLOOR[family]) if family in RANK_FLOOR else [None]:
        shape = order_class_shape(family, m)
        if m is not None and _p_stop(shape, 2) and _m_tail(family, m):
            return
        for p in [fixed] if fixed else filter(is_prime, count(2)):
            if not fixed and _p_stop(shape, p):
                break
            for k in count(3, 2) if fixed else count(1):
                if _k_stop(shape, p, k):
                    break
                try:
                    yield lie(family, PrimePower(p, k), m=m)
                except ValueError:  # (m, p, k) names no simple group
                    pass


def _row(g: GroupId, n: int, ratio: int) -> ExceptionRow:
    p, k, q = (g.q.p, g.q.k, g.q.q) if g.q else (None, None, None)
    return ExceptionRow(g.family, group_label(g), g.m, p, k, q, n, ratio)


def sweep_family(family: str) -> FamilySweepReport:
    """Walk one Lie family to its proven frontier and sieve every point
    exactly, once each."""
    if family not in LIE_FAMILIES:
        raise ValueError(
            f"unknown Lie family {family!r}; expected one of {', '.join(LIE_FAMILIES)}"
        )
    walked, rows = 0, []
    ms, ps, ks = [], [], []
    for g in _walk(family):
        walked += 1
        found = _sieve(g)
        if found is None:
            continue
        rows.extend(_row(g, n, ratio) for n, ratio in found)
        m = g.q.k // 2 if family in TWISTED_ODD_POWER else g.m
        if m is not None:
            ms.append(m)
        ps.append(g.q.p)
        ks.append(g.q.k)
    rows.sort(key=ExceptionRow.sort_key)
    return FamilySweepReport(
        family, max(ms, default=None), max(ps, default=None), max(ks, default=None),
        walked, tuple(rows),
    )


def sweep_sporadic() -> tuple[ExceptionRow, ...]:
    """Sieve all 26 sporadic groups and the Tits group."""
    points = map(sporadic, SPORADIC_LABELS)
    rows = [_row(g, n, ratio) for g in points for n, ratio in _sieve(g) or ()]
    return tuple(sorted(rows, key=ExceptionRow.sort_key))


def _first_missing(values: tuple[int, ...], members: frozenset[int]) -> int | None:
    """The first of the sorted values that members lacks, so the smallest,
    or None."""
    for v in values:
        if v not in members:
            return v
    return None


def check_subset(g: GroupId, n: int) -> SubsetCheck:
    """Decide cod(H) subset-of cod(A_n) for a survivor pair.

    A subset relation on a group whose representative is A_n (A_n itself,
    or a group that is A_n under another name, catalog.representative)
    gives "isomorphic": the loader has checked that such a group's record
    gives exactly cod(A_n), and a group with no record is given cod(A_n)
    itself.  Otherwise the smallest missing codegree is the
    refutation witness.  A subset relation on a non-isomorphic pair is
    "subset_holds", the verdict that is not ok.  The representative is
    looked up only once the subset relation holds.  Each value of cod(H)
    is probed in the hash index of cod(A_n), alt_codegree_members(n): the
    memo's for n <= 38, else a fresh one from a fresh walk.
    """
    ch = simple_codegree_set(g)
    members = alt_codegree_members(n)
    witness = _first_missing(ch.values, members)
    if witness is not None:
        verdict = "subset_refuted"
    elif representative(g) == alternating(n):
        verdict = "isomorphic"
    else:
        verdict = "subset_holds"
    return SubsetCheck(
        ch.group_label, n, verdict, witness, ch.order, len(ch.values), len(members)
    )


def discharge_rows(rows: tuple[ExceptionRow, ...]) -> tuple[SubsetCheck, ...]:
    return tuple(check_subset(parse_group_label(r.label), r.n) for r in rows)


# ---------------------------------------------------------------------------
# Double cover of A9.


class SchurScan(namedtuple("SchurScan", "n_lo n_hi solutions exhausted")):
    """Solutions of n-1 = 2^(floor((n-2)/2)-1) or n-1 = 2^(floor(n/2)-1)
    on (n_lo, n_hi]; exhausted: both right-hand sides exceed n-1 at the
    range end."""

    __slots__ = ()

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


class Schur2A9Report(namedtuple(
    "Schur2A9Report", "a9_size twisted_size proper_superset new_values"
)):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.proper_superset and self.a9_size != self.twisted_size


def schur_a9_size_check() -> Schur2A9Report:
    """cod(A9) must be a proper subset of cod(2.A9) with different size."""
    a9_vals = alt_codegree_members(9)
    tw_vals = set(twisted_codegree_set_2a9().values)
    return Schur2A9Report(
        a9_size=len(a9_vals),
        twisted_size=len(tw_vals),
        proper_superset=a9_vals < tw_vals,
        new_values=tuple(sorted(tw_vals - a9_vals)),
    )


# ---------------------------------------------------------------------------
# Full verification run.


class VerificationReport(namedtuple("VerificationReport", (
    "monotone_ok monotone_range sporadic_rows family_reports rows checks"
    " schur_scan schur_2a9 golden_ok golden_diffs"
))):
    """A full verification run; rows holds the sporadic and family rows
    in canonical order.  monotone_ok is the outcome of the proof that a_n
    increases for every n >= 5 (prove_min_codegree_monotone);
    monotone_range, (5, 30), is the range the report prints for it."""

    __slots__ = ()

    @property
    def unresolved(self) -> tuple[SubsetCheck, ...]:
        return tuple(c for c in self.checks if not c.ok)

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
    writer.writerow(ExceptionRow._fields)
    writer.writerows(map(row_cells, rows))
    return buf.getvalue()


_GOLDEN_FILES = {
    "PSL": "table_psl.csv",
    "OmegaOdd": "table_omega_odd.csv",
    "PSU": "table_psu.csv",
    "Sporadic": "sporadic.csv",
}


def _golden_text(name: str) -> str:
    return (Path(__file__).parent / "data" / "golden" / name).read_text("utf-8")


def compare_with_golden(
    sporadic_rows: tuple[ExceptionRow, ...],
    family_reports: tuple[FamilySweepReport, ...],
) -> tuple[bool, tuple[str, ...]]:
    """Byte-compare rendered rows against the packaged expected tables.

    A family with no golden file must have no rows.
    """
    rows = {rep.family: rep.rows for rep in family_reports}
    rows["Sporadic"] = sporadic_rows
    diffs = [
        f"{family}: sweep output differs from {fname}"
        for family, fname in _GOLDEN_FILES.items()
        if render_rows_csv(rows.get(family, ())) != _golden_text(fname)
    ] + [
        f"{family}: expected no rows, found {len(got)}"
        for family, got in rows.items()
        if family not in _GOLDEN_FILES and got
    ]
    return (not diffs, tuple(diffs))


def run_full_verification() -> VerificationReport:
    """Reproduce every table and discharge every survivor."""
    monotone_ok, _ = prove_min_codegree_monotone()
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
