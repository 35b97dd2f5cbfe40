"""Acceptance gate: one test per contract criterion, zero tolerance.

Each test prints a single `ACCEPTANCE <k> <name>: PASS` line (visible
with -s) and enforces its wall-clock budget; pytest -v doubles as the
per-criterion pass/fail report.
"""

import csv
import io
import math
import time
from pathlib import Path

from codlab.alt_codegrees import _codegree_blocks, sym_degree, verify_min_codegree_monotone
from codlab.catalog import order_class_shape, parse_group_label, sporadic_entries
from codlab.cli import main
from codlab.search import (
    _refuted_by_bits,
    _walk,
    check_subset,
    discharge_rows,
    n_min,
    run_full_verification,
    schur_a9_size_check,
    schur_degree_equation_solutions,
    sweep_family,
    sweep_sporadic,
)
from codlab.exactnum import format_factored
from oracles import SWEEP_BOXES, box_points, branching_degree, partitions


def _passed(k: int, name: str, started: float, budget: float) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"criterion {k} took {elapsed:.2f}s, budget {budget}s"
    print(f"ACCEPTANCE {k} {name}: PASS ({elapsed:.2f}s)")


def test_01_cod_a8_exact(capsys):
    t0 = time.perf_counter()
    code = main(["cod", "8", "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    values = [int(r[2]) for r in rows[1:]]
    assert values == [1, 288, 315, 360, 448, 576, 720, 960, 1008, 1440, 2880]
    expected_factored = {
        288: "2^5·3^2", 315: "3^2·5·7", 360: "2^3·3^2·5", 448: "2^6·7",
        576: "2^6·3^2", 720: "2^4·3^2·5", 960: "2^6·3·5", 1008: "2^4·3^2·7",
        1440: "2^5·3^2·5", 2880: "2^6·3^2·5",
    }
    for v, text in expected_factored.items():
        assert format_factored(v) == text
    _passed(1, "cod(A8) exact", t0, 1.0)


def test_02_min_codegree_monotonicity():
    t0 = time.perf_counter()
    ok, witnesses = verify_min_codegree_monotone(5, 30)
    assert ok
    values = [a for _, a in witnesses]
    assert len(values) == 26
    assert all(a < b for a, b in zip(values, values[1:]))
    _passed(2, "monotonicity 5..30", t0, 10.0)


def test_03_hook_formula_soundness():
    t0 = time.perf_counter()
    for n in range(5, 16):
        sym_total = sum(sym_degree(lam) ** 2 for lam in partitions(n))
        assert sym_total == math.factorial(n)
        # each A_n-irreducible has degree |A_n|/c from its codegree c, a
        # split pair giving two of one degree; the trivial one has c = 1
        half = math.factorial(n) // 2
        alt_total = sum((1 if c == 1 else half // c) ** 2
                        for _, codegrees in _codegree_blocks(n, n) for c in codegrees)
        assert alt_total == half
    for n in range(2, 13):
        for lam in partitions(n):
            assert sym_degree(lam) == branching_degree(lam)
    _passed(3, "hook formula soundness", t0, 30.0)


def test_04_sporadic_sweep():
    t0 = time.perf_counter()
    rows = sweep_sporadic()
    assert len(rows) == 1
    row = rows[0]
    assert (row.label, row.n, row.ratio) == ("J2", 10, 3)
    j2 = next(e for e in sporadic_entries() if e.label == "J2")
    assert j2.class_count == 21
    res = check_subset(parse_group_label("J2"), 10)
    assert res.verdict == "subset_refuted"
    _passed(4, "sporadic sweep", t0, 5.0)


def test_05_classical_sweeps():
    t0 = time.perf_counter()
    psl = sweep_family("PSL")
    got = sorted((r.m, r.q, r.n) for r in psl.rows)
    assert got == sorted([
        (1, 4, 5), (1, 4, 6), (1, 5, 5), (1, 5, 6), (1, 7, 7), (1, 8, 7),
        (1, 9, 6), (1, 9, 7), (2, 4, 8), (2, 4, 9), (3, 2, 8), (3, 2, 9),
    ])
    assert len(psl.rows) == 12
    om = sweep_family("OmegaOdd")
    assert [(r.m, r.q, r.n) for r in om.rows] == [(2, 3, 9)]
    psu = sweep_family("PSU")
    assert [(r.m, r.q, r.n) for r in psu.rows] == [(2, 3, 9), (3, 2, 9)]
    for family in ("PSp", "OPlus", "OMinus"):
        assert sweep_family(family).rows == ()
    # the walk covers the old reference boxes: each of their points is
    # walked, or refuted by bit length alone
    for rep in (psl, psu):
        assert rep.m_max is not None
        walked = set(_walk(rep.family))
        for g in box_points(rep.family, SWEEP_BOXES[rep.family]):
            shape = order_class_shape(g.family, g.m)
            assert g in walked or _refuted_by_bits(shape, g.q.q, n_min(g)), g
    _passed(5, "classical sweeps", t0, 120.0)


def test_06_exceptional_sweeps():
    t0 = time.perf_counter()
    reports = {
        fam: sweep_family(fam)
        for fam in ("G2", "F4", "E6", "E7", "E8", "TwistedE6", "TriD4",
                    "Suzuki", "Ree", "TwistedF4")
    }
    for fam, rep in reports.items():
        assert rep.rows == (), fam
    assert reports["E6"].p_max is None
    g2 = reports["G2"]
    assert any("G2(2)'" in note and "6048" in note for note in g2.notes)
    assert reports["Suzuki"].m_max == 4  # odd-power parameter a < 5
    _passed(6, "exceptional sweeps", t0, 60.0)


def test_07_survivor_discharge():
    t0 = time.perf_counter()
    rows = (sweep_sporadic() + sweep_family("PSL").rows
            + sweep_family("PSU").rows + sweep_family("OmegaOdd").rows)
    checks = discharge_rows(rows)
    assert len(checks) == 16
    iso = {(c.label, c.n) for c in checks if c.verdict == "isomorphic"}
    assert iso == {("PSL(2,4)", 5), ("PSL(2,5)", 5), ("PSL(2,9)", 6),
                   ("PSL(4,2)", 8)}
    for c in checks:
        if c.verdict == "isomorphic":
            continue
        assert c.verdict == "subset_refuted", (c.label, c.n)
        assert c.witness is not None and c.witness > 1
    _passed(7, "survivor discharge", t0, 5.0)


def test_08_schur_case():
    t0 = time.perf_counter()
    scan = schur_degree_equation_solutions(8, 64)
    assert scan.solutions == (9,)
    assert scan.exhausted
    assert 9 - 1 == 2 ** (9 // 2 - 1)  # the surviving identity
    rep = schur_a9_size_check()
    assert rep.a9_size != rep.twisted_size
    assert (rep.a9_size, rep.twisted_size) == (16, 21)
    assert rep.proper_superset
    _passed(8, "Schur double cover", t0, 1.0)


def test_09_determinism(capsys):
    t0 = time.perf_counter()
    for fmt in ("table", "json", "csv"):
        code1 = main(["search", "all", "--threads", "1", "--format", fmt])
        out1 = capsys.readouterr().out
        code8 = main(["search", "all", "--threads", "8", "--format", fmt])
        out8 = capsys.readouterr().out
        assert code1 == code8 == 0
        assert out1 == out8, f"thread count changed {fmt} output"
    _passed(9, "thread determinism", t0, 60.0)


def test_10_gap_cases_documented():
    t0 = time.perf_counter()
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8"
    )
    assert "out of scope" in readme.lower()
    assert "GAP" in readme
    assert "GL(4,2)" in readme          # m = 4 extension cases
    assert "subgroup indices" in readme  # m = 5 enumeration
    # the stand-in property suites this exclusion leans on must pass
    assert run_full_verification().ok
    _passed(10, "out-of-scope cases documented", t0, 60.0)
