"""codlab command line.

Subcommands: cod, min-cod, search, schur, check-subset.  Exit codes are
a stable contract: 0 success / verification PASS, 2 usage error or a
data file that is unreadable, has an over-long line, lacks a record the
run needs or holds one that contradicts its group (for a group that is
an A_n under another name, codegrees other than cod(A_n); a count of
degrees 1 other than one; a label that is not its group's representative
in the catalog's table, unless that is an A_n; an alias of a group not
isomorphic to the record's), 3 mathematical verification
failure.  check-subset answers a group with no record of its own, such
as PSL(3,2), from the group the catalog's table of exceptional
isomorphisms maps it to (PSL(2,7)), under its own label.  Exit 1 means stdout was closed
before all output was written (for example by `| head`), whether stdout
is buffered or not (python -u, PYTHONUNBUFFERED); see _emit.

Every result takes one path: a handler hands _answer whether it
verifies and a function for each format's text, and _answer alone reads
--format, builds and writes only the text asked for, and returns 0 or 3.

All arithmetic is exact, so json and csv output carry group orders,
codegrees, ratios and witnesses as decimal strings; small structural
integers (n, m, p, k, set sizes) stay plain.  Table output additionally
shows a factored form for large values.  Sweeps run serially; search
accepts and validates --threads (N >= 1) for compatibility, and its
output bytes are identical for any N.

Each handler imports what it runs, and json and csv are imported only
for those formats.  cod and min-cod load only the A_n layer (partitions,
alt_codegrees, exactnum), never catalog or search, so a table of A_n
pays neither for the simple-group catalog nor for the sweeps.  search,
schur and check-subset load both.  Only search and check-subset read the
data file, and main alone maps its DataFileError to exit 2; schur's
cod(2.A9) comes from the spin-degree formula in alt_codegrees.
"""

from __future__ import annotations

import argparse
import os
import select
import sys
from itertools import chain, islice
from typing import TYPE_CHECKING, Callable, Iterable

from .alt_codegrees import alt_codegree_set, verify_min_codegree_monotone
from .exactnum import format_factored, format_known_divisors

if TYPE_CHECKING:
    from .search import ExceptionRow, FamilySweepReport, SubsetCheck

# Largest n that cod, min-cod and check-subset accept.  cod(A_n) costs about
# twice as much for each 5 added to n, so far beyond it, hours: a fresh process
# with no bytecode cache (PYTHONDONTWRITEBYTECODE=1, 2-core VM, Python 3.11)
# runs `cod 60` in about 2.2 s (peak RSS 61 MB), `min-cod 5 60` in 2.3 s (18 MB).
MAX_N_CEILING = 60


def _fail_usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _big(v: int) -> str:
    """Decimal plus factored form for table output."""
    return str(v) if v < 2 else f"{v} = {format_factored(v)}"


_CHUNK = getattr(select, "PIPE_BUF", 512) // 4  # 512: POSIX; a char is at most 4 bytes


def _emit(pieces: Iterable[str]) -> None:
    """Write the pieces to stdout as they come, consecutive ones joined into
    one write of at most _CHUNK characters; a longer piece is cut.

    A pipe takes a write of at most PIPE_BUF bytes whole or fails it with
    EPIPE, so the first write after the reader has gone raises
    BrokenPipeError and main exits 1.  A larger write could be taken in
    part, and unbuffered stdout (python -u) does not see the short count:
    the output would end cut short with exit 0.
    """
    write = sys.stdout.write
    chunk: list[str] = []
    size = 0
    for piece in pieces:
        size += len(piece)
        if size > _CHUNK:
            if chunk:
                write("".join(chunk))
                chunk.clear()
            head = (len(piece) - 1) // _CHUNK * _CHUNK  # all but the last chunk
            for i in range(0, head, _CHUNK):
                write(piece[i:i + _CHUNK])
            piece, size = piece[head:], len(piece) - head
        chunk.append(piece)
    if chunk:
        write("".join(chunk))


def _csv_lines(rows: Iterable[Iterable[str]]) -> Iterable[str]:
    import csv
    from types import SimpleNamespace

    # writerow returns what the file's write returns: here the line itself
    echo = csv.writer(SimpleNamespace(write=str), lineterminator="\n")
    return map(echo.writerow, rows)


def _answer(args: argparse.Namespace, ok: bool, *, doc: Callable[[], dict],
            csv: Callable[[], Iterable[str]], table: Callable[[], Iterable[str]]) -> int:
    """Write the rendering that --format asks for, built only now: the JSON
    document, the CSV text or the table lines; exit 0 if the result
    verifies, else 3."""
    if args.format == "json":
        import json

        pieces = chain(json.JSONEncoder(indent=2).iterencode(doc()), "\n")
    elif args.format == "csv":
        pieces = csv()
    else:
        pieces = (f"{line}\n" for line in table())
    _emit(pieces)
    return 0 if ok else 3


# ---------------------------------------------------------------------------
# cod


def cmd_cod(args: argparse.Namespace) -> int:
    n = args.n
    if not 5 <= n <= MAX_N_CEILING:
        return _fail_usage(f"n must be in [5, {MAX_N_CEILING}], got {n}")
    label, order, values = alt_codegree_set(n)
    n_text, order_text, width = str(n), str(order), len(str(values[-1]))
    # the values of a CodegreeSet are checked divisors of its order
    return _answer(args, True, doc=lambda: {
        "command": "cod", "group": label, "n": n, "order": order_text,
        "codegrees": [str(v) for v in values],
    }, csv=lambda: _csv_lines(chain(
        [("n", "group_order", "codegree")], ((n_text, order_text, str(v)) for v in values),
    )), table=lambda: chain(
        # values[0] is 1, printed bare; the rest with their factored text
        [f"cod({label})    |{label}| = {_big(order)}", "  " + "1".rjust(width)],
        ("  " + str(v).rjust(width) + " = " + text for v, text in
         islice(zip(values, format_known_divisors(values, order)), 1, None)),
        [f"{len(values)} values"],
    ))


# ---------------------------------------------------------------------------
# min-cod


def cmd_min_cod(args: argparse.Namespace) -> int:
    lo, hi = args.n_lo, args.n_hi
    if not (5 <= lo < hi <= MAX_N_CEILING):
        return _fail_usage(f"need 5 <= n_lo < n_hi <= {MAX_N_CEILING}, got {lo} {hi}")
    monotone, minima = verify_min_codegree_monotone(lo, hi)
    verdict = "PASS" if monotone else "FAIL"
    width = max(len(str(minima[-1][1])), 12)
    return _answer(args, monotone, doc=lambda: {
        "command": "min-cod",
        "n_lo": lo, "n_hi": hi,
        "rows": [{"n": n, "min_codegree": str(a)} for n, a in minima],
        "monotone": monotone, "verdict": verdict,
    }, csv=lambda: _csv_lines([
        ("n", "min_codegree"), *((str(n), str(a)) for n, a in minima), (verdict,),
    ]), table=lambda: [
        f"{'n':>3}  {'min codegree':>{width}}",
        *(f"{n:>3}  {a:>{width}} = {format_factored(a)}" for n, a in minima),
        f"{verdict}: minimal codegree strictly increasing on {lo}..{hi}",
    ])


# ---------------------------------------------------------------------------
# search


def _row_json(r: ExceptionRow) -> dict:
    return r._asdict() | {"q": None if r.q is None else str(r.q), "ratio": str(r.ratio)}


def _check_json(c: SubsetCheck) -> dict:
    witness = None if c.witness is None else str(c.witness)
    return c._asdict() | {"witness": witness, "h_order": str(c.h_order)}


def _rows_table(rows: tuple[ExceptionRow, ...]) -> list[str]:
    from .search import ExceptionRow, row_cells

    if not rows:
        return ["(no surviving rows)"]
    cells = [ExceptionRow._fields, *map(row_cells, rows)]
    widths = [max(map(len, column)) for column in zip(*cells)]
    return ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()
            for row in cells]


def _check_lines(checks: tuple[SubsetCheck, ...]) -> list[str]:
    return [f"{c.label} vs A{c.n}: " + (
        "isomorphic (orders and codegree sets equal)" if c.verdict == "isomorphic"
        else f"refuted, witness codegree {_big(c.witness)}" if c.verdict == "subset_refuted"
        else "SUBSET HOLDS without isomorphism (alarm)") for c in checks]


def _sweep_json(rep: FamilySweepReport) -> dict:
    return {"bounds": {"m_max": rep.m_max, "p_max": rep.p_max, "k_max": rep.k_max},
            "points_examined": rep.points_examined, "notes": list(rep.notes)}


def cmd_search(args: argparse.Namespace) -> int:
    from .search import (SEARCH_TARGETS, discharge_rows, render_rows_csv,
                         sweep_family, sweep_sporadic)

    if args.threads < 1:
        return _fail_usage(f"--threads must be >= 1, got {args.threads}")
    raw = args.target.lower().replace("-", "").replace("_", "")
    if raw == "all":
        return _search_all(args)
    if raw == "sporadic":
        target, rows, extra = "sporadic", sweep_sporadic(), {}
        head = ["target: sporadic (26 sporadic groups and the Tits group)"]
    elif raw in SEARCH_TARGETS:
        target = SEARCH_TARGETS[raw]
        rep = sweep_family(target)
        rows, extra = rep.rows, _sweep_json(rep)
        head = [f"target: {target}",
                f"derived bounds: m_max={rep.m_max} p_max={rep.p_max} k_max={rep.k_max}",
                f"points examined: {rep.points_examined}",
                *(f"note: {note}" for note in rep.notes)]
    else:
        return _fail_usage(f"unknown search target {args.target!r}")
    checks = discharge_rows(rows)
    return _answer(args, all(c.ok for c in checks), doc=lambda: {
        "command": "search", "target": target,
        **extra,
        "rows": [_row_json(r) for r in rows],
        "checks": [_check_json(c) for c in checks],
    }, csv=lambda: [render_rows_csv(rows)], table=lambda: [
        *head, *_rows_table(rows),
        # a family with no surviving rows has no checks line
        *(["checks:", *_check_lines(checks)] if rows or raw == "sporadic" else []),
    ])


def _search_all(args: argparse.Namespace) -> int:
    from .search import render_rows_csv, run_full_verification

    rep = run_full_verification()
    verdict = "PASS" if rep.ok else "FAIL"
    sc, tw = rep.schur_scan, rep.schur_2a9
    lo, hi = rep.monotone_range
    counts = ", ".join(f"{f.family} {len(f.rows)}" for f in rep.family_reports)
    verdicts = [c.verdict for c in rep.checks]
    return _answer(args, rep.ok, doc=lambda: {
        "command": "search", "target": "all", "verdict": verdict,
        "monotone": {"range": list(rep.monotone_range), "ok": rep.monotone_ok},
        "golden": {"ok": rep.golden_ok, "diffs": list(rep.golden_diffs)},
        "families": [
            {"family": f.family, **_sweep_json(f), "row_count": len(f.rows)}
            for f in rep.family_reports
        ],
        "rows": [_row_json(r) for r in rep.rows],
        "checks": [_check_json(c) for c in rep.checks],
        "schur": {"solutions": list(sc.solutions), "exhausted": sc.exhausted,
                  "a9_size": tw.a9_size, "twisted_size": tw.twisted_size,
                  "proper_superset": tw.proper_superset},
    }, csv=lambda: [render_rows_csv(rep.rows), f"{verdict}\n"], table=lambda: [
        f"minimal codegree strictly increasing on {lo}..{hi}: "
        f"{'PASS' if rep.monotone_ok else 'FAIL'}",
        f"sporadic rows: {len(rep.sporadic_rows)}; family rows: {counts}",
        f"golden tables: {'MATCH' if rep.golden_ok else 'MISMATCH'}",
        *(f"  {diff}" for diff in rep.golden_diffs),
        f"survivors: {len(rep.checks)} checks, {verdicts.count('isomorphic')} isomorphic, "
        f"{verdicts.count('subset_refuted')} refuted, {len(rep.unresolved)} unresolved",
        *_rows_table(rep.rows),
        "checks:",
        *_check_lines(rep.checks),
        f"double-cover equations on ({sc.n_lo}, {sc.n_hi}]: solutions "
        f"{list(sc.solutions)}, exhausted: {sc.exhausted}",
        f"cod(A9) size {tw.a9_size}, cod(2.A9) size {tw.twisted_size}, "
        f"proper superset: {tw.proper_superset}",
        f"RESULT: {verdict}",
    ])


# ---------------------------------------------------------------------------
# schur


def cmd_schur(args: argparse.Namespace) -> int:
    from .search import schur_a9_size_check, schur_degree_equation_solutions

    scan = schur_degree_equation_solutions()
    report = schur_a9_size_check()
    ok = scan.ok and report.ok
    verdict = "PASS" if ok else "FAIL"
    return _answer(args, ok, doc=lambda: {
        "command": "schur",
        "n_lo": scan.n_lo, "n_hi": scan.n_hi,
        "solutions": list(scan.solutions),
        "exhausted": scan.exhausted,
        "a9_size": report.a9_size, "twisted_size": report.twisted_size,
        "distinct_sizes": report.a9_size != report.twisted_size,
        "proper_superset": report.proper_superset,
        "new_codegrees": [str(v) for v in report.new_values],
        "verdict": verdict,
    }, csv=lambda: _csv_lines([
        ("solution_n",), *((str(n),) for n in scan.solutions),
        ("sizes", str(report.a9_size), str(report.twisted_size)), (verdict,),
    ]), table=lambda: [
        f"degree equations n-1 = 2^(floor((n-2)/2)-1) and "
        f"n-1 = 2^(floor(n/2)-1) on ({scan.n_lo}, {scan.n_hi}]",
        f"solutions: {list(scan.solutions)} (exhausted beyond range: {scan.exhausted})",
        f"cod(A9) size: {report.a9_size}",
        f"cod(2.A9) size: {report.twisted_size}",
        f"distinct sizes: {str(report.a9_size != report.twisted_size).lower()}",
        f"cod(A9) proper subset of cod(2.A9): {str(report.proper_superset).lower()}",
        "new codegrees from faithful characters: "
        + ", ".join(_big(v) for v in report.new_values),
        verdict,
    ])


# ---------------------------------------------------------------------------
# check-subset


def cmd_check_subset(args: argparse.Namespace) -> int:
    from .catalog import group_label, parse_group_label
    from .search import check_subset

    try:
        g = parse_group_label(args.group)
    except ValueError as exc:
        return _fail_usage(str(exc))
    if g.family == "Alternating" and g.n > MAX_N_CEILING:
        return _fail_usage(f"{group_label(g)} exceeds the largest accepted n, {MAX_N_CEILING}")
    if not 5 <= args.n <= MAX_N_CEILING:
        return _fail_usage(f"n must be in [5, {MAX_N_CEILING}], got {args.n}")
    result = check_subset(g, args.n)
    witness = "" if result.witness is None else str(result.witness)
    return _answer(args, result.ok, doc=lambda: {
        "command": "check-subset", **_check_json(result),
    }, csv=lambda: _csv_lines([
        ("label", "n", "verdict", "witness"),
        (result.label, str(result.n), result.verdict, witness),
    ]), table=lambda: [
        *_check_lines((result,)),
        f"|{result.label}| = {_big(result.h_order)}",
        f"codegree set sizes: {result.h_cod_size} vs {result.a_cod_size}",
    ])


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="codlab",
        description="Exact codegree computations for alternating groups "
                    "and the bounded simple-group exception search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # name, handler, help, positionals.  All take --format; search also
    # takes --threads.  The handlers are read here, per call, so one that
    # is replaced in this module (as a span tracer does) is dispatched.
    for name, handler, help_text, positionals in (
        ("cod", cmd_cod, "codegree set of A_n", (("n", int),)),
        ("min-cod", cmd_min_cod, "minimal codegrees a_n and monotonicity",
         (("n_lo", int), ("n_hi", int))),
        ("search", cmd_search, "exception sweep for one family, 'sporadic', or 'all'",
         (("target", str),)),
        ("schur", cmd_schur, "double cover of A9: equations and sizes", ()),
        ("check-subset", cmd_check_subset, "test cod(H) against cod(A_n)",
         (("group", str), ("n", int))),
    ):
        p = sub.add_parser(name, help=help_text)
        for dest, kind in positionals:
            p.add_argument(dest, type=kind)
        p.add_argument("--format", choices=("table", "json", "csv"), default="table")
        if name == "search":
            p.add_argument("--threads", type=int, default=1,
                           help="accepted for compatibility; sweeps run serially, so "
                                "output bytes are identical for any value >= 1")
        p.set_defaults(func=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early.  Point stdout at devnull so the
        # interpreter's final flush of what is still buffered stays silent.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ValueError as exc:
        # a bad data file; catalog is imported here, so a cod run never loads it
        from .catalog import DataFileError

        if not isinstance(exc, DataFileError):
            raise
        return _fail_usage(str(exc))


if __name__ == "__main__":
    sys.exit(main())
