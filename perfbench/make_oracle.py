#!/usr/bin/env python3
"""Regenerate perfbench/oracle.json, the reference outputs of every workload.

Run from the repository root at the commit whose outputs are the reference:

    python3 perfbench/make_oracle.py

It records the stdout sha256 of each CLI command a workload runs and the
verdict and witness of every (label, n) key of the ``queries`` workload.
Every key is also recomputed without codlab: cod(A_n) from a separate
hook-length routine, cod(H) from the degree data file read directly, and
the four known coincidences A5 = PSL(2,4) = PSL(2,5), A6 = PSL(2,9) and
A8 = PSL(4,2) from their order formulas.  Any disagreement aborts.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from math import factorial, gcd, prod

from run import (
    ALT_TABLES_ARGV, HERE, QUERY_LABELS, QUERY_N, SRC, VERIFY_ARGV, cli_env, query_key,
)

DATA_FILE = SRC / "codlab" / "data" / "groups_v1.jsonl"
EXPECTED_LINES = {
    VERIFY_ARGV: ["golden tables: MATCH", "RESULT: PASS"],
    ALT_TABLES_ARGV[0]: ["16215 values"],
    ALT_TABLES_ARGV[1]: ["PASS: minimal codegree strictly increasing on 5..40"],
}
# (label, n, q, d): PSL(d, q) isomorphic to A_n.
KNOWN_ISOMORPHIC = (("PSL(2,4)", 5, 4, 2), ("PSL(2,5)", 5, 5, 2),
                    ("PSL(2,9)", 6, 9, 2), ("PSL(4,2)", 8, 2, 4))


def partitions(n: int, cap: int | None = None):
    cap = n if cap is None else cap
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def alt_codegrees(n: int) -> set[int]:
    """cod(A_n) for n >= 5: H(lam)/2 per conjugate pair, H(lam) if self-conjugate."""
    values = {1}
    for lam in partitions(n):
        cols = [sum(1 for part in lam if part > j) for j in range(lam[0])]
        hooks = prod(lam[i] - j + cols[j] - i - 1 for i in range(len(lam)) for j in range(lam[i]))
        if lam in ((n,), (1,) * n):
            continue
        values.add(hooks if tuple(cols) == lam else hooks // 2)
    return values


def degree_data() -> dict[str, tuple[int, list[int]]]:
    out = {}
    for line in DATA_FILE.read_text("utf-8").splitlines()[1:]:
        rec = json.loads(line)
        if rec["record"] != "degrees" or rec.get("faithful_only"):
            continue
        order, degrees = int(rec["order"]), [int(d) for d in rec["degrees"]]
        if sum(d * d for d in degrees) != order:
            raise SystemExit(f"{rec['label']}: degrees do not square-sum to the order")
        for label in [rec["label"], *rec.get("aliases", [])]:
            out[label] = (order, degrees)
    return out


def independent_table() -> dict[str, list]:
    data = degree_data()
    if sorted(data) != sorted(QUERY_LABELS):
        raise SystemExit(f"labels with full degree data are {sorted(data)}")
    for label, n, q, d in KNOWN_ISOMORPHIC:
        psl = q ** (d * (d - 1) // 2) * prod(q ** i - 1 for i in range(2, d + 1)) // gcd(d, q - 1)
        if not data[label][0] == psl == factorial(n) // 2:
            raise SystemExit(f"{label}: order does not match |A{n}|")
    known = {(label, n) for label, n, _, _ in KNOWN_ISOMORPHIC}
    table = {}
    for n in QUERY_N:
        cod_a = alt_codegrees(n)
        for label in QUERY_LABELS:
            order, degrees = data[label]
            cod_h = {1} | {order // d for d in degrees if d != 1}
            missing = sorted(cod_h - cod_a)
            if missing:
                table[query_key(label, n)] = ["subset_refuted", str(missing[0])]
            elif (label, n) in known and cod_h == cod_a:
                table[query_key(label, n)] = ["isomorphic", None]
            else:
                raise SystemExit(f"cod({label}) inside cod(A{n}) with no known isomorphism")
    return table


def library_table() -> dict[str, list]:
    sys.path.insert(0, str(SRC))
    import codlab

    table = {}
    for n in QUERY_N:
        for label in QUERY_LABELS:
            res = codlab.check_subset(codlab.parse_group_label(label), n)
            table[query_key(label, n)] = [res.verdict,
                                          None if res.witness is None else str(res.witness)]
    return table


def cli_reference(argv: tuple[str, ...]) -> dict:
    proc = subprocess.run([sys.executable, "-m", "codlab.cli", *argv], capture_output=True,
                          env=cli_env(), check=True)
    lines = proc.stdout.decode("utf-8").splitlines()
    for line in EXPECTED_LINES[argv]:
        if line not in lines:
            raise SystemExit(f"{' '.join(argv)}: no line {line!r}")
    return {"argv": list(argv), "sha256": hashlib.sha256(proc.stdout).hexdigest(),
            "bytes": len(proc.stdout), "lines": EXPECTED_LINES[argv]}


def main() -> int:
    table = library_table()
    if table != independent_table():
        raise SystemExit("library and independent query tables disagree")
    verdicts = [v for v, _ in table.values()]
    oracle = {
        "verify": cli_reference(VERIFY_ARGV),
        "alt-tables": [cli_reference(argv) for argv in ALT_TABLES_ARGV],
        "queries": {
            "keys": len(table),
            "isomorphic": verdicts.count("isomorphic"),
            "subset_refuted": verdicts.count("subset_refuted"),
            "table": table,
        },
    }
    (HERE / "oracle.json").write_text(json.dumps(oracle, indent=1) + "\n", "utf-8")
    print(f"wrote {HERE / 'oracle.json'}: {len(table)} query keys, "
          f"{oracle['queries']['isomorphic']} isomorphic")
    return 0


if __name__ == "__main__":
    sys.exit(main())
