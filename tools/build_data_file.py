"""Assemble src/codlab/data/groups_v1.jsonl.

Usage: python tools/build_data_file.py [OUTPUT]

OUTPUT defaults to the packaged file.

The tool keeps no rules of its own: codlab's loader is the one validator.
It writes a temporary file next to OUTPUT, which replaces OUTPUT only if
the loader accepts it; a refused one is deleted, with the message and exit 1.

The file holds degree records only; the sporadic orders and class counts
are codlab.catalog's ATLAS table.  Sources per record:
  * PSL(2,q): the classical degree pattern of the q+1 / q-1 series
  * PSL(4,2): equals A8, degrees from hook lengths
  * PSL(3,4), PSU(3,3), Omega(5,3): tools/derive_degree_data.py
    (Dixon-Schneider from explicit matrix generators)
  * J2: ATLAS of Finite Groups
"""

import argparse
import json
import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from codlab.alt_codegrees import _frobenius_pairs  # noqa: E402
from codlab.catalog import DataFileError, _load_catalog  # noqa: E402
from codlab.catalog import group_order, parse_group_label  # noqa: E402

OUT = SRC / "codlab" / "data" / "groups_v1.jsonl"

ATLAS = "ATLAS of Finite Groups"


def psl2_degrees(q: int) -> list[int]:
    """Degree multiset of PSL(2,q) from the standard series pattern."""
    if q % 2 == 0:
        degs = [1, q] + [q + 1] * ((q - 2) // 2) + [q - 1] * (q // 2)
    elif q % 4 == 1:
        degs = [1, q, (q + 1) // 2, (q + 1) // 2]
        degs += [q + 1] * ((q - 5) // 4) + [q - 1] * ((q - 1) // 4)
    else:
        degs = [1, q, (q - 1) // 2, (q - 1) // 2]
        degs += [q + 1] * ((q - 3) // 4) + [q - 1] * ((q - 3) // 4)
    return sorted(degs)


def alt_degrees(n: int) -> list[int]:
    """Degree multiset of A_n from hook lengths; a split pair counts twice."""
    degs: list[int] = []
    for _, _, _, split, dim, _ in _frobenius_pairs(n, n):
        degs.extend([dim, dim] if split else [dim])
    return sorted(degs)


# Dixon-Schneider outputs of tools/derive_degree_data.py, pinned so that
# rebuilding the data file does not rerun the derivation;
# tests/test_catalog.py::test_dixon_lists_are_their_derivation checks them.
DIXON = {
    "PSL(3,4)": [1, 20, 35, 35, 35, 45, 45, 63, 63, 64],
    "PSU(3,3)": [1, 6, 7, 7, 7, 14, 21, 21, 21, 27, 28, 28, 32, 32],
    "Omega(5,3)": [1, 5, 5, 6, 10, 10, 15, 15, 20, 24, 30, 30, 30,
                   40, 40, 45, 45, 60, 64, 81],
}

J2_DEGREES = [1, 14, 14, 21, 21, 36, 63, 70, 70, 90, 126, 160, 175,
              189, 189, 224, 224, 225, 288, 300, 336]


def degree_row(label: str, degrees: list[int], provenance: str,
               aliases: list[str] | None = None) -> dict:
    row = {
        "record": "degrees",
        "label": label,
        "order": group_order(parse_group_label(label)),
        "degrees": sorted(degrees),
        "provenance": provenance,
    }
    if aliases:
        row["aliases"] = aliases
    return row


def main(out: Path = OUT) -> None:
    rows: list[dict] = [{"format": "codlab-groups", "version": 1}]

    series = "PSL(2,q) series degree pattern; sum-of-squares checked"
    for q in (4, 5, 7, 8, 9):
        rows.append(degree_row(f"PSL(2,{q})", psl2_degrees(q), series))

    rows.append(degree_row(
        "PSL(4,2)", alt_degrees(8),
        "equal to A8; degrees from hook lengths",
    ))

    dixon = "Dixon-Schneider on matrix generators (tools/derive_degree_data.py)"
    rows.append(degree_row("PSL(3,4)", DIXON["PSL(3,4)"], dixon))
    rows.append(degree_row("PSU(3,3)", DIXON["PSU(3,3)"], dixon,
                           aliases=["G2(2)'"]))
    rows.append(degree_row("Omega(5,3)", DIXON["Omega(5,3)"], dixon,
                           aliases=["PSU(4,2)"]))

    rows.append(degree_row("J2", J2_DEGREES, ATLAS))

    tmp = out.with_name(out.name + ".tmp")
    tmp.write_text("".join(json.dumps(row, separators=(", ", ": ")) + "\n" for row in rows),
                   encoding="utf-8")
    try:
        _load_catalog(tmp)
    except DataFileError as exc:
        tmp.unlink()
        sys.exit(f"refused: {exc}")
    os.replace(tmp, out)
    print(f"wrote {out} ({len(rows)} lines)")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(
        description="Validate and write the codlab degree data file."
    )
    parser.add_argument("output", nargs="?", type=Path, default=OUT, metavar="OUTPUT",
                        help=f"file to write (default {OUT.relative_to(SRC.parent)})")
    main(parser.parse_args().output)
