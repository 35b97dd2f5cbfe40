"""Command line surface: formats, exit codes, determinism."""

import argparse
import csv
import hashlib
import io
import json
import os
import re
import resource
import select
import subprocess
import sys
import threading
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from codlab import cli
from codlab.cli import MAX_N_CEILING, build_parser, cmd_search, main
from codlab.catalog import _PACKAGED_DATA
from codlab.search import SEARCH_TARGETS, run_full_verification
from oracles import shipped_records


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def python(*args, unbuffered=False):
    """A child Python running args, its stdout and stderr piped.

    Its stdout buffering is set here, not inherited: the unbuffered child
    gets -u, and neither gets PYTHONUNBUFFERED, which would make the
    buffered one unbuffered too.
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return subprocess.Popen([sys.executable, *(["-u"] if unbuffered else []), *args],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)


def codlab(*argv, unbuffered=False):
    """The command line run as a child process; see python."""
    return python("-m", "codlab.cli", *argv, unbuffered=unbuffered)


def finished(proc, timeout):
    """stdout and stderr of proc once it exits; killed if it runs longer."""
    try:
        return proc.communicate(timeout=timeout)
    finally:
        proc.kill()


def test_cod_table(capsys):
    code, out, _ = run_cli(capsys, "cod", "8")
    assert code == 0
    assert "|A8| = 20160 = 2^6·3^2·5·7" in out
    assert "2880 = 2^6·3^2·5" in out
    assert "11 values" in out


def test_cod_csv_values(capsys):
    code, out, _ = run_cli(capsys, "cod", "5", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["n", "group_order", "codegree"]
    assert [r[2] for r in rows[1:]] == ["1", "12", "15", "20"]


def test_cod_json(capsys):
    code, out, _ = run_cli(capsys, "cod", "6", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["group"] == "A6"
    assert doc["order"] == "360"
    assert doc["codegrees"] == ["1", "36", "40", "45", "72"]
    # numbers as decimal strings: reserialization is stable
    assert json.dumps(doc) == json.dumps(json.loads(json.dumps(doc)))


def test_cod_out_of_range(capsys):
    code, out, err = run_cli(capsys, "cod", "4")
    assert code == 2 and out == "" and "n must be" in err
    code, out, _ = run_cli(capsys, "cod", "41")
    assert code == 0 and out.endswith(" values\n")
    code, out, err = run_cli(capsys, "cod", "61")
    assert code == 2 and out == ""
    assert err == f"error: n must be in [5, {MAX_N_CEILING}], got 61\n"
    # the bound is fixed: no option raises or lowers it
    with pytest.raises(SystemExit) as exc:
        main(["cod", "41", "--max-n", "45"])
    assert exc.value.code == 2


def test_min_cod(capsys):
    code, out, _ = run_cli(capsys, "min-cod", "5", "6")
    assert code == 0
    assert "12" in out and "36" in out
    assert "PASS" in out


def test_min_cod_csv(capsys):
    code, out, _ = run_cli(capsys, "min-cod", "5", "7", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,min_codegree"
    assert lines[1:4] == ["5,12", "6,36", "7,72"]
    assert lines[-1] == "PASS"


def test_min_cod_bad_range(capsys):
    code, _, err = run_cli(capsys, "min-cod", "6", "5")
    assert code == 2 and "n_lo < n_hi" in err


# The benchmark's reference outputs (perfbench/oracle.json), read and never
# written here: the stdout sha256 of search all, cod 40 and min-cod 5 40.
_ORACLE = json.loads((Path(__file__).parents[1] / "perfbench" / "oracle.json").read_text("utf-8"))


def oracle_digest(*argv):
    [digest] = [ref["sha256"] for ref in (_ORACLE["verify"], *_ORACLE["alt-tables"])
                if ref["argv"] == list(argv)]
    return digest


# sha256 of each command's stdout, for every subcommand in every format.
# The cod and min-cod digests were recorded from the earlier per-prime
# renderer: the bulk cod table and min-cod's one-value factored column keep
# every byte on every supported Python.  The search, schur and check-subset
# digests were recorded before the Lie family tables were merged into one
# row per family; they pin the bounds, points examined and rows that those
# tables drive.  The sporadic, psl and g2 csv and table digests pin the rows
# of a single sweep target as the CLI prints them, beside the golden
# comparison of search all.  Three table digests are the benchmark's: its
# argv leaves out --format table, and search all's also sets --threads 1.
TABLE_DIGESTS = [
    (("cod", "5", "--format", "table"),
     "869c487d8b454f6560ea28c2308e42cad5a3a127917128d1e0e6b5f945b66bb4"),
    (("cod", "5", "--format", "csv"),
     "501167c2156514af6f7b17cf073495c598cf228a322981e35a2a0c54a86778c9"),
    (("cod", "5", "--format", "json"),
     "4dd69971900959582881e7894d92e11006b046af5f1538c3b4298e18cadcdfb8"),
    (("cod", "8", "--format", "table"),
     "9cd8e2b7c8fa1d8e22a134baa7090d1c77016fe503cdb263e5aa444294613a9e"),
    (("cod", "8", "--format", "csv"),
     "64e5ca23e7310697852628cbeea8709d30df97c77d69992e12490ad00cd6c408"),
    (("cod", "8", "--format", "json"),
     "1e6db7434ecea7473e724a04abb8cc76f63a5211c370c156323e00c8a57751ab"),
    (("cod", "12", "--format", "table"),
     "30dcec51ad6d58a064f10ce6e8781ad59f330645ddc6e684d42e07d3e5f129d7"),
    (("cod", "12", "--format", "csv"),
     "3b0214eabd44fb357e0697aec7a2d2a24d5c23691c3eff523827ef44e8ac06e8"),
    (("cod", "12", "--format", "json"),
     "8a62cc398ccaf79df66d64543c84a677674d05349a6f03fb93cf7859465431dc"),
    (("cod", "25", "--format", "table"),
     "e559775bc784a3408877a356d6f037a459758c85c31a38a88d6a09360315f212"),
    (("cod", "25", "--format", "csv"),
     "dac7925a94817c20793b78bfc880c7f2e0dd4adb9f4278d43d1c7a047163c052"),
    (("cod", "25", "--format", "json"),
     "9fee86bb2ae0c48bde7d569b9db218d1d52e65267507e7c72a2017fc3b2ebc16"),
    (("cod", "40", "--format", "table"), oracle_digest("cod", "40")),
    (("cod", "40", "--format", "csv"),
     "07c79a94c8e36144b152ee8bf5847db18476a9c871a85b4f1285ca692dbd377d"),
    (("cod", "40", "--format", "json"),
     "0f308bac5fb67fd6d84c2641099281e7d66133a3cda36c994b8c6ad5cb19a893"),
    (("min-cod", "5", "40"), oracle_digest("min-cod", "5", "40")),
    (("min-cod", "5", "40", "--format", "csv"),
     "f897d96b02fe22b70c645f4c9acfb69a56d236c19e230fbde725541503470e04"),
    (("min-cod", "5", "40", "--format", "json"),
     "7578e2e9bc00986676fdd7eca7d7c9bb3fc805b76e1c692239e8111d3feeba9e"),
    (("search", "all", "--format", "table"), oracle_digest("search", "all", "--threads", "1")),
    (("search", "all", "--format", "json"),
     "b54c2131c284f23db877a2404455407203aaeb806b4830be3e6b58fadba3604f"),
    (("search", "all", "--format", "csv"),
     "29a49e0d841450d6f2414e0b72ccad757fbb7016ebf4d9fd4708352516e415c0"),
    (("search", "sporadic", "--format", "json"),
     "1400ef0a452f8c2ffdd985c87bb6eae9a0f1c86b6557e2f35ea52d4175298dbe"),
    (("search", "sporadic", "--format", "csv"),
     "df04198a88bfeaa56ca6f5ba497fad3ef8d6859d5a150d32647960a5ce822469"),
    (("search", "sporadic", "--format", "table"),
     "d5b88d8f1ce7bf2f338ae6d6a5e42d300a13fdad6ebedcf187263f64c3c3e07e"),
    (("search", "psl", "--format", "json"),
     "3348d3ceffb1674075983feb3599b78e3aecfc4eb192a8ccc04347bfd9903b1e"),
    (("search", "psl", "--format", "csv"),
     "245d0d2afc58e18049063d18eedce087f985d28e9cd25b73a8c7cd675e52e5d9"),
    (("search", "psl", "--format", "table"),
     "9a3ab8b20c7e9960466d804d2d3451b4d9a7c232156d1119e8bab202b495c54a"),
    (("search", "psu", "--format", "json"),
     "37e92d5f16c56006f9ef15f3a84910379781da0e9674b55e54dabdea7b7e1d79"),
    (("search", "psp", "--format", "json"),
     "b5a8c37977eeaa5d1b49d0cdc6dad9ae4106514b3a576d5ed6317fee8fec0c7d"),
    (("search", "omegaodd", "--format", "json"),
     "69ba23040e42f11043bc75b79f342d3d949ad63ca0596a0697486c1b2ceac5c4"),
    (("search", "oplus", "--format", "json"),
     "651f446eb6161ce6a5c438d800f0df718dfdd9e325f24220598e8c6aed3bd9ae"),
    (("search", "ominus", "--format", "json"),
     "ab496d32f967f92befa5a023b94e4ad3943bdd328da828f3729afae569dd7cc1"),
    (("search", "g2", "--format", "json"),
     "e292647222113bceac1ab16105bd1b7f7a8414755a4fd9a753682f006ecedaeb"),
    (("search", "g2", "--format", "csv"),  # the header line alone
     "6059718051f1ce1f5a13220d78b445fb11e4062ff43952dcfa2b293468306fd3"),
    (("search", "g2", "--format", "table"),
     "2683ce20afd51b3eb5f9c168a8c0a92665589dc0144e4b5886d9eee5701379eb"),
    (("search", "f4", "--format", "json"),
     "da444f4a647129f453b5974bb5836838a0ce5bb8c9f84499214408a359ed6af9"),
    (("search", "e6", "--format", "json"),
     "43f1feec3a4d7bbb0ee4e2e2840b4a889430881e463b5c0dddaee37bb72e7738"),
    (("search", "e7", "--format", "json"),
     "340c2fc1960aa3dca526acb6db905eb39f959c36ff576dae105be235e8396030"),
    (("search", "e8", "--format", "json"),
     "08d168f500d98b4a0ef4bf8088ec638f3182318894e8dcdaae971862769b6b4d"),
    (("search", "twistede6", "--format", "json"),
     "cbb66fccb02b38c8932d491e1573bc67e0fd6ba5bfc5fa2015659336d5798377"),
    (("search", "trid4", "--format", "json"),
     "3bc9a11e9033bc9dd16418492c5fe055432d8a8d57b2d80f899436b10f2e59d5"),
    (("search", "suzuki", "--format", "json"),
     "8267583b25b2950ff8719054cb8848669f3dba19505e352cdedf7ec5027e1a29"),
    (("search", "ree", "--format", "json"),
     "f9c0fd391e41c4b5742a8930d3e0b5a7db157fa8a5d57b61b0fc0fa0079d3ef1"),
    (("search", "twistedf4", "--format", "json"),
     "73c763a817e2a8e993319045457ec30c91dc60a847acd127cff3a6d2fc25233d"),
    (("schur", "--format", "table"),
     "607b199bc85e2d6da1c3b25ffae65f7c0466cfc510ce9c6146c14a7b922dbd99"),
    (("schur", "--format", "csv"),
     "a117d85886263558b00ea1c3da495a4dd4aecf2d21a73d9dc91a5c68d494ff2b"),
    (("schur", "--format", "json"),
     "04e87edead2bfb76a5bac2607c6f4a67369cada3304b034d54c84543b353a746"),
    (("check-subset", "G2(2)'", "9"),
     "b9cfc5b39b7d7c1a728037006bf58a15cc7fc51d20d366dc07270ab8c466a03b"),
    (("check-subset", "J2", "9"),
     "754453b70b63842f7b77ceb5b8562e474509ebb85cd66b9384c3ee6f03ec17e0"),
    (("check-subset", "Omega(5,3)", "9"),
     "68deb1f9257c41e6995748bcd9a03c16136402fd834fc9c46edace5a8ccec571"),
    (("check-subset", "PSL(2,4)", "9"),
     "06c1bed17a15998cccb51bec79d3a5443c10785760808fdab3f6b7f4c71cc4f4"),
    (("check-subset", "PSL(2,5)", "9"),
     "e3b8b7ccd550be68b43629372b0dd64c27e509746d7c16eb3c3caf43bc15b802"),
    (("check-subset", "PSL(2,7)", "9"),
     "3d8424de06ee6b393f4e1cffc882eb7eb863ae283ff3611f3572164f1bff830c"),
    (("check-subset", "PSL(2,8)", "9"),
     "1c7d90fcb900f62495765e8b4a77c4e50ff776735e08770ee8b9494def72fed9"),
    (("check-subset", "PSL(2,9)", "9"),
     "f72e4658e5ea5ed2a46c23c4c28d73b8777db77385be88ac9b0246dc5ba06653"),
    (("check-subset", "PSL(3,4)", "9"),
     "41708f68d962890235a5759976781626eb58011460cd3e33c3aa3c4431fe4b5b"),
    (("check-subset", "PSL(4,2)", "9"),
     "937a89f9d0c67bdd673d62d2a0408bb55a81605e50700801de4919a1772173ad"),
    (("check-subset", "PSU(3,3)", "9"),
     "a253d32a6dd7d0f9186875e98923faa6ebd107bc1cd376c05b7fa3b007125e45"),
    (("check-subset", "PSU(4,2)", "9"),
     "3d6a2575c1eaba79aece82e3ec59643fddf450603a262cdb11de37f978febf43"),
    (("check-subset", "J2", "10", "--format", "csv"),
     "eaf9f5bfdb00aaeb5a829f4c6aa59b919fc594b99178392fdcca3f36f3482658"),
    (("check-subset", "J2", "10", "--format", "json"),
     "d476d24104b7a7ee491e98539c543356a28261588df471806e355a6f31706a62"),
]


@pytest.mark.parametrize("argv,digest", TABLE_DIGESTS,
                         ids=["-".join(a).replace("---format", "") for a, _ in TABLE_DIGESTS])
def test_a_n_table_bytes_are_pinned(capsys, argv, digest):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_search_psl_csv_matches_golden(capsys):
    code, out, _ = run_cli(capsys, "search", "psl", "--format", "csv")
    assert code == 0
    golden = (_PACKAGED_DATA.parent / "golden" / "table_psl.csv").read_text("utf-8")
    assert out == golden
    assert len(out.splitlines()) == 13  # header + 12 rows


def test_search_sporadic(capsys):
    code, out, _ = run_cli(capsys, "search", "sporadic")
    assert code == 0
    assert "J2" in out and "Tits" in out
    assert "witness codegree 1800" in out


def test_search_unknown_target(capsys):
    code, _, err = run_cli(capsys, "search", "nonsense")
    assert code == 2 and "unknown search target" in err


def test_search_family_json(capsys):
    code, out, _ = run_cli(capsys, "search", "psu", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["bounds"] == {"m_max": 5, "p_max": 3, "k_max": 8}
    assert (doc["points_examined"], doc["notes"]) == (41, [])
    assert "box" not in doc
    assert [r["label"] for r in doc["rows"]] == ["PSU(3,3)", "PSU(4,2)"]
    assert doc["rows"][0]["ratio"] == "30"
    assert [c["verdict"] for c in doc["checks"]] == ["subset_refuted"] * 2


def test_search_family_table(capsys):
    code, out, _ = run_cli(capsys, "search", "g2")
    assert code == 0
    assert out.splitlines()[:4] == [
        "target: G2",
        "derived bounds: m_max=None p_max=2 k_max=2",
        "points examined: 6",
        "note: point (p,k)=(2,1) swept as the simple group G2(2)' of order 6048",
    ]


def test_search_all_passes(capsys):
    code, out, _ = run_cli(capsys, "search", "all")
    assert code == 0
    assert "RESULT: PASS" in out
    assert "golden tables: MATCH" in out


def test_search_all_json(capsys):
    code, out, _ = run_cli(capsys, "search", "all", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "PASS"
    assert doc["schur"]["solutions"] == [9]
    assert doc["schur"]["a9_size"] == 16
    assert doc["schur"]["twisted_size"] == 21
    assert len(doc["rows"]) == 16


@pytest.mark.parametrize("patch", [
    ("verify_min_codegree_monotone", lambda lo, hi: (False, [(5, 12), (6, 36), (7, 36)])),
    ("_corner_bound", lambda n: n),
], ids=["base-walk", "step-inequality"])
def test_search_all_fails_when_the_monotone_proof_does(capsys, monkeypatch, patch):
    monkeypatch.setattr(f"codlab.alt_codegrees.{patch[0]}", patch[1])
    code, out, _ = run_cli(capsys, "search", "all")
    assert code == 3
    assert out.splitlines()[0] == "minimal codegree strictly increasing on 5..30: FAIL"
    assert out.splitlines()[-1] == "RESULT: FAIL"


@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
def test_search_all_threads_deterministic(capsys, fmt):
    _, one, _ = run_cli(capsys, "search", "all", "--threads", "1",
                        "--format", fmt)
    _, eight, _ = run_cli(capsys, "search", "all", "--threads", "8",
                          "--format", fmt)
    assert one == eight


def test_search_runs_serially(capsys, monkeypatch):
    _, one, _ = run_cli(capsys, "search", "psu", "--threads", "1")

    def refuse(self):
        raise AssertionError("the sweep started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    code, four, _ = run_cli(capsys, "search", "psu", "--threads", "4")
    assert code == 0
    assert four == one


def test_schur(capsys):
    code, out, _ = run_cli(capsys, "schur")
    assert code == 0
    assert "solutions: [9]" in out
    assert "distinct sizes: true" in out
    assert out.rstrip().endswith("PASS")


def test_schur_json_sizes_are_integers(capsys):
    code, out, _ = run_cli(capsys, "schur", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["a9_size"] == 16 and isinstance(doc["a9_size"], int)
    assert doc["twisted_size"] == 21 and isinstance(doc["twisted_size"], int)
    assert doc["new_codegrees"] == ["1620", "2268", "3024", "7560", "45360"]


def test_check_subset_refuted(capsys):
    code, out, _ = run_cli(capsys, "check-subset", "J2", "10")
    assert code == 0
    assert "refuted" in out and "1800" in out


def test_check_subset_isomorphic(capsys):
    for label, n in (("PSL(4,2)", "8"), ("A7", "7")):
        code, out, _ = run_cli(capsys, "check-subset", label, n)
        assert code == 0, label
        assert f"{label} vs A{n}: isomorphic" in out


def test_check_subset_answers_a_group_from_its_representative(capsys):
    # PSL(3,2) = PSL(2,7) has no record of its own: its codegrees are
    # PSL(2,7)'s, under its own label
    code, out, err = run_cli(capsys, "check-subset", "PSL(3,2)", "7", "--format", "json")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert (doc["label"], doc["verdict"], doc["witness"], doc["h_order"]) == (
        "PSL(3,2)", "subset_refuted", "21", "168")
    code, out, _ = run_cli(capsys, "check-subset", "PSL(3,2)", "7")
    assert code == 0
    assert out.startswith("PSL(3,2) vs A7: refuted, witness codegree 21 = 3·7\n")


def test_check_subset_json(capsys):
    code, out, _ = run_cli(capsys, "check-subset", "Omega(5,3)", "9",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "subset_refuted"
    assert doc["witness"] == "320"
    assert doc["h_order"] == "25920"


def test_check_subset_errors(capsys):
    code, _, err = run_cli(capsys, "check-subset", "NotAGroup(1,2)", "9")
    assert code == 2
    code, _, err = run_cli(capsys, "check-subset", "M11", "9")
    assert code == 2 and "no degree data" in err
    code, _, err = run_cli(capsys, "check-subset", "J2", "3")
    assert code == 2
    for label in ("PSp(5,2)", "Omega(4,3)", "O+(7,2)", "O-(9,3)", "G2(3,3)", "PSL(3)"):
        code, _, err = run_cli(capsys, "check-subset", label, "9")
        assert code == 2, label
        assert label in err
    for label in ("A70", "A61"):
        code, out, err = run_cli(capsys, "check-subset", label, "9")
        assert code == 2 and out == "", label
        assert err == f"error: {label} exceeds the largest accepted n, {MAX_N_CEILING}\n"


@pytest.mark.parametrize("label,dimension", [
    ("PSL(1,7)", 2), ("PSU(2,3)", 3), ("PSp(4,3)", 6), ("Omega(3,3)", 5),
    ("O+(6,2)", 8), ("O-(6,2)", 8),
])
def test_a_label_below_its_rank_floor_names_the_smallest_dimension(capsys, label, dimension):
    # each classical head one rank below its floor is refused in the label's
    # own terms, the dimension it was written with, not the rank m
    code, out, err = run_cli(capsys, "check-subset", label, "9")
    assert (code, out) == (2, "")
    head = label.split("(")[0]
    assert err == f"error: {head} needs dimension >= {dimension} in {label!r}\n"


def test_check_subset_g2_2_names_its_derived_group(capsys):
    # G2(2) is not simple; the error names the label that parses, G2(2)'
    code, out, err = run_cli(capsys, "check-subset", "G2(2)", "9")
    assert code == 2 and out == ""
    assert err == "error: G2(2) is not simple; use the label G2(2)'\n"


@pytest.mark.parametrize("q", [2**61 - 1, 2**127 - 1], ids=["2^61-1", "2^127-1"])
def test_check_subset_huge_q_exits_2_in_bounded_time(q):
    # a prime q with no degree data, and a q past the proven primality range
    proc = codlab("check-subset", f"PSL(2,{q})", "9")
    out, err = finished(proc, 5)
    assert proc.returncode == 2
    assert out == b""
    assert err.startswith(b"error: ")


def test_max_n_ceiling(capsys):
    # past the ceiling a request would run for hours: refused before any work
    for argv, message in (
        (("cod", "80"), f"n must be in [5, {MAX_N_CEILING}], got 80"),
        (("min-cod", "5", "200"), f"need 5 <= n_lo < n_hi <= {MAX_N_CEILING}, got 5 200"),
        (("check-subset", "A70", "9"), f"A70 exceeds the largest accepted n, {MAX_N_CEILING}"),
    ):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1.0, argv
        assert code == 2 and out == "", argv
        assert err == f"error: {message}\n", argv


def test_search_targets():
    assert SEARCH_TARGETS == {
        "psl": "PSL", "psu": "PSU", "psp": "PSp", "omegaodd": "OmegaOdd",
        "oplus": "OPlus", "ominus": "OMinus", "g2": "G2", "f4": "F4",
        "e6": "E6", "e7": "E7", "e8": "E8", "twistede6": "TwistedE6",
        "2e6": "TwistedE6", "trid4": "TriD4", "3d4": "TriD4",
        "suzuki": "Suzuki", "2b2": "Suzuki", "ree": "Ree", "2g2": "Ree",
        "twistedf4": "TwistedF4", "2f4": "TwistedF4",
    }


def test_bad_thread_count(capsys):
    code, out, err = run_cli(capsys, "search", "psl", "--threads", "0")
    assert code == 2 and out == ""
    assert err == "error: --threads must be >= 1, got 0\n"
    # only search takes --threads
    with pytest.raises(SystemExit) as exc:
        main(["cod", "8", "--threads", "1"])
    assert exc.value.code == 2


def test_each_subcommand_takes_only_the_options_it_reads():
    parser = build_parser()
    (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {name: sorted(s for a in p._actions for s in a.option_strings)
               for name, p in commands.choices.items()}
    only_format = ["--format", "--help", "-h"]
    assert options == {
        "cod": only_format,
        "min-cod": only_format,
        "search": ["--format", "--help", "--threads", "-h"],
        "schur": only_format,
        "check-subset": only_format,
    }
    assert parser.parse_args(["search", "all"]).threads == 1


def test_main_calls_the_handler_the_module_holds(capsys, monkeypatch):
    # a wrapper put in place of a handler, as a span tracer does, is called
    seen = []
    monkeypatch.setattr("codlab.cli.cmd_search",
                        lambda args: seen.append(args.threads) or cmd_search(args))
    code, out, _ = run_cli(capsys, "search", "g2", "--threads", "2")
    assert code == 0 and out.startswith("target: G2\n") and seen == [2]


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_data_override_respected(tmp_path, monkeypatch, capsys):
    copy = tmp_path / "data.jsonl"
    copy.write_text(_PACKAGED_DATA.read_text("utf-8"), "utf-8")
    monkeypatch.setenv("CODLAB_DATA", str(copy))
    code, out, _ = run_cli(capsys, "check-subset", "PSU(3,3)", "9")
    assert code == 0 and "189" in out


def _drop_label(line):
    rec = json.loads(line)
    del rec["label"]
    return json.dumps(rec)


def _on_j2(edit):
    """Apply edit to line 11, the J2 degree record."""
    def apply(lines):
        assert '"label": "J2"' in lines[10]
        return lines[:10] + [edit(lines[10])] + lines[11:]
    return apply


def _on_header(edit):
    """Apply edit to line 1, the header."""
    def apply(lines):
        return [edit(lines[0])] + lines[1:]
    return apply


def _without_degrees(label):
    """Drop the degree record of label."""
    def apply(lines):
        kept = [ln for ln in lines
                if f'"record": "degrees", "label": "{label}"' not in ln]
        assert len(kept) == len(lines) - 1
        return kept
    return apply


def _without_degrees_then(label, edit):
    """Drop the degree record of label, then apply edit."""
    drop = _without_degrees(label)
    return lambda lines: edit(drop(lines))


def _degrees_of(label, /, **fields):
    """Set fields of the degree record of label."""
    def apply(lines):
        key = f'"record": "degrees", "label": "{label}"'
        [i] = [i for i, ln in enumerate(lines) if key in ln]
        return lines[:i] + [json.dumps({**json.loads(lines[i]), **fields})] + lines[i + 1:]
    return apply


def _appended(record):
    """Append the record as line 12, after the J2 record on line 11."""
    def apply(lines):
        assert len(lines) == 11 and '"label": "J2"' in lines[10]
        return lines + [json.dumps(record)]
    return apply


def data_file(path, edit):
    """Write the packaged data file, its lines changed by edit, to path; a
    character U+DC80..U+DCFF is written as the byte it escapes."""
    lines = edit(_PACKAGED_DATA.read_text("utf-8").splitlines())
    path.write_text("\n".join(lines) + "\n", "utf-8", "surrogateescape")


_SPORADIC_M11 = {"record": "sporadic", "label": "M11", "order": 7920, "class_count": 10,
                 "provenance": "ATLAS of Finite Groups"}
# PSL(2,9)'s degrees with its 10 split as four 5s (10^2 = 4 * 5^2): the
# squares still sum to 360, but the codegree 36 is gone from cod(A6)
_COD_NOT_COD_A6 = [1, 5, 5, 5, 5, 5, 5, 8, 8, 9]
# 16 degrees of a group of order 20160 whose codegrees 1, 315, 360, 448,
# 1008 and 2880 all lie in cod(A8): each divides the order and the squares
# sum to it, so the loader takes them for PSL(3,4), which is not A8, but
# not for PSL(4,2), which is
_COD_IN_COD_A8 = [1, 7, 7, 7, 7, 7, 7, 20, 20, 20, 45, 56, 56, 56, 56, 64]
# J2's 21 degrees with 300 split as 180 and 240 (300^2 = 180^2 + 240^2): the
# squares still sum to |J2|, and each degree divides it, but 22 is not k(J2)
_J2_22_DEGREES = sorted([d for d in shipped_records()["J2"]["degrees"] if d != 300] + [180, 240])
_NO_A_N_RECORD = "cod(A_n) comes from hook lengths, never from a degree record"
# The record of 2.A9's faithful degrees that the data file once held; cod(2.A9)
# now comes from Schur's spin-degree formula, and the format has no such record
_FORMER_2A9 = {"record": "degrees", "label": "2.A9", "order": 362880,
               "degrees": [8, 8, 48, 48, 56, 112, 120, 120, 160, 168, 168, 224],
               "provenance": "spin degrees over strict partitions; sum-of-squares checked",
               "faithful_only": True}


@pytest.mark.parametrize(
    "edit,argv,problem",
    [
        (None, ("check-subset", "J2", "10"), ": No such file or directory"),
        (_on_j2(lambda line: line + "\udcff"), ("check-subset", "J2", "10"),
         ": not UTF-8 text: invalid start byte"),
        (_on_j2(lambda line: "{not json"), ("check-subset", "J2", "10"), ":11: not JSON: "),
        (_on_j2(_drop_label), ("check-subset", "J2", "10"),
         ":11: record has no 'label' field"),
        (_without_degrees("J2"), ("search", "all"), ": no degree data for J2"),
        (_without_degrees("J2"), ("search", "sporadic"), ": no degree data for J2"),
        (_without_degrees("J2"), ("check-subset", "J2", "10"), ": no degree data for J2"),
        # records that contradict the group they name, refused on their line
        (_degrees_of("PSL(2,8)", order=26, degrees=[1, 3, 4]), ("check-subset", "PSL(2,8)", "8"),
         ":5: degree record PSL(2,8): order 26 disagrees with the order formula 504"),
        (_degrees_of("PSL(2,8)", degrees=[1, 1, 5, 6, 21]), ("search", "all"),
         ":5: degree record PSL(2,8): degree 5 does not divide |PSL(2,8)| = 504"),
        (_degrees_of("J2", order=1209600), ("check-subset", "J2", "10"),
         ":11: degree record J2: order 1209600 disagrees with the order formula 604800"),
        (_degrees_of("PSU(3,3)", degrees=[1, 6, 7]), ("check-subset", "PSU(3,3)", "9"),
         ":9: degree record PSU(3,3): sum of squared degrees is not 6048"),
        # the loader refuses them on every run, whichever groups the run reaches
        (_degrees_of("PSL(2,8)", order=26, degrees=[1, 3, 4]), ("check-subset", "J2", "10"),
         ":5: degree record PSL(2,8): order 26 disagrees with the order formula 504"),
        (_degrees_of("PSL(2,8)", order=26, degrees=[1, 3, 4]), ("search", "sporadic"),
         ":5: degree record PSL(2,8): order 26 disagrees with the order formula 504"),
        (_degrees_of("PSU(3,3)", degrees=[1, 6, 7]), ("check-subset", "J2", "10"),
         ":9: degree record PSU(3,3): sum of squared degrees is not 6048"),
        (_degrees_of("PSU(3,3)", degrees=[1, 6, 7]), ("search", "psl"),
         ":9: degree record PSU(3,3): sum of squared degrees is not 6048"),
        # an alias names a group isomorphic to its record's, by the table of
        # exceptional isomorphisms, and no order of it is built
        (_degrees_of("PSU(3,3)", aliases=["G2(2)'", "PSL(2,11)"]), ("check-subset", "J2", "10"),
         ":9: degree record PSL(2,11): not isomorphic to PSU(3,3)"),
        (_degrees_of("PSL(2,4)", aliases=["PSL(20000,2)"]), ("check-subset", "J2", "10"),
         ":2: degree record PSL(20000,2): not isomorphic to PSL(2,4)"),
        (_degrees_of("PSL(2,4)", aliases=["PSL(1000000001,2)"]), ("check-subset", "J2", "10"),
         ":2: degree record PSL(1000000001,2): not isomorphic to PSL(2,4)"),
        (_degrees_of("PSL(2,4)", aliases=["A99999999"]), ("check-subset", "J2", "10"),
         ":2: degree record A99999999: not isomorphic to PSL(2,4)"),
        # PSL(3,4) has the order of PSL(4,2) = A8, but is another group: its
        # codegrees would be taken for cod(A8), a false alarm
        (_without_degrees_then("PSL(3,4)", _degrees_of("PSL(4,2)", aliases=["PSL(3,4)"])),
         ("search", "all"), ":7: degree record PSL(3,4): not isomorphic to PSL(4,2)"),
        (_without_degrees_then("PSL(3,4)", _degrees_of("PSL(4,2)", aliases=["PSL(3,4)"])),
         ("check-subset", "PSL(3,4)", "8"),
         ":7: degree record PSL(3,4): not isomorphic to PSL(4,2)"),
        # an alias of the record's group is filed once, like a label
        (_degrees_of("PSL(2,4)", aliases=["PSL(2,5)"]), ("check-subset", "J2", "10"),
         ":3: duplicate degree record PSL(2,5)"),
        # a name too big for the record is refused before its order is built
        (_degrees_of("PSL(2,4)", label="PSL(20000,2)"), ("check-subset", "J2", "10"),
         ":2: degree record PSL(20000,2): order 60 is below |PSL(20000,2)|"),
        # a rank past the record's bits is refused before the order formula is built
        (_degrees_of("PSL(2,4)", label="PSL(1000000001,2)"), ("check-subset", "J2", "10"),
         ":2: degree record PSL(1000000001,2): order 60 is below |PSL(1000000001,2)|"),
        # no record is filed under an A_n, whose codegrees come from hook lengths
        (_degrees_of("PSL(2,4)", aliases=["A5"]), ("check-subset", "J2", "10"),
         f":2: degree record A5: {_NO_A_N_RECORD}"),
        (_degrees_of("PSL(3,4)", label="A8"), ("check-subset", "J2", "10"),
         f":8: degree record A8: {_NO_A_N_RECORD}"),
        (_degrees_of("PSL(2,4)", label="Foo"), ("check-subset", "J2", "10"),
         ":2: degree record Foo: cannot parse group label 'Foo'"),
        # a sporadic record lists one degree per class of the ATLAS table
        (_degrees_of("J2", degrees=_J2_22_DEGREES), ("check-subset", "J2", "10"),
         ":11: degree record J2: 22 degrees for 21 classes"),
        # a number is read only as a JSON integer, never truncated or coerced
        (_degrees_of("PSL(2,4)", degrees=[1, 3.9, 3, 4, 5.5]), ("check-subset", "J2", "10"),
         ":2: degree 3.9 is not an integer"),
        # a degree list is a JSON list, never read digit by digit or key by key
        (_degrees_of("PSL(2,7)", degrees=7), ("check-subset", "J2", "10"),
         ":4: degrees 7 is not a list"),
        (_degrees_of("PSL(2,7)", degrees="1,3,3"), ("check-subset", "J2", "10"),
         ':4: degrees "1,3,3" is not a list'),
        (_degrees_of("PSL(2,7)", degrees={"1": 1}), ("check-subset", "J2", "10"),
         ':4: degrees {"1": 1} is not a list'),
        (_degrees_of("PSL(2,8)", order=504.0), ("check-subset", "J2", "10"),
         ":5: order 504.0 is not an integer"),
        (_degrees_of("PSL(2,7)", order="168"), ("check-subset", "J2", "10"),
         ':4: order "168" is not an integer'),
        # the file holds degree records only: the sporadic facts are catalog's,
        # and search all, whose sweep reads no file, still reads it to discharge
        (_appended(_SPORADIC_M11), ("check-subset", "J2", "10"),
         ":12: unknown record type 'sporadic'"),
        (_appended({**_SPORADIC_M11, "order": 7921}), ("check-subset", "J2", "10"),
         ":12: unknown record type 'sporadic'"),
        (_appended({**_SPORADIC_M11, "order": 7921}), ("search", "all"),
         ":12: unknown record type 'sporadic'"),
        (_appended({**_SPORADIC_M11, "label": "Foo"}), ("check-subset", "J2", "10"),
         ":12: unknown record type 'sporadic'"),
        (_appended({"record": "degrees", "label": "PSL(2,7)", "order": 168,
                    "degrees": [1, 3, 3, 6, 7, 8], "provenance": "PSL(2,q) series"}),
         ("search", "all"), ":12: duplicate degree record PSL(2,7)"),
        # a second record of one group, under a name that is not the
        # catalog's for it, is refused; records of an A_n's names are held
        # to cod(A_n) instead
        (_appended({"record": "degrees", "label": "PSL(3,2)", "order": 168,
                    "degrees": [1, 3, 3, 6, 7, 8], "provenance": "PSL(2,q) series"}),
         ("check-subset", "PSL(3,2)", "7"),
         ":12: degree record PSL(3,2): the catalog files this group as PSL(2,7)"),
        # a simple group has one linear character: 168 ones pass the order,
        # divisor and squares checks, and would give cod(H) = {1}
        (_degrees_of("PSL(2,7)", degrees=[1] * 168), ("check-subset", "PSL(2,7)", "7"),
         ":4: degree record PSL(2,7): 168 degrees 1, but a non-abelian simple group "
         "has one linear character"),
        (_degrees_of("PSL(2,7)", degrees=[2] * 42), ("search", "all"),
         ":4: degree record PSL(2,7): 0 degrees 1, but a non-abelian simple group "
         "has one linear character"),
        # each group is filed once, however its name is spelt
        (_degrees_of("PSL(2,7)", aliases=["PSL(2, 7)"]), ("check-subset", "J2", "10"),
         ":4: duplicate degree record PSL(2, 7)"),
        # a record of an A_n under another name is held to cod(A_n) under any spelling
        (_degrees_of("PSL(2,9)", label="PSL(2, 9)", degrees=_COD_NOT_COD_A6),
         ("check-subset", "PSL(2,9)", "6"),
         ":6: degree record PSL(2, 9): codegrees are not cod(A6), though PSL(2, 9) = A6"),
        # a record holds no field the loader does not read, refused after every
        # other check
        (_degrees_of("J2", faithful_only=True), ("check-subset", "J2", "10"),
         ":11: record has unknown field 'faithful_only'"),
        (_degrees_of("J2", alias=["Foo"]), ("check-subset", "J2", "10"),
         ":11: record has unknown field 'alias'"),
        (_degrees_of("J2", order=1209600, alias=["Foo"]), ("check-subset", "J2", "10"),
         ":11: degree record J2: order 1209600 disagrees with the order formula 604800"),
        # a record names a simple group: cod(2.A9) comes from Schur's formula
        (_appended(_FORMER_2A9), ("check-subset", "J2", "10"),
         ":12: degree record 2.A9: cannot parse group label '2.A9'"),
        (_appended(_FORMER_2A9), ("search", "all"),
         ":12: degree record 2.A9: cannot parse group label '2.A9'"),
        # a name is JSON text, never coerced
        (_degrees_of("PSL(2,7)", label=7), ("check-subset", "J2", "10"),
         ":4: label 7 is not text"),
        (_degrees_of("PSL(3,4)", provenance=["ATLAS"]), ("check-subset", "J2", "10"),
         ':8: provenance ["ATLAS"] is not text'),
        (_degrees_of("J2", provenance=None), ("check-subset", "J2", "10"),
         ":11: provenance null is not text"),
        (_degrees_of("PSL(2,4)", label=["PSL(2,4)"]), ("check-subset", "J2", "10"),
         ':2: label ["PSL(2,4)"] is not text'),
        (_degrees_of("PSU(3,3)", aliases="A5"), ("check-subset", "J2", "10"),
         ':9: aliases "A5" is not a list'),
        (_degrees_of("PSU(3,3)", aliases=["G2(2)'", 7]), ("check-subset", "J2", "10"),
         ":9: alias 7 is not text"),
        # a group that is an A_n under another name has the codegrees of A_n
        (_degrees_of("PSL(2,9)", degrees=_COD_NOT_COD_A6), ("check-subset", "PSL(2,9)", "6"),
         ":6: degree record PSL(2,9): codegrees are not cod(A6), though PSL(2,9) = A6"),
        (_degrees_of("PSL(2,9)", degrees=_COD_NOT_COD_A6), ("search", "all"),
         ":6: degree record PSL(2,9): codegrees are not cod(A6), though PSL(2,9) = A6"),
        (_degrees_of("PSL(4,2)", degrees=_COD_IN_COD_A8), ("check-subset", "PSL(4,2)", "8"),
         ":7: degree record PSL(4,2): codegrees are not cod(A8), though PSL(4,2) = A8"),
        # a line is read up to a bound, never whole
        (_degrees_of("J2", provenance="x" * (2 << 20)), ("check-subset", "J2", "10"),
         ":11: line longer than 1048576 characters"),
        # a line nested past the recursion limit is refused, not a traceback
        (_on_j2(lambda line: "[" * 100_000), ("check-subset", "J2", "10"),
         ":11: nested too deeply"),
        (_on_header(lambda line: '{"format": ' * 50_000), ("check-subset", "J2", "10"),
         ":1: nested too deeply"),
        # a key written twice is refused, never read as its last value
        (_on_j2(lambda line: line.replace('"order": ', '"order": 1, "order": ')),
         ("check-subset", "J2", "10"), ":11: repeated field 'order'"),
        (_on_j2(lambda line: line.replace('"provenance": ', '"provenance": {"a": 1, "a": 2}, "x": ')),
         ("check-subset", "J2", "10"), ":11: repeated field 'a'"),
        (_on_header(lambda line: line.replace('"version": 1', '"version": 2, "version": 1')),
         ("search", "all"), ":1: repeated field 'version'"),
    ],
    ids=["missing-file", "not-utf8", "non-json-line", "record-without-label",
         "no-j2-search-all",
         "no-j2-search-sporadic", "no-j2-check-subset", "psl28-order-26",
         "psl28-degree-5", "j2-order-doubled", "psu33-squares",
         "psl28-order-26-check-subset-j2", "psl28-order-26-search-sporadic",
         "psu33-squares-check-subset-j2", "psu33-squares-search-psl",
         "alias-psl211", "alias-psl20000-2", "alias-psl1000000001-2",
         "alias-a99999999", "alias-psl34-on-psl42", "alias-psl34-on-psl42-check-subset",
         "alias-psl25-on-psl24", "label-psl20000-2", "label-psl1000000001-2",
         "alias-a5-on-psl24", "psl34-label-a8", "label-foo",
         "j2-class-count-22", "psl24-float-degrees", "psl27-degrees-number",
         "psl27-degrees-text", "psl27-degrees-object", "psl28-float-order",
         "psl27-string-order", "m11-atlas-record", "m11-order-7921", "m11-order-7921-search-all",
         "extra-sporadic-foo", "duplicate-psl27", "second-record-psl32",
         "psl27-168-ones", "psl27-no-one", "duplicate-psl27-spelling",
         "psl29-spelt-not-a6", "j2-faithful-only", "j2-alias-key",
         "j2-alias-key-order-doubled",
         "former-2a9-record", "former-2a9-record-search-all", "psl27-label-number",
         "psl34-provenance-list", "j2-provenance-null", "psl24-label-list",
         "psu33-aliases-text", "psu33-alias-number", "psl29-not-a6",
         "psl29-not-a6-search-all", "psl42-not-a8", "j2-provenance-2mib",
         "j2-nested-100000", "header-nested-50000", "j2-repeated-order",
         "j2-repeated-nested-key", "header-repeated-version"],
)
def test_bad_data_file_exits_2(tmp_path, monkeypatch, capsys, edit, argv, problem):
    target = tmp_path / "data.jsonl"
    if edit is not None:
        data_file(target, edit)
    monkeypatch.setenv("CODLAB_DATA", str(target))
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {target}{problem}")
    assert err.count("\n") == 1


def test_an_endless_data_line_exits_2_in_bounded_memory():
    # /dev/zero is one line that never ends; it is refused once its first
    # MiB is read, in an address space that could not hold the line whole
    proc = subprocess.Popen(
        [sys.executable, "-m", "codlab.cli", "check-subset", "J2", "10"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "CODLAB_DATA": "/dev/zero"},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20)))
    out, err = finished(proc, 30)
    assert (proc.returncode, out) == (2, b"")
    assert err == b"error: /dev/zero:1: line longer than 1048576 characters\n"


@pytest.mark.parametrize(
    "spelling,edit,argv,problem",
    [
        ("missing.jsonl", None, ("check-subset", "J2", "10"), ": No such file or directory"),
        ("data.jsonl", _on_j2(_drop_label), ("check-subset", "J2", "10"),
         ":11: record has no 'label' field"),
        ("./data.jsonl", _without_degrees("J2"), ("check-subset", "J2", "10"),
         ": no degree data for J2"),
    ],
    ids=["missing-file", "record-without-label", "no-j2"],
)
def test_a_relative_data_path_is_refused_by_its_name(tmp_path, monkeypatch, capsys,
                                                     spelling, edit, argv, problem):
    # the path as given, without a leading ./, never the absolute path the
    # catalog keys the file by
    if edit is not None:
        data_file(tmp_path / "data.jsonl", edit)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("CODLAB_DATA", spelling)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {spelling.removeprefix('./')}{problem}\n")


@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
@pytest.mark.parametrize(
    "spelling,edit",
    [
        ("missing.jsonl", None),
        ("./missing.jsonl", None),
        ("data.jsonl", _without_degrees("J2")),
        ("data.jsonl", _degrees_of("PSL(2,8)", order=26, degrees=[1, 3, 4])),
    ],
    ids=["missing-file", "dot-missing-file", "no-j2", "psl28-order-26"],
)
def test_schur_reads_no_data_file(tmp_path, monkeypatch, capsys, spelling, edit, fmt):
    # cod(2.A9) comes from Schur's spin-degree formula, so schur answers
    # with its pinned bytes whatever CODLAB_DATA names
    if edit is not None:
        data_file(tmp_path / "data.jsonl", edit)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("CODLAB_DATA", spelling)
    argv = ("schur", "--format", fmt)
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == dict(TABLE_DIGESTS)[argv]


def test_a_subset_without_isomorphism_fails_the_run(tmp_path, monkeypatch, capsys):
    # the theorem's failure path: a group that is not A_n, all of whose
    # codegrees lie in cod(A_n), is an alarm, never called isomorphic
    data_file(tmp_path / "data.jsonl", _degrees_of("PSL(3,4)", degrees=_COD_IN_COD_A8))
    monkeypatch.setenv("CODLAB_DATA", str(tmp_path / "data.jsonl"))
    alarm = "PSL(3,4) vs A8: SUBSET HOLDS without isomorphism (alarm)"
    code, out, _ = run_cli(capsys, "search", "all")
    assert code == 3
    lines = out.splitlines()
    assert "survivors: 16 checks, 4 isomorphic, 11 refuted, 1 unresolved" in lines
    assert alarm in lines and lines[-1] == "RESULT: FAIL"
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "452a45640e62d274caf1c5bbaf41889f75734b540fa42146dec8cd7765cca34d")
    code, out, _ = run_cli(capsys, "check-subset", "PSL(3,4)", "8")
    assert code == 3 and out.splitlines()[0] == alarm
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "df1a9aba38e45866bc2e10a4b95e76cb80b6dd1fec631d2838e373e98bb0b908")
    [check] = run_full_verification().unresolved
    assert check == ("PSL(3,4)", 8, "subset_holds", None, 20160, 6, 11)


def failed_answers(capsys, *argv):
    """argv's output in table, json and csv, each of which must exit 3: the
    table lines, the JSON document and the CSV rows."""
    outs = []
    for fmt in ("table", "json", "csv"):
        code, out, err = run_cli(capsys, *argv, "--format", fmt)
        assert (code, err) == (3, ""), fmt
        outs.append(out)
    table, doc, rows = outs
    return table.splitlines(), json.loads(doc), list(csv.reader(io.StringIO(rows)))


def test_min_cod_fails_in_every_format(capsys, monkeypatch):
    monkeypatch.setattr("codlab.cli.verify_min_codegree_monotone",
                        lambda lo, hi: (False, [(5, 12), (6, 36), (7, 36)]))
    table, doc, rows = failed_answers(capsys, "min-cod", "5", "7")
    assert table[-1] == "FAIL: minimal codegree strictly increasing on 5..7"
    assert (doc["monotone"], doc["verdict"]) == (False, "FAIL")
    assert rows[-2:] == [["7", "36"], ["FAIL"]]


def test_schur_fails_in_every_format(capsys, monkeypatch):
    from codlab import search

    check = search.schur_a9_size_check
    monkeypatch.setattr(search, "schur_a9_size_check",
                        lambda: check()._replace(proper_superset=False))
    table, doc, rows = failed_answers(capsys, "schur")
    assert table[-3] == "cod(A9) proper subset of cod(2.A9): false" and table[-1] == "FAIL"
    assert (doc["proper_superset"], doc["verdict"]) == (False, "FAIL")
    assert rows[-2:] == [["sizes", "16", "21"], ["FAIL"]]


def test_an_alarm_fails_each_command_that_meets_it_in_every_format(tmp_path, monkeypatch,
                                                                   capsys):
    golden = (_PACKAGED_DATA.parent / "golden" / "table_psl.csv").read_text("utf-8")
    data_file(tmp_path / "data.jsonl", _degrees_of("PSL(3,4)", degrees=_COD_IN_COD_A8))
    monkeypatch.setenv("CODLAB_DATA", str(tmp_path / "data.jsonl"))
    alarm = "PSL(3,4) vs A8: SUBSET HOLDS without isomorphism (alarm)"
    table, doc, rows = failed_answers(capsys, "check-subset", "PSL(3,4)", "8")
    assert table[0] == alarm
    assert (doc["verdict"], doc["witness"]) == ("subset_holds", None)
    assert rows == [["label", "n", "verdict", "witness"], ["PSL(3,4)", "8", "subset_holds", ""]]
    table, doc, rows = failed_answers(capsys, "search", "psl")
    assert alarm in table
    assert [c["label"] for c in doc["checks"] if c["verdict"] == "subset_holds"] == ["PSL(3,4)"]
    # the rows come from the sweep, which reads no file: only the exit code
    # tells the csv reader of the alarm
    assert rows == list(csv.reader(io.StringIO(golden)))
    table, doc, rows = failed_answers(capsys, "search", "all")
    assert alarm in table and table[-1] == "RESULT: FAIL"
    assert doc["verdict"] == "FAIL"
    assert rows[-1] == ["FAIL"]


@pytest.mark.parametrize("renderer,argv", [
    pytest.param(renderer, (*argv, "--format", fmt), id=f"{argv[0]}-{fmt}")
    for renderer, argv in (("format_known_divisors", ("cod", "8")),
                           ("format_factored", ("min-cod", "5", "40")))
    for fmt in ("json", "csv")
])
def test_only_the_format_asked_for_is_rendered(capsys, monkeypatch, renderer, argv):
    # the table's factored texts are never built for json or csv
    def refuse(*args):
        raise AssertionError(f"{renderer} was called")

    monkeypatch.setattr(f"codlab.cli.{renderer}", refuse)
    with pytest.raises(AssertionError, match=renderer):
        main([*argv[:-2], "--format", "table"])
    capsys.readouterr()
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == dict(TABLE_DIGESTS)[argv]


@pytest.mark.parametrize("unbuffered,stdout", [(False, "BufferedWriter"), (True, "FileIO")],
                         ids=["buffered", "unbuffered"])
def test_child_stdout_buffering_is_set_not_inherited(monkeypatch, unbuffered, stdout):
    # with PYTHONUNBUFFERED=1 in the caller's environment, the buffered child
    # still writes through a buffer, and only the -u child to the file itself
    monkeypatch.setenv("PYTHONUNBUFFERED", "1")
    proc = python("-c", "import sys; print(type(sys.stdout.buffer).__name__)",
                  unbuffered=unbuffered)
    assert finished(proc, 60) == (f"{stdout}\n".encode(), b"")


@pytest.mark.parametrize("unbuffered,argv,first", [
    pytest.param(unbuffered, argv, first, id=name + suffix)
    for unbuffered, suffix in ((False, ""), (True, "-u"))
    for name, argv, first in (
        ("table", ("cod", "40", "--format", "table"), b"cod(A40)"),
        ("csv", ("cod", "40", "--format", "csv"), b"n,group_order,codegree"),
        ("json", ("cod", "40", "--format", "json"), b"{"),
        # its 2 KB would fit in the pipe, so the reader closes before any is read
        ("min-cod", ("min-cod", "5", "40"), None),
    )
])
def test_closed_stdout_is_silent(unbuffered, argv, first):
    # the reader stops after one line, or before any; the writer, buffered
    # or not (-u), must exit 1 without a traceback, not 0 with its output
    # cut short
    proc = codlab(*argv, unbuffered=unbuffered)
    if first is not None:
        assert proc.stdout.readline().startswith(first)
    proc.stdout.close()
    assert proc.wait(timeout=60) == 1
    assert proc.stderr.read() == b""
    proc.stderr.close()


class RecordingStdout(io.StringIO):
    """A stdout stand-in that keeps each write."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


def recorded_writes(emit):
    out = RecordingStdout()
    with redirect_stdout(out):
        emit()
    return out.writes


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_cod_40_child_writes_the_pinned_bytes(fmt, unbuffered):
    argv = ("cod", "40", "--format", fmt)
    proc = codlab(*argv, unbuffered=unbuffered)
    out, err = finished(proc, 60)
    assert (proc.returncode, err) == (0, b"")
    assert hashlib.sha256(out).hexdigest() == dict(TABLE_DIGESTS)[argv]


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_cod_40_is_written_in_pipe_atomic_chunks(fmt):
    # one write per line would be 16,219 writes; every write must fit in
    # PIPE_BUF bytes, which a pipe takes whole or not at all
    argv = ("cod", "40", "--format", fmt)
    writes = recorded_writes(lambda: main(list(argv)))
    assert len(writes) <= 1400
    assert max(len(w.encode()) for w in writes) <= select.PIPE_BUF
    assert hashlib.sha256("".join(writes).encode()).hexdigest() == dict(TABLE_DIGESTS)[argv]


def test_emit_cuts_a_piece_longer_than_a_chunk():
    chunk = cli._CHUNK
    pieces = ["·" * (3 * chunk + 5) + "\n", "a\n", "b" * chunk, "c" * (chunk + 1), "", "d\n"]
    writes = recorded_writes(lambda: cli._emit(iter(pieces)))
    assert "".join(writes).encode() == "".join(pieces).encode()
    assert max(len(w.encode()) for w in writes) <= select.PIPE_BUF
    # three cut from the first piece, its tail joined with "a\n", the b's
    # whole, the c's cut, and the last c joined with "d\n"
    assert [len(w) for w in writes] == [chunk, chunk, chunk, 8, chunk, chunk, 3]


def test_cod_refuses_a_codegree_that_does_not_divide_the_order(monkeypatch, capsys):
    # the CodegreeSet check is the only divisibility check on the cod path
    from codlab import alt_codegrees

    walk = alt_codegrees._codegree_blocks
    monkeypatch.setattr(alt_codegrees, "_codegree_blocks", lambda lo, hi: (
        (n, [7 if c == 12 else c for c in codegrees]) for n, codegrees in walk(lo, hi)))
    with pytest.raises(ValueError, match="codegree 7 does not divide order 60"):
        main(["cod", "5"])
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv,caller,message", [
    (("cod", "8"), "alt_codegree_set", "sum of squared dimensions 11164 != |A_8| = 20160"),
    (("min-cod", "5", "12"), "verify_min_codegree_monotone",
     "sum of squared dimensions 35 != |A_5| = 60"),
    (("search", "all"), "prove_min_codegree_monotone",
     "sum of squared dimensions 35 != |A_5| = 60"),
], ids=["cod", "min-cod", "search-all"])
def test_a_walk_that_loses_a_shape_is_refused(monkeypatch, capsys, argv, caller, message):
    # cod, min-cod and the monotonicity proof of search all each meet the
    # walk's check of every n's sum of squared dimensions, the proof before
    # the data file is read; a failure there is an internal error, never
    # exit 2 or 3
    from codlab import alt_codegrees

    run_list = alt_codegrees._run_list
    monkeypatch.setattr(alt_codegrees, "_run_list", lambda d, total, shorter, fact: [
        (r, h) for r, h in run_list(d, total, shorter, fact) if r != (2, 0)])
    with pytest.raises(ArithmeticError, match=f"^{re.escape(message)}$") as caught:
        main(list(argv))
    assert caller in [entry.name for entry in caught.traceback]
    assert capsys.readouterr().out == ""


# Argv fuzzing.  Every integer is at most 25 or past MAX_N_CEILING, and the
# free text has no decimal digits, so a case either does bounded work
# (n <= 25) or is refused before any.
CLI_COMMANDS = ("cod", "min-cod", "search", "schur", "check-subset")
CLI_WORDS = (
    "all", "sporadic", "psl", "2b2", "e8", "nonsense", "J2", "M11", "A7", "G2(2)'",
    "PSL(2,7)", "PSU(3,3)", "PSL(2,1_3)", f"PSL(2,{2**61 - 1})", f"PSL(2,{2**127 - 1})",
    "table", "json", "csv", "--format", "--threads", "--max-n", "--", "-",
)
cli_numbers = (st.integers(min_value=5, max_value=25) | st.integers(max_value=25)
               | st.integers(min_value=MAX_N_CEILING + 1)).map(str)
cli_text = st.text(st.characters(blacklist_categories=("Nd", "Cs")), max_size=12)
cli_tokens = cli_numbers | st.sampled_from(CLI_WORDS) | cli_text
cli_options = st.lists(
    st.tuples(st.just("--format"), st.sampled_from(("table", "json", "csv")) | cli_tokens)
    | st.tuples(st.sampled_from(("--threads", "--max-n")), cli_numbers | cli_tokens),
    max_size=3,
).map(lambda pairs: [token for pair in pairs for token in pair])
# each subcommand with its own positional shape, then options
cli_shaped = st.one_of(
    st.tuples(st.just("cod"), cli_numbers),
    st.tuples(st.just("min-cod"), cli_numbers, cli_numbers),
    st.tuples(st.just("search"), cli_tokens),
    st.tuples(st.just("schur")),
    st.tuples(st.just("check-subset"), cli_tokens, cli_numbers),
).flatmap(lambda head: cli_options.map(lambda opts: [*head, *opts]))
cli_free = st.tuples(st.sampled_from(CLI_COMMANDS) | cli_text, st.lists(cli_tokens, max_size=6))
cli_argv = cli_shaped | cli_free.map(lambda pair: [pair[0], *pair[1]])


@given(cli_argv)
@settings(max_examples=300, deadline=5000)
def test_cli_argv_answers_or_refuses(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: usage error, or --help
            assert exc.code == 2 or (exc.code == 0 and out.getvalue().startswith("usage:"))
            return
    assert code in (0, 2, 3)
    if code == 2:
        assert err.getvalue().startswith("error: ")
