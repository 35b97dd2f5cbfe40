#!/usr/bin/env python3
"""Self-check of the benchmark's tracer and oracle (about a minute).

Run from the repository root:

    python3 perfbench/selfcheck.py

Checks that output under the tracer is byte-identical to the untraced CLI
subprocess, that every wrapper is installed where the name was imported and
removed afterwards, that traced runs of one seed give identical counters,
also when the sweep runs on a thread pool, and that the oracle's query table matches the independent recomputation.
"""

from __future__ import annotations

import importlib
import sys
import unittest

import run
from make_oracle import independent_table
from tracer import Tracer, namespace_snapshot


def counters(metrics: dict) -> dict:
    return {k: v for k, v in metrics.items() if v["unit"] != "s"}


def traced_counters(argv) -> dict:
    tracer = Tracer()
    tracer.install()
    try:
        code, out = run.run_main(argv)
    finally:
        tracer.uninstall()
    if code != 0:
        raise AssertionError(f"{argv} exited {code}")
    return counters(run.layer_metrics(tracer.summary(), len(out)))


class SelfCheck(unittest.TestCase):
    @classmethod
    def setUpClass(cls) -> None:
        problem = run.prepare()
        if problem:
            raise RuntimeError(problem)
        cls.oracle = run.load_oracle()

    def test_traced_output_matches_subprocess(self) -> None:
        env = run.cli_env()
        for argv in (run.VERIFY_ARGV, *run.ALT_TABLES_ARGV):
            code, expected, err, *_ = run.run_child(
                [sys.executable, "-m", "codlab.cli", *argv], env)
            self.assertEqual(code, 0, err)
            tracer = Tracer()
            tracer.install()
            try:
                code, traced = run.run_main(argv)
            finally:
                tracer.uninstall()
            self.assertEqual(code, 0)
            self.assertEqual(traced, expected, f"traced output of {argv} differs")
            self.assertGreater(tracer.span_count(), 0)

    def test_wrappers_installed_everywhere_and_restored(self) -> None:
        search = importlib.import_module("codlab.search")
        alt = importlib.import_module("codlab.alt_codegrees")
        exactnum = importlib.import_module("codlab.exactnum")
        before = namespace_snapshot()
        publics = Tracer.public_functions()
        tracer = Tracer()
        tracer.install()
        try:
            for home, func in publics.values():
                layer, name = home.split(".")
                mod = importlib.import_module(f"codlab.{layer}")
                self.assertIs(getattr(mod, name).__wrapped__, func, home)
            self.assertIs(search.factorial.__wrapped__, before[("exactnum", "factorial")])
            self.assertIs(alt.hook_product.__wrapped__, before[("partitions", "hook_product")])
            self.assertIsNot(search.factorial, exactnum.factorial)
        finally:
            tracer.uninstall()
        after = namespace_snapshot()
        self.assertEqual(before.keys(), after.keys())
        for key, obj in before.items():
            self.assertIs(after[key], obj, key)

    def test_counters_repeat_exactly(self) -> None:
        first, _ = run.run_traced("queries", 7, self.oracle)
        second, _ = run.run_traced("queries", 7, self.oracle)
        self.assertTrue(first["correct"] and second["correct"])
        self.assertEqual(counters(first["metrics"]), counters(second["metrics"]))

    def test_counters_identical_under_the_thread_pool(self) -> None:
        serial = traced_counters(run.VERIFY_ARGV)
        self.assertEqual(serial, traced_counters(run.VERIFY_ARGV))
        self.assertEqual(serial, traced_counters(("search", "all", "--threads", "2")))

    def test_oracle_table_matches_independent_recomputation(self) -> None:
        queries = self.oracle["queries"]
        self.assertEqual(queries["table"], independent_table())
        self.assertEqual((queries["isomorphic"], queries["subset_refuted"]), (4, 272))


if __name__ == "__main__":
    unittest.main()
