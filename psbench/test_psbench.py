#!/usr/bin/env python3
"""The benchmark's own tests: generator determinism and metric names.

    python3 psbench/test_psbench.py

Builds ps_bench (see run.py) before running.
"""

import json
import os
import re
import subprocess
import sys
import unittest

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def ps_bench(*args):
    return subprocess.run([run.EXE, *args], check=True,
                          stdout=subprocess.PIPE, text=True).stdout


class GeneratorTest(unittest.TestCase):
    def test_same_seed_gives_byte_identical_decks(self):
        for lines in ("1000", "10000"):
            self.assertEqual(ps_bench("--gen", "7", lines),
                             ps_bench("--gen", "7", lines))

    def test_other_seed_gives_another_deck(self):
        self.assertNotEqual(ps_bench("--gen", "7", "2000"),
                            ps_bench("--gen", "8", "2000"))

    def test_deck_reaches_the_requested_size(self):
        for lines in (1000, 2000, 10000):
            deck = ps_bench("--gen", "3", str(lines))
            self.assertGreaterEqual(deck.count("\n"), lines)
            self.assertLess(deck.count("\n"), lines * 1.1)


class MetricNamesTest(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            self.spec = json.load(f)
        self.printed = {"end_to_end": [], "per_layer": []}
        for line in ps_bench("--list-metrics").splitlines():
            kind, name, unit = line.split()
            self.printed[kind].append((name, unit))

    def test_every_name_and_unit_is_valid_and_unique(self):
        names = [n for kind in self.printed.values() for n, _ in kind]
        self.assertEqual(len(names), len(set(names)))
        for kind in self.printed.values():
            for name, unit in kind:
                self.assertRegex(name, NAME)
                self.assertRegex(unit, UNIT)

    def test_benchmark_json_matches_the_program(self):
        for kind in ("end_to_end", "per_layer"):
            declared = [(m["name"], m["unit"]) for m in self.spec[kind]]
            self.assertEqual(declared, self.printed[kind])

    def test_setup_metric_is_declared(self):
        setup = [m for m in self.spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))


if __name__ == "__main__":
    if not run.build():
        sys.exit("build failed")
    unittest.main()
