"""Tests of the benchmark's own inputs and checks.

    python3 perfbench/selftest.py        # from the root of the checkout

For one round of every workload: each generated input loads and validates
through weightfil's own loaders, each report passes its check, and each
report with one field made wrong (every key, at every depth of nested
objects) is rejected.  The closed forms are also compared with values
known independently of this benchmark.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import shutil
import sys
import unittest

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import workloads  # noqa: E402
from run import Runner  # noqa: E402
from weightfil import cli, phin, serialize  # noqa: E402

WORKDIR = os.path.join(ROOT, ".perfbench_work", f"selftest-{os.getpid()}")


def wrong(value):
    """A value of the same field that no check may accept."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return -1 - value
    if isinstance(value, str):
        return "" if value else "x"
    if isinstance(value, list):
        return value[:-1] if value else [0]
    if isinstance(value, dict):
        return dict(value, bogus=0)
    return 0


def mutations(obj, path=()):
    """(path, report with the field at path made wrong) for every field."""
    for key, value in obj.items():
        here = path + (key,)
        yield here, _replace(obj, key, wrong(value))
        if isinstance(value, dict):
            for sub_path, sub in mutations(value, here):
                yield sub_path, _replace(obj, key, sub)


def _replace(obj, key, value):
    out = dict(obj)
    out[key] = value
    return out


def load_and_validate(case):
    p = case.payload
    if case.kind.startswith("phin"):
        phin.validate(serialize.load_phin(p))
    elif case.kind == "ss-cech":
        serialize.load_nerve(p).validate()
    elif case.kind == "ss-steenbrink":
        serialize.load_steenbrink(p).validate()
    elif case.kind == "ss-pages":
        serialize.load_filtered_complex(p)  # validates on load
    else:
        cli.build_parser().parse_args(case.argv)


class Rounds(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        os.makedirs(WORKDIR, exist_ok=True)
        cls.runner = Runner(cli, WORKDIR)
        reference = {}
        for key, case in workloads.phin_reference_cases().items():
            _, out, _, _ = cls.runner.call(case.materialize(WORKDIR, "ref"))
            reference[key] = json.loads(out)
        cls.cases = []
        for name in ("phin_modules", "filtered_complexes", "building"):
            cases = workloads.round_cases(name, random.Random(f"selftest:{name}"), reference)
            for i, case in enumerate(cases):
                argv = case.materialize(WORKDIR, f"{name}{i}")
                rc, out, err, _ = cls.runner.call(argv)
                cls.cases.append((case, rc, out, err))

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(WORKDIR, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(WORKDIR))

    def test_inputs_load_and_validate(self):
        for case, _, _, _ in self.cases:
            with self.subTest(case=case.kind):
                load_and_validate(case)

    def test_reports_pass(self):
        for case, rc, out, err in self.cases:
            with self.subTest(case=case.kind):
                self.assertEqual(rc, 0, err)
                checks.check(case, out)

    def test_every_wrong_field_is_rejected(self):
        for case, _, out, _ in self.cases:
            report = json.loads(out)
            for path, bad in mutations(report):
                with self.subTest(case=case.kind, field=".".join(path)):
                    with self.assertRaises(checks.CheckError):
                        checks.check(case, json.dumps(bad))


class ClosedForms(unittest.TestCase):
    def test_tree_ball(self):
        spheres, edges = checks.ball_closed_form(1, 3, 6)
        self.assertEqual((sum(spheres), edges), (1457, 1456))

    def test_a2_building_neighbours(self):
        # radius-1 sphere: all proper nonzero subspaces of F_p^3
        for p in (2, 3, 5):
            spheres, edges = checks.ball_closed_form(2, p, 1)
            self.assertEqual(spheres[1], 2 * (p * p + p + 1))
            self.assertEqual(edges, spheres[1] + spheres[1] * (p + 1) // 2)

    def test_arrangement(self):
        got = checks._drinfeld_arrangement({"r": 4, "q": 3})["poincare"]
        self.assertEqual(got, [1, 120, 3510, 29160, 59049])

    def test_blowup(self):
        for q in (2, 3, 5):
            self.assertEqual(checks.blowup_even_betti(2, q), [1, q * q + q + 2, 1])

    def test_flags(self):
        # full flags of F_2^3: 7 points times 3 lines through each
        self.assertEqual(checks.flags_through_vertex(2, 2, 3), 21)


if __name__ == "__main__":
    unittest.main()
