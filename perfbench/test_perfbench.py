"""Tests of the benchmark's own code.

    python3 -m unittest discover -s perfbench
"""

import json
import os
import random
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import inputs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from spekcat import diagrams, signatures  # noqa: E402


class InputTests(unittest.TestCase):
    def test_same_seed_gives_identical_inputs(self):
        for w in ("oracle", "families"):
            a = workloads.make_inputs(w, 11)
            self.assertEqual(a, workloads.make_inputs(w, 11))
            self.assertNotEqual(a, workloads.make_inputs(w, 12))

    def test_shuffled_family_members_denote_one_relation(self):
        for build, n in ((inputs.chain_int, 6), (inputs.fan, 4),
                         (inputs.chain, 5)):
            a = build(n, random.Random(1))
            b = build(n, random.Random(2))
            self.assertNotEqual(a, b)
            self.assertEqual(diagrams.evaluate(diagrams.parse(a)),
                             diagrams.evaluate(diagrams.parse(b)))

    def test_family_shapes(self):
        rng = random.Random(3)
        for build, n, zones, legs in ((inputs.chain_int, 7, 7, 1),
                                      (inputs.fan, 5, 7, 2),
                                      (inputs.chain, 6, 6, 6)):
            d = diagrams.parse(build(n, rng))
            _, zd = signatures.state_form(d)
            self.assertEqual(len(zd.zones), zones)
            self.assertEqual(len(d.legs), legs)


class OracleTests(unittest.TestCase):
    def test_phase_space_counts(self):
        self.assertEqual(workloads.expected_counts("spek", 3),
                         {1: 6, 2: 60, 3: 1080})
        self.assertEqual(workloads.expected_counts("mspek", 3),
                         {1: 7, 2: 91, 3: 2467})

    def test_wrong_result_is_a_failed_op(self):
        ops = workloads.Ops()
        self.assertEqual(ops.run("a", lambda: 1, lambda r: r == 1), 1)
        ops.run("b", lambda: 1, lambda r: r == 2)
        ops.run("c", lambda: 1 / 0)
        ops.run("d", lambda: 1, lambda r: r / 0)
        ops.run("a", lambda: 1, lambda r: r == 1)
        self.assertEqual((ops.attempted, ops.failed, ops.wrong), (5, 3, 2))
        self.assertEqual(len(ops.best()), 4)

    def test_oracle_pass_counts_a_wrong_form(self):
        passes = workloads.Passes("oracle")
        ops = workloads.Ops()
        text = inputs.random_spekd(random.Random(5), 4, 2)
        passes.run([text], ops)
        self.assertEqual(ops.failed, 0)
        original = signatures.StateForm.expand
        signatures.StateForm.expand = lambda self: None
        try:
            passes.run([text], ops)
        finally:
            signatures.StateForm.expand = original
        self.assertEqual((ops.attempted, ops.failed, ops.wrong), (2, 1, 1))


class TracerTests(unittest.TestCase):
    def test_self_time_of_a_synthetic_nest(self):
        spans = [("a", 0.0, 10.0, -1, 0),
                 ("b", 1.0, 3.0, 0, 0),
                 ("c", 2.0, 5.0, 0, 0),     # overlaps b
                 ("d", 8.0, 12.0, 0, 0),    # runs past its parent
                 ("e", 1.5, 2.5, 1, 0),
                 ("f", 20.0, 21.0, -1, 1)]
        self.assertEqual(tracer.self_times(spans),
                         [4.0, 1.0, 3.0, 4.0, 1.0, 1.0])

    def test_wrappers_at_every_lookup_name(self):
        original = diagrams.zone_decompose
        tr = tracer.Tracer()
        tr.install()
        try:
            self.assertIsNot(signatures.zone_decompose, original)
            self.assertIs(signatures.zone_decompose, diagrams.zone_decompose)
            signatures.state_form(diagrams.parse(
                "box u: eps+\nbox s: perm((24))\nwire u.1 s.in\nout s.1\n"))
        finally:
            tr.uninstall()
        self.assertIs(signatures.zone_decompose, original)
        stats = tracer.layer_stats(tr)
        self.assertEqual(stats["signatures.state_form.calls"], 1)
        self.assertEqual(stats["diagrams.zone_decompose.zones"], 2)
        self.assertEqual(stats["diagrams.zone_decompose.links"], 1)
        names = [s[0] for s in tr.spans]
        zd = names.index("diagrams.zone_decompose")
        self.assertEqual(names[tr.spans[zd][3]], "signatures.state_form")
        self.assertEqual(names[tr.spans[names.index(
            "diagrams.sigma_normalize")][3]], "diagrams.zone_decompose")


class ContractTests(unittest.TestCase):
    def test_benchmark_json_names_what_the_run_prints(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(workloads.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.per_layer_units())


if __name__ == "__main__":
    unittest.main()
