"""Tests of the benchmark itself: planted errors are counted as failed ops,
self time is computed from spans, and BENCHMARK.json matches the code.

    python3 bench/selftest.py
"""

from __future__ import annotations

import json
import random
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

import compare  # noqa: E402
import metrics  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, aggregate, call  # noqa: E402


class SmallDesign(workloads.DesignExact):
    M_CYCLE = (6, 7)
    EXHAUSTIVE_M = (5,)


def ok_ratio(workload, status, first) -> float:
    failed, _ = workload.tally(status, first)
    return 1.0 - sum(failed.values()) / len(status)


class PlantedErrors(unittest.TestCase):
    """A planted error in a program output must lower ops_ok_ratio."""

    @classmethod
    def setUpClass(cls):
        (ROOT / ".bench_run").mkdir(exist_ok=True)
        cls.workdir = Path(tempfile.mkdtemp(dir=ROOT / ".bench_run"))
        cls.design = SmallDesign(3, cls.workdir)
        cls.design.setup()
        cls.loop = cls.design.timed_loop(0.0, None, min_cycles=2)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.workdir, ignore_errors=True)

    def test_clean_run_has_no_failures(self):
        _, status, first = self.loop
        self.assertEqual(ok_ratio(self.design, status, first), 1.0)

    def test_flipped_table_bit_fails(self):
        _, status, first = self.loop
        slot = 1
        blob, text = self.design.artifacts[slot]
        tampered = bytearray(blob)
        tampered[-1] ^= 1
        self.design.artifacts[slot] = (bytes(tampered), text)
        try:
            failed, problems = self.design.tally(status, first)
            ratio = ok_ratio(self.design, status, first)
        finally:
            self.design.artifacts[slot] = (blob, text)
        self.assertIn("table bits differ", " ".join(problems[slot]))
        self.assertEqual(failed[slot], 2)
        self.assertLess(ratio, 1.0)

    def test_perturbed_ev_fails(self):
        _, status, first = self.loop
        result = list(first[0])
        result[0] += 1e-6
        failed, problems = self.design.tally(status, {**first, 0: tuple(result)})
        self.assertIn("compute EV", " ".join(problems[0]))
        self.assertEqual(failed[0], 2)
        self.assertLess(ok_ratio(self.design, status, {**first, 0: tuple(result)}), 1.0)

    def test_result_differing_from_first_fails(self):
        _, status, first = self.loop
        changed = bytearray(status)
        changed[len(self.design.slots)] = 2  # the second op of slot 0 differed
        failed, _ = self.design.tally(changed, first)
        self.assertEqual(failed, {0: 1})

    def test_wrong_exit_code_fails(self):
        cli = workloads.CliSession(3, self.workdir)
        cli.setup()
        _, status, first = cli.timed_loop(0.0, None, min_cycles=1)
        cli.after_loop()
        failed, problems = cli.tally(status, first)
        self.assertEqual(set(failed), {13, 14})  # only the two documented defects
        self.assertTrue(all(cli.known_defect(s) for s in failed))
        rc, tb, out, written = cli.processes[0]
        cli.processes[0] = (rc + 1, tb, out, written)
        failed, problems = cli.tally(status, first)
        self.assertIn("exit code", " ".join(problems[0]))
        self.assertIsNone(cli.known_defect(0))
        self.assertEqual(sum(failed.values()), 3)


class Reference(unittest.TestCase):
    def test_enumerator_matches_brute_force_oracle(self):
        from sact import model_from_dict
        from tests.helpers import brute_force_evaluation

        rng = random.Random(11)
        for m in (1, 4, 9):
            model = workloads.make_model(rng, m, alpha=(0.05, 0.95), beta=(0.05, 0.95), k5=0.01, k6=1.0)
            ids = [e["id"] for e in model["evidence"]]
            rng.shuffle(ids)
            want = brute_force_evaluation(model_from_dict(model), ids)[0]
            self.assertAlmostEqual(ref.subset_eval(model, ids)[0], want, places=12)


class LatencySummary(unittest.TestCase):
    def test_two_fastest_times_per_slot(self):
        lat = workloads.Latencies(10, 50.0)  # ten samples beyond p50 need two kept per slot
        self.assertEqual((lat.keep, lat.min_cycles), (2, 3))
        cycles = [[100.0] * 10] + [[float(i + k) for i in range(1, 11)] for k in range(3)]
        for cycle in cycles:  # the first is the warm-up
            for seconds in cycle:
                lat.add(seconds)
        summary = lat.summary()
        self.assertEqual(summary["samples"], 30)
        self.assertEqual(summary["throughput_ops_s"], 10 / 55.0)
        self.assertEqual(summary["p50_ms"], 5.5e3)
        self.assertEqual(summary["tail_ms"], 6.0e3)  # median of 1..10 and 2..11


class Spans(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        t = Tracer()
        spans = [["op", 0.0, 10.0, -1, 0, None], ["exact.ev_compute", 2.0, 5.0, 0, 0, {"assignments": 8}],
                 ["niv", 6.0, 7.0, 0, 0, None]]
        t.spans.extend(spans)
        agg = aggregate(t.spans)
        self.assertEqual(agg["op"]["self_s"], 6.0)
        self.assertEqual(agg["exact.ev_compute"]["self_s"], 3.0)
        values = metrics.per_layer(agg, {})
        self.assertEqual(values["exact.ev_compute.ns_per_assignment"]["value"], 3.0 / 8 * 1e9)
        self.assertEqual(values["op.layer_share"]["value"], 0.4)

    def test_call_records_a_child_span(self):
        t = Tracer()
        with t.span("op"):
            self.assertEqual(call(t, "niv", max, 1, 2), 2)
        self.assertEqual([s[0] for s in t.spans], ["op", "niv"])
        self.assertEqual(t.spans[1][3], 0)


class Spec(unittest.TestCase):
    def test_benchmark_json_matches_code(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([m["name"] for m in spec["per_layer"]], [m[0] for m in metrics.PER_LAYER])
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual(list(run.WORKLOADS), list(workloads.WORKLOADS))
        report = {"latency": {"throughput_ops_s": 1.0, "p50_ms": 1.0, "tail_ms": 2.0}, "peak_rss_mb": 1.0,
                  "setup_s": 1.0, "failed": 0, "attempted": 1, "artifact_bytes": 1}
        self.assertEqual([m["name"] for m in spec["end_to_end"]], list(run.end_to_end(report)))


class Verdicts(unittest.TestCase):
    def test_rules(self):
        parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9]
        faster = [v * 0.8 for v in parent]
        self.assertEqual(compare.verdict(parent, faster, "lower", 0.2, False)[0], "improved")
        self.assertEqual(compare.verdict(parent, faster, "lower", 0.2, True)[0], "unresolved")
        self.assertEqual(compare.verdict(parent, [v * 1.3 for v in parent], "lower", 0.2, False)[0], "worse")
        self.assertEqual(compare.verdict(parent, list(parent), "lower", 0.2, False)[0], "unchanged")
        noisy = [50.0, 150.0, 60.0, 140.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
        self.assertEqual(compare.verdict(noisy, list(reversed(noisy)), "lower", 0.2, False)[0], "unresolved")


if __name__ == "__main__":
    unittest.main()
