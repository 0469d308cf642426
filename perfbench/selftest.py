"""Self-tests of the benchmark: ``python3 perfbench/selftest.py`` from the repository root.

They check that BENCHMARK.json keeps the contract's shape, that the oracle
and the input generator agree with hand-computed closed forms, and that a
smoke-sized run of each workload, untraced and traced, prints exactly the
metric names of BENCHMARK.json with zero failed operations.  The smoke runs
leave out the large-trace states; the workloads themselves keep them.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
import unittest

import numpy as np

import compare
import gen
import oracle
import stats

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
END_TO_END = [
    "setup_s", "peak_rss_mb", "cli_wall_p50_s", "cli_wall_tail_s",
    "ensemble_samples_per_s", "search_trials_per_s", "search_gap_rel", "disc_shots_per_s",
    "states_per_s",
]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


class SpecShape(unittest.TestCase):
    def test_keys_and_names(self):
        s = spec()
        self.assertEqual(set(s), {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"})
        self.assertEqual([w["name"] for w in s["workloads"]], ["cli-cold", "mc-drivers", "state-audit"])
        self.assertEqual([m["name"] for m in s["end_to_end"]], END_TO_END)
        names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in s[key]]
        self.assertEqual(len(names), len(set(names)))
        self.assertTrue(all(NAME.match(n) for n in names))
        for m in s["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        setup = next(m for m in s["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in s["end_to_end"]))
        for m in s["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})


class Oracle(unittest.TestCase):
    def test_c_max(self):
        self.assertEqual(oracle.c_max(6.0, 1), 8.0)
        self.assertEqual(oracle.c_max(10.0, 2), 15.0)

    def test_msc_relation_and_loss(self):
        v = gen.msc_cm(6.0, 1)  # cosh 2r = 3, sinh 2r = sqrt(8)
        self.assertAlmostEqual(oracle.coherence(v), 8.0, places=12)
        discord = 2.0 * 8.0 / 36.0  # 2 ||V_xp / Tr V||^2
        self.assertEqual(oracle.check_relation(v, 8.0, discord), [])
        self.assertEqual(oracle.check_relation(v, 8.0, 1.1 * discord)[0].cls, "value")
        lossy = 0.5 * v + 0.5 * np.eye(2)
        self.assertEqual(oracle.check_loss(v, lossy, 0.5), [])
        self.assertEqual(len(oracle.check_loss(v, v, 0.5)), 1)
        self.assertEqual(oracle.check_coherence(v, 8.0, 16.0), [])

    def test_tvd(self):
        # x*^2 = 4 ln 4 / 3; 2 |Phi(x*) - Phi(x*/2)| with Phi from tables.
        self.assertAlmostEqual(oracle.tvd_exact(1.0, 4.0), 2 * (0.913017 - 0.751686), places=4)
        self.assertEqual(oracle.tvd_exact(2.0, 2.0), 0.0)

    def test_ensemble_mean_at_vacuum(self):
        # d = (1, 1): s1 = s2 = 4 and nu^2 = 1 exactly for both kinds.
        self.assertAlmostEqual(oracle.ensemble_mean("orthogonal", 2, 4.0, 4.0), 1.0)
        self.assertAlmostEqual(oracle.ensemble_mean("unitary", 2, 4.0, 4.0), 1.0)

    def test_wilson(self):
        lo, hi = oracle.wilson(0, 100)
        self.assertEqual(lo, 0.0)
        self.assertAlmostEqual(hi, 1.96**2 / 100 / (1 + 1.96**2 / 100), places=12)

    def test_search_and_verdicts(self):
        self.assertEqual(oracle.check_search(6.0, 1, 8.0)[0], [])
        self.assertEqual(oracle.check_search(6.0, 1, 8.1)[0][0].cls, "value")
        self.assertAlmostEqual(oracle.check_search(6.0, 1, 6.0)[1], 0.25)
        self.assertEqual(oracle.check_verdict("is_pure", False, True, oracle.verdict_class(True))[0].cls, "verdict")
        self.assertEqual(oracle.check_verdict("is_pure", False, True, oracle.verdict_class(False))[0].cls, "value")

    def test_operations_count_once(self):
        t = stats.Tally()
        fail = [oracle.Failure("verdict", "wrong")]
        wrong = [oracle.Failure("value", "off")]
        for key, failures in (("state:1", []), ("state:1", fail), ("state:2", []), ("state:2", []),
                              ("state:3", wrong), ("state:3", wrong)):
            t.unit("states", key, 0.1, 1, failures)
        self.assertEqual((t.attempted, t.failed, t.known_defect, t.calls["states"]), (3, 1, 1, 6))

    def test_tail(self):
        value, pct = stats.tail(range(1, 31))
        self.assertEqual(value, 20)
        self.assertAlmostEqual(pct, 100 * 19 / 29)


class Compare(unittest.TestCase):
    @staticmethod
    def records(values, name="states_per_s"):
        return [{"seed": i, "metrics": {name: {"value": v}}} for i, v in enumerate(values)]

    def test_verdicts(self):
        metric = {"name": "states_per_s", "better": "higher", "bound": 0.1}
        parent = self.records([100, 101, 99, 100, 102, 98, 100, 101, 99, 100])
        same = compare.row(metric, parent, self.records([100, 100, 99, 101, 100, 99, 101, 100, 100, 99]))
        self.assertEqual(same["verdict"], "pass")
        self.assertFalse(same["gain"])
        slower = compare.row(metric, parent, self.records([80, 81, 79, 80, 82, 78, 80, 81, 79, 80]))
        self.assertEqual(slower["verdict"], "fail")
        faster = compare.row(metric, parent, self.records([120, 121, 119, 120, 122, 118, 120, 121, 119, 120]))
        self.assertEqual((faster["verdict"], faster["won"], faster["gain"]), ("pass", 1.0, True))
        self.assertFalse(compare.row(metric, parent, self.records([120] * 10), errors_up=True)["gain"])
        noisy = compare.row(metric, parent, self.records([70, 130, 75, 125, 100, 90, 110, 80, 120, 100]))
        self.assertEqual(noisy["verdict"], "unresolved")

    def test_zero_parent(self):
        metric = {"name": "search_gap_rel", "better": "lower", "bound": 0.2}
        zeros = self.records([0.0] * 10, "search_gap_rel")
        for change, verdict in (([0.0] * 10, "pass"), ([0.3] * 10, "fail"), ([0.0] * 6 + [0.3] * 4, "unresolved")):
            self.assertEqual(compare.row(metric, zeros, self.records(change, "search_gap_rel"))["verdict"], verdict)

    def test_load_skips_smoke_runs(self):
        import tempfile

        with tempfile.TemporaryDirectory() as d:
            for i, smoke in enumerate((False, True)):
                with open(os.path.join(d, f"{i}.json"), "w") as fh:
                    json.dump({"workload": "w", "seed": i, "trace": 0, "smoke": smoke, "seconds": 25}, fh)
            self.assertEqual([r["seed"] for r in compare.load([d])["w"]], [0])


class Generator(unittest.TestCase):
    @staticmethod
    def symplectic_eigenvalues(v):
        m = v.shape[0] // 2
        omega = np.block([[np.zeros((m, m)), np.eye(m)], [-np.eye(m), np.zeros((m, m))]])
        return np.sort(np.abs(np.linalg.eigvals(1j * omega @ v).real))[::2]

    def test_states_are_what_they_claim(self):
        rng = gen.rng_for(7, gen.TAG_CORPUS)
        for m in (1, 3):
            pure = gen.pure_cm(2 * m + 5.0, m, rng)
            self.assertAlmostEqual(np.trace(pure), 2 * m + 5.0, places=9)
            np.testing.assert_allclose(self.symplectic_eigenvalues(pure), 1.0, atol=1e-9)
            lossy = gen.lossy_cm(2 * m + 5.0, m, 0.5, rng)
            self.assertAlmostEqual(np.trace(lossy), 2 * m + 5.0, places=9)
            self.assertTrue(np.all(self.symplectic_eigenvalues(lossy) > 1.0 + 1e-6))

    def test_seed_fixes_inputs(self):
        a, b = gen.corpus(3, 1, large=False), gen.corpus(3, 1, large=False)
        self.assertTrue(all(np.array_equal(x["matrix"], y["matrix"]) for x, y in zip(a, b)))
        self.assertFalse(np.array_equal(a[0]["matrix"], gen.corpus(4, 1, large=False)[0]["matrix"]))

    def test_large_trace_panel_ignores_seed(self):
        def panel(seed):
            states = gen.corpus(seed, 1)
            return sorted((s["m"], s["trace"], s["kind"], s["matrix"].tobytes()) for s in states
                          if s["trace"] in gen.LARGE_TRACES)

        self.assertEqual(panel(3), panel(4))

    def test_haar_unitary(self):
        u = gen.haar_unitary(4, gen.rng_for(1, 0))
        np.testing.assert_allclose(u @ u.conj().T, np.eye(4), atol=1e-12)


class SmokeRuns(unittest.TestCase):
    def run_bench(self, workload: str, trace: int) -> dict:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "5",
             "--seconds", "1", "--trace", str(trace), "--smoke"],
            cwd=ROOT, capture_output=True, text=True, timeout=300,
        )
        self.assertEqual(proc.returncode, 0, proc.stderr)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_workloads(self):
        s = spec()
        for workload in ("cli-cold", "mc-drivers", "state-audit"):
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    out = self.run_bench(workload, trace)
                    self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
                    self.assertEqual(list(out["metrics"]), [m["name"] for m in s[key]])
                    self.assertTrue(out["correct"])
                    self.assertGreaterEqual(out["attempted"], 1)
                    self.assertEqual(out["failed"], 0)
                    for m in s[key]:
                        self.assertEqual(out["metrics"][m["name"]]["unit"], m["unit"])
                        self.assertTrue(math.isfinite(out["metrics"][m["name"]]["value"]))


if __name__ == "__main__":
    unittest.main()
