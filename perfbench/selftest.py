"""Shows that each output check of the benchmark rejects a corrupted output.

    python3 perfbench/selftest.py

Each test takes a real output of holonewt, checks that it passes, then
corrupts it (a perturbed final_error, a flipped outcome, a verify report
out of tolerance, a teacher that no longer fits its data) and checks that
the corresponding check rejects it.  Not collected by pytest: it belongs
to the benchmark, not to the package's test suite.
"""

import copy
import os
import sys
import unittest
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _trials(pairs):
    return [SimpleNamespace(outcome=o, iterations=i) for o, i in pairs]


class TrialChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.wl = workloads.xor_newton()
        cls.result = cls.wl.run(workloads.Trial("taylor3/pseudo_newton", workloads.BATTERY_SEED))

    def test_real_trial_passes(self):
        self.assertEqual(self.result.outcome, "success")
        self.assertEqual(self.wl.op_problems(self.result), [])

    def test_perturbed_final_error_is_rejected(self):
        bad = copy.copy(self.result)
        bad.final_error = self.result.final_error * (1 + 1e-6)
        self.assertTrue(self.wl.op_problems(bad))

    def test_other_weights_are_rejected(self):
        bad = copy.deepcopy(self.result)
        bad.final_weights[0][0, 0] += 1e-3
        self.assertTrue(self.wl.op_problems(bad))

    def test_flipped_outcome_is_rejected(self):
        for outcome in ("local_minimum", "blow_up", "singular_matrix", "non_finite", "bogus"):
            bad = copy.copy(self.result)
            bad.outcome = outcome
            self.assertTrue(self.wl.op_problems(bad), outcome)

    def test_success_beyond_budget_is_rejected(self):
        bad = copy.copy(self.result)
        bad.iterations = 10**6
        self.assertTrue(self.wl.op_problems(bad))

    def test_local_minimum_needs_the_whole_budget(self):
        # a real budget-exhausted trial, then one that stopped early
        topology, config = self.wl.configs["taylor3/pseudo_newton"]
        short = workloads.TrainConfig(method=config.method, step=config.step, max_iters=2)
        self.wl.configs["short"] = (topology, short)
        try:
            res = self.wl.run(workloads.Trial("short", workloads.BATTERY_SEED))
            self.assertEqual(res.outcome, "local_minimum")
            self.assertEqual(self.wl.op_problems(res), [])
            res.iterations = 1
            self.assertTrue(self.wl.op_problems(res))
        finally:
            del self.wl.configs["short"]


class BandChecks(unittest.TestCase):
    def test_gd_bands(self):
        good = {"taylor3/gradient_descent": _trials([("success", 900)] * 9 + [("blow_up", 600)])}
        self.assertEqual(checks.gd_band_problems(good), [])
        few = {"taylor3/gradient_descent": _trials([("success", 900)] * 7 + [("blow_up", 600)] * 3)}
        self.assertTrue(checks.gd_band_problems(few))
        fast = {"sigmoid/gradient_descent": _trials([("success", 100)] * 10)}
        self.assertTrue(checks.gd_band_problems(fast))

    def test_newton_bands_and_ordering(self):
        good = {
            "taylor3/pseudo_newton": _trials([("success", 14)] * 95 + [("singular_matrix", 40)] * 5),
            "sigmoid/newton": _trials([("success", 7)] * 25 + [("singular_matrix", 1)] * 75),
        }
        self.assertEqual(checks.newton_band_problems(good), [])
        slow = dict(good, **{"sigmoid/pseudo_newton": _trials([("success", 81)] * 10)})
        self.assertTrue(checks.newton_band_problems(slow))
        lucky = dict(good, **{"sigmoid/newton": _trials([("success", 7)] * 40 + [("singular_matrix", 1)] * 60)})
        self.assertTrue(checks.newton_band_problems(lucky))
        none = dict(good, **{"taylor3/newton": _trials([("blow_up", 3)] * 10)})
        self.assertTrue(checks.newton_band_problems(none))


class TeacherCheck(unittest.TestCase):
    def test_teacher_fits_and_a_moved_teacher_does_not(self):
        wl = workloads.WideWorkload()
        self.assertEqual(wl.setup_problems(), [])
        wl.teacher[1][0, 0] += 1e-3
        self.assertTrue(wl.setup_problems())


class VerifyChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.wl = workloads.VerifyWorkload(0, HERE / "out" / f"selftest-{os.getpid()}")
        cls.result = cls.wl.run(cls.wl.operations(0)[0])

    @classmethod
    def tearDownClass(cls):
        cls.wl.close()

    def test_real_report_passes(self):
        self.assertEqual(self.wl.op_problems(self.result), [])

    def test_corrupted_reports_are_rejected(self):
        bad = copy.deepcopy(self.result)
        bad.exit_code = 2
        self.assertTrue(self.wl.op_problems(bad))
        bad = copy.deepcopy(self.result)
        bad.report["within_tolerance"] = False
        self.assertTrue(self.wl.op_problems(bad))
        bad = copy.deepcopy(self.result)
        bad.report["layers"][0]["h_ww_rel"] = 1e-3
        self.assertTrue(self.wl.op_problems(bad))
        bad = copy.deepcopy(self.result)
        bad.report["max_quadratic_form_rel"] = float("nan")
        self.assertTrue(self.wl.op_problems(bad))
        bad = copy.deepcopy(self.result)
        bad.report["layers"] = []
        self.assertTrue(self.wl.op_problems(bad))


class TracerChecks(unittest.TestCase):
    def test_self_times_add_up_and_outputs_do_not_change(self):
        wl = workloads.xor_newton()
        op = workloads.Trial("sigmoid/pseudo_newton", workloads.BATTERY_SEED)
        plain = wl.run(op)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = tracer.op(wl.run)(op)
        finally:
            tracer.uninstall()
        self.assertEqual(plain.key(), traced.key())
        self.assertEqual(tracer.roots, 1)
        self.assertLess(tracer.worst_root_mismatch, 1e-9)
        total_self = sum(s.self_s for s in tracer.stats.values())
        self.assertAlmostEqual(total_self, tracer.root_s, delta=1e-9 * tracer.root_s)
        self.assertEqual(tracer.layer("training").calls, 1)
        self.assertGreater(tracer.layer("linalg.solve").calls, 0)
        # every wrapper was taken off again
        self.assertFalse(hasattr(workloads.training.train, "__wrapped__"))

    def test_removed_name_is_absent_not_an_error(self):
        tracing.TARGETS["holonewt.training"]["no_such_function"] = "training:gone"
        tracer = tracing.Tracer()
        try:
            tracer.install()
            tracer.uninstall()
        finally:
            del tracing.TARGETS["holonewt.training"]["no_such_function"]
        self.assertEqual(tracer.absent, ["holonewt.training.no_such_function"])


if __name__ == "__main__":
    unittest.main()
