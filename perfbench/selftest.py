"""Self-tests of the benchmark's own parts.

Usage: python3 perfbench/selftest.py

Checks that the references reproduce published values, that a one-digit
corruption of an output is caught, that request streams are deterministic
per seed, that the calibration scales timings to the reference host, that
the tracer records spans where callers look functions up, and that
BENCHMARK.json names exactly the metrics run.py reports.
"""

import json
import sys
import unittest
from itertools import islice
from pathlib import Path

import reference
import run
import workloads

README_ROWS = [
    [1],
    [1, 1, 1],
    [1, 2, 4, 2, 1],
    [1, 3, 8, 9, 8, 3, 1],
    [1, 4, 13, 22, 29, 22, 13, 4, 1],
]


def _corrupt(text: str) -> str:
    """Change the last digit of ``text`` by one."""
    k = max(i for i, ch in enumerate(text) if ch.isdigit())
    return text[:k] + str((int(text[k]) + 1) % 10) + text[k + 1:]


class ReferenceTest(unittest.TestCase):
    def test_readme_rows(self):
        self.assertEqual(list(reference.iter_rows(4)), README_ROWS)

    def test_motzkin2_matches_readme(self):
        self.assertEqual(reference.motzkin2(8), [1, 1, 3, 6, 16, 40, 109, 297])

    def test_column_one_is_a106053(self):
        table = reference.Table(8, columns=[1])
        self.assertEqual(table.columns[1][:8], [1, 2, 8, 22, 72, 218, 691, 2158])

    def test_fibonacci_and_catalan(self):
        self.assertEqual(reference.fibonacci(8), [0, 1, 1, 2, 3, 5, 8, 13])
        self.assertEqual(reference.catalan(6), [1, 1, 2, 5, 14, 42])

    def test_row_sum_identity_matches_rows(self):
        sums = reference.row_sums(40)
        self.assertEqual([sum(r) for r in reference.iter_rows(40)], sums)


class CorruptionTest(unittest.TestCase):
    def test_corrupted_row_fails(self):
        n = 30
        table = reference.Table(n, rows=[n])
        good = ",".join(map(str, table.rows[n])) + "\n"
        request = ("row", str(n))
        self.assertEqual(reference.check_all("deep-rows", [(request, good)]), [None])
        verdicts = reference.check_all("deep-rows", [(request, _corrupt(good))])
        self.assertIsNotNone(verdicts[0])

    def test_corrupted_series_fails(self):
        good = "1,1,3,6,16,40,109,297\n"
        request = ("series", "B", "--order", "8")
        self.assertEqual(reference.check_all("gf-order", [(request, good)]), [None])
        self.assertIsNotNone(reference.check_all("gf-order", [(request, _corrupt(good))])[0])

    def test_corrupted_entry_fails(self):
        good = ("82", "82")
        self.assertEqual(reference.check_all("lib-entries", [((5, 0), good)]), [None])
        bad = ("82", "83")
        self.assertIsNotNone(reference.check_all("lib-entries", [((5, 0), bad)])[0])

    def test_check_report_needs_eight_passes(self):
        good = "".join(f"PASS    {s} (bounds)\n" for s in reference.CHECK_SUITES)
        self.assertIsNone(reference.check_report(good))
        self.assertIsNotNone(reference.check_report(good.replace("PASS", "FAIL", 1)))
        self.assertIsNotNone(reference.check_report(good.split("\n", 1)[1]))


class GeneratorTest(unittest.TestCase):
    def test_deterministic_per_seed(self):
        for name in workloads.WORKLOADS:
            first = list(islice(workloads.cycles(name, 7), 20))
            self.assertEqual(first, list(islice(workloads.cycles(name, 7), 20)))
            if name != "verify":
                self.assertNotEqual(first, list(islice(workloads.cycles(name, 8), 20)))

    def test_lib_warmup_order_is_fixed(self):
        def pairs(seed):
            return [(i, abs(j) % 2) for i, j in workloads.lib_warmup(seed)]

        self.assertEqual(pairs(1), pairs(2))
        self.assertNotEqual(workloads.lib_warmup(1), workloads.lib_warmup(2))
        self.assertEqual(pairs(1), [(i, p) for i in range(100, 19, -1) for p in (0, 1)])

    def test_ranges(self):
        for argv in (r for c in islice(workloads.cycles("deep-rows", 3), 50) for r in c):
            if argv[0] == "row":
                self.assertTrue(800 <= int(argv[1]) <= 2000)
            else:
                self.assertTrue(0 <= int(argv[1]) <= 40 and 600 <= int(argv[3]) <= 1500)
        for cycle in islice(workloads.cycles("lib-entries", 3), 5):
            self.assertEqual(sorted(i for i, _ in cycle), sorted(list(range(20, 101)) * 2))
            for i, j in cycle:
                self.assertLessEqual(abs(j), i)
        for cycle in islice(workloads.cycles("gf-order", 3), 50):
            columns = [int(r[1][1:]) for r in cycle if r[1].startswith("L")]
            self.assertEqual(len(set(columns)), 6)
            self.assertTrue(set(columns) <= set(range(9)))
            self.assertEqual(len({r[1] for r in cycle if not r[1].startswith("L")}), 2)
            self.assertTrue(all(40 <= int(r[3]) <= 90 for r in cycle if r[1].startswith("L")))
            self.assertTrue(all(150 <= int(r[3]) <= 300 for r in cycle if not r[1].startswith("L")))


class CycleMetricsTest(unittest.TestCase):
    def test_lib_run_without_a_complete_cycle(self):
        # a program so slow that the budget ends the first cycle: the
        # library server's CPU is known only for the partial cycle
        partial = run.Run()
        for n in range(3):
            idx = partial.record((20 + n, 0), ("1", "1"))
            partial.timed.append((idx, 0, 0.5, None))
        partial.cycle_cpu[0] = 0.4
        metrics = partial.cycle_metrics()
        self.assertAlmostEqual(metrics["throughput_rps"], 2.0)
        self.assertAlmostEqual(metrics["latency_p50_s"], 0.5)
        self.assertAlmostEqual(metrics["cpu_s_per_request"], 0.4)

    def test_budget_follows_seconds(self):
        self.assertTrue(run.RUN_GRACE_S < run.Budget(10.0).left() <= 10.0 + run.RUN_GRACE_S)
        self.assertLessEqual(run.Budget(1000.0).left(), run.RUN_LIMIT_S)


class CalibrationTest(unittest.TestCase):
    def test_speed_factor_scales_to_the_reference_host(self):
        slow = run.Run()
        ref = run.CALIBRATION_REF_S["process"]
        slow.calibration = [2 * ref, 2.2 * ref, 1.9 * ref]
        self.assertAlmostEqual(slow.speed_factor(), 0.5)
        slow.calibration_kind = "warm"
        slow.calibration = [run.CALIBRATION_REF_S["warm"]]
        self.assertAlmostEqual(slow.speed_factor(), 1.0)
        with self.assertRaises(RuntimeError):
            run.Run().speed_factor()

    def test_calibration_runs_in_both_kinds_of_process(self):
        self.assertGreater(run.calibrate_process(60.0), 0)
        server = run.LibServer(False, run.Budget(60.0))
        try:
            self.assertGreater(server.calibrate(), 0)
            self.assertEqual(server.ask(5, 0)[0], ("82", "82"))
            server.close()
        finally:
            server.kill()


class ReapTest(unittest.TestCase):
    def test_request_reports_its_own_peak_rss(self):
        # started straight from a process this large, a small request would
        # report the parent's peak as its own
        ballast = bytearray(120 << 20)
        ballast[::4096] = b"x" * len(ballast[::4096])
        res = run.run_request(("row", "3"), False, 60.0)
        self.assertEqual((res.code, res.out), (0, "1,3,8,9,8,3,1\n"))
        self.assertLess(res.rss_mb, 100)
        self.assertGreater(res.cpu, 0)
        del ballast


class TracerTest(unittest.TestCase):
    def test_spans_where_callers_look(self):
        sys.path.insert(0, str(run.SRC))
        import tracer

        recorder = tracer.install()
        from pascal_rhombus import checks, closedforms

        self.assertTrue(checks.check_symmetry(6).passed)
        want = reference.Table(6, rows=[6]).entry(6, -2)
        self.assertEqual(closedforms.entry_convolved(6, -2), want)
        self.assertEqual(closedforms.entry_triple_sum(6, -2), want)
        names = [span[0] for span in recorder.spans]
        convolved = next(s for s in recorder.spans if s[0] == "closedforms.entry_convolved")
        self.assertEqual(convolved[5], {"lookups": 3})
        self.assertIn("checks.symmetry", names)
        self.assertIn("rhombus.build_table", names)
        build = next(s for s in recorder.spans if s[0] == "rhombus.build_table")
        self.assertEqual(build[3], "checks.symmetry")
        self.assertGreater(recorder.kernel.get("mul.calls", 0), 0)
        recorder.reset()
        self.assertEqual((recorder.spans, recorder.kernel), ([], {}))
        closedforms.entry_convolved(6, 0)
        self.assertEqual(recorder.spans[-1][0], "closedforms.entry_convolved")


class ContractTest(unittest.TestCase):
    def test_benchmark_json_names_what_run_reports(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    unittest.main()
