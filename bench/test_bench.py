"""Self-tests of the benchmark harness.

    python3 bench/test_bench.py

The main test shows that one table entry off by one is counted as a failed
job on every workload: a package function is wrapped so that its result has
one entry bumped, and the workload job that depends on it must fail its check.
"""

from __future__ import annotations

import json
import random
import signal
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import compare  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
from workloads import WORKLOADS, eulerian_row, two_sided_array  # noqa: E402

PKG = run.import_package()


def bump_table(table):
    """The recurrence table with A(5, 2) off by one."""
    rows = list(table.rows)
    if len(rows) >= 5:
        rows[4] = rows[4][:1] + (rows[4][1] + 1,) + rows[4][2:]
    return PKG.eulerian.EulerianTable(table.n_max, tuple(rows))


def bump_rows(rows):
    """Brute-force rows with the second entry of each row off by one."""
    return {n: row[:1] + (row[1] + 1,) + row[2:] for n, row in rows.items()}


class OffByOne(unittest.TestCase):
    def setUp(self):
        self.old_handler = signal.signal(signal.SIGALRM, run._alarm)
        self.tmp = tempfile.TemporaryDirectory()

    def tearDown(self):
        signal.signal(signal.SIGALRM, self.old_handler)
        self.tmp.cleanup()

    def failures(self, workload_name: str, job_name: str, attr: str | None, bump) -> list[str]:
        runner = run.Runner(workload_name, seed=7, seconds=1, trace=False)
        workload = WORKLOADS[workload_name](PKG, runner.nproc, Path(self.tmp.name))
        workload.prepare(random.Random(7))
        workload.before_pass()
        jobs = [job for job in workload.pass_jobs(random.Random(7)) if job.name.startswith(job_name)]
        self.assertTrue(jobs, f"{workload_name} has no job {job_name}")
        module = PKG.eulerian
        original = getattr(module, attr) if attr else None
        if attr:
            setattr(module, attr, lambda *a, **k: bump(original(*a, **k)))
        try:
            runner.timed(jobs[0])
        finally:
            if attr:
                setattr(module, attr, original)
        self.assertEqual(runner.attempted, 1)
        return runner.failures

    def check_workload(self, workload_name, job_name, attr, bump):
        self.assertEqual(self.failures(workload_name, job_name, None, None), [])
        failed = self.failures(workload_name, job_name, attr, bump)
        self.assertEqual(len(failed), 1, failed)

    def test_verify_all(self):
        self.check_workload("verify-all", "verify-all", "table_from_recurrence", bump_table)

    def test_enumerate(self):
        self.check_workload("enumerate", "eulerian-n9-shards1", "brute_force_rows", bump_rows)

    def test_algebra(self):
        self.check_workload("algebra", "eulerian-recurrence-300", "table_from_recurrence", bump_table)

    def test_cli_cache(self):
        self.check_workload("cli-cache", "eulerian-300/", "table_from_recurrence", bump_table)


class References(unittest.TestCase):
    def test_closed_forms_match_known_values(self):
        self.assertEqual(eulerian_row(4), (1, 11, 11, 1))
        self.assertEqual(eulerian_row(5), (1, 26, 66, 26, 1))
        self.assertEqual(two_sided_array(4), ((1, 0, 0, 0), (0, 10, 1, 0), (0, 1, 10, 0), (0, 0, 0, 1)))


class Spans(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        recorded = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["b", 5.0, 6.0, 0], ["c", 2.0, 3.0, 1]]
        inclusive, self_time, calls = spans.span_totals(recorded)
        self.assertEqual(self_time, {"a": 6.0, "b": 3.0, "c": 1.0})
        self.assertEqual(inclusive, {"a": 10.0, "b": 4.0, "c": 1.0})
        self.assertEqual(calls, {"a": 1, "b": 2, "c": 1})

    def test_instrumentation_restores_originals(self):
        before = (PKG.exactnum.UniPoly.__mul__, PKG.eulerian.enumerate_sn, PKG.verify.SUITES["gessel"])
        tracer = spans.Tracer()
        with spans.Instrumentation(tracer, PKG):
            PKG.eulerian.table_brute_force(5)
        after = (PKG.exactnum.UniPoly.__mul__, PKG.eulerian.enumerate_sn, PKG.verify.SUITES["gessel"])
        self.assertEqual(before, after)
        self.assertEqual(tracer.counts["perm.perms"], 120)


class Scaling(unittest.TestCase):
    def test_time_scales_by_the_speed_sampled_around_it(self):
        meter = speed.Speedometer({0, 1})
        slow = 2 * speed.REFERENCE_S  # loops that ran at half speed
        meter.samples = {0: [(0.9, 0.9 + slow), (2.0, 2.0 + slow)], 1: [(1.5, 1.5 + slow / 2)]}
        busy = slow + slow / 2  # sampler time inside [1, 3] on either CPU
        self.assertAlmostEqual(meter.scaled(1.0, 3.0), (2.0 - busy) * 0.5)
        self.assertAlmostEqual(meter.scaled(1.0, 3.0, parallel=True), 2.0 * 0.5)


class Compare(unittest.TestCase):
    def test_verdicts(self):
        base = [1.0 + 0.01 * i for i in range(10)]
        faster = [v * 0.8 for v in base]
        slower = [v * 1.3 for v in base]
        same = list(base)
        pairs = lambda new: list(zip(base, new))  # noqa: E731
        self.assertEqual(compare.verdict(base, faster, pairs(faster), 0.1)[0], "improved")
        self.assertEqual(compare.verdict(base, slower, pairs(slower), 0.1)[0], "regressed")
        self.assertEqual(compare.verdict(base, same, pairs(same), 0.1)[0], "unchanged")
        noisy = [1.0, 1.5, 0.7, 1.4, 0.8, 1.3, 0.9, 1.2, 0.6, 1.1]
        self.assertEqual(compare.verdict(noisy, noisy, pairs(noisy), 0.1)[0], "unresolved")


class Contract(unittest.TestCase):
    def test_benchmark_json_matches_the_harness(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(WORKLOADS))
        setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual(setup["bound"], max(m["bound"] for m in spec["end_to_end"]))


if __name__ == "__main__":
    unittest.main()
