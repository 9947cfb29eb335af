"""Tests of the end-to-end benchmark (run.py and the serve-lane checks).

    python3 -m unittest discover -s e2ebench -p 'test_*.py'

They build `pamdc` and the lanes like a benchmark run does, show that each
serve-lane output check fires on a doctored output, run every workload at
reduced size, and check that the benchmark refuses to run outside a source
tree. The batch checks are tested in `cargo test --manifest-path
e2ebench/Cargo.toml`.
"""

import contextlib
import io
import json
import math
import resource
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

WORK = run.BENCH_DIR / "work" / "tests"


def served_session(tools, seed, name):
    """A real, smoke-sized served session (live + restart) for `seed`."""
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    status = work / "status.jsonl"
    spec = run.write_spec("serve-backfill", seed, work, hours=run.SMOKE_HOURS, status=str(status))
    feed = run.record_feed(tools, spec, work, run.SMOKE_HOURS)
    return run.Session(tools, spec, status, feed, work, "s")


class ServeChecks(unittest.TestCase):
    ticks = run.SMOKE_HOURS * 60

    @classmethod
    def setUpClass(cls):
        cls.tools = run.build()
        cls.a = served_session(cls.tools, 1, "seed1")
        cls.b = served_session(cls.tools, 2, "seed2")

    def check(self, live=None, restart=None, status=None):
        return run.check_session(
            live if live is not None else self.a.live_report,
            restart if restart is not None else self.a.restart_reports[0],
            status if status is not None else self.a.status_lines,
            self.ticks,
            run.TICK_SECS,
        )

    def test_a_real_session_passes(self):
        self.assertEqual(self.check(), [])

    def test_a_perturbed_tick_watts_fails_the_energy_check(self):
        status = [dict(s) for s in self.a.status_lines]
        status[7]["watts"] *= 1 + 1e-6
        failures = self.check(status=status)
        self.assertTrue(any("status watts" in f for f in failures), failures)

    def test_a_report_metric_off_by_one_ulp_fails(self):
        restart = dict(self.a.restart_reports[0])
        restart["total_wh"] = math.nextafter(restart["total_wh"], math.inf)
        failures = self.check(restart=restart)
        self.assertTrue(any("total_wh" in f for f in failures), failures)

    def test_a_restart_against_a_different_feed_fails(self):
        failures = self.check(restart=self.b.restart_reports[0])
        self.assertTrue(any("restart report differs" in f for f in failures), failures)

    def test_a_degraded_round_fails(self):
        status = [dict(s) for s in self.a.status_lines]
        status[9]["degraded"] = True
        live = dict(self.a.live_report, **{"obs.serve.trimmed_rounds": 1})
        failures = self.check(live=live, restart=live, status=status)
        self.assertTrue(any("degraded round" in f for f in failures), failures)
        self.assertTrue(any("trimmed_rounds" in f for f in failures), failures)

    def test_a_missing_status_line_fails(self):
        failures = self.check(status=self.a.status_lines[:-1])
        self.assertTrue(any("status stream has" in f for f in failures), failures)

    def test_peak_rss_is_the_programs_not_the_interpreters(self):
        own_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        listed = run.pamdc(self.tools, ["list"], WORK, "list")
        self.assertGreater(listed.rss_mb, 0.0)
        self.assertLess(listed.rss_mb, own_mb)


def bench(*argv):
    """Runs the benchmark in-process; its exit code and result line."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(list(argv))
    lines = out.getvalue().strip().splitlines()
    return code, json.loads(lines[-1]) if lines else None


class Smoke(unittest.TestCase):
    """Every workload, both modes, at two hours of demand."""

    def assert_clean(self, workload, trace, expected):
        code, result = bench(
            "--workload", workload, "--seed", "3", "--seconds", "0", "--trace", trace, "--smoke"
        )
        self.assertEqual(code, 0, result)
        self.assertTrue(result["correct"])
        self.assertGreater(result["attempted"], 0)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), set(expected))
        for name, m in result["metrics"].items():
            self.assertEqual(m["unit"], expected[name])

    def test_end_to_end(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                self.assert_clean(workload, "0", run.END_TO_END)

    def test_per_layer(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                self.assert_clean(workload, "1", run.PER_LAYER)


class OutsideATree(unittest.TestCase):
    def test_fails_without_a_result(self):
        bare = WORK / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.BENCH_DIR, bare / "e2ebench", ignore=shutil.ignore_patterns("work", "target"))
        done = subprocess.run(
            [sys.executable, "e2ebench/run.py", "--workload", "paper-ml", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare,
            capture_output=True,
            text=True,
            timeout=180,
        )
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout.strip(), "")


def tearDownModule():
    shutil.rmtree(WORK, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
