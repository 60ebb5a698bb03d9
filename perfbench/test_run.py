"""Tests of the benchmark's own logic: its statistics, the span
arithmetic, the output check, and a tiny-scale smoke run of every
workload. From the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""
import json
import statistics
import subprocess
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402


class Statistics(unittest.TestCase):
    def test_median_and_quartiles(self):
        values = list(range(1, 101))
        self.assertEqual(bench.quantile(values, 0.5), 50.5)
        self.assertAlmostEqual(bench.quantile(values, 0.25), 25.75)
        self.assertAlmostEqual(bench.quantile(values, 0.75), 75.25)
        for n in (2, 5, 11, 40):
            v = [x * x % 17 for x in range(n)]
            self.assertAlmostEqual(bench.quantile(v, 0.5),
                                   statistics.median(v))
            q1, _, q3 = statistics.quantiles(v, n=4, method="inclusive")
            self.assertAlmostEqual(bench.quantile(v, 0.25), q1)
            self.assertAlmostEqual(bench.quantile(v, 0.75), q3)

    def test_percentile_needs_ten_samples_beyond_it(self):
        # 40 samples put exactly ten beyond each quartile; 30 do not.
        self.assertTrue(bench.resolvable(list(range(40)), 0.25))
        self.assertTrue(bench.resolvable(list(range(40)), 0.75))
        self.assertFalse(bench.resolvable(list(range(30)), 0.25))
        self.assertFalse(bench.resolvable(list(range(30)), 0.75))
        self.assertTrue(bench.resolvable(list(range(1000)), 0.99))
        self.assertFalse(bench.resolvable(list(range(500)), 0.99))
        # Ties: nothing lies strictly beyond a constant sample.
        self.assertFalse(bench.resolvable([1.0] * 1000, 0.99))
        self.assertFalse(bench.resolvable([], 0.5))

    def test_describe_withholds_unresolvable_percentiles(self):
        few = bench.describe([3.0, 1.0, 2.0])
        self.assertEqual(few, "median 2, n=3")
        many = bench.describe([float(x) for x in range(200)])
        self.assertIn("q1 49.75 q3 149.25", many)
        self.assertIn("p90 179.1", many)
        self.assertNotIn("p99 ", many)
        self.assertTrue(many.endswith("n=200"))


def span(i, parent, start, end, name="s"):
    return {"id": i, "name": name, "parent": parent, "start_ms": start,
            "end_ms": end, "window": -1}


class SelfTime(unittest.TestCase):
    def test_nested_children(self):
        parent = span(0, -1, 0.0, 10.0)
        self.assertEqual(bench.self_time_ms(parent, []), 10.0)
        self.assertEqual(
            bench.self_time_ms(parent, [span(1, 0, 2.0, 4.0)]), 8.0)

    def test_child_partly_outside_parent(self):
        parent = span(0, -1, 0.0, 10.0)
        # Only the 2 ms inside the parent count against it.
        self.assertEqual(
            bench.self_time_ms(parent, [span(1, 0, 8.0, 15.0)]), 8.0)
        self.assertEqual(
            bench.self_time_ms(parent, [span(1, 0, -3.0, 1.0),
                                        span(2, 0, 9.0, 12.0)]), 8.0)
        # A child entirely outside covers nothing.
        self.assertEqual(
            bench.self_time_ms(parent, [span(1, 0, 11.0, 12.0)]), 10.0)

    def test_overlapping_children_count_once(self):
        parent = span(0, -1, 0.0, 10.0)
        self.assertEqual(
            bench.self_time_ms(parent, [span(1, 0, 2.0, 5.0),
                                        span(2, 0, 4.0, 6.0)]), 6.0)

    def test_layer_metrics_subtract_children_and_aggregates(self):
        trace = {
            "end_ms": 100.0, "blocks": 3, "calls": 7, "repartitions": 1,
            "moves": 2, "rss_after_ingest_mb": 10.0,
            "rss_end_of_run_mb": 15.0, "windows_ms": [1.0, 2.0],
            "aggregates": {
                "workload.pull": {"count": 3, "ms": 5.0,
                                  "offthread_count": 1,
                                  "offthread_ms": 1.0},
                "core.place": {"count": 4, "ms": 2.0,
                               "offthread_count": 0,
                               "offthread_ms": 0.0}},
            "spans": [
                span(0, -1, 0.0, 10.0, "workload.open_source"),
                span(1, -1, 10.0, 90.0, "core.run"),
                span(2, 1, 20.0, 50.0, "partition.compute_partition"),
                span(3, 2, 30.0, 40.0, "graph.cumulative_snapshot"),
                span(4, -1, 90.0, 99.0, "core.teardown"),
            ],
        }
        m, _ = bench.layer_metrics(trace)
        self.assertEqual(m["workload.ingest_ms"], 10.0 + 5.0 + 1.0)
        # 80 ms run - 30 ms hook - 5 ms on-thread pulls - 2 ms placements.
        self.assertEqual(m["core.replay_ms"], 43.0)
        self.assertEqual(m["partition.compute_ms"], 20.0)
        self.assertEqual(m["graph.cumulative_snapshot_ms"], 10.0)
        self.assertEqual(m["core.rss_growth_mb"], 5.0)
        self.assertEqual(m["trace.coverage_pct"], 99.0)


WINDOWS = (b"window_start,window_end,dynamic_edge_cut,dynamic_balance,"
           b"static_edge_cut,static_balance,interactions\n"
           b"1438218000,1438232400,1,4,1,4,1\n"
           b"1438275600,1438290000,0.5,2,0.25,2,8\n")
EVENTS = (b"time,moves,moved_state_units,compute_ms\n"
          b"1439427600,0,0,0.103899\n1440637200,24,26,0.101964\n")
STDOUT = b"method            METIS\nmoves             24\n" \
         b"peak rss mb       30.4\n"


def perturbed(data: bytes, at: int) -> bytes:
    return data[:at] + bytes([data[at] ^ 1]) + data[at + 1:]


class OutputCheck(unittest.TestCase):
    def test_ignores_measurements_only(self):
        ref = bench.output_digest(STDOUT, WINDOWS, EVENTS)
        other_rss = STDOUT.replace(b"30.4", b"31.9")
        other_clock = EVENTS.replace(b"0.103899", b"7.5")
        self.assertEqual(bench.output_digest(other_rss, WINDOWS, other_clock),
                         ref)
        self.assertNotEqual(bench.output_digest(
            STDOUT.replace(b"24", b"25"), WINDOWS, EVENTS), ref)
        self.assertNotEqual(bench.output_digest(
            STDOUT, WINDOWS, EVENTS.replace(b",26,", b",27,")), ref)

    def test_one_changed_byte_in_the_window_csv_is_rejected(self):
        ref = bench.output_digest(STDOUT, WINDOWS, EVENTS)
        for at in (0, len(WINDOWS) // 2, len(WINDOWS) - 2):
            self.assertNotEqual(
                bench.output_digest(STDOUT, perturbed(WINDOWS, at), EVENTS),
                ref)

    def test_perturbed_run_counts_as_failed(self):
        def run(windows: bytes, rc=0) -> bench.Run:
            return bench.Run(
                rc=rc, wall_s=1.0,
                digest=bench.output_digest(STDOUT, windows, EVENTS),
                windows_digest=bench.hashlib.sha256(windows).hexdigest())

        b = bench.Bench("trace_metis", bench.WORKLOADS["trace_metis"],
                        bench.WORKLOADS["trace_metis"].scale, Path("."))
        b.traced = run(WINDOWS)
        b.trace = {}
        b.warmup = run(WINDOWS)
        b.runs = [run(WINDOWS), run(perturbed(WINDOWS, 40)), run(WINDOWS)]
        verdict = bench.check(b, seed=bench.DEFAULT_SEED + 1)
        self.assertEqual((verdict.attempted, verdict.failed), (4, 1))
        self.assertFalse(verdict.correct)

        b.runs = [run(WINDOWS), run(WINDOWS, rc=1), run(WINDOWS, rc=None)]
        verdict = bench.check(b, seed=bench.DEFAULT_SEED + 1)
        self.assertEqual(verdict.failed, 2)

        b.runs = [run(WINDOWS)] * 3
        verdict = bench.check(b, seed=bench.DEFAULT_SEED + 1)
        self.assertEqual((verdict.failed, verdict.correct), (0, True))


class Smoke(unittest.TestCase):
    """Builds the program if needed, then runs every workload at a tiny
    scale through the real CLI and the tracer."""

    def bench(self, *args: str) -> tuple[dict, str]:
        out = subprocess.run(
            [sys.executable, str(Path(bench.__file__)), "--scale", "0.0005",
             "--seconds", "0", "--seed", "7", *args],
            capture_output=True, text=True, timeout=1200)
        self.assertEqual(out.returncode, 0, out.stderr)
        return json.loads(out.stdout.splitlines()[-1]), out.stdout

    def test_all_workloads_traced(self):
        result, stdout = self.bench("--workload", "all", "--trace", "1")
        self.assertTrue(result["correct"], stdout)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 3 * 4)
        self.assertEqual(set(result["metrics"]),
                         {f"{w}.{m}" for w in bench.WORKLOADS
                          for m in bench.LAYER_UNITS})
        saved = next(line for line in stdout.splitlines()
                     if line.startswith("results -> "))
        saved = json.loads(
            (bench.ROOT / saved.split(" -> ", 1)[1]).read_text())
        for name, w in saved["workloads"].items():
            self.assertGreaterEqual(w["layers"]["trace.coverage_pct"],
                                    bench.MIN_COVERAGE_PCT, name)
            self.assertEqual(w["layers"]["workload.calls"], w["calls"], name)

    def test_one_workload_end_to_end(self):
        result, stdout = self.bench("--workload", "trace_metis",
                                    "--trace", "0")
        self.assertTrue(result["correct"], stdout)
        self.assertEqual(set(result["metrics"]), set(bench.E2E_UNITS))
        for name, m in result["metrics"].items():
            self.assertGreater(m["value"], 0, name)
            self.assertEqual(m["unit"], bench.E2E_UNITS[name])


if __name__ == "__main__":
    unittest.main()
