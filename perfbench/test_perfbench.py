"""Tests of the benchmark's own code.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Builds the benchmark like run.py does, then checks: the C++ helpers
(percentile rule, miss accounting, arrival tables) through
`perfbench --selftest`; that a corrupted checksum fails a run with a
non-zero exit; and that bench_diff flags an injected 20% raster
slowdown and nothing else.
"""
import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench_diff  # noqa: E402
import run  # noqa: E402


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


class BinaryTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()

    def drive(self, *args):
        return subprocess.run([str(self.binary), *args], cwd=run.ROOT,
                              capture_output=True, text=True, timeout=300)

    def test_selftest(self):
        out = self.drive("--selftest")
        self.assertEqual(out.returncode, 0, out.stdout)

    def test_clean_run_passes(self):
        out = self.drive("--workload", "fleet-overload", "--seed", "3",
                         "--seconds", "1", "--trace", "0")
        self.assertEqual(out.returncode, 0, out.stdout)
        result = last_json(out.stdout)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)

    def test_corrupted_checksum_fails_run(self):
        for workload in ("interactive", "fleet-overload"):
            out = self.drive("--workload", workload, "--seed", "3",
                             "--seconds", "1", "--trace", "0",
                             "--corrupt", "1")
            self.assertNotEqual(out.returncode, 0, workload)
            result = last_json(out.stdout)
            self.assertFalse(result["correct"], workload)
            self.assertGreaterEqual(result["failed"], 1, workload)


SPEC = {
    "end_to_end": [
        {"name": "tile_frame_ms_p50", "unit": "ms", "better": "lower",
         "bound": 0.15},
        {"name": "goodput_fps", "unit": "1/s", "better": "higher",
         "bound": 0.15},
    ],
    "per_layer": [
        {"name": "render.tile.raster_ms", "unit": "ms", "better": "lower"},
        {"name": "render.tile.binning_ms", "unit": "ms", "better": "lower"},
        {"name": "render.tile.kv_pairs", "unit": "count", "better": "lower"},
    ],
}


def write_runs(root, workload, runs):
    d = Path(root) / workload
    d.mkdir(parents=True)
    for i, metrics in enumerate(runs):
        result = {"correct": True, "attempted": 1, "failed": 0,
                  "metrics": {k: {"value": v, "unit": "x"}
                              for k, v in metrics.items()}}
        (d / ("run%d.json" % i)).write_text("# log line\n" +
                                            json.dumps(result) + "\n")


class BenchDiffTest(unittest.TestCase):
    def runs(self, raster_scale=1.0, frame_scale=1.0):
        jitter = [0.99, 1.0, 1.01, 0.995, 1.005]
        return [{"render.tile.raster_ms": 120.0 * j * raster_scale,
                 "render.tile.binning_ms": 12.0 * j,
                 "render.tile.kv_pairs": 390644,
                 "tile_frame_ms_p50": 170.0 * j * frame_scale,
                 "goodput_fps": 6.0 / j} for j in jitter]

    def diff(self, base_runs, head_runs):
        with tempfile.TemporaryDirectory() as tmp:
            write_runs(Path(tmp) / "base", "interactive", base_runs)
            write_runs(Path(tmp) / "head", "interactive", head_runs)
            rows = bench_diff.compare(bench_diff.load_runs(Path(tmp) / "base"),
                                      bench_diff.load_runs(Path(tmp) / "head"),
                                      SPEC)
        return {(r[2], r[5]) for r in rows}

    def test_identical_runs_flag_nothing(self):
        self.assertEqual(self.diff(self.runs(), self.runs()), set())

    def test_flags_injected_raster_slowdown(self):
        flagged = self.diff(self.runs(), self.runs(raster_scale=1.2))
        self.assertEqual(flagged,
                         {("render.tile.raster_ms", "moved up (worse)")})

    def test_flags_e2e_metric_outside_bound(self):
        flagged = self.diff(self.runs(), self.runs(frame_scale=1.2))
        self.assertEqual(flagged, {("tile_frame_ms_p50", "REGRESSED")})
        self.assertEqual(self.diff(self.runs(), self.runs(frame_scale=1.1)),
                         set())

    def test_exact_count_change_is_flagged(self):
        head = self.runs()
        for r in head:
            r["render.tile.kv_pairs"] += 1
        self.assertEqual(self.diff(self.runs(), head),
                         {("render.tile.kv_pairs", "moved up (worse)")})


if __name__ == "__main__":
    unittest.main()
