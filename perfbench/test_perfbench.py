"""The benchmark's own tests: statistics, and a seconds-long smoke run of
every workload through the full correctness gate.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The Rust half (span self times, the request generator, the response
gate) has unit tests of its own:

    cargo test --offline --manifest-path perfbench/Cargo.toml
"""

import json
import statistics
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402

ROOT = HERE.parent


class Quartiles(unittest.TestCase):
    def test_match_statistics_quantiles(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
        q1, med, q3 = statistics.quantiles(values, n=4)
        self.assertEqual(stats.quartiles(values), (q1, med, q3))
        self.assertEqual(stats.summary(values), {"median": med, "q1": q1, "q3": q3, "n": 7})

    def test_single_sample(self):
        self.assertEqual(stats.quartiles([2.5]), (2.5, 2.5, 2.5))
        self.assertEqual(stats.spread([2.5]), 0.0)

    def test_spread_is_iqr_over_median(self):
        values = [8.0, 9.0, 10.0, 11.0, 12.0]
        q1, med, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(stats.spread(values), (q3 - q1) / med)
        self.assertEqual(stats.spread([0.0, 0.0, 0.0]), 0.0)

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.quartiles([])


class Percentiles(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(stats.percentile(values, 50), 50)
        self.assertEqual(stats.percentile(values, 99), 99)
        self.assertEqual(stats.percentile(values, 100), 100)
        self.assertEqual(stats.percentile([3, 1, 2], 50), 2)
        with self.assertRaises(ValueError):
            stats.percentile(values, 0)

    def test_tail_needs_ten_samples_beyond(self):
        # 1000 samples: p99.9 has 1 beyond, p99 has exactly 10.
        self.assertEqual(stats.tail_percentile(list(range(1000))), (99.0, 989, 10))
        # 999 samples: p99 leaves 9 beyond, so the tail drops to p90.
        p, _, n_beyond = stats.tail_percentile(list(range(999)))
        self.assertEqual((p, n_beyond), (90.0, 99))
        # 10 000 samples reach p99.9.
        self.assertEqual(stats.tail_percentile(list(range(10_000)))[0], 99.9)
        # 20 samples: only the median has 10 beyond; 19 have no tail.
        self.assertEqual(stats.tail_percentile(list(range(20)))[0], 50.0)
        self.assertIsNone(stats.tail_percentile(list(range(19))))

    def test_beyond_counts_strictly_greater_ranks(self):
        self.assertEqual(stats.beyond(100, 90), 10)
        self.assertEqual(stats.beyond(100, 99), 1)
        self.assertEqual(stats.beyond(5, 50), 2)


def run_bench(*args):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args], cwd=ROOT, capture_output=True, text=True, timeout=600
    )
    lines = done.stdout.strip().splitlines()
    return done.returncode, lines, done.stderr


class Smoke(unittest.TestCase):
    """Small inputs, the same code path and the same correctness gate."""

    contract = json.loads((ROOT / "BENCHMARK.json").read_text())

    def check(self, workload, trace):
        code, lines, err = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                                     "--trace", str(trace), "--smoke")
        self.assertEqual(code, 0, err[-3000:])
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        wanted = self.contract["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        for m in wanted:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
        if not trace:
            for name, v in result["metrics"].items():
                self.assertGreater(v["value"], 0, name)
        facts = json.loads(next(ln for ln in lines if ln.startswith("facts "))[len("facts "):])
        for key in ("nproc", "workers", "iterations", "seed", "build_profile", "git_commit"):
            self.assertIn(key, facts)
        return lines, result

    def test_sweep_validate(self):
        self.check("sweep-validate", 0)
        _, result = self.check("sweep-validate", 1)
        self.assertEqual(result["metrics"]["front.parses"]["value"], 0)
        self.assertGreater(result["metrics"]["sim.runs"]["value"], 0)

    def test_sweep_judge(self):
        self.check("sweep-judge", 0)
        _, result = self.check("sweep-judge", 1)
        self.assertEqual(result["metrics"]["axiom.cache.dup_misses"]["value"], 0)

    def test_serve_mixed(self):
        lines, _ = self.check("serve-mixed", 0)
        _, result = self.check("serve-mixed", 1)
        for name in ("sim.run_s", "sim.compile_s", "sim.runs"):
            self.assertEqual(result["metrics"][name]["value"], 0, name)
        self.assertGreater(result["metrics"]["front.parses"]["value"], 0)

    def test_serve_stream_is_a_function_of_the_seed(self):
        def stream(seed):
            code, lines, err = run_bench("--workload", "serve-mixed", "--seed", str(seed), "--seconds", "0",
                                         "--smoke")
            self.assertEqual(code, 0, err[-3000:])
            line = next(ln for ln in lines if ln.strip().startswith("stream: "))
            return json.loads(line.strip()[len("stream: "):])

        a, b, c = stream(5), stream(5), stream(6)
        self.assertEqual(a, b)
        self.assertNotEqual(a["fnv1a"], c["fnv1a"])


class Refusal(unittest.TestCase):
    def test_fails_without_a_checkout(self):
        # Only BENCHMARK.json and the benchmark's files: no program to
        # build, so no result line and a non-zero exit.
        import shutil
        import tempfile

        work = ROOT / ".perfbench_work"
        work.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=work) as tmp:
            tmp = Path(tmp)
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, tmp / "perfbench", ignore=shutil.ignore_patterns("target", "__pycache__"))
            done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep-judge", "--seed", "1",
                                   "--seconds", "1", "--trace", "0"], cwd=tmp, capture_output=True, text=True,
                                  timeout=180)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
