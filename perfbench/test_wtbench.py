#!/usr/bin/env python3
"""Tests of the wind-tunnel benchmark itself.

    python3 perfbench/test_wtbench.py

Run from the repository root. Builds the benchmark through run.py, then
checks that a seed fixes the serve_mix schedule, that every metric named in
BENCHMARK.json is reported with its unit, and that run.py refuses to run
without the library sources. Takes about a minute.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
RUN = [sys.executable, str(REPO / "perfbench" / "run.py")]
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())


def run(*args, cwd=REPO):
    return subprocess.run(RUN + list(args), cwd=cwd, capture_output=True,
                          text=True, timeout=600)


def schedule(seed):
    out = run("--workload", "serve_mix", "--seed", str(seed), "--seconds", "5",
              "--print-schedule")
    assert out.returncode == 0, out.stderr
    return out.stdout


class ScheduleTest(unittest.TestCase):
    def test_one_seed_gives_one_schedule_and_query_sequence(self):
        first = schedule(7)
        self.assertEqual(first, schedule(7))
        self.assertNotEqual(first, schedule(8))
        kinds = {line.split("\t")[1] for line in first.splitlines()}
        self.assertEqual(kinds, {"repeat", "new", "burst"})

    def test_kinds_are_dealt_in_decks_of_100_arrivals(self):
        # A burst is one arrival: its requests share one due time.
        arrivals = []
        for line in schedule(7).splitlines():
            due, kind, _ = line.split("\t")
            if kind == "burst" and arrivals and arrivals[-1] == (due, kind):
                continue
            arrivals.append((due, kind))
        self.assertEqual([k for _, k in arrivals[:2]], ["new", "burst"])
        self.assertGreaterEqual(len(arrivals), 500)
        for start in range(0, len(arrivals) - 99, 100):
            kinds = [k for _, k in arrivals[start:start + 100]]
            self.assertEqual((kinds.count("new"), kinds.count("burst")), (2, 1))

    def test_never_seen_queries_stay_distinct_in_a_long_phase(self):
        # The sweep cache key prints a WHERE threshold with %g, so two
        # never-seen queries must differ within six significant digits.
        out = run("--workload", "serve_mix", "--seed", "3", "--seconds", "1800",
                  "--print-schedule")
        self.assertEqual(out.returncode, 0, out.stderr)
        keys = []
        for line in out.stdout.splitlines():
            _, kind, text = line.split("\t")
            if kind == "repeat":
                continue
            query, threshold = text.rsplit(">= ", 1)
            keys.append((kind, query, "%g" % float(threshold)))
        never_seen = {k for k in keys if k[0] == "new"}
        bursts = {k for k in keys if k[0] == "burst"}
        self.assertGreater(len(never_seen), 3000)
        self.assertEqual(len(never_seen), sum(1 for k in keys if k[0] == "new"))
        self.assertFalse({k[1:] for k in never_seen} & {k[1:] for k in bursts})


class MetricsTest(unittest.TestCase):
    def check_run(self, workload, trace, section):
        out = run("--workload", workload, "--seed", "1", "--seconds", "1",
                  "--trace", str(trace))
        self.assertEqual(out.returncode, 0, out.stdout[-3000:] + out.stderr[-3000:])
        result = json.loads(out.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        want = {m["name"]: m["unit"] for m in SPEC[section]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)
        return result["metrics"]

    def test_every_named_metric_appears(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=workload):
                e2e = self.check_run(workload, 0, "end_to_end")
                for name, v in e2e.items():
                    self.assertGreater(v["value"], 0, name)
                self.check_run(workload, 1, "per_layer")


class BareDirectoryTest(unittest.TestCase):
    def test_refuses_without_sources(self):
        bare = REPO / ".bench_out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(REPO / "BENCHMARK.json", bare)
        shutil.copytree(REPO / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "fig1_mc",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=170)
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn('"correct"', out.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
