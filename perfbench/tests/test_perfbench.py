"""The benchmark's own tests: a tiny-scale smoke run of every workload, the
oracle catching an injected wrong answer, an injected error reply making
the run incorrect, and the traced decomposition summing exactly to the
traced end-to-end time.

    python3 -m unittest discover -s perfbench/tests

Runs perfbench/run.py (which builds the benchmark on first use) at the
tiny scale; the whole suite takes about a minute once built.
"""

import csv
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")
WORKLOADS = ("archive_scan", "whatif", "feed")


def bench_names():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ([m["name"] for m in spec["end_to_end"]],
            [m["name"] for m in spec["per_layer"]])


def run(workload, trace, *extra, seed=7, seconds=1.0):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), "--scale", "tiny",
         *extra],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600)
    if proc.returncode != 0:
        raise AssertionError("run failed (%d): %s" % (proc.returncode,
                                                      proc.stderr[-3000:]))
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines


def decomposition_from_spans(path):
    """Recompute, in integer ns, the median decomposition the benchmark
    reports: per-request layer self times (a span's duration minus its
    children's), then per layer the mean over the middle fifth of
    requests around the median (C++ integer division truncates toward
    zero), and unattributed = p50 - sum of the layers."""
    with open(path) as f:
        spans = list(csv.DictReader(f))
    child = {}
    for s in spans:
        if s["parent"] != "-1":
            dur = int(s["end_ns"]) - int(s["start_ns"])
            child[s["parent"]] = child.get(s["parent"], 0) + dur
    requests = {}
    for s in spans:
        r = requests.setdefault(s["request"], {"e2e": 0, "self": {}})
        dur = int(s["end_ns"]) - int(s["start_ns"])
        if s["layer"] == "request":
            r["e2e"] += dur  # a whatif pair has two request spans
        else:
            r["self"][s["layer"]] = (r["self"].get(s["layer"], 0) + dur -
                                     child.get(s["span"], 0))
    ordered = sorted(requests.values(), key=lambda r: r["e2e"])
    n = len(ordered)
    mid = (n - 1) // 2
    half = n // 10
    band = ordered[max(0, mid - half):min(n - 1, mid + half) + 1]
    layers = {}
    for name in {k for r in band for k in r["self"]}:
        total = sum(r["self"].get(name, 0) for r in band)
        q = abs(total) // len(band)
        layers[name] = q if total >= 0 else -q
    p50 = ordered[mid]["e2e"]
    return p50, layers, p50 - sum(layers.values())


class SmokeTest(unittest.TestCase):
    def test_every_workload_reports_every_metric(self):
        e2e, layers = bench_names()
        for w in WORKLOADS:
            with self.subTest(workload=w):
                result, lines = run(w, 0)
                self.assertEqual(set(result),
                                 {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(list(result["metrics"]), e2e)
                for name, m in result["metrics"].items():
                    self.assertGreater(m["value"], 0, name)
                self.assertTrue(any('"provenance"' in l for l in lines))

    def test_trace_runs_report_every_layer_metric(self):
        _, layers = bench_names()
        for w in WORKLOADS:
            with self.subTest(workload=w):
                result, _ = run(w, 1)
                self.assertTrue(result["correct"])
                self.assertEqual(list(result["metrics"]), layers)

    def test_same_seed_same_bytes_per_event(self):
        a, _ = run("feed", 0, seed=3)
        b, _ = run("feed", 0, seed=3)
        self.assertEqual(a["metrics"]["bytes_per_event"]["value"],
                         b["metrics"]["bytes_per_event"]["value"])


class OracleTest(unittest.TestCase):
    def test_injected_wrong_answer_is_flagged(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                result, _ = run(w, 0, "--inject-fault", "answer")
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)

    def test_injected_error_reply_is_a_failure(self):
        """A non-OK reply is not correct even though the oracle, which
        compares successful replies only, sees nothing wrong. (feed has
        no replies; its failures are the oracle's mismatches.)"""
        for w in ("archive_scan", "whatif"):
            with self.subTest(workload=w):
                result, lines = run(w, 0, "--inject-fault", "status")
                self.assertFalse(result["correct"])
                self.assertEqual(result["failed"], 1)
                self.assertTrue(any(" 0 mismatches" in l for l in lines))

    def test_selftest_binary(self):
        binary = os.path.join(ROOT, ".bench_build", "perfbench", "perfbench")
        run("whatif", 0)  # make sure it is built
        proc = subprocess.run([binary, "--selftest"], stdout=subprocess.PIPE,
                              text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout)


class DecompositionTest(unittest.TestCase):
    def test_layers_plus_unattributed_sum_to_e2e(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                result, _ = run(w, 1, seed=11)
                m = {k: v["value"] for k, v in result["metrics"].items()}
                spans = os.path.join(ROOT, ".bench_build", "traces",
                                     "%s-seed11.spans.csv" % w)
                p50, layers, unattributed = decomposition_from_spans(spans)
                # Exact in integer ns ...
                self.assertEqual(sum(layers.values()) + unattributed, p50)
                self.assertGreater(p50, 0)
                # ... and what the benchmark printed is that decomposition.
                self.assertAlmostEqual(m["trace.e2e_p50_us"], p50 / 1e3,
                                       places=6)
                self.assertAlmostEqual(m["trace.unattributed_us"],
                                       unattributed / 1e3, places=6)
                for name, ns in layers.items():
                    self.assertAlmostEqual(m["trace.%s_us" % name], ns / 1e3,
                                           places=6, msg=name)


class ContractTest(unittest.TestCase):
    def test_fails_without_the_repository(self):
        """In a directory holding only the benchmark, the run must fail
        without printing a result."""
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(BENCH, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "feed",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
