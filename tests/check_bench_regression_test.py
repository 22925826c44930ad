#!/usr/bin/env python3
"""Self-test for tools/check_bench_regression.py — the CI gate that guards the
committed BENCH_*.json baselines. The gate's failure modes are exactly what this
locks down: a pass that should fail lets a perf regression merge silently, and a
fail that should pass wedges every PR.

Run directly or via ctest (registered in CMakeLists.txt)."""

import json
import os
import subprocess
import sys
import tempfile
import unittest

TOOL = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                    "tools", "check_bench_regression.py")


def doc(metrics):
    return {
        "schema": "remon-bench-v1",
        "bench": "selftest",
        "metrics": [
            {"name": n, "value": v, "unit": "x", "higher_is_better": h}
            for (n, v, h) in metrics
        ],
    }


def run_gate(current, baseline, threshold=None, summary=False, exact=False):
    """Writes the two docs to temp files and runs the gate; returns
    (rc, output) — or (rc, output, summary_text) when summary is set."""
    with tempfile.TemporaryDirectory() as td:
        cur_path = os.path.join(td, "current.json")
        base_path = os.path.join(td, "baseline.json")
        for path, payload in ((cur_path, current), (base_path, baseline)):
            with open(path, "w") as f:
                if isinstance(payload, str):
                    f.write(payload)  # Raw (possibly malformed) content.
                else:
                    json.dump(payload, f)
        cmd = [sys.executable, TOOL, cur_path, base_path]
        if threshold is not None:
            cmd += ["--threshold", str(threshold)]
        if exact:
            cmd.append("--exact")
        summary_path = os.path.join(td, "summary.md")
        if summary:
            cmd += ["--summary", summary_path]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if not summary:
            return proc.returncode, proc.stdout + proc.stderr
        text = ""
        if os.path.exists(summary_path):
            with open(summary_path) as f:
                text = f.read()
        return proc.returncode, proc.stdout + proc.stderr, text


class GateTest(unittest.TestCase):
    def test_identical_files_pass(self):
        d = doc([("suite/a/normalized_time", 1.23, False),
                 ("suite/rate", 800.0, True)])
        rc, out = run_gate(d, d)
        self.assertEqual(rc, 0, out)
        self.assertIn("OK", out)

    def test_regression_fails(self):
        base = doc([("suite/a/normalized_time", 1.0, False)])
        cur = doc([("suite/a/normalized_time", 2.0, False)])
        rc, out = run_gate(cur, base)
        self.assertEqual(rc, 1, out)
        self.assertIn("REGRESSED", out)

    def test_threshold_edge(self):
        # 15% gate on base 100: 114.9 is inside, 115.1 is outside. (Values chosen
        # off the exact 1.15 ratio — the boundary itself is float-equality
        # territory and intentionally not asserted.)
        base = doc([("suite/a/normalized_time", 100.0, False)])
        rc, out = run_gate(doc([("suite/a/normalized_time", 114.9, False)]), base)
        self.assertEqual(rc, 0, out)
        rc, out = run_gate(doc([("suite/a/normalized_time", 115.1, False)]), base)
        self.assertEqual(rc, 1, out)

    def test_custom_threshold(self):
        base = doc([("suite/a/normalized_time", 100.0, False)])
        cur = doc([("suite/a/normalized_time", 114.9, False)])
        rc, out = run_gate(cur, base, threshold=0.10)
        self.assertEqual(rc, 1, out)  # 14.9% > 10%.

    def test_higher_is_better_direction(self):
        # For a throughput-style metric, a *drop* is the regression; a rise of any
        # size passes.
        base = doc([("suite/rate", 1000.0, True)])
        rc, out = run_gate(doc([("suite/rate", 700.0, True)]), base)
        self.assertEqual(rc, 1, out)
        rc, out = run_gate(doc([("suite/rate", 2000.0, True)]), base)
        self.assertEqual(rc, 0, out)

    def test_new_key_passes(self):
        # Adding a sweep point must not require touching the baseline.
        base = doc([("suite/a/normalized_time", 1.0, False)])
        cur = doc([("suite/a/normalized_time", 1.0, False),
                   ("suite/b/normalized_time", 99.0, False)])
        rc, out = run_gate(cur, base)
        self.assertEqual(rc, 0, out)
        self.assertIn("[new]", out)

    def test_missing_key_fails(self):
        # A baseline metric absent from the suite output is a gate failure: a
        # diverged or aborted run drops its metrics silently, and that must not
        # read as a pass. Intended removals regenerate the baseline in the PR.
        base = doc([("suite/a/normalized_time", 1.0, False),
                    ("suite/gone/normalized_time", 1.0, False)])
        cur = doc([("suite/a/normalized_time", 1.0, False)])
        rc, out = run_gate(cur, base)
        self.assertEqual(rc, 1, out)
        self.assertIn("[MISSING]", out)
        self.assertIn("suite/gone/normalized_time", out)

    def test_missing_key_fails_even_without_regressions(self):
        # The missing check is independent of the delta check: identical values
        # on the shared metrics still fail when a baseline metric vanished.
        base = doc([("suite/a/normalized_time", 1.0, False),
                    ("suite/rate", 800.0, True)])
        cur = doc([("suite/a/normalized_time", 1.0, False)])
        rc, out = run_gate(cur, base)
        self.assertEqual(rc, 1, out)
        self.assertIn("1 baseline metric(s) missing", out)

    def test_nonpositive_baseline_skipped(self):
        # base <= 0 cannot be ratioed; the failed-cell sentinel must not divide.
        base = doc([("suite/a/normalized_time", -1.0, False),
                    ("suite/z/normalized_time", 0.0, False)])
        cur = doc([("suite/a/normalized_time", 5.0, False),
                   ("suite/z/normalized_time", 5.0, False)])
        rc, out = run_gate(cur, base)
        self.assertEqual(rc, 0, out)

    def test_nonpositive_current_fails(self):
        # A diverged cell reports -1; against a positive lower-is-better baseline
        # the ratio is negative, which must fail, not read as an improvement.
        base = doc([("suite/a/normalized_time", 1.0, False)])
        for sentinel in (-1.0, 0.0):
            cur = doc([("suite/a/normalized_time", sentinel, False)])
            rc, out = run_gate(cur, base)
            self.assertEqual(rc, 1, out)
            self.assertIn("[REGRESSED] suite/a/normalized_time", out)
            self.assertNotIn("[better]", out)
        # Higher-is-better metrics fail on the sentinel as before.
        base = doc([("suite/a/throughput", 100.0, True)])
        cur = doc([("suite/a/throughput", -1.0, True)])
        rc, out = run_gate(cur, base)
        self.assertEqual(rc, 1, out)

    def test_malformed_json_fails(self):
        good = doc([("suite/a/normalized_time", 1.0, False)])
        rc, _ = run_gate("{not json", good)
        self.assertNotEqual(rc, 0)
        rc, _ = run_gate(good, "{not json")
        self.assertNotEqual(rc, 0)

    def test_wrong_schema_fails(self):
        good = doc([("suite/a/normalized_time", 1.0, False)])
        bad = dict(good)
        bad["schema"] = "remon-bench-v0"
        rc, out = run_gate(bad, good)
        self.assertNotEqual(rc, 0, out)
        self.assertIn("unknown schema", out)

    def test_improvement_reported_not_failed(self):
        base = doc([("suite/a/normalized_time", 2.0, False)])
        cur = doc([("suite/a/normalized_time", 1.0, False)])
        rc, out = run_gate(cur, base)
        self.assertEqual(rc, 0, out)
        self.assertIn("[better]", out)


class ExactTest(unittest.TestCase):
    """--exact: a deterministic suite's baseline must match a fresh run."""

    def test_identical_files_pass(self):
        base = doc([("suite/a/normalized_time", 1.234567, False)])
        rc, out = run_gate(base, base, exact=True)
        self.assertEqual(rc, 0, out)

    def test_small_move_fails_in_either_direction(self):
        base = doc([("suite/a/normalized_time", 1.0, False),
                    ("suite/a/throughput", 100.0, True)])
        for value in (1.000001, 0.999999):
            cur = doc([("suite/a/normalized_time", value, False),
                       ("suite/a/throughput", 100.0, True)])
            rc, out = run_gate(cur, base)
            self.assertEqual(rc, 0, out)  # Within the threshold without --exact.
            rc, out = run_gate(cur, base, exact=True)
            self.assertEqual(rc, 1, out)
            self.assertIn("[STALE]     suite/a/normalized_time", out)
            self.assertIn("stale: regenerate", out)
            self.assertNotIn("suite/a/throughput:", out)

    def test_compares_at_printed_precision(self):
        base = doc([("suite/a/normalized_time", 1.0, False)])
        cur = doc([("suite/a/normalized_time", 1.0000001, False)])
        rc, out = run_gate(cur, base, exact=True)
        self.assertEqual(rc, 0, out)

    def test_new_metric_still_passes(self):
        base = doc([("suite/a/normalized_time", 1.0, False)])
        cur = doc([("suite/a/normalized_time", 1.0, False),
                   ("suite/a/layer/cpu_queue_ns_per_conn", 5.0, False)])
        rc, out = run_gate(cur, base, exact=True)
        self.assertEqual(rc, 0, out)

    def test_summary_marks_stale_rows(self):
        base = doc([("suite/a/normalized_time", 1.0, False)])
        cur = doc([("suite/a/normalized_time", 1.01, False)])
        rc, out, summary = run_gate(cur, base, summary=True, exact=True)
        self.assertEqual(rc, 1, out)
        self.assertIn("1 stale baseline metric(s)", summary)
        self.assertIn("| `suite/a/normalized_time` | 1.0000 | 1.0100 | +1.00% | "
                      "**STALE** |", summary)


class SummaryTest(unittest.TestCase):
    """--summary: the markdown delta table piped into $GITHUB_STEP_SUMMARY."""

    def test_table_covers_every_metric_with_status(self):
        base = doc([("suite/ok", 1.0, False),
                    ("suite/worse", 1.0, False),
                    ("suite/better", 2.0, False),
                    ("suite/gone", 1.0, False)])
        cur = doc([("suite/ok", 1.01, False),
                   ("suite/worse", 9.0, False),
                   ("suite/better", 1.0, False),
                   ("suite/fresh", 5.0, False)])
        rc, out, summary = run_gate(cur, base, summary=True)
        self.assertEqual(rc, 1, out)  # suite/worse regressed — and the table
        self.assertIn("bench gate: `selftest`", summary)  # is still written.
        self.assertIn("1 regression(s)", summary)
        self.assertIn("1 baseline metric(s) missing", summary)
        self.assertIn("| `suite/ok` | 1.0000 | 1.0100 | +1.00% | ok |", summary)
        self.assertIn("| `suite/worse` | 1.0000 | 9.0000 | +800.00% | "
                      "**REGRESSED** |", summary)
        self.assertIn("| `suite/better` | 2.0000 | 1.0000 | -50.00% | improved |",
                      summary)
        self.assertIn("| `suite/fresh` | — | 5.0000 | — | new |", summary)
        self.assertIn("| `suite/gone` | 1.0000 | — | — | **MISSING** |", summary)

    def test_pass_verdict_line(self):
        d = doc([("suite/a", 1.0, False)])
        rc, out, summary = run_gate(d, d, summary=True)
        self.assertEqual(rc, 0, out)
        self.assertIn("all deltas within 15%", summary)

    def test_appends_across_invocations(self):
        # The CI loop reuses one $GITHUB_STEP_SUMMARY file for all nine suites;
        # a truncating open would keep only the last table.
        d = doc([("suite/a", 1.0, False)])
        with tempfile.TemporaryDirectory() as td:
            for path, payload in (("c.json", d), ("b.json", d)):
                with open(os.path.join(td, path), "w") as f:
                    json.dump(payload, f)
            summary_path = os.path.join(td, "summary.md")
            for _ in range(2):
                proc = subprocess.run(
                    [sys.executable, TOOL, os.path.join(td, "c.json"),
                     os.path.join(td, "b.json"), "--summary", summary_path],
                    capture_output=True, text=True)
                self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
            with open(summary_path) as f:
                text = f.read()
        self.assertEqual(text.count("bench gate: `selftest`"), 2)

    def test_no_summary_flag_writes_nothing(self):
        d = doc([("suite/a", 1.0, False)])
        rc, out = run_gate(d, d)
        self.assertEqual(rc, 0, out)


if __name__ == "__main__":
    unittest.main()
