"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py

About a minute: besides the percentile rule, it runs one `certify` pass
against a deliberately wrong answer key and the `prove` workload once
untraced and once traced.  It calls `run.run` directly, so it writes no
result files; the wrong key lives in a temporary directory.
"""

from __future__ import annotations

import json
import tempfile
import unittest
from pathlib import Path

import run


class PercentileRule(unittest.TestCase):
    def test_p95_only_with_ten_samples_beyond_it(self):
        self.assertIsNone(run.p95_or_none([]))
        self.assertIsNone(run.p95_or_none([float(x) for x in range(199)]))
        self.assertEqual(run.p95_or_none([float(x) for x in range(200)]), 189.0)


class FailureCounting(unittest.TestCase):
    def test_wrong_expected_answer_fails_the_run(self):
        key = json.loads(run.KEY.read_text())
        key["certify"]["golay"]["min_distance"] = 9
        run.OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
            wrong = Path(tmp) / "wrong-key.json"
            wrong.write_text(json.dumps(key))
            doc, code = run.run("certify", 1, 1, 0, wrong)
        self.assertNotEqual(code, 0)
        self.assertGreater(doc["failed"], 0)
        self.assertGreater(doc["fail_ratio"], 0)


class TracingKeepsNodeCounts(unittest.TestCase):
    def test_traced_and_untraced_passes_count_the_same_nodes(self):
        untraced, code = run.run("prove", 1, 1, 0)
        self.assertEqual(code, 0)
        traced, code = run.run("prove", 1, 1, 1)
        self.assertEqual(code, 0)
        traced_nodes = traced["metrics"]["solver.nodes"]["value"]
        self.assertGreater(traced_nodes, 0)
        self.assertEqual(set(untraced["solver_nodes_per_pass"]), {traced_nodes})
        self.assertEqual(set(traced["solver_nodes_per_pass"]), {traced_nodes})


if __name__ == "__main__":
    unittest.main()
