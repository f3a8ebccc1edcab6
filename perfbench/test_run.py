"""Self-tests of perfbench/run.py's output-schema check and of
BENCHMARK.json itself.

    python3 -m unittest discover -s perfbench -p "test_*.py"
"""

import json
import re
import unittest
from pathlib import Path

import run

SPEC = json.loads((Path(__file__).resolve().parent.parent /
                   "BENCHMARK.json").read_text())


def good_result(trace):
    return {
        "correct": True, "attempted": 10, "failed": 0,
        "metrics": {name: {"value": 1.5, "unit": unit}
                    for name, unit in run.metric_spec(SPEC, trace).items()},
    }


class ValidateTest(unittest.TestCase):
    def test_every_named_metric_with_its_unit_passes(self):
        for trace in (0, 1):
            self.assertEqual(run.validate(good_result(trace), SPEC, trace), [])

    def test_missing_metric_fails(self):
        r = good_result(0)
        del r["metrics"]["setup_s"]
        self.assertIn("metric setup_s missing", run.validate(r, SPEC, 0))

    def test_wrong_unit_fails(self):
        r = good_result(0)
        r["metrics"]["run_s"]["unit"] = "ms"
        self.assertTrue(run.validate(r, SPEC, 0))

    def test_unlisted_metric_fails(self):
        r = good_result(0)
        r["metrics"]["extra"] = {"value": 1, "unit": "s"}
        self.assertTrue(run.validate(r, SPEC, 0))

    def test_trace_flag_selects_the_metric_list(self):
        self.assertTrue(run.validate(good_result(1), SPEC, 0))

    def test_counts_must_be_whole_and_attempted_positive(self):
        r = good_result(0)
        r["attempted"] = 0
        self.assertTrue(run.validate(r, SPEC, 0))
        r = good_result(0)
        r["failed"] = 1.0
        self.assertTrue(run.validate(r, SPEC, 0))
        r = good_result(0)
        r["correct"] = 1
        self.assertTrue(run.validate(r, SPEC, 0))

    def test_non_numeric_value_fails(self):
        r = good_result(0)
        r["metrics"]["run_s"]["value"] = "1.0"
        self.assertTrue(run.validate(r, SPEC, 0))


class SpecTest(unittest.TestCase):
    NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

    def test_keys_names_units_and_bounds(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        names = [w["name"] for w in SPEC["workloads"]]
        for m in SPEC["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        for m in SPEC["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            names.append(m["name"])
            self.assertRegex(m["unit"], self.UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        for n in names:
            self.assertRegex(n, self.NAME)
        self.assertEqual(len(names), len(set(names)))

    def test_setup_s_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))


if __name__ == "__main__":
    unittest.main()
