"""Tests of the benchmark's output checks (perfbench/run.py).

Run with `python3 perfbench/run.py --self-test`, or directly:
    python3 -m unittest discover -s perfbench/tests -p 'test_*.py'

The unit tests feed synthetic result documents to the checks; the command
tests run the real sim workload (short) and break one output at a time, to
show each output check can make the command fail, also at a seed that has no
recorded reference of its own.
"""
import copy
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def metrics_for(spec_, values=None):
    out = {}
    for m in spec_["end_to_end"]:
        out[m["name"]] = {"value": (values or {}).get(m["name"], 1.5), "unit": m["unit"]}
    return out


RUN = {"seed": 53, "courses": 2, "goodput_tps": 3500.25, "acked": 98, "actuations": 3}
CHECK_COURSE = {"seed": 53, "courses": 1, "goodput_tps": 3834.125, "acked": 49, "actuations": 2}
REFERENCE = {"seed=53,courses=2": RUN, "seed=53,courses=1": CHECK_COURSE}


def sim_doc(spec_):
    return {
        "workload": "sim-t7-drnn", "seed": 53, "trace": False,
        "metrics": metrics_for(spec_), "attempted": 100, "failed": 0,
        "checks": {"kind": "sim", "roots_emitted": 100, "acked": 98, "failed": 2, "pending": 0,
                   "residual_queued": 0, "delivered": 250, "executed": 248, "dropped": 0,
                   "lost": 2, "dropped_overflow": 0, "replays_exhausted": 0,
                   "control_rounds": 5, "actuations": 3},
        "pinned": dict(RUN), "check_course": dict(CHECK_COURSE),
    }


def async_doc(spec_):
    return {
        "workload": "async-url-saturated", "seed": 7, "trace": False,
        "metrics": metrics_for(spec_), "attempted": 1000, "failed": 0,
        "checks": {"kind": "async", "roots_emitted": 1000, "acked": 1000, "failed": 0,
                   "pending": 0, "lost": 0, "dropped_overflow": 0, "counter_executed": 1000,
                   "aggregated": 1000, "drained": True},
        "pinned": {}, "check_course": {},
    }


class OutputChecks(unittest.TestCase):
    def setUp(self):
        self.spec = spec()

    def errors(self, doc, trace=False, reference=REFERENCE):
        return run.run_checks(doc, self.spec, trace, reference)[0]

    def test_clean_documents_pass(self):
        self.assertEqual(self.errors(sim_doc(self.spec)), [])
        self.assertEqual(self.errors(async_doc(self.spec)), [])

    def test_each_mutation_fails(self):
        for kind in run.MUTATIONS:
            doc = sim_doc(self.spec)
            run.mutate(doc, kind)
            self.assertNotEqual(self.errors(doc), [], kind)

    def test_perturbed_pinned_value_fails(self):
        doc = sim_doc(self.spec)
        doc["pinned"]["acked"] += 1
        self.assertTrue(any("pinned run acked" in e for e in self.errors(doc)))
        doc = sim_doc(self.spec)
        doc["check_course"]["actuations"] += 1
        self.assertTrue(any("pinned check course actuations" in e for e in self.errors(doc)))

    def test_unrecorded_seed_still_compares_the_check_course(self):
        doc = sim_doc(self.spec)
        doc["seed"] = doc["pinned"]["seed"] = 99
        errors, notes = run.run_checks(doc, self.spec, False, REFERENCE)
        self.assertEqual(errors, [])
        self.assertTrue(any("no pinned reference for seed=99" in n for n in notes))
        self.assertTrue(any("check course: matched" in n for n in notes))
        doc["check_course"]["goodput_tps"] += 0.001
        self.assertNotEqual(self.errors(doc), [])

    def test_missing_check_course_reference_fails(self):
        reference = {"seed=53,courses=2": RUN}
        errors = self.errors(sim_doc(self.spec), reference=reference)
        self.assertTrue(any("no reference for seed=53,courses=1" in e for e in errors))
        doc = sim_doc(self.spec)
        doc["check_course"] = {}
        self.assertTrue(any("missing" in e for e in self.errors(doc)))

    def test_async_conservation(self):
        for key, value in (("lost", 1), ("dropped_overflow", 3), ("counter_executed", 999),
                           ("aggregated", 1001), ("pending", 1), ("drained", False)):
            doc = async_doc(self.spec)
            doc["checks"][key] = value
            self.assertNotEqual(self.errors(doc), [], key)

    def test_sim_tuple_conservation(self):
        doc = sim_doc(self.spec)
        doc["checks"]["delivered"] += 1
        self.assertNotEqual(self.errors(doc), [])

    def test_no_control_round_fails_on_the_drnn_workload(self):
        doc = sim_doc(self.spec)
        doc["checks"]["control_rounds"] = 0
        self.assertNotEqual(self.errors(doc), [])

    def test_missing_or_zero_metric_fails(self):
        doc = async_doc(self.spec)
        del doc["metrics"]["lat_p99_ms"]
        self.assertNotEqual(self.errors(doc), [])
        doc = async_doc(self.spec)
        doc["metrics"]["goodput_tps"]["value"] = 0.0
        self.assertNotEqual(self.errors(doc), [])
        doc = async_doc(self.spec)
        doc["metrics"]["setup_s"]["unit"] = "ms"
        self.assertNotEqual(self.errors(doc), [])

    def test_result_line_shape(self):
        doc = sim_doc(self.spec)
        line = json.loads(run.result_line(doc, self.spec, False, True))
        self.assertEqual(sorted(line), ["attempted", "correct", "failed", "metrics"])
        self.assertEqual(sorted(line["metrics"]), sorted(m["name"] for m in self.spec["end_to_end"]))


@unittest.skipUnless(os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")),
                     "needs the program sources")
class CommandFails(unittest.TestCase):
    """The real command, on a short sim run: clean it passes with both pinned
    comparisons, and each broken output makes it exit 1 with correct=false,
    at a seed with no reference of its own."""

    def run_command(self, seed, *extra):
        cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", "sim-t7-drnn",
               "--seed", str(seed), "--seconds", "1", "--setup-repeats", "1"] + list(extra)
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              timeout=400, check=False)
        lines = done.stdout.decode().strip().split("\n")
        return done.returncode, json.loads(lines[-1]), "\n".join(lines)

    def test_clean_run_passes_with_pinned_reference(self):
        rc, result, out = self.run_command(53)
        self.assertEqual(rc, 0, out)
        self.assertTrue(result["correct"])
        self.assertIn("check course: matched", out)
        self.assertIn("run: matched", out)

    def test_each_broken_output_fails_the_command(self):
        for kind in run.MUTATIONS:
            rc, result, out = self.run_command(99, "--mutate", kind)
            self.assertEqual(rc, 1, kind)
            self.assertFalse(result["correct"], kind)


if __name__ == "__main__":
    unittest.main()
