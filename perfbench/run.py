#!/usr/bin/env python3
"""The repository benchmark: one command that builds the program from source,
runs one workload, checks the outputs and prints the metrics.

Run from the repository root:

    python3 perfbench/run.py --workload sim-t7-drnn --seed 53 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. With `--trace 0` the metrics are the
end-to-end metrics of BENCHMARK.json; with `--trace 1` the per-layer ones.
Exit code 0 when every output check passed, 1 when one failed, 2 when the
benchmark could not run (no sources, build failure, bad arguments).

Other modes:
    --self-test           run the benchmark's own tests (C++ and Python)
    --record-reference    add this run's exact simulated outcomes (and the
                          check course's) to perfbench/reference/sim-t7-drnn.json
"""
import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(BENCH_DIR, "reference", "sim-t7-drnn.json")
BINARY_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


class CannotRun(Exception):
    """The benchmark cannot produce a result here (exit code 2, no JSON)."""


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def repo_root():
    # The benchmark runs from the root of a checkout; perfbench/ sits in it.
    return os.path.dirname(BENCH_DIR)


def load_benchmark_spec(root):
    path = os.path.join(root, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        raise CannotRun("cannot read %s: %s" % (path, e))


def build(root):
    """Configure (once) and build the benchmark package; returns the build dir."""
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        raise CannotRun("no program sources (src/CMakeLists.txt) in %s" % root)
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as e:
            raise CannotRun("build step %s failed: %s" % (cmd[:2], e))
        if done.returncode != 0:
            sys.stderr.write(done.stdout.decode(errors="replace")[-6000:])
            raise CannotRun("build failed: %s" % " ".join(cmd))
    return build_dir


def source_id(root):
    """The commit when the checkout is a git work tree, else a digest of the
    program and benchmark sources (the checkout the benchmark runs in is not
    a git repository)."""
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, timeout=10, check=False)
        if out.returncode == 0:
            return "git:" + out.stdout.decode().strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def run_binary(build_dir, args, root):
    """Run the benchmark binary; echo its report; return its JSON document."""
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", source_id(root), "--out-dir", out_dir]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    if args.setup_repeats is not None:
        cmd += ["--setup-repeats", str(args.setup_repeats)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              timeout=BINARY_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        raise CannotRun("workload did not finish within %d s" % BINARY_TIMEOUT_S)
    sys.stderr.write(done.stderr.decode(errors="replace"))
    lines = done.stdout.decode(errors="replace").rstrip("\n").split("\n")
    if done.returncode != 0 or not lines or not lines[-1].startswith("{"):
        raise CannotRun("workload binary exited with code %d" % done.returncode)
    for line in lines[:-1]:
        print(line)
    doc = json.loads(lines[-1])
    name = "%s-seed%s-trace%d.json" % (args.workload, doc["seed"], args.trace)
    with open(os.path.join(out_dir, name), "w") as f:
        json.dump(doc, f, indent=1)
    return doc


def load_reference():
    try:
        with open(REFERENCE) as f:
            return json.load(f)
    except OSError:
        return {}


def reference_key(values):
    return "seed=%d,courses=%d" % (values["seed"], values["courses"])


# --- output checks -------------------------------------------------------------

def check_metrics(doc, spec, trace):
    """Every metric of BENCHMARK.json is present with its unit; end-to-end
    values are finite and positive."""
    errors = []
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    got = doc.get("layers", {}) if trace else doc.get("metrics", {})
    for m in wanted:
        v = got.get(m["name"])
        if v is None:
            errors.append("metric %s missing" % m["name"])
        elif v["unit"] != m["unit"]:
            errors.append("metric %s has unit %s, BENCHMARK.json says %s"
                          % (m["name"], v["unit"], m["unit"]))
        elif not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"]):
            errors.append("metric %s is not a finite number" % m["name"])
        elif not trace and v["value"] <= 0:
            errors.append("metric %s is %r, not positive" % (m["name"], v["value"]))
    return errors


def check_conservation(doc):
    c = doc["checks"]
    errors = []

    def expect(ok, msg):
        if not ok:
            errors.append("conservation: " + msg)

    expect(c["pending"] == 0, "%d roots still pending after the drain" % c["pending"])
    expect(c["acked"] + c["failed"] + c["pending"] == c["roots_emitted"],
           "acked %d + failed %d + pending %d != emitted %d"
           % (c["acked"], c["failed"], c["pending"], c["roots_emitted"]))
    if c["kind"] == "sim":
        expect(c["residual_queued"] == 0, "%d tuples still queued" % c["residual_queued"])
        expect(c["delivered"] == c["executed"] + c["dropped"] + c["lost"] + c["dropped_overflow"],
               "delivered %d != executed %d + dropped %d + lost %d + shed %d"
               % (c["delivered"], c["executed"], c["dropped"], c["lost"], c["dropped_overflow"]))
        expect(c["replays_exhausted"] == 0, "%d roots exhausted their replays"
               % c["replays_exhausted"])
    else:
        expect(c["drained"], "the drain timed out")
        expect(c["lost"] == 0, "%d tuples lost" % c["lost"])
        expect(c["dropped_overflow"] == 0, "%d tuples shed" % c["dropped_overflow"])
        expect(c["counter_executed"] == c["roots_emitted"],
               "counters executed %d roots of %d emitted"
               % (c["counter_executed"], c["roots_emitted"]))
        expect(c["aggregated"] == c["counter_executed"],
               "aggregators merged %d counts for %d counted roots"
               % (c["aggregated"], c["counter_executed"]))
    return errors


def check_actuations(doc):
    if doc["workload"] != "sim-t7-drnn":
        return []
    c = doc["checks"]
    errors = []
    if c["control_rounds"] < 1:
        errors.append("the DRNN arm ran no control round")
    if c["actuations"] < 1:
        errors.append("the DRNN arm never changed the split ratio (a vacuous run)")
    return errors


def check_pinned(doc, reference):
    """Simulated outcomes are exact. The fixed check course must match its
    reference in every run; the measured run must too when its (seed,
    courses) pair is recorded."""
    if doc["workload"] != "sim-t7-drnn":
        return [], []
    if not doc.get("check_course"):
        return ["pinned check course: missing from the result"], []
    errors, notes = [], []
    for label, values, required in (("check course", doc["check_course"], True),
                                    ("run", doc["pinned"], False)):
        key = reference_key(values)
        ref = reference.get(key)
        if ref is None:
            if required:
                errors.append("pinned %s: no reference for %s" % (label, key))
            else:
                notes.append("%s: no pinned reference for %s" % (label, key))
            continue
        wrong = ["pinned %s %s: got %r, reference %r" % (label, k, values.get(k), want)
                 for k, want in sorted(ref.items()) if values.get(k) != want]
        errors += wrong
        if not wrong:
            notes.append("%s: matched %d pinned values for %s" % (label, len(ref), key))
    return errors, notes


def run_checks(doc, spec, trace, reference):
    errors = check_metrics(doc, spec, trace) + check_conservation(doc) + check_actuations(doc)
    pinned_errors, notes = check_pinned(doc, reference)
    return errors + pinned_errors, notes


MUTATIONS = ("pinned", "conservation", "actuations")


def mutate(doc, kind):
    """Break one output on purpose (the tests prove each check can fail)."""
    if kind == "pinned":
        course = doc["check_course"]
        course["goodput_tps"] = course["goodput_tps"] * (1 + 1e-12) + 1e-9
    elif kind == "conservation":
        doc["checks"]["acked"] -= 1
    elif kind == "actuations":
        doc["checks"]["actuations"] = 0


def result_line(doc, spec, trace, correct):
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    got = doc.get("layers", {}) if trace else doc.get("metrics", {})
    metrics = {}
    for m in wanted:
        if m["name"] in got:
            metrics[m["name"]] = {"value": got[m["name"]]["value"], "unit": m["unit"]}
    return json.dumps({"correct": correct, "attempted": max(1, int(doc["attempted"])),
                       "failed": int(doc["failed"]), "metrics": metrics})


def self_test(root):
    build_dir = build(root)
    rc = subprocess.run([os.path.join(build_dir, "perfbench_tests")], check=False).returncode
    rc2 = subprocess.run([sys.executable, "-m", "unittest", "discover", "-s",
                          os.path.join(BENCH_DIR, "tests"), "-p", "test_*.py", "-v"],
                         check=False).returncode
    return 0 if rc == 0 and rc2 == 0 else 1


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-repeats", type=int, help="set-ups per run (default 3)")
    p.add_argument("--mutate", choices=MUTATIONS, help=argparse.SUPPRESS)
    p.add_argument("--record-reference", action="store_true")
    p.add_argument("--self-test", action="store_true")
    return p.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    root = repo_root()
    try:
        if args.self_test:
            return self_test(root)
        spec = load_benchmark_spec(root)
        # The benchmark binary validates the workload name.
        if not args.workload:
            raise CannotRun("--workload is required")
        if not 1 <= args.seconds <= 60:
            raise CannotRun("--seconds must be in [1, 60]")
        build_dir = build(root)
        doc = run_binary(build_dir, args, root)
    except CannotRun as e:
        log(str(e))
        return 2

    if args.record_reference:
        if not doc.get("pinned"):
            log("this workload has no pinned values")
            return 2
        reference = load_reference()
        for values in (doc["pinned"], doc["check_course"]):
            reference[reference_key(values)] = values
            log("recorded %s" % reference_key(values))
        with open(REFERENCE, "w") as f:
            json.dump(dict(sorted(reference.items())), f, indent=1, sort_keys=True)
            f.write("\n")

    if args.mutate:
        mutate(doc, args.mutate)
    errors, notes = run_checks(doc, spec, args.trace == 1, load_reference())
    print("checks: %s" % ("all passed" if not errors else "%d FAILED" % len(errors)))
    for e in errors:
        print("  FAILED " + e)
    for note in notes:
        print("  " + note)
    print(result_line(doc, spec, args.trace == 1, not errors))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
