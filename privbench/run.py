#!/usr/bin/env python3
"""Private-inference benchmark runner.

Run from the repository root:

    python3 privbench/run.py --workload serve-clients --seed 1 --seconds 25 --trace 0

Builds the FLASH libraries and the benchmark from source (Release, into
$CARGO_TARGET_DIR or .bench_build), runs the helper self-tests, runs one
workload and prints its metrics. The last stdout line is one JSON object:
with --trace 0 every end-to-end metric of BENCHMARK.json, with --trace 1
every per-layer metric (plus a Chrome trace file under the build directory).
Exits 1 when any output was wrong (after the result, when one could be
computed), and another non-zero code without a result when the build, a
self-test or a run check fails.
"""

import argparse
import json
import math
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"privbench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def validate(result, spec, trace):
    """Problems with a result object, as a list of strings (empty = valid):
    exactly the four keys, whole-number counts, and every metric of the
    mode present once with its declared unit and a finite value."""
    problems = []
    if not isinstance(result, dict):
        return ["result is not an object"]
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"keys {sorted(result)}")
        return problems
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        v = result[key]
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            problems.append(f"{key} is not a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted < 1")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result["metrics"]
    if not isinstance(metrics, dict):
        return problems + ["metrics is not an object"]
    for name in sorted(set(wanted) - set(metrics)):
        problems.append(f"missing metric {name}")
    for name in sorted(set(metrics) - set(wanted)):
        problems.append(f"unexpected metric {name}")
    for name, m in metrics.items():
        if name not in wanted:
            continue
        if not isinstance(m, dict) or sorted(m) != ["unit", "value"]:
            problems.append(f"metric {name} is malformed")
            continue
        if m["unit"] != wanted[name]:
            problems.append(f"metric {name} has unit {m['unit']}, expected {wanted[name]}")
        v = m["value"]
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
            problems.append(f"metric {name} has a non-finite value")
    return problems


def selftest(spec):
    """The output parse round-trip: a result carrying every named metric
    validates; a missing, renamed or non-finite metric does not."""
    errors = []
    for trace in (False, True):
        names = spec["per_layer" if trace else "end_to_end"]
        good = {"correct": True, "attempted": 3, "failed": 0,
                "metrics": {m["name"]: {"value": 1.5, "unit": m["unit"]} for m in names}}
        text = json.dumps(good)
        if validate(json.loads(text), spec, trace):
            errors.append(f"complete result rejected (trace={trace})")
        missing = json.loads(text)
        missing["metrics"].pop(names[0]["name"])
        if not validate(missing, spec, trace):
            errors.append(f"missing metric accepted (trace={trace})")
        bad = json.loads(text)
        bad["metrics"][names[-1]["name"]]["value"] = float("nan")
        if not validate(bad, spec, trace):
            errors.append(f"non-finite value accepted (trace={trace})")
        extra = json.loads(text)
        extra["metrics"]["no_such_metric"] = {"value": 1, "unit": "ms"}
        if not validate(extra, spec, trace):
            errors.append(f"unexpected metric accepted (trace={trace})")
    return errors


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, d, "privbench")


def build(bdir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to the benchmark")
    log = sys.stderr
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        r = subprocess.run(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=log, stderr=log)
        if r.returncode != 0:
            fail("cmake configure failed")
    r = subprocess.run(["cmake", "--build", bdir, "-j", "4"], stdout=log, stderr=log)
    if r.returncode != 0:
        fail("build failed")


def run_bounded(cmd, timeout):
    """Run cmd in its own process group; kill the whole group (shard workers
    included) if it outlives the timeout. Returns (rc, stdout)."""
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                         start_new_session=True, cwd=ROOT)
    try:
        out, _ = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        fail(f"run exceeded {timeout} s", 4)
    return p.returncode, out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")
    errors = selftest(spec)
    if errors:
        fail("output self-test failed: " + "; ".join(errors))

    bdir = build_dir()
    build(bdir)
    rc, out = run_bounded([os.path.join(bdir, "privbench_selftest")], 60)
    if rc != 0:
        sys.stderr.write(out)
        fail("helper self-test failed")

    cmd = [os.path.join(bdir, "privbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(os.path.join(bdir, "traces"), exist_ok=True)
        cmd += ["--trace-out", os.path.join(bdir, "traces", f"{args.workload}-{args.seed}.json")]
    start = time.monotonic()
    rc, out = run_bounded(cmd, RUN_TIMEOUT_S)
    lines = out.rstrip("\n").split("\n") if out else []
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1]) if rc in (0, 1) and lines else None
    except ValueError:
        result = None
    if result is None:
        if lines:
            print(lines[-1])
        # Exit 1 means wrong results; anything else is a run that could not
        # be reported (build, check or timing failure).
        fail(f"benchmark exited with {rc} after {time.monotonic() - start:.1f} s, no result",
             1 if rc == 1 else 3)
    problems = validate(result, spec, bool(args.trace))
    if problems:
        fail("invalid result: " + "; ".join(problems), 3)
    print(json.dumps(result))
    if rc != 0 or not result["correct"]:
        sys.exit(1)


if __name__ == "__main__":
    main()
