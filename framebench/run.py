#!/usr/bin/env python3
"""Build and run the frame benchmark from the root of a source checkout.

    python3 framebench/run.py --workload ours-dense --seed 1 --seconds 20 --trace 0

Builds framebench/ (a standalone CMake project over ../src) into the
directory named by $CARGO_TARGET_DIR (default .bench_build), then runs the
benchmark binary with the same arguments. Build output goes to stderr; the
binary's report goes to stdout, ending in one JSON line. Exits non-zero,
without a result line, when the sources are missing or the build fails.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"framebench: {msg}", file=sys.stderr)
    sys.exit(1)


def arg_value(argv, flag):
    for i, a in enumerate(argv[:-1]):
        if a == flag:
            return argv[i + 1]
    return None


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no erpd sources under {ROOT}/src; run from a full checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "framebench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def recorded_fingerprint(workload, seed):
    with open(os.path.join(HERE, "fingerprints.json")) as f:
        rec = json.load(f)
    return rec["fingerprints"].get(workload, {}).get(str(seed))


def expected_metric_names(trace):
    """Metric names BENCHMARK.json promises for this mode, if it is there."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        bench = json.load(f)
    return [m["name"] for m in bench["per_layer" if trace == "1" else "end_to_end"]]


def main():
    argv = sys.argv[1:]
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build(build_dir)

    cmd = [os.path.join(build_dir, "framebench")] + argv
    workload, seed, trace = (arg_value(argv, "--workload"), arg_value(argv, "--seed"),
                             arg_value(argv, "--trace"))
    if workload and seed:
        fp = recorded_fingerprint(workload, seed)
        if fp:
            cmd += ["--expect-fingerprint", fp]
        if trace == "1":
            trace_dir = os.path.join(build_dir, "traces")
            os.makedirs(trace_dir, exist_ok=True)
            cmd += ["--trace-out", os.path.join(trace_dir, f"{workload}-seed{seed}.json")]

    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    if "--self-test" in argv:
        sys.stdout.write(proc.stdout)
        sys.exit(proc.returncode)
    lines = proc.stdout.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    sys.stdout.flush()
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"no result line (exit {proc.returncode}): {lines[-1]}")
    want = expected_metric_names(trace)
    if want is not None and sorted(want) != sorted(result["metrics"]):
        fail("reported metrics differ from BENCHMARK.json: "
             f"missing {sorted(set(want) - set(result['metrics']))}, "
             f"extra {sorted(set(result['metrics']) - set(want))}")
    print(lines[-1])
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
