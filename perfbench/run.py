#!/usr/bin/env python3
"""End-to-end MINE RULE benchmark.

Builds the benchmark and the MineRule libraries from this checkout's
sources (Release, into $CARGO_TARGET_DIR or .bench_build), runs one
workload and forwards its report. The last line of standard output is the
JSON result: {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload retail_general --seed 1 \
        --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

With --trace 1 the spans of the traced run are also written as a Chrome
trace to <build dir>/traces/<workload>-<seed>.json.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, path)


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: MineRule sources (src/) not found next to perfbench/")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "--target", "e2e_bench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(out, "e2e_bench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as err:
        sys.exit(f"run.py: build failed: {err}")

    if args.selftest:
        sys.exit(subprocess.run([binary, "--selftest"],
                                timeout=RUN_TIMEOUT_S).returncode)
    if not args.workload:
        parser.error("--workload is required")

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-{args.seed}.json")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        print("\n".join(lines))
        sys.exit(f"run.py: e2e_bench exited with {proc.returncode}")

    # The report must carry exactly the metrics BENCHMARK.json declares.
    result = json.loads(lines[-1])
    missing = expected_metrics(args.trace) ^ set(result["metrics"])
    if missing:
        print("\n".join(lines[:-1]))
        sys.exit(f"run.py: metrics differ from BENCHMARK.json: "
                 f"{sorted(missing)}")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
