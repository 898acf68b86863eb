#!/usr/bin/env python3
"""Build and run the simulator benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds perfbench/ (CMake, Release) into
$CARGO_TARGET_DIR, or .bench_build when it is unset, runs one workload and
relays the benchmark program's output; the last stdout line is the JSON result.

On top of the program's own checks this script remembers each workload's
sim_digest per seed for the built binary: a later run of the same binary,
workload and seed that reproduces a different digest is reported as
incorrect. Chrome traces of --trace 1 runs land in <build dir>/traces.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configure once, then let CMake rebuild whatever changed."""
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4"],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, if present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_digest(build_dir, binary, workload, seed, digest):
    """True unless this binary already produced another digest here."""
    path = os.path.join(build_dir, "digests.json")
    st = os.stat(binary)
    identity = f"{st.st_mtime_ns}:{st.st_size}"
    memo = {"binary": identity, "digests": {}}
    if os.path.isfile(path):
        with open(path) as f:
            old = json.load(f)
        if old.get("binary") == identity:
            memo = old
    key = f"{workload}/{seed}"
    seen = memo["digests"].setdefault(key, digest)
    with open(path, "w") as f:
        json.dump(memo, f, indent=1, sort_keys=True)
    if seen != digest:
        log(f"sim_digest {digest} differs from {seen} of an earlier run "
            f"of {key} with the same binary")
        return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=2021)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "scenario", "runner.hpp")):
        log(f"simulator sources not found under {ROOT}/src")
        return 2
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR")
                             or ".bench_build")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 2
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-dir", trace_dir]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        log(f"perfbench exited with {proc.returncode}")
        print(proc.stdout, end="")
        return proc.returncode or 1
    result = json.loads(lines[-1])

    digest = next((l.split()[1] for l in lines if l.startswith("sim_digest ")),
                  None)
    if digest is None or not check_digest(build_dir, binary, args.workload,
                                          args.seed, digest):
        result["correct"] = False
    want = expected_metrics(args.trace)
    if want is not None and want != set(result["metrics"]):
        log(f"metrics {sorted(set(result['metrics']) ^ want)} do not match "
            "BENCHMARK.json")
        result["correct"] = False

    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
