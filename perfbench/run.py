#!/usr/bin/env python3
"""Build the msehsim benchmark binary from this checkout and run one workload.

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 10 --trace 0

Workloads: paper-grid, week-faulted, daemon-mix (see perfbench/NOTES.md).
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics.
The last line of standard output is the result object; build output goes to
standard error. The build (CMake, Release) lives in $CARGO_TARGET_DIR or
.bench_build under the checkout root, and so does every file a run writes.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper-grid", "week-faulted", "daemon-mix")


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return d if d.is_absolute() else ROOT / d


def build():
    """Configures (once) and builds msehsim_perf; returns its path or None."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print("perfbench: no msehsim sources next to perfbench/", file=sys.stderr)
        return None
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "msehsim_perf",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return None
    return out / "msehsim_perf"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    p.add_argument("--inject", choices=("digest", "body"),
                   help="self-test hook: corrupt a digest or an output")
    args = p.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")

    binary = build()
    if binary is None:
        return 3
    work = build_dir() / "work"
    work.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "run", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", args.trace, "--work-dir", str(work),
           "--expected", str(HERE / "expected.json")]
    if args.inject:
        cmd += ["--inject", args.inject]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=3 * args.seconds + 90)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: msehsim_perf timed out", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
