#!/usr/bin/env python3
"""Self-tests for the benchmark itself:

    python3 perfbench/selftest.py

- msehsim_perf's helper tests (percentile tail refusal, HTTP framing);
- the same seed yields byte-identical generated inputs, different seeds
  differ (grid seeds, fault schedule, daemon request sequence);
- a corrupted digest or output makes a run exit non-zero, a clean run of
  the default seed exits 0 with its recorded digest.
"""
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

failures = 0


def expect(ok, what):
    global failures
    print(("PASS " if ok else "FAIL ") + what)
    failures += 0 if ok else 1


def bench(workload, seed, *extra):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "0", *extra],
        capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result


def main():
    binary = run.build()
    if binary is None:
        return 1
    work = run.build_dir() / "work"
    work.mkdir(parents=True, exist_ok=True)
    proc = subprocess.run([str(binary), "selftest", "--work-dir", str(work)],
                          capture_output=True, text=True, timeout=300)
    sys.stdout.write(proc.stdout)
    expect(proc.returncode == 0, "msehsim_perf helper self-tests")

    def inputs(workload, seed):
        return subprocess.run(
            [str(binary), "inputs", "--workload", workload, "--seed", str(seed)],
            capture_output=True, check=True, timeout=300).stdout

    default_seed = json.loads((HERE / "expected.json").read_text())["default_seed"]
    for w in run.WORKLOADS:
        a, b, c = inputs(w, 11), inputs(w, 11), inputs(w, 12)
        expect(a == b and len(a) > 0, w + ": same seed, byte-identical inputs")
        expect(a != c, w + ": different seeds, different inputs")

    for w in run.WORKLOADS:
        code, result = bench(w, default_seed)
        expect(code == 0 and result and result["correct"],
               w + ": clean run of the default seed passes")
        for inject in ("digest", "body"):
            code, result = bench(w, default_seed, "--inject", inject)
            expect(code != 0 and (result is None or not result["correct"]),
                   w + ": corrupted " + inject + " fails the run")

    print("%d failure(s)" % failures)
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
