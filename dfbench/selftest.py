#!/usr/bin/env python3
"""Self-tests of the benchmark itself.

    python3 dfbench/selftest.py

1. Smoke: every workload, untraced and traced, for a few cycles per phase;
   each run must pass its checks and print exactly the metrics that
   BENCHMARK.json names for that mode, with the same units.
2. Negative: a reference file whose pinned fingerprint is perturbed by one
   delivered packet must turn a reference-seed run into a failed one, while
   the pristine reference passes the same run.

Run from the root of the checkout; exits 0 only when every test passes.
"""

import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN = os.path.join(BENCH_DIR, "run.py")
PERTURBED = os.path.join(ROOT, ".bench_build", "perturbed_reference.json")


def run(workload, trace, *extra):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False,
                          cwd=ROOT)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                             f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def expect(condition, message, failures):
    status = "ok  " if condition else "FAIL"
    print(f"{status} {message}", flush=True)
    if not condition:
        failures.append(message)


def smoke(spec, failures):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in spec[section]}
        for workload in (w["name"] for w in spec["workloads"]):
            result = run(workload, trace, "--smoke")
            label = f"smoke {workload} trace={trace}"
            expect(set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, f"{label}: result keys",
                   failures)
            expect(result["correct"] and result["failed"] == 0
                   and result["attempted"] >= 1,
                   f"{label}: checks pass ({result['attempted']} attempted)",
                   failures)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            missing = sorted(set(wanted) - set(got))
            extra = sorted(set(got) - set(wanted))
            wrong_unit = sorted(n for n in wanted.keys() & got.keys()
                                if wanted[n] != got[n])
            expect(not missing and not extra and not wrong_unit,
                   f"{label}: {len(got)} metrics named and united as in "
                   f"BENCHMARK.json (missing {missing}, extra {extra}, "
                   f"unit mismatch {wrong_unit})", failures)


def negative(failures):
    with open(os.path.join(BENCH_DIR, "reference.json"), encoding="utf-8") as f:
        reference = json.load(f)
    reference["fingerprints"]["paper_un_base/t1"]["delivered"] += 1
    os.makedirs(os.path.dirname(PERTURBED), exist_ok=True)
    with open(PERTURBED, "w", encoding="utf-8") as f:
        json.dump(reference, f)
    try:
        bad = run("paper_un_base", 0, "--reference", PERTURBED)
    finally:
        os.remove(PERTURBED)
    expect(not bad["correct"] and bad["failed"] == bad["attempted"] > 0,
           f"perturbed reference fails the run (correct={bad['correct']}, "
           f"failed {bad['failed']}/{bad['attempted']})", failures)
    good = run("paper_un_base", 0)
    expect(good["correct"] and good["failed"] == 0,
           "pristine reference passes the same run", failures)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    failures = []
    smoke(spec, failures)
    negative(failures)
    print(f"{len(failures)} self-test failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
