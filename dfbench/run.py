#!/usr/bin/env python3
"""Build and run one dfbench workload; print its record and result.

    python3 dfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a dfsim checkout. The first run configures and builds
dfbench (and the dfsim sources it measures) in Release mode under
.bench_build/dfbench. The last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it is the
detail record with the host and build manifest. Workloads, metrics and
their rationale are in dfbench/README.md.

Extra flags for the self-tests (selftest.py): --smoke runs every phase for a
few cycles only; --reference FILE swaps in another pinned-fingerprint file.
"""

import argparse
import json
import os
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "dfbench")
BINARY = os.path.join(BUILD_DIR, "dfbench")
WORKLOADS = ("paper_un_base", "paper_adv_ectn_t2", "registry_tiny")
# Build parallelism is pinned like the workloads' thread counts.
BUILD_JOBS = 4
RUN_TIMEOUT_S = 170


def log(message):
    print(f"dfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configure (once) and build; the compiler's output goes to stderr."""
    if not os.path.exists(os.path.join(ROOT, "src", "engine", "simulator.cpp")):
        raise RuntimeError(f"no dfsim sources under {ROOT}/src")
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", str(BUILD_JOBS)],
                   stdout=sys.stderr, check=True)


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_rev():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                         capture_output=True, text=True, check=False)
    return out.stdout.strip() or "unknown"


def host_manifest():
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "loadavg_at_start": list(os.getloadavg()),
        "git_rev": git_rev(),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--reference",
                        default=os.path.join(BENCH_DIR, "reference.json"))
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    host = host_manifest()  # load average before the build adds to it
    started = time.monotonic()
    build()
    log(f"built in {time.monotonic() - started:.1f} s; running {args.workload}")

    cmd = [BINARY, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--reference={os.path.abspath(args.reference)}",
           f"--goldens={os.path.join(ROOT, 'tests', 'goldens')}"]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"dfbench exited with code {proc.returncode}")
    doc = json.loads(proc.stdout)
    record = doc["record"]
    record["host"] = host
    print(json.dumps({"record": record}, separators=(",", ":")))
    print(json.dumps(doc["result"], separators=(",", ":")))
    failures = record.get("failures", [])
    for failure in failures:
        log(f"CHECK FAILED: {failure}")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, subprocess.SubprocessError,
            json.JSONDecodeError, KeyError) as error:
        log(f"error: {error}")
        sys.exit(1)
