#!/usr/bin/env python3
"""Runs one workload of the alphaevolve end-to-end benchmark.

    python3 perfbench/run.py --workload mine_plain --seed 1 --seconds 10 \
        --trace 0

Run from the repository root. On first use it configures and builds the
harness (perfbench/CMakeLists.txt, which compiles the library from ../src)
into $CARGO_TARGET_DIR, or .bench_build when that is unset, then runs the
checker's self-test and the workload. The last stdout line is the result
JSON; build output goes to stderr. Extra flags (--wide-workers, --depth)
are passed through for one-off sweeps.
"""
import argparse
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("mine_plain", "mine_stress", "service_mix")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    d = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build(bdir):
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        fail(f"no alphaevolve sources under {ROOT}; run from a full checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "-j", jobs])
    steps.append([str(bdir / "perfbench_checker_test")])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail(f"'{' '.join(cmd)}' exited {r.returncode}", 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--wide-workers", type=int)
    ap.add_argument("--depth", type=int)
    a = ap.parse_args()

    bdir = build_dir()
    build(bdir)
    cmd = [str(bdir / "perfbench_run"), "--workload", a.workload,
           "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace)]
    if a.wide_workers is not None:
        cmd += ["--wide-workers", str(a.wide_workers)]
    if a.depth is not None:
        cmd += ["--depth", str(a.depth)]
    sys.stdout.flush()
    try:
        r = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 1)
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
