#!/usr/bin/env python3
"""End-to-end benchmark of p2pfl: build, run one workload, check, report.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tcp_agg --seed 1 --seconds 25 --trace 0

Builds perfbench/CMakeLists.txt (the p2pfl libraries plus the perfbench
binary) into $CARGO_TARGET_DIR (default .bench_build), runs the workload,
and prints the binary's notes followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
per-layer ones (see perfbench/NOTES.md). Exits 1 when an output check or
the same-seed determinism check fails, and 2 without a result when the
sources are missing, the build fails or the run does not finish.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ("system_1k", "train_cnn", "tcp_agg")
# Workloads whose exact counts must repeat for a seed.
DETERMINISTIC = ("system_1k",)
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(bench_dir, build_dir):
    """Configure and build the perfbench binary; returns its path or None."""
    cmake_dir = os.path.join(build_dir, "cmake")
    os.makedirs(cmake_dir, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", bench_dir, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            log("build failed: " + " ".join(cmd))
            return None
    return os.path.join(cmake_dir, "perfbench")


def sha256_of(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def same_seed_check(build_dir, binary, res):
    """Compare this run's exact counts with an earlier run of the same
    binary, workload, seed and length; record them on the first run."""
    record_dir = os.path.join(build_dir, "determinism")
    os.makedirs(record_dir, exist_ok=True)
    path = os.path.join(
        record_dir, f"{res['workload']}-seed{res['seed']}-s{res['seconds']}.json")
    mine = {"binary": sha256_of(binary), "counts": res["counts"]}
    if os.path.exists(path):
        with open(path) as f:
            prev = json.load(f)
        if prev.get("binary") == mine["binary"]:
            diff = sorted(k for k in set(prev["counts"]) | set(mine["counts"])
                          if prev["counts"].get(k) != mine["counts"].get(k))
            if diff:
                return False, "counts differ from an earlier run with this seed: " + \
                    ", ".join(f"{k} {prev['counts'].get(k)} -> {mine['counts'].get(k)}"
                              for k in diff)
            return True, "exact counts equal an earlier run with this seed"
    with open(path, "w") as f:
        json.dump(mine, f)
    return True, "first run with this seed: counts recorded"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    repo_root = os.path.dirname(bench_dir)
    if not os.path.exists(os.path.join(repo_root, "src", "CMakeLists.txt")):
        log(f"no p2pfl sources next to {bench_dir}; nothing to benchmark")
        return 2
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(bench_dir, build_dir)
    if binary is None:
        return 2

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(build_dir, "work")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 2
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        res = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(proc.stdout)
        log(f"{args.workload} exited {proc.returncode} without a result")
        return 2
    for line in lines[:-1]:
        print(line)

    correct = proc.returncode == 0 and all(c["ok"] for c in res["checks"].values())
    if args.workload in DETERMINISTIC:
        ok, detail = same_seed_check(build_dir, binary, res)
        print(f"check {'same_seed_counts':<22} {'ok  ' if ok else 'FAIL'}  {detail}")
        correct = correct and ok
    info = res["info"]
    print("environment: " + ", ".join(f"{k}={info[k]}" for k in sorted(info)))

    out = {
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": res["metrics"],
    }
    print(json.dumps(out), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
