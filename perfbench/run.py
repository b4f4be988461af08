#!/usr/bin/env python3
"""Build the benchmark program from the checkout's sources and run one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload serve_steady --seed 1 --seconds 20 --trace 0

The program is configured and built with CMake under the build directory
named by CARGO_TARGET_DIR (default .bench_build). Each run executes the
workload in its own process, so its peak RSS is its own. The last line of
standard output is the result object with exactly the keys correct,
attempted, failed and metrics; the line before it carries the machine stamp
and the run's details (checks, sample counts, metric notes). With --trace 1
the spans are written to .bench_out/spans-<workload>.jsonl.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("serve_steady", "serve_checkpoint", "sweep_qc")
RUN_TIMEOUT_S = 170


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configure once, then bring the program up to date; returns its path."""
    if not (ROOT / "src" / "vbr").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        fail("the library sources (src/vbr, CMakeLists.txt) are not in this checkout", 3)
    target_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target_dir.is_absolute():
        target_dir = ROOT / target_dir
    build_dir = target_dir / "perfbench"
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir / "build-output.txt"
    with open(log_path, "w") as log:
        if not (build_dir / "CMakeCache.txt").is_file():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                         "-DCMAKE_BUILD_TYPE=Release", *generator]
            if subprocess.run(configure, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                fail(f"cmake configure failed, see {log_path}", 3)
        jobs = str(min(4, os.cpu_count() or 1))
        compile_cmd = ["cmake", "--build", str(build_dir), "--target", "perfbench", "-j", jobs]
        if subprocess.run(compile_cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
            fail(f"build failed, see {log_path}", 3)
    return build_dir / "perfbench"


def git_sha():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest():
    """SHA-256 over the library sources, which identifies the code when the
    checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def cpu_ticks():
    """(steal, total) jiffies of all CPUs from /proc/stat, or None."""
    try:
        with open("/proc/stat") as stat:
            fields = [int(x) for x in stat.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields)


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test scale (small fleets and grids)")
    args = parser.parse_args()

    declared = declared_metrics(args.trace)
    program = build()
    scratch = ROOT / ".bench_scratch" / f"{args.workload}-{os.getpid()}"
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    command = [str(program), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scratch", str(scratch),
               "--spans-out", str(out_dir / f"spans-{args.workload}.jsonl")]
    if args.tiny:
        command.append("--tiny")
    ticks_before = cpu_ticks()
    try:
        run = subprocess.run(command, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 4)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    ticks_after = cpu_ticks()
    sys.stderr.write(run.stderr)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        fail(f"{args.workload} exited with {run.returncode}", 4)
    result = json.loads(lines[-1])

    metrics = result["metrics"]
    unknown = sorted(set(metrics) - set(declared))
    if unknown:
        fail(f"metrics not declared in BENCHMARK.json: {unknown}", 4)
    if not args.trace and set(metrics) != set(declared):
        fail(f"end-to-end metrics missing: {sorted(set(declared) - set(metrics))}", 4)
    for name, unit in declared.items():
        if name not in metrics:
            # A layer metric this workload does not measure reads 0.
            metrics[name] = {"value": 0, "unit": unit}
        elif metrics[name]["unit"] != unit:
            fail(f"{name} reported in {metrics[name]['unit']}, declared in {unit}", 4)

    # Time the hypervisor gave to other guests while this run was measured;
    # wall-clock metrics of a run with high steal are not comparable.
    steal_pct = None
    if ticks_before and ticks_after and ticks_after[1] > ticks_before[1]:
        steal_pct = round(100.0 * (ticks_after[0] - ticks_before[0]) /
                          (ticks_after[1] - ticks_before[1]), 2)
    stamp = dict(result["details"].pop("stamp"), git_sha=git_sha(), host_steal_pct=steal_pct,
                 source_sha256=source_digest(), workload=args.workload, seed=args.seed,
                 seconds=args.seconds, trace=args.trace)
    print(json.dumps({"stamp": stamp, "details": result["details"]}))
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": {name: metrics[name] for name in sorted(metrics)}}))


if __name__ == "__main__":
    main()
