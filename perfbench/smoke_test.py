#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny scale.

Runs every workload in both modes through run.py with --tiny and checks
that the run passes its correctness checks with no failed operation, that
the last line holds exactly correct/attempted/failed/metrics, and that every
metric BENCHMARK.json declares for the mode appears with its declared unit.
It takes well under a minute once the program is built.

    python3 perfbench/smoke_test.py
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{workload} --trace {trace}"
            before = len(problems)
            run = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                 "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = run.stdout.strip().splitlines()
            if run.returncode != 0 or not lines:
                problems.append(f"{label}: exit {run.returncode}: {run.stderr.strip()[-500:]}")
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{label}: result keys {sorted(result)}")
                continue
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                details = json.loads(lines[-2])["details"] if len(lines) > 1 else {}
                failed = [c["check"] for c in details.get("checks", []) if not c["ok"]]
                problems.append(f"{label}: incorrect, failed checks {failed}")
            declared = {m["name"]: m["unit"] for m in spec[section]}
            reported = {name: m["unit"] for name, m in result["metrics"].items()}
            if reported != declared:
                problems.append(f"{label}: metrics differ from BENCHMARK.json {section}")
            status = "ok  " if len(problems) == before else "FAIL"
            print(f"{status} {label}: attempted {result['attempted']}, {len(reported)} metrics")
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
