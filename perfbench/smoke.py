"""Smoke test of the benchmark: one short job per workload, untraced and traced.

Usage: python3 perfbench/smoke.py      (about 5 s; exit 0 when all is well)

Checks that every run is correct, that the result carries exactly the metric
names of BENCHMARK.json, and that the traced run sees the layers the job
must pass through, so that a renamed function in donkin shows up here
rather than as a silent zero in the per-layer numbers.
"""
from __future__ import annotations

import json
import sys

import run
from workloads import WORKLOADS, table

SHORT_JOBS = {
    "tables": ["--format", "jsonl", "spot-check", table("f4"), "--lambda", "0,0,0,1"],
    "characters": ["char", "G2", "1,0"],
    "exterior": ["exterior", "G2", "1,0"],
    "warm": ["char", "G2", "1,0"],
}

# per-layer metrics that must be nonzero on each short job
MUST_SEE = {
    "tables": ["verifier.spot_check.pass", "embeddings.restrict_character.calls",
               "nilpotent.parse_orbit_tables.records", "characters.freudenthal.calls"],
    "characters": ["characters.freudenthal.distinct", "rootsystem.weyl_orbit.points",
                   "characters.cache.bytes"],
    "exterior": ["characters.exterior_algebra.output_weights",
                 "characters.decompose_dual_weyl.peel_steps"],
    "warm": ["characters.cache.load_entries", "characters.dual_weyl_character.calls"],
}


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    for name in WORKLOADS:
        for traced in (False, True):
            res = run.run_workload(name, 0, 0, traced, jobs=[SHORT_JOBS[name]])
            wanted = [m["name"] for m in spec["per_layer" if traced else "end_to_end"]]
            where = f"{name} trace={int(traced)}"
            if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{where}: result keys {sorted(res)}")
            if not res["correct"] or res["failed"]:
                problems.append(f"{where}: {res['failed']} of {res['attempted']} jobs failed")
            if list(res["metrics"]) != wanted:
                problems.append(f"{where}: metric names differ from BENCHMARK.json")
            zero = [m for m in (MUST_SEE[name] if traced else wanted)
                    if not res["metrics"][m]["value"]]
            if zero:
                problems.append(f"{where}: zero {zero}")
    for p in problems:
        print("FAIL", p)
    print("smoke:", "FAIL" if problems else "OK")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
