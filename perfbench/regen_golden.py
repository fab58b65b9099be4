"""Regenerate ``perfbench/golden.json`` from the current program.

    python3 perfbench/regen_golden.py

Solves every job any seed of any workload can draw (the pools are
finite), in this one process, and records each plan's hash
(``repro.benchmarking.plan_hash``) and simulated samples/s. It also
records Megatron-LM's throughput on the tune-cold and serve-revisit
jobs, the reference ``mist_speedup_vs_megatron`` uses on the workloads
that do not run Megatron themselves. Takes a few minutes. Regenerate
only for a change that is meant to alter plans or simulated outcomes,
and say so in that change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import (  # noqa: E402
    FAMILIES,
    GOLDEN,
    SLICE_SIZES,
    WARMUP_JOB,
    job_key,
    megatron_key,
    serve_pool,
    tune_pool,
)

from repro.api import solve  # noqa: E402
from repro.benchmarking import plan_hash  # noqa: E402
from repro.evaluation.runner import compare_systems  # noqa: E402
from repro.evaluation.workloads import get_scale, paper_workloads  # noqa: E402


def entry(plan, throughput: float) -> dict:
    return {"plan_hash": plan_hash(plan), "samples_per_s": throughput}


def main() -> int:
    golden: dict[str, dict] = {"tune": {}, "slice": {}, "serve": {},
                               "megatron": {}}
    for section, jobs in (("tune", tune_pool()),
                          ("serve", [WARMUP_JOB] + serve_pool())):
        for job in jobs:
            report = solve(job, "mist")
            golden[section][job_key(job)] = entry(report.plan,
                                                  report.throughput)
            if job is not WARMUP_JOB:
                golden["megatron"][megatron_key(job)] = \
                    solve(job, "megatron").throughput
            print(section, job_key(job), report.throughput, flush=True)
    for family in FAMILIES:
        for workload in paper_workloads("L4", family=family,
                                        sizes=SLICE_SIZES, flash=True):
            comparison = compare_systems(workload,
                                         systems=("megatron", "deepspeed",
                                                  "mist"),
                                         scale=get_scale("quick"))
            for system, outcome in comparison.outcomes.items():
                golden["slice"][f"{workload.name}/{system}"] = entry(
                    outcome.plan, outcome.throughput)
            print("slice", workload.name, flush=True)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
