"""One measured benchmark process: a cold tune job, a Fig. 11 slice, or
the tuning daemon.

Started by ``perfbench/run.py`` as::

    python3 perfbench/child.py SPEC_JSON

``SPEC_JSON`` holds ``kind`` (``tune`` / ``slice`` / ``serve``),
``trace`` (install the layer wrappers), ``trace_id``, ``out`` (where
to write the result) and the kind's own inputs. The first statement
after start-up is ``import repro.api``; the result file records when it
finished (``ready_ns``, ``time.monotonic_ns()``), so ``run.py``, which
noted the same clock just before starting this process, can split
set-up from work. The result is written only after the work is done:
for ``serve`` that is after the daemon's graceful SIGTERM shutdown,
so the daemon-side spans are flushed then.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

SLICE_SYSTEMS = ("megatron", "deepspeed", "mist")


def tune(spec: dict) -> dict:
    """What ``repro tune`` does: build the job, solve it with Mist."""
    from repro.api import TuningJob, solve

    report = solve(TuningJob.from_dict(spec["job"]), "mist")
    return {"report": report.to_json()}


def fig11_slice(spec: dict) -> dict:
    """``compare_systems`` on the Fig. 11 L4 points of one family."""
    from repro.api import TuningJob
    from repro.evaluation.runner import compare_systems
    from repro.evaluation.workloads import get_scale, paper_workloads

    scale = get_scale("quick")
    points = []
    for workload in paper_workloads("L4", family=spec["family"],
                                    sizes=tuple(spec["sizes"]), flash=True):
        comparison = compare_systems(workload, systems=SLICE_SYSTEMS,
                                     scale=scale)
        points.append({
            "name": workload.name,
            "job": TuningJob.from_workload(workload, scale="quick").to_dict(),
            "outcomes": {
                system: {"plan": (outcome.plan.to_dict()
                                  if outcome.plan is not None else None),
                         "throughput": outcome.throughput}
                for system, outcome in comparison.outcomes.items()},
        })
    return {"points": points}


def serve(spec: dict) -> dict:
    """``repro serve`` until SIGTERM (the banner goes to stdout)."""
    from repro import cli

    code = cli.main(["serve", "--host", "127.0.0.1", "--port", "0",
                     "--workers", str(spec["workers"]),
                     "--worker-mode", "thread",
                     "--cache-dir", spec["cache_dir"]])
    return {"exit_code": code}


KINDS = {"tune": tune, "slice": fig11_slice, "serve": serve}


def main(argv: list[str]) -> int:
    spec = json.loads(argv[0])
    start = time.monotonic_ns()
    import repro.api  # noqa: F401  (the measured import)
    ready = time.monotonic_ns()
    recorder = None
    if spec["trace"]:
        from spans import Recorder

        recorder = Recorder()
        recorder.trace_id = spec.get("trace_id", "")
        recorder.add("import", start, ready)
        recorder.install()
    result = KINDS[spec["kind"]](spec)
    done = time.monotonic_ns()
    result.update(
        ready_ns=ready, done_ns=done,
        rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        trace=recorder.dump() if recorder is not None else None)
    Path(spec["out"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
