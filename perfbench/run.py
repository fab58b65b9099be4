"""End-to-end benchmark of the Mist reproduction, layer by layer.

Run from the root of a repository checkout::

    python3 perfbench/run.py --workload tune-cold --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrappers
installed; ``--trace 1`` runs every unit once untraced and once with
the layer wrappers of ``perfbench/spans.py`` and reports the per-layer
metrics, the unattributed remainder and the tracing overhead; the spans
are written to ``.perfbench/trace-<workload>-<seed>.json``. The last
line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit). See
``perfbench/README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("tune-cold", "fig11-slice", "serve-revisit"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro source tree under {ROOT}; run from a "
              f"repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # imported after the check: they need the program under test
    import repro.campaigns  # noqa: F401  (compiled once before timing)
    import repro.cli  # noqa: F401
    from workloads import WORKLOADS, Golden

    out_dir = ROOT / ".perfbench"
    tmp = out_dir / f"run-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        outcome = WORKLOADS[args.workload](args.seed, args.seconds,
                                           bool(args.trace), tmp, Golden())
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if outcome.trace:
        path = out_dir / f"trace-{args.workload}-{args.seed}.json"
        path.write_text(json.dumps(outcome.trace))
        print(f"spans written to {path.relative_to(ROOT)}")
    tally = outcome.tally
    for name, (value, unit) in outcome.metrics.items():
        print(f"{args.workload:14s} {name:42s} {value:14.6f} {unit}")
    for note in outcome.notes:
        print(f"{args.workload:14s} {note}")
    for failure in tally.failures[:20]:
        print(f"FAILED: {failure}")
    print(f"{args.workload:14s} ops attempted {tally.attempted} "
          f"failed {len(tally.failures)}")
    print(json.dumps({
        "correct": not tally.failures and bool(outcome.metrics),
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
