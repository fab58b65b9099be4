#!/usr/bin/env python
"""Regenerate the committed interference calibration table.

Refits Algorithm 1's pair factors for both fabric types (PCIe and
NVLink) against the engine's contention ground truth and rewrites
``src/repro/costmodel/calibration.json``:

    PYTHONPATH=src python scripts/refresh_calibration.py

Run it after an *intentional* change to the fit, the sampled workloads
or ``ContentionSpec``, then commit the table alongside the change. With
nothing changed the file comes out byte-identical. The paired test
(``tests/costmodel/test_calibration_table.py``) refits and fails with a
per-factor diff whenever the committed table and a refit disagree.
"""

from __future__ import annotations

from repro.costmodel.calibration import CALIBRATION_TABLE, fabric, render_table
from repro.evaluation.runner import fit_calibration


def main() -> None:
    results = {fabric(pcie_only): fit_calibration(pcie_only)
               for pcie_only in (True, False)}
    CALIBRATION_TABLE.write_text(
        render_table({name: result.model for name, result in results.items()}))
    for name, result in sorted(results.items()):
        print(f"{name}: mean |rel err| {result.mean_abs_error:.2e}, "
              f"max {result.max_abs_error:.2e} over {result.n_samples} "
              f"co-run samples")
    print(f"wrote {CALIBRATION_TABLE}")


if __name__ == "__main__":
    main()
