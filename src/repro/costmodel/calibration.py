"""Data-driven fitting of interference slowdown factors.

"A data-driven approach is used to fit the model, where different shapes
and combinations of concurrent kernels are sampled and benchmarked, and
the resulting runtime data is used to train the slowdown factors"
(paper Section 5.2.2).

Here the "benchmark" is any oracle callable — in this reproduction the
discrete-event execution engine's contention resolver
(:func:`repro.execution.events.corun_total_time`) plays the role of the
hardware. The fit optimizes the 12 pairwise slowdown factors so that
Algorithm 1's predictions match the oracle on sampled co-run workloads.

The fit runs offline: its result is committed as data in
``calibration.json`` (one table per fabric) by
``scripts/refresh_calibration.py``, and solves load that table rather
than refitting. A refit must reproduce it bit for bit
(``tests/costmodel/test_calibration_table.py``).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Callable, Mapping

import numpy as np
from scipy import optimize

from .interference import CHANNELS, InterferenceModel

__all__ = [
    "CALIBRATION_TABLE",
    "CalibrationResult",
    "calibration_digest",
    "calibration_table",
    "fabric",
    "fit_interference_model",
    "model_from_table",
    "render_table",
    "sample_corun_workloads",
]

Oracle = Callable[[np.ndarray], np.ndarray]
"""Maps an (N, 4) array of channel busy-times to N measured totals."""


@dataclass
class CalibrationResult:
    model: InterferenceModel
    mean_abs_error: float
    max_abs_error: float
    n_samples: int


def sample_corun_workloads(n_samples: int = 256, *, seed: int = 0,
                           scale: float = 10e-3) -> np.ndarray:
    """Sample busy-time combinations covering 1- to 4-way concurrency.

    Times are log-uniform in ``[scale/30, scale]`` with random channel
    subsets active, mimicking the shape diversity of a profiling sweep.
    """
    rng = np.random.default_rng(seed)
    times = np.exp(rng.uniform(np.log(scale / 30), np.log(scale),
                               size=(n_samples, 4)))
    # Randomly silence channels so all concurrency levels appear.
    n_active = rng.integers(1, 5, size=n_samples)
    for i, k in enumerate(n_active):
        off = rng.choice(4, size=4 - k, replace=False)
        times[i, off] = 0.0
    return times


def fit_interference_model(oracle: Oracle, *, pcie_only: bool,
                           n_samples: int = 256, seed: int = 0,
                           scale: float = 10e-3) -> CalibrationResult:
    """Fit pairwise slowdown factors against ``oracle`` measurements."""
    workloads = sample_corun_workloads(n_samples, seed=seed, scale=scale)
    measured = np.asarray(oracle(workloads), dtype=float)
    if measured.shape != (n_samples,):
        raise ValueError("oracle must return one total time per workload")

    seed_model = InterferenceModel.default(pcie_only=pcie_only)
    keys, x0 = seed_model.pair_vector()

    def objective(params: np.ndarray) -> float:
        model = InterferenceModel.from_pair_vector(keys, params)
        predicted = model.predict(workloads[:, 0], workloads[:, 1],
                                  workloads[:, 2], workloads[:, 3])
        rel = (predicted - measured) / np.maximum(measured, 1e-9)
        return float(np.mean(rel**2))

    result = optimize.minimize(
        objective, x0, method="Nelder-Mead",
        options={"maxiter": 2000, "xatol": 1e-4, "fatol": 1e-10},
    )
    fitted = InterferenceModel.from_pair_vector(keys, result.x)
    predicted = fitted.predict(workloads[:, 0], workloads[:, 1],
                               workloads[:, 2], workloads[:, 3])
    rel_err = np.abs(predicted - measured) / np.maximum(measured, 1e-9)
    return CalibrationResult(
        model=fitted,
        mean_abs_error=float(rel_err.mean()),
        max_abs_error=float(rel_err.max()),
        n_samples=n_samples,
    )


# -- calibration as data --------------------------------------------------

#: the committed fit: per fabric, the 12 clamped pair factors in
#: :meth:`InterferenceModel.pair_vector` order plus ``max_factor``
CALIBRATION_TABLE = Path(__file__).with_name("calibration.json")


def fabric(pcie_only: bool) -> str:
    """The table key of one fabric type."""
    return "pcie" if pcie_only else "nvlink"


@lru_cache(maxsize=1)
def calibration_table() -> dict:
    """The parsed committed table, read once per process (read-only)."""
    return json.loads(CALIBRATION_TABLE.read_text())


@lru_cache(maxsize=1)
def calibration_digest() -> str:
    """Short content digest of the committed table (plan-cache identity)."""
    canonical = json.dumps(calibration_table(), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def model_from_table(entry: Mapping) -> InterferenceModel:
    """Rebuild one fabric's model from its table entry."""
    pairs = {frozenset(pair.split("+")): factors
             for pair, factors in entry["pairs"].items()}
    return InterferenceModel.from_pairs(pairs,
                                        max_factor=entry["max_factor"])


def render_table(models: Mapping[str, InterferenceModel]) -> str:
    """The table's file text: fabrics sorted, pairs in ``pair_vector()``
    order, every factor its exact ``repr``."""
    table: dict[str, dict] = {}
    for name in sorted(models):
        pairs: dict[str, dict[str, float]] = {}
        keys, values = models[name].pair_vector()
        for (names, channel), value in zip(keys, values):
            pair = "+".join(ch for ch in CHANNELS if ch in names)
            pairs.setdefault(pair, {})[channel] = float(value)
        table[name] = {"max_factor": float(models[name].max_factor),
                       "pairs": pairs}
    return json.dumps(table, indent=2) + "\n"
