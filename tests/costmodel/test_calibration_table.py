"""The committed interference calibration table: refit guard and uses.

Solves load Algorithm 1's fitted pair factors from
``repro/costmodel/calibration.json`` instead of refitting per process.
These tests pin the three promises that makes:

* the table is exactly what the fit produces (bit for bit, so drift in
  numpy/scipy or ``ContentionSpec`` fails here with a readable diff,
  not as silently moved golden plans);
* no solve calls the fit;
* plan-cache keys carry the table's identity.
"""

from __future__ import annotations

import json
import math

import pytest

import repro.costmodel.calibration as calibration
from repro.api import PlanCache, SolveReport, TuningJob, solve
from repro.benchmarking.fig16 import plan_hash
from repro.costmodel import CHANNELS
from repro.costmodel.calibration import (
    CALIBRATION_TABLE,
    calibration_table,
    fabric,
    model_from_table,
    render_table,
)
from repro.evaluation import runner

FABRICS = (True, False)


@pytest.fixture(scope="module")
def refits():
    return {pcie_only: runner.fit_calibration(pcie_only).model
            for pcie_only in FABRICS}


class TestRefitGuard:
    @pytest.mark.parametrize("pcie_only", FABRICS, ids=fabric)
    def test_committed_factors_equal_a_refit(self, refits, pcie_only):
        committed = model_from_table(calibration_table()[fabric(pcie_only)])
        refit = refits[pcie_only]
        keys, committed_values = committed.pair_vector()
        refit_keys, refit_values = refit.pair_vector()
        assert keys == refit_keys
        diff = [("+".join(ch for ch in CHANNELS if ch in names), channel,
                 float(a), float(b))
                for (names, channel), a, b
                in zip(keys, committed_values, refit_values)
                if float(a) != float(b)]
        assert not diff, (
            f"{fabric(pcie_only)} calibration drifted from a refit; "
            f"(pair, channel, committed, refit): {diff}. If the change is "
            f"intended, run scripts/refresh_calibration.py and commit "
            f"the table")
        assert committed.fingerprint() == refit.fingerprint()
        assert committed.max_factor == refit.max_factor

    def test_refresh_rewrites_the_table_byte_identically(self, refits):
        text = render_table({fabric(p): model for p, model in refits.items()})
        assert text == CALIBRATION_TABLE.read_text(), (
            "scripts/refresh_calibration.py would rewrite the committed "
            "table; run it and commit the result")

    @pytest.mark.parametrize("pcie_only", FABRICS, ids=fabric)
    def test_solves_use_the_committed_model(self, refits, pcie_only):
        model = runner.calibrated_interference(pcie_only)
        assert model.fingerprint() == refits[pcie_only].fingerprint()


class TestNoFitOnTheHotPath:
    JOBS = (
        ("mist", TuningJob(model="gpt3-1.3b", gpu="L4", num_gpus=2,
                           global_batch=8, scale="smoke")),
        ("mist", TuningJob(model="gpt3-1.3b", gpu="A100-40GB", num_gpus=2,
                           global_batch=8, scale="smoke")),
        ("megatron", TuningJob(model="gpt3-1.3b", gpu="L4", num_gpus=2,
                               global_batch=8, scale="smoke")),
    )

    def test_solves_never_fit(self, monkeypatch):
        expected = [plan_hash(solve(job, solver).plan)
                    for solver, job in self.JOBS]

        def refuse(*args, **kwargs):
            raise AssertionError("a solve ran the calibration fit")

        monkeypatch.setattr(runner, "fit_interference_model", refuse)
        runner.calibrated_interference.cache_clear()
        try:
            got = [plan_hash(solve(job, solver).plan)
                   for solver, job in self.JOBS]
        finally:
            runner.calibrated_interference.cache_clear()
        assert None not in got
        assert got == expected


@pytest.fixture()
def fresh_table_caches():
    """Reload the table on next use, and again after the test."""
    calibration.calibration_table.cache_clear()
    calibration.calibration_digest.cache_clear()
    yield
    calibration.calibration_table.cache_clear()
    calibration.calibration_digest.cache_clear()


class TestPlanCacheCalibrationIdentity:
    JOB = TuningJob(model="gpt3-1.3b", gpu="L4", num_gpus=2,
                    global_batch=16, scale="smoke")

    def _store(self, root):
        report = SolveReport(solver="mist", job=self.JOB,
                             measured={"throughput": 1.0})
        PlanCache(root).store(report)

    def test_unchanged_table_still_hits(self, tmp_path, fresh_table_caches):
        self._store(tmp_path)
        calibration.calibration_table.cache_clear()
        calibration.calibration_digest.cache_clear()
        cache = PlanCache(tmp_path)
        assert cache.load(self.JOB, "mist") is not None
        assert cache.load_fingerprint(self.JOB.fingerprint(),
                                      "mist") is not None

    def test_one_perturbed_factor_misses(self, tmp_path, monkeypatch,
                                         fresh_table_caches):
        self._store(tmp_path / "plans")
        table = json.loads(CALIBRATION_TABLE.read_text())
        pair = table["pcie"]["pairs"]["g2g+c2g"]
        pair["g2g"] = math.nextafter(pair["g2g"], math.inf)
        perturbed = tmp_path / "calibration.json"
        perturbed.write_text(json.dumps(table, indent=2) + "\n")
        monkeypatch.setattr(calibration, "CALIBRATION_TABLE", perturbed)
        calibration.calibration_table.cache_clear()
        calibration.calibration_digest.cache_clear()
        cache = PlanCache(tmp_path / "plans")
        assert cache.load(self.JOB, "mist") is None
        assert cache.load_fingerprint(self.JOB.fingerprint(), "mist") is None

    def test_digest_is_computed_once_per_process(self, fresh_table_caches):
        PlanCache("unused-a")
        PlanCache("unused-b")
        assert calibration.calibration_digest.cache_info().misses == 1
