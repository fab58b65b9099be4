"""The reference oracles stay off the production path and hold no state.

:mod:`repro.reference` is imported only by tests and
:mod:`repro.benchmarking`. The differential suites compare the
production search against it; the tests here pin the properties those
comparisons rely on: loading the production API never loads it, the
interpreted copy never changes the tuner it was made from, and the
exhaustive oracle solves every cell through ``inter_stage.solve`` as
the module attribute (so instrumentation patched onto the module sees
its calls).
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import MistTuner, SPACE_MIST, inter_stage
from repro.evaluation import calibrated_interference
from repro.hardware import make_cluster
from repro.models import get_model
from repro.reference import (
    INTERPRETED_SCOPE,
    exhaustive_search,
    interpret,
    interpreted,
)
from repro.symbolic import CompiledExpr, EvaluationError, Sym, compile_expr


def _make_tuner() -> MistTuner:
    return MistTuner(
        get_model("gpt3-1.3b"), make_cluster("L4", 1, 2), seq_len=2048,
        space=SPACE_MIST, interference=calibrated_interference(True),
        max_pareto_points=3, max_gacc_candidates=2,
    )


def test_production_imports_do_not_load_reference():
    script = ("import sys, repro.api, repro.service, repro.campaigns, "
              "repro.cli; "
              "sys.stdout.write(str('repro.reference' in sys.modules))")
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-c", script], check=True, capture_output=True,
        text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    ).stdout
    assert out == "False"


def test_production_solve_never_loads_scipy():
    # a quick-scale job whose search solves a cell of more than 2,000
    # stage combinations: the size at which the solver once switched
    # to HiGHS
    script = """
import math, sys
import repro.api, repro.cli, repro.service
from repro.core import inter_stage
largest = 0
real = inter_stage.solve
def sized(menus, *args, **kwargs):
    global largest
    largest = max(largest, math.prod(
        sum(len(points) for points in menu.values()) for menu in menus))
    return real(menus, *args, **kwargs)
inter_stage.solve = sized
job = repro.api.TuningJob(model="gpt3-2.7b", gpu="L4", num_gpus=4,
                          global_batch=32, scale="quick")
assert repro.api.solve(job, "mist").plan is not None
loaded = sorted(name for name in sys.modules
                if name == "scipy" or name.startswith("scipy."))
print(largest, loaded)
"""
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-c", script], check=True, capture_output=True,
        text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)},
    ).stdout.split(maxsplit=1)
    assert int(out[0]) > 2000
    assert out[1].strip() == "[]"


def test_exhaustive_search_solves_each_cell_through_the_module(
        monkeypatch):
    tuner = _make_tuner()
    real = inter_stage.solve
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(inter_stage, "solve", counting)
    result = exhaustive_search(tuner, 16)
    assert result.found
    assert len(calls) == len(tuner._sg_grid(16)) == result.stats.cells_total


def test_exhaustive_search_explores_every_cell():
    result = exhaustive_search(_make_tuner(), 16)
    stats = result.stats
    assert stats.cells_explored == stats.cells_total \
        == len(result.search_log) > 0
    assert stats.cells_pruned == 0
    assert stats.memo_hits == stats.memo_misses == 0
    assert stats.bound_pruning is False


def test_interpreted_leaves_the_tuner_untouched():
    tuner = _make_tuner()
    fns = {attr: getattr(tuner.analyzer, attr)
           for attr in ("_fn", "_mem_fn", "_comp_fn")}
    scopes = dict(tuner._memo_scopes)
    ref = interpreted(tuner)
    assert ref is not tuner and ref.analyzer is not tuner.analyzer
    assert ref.analyzers[""] is ref.analyzer
    for attr, fn in fns.items():
        assert getattr(tuner.analyzer, attr) is fn
        assert getattr(ref.analyzer, attr) is not fn
    # every compiled bundle is swapped, not only the three named above
    assert not [attr for attr, value in vars(ref.analyzer).items()
                if isinstance(value, CompiledExpr)]
    assert tuner._memo_scopes == scopes
    assert ref._memo_scopes == {
        name: (INTERPRETED_SCOPE, *scope) for name, scope in scopes.items()}


def test_interpret_reports_missing_symbols():
    x, y = Sym("x"), Sym("y")
    fn = compile_expr(x * y, arg_names=("x", "y"))
    assert interpret(fn, x=np.array([2.0, 3.0]), y=4.0).tolist() \
        == [8.0, 12.0]
    with pytest.raises(EvaluationError, match="'y'"):
        interpret(fn, x=1.0)
