"""Deterministic work counts of the execution simulator.

The simulator's cost is dominated by how often it integrates contention
and evaluates symbolic memory terms, so those counts are pinned here
rather than timings: one integration call per simulated iteration
whatever ``gacc`` is, none for a plan that runs out of memory, one
slowdown-table build per :class:`ContentionSpec`, and one evaluation of
each memory term per ``(graph, b, s, tp)``.
"""

from __future__ import annotations

import pytest

import repro.execution.events as events
import repro.execution.memory_tracker as memory_tracker
import repro.execution.schedule as schedule
from repro.core.plan import uniform_plan
from repro.execution import ContentionSpec, ExecutionEngine, OOMError
from repro.hardware import make_cluster
from repro.models import get_model

MODEL = get_model("gpt3-1.3b")
CLUSTER = make_cluster("L4", 1, 4)
SEQ_LEN = 2048


def _plan(gacc: int, *, ckpt_all: bool = True, global_batch: int = 16):
    return uniform_plan(MODEL, CLUSTER, global_batch=global_batch, gacc=gacc,
                        num_stages=2, dp=2, tp=1, ckpt_all=ckpt_all)


def _counting(monkeypatch, module, name: str) -> list:
    """Replace ``module.name`` by a wrapper that logs each call."""
    calls: list = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


@pytest.mark.parametrize("gacc", [1, 2, 8])
def test_one_integration_call_per_iteration(monkeypatch, gacc):
    engine = ExecutionEngine(CLUSTER, system="mist")
    calls = _counting(monkeypatch, schedule, "corun_total_time")
    engine.run(_plan(gacc), MODEL, seq_len=SEQ_LEN)
    assert len(calls) == 1
    # four distinct phases per stage, all priced in that one call
    assert calls[0][0].shape == (4 * 2, 4)


def test_oom_run_integrates_nothing(monkeypatch):
    engine = ExecutionEngine(CLUSTER, system="mist")
    calls = _counting(monkeypatch, schedule, "corun_total_time")
    with pytest.raises(OOMError):
        engine.run(_plan(1, ckpt_all=False, global_batch=64), MODEL,
                   seq_len=SEQ_LEN)
    assert calls == []


def test_contention_table_built_once(monkeypatch):
    builds = _counting(monkeypatch, events, "_slowdown_table")
    spec = ContentionSpec.default(pcie_only=True)
    assert len(builds) == 1
    for _ in range(3):
        events.corun_total_time([1.0, 2.0, 0.5, 0.25], spec)
    engine = ExecutionEngine(CLUSTER, system="mist", contention=spec)
    engine.run(_plan(4), MODEL, seq_len=SEQ_LEN)
    assert len(builds) == 1


def test_memory_terms_evaluated_once_per_key(monkeypatch):
    engine = ExecutionEngine(CLUSTER, system="mist")
    evaluations = _counting(monkeypatch, memory_tracker, "evaluate")
    transients = _counting(monkeypatch, memory_tracker, "forward_transient")

    engine.run(_plan(2), MODEL, seq_len=SEQ_LEN)  # microbatch 4
    terms = len(evaluations)
    assert terms > 0
    assert len(transients) == 3  # block, pre, post
    for _ in range(3):
        engine.run(_plan(2), MODEL, seq_len=SEQ_LEN)
    assert len(evaluations) == terms

    engine.run(_plan(4), MODEL, seq_len=SEQ_LEN)  # microbatch 2: new key
    assert len(evaluations) == 2 * terms
    engine.run(_plan(2), MODEL, seq_len=SEQ_LEN // 2)  # new seq_len
    assert len(evaluations) == 3 * terms
    engine.run(_plan(4), MODEL, seq_len=SEQ_LEN)
    assert len(evaluations) == 3 * terms
    assert len(transients) == 3 * 3
