"""Self-checks of the benchmark harness.

    python3 -m pytest perfbench/tests -q

They guard against the failure a wrapper-based trace is prone to: the
program renames or re-imports an entry point and the layer quietly
reports zero.
"""

from __future__ import annotations

import importlib
import json
import pkgutil
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import spans  # noqa: E402
import workloads  # noqa: E402

import repro  # noqa: E402

#: modules that bind a wrapped function by name without being a patch
#: site, and why that is harmless
UNPATCHED_HOLDERS = {
    # aceso / uniform solvers: no workload runs them
    "repro.baselines.aceso": "trace",
    "repro.baselines.heuristics": "trace",
}

#: which layers each unit kind must exercise (its workload's stress map)
STRESSED = {
    "tune": ("import", "costmodel.calibrate", "tracing.trace",
             "core.analyzer", "core.search", "core.price", "core.ilp",
             "execution.simulate", "execution.corun", "execution.memory",
             "execution.pipeline"),
    "slice": ("import", "costmodel.calibrate", "campaigns.run",
              "baselines.grid", "execution.simulate", "execution.corun",
              "execution.memory", "execution.pipeline", "core.search"),
    "serve": ("import", "costmodel.calibrate", "core.search", "api.cache",
              "service.http"),
}


def _all_repro_modules() -> list:
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)
    return [m for name, m in sys.modules.items()
            if name == "repro" or name.startswith("repro.")]


def test_every_target_resolves():
    for layer, where, attr in spans.TARGETS:
        owner = spans.resolve(where)
        assert callable(owner.__dict__.get(attr)), (layer, where, attr)
    assert set(spans.LAYERS) >= set(STRESSED["tune"]) | set(
        STRESSED["slice"]) | set(STRESSED["serve"])


def test_module_targets_are_where_the_program_looks_them_up():
    modules = _all_repro_modules()
    for layer, where, attr in spans.TARGETS:
        if ":" in where:
            continue  # a class attribute: every caller sees the patch
        fn = getattr(importlib.import_module(where), attr)
        holders = {m.__name__ for m in modules
                   if any(v is fn for v in vars(m).values())}
        allowed = {fn.__module__} | {site for _, site, name in spans.TARGETS
                                     if name == attr and ":" not in site}
        allowed |= {name for name in holders
                    if hasattr(sys.modules[name], "__path__")}  # re-exports
        allowed |= {name for name, held in UNPATCHED_HOLDERS.items()
                    if held == attr}
        assert holders <= allowed, (layer, attr, holders - allowed)
    # calibration is reached through these by-name imports; the wrapped
    # fit runs inside the lru_cache they share
    from repro.api import solvers
    from repro.evaluation import runner

    assert solvers.calibrated_interference is runner.calibrated_interference


def test_install_and_uninstall_restore_the_program():
    before = {(where, attr): spans.resolve(where).__dict__[attr]
              for _, where, attr in spans.TARGETS}
    recorder = spans.Recorder()
    recorder.install()
    try:
        for _, where, attr in spans.TARGETS:
            assert spans.resolve(where).__dict__[attr] \
                is not before[(where, attr)]
    finally:
        recorder.uninstall()
    for _, where, attr in spans.TARGETS:
        assert spans.resolve(where).__dict__[attr] is before[(where, attr)]


def _span(sid, layer, start, end, parent=0):
    return [sid, layer, start, end, parent, "", 1]


def test_attribution_partitions_wall_time():
    client = {"spans": [_span(1, "service.http", 10, 50),
                        _span(2, "service.http", 60, 100)],
              "counters": {}}
    # the server half of the first request, a search that starts inside
    # the first client span and ends inside the second, and the daemon's
    # import before any request
    daemon = {"spans": [_span(1, "import", 0, 8),
                        _span(2, "core.search", 40, 70),
                        _span(3, "core.price", 45, 55, parent=2),
                        _span(4, "service.http", 12, 20)],
              "counters": {}}
    found = spans.attribute([client, daemon], [(0, 120)])
    layers = found["layers"]
    assert layers["core.price"]["self_s"] == pytest.approx(10e-9)
    assert layers["core.search"]["self_s"] == pytest.approx(20e-9)
    assert layers["service.http"]["self_s"] == pytest.approx(60e-9)
    assert layers["service.http"]["busy_s"] == pytest.approx(80e-9)
    total = sum(row["self_s"] for row in layers.values())
    assert total + found["unattributed_s"] == pytest.approx(120e-9)
    assert found["unattributed_s"] == pytest.approx(22e-9)
    merged = spans.merge([client, daemon], [(0, 120)])
    assert merged[(1, 2)][3] == (0, 1)  # daemon spans sit under the client
    assert merged[(1, 2)][5] == 1


def test_benchmark_json_names_what_the_run_prints():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = workloads.per_layer([], 0.0)
    assert [m["name"] for m in bench["per_layer"]] == list(per_layer)
    assert all(m["unit"] == per_layer[m["name"]][1]
               for m in bench["per_layer"])
    e2e = workloads.end_to_end(setup=[1.0], tune_cold=1.0, sweep=1.0,
                               serve_miss=1.0, hit_ms=[1.0],
                               throughputs=[1.0], speedups=[1.0], rss=[1.0])
    assert [m["name"] for m in bench["end_to_end"]] == list(e2e)
    assert all(m["unit"] == e2e[m["name"]][1] for m in bench["end_to_end"])
    assert [w["name"] for w in bench["workloads"]] == list(
        workloads.WORKLOADS)


def test_golden_covers_every_input_a_seed_can_draw():
    golden = workloads.Golden().data
    for job in workloads.tune_pool():
        assert workloads.job_key(job) in golden["tune"]
        assert workloads.megatron_key(job) in golden["megatron"]
    for job in workloads.serve_pool():
        assert workloads.job_key(job) in golden["serve"]
        assert workloads.megatron_key(job) in golden["megatron"]
    assert workloads.job_key(workloads.WARMUP_JOB) in golden["serve"]
    for family in workloads.FAMILIES:
        for size in workloads.SLICE_SIZES:
            gpus, batch = (2, 32) if size == "1.3b" else (4, 64)
            for system in ("megatron", "deepspeed", "mist"):
                assert (f"{family}-{size}-L4x{gpus}-B{batch}-s2048-flash/"
                        f"{system}") in golden["slice"]


def _covered(processes, windows) -> set[str]:
    found = spans.attribute(processes, windows)
    assert found["unattributed_s"] >= 0
    return {name for name, row in found["layers"].items() if row["calls"]}


def test_traced_short_runs_cover_each_stressed_layer(tmp_path):
    golden = workloads.Golden()
    children = workloads.Children(tmp_path)
    tally = workloads.Tally()

    tune = children.run(children.spec(
        "tune", True, job=workloads.tune_pool()[0].to_dict()))
    assert tune is not None
    missing = set(STRESSED["tune"]) - _covered(
        [tune.result["trace"]], [(tune.spawn_ns, tune.exit_ns)])
    assert not missing, f"tune-cold recorded no span for {missing}"

    part = children.run(children.spec("slice", True, family="gpt3",
                                      sizes=["1.3b"]))
    assert part is not None
    missing = set(STRESSED["slice"]) - _covered(
        [part.result["trace"]], [(part.spawn_ns, part.exit_ns)])
    assert not missing, f"fig11-slice recorded no span for {missing}"

    pool = workloads.serve_pool()[:2]
    rnd = workloads.serve_round(children, True, pool, pool * 2, golden,
                                tally)
    assert not tally.failures
    missing = set(STRESSED["serve"]) - _covered(
        [rnd.client_trace, rnd.daemon["trace"]], [(rnd.spawn_ns, rnd.end_ns)])
    assert not missing, f"serve-revisit recorded no span for {missing}"
    assert rnd.server["solver_invocations"] == len(pool)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tune-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
