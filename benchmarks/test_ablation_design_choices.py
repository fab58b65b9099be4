"""Ablations of the design choices DESIGN.md calls out.

Not a paper figure — these benches probe the load-bearing pieces of
Mist's design on this reproduction:

1. **interference-model calibration** — prediction error with seed
   factors vs factors fitted to the engine's contention ground truth;
2. **DP vs MILP vs exact enumeration** — the inter-stage DP matches
   the HiGHS MILP and exhaustive search (both kept as oracles in
   :mod:`repro.reference`) where enumeration is feasible, at much lower
   cost on larger menus;
3. **Pareto-point budget** — how many sampled frontier points the
   inter-stage solver needs before the objective stops improving (the
   paper's "Pareto frontier sampling" knob).
"""

import time

import numpy as np

from repro.core import MistTuner, SPACE_MIST, SymbolicPerformanceAnalyzer
from repro.core.inter_stage import solve
from repro.core.intra_stage import ParetoPoint
from repro.core.plan import StageConfig, uniform_plan
from repro.costmodel import InterferenceModel
from repro.evaluation import calibrated_interference, format_table
from repro.execution import ExecutionEngine
from repro.hardware import make_cluster
from repro.models import get_model
from repro.reference import solve_exact, solve_milp
from repro.tracing import trace

MODEL = get_model("gpt3-1.3b")
CLUSTER = make_cluster("L4", 1, 2)
SEQ_LEN = 2048


def _prediction_error(interference) -> float:
    analyzer = SymbolicPerformanceAnalyzer(
        trace(MODEL, CLUSTER.gpu, flash=True), CLUSTER,
        interference=interference,
    )
    engine = ExecutionEngine(CLUSTER, system="mist")
    errors = []
    for gacc, zero, ckpt_all, oo in [
        (8, 1, True, 0.0), (8, 2, False, 0.5), (4, 3, False, 0.0),
        (16, 0, True, 0.0), (8, 1, False, 0.5),
    ]:
        plan = uniform_plan(MODEL, CLUSTER, global_batch=16, gacc=gacc,
                            num_stages=2, dp=1, tp=1, zero=zero,
                            ckpt_all=ckpt_all, oo=oo)
        try:
            measured = engine.run(plan, MODEL, seq_len=SEQ_LEN)
        except Exception:
            continue
        predicted = analyzer.predict_plan(plan, seq_len=SEQ_LEN)
        errors.append(abs(predicted.iteration_time - measured.iteration_time)
                      / measured.iteration_time)
    return float(np.mean(errors))


def test_ablation_calibration(report, benchmark):
    def measure():
        seed = InterferenceModel.default(pcie_only=True)
        fitted = calibrated_interference(True)
        return _prediction_error(seed), _prediction_error(fitted)

    seed_err, fitted_err = benchmark.pedantic(measure, rounds=1,
                                              iterations=1)
    report("Ablation — interference calibration\n" + format_table(
        ["factors", "mean runtime prediction error"],
        [["seed (uncalibrated)", f"{seed_err * 100:.2f}%"],
         ["fitted to engine", f"{fitted_err * 100:.2f}%"]],
    ))
    assert fitted_err <= seed_err + 0.01
    assert fitted_err < 0.08


def _random_menus(rng, num_stages, layer_options, points_per):
    menus = []
    for _ in range(num_stages):
        stage = {}
        for l in layer_options:
            stage[l] = [
                ParetoPoint(
                    t=float(rng.uniform(0.5, 2.0) * l),
                    d=float(rng.uniform(0.0, 2.0)),
                    peak_mem=1.0,
                    config=StageConfig(layers=l, microbatch=1, dp=1, tp=1),
                )
                for _ in range(points_per)
            ]
        menus.append(stage)
    return menus


def test_ablation_milp_vs_exact(report, benchmark):
    def measure():
        rng = np.random.default_rng(11)
        rows = []
        for num_stages, options, points in [(2, 3, 2), (3, 3, 2), (4, 3, 2)]:
            layer_options = list(range(4, 4 + options))
            menus = _random_menus(rng, num_stages, layer_options, points)
            total = num_stages * 5
            t0 = time.perf_counter()
            exact = solve_exact(menus, total, gacc=8)
            t_exact = time.perf_counter() - t0
            t0 = time.perf_counter()
            milp = solve_milp(menus, total, gacc=8)
            t_milp = time.perf_counter() - t0
            t0 = time.perf_counter()
            dp = solve(menus, total, gacc=8)
            t_dp = time.perf_counter() - t0
            rows.append((num_stages, exact, milp, dp,
                         t_exact, t_milp, t_dp))
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    table = []
    for num_stages, exact, milp, dp, t_exact, t_milp, t_dp in rows:
        assert (exact is None) == (milp is None) == (dp is None)
        if exact is not None:
            assert abs(milp.objective - exact.objective) < 1e-6 * max(
                1.0, exact.objective
            )
            assert dp.objective == exact.objective
            assert dp.choices == exact.choices
        table.append([num_stages,
                      f"{exact.objective:.3f}" if exact else "-",
                      f"{milp.objective:.3f}" if milp else "-",
                      f"{dp.objective:.3f}" if dp else "-",
                      f"{t_exact * 1e3:.1f} ms", f"{t_milp * 1e3:.1f} ms",
                      f"{t_dp * 1e3:.1f} ms"])
    report("Ablation — inter-stage DP vs MILP vs exhaustive enumeration\n"
           + format_table(
               ["stages", "exact obj", "MILP obj", "DP obj", "exact time",
                "MILP time", "DP time"], table,
           ))


def test_ablation_pareto_budget(report, benchmark):
    def measure():
        results = {}
        for k in (1, 2, 4, 8):
            tuner = MistTuner(
                MODEL, CLUSTER, seq_len=SEQ_LEN, space=SPACE_MIST,
                interference=calibrated_interference(True),
                max_pareto_points=k, max_gacc_candidates=3,
            )
            tuned = tuner.search(16)
            results[k] = tuned.predicted_iteration_time
        return results

    results = benchmark.pedantic(measure, rounds=1, iterations=1)
    report("Ablation — Pareto-point budget vs tuned objective\n"
           + format_table(
               ["max Pareto points", "predicted iteration (ms)"],
               [[k, f"{v * 1e3:.1f}"] for k, v in results.items()],
           ))
    # more frontier points never hurt the objective
    values = [results[k] for k in sorted(results)]
    for a, b in zip(values, values[1:]):
        assert b <= a * 1.02
