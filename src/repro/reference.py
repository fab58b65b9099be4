"""Reference oracles for the tuner's three exactness claims.

Mist's tuner rests on three claims, and each has a slow oracle here:

* batched symbolic evaluation (§5.2) prices a config menu exactly like
  evaluating it one configuration at a time — :func:`interpreted`
  returns a copy of a tuner whose analyzers evaluate every compiled
  bundle row by row through :func:`interpret`;
* the pruned hierarchical search (§5.3, Fig. 16) returns the same plans
  as solving every (S, G) cell — :func:`exhaustive_search`;
* the inter-stage DP (:func:`repro.core.inter_stage.solve`) finds the
  optimum of Eq. (2) — :func:`solve_milp`, the HiGHS MILP the paper's
  off-the-shelf route takes, and :func:`solve_exact`, enumeration with
  the same tie rule as the DP.

Both are deliberately slow and exist so the differential tests and
``repro bench`` can hold the production path to bit-identity. Nothing
on a production path imports this module; only tests and
:mod:`repro.benchmarking` do.

The oracles reuse the tuner's grid enumeration
(``MistTuner._sg_grid``), stage shapes (``MistTuner._stage_shapes``)
and result assembly, so a comparison against them isolates exactly one
thing: the search strategy, or the evaluation path.
"""

from __future__ import annotations

import copy
import itertools
import time
from typing import Any

import numpy as np

from repro.core import inter_stage
from repro.core.inter_stage import InterStageSolution, Menus
from repro.core.intra_stage import IntraStageTuner
from repro.core.objectives import pipeline_iteration_time
from repro.core.plan import TrainingPlan
from repro.core.tuner import MistTuner, SearchStats, TuningResult
from repro.symbolic import CompiledExpr, EvaluationError, evaluate

__all__ = ["INTERPRETED_SCOPE", "exhaustive_search", "interpret",
           "interpreted", "solve_exact", "solve_milp"]

#: memo-scope tag of :func:`interpreted` tuners: their menus never share
#: :class:`~repro.core.memo.MenuMemo` entries with the production path,
#: so a warm memo cannot mask a divergence between the two evaluators
INTERPRETED_SCOPE = "interpreted"


def interpret(fn: CompiledExpr, **env: Any) -> Any:
    """Evaluate ``fn`` row by row against its raw expression trees.

    Same arguments and outputs as calling ``fn``: each row of the
    (broadcast) environment is evaluated as an independent scalar query
    through :func:`repro.symbolic.evaluate`. The result matches the
    compiled call bit for bit — numpy's elementwise ufuncs produce
    identical IEEE-754 results whether applied to one element or a
    million — which is exactly what the differential tests assert.
    """
    missing = [name for name in fn.arg_names if name not in env]
    if missing:
        raise EvaluationError(f"missing symbol values: {missing}")
    if not fn.exprs:
        raise EvaluationError(
            "interpret() needs the raw expression trees; this "
            "CompiledExpr was built without them")
    used = {name: np.asarray(env[name], dtype=float)
            for name in fn.arg_names if name in fn.used_symbols}
    shapes = [value.shape for value in used.values()]
    shape = np.broadcast_shapes(*shapes) if shapes else ()
    if shape == ():
        scalar_env = {name: float(value) for name, value in used.items()}
        outs = [evaluate(expr, scalar_env) for expr in fn.exprs]
    else:
        cols = {name: np.broadcast_to(value, shape).reshape(-1)
                for name, value in used.items()}
        n = int(np.prod(shape, dtype=int))
        rows: list[list[float]] = [[] for _ in fn.exprs]
        for i in range(n):
            row_env = {name: col[i] for name, col in cols.items()}
            for k, expr in enumerate(fn.exprs):
                rows[k].append(evaluate(expr, row_env))
        outs = [np.asarray(values).reshape(shape) for values in rows]
    if fn.single:
        return outs[0]
    return tuple(outs)


class _RowByRow:
    """A compiled bundle that evaluates through :func:`interpret`."""

    def __init__(self, fn: CompiledExpr):
        self._fn = fn
        self.used_symbols = fn.used_symbols

    def __call__(self, **env: Any) -> Any:
        return interpret(self._fn, **env)


def interpreted(tuner: MistTuner) -> MistTuner:
    """A copy of ``tuner`` that prices every configuration row by row.

    Each analyzer of the copy evaluates every compiled bundle it holds
    (every :class:`CompiledExpr` attribute: today the full prediction,
    the memory-only projection and the compute-channel projection)
    through :func:`interpret`, so the copy's searches,
    prefilter, bounds and heuristic seed all run on the interpreted
    reference while every other line of the tuner stays shared. Its
    memo scopes carry :data:`INTERPRETED_SCOPE`, so a memo the
    production path warmed never serves it. ``tuner`` is not modified.
    """
    clone = copy.copy(tuner)
    clone.analyzers = {}
    for name, analyzer in tuner.analyzers.items():
        row_by_row = copy.copy(analyzer)
        for attr, value in vars(analyzer).items():
            if isinstance(value, CompiledExpr):
                setattr(row_by_row, attr, _RowByRow(value))
        clone.analyzers[name] = row_by_row
        if analyzer is tuner.analyzer:
            clone.analyzer = row_by_row
    clone._memo_scopes = {name: (INTERPRETED_SCOPE, *scope)
                          for name, scope in tuner._memo_scopes.items()}
    return clone


def _solve_cell(tuner: MistTuner, global_batch: int, task: tuple,
                ) -> "tuple[inter_stage.InterStageSolution | None, int]":
    """Solve one (S, G) cell from scratch; returns (solution, evaluated).

    Fresh :class:`IntraStageTuner`\\ s per cell and no prefilter; stage
    positions with equal shapes share one menu, the dedup the pruned
    search's per-cell memo accounting mirrors.
    """
    intra: dict[str, IntraStageTuner] = {}
    by_shape: dict = {}
    menus = []
    for group, shape, layer_counts in tuner._stage_shapes(task):
        if shape not in by_shape:
            if group not in intra:
                intra[group] = IntraStageTuner(
                    tuner.analyzers[group], tuner.space,
                    global_batch=global_batch, seq_len=tuner.seq_len,
                    max_pareto_points=tuner.max_pareto_points,
                )
            by_shape[shape] = intra[group].tune(shape, layer_counts)
        menus.append(by_shape[shape])
    solution = inter_stage.solve(
        menus, tuner.model.num_layers, task[2],
        imbalance_aware=tuner.space.imbalance_aware,
    )
    return solution, sum(t.evaluated for t in intra.values())


def exhaustive_search(tuner: MistTuner, global_batch: int, *,
                      keep_top: int = 3) -> TuningResult:
    """Solve every (S, G) cell of ``tuner``'s grid, serially.

    No memo, no memory prefilter, no bound cut and no menu cut: the
    oracle :meth:`MistTuner.search` must match bit for bit in
    ``best_plan``, ``top_plans`` and objectives. ``stats`` reports every
    cell as explored and ``configurations_evaluated`` counts each
    cell's unique stage subproblems, the same accounting the pruned
    search replays from its memo.
    """
    start = time.perf_counter()
    grid = tuner._sg_grid(global_batch)
    candidates: list[tuple[float, TrainingPlan]] = []
    evaluated = 0
    search_log: list[dict] = []
    for task in grid:
        num_stages, _, gacc, _, assignment = task
        solution, n_evaluated = _solve_cell(tuner, global_batch, task)
        evaluated += n_evaluated
        # infeasible cells log None, not inf — search logs must stay
        # strictly JSON-serializable (SolveReport round-trip contract)
        entry: dict = {
            "num_stages": num_stages,
            "gacc": gacc,
            "objective": float(solution.objective) if solution else None,
        }
        if assignment is not None:
            entry["groups"] = [slot.group for slot in assignment]
        search_log.append(entry)
        if solution:
            candidates.append((
                solution.objective,
                tuner._plan_from_solution(solution, global_batch, gacc),
            ))
    # stable: ties keep enumeration order
    candidates.sort(key=lambda item: item[0])
    stats = SearchStats(
        cells_total=len(grid), cells_explored=len(grid),
        configs_evaluated=evaluated, bound_pruning=False,
    )
    return tuner._result(candidates, global_batch, start, evaluated,
                         search_log, keep_top, stats)


def solve_exact(menus: Menus, total_layers: int, gacc: int,
                imbalance_aware: bool = True) -> InterStageSolution | None:
    """Eq. (2) by exhaustive enumeration (exponential; tiny instances).

    Scores every assignment with :func:`pipeline_iteration_time` and
    keeps the first strict minimum in menu order — the tie rule
    :func:`repro.core.inter_stage.solve` states.
    """
    options = inter_stage._flatten(menus, imbalance_aware)
    if not options or any(not stage for stage in options):
        return None
    best: InterStageSolution | None = None
    for combo in itertools.product(*options):
        if sum(opt.layers for opt in combo) != total_layers:
            continue
        objective = pipeline_iteration_time(
            [opt.t for opt in combo], [opt.d for opt in combo], gacc)
        if best is None or objective < best.objective:
            best = InterStageSolution(
                objective=objective, choices=[opt.point for opt in combo])
    return best


def solve_milp(menus: Menus, total_layers: int, gacc: int,
               imbalance_aware: bool = True,
               time_limit: float = 30.0) -> InterStageSolution | None:
    """Eq. (2) as a binary MILP solved by HiGHS (needs scipy).

    Variables: ``x[i, o]`` (stage ``i`` picks option ``o``), plus the
    bottleneck time ``T`` and the exposed-delta bound ``Z``; both max
    terms linearize as ``>=`` constraints. Among tied optima HiGHS
    returns whichever its search reaches first, so compare objectives,
    not choices. scipy is imported here, not at module load: ``repro
    bench`` imports this module and must run without it.
    """
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import lil_matrix

    options = inter_stage._flatten(menus, imbalance_aware)
    if not options or any(not stage for stage in options):
        return None
    num_stages = len(options)
    offsets = np.cumsum([0] + [len(stage) for stage in options])
    n_x = int(offsets[-1])
    n_vars = n_x + 2  # + T, Z
    iT, iZ = n_x, n_x + 1

    flat = [opt for stage in options for opt in stage]
    t_coef = np.array([opt.t for opt in flat])
    d_coef = np.array([opt.d for opt in flat])
    l_coef = np.array([opt.layers for opt in flat], dtype=float)

    # objective: (G-1) T + sum_i t_i + Z
    c = np.zeros(n_vars)
    c[:n_x] = t_coef
    c[iT] = gacc - 1
    c[iZ] = 1.0

    constraints = []

    # one option per stage
    a_pick = lil_matrix((num_stages, n_vars))
    for i in range(num_stages):
        a_pick[i, offsets[i]:offsets[i + 1]] = 1.0
    constraints.append(LinearConstraint(a_pick.tocsr(), 1.0, 1.0))

    # layer counts sum to the model depth
    a_layers = lil_matrix((1, n_vars))
    a_layers[0, :n_x] = l_coef
    constraints.append(
        LinearConstraint(a_layers.tocsr(), total_layers, total_layers)
    )

    # T >= t_i for every stage
    a_bottleneck = lil_matrix((num_stages, n_vars))
    for i in range(num_stages):
        a_bottleneck[i, offsets[i]:offsets[i + 1]] = -t_coef[
            offsets[i]:offsets[i + 1]
        ]
        a_bottleneck[i, iT] = 1.0
    constraints.append(LinearConstraint(a_bottleneck.tocsr(), 0.0, np.inf))

    # Z >= d_i - sum_{j<i} t_j for every stage
    a_delta = lil_matrix((num_stages, n_vars))
    for i in range(num_stages):
        a_delta[i, offsets[i]:offsets[i + 1]] = -d_coef[
            offsets[i]:offsets[i + 1]
        ]
        for j in range(i):
            a_delta[i, offsets[j]:offsets[j + 1]] = t_coef[
                offsets[j]:offsets[j + 1]
            ]
        a_delta[i, iZ] = 1.0
    constraints.append(LinearConstraint(a_delta.tocsr(), 0.0, np.inf))

    integrality = np.concatenate([np.ones(n_x), np.zeros(2)])
    bounds = Bounds(
        lb=np.zeros(n_vars),
        ub=np.concatenate([np.ones(n_x), [np.inf, np.inf]]),
    )

    result = milp(
        c=c,
        constraints=constraints,
        integrality=integrality,
        bounds=bounds,
        options={"time_limit": time_limit, "presolve": True},
    )
    if not result.success or result.x is None:
        return None

    choices = []
    for i in range(num_stages):
        slice_x = result.x[offsets[i]:offsets[i + 1]]
        picked = int(np.argmax(slice_x))
        if slice_x[picked] < 0.5:
            return None  # infeasible relaxation artefact
        choices.append(options[i][picked])

    # Recompute the objective exactly (guards against MILP tolerance).
    objective = pipeline_iteration_time(
        [opt.t for opt in choices], [opt.d for opt in choices], gacc)
    return InterStageSolution(objective=objective,
                              choices=[opt.point for opt in choices])
