"""Reference oracles for the tuner's two exactness claims.

Mist's tuner rests on two claims, and each has a slow oracle here:

* batched symbolic evaluation (§5.2) prices a config menu exactly like
  evaluating it one configuration at a time — :func:`interpreted`
  returns a copy of a tuner whose analyzers evaluate every compiled
  bundle row by row through :func:`interpret`;
* the pruned hierarchical search (§5.3, Fig. 16) returns the same plans
  as solving every (S, G) cell — :func:`exhaustive_search`.

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
import time
from typing import Any

import numpy as np

from repro.core import inter_stage
from repro.core.intra_stage import IntraStageTuner
from repro.core.plan import TrainingPlan
from repro.core.tuner import MistTuner, SearchStats, TuningResult
from repro.symbolic import CompiledExpr, EvaluationError, evaluate

__all__ = ["INTERPRETED_SCOPE", "exhaustive_search", "interpret",
           "interpreted"]

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
