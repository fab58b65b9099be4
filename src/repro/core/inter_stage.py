"""Inter-stage tuning: the imbalance-aware stage partition (paper Eq. 2/3).

Given, for every stage position ``i`` and candidate layer count ``l``, a
menu of Pareto points ``(t, d)`` from intra-stage tuning, choose one
``(l_i, f_i)`` per stage such that layer counts sum to the model depth
and

    (G-1) * max_i t_i  +  sum_i t_i  +  max_i (d_i - sum_{j<i} t_j)

is minimized — the 1F1B pipeline-time model of Narayanan et al. plus
Mist's imbalance term. The paper hands this problem to an
off-the-shelf MILP solver; :func:`solve` minimizes it exactly with a
dynamic program over bottleneck thresholds instead, which needs no
solver dependency and fixes the choice among tied optima. The HiGHS
MILP (:func:`repro.reference.solve_milp`) and exhaustive enumeration
(:func:`repro.reference.solve_exact`) are kept as test oracles.

Heterogeneous clusters extend the stage partition with a *device-group
assignment*: every pipeline stage is pinned to one
:class:`~repro.hardware.topology.DeviceGroup` (contiguously, in group
order), and its menu of Pareto points is produced by that group's
analyzer — so each ``(t, d)`` option already reflects the group's
calibrated cost model and memory budget. The solver itself is
unchanged: it only sees per-stage menus, which now differ per group.
:func:`group_stage_assignments` enumerates the candidate assignments
the outer tuner loops over.
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

from repro.hardware import DeviceGroup, HeterogeneousCluster

from .intra_stage import ParetoPoint
from .objectives import pipeline_iteration_time

__all__ = [
    "InterStageSolution",
    "StageSlot",
    "group_stage_assignments",
    "objective_lower_bound",
    "solve",
]

#: relative safety margin subtracted from lower bounds before they are
#: compared against incumbents — absorbs float noise in the marginal
#: per-layer cost estimate so a bound can never spuriously exceed the
#: true objective it underestimates
_BOUND_SAFETY = 1e-9

#: relative slack within which :func:`solve` treats assignments as tied
#: and re-scores them with :func:`pipeline_iteration_time`, so rounding
#: in the DP's own sums never decides between exact ties. Far below the
#: tuner's 1e-9 option-cut margin, so cutting menus keeps every tie.
_TIE_RTOL = 1e-12

#: most tied assignments :func:`solve` re-scores; real menus have few
_MAX_TIES = 4096


def objective_lower_bound(per_layer_floor: float, total_layers: int,
                          num_stages: int, gacc: int) -> float:
    """Optimistic lower bound on Eq. (1) for one (S, G) cell.

    ``per_layer_floor`` is a lower bound on the *compute-only,
    interference-free* cost of one transformer layer under the cell's
    cheapest feasible (dp, tp, b) option. Every valid partition
    satisfies ``sum_i t_i >= L * floor`` and
    ``max_i t_i >= ceil(L / S) * floor`` (some stage hosts at least
    ``ceil(L / S)`` layers), and the exposed-delta term of Eq. (1) is
    clamped at zero — so

        (G - 1) * ceil(L / S) * floor  +  L * floor

    never exceeds the true objective of any plan in the cell. The
    branch-and-bound cut compares this against the current k-th-best
    incumbent and skips the whole cell when even the bound is worse.
    """
    if per_layer_floor < 0:
        per_layer_floor = 0.0
    bound = ((gacc - 1) * math.ceil(total_layers / num_stages)
             + total_layers) * per_layer_floor
    return bound * (1.0 - _BOUND_SAFETY)


class StageSlot(NamedTuple):
    """One pipeline-stage position of a heterogeneous assignment."""

    group: str
    stage_gpus: int


def group_stage_assignments(cluster: HeterogeneousCluster,
                            max_total_stages: int,
                            ) -> list[tuple[StageSlot, ...]]:
    """Candidate stage -> device-group assignments for a mixed fleet.

    Every group hosts at least one stage; a group with ``n`` GPUs may
    host any stage count dividing ``n`` (each of its stages then owns
    ``n / s`` GPUs, the contiguous-range rule applied per group). The
    pipeline traverses groups in declaration order *or* reverse order —
    which end hosts the embedding/LM-head stages matters, so both
    directions are enumerated. Assignments longer than
    ``max_total_stages`` (the model depth) are dropped.
    """
    def options(group: DeviceGroup) -> list[int]:
        return [s for s in range(1, group.total_gpus + 1)
                if group.total_gpus % s == 0]

    assignments: list[tuple[StageSlot, ...]] = []
    seen: set[tuple[StageSlot, ...]] = set()
    orders = [cluster.groups]
    if len(cluster.groups) > 1:
        orders.append(tuple(reversed(cluster.groups)))
    for order in orders:
        for counts in itertools.product(*(options(g) for g in order)):
            if sum(counts) > max_total_stages:
                continue
            assignment = tuple(
                StageSlot(group=g.name, stage_gpus=g.total_gpus // s)
                for g, s in zip(order, counts)
                for _ in range(s)
            )
            if assignment not in seen:
                seen.add(assignment)
                assignments.append(assignment)
    return assignments

Menus = list[dict[int, list[ParetoPoint]]]
"""menus[i][l] -> Pareto points of stage i with l layers."""


@dataclass
class InterStageSolution:
    """Chosen (layer count, Pareto point) per stage, plus the objective."""

    objective: float
    choices: list[ParetoPoint]

    @property
    def layer_counts(self) -> list[int]:
        return [point.config.layers for point in self.choices]




class _Option(NamedTuple):
    """One entry of a stage's flattened menu."""

    position: int       # in the stage's flattened menu
    layers: int
    t: float
    d: float            # 0 when the solve ignores imbalance
    point: ParetoPoint


def _flatten(menus: Menus, imbalance_aware: bool) -> list[list[_Option]]:
    """menus -> per-stage options, by layer count then menu position."""
    options = []
    for stage_menu in menus:
        stage: list[_Option] = []
        for l, points in sorted(stage_menu.items()):
            for point in points:
                stage.append(_Option(len(stage), l, point.t,
                                     point.d if imbalance_aware else 0.0,
                                     point))
        options.append(stage)
    return options


Front = list[tuple[float, float]]
"""Pareto front of suffix states ``(S, M)``: ``S`` ascending, ``M``
strictly descending."""


def _pareto(states: list[tuple[float, float]]) -> Front:
    states.sort()
    front: Front = []
    best_m = math.inf
    for s, m in states:
        if m < best_m:
            front.append((s, m))
            best_m = m
    return front


def _suffix_fronts(options: list[list[_Option]], bottleneck: float,
                   reach: list[tuple[int, int]],
                   ) -> list[dict[int, Front]] | None:
    """``fronts[i][r]``: the suffix states of stages ``i..`` on ``r`` layers.

    A suffix state is ``(S, M)`` with ``S = sum_{j>=i} t_j`` and
    ``M = max_{k>=i} (d_k + sum_{j>=k} t_j)``, over the options with
    ``t <= bottleneck``. Prepending a stage maps ``(S, M)`` to
    ``(S + t, max(M, d + t + S))``, which never decreases either
    coordinate, so a dominated state can never complete to a better
    plan and dropping it is exact. ``reach[i]`` bounds ``r`` by the
    layers stages ``0..i-1`` can still take. ``None`` if some stage has
    no usable option.
    """
    n = len(options)
    fronts: list[dict[int, Front]] = [{} for _ in range(n)]
    fronts.append({0: [(0.0, -math.inf)]})
    for i in range(n - 1, -1, -1):
        lo, hi = reach[i]
        states: dict[int, list[tuple[float, float]]] = {}
        for opt in options[i]:
            if opt.t > bottleneck:
                continue
            t, dt = opt.t, opt.d + opt.t
            for r_next, front in fronts[i + 1].items():
                r = r_next + opt.layers
                if lo <= r <= hi:
                    states.setdefault(r, []).extend(
                        (s + t, max(m, dt + s)) for s, m in front)
        if not states:
            return None
        fronts[i] = {r: _pareto(found) for r, found in states.items()}
    return fronts


def _min_time_sum(options: list[list[_Option]], total_layers: int,
                  reach: list[tuple[int, int]],
                  bottleneck: float = math.inf) -> float:
    """Smallest ``sum_i t_i`` over the assignments on ``total_layers``
    layers with every ``t <= bottleneck``; ``inf`` when there is none."""
    best = {0: 0.0}
    for i in range(len(options) - 1, -1, -1):
        lo, hi = reach[i]
        found: dict[int, float] = {}
        for opt in options[i]:
            if opt.t > bottleneck:
                continue
            for r_next, s in best.items():
                r = r_next + opt.layers
                if lo <= r <= hi and s + opt.t < found.get(r, math.inf):
                    found[r] = s + opt.t
        best = found
    return best.get(total_layers, math.inf)


def _near_optimal(options: list[list[_Option]], fronts: list[dict[int, Front]],
                  bottleneck: float, total_layers: int, steady: float,
                  limit: float) -> Iterator[tuple[int, ...]]:
    """Menu-order walk over the assignments with all ``t <= bottleneck``
    whose objective, reading ``max t`` as ``bottleneck``, is ``<= limit``.

    With prefix sum ``P`` and prefix exposure
    ``X = max(0, max_{k<i} (d_k - sum_{j<k} t_j))``, a suffix state
    ``(S, M)`` completes to ``steady + max(P + S + X, M)``; the minimum
    over the next stage's front bounds every completion of the prefix.
    """
    n = len(options)
    picks: list[int] = []

    def walk(i: int, left: int, prefix: float,
             exposed: float) -> Iterator[tuple[int, ...]]:
        for opt in options[i]:
            if opt.t > bottleneck:
                continue
            front = fronts[i + 1].get(left - opt.layers)
            if front is None:
                continue
            p = prefix + opt.t
            x = max(exposed, opt.d - prefix)
            if steady + min(max(p + s + x, m) for s, m in front) > limit:
                continue
            picks.append(opt.position)
            if i + 1 == n:
                yield tuple(picks)
            else:
                yield from walk(i + 1, left - opt.layers, p, x)
            picks.pop()

    yield from walk(0, total_layers, 0.0, 0.0)


def solve(menus: Menus, total_layers: int, gacc: int, *,
          imbalance_aware: bool = True) -> InterStageSolution | None:
    """Exact minimum of Eq. (2) by a bottleneck-threshold DP.

    With ``T = max_i t_i`` the objective reads

        (G - 1) * T  +  max(sum_i t_i,  max_i (d_i + sum_{j>=i} t_j))

    (``d = 0`` when ``imbalance_aware`` is off). For each distinct
    ``t`` taken as the bottleneck ``T``, in ascending order,
    :func:`_suffix_fronts` keeps the Pareto front of suffix states per
    layer count over the options with ``t <= T``; the front of the
    whole pipeline on ``total_layers`` layers gives the best plan whose
    bottleneck is at most ``T``. The sweep starts at the smallest
    feasible ``T`` (feasibility only grows with ``T``, so bisection
    finds it) and stops once ``(G - 1) * T`` plus the smallest feasible
    ``sum_i t_i`` exceeds the best objective found.

    Tie rule: every assignment within a relative ``_TIE_RTOL`` of the
    optimum is re-scored with :func:`pipeline_iteration_time`, and the
    smallest score wins; equal scores go to the first assignment in
    menu order (stage 0 most significant; a stage's options ordered by
    layer count, then menu position). That is the order of exhaustive
    enumeration, so the choice equals
    :func:`repro.reference.solve_exact`'s. At most ``_MAX_TIES`` tied
    assignments are scored, the lowest bottlenecks first. Returns
    ``None`` when no assignment uses exactly ``total_layers`` layers.
    """
    options = _flatten(menus, imbalance_aware)
    if not options or any(not stage for stage in options):
        return None
    reach: list[tuple[int, int]] = []
    below_min = below_max = 0
    for stage in options:
        reach.append((total_layers - below_max, total_layers - below_min))
        below_min += min(opt.layers for opt in stage)
        below_max += max(opt.layers for opt in stage)
    floor = _min_time_sum(options, total_layers, reach)
    if floor == math.inf:
        return None
    steady = gacc - 1
    bottlenecks = sorted({opt.t for stage in options for opt in stage})
    if steady == 0:
        bottlenecks = bottlenecks[-1:]  # T does not enter the objective
    else:
        bottlenecks = bottlenecks[bisect.bisect_left(
            bottlenecks, True, key=lambda bottleneck: _min_time_sum(
                options, total_layers, reach, bottleneck) < math.inf):]

    best = math.inf
    solved: list[tuple[float, float, list[dict[int, Front]]]] = []
    for bottleneck in bottlenecks:
        if steady * bottleneck + floor > best * (1.0 + _TIE_RTOL):
            break
        fronts = _suffix_fronts(options, bottleneck, reach)
        if fronts is None or total_layers not in fronts[0]:
            continue
        value = steady * bottleneck + min(
            max(s, m) for s, m in fronts[0][total_layers])
        best = min(best, value)
        solved.append((value, bottleneck, fronts))

    limit = best * (1.0 + _TIE_RTOL)
    tied = (picks for value, bottleneck, fronts in solved if value <= limit
            for picks in _near_optimal(options, fronts, bottleneck,
                                       total_layers, steady * bottleneck,
                                       limit))
    scores: dict[tuple[int, ...], float] = {}
    for picks in tied:
        if picks not in scores:
            chosen = [options[i][o] for i, o in enumerate(picks)]
            scores[picks] = pipeline_iteration_time(
                [opt.t for opt in chosen], [opt.d for opt in chosen], gacc)
            if len(scores) == _MAX_TIES:
                break
    picks = min(scores, key=lambda tie: (scores[tie], tie))
    return InterStageSolution(
        objective=scores[picks],
        choices=[options[i][o].point for i, o in enumerate(picks)])
