"""Tests for the inter-stage DP against its two oracles.

:func:`repro.core.inter_stage.solve` is the production solver of
Eq. (2). :func:`repro.reference.solve_milp` (HiGHS) and
:func:`repro.reference.solve_exact` (enumeration) are the oracles it
must match: the MILP in objective, enumeration in objective *and*
chosen assignment, because both follow the same tie rule.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MistTuner, StageConfig
from repro.core.inter_stage import solve
from repro.core.intra_stage import IntraStageTuner, ParetoPoint
from repro.evaluation import calibrated_interference
from repro.hardware import make_cluster
from repro.models import get_model
from repro.reference import solve_exact, solve_milp


def point(layers: int, t: float, d: float) -> ParetoPoint:
    return ParetoPoint(
        t=t, d=d, peak_mem=1.0,
        config=StageConfig(layers=layers, microbatch=1, dp=1, tp=1),
    )


def menus_from_table(table):
    """table[i][l] = [(t, d), ...] -> Menus structure."""
    menus = []
    for stage in table:
        menus.append({
            l: [point(l, t, d) for t, d in pts] for l, pts in stage.items()
        })
    return menus


class TestExactSolver:
    def test_single_stage(self):
        menus = menus_from_table([{4: [(1.0, 0.1)]}])
        sol = solve_exact(menus, 4, gacc=4)
        assert sol is not None
        assert sol.layer_counts == [4]
        # (G-1)*t + t + d = 4*1 + 0.1
        assert sol.objective == pytest.approx(4.1)

    def test_balances_layers(self):
        stage_menu = {l: [(0.5 * l, 0.0)] for l in (2, 3, 4)}
        menus = menus_from_table([stage_menu, stage_menu])
        sol = solve_exact(menus, 6, gacc=8)
        assert sorted(sol.layer_counts) == [3, 3]

    def test_infeasible_returns_none(self):
        menus = menus_from_table([{2: [(1.0, 0.0)]}, {2: [(1.0, 0.0)]}])
        assert solve_exact(menus, 10, gacc=2) is None

    def test_empty_menu_returns_none(self):
        menus = menus_from_table([{2: [(1.0, 0.0)]}, {}])
        assert solve_exact(menus, 4, gacc=2) is None

    def test_trades_t_against_d(self):
        """With many microbatches, pick low t; with one, pick low d."""
        menu = {4: [(1.0, 5.0), (1.3, 0.0)]}
        menus = menus_from_table([menu])
        many = solve_exact(menus, 4, gacc=64)
        assert many.choices[0].t == pytest.approx(1.0)
        few = solve_exact(menus_from_table([menu]), 4, gacc=1)
        assert few.choices[0].t == pytest.approx(1.3)


class TestMILPSolver:
    def test_matches_exact_on_small_instance(self):
        stage_menu = {
            l: [(0.4 * l, 0.2), (0.5 * l, 0.0)] for l in (2, 3, 4)
        }
        menus = menus_from_table([stage_menu, stage_menu])
        exact = solve_exact(menus, 6, gacc=4)
        milp = solve_milp(menus, 6, gacc=4)
        assert milp is not None
        assert milp.objective == pytest.approx(exact.objective, rel=1e-6)

    def test_respects_layer_budget(self):
        stage_menu = {l: [(1.0, 0.0)] for l in (1, 2, 3)}
        menus = menus_from_table([stage_menu] * 3)
        sol = solve_milp(menus, 7, gacc=2)
        assert sum(sol.layer_counts) == 7

    def test_imbalance_unaware_ignores_deltas(self):
        menu = {4: [(1.0, 9.0), (1.4, 0.0)]}
        menus = menus_from_table([menu])
        aware = solve_milp(menus, 4, gacc=2, imbalance_aware=True)
        unaware = solve_milp(menus, 4, gacc=2, imbalance_aware=False)
        assert aware.choices[0].t == pytest.approx(1.4)
        assert unaware.choices[0].t == pytest.approx(1.0)

    def test_infeasible_returns_none(self):
        menus = menus_from_table([{2: [(1.0, 0.0)]}])
        assert solve_milp(menus, 9, gacc=2) is None

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        num_stages=st.integers(min_value=1, max_value=3),
        gacc=st.integers(min_value=1, max_value=16),
    )
    def test_milp_equals_exact_property(self, seed, num_stages, gacc):
        """On random small instances the MILP is exactly optimal."""
        rng = np.random.default_rng(seed)
        layer_options = [2, 3, 4]
        table = []
        for _ in range(num_stages):
            stage = {}
            for l in layer_options:
                pts = [
                    (float(rng.uniform(0.1, 2.0) * l),
                     float(rng.uniform(0.0, 3.0)))
                    for _ in range(rng.integers(1, 3))
                ]
                stage[l] = pts
            table.append(stage)
        total = int(rng.integers(num_stages * 2, num_stages * 4 + 1))
        menus_a = menus_from_table(table)
        menus_b = menus_from_table(table)
        exact = solve_exact(menus_a, total, gacc)
        milp = solve_milp(menus_b, total, gacc)
        if exact is None:
            assert milp is None
        else:
            assert milp is not None
            assert milp.objective == pytest.approx(exact.objective, rel=1e-6)


def random_table(rng, num_stages, *, coarse=False, empty_ok=False):
    """Random menus over layer counts 2..4; ``coarse`` draws ``t``/``d``
    from a small grid so many assignments tie exactly."""
    table = []
    for _ in range(num_stages):
        stage = {}
        for l in (2, 3, 4):
            count = int(rng.integers(0 if empty_ok else 1, 3))
            if coarse:
                pts = [(0.5 * l * float(rng.integers(1, 4)),
                        0.5 * float(rng.integers(0, 3)))
                       for _ in range(count)]
            else:
                pts = [(float(rng.uniform(0.1, 2.0) * l),
                        float(rng.uniform(0.0, 3.0)))
                       for _ in range(count)]
            stage[l] = pts
        table.append(stage)
    return table


def picks(solution):
    return [id(p) for p in solution.choices]


class TestSolve:
    def test_small_instance(self):
        menus = menus_from_table([{2: [(1.0, 0.0)]}, {2: [(1.0, 0.0)]}])
        sol = solve(menus, 4, 2)
        assert sol is not None
        assert sol.layer_counts == [2, 2]
        assert sol.objective == pytest.approx(3.0)

    def test_large_instance_respects_layer_budget(self):
        stage_menu = {l: [(0.1 * l + 0.01 * k, 0.02 * k) for k in range(8)]
                      for l in range(2, 12)}
        menus = menus_from_table([stage_menu] * 4)
        sol = solve(menus, 24, 8)
        assert sol is not None
        assert sum(sol.layer_counts) == 24
        assert sol.objective == pytest.approx(
            solve_milp(menus, 24, 8).objective, rel=1e-6)

    def test_infeasible_and_empty_return_none(self):
        assert solve(menus_from_table([{2: [(1.0, 0.0)]}]), 9, 2) is None
        assert solve(menus_from_table([{2: [(1.0, 0.0)]}, {}]), 4, 2) is None
        assert solve(menus_from_table([{2: []}]), 2, 2) is None
        assert solve([], 4, 2) is None

    def test_imbalance_unaware_ignores_deltas(self):
        menu = {4: [(1.0, 9.0), (1.4, 0.0)]}
        aware = solve(menus_from_table([menu]), 4, 2)
        unaware = solve(menus_from_table([menu]), 4, 2,
                        imbalance_aware=False)
        assert aware.choices[0].t == pytest.approx(1.4)
        assert unaware.choices[0].t == pytest.approx(1.0)
        assert unaware.objective == pytest.approx(2.0)

    def test_hidden_delta_beats_smaller_bottleneck(self):
        """A late stage's delta hides in the ramp (Eq. 1's third term)."""
        menus = menus_from_table([
            {2: [(1.0, 0.0)]},
            {2: [(1.0, 0.9), (1.05, 0.0)]},
        ])
        sol = solve(menus, 4, gacc=4)
        # d = 0.9 on stage 1 is covered by stage 0's t = 1.0
        assert [p.t for p in sol.choices] == [1.0, 1.0]
        assert sol.objective == pytest.approx(3 * 1.0 + 2.0)

    def test_ties_go_to_the_first_assignment_in_menu_order(self):
        stage_menu = {l: [(1.0 * l, 0.0)] for l in (2, 3, 4)}
        menus = menus_from_table([stage_menu, stage_menu])
        sol = solve(menus, 6, gacc=1)
        # (2, 4), (3, 3) and (4, 2) all cost 6.0; stage 0 picks first
        assert sol.layer_counts == [2, 4]
        assert picks(sol) == picks(solve_exact(menus, 6, gacc=1))

    def test_exact_threshold_knob_is_gone(self):
        menus = menus_from_table([{2: [(1.0, 0.0)]}])
        with pytest.raises(TypeError):
            solve(menus, 2, 2, exact_threshold=0)

    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        num_stages=st.integers(min_value=1, max_value=4),
        gacc=st.integers(min_value=1, max_value=16),
        imbalance_aware=st.booleans(),
        coarse=st.booleans(),
        empty_ok=st.booleans(),
    )
    def test_dp_equals_milp_and_brute_force(self, seed, num_stages, gacc,
                                            imbalance_aware, coarse,
                                            empty_ok):
        rng = np.random.default_rng(seed)
        menus = menus_from_table(random_table(
            rng, num_stages, coarse=coarse, empty_ok=empty_ok))
        # the range reaches past both ends of the feasible layer sums
        total = int(rng.integers(num_stages * 2 - 1, num_stages * 4 + 2))
        dp = solve(menus, total, gacc, imbalance_aware=imbalance_aware)
        exact = solve_exact(menus, total, gacc, imbalance_aware)
        milp = solve_milp(menus, total, gacc, imbalance_aware)
        if exact is None:
            assert dp is None and milp is None
            return
        assert dp is not None and milp is not None
        assert sum(dp.layer_counts) == total
        assert len(dp.choices) == num_stages
        assert dp.objective == exact.objective
        assert picks(dp) == picks(exact)
        assert milp.objective == pytest.approx(dp.objective, rel=1e-6)


class TestCutMenus:
    """The tuner's option cut never changes a solution that can rank."""

    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        num_stages=st.integers(min_value=1, max_value=4),
        gacc=st.integers(min_value=1, max_value=16),
        imbalance_aware=st.booleans(),
        coarse=st.booleans(),
        slack=st.sampled_from([0.0, 1e-12, 1e-3, 0.05, 0.3]),
    )
    def test_cut_keeps_choices_under_threshold(self, seed, num_stages,
                                               gacc, imbalance_aware,
                                               coarse, slack):
        rng = np.random.default_rng(seed)
        menus = menus_from_table(random_table(rng, num_stages,
                                              coarse=coarse))
        total = int(rng.integers(num_stages * 2, num_stages * 4 + 1))
        full = solve(menus, total, gacc, imbalance_aware=imbalance_aware)
        if full is None:
            return
        threshold = full.objective * (1.0 + slack)
        cut = MistTuner._cut_menus(menus, gacc, threshold)
        screened = solve(cut, total, gacc, imbalance_aware=imbalance_aware)
        assert screened is not None
        assert picks(screened) == picks(full)
        assert screened.objective == full.objective

    def test_cut_keeps_choices_on_tuner_cells(self):
        """Real menus, with the threshold at the cell's own optimum."""
        tuner = MistTuner(
            get_model("gpt3-1.3b"), make_cluster("L4", 1, 4),
            seq_len=2048, interference=calibrated_interference(True),
            max_pareto_points=4, max_gacc_candidates=3,
        )
        intra = IntraStageTuner(
            tuner.analyzer, tuner.space, global_batch=32,
            seq_len=tuner.seq_len,
            max_pareto_points=tuner.max_pareto_points,
        )
        depth = tuner.model.num_layers
        checked = 0
        for task in tuner._sg_grid(32):
            gacc = task[2]
            menus = [intra.tune(shape, lcounts)
                     for _, shape, lcounts in tuner._stage_shapes(task)]
            full = solve(menus, depth, gacc)
            if full is None:
                continue
            cut = MistTuner._cut_menus(menus, gacc, full.objective)
            screened = solve(cut, depth, gacc)
            assert screened is not None
            assert picks(screened) == picks(full)
            checked += 1
        assert checked >= 3
