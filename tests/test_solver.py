import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from multicut.cuts import CutPool, SelectorSpec
from multicut.lp import _LAZY_ROWS_FROM, LPProblem, OPTIMAL, solve_lp
from multicut.models import InventoryParams, make_inventory, reference_configs
from multicut.program import (extensive_form_value, path_stream, sample_scenario)
from multicut.solver import (BoundsRecord, CONVERGED, MAX_ITERATIONS, RunConfig,
                             SolverError, _stage_templates, backward_pass,
                             compute_bounds, first_stage_value, forward_pass,
                             make_pools, run, should_stop)

from conftest import tiny_program, two_stage_deterministic

Z975 = 1.95996398454  # tabulated 0.975 normal quantile


def micro_cfg(selector="cs1", **kw):
    base = dict(scenarios_per_iteration=16, epsilon=1e-6, seed=3, max_iterations=6,
                selector=SelectorSpec.from_name(selector))
    base.update(kw)
    return RunConfig(**base)


# --- stopping rule -------------------------------------------------------------

def test_stop_zero_lower_bound_clause():
    assert should_stop(BoundsRecord(1, 0.0, 0.0, 0.0, 0.04), 0.05)


def test_stop_relative_gap_clause():
    assert should_stop(BoundsRecord(1, 9.6, 10.0, 0.0, 10.0), 0.05)  # 0.4 <= 0.5


def test_continue_with_zero_upper_bound():
    assert not should_stop(BoundsRecord(1, -0.3, 0.0, 0.0, 0.0), 0.05)  # 0.3 > 0.05


def test_stop_both_bounds_zero():
    assert should_stop(BoundsRecord(1, 0.0, 0.0, 0.0, 0.0), 0.05)


def test_continue_zero_lower_large_upper():
    assert not should_stop(BoundsRecord(1, 0.0, 0.06, 0.0, 0.06), 0.05)


def test_stop_negative_bounds_relative_scale():
    # |z_sup| > 1 drives the scale: |(-9.8) - (-10.2)| = 0.4 <= 0.05 * 9.8
    assert should_stop(BoundsRecord(1, -10.2, -9.8, 0.0, -9.8), 0.05)


@given(hst.floats(-50, 50, allow_nan=False), hst.floats(-50, 50, allow_nan=False),
       hst.floats(0.001, 0.5))
@settings(max_examples=200, deadline=None)
def test_stop_rule_equivalence(z_inf, z_sup, eps):
    expected = (z_inf == 0.0 and z_sup <= eps) or \
        abs(z_sup - z_inf) <= eps * max(1.0, abs(z_sup))
    assert should_stop(BoundsRecord(1, z_inf, 0.0, 0.0, z_sup), eps) == expected


# --- bounds --------------------------------------------------------------------

def run_bounds(program, costs, cfg):
    pools = make_pools(program, cfg)
    # one backward sweep so the first-stage pools are populated
    paths = [sample_scenario(program, path_stream(cfg.seed, 1, k))
             for k in range(cfg.scenarios_per_iteration)]
    trajs, _ = forward_pass(program, pools, paths)
    backward_pass(program, pools, trajs, 1)
    return compute_bounds(program, pools, np.asarray(costs, dtype=float), cfg, 1)


def test_bounds_zero_variance(micro_inventory):
    cfg = micro_cfg(scenarios_per_iteration=4)
    rec = run_bounds(micro_inventory, [5.0, 5.0, 5.0, 5.0], cfg)
    assert rec.cost_std == 0.0
    assert rec.z_sup == 5.0


def test_bounds_two_costs(micro_inventory):
    # costs {1, 3}: population mean 2, population std 1
    cfg = micro_cfg(scenarios_per_iteration=2, alpha=0.025)
    rec = run_bounds(micro_inventory, [1.0, 3.0], cfg)
    assert rec.cost_mean == 2.0
    assert rec.cost_std == 1.0
    assert rec.z_sup == pytest.approx(2.0 + Z975 / math.sqrt(2.0), abs=1e-5)


def test_bounds_single_scenario(micro_inventory):
    cfg = micro_cfg(scenarios_per_iteration=1)
    rec = run_bounds(micro_inventory, [7.25], cfg)
    assert rec.cost_std == 0.0
    assert rec.z_sup == 7.25


def test_bounds_record_invariant(micro_inventory):
    cfg = micro_cfg(scenarios_per_iteration=3, alpha=0.1)
    costs = [2.0, 4.5, 3.25]
    rec = run_bounds(micro_inventory, costs, cfg)
    from multicut.rng import gaussian_quantile
    expected = rec.cost_mean + rec.cost_std / math.sqrt(3) * gaussian_quantile(0.9)
    assert rec.z_sup == pytest.approx(expected, abs=1e-12)


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(scenarios_per_iteration=0)
    with pytest.raises(ValueError):
        RunConfig(alpha=0.5)
    with pytest.raises(ValueError):
        RunConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        RunConfig(max_iterations=0)
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            RunConfig(epsilon=value)
        with pytest.raises(ValueError, match="finite"):
            RunConfig(epsilon0=value)


# --- passes ----------------------------------------------------------------------

def test_first_iteration_is_myopic(micro_inventory):
    # with empty pools the stage-1 problem is min c'x over the stage set
    cfg = micro_cfg()
    pools = make_pools(micro_inventory, cfg)
    paths = [sample_scenario(micro_inventory, path_stream(3, 1, k)) for k in range(2)]
    trajs, costs = forward_pass(micro_inventory, pools, paths)
    # inventory stage 1: start stock 10, demand 5.5, buying is costlier than
    # holding: order nothing, x=10, v=4.5 -> myopic stage cost h*4.5
    x1 = trajs[0][0]
    assert x1[0] == pytest.approx(10.0, abs=1e-9)
    assert x1[3] == pytest.approx(4.5, abs=1e-9)


def test_deterministic_program_has_identical_scenarios():
    prog = make_inventory(InventoryParams(stage_count=3, realizations=1, seed=4))
    cfg = micro_cfg(scenarios_per_iteration=5)
    pools = make_pools(prog, cfg)
    paths = [sample_scenario(prog, path_stream(3, 1, k)) for k in range(5)]
    trajs, costs = forward_pass(prog, pools, paths)
    for k in range(1, 5):
        assert np.allclose(costs[k], costs[0])
        for t in range(3):
            assert np.allclose(trajs[k][t], trajs[0][t])


def test_backward_pass_cut_count(micro_inventory):
    cfg = micro_cfg(scenarios_per_iteration=4)
    pools = make_pools(micro_inventory, cfg)
    paths = [sample_scenario(micro_inventory, path_stream(3, 1, k)) for k in range(4)]
    trajs, _ = forward_pass(micro_inventory, pools, paths)
    added = backward_pass(micro_inventory, pools, trajs, 1)
    # (T-1) * M * N cuts per iteration
    assert added == 2 * 2 * 4
    for (t, j), pool in pools.items():
        assert pool.num_cuts == 4
        # a pool keeps one record per distinct trial point
        assert pool.num_points == len({traj[t - 1].tobytes() for traj in trajs})


def test_last_stage_cuts_are_exact(micro_inventory):
    from multicut.program import exact_recourse_value
    cfg = micro_cfg(scenarios_per_iteration=3)
    pools = make_pools(micro_inventory, cfg)
    paths = [sample_scenario(micro_inventory, path_stream(5, 1, k)) for k in range(3)]
    trajs, _ = forward_pass(micro_inventory, pools, paths)
    backward_pass(micro_inventory, pools, trajs, 1)
    # the cut built at its own trial point matches the exact last-stage value
    for j in range(2):
        pool = pools[(2, j)]
        for k in range(3):
            x = trajs[k][1]
            exact = exact_recourse_value(micro_inventory, 2, j, x)
            assert pool.cut(k + 1).value(x) == pytest.approx(exact, abs=1e-7)


def test_infeasible_stage_is_reported():
    prog = tiny_program(prob2=(1.0,), demands2=(-1.0,))  # stage 2: x2 = -1 - x1 < 0
    cfg = micro_cfg(scenarios_per_iteration=1)
    with pytest.raises(SolverError, match="stage 2"):
        pools = make_pools(prog, cfg)
        paths = [sample_scenario(prog, path_stream(1, 1, 0))]
        forward_pass(prog, pools, paths)


@pytest.mark.parametrize("selector", ["cs1", "cs2"])
def test_backward_pass_cut_order_and_tightness(micro_inventory, selector):
    cfg = micro_cfg(selector, scenarios_per_iteration=3)
    pools = make_pools(micro_inventory, cfg)
    for iteration in (1, 2, 3):
        paths = [sample_scenario(micro_inventory, path_stream(cfg.seed, iteration, k))
                 for k in range(3)]
        trajs, _ = forward_pass(micro_inventory, pools, paths)
        events = []
        added = backward_pass(micro_inventory, pools, trajs, iteration,
                              cut_inspector=events.append)
        assert len(events) == added == 2 * 2 * 3
        # stage descending, then scenario ascending, then realization ascending
        keys = [(-e.stage, e.scenario, e.realization) for e in events]
        assert keys == sorted(keys)
        for e in events:
            assert e.iteration == iteration
            assert np.array_equal(e.x_prev, trajs[e.scenario][e.stage - 2])
            pool = pools[(e.stage - 1, e.realization - 1)]
            ordinal = (iteration - 1) * 3 + e.scenario + 1
            stored = pool.cut(ordinal)
            assert stored.theta == e.cut.theta
            assert np.array_equal(stored.beta, e.cut.beta)
            # each cut is tight at its generating point
            obj = e.solution.objective
            assert abs(e.cut.value(e.x_prev) - obj) <= 1e-9 * max(1.0, abs(obj))


# --- full runs ---------------------------------------------------------------------

def test_two_stage_deterministic_run_hits_oracle():
    prog = two_stage_deterministic()
    oracle = extensive_form_value(prog)
    cfg = micro_cfg(scenarios_per_iteration=1, epsilon=1e-9, max_iterations=10)
    rep = run(prog, cfg)
    assert rep.termination == CONVERGED
    assert rep.iterations <= 2
    final = rep.final
    assert final.z_inf == pytest.approx(oracle, abs=1e-7)
    assert final.z_sup == pytest.approx(oracle, abs=1e-7)


def test_micro_run_reaches_extensive_form_optimum(micro_inventory):
    oracle = extensive_form_value(micro_inventory)
    rep = run(micro_inventory, micro_cfg("cs2"))
    assert rep.final.z_inf == pytest.approx(oracle, rel=1e-6)


def test_z_inf_monotone_under_all_selector(micro_inventory):
    rep = run(micro_inventory, micro_cfg("muda"))
    zs = [b.z_inf for b in rep.bounds]
    assert all(b >= a - 1e-9 for a, b in zip(zs, zs[1:]))


def test_lower_bound_validity_every_iteration(micro_inventory):
    oracle = extensive_form_value(micro_inventory)
    for sel in ("muda", "cs1", "cs2", "levelH:2"):
        rep = run(micro_inventory, micro_cfg(sel))
        for b in rep.bounds:
            assert b.z_inf <= oracle + 1e-6 * max(1.0, abs(oracle))


def test_run_determinism(micro_inventory):
    cfg = micro_cfg("cs2", max_iterations=4)
    a = run(micro_inventory, cfg)
    b = run(micro_inventory, cfg)
    assert [(r.z_inf, r.cost_mean, r.cost_std, r.z_sup) for r in a.bounds] == \
           [(r.z_inf, r.cost_mean, r.cost_std, r.z_sup) for r in b.bounds]
    sel_a = [(s.iteration, s.stage, s.realization, s.selected, s.total)
             for s in a.selection]
    sel_b = [(s.iteration, s.stage, s.realization, s.selected, s.total)
             for s in b.selection]
    assert sel_a == sel_b


def test_seed_changes_the_run(micro_inventory):
    a = run(micro_inventory, micro_cfg("cs2", seed=1, max_iterations=2))
    b = run(micro_inventory, micro_cfg("cs2", seed=2, max_iterations=2))
    assert [r.cost_mean for r in a.bounds] != [r.cost_mean for r in b.bounds]


def test_max_iterations_termination(micro_inventory):
    rep = run(micro_inventory, micro_cfg("cs1", max_iterations=2, epsilon=1e-12))
    assert rep.termination == MAX_ITERATIONS
    assert rep.iterations == 2
    assert len(rep.bounds) == 2
    assert len(rep.cuts_added) == 2


def test_report_selection_rows_cover_all_pools(micro_inventory):
    rep = run(micro_inventory, micro_cfg("cs1", max_iterations=2, epsilon=1e-12))
    per_iter = {}
    for s in rep.selection:
        per_iter.setdefault(s.iteration, []).append((s.stage, s.realization))
    for it, keys in per_iter.items():
        assert sorted(keys) == [(2, 1), (2, 2), (3, 1), (3, 2)]


def test_first_stage_value_uses_selected_cuts(micro_inventory):
    cfg = micro_cfg("cs2")
    pools = make_pools(micro_inventory, cfg)
    paths = [sample_scenario(micro_inventory, path_stream(3, 1, k)) for k in range(4)]
    trajs, _ = forward_pass(micro_inventory, pools, paths)
    backward_pass(micro_inventory, pools, trajs, 1)
    z = first_stage_value(micro_inventory, pools)
    assert np.isfinite(z)
    oracle = extensive_form_value(micro_inventory)
    assert z <= oracle + 1e-6 * max(1.0, abs(oracle))


# --- stage templates -------------------------------------------------------------

def test_forward_pass_reads_each_pool_once(monkeypatch):
    program = reference_configs()["micro-inventory-4"].build()
    pools = make_pools(program, micro_cfg())
    calls = []
    read = CutPool.selected_cut_arrays
    monkeypatch.setattr(CutPool, "selected_cut_arrays",
                        lambda pool: calls.append(pool) or read(pool))
    paths = [sample_scenario(program, path_stream(3, 1, k)) for k in range(4)]
    forward_pass(program, pools, paths)
    # one read per stage-2..4 pool, shared by the templates of the stage above
    assert len(calls) == 9
    assert {id(p) for p in calls} == {id(p) for p in pools.values()}


def fresh_stage_lp(program, pools, t, j, x_prev):
    """The stage-t LP of realization j at x_prev, assembled from the
    program and the selected cuts of the stage-(t+1) pools."""
    r = program.stages[t].realizations[j]
    probs, cut_lists = [], []
    if t + 1 < program.stage_count:
        for jj, nxt in enumerate(program.stages[t + 1].realizations):
            pool = pools[(t + 1, jj)]
            cuts = [pool.cut(o) for o in pool.selected_indices()]
            if cuts:
                probs.append(nxt.probability)
                cut_lists.append(cuts)
    nf = len(cut_lists)
    rows = [np.concatenate([row, np.zeros(nf)]) for row in r.le_cur]
    rhs = list(r.rhs_le - r.le_prev @ x_prev)
    groups = [0] * len(rows)
    for f, cuts in enumerate(cut_lists):
        for cut in cuts:
            epigraph = np.zeros(nf)
            epigraph[f] = -1.0
            rows.append(np.concatenate([cut.beta, epigraph]))
            rhs.append(-cut.theta)
            groups.append(f + 1)
    problem = LPProblem(np.concatenate([r.cost, probs]),
                        np.hstack([r.eq_cur, np.zeros((r.eq_cur.shape[0], nf))]),
                        r.rhs_eq - r.eq_prev @ x_prev,
                        np.array(rows).reshape(len(rows), r.dim + nf), np.array(rhs),
                        lower=np.concatenate([np.zeros(r.dim), np.full(nf, -np.inf)]))
    return problem, groups


@pytest.mark.parametrize("preset", ["micro-inventory-4", "micro-portfolio-4"])
def test_template_solve_equals_fresh_lp(preset):
    program = reference_configs()[preset].build()
    cfg = micro_cfg("muda", scenarios_per_iteration=8, max_iterations=3, epsilon=1e-12)
    pools = run(program, cfg).pools
    paths = [sample_scenario(program, path_stream(9, 1, k)) for k in range(3)]
    trajs, _ = forward_pass(program, pools, paths)
    largest = 0
    for t in range(program.stage_count):
        templates = _stage_templates(program, pools, t)
        points = {program.x0.tobytes(): program.x0} if t == 0 else \
            {traj[t - 1].tobytes(): traj[t - 1] for traj in trajs}
        for j, template in enumerate(templates):
            for x in points.values():
                got = template.solve(x, "test")
                problem, groups = fresh_stage_lp(program, pools, t, j, x)
                want = solve_lp(problem, row_groups=groups)
                largest = max(largest, problem.b_le.size)
                assert want.status == OPTIMAL
                assert got.x.tobytes() == want.x.tobytes()
                assert got.duals_eq.tobytes() == want.duals_eq.tobytes()
                assert got.duals_le.tobytes() == want.duals_le.tobytes()
                assert got.objective.hex() == want.objective.hex()
            # solves leave the template's own LP, the one at x_prev = 0, as built
            base, _ = fresh_stage_lp(program, pools, t, j, np.zeros_like(x))
            assert template.problem.b_eq.tobytes() == base.b_eq.tobytes()
            assert template.problem.b_le.tobytes() == base.b_le.tobytes()
    assert largest > _LAZY_ROWS_FROM  # the lazy path is covered too
