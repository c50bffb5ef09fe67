import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from multicut.cli import main
from multicut.cuts import Cut, CutPool, SelectorSpec
import multicut.lp as lp
import multicut.solver as solver
from multicut.lp import _LAZY_ROWS_FROM, LPProblem, OPTIMAL, _solve_all_rows, solve_lp
from multicut.models import InventoryParams, make_inventory, reference_configs
from multicut.program import (MultistageProgram, extensive_form_value, path_stream,
                              sample_scenario, validate)
from multicut.solver import (BoundsRecord, CONVERGED, MAX_ITERATIONS, RunConfig,
                             SolverError, _stage_templates, backward_pass,
                             compute_bounds, first_stage_value, forward_pass,
                             make_pools, run, should_stop)

from conftest import check_optimal, reference_scan, tiny_program, two_stage_deterministic

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


@pytest.mark.parametrize("selector", ["muda", "cs1", "levelH:2"])
def test_pool_records_match_reference_scan(micro_inventory, selector):
    # muda never reads the records during a run, the others read them at
    # every template build; either way they end as the sequential scan of
    # every stored cut at each trial point
    report = run(micro_inventory, micro_cfg(selector, max_iterations=4))
    for pool in report.pools.values():
        assert pool.num_points and pool.num_cuts
        cuts = pool.cuts()
        for i in range(pool.num_points):
            x = pool.trial_point(i)
            m_ref, argmax_ref = reference_scan([c.value(x) for c in cuts], pool.eps0)
            assert pool.best_value(i) == m_ref
            assert pool.argmax_set(i) == tuple(argmax_ref[:pool.selector.cap])


def test_infeasible_stage_is_reported():
    prog = tiny_program(prob2=(1.0,), demands2=(-1.0,))  # stage 2: x2 = -1 - x1 < 0
    cfg = micro_cfg(scenarios_per_iteration=1)
    with pytest.raises(SolverError, match="stage 2"):
        pools = make_pools(prog, cfg)
        paths = [sample_scenario(prog, path_stream(1, 1, 0))]
        forward_pass(prog, pools, paths)


def test_forward_stage_failure_names_the_realization():
    # stage 2 under realization 2 asks for y = 1 - 3 < 0
    prog = tiny_program(demands2=(7.0, 1.0))
    pools = make_pools(prog, micro_cfg(scenarios_per_iteration=2))
    paths = [(0, 0), (0, 1)]
    with pytest.raises(SolverError) as err:
        forward_pass(prog, pools, paths)
    assert str(err.value) == ("stage subproblem infeasible at "
                              "scenario 1, stage 2, realization 2 (forward)")


def test_backward_stage_failure_names_the_realization_and_trial_point():
    # both stage-2 realizations share one LP; at trial point 1 (x = 5) the
    # second asks for y = 4 - 5 < 0
    prog = tiny_program(demands2=(7.0, 4.0))
    pools = make_pools(prog, micro_cfg(scenarios_per_iteration=2))
    assert len({id(template) for template in _stage_templates(prog, pools, 1)}) == 1
    with pytest.raises(SolverError) as err:
        backward_pass(prog, pools, [[np.array([3.0])], [np.array([5.0])]], 1)
    assert str(err.value) == ("stage subproblem infeasible at "
                              "stage 2, realization 2, trial point 1")


@pytest.mark.parametrize("selector", ["muda", "cs1"])
def test_non_finite_cut_is_a_solver_error(micro_inventory, selector, monkeypatch):
    # NaN multipliers from a faulty solve stop the run at the first cut,
    # naming its stage, realization and trial point
    cut = solver._StageTemplate.cut
    monkeypatch.setattr(solver._StageTemplate, "cut", lambda self, j, sol, iteration: Cut(
        float("nan"), cut(self, j, sol, iteration).beta, iteration))
    with pytest.raises(SolverError) as err:
        run(micro_inventory, micro_cfg(selector))
    assert str(err.value) == "non-finite cut at stage 3, realization 1, trial point 0"


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


def test_cut_events_keep_their_solutions():
    # warm hits hand out arrays of their own: a kept CutEvent's solution
    # stays as the inspector saw it, and an inspector that writes into it
    # changes neither the later solves' cuts nor the bounds
    program = reference_configs()["micro-inventory-4"].build()
    cfg = micro_cfg("cs1", scenarios_per_iteration=4, max_iterations=3, epsilon=1e-12)
    events, seen, cuts = [], [], {"keep": [], "scribble": []}

    def keep(e):
        events.append(e)
        seen.append((e.solution.x.tobytes(), e.solution.duals_eq.tobytes(),
                     e.solution.duals_le.tobytes()))
        cuts["keep"].append((e.cut.theta.hex(), e.cut.beta.tobytes()))

    def scribble(e):
        cuts["scribble"].append((e.cut.theta.hex(), e.cut.beta.tobytes()))
        for v in (e.solution.x, e.solution.duals_eq, e.solution.duals_le):
            v[:] = np.nan

    kept = run(program, cfg, cut_inspector=keep)
    assert [(e.solution.x.tobytes(), e.solution.duals_eq.tobytes(),
             e.solution.duals_le.tobytes()) for e in events] == seen
    # warm hits among them: a cold solve here pivots out the artificials
    # of the equality rows
    assert any(e.solution.pivots == 0 for e in events)
    assert run(program, cfg, cut_inspector=scribble).bounds == kept.bounds
    assert cuts["scribble"] == cuts["keep"]


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


LP_FIELDS = ("c", "a_eq", "a_le", "b_eq", "b_le", "lower")


def fresh_stage_lp(program, pools, t, j, x_prev):
    """The stage-t LP of realization j at x_prev, assembled from the
    program and the selected cuts of the stage-(t+1) pools. The epigraph
    variables are >= 0 when no later stage has a negative cost, else free."""
    r = program.stages[t][j]
    probs, cut_lists = [], []
    if t + 1 < program.stage_count:
        for jj, nxt in enumerate(program.stages[t + 1]):
            pool = pools[(t + 1, jj)]
            cuts = [pool.cut(o) for o in pool.selected_indices()]
            if cuts:
                probs.append(nxt.probability)
                cut_lists.append(cuts)
    nf = len(cut_lists)
    nonnegative = all(min(nxt.cost) >= 0.0 for stage in program.stages[t + 1:] for nxt in stage)
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
                        lower=np.concatenate([np.zeros(r.dim), np.full(nf, 0.0 if nonnegative else -np.inf)]))
    return problem, groups


@pytest.mark.parametrize("preset", ["micro-inventory-4", "micro-portfolio-4"])
def test_template_solve_equals_fresh_lp(preset, monkeypatch):
    # the realizations of a stage share one template; a template built over
    # pools that hold no stage LP starts cold and its first solve equals the
    # fresh LP's solve bit for bit. The solves of the template the pools
    # keep, of any realization, start warm from the basis the one before
    # left, and may stop at another optimal vertex of a degenerate stage LP,
    # so they match the fresh LP's optimum
    program = reference_configs()[preset].build()
    cfg = micro_cfg("muda", scenarios_per_iteration=8, max_iterations=3, epsilon=1e-12)
    pools = run(program, cfg).pools
    paths = [sample_scenario(program, path_stream(9, 1, k)) for k in range(3)]
    trajs, _ = forward_pass(program, pools, paths)
    hits, warm_hit = [], lp._warm_hit

    def recording(*args):
        hits.append(warm_hit(*args))
        return hits[-1]

    monkeypatch.setattr(lp, "_warm_hit", recording)
    largest = 0
    for t in range(program.stage_count):
        templates = _stage_templates(program, pools, t)
        template = templates[0]
        assert all(other is template for other in templates)
        points = {program.x0.tobytes(): program.x0} if t == 0 else \
            {traj[t - 1].tobytes(): traj[t - 1] for traj in trajs}
        for j in range(len(templates)):
            for x in points.values():
                problem, groups = fresh_stage_lp(program, pools, t, j, x)
                want = solve_lp(problem, row_groups=groups)
                largest = max(largest, problem.b_le.size)
                assert want.status == OPTIMAL
                cold = _stage_templates(program, type(pools)(pools), t)[j].solve(j, x, "test")
                assert cold.x.tobytes() == want.x.tobytes()
                assert cold.duals_eq.tobytes() == want.duals_eq.tobytes()
                assert cold.duals_le.tobytes() == want.duals_le.tobytes()
                assert cold.objective.hex() == want.objective.hex()
                got = template.solve(j, x, "test")
                # the LP the template solved is (j, x)'s fresh LP, bit for bit
                for f in LP_FIELDS:
                    a, b = getattr(template.lp, f), getattr(problem, f)
                    assert a.shape == b.shape and a.tobytes() == b.tobytes(), (t, j, f)
                assert template.groups.tolist() == groups
                assert got.status == OPTIMAL
                assert abs(got.objective - want.objective) <= 1e-9 * max(1.0, abs(want.objective))
                check_optimal(problem, got)
                value = template.cut(j, got, 1).value(x)
                assert abs(value - got.objective) <= 1e-9 * max(1.0, abs(got.objective))
    assert largest > _LAZY_ROWS_FROM  # the lazy path is covered too
    assert any(sol is not None for sol in hits)  # and so is the warm start


def mixed_cost_program():
    """micro-inventory-4 with the holding cost of stage 2 realization 3 and
    of stage 3 realization 2 raised: stages 2 and 3 have two groups each."""
    program = reference_configs()["micro-inventory-4"].build()
    stages = [list(stage) for stage in program.stages]
    for t, j in ((1, 2), (2, 1)):
        r = stages[t][j]
        stages[t][j] = dataclasses.replace(r, cost=r.cost * np.array([1.0, 1.0, 1.0, 1.5]))
    return MultistageProgram(program.x0, stages)


def test_mixed_cost_stage_gets_one_lp_per_group():
    program = mixed_cost_program()
    assert validate(program) == []
    pools = run(program, micro_cfg("cs1", scenarios_per_iteration=8, max_iterations=3,
                                   epsilon=1e-12)).pools
    groups = [[templates.index(template) for template in templates]
              for templates in (_stage_templates(program, pools, t)
                                for t in range(program.stage_count))]
    assert groups == [[0], [0, 0, 2], [0, 1, 0], [0, 0, 0]]
    paths = [sample_scenario(program, path_stream(9, 1, k)) for k in range(4)]
    trajs, _ = forward_pass(program, pools, paths)
    for t in range(1, program.stage_count):
        templates = _stage_templates(program, pools, t)
        for x in {traj[t - 1].tobytes(): traj[t - 1] for traj in trajs}.values():
            for j, template in enumerate(templates):
                problem, row_groups = fresh_stage_lp(program, pools, t, j, x)
                want = solve_lp(problem, row_groups=row_groups)
                got = template.solve(j, x, "test")
                assert got.status == want.status == OPTIMAL
                assert abs(got.objective - want.objective) <= 1e-9 * max(1.0, abs(want.objective))
                check_optimal(problem, got)
                value = template.cut(j, got, 1).value(x)
                assert abs(value - got.objective) <= 1e-9 * max(1.0, abs(got.objective))
    # every stage of every preset is one group
    for name, preset in reference_configs().items():
        program = preset.build()
        pools = make_pools(program, micro_cfg())
        for t in range(program.stage_count):
            templates = _stage_templates(program, pools, t)
            assert all(template is templates[0] for template in templates), (name, t)


def test_a_stage_starts_cold_once_per_row_set(monkeypatch):
    # the realizations of a stage share one warm store, so a backward pass
    # starts a stage cold once per row set its LP solves, plus once per
    # stored basis found infeasible at a later point; with one store per
    # realization it would start cold once per realization and row set
    program = reference_configs()["micro-inventory-4"].build()
    cfg = micro_cfg("muda", scenarios_per_iteration=8, max_iterations=3, epsilon=1e-12)
    pools = run(program, cfg).pools
    paths = [sample_scenario(program, path_stream(9, 4, k)) for k in range(8)]
    trajs, _ = forward_pass(program, pools, paths)
    counts = {}
    build, init = solver._stage_templates, lp._Core.__init__
    warm_hit, solve_all_rows = lp._warm_hit, lp._solve_all_rows

    def building(program, pools, t):
        counts["now"] = counts[t] = {"cold": 0, "rejected": 0, "row sets": set()}
        return build(program, pools, t)

    def starting(self, *args):
        counts["now"]["cold"] += 1
        init(self, *args)

    def hitting(*args):
        sol = warm_hit(*args)
        counts["now"]["rejected"] += sol is None
        return sol

    def solving(p, le_rows=None, warm=None):
        counts["now"]["row sets"].add(None if le_rows is None else le_rows.tobytes())
        return solve_all_rows(p, le_rows, warm)

    monkeypatch.setattr(solver, "_stage_templates", building)
    monkeypatch.setattr(lp._Core, "__init__", starting)
    monkeypatch.setattr(lp, "_warm_hit", hitting)
    monkeypatch.setattr(lp, "_solve_all_rows", solving)
    backward_pass(program, pools, trajs, 4)
    del counts["now"]
    assert sorted(counts) == [1, 2, 3]
    for t, c in counts.items():
        assert c["cold"] <= len(c["row sets"]) + c["rejected"], (t, c)


def test_carried_stage_lps_equal_fresh_builds(monkeypatch):
    # after each pass, every stage LP the pass read through run's pools is
    # byte-equal to a fresh build over the pools as they stand in every
    # field a build sets and a solve never writes (a solve rewrites b_eq and
    # the model rows of b_le, which test_template_solve_equals_fresh_lp
    # checks after each solve); the backward pass reads stages 2..T, the
    # other two every stage
    program = reference_configs()["micro-inventory-4"].build()
    T = program.stage_count
    checked = []

    def checking(name, stages):
        fn = getattr(solver, name)

        def wrapped(program, pools, *args):
            out = fn(program, pools, *args)
            for t in stages:
                held, _, carried = pools.lps[t]
                assert held is program
                fresh = _stage_templates(program, type(pools)(pools), t)
                assert len(carried) == len(fresh)
                assert not set(map(id, carried)) & set(map(id, fresh))
                for old, new in zip(carried, fresh):
                    for f in ("c", "a_eq", "a_le", "lower"):
                        a, b = getattr(old.lp, f), getattr(new.lp, f)
                        assert a.shape == b.shape and a.tobytes() == b.tobytes(), (name, t, f)
                    assert old.m_model == new.m_model
                    a, b = old.lp.b_le[old.m_model:], new.lp.b_le[new.m_model:]
                    assert a.shape == b.shape and a.tobytes() == b.tobytes(), (name, t)
                    assert old.groups.tobytes() == new.groups.tobytes(), (name, t)
                checked.append((name, t))
            return out

        monkeypatch.setattr(solver, name, wrapped)

    checking("forward_pass", range(T))
    checking("backward_pass", range(1, T))
    checking("compute_bounds", range(T))
    report = run(program, micro_cfg("cs1", scenarios_per_iteration=8, max_iterations=5,
                                    epsilon=1e-12))
    assert report.iterations == 5
    assert len(checked) == 5 * (3 * T - 1)
    # iteration 1 builds every stage in the forward pass, then stages 3..1
    # again; later iterations rebuild only the stages whose cuts changed
    assert report.templates_built[0] == 2 * T - 1
    assert all(n <= T - 1 for n in report.templates_built[1:])


def test_a_carried_stage_is_rebuilt_only_when_its_selected_cuts_change():
    program = reference_configs()["micro-inventory-4"].build()
    pools = run(program, micro_cfg("cs1", scenarios_per_iteration=8, max_iterations=2,
                                   epsilon=1e-12)).pools
    t, pools = 1, type(pools)(pools)
    held = _stage_templates(program, pools, t)
    assert pools.lps[t][2] is held and pools.built == 1
    assert _stage_templates(program, pools, t) is held
    pool = pools[(t + 1, 0)]
    dim = program.prev_dim(t + 1)
    # a cut below every other at every trial point is not selected under
    # cs1: the selected cuts, and so the stage LP, stay as they were
    pool.add_cut(Cut(-1e6, np.zeros(dim), 3))
    assert pool.num_cuts not in pool.selected_indices()
    assert _stage_templates(program, pools, t) is held
    # a cut above every other is selected: the next lookup builds anew
    pool.add_cut(Cut(1e6, np.zeros(dim), 3))
    assert pool.num_cuts in pool.selected_indices()
    again = _stage_templates(program, pools, t)
    assert again is not held and again[0] is not held[0]
    assert pools.lps[t][2] is again and list(pools.lps) == [t]
    assert _stage_templates(program, pools, t) is again
    assert -1e6 in again[0].lp.b_le and -1e6 not in held[0].lp.b_le
    assert pools.built == 2


def test_passes_on_one_pools_mapping_share_its_stage_lps():
    # a library caller's passes reuse the stage LPs the pools keep; another
    # program of the same shape gets its own LPs, never the cached ones
    program = reference_configs()["micro-inventory-4"].build()
    pools = run(program, micro_cfg("cs1", scenarios_per_iteration=8, max_iterations=2,
                                   epsilon=1e-12)).pools
    paths = [sample_scenario(program, path_stream(9, 1, k)) for k in range(4)]
    built = pools.built
    first, _ = forward_pass(program, pools, paths)
    again, _ = forward_pass(program, pools, paths)
    assert pools.built == built
    assert [[x.tobytes() for x in traj] for traj in again] == \
        [[x.tobytes() for x in traj] for traj in first]
    other = mixed_cost_program()
    lps = [_stage_templates(other, pools, t) for t in range(other.stage_count)]
    assert [[templates.index(template) for template in templates]
            for templates in lps] == [[0], [0, 0, 2], [0, 1, 0], [0, 0, 0]]
    for t, templates in enumerate(lps):
        assert pools.lps[t][0] is other
        for j, template in enumerate(templates):
            n = other.stages[t][j].dim
            assert template.lp.c[:n].tobytes() == other.stages[t][j].cost.tobytes()


def test_micro_verify_builds_each_distinct_stage_lp_once(tmp_path, monkeypatch):
    # the perfbench micro-verify-cs1 command at seed 1: with a stage LP
    # built per pass, it builds 200 templates and starts 201 LPs cold (one
    # per build, plus the oracle), though they hold only 79 distinct LPs
    counts = {"built": 0, "cold": 0}
    init, start = solver._StageTemplate.__init__, lp._Core.__init__

    def building(self, *args):
        counts["built"] += 1
        init(self, *args)

    def starting(self, *args):
        counts["cold"] += 1
        start(self, *args)

    monkeypatch.setattr(solver._StageTemplate, "__init__", building)
    monkeypatch.setattr(lp._Core, "__init__", starting)
    out = tmp_path / "run"
    code = main(["verify", "--preset", "micro-inventory-4", "--selector", "cs1", "--seed", "1",
                 "--scenarios", "16", "--max-iters", "25", "--workers", "1", "--out", str(out)])
    assert code == 0
    assert counts["built"] <= 79
    assert counts["cold"] <= 80
    meta = json.loads((out / "meta.json").read_text())
    assert sum(meta["templates_built"]) == counts["built"]


@pytest.mark.parametrize("preset,floor", [("micro-inventory-4", 0.0),
                                          ("micro-portfolio-4", -np.inf)])
def test_epigraph_floor_follows_the_sign_of_later_costs(preset, floor):
    # inventory costs are all >= 0, so every epigraph variable is floored at
    # 0; a portfolio's last stage has negative costs, so they stay free
    program = reference_configs()[preset].build()
    pools = run(program, micro_cfg("muda", max_iterations=1, epsilon=1e-12)).pools
    for t in range(program.stage_count - 1):
        for template in _stage_templates(program, pools, t):
            n = program.stage_dims[t]
            assert template.lp.lower.size == n + len(program.stages[t + 1])
            assert np.all(template.lp.lower[n:] == floor)


@pytest.mark.parametrize("lazy", [False, True], ids=["direct", "lazy"])
def test_only_equality_rows_start_on_an_artificial(lazy, monkeypatch):
    # an inventory-T5 stage LP with cuts, realization 1's at x_prev = 0:
    # each epigraph variable is lifted onto its cut rows, so phase 1 covers
    # only the equality rows
    program = reference_configs()["inventory-T5"].build()
    cfg = micro_cfg("muda", scenarios_per_iteration=3, max_iterations=1, epsilon=1e-12)
    template = _stage_templates(program, run(program, cfg).pools, 1)[0]
    assert template.solve(0, np.zeros(program.prev_dim(1)), "test").status == OPTIMAL
    problem, groups = template.lp, template.groups
    assert problem.b_le.size > _LAZY_ROWS_FROM
    starts, init = [], lp._Core.__init__

    def recording(self, a, b, lo, hi, slack):
        init(self, a, b, lo, hi, slack)
        starts.append((slack.copy(), self.basis.copy(), a.shape[1]))

    monkeypatch.setattr(lp._Core, "__init__", recording)
    sol = solve_lp(problem, row_groups=groups) if lazy else _solve_all_rows(problem)
    assert sol.status == OPTIMAL
    rows = [slack.size for slack, _, _ in starts]
    all_rows = problem.b_eq.size + problem.b_le.size
    assert rows[0] < all_rows if lazy else rows == [all_rows]
    for slack, basis, ncols in starts:
        on_artificial = basis >= ncols
        assert on_artificial.sum() == problem.b_eq.size
        assert np.array_equal(on_artificial, slack < 0)
