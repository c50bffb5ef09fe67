import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from multicut.cuts import SelectorSpec
from multicut.lp import LPProblem, solve_lp
from multicut.models import (InventoryParams, PortfolioParams, inventory_demands,
                             make_inventory, make_portfolio,
                             portfolio_closed_form_beta, portfolio_metadata,
                             reference_configs)
from multicut.program import (DEFAULT_TREE_CAP, extensive_form_value, validate)
from multicut.serialize import program_from_json, program_to_json
from multicut.solver import RunConfig, run


# --- portfolio -----------------------------------------------------------------

def single_asset_params(**kw):
    base = dict(stage_count=2, assets=1, realizations=1,
                sell_cost=np.zeros((2, 1)), buy_cost=np.zeros((2, 1)),
                fixed_returns=(((1.1,),), ((1.1,),)), fixed_x0=(4.0, 3.0), seed=0)
    base.update(kw)
    return PortfolioParams(**base)


def test_portfolio_validates():
    for T, n, M in ((2, 1, 1), (3, 2, 2), (5, 4, 3)):
        prog = make_portfolio(PortfolioParams(stage_count=T, assets=n,
                                              realizations=M, seed=9))
        assert validate(prog) == []


def test_single_asset_all_in_growth():
    # zero transaction costs, gross return 1.1 beats cash 1.001, u = 1:
    # put all wealth in the asset each stage; the optimum is the negated
    # compounded wealth
    prog = make_portfolio(single_asset_params())
    w1 = 1.1 * 4.0 + 1.001 * 3.0
    assert extensive_form_value(prog) == pytest.approx(-(1.1 ** 2) * w1, rel=1e-9)


def test_sale_cap_binds_when_liquidation_is_optimal():
    # terminal weights value the asset at 0.5 and cash at 1.001, so the last
    # rebalancing liquidates everything; the sale cap y <= xi * x_prev then
    # holds with equality at the vertex
    params = single_asset_params(terminal_mean_return=(0.5, 1.001))
    prog = make_portfolio(params)
    # hold through stage 1 (the asset still returns 1.1 into stage 2), then
    # convert all to cash at stage 2
    w1 = 1.1 * 4.0 + 1.001 * 3.0
    assert extensive_form_value(prog) == pytest.approx(-1.001 * 1.1 * w1, rel=1e-9)
    r2 = prog.stages[1][0]
    x_prev = np.array([w1, 0.0, 0.0, 0.0])  # all-in-asset stage-1 decision
    sol = solve_lp(LPProblem(r2.cost, r2.eq_cur, r2.rhs_eq - r2.eq_prev @ x_prev,
                             r2.le_cur, r2.rhs_le - r2.le_prev @ x_prev))
    y2 = sol.x[2]
    assert y2 == pytest.approx(1.1 * w1, abs=1e-9)  # sells the grown holding


def test_portfolio_cuts_have_zero_intercept():
    preset = reference_configs()["micro-portfolio"]
    prog = preset.build()
    events = []
    cfg = replace(preset.run, selector=SelectorSpec("cs1"), max_iterations=2,
                  epsilon=1e-9, scenarios_per_iteration=8)
    run(prog, cfg, cut_inspector=events.append)
    assert events
    assert max(abs(e.cut.theta) for e in events) <= 1e-9


def test_portfolio_closed_form_gradient():
    preset = reference_configs()["micro-portfolio"]
    prog = preset.build()
    meta = portfolio_metadata(preset.params)
    events = []
    cfg = replace(preset.run, selector=SelectorSpec("cs1"), max_iterations=2,
                  epsilon=1e-9, scenarios_per_iteration=8)
    run(prog, cfg, cut_inspector=events.append)
    for e in events:
        closed = portfolio_closed_form_beta(
            meta, e.stage, e.realization, e.solution.duals_eq,
            e.solution.duals_le[:e.model_le_rows])
        assert np.max(np.abs(closed - e.cut.beta)) <= 1e-6


def test_portfolio_feasible_set_is_bounded():
    prog = make_portfolio(PortfolioParams(stage_count=3, assets=2,
                                          realizations=2, seed=7))
    value = extensive_form_value(prog)  # raises if unbounded
    assert np.isfinite(value)


def test_portfolio_transaction_cost_distribution():
    p = PortfolioParams(stage_count=5, assets=3, realizations=2, seed=13)
    meta = portfolio_metadata(p)
    eta = meta["eta"]
    lo, hi = 0.08 - 0.06, 0.08 + 0.06
    assert eta.shape == (5, 3)
    assert np.all(eta >= lo - 1e-12) and np.all(eta <= hi + 1e-12)
    # the support is the cosine image of {1..T}
    allowed = {round(0.08 + 0.06 * math.cos(2 * math.pi * u / 5), 12)
               for u in range(1, 6)}
    assert {round(v, 12) for v in eta.ravel()} <= allowed
    assert np.array_equal(meta["nu"], eta)  # selling cost equals buying cost


def test_portfolio_returns_scale():
    p = PortfolioParams(stage_count=4, assets=3, realizations=10, seed=3)
    meta = portfolio_metadata(p)
    for t, rows in enumerate(meta["returns"]):
        assert len(rows) == (1 if t == 0 else 10)
        for xi in rows:
            assert xi[-1] == 1.001
            assert np.all(xi[:-1] > 0.9) and np.all(xi[:-1] < 1.1)


def test_portfolio_x0_range():
    p = PortfolioParams(stage_count=3, assets=2, realizations=2, seed=31)
    meta = portfolio_metadata(p)
    x0 = meta["x0"]
    assert x0.shape == (7,)
    assert np.all(x0[:3] >= 0.0) and np.all(x0[:3] <= 10.0)
    assert np.all(x0[3:] == 0.0)


def test_portfolio_param_validation():
    with pytest.raises(ValueError):
        PortfolioParams(position_limit=0.0)
    with pytest.raises(ValueError):
        PortfolioParams(stage_count=1)
    with pytest.raises(ValueError):
        PortfolioParams(sell_cost=np.full((2, 2), -0.1), stage_count=2, assets=2)


# --- inventory -----------------------------------------------------------------

def test_buy_cost_schedule():
    p = InventoryParams(stage_count=5, realizations=2, seed=1)
    assert p.buy_cost[0] == pytest.approx(1.5 + math.cos(math.pi / 6), abs=1e-12)
    assert p.buy_cost[0] == pytest.approx(2.3660254037844387, abs=1e-12)
    assert p.demand_means == (5.5, 6.0, 6.5, 7.0, 7.5)


def test_single_stage_cost_structure():
    # y=10, deterministic demand 5, c=2.366, b=2.8, h=0.2: buying is
    # dominated, optimal cost is the holding cost of the surplus, 1.0.
    # Independent check: minimize the nonlinear stage cost over a grid.
    c, b, h, y, d = 2.366, 2.8, 0.2, 10.0, 5.0
    grid = np.arange(y, y + 8.0, 1e-3)
    exact = min(c * (x - y) + b * max(0.0, d - x) + h * max(0.0, x - d)
                for x in grid)
    assert exact == pytest.approx(1.0, abs=1e-9)
    params = InventoryParams(stage_count=2, realizations=1, initial_stock=y,
                             buy_cost=(c, 0.0), backorder_cost=b, holding_cost=h,
                             demand_means=(d, 0.0), demand_noise=0.0, seed=1)
    prog = make_inventory(params)
    r = prog.stages[0][0]
    sol = solve_lp(LPProblem(r.cost, r.eq_cur, r.rhs_eq - r.eq_prev @ prog.x0))
    assert sol.objective == pytest.approx(exact, abs=1e-9)
    assert sol.x[0] == pytest.approx(10.0, abs=1e-9)  # order-up-to stays at stock


def test_inventory_linearization_matches_grid_enumeration():
    # T=2, M=2: enumerate order-up-to levels on a 1e-3 grid, using the exact
    # closed-form second-stage policy, and compare with the extensive form
    params = InventoryParams(stage_count=2, realizations=2, seed=17)
    prog = make_inventory(params)
    d1 = inventory_demands(params)[0][0]
    d2 = inventory_demands(params)[1]
    c1, c2 = params.buy_cost
    b, h = params.backorder_cost, params.holding_cost
    y1 = params.initial_stock

    def stage2(y2, d):
        if y2 >= d:
            return h * (y2 - d)
        # b > c2: ordering up to the demand beats backordering
        return min(c2 * (d - y2), b * (d - y2),
                   *(c2 * (x2 - y2) + b * (d - x2) for x2 in np.linspace(y2, d, 7)))

    grid = np.arange(y1, y1 + 12.0, 1e-3)
    best = np.inf
    for x1 in grid:
        cost = c1 * (x1 - y1) + b * max(0.0, d1 - x1) + h * max(0.0, x1 - d1)
        cost += np.mean([stage2(x1 - d1, d) for d in d2])
        best = min(best, cost)
    assert extensive_form_value(prog) == pytest.approx(best, abs=1e-4)


def test_inventory_demands_shape_and_truncation():
    params = InventoryParams(stage_count=4, realizations=6, demand_noise=3.0, seed=2)
    demands = inventory_demands(params)
    assert len(demands[0]) == 1 and demands[0][0] == params.demand_means[0]
    for t in (1, 2, 3):
        assert len(demands[t]) == 6
        assert all(d >= 0.0 for d in demands[t])
    # the huge noise scale must actually clip something to zero
    assert any(d == 0.0 for row in demands[1:] for d in row)


def test_inventory_complementarity_at_vertices(micro_inventory):
    cfg = RunConfig(scenarios_per_iteration=8, epsilon=1e-6, seed=3,
                    max_iterations=3, selector=SelectorSpec("cs1"))
    from multicut.program import path_stream, sample_scenario
    from multicut.solver import forward_pass, make_pools
    pools = make_pools(micro_inventory, cfg)
    paths = [sample_scenario(micro_inventory, path_stream(3, 1, k)) for k in range(8)]
    trajs, _ = forward_pass(micro_inventory, pools, paths)
    for traj in trajs:
        for x in traj:
            u, v = x[2], x[3]
            assert min(u, v) <= 1e-9  # backorder and holding never coexist


def test_inventory_warns_on_degenerate_backorder_tradeoff():
    with pytest.warns(UserWarning, match="backorder"):
        InventoryParams(stage_count=2, realizations=1, buy_cost=(3.0, 3.0), seed=1)


def test_inventory_param_validation():
    with pytest.raises(ValueError):
        InventoryParams(stage_count=1)
    with pytest.raises(ValueError):
        InventoryParams(holding_cost=-0.1)
    with pytest.raises(ValueError):
        InventoryParams(stage_count=3, buy_cost=(1.0,))


def test_inventory_validates():
    for T, M in ((2, 1), (3, 2), (5, 20)):
        prog = make_inventory(InventoryParams(stage_count=T, realizations=M, seed=8))
        assert validate(prog) == []


# --- presets ----------------------------------------------------------------------

def test_reference_configs_cover_the_benchmark_grid():
    presets = reference_configs()
    for T, n in ((5, 4), (5, 5), (5, 6), (8, 4), (8, 5), (8, 6)):
        assert f"portfolio-T{T}n{n}" in presets
    for T in (5, 10, 15, 20, 25, 30):
        assert f"inventory-T{T}" in presets
    for name in ("micro-inventory", "micro-inventory-4", "micro-portfolio",
                 "micro-portfolio-4", "portfolio-T5n4-desk"):
        assert name in presets


def test_inventory_t5_preset_parameters():
    preset = reference_configs()["inventory-T5"]
    assert preset.params.stage_count == 5
    assert preset.params.realizations == 20
    assert preset.run.scenarios_per_iteration == 200
    assert preset.run.alpha == 0.025
    assert preset.run.epsilon == 0.05


def test_portfolio_t5n4_preset_parameters():
    preset = reference_configs()["portfolio-T5n4"]
    assert preset.params.stage_count == 5
    assert preset.params.assets == 4
    assert preset.params.realizations == 20


def test_micro_presets_are_oracle_checkable():
    presets = reference_configs()
    for name in ("micro-inventory", "micro-inventory-4", "micro-portfolio",
                 "micro-portfolio-4"):
        prog = presets[name].build()
        assert validate(prog) == []
        assert prog.leaf_count() <= DEFAULT_TREE_CAP


def test_presets_build_valid_programs():
    presets = reference_configs()
    for name in ("inventory-T30", "portfolio-T8n6"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            prog = presets[name].build()
        assert validate(prog) == []


def test_preset_programs_serialize(tmp_path):
    prog = reference_configs()["micro-portfolio"].build()
    path = tmp_path / "p.json"
    program_to_json(prog, path)
    back = program_from_json(path)
    assert extensive_form_value(back) == extensive_form_value(prog)
