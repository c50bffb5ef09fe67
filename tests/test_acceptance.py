"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The heavy benchmark runs (inventory T=5 and the portfolio instances with
N=200 forward scenarios) are shared between criteria through module-scoped
fixtures; the whole module takes about 13 s of wall time on a 2-core
machine.
"""

import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import linprog

from multicut.cli import main
from multicut.cuts import Cut, CutPool, SelectorSpec
from multicut.lp import LPProblem, OPTIMAL, solve_lp
from multicut.models import portfolio_closed_form_beta, portfolio_metadata, reference_configs
from multicut.program import exact_recourse_value, extensive_form_value, feasible_states
from multicut.report import stage_mean_proportions
from multicut.solver import (BoundsRecord, CONVERGED, RunConfig, run, should_stop)

SELECTORS = ("muda", "cs1", "cs2", "levelH:2")
MICRO_PRESETS = ("micro-inventory", "micro-inventory-4",
                 "micro-portfolio", "micro-portfolio-4")
EPSILON = 0.05


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    tail = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {num} {name} failed: {detail}"


def _micro_cfg(selector: str) -> RunConfig:
    return RunConfig(scenarios_per_iteration=16, epsilon=1e-6, seed=3,
                     max_iterations=6, selector=SelectorSpec.from_name(selector))


@pytest.fixture(scope="module")
def micro_runs():
    presets = reference_configs()
    out = {}
    for preset_name in MICRO_PRESETS:
        preset = presets[preset_name]
        program = preset.build()
        oracle = extensive_form_value(program)
        for selector in SELECTORS:
            t0 = time.perf_counter()
            report = run(program, _micro_cfg(selector))
            elapsed = time.perf_counter() - t0
            out[(preset_name, selector)] = (program, report, oracle, elapsed)
    return out


@pytest.fixture(scope="module")
def inv5_runs():
    preset = reference_configs()["inventory-T5"]
    program = preset.build()
    out = {}
    for selector in ("muda", "cs1", "cs2"):
        cfg = replace(preset.run, selector=SelectorSpec.from_name(selector))
        t0 = time.perf_counter()
        out[selector] = run(program, cfg)
        print(f"[fixture] inventory-T5 {selector}: {time.perf_counter() - t0:.0f}s, "
              f"{out[selector].iterations} iterations")
    return out


@pytest.fixture(scope="module")
def desk_runs():
    preset = reference_configs()["portfolio-T5n4-desk"]
    program = preset.build()
    meta = portfolio_metadata(preset.params)
    out = {}
    events = []
    for selector in ("muda", "cs1", "cs2"):
        cfg = replace(preset.run, selector=SelectorSpec.from_name(selector))
        inspector = events.append if selector == "cs2" else None
        t0 = time.perf_counter()
        out[selector] = run(program, cfg, cut_inspector=inspector)
        print(f"[fixture] portfolio desk {selector}: {time.perf_counter() - t0:.0f}s, "
              f"{out[selector].iterations} iterations")
    return out, meta, events


@pytest.fixture(scope="module")
def portfolio_count_run():
    preset = reference_configs()["portfolio-T5n4"]
    program = preset.build()
    cfg = replace(preset.run, selector=SelectorSpec.from_name("cs2"),
                  max_iterations=5, epsilon=1e-12)
    t0 = time.perf_counter()
    report = run(program, cfg)
    print(f"[fixture] portfolio-T5n4 count-law run: {time.perf_counter() - t0:.0f}s")
    return report


def _last_stage_records(report):
    last = max(s.stage for s in report.selection)
    return [s for s in report.selection if s.stage == last]


# -- 1 ------------------------------------------------------------------------

def test_criterion_1_oracle_optimality(micro_runs):
    worst_gap, worst_time = 0.0, 0.0
    for (preset_name, selector), (program, report, oracle, elapsed) in micro_runs.items():
        gap = abs(report.final.z_inf - oracle) / max(1.0, abs(oracle))
        worst_gap = max(worst_gap, gap)
        worst_time = max(worst_time, elapsed)
    _report(1, "oracle-optimality",
            worst_gap <= 1e-4 and worst_time < 10.0,
            f"worst relative gap {worst_gap:.2e}, worst runtime {worst_time:.1f}s")


# -- 2 ------------------------------------------------------------------------

def test_criterion_2_stopping_rule():
    cases = [
        (BoundsRecord(1, 0.0, 0.0, 0.0, 0.04), 0.05, True),    # z_inf = 0 clause
        (BoundsRecord(1, 9.6, 10.0, 0.0, 10.0), 0.05, True),   # 0.4 <= 0.5
        (BoundsRecord(1, -0.3, 0.0, 0.0, 0.0), 0.05, False),   # 0.3 > 0.05
        (BoundsRecord(1, 0.0, 0.0, 0.0, 0.0), 0.05, True),     # both bounds zero
        (BoundsRecord(1, 0.0, 0.06, 0.0, 0.06), 0.05, False),  # z_inf = 0, z_sup > eps
        (BoundsRecord(1, 0.94, 1.0, 0.0, 1.0), 0.05, False),   # 0.06 > 0.05
        (BoundsRecord(1, -10.2, -9.8, 0.0, -9.8), 0.05, True), # relative scale
    ]
    ok = all(should_stop(rec, eps) is expected for rec, eps, expected in cases)
    _report(2, "stopping-rule", ok, f"{len(cases)} boolean cases")


# -- 3 ------------------------------------------------------------------------

def test_criterion_3_cut_validity(micro_runs):
    worst = -np.inf
    checked = 0
    for preset_name in ("micro-inventory", "micro-portfolio"):
        program, report, _, _ = micro_runs[(preset_name, "cs1")]
        for (t, j), pool in sorted(report.pools.items()):
            thetas = np.array([pool.cut(k + 1).theta for k in range(pool.num_cuts)])
            betas = np.vstack([pool.cut(k + 1).beta for k in range(pool.num_cuts)])
            for x in feasible_states(program, t, 100, seed=1900 + 13 * t + j):
                exact = exact_recourse_value(program, t, j, x)
                overshoot = float(np.max(betas @ x + thetas)) - exact
                worst = max(worst, overshoot / max(1.0, abs(exact)))
                checked += 1
    _report(3, "cut-validity", worst <= 1e-6,
            f"{checked} states, worst relative overshoot {worst:.2e}")


# -- 4 ------------------------------------------------------------------------

def test_criterion_4_cut_count_law(inv5_runs, portfolio_count_run):
    inv = inv5_runs["muda"]
    inv_ok = inv.cuts_added[0] == 16000  # (T-1) M N = 4 * 20 * 200
    port = portfolio_count_run
    port_ok = (port.iterations == 5 and port.total_cuts == 80000
               and all(c == 16000 for c in port.cuts_added))
    _report(4, "cut-count-law", inv_ok and port_ok,
            f"inventory iteration 1: {inv.cuts_added[0]}, "
            f"portfolio 5 iterations: {port.total_cuts}")


# -- 5 ------------------------------------------------------------------------

def test_criterion_5_last_stage_keeps_everything(micro_runs, inv5_runs, desk_runs):
    reports = [micro_runs[(p, "cs1")][1] for p in MICRO_PRESETS]
    reports.append(inv5_runs["cs1"])
    reports.append(desk_runs[0]["cs1"])
    ok = True
    for report in reports:
        for record in _last_stage_records(report):
            if record.selected != record.total:
                ok = False
    _report(5, "last-stage-completeness", ok,
            f"{len(reports)} cs1 runs, last-stage proportion 1.0 at every iteration")


# -- 6 ------------------------------------------------------------------------

def test_criterion_6_mlm_cardinality(micro_runs, inv5_runs, desk_runs):
    ok = True
    details = []
    pairs = [(micro_runs[(p, "cs2")][1], micro_runs[(p, "cs1")][1], 16)
             for p in MICRO_PRESETS]
    pairs.append((inv5_runs["cs2"], inv5_runs["cs1"], 200))
    pairs.append((desk_runs[0]["cs2"], desk_runs[0]["cs1"], 100))
    for cs2_report, cs1_report, n_scenarios in pairs:
        for s in cs2_report.selection:
            if s.selected > n_scenarios * s.iteration:  # trial points accumulated
                ok = False
                details.append(f"cardinality violated at t={s.stage} j={s.realization}")
        cs2_means = stage_mean_proportions(cs2_report.selection)
        cs1_means = stage_mean_proportions(cs1_report.selection)
        for stage, mean in cs2_means.items():
            if mean > cs1_means[stage] + 1e-12:
                ok = False
                details.append(f"stage {stage}: cs2 {mean:.4f} > cs1 {cs1_means[stage]:.4f}")
    _report(6, "mlm-cardinality", ok, "; ".join(details) or
            f"{len(pairs)} run pairs compared")


# -- 7 ------------------------------------------------------------------------

def test_criterion_7_strategy_agreement(inv5_runs, desk_runs):
    ok = True
    details = []
    for label, runs in (("inventory-T5", inv5_runs), ("portfolio-desk", desk_runs[0])):
        finals = {sel: rep.final for sel, rep in runs.items()}
        for sel, rep in runs.items():
            if rep.termination != CONVERGED or not should_stop(rep.final, EPSILON):
                ok = False
                details.append(f"{label}/{sel} did not satisfy the stopping rule")
        zs = [f.z_inf for f in finals.values()]
        spread = max(zs) - min(zs)
        allowed = 2 * EPSILON * max(1.0, max(abs(z) for z in zs))
        details.append(f"{label} spread {spread:.3e} <= {allowed:.3e}")
        if spread > allowed:
            ok = False
    _report(7, "strategy-agreement", ok, "; ".join(details))


# -- 8 ------------------------------------------------------------------------

def test_criterion_8_closed_form_gradient(desk_runs):
    _, meta, events = desk_runs
    worst_beta, worst_theta = 0.0, 0.0
    for e in events:
        closed = portfolio_closed_form_beta(meta, e.stage, e.realization,
                                            e.solution.duals_eq,
                                            e.solution.duals_le[:e.model_le_rows])
        worst_beta = max(worst_beta, float(np.max(np.abs(closed - e.cut.beta))))
        worst_theta = max(worst_theta, abs(e.cut.theta))
    _report(8, "closed-form-gradient",
            bool(events) and worst_beta <= 1e-6 and worst_theta <= 1e-9,
            f"{len(events)} cuts, worst beta deviation {worst_beta:.2e}, "
            f"worst intercept {worst_theta:.2e}")


# -- 9 ------------------------------------------------------------------------

def test_criterion_9_determinism(tmp_path):
    outputs = []
    for label, workers in (("a", 1), ("b", 1), ("c", 4)):
        out = tmp_path / label
        code = main(["solve", "--preset", "micro-inventory", "--selector", "cs2",
                     "--seed", "7", "--workers", str(workers), "--out", str(out)])
        assert code == 0
        outputs.append(((out / "bounds.csv").read_bytes(),
                        (out / "selection.csv").read_bytes()))
    ok = outputs[0] == outputs[1] == outputs[2]
    _report(9, "determinism", ok,
            "bounds.csv and selection.csv byte-identical for workers 1 and 4")


# -- 10 -----------------------------------------------------------------------

def test_criterion_10_lp_core():
    rng = np.random.default_rng(20240 + 5)
    failures = []
    for trial in range(500):
        n = int(rng.integers(1, 31))
        m_eq = int(rng.integers(0, max(1, n // 2) + 1))
        m_le = int(rng.integers(0, n + 3))
        x0 = rng.uniform(0, 5, n)
        a_eq = rng.normal(size=(m_eq, n))
        b_eq = a_eq @ x0
        a_le = np.vstack([rng.normal(size=(m_le, n)), np.ones(n)])
        b_le = np.concatenate([a_le[:m_le] @ x0 + rng.uniform(0, 2, m_le),
                               [x0.sum() + 50.0]])
        c = rng.normal(size=n)
        p = LPProblem(c, a_eq if m_eq else None, b_eq if m_eq else None, a_le, b_le)
        sol = solve_lp(p)
        if sol.status != OPTIMAL:
            failures.append(f"trial {trial}: status {sol.status}")
            continue
        dual_obj = sol.duals_eq @ p.b_eq + sol.duals_le @ p.b_le
        if abs(sol.objective - dual_obj) > 1e-7 * max(1.0, abs(sol.objective)):
            failures.append(f"trial {trial}: duality gap")
        blocks = [p.a_eq] if m_eq else []
        tight = np.abs(p.a_le @ sol.x - p.b_le) <= 1e-7 * np.maximum(1.0, np.abs(p.b_le))
        blocks.append(p.a_le[tight])
        blocks.append(np.eye(n)[np.abs(sol.x) <= 1e-9])
        rank = int(np.linalg.matrix_rank(np.vstack([b for b in blocks if b.size]),
                                         tol=1e-7))
        if rank < n:
            failures.append(f"trial {trial}: rank {rank} < {n}")
    # anti-cycling on the classic degenerate instance
    beale = LPProblem([-0.75, 150.0, -0.02, 6.0],
                      a_le=[[0.25, -60.0, -0.04, 9.0],
                            [0.5, -90.0, -0.02, 3.0],
                            [0.0, 0.0, 1.0, 0.0]],
                      b_le=[0.0, 0.0, 1.0])
    sol = solve_lp(beale)
    ref = linprog(beale.c, A_ub=beale.a_le, b_ub=beale.b_le, bounds=(0, None),
                  method="highs")
    if sol.status != OPTIMAL or abs(sol.objective - ref.fun) > 1e-9:
        failures.append("cycling instance failed")
    _report(10, "lp-core", not failures,
            failures[0] if failures else "500 random LPs + cycling instance")


# -- 11 -----------------------------------------------------------------------

def test_criterion_11_epsilon0_semantics():
    ok = True
    details = []

    # documented update examples
    p = CutPool(2, 1, 1, SelectorSpec("cs1"), eps0=1e-6)
    p.add_cut(Cut(0.0, [1.0], 1))
    p.add_trial_point([0.0])
    p.add_trial_point([2.0])
    p.add_cut(Cut(2.0, [-1.0], 1))
    if not (p.argmax_set(0) == (2,) and p.best_value(0) == 2.0
            and p.argmax_set(1) == (1,) and p.best_value(1) == 2.0):
        ok = False
        details.append("two-point update example")
    p.add_cut(Cut(-10.0, [0.0], 2))
    if not (p.argmax_set(0) == (2,) and p.argmax_set(1) == (1,)):
        ok = False
        details.append("dominated cut example")
    q = CutPool(2, 1, 1, SelectorSpec("cs1"), eps0=1e-6)
    q.add_cut(Cut(1.0, [0.0], 1))
    q.add_trial_point([0.0])
    q.add_cut(Cut(1.0000005, [0.0], 2))
    if not (q.best_value(0) == 1.0 and q.argmax_set(0) == (1, 2)):
        ok = False
        details.append("tolerant tie example")

    # near-duplicate stress: 1000 cuts within eps0 of each other everywhere
    # must all stay selected under level-1 (the naive strict comparison
    # spuriously eliminates them)
    rng = np.random.default_rng(8)
    stress = CutPool(5, 1, 3, SelectorSpec("cs1"), eps0=1e-6)
    for _ in range(300):
        stress.add_trial_point(rng.uniform(-10, 10, 3))
    for k in range(1000):
        beta = rng.uniform(-1e-8, 1e-8, 3)
        theta = 1.0 + rng.uniform(0.0, 4e-7)
        stress.add_cut(Cut(theta, beta, 1 + k // 200))
    selected, total, proportion = stress.selection_stats()
    if proportion != 1.0:
        ok = False
        details.append(f"stress proportion {proportion:.4f}")
    _report(11, "epsilon0-semantics", ok, "; ".join(details) or
            "documented examples + 1000 near-duplicate cuts all kept")
