import numpy as np
import pytest
from scipy.optimize import linprog

import multicut.lp as lp
from multicut.lp import (BREAKDOWN, INFEASIBLE, LPProblem, OPTIMAL, UNBOUNDED,
                         _LAZY_BATCH, _LAZY_ROWS_FROM, _TOL_PIVOT, _entering,
                         _first_rows, _pick_violated, _ratios, _solve_all_rows, solve_lp)


def random_feasible_bounded(rng, max_vars=30):
    """Random LP that is feasible (a strictly interior-ish point is planted)
    and bounded (total mass row)."""
    n = int(rng.integers(1, max_vars + 1))
    m_eq = int(rng.integers(0, max(1, n // 2) + 1))
    m_le = int(rng.integers(0, n + 3))
    x0 = rng.uniform(0, 5, n)
    a_eq = rng.normal(size=(m_eq, n))
    b_eq = a_eq @ x0
    a_le = rng.normal(size=(m_le, n))
    b_le = a_le @ x0 + rng.uniform(0.0, 2.0, m_le)
    a_le = np.vstack([a_le, np.ones(n)])
    b_le = np.concatenate([b_le, [x0.sum() + 50.0]])
    c = rng.normal(size=n)
    return LPProblem(c, a_eq if m_eq else None, b_eq if m_eq else None, a_le, b_le)


def scipy_solve(p: LPProblem):
    bounds = [(lo if np.isfinite(lo) else None, hi if np.isfinite(hi) else None)
              for lo, hi in zip(p.lower, p.upper)]
    return linprog(p.c, A_ub=p.a_le if p.b_le.size else None,
                   b_ub=p.b_le if p.b_le.size else None,
                   A_eq=p.a_eq if p.b_eq.size else None,
                   b_eq=p.b_eq if p.b_eq.size else None,
                   bounds=bounds, method="highs")


def active_rank(p: LPProblem, x: np.ndarray) -> int:
    blocks = []
    if p.b_eq.size:
        blocks.append(p.a_eq)
    if p.b_le.size:
        tight = np.abs(p.a_le @ x - p.b_le) <= 1e-7 * np.maximum(1.0, np.abs(p.b_le))
        blocks.append(p.a_le[tight])
    at_lo = np.abs(x - p.lower) <= 1e-9
    at_hi = np.isfinite(p.upper) & (np.abs(x - p.upper) <= 1e-9)
    eye = np.eye(p.n)
    blocks.append(eye[at_lo | at_hi])
    stacked = np.vstack([b for b in blocks if b.size])
    return int(np.linalg.matrix_rank(stacked, tol=1e-7))


# --- the documented examples ------------------------------------------------

def test_single_variable_vertex():
    sol = solve_lp(LPProblem(c=[-1.0], a_le=[[1.0]], b_le=[1.0]))
    assert sol.status == OPTIMAL
    assert sol.x[0] == pytest.approx(1.0, abs=1e-9)
    assert sol.objective == pytest.approx(-1.0, abs=1e-9)
    # strong duality: objective equals the inequality multiplier times rhs
    assert sol.duals_le[0] * 1.0 == pytest.approx(-1.0, abs=1e-9)


def test_contradictory_constraints_infeasible():
    sol = solve_lp(LPProblem(c=[0.0], a_eq=[[1.0]], b_eq=[-1.0]))
    assert sol.status == INFEASIBLE
    assert sol.ray is not None  # certificate kept for diagnostics


def test_simplex_face_returns_vertex():
    # min -x-y over the unit simplex: vertices are (0,0), (1,0), (0,1); the
    # whole segment between (1,0) and (0,1) is optimal, value -1
    vertices = [np.array(v) for v in ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))]
    best = min(-v.sum() for v in vertices)
    sol = solve_lp(LPProblem(c=[-1.0, -1.0], a_le=[[1.0, 1.0]], b_le=[1.0]))
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(best, abs=1e-9)
    assert any(np.allclose(sol.x, v, atol=1e-9) for v in vertices[1:])


# --- randomized battery -----------------------------------------------------

def record_pricing(monkeypatch, bland: bool) -> list:
    """Force Bland's rule after the first pivot when bland is set, and record
    whether each pricing step used it."""
    if bland:
        monkeypatch.setattr(lp, "_STALL_LIMIT", 0)
    used, entering = [], lp._entering

    def recording(*args):
        used.append(args[-1])
        return entering(*args)

    monkeypatch.setattr(lp, "_entering", recording)
    return used


@pytest.mark.parametrize("seed,bland", [pytest.param(s, False, id=str(s)) for s in range(6)]
                         + [pytest.param(s, True, id=f"bland-{s}") for s in range(6)])
def test_random_lps_match_reference(seed, bland, monkeypatch):
    used = record_pricing(monkeypatch, bland)
    rng = np.random.default_rng(1000 + seed)
    for _ in range(25):
        p = random_feasible_bounded(rng)
        sol = solve_lp(p)
        ref = scipy_solve(p)
        assert sol.status == OPTIMAL and ref.success
        assert sol.objective == pytest.approx(ref.fun, abs=1e-6 * max(1, abs(ref.fun)))
        # feasibility
        if p.b_eq.size:
            assert np.max(np.abs(p.a_eq @ sol.x - p.b_eq)) < 1e-7
        assert np.max(p.a_le @ sol.x - p.b_le) < 1e-7
        # strong duality identity (no finite upper bounds here)
        dual_obj = sol.duals_eq @ p.b_eq + sol.duals_le @ p.b_le
        assert abs(sol.objective - dual_obj) <= 1e-7 * max(1.0, abs(sol.objective))
        # complementary slackness
        slack = p.b_le - p.a_le @ sol.x
        scale = np.maximum(1.0, np.abs(p.b_le))
        assert np.max(np.abs(sol.duals_le * slack) / scale) < 1e-6
        # vertex: active constraints span the space
        assert active_rank(p, sol.x) == p.n
    assert any(used) == bland


def test_identical_problems_identical_solutions():
    rng = np.random.default_rng(77)
    p = random_feasible_bounded(rng)
    a = solve_lp(p)
    b = solve_lp(p)
    assert a.objective == b.objective
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.duals_le, b.duals_le)


# --- degeneracy and cycling ---------------------------------------------------

@pytest.mark.parametrize("bland", [False, True], ids=["dantzig", "bland"])
def test_beale_cycling_instance_terminates(bland, monkeypatch):
    # classic degenerate example that cycles under naive pivoting; Dantzig's
    # rule with lowest-column ties solves it before Bland's rule would start
    used = record_pricing(monkeypatch, bland)
    c = [-0.75, 150.0, -0.02, 6.0]
    a_le = [[0.25, -60.0, -0.04, 9.0],
            [0.5, -90.0, -0.02, 3.0],
            [0.0, 0.0, 1.0, 0.0]]
    b_le = [0.0, 0.0, 1.0]
    p = LPProblem(c, a_le=a_le, b_le=b_le)
    ref = scipy_solve(p)
    sol = solve_lp(p)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(ref.fun, abs=1e-9)
    assert sol.objective == pytest.approx(-0.05, abs=1e-9)
    assert any(used) == bland


# --- the pivot rules against the two-mask rules they replaced ---------------------

def reference_entering(d, nonbasic, xval, lo, hi, dj_tol, bland):
    """Pricing with one candidate mask per direction: Dantzig's rule takes the
    largest |d| among candidates, Bland's rule the first candidate."""
    can_inc = nonbasic & (xval < hi) & (d < -dj_tol)
    can_dec = nonbasic & (xval > lo) & (d > dj_tol)
    if not (can_inc.any() or can_dec.any()):
        return None
    if bland:
        j = int(np.nonzero(can_inc | can_dec)[0][0])
    else:
        score = np.where(can_inc, -d, 0.0)
        score = np.where(can_dec & (d > score), d, score)
        j = int(np.argmax(score))
    return j, 1.0 if can_inc[j] else -1.0


def reference_ratios(dxb, xb, lob, hib):
    """Ratio test over masked rows, with explicit guards for infinite bounds."""
    ratios = np.full(dxb.size, np.inf)
    down = dxb < -_TOL_PIVOT
    if down.any():
        ratios[down] = np.where(np.isfinite(lob[down]),
                                (xb[down] - lob[down]) / (-dxb[down]), np.inf)
    up = dxb > _TOL_PIVOT
    if up.any():
        ratios[up] = np.where(np.isfinite(hib[up]), (hib[up] - xb[up]) / dxb[up], np.inf)
    return np.maximum(ratios, 0.0)


INF = np.inf


def pricing_cases(rng):
    """(d, nonbasic, xval, lo, hi, dj_tol): boundary cases, then random ones."""
    t = 0.5
    movable = np.ones(4, dtype=bool)
    # reduced costs exactly at -dj_tol and +dj_tol do not improve ...
    at_tol = (np.array([-t, t, -4.0, 3.0]), movable, np.array([0.0, 1.0, 0.0, 1.0]),
              np.zeros(4), np.array([INF, 1.0, INF, 1.0]), t)
    yield at_tol
    # ... so with only those, the basis is optimal
    yield (at_tol[0][:2], movable[:2], at_tol[2][:2], at_tol[3][:2], at_tol[4][:2], t)
    # tied scores: at an upper bound, at a lower bound, free at 0, free at 0
    yield (np.array([1.0, -1.0, 1.0, -1.0]), movable, np.array([1.0, 0.0, 0.0, 0.0]),
           np.array([0.0, 0.0, -INF, -INF]), np.array([1.0, INF, INF, INF]), 1e-9)
    # the best scores belong to a basic free variable and a fixed variable
    yield (np.array([-9.0, 8.0, -1.0, 1.0]), np.array([False, True, True, True]),
           np.array([0.0, 2.0, 0.0, 1.0]), np.array([-INF, 2.0, 0.0, 0.0]),
           np.array([INF, 2.0, INF, 1.0]), 1e-9)
    for _ in range(400):
        k = int(rng.integers(1, 12))
        d = np.round(rng.normal(size=k), 1)  # ties, and values equal to dj_tol
        lo = rng.choice([-INF, 0.0, -1.0], k)
        hi = np.maximum(lo, rng.choice([INF, 0.0, 1.0], k))
        pick = rng.integers(0, 3, k)
        xval = np.where((pick == 0) & np.isfinite(lo), lo,
                        np.where((pick == 1) & np.isfinite(hi), hi, np.clip(0.0, lo, hi)))
        yield d, rng.random(k) < 0.7, xval, lo, hi, float(rng.choice([0.1, 0.3, 1e-9]))


@pytest.mark.parametrize("bland", [False, True])
def test_entering_matches_two_mask_pricing(bland):
    cases = list(pricing_cases(np.random.default_rng(40)))
    for case in cases:
        assert _entering(*case, bland) == reference_entering(*case, bland)
    assert [_entering(*case, bland) for case in cases[:4]] == [(2, 1.0), None, (0, -1.0), (2, 1.0)]


def ratio_cases(rng):
    """(dxb, xb, lob, hib): boundary cases, then random ones."""
    tol = _TOL_PIVOT
    # |dxb| exactly _TOL_PIVOT gives no ratio; just beyond it does
    yield (np.array([-tol, tol, -2 * tol, 2 * tol, 0.0]), np.full(5, 1.0),
           np.zeros(5), np.full(5, 3.0))
    # infinite bounds, a basic free variable, a zero step at a bound, a value
    # slightly past its bound (floored at 0)
    yield (np.array([-1.0, 1.0, -1.0, 1.0, 0.0, -2.0, 1.0]),
           np.array([5.0, 5.0, 0.0, 0.0, 0.0, -1e-12, 2.0]),
           np.array([-INF, 0.0, -INF, 0.0, 0.0, 0.0, 0.0]),
           np.array([INF, INF, INF, INF, 0.0, 1.0, 2.0]))
    for _ in range(400):
        m = int(rng.integers(1, 12))
        dxb = np.round(rng.normal(size=m), 1) * rng.choice([1.0, tol, 1e-12], m)
        lob = rng.choice([-INF, 0.0, -1.0], m)
        hib = np.maximum(lob, rng.choice([INF, 0.0, 2.0], m))
        xb = np.clip(np.round(rng.uniform(-1.5, 2.5, m), 1), lob, hib)
        yield dxb, xb, lob, hib


def test_ratios_match_masked_ratio_test():
    cases = list(ratio_cases(np.random.default_rng(41)))
    for case in cases:
        assert _ratios(*case).tobytes() == reference_ratios(*case).tobytes()
    first, second = cases[:2]
    assert _ratios(*first).tolist() == [INF, INF, 0.5e10, 1e10, INF]
    assert _ratios(*second).tolist() == [INF, INF, INF, INF, INF, 0.0, 0.0]


@pytest.mark.parametrize("c", [[1.0, 2.0], [-1.0, -2.0], [1.0, 1.0]])
def test_redundant_equality_row(c):
    # the second row is twice the first, so one artificial stays basic at
    # zero after phase 1; phase 2 must neither move it nor let it re-enter
    p = LPProblem(c, a_eq=[[1.0, 1.0], [2.0, 2.0]], b_eq=[2.0, 4.0],
                  a_le=[[1.0, 0.0]], b_le=[1.5])
    ref = scipy_solve(p)
    sol = solve_lp(p)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(ref.fun, abs=1e-9)
    assert p.a_eq @ sol.x == pytest.approx(p.b_eq, abs=1e-9)
    assert np.all(p.a_le @ sol.x <= p.b_le + 1e-9)
    assert np.all(sol.x >= 0.0)
    assert sol.objective == pytest.approx(sol.duals_eq @ p.b_eq + sol.duals_le @ p.b_le,
                                          abs=1e-9)


# --- variable bounds and free variables -----------------------------------------

def test_free_variable_epigraph():
    # min f s.t. f >= 3 - x, f >= x - 1, 0 <= x <= 2: optimum f=1 at x=2
    p = LPProblem(c=[0.0, 1.0], a_le=[[-1.0, -1.0], [1.0, -1.0]],
                  b_le=[-3.0, 1.0], lower=[0.0, -np.inf], upper=[2.0, np.inf])
    sol = solve_lp(p)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(1.0, abs=1e-9)
    assert sol.x == pytest.approx([2.0, 1.0], abs=1e-9)


def test_negative_free_optimum():
    # a free epigraph variable must be able to settle below zero
    p = LPProblem(c=[1.0], a_le=[[-1.0]], b_le=[5.0], lower=[-np.inf])
    sol = solve_lp(p)
    assert sol.status == OPTIMAL
    assert sol.x[0] == pytest.approx(-5.0, abs=1e-9)


def test_upper_bounds():
    p = LPProblem(c=[-1.0, -2.0], upper=[1.5, 2.5])
    sol = solve_lp(p)
    assert sol.status == OPTIMAL
    assert sol.x == pytest.approx([1.5, 2.5], abs=1e-9)


def test_unbounded_reports_direction():
    sol = solve_lp(LPProblem(c=[-1.0, 0.0]))
    assert sol.status == UNBOUNDED
    assert sol.ray is not None and sol.ray[0] > 0


# --- lazy row activation ----------------------------------------------------------

def test_lazy_matches_direct():
    rng = np.random.default_rng(5)
    n = 8
    x0 = rng.uniform(0, 3, n)
    a_le = rng.normal(size=(400, n))
    b_le = a_le @ x0 + rng.uniform(0.0, 1.0, 400)
    a_le = np.vstack([a_le, np.ones(n)])
    b_le = np.concatenate([b_le, [50.0]])
    c = rng.normal(size=n)
    p = LPProblem(c, a_le=a_le, b_le=b_le)
    lazy = solve_lp(p)                        # above the lazy threshold
    direct = _solve_all_rows(p)
    assert lazy.status == direct.status == OPTIMAL
    assert lazy.objective == pytest.approx(direct.objective, abs=1e-8)
    assert np.max(p.a_le @ lazy.x - p.b_le) < 1e-7
    assert lazy.activated_rows is not None
    assert len(lazy.activated_rows) < 401
    # rows never activated carry zero multipliers
    mask = np.ones(401, dtype=bool)
    mask[lazy.activated_rows] = False
    assert np.all(lazy.duals_le[mask] == 0.0)
    dual_obj = lazy.duals_le @ p.b_le
    assert abs(lazy.objective - dual_obj) <= 1e-7 * max(1.0, abs(lazy.objective))


def test_lazy_unbounded_detection():
    # f free with no activated row lower-bounding it, but blocking rows exist
    n = 3
    rows = [[0.0, 0.0, -1.0]] * 60
    p = LPProblem(c=[0.0, 0.0, 1.0], a_le=rows, b_le=[2.0] * 60,
                  lower=[0.0, 0.0, -np.inf])
    sol = solve_lp(p)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(-2.0, abs=1e-9)
    # genuinely unbounded: no row blocks the ray
    p2 = LPProblem(c=[-1.0, 0.0, 0.0], a_le=[[0.0, 1.0, 0.0]] * 60,
                   b_le=[1.0] * 60)
    sol2 = solve_lp(p2)
    assert sol2.status == UNBOUNDED


def test_lazy_infeasibility_certificate_spans_all_rows():
    # x0 + x1 = 20 against x_i <= 5 (each row twice); the 56 loose rows
    # x0 + x1 <= 1000 push the problem onto the lazy path and are never activated
    a_le = np.vstack([np.eye(2), np.eye(2), np.ones((56, 2))])
    b_le = np.concatenate([np.full(4, 5.0), np.full(56, 1000.0)])
    p = LPProblem(c=[1.0, 1.0], a_eq=[[1.0, 1.0]], b_eq=[20.0], a_le=a_le, b_le=b_le)
    a = np.vstack([p.a_eq, p.a_le])
    b = np.concatenate([p.b_eq, p.b_le])
    for sol in (solve_lp(p), _solve_all_rows(p)):
        assert sol.status == INFEASIBLE
        y = sol.ray
        assert y.shape == (p.b_eq.size + p.b_le.size,)
        # Farkas: y'b > 0 while A'y <= 0 and the <= multipliers are nonpositive
        assert y @ b > 0.0
        assert np.max(a.T @ y) <= 1e-9
        assert np.max(y[p.b_eq.size:]) <= 1e-9
    assert np.all(solve_lp(p).ray[5:] == 0.0)


def reference_pick(excluded, amount, thresh, groups):
    """The activation rule before row groups were capped: every group's worst
    offender (ties to the lowest row) with groups, else the _LAZY_BATCH
    largest amounts filtered to the violated ones."""
    ex_idx = np.nonzero(excluded)[0]
    hot = amount > thresh
    if not hot.any():
        return []
    if groups is None:
        order = np.argsort(-amount, kind="stable")
        return [int(ex_idx[pos]) for pos in order[:_LAZY_BATCH] if hot[pos]]
    picked = {}
    for pos in np.nonzero(hot)[0]:
        g = int(groups[ex_idx[pos]])
        a = float(amount[pos])
        if g not in picked or a > picked[g][0]:
            picked[g] = (a, int(ex_idx[pos]))
    return sorted(row for _, row in picked.values())


@pytest.mark.parametrize("seed", range(4))
def test_activation_rule_matches_reference(seed):
    rng = np.random.default_rng(300 + seed)
    for _ in range(50):
        m = int(rng.integers(1, 400))
        excluded = rng.random(m) < 0.8
        k = int(excluded.sum())
        # rounded amounts give exact ties between rows and within groups
        amount = np.round(rng.normal(size=k), 1)
        scaled = 0.05 * rng.uniform(0.5, 2.0, k)
        groups = rng.integers(0, int(rng.integers(1, _LAZY_BATCH + 1)), m)
        # a shared threshold of 0.1 sits exactly on some of the amounts
        for thresh, grp in ((scaled, groups), (0.1, groups), (0.1, None)):
            picked = _pick_violated(excluded, amount, thresh, grp)
            assert sorted(picked.tolist()) == sorted(reference_pick(excluded, amount, thresh, grp))
            # worst first
            pos = np.searchsorted(np.flatnonzero(excluded), picked)
            assert np.all(np.diff(amount[pos]) <= 0.0)


def test_activation_rule_caps_groups_per_round():
    excluded = np.ones(100, dtype=bool)
    amount = np.linspace(1.0, 2.0, 100)
    picked = _pick_violated(excluded, amount, 0.0, np.arange(100) // 2)
    assert len(picked) == _LAZY_BATCH
    assert picked.tolist() == list(range(99, 99 - 2 * _LAZY_BATCH, -2))


def test_first_rows_of_groups():
    groups = np.array([0, 2, 2, 0, 1, 3, 1, 2, 0, 5])
    assert sorted(_first_rows(groups).tolist()) == [1, 4, 5, 9]
    assert _first_rows(np.zeros(5, dtype=int)).size == 0


def stage_shaped(rng, nf=4, cuts=20, infeasible=False):
    """x >= 0 with sum x = 1 and x <= cap in group 0, plus nf free epigraph
    variables f_i >= theta + beta'x, each bounded by `cuts` cut rows of which
    half repeat an earlier row exactly."""
    n = 3
    c = np.concatenate([rng.uniform(0.0, 1.0, n), np.full(nf, 1.0 / nf)])
    a_eq = np.concatenate([np.ones(n), np.zeros(nf)])
    cap = 0.2 if infeasible else 0.8
    model = np.hstack([np.eye(n), np.zeros((n, nf))])
    rows, rhs, groups = [model], [np.full(n, cap)], [np.zeros(n, dtype=int)]
    for f in range(nf):
        beta = rng.normal(size=(cuts // 2, n))
        theta = rng.normal(size=cuts // 2)
        dup = rng.integers(0, cuts // 2, cuts - cuts // 2)
        beta, theta = np.vstack([beta, beta[dup]]), np.concatenate([theta, theta[dup]])
        block = np.zeros((cuts, n + nf))
        block[:, :n] = beta
        block[:, n + f] = -1.0
        rows.append(block)
        rhs.append(-theta)
        groups.append(np.full(cuts, f + 1))
    lower = np.concatenate([np.zeros(n), np.full(nf, -np.inf)])
    p = LPProblem(c, [a_eq], [1.0], np.vstack(rows), np.concatenate(rhs), lower=lower)
    return p, np.concatenate(groups)


@pytest.mark.parametrize("seed", range(5))
def test_grouped_lazy_stage_problem_matches_direct(seed):
    rng = np.random.default_rng(900 + seed)
    p, groups = stage_shaped(rng)
    assert p.b_le.size > _LAZY_ROWS_FROM
    lazy = solve_lp(p, row_groups=groups)
    direct = _solve_all_rows(p)
    assert direct.activated_rows is None
    assert lazy.status == direct.status == OPTIMAL
    assert lazy.objective == pytest.approx(direct.objective, abs=1e-9)
    assert np.max(p.a_le @ lazy.x - p.b_le) < 1e-7
    assert isinstance(lazy.activated_rows, np.ndarray)
    assert set(_first_rows(groups)) <= set(lazy.activated_rows.tolist())
    never = np.ones(p.b_le.size, dtype=bool)
    never[lazy.activated_rows] = False
    assert never.any()
    assert np.all(lazy.duals_le[never] == 0.0)
    dual_obj = lazy.duals_eq @ p.b_eq + lazy.duals_le @ p.b_le
    assert abs(lazy.objective - dual_obj) <= 1e-7 * max(1.0, abs(lazy.objective))


def test_grouped_lazy_stage_problem_infeasibility_certificate():
    # sum x = 1 against x_i <= 0.2: only the group-0 rows prove infeasibility
    p, groups = stage_shaped(np.random.default_rng(7), infeasible=True)
    a = np.vstack([p.a_eq, p.a_le])
    b = np.concatenate([p.b_eq, p.b_le])
    for sol in (solve_lp(p, row_groups=groups), _solve_all_rows(p)):
        assert sol.status == INFEASIBLE
        y = sol.ray
        assert y @ b > 0.0
        assert np.max(a.T @ y) <= 1e-9
        assert np.max(y[p.b_eq.size:]) <= 1e-9


# --- plumbing -----------------------------------------------------------------

def test_dimension_validation():
    with pytest.raises(ValueError):
        LPProblem(c=[1.0, 2.0], a_eq=[[1.0]], b_eq=[1.0])
    with pytest.raises(ValueError):
        LPProblem(c=[1.0], a_eq=[[np.inf]], b_eq=[1.0])


def test_bound_validation():
    for bounds in ({"lower": [2.0], "upper": [1.0]}, {"lower": [np.nan]},
                   {"upper": [np.nan]}, {"lower": [0.0, np.nan], "upper": [1.0, 1.0]}):
        with pytest.raises(ValueError):
            LPProblem(c=np.ones(len(next(iter(bounds.values())))), **bounds)
    # infinite bounds stay legal, and a fixed variable is not crossed
    p = LPProblem(c=[1.0, 1.0], lower=[-np.inf, 3.0], upper=[np.inf, 3.0])
    assert solve_lp(p).status == UNBOUNDED


def test_pivot_budget_exhaustion_reports_breakdown(monkeypatch):
    # starve the pivot budget: the solver must report the distinct
    # "breakdown" status instead of mislabeling the problem infeasible
    import multicut.lp as lp_mod

    original = lp_mod._Core.__init__

    def starved(self, *args, **kwargs):
        original(self, *args, **kwargs)
        self.max_pivots = 1

    monkeypatch.setattr(lp_mod._Core, "__init__", starved)
    rng = np.random.default_rng(1)
    p = random_feasible_bounded(rng, max_vars=12)
    sol = solve_lp(p)
    assert sol.status == BREAKDOWN
