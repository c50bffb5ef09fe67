import copy

import numpy as np
import pytest
from scipy.optimize import linprog

import multicut.lp as lp
from multicut.lp import (BREAKDOWN, INFEASIBLE, LPProblem, OPTIMAL, UNBOUNDED,
                         _LAZY_BATCH, _LAZY_ROWS_FROM, _TOL_PIVOT, _entering,
                         _first_rows, _pick_violated, _ratios, _solve_all_rows, solve_lp)

from conftest import active_rank, check_optimal


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
    # classic degenerate example that cycles under naive pivoting. The slack
    # crash start is the textbook cycling basis, so Dantzig's rule makes
    # _STALL_LIMIT degenerate pivots, the stall switch turns Bland's rule on,
    # and Bland's rule finishes the solve
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
    assert not used[0] and any(used)
    if not bland:
        assert used.index(True) == lp._STALL_LIMIT


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


# --- slack crash start against the all-artificial start ----------------------------

def all_artificial(monkeypatch, bland=False):
    """Make every _Core start with an artificial on every row, as a solve
    with no crash rows does, and with Bland's rule from the first pivot when
    bland is set."""
    init, entering = lp._Core.__init__, lp._entering

    def cold(self, a, b, lo, hi, slack):
        init(self, a, b, lo, hi, np.full(b.size, -1))

    monkeypatch.setattr(lp._Core, "__init__", cold)
    if bland:
        monkeypatch.setattr(lp, "_entering", lambda *args: entering(*args[:-1], True))


def random_mixed(rng):
    """(problem, row_groups, kind): free, finite-boxed and x >= 0 variables,
    <= rows whose residual at the start has either sign, planted feasible
    point. kind 'optimal' adds rows boxing every variable, 'infeasible' a
    contradictory pair of rows, 'open' nothing (unbounded or optimal). One
    problem in three has more than _LAZY_ROWS_FROM <= rows, grouped."""
    kind = ("optimal", "infeasible", "open")[int(rng.integers(0, 3))]
    n = int(rng.integers(1, 12))
    lazy = rng.random() < 1 / 3
    m_eq = int(rng.integers(0, n // 2 + 1))
    m_le = int(rng.integers(_LAZY_ROWS_FROM + 1, 90)) if lazy else int(rng.integers(0, 2 * n + 3))
    free = rng.random(n) < 0.3
    lower = np.where(free, -np.inf, np.round(rng.uniform(-2.0, 1.0, n), 1) * (rng.random(n) < 0.5))
    upper = np.where(~free & (rng.random(n) < 0.4), lower + rng.uniform(0.5, 4.0, n), np.inf)
    x0 = np.where(free, rng.normal(size=n), lower + rng.uniform(0.0, 1.0, n)
                  * np.where(np.isfinite(upper), upper - lower, 3.0))
    a_eq = rng.normal(size=(m_eq, n))
    a_le = rng.normal(size=(m_le, n))
    b_le = a_le @ x0 + rng.uniform(0.0, 2.0, m_le) * (rng.random(m_le) < 0.7)
    if kind == "optimal":
        box = np.vstack([np.eye(n), -np.eye(n)])
        a_le = np.vstack([a_le, box])
        b_le = np.concatenate([b_le, box @ x0 + 10.0])
    elif kind == "infeasible":
        r = rng.normal(size=n)
        a_le = np.vstack([a_le, r, -r])
        b_le = np.concatenate([b_le, [r @ x0, -r @ x0 - 1.0]])
    p = LPProblem(rng.normal(size=n), a_eq, a_eq @ x0, a_le, b_le, lower, upper)
    return p, rng.integers(0, 6, b_le.size), kind


def check_matches_cold(cases, crash, cold) -> set:
    """Each solve in crash against the reference solve in cold of the same
    problem, such as its all-artificial solve; returns the (status, lazy)
    pairs seen."""
    seen = set()
    for (p, _, kind, *_), a, b in zip(cases, crash, cold):
        assert a.status == b.status
        seen.add((a.status, p.b_le.size > _LAZY_ROWS_FROM))
        if kind == "optimal":
            assert a.status == OPTIMAL
        if kind == "infeasible":
            assert a.status == INFEASIBLE
        if a.status == OPTIMAL:
            assert a.objective == pytest.approx(b.objective, rel=1e-9, abs=1e-9)
            check_optimal(p, a)
        elif a.status == UNBOUNDED:
            assert p.c @ a.ray < -1e-9
            if p.b_eq.size:
                assert np.max(np.abs(p.a_eq @ a.ray)) < 1e-9
            assert np.max(p.a_le @ a.ray, initial=0.0) < 1e-9
    return seen


def cold_solves(monkeypatch, cases) -> list:
    with monkeypatch.context() as mp:
        all_artificial(mp)
        return [solve_lp(p, row_groups=g) for p, g, *_ in cases]


@pytest.mark.parametrize("seed", range(4))
def test_crash_start_matches_all_artificial_start(seed, monkeypatch):
    rng = np.random.default_rng(2000 + seed)
    cases = [random_mixed(rng) for _ in range(60)]
    crash = [solve_lp(p, row_groups=g) for p, g, _ in cases]
    seen = check_matches_cold(cases, crash, cold_solves(monkeypatch, cases))
    assert {status for status, _ in seen} == {OPTIMAL, INFEASIBLE, UNBOUNDED}
    assert (OPTIMAL, True) in seen and (OPTIMAL, False) in seen


def random_epigraph(rng):
    """(problem, row_groups, kind, nf): random_mixed with nf epigraph-shaped
    columns appended. Each has a positive cost, no upper bound, is free or
    has a finite lower bound, and has entries < 0 only in <= cut rows of its
    own, 4 in 5 of which start with a negative residual. The first two also
    share one cut row, in a group of its own so a lazy solve holds it from
    the first round: neither of them may be lifted."""
    p, groups, kind = random_mixed(rng)
    n, nf = p.n, int(rng.integers(2, 5))
    lower_f = np.where(rng.random(nf) < 0.5, -np.inf, np.round(rng.uniform(-2.0, 2.0, nf), 1))
    start = np.concatenate([np.where(np.isfinite(p.lower), p.lower,
                                     np.where(np.isfinite(p.upper), p.upper, 0.0)),
                            np.where(np.isfinite(lower_f), lower_f, 0.0)])
    cuts, cut_groups = [], []
    for f in range(nf):
        k = int(rng.integers(1, 6 if rng.random() < 0.5 else 16))
        block = np.zeros((k, n + nf))
        block[:, :n] = rng.normal(size=(k, n))
        block[:, n + f] = -rng.uniform(0.5, 2.0, k)
        cuts.append(block)
        cut_groups.append(np.full(k, 6 + f))
    shared = np.zeros((1, n + nf))
    shared[0, :n] = rng.normal(size=n)
    shared[0, n:n + 2] = -1.0
    cuts = np.vstack(cuts + [shared])
    m = cuts.shape[0]
    b_cut = cuts @ start - rng.uniform(0.5, 3.0, m) * np.where(rng.random(m) < 0.8, 1.0, -1.0)
    b_cut[-1] = cuts[-1] @ start - 1.0
    q = LPProblem(np.concatenate([p.c, rng.uniform(0.1, 1.0, nf)]),
                  np.hstack([p.a_eq, np.zeros((p.b_eq.size, nf))]), p.b_eq,
                  np.vstack([np.hstack([p.a_le, np.zeros((p.b_le.size, nf))]), cuts]),
                  np.concatenate([p.b_le, b_cut]),
                  np.concatenate([p.lower, lower_f]), np.concatenate([p.upper, np.full(nf, np.inf)]))
    return q, np.concatenate([groups, *cut_groups, [6 + nf]]), kind, nf


@pytest.mark.parametrize("seed", range(4))
def test_lifted_start_matches_all_artificial_start(seed, monkeypatch):
    rng = np.random.default_rng(2100 + seed)
    cases = [random_epigraph(rng) for _ in range(40)]
    lifted, lifts = [], lp._lifts

    def recording(*args):
        cols, rows, need = lifts(*args)
        lifted[-1].extend(cols.tolist())
        return cols, rows, need

    crash = []
    with monkeypatch.context() as mp:
        mp.setattr(lp, "_lifts", recording)
        for p, g, *_ in cases:
            lifted.append([])
            crash.append(solve_lp(p, row_groups=g))
    seen = check_matches_cold(cases, crash, cold_solves(monkeypatch, cases))
    assert (OPTIMAL, True) in seen and (OPTIMAL, False) in seen
    assert INFEASIBLE in {status for status, _ in seen}
    took_lift = set()
    for (p, _, _, nf), cols in zip(cases, lifted):
        pair = p.n - nf + np.arange(2)
        assert not set(cols) & set(pair.tolist())
        if cols:
            took_lift.add(p.b_le.size > _LAZY_ROWS_FROM)
    assert took_lift == {False, True}


def test_all_feasible_slack_rows_skip_phase_one(monkeypatch):
    # x >= 0 with b >= 0 and no equality rows: every slack starts basic, so
    # the one minimize call is phase 2, over no artificial column
    rng = np.random.default_rng(3)
    n, m = 6, 9
    p = LPProblem(-rng.uniform(0.1, 1.0, n), a_le=rng.uniform(0.0, 1.0, (m, n)),
                  b_le=rng.uniform(1.0, 2.0, m))
    calls, minimize = [], lp._Core.minimize

    def recording(self, c):
        calls.append((c.size, self.pivots))
        return minimize(self, c)

    monkeypatch.setattr(lp._Core, "minimize", recording)
    sol = solve_lp(p)
    assert sol.status == OPTIMAL and sol.pivots > 0
    assert calls == [(n + m, 0)]
    assert sol.objective == pytest.approx(scipy_solve(p).fun, abs=1e-9)


def test_breakdown_retries_from_all_artificial_start_under_bland(monkeypatch):
    # refactor every 2 pivots and let the first refactor fail: the crash
    # attempt breaks down, and the retry must be the cold Bland solve
    monkeypatch.setattr(lp, "_REFACTOR_EVERY", 2)
    p = random_feasible_bounded(np.random.default_rng(11))
    refactor, failed = lp._Core._refactor, []

    def fail_once(self):
        if not failed:
            failed.append(self.pivots)
            return False
        return refactor(self)

    with monkeypatch.context() as mp:
        mp.setattr(lp._Core, "_refactor", fail_once)
        sol = solve_lp(p)
    with monkeypatch.context() as mp:
        all_artificial(mp, bland=True)
        cold = solve_lp(p)
    assert failed == [2]
    assert sol.status == cold.status == OPTIMAL
    assert sol.pivots == cold.pivots + 2
    assert sol.objective == cold.objective
    assert np.array_equal(sol.x, cold.x)
    assert np.array_equal(sol.duals_eq, cold.duals_eq)
    assert np.array_equal(sol.duals_le, cold.duals_le)


# --- warm start from a stored basis ------------------------------------------------

def rhs_sequence(rng, case, steps=6) -> list:
    """case, then steps - 1 copies of its problem with b_eq and b_le moved
    by 1e-3, 0.1 or 1 times a normal draw, kind 'open': small steps mostly
    keep a stored basis primal feasible, large ones often do not."""
    p, groups, kind, *rest = case
    out = [case]
    for _ in range(steps - 1):
        step = float(rng.choice([1e-3, 0.1, 1.0]))
        q = LPProblem(p.c, p.a_eq, p.b_eq + step * rng.normal(size=p.b_eq.size),
                      p.a_le, p.b_le + step * rng.normal(size=p.b_le.size), p.lower, p.upper)
        out.append((q, groups, "open", *rest))
    return out


def record_warm(monkeypatch) -> list:
    """Record each stored basis tried: (accepted, a nonbasic variable sits
    at a finite upper bound above its lower one)."""
    tried, warm_hit = [], lp._warm_hit

    def recording(p, b, basis, binv, x_n, *rest):
        nonbasic = np.ones(p.n, dtype=bool)
        nonbasic[basis[basis < p.n]] = False
        at_hi = nonbasic & np.isfinite(p.upper) & (p.upper > p.lower) & (x_n[:p.n] == p.upper)
        sol = warm_hit(p, b, basis, binv, x_n, *rest)
        tried.append((sol is not None, bool(at_hi.any())))
        return sol

    monkeypatch.setattr(lp, "_warm_hit", recording)
    return tried


@pytest.mark.parametrize("seed", range(4))
def test_warm_solves_match_store_free_solves(seed, monkeypatch):
    rng = np.random.default_rng(2200 + seed)
    tried = record_warm(monkeypatch)
    cases, warm, accepted = [], [], []
    for make in [random_mixed] * 30 + [random_epigraph] * 20:
        store = {}
        for case in rhs_sequence(rng, make(rng)):
            p, g, *_ = case
            before = len(tried)
            sol = solve_lp(p, row_groups=g, warm=store)
            cases.append(case)
            warm.append(sol)
            accepted.extend((hit, at_hi, p.b_le.size > _LAZY_ROWS_FROM, sol)
                            for hit, at_hi in tried[before:])
    seen = check_matches_cold(cases, warm, [solve_lp(p, row_groups=g) for p, g, *_ in cases])
    assert {status for status, _ in seen} == {OPTIMAL, INFEASIBLE, UNBOUNDED}
    assert (OPTIMAL, True) in seen and (OPTIMAL, False) in seen
    hits = [(at_hi, lazy, sol) for hit, at_hi, lazy, sol in accepted if hit]
    # a stored basis that stays primal feasible is optimal: no pivot
    assert all(sol.pivots == 0 for _, lazy, sol in hits if not lazy)
    assert {lazy for _, lazy, _ in hits} == {False, True}
    assert any(at_hi for at_hi, _, _ in hits)
    # a stored basis infeasible at the next point falls back to the crash start
    fell_back = [sol.status for hit, _, _, sol in accepted if not hit]
    assert OPTIMAL in fell_back and INFEASIBLE in fell_back


def test_warm_start_without_rows():
    # no rows: b is empty, the basis is empty, and the store still serves
    p = LPProblem(c=[1.0, -1.0, 0.5], lower=[0.0, 0.0, -1.0], upper=[np.inf, 2.0, 3.0])
    store = {}
    first = solve_lp(p, warm=store)
    assert list(store) == [None]
    basis, binv, x_n, r0, lob, hib, y, capped = store[None]
    assert basis.size == binv.size == r0.size == lob.size == hib.size == y.size == 0
    assert capped.size == 0
    assert x_n.tolist() == [0.0, 2.0, -1.0]  # every variable is nonbasic
    second = solve_lp(p, warm=store)
    for sol in (first, second):
        assert sol.status == OPTIMAL
        assert sol.x.tolist() == [0.0, 2.0, -1.0]
    assert second.pivots == 0


def test_store_keeps_optimal_bases_only():
    # an infeasible successor leaves the stored basis as it was
    p = LPProblem(c=[1.0, 1.0], a_eq=[[1.0, 1.0]], b_eq=[1.0], a_le=[[1.0, 0.0]], b_le=[2.0])
    store = {}
    assert solve_lp(p, warm=store).status == OPTIMAL
    kept = store[None]
    q = LPProblem(p.c, p.a_eq, [-1.0], p.a_le, p.b_le)
    assert solve_lp(q, warm=store).status == INFEASIBLE
    assert store[None] is kept


def fail(*args, **kwargs):
    raise AssertionError("a warm hit builds no core and prices nothing")


@pytest.mark.parametrize("seed", range(2))
def test_warm_hit_is_exact_and_shares_nothing(seed, monkeypatch):
    # a solve fills the store; two re-solves at the same b are hits that
    # build no core, price nothing, agree bit for bit with each other and
    # with the multipliers of the solve that filled the store, and own
    # their arrays: writing into one leaves the store and the next hit as
    # they were. A lazy hit also returns the activated rows of the solve
    # that filled the store, in an array of its own
    rng = np.random.default_rng(2400 + seed)
    hit_paths = []
    for make in [random_mixed] * 30 + [random_epigraph] * 30:
        p, g, *_ = make(rng)
        store = {}
        filled = solve_lp(p, row_groups=g, warm=store)
        if filled.status != OPTIMAL:
            continue
        kept = copy.deepcopy(store)
        first = solve_lp(p, row_groups=g, warm=store)
        if first.pivots:
            continue  # some row set's optimal basis kept an artificial basic
        hit_paths.append(p.b_le.size > _LAZY_ROWS_FROM)
        want = [first.x.tobytes(), first.duals_eq.tobytes(), first.duals_le.tobytes(),
                first.objective.hex()]
        assert want[1:3] == [filled.duals_eq.tobytes(), filled.duals_le.tobytes()]
        rows = None if first.activated_rows is None else first.activated_rows.tobytes()
        assert (rows is None) == (p.b_le.size <= _LAZY_ROWS_FROM)
        if rows is not None:
            assert rows == filled.activated_rows.tobytes()
        assert first.objective == pytest.approx(filled.objective, rel=1e-9, abs=1e-9)
        check_optimal(p, first)
        for sol in (filled, first):
            sol.x[:] = np.nan
            sol.duals_eq[:] = np.nan
            sol.duals_le[:] = np.nan
            if rows is not None:
                sol.activated_rows[:] = -1
        with monkeypatch.context() as mp:
            mp.setattr(lp._Core, "__init__", fail)
            mp.setattr(lp, "_entering", fail)
            second = solve_lp(p, row_groups=g, warm=store)
        assert second.status == OPTIMAL and second.pivots == 0
        assert [second.x.tobytes(), second.duals_eq.tobytes(), second.duals_le.tobytes(),
                second.objective.hex()] == want
        assert rows == (None if rows is None else second.activated_rows.tobytes())
        assert store.keys() == kept.keys()
        for key, entry in store.items():
            assert all(np.array_equal(a, b) for a, b in zip(entry, kept[key], strict=True))
    assert set(hit_paths) == {False, True}
    assert len(hit_paths) >= 20


def test_warm_hit_bounds_match_a_plain_test_and_clip():
    # the hit tests and clips upper bounds only where they are finite; it
    # must accept, reject and clip as the test and clip over every bound:
    # basic values of x = b (the identity basis) a little past a bound,
    # within the tolerance (0.5e-8) or beyond it (1e-6)
    rng = np.random.default_rng(2800)
    seen = set()
    for _ in range(300):
        m = int(rng.integers(1, 6))
        lower = rng.choice([0.0, -1.0, -np.inf], m)
        upper = np.where(rng.random(m) < 0.5, np.inf, np.where(np.isinf(lower), 2.0, lower + 1.0))
        side = rng.integers(0, 3, m)  # past the lower bound, past the upper bound, between
        past = rng.choice([0.5e-8, 1e-6], m)
        inside = np.where(np.isinf(lower), 0.5, lower + 0.5)
        b = np.where(side == 0, lower - past, np.where(side == 1, upper + past, inside))
        b = np.where(np.isfinite(b), b, inside)  # no bound to pass on that side
        p = LPProblem(np.zeros(m), np.eye(m), b, lower=lower, upper=upper)
        basis, eye, zeros = np.arange(m), np.eye(m), np.zeros(m)
        sol = lp._warm_hit(p, b, basis, eye, zeros, zeros, lower, upper, zeros,
                           np.flatnonzero(np.isfinite(upper)))
        tol = lp._TOL_FEAS * max(1.0, float(np.abs(b).max()))
        if (b < lower - tol).any() or (b > upper + tol).any():
            assert sol is None
            seen.add("rejected")
            continue
        want = b.clip(lower, upper)
        np.copyto(want, lower, where=np.abs(want - lower) < 1e-12)
        assert sol.x.tobytes() == want.tobytes()
        seen.update(k for k, hit in (("clipped up", (b < lower).any()),
                                     ("clipped down", (b > upper).any())) if hit)
    assert seen == {"rejected", "clipped up", "clipped down"}


def test_lazy_hit_reuses_its_first_relaxation(monkeypatch):
    # the model rows x <= 1 hold on the simplex, and each epigraph
    # variable's first cut row dominates its others there, so the first
    # relaxation is optimal: a repeated solve at the same b finds its rows
    # in the store and separates once, without picking; raising one
    # left-out row's intercept makes it violated, and the store then picks
    # the rows a store-free solve picks
    rng = np.random.default_rng(2600)
    n, nf, cuts = 3, 2, 30
    p, groups = stage_shaped(rng, nf=nf, cuts=cuts)
    first = n + cuts * np.arange(nf)
    p.b_le[:n] = 1.0
    p.a_le[first, :n] = 0.0
    p.b_le[first] = -10.0
    others = np.setdiff1d(np.arange(n, p.b_le.size), first)
    assert np.all(np.abs(p.a_le[others, :n]).max(axis=1) - p.b_le[others] < 10.0)
    calls = {"_first_rows": 0, "_pick_violated": 0, "_solve_all_rows": 0}

    def counting(name):
        real = getattr(lp, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(lp, name, counted)

    for name in calls:
        counting(name)
    store = {}
    filled = solve_lp(p, row_groups=groups, warm=store)
    assert filled.status == OPTIMAL and sorted(filled.activated_rows) == sorted(first)
    assert calls == {"_first_rows": 1, "_pick_violated": 0, "_solve_all_rows": 1}
    calls.update(dict.fromkeys(calls, 0))
    again = solve_lp(p, row_groups=groups, warm=store)
    assert calls == {"_first_rows": 0, "_pick_violated": 0, "_solve_all_rows": 1}
    assert again.pivots == 0 and again.activated_rows.tobytes() == filled.activated_rows.tobytes()

    raised = first[1] + 7
    q = LPProblem(p.c, p.a_eq, p.b_eq, p.a_le, p.b_le.copy(), p.lower)
    q.b_le[raised] = -20.0
    warm = solve_lp(q, row_groups=groups, warm=store)
    cold = solve_lp(q, row_groups=groups)
    assert warm.status == cold.status == OPTIMAL
    assert raised in warm.activated_rows
    assert warm.activated_rows.tobytes() == cold.activated_rows.tobytes()
    assert warm.objective == pytest.approx(cold.objective, abs=1e-9)
    # the store still holds the first relaxation, not the grown one
    assert solve_lp(p, row_groups=groups, warm=store).activated_rows.tobytes() == \
        filled.activated_rows.tobytes()


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

    original, cores = lp_mod._Core.__init__, []

    def starved(self, *args, **kwargs):
        original(self, *args, **kwargs)
        self.max_pivots = 1
        cores.append(self)

    monkeypatch.setattr(lp_mod._Core, "__init__", starved)
    rng = np.random.default_rng(1)
    p = random_feasible_bounded(rng, max_vars=12)
    sol = solve_lp(p)
    assert sol.status == BREAKDOWN
    # the crash attempt and the one retry both ran out of pivots
    assert len(cores) == 2 and cores[1].bland
    assert sol.pivots == 2
