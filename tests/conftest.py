import numpy as np
import pytest

from multicut.cuts import NEG_INF
from multicut.lp import LPProblem
from multicut.models import InventoryParams, make_inventory
from multicut.program import MultistageProgram, StageRealization


def reference_scan(values, eps0):
    """Sequential tolerant scan in birth order, straight off the pseudo-code;
    used as the oracle for the vectorized implementation. Returns the best
    value and every maximizer; a pool stores the first `cap` of them."""
    m = NEG_INF
    argmax = []
    for k, v in enumerate(values, start=1):
        if m == NEG_INF or v > m + eps0 * max(1.0, abs(m)):
            m = v
            argmax = [k]
        elif abs(v - m) <= eps0 * max(1.0, abs(m)):
            argmax.append(k)
    return m, argmax


@pytest.fixture(scope="session")
def micro_inventory():
    return make_inventory(InventoryParams(stage_count=3, realizations=2, seed=5))


def two_stage_deterministic():
    """T=2, M=1 inventory-like chain used by several solver tests."""
    return make_inventory(InventoryParams(stage_count=2, realizations=1, seed=5))


def tiny_program(prob2=(0.5, 0.5), demands2=(4.0, 7.0)):
    """Hand-built T=2 program with one decision per stage:
    stage 1: min 1.0*x, x = 3; stage 2: min 2.0*y, y = demand - x."""
    stage1 = StageRealization(eq_cur=[[1.0]], eq_prev=[[0.0]], rhs_eq=[3.0],
                              cost=[1.0], probability=1.0)
    reals = tuple(
        StageRealization(eq_cur=[[1.0]], eq_prev=[[1.0]], rhs_eq=[d],
                         cost=[2.0], probability=p)
        for p, d in zip(prob2, demands2))
    return MultistageProgram(x0=np.zeros(1),
                             stages=((stage1,), reals))


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


def check_optimal(p: LPProblem, sol):
    """Primal and bound feasibility, dual signs, complementary slackness on
    rows and bounds, strong duality with the bound terms, and a vertex."""
    scale = max(1.0, float(np.max(np.abs(p.c))), float(np.max(np.abs(sol.x), initial=0.0)))
    assert np.all(sol.x >= p.lower - 1e-9) and np.all(sol.x <= p.upper + 1e-9)
    if p.b_eq.size:
        assert np.max(np.abs(p.a_eq @ sol.x - p.b_eq)) < 1e-7 * scale
    slack = p.b_le - p.a_le @ sol.x
    assert np.all(slack > -1e-7 * scale)
    assert np.all(sol.duals_le <= 1e-9 * scale)
    assert np.max(np.abs(sol.duals_le * slack), initial=0.0) < 1e-6 * scale
    d = p.c - p.a_eq.T @ sol.duals_eq - p.a_le.T @ sol.duals_le
    at_lo = np.abs(sol.x - p.lower) <= 1e-9
    at_hi = np.abs(sol.x - p.upper) <= 1e-9
    assert np.all(np.abs(d[~at_lo & ~at_hi]) < 1e-7 * scale)
    assert np.all(d[at_lo & ~at_hi] > -1e-7 * scale)
    assert np.all(d[at_hi & ~at_lo] < 1e-7 * scale)
    dual_obj = sol.duals_eq @ p.b_eq + sol.duals_le @ p.b_le + d[at_lo | at_hi] @ sol.x[at_lo | at_hi]
    assert abs(sol.objective - dual_obj) <= 1e-7 * max(1.0, abs(sol.objective)) * scale
    assert active_rank(p, sol.x) == p.n
