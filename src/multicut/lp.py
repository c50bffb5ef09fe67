"""Dense two-phase revised simplex with bounded variables and row duals.

Solves    min c'x   s.t.   A_eq x = b_eq,   A_le x <= b_le,   lower <= x <= upper

with the default bounds x >= 0. The solver terminates on a basic solution,
i.e. a vertex of the feasible polyhedron, and returns one multiplier per row
signed so that at optimality

    objective == duals_eq . b_eq + duals_le . b_le

whenever the only active variable bounds are x >= 0 (multipliers of binding
<= rows then come out nonpositive for a minimization). This is the sign
convention the decomposition passes rely on to build valid lower-bounding
cuts from the multipliers of the state-coupled rows.

Pricing gives each nonbasic column one score: minus its reduced cost where it
can rise, its reduced cost where it can fall, the larger where it can do both.
Dantzig's rule enters the highest score, ties to the lowest column; after
_STALL_LIMIT degenerate pivots in a row the solver switches for good to
Bland's rule, the lowest improving column, which cannot cycle. One vector,
_Core.xval, holds the value of every variable, basic and nonbasic.
Problems with more than _LAZY_ROWS_FROM inequality rows (the cut-constrained
stage problems) are solved by activating violated rows lazily around the same
simplex core. The caller may label each <= row with a group: the first
relaxation holds the first row of every group >= 1, and each round adds the
worst violated row of each group. A stage problem puts its model rows in
group 0 and the cut rows of its f-th epigraph variable in group f, so every
epigraph variable is bounded from the first round. Rows never activated carry
zero multipliers, and the returned point is still a vertex of the full
polyhedron because it is a feasible vertex of a relaxation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
BREAKDOWN = "breakdown"

_TOL_FEAS = 1e-8       # feasibility, relative to row scale
_TOL_DJ = 1e-9         # reduced-cost optimality threshold
_TOL_PIVOT = 1e-10     # smallest admissible pivot element
_STALL_LIMIT = 100     # degenerate pivots before switching to Bland's rule
_REFACTOR_EVERY = 50   # basis refactorizations
_LAZY_ROWS_FROM = 48   # activate <= rows lazily above this row count
_LAZY_BATCH = 32       # row groups activated per round


def _as_matrix(a, ncols: int) -> np.ndarray:
    if a is None:
        return np.zeros((0, ncols))
    a = np.asarray(a, dtype=float)
    if a.ndim == 1:
        a = a.reshape(1, -1)
    return a


def _as_vector(v, length: int | None = None) -> np.ndarray:
    if v is None:
        return np.zeros(0 if length is None else length)
    out = np.atleast_1d(np.asarray(v, dtype=float))
    return out


@dataclass
class LPProblem:
    """min c'x s.t. a_eq x = b_eq, a_le x <= b_le, lower <= x <= upper."""

    c: np.ndarray
    a_eq: np.ndarray = None
    b_eq: np.ndarray = None
    a_le: np.ndarray = None
    b_le: np.ndarray = None
    lower: np.ndarray = None
    upper: np.ndarray = None

    def __post_init__(self):
        self.c = _as_vector(self.c)
        n = self.c.size
        self.a_eq = _as_matrix(self.a_eq, n)
        self.a_le = _as_matrix(self.a_le, n)
        self.b_eq = _as_vector(self.b_eq, self.a_eq.shape[0])
        self.b_le = _as_vector(self.b_le, self.a_le.shape[0])
        self.lower = np.zeros(n) if self.lower is None else _as_vector(self.lower)
        self.upper = np.full(n, np.inf) if self.upper is None else _as_vector(self.upper)
        if self.a_eq.shape != (self.b_eq.size, n):
            raise ValueError(f"equality block is {self.a_eq.shape}, expected ({self.b_eq.size}, {n})")
        if self.a_le.shape != (self.b_le.size, n):
            raise ValueError(f"inequality block is {self.a_le.shape}, expected ({self.b_le.size}, {n})")
        if self.lower.size != n or self.upper.size != n:
            raise ValueError("bound vectors must match the variable count")
        if not np.all(self.lower <= self.upper):
            raise ValueError("variable bounds must hold no NaN and satisfy lower <= upper")
        for name, arr in (("c", self.c), ("a_eq", self.a_eq), ("b_eq", self.b_eq),
                          ("a_le", self.a_le), ("b_le", self.b_le)):
            if arr.size and not np.all(np.isfinite(arr)):
                raise ValueError(f"non-finite coefficient in {name}")

    @property
    def n(self) -> int:
        return self.c.size


@dataclass
class LPSolution:
    status: str
    x: np.ndarray = None
    duals_eq: np.ndarray = None
    duals_le: np.ndarray = None
    objective: float = np.nan
    ray: np.ndarray = None          # unbounded direction / infeasibility certificate
    pivots: int = 0
    activated_rows: np.ndarray = None  # <= rows the lazy loop actually added


def _entering(d, nonbasic, xval, lo, hi, dj_tol: float, bland: bool):
    """The entering column and its direction (+1.0 up, -1.0 down) under the
    one-score rule of _Core, or None at optimality."""
    score = np.maximum(np.where(nonbasic & (xval < hi), -d, 0.0),
                       np.where(nonbasic & (xval > lo), d, 0.0))
    j = int(np.argmax(score > dj_tol if bland else score))
    if score[j] <= dj_tol:
        return None
    return j, 1.0 if d[j] < 0.0 else -1.0


def _ratios(dxb, xb, lob, hib) -> np.ndarray:
    """Step at which each basic variable meets the bound it moves toward along
    dxb, floored at 0; inf where |dxb| <= _TOL_PIVOT or the bound is infinite.
    The branch a row does not take may divide by zero, so warnings are off."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return np.maximum(np.where(dxb < -_TOL_PIVOT, (xb - lob) / -dxb,
                                   np.where(dxb > _TOL_PIVOT, (hib - xb) / dxb, np.inf)), 0.0)


class _Core:
    """Revised simplex on  min c'x, A x = b, lo <= x <= hi  (A includes slacks).

    xval holds every variable's value, basic and nonbasic. A nonbasic column
    scores -d where it can rise and d where it can fall (d its reduced cost),
    and improves when its score exceeds dj_tol. Dantzig's rule enters the
    highest score, ties to the lowest column; after _STALL_LIMIT degenerate
    pivots in a row, Bland's rule enters the lowest improving column."""

    def __init__(self, a: np.ndarray, b: np.ndarray, lo: np.ndarray, hi: np.ndarray):
        m, n = a.shape
        start = np.where(np.isfinite(lo), lo, np.where(np.isfinite(hi), hi, 0.0))
        resid = b - a @ start
        sign = np.where(resid >= 0.0, 1.0, -1.0)
        self.a = np.hstack([a, np.diag(sign)])
        self.b = b
        self.lo = np.concatenate([lo, np.zeros(m)])
        self.hi = np.concatenate([hi, np.full(m, np.inf)])
        self.xval = np.concatenate([start, np.abs(resid)])
        self.basis = np.arange(n, n + m)
        self.in_basis = np.arange(n + m) >= n
        self.binv = np.diag(sign)  # inverse of diag(sign)
        self.pivots = 0
        self.bland = False
        self.stall = 0
        self.max_pivots = 20000 + 200 * (m + n)
        self.ray = None

    # -- basis maintenance -------------------------------------------------

    def _refactor(self) -> bool:
        try:
            self.binv = np.linalg.inv(self.a[:, self.basis])
        except np.linalg.LinAlgError:
            return False
        self.xval[self.basis] = 0.0
        self.xval[self.basis] = self.binv @ (self.b - self.a @ self.xval)
        return True

    def _duals(self, c: np.ndarray) -> np.ndarray:
        return self.binv.T @ c[self.basis]

    # -- main loop ---------------------------------------------------------

    def minimize(self, c: np.ndarray) -> str:
        if not c.size:
            return OPTIMAL
        dj_tol = _TOL_DJ * max(1.0, float(np.max(np.abs(c))))
        basis, xval = self.basis, self.xval
        while True:
            if self.pivots >= self.max_pivots:
                return BREAKDOWN
            if self.pivots and self.pivots % _REFACTOR_EVERY == 0 and not self._refactor():
                return BREAKDOWN
            d = c - self.a.T @ self._duals(c)
            enter = _entering(d, ~self.in_basis, xval, self.lo, self.hi, dj_tol, self.bland)
            if enter is None:
                return OPTIMAL
            j, sigma = enter

            w = self.binv @ self.a[:, j]
            dxb = -sigma * w
            ratios = _ratios(dxb, xval[basis], self.lo[basis], self.hi[basis])
            basic_min = float(ratios.min(initial=np.inf))
            span = self.hi[j] - self.lo[j]  # bound-to-bound flip distance
            delta = min(basic_min, span)
            if not np.isfinite(delta):
                self.ray = ray = np.zeros_like(xval)
                ray[j] = sigma
                ray[basis] = dxb
                return UNBOUNDED

            # a pivot with (near) zero step length is degenerate
            self.stall = self.stall + 1 if delta <= 1e-12 else 0
            if self.stall >= _STALL_LIMIT:
                self.bland = True

            self.pivots += 1
            if span < basic_min - 1e-300 and np.isfinite(span):
                # entering variable flips to its opposite bound; basis unchanged
                xval[basis] += dxb * span
                xval[j] = self.hi[j] if sigma > 0 else self.lo[j]
                continue
            tied = np.nonzero(ratios <= basic_min)[0]
            r = int(tied[np.argmin(basis[tied])])
            leaving = basis[r]
            xval[basis] += dxb * delta
            xval[leaving] = self.lo[leaving] if dxb[r] < 0 else self.hi[leaving]
            xval[j] += sigma * delta
            self.in_basis[leaving] = False
            self.in_basis[j] = True
            basis[r] = j
            piv = w[r]
            if abs(piv) < _TOL_PIVOT:
                if not self._refactor():
                    return BREAKDOWN
                continue
            br = self.binv[r] / piv
            self.binv -= np.outer(w, br)
            self.binv[r] = br


def _solve_all_rows(p: LPProblem, le_rows=None) -> LPSolution:
    """Two-phase solve of p, or of only its <= rows listed in le_rows when
    given. Multipliers and the infeasibility certificate are indexed by all
    rows of p, with zeros on the rows left out."""
    a_le, b_le = p.a_le, p.b_le
    if le_rows is not None:
        a_le, b_le = a_le[le_rows], b_le[le_rows]
    n, m_eq, m_le = p.n, p.b_eq.size, b_le.size
    m, ncols = m_eq + m_le, n + m_le
    a = np.zeros((m, ncols))
    a[:m_eq, :n] = p.a_eq
    a[m_eq:, :n] = a_le
    if m_le:
        a[m_eq:, n:] = np.eye(m_le)
    b = np.concatenate([p.b_eq, b_le])
    core = _Core(a, b, np.concatenate([p.lower, np.zeros(m_le)]),
                 np.concatenate([p.upper, np.full(m_le, np.inf)]))

    def all_rows(y: np.ndarray) -> np.ndarray:
        if le_rows is None:
            return y
        full = np.zeros(m_eq + p.b_le.size)
        full[:m_eq] = y[:m_eq]
        full[m_eq + le_rows] = y[m_eq:]
        return full

    if m:
        c1 = np.concatenate([np.zeros(ncols), np.ones(m)])
        if core.minimize(c1) != OPTIMAL:
            return LPSolution(BREAKDOWN, pivots=core.pivots)
        infeasibility = float(c1[core.basis] @ core.xval[core.basis])
        if infeasibility > _TOL_FEAS * max(1.0, float(np.max(np.abs(b)))):
            return LPSolution(INFEASIBLE, ray=all_rows(core._duals(c1)), pivots=core.pivots)
        # pin artificials at zero: basic ones cannot move, nonbasic ones cannot enter
        core.lo[ncols:] = 0.0
        core.hi[ncols:] = 0.0
    c2 = np.concatenate([p.c, np.zeros(m_le + m)])
    status = core.minimize(c2)
    if status == UNBOUNDED:
        return LPSolution(UNBOUNDED, ray=core.ray[:n], pivots=core.pivots)
    if status != OPTIMAL:
        return LPSolution(BREAKDOWN, pivots=core.pivots)
    x = core.xval[:n].copy()
    np.copyto(x, p.lower, where=np.abs(x - p.lower) < 1e-12)
    y = all_rows(core._duals(c2))
    return LPSolution(OPTIMAL, x, y[:m_eq], y[m_eq:], float(p.c @ x), None, core.pivots)


def _first_rows(groups: np.ndarray) -> np.ndarray:
    """The first row of every group >= 1, found without sorting."""
    m = groups.size
    first = np.full(int(groups.max()) + 1, m)
    np.minimum.at(first, groups, np.arange(m))
    return first[1:][first[1:] < m]


def _pick_violated(excluded: np.ndarray, amount: np.ndarray, thresh,
                   groups: np.ndarray | None) -> np.ndarray:
    """Rows to activate: the worst violated row of each group, worst first,
    at most _LAZY_BATCH groups; ties go to the lowest row. amount and thresh
    are given for the excluded rows only. Without groups every row is its
    own group."""
    hot = np.flatnonzero(amount > thresh)
    if not hot.size:
        return hot
    rows = np.flatnonzero(excluded)[hot]
    rows = rows[np.argsort(-amount[hot], kind="stable")]
    if groups is not None:
        _, first = np.unique(groups[rows], return_index=True)
        rows = rows[np.sort(first)]
    return rows[:_LAZY_BATCH]


def _solve_lazy(p: LPProblem, groups: np.ndarray | None) -> LPSolution:
    """Solve over a growing set of <= rows until no left-out row is violated.
    The set starts from the first row of every group >= 1, so callers can
    keep rows that may never bind in group 0."""
    row_scale = np.maximum(1.0, np.abs(p.b_le))
    excluded = np.ones(p.b_le.size, dtype=bool)
    if groups is not None:
        excluded[_first_rows(groups)] = False
    pivots = 0
    while True:
        sol = _solve_all_rows(p, np.flatnonzero(~excluded))
        pivots += sol.pivots
        sol.pivots = pivots
        if sol.status == UNBOUNDED:
            amount, thresh = p.a_le[excluded] @ sol.ray, 1e-12
        elif sol.status == OPTIMAL:
            amount = p.a_le[excluded] @ sol.x - p.b_le[excluded]
            thresh = _TOL_FEAS * row_scale[excluded]
        else:
            return sol
        picked = _pick_violated(excluded, amount, thresh, groups)
        if not picked.size:
            if sol.status == OPTIMAL:
                sol.activated_rows = np.flatnonzero(~excluded)
            return sol
        excluded[picked] = False


def solve_lp(problem: LPProblem, row_groups=None) -> LPSolution:
    """Solve to a vertex optimum with row multipliers.

    Problems with more than _LAZY_ROWS_FROM <= rows take the lazy path, and
    row_groups applies only there. It labels every <= row with a group
    number >= 0. The first relaxation holds the first row of every group
    >= 1, so a caller that bounds one free epigraph variable per group
    starts from a bounded problem. Each round then activates the worst
    violated row of each group, for at most _LAZY_BATCH groups. Without
    row_groups the first relaxation holds no <= rows and every row is its
    own group.
    """
    if problem.b_le.size > _LAZY_ROWS_FROM:
        return _solve_lazy(problem, None if row_groups is None else np.asarray(row_groups))
    return _solve_all_rows(problem)
