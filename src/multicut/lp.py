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

A solve starts from a crash basis (Bixby 1992). When some <= row starts
with a negative residual, each epigraph-shaped column (no upper bound, only
entries <= 0, only in <= rows, and no row shared with another such column)
is first raised just enough to make all of its rows feasible and made basic
in the row that binds last, whose slack leaves at 0; that trades one slack
for one column, so the start is still a vertex. Then each <= row whose
slack can take the row's residual starts with that slack basic, and only
equality rows and <= rows still negative get an artificial variable. A
stage problem's cut rows f >= theta + beta'x are all covered this way.
Phase 1 runs only over the artificials and is skipped when there are none.
A solve that breaks down is retried once with an artificial on every row
and no lifted column, under Bland's rule from the first pivot.

A caller that solves one LP at many right-hand sides passes a warm store,
a dict it owns, to each solve. For each row set solved (key None for the
whole problem, the activated <= rows' bytes for one lazy round) the store
keeps the entry of the last OPTIMAL solve with no artificial basic: the
basis with its inverse, the nonbasic values x_N (zero on the basis) and
their product N x_N, the basic variables' bounds with the positions of
those whose upper bound is finite, and that solve's row multipliers over
all rows. Such a basis stays dual feasible whatever b is, so when the
values it gives the basic variables, x_B = B^-1 (b - N x_N), are within
their bounds it is optimal at the new b: the solve returns them with a
copy of the stored multipliers after no pivot, pricing or set-up, and the
entry stays as it is. Otherwise the solve takes the crash start above. A
lazy solve also keeps its first relaxation in the store, computed once:
the mask of the rows it leaves out and the rows it holds. A lazy warm hit
is then one store lookup and one separation pass over the left-out rows.
The store is valid only across problems that differ in b_eq and b_le
alone and are solved with the same row groups.

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
    dxb, floored at 0; inf where |dxb| <= _TOL_PIVOT or the bound is infinite."""
    out = np.full(dxb.size, np.inf)
    np.divide(xb - lob, -dxb, out=out, where=dxb < -_TOL_PIVOT)
    np.divide(hib - xb, dxb, out=out, where=dxb > _TOL_PIVOT)
    return np.maximum(out, 0.0, out=out)


def _lifts(a, resid, hi, slack) -> tuple:
    """(cols, rows, need): the epigraph-shaped columns a crash start raises by
    need > 0 so that every row they touch has a residual >= 0, and the row
    each one becomes basic in, the one that binds last. A column qualifies
    when it has no upper bound, no entry in a row without a slack, only
    entries <= 0 with one < 0, and no row shared with another such column."""
    cand = np.isposinf(hi)
    cand[slack[slack >= 0]] = False
    cols = np.flatnonzero(cand)
    sub = a[:, cols]
    neg = sub < 0.0
    ok = neg.any(axis=0) & ~(sub > 0.0).any(axis=0) & ~neg[slack < 0].any(axis=0)
    shared = neg[:, ok].sum(axis=1) > 1
    ok &= ~neg[shared].any(axis=0)
    cols, sub, neg = cols[ok], sub[:, ok], neg[:, ok]
    ratio = np.divide(resid[:, None], sub, out=np.full(sub.shape, -np.inf), where=neg)
    rows = np.argmax(ratio, axis=0)
    need = ratio[rows, np.arange(cols.size)]
    up = need > 0.0
    return cols[up], rows[up], need[up]


class _Core:
    """Revised simplex on  min c'x, A x = b, lo <= x <= hi  (A includes slacks).

    The start puts every variable at a finite bound (0 if free). slack[i] is
    the column of row i's slack, a unit column, or -1 if the row has none.
    If a slack row has a negative residual b - A start, the columns _lifts
    picks are raised until their rows are feasible, each basic in its row
    that binds last in place of that row's slack, which stays nonbasic at
    0; the basis inverse is the +-1 diagonal with one eta column per lifted
    column, and the start stays a vertex. A row whose slack can take the
    residual (a slack row with a residual >= 0) starts with that slack
    basic; every other row gets an artificial column of sign +-1 past the
    given ones, so phase 1 runs only over those artificials.

    xval holds every variable's value, basic and nonbasic. A nonbasic column
    scores -d where it can rise and d where it can fall (d its reduced cost),
    and improves when its score exceeds dj_tol. Dantzig's rule enters the
    highest score, ties to the lowest column; after _STALL_LIMIT degenerate
    pivots in a row, Bland's rule enters the lowest improving column."""

    def __init__(self, a: np.ndarray, b: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                 slack: np.ndarray):
        m, n = a.shape
        start = np.where(np.isfinite(lo), lo, np.where(np.isfinite(hi), hi, 0.0))
        resid = b - a @ start
        cols = rows = np.zeros(0, dtype=int)
        if np.any((slack >= 0) & (resid < 0.0)):
            cols, rows, need = _lifts(a, resid, hi, slack)
            start[cols] += need
            resid -= a[:, cols] @ need
            # the rows of a lifted column are feasible up to rounding
            np.maximum(resid, 0.0, out=resid, where=(a[:, cols] != 0.0).any(axis=1))
        sign = np.where(resid >= 0.0, 1.0, -1.0)
        crash = (slack >= 0) & (resid >= 0.0)  # rows whose own slack starts basic
        art = np.flatnonzero(~crash)
        self.a = np.hstack([a, np.diag(sign)[:, art]])
        self.b = b
        self.lo = np.concatenate([lo, np.zeros(art.size)])
        self.hi = np.concatenate([hi, np.full(art.size, np.inf)])
        self.basis = slack.copy()
        self.basis[art] = np.arange(n, n + art.size)
        self.xval = np.concatenate([start, np.abs(resid[art])])
        self.xval[self.basis[crash]] = resid[crash]
        self.xval[slack[rows]] = 0.0  # the slack a lifted column replaces
        self.basis[rows] = cols
        self.in_basis = np.zeros(n + art.size, dtype=bool)
        self.in_basis[self.basis] = True
        self.binv = np.diag(sign)
        piv = a[rows, cols]
        self.binv[:, rows] = -a[:, cols] / piv
        self.binv[rows, rows] = 1.0 / piv
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


def _warm_hit(p: LPProblem, b: np.ndarray, basis, binv, x_n, r0, lob, hib, y, capped):
    """The solution at a warm store entry, or None when its basis is not
    primal feasible at b. A basic value may pass its bound by as much as
    phase 1 accepts as feasible, and is then clipped onto it. Only the basic
    positions in capped have a finite upper bound, so only they are tested
    and clipped against it."""
    xb = binv @ (b - r0)
    tol = _TOL_FEAS * max(1.0, float(np.abs(b).max(initial=0.0)))
    if (xb < lob - tol).any():
        return None
    np.maximum(xb, lob, out=xb)
    if capped.size:
        top = hib[capped]
        if (xb[capped] > top + tol).any():
            return None
        xb[capped] = np.minimum(xb[capped], top)
    xval = x_n.copy()
    xval[basis] = xb
    x = xval[:p.n]
    np.copyto(x, p.lower, where=np.abs(x - p.lower) < 1e-12)
    y = y.copy()
    return LPSolution(OPTIMAL, x, y[:p.b_eq.size], y[p.b_eq.size:], float(p.c @ x))


def _solve_all_rows(p: LPProblem, le_rows=None, warm=None) -> LPSolution:
    """Two-phase solve of p, or of only its <= rows listed in le_rows when
    given. Multipliers and the infeasibility certificate are indexed by all
    rows of p, with zeros on the rows left out. A warm hit for this row set
    answers first; otherwise the first attempt starts from the slack crash
    basis. If an attempt breaks down, one retry starts every row on an
    artificial and prices by Bland's rule from the first pivot. An optimal
    basis with no artificial basic replaces the store's entry."""
    b_le = p.b_le if le_rows is None else p.b_le[le_rows]
    b = np.concatenate([p.b_eq, b_le])
    key = None if le_rows is None else le_rows.tobytes()
    stored = None if warm is None else warm.get(key)
    sol = None if stored is None else _warm_hit(p, b, *stored)
    if sol is not None:
        return sol
    a_le = p.a_le if le_rows is None else p.a_le[le_rows]
    n, m_eq, m_le = p.n, p.b_eq.size, b_le.size
    m, ncols = m_eq + m_le, n + m_le
    a = np.zeros((m, ncols))
    a[:m_eq, :n] = p.a_eq
    a[m_eq:, :n] = a_le
    if m_le:
        a[m_eq:, n:] = np.eye(m_le)
    lo = np.concatenate([p.lower, np.zeros(m_le)])
    hi = np.concatenate([p.upper, np.full(m_le, np.inf)])

    def all_rows(y: np.ndarray) -> np.ndarray:
        if le_rows is None:
            return y
        full = np.zeros(m_eq + p.b_le.size)
        full[:m_eq] = y[:m_eq]
        full[m_eq + le_rows] = y[m_eq:]
        return full

    def attempt(slack: np.ndarray, bland: bool) -> tuple:
        core = _Core(a, b, lo, hi, slack)
        core.bland = bland
        k = core.lo.size - ncols  # artificial columns
        if k:
            c1 = np.concatenate([np.zeros(ncols), np.ones(k)])
            if core.minimize(c1) != OPTIMAL:
                return LPSolution(BREAKDOWN, pivots=core.pivots), core
            infeasibility = float(c1[core.basis] @ core.xval[core.basis])
            if infeasibility > _TOL_FEAS * max(1.0, float(np.max(np.abs(b)))):
                return LPSolution(INFEASIBLE, ray=all_rows(core._duals(c1)), pivots=core.pivots), core
            # pin artificials at zero: basic ones cannot move, nonbasic ones cannot enter
            core.lo[ncols:] = 0.0
            core.hi[ncols:] = 0.0
        c2 = np.concatenate([p.c, np.zeros(k + m_le)])
        status = core.minimize(c2)
        if status == UNBOUNDED:
            return LPSolution(UNBOUNDED, ray=core.ray[:n], pivots=core.pivots), core
        if status != OPTIMAL:
            return LPSolution(BREAKDOWN, pivots=core.pivots), core
        x = core.xval[:n].copy()
        np.copyto(x, p.lower, where=np.abs(x - p.lower) < 1e-12)
        y = all_rows(core._duals(c2))
        return LPSolution(OPTIMAL, x, y[:m_eq], y[m_eq:], float(p.c @ x), None, core.pivots), core

    sol, core = attempt(np.concatenate([np.full(m_eq, -1), np.arange(n, ncols)]), False)
    if sol.status == BREAKDOWN:
        retry, core = attempt(np.full(m, -1), True)
        retry.pivots += sol.pivots
        sol = retry
    if warm is not None and sol.status == OPTIMAL and np.all(core.basis < ncols):
        x_n = np.where(core.in_basis[:ncols], 0.0, core.xval[:ncols])
        hib = hi[core.basis]
        warm[key] = (core.basis, core.binv, x_n, a @ x_n, lo[core.basis], hib,
                     np.concatenate([sol.duals_eq, sol.duals_le]), np.flatnonzero(np.isfinite(hib)))
    return sol


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


def _solve_lazy(p: LPProblem, groups: np.ndarray | None, warm) -> LPSolution:
    """Solve over a growing set of <= rows until no left-out row is violated.
    The set starts from the first row of every group >= 1, so callers can
    keep rows that may never bind in group 0. A warm store keeps the first
    relaxation, its left-out mask and its rows, under a key no row set has."""
    first = None if warm is None else warm.get("first rows")
    if first is None:
        excluded = np.ones(p.b_le.size, dtype=bool)
        if groups is not None:
            excluded[_first_rows(groups)] = False
        first = excluded, np.flatnonzero(~excluded)
        if warm is not None:
            warm["first rows"] = first
    excluded, rows = first
    pivots = 0
    while True:
        sol = _solve_all_rows(p, rows, warm)
        pivots += sol.pivots
        sol.pivots = pivots
        if sol.status == OPTIMAL:
            amount = p.a_le @ sol.x - p.b_le
            thresh = _TOL_FEAS * np.maximum(1.0, np.abs(p.b_le))
            if not ((amount > thresh) & excluded).any():
                sol.activated_rows = rows.copy()
                return sol
            picked = _pick_violated(excluded, amount[excluded], thresh[excluded], groups)
        elif sol.status == UNBOUNDED:
            picked = _pick_violated(excluded, (p.a_le @ sol.ray)[excluded], 1e-12, groups)
            if not picked.size:
                return sol
        else:
            return sol
        excluded = excluded.copy()  # the store's mask stays the first relaxation's
        excluded[picked] = False
        rows = np.flatnonzero(~excluded)


def solve_lp(problem: LPProblem, row_groups=None, warm=None) -> LPSolution:
    """Solve to a vertex optimum with row multipliers.

    Problems with more than _LAZY_ROWS_FROM <= rows take the lazy path, and
    row_groups applies only there. It labels every <= row with a group
    number >= 0. The first relaxation holds the first row of every group
    >= 1, so a caller that bounds one free epigraph variable per group
    starts from a bounded problem. Each round then activates the worst
    violated row of each group, for at most _LAZY_BATCH groups. Without
    row_groups the first relaxation holds no <= rows and every row is its
    own group.

    warm is a warm store (see the module docstring) shared by every solve of
    one family of problems; with another c, a_eq, a_le or bound vector a
    stored basis need not be dual feasible, nor even a basis.
    """
    if problem.b_le.size > _LAZY_ROWS_FROM:
        return _solve_lazy(problem, None if row_groups is None else np.asarray(row_groups), warm)
    return _solve_all_rows(problem, None, warm)
