"""Sampling-based multicut decomposition with optional cut selection.

Each iteration samples N scenarios, runs a forward pass over the sampled
paths to collect trial decisions and realized costs, then a backward pass
from the last stage to stage 2 that adds one cut per (trial point,
realization) to the matching pool, using the freshest downstream cuts. The
lower bound z_inf is the first-stage problem solved with the stage-2 cuts
available after the backward pass; the upper bound z_sup is a one-sided
confidence bound on the sampled policy cost.

Stage subproblems carry one epigraph variable per next-stage realization,
constrained by that realization's *selected* cuts only. On the first
iteration no cuts exist and the epigraph term is dropped entirely, so the
first forward pass is myopic; every pool is populated by the first backward
pass, which builds bottom-up from exact last-stage cuts, so cut validity is
unaffected.

Cut coefficients come from the row multipliers of the stage subproblem: the
multiplier of every row in which the previous decision appears contributes
through that row's coupling block,

    beta  = -(eq_prev' duals_eq + le_prev' duals_le_model)
    theta = duals_eq . rhs_eq + duals_le_model . rhs_le
            - sum over cut rows of dual * cut_intercept,

so the cut value at its generating point equals the subproblem optimum.

Determinism: the solver is single-threaded. Scenario paths are drawn from
per-(iteration, scenario) streams and the passes solve in a fixed order, so
a run is bit-reproducible for a given seed.
"""

from __future__ import annotations

import copy
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .cuts import Cut, CutPool, SelectorSpec
from .lp import LPProblem, LPSolution, solve_lp, OPTIMAL
from .program import MultistageProgram, path_stream, sample_scenario
from .rng import gaussian_quantile

CONVERGED = "converged"
MAX_ITERATIONS = "max_iterations"


class SolverError(RuntimeError):
    pass


@dataclass(frozen=True)
class RunConfig:
    scenarios_per_iteration: int = 200        # N
    alpha: float = 0.025                      # one-sided confidence level
    epsilon: float = 0.05                     # stopping tolerance
    epsilon0: float = 1e-6                    # cut comparison tolerance
    selector: SelectorSpec = field(default_factory=SelectorSpec.level1)
    seed: int = 1
    max_iterations: int = 200

    def __post_init__(self):
        if self.scenarios_per_iteration < 1:
            raise ValueError("need at least one scenario per iteration")
        if not 0.0 < self.alpha < 0.5:
            raise ValueError("alpha must lie in (0, 0.5)")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise ValueError("epsilon must be finite and positive")
        if not (math.isfinite(self.epsilon0) and self.epsilon0 >= 0.0):
            raise ValueError("epsilon0 must be finite and nonnegative")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


@dataclass(frozen=True)
class BoundsRecord:
    iteration: int
    z_inf: float
    cost_mean: float
    cost_std: float
    z_sup: float


@dataclass(frozen=True)
class SelectionRecord:
    iteration: int
    stage: int        # 1-based stage of the recourse function (2..T)
    realization: int  # 1-based realization index
    selected: int
    total: int


@dataclass
class CutEvent:
    """Context handed to a cut inspector during the backward pass."""

    iteration: int
    stage: int        # 1-based stage of the cut's recourse function
    realization: int  # 1-based
    scenario: int     # 0-based scenario index within the iteration
    x_prev: np.ndarray
    solution: LPSolution
    model_le_rows: int  # duals_le[:model_le_rows] belong to the model's rows
    cut: Cut


@dataclass
class RunReport:
    config: RunConfig
    bounds: list = field(default_factory=list)
    selection: list = field(default_factory=list)
    cuts_added: list = field(default_factory=list)        # per iteration
    templates_built: list = field(default_factory=list)   # per iteration
    forward_seconds: list = field(default_factory=list)
    backward_seconds: list = field(default_factory=list)
    bound_seconds: list = field(default_factory=list)
    termination: str = MAX_ITERATIONS
    pools: dict = field(default_factory=dict)             # final cut pools

    @property
    def iterations(self) -> int:
        return len(self.bounds)

    @property
    def total_cuts(self) -> int:
        return int(sum(self.cuts_added))

    @property
    def final(self) -> BoundsRecord:
        return self.bounds[-1]


# ---------------------------------------------------------------------------
# stage subproblems

def make_pools(program: MultistageProgram, cfg: RunConfig) -> dict:
    """One pool per (stage index 0-based >= 1, realization index 0-based)."""
    pools = {}
    for t in range(1, program.stage_count):
        dim = program.prev_dim(t)
        for j in range(len(program.stages[t])):
            pools[(t, j)] = CutPool(t + 1, j + 1, dim, cfg.selector, cfg.epsilon0)
    return pools


class _StageTemplate:
    """The subproblem of the realizations in stage that share cost, eq_cur
    and le_cur, with the coupling right-hand side left open.

    branch lists (probability, thetas, betas) per downstream realization with
    selected cuts, one epigraph variable each. The LP (model rows plus one
    epigraph row per selected cut) is built and checked once, as realization
    j0's problem at x_prev = 0. A solve of realization j writes j's coupled
    right-hand sides into a second LP that shares that data and owns its b_eq
    and b_le. groups labels each <= row for solve_lp: model rows are group 0
    and the cut rows of the f-th epigraph variable are group f, so the LP
    layer starts a lazy solve from one cut row per epigraph variable. floor
    is the lower bound of every epigraph variable.

    Only the right-hand side moves between solves, whatever their
    realization, so all of them share one warm store (see multicut.lp). A
    template read through a carry (see _stage_templates) lives, with its
    store, until the selected cuts it was built from change, so its solves
    span passes and iterations. Which basis a solve starts from thus depends
    on the solves before it; the passes solve in a fixed order, so runs stay
    bit-reproducible.
    """

    def __init__(self, stage, j0: int, branch, floor: float):
        r = stage[j0]
        self.stage = stage
        n = r.dim
        self.m_model = r.le_cur.shape[0]
        nf = len(branch)
        c = np.concatenate([r.cost, np.zeros(nf)])
        a_eq = np.hstack([r.eq_cur, np.zeros((r.eq_cur.shape[0], nf))])
        m_le = self.m_model + sum(thetas.size for _, thetas, _ in branch)
        a_le = np.zeros((m_le, n + nf))
        a_le[:self.m_model, :n] = r.le_cur
        b_le = np.empty(m_le)
        b_le[:self.m_model] = r.rhs_le
        self.groups = np.zeros(m_le, dtype=int)
        row = self.m_model
        for fi, (prob, thetas, betas) in enumerate(branch):
            c[n + fi] = prob
            k = thetas.size
            a_le[row:row + k, :n] = betas
            a_le[row:row + k, n + fi] = -1.0
            b_le[row:row + k] = -thetas
            self.groups[row:row + k] = fi + 1
            row += k
        self.problem = LPProblem(c, a_eq, r.rhs_eq, a_le, b_le,
                                 lower=np.concatenate([np.zeros(n), np.full(nf, floor)]))
        self._trial = copy.copy(self.problem)
        self._trial.b_eq = self.problem.b_eq.copy()
        self._trial.b_le = self.problem.b_le.copy()
        self._b_le = self.problem.b_le.copy()  # cut writes realization j's b_le at x_prev = 0 here
        self.warm = {}

    def solve(self, j: int, x_prev: np.ndarray, context: str) -> LPSolution:
        r, p = self.stage[j], self._trial
        np.subtract(r.rhs_eq, r.eq_prev @ x_prev, out=p.b_eq)
        np.subtract(r.rhs_le, r.le_prev @ x_prev, out=p.b_le[:self.m_model])
        sol = solve_lp(p, row_groups=self.groups, warm=self.warm)
        if sol.status != OPTIMAL:
            raise SolverError(f"stage subproblem {sol.status} at {context}")
        return sol

    def cut(self, j: int, sol: LPSolution, iteration: int) -> Cut:
        """The cut of realization j's recourse function read off the optimal
        multipliers of sol, a solve of j; it is tight at sol's trial point.
        Its intercept is the multipliers' value on j's LP at x_prev = 0."""
        r, b_le = self.stage[j], self._b_le
        b_le[:self.m_model] = r.rhs_le
        theta = float(sol.duals_eq @ r.rhs_eq + sol.duals_le @ b_le)
        beta = -(r.eq_prev.T @ sol.duals_eq + r.le_prev.T @ sol.duals_le[:self.m_model])
        return Cut(theta, beta, iteration)


def _stage_templates(program: MultistageProgram, pools: dict, t: int, carry=None) -> list:
    """The stage-t templates indexed by realization, over the selected cuts
    of the stage-(t+1) pools, each pool read once; realizations with equal
    cost, eq_cur and le_cur share one template. Every stage variable is >= 0,
    so when no cost of stages t+1..T is negative the recourse functions are
    >= 0 and so is every epigraph variable; otherwise they are free.

    carry, when given, maps stage t to (key, templates) for one program; the
    key is the bytes the LP is built from: the epigraph floor and each
    branch's (probability, thetas, betas). When the key is unchanged the
    stored templates are returned, warm store and all, since equal bytes
    make an equal LP; otherwise they are built and replace the entry, so a
    stage holds at most one set."""
    branch = []
    if t + 1 < program.stage_count:
        for j, r in enumerate(program.stages[t + 1]):
            thetas, betas, _ = pools[(t + 1, j)].selected_cut_arrays()
            if thetas.size:
                branch.append((r.probability, thetas, betas))
    later = [r.cost for stage in program.stages[t + 1:] for r in stage]
    floor = 0.0 if all(np.all(cost >= 0.0) for cost in later) else -np.inf
    if carry is not None:
        key = (floor, [(prob, thetas.tobytes(), betas.tobytes()) for prob, thetas, betas in branch])
        held = carry.get(t)
        if held is not None and held[0] == key:
            return held[1]
    stage = program.stages[t]
    keys = [tuple((a.shape, a.tobytes()) for a in (r.cost, r.eq_cur, r.le_cur)) for r in stage]
    first = [keys.index(key) for key in keys]  # each realization's group, by its first member
    built = {j: _StageTemplate(stage, j, branch, floor) for j in set(first)}
    templates = [built[j] for j in first]
    if carry is not None:
        carry[t] = (key, templates)
    return templates


class _Carry(dict):
    """The carry run passes to every pass (see _stage_templates); built
    counts the templates put into it."""

    def __init__(self):
        super().__init__()
        self.built = 0

    def __setitem__(self, t, entry):
        super().__setitem__(t, entry)
        self.built += len({id(template) for template in entry[1]})


# ---------------------------------------------------------------------------
# passes

def forward_pass(program: MultistageProgram, pools: dict, paths: list,
                 carry=None) -> tuple:
    """Solve the sampled stage problems with the current selected cuts.
    Returns (trajectories, costs): trajectories[k][t] is scenario k's stage-t
    decision, costs[k] the realized cost sum (epigraph terms excluded).
    carry is passed on to _stage_templates, as in every pass."""
    templates = [_stage_templates(program, pools, t, carry)
                 for t in range(program.stage_count)]
    trajectories = []
    costs = []
    for k, path in enumerate(paths):
        x = program.x0
        traj = []
        cost = 0.0
        for t, j in enumerate(path):
            r = program.stages[t][j]
            sol = templates[t][j].solve(
                j, x, f"scenario {k}, stage {t + 1}, realization {j + 1} (forward)")
            x = sol.x[:r.dim]
            traj.append(x)
            cost += float(r.cost @ x)
        trajectories.append(traj)
        costs.append(cost)
    return trajectories, np.array(costs)


def backward_pass(program: MultistageProgram, pools: dict, trajectories: list,
                  iteration: int, cut_inspector=None, carry=None) -> int:
    """Add cuts at every trial point for every realization, stage T down
    to 2. Cuts are appended scenario ascending, then realization ascending;
    stage-t templates read only the stage-(t+1) pools, so adding a cut right
    after its solve leaves the other solves of the stage unchanged.
    Returns the number of cuts added."""
    added = 0
    for t in range(program.stage_count - 1, 0, -1):
        templates = _stage_templates(program, pools, t, carry)
        for k, traj in enumerate(trajectories):
            x = traj[t - 1]
            for j, template in enumerate(templates):
                sol = template.solve(j, x, f"stage {t + 1}, realization {j + 1}, trial point {k}")
                cut = template.cut(j, sol, iteration)
                pool = pools[(t, j)]
                pool.add_trial_point(x)
                try:
                    pool.add_cut(cut)
                except ValueError as exc:
                    raise SolverError(f"{exc}, trial point {k}") from exc
                added += 1
                if cut_inspector is not None:
                    cut_inspector(CutEvent(iteration, t + 1, j + 1, k, x, sol,
                                           template.m_model, cut))
    return added


def first_stage_value(program: MultistageProgram, pools: dict, carry=None) -> float:
    """Optimal value of the first-stage problem with the selected stage-2
    cuts: the lower bound z_inf."""
    return _stage_templates(program, pools, 0, carry)[0].solve(0, program.x0, "first stage").objective


def compute_bounds(program: MultistageProgram, pools: dict, costs: np.ndarray,
                   cfg: RunConfig, iteration: int, carry=None) -> BoundsRecord:
    """Bounds record for one iteration; the standard deviation uses the
    population form (divisor N)."""
    n = costs.size
    mean = float(np.sum(costs) / n)
    std = float(np.sqrt(np.sum((costs - mean) ** 2) / n))
    z_sup = mean + std / np.sqrt(n) * gaussian_quantile(1.0 - cfg.alpha)
    z_inf = first_stage_value(program, pools, carry)
    return BoundsRecord(iteration, z_inf, mean, std, float(z_sup))


def should_stop(record: BoundsRecord, epsilon: float) -> bool:
    """Stop when z_inf = 0 with z_sup <= epsilon, or when the gap is within
    epsilon relative to max(1, |z_sup|)."""
    if record.z_inf == 0.0 and record.z_sup <= epsilon:
        return True
    return abs(record.z_sup - record.z_inf) <= epsilon * max(1.0, abs(record.z_sup))


def run(program: MultistageProgram, cfg: RunConfig,
        cut_inspector=None) -> RunReport:
    """Iterate sample -> forward -> backward -> bounds -> stopping test. The
    passes share one carry, so a stage LP is built again only when the
    selected cuts it reads change."""
    pools = make_pools(program, cfg)
    carry = _Carry()
    report = RunReport(config=cfg)
    N = cfg.scenarios_per_iteration
    for iteration in range(1, cfg.max_iterations + 1):
        paths = [sample_scenario(program, path_stream(cfg.seed, iteration, k))
                 for k in range(N)]
        built = carry.built
        t0 = time.perf_counter()
        trajectories, costs = forward_pass(program, pools, paths, carry)
        t1 = time.perf_counter()
        added = backward_pass(program, pools, trajectories, iteration,
                              cut_inspector, carry)
        t2 = time.perf_counter()
        record = compute_bounds(program, pools, costs, cfg, iteration, carry)
        t3 = time.perf_counter()
        report.bounds.append(record)
        report.cuts_added.append(added)
        report.forward_seconds.append(t1 - t0)
        report.backward_seconds.append(t2 - t1)
        report.bound_seconds.append(t3 - t2)
        report.templates_built.append(carry.built - built)
        for (t, j) in sorted(pools):
            selected, total, _ = pools[(t, j)].selection_stats()
            report.selection.append(
                SelectionRecord(iteration, t + 1, j + 1, selected, total))
        if should_stop(record, cfg.epsilon):
            report.termination = CONVERGED
            break
    else:
        report.termination = MAX_ITERATIONS
    report.pools = pools
    return report
