"""Data model for multistage stochastic linear programs.

A program couples consecutive stage decisions through equality rows

    eq_cur x_t + eq_prev x_{t-1} = rhs_eq,    x_t >= 0,

plus optional inequality rows  le_cur x_t + le_prev x_{t-1} <= rhs_le  (the
portfolio position limits put the previous decision into inequalities, so
the coupling blocks exist for both row kinds). Stage 1 couples to the fixed
initial decision x0. Each stage carries a finite distribution over its row
data, the tuple of its realizations, each with its probability; stage 1 is
deterministic (a single realization). A scenario path is a tuple holding one
0-based realization index per stage.

The module also provides the deterministic-equivalent ("extensive form")
LP over the full scenario tree, which serves as the correctness oracle for
the decomposition solver on instances small enough to enumerate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lp import LPProblem, solve_lp, OPTIMAL
from .rng import SplitMix64, stream

DEFAULT_TREE_CAP = 100_000
# rows x (variables + slacks) of the dense extensive-form LP; 20M float64
# entries is 160 MB, against at most 123,200 for the micro presets
DENSE_ENTRY_CAP = 20_000_000

_PATH_TAG = 0x5CE9A1
_STATE_TAG = 0xFEA51B


class TreeTooLargeError(ValueError):
    """Raised when a scenario tree is too large for its extensive form."""

    def __init__(self, leaves: int, cap: int, entries: int | None = None):
        super().__init__(
            f"scenario tree has {leaves} leaves, above the extensive-form "
            f"cap of {cap}; raise the cap to at least {leaves} to proceed"
            if entries is None else
            f"extensive form of the {leaves}-leaf scenario tree has {entries} "
            f"dense standard-form entries, above the limit of {DENSE_ENTRY_CAP}")
        self.leaves = leaves
        self.cap = cap


def _arr(a) -> np.ndarray:
    out = np.asarray(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class StageRealization:
    """Row data of one stage under one realization of the uncertainty."""

    eq_cur: np.ndarray    # equality rows, current-decision block
    eq_prev: np.ndarray   # equality rows, previous-decision block
    rhs_eq: np.ndarray
    cost: np.ndarray
    probability: float
    le_cur: np.ndarray = None     # inequality rows, current block
    le_prev: np.ndarray = None    # inequality rows, previous block
    rhs_le: np.ndarray = None

    def __post_init__(self):
        n = np.asarray(self.cost).size
        object.__setattr__(self, "eq_cur", _arr(self.eq_cur).reshape(-1, n))
        object.__setattr__(self, "cost", _arr(self.cost).reshape(n))
        m_eq = self.eq_cur.shape[0]
        eq_prev = _arr(self.eq_prev)  # a 2-D block keeps its columns even with no rows
        object.__setattr__(self, "eq_prev", eq_prev.reshape(
            m_eq, eq_prev.shape[1] if eq_prev.ndim == 2 else -1))
        object.__setattr__(self, "rhs_eq", _arr(self.rhs_eq).reshape(m_eq))
        n_prev = self.eq_prev.shape[1]
        le_cur = self.le_cur if self.le_cur is not None else np.zeros((0, n))
        object.__setattr__(self, "le_cur", _arr(le_cur).reshape(-1, n))
        m_le = self.le_cur.shape[0]
        le_prev = self.le_prev if self.le_prev is not None else np.zeros((m_le, n_prev))
        object.__setattr__(self, "le_prev", _arr(le_prev).reshape(m_le, n_prev))
        rhs_le = self.rhs_le if self.rhs_le is not None else np.zeros(m_le)
        object.__setattr__(self, "rhs_le", _arr(rhs_le).reshape(m_le))

    @property
    def dim(self) -> int:
        return self.cost.size


@dataclass(frozen=True)
class MultistageProgram:
    """Immutable program over stages 1..T (stored 0-based); stages[t] is the
    tuple of stage t's realizations."""

    x0: np.ndarray
    stages: tuple

    def __post_init__(self):
        object.__setattr__(self, "x0", _arr(self.x0).reshape(-1))
        object.__setattr__(self, "stages", tuple(tuple(s) for s in self.stages))

    @property
    def stage_count(self) -> int:
        return len(self.stages)

    @property
    def stage_dims(self) -> tuple:
        return tuple(s[0].dim for s in self.stages)

    def prev_dim(self, t: int) -> int:
        """Dimension of the decision feeding stage t (0-based)."""
        return self.x0.size if t == 0 else self.stages[t - 1][0].dim

    def leaf_count(self) -> int:
        return int(np.prod([len(s) for s in self.stages], dtype=object))


# ---------------------------------------------------------------------------
# validation

def validate(program: MultistageProgram) -> list[str]:
    """Diagnostics for every violated structural invariant (empty = valid)."""
    problems: list[str] = []
    if not np.all(np.isfinite(program.x0)):
        problems.append("non-finite entries in x0")
    T = program.stage_count
    if T < 2:
        problems.append(f"program has {T} stages, need at least 2")
    if T and len(program.stages[0]) != 1:
        problems.append(
            f"stage 1 must be deterministic, found {len(program.stages[0])} realizations")
    prev = program.x0.size  # None after an empty stage: nothing to check against
    for t, dist in enumerate(program.stages, start=1):
        if len(dist) < 1:
            problems.append(f"stage {t} has no realizations")
            prev = None
            continue
        dim = dist[0].dim
        total = 0.0
        for j, r in enumerate(dist, start=1):
            where = f"stage {t} realization {j}"
            if r.dim != dim:
                problems.append(f"{where}: cost dimension {r.dim} != stage dimension {dim}")
            if prev is not None and r.eq_prev.shape[1] != prev:
                problems.append(
                    f"{where}: eq_prev has {r.eq_prev.shape[1]} columns, previous stage has {prev}")
            if prev is not None and r.le_cur.shape[0] and r.le_prev.shape[1] != prev:
                problems.append(
                    f"{where}: le_prev has {r.le_prev.shape[1]} columns, previous stage has {prev}")
            if not (np.isfinite(r.probability) and r.probability > 0.0):
                problems.append(f"{where}: probability {r.probability} is not positive and finite")
            for name, m in (("eq_cur", r.eq_cur), ("eq_prev", r.eq_prev),
                            ("le_cur", r.le_cur), ("le_prev", r.le_prev),
                            ("rhs_eq", r.rhs_eq), ("rhs_le", r.rhs_le), ("cost", r.cost)):
                if m.size and not np.all(np.isfinite(m)):
                    problems.append(f"{where}: non-finite entries in {name}")
            total += r.probability
        if abs(total - 1.0) > 1e-12:
            problems.append(f"stage {t}: probabilities sum to {total!r}, expected 1")
        prev = dim
    return problems


# ---------------------------------------------------------------------------
# sampling

def path_stream(seed: int, iteration: int, scenario: int) -> SplitMix64:
    """One independent stream per (iteration, scenario) forward sample."""
    return stream(seed, _PATH_TAG, iteration, scenario)


def sample_scenario(program: MultistageProgram, rng: SplitMix64) -> tuple:
    """Draw one scenario path: a 0-based realization index per stage; stage 1
    is deterministic, so its index is always 0."""
    indices = [0]
    for dist in program.stages[1:]:
        indices.append(rng.choice([r.probability for r in dist]))
    return tuple(indices)


# ---------------------------------------------------------------------------
# extensive form and exact recourse

def _subtree_lp(program: MultistageProgram, t0: int, j0: int,
                x_prev: np.ndarray, tree_cap: int) -> LPProblem:
    """Deterministic equivalent of the subtree rooted at stage t0 (0-based)
    under realization j0, with the previous decision fixed to x_prev.
    Raises TreeTooLargeError before building anything when the subtree has
    more than tree_cap leaves or its dense standard form, rows times
    variables plus slacks, more than DENSE_ENTRY_CAP entries."""
    T = program.stage_count
    # size the LP from per-level node counts; Python ints cannot overflow
    root = program.stages[t0][j0]
    count, nvar = 1, root.dim
    m_eq, m_le = root.rhs_eq.size, root.rhs_le.size
    for t in range(t0 + 1, T):
        rs = program.stages[t]
        m_eq += count * sum(r.rhs_eq.size for r in rs)
        m_le += count * sum(r.rhs_le.size for r in rs)
        count *= len(rs)
        nvar += count * rs[0].dim
    if count > tree_cap:
        raise TreeTooLargeError(count, tree_cap)
    entries = (m_eq + m_le) * (nvar + m_le)
    if entries > DENSE_ENTRY_CAP:
        raise TreeTooLargeError(count, tree_cap, entries)
    # enumerate nodes level by level: (stage, realization index, parent node)
    nodes: list[tuple[int, int, int]] = [(t0, j0, -1)]
    level_start = 0
    for t in range(t0, T - 1):
        level_end = len(nodes)
        for parent in range(level_start, level_end):
            for j in range(len(program.stages[t + 1])):
                nodes.append((t + 1, j, parent))
        level_start = level_end

    cost = np.zeros(nvar)
    a_eq, b_eq = np.zeros((m_eq, nvar)), np.zeros(m_eq)
    a_le, b_le = np.zeros((m_le, nvar)), np.zeros(m_le)
    cols, weights = [], []  # per node: column slice, path probability
    col = row_eq = row_le = 0
    for t, j, parent in nodes:
        r = program.stages[t][j]
        sl = slice(col, col + r.dim)
        eq = slice(row_eq, row_eq + r.rhs_eq.size)
        le = slice(row_le, row_le + r.rhs_le.size)
        col, row_eq, row_le = sl.stop, eq.stop, le.stop
        weights.append(1.0 if parent < 0 else weights[parent] * r.probability)
        cols.append(sl)
        cost[sl] += weights[-1] * r.cost
        a_eq[eq, sl] = r.eq_cur
        a_le[le, sl] = r.le_cur
        if parent < 0:
            b_eq[eq] = r.rhs_eq - r.eq_prev @ x_prev
            b_le[le] = r.rhs_le - r.le_prev @ x_prev
        else:
            a_eq[eq, cols[parent]] = r.eq_prev
            a_le[le, cols[parent]] = r.le_prev
            b_eq[eq] = r.rhs_eq
            b_le[le] = r.rhs_le
    return LPProblem(cost, a_eq, b_eq, a_le, b_le)


def extensive_form(program: MultistageProgram,
                   tree_cap: int = DEFAULT_TREE_CAP) -> LPProblem:
    """Deterministic-equivalent LP over the whole tree; its optimal value is
    the optimal expected cost of the program given x0."""
    return _subtree_lp(program, 0, 0, program.x0, tree_cap)


def extensive_form_value(program: MultistageProgram,
                         tree_cap: int = DEFAULT_TREE_CAP) -> float:
    sol = solve_lp(extensive_form(program, tree_cap))
    if sol.status != OPTIMAL:
        raise RuntimeError(f"extensive form did not solve to optimality: {sol.status}")
    return sol.objective


def exact_recourse_value(program: MultistageProgram, t: int, j: int,
                         x_prev: np.ndarray,
                         tree_cap: int = DEFAULT_TREE_CAP) -> float:
    """Exact cost-to-go of stage t (0-based) under realization j given the
    previous decision, by solving the subtree's deterministic equivalent."""
    sol = solve_lp(_subtree_lp(program, t, j, np.asarray(x_prev, dtype=float), tree_cap))
    if sol.status != OPTIMAL:
        raise RuntimeError(
            f"exact recourse at stage {t + 1}, realization {j + 1} "
            f"did not solve to optimality: {sol.status}")
    return sol.objective


def feasible_states(program: MultistageProgram, t: int, count: int,
                    seed: int) -> list[np.ndarray]:
    """Random feasible previous-stage decisions for stage t (0-based, t >= 1),
    produced by walking random scenario prefixes with randomized costs; every
    returned point is a vertex of the reachable region at stage t-1."""
    out = []
    for i in range(count):
        gen = stream(seed, _STATE_TAG, t, i)
        path = sample_scenario(program, gen)
        x = program.x0
        for tau in range(t):
            r = program.stages[tau][path[tau]]
            c = np.array([0.01 + gen.uniform() for _ in range(r.dim)])
            sol = solve_lp(LPProblem(
                c, r.eq_cur, r.rhs_eq - r.eq_prev @ x,
                r.le_cur if r.le_cur.size else None,
                (r.rhs_le - r.le_prev @ x) if r.le_cur.size else None))
            if sol.status != OPTIMAL:
                raise RuntimeError(
                    f"random feasible walk failed at stage {tau + 1}: {sol.status}")
            x = sol.x
        out.append(x)
    return out
