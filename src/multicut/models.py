"""Benchmark instance generators: portfolio rebalancing and inventory control.

Both generators are pure functions of (parameters, seed): the uncertain data
(asset returns, demands) and randomized constants (initial holdings,
transaction costs) come from named SplitMix64 streams, so instances are
bit-reproducible.

Portfolio. Decisions per stage are (x, y, z): end-of-stage positions in n
risky assets plus cash, amounts sold, amounts bought. Cash and holdings
balance as equalities with the previous positions scaled by the gross
returns; sales are capped by the grown holding and each position by a
proportion u(i) of total wealth (both inequalities couple to the previous
decision). Intermediate stage costs are zero; the last stage minimizes the
negated expected terminal wealth, so the optimal mean income is the
opposite of the optimal value. With zero right-hand sides throughout, every
cut generated for this model has zero intercept.

Inventory. One product with backorders: order up to x paying c per unit
bought, then pay b per unit of unmet demand and h per unit held. Decisions
per stage are (x, w, u, v) = order-up-to level, amount bought, backorder
and holding quantities; v - u carries the signed end-of-stage inventory to
the next stage. Demands are truncated-at-zero normal perturbations of a
linear seasonal mean.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .program import MultistageProgram, StageRealization
from .rng import stream
from .solver import RunConfig

_RETURN_TAG = 0x9E7F01
_COST_TAG = 0x9E7F02
_X0_TAG = 0x9E7F03
_DEMAND_TAG = 0x9E7F04


# ---------------------------------------------------------------------------
# portfolio

@dataclass(frozen=True)
class PortfolioParams:
    stage_count: int = 5
    assets: int = 4                      # n risky assets; cash is asset n+1
    realizations: int = 20               # M per stage
    position_limit: float = 1.0          # u(i), same for every asset
    sell_cost: np.ndarray = None         # eta[t][i]; sampled when omitted
    buy_cost: np.ndarray = None          # nu[t][i]; sampled when omitted
    risk_free_gross: float = 1.001
    x0_low: float = 0.0
    x0_high: float = 10.0
    return_drift: float = 0.0004         # log-scale drift of risky gross returns
    return_vol: float = 0.012            # log-scale volatility
    fixed_returns: tuple = None          # risky returns[t][j] overriding the generator
    fixed_x0: np.ndarray = None          # initial positions (n+1) overriding the draw
    terminal_mean_return: np.ndarray = None  # defaults to the last stage's mean
    seed: int = 2024

    def __post_init__(self):
        if self.stage_count < 2:
            raise ValueError("need at least two stages")
        if self.assets < 1:
            raise ValueError("need at least one risky asset")
        if self.realizations < 1:
            raise ValueError("need at least one realization per stage")
        if not 0.0 < self.position_limit <= 1.0:
            raise ValueError("position limit must lie in (0, 1]")
        for name in ("sell_cost", "buy_cost"):
            arr = getattr(self, name)
            if arr is not None:
                arr = np.asarray(arr, dtype=float)
                if arr.shape != (self.stage_count, self.assets):
                    raise ValueError(f"{name} must have shape (T, n)")
                if (arr < 0).any():
                    raise ValueError(f"{name} must be nonnegative")
                object.__setattr__(self, name, arr)
        if self.fixed_returns is not None:
            fixed = tuple(tuple(np.asarray(row, dtype=float).reshape(self.assets)
                                for row in stage) for stage in self.fixed_returns)
            if len(fixed) != self.stage_count or len(fixed[0]) != 1:
                raise ValueError("fixed_returns needs one realization list per "
                                 "stage, a single one at stage 1")
            object.__setattr__(self, "fixed_returns", fixed)
        if self.fixed_x0 is not None:
            x0 = np.asarray(self.fixed_x0, dtype=float).reshape(self.assets + 1)
            object.__setattr__(self, "fixed_x0", x0)


def _portfolio_returns(p: PortfolioParams) -> list:
    """Gross returns xi[t][j] (length n+1, cash last); stage 1 has one draw."""
    if p.fixed_returns is not None:
        return [[np.concatenate([row, [p.risk_free_gross]]) for row in stage]
                for stage in p.fixed_returns]
    out = []
    for t in range(p.stage_count):
        m = 1 if t == 0 else p.realizations
        rows = []
        for j in range(m):
            gen = stream(p.seed, _RETURN_TAG, t, j)
            risky = [math.exp(p.return_drift + p.return_vol * gen.normal())
                     for _ in range(p.assets)]
            rows.append(np.array(risky + [p.risk_free_gross]))
        out.append(rows)
    return out


def _portfolio_costs(p: PortfolioParams) -> np.ndarray:
    """Proportional transaction costs per (stage, asset): draws of
    0.08 + 0.06 cos(2 pi U / T) with U uniform on {1..T}; selling and buying
    costs coincide."""
    if p.sell_cost is not None:
        return p.sell_cost
    gen = stream(p.seed, _COST_TAG)
    T = p.stage_count
    out = np.empty((T, p.assets))
    for t in range(T):
        for i in range(p.assets):
            u = gen.uniform_int(1, T)
            out[t, i] = 0.08 + 0.06 * math.cos(2.0 * math.pi * u / T)
    return out


def portfolio_metadata(p: PortfolioParams) -> dict:
    """Everything the generator drew, for cross-checks: per-stage returns,
    transaction costs, the terminal mean return, x0, and the row layout of
    each stage subproblem."""
    returns = _portfolio_returns(p)
    eta = _portfolio_costs(p)
    nu = eta if p.buy_cost is None else p.buy_cost
    if p.terminal_mean_return is not None:
        terminal = np.asarray(p.terminal_mean_return, dtype=float)
    else:
        terminal = np.mean(np.stack(returns[-1]), axis=0)
    if p.fixed_x0 is not None:
        x0_head = p.fixed_x0
    else:
        gen = stream(p.seed, _X0_TAG)
        x0_head = np.array([p.x0_low + (p.x0_high - p.x0_low) * gen.uniform()
                            for _ in range(p.assets + 1)])
    n = p.assets
    return {
        "returns": returns,
        "eta": eta,
        "nu": np.asarray(nu, dtype=float),
        "u": np.full(n, p.position_limit),
        "terminal_mean_return": terminal,
        "x0": np.concatenate([x0_head, np.zeros(2 * n)]),
        # decision layout: x(0..n), y(0..n-1), z(0..n-1)
        "slice_x": slice(0, n + 1),
        "slice_y": slice(n + 1, 2 * n + 1),
        "slice_z": slice(2 * n + 1, 3 * n + 1),
        # equality rows: holdings balance per asset, then the cash balance;
        # inequality rows: n sale caps, then n position limits
        "eq_rows_assets": slice(0, n),
        "eq_row_cash": n,
        "le_rows_sale_cap": slice(0, n),
        "le_rows_position": slice(n, 2 * n),
    }


def portfolio_closed_form_beta(meta: dict, t: int, j: int,
                               duals_eq: np.ndarray,
                               duals_le_model: np.ndarray) -> np.ndarray:
    """Cut gradient over the previous x-positions from the model-specific
    formula: componentwise (lambda - <u, mu2> 1 - [mu1; 0]) * xi, with mu1,
    mu2 the (sign-flipped, hence nonnegative) multipliers of the sale-cap
    and position-limit rows. Stages and realizations are 1-based."""
    n = meta["u"].size
    xi = meta["returns"][t - 1][j - 1]
    lam = duals_eq[:n + 1]
    mu1 = -duals_le_model[meta["le_rows_sale_cap"]]
    mu2 = -duals_le_model[meta["le_rows_position"]]
    shrink = float(meta["u"] @ mu2)
    head = (lam - shrink - np.concatenate([mu1, [0.0]])) * xi
    return np.concatenate([head, np.zeros(2 * n)])


def make_portfolio(params: PortfolioParams) -> MultistageProgram:
    p = params
    meta = portfolio_metadata(p)
    n = p.assets
    dim = 3 * n + 1
    sx, sy, sz = meta["slice_x"], meta["slice_y"], meta["slice_z"]
    eta, nu = meta["eta"], meta["nu"]
    stages = []
    for t in range(p.stage_count):
        reals = []
        draws = meta["returns"][t]
        prob = 1.0 / len(draws)
        for xi in draws:
            eq_cur = np.zeros((n + 1, dim))
            eq_prev = np.zeros((n + 1, dim))
            # holdings balance: x_i + y_i - z_i = xi_i x_prev_i
            for i in range(n):
                eq_cur[i, sx.start + i] = 1.0
                eq_cur[i, sy.start + i] = 1.0
                eq_cur[i, sz.start + i] = -1.0
                eq_prev[i, sx.start + i] = -xi[i]
            # cash balance: x_cash - sum (1-eta) y_i + sum (1+nu) z_i = xi_cash x_prev_cash
            eq_cur[n, sx.start + n] = 1.0
            for i in range(n):
                eq_cur[n, sy.start + i] = -(1.0 - eta[t, i])
                eq_cur[n, sz.start + i] = 1.0 + nu[t, i]
            eq_prev[n, sx.start + n] = -xi[n]
            le_cur = np.zeros((2 * n, dim))
            le_prev = np.zeros((2 * n, dim))
            for i in range(n):
                # sale cap: y_i <= xi_i x_prev_i
                le_cur[i, sy.start + i] = 1.0
                le_prev[i, sx.start + i] = -xi[i]
                # position limit: x_i <= u_i sum_q xi_q x_prev_q
                le_cur[n + i, sx.start + i] = 1.0
                le_prev[n + i, sx] = -p.position_limit * xi
            cost = np.zeros(dim)
            if t == p.stage_count - 1:
                cost[sx] = -meta["terminal_mean_return"]
            reals.append(StageRealization(
                eq_cur=eq_cur, eq_prev=eq_prev, rhs_eq=np.zeros(n + 1),
                cost=cost, probability=prob,
                le_cur=le_cur, le_prev=le_prev, rhs_le=np.zeros(2 * n)))
        stages.append(reals)
    return MultistageProgram(x0=meta["x0"], stages=stages)


# ---------------------------------------------------------------------------
# inventory

@dataclass(frozen=True)
class InventoryParams:
    stage_count: int = 5
    realizations: int = 20               # M per stage (stage 1 deterministic)
    initial_stock: float = 10.0
    buy_cost: tuple = None               # c_t; default 1.5 + cos(pi t / 6)
    backorder_cost: float = 2.8          # b_t
    holding_cost: float = 0.2            # h_t
    demand_means: tuple = None           # default 5 + 0.5 t
    demand_noise: float = 0.1            # sigma of the relative perturbation
    seed: int = 2024

    def __post_init__(self):
        if self.stage_count < 2:
            raise ValueError("need at least two stages")
        if self.realizations < 1:
            raise ValueError("need at least one realization per stage")
        if self.holding_cost < 0:
            raise ValueError("holding cost must be nonnegative")
        T = self.stage_count
        buy = self.buy_cost
        if buy is None:
            buy = tuple(1.5 + math.cos(math.pi * (t + 1) / 6.0) for t in range(T))
        else:
            buy = tuple(float(v) for v in buy)
            if len(buy) != T:
                raise ValueError("buy_cost must have one entry per stage")
        object.__setattr__(self, "buy_cost", buy)
        means = self.demand_means
        if means is None:
            means = tuple(5.0 + 0.5 * (t + 1) for t in range(T))
        else:
            means = tuple(float(v) for v in means)
            if len(means) != T:
                raise ValueError("demand_means must have one entry per stage")
        object.__setattr__(self, "demand_means", means)
        if any(c < 0 for c in self.buy_cost):
            raise ValueError("buy costs must be nonnegative")
        if any(self.backorder_cost <= c for c in self.buy_cost):
            warnings.warn("backorder cost does not exceed every buy cost; "
                          "the backorder trade-off degenerates", stacklevel=2)


def inventory_demands(p: InventoryParams) -> list:
    """demand[t][j]; stage 1 is the deterministic mean, later stages draw M
    samples of mean*(1 + noise*eps) with eps standard normal, floored at 0."""
    out = [[p.demand_means[0]]]
    for t in range(1, p.stage_count):
        gen = stream(p.seed, _DEMAND_TAG, t)
        mean = p.demand_means[t]
        out.append([max(0.0, mean * (1.0 + p.demand_noise * gen.normal()))
                    for _ in range(p.realizations)])
    return out


def make_inventory(params: InventoryParams) -> MultistageProgram:
    p = params
    demands = inventory_demands(p)
    # decisions per stage: (x, w, u, v); v - u is the signed next inventory
    stages = []
    for t in range(p.stage_count):
        rows = demands[t]
        prob = 1.0 / len(rows)
        reals = []
        for d in rows:
            eq_cur = np.array([
                [1.0, -1.0, 0.0, 0.0],   # x - w = inventory carried in
                [1.0, 0.0, 1.0, -1.0],   # x + u - v = demand
            ])
            eq_prev = np.array([
                [0.0, 0.0, 1.0, -1.0],   # inventory carried in = v_prev - u_prev
                [0.0, 0.0, 0.0, 0.0],
            ])
            cost = np.array([0.0, p.buy_cost[t], p.backorder_cost, p.holding_cost])
            reals.append(StageRealization(
                eq_cur=eq_cur, eq_prev=eq_prev, rhs_eq=np.array([0.0, d]),
                cost=cost, probability=prob))
        stages.append(reals)
    x0 = np.array([0.0, 0.0, 0.0, p.initial_stock])
    return MultistageProgram(x0=x0, stages=stages)


# ---------------------------------------------------------------------------
# presets

@dataclass(frozen=True)
class Preset:
    name: str
    description: str
    kind: str                      # 'portfolio' | 'inventory'
    params: object
    run: RunConfig

    def build(self) -> MultistageProgram:
        if self.kind == "portfolio":
            return make_portfolio(self.params)
        return make_inventory(self.params)


def reference_configs() -> dict:
    """Named presets: the paper-shaped benchmark grid plus micro instances
    small enough for the extensive-form oracle."""
    presets = {}

    def add(name, description, kind, params, run):
        presets[name] = Preset(name, description, kind, params, run)

    paper_run = RunConfig(scenarios_per_iteration=200, alpha=0.025, epsilon=0.05,
                          seed=1, max_iterations=200)
    for T, n in ((5, 4), (5, 5), (5, 6), (8, 4), (8, 5), (8, 6)):
        M = 20 if T == 5 else 10
        add(f"portfolio-T{T}n{n}",
            f"portfolio, T={T}, n={n}, M={M}, N=200",
            "portfolio",
            PortfolioParams(stage_count=T, assets=n, realizations=M, seed=97 + n),
            paper_run)
    for T in (5, 10, 15, 20, 25, 30):
        add(f"inventory-T{T}",
            f"inventory, T={T}, M=20, N=200",
            "inventory",
            InventoryParams(stage_count=T, realizations=20, seed=31 + T),
            paper_run)

    micro_run = RunConfig(scenarios_per_iteration=16, alpha=0.025, epsilon=0.05,
                          seed=1, max_iterations=200)
    add("micro-inventory", "inventory, T=3, M=2; oracle-checkable",
        "inventory", InventoryParams(stage_count=3, realizations=2, seed=5),
        micro_run)
    add("micro-inventory-4", "inventory, T=4, M=3; oracle-checkable",
        "inventory", InventoryParams(stage_count=4, realizations=3, seed=6),
        micro_run)
    add("micro-portfolio", "portfolio, T=3, n=2, M=2; oracle-checkable",
        "portfolio", PortfolioParams(stage_count=3, assets=2, realizations=2, seed=7),
        micro_run)
    add("micro-portfolio-4", "portfolio, T=4, n=2, M=3; oracle-checkable",
        "portfolio", PortfolioParams(stage_count=4, assets=2, realizations=3, seed=8),
        micro_run)

    add("portfolio-T5n4-desk", "portfolio, T=5, n=4, M=10, N=100; desk scale",
        "portfolio", PortfolioParams(stage_count=5, assets=4, realizations=10, seed=101),
        RunConfig(scenarios_per_iteration=100, alpha=0.025, epsilon=0.05,
                  seed=1, max_iterations=200))
    return presets
