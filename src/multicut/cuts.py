"""Cut storage, best-value bookkeeping, and cut selection.

One CutPool per (stage, realization) stores every cut ever generated for
that recourse function together with every trial point visited at the
previous stage. For each trial point the pool tracks the running best cut
value m and the ascending set I of cut ordinals attaining it. Comparisons
use the relative tolerance eps0:

    strictly above:   v >  m + eps0 * max(1, |m|)
    equal (tie):      |v - m| <= eps0 * max(1, |m|)

Tolerant ties are what keeps numerically identical cuts from eliminating
each other; without them a freshly computed copy of an existing cut can be
deemed "slightly higher" and evict the original.

A selector keeps, at each trial point, the oldest maximizers of that
point's ascending argmax set, up to a cap: all of them (Level 1), the oldest
one (Limited-memory Level 1), or the H oldest (Level H). Selection only
controls which cuts enter stage subproblems; storage is append-only.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

NEG_INF = float("-inf")


@dataclass(frozen=True)
class Cut:
    """Affine minorant  value(x) = theta + beta . x  of one recourse function."""

    theta: float
    beta: np.ndarray
    birth: int  # solver iteration that produced the cut

    def __post_init__(self):
        b = np.asarray(self.beta, dtype=float).reshape(-1)
        b.setflags(write=False)
        object.__setattr__(self, "beta", b)
        object.__setattr__(self, "theta", float(self.theta))

    def value(self, x) -> float:
        return self.theta + float(self.beta @ np.asarray(x, dtype=float))


ALL = "all"
LEVEL1 = "level1"
MLM_LEVEL1 = "mlm_level1"
LEVEL_H = "level_h"

_CLI_NAMES = {"muda": ALL, "cs1": LEVEL1, "cs2": MLM_LEVEL1}


@dataclass(frozen=True)
class SelectorSpec:
    """How many of the oldest maximizers each trial point keeps.

    kind 'all' disables pruning entirely (every stored cut is used). Every
    other kind keeps the first `cap` ordinals of each ascending argmax set:
    all of them for level1, one for mlm_level1, h for level_h. A cap of at
    least one keeps at least one cut per trial point.
    """

    kind: str
    h: int = 0

    def __post_init__(self):
        if self.kind not in (ALL, LEVEL1, MLM_LEVEL1, LEVEL_H):
            raise ValueError(f"unknown selector kind {self.kind!r}")
        if self.kind == LEVEL_H and self.h < 1:
            raise ValueError("level_h needs a positive cut count")

    # -- constructors --------------------------------------------------------

    @staticmethod
    def all() -> "SelectorSpec":
        return SelectorSpec(ALL)

    @staticmethod
    def level1() -> "SelectorSpec":
        return SelectorSpec(LEVEL1)

    @staticmethod
    def mlm_level1() -> "SelectorSpec":
        return SelectorSpec(MLM_LEVEL1)

    @staticmethod
    def level_h(h: int) -> "SelectorSpec":
        return SelectorSpec(LEVEL_H, h=int(h))

    @staticmethod
    def from_name(name: str) -> "SelectorSpec":
        """Parse a CLI strategy name: muda, cs1, cs2, or levelH:<H>."""
        key = name.strip()
        low = key.lower()
        if low in _CLI_NAMES:
            return SelectorSpec(_CLI_NAMES[low])
        if low.startswith("levelh:"):
            try:
                return SelectorSpec.level_h(int(key.split(":", 1)[1]))
            except ValueError as exc:
                raise ValueError(f"bad levelH strategy {name!r}") from exc
        raise ValueError(
            f"unknown strategy {name!r}; expected muda, cs1, cs2, or levelH:<H>")

    @property
    def cli_name(self) -> str:
        if self.kind == LEVEL_H:
            return f"levelH:{self.h}"
        return next(cli for cli, kind in _CLI_NAMES.items() if kind == self.kind)

    @property
    def keeps_ties(self) -> bool:
        """Whether argmax sets track every tolerant maximizer (all but MLM)."""
        return self.kind != MLM_LEVEL1

    @property
    def cap(self):
        """Oldest maximizers kept per trial point; None keeps all of them."""
        return {MLM_LEVEL1: 1, LEVEL_H: self.h}.get(self.kind)


class _Growable:
    """Row-appendable float matrix with amortized growth."""

    def __init__(self, ncols: int):
        self._data = np.empty((16, max(ncols, 1)))
        self._len = 0
        self.ncols = ncols

    def append(self, row: np.ndarray) -> int:
        if self._len == self._data.shape[0]:
            bigger = np.empty((2 * self._data.shape[0], self._data.shape[1]))
            bigger[:self._len] = self._data[:self._len]
            self._data = bigger
        self._data[self._len, :self.ncols] = row
        self._len += 1
        return self._len - 1

    def view(self) -> np.ndarray:
        return self._data[:self._len, :self.ncols]

    def __len__(self) -> int:
        return self._len


class CutPool:
    """Cuts, trial points, and selection state for one (stage, realization).

    The internal update rule follows the tolerant pseudo-code exactly: a new
    cut strictly above a point's record replaces that point's argmax set; a
    tolerant tie appends its ordinal (never under MLM, which keeps only the
    oldest maximizer). A new point scans the existing cuts in birth order
    under the same comparisons. Interleaving order does not matter: any
    add_cut/add_trial_point sequence leaves the same state as a batch replay,
    because each (point, cut) pair is processed exactly once, in cut birth
    order.
    """

    def __init__(self, stage: int, realization: int, dim: int,
                 selector: SelectorSpec, eps0: float = 1e-6):
        if not (math.isfinite(eps0) and eps0 >= 0):
            raise ValueError("eps0 must be finite and nonnegative")
        self.stage = stage            # 1-based stage of the recourse function
        self.realization = realization  # 1-based realization index
        self.dim = dim
        self.selector = selector
        self.eps0 = eps0
        self._thetas = _Growable(1)
        self._betas = _Growable(dim)
        self._births: list[int] = []
        self._points = _Growable(dim)
        self._m = _Growable(1)               # best cut value per trial point
        self._argmax: list[list[int]] = []   # 1-based cut ordinals, ascending
        self._selected = np.zeros(0, dtype=bool)
        self._dirty = False

    # -- sizes ---------------------------------------------------------------

    @property
    def num_cuts(self) -> int:
        return len(self._betas)

    @property
    def num_points(self) -> int:
        return len(self._points)

    def best_value(self, i: int) -> float:
        return float(self._m.view()[i, 0])

    def argmax_set(self, i: int) -> tuple:
        return tuple(self._argmax[i])

    def cut(self, ordinal: int) -> Cut:
        if not 1 <= ordinal <= self.num_cuts:
            raise IndexError(f"cut ordinal {ordinal} outside 1..{self.num_cuts}")
        k = ordinal - 1
        return Cut(float(self._thetas.view()[k, 0]), self._betas.view()[k].copy(),
                   self._births[k])

    def cuts(self) -> list:
        return [self.cut(k + 1) for k in range(self.num_cuts)]

    def trial_point(self, i: int) -> np.ndarray:
        return self._points.view()[i].copy()

    # -- mutation --------------------------------------------------------------

    def add_trial_point(self, x) -> int:
        """Register a trial point; scans existing cuts in birth order."""
        x = np.asarray(x, dtype=float).reshape(-1)
        if x.size != self.dim:
            raise ValueError(f"trial point has dimension {x.size}, pool expects {self.dim}")
        i = self._points.append(x)
        m, argmax = self._scan_point(x)
        self._m.append(m)
        self._argmax.append(argmax)
        self._dirty = True
        return i

    def _scan_point(self, x: np.ndarray) -> tuple:
        K = self.num_cuts
        if K == 0:
            return NEG_INF, []
        vals = self._betas.view() @ x + self._thetas.view()[:, 0]
        # m can only advance at strict prefix records, so the tolerant scan
        # needs to visit those alone; ties are reconstructed afterwards
        # against the final record, which matches the sequential pseudo-code
        # because m never changes after its last strict update.
        prefix = np.maximum.accumulate(vals)
        strict = np.empty(K, dtype=bool)
        strict[0] = True
        strict[1:] = vals[1:] > prefix[:-1]
        m = NEG_INF
        k_star = 0
        for k in np.nonzero(strict)[0]:
            v = float(vals[k])
            if m == NEG_INF or v > m + self.eps0 * max(1.0, abs(m)):
                m, k_star = v, int(k)
        if not self.selector.keeps_ties:
            return m, [k_star + 1]
        tol = self.eps0 * max(1.0, abs(m))
        tail = np.nonzero(np.abs(vals[k_star + 1:] - m) <= tol)[0] + k_star + 1
        return m, [k_star + 1] + [int(k) + 1 for k in tail]

    def add_cut(self, cut: Cut) -> int:
        """Append a cut; updates every trial point's record. Returns the
        1-based ordinal of the stored cut."""
        if cut.beta.size != self.dim:
            raise ValueError(f"cut has dimension {cut.beta.size}, pool expects {self.dim}")
        self._thetas.append(np.array([cut.theta]))
        self._betas.append(cut.beta)
        self._births.append(int(cut.birth))
        k = self.num_cuts  # 1-based ordinal of the new cut
        if self.num_points:
            vals = self._points.view() @ cut.beta + cut.theta
            m = self._m.view()[:, 0]
            # a point without a cut (m = -inf) takes any cut; its tolerance
            # is inf or nan, which the masks below must not trip over
            with np.errstate(invalid="ignore"):
                tol = self.eps0 * np.maximum(1.0, np.abs(m))
                strict = (vals > m + tol) | (m == NEG_INF)
            if self.selector.keeps_ties:
                for i in np.flatnonzero(~strict & (np.abs(vals - m) <= tol)).tolist():
                    self._argmax[i].append(k)
            m[strict] = vals[strict]
            for i in np.flatnonzero(strict).tolist():
                self._argmax[i] = [k]
        self._dirty = True
        return k

    def sync(self) -> None:
        """Refresh the selected-cut flags from the argmax sets."""
        if self.selector.kind == ALL:
            sel = np.ones(self.num_cuts, dtype=bool)
        else:
            cap = self.selector.cap
            # slot 0 is unused: argmax sets hold 1-based ordinals
            sel = np.zeros(self.num_cuts + 1, dtype=bool)
            for argmax in self._argmax:
                sel[argmax[:cap]] = True
            sel = sel[1:]
        self._selected = sel
        self._dirty = False

    # -- queries ---------------------------------------------------------------

    def selected_mask(self) -> np.ndarray:
        if self._dirty:
            self.sync()
        return self._selected

    def selected_indices(self) -> list[int]:
        """Ascending 1-based ordinals of the selected cuts."""
        return [int(k) + 1 for k in np.nonzero(self.selected_mask())[0]]

    def selected_cut_arrays(self) -> tuple:
        """(thetas, betas, ordinals) of the selected cuts, ascending."""
        mask = self.selected_mask()
        idx = np.nonzero(mask)[0]
        return (self._thetas.view()[idx, 0].copy(), self._betas.view()[idx].copy(),
                idx + 1)

    def evaluate_model(self, x) -> float:
        """Max over the selected cuts at x; -inf when no cut is stored."""
        x = np.asarray(x, dtype=float).reshape(-1)
        if x.size != self.dim:
            raise ValueError(f"point has dimension {x.size}, pool expects {self.dim}")
        if self.num_cuts == 0:
            return NEG_INF
        thetas, betas, _ = self.selected_cut_arrays()
        if thetas.size == 0:
            return NEG_INF
        return float(np.max(betas @ x + thetas))

    def selection_stats(self) -> tuple:
        """(selected count, total count, proportion)."""
        total = self.num_cuts
        selected = int(self.selected_mask().sum())
        return selected, total, (selected / total if total else 0.0)


def dump_pool_csv(pool: CutPool, path) -> None:
    """Cut rows of one pool: birth iteration, theta, beta..., selected flag."""
    mask = pool.selected_mask()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["birth", "theta"]
                        + [f"beta_{i}" for i in range(pool.dim)] + ["selected"])
        betas = pool._betas.view()
        thetas = pool._thetas.view()
        for k in range(pool.num_cuts):
            writer.writerow([pool._births[k], repr(float(thetas[k, 0]))]
                            + [repr(float(v)) for v in betas[k]]
                            + [int(mask[k])])


def load_pool_csv(path) -> list[dict]:
    """Rows from dump_pool_csv as dicts (for regression comparison)."""
    out = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            beta = [float(v) for key, v in row.items() if key.startswith("beta_")]
            out.append({
                "birth": int(row["birth"]),
                "theta": float(row["theta"]),
                "beta": beta,
                "selected": bool(int(row["selected"])),
            })
    return out
