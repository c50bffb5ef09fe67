"""Cut storage, best-value bookkeeping, and cut selection.

One CutPool per (stage, realization) stores every cut ever generated for
that recourse function together with each distinct trial point of the
previous stage once. For each trial point the pool keeps a record: the best
cut value m and the ascending set I of cut ordinals attaining it, as one
sequential scan over the cuts in birth order finds them. Comparisons use
the relative tolerance eps0:

    strictly above:   v >  m + eps0 * max(1, |m|)
    equal (tie):      |v - m| <= eps0 * max(1, |m|)

Tolerant ties are what keeps numerically identical cuts from eliminating
each other; without them a freshly computed copy of an existing cut can be
deemed "slightly higher" and evict the original.

Adding a cut or a trial point only appends it. The records are brought up
to date when read, by one routine that continues each scan over the cuts it
has not seen; selection reads them at every sync, except under MuDA, which
selects every cut and leaves them untouched unless asked for.

A record stores only the oldest `cap` maximizers its selector reads: all
(cs1, Level 1), one (cs2, Limited-memory Level 1), H (levelH:H, Level H) or
none (muda, MuDA).
Selection is their union and only controls which cuts enter stage
subproblems; storage is append-only.
"""

from __future__ import annotations

import csv
import math
import re
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


@dataclass(frozen=True)
class SelectorSpec:
    """A selection strategy, by its canonical CLI name: muda, cs1, cs2 or
    levelH:<H> with H >= 1. The strategies differ only in cap, how many of
    the oldest maximizers each trial point keeps: none under muda, which
    uses every stored cut, all (None) under cs1 (Level 1), one under cs2
    (Limited-memory Level 1) and H under levelH:H. A cap of at least one
    keeps at least one cut per trial point.
    """

    cli_name: str

    def __post_init__(self):
        if not re.fullmatch(r"muda|cs1|cs2|levelH:[1-9][0-9]*", self.cli_name):
            raise ValueError(f"unknown selector {self.cli_name!r}; expected muda, "
                             "cs1, cs2, or levelH:<H> with H >= 1")

    # -- constructors --------------------------------------------------------

    @staticmethod
    def all() -> "SelectorSpec":
        return SelectorSpec("muda")

    @staticmethod
    def level1() -> "SelectorSpec":
        return SelectorSpec("cs1")

    @staticmethod
    def mlm_level1() -> "SelectorSpec":
        return SelectorSpec("cs2")

    @staticmethod
    def level_h(h: int) -> "SelectorSpec":
        return SelectorSpec(f"levelH:{int(h)}")

    @staticmethod
    def from_name(name: str) -> "SelectorSpec":
        """Parse a CLI strategy name, in any case and with surrounding
        whitespace: muda, cs1, cs2, or levelH:<H>."""
        key = name.strip().lower()
        if key.startswith("levelh:"):
            try:
                return SelectorSpec.level_h(int(key[len("levelh:"):]))
            except ValueError as exc:
                raise ValueError(f"bad levelH strategy {name!r}") from exc
        if key in ("muda", "cs1", "cs2"):
            return SelectorSpec(key)
        raise ValueError(
            f"unknown strategy {name!r}; expected muda, cs1, cs2, or levelH:<H>")

    @property
    def cap(self):
        """Oldest maximizers a pool stores per trial point; None stores all."""
        if self.cli_name.startswith("levelH:"):
            return int(self.cli_name[len("levelH:"):])
        return {"muda": 0, "cs1": None, "cs2": 1}[self.cli_name]


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

    add_cut and add_trial_point only append; a new record starts with no cut
    (m = -inf). One routine, _advance, brings the records up to date when
    sync (except under muda), best_value or argmax_set reads
    them: the points the records already cover run over the cuts added
    since, the new points over every cut, each in birth order under the
    tolerant pseudo-code. A cut strictly above a point's record replaces
    its argmax set; a tolerant tie appends its ordinal while the set holds
    fewer than the selector's cap. Each (point, cut) pair is scanned once,
    in cut birth order, so any interleaving of adds and reads leaves the
    state of a batch replay. A trial point bitwise equal to a stored one
    shares its record, so the pool holds each distinct trial point once.
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
        self._point_index: dict[bytes, int] = {}  # x.tobytes() -> record
        self._m = _Growable(1)               # best cut value per trial point
        self._argmax: list[list[int]] = []   # oldest cap maximizers, 1-based
        self._covered = (0, 0)               # (cuts, points) the records cover
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
        """Point i's best cut value; -inf before the pool holds a cut."""
        self._advance()
        return float(self._m.view()[i, 0])

    def argmax_set(self, i: int) -> tuple:
        """Point i's oldest `cap` maximizers, as ascending 1-based ordinals."""
        self._advance()
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
        """Register each distinct trial point once and return its record
        index; a new record starts with no cut (m = -inf)."""
        x = np.asarray(x, dtype=float).reshape(-1)
        if x.size != self.dim:
            raise ValueError(f"trial point has dimension {x.size}, pool expects {self.dim}")
        key = x.tobytes()
        if key in self._point_index:
            return self._point_index[key]
        i = self._points.append(x)
        self._point_index[key] = i
        self._m.append(NEG_INF)
        self._argmax.append([])
        self._dirty = True
        return i

    def add_cut(self, cut: Cut) -> int:
        """Append a cut and return its 1-based ordinal."""
        if cut.beta.size != self.dim:
            raise ValueError(f"cut has dimension {cut.beta.size}, pool expects {self.dim}")
        if not (math.isfinite(cut.theta) and np.isfinite(cut.beta).all()):
            raise ValueError(f"non-finite cut at stage {self.stage}, "
                             f"realization {self.realization}")
        self._thetas.append(np.array([cut.theta]))
        self._betas.append(cut.beta)
        self._births.append(int(cut.birth))
        self._dirty = True
        return self.num_cuts

    def _advance(self) -> None:
        """Bring every record up to date: the points the records cover run
        over the cuts added since, the points added since over every cut."""
        cuts, points = self._covered
        K, P = self.num_cuts, self.num_points
        self._covered = (K, P)
        cap = self.selector.cap
        m = self._m.view()[:, 0]
        for rows, start in ((np.arange(points), cuts), (np.arange(points, P), 0)):
            if not rows.size or start == K:
                continue
            vals = self._points.view()[rows] @ self._betas.view()[start:].T \
                + self._thetas.view()[start:, 0]
            # m can only advance where a value lies above the record and every
            # value before it, so the tolerant scan visits those alone; ties
            # are gathered afterwards against the final record, which matches
            # the sequential pseudo-code because m never changes after its
            # last strict update
            above = vals > m[rows, None]
            above[:, 1:] &= vals[:, 1:] > np.maximum.accumulate(vals, axis=1)[:, :-1]
            for r, i in enumerate(rows.tolist()):
                v = vals[r]
                best, k_star = float(m[i]), -1
                for k in np.flatnonzero(above[r]).tolist():
                    if best == NEG_INF or v[k] > best + self.eps0 * max(1.0, abs(best)):
                        best, k_star = float(v[k]), k
                tol = self.eps0 * max(1.0, abs(best))
                ties = np.flatnonzero(np.abs(v[k_star + 1:] - best) <= tol) + start + k_star + 2
                head = self._argmax[i] if k_star < 0 else [start + k_star + 1]
                m[i] = best
                self._argmax[i] = (head + ties.tolist())[:cap]

    def sync(self) -> None:
        """Refresh the selected-cut flags: every cut under muda (cap 0),
        otherwise the union of the up-to-date argmax sets."""
        # slot 0 is unused: argmax sets hold 1-based ordinals
        muda = self.selector.cap == 0
        sel = np.full(self.num_cuts + 1, muda)
        if not muda:
            self._advance()
            for argmax in self._argmax:
                sel[argmax] = True
        self._selected = sel[1:]
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
        """Max over the selected cuts at x; -inf when no cut is selected."""
        x = np.asarray(x, dtype=float).reshape(-1)
        if x.size != self.dim:
            raise ValueError(f"point has dimension {x.size}, pool expects {self.dim}")
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
