"""Pure arithmetic of the benchmark: percentiles, span self times, per-layer
metrics and the output checks. Nothing here starts a process or reads a
clock, so the self-tests can drive it with hand-made inputs."""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
import statistics
from pathlib import Path

# span record layout, as written by probe.py
RUN, NAME, START, END, PARENT, INFO = range(6)
# lp.solve info layout
LP_OPTIMAL, LP_PIVOTS, LP_LAZY, LP_OFFERED, LP_ACTIVATED = range(5)

VERIFY_GAP_MAX = 1e-4
TAIL_SAMPLES = 10
ARTIFACTS = ("bounds.csv", "selection.csv")


# ---------------------------------------------------------------------------
# percentiles

def percentile(values, q: float) -> float:
    """Nearest-rank q-th percentile (0 < q <= 100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(values, beyond: int = TAIL_SAMPLES):
    """(P, value) for the highest whole percentile P whose nearest-rank value
    has at least `beyond` samples ranked above it; None for too few samples."""
    n = len(values)
    if n <= beyond:
        return None
    p = 100 * (n - beyond) // n
    return p, percentile(values, p)


def timing_summary(values) -> dict:
    """Minimum, median, tail percentile and sample count of one timing."""
    tail = tail_percentile(values)
    return {"min": min(values), "median": statistics.median(values),
            "tail_pct": None if tail is None else tail[0],
            "tail": None if tail is None else tail[1],
            "samples": len(values)}


# ---------------------------------------------------------------------------
# spans

def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval that its direct
    children cover (overlapping children are counted once)."""
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append(i)
    out = []
    for i, s in enumerate(spans):
        lo, hi = s[START], s[END]
        covered, reach = 0.0, lo
        kids = sorted((max(lo, spans[k][START]), min(hi, spans[k][END]))
                      for k in children.get(i, ()))
        for a, b in kids:
            a = max(a, reach)
            if b > a:
                covered += b - a
                reach = b
        out.append((hi - lo) - covered)
    return out


def rep_layers(probe: dict) -> dict:
    """Per-layer sums, samples and exact counts of one traced repetition."""
    spans = probe["spans"]
    selfs = self_times(spans)
    dur = {}
    self_sum = {}
    samples_us: dict[str, list[float]] = {}
    pool_size: dict[str, list[int]] = {}
    lp = [0, 0, 0, 0, 0]   # solves, pivots, lazy solves, rows offered, rows activated
    non_optimal = 0
    backward_lp = 0
    for s, own in zip(spans, selfs):
        name = s[NAME]
        d = s[END] - s[START]
        dur[name] = dur.get(name, 0.0) + d
        layer = name.split(".", 1)[0]
        self_sum[layer] = self_sum.get(layer, 0.0) + own
        self_sum[name] = self_sum.get(name, 0.0) + own
        samples_us.setdefault(name, []).append(d * 1e6)
        info = s[INFO]
        if name.startswith("cuts."):
            pool_size.setdefault(name, []).append(info[0] * info[1])
        if name in ("lp.solve", "program.oracle_solve") and not info[LP_OPTIMAL]:
            non_optimal += 1
        if name == "lp.solve":
            lp[0] += 1
            for k, field in enumerate((LP_PIVOTS, LP_LAZY, LP_OFFERED, LP_ACTIVATED), 1):
                lp[k] += info[field]
            if s[PARENT] >= 0 and spans[s[PARENT]][NAME] == "solver.backward":
                backward_lp += 1
    counts = dict(probe["counts"])
    counts.update({
        "lp_solves": lp[0], "lp_pivots": lp[1], "lp_lazy_solves": lp[2],
        "lp_rows_offered": lp[3], "lp_rows_activated": lp[4],
        "lp_non_optimal": non_optimal, "backward_lp_solves": backward_lp,
        "cuts_added": sum(probe["cuts_added"]),
    })
    return {"dur": dur, "self": self_sum, "samples_us": samples_us,
            "pool_size": pool_size, "counts": counts}


def _ratio(num: int, den: int, basis: str) -> dict:
    return {"value": num / den if den else 0.0, "num": num, "den": den,
            "basis": basis}


def exact_block(counts: dict) -> dict:
    """Exact counts and ratios with their bases."""
    c = counts
    return {
        "lp.solves": {"value": c["lp_solves"], "basis": "stage LP solves"},
        "lp.pivots_per_solve": _ratio(c["lp_pivots"], c["lp_solves"],
                                      "simplex pivots / stage LP solves"),
        "lp.lazy_frac": _ratio(c["lp_lazy_solves"], c["lp_solves"],
                               "solves on the lazy-row path / stage LP solves"),
        "lp.activated_frac": _ratio(c["lp_rows_activated"], c["lp_rows_offered"],
                                    "<= rows activated / <= rows offered to lazy solves"),
        "lp.non_optimal": {"value": c["lp_non_optimal"],
                           "basis": "stage and oracle LPs not optimal"},
        "cuts.selected_frac": _ratio(c["cuts_selected"], c["cuts_total_last"],
                                     "selected cuts / stored cuts, last iteration"),
        "cuts.distinct_frac": _ratio(c["cuts_distinct"], c["cuts_stored"],
                                     "distinct rows after rounding to 1e-9 / stored rows"),
        "solver.lp_solves_per_cut": _ratio(c["backward_lp_solves"], c["cuts_added"],
                                           "backward-pass LP solves / cuts added"),
    }


SPAN_TIMINGS = {            # metric -> (span name, percentile)
    "lp.solve_us.p50": ("lp.solve", 50),
    "lp.solve_us.p99": ("lp.solve", 99),
    "cuts.add_cut_us.p50": ("cuts.add_cut", 50),
    "cuts.add_cut_us.p99": ("cuts.add_cut", 99),
    "cuts.add_trial_point_us.p50": ("cuts.add_trial_point", 50),
    "cuts.sync_us.p50": ("cuts.sync", 50),
    "cuts.sync_us.p99": ("cuts.sync", 99),
    "cuts.selected_cut_arrays_us.p50": ("cuts.selected_cut_arrays", 50),
    "program.sample_us.p50": ("program.sample", 50),
}
PER_REP_SECONDS = {         # metric -> (kind, key) summed per repetition
    "lp.self_s": ("self", "lp"),
    "cuts.self_s": ("self", "cuts"),
    "solver.forward_s": ("dur", "solver.forward"),
    "solver.backward_s": ("dur", "solver.backward"),
    "solver.bounds_s": ("dur", "solver.bounds"),
    "solver.backward_self_s": ("self", "solver.backward"),
    "program.extensive_form_s": ("dur", "program.extensive_form"),
    "program.oracle_solve_s": ("dur", "program.oracle_solve"),
    "models.build_s": ("dur", "models.build"),
}


def layer_metrics(groups: list[list[dict]], exact: dict,
                  speed: float = 1.0) -> tuple[dict, dict]:
    """(metric values, sample details) over traced repetitions grouped by
    sampling seed: a per-repetition sum takes its minimum within each seed,
    summed over seeds; span percentiles pool every repetition's spans; both
    are multiplied by the machine-speed factor. Exact counts come from the
    caller."""
    values, details = {}, {}
    reps = [r for group in groups for r in group]
    for metric, (span, q) in SPAN_TIMINGS.items():
        pooled = [v for r in reps for v in r["samples_us"].get(span, ())]
        values[metric] = percentile(pooled, q) * speed if pooled else 0.0
        sizes = [v for r in reps for v in r["pool_size"].get(span, ())]
        details[metric] = {"samples": len(pooled),
                           "tail": tail_percentile(pooled) if pooled else None,
                           "pool_cuts_x_points_p50":
                               percentile(sizes, 50) if sizes else None}
    for metric, (kind, key) in PER_REP_SECONDS.items():
        values[metric] = speed * sum(min(r[kind].get(key, 0.0) for r in group)
                                     for group in groups)
        details[metric] = {"samples": len(reps)}
    for metric, entry in exact.items():
        values[metric] = entry["value"]
    return values, details


# ---------------------------------------------------------------------------
# output checks

def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def check_outputs(probe: dict, out_dir: Path, expect_exit: int,
                  expect_iterations: int | None, verify: bool) -> list[str]:
    """Problems with one repetition's exit code and artifacts (empty = ok).
    expect_iterations is None where the run may stop early."""
    problems = []
    if probe["exit_code"] != expect_exit:
        problems.append(f"exit code {probe['exit_code']}, expected {expect_exit}: "
                        f"{probe['stderr'].strip()[-300:]}")
    if "solve_s" not in probe:
        return problems + ["the solver run never started"]
    iterations = probe["iterations"]
    if expect_iterations is not None and iterations != expect_iterations:
        problems.append(f"{iterations} iterations, expected {expect_iterations}")
    missing = [name for name in ARTIFACTS + ("meta.json",)
               if not (out_dir / name).is_file()]
    if missing:
        return problems + [f"missing artifacts: {', '.join(missing)}"]
    with open(out_dir / "bounds.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    if [r[0] for r in rows] != [str(i) for i in range(1, iterations + 1)]:
        problems.append(f"bounds.csv has {len(rows)} rows for {iterations} iterations")
    if not all(math.isfinite(float(v)) for r in rows for v in r[1:]):
        problems.append("bounds.csv has a non-finite value")
    # cut-count law: every iteration adds N x sum_{t>=2} M_t cuts
    law = probe["scenarios"] * sum(probe["realizations"][1:])
    meta = json.loads((out_dir / "meta.json").read_text())
    if meta["cuts_added"] != [law] * iterations:
        problems.append(f"cuts per iteration {meta['cuts_added']}, law gives {law}")
    if verify:
        found = re.search(r"relative_gap=(\S+)", probe["stdout"])
        gap = float(found.group(1)) if found else math.nan
        if not gap <= VERIFY_GAP_MAX:
            problems.append(f"verify relative gap {gap:.3e} above {VERIFY_GAP_MAX:g}")
    return problems


def final_gap(out_dir: Path) -> float:
    """|z_sup - z_inf| / max(1, |z_sup|) of the last bounds.csv row."""
    with open(out_dir / "bounds.csv", newline="") as fh:
        last = list(csv.reader(fh))[-1]
    z_inf, z_sup = float(last[1]), float(last[4])
    return abs(z_sup - z_inf) / max(1.0, abs(z_sup))
