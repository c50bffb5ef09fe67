"""Run artifacts and report summaries.

A run emits three files into its output directory:

  bounds.csv     iteration, z_inf, cost_mean, cost_std, z_sup
  selection.csv  iteration, t, j, selected, total   (t, j are 1-based)
  meta.json      termination reason, seed, config echo, cut counts, stage
                 templates built per iteration, timings

Floats are printed with 17 significant digits, which round-trips float64
exactly, so rereading artifacts reproduces in-memory results bit for bit;
given a fixed seed the two CSV files are reproducible byte for byte.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict
from pathlib import Path

from .solver import BoundsRecord, RunReport, SelectionRecord

BOUNDS_FILE = "bounds.csv"
SELECTION_FILE = "selection.csv"
META_FILE = "meta.json"


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_run_artifacts(report: RunReport, outdir) -> None:
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / BOUNDS_FILE, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "z_inf", "cost_mean", "cost_std", "z_sup"])
        for b in report.bounds:
            writer.writerow([b.iteration, _fmt(b.z_inf), _fmt(b.cost_mean),
                             _fmt(b.cost_std), _fmt(b.z_sup)])
    with open(out / SELECTION_FILE, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "t", "j", "selected", "total"])
        for s in report.selection:
            writer.writerow([s.iteration, s.stage, s.realization, s.selected, s.total])
    cfg = asdict(report.config)
    cfg["selector"] = report.config.selector.cli_name
    meta = {
        "termination": report.termination,
        "iterations": report.iterations,
        "seed": report.config.seed,
        "config": cfg,
        "total_cuts": report.total_cuts,
        "cuts_added": list(report.cuts_added),
        "templates_built": list(report.templates_built),
        "forward_seconds": list(report.forward_seconds),
        "backward_seconds": list(report.backward_seconds),
        "bound_seconds": list(report.bound_seconds),
    }
    (out / META_FILE).write_text(json.dumps(meta, indent=1))


def _csv_rows(path):
    """The rows of a CSV artifact as dicts. A row shorter than the header, as
    a run killed mid-write leaves, or longer raises ValueError."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            if None in row.values():
                raise ValueError(f"{Path(path).name}: line {reader.line_num} is truncated")
            if None in row:  # DictReader files the fields past the header under None
                raise ValueError(f"{Path(path).name}: line {reader.line_num} has "
                                 f"{len(row[None])} fields more than the header")
            yield row


def read_bounds_csv(path) -> list:
    return [BoundsRecord(int(row["iteration"]), float(row["z_inf"]),
                         float(row["cost_mean"]), float(row["cost_std"]),
                         float(row["z_sup"]))
            for row in _csv_rows(path)]


def read_selection_csv(path) -> list:
    """The selection records; a row needs 0 <= selected <= total, else
    ValueError."""
    records = [SelectionRecord(int(row["iteration"]), int(row["t"]), int(row["j"]),
                               int(row["selected"]), int(row["total"]))
               for row in _csv_rows(path)]
    for s in records:
        if not 0 <= s.selected <= s.total:
            raise ValueError(f"{Path(path).name}: iteration {s.iteration}, t={s.stage}, "
                             f"j={s.realization} selects {s.selected} of {s.total} cuts")
    return records


# ---------------------------------------------------------------------------
# summaries

def stage_mean_proportions(selection) -> dict:
    """Per-stage selected proportion, aggregated over realizations within an
    iteration, then averaged over iterations."""
    per_iter: dict = {}
    for s in selection:
        sel, tot = per_iter.setdefault((s.stage, s.iteration), [0, 0])
        per_iter[(s.stage, s.iteration)] = [sel + s.selected, tot + s.total]
    stages = sorted({stage for stage, _ in per_iter})
    out = {}
    for stage in stages:
        props = [sel / tot for (st, _), (sel, tot) in sorted(per_iter.items())
                 if st == stage and tot]
        out[stage] = sum(props) / len(props) if props else 0.0
    return out


def realization_mean_proportions(selection) -> dict:
    """Mean over iterations of the selected proportion of each (t, j) pool."""
    acc: dict = {}
    for s in selection:
        if s.total:
            acc.setdefault((s.stage, s.realization), []).append(s.selected / s.total)
    return {key: sum(v) / len(v) for key, v in sorted(acc.items())}


def final_bounds_summary(bounds) -> dict:
    last = bounds[-1]
    return {
        "iterations": len(bounds),
        "z_inf": last.z_inf,
        "z_sup": last.z_sup,
        "cost_mean": last.cost_mean,
        "cost_std": last.cost_std,
        "gap": abs(last.z_sup - last.z_inf),
        "relative_gap": abs(last.z_sup - last.z_inf) / max(1.0, abs(last.z_sup)),
    }


def write_report_tables(bounds, selection, outdir) -> None:
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "stage_summary.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "mean_selected_proportion"])
        for stage, prop in stage_mean_proportions(selection).items():
            writer.writerow([stage, _fmt(prop)])
    with open(out / "realization_summary.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "j", "mean_selected_proportion"])
        for (stage, j), prop in realization_mean_proportions(selection).items():
            writer.writerow([stage, j, _fmt(prop)])
    with open(out / "bounds_summary.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        summary = final_bounds_summary(bounds)
        writer.writerow(list(summary))
        writer.writerow([summary["iterations"]] + [_fmt(summary[k]) for k in list(summary)[1:]])


def render_report_text(bounds, selection) -> str:
    lines = ["final bounds:"]
    for key, value in final_bounds_summary(bounds).items():
        lines.append(f"  {key} = {value:.10g}" if isinstance(value, float)
                     else f"  {key} = {value}")
    lines.append("mean selected proportion by stage:")
    for stage, prop in stage_mean_proportions(selection).items():
        lines.append(f"  t={stage}: {prop:.4f}")
    return "\n".join(lines)
