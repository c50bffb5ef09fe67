"""One benchmark repetition, run in a fresh interpreter.

    python3 perfbench/probe.py OUT_DIR RUN_ID TRACE -- <multicut CLI arguments>

Calls ``multicut.cli.main`` with the given arguments and writes
``OUT_DIR/probe.json``: exit code, captured CLI output, set-up and solve
wall time (set-up timed over several set-up-only CLI calls as well, the
solve cut into one unit per iteration), the fastest time of
a fixed reference loop run around the call and between iterations, peak
RSS and the run's cut counts. With TRACE=1 it also records
spans around the public call boundaries of each package module (wrapped
from here, so the package itself is unchanged) and the exact counts the
per-layer metrics are built from.

A span is ``[run_id, name, start, end, parent, info]``: ``parent`` is the
index of the enclosing span in the same list (-1 at the top) and ``info``
holds the counts observed at that boundary.
"""

from __future__ import annotations

import functools
import io
import json
import resource
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import numpy as np

import multicut.cli as cli
import multicut.solver as solver
from multicut.cuts import CutPool
from multicut.lp import OPTIMAL
from multicut.models import Preset

CUTPOOL_METHODS = ("add_trial_point", "add_cut", "sync", "selected_cut_arrays",
                   "selection_stats")
REFERENCE_LOOPS = 4      # timed before and after the CLI call
SETUP_PASSES = 5         # set-up-only CLI calls before the real one


class _SetupDone(BaseException):
    """Raised in place of run() to end a set-up-only pass; not an Exception,
    so the CLI's own handlers let it through."""


def reference_loop() -> float:
    """Fixed work shaped like a stage solve (small dense solves and
    mat-vecs driven from Python); its time tracks the machine's speed."""
    a = np.cos(np.arange(1600.0)).reshape(40, 40) + 40.0 * np.eye(40)
    b = np.sin(np.arange(40.0))
    acc = 0.0
    start = perf_counter()
    for k in range(400):
        y = a @ np.linalg.solve(a, b)
        acc += float(y[k % 40])
        for i in range(40):
            acc += i * 1e-9
    return perf_counter() - start


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, info=None):
        """fn wrapped in a span; info(args, result) gives the span's counts."""
        spans, stack, run_id = self.spans, self._stack, self.run_id

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [run_id, name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                stack.pop()
            if info is not None:
                rec[5] = info(args, out)
            return out

        return traced


def _lp_info(args, sol):
    """[optimal, pivots, lazy, <= rows offered, rows activated]; the lazy
    path is the only one that reports activated rows."""
    lazy = sol.activated_rows is not None
    return [int(sol.status == OPTIMAL), int(sol.pivots), int(lazy),
            int(args[0].b_le.size) if lazy else 0,
            int(sol.activated_rows.size) if lazy else 0]


def _pool_info(args, _out):
    pool = args[0]
    return [pool.num_cuts, pool.num_points]


def install_tracer(tracer: Tracer) -> None:
    cli.run = tracer.wrap("solver.run", cli.run)
    solver.solve_lp = tracer.wrap("lp.solve", solver.solve_lp, _lp_info)
    solver.forward_pass = tracer.wrap("solver.forward", solver.forward_pass)
    solver.backward_pass = tracer.wrap("solver.backward", solver.backward_pass)
    solver.compute_bounds = tracer.wrap("solver.bounds", solver.compute_bounds)
    solver.sample_scenario = tracer.wrap("program.sample", solver.sample_scenario)
    cli.solve_lp = tracer.wrap("program.oracle_solve", cli.solve_lp, _lp_info)
    cli.extensive_form = tracer.wrap("program.extensive_form", cli.extensive_form)
    cli.validate = tracer.wrap("program.validate", cli.validate)
    Preset.build = tracer.wrap("models.build", Preset.build)
    for method in CUTPOOL_METHODS:
        setattr(CutPool, method,
                tracer.wrap(f"cuts.{method}", getattr(CutPool, method), _pool_info))


def distinct_rows(pool: CutPool) -> int:
    """Stored cut rows (theta, beta) that differ after rounding to 1e-9."""
    if pool.num_cuts == 0:
        return 0
    rows = np.array([np.concatenate([[c.theta], c.beta]) for c in pool.cuts()])
    rows = np.round(rows, 9) + 0.0  # + 0.0 folds -0.0 into 0.0
    return len({row.tobytes() for row in rows})


def exact_counts(report) -> dict:
    """Counts of the finished run that do not depend on timing."""
    last = [s for s in report.selection if s.iteration == report.iterations]
    pools = report.pools.values()
    return {
        "cuts_stored": sum(p.num_cuts for p in pools),
        "cuts_distinct": sum(distinct_rows(p) for p in pools),
        "cuts_selected": sum(s.selected for s in last),
        "cuts_total_last": sum(s.total for s in last),
    }


def main(argv: list[str]) -> int:
    out_dir, run_id, trace = Path(argv[0]), int(argv[1]), argv[2] == "1"
    if argv[3] != "--":
        raise SystemExit("usage: probe.py OUT_DIR RUN_ID TRACE -- CLI_ARGS...")
    cli_args = argv[4:]
    tracer = Tracer(run_id)
    if trace:
        install_tracer(tracer)
    seen = {}
    reference = []
    # run() is cut into units at each forward pass: the set-up before the
    # first iteration, then one unit per iteration. A reference loop runs
    # between units, outside them, so both are sampled at the same moments.
    cuts_at = []            # (end of one unit, start of the next)
    inner_run, inner_forward = cli.run, solver.forward_pass

    def timed_run(program, cfg, *args, **kwargs):
        seen["program"] = program
        seen["run_start"] = perf_counter()
        if setup_only:
            raise _SetupDone
        report = inner_run(program, cfg, *args, **kwargs)
        seen["run_end"] = perf_counter()
        seen["report"] = report
        return report

    def cut_forward(*args, **kwargs):
        end = perf_counter()
        reference.append(reference_loop())
        cuts_at.append((end, perf_counter()))
        return inner_forward(*args, **kwargs)

    cli.run, solver.forward_pass = timed_run, cut_forward
    stdout, stderr = io.StringIO(), io.StringIO()
    setups = []
    with redirect_stdout(stdout), redirect_stderr(stderr):
        setup_only = True
        for _ in range(SETUP_PASSES):
            reference.append(reference_loop())
            entry = perf_counter()
            try:
                cli.main(cli_args)
            except _SetupDone:
                setups.append(seen["run_start"] - entry)
        setup_only = False
        tracer.spans.clear()
        reference += [reference_loop() for _ in range(REFERENCE_LOOPS)]
        entry = perf_counter()
        code = cli.main(cli_args)
    reference += [reference_loop() for _ in range(REFERENCE_LOOPS)]
    result = {
        "reference_s": min(reference),
        "exit_code": code,
        "stdout": stdout.getvalue(),
        "stderr": stderr.getvalue(),
        "numpy": np.__version__,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    report = seen.get("report")
    if report is not None:
        program = seen["program"]
        starts = [seen["run_start"]] + [start for _, start in cuts_at]
        ends = [end for end, _ in cuts_at] + [seen["run_end"]]
        units = [e - b for b, e in zip(starts, ends)]
        result.update({
            "setup_s": min(setups + [seen["run_start"] - entry]),
            "solve_units_s": units,
            "solve_s": sum(units),
            "iterations": report.iterations,
            "scenarios": report.config.scenarios_per_iteration,
            "cuts_added": list(report.cuts_added),
            "realizations": [len(stage) for stage in program.stages],
        })
        if trace:
            result["counts"] = exact_counts(report)
            result["spans"] = tracer.spans
    (out_dir / "probe.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
