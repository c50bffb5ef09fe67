"""Command-line front end.

    multicut solve  --preset inventory-T5 --selector cs2 --out runs/t5
    multicut verify --preset micro-inventory --selector cs2
    multicut report --run-dir runs/t5

Exit codes: 0 success (solve: converged; verify: bound matches the oracle),
2 iteration cap hit, 3 usage or configuration error (an output directory
that cannot be created or written to among them), 4 solver failure,
5 verify gap above tolerance, 6 scenario tree too large for the oracle,
7 missing, unreadable or corrupt artifacts. A closed stdout (`multicut
solve ... | head -0`) makes a command quiet; it keeps its exit code and its
artifacts.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import report as report_mod
from .cuts import SelectorSpec
from .models import reference_configs
from .program import (DEFAULT_TREE_CAP, TreeTooLargeError, extensive_form,
                      validate)
from .lp import solve_lp, OPTIMAL
from .serialize import program_from_json
from .solver import CONVERGED, RunConfig, run

EXIT_OK = 0
EXIT_MAX_ITERS = 2
EXIT_USAGE = 3
EXIT_FAILURE = 4
EXIT_VERIFY_GAP = 5
EXIT_TREE = 6
EXIT_ARTIFACTS = 7

VERIFY_TOLERANCE = 1e-4


class UsageError(Exception):
    pass


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--preset", help="named instance from reference_configs()")
    parser.add_argument("--program", help="path to a serialized program (JSON)")
    parser.add_argument("--selector", default=None,
                        help="muda | cs1 | cs2 | levelH:<H> (default cs1)")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--scenarios", type=int, default=None,
                        help="forward scenarios per iteration (N)")
    parser.add_argument("--alpha", type=float, default=None)
    parser.add_argument("--epsilon", type=float, default=None)
    parser.add_argument("--epsilon0", type=float, default=None)
    parser.add_argument("--max-iters", type=int, default=None)
    parser.add_argument("--workers", type=int, default=1,
                        help="accepted for compatibility; the solver is "
                             "single-threaded, so the value changes nothing")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="multicut",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run the decomposition and emit artifacts")
    _add_common(solve)
    solve.add_argument("--out", required=True, help="output directory for artifacts")

    verify = sub.add_parser("verify",
                            help="run to convergence and compare the lower "
                                 "bound against the extensive-form oracle")
    _add_common(verify)
    verify.add_argument("--out", default=None, help="optional artifact directory")
    verify.add_argument("--tree-cap", type=int, default=DEFAULT_TREE_CAP)
    verify.add_argument("--tolerance", type=float, default=VERIFY_TOLERANCE)

    rep = sub.add_parser("report", help="summarize artifacts from a solve run")
    rep.add_argument("--run-dir", required=True)
    rep.add_argument("--out", default=None,
                     help="directory for summary tables (default: run dir)")
    return parser


def _resolve_program(args):
    if bool(args.preset) == bool(args.program):
        raise UsageError("exactly one of --preset or --program is required")
    if args.preset:
        presets = reference_configs()
        if args.preset not in presets:
            known = ", ".join(sorted(presets))
            raise UsageError(f"unknown preset {args.preset!r}; known presets: {known}")
        preset = presets[args.preset]
        return preset.build(), preset.run
    path = Path(args.program)
    if not path.exists():
        raise UsageError(f"program file not found: {path}")
    try:
        program = program_from_json(path)
    except Exception as exc:
        raise UsageError(f"cannot parse program file {path}: {exc}") from exc
    return program, RunConfig()


# run flag (argparse dest) -> the RunConfig field it sets
_RUN_FLAGS = {"selector": "selector", "seed": "seed",
              "scenarios": "scenarios_per_iteration", "alpha": "alpha",
              "epsilon": "epsilon", "epsilon0": "epsilon0",
              "max_iters": "max_iterations"}


def _resolve_config(args, base: RunConfig) -> RunConfig:
    given = {field: getattr(args, flag) for flag, field in _RUN_FLAGS.items()
             if getattr(args, flag) is not None}
    try:
        if "selector" in given:
            given["selector"] = SelectorSpec.from_name(given["selector"])
        return replace(base, **given)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _check_program(program) -> None:
    diagnostics = validate(program)
    if diagnostics:
        raise UsageError("invalid program: " + "; ".join(diagnostics))


def _make_out_dir(path) -> None:
    """Create the artifact directory, if one is given, before any solve."""
    if not path:
        return
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot create output directory {path}: {exc}") from exc


def _write_artifacts(write, outdir, *data) -> None:
    """write(*data, outdir), with a failed write reported as a usage error."""
    try:
        write(*data, outdir)
    except OSError as exc:
        raise UsageError(f"cannot write artifacts to {outdir}: {exc}") from exc


# Each command returns (exit code, text for stdout); main prints the text.

def cmd_solve(args) -> tuple:
    program, base = _resolve_program(args)
    _check_program(program)
    cfg = _resolve_config(args, base)
    _make_out_dir(args.out)
    report = run(program, cfg)
    _write_artifacts(report_mod.write_run_artifacts, args.out, report)
    final = report.final
    text = (f"{report.termination} after {report.iterations} iterations: "
            f"z_inf={final.z_inf:.10g} z_sup={final.z_sup:.10g}\n"
            f"artifacts written to {args.out}")
    return EXIT_OK if report.termination == CONVERGED else EXIT_MAX_ITERS, text


def cmd_verify(args) -> tuple:
    if not (math.isfinite(args.tolerance) and args.tolerance >= 0.0):
        raise UsageError(f"--tolerance must be finite and nonnegative, got {args.tolerance:g}")
    if args.tree_cap < 1:
        raise UsageError(f"--tree-cap must be positive, got {args.tree_cap}")
    program, base = _resolve_program(args)
    _check_program(program)
    # drive the lower bound tight; the stopping rule rarely fires at this
    # epsilon, so the iteration cap is the effective budget
    base = replace(base, epsilon=1e-6,
                   max_iterations=min(base.max_iterations, 25))
    cfg = _resolve_config(args, base)
    _make_out_dir(args.out)
    try:
        oracle_lp = extensive_form(program, tree_cap=args.tree_cap)
    except TreeTooLargeError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_TREE, ""
    oracle_sol = solve_lp(oracle_lp)
    if oracle_sol.status != OPTIMAL:
        print(f"oracle LP terminated with status {oracle_sol.status}", file=sys.stderr)
        return EXIT_FAILURE, ""
    oracle = oracle_sol.objective
    report = run(program, cfg)
    z_inf = report.final.z_inf
    gap = abs(z_inf - oracle) / max(1.0, abs(oracle))
    ok = gap <= args.tolerance
    if args.out:
        _write_artifacts(report_mod.write_run_artifacts, args.out, report)
    text = (f"oracle={oracle:.12g} z_inf={z_inf:.12g} relative_gap={gap:.3e} "
            f"tolerance={args.tolerance:g} iterations={report.iterations} "
            f"termination={report.termination} -> {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_VERIFY_GAP, text


def cmd_report(args) -> tuple:
    _make_out_dir(args.out)
    run_dir = Path(args.run_dir)
    bounds_path = run_dir / report_mod.BOUNDS_FILE
    selection_path = run_dir / report_mod.SELECTION_FILE
    if not bounds_path.exists() or not selection_path.exists():
        print(f"missing artifacts in {run_dir}: expected "
              f"{report_mod.BOUNDS_FILE} and {report_mod.SELECTION_FILE}",
              file=sys.stderr)
        return EXIT_ARTIFACTS, ""
    try:
        bounds = report_mod.read_bounds_csv(bounds_path)
        selection = report_mod.read_selection_csv(selection_path)
    except (OSError, ValueError, KeyError) as exc:
        print(f"corrupt artifacts in {run_dir}: {exc}", file=sys.stderr)
        return EXIT_ARTIFACTS, ""
    if not bounds:
        print(f"no iterations recorded in {bounds_path}", file=sys.stderr)
        return EXIT_ARTIFACTS, ""
    _write_artifacts(report_mod.write_report_tables, args.out or run_dir,
                     bounds, selection)
    return EXIT_OK, report_mod.render_report_text(bounds, selection)


def _print_to_stdout(text: str) -> None:
    """Print text; when the reader has closed stdout, drop it instead, and
    point stdout at the null device so that Python's flush at exit does not
    fail either."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        except OSError:  # a stdout without a file descriptor
            pass
        finally:
            os.close(devnull)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    command = {"solve": cmd_solve, "verify": cmd_verify, "report": cmd_report}[args.command]
    try:
        code, text = command(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:  # SolverError among them
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    if text:
        _print_to_stdout(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
