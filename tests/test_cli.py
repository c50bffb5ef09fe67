import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import multicut.cli as cli_mod
import multicut.solver as solver
from multicut.cli import (EXIT_ARTIFACTS, EXIT_FAILURE, EXIT_MAX_ITERS, EXIT_OK,
                          EXIT_TREE, EXIT_USAGE, main)
from multicut import program as program_mod
from multicut.program import MultistageProgram, StageRealization, validate
from multicut.cuts import Cut, SelectorSpec
from multicut.models import reference_configs
from multicut.report import (read_bounds_csv, read_selection_csv,
                             realization_mean_proportions, render_report_text,
                             stage_mean_proportions, write_run_artifacts)
from multicut.serialize import program_from_json, program_to_json
from multicut.solver import RunConfig, SelectionRecord, run


def test_solve_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["solve", "--preset", "micro-inventory", "--selector", "cs2",
                 "--seed", "7", "--out", str(out)])
    assert code == EXIT_OK
    assert (out / "bounds.csv").exists()
    assert (out / "selection.csv").exists()
    assert (out / "meta.json").exists()
    bounds = read_bounds_csv(out / "bounds.csv")
    assert 1 <= len(bounds) <= 200
    meta = json.loads((out / "meta.json").read_text())
    assert meta["termination"] == "converged"
    assert meta["config"]["selector"] == "cs2"
    assert meta["seed"] == 7
    # stage templates built per iteration: every stage in the first forward
    # pass, then only stages whose selected cuts changed
    built = meta["templates_built"]
    assert len(built) == meta["iterations"]
    assert all(isinstance(n, int) and n >= 0 for n in built)
    assert built[0] >= 2


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("command,code", [("solve", EXIT_MAX_ITERS), ("verify", EXIT_OK)])
def test_closed_stdout_keeps_exit_code_and_artifacts(tmp_path, monkeypatch, capsys, command, code):
    out = tmp_path / "run"
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert main([command, "--preset", "micro-inventory", "--selector", "cs2",
                 "--max-iters", "2", "--epsilon", "1e-9", "--out", str(out)]) == code
    assert capsys.readouterr().err == ""
    for name in ("bounds.csv", "selection.csv", "meta.json"):
        assert (out / name).exists()


def test_solve_into_a_closed_pipe_exits_quietly(tmp_path):
    # the reader closes the pipe before the solve ends, as `| head -0` does;
    # Python's flush of stdout at exit must not fail either
    env = dict(os.environ, PYTHONPATH=str(Path(cli_mod.__file__).parents[1]))
    out = tmp_path / "run"
    proc = subprocess.Popen(
        [sys.executable, "-m", "multicut.cli", "solve", "--preset", "micro-inventory",
         "--selector", "cs2", "--max-iters", "2", "--epsilon", "1e-9", "--out", str(out)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == EXIT_MAX_ITERS
    assert err == b""
    assert (out / "bounds.csv").exists()


def test_solve_exit_code_on_iteration_cap(tmp_path):
    code = main(["solve", "--preset", "micro-inventory", "--selector", "cs2",
                 "--epsilon", "1e-9", "--max-iters", "2",
                 "--out", str(tmp_path / "r")])
    assert code == EXIT_MAX_ITERS


def test_long_inventory_horizon_runs_with_the_epigraph_floor(tmp_path):
    # a stage-10 cut can slope down in carried stock faster than holding
    # costs, which made stockpiling an unbounded ray of a stage-9 LP while
    # the epigraph variables were free
    out = tmp_path / "run"
    code = main(["solve", "--preset", "inventory-T10", "--selector", "cs2", "--scenarios", "2",
                 "--max-iters", "2", "--epsilon", "1e-12", "--out", str(out)])
    assert code == EXIT_MAX_ITERS
    bounds = read_bounds_csv(out / "bounds.csv")
    assert [b.iteration for b in bounds] == [1, 2]
    assert all(np.isfinite([b.z_inf, b.cost_mean, b.cost_std, b.z_sup]).all() for b in bounds)


def test_usage_errors(tmp_path, capsys):
    assert main(["solve", "--out", str(tmp_path)]) == EXIT_USAGE
    assert main(["solve", "--preset", "no-such-preset",
                 "--out", str(tmp_path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "known presets" in err
    for bad in ("bogus", "levelH:0", "levelH:-1", "levelH:x"):
        assert main(["solve", "--preset", "micro-inventory", "--selector", bad,
                     "--out", str(tmp_path)]) == EXIT_USAGE
    assert main(["solve", "--preset", "micro-inventory", "--program", "x.json",
                 "--out", str(tmp_path)]) == EXIT_USAGE
    assert main(["solve", "--preset", "micro-inventory", "--scenarios", "0",
                 "--out", str(tmp_path)]) == EXIT_USAGE
    capsys.readouterr()
    for flag in ("--epsilon", "--epsilon0"):
        for value in ("nan", "inf"):
            assert main(["solve", "--preset", "micro-inventory", flag, value,
                         "--out", str(tmp_path / "r")]) == EXIT_USAGE
            assert "must be finite" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()
    for value in ("-1", "18446744073709551616", "18446744073709551617"):
        assert main(["solve", "--preset", "micro-inventory", f"--seed={value}",
                     "--out", str(tmp_path / "r")]) == EXIT_USAGE
        assert "seed must lie in [0, 2**64)" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()
    for value in ("nan", "-1e-4", "inf"):
        assert main(["verify", "--preset", "micro-inventory", "--scenarios", "4",
                     "--max-iters", "1", "--tolerance", value]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert "--tolerance" in err and "FAIL" not in out
    for value in ("0", "-1"):
        assert main(["verify", "--preset", "micro-inventory", "--scenarios", "4",
                     "--max-iters", "1", "--tree-cap", value]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert "--tree-cap must be positive" in err and "FAIL" not in out


def test_non_finite_cut_exits_with_a_solver_failure(tmp_path, monkeypatch, capsys):
    cut = solver._StageTemplate.cut
    monkeypatch.setattr(solver._StageTemplate, "cut", lambda self, j, sol, iteration: Cut(
        0.0, np.full_like(cut(self, j, sol, iteration).beta, np.inf), iteration))
    code = main(["solve", "--preset", "micro-inventory", "--selector", "cs2",
                 "--out", str(tmp_path / "run")])
    assert code == EXIT_FAILURE
    assert capsys.readouterr().err == ("solver failure: non-finite cut at stage 3, "
                                       "realization 1, trial point 0\n")


def test_solve_refuses_an_unusable_out_dir_before_solving(tmp_path, monkeypatch, capsys):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before checking --out")

    monkeypatch.setattr(cli_mod, "run", no_solve)
    blocker = tmp_path / "file"
    blocker.write_text("keep")
    for out in (blocker, blocker / "sub"):
        assert main(["solve", "--preset", "micro-inventory", "--out", str(out)]) == EXIT_USAGE
        assert "cannot create output directory" in capsys.readouterr().err
        assert main(["verify", "--preset", "micro-inventory", "--out", str(out)]) == EXIT_USAGE
        assert "cannot create output directory" in capsys.readouterr().err
    rundir = tmp_path / "run"
    rundir.mkdir()
    (rundir / "bounds.csv").write_text("iteration,z_inf,cost_mean,cost_std,z_sup\n1,1,2,0,2\n")
    (rundir / "selection.csv").write_text("iteration,t,j,selected,total\n1,2,1,1,1\n")
    assert main(["report", "--run-dir", str(rundir), "--out", str(blocker)]) == EXIT_USAGE
    assert "cannot create output directory" in capsys.readouterr().err
    assert blocker.read_text() == "keep"
    assert main(["report", "--run-dir", str(rundir), "--out", str(tmp_path / "tables")]) == EXIT_OK
    assert (tmp_path / "tables" / "stage_summary.csv").exists()


@pytest.mark.parametrize("preset", ["micro-portfolio-4", "micro-inventory-4"])
def test_cs2_selects_exactly_as_level_h_1(tmp_path, preset):
    # both keep only the oldest maximizer of each trial point
    for sel in ("cs2", "levelH:1"):
        main(["solve", "--preset", preset, "--selector", sel, "--seed", "3",
              "--max-iters", "4", "--epsilon", "1e-6", "--out", str(tmp_path / sel)])
    for name in ("bounds.csv", "selection.csv"):
        assert (tmp_path / "cs2" / name).read_bytes() == \
               (tmp_path / "levelH:1" / name).read_bytes()


def test_solve_from_program_file(tmp_path):
    prog = reference_configs()["micro-inventory"].build()
    path = tmp_path / "prog.json"
    program_to_json(prog, path)
    out = tmp_path / "run"
    code = main(["solve", "--program", str(path), "--selector", "cs2",
                 "--scenarios", "8", "--out", str(out)])
    assert code in (EXIT_OK, EXIT_MAX_ITERS)
    assert (out / "bounds.csv").exists()



def test_program_with_only_le_rows(tmp_path, capsys):
    # stage 1 buys b <= 5 at 1.0 from a 2-dimensional x0; stage 2 covers the
    # demand with y + b >= d at 2.0 or 3.0, y <= 10; no stage has an equality row
    no_eq = dict(eq_cur=np.zeros((0, 1)), rhs_eq=np.zeros(0))
    stage1 = StageRealization(**no_eq, eq_prev=np.zeros((0, 2)), cost=[1.0], probability=1.0,
                              le_cur=[[1.0]], le_prev=[[0.0, 0.0]], rhs_le=[5.0])
    stage2 = [StageRealization(**no_eq, eq_prev=np.zeros((0, 1)), cost=[cost], probability=0.5,
                               le_cur=[[-1.0], [1.0]], le_prev=[[-1.0], [0.0]],
                               rhs_le=[-demand, 10.0])
              for cost, demand in ((2.0, 3.0), (3.0, 4.0))]
    prog = MultistageProgram(x0=[1.0, 0.0], stages=((stage1,), tuple(stage2)))
    assert prog.stages[1][0].eq_prev.shape == (0, 1)
    assert validate(prog) == []
    text = program_to_json(prog)
    back = program_from_json(text)
    assert program_to_json(back) == text
    assert [r.eq_prev.shape for s in back.stages for r in s] == [(0, 2), (0, 1), (0, 1)]
    assert [r.le_prev.shape for s in back.stages for r in s] == [(1, 2), (2, 1), (2, 1)]
    path = tmp_path / "prog.json"
    path.write_text(text)
    code = main(["verify", "--program", str(path), "--selector", "cs2",
                 "--scenarios", "4", "--max-iters", "5"])
    out = capsys.readouterr().out
    assert code == EXIT_OK, out
    assert "PASS" in out


def test_non_finite_program_file_is_a_usage_error(tmp_path, capsys):
    doc = json.loads(program_to_json(reference_configs()["micro-inventory"].build()))
    bad_probability = json.loads(json.dumps(doc))
    bad_probability["stages"][1]["realizations"][0]["probability"] = float("nan")
    bad_x0 = json.loads(json.dumps(doc))
    bad_x0["x0"][0] = float("nan")
    for name, bad, expected in (("prob", bad_probability, "probability nan"),
                                ("x0", bad_x0, "x0")):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(bad))
        assert "NaN" in path.read_text()
        code = main(["solve", "--program", str(path), "--scenarios", "4",
                     "--max-iters", "1", "--out", str(tmp_path / name)])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE, err
        assert "invalid program:" in err and expected in err


@pytest.mark.parametrize("empty", [0, 1])
def test_program_file_with_an_empty_stage_is_a_usage_error(empty, tmp_path, capsys):
    doc = json.loads(program_to_json(reference_configs()["micro-inventory-4"].build()))
    doc["stages"][empty]["realizations"] = []
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(doc))
    code = main(["solve", "--program", str(path), "--scenarios", "4",
                 "--max-iters", "1", "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE, err
    assert "invalid program:" in err and f"stage {empty + 1} has no realizations" in err

def test_verify_micro_all_selectors(capsys):
    oracles = set()
    for sel in ("muda", "cs1", "cs2"):
        code = main(["verify", "--preset", "micro-inventory", "--selector", sel,
                     "--scenarios", "8", "--max-iters", "5"])
        out = capsys.readouterr().out
        assert code == EXIT_OK, out
        assert "PASS" in out
        oracles.add(out.split("oracle=")[1].split()[0])
    assert len(oracles) == 1  # the oracle does not depend on the selector


def test_verify_refuses_huge_tree(capsys):
    code = main(["verify", "--preset", "inventory-T30"])
    assert code == EXIT_TREE
    err = capsys.readouterr().err
    assert "refused" in err and "cap" in err


def test_verify_refuses_dense_extensive_form(monkeypatch, capsys):
    # micro-portfolio-4 has 27 leaves, well under the leaf cap, and a dense
    # standard form of 280 rows x 440 columns
    monkeypatch.setattr(program_mod, "DENSE_ENTRY_CAP", 100_000)
    code = main(["verify", "--preset", "micro-portfolio-4"])
    assert code == EXIT_TREE
    err = capsys.readouterr().err
    assert "refused" in err and "123200 dense standard-form entries" in err


def test_report_stage_mean_example():
    # one stage, proportions 0.5 then 0.25 over two iterations -> mean 0.375
    selection = [SelectionRecord(1, 2, 1, 2, 4), SelectionRecord(2, 2, 1, 1, 4)]
    assert stage_mean_proportions(selection) == {2: 0.375}


def test_report_realization_means():
    selection = [SelectionRecord(1, 2, 1, 1, 4), SelectionRecord(2, 2, 1, 3, 4),
                 SelectionRecord(1, 2, 2, 2, 4), SelectionRecord(2, 2, 2, 4, 4)]
    means = realization_mean_proportions(selection)
    assert means[(2, 1)] == 0.5
    assert means[(2, 2)] == 0.75


def test_report_command_roundtrip(tmp_path, capsys):
    prog = reference_configs()["micro-inventory"].build()
    cfg = RunConfig(scenarios_per_iteration=8, epsilon=1e-9, seed=5,
                    max_iterations=3, selector=SelectorSpec.level1())
    report = run(prog, cfg)
    rundir = tmp_path / "run"
    write_run_artifacts(report, rundir)
    code = main(["report", "--run-dir", str(rundir)])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    # the text rendered from artifacts matches the in-memory rendering
    assert out.strip() == render_report_text(report.bounds, report.selection).strip()
    assert (rundir / "stage_summary.csv").exists()
    # summary tables computed from artifacts equal the in-memory summaries
    with open(rundir / "stage_summary.csv", newline="") as fh:
        rows = {int(r["t"]): float(r["mean_selected_proportion"])
                for r in csv.DictReader(fh)}
    assert rows == stage_mean_proportions(report.selection)


def test_report_missing_artifacts(tmp_path, capsys):
    assert main(["report", "--run-dir", str(tmp_path / "nope")]) == EXIT_ARTIFACTS
    assert "missing artifacts" in capsys.readouterr().err


BOUNDS_HEADER = "iteration,z_inf,cost_mean,cost_std,z_sup\n"
SELECTION_HEADER = "iteration,t,j,selected,total\n"


@pytest.mark.parametrize("bounds,selection", [
    ("iteration,z_inf\n1,not-a-number\n", SELECTION_HEADER),
    # rows cut short, as a run killed mid-write leaves them
    (BOUNDS_HEADER + "1,2\n", SELECTION_HEADER),
    (BOUNDS_HEADER + "1,2,3,0,4\n", SELECTION_HEADER + "1,2,1,3\n"),
    # a field past the header, which DictReader would drop
    (BOUNDS_HEADER + "1,1.0,2.0,0.1,2.5,99\n", SELECTION_HEADER),
    # more cuts selected than the pool holds, and a negative count
    (BOUNDS_HEADER + "1,2,3,0,4\n", SELECTION_HEADER + "1,2,1,5,3\n"),
    (BOUNDS_HEADER + "1,2,3,0,4\n", SELECTION_HEADER + "1,2,1,-1,3\n"),
], ids=["non-numeric", "truncated-bounds", "truncated-selection", "extra-field",
        "selected-above-total", "negative-count"])
def test_report_corrupt_artifacts(tmp_path, capsys, bounds, selection):
    rundir = tmp_path / "bad"
    rundir.mkdir()
    (rundir / "bounds.csv").write_text(bounds)
    (rundir / "selection.csv").write_text(selection)
    assert main(["report", "--run-dir", str(rundir)]) == EXIT_ARTIFACTS
    assert "corrupt artifacts" in capsys.readouterr().err


def test_artifact_float_precision_roundtrip(tmp_path):
    prog = reference_configs()["micro-inventory"].build()
    cfg = RunConfig(scenarios_per_iteration=8, epsilon=1e-9, seed=5,
                    max_iterations=2, selector=SelectorSpec.mlm_level1())
    report = run(prog, cfg)
    write_run_artifacts(report, tmp_path)
    bounds = read_bounds_csv(tmp_path / "bounds.csv")
    for a, b in zip(bounds, report.bounds):
        assert a == b  # 17 significant digits reproduce float64 exactly
    selection = read_selection_csv(tmp_path / "selection.csv")
    assert selection == report.selection


def test_cli_help_exits_cleanly(capsys):
    assert main(["--help"]) == 0
    assert "solve" in capsys.readouterr().out


def test_solve_without_selector_uses_cs1_as_its_help_says(tmp_path, capsys):
    # cs1 is the RunConfig default, so a --program run without --selector
    # uses it too
    assert RunConfig().selector == SelectorSpec.level1()
    out = tmp_path / "run"
    code = main(["solve", "--preset", "micro-inventory", "--seed", "3", "--scenarios", "4",
                 "--max-iters", "2", "--out", str(out)])
    assert code == EXIT_OK
    assert json.loads((out / "meta.json").read_text())["config"]["selector"] == "cs1"
    capsys.readouterr()
    assert main(["solve", "--help"]) == 0
    assert "levelH:<H> (default cs1)" in " ".join(capsys.readouterr().out.split())
