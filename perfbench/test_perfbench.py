"""Self-tests of the benchmark.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import csv
import dataclasses
import json
import subprocess
import sys

import pytest

from analysis import (check_outputs, exact_block, percentile, rep_layers,
                      self_times, tail_percentile)
from run import ROOT, Workload, child_env, fastest_solve, run_benchmark, run_seeds

MICRO = Workload("micro-inventory", "solve", "micro-inventory", "cs2", 3, 4)


def span(name, start, end, parent=-1, info=None):
    return [0, name, start, end, parent, info]


# -- span arithmetic -----------------------------------------------------------

def test_self_time_subtracts_union_of_children_clipped_to_parent():
    spans = [span("solver.backward", 0.0, 10.0),
             span("lp.solve", 1.0, 3.0, 0),
             span("cuts.add_cut", 2.0, 5.0, 0),    # overlaps the previous child
             span("cuts.sync", 9.0, 12.0, 0),      # runs past the parent's end
             span("cuts.sync", 3.5, 4.0, 2)]       # grandchild: not subtracted from 0
    assert self_times(spans) == pytest.approx([5.0, 2.0, 2.5, 3.0, 0.5])


def test_rep_layers_counts_and_backward_self_time():
    lp = lambda piv, lazy, offered, act: [1, piv, lazy, offered, act]  # noqa: E731
    spans = [span("solver.run", 0.0, 20.0),
             span("solver.forward", 0.0, 4.0, 0),
             span("lp.solve", 1.0, 2.0, 1, lp(10, 0, 0, 0)),
             span("solver.backward", 4.0, 14.0, 0),
             span("cuts.add_trial_point", 4.0, 5.0, 3, [0, 1]),
             span("lp.solve", 5.0, 8.0, 3, lp(30, 1, 100, 4)),
             span("cuts.add_cut", 8.0, 9.0, 3, [1, 1]),
             span("lp.solve", 9.0, 11.0, 3, lp(20, 1, 50, 2)),
             span("cuts.add_cut", 11.0, 12.0, 3, [2, 1])]
    probe = {"spans": spans, "cuts_added": [2],
             "counts": {"cuts_stored": 2, "cuts_distinct": 1,
                        "cuts_selected": 1, "cuts_total_last": 2}}
    layers = rep_layers(probe)
    assert layers["self"]["solver.backward"] == pytest.approx(2.0)
    assert layers["self"]["lp"] == pytest.approx(6.0)
    assert layers["dur"]["solver.backward"] == pytest.approx(10.0)
    exact = exact_block(layers["counts"])
    assert exact["lp.solves"]["value"] == 3
    assert (exact["lp.pivots_per_solve"]["num"], exact["lp.pivots_per_solve"]["den"]) == (60, 3)
    assert exact["lp.lazy_frac"]["value"] == pytest.approx(2 / 3)
    assert exact["lp.activated_frac"]["value"] == pytest.approx(6 / 150)
    assert exact["solver.lp_solves_per_cut"]["value"] == 1.0
    assert exact["cuts.distinct_frac"]["value"] == 0.5


# -- percentile rule -------------------------------------------------------------

def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile([7.0], 99) == 7.0


@pytest.mark.parametrize("n, expected_pct", [(11, 9), (20, 50), (100, 90), (1000, 99)])
def test_tail_percentile_leaves_ten_samples_beyond(n, expected_pct):
    values = [float(v) for v in range(n, 0, -1)]     # order must not matter
    pct, value = tail_percentile(values)
    assert pct == expected_pct
    assert sum(v > value for v in values) >= 10
    assert sum(v > percentile(values, pct + 1) for v in values) < 10


def test_tail_percentile_needs_more_than_ten_samples():
    assert tail_percentile([1.0] * 10) is None


def test_fastest_solve_takes_each_unit_at_its_minimum_per_seed():
    groups = {1: [{"units": [0.1, 2.0, 3.0]}, {"units": [0.2, 1.0, 4.0]}],
              2: [{"units": [0.5, 1.5]}]}
    assert fastest_solve(groups) == pytest.approx(0.1 + 1.0 + 3.0 + 0.5 + 1.5)


def test_run_seeds_start_with_the_given_seed_and_are_reproducible():
    seeds = run_seeds(7, 4)
    assert seeds[0] == 7 and len(set(seeds)) == 4
    assert run_seeds(7, 4) == seeds and run_seeds(8, 4)[1:] != seeds[1:]


# -- output checks on a real run ----------------------------------------------------

@pytest.fixture(scope="module")
def micro_run(tmp_path_factory):
    """One probe repetition of micro-inventory, artifacts kept."""
    rep = tmp_path_factory.mktemp("rep")
    out = rep / "artifacts"
    subprocess.run([sys.executable, str(ROOT / "perfbench" / "probe.py"), str(rep),
                    "0", "0", "--", *MICRO.argv(3, out)],
                   cwd=ROOT, env=child_env(ROOT), check=True, timeout=120)
    return json.loads((rep / "probe.json").read_text()), out


def test_checks_pass_on_a_clean_run(micro_run):
    probe, out = micro_run
    assert check_outputs(probe, out, 2, MICRO.iterations, verify=False) == []


def test_checks_catch_exit_code_and_missing_gap(micro_run):
    probe, out = micro_run
    problems = check_outputs(probe, out, 0, MICRO.iterations, verify=True)
    assert any("exit code 2" in p for p in problems)
    assert any("verify relative gap" in p for p in problems)


def test_checks_catch_bad_bounds_and_cut_counts(micro_run, tmp_path):
    probe, out = micro_run
    bad = tmp_path / "bad"
    bad.mkdir()
    for f in out.iterdir():
        (bad / f.name).write_bytes(f.read_bytes())
    with open(out / "bounds.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    rows[1][4] = "nan"
    with open(bad / "bounds.csv", "w", newline="") as fh:
        csv.writer(fh).writerows(rows[:-1])
    meta = json.loads((out / "meta.json").read_text())
    meta["cuts_added"][0] += 1
    (bad / "meta.json").write_text(json.dumps(meta))
    problems = check_outputs(probe, bad, 2, MICRO.iterations, verify=False)
    assert any("rows for 3 iterations" in p for p in problems)
    assert any("non-finite" in p for p in problems)
    assert any("law gives" in p for p in problems)


def test_seconds_long_traced_run_is_correct_and_counts_repeat():
    two_seeds = dataclasses.replace(MICRO, seeds=2)
    result = run_benchmark(two_seeds, seed=3, seconds=0, trace=True)
    assert result["failed"] == 0 and result["problems"] == []
    # the minimum: traced, untraced and traced rounds of one rep per seed
    assert result["attempted"] == 6
    assert [r["traced"] for r in result["repetitions"]] == [True, True, False, False,
                                                            True, True]
    exact = result["exact"]
    # 2 seeds x 3 iterations x N=4 x (M_2 + M_3 = 4) backward solves, one per cut
    assert exact["solver.lp_solves_per_cut"]["num"] == 96
    assert exact["solver.lp_solves_per_cut"]["value"] == 1.0
    assert result["metrics"]["lp.solves"] == exact["lp.solves"]["value"]
    env = result["environment"]
    assert env["seed"] == 3 and env["nproc"] >= 1 and env["numpy"]
