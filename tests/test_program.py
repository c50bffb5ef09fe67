from pathlib import Path

import numpy as np
import pytest
import scipy.stats as st
from scipy.optimize import linprog

from multicut.lp import LPProblem, solve_lp
from multicut.models import InventoryParams, make_inventory, reference_configs
from multicut.program import (MultistageProgram, StageRealization, TreeTooLargeError,
                              exact_recourse_value, extensive_form,
                              extensive_form_value, feasible_states,
                              path_stream, sample_scenario, validate)
from multicut.serialize import program_from_json, program_to_json

from conftest import tiny_program


# --- validation ---------------------------------------------------------------

def test_validate_clean_program(micro_inventory):
    assert validate(micro_inventory) == []


def test_validate_probability_sum():
    prog = tiny_program(prob2=(0.5, 0.4))
    diags = validate(prog)
    assert len(diags) == 1
    assert "stage 2" in diags[0] and "sum" in diags[0]


def test_validate_dimension_mismatch():
    stage1 = StageRealization(eq_cur=[[1.0]], eq_prev=[[0.0]], rhs_eq=[3.0],
                              cost=[1.0], probability=1.0)
    bad = StageRealization(eq_cur=[[1.0]], eq_prev=[[1.0, 2.0]], rhs_eq=[4.0],
                           cost=[1.0], probability=1.0)
    prog = MultistageProgram(x0=np.zeros(1),
                             stages=((stage1,), (bad,)))
    diags = validate(prog)
    assert any("eq_prev" in d and "columns" in d for d in diags)


def test_validate_stage_count_and_root_determinism():
    one = StageRealization(eq_cur=[[1.0]], eq_prev=[[0.0]], rhs_eq=[1.0],
                           cost=[1.0], probability=1.0)
    short = MultistageProgram(x0=np.zeros(1), stages=((one,),))
    assert any("at least 2" in d for d in validate(short))
    two_roots = MultistageProgram(
        x0=np.zeros(1),
        stages=((one, one), (one,)))
    assert any("deterministic" in d for d in validate(two_roots))


# --- sampling -----------------------------------------------------------------

def test_sampling_degenerate_support():
    prog = make_inventory(InventoryParams(stage_count=4, realizations=1, seed=3))
    path = sample_scenario(prog, path_stream(1, 1, 0))
    assert path == (0, 0, 0, 0)


def test_sampling_deterministic():
    prog = make_inventory(InventoryParams(stage_count=4, realizations=5, seed=3))
    a = [sample_scenario(prog, path_stream(42, it, k))
         for it in range(3) for k in range(5)]
    b = [sample_scenario(prog, path_stream(42, it, k))
         for it in range(3) for k in range(5)]
    assert a == b


def test_sampling_frequencies(micro_inventory):
    # law of large numbers: uniform two-point support, 10^4 draws
    counts = np.zeros(2)
    for k in range(10**4):
        path = sample_scenario(micro_inventory, path_stream(7, 1, k))
        counts[path[1]] += 1
    freq = counts / counts.sum()
    assert 0.45 <= freq[0] <= 0.55
    assert st.chisquare(counts).pvalue > 1e-4


def test_sampling_weighted():
    prog = tiny_program(prob2=(0.2, 0.8))
    counts = np.zeros(2)
    for k in range(10**4):
        counts[sample_scenario(prog, path_stream(3, 0, k))[1]] += 1
    assert st.chisquare(counts, f_exp=[2000, 8000]).pvalue > 1e-4


# --- extensive form -------------------------------------------------------------

def test_extensive_form_single_scenario_concatenation():
    # T=2, M=1: the tree LP must coincide with the concatenated two-stage LP
    prog = tiny_program(prob2=(1.0,), demands2=(6.0,))
    value = extensive_form_value(prog)
    # independent construction: variables (x1, x2)
    ref = linprog([1.0, 2.0], A_eq=[[1.0, 0.0], [1.0, 1.0]], b_eq=[3.0, 6.0],
                  bounds=(0, None), method="highs")
    assert value == pytest.approx(ref.fun, rel=1e-9)


def test_extensive_form_matches_independent_tree(micro_inventory):
    # brute-force deterministic equivalent built independently and solved by
    # scipy: enumerate tree nodes of the T=3, M=2 instance by hand
    prog = micro_inventory
    dims = prog.stage_dims
    nodes = [(0, 0, -1), (1, 0, 0), (1, 1, 0)]
    nodes += [(2, 0, 1), (2, 1, 1), (2, 0, 2), (2, 1, 2)]
    offs = np.cumsum([0] + [dims[t] for t, _, _ in nodes])
    nvar = offs[-1]
    probs = {0: 1.0, 1: 0.5, 2: 0.5, 3: 0.25, 4: 0.25, 5: 0.25, 6: 0.25}
    c = np.zeros(nvar)
    rows, rhs = [], []
    for i, (t, j, parent) in enumerate(nodes):
        r = prog.stages[t][j]
        c[offs[i]:offs[i + 1]] += probs[i] * r.cost
        block = np.zeros((r.rhs_eq.size, nvar))
        block[:, offs[i]:offs[i + 1]] = r.eq_cur
        if parent < 0:
            rhs.append(r.rhs_eq - r.eq_prev @ prog.x0)
        else:
            block[:, offs[parent]:offs[parent + 1]] = r.eq_prev
            rhs.append(r.rhs_eq)
        rows.append(block)
    ref = linprog(c, A_eq=np.vstack(rows), b_eq=np.concatenate(rhs),
                  bounds=(0, None), method="highs")
    assert extensive_form_value(prog) == pytest.approx(ref.fun, rel=1e-9)


def test_extensive_form_permutation_invariance(micro_inventory):
    prog = micro_inventory
    swapped_stages = list(prog.stages)
    swapped_stages[1] = tuple(reversed(prog.stages[1]))
    swapped = MultistageProgram(x0=prog.x0, stages=tuple(swapped_stages))
    a = extensive_form_value(prog)
    b = extensive_form_value(swapped)
    assert b == pytest.approx(a, rel=1e-9)


def test_extensive_form_tree_cap():
    prog = reference_configs()["inventory-T30"].build()
    with pytest.raises(TreeTooLargeError) as err:
        extensive_form(prog)
    assert "raise the cap" in str(err.value)
    assert err.value.leaves == 20**29


def test_exact_recourse_last_stage(micro_inventory):
    # stage T recourse is a single LP; check against a direct solve
    prog = micro_inventory
    r = prog.stages[2][1]
    x_prev = np.array([8.0, 0.0, 0.0, 2.5])
    direct = solve_lp(LPProblem(r.cost, r.eq_cur, r.rhs_eq - r.eq_prev @ x_prev))
    assert exact_recourse_value(prog, 2, 1, x_prev) == pytest.approx(
        direct.objective, abs=1e-9)


def test_feasible_states_are_feasible(micro_inventory):
    prog = micro_inventory
    states = feasible_states(prog, 2, 10, seed=13)
    assert len(states) == 10
    again = feasible_states(prog, 2, 10, seed=13)
    for a, b in zip(states, again):
        assert np.array_equal(a, b)
    # each state admits a feasible stage-3 problem for every realization
    for x in states:
        for j in range(2):
            value = exact_recourse_value(prog, 2, j, x)
            assert np.isfinite(value)


# --- serialization ---------------------------------------------------------------

def test_serialization_roundtrip(micro_inventory, tmp_path):
    prog = micro_inventory
    path = tmp_path / "prog.json"
    text = program_to_json(prog, path)
    back = program_from_json(path)
    assert back.stage_count == prog.stage_count
    assert np.array_equal(back.x0, prog.x0)
    for sa, sb in zip(prog.stages, back.stages):
        for ra, rb in zip(sa, sb):
            assert ra.probability == rb.probability
            for attr in ("eq_cur", "eq_prev", "rhs_eq", "cost",
                         "le_cur", "le_prev", "rhs_le"):
                assert np.array_equal(getattr(ra, attr), getattr(rb, attr))
    # emit -> parse -> emit is byte-stable
    assert program_to_json(back) == text
    # the returned text parses as well as the file it was written to
    assert program_to_json(program_from_json(text)) == text


@pytest.mark.parametrize("name", ["micro-inventory", "micro-portfolio"])
def test_serialized_program_format_is_stable(name):
    # files written by an earlier version of the package load and write
    # back byte for byte, and the presets still build the same program
    path = Path(__file__).parent / "data" / f"{name}.json"
    text = path.read_text()
    assert program_to_json(program_from_json(path)) == text
    assert program_to_json(reference_configs()[name].build()) == text


def test_program_stages_are_tuples_of_realizations():
    one = dict(eq_cur=[[1.0]], eq_prev=[[1.0]], rhs_eq=[1.0], cost=[1.0])
    first = StageRealization(probability=1.0, **one)
    halves = [StageRealization(probability=0.5, **one) for _ in range(2)]
    prog = MultistageProgram(x0=[0.0], stages=[[first], iter(halves)])
    assert prog.stages == ((first,), tuple(halves))
    assert all(type(stage) is tuple for stage in prog.stages)
    assert validate(prog) == []
    path = sample_scenario(prog, path_stream(1, 1, 0))
    assert type(path) is tuple and all(type(i) is int for i in path)


def test_serialization_rejects_foreign_documents():
    with pytest.raises(ValueError):
        program_from_json('{"format": "something-else"}')
