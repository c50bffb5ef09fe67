import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from multicut.cuts import (Cut, CutPool, NEG_INF, SelectorSpec, dump_pool_csv,
                           load_pool_csv)

from conftest import reference_scan


def pool(selector=None, dim=1, eps0=1e-6):
    return CutPool(2, 1, dim, selector or SelectorSpec.level1(), eps0)


SELECTORS = [SelectorSpec.all(), SelectorSpec.level1(), SelectorSpec.mlm_level1(),
             SelectorSpec.level_h(2)]


# --- add_trial_point ---------------------------------------------------------

def test_add_point_to_empty_pool():
    p = pool()
    i = p.add_trial_point([0.0])
    assert p.best_value(i) == NEG_INF
    assert p.argmax_set(i) == ()


def test_add_point_scans_cuts():
    p = pool()
    p.add_cut(Cut(0.0, [1.0], 1))    # C1(x) = x
    p.add_cut(Cut(2.0, [-1.0], 1))   # C2(x) = 2 - x
    i = p.add_trial_point([0.0])
    assert p.best_value(i) == 2.0
    assert p.argmax_set(i) == (2,)


def test_mlm_point_keeps_oldest_on_ties():
    p = pool(SelectorSpec.mlm_level1())
    p.add_cut(Cut(0.0, [1.0], 1))
    p.add_cut(Cut(0.0, [1.0], 1))    # identical twin
    i = p.add_trial_point([5.0])
    assert p.argmax_set(i) == (1,)


def test_add_point_dimension_mismatch():
    p = pool(dim=2)
    with pytest.raises(ValueError):
        p.add_trial_point([1.0])


# --- add_cut -------------------------------------------------------------------

def test_add_cut_updates_points():
    p = pool()
    p.add_cut(Cut(0.0, [1.0], 1))
    p.add_trial_point([0.0])
    p.add_trial_point([2.0])
    assert [p.best_value(i) for i in (0, 1)] == [0.0, 2.0]
    p.add_cut(Cut(2.0, [-1.0], 1))
    assert p.argmax_set(0) == (2,) and p.best_value(0) == 2.0
    assert p.argmax_set(1) == (1,) and p.best_value(1) == 2.0


def test_dominated_cut_changes_nothing():
    p = pool()
    p.add_cut(Cut(0.0, [1.0], 1))
    p.add_trial_point([0.0])
    p.add_trial_point([2.0])
    before = [(p.best_value(i), p.argmax_set(i)) for i in (0, 1)]
    p.add_cut(Cut(-10.0, [0.0], 2))
    assert [(p.best_value(i), p.argmax_set(i)) for i in (0, 1)] == before


def test_tolerant_tie_appends_not_replaces():
    p = pool(eps0=1e-6)
    p.add_cut(Cut(1.0, [0.0], 1))
    p.add_trial_point([0.0])
    p.add_cut(Cut(1.0000005, [0.0], 2))
    # within eps0 * max(1, |m|): a tie, so the older record survives
    assert p.best_value(0) == 1.0
    assert p.argmax_set(0) == (1, 2)


def test_strict_improvement_replaces():
    p = pool(eps0=1e-6)
    p.add_cut(Cut(1.0, [0.0], 1))
    p.add_trial_point([0.0])
    p.add_cut(Cut(1.01, [0.0], 2))
    assert p.best_value(0) == 1.01
    assert p.argmax_set(0) == (2,)


def test_mlm_never_extends_on_tie():
    p = pool(SelectorSpec.mlm_level1())
    p.add_cut(Cut(1.0, [0.0], 1))
    p.add_trial_point([0.0])
    p.add_cut(Cut(1.0, [0.0], 2))
    assert p.argmax_set(0) == (1,)


def test_add_cut_dimension_mismatch():
    p = pool(dim=2)
    with pytest.raises(ValueError):
        p.add_cut(Cut(0.0, [1.0], 1))


@pytest.mark.parametrize("sel", SELECTORS, ids=lambda s: s.cli_name)
def test_add_cut_refuses_non_finite_cuts(sel):
    nan, inf = float("nan"), float("inf")
    p = CutPool(3, 2, 2, sel)
    p.add_trial_point([1.0, 0.0])
    p.add_cut(Cut(0.0, [1.0, 1.0], 1))
    for theta, beta in ((nan, [0.0, 0.0]), (inf, [0.0, 0.0]), (-inf, [0.0, 0.0]),
                        (0.0, [nan, 0.0]), (0.0, [0.0, inf])):
        with pytest.raises(ValueError, match="stage 3, realization 2"):
            p.add_cut(Cut(theta, beta, 1))
    assert p.num_cuts == 1 and p.selected_indices() == [1]


@pytest.mark.parametrize("eps0", [-1e-6, float("nan"), float("inf")])
def test_pool_rejects_bad_eps0(eps0):
    with pytest.raises(ValueError, match="eps0"):
        pool(eps0=eps0)


# --- selected_indices ------------------------------------------------------------

def _forced_pool(argmax, n_cuts, selector):
    p = pool(selector)
    for _ in range(n_cuts):
        p.add_cut(Cut(-100.0, [0.0], 1))
    p.add_trial_point([0.0])
    p.argmax_set(0)  # bring the record up to date before overriding it
    p._argmax[0] = list(argmax)
    p._dirty = True
    return p


def test_selector_positions_from_argmax_set():
    # cuts 2, 30 and 50 tie for the best value at the one trial point, so
    # the full argmax set is [2, 30, 50]
    expected = {"cs1": [2, 30, 50], "cs2": [2], "levelH:2": [2, 30]}
    for name, selected in expected.items():
        for point_first in (False, True):
            p = pool(SelectorSpec.from_name(name))
            if point_first:
                p.add_trial_point([0.0])
            for k in range(1, 51):
                p.add_cut(Cut(0.0 if k in (2, 30, 50) else -100.0, [0.0], 1))
            if not point_first:
                p.add_trial_point([0.0])
            assert list(p.argmax_set(0)) == selected
            assert p.selected_indices() == selected


def test_single_cut_selected_under_every_selector():
    for sel in (SelectorSpec.all(), SelectorSpec.level1(), SelectorSpec.mlm_level1(),
                SelectorSpec.level_h(3)):
        p = pool(sel)
        p.add_trial_point([1.0])
        p.add_cut(Cut(0.5, [0.0], 1))
        assert p.selected_indices() == [1]


def test_union_of_mlm_singletons():
    p = pool(SelectorSpec.mlm_level1())
    p.add_cut(Cut(0.0, [1.0], 1))    # C1(x) = x
    p.add_trial_point([0.0])
    p.add_trial_point([2.0])
    p.add_cut(Cut(2.0, [-1.0], 1))   # C2(x) = 2 - x, wins at x=0
    assert p.argmax_set(0) == (2,) and p.argmax_set(1) == (1,)
    assert p.selected_indices() == [1, 2]


def test_all_selector_ignores_argmax():
    p = _forced_pool([2], 5, SelectorSpec.all())
    assert p.selected_indices() == [1, 2, 3, 4, 5]


# --- evaluate_model ---------------------------------------------------------------

def test_evaluate_constant_cut():
    p = pool()
    p.add_cut(Cut(1.0, [0.0], 1))
    p.add_trial_point([0.0])
    for x in (-3.0, 0.0, 11.5):
        assert p.evaluate_model([x]) == 1.0


def test_evaluate_is_max_of_selected():
    p = pool()
    p.add_cut(Cut(0.0, [1.0], 1))
    p.add_trial_point([0.0])
    p.add_trial_point([2.0])
    p.add_cut(Cut(2.0, [-1.0], 1))
    assert p.evaluate_model([1.0]) == pytest.approx(1.0)


def test_evaluate_empty_pool_sentinel():
    p = pool()
    assert p.evaluate_model([0.0]) == NEG_INF


def test_model_value_equals_best_value_at_trial_points():
    rng = np.random.default_rng(3)
    p = pool(dim=3)
    for _ in range(8):
        p.add_cut(Cut(rng.normal(), rng.normal(size=3), 1))
    for _ in range(6):
        p.add_trial_point(rng.normal(size=3))
    for _ in range(8):
        p.add_cut(Cut(rng.normal(), rng.normal(size=3), 2))
    for i in range(p.num_points):
        m = p.best_value(i)
        v = p.evaluate_model(p.trial_point(i))
        assert v >= m - 1e-6 * max(1.0, abs(m))


# --- selection_stats ----------------------------------------------------------------

def test_selection_stats_proportion():
    p = _forced_pool([2], 4, SelectorSpec.mlm_level1())
    assert p.selection_stats() == (1, 4, 0.25)


def test_selection_stats_all():
    p = _forced_pool([1], 4, SelectorSpec.all())
    assert p.selection_stats() == (4, 4, 1.0)


def test_selection_stats_empty():
    assert pool().selection_stats() == (0, 0, 0.0)


def test_exact_cut_pool_keeps_everything_under_level1():
    # each cut is maximal at its own generating point: the shape of exact
    # final-stage cuts; level-1 must keep all of them
    rng = np.random.default_rng(11)
    p = pool(dim=2)
    points = [rng.normal(size=2) for _ in range(12)]
    for x in points:
        p.add_trial_point(x)
    for x in points:
        # support plane of the convex function |x|^2 at x: exact at x,
        # strictly below elsewhere
        beta = 2.0 * x
        theta = float(x @ x - beta @ x)
        p.add_cut(Cut(theta, beta, 1))
    selected, total, prop = p.selection_stats()
    assert prop == 1.0


# --- selector names ----------------------------------------------------------------

def test_selector_names():
    assert SelectorSpec.from_name("muda").cap == 0
    assert SelectorSpec.from_name("cs1").cap is None
    assert SelectorSpec.from_name("cs2").cap == 1
    assert SelectorSpec.from_name("levelH:3").cap == 3
    with pytest.raises(ValueError):
        SelectorSpec.from_name("levelH:x")
    with pytest.raises(ValueError):
        SelectorSpec.from_name("something")
    assert SelectorSpec.level_h(2).cli_name == "levelH:2"


@pytest.mark.parametrize("spelling,cli_name,cap", [
    ("muda", "muda", 0), ("MUDA", "muda", 0), (" Muda\n", "muda", 0),
    ("cs1", "cs1", None), ("CS1", "cs1", None), ("\tcs1 ", "cs1", None),
    ("cs2", "cs2", 1), ("Cs2", "cs2", 1), (" cs2", "cs2", 1),
    ("levelH:2", "levelH:2", 2), ("LEVELH:2", "levelH:2", 2), (" levelh:2 ", "levelH:2", 2),
    ("levelH:02", "levelH:2", 2), ("levelH:17", "levelH:17", 17),
])
def test_selector_spellings_give_one_canonical_name(spelling, cli_name, cap):
    spec = SelectorSpec.from_name(spelling)
    assert spec.cli_name == cli_name and spec.cap == cap
    assert spec == SelectorSpec(cli_name)


def test_selector_constructors_match_their_names():
    assert SelectorSpec.all() == SelectorSpec.from_name("muda")
    assert SelectorSpec.level1() == SelectorSpec.from_name("cs1")
    assert SelectorSpec.mlm_level1() == SelectorSpec.from_name("cs2")
    assert SelectorSpec.level_h(4) == SelectorSpec.from_name("levelH:4")


@pytest.mark.parametrize("name", ["levelH:0", "levelH:-1", "levelH:x", "levelH:",
                                  "level_h", "all", "something", ""])
def test_selector_rejects_unknown_names_and_caps_below_one(name):
    with pytest.raises(ValueError):
        SelectorSpec.from_name(name)
    with pytest.raises(ValueError):
        SelectorSpec(name)


def test_selector_accepts_only_canonical_names_directly():
    for name in ("MUDA", " cs1", "levelh:2", "levelH:02", "levelH: 2"):
        with pytest.raises(ValueError):
            SelectorSpec(name)
    for h in (0, -1):
        with pytest.raises(ValueError):
            SelectorSpec.level_h(h)


def test_level_h_monotone_refinement():
    rng = np.random.default_rng(5)
    cuts = [Cut(rng.normal(), rng.normal(size=2), 1) for _ in range(30)]
    points = [rng.normal(size=2) for _ in range(10)]
    selections = {}
    for h in (1, 2, 4, 30):
        p = pool(SelectorSpec.level_h(h), dim=2)
        for c in cuts:
            p.add_cut(c)
        for x in points:
            p.add_trial_point(x)
        selections[h] = set(p.selected_indices())
    assert selections[1] <= selections[2] <= selections[4] <= selections[30]


def test_mlm_cardinality_bound():
    rng = np.random.default_rng(9)
    p = pool(SelectorSpec.mlm_level1(), dim=2)
    for _ in range(40):
        p.add_cut(Cut(rng.normal(), rng.normal(size=2), 1))
    for _ in range(7):
        p.add_trial_point(rng.normal(size=2))
    assert len(p.selected_indices()) <= 7


# --- batch equivalence and the vectorized scan ---------------------------------------

def _batch(sel, cuts, points):
    """A pool that takes every point before any cut and is read only after."""
    p = pool(sel)
    records = [p.add_trial_point(x) for x in points]
    for c in cuts:
        p.add_cut(c)
    return p, records


@given(hst.data())
@settings(max_examples=80, deadline=None)
def test_incremental_equals_batch(data):
    n_cuts = data.draw(hst.integers(1, 8))
    n_points = data.draw(hst.integers(1, 6))
    sel = data.draw(hst.sampled_from(SELECTORS))
    value = hst.one_of(hst.sampled_from([0.0, 1.0, 1.0 + 5e-7, 1.0 + 2e-6]),
                       hst.floats(-2, 2, allow_nan=False))
    cuts = [Cut(data.draw(value), [data.draw(value)], 1) for _ in range(n_cuts)]
    points = [np.array([data.draw(value)]) for _ in range(n_points)]
    # a random interleaving of the adds, with reads in between: each read
    # brings the records up to date for the adds so far, and must agree
    # with a pool that took those adds in a batch
    read = hst.sampled_from(["best_value", "argmax_set", "selected_indices"])
    reads = [("read", (data.draw(read), data.draw(hst.integers(0, 5))))
             for _ in range(data.draw(hst.integers(0, 6)))]
    ops = data.draw(hst.permutations(
        [("cut", c) for c in cuts] + [("point", x) for x in points] + reads))

    interleaved = pool(sel)
    seen_cuts, seen_points, interleaved_records = [], [], []
    for kind, payload in ops:
        if kind == "cut":
            interleaved.add_cut(payload)
            seen_cuts.append(payload)
        elif kind == "point":
            interleaved_records.append(interleaved.add_trial_point(payload))
            seen_points.append(payload)
        else:
            read, k = payload
            batch, batch_records = _batch(sel, seen_cuts, seen_points)
            if read == "selected_indices":
                assert interleaved.selected_indices() == batch.selected_indices()
            elif seen_points:
                k %= len(seen_points)
                assert getattr(interleaved, read)(interleaved_records[k]) == \
                       getattr(batch, read)(batch_records[k])

    batch, batch_records = _batch(sel, seen_cuts, seen_points)
    # repeated points share a record, so compare the records returned
    assert [interleaved.best_value(i) for i in interleaved_records] == \
           [batch.best_value(i) for i in batch_records]
    assert [interleaved.argmax_set(i) for i in interleaved_records] == \
           [batch.argmax_set(i) for i in batch_records]
    assert interleaved.selected_indices() == batch.selected_indices()


@pytest.mark.parametrize("sel", SELECTORS, ids=lambda s: s.cli_name)
def test_repeated_trial_point_keeps_one_record(sel):
    rng = np.random.default_rng(17)
    # 0.0 and -0.0 differ bitwise, so they stay separate records
    points = [rng.normal(size=2) for _ in range(4)] + [np.array([0.0, 0.0]),
                                                       np.array([-0.0, 0.0])]
    cuts = [Cut(rng.normal(), rng.normal(size=2), 1) for _ in range(12)]
    cuts += cuts[:4]  # exact copies tie with their originals
    repeated, distinct = pool(sel, dim=2), pool(sel, dim=2)
    first = [repeated.add_trial_point(x) for x in points]
    assert first == [distinct.add_trial_point(x) for x in points] == list(range(6))
    # repeats before any cut, as fresh arrays in another order
    assert [repeated.add_trial_point(x.copy()) for x in points[::-1]] == first[::-1]
    for c in cuts[:8]:
        repeated.add_cut(c)
        distinct.add_cut(c)
    # repeats between cuts, as lists
    assert [repeated.add_trial_point(list(x)) for x in points] == first
    for c in cuts[8:]:
        repeated.add_cut(c)
        distinct.add_cut(c)
    assert [repeated.add_trial_point(x) for x in points[2:]] == first[2:]
    assert repeated.num_points == distinct.num_points == len(points)
    for i in first:
        assert np.array_equal(repeated.trial_point(i), points[i])
        assert repeated.best_value(i) == distinct.best_value(i)
        assert repeated.argmax_set(i) == distinct.argmax_set(i)
    assert repeated.selected_indices() == distinct.selected_indices()


@given(hst.lists(hst.one_of(hst.floats(-3, 3, allow_nan=False),
                            # 0 and 1e-6, 1 and 1 + 1e-6 sit exactly on the
                            # tie and strict boundaries for eps0 = 1e-6
                            hst.sampled_from([0.0, 1e-6, 1.0, 1.0 + 1e-6, 1.0 + 5e-7,
                                              1.0 + 2e-6, -1.0])),
                 min_size=1, max_size=40))
@settings(max_examples=120, deadline=None)
def test_vectorized_scan_matches_reference(values):
    # the point arrives after the cuts, or before them; either way its
    # record is brought up to date when read
    m_ref, argmax_ref = reference_scan(values, 1e-6)
    for sel in SELECTORS:
        for point_first in (False, True):
            p = pool(sel)
            if point_first:
                i = p.add_trial_point([0.0])
            for v in values:
                p.add_cut(Cut(v, [0.0], 1))
            if not point_first:
                i = p.add_trial_point([0.0])
            assert p.best_value(i) == m_ref
            assert list(p.argmax_set(i)) == argmax_ref[:sel.cap]


@pytest.mark.parametrize("seed", range(6))
def test_argmax_sets_hold_the_oldest_cap_maximizers(seed):
    # dyadic values keep every cut value exact; 1 + 2**-21 ties with 1 and
    # 1 + 2**-19 lies strictly above it at eps0 = 1e-6
    rng = np.random.default_rng(seed)
    thetas = [0.0, 1.0, 1.0 + 2.0 ** -21, 1.0 + 2.0 ** -19]
    cuts = [Cut(rng.choice(thetas), rng.choice([-1.0, 0.0, 0.5, 1.0], size=2), 1)
            for _ in range(30)]
    cuts += [cuts[k] for k in rng.integers(0, 30, size=10)]  # exact copies
    points = [rng.choice([-1.0, 0.0, 1.0, 2.0], size=2) for _ in range(8)]
    ops = [("cut", c) for c in cuts] + [("point", x) for x in points]
    ops = [ops[k] for k in rng.permutation(len(ops))]
    added = [c for kind, c in ops if kind == "cut"]
    for sel in SELECTORS:
        p = pool(sel, dim=2)
        records = [p.add_cut(payload) if kind == "cut" else p.add_trial_point(payload)
                   for kind, payload in ops]
        kept = set()
        for (kind, x), i in zip(ops, records):
            if kind == "point":
                _, argmax_ref = reference_scan([c.value(x) for c in added], 1e-6)
                assert list(p.argmax_set(i)) == argmax_ref[:sel.cap]
                assert sel.cap is None or len(p.argmax_set(i)) <= sel.cap
                kept.update(p.argmax_set(i))
        expected = range(1, len(added) + 1) if sel.cap == 0 else sorted(kept)
        assert p.selected_indices() == list(expected)


def test_selection_soundness_random_pools():
    rng = np.random.default_rng(21)
    for sel in (SelectorSpec.level1(), SelectorSpec.mlm_level1(),
                SelectorSpec.level_h(2)):
        p = pool(sel, dim=3)
        for _ in range(25):
            p.add_cut(Cut(rng.normal(), rng.normal(size=3), 1))
        for _ in range(10):
            p.add_trial_point(rng.normal(size=3))
        for _ in range(25):
            p.add_cut(Cut(rng.normal(), rng.normal(size=3), 2))
        for i in range(p.num_points):
            m = p.best_value(i)
            assert p.evaluate_model(p.trial_point(i)) >= m - 1e-6 * max(1.0, abs(m))


# --- cut lookup and dump / load ---------------------------------------------------

def test_cut_ordinal_out_of_range():
    p = pool()
    p.add_cut(Cut(1.0, [0.0], 1))
    p.add_cut(Cut(2.0, [0.0], 2))
    assert p.cut(2).birth == 2
    for ordinal in (0, -1, 3):
        with pytest.raises(IndexError):
            p.cut(ordinal)


def test_pool_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    p = pool(dim=2)
    p.add_trial_point([0.0, 0.0])
    for it in (1, 1, 2):
        p.add_cut(Cut(rng.normal(), rng.normal(size=2), it))
    path = tmp_path / "pool.csv"
    dump_pool_csv(p, path)
    rows = load_pool_csv(path)
    assert len(rows) == 3
    for k, row in enumerate(rows):
        cut = p.cut(k + 1)
        assert row["birth"] == cut.birth
        assert row["theta"] == cut.theta
        assert np.array_equal(row["beta"], cut.beta)
    assert [r["selected"] for r in rows] == list(p.selected_mask())
