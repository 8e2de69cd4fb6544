"""GBRT: the histogram-screened fit grows the same trees as a per-node
argsort fit, the compiled forest is bit-identical to a per-tree reference
walk, and model files are fully checked when they load."""

from __future__ import annotations

import gc
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thoughtsearch import scoring
from thoughtsearch.errors import SchemaError
from thoughtsearch.retrieval import HashedEmbedder
from thoughtsearch.scoring import (
    GradientBoostedRegressor,
    OfflineSample,
    _Tree,
    load_model,
    save_model,
    train_estimator,
)

N_FEATURES = 4
THRESHOLDS = [-1.0, -0.25, 0.0, 0.5, 2.0]


def reference_predict(model: GradientBoostedRegressor, X: np.ndarray) -> np.ndarray:
    """One row and one tree at a time, leaf values added in tree order."""
    out = []
    for x in X:
        total = model.base
        for tree in model.trees:
            node = 0
            while tree.feature[node] >= 0:
                go_left = x[tree.feature[node]] <= tree.threshold[node]
                node = tree.left[node] if go_left else tree.right[node]
            total += model.learning_rate * tree.value[node]
        out.append(total)
    return np.asarray(out, dtype=np.float64)


def reference_depth(tree: _Tree, node: int = 0) -> int:
    if tree.feature[node] < 0:
        return 0
    return 1 + max(
        reference_depth(tree, tree.left[node]), reference_depth(tree, tree.right[node])
    )


@st.composite
def trees(draw, max_depth: int = 5) -> _Tree:
    """A random, possibly unbalanced tree in preorder layout (a single leaf
    when the first draw says so)."""
    feature, threshold, left, right, value = [], [], [], [], []

    def build(depth: int) -> int:
        node = len(feature)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(draw(st.floats(-1.0, 1.0, allow_nan=False)))
        if depth < max_depth and draw(st.booleans()):
            feature[node] = draw(st.integers(0, N_FEATURES - 1))
            threshold[node] = draw(st.sampled_from(THRESHOLDS))
            left[node] = build(depth + 1)
            right[node] = build(depth + 1)
        return node

    build(0)
    return _Tree(
        feature=np.asarray(feature, dtype=np.int64),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int64),
        right=np.asarray(right, dtype=np.int64),
        value=np.asarray(value, dtype=np.float64),
    )


# Inputs hit thresholds exactly, fall between them, or are NaN.
_inputs = st.one_of(
    st.sampled_from(THRESHOLDS + [math.nan]),
    st.floats(-3.0, 3.0, allow_nan=False),
)


@settings(max_examples=150, deadline=None)
@given(
    forest=st.lists(trees(), min_size=0, max_size=12),
    base=st.floats(-1.0, 1.0, allow_nan=False),
    learning_rate=st.sampled_from([0.1, 0.3, 1.0]),
    rows=st.lists(
        st.lists(_inputs, min_size=N_FEATURES, max_size=N_FEATURES), min_size=1, max_size=20
    ),
)
def test_compiled_walk_matches_reference_bit_for_bit(forest, base, learning_rate, rows):
    model = GradientBoostedRegressor(
        n_rounds=len(forest), max_depth=5, learning_rate=learning_rate, base=base, trees=forest
    )
    X = np.asarray(rows, dtype=np.float64)
    expected = reference_predict(model, X)
    assert np.array_equal(model.predict(X), expected)
    for i in range(len(X)):  # a batch of one gives the same bits as its row in a batch
        assert np.array_equal(model.predict(X[i : i + 1]), expected[i : i + 1])
    # The walk length is the deepest tree's actual depth, not max_depth.
    assert model._forest.depth == max((reference_depth(t) for t in forest), default=0)


def test_constant_model_predicts_base():
    model = GradientBoostedRegressor(n_rounds=0).fit(np.zeros((6, 2)), np.full(6, 0.25))
    assert model.trees == []
    assert np.array_equal(model.predict(np.ones((3, 2))), np.full(3, 0.25))


def test_fitted_model_matches_reference():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(80, N_FEATURES))
    y = (X[:, 0] > 0).astype(float) * 0.7 + 0.1 * X[:, 1]
    model = GradientBoostedRegressor(n_rounds=25, max_depth=4).fit(X, y)
    probe = np.vstack([X, rng.normal(size=(20, N_FEATURES))])
    probe[::7, 2] = math.nan
    assert np.array_equal(model.predict(probe), reference_predict(model, probe))


def test_fit_leaves_no_reference_cycle():
    """Each tree's recursive builder is freed when the tree is done, not left
    in a reference cycle for the collector."""
    rng = np.random.default_rng(4)
    X = rng.normal(size=(40, N_FEATURES))
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)  # the collector keeps what it frees in gc.garbage
    try:
        GradientBoostedRegressor(n_rounds=3, max_depth=2).fit(X, X[:, 0])
        gc.collect()
        leaked = [o for o in gc.garbage if getattr(o, "__qualname__", "") == "_fit_tree.<locals>.build"]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    assert leaked == []


def reference_fit(X, y, n_rounds, max_depth, learning_rate=0.1):
    """Boosting with every feature column argsorted afresh at every node and
    the features tried one at a time. Returns the trees as saved."""

    def best_split(X, y):
        n = len(y)
        if n < 2:
            return None
        total = y.sum()
        best_gain, best = 0.0, None
        base = total * total / n
        for f in range(X.shape[1]):
            order = np.argsort(X[:, f], kind="stable")
            xs = X[order, f]
            left_sum = np.cumsum(y[order])[:-1]
            left_n = np.arange(1, n)
            valid = xs[:-1] < xs[1:]
            if not valid.any():
                continue
            right_sum = total - left_sum
            gain = left_sum**2 / left_n + right_sum**2 / (n - left_n) - base
            gain = np.where(valid, gain, -np.inf)
            idx = int(np.argmax(gain))
            if gain[idx] > best_gain + 1e-12:
                best_gain = float(gain[idx])
                lo, hi = float(xs[idx]), float(xs[idx + 1])
                mid = (lo + hi) / 2.0
                # A midpoint that rounds onto hi (or overflows) would split nothing off.
                best = (f, mid if lo <= mid < hi else lo)
        return best

    def fit_tree(residual):
        tree = {"feature": [], "threshold": [], "left": [], "right": [], "value": []}
        fitted = np.empty(len(residual))

        def build(rows, depth):
            node = len(tree["feature"])
            for name, start in (("feature", -1), ("threshold", 0.0), ("left", -1), ("right", -1)):
                tree[name].append(start)
            tree["value"].append(float(residual[rows].mean()))
            split = best_split(X[rows], residual[rows]) if depth < max_depth else None
            if split is None:
                fitted[rows] = tree["value"][node]
                return node
            f, t = split
            mask = X[rows, f] <= t
            tree["feature"][node], tree["threshold"][node] = f, t
            tree["left"][node] = build(rows[mask], depth + 1)
            tree["right"][node] = build(rows[~mask], depth + 1)
            return node

        build(np.arange(len(residual)), 0)
        return tree, fitted

    current = np.full(len(y), float(y.mean()))
    trees = []
    for _ in range(n_rounds):
        tree, fitted = fit_tree(y - current)
        trees.append(tree)
        current += learning_rate * fitted
    return trees


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    n_rows=st.integers(2, 40),
    n_features=st.integers(1, 5),
    max_depth=st.integers(1, 4),
    n_rounds=st.integers(1, 6),
    # Cells per block of split scoring: one feature, a few, or all at once.
    block=st.sampled_from([1, 60, 1 << 12]),
)
def test_presorted_fit_grows_reference_trees(
    data, n_rows, n_features, max_depth, n_rounds, block
):
    # Few distinct values give tied feature values and tied gains. Mostly-0.0
    # columns, like hashed TF-IDF features, leave few valid cuts, and nodes
    # whose rows all agree have none; a constant column has none anywhere.
    value = st.sampled_from([-1.0, 0.0, 0.5, 2.0]) | st.floats(-3, 3, allow_nan=False)
    sparse = st.sampled_from([0.0] * 6 + [0.5, 1.0])
    columns = []
    for _ in range(n_features):
        kind = data.draw(st.sampled_from(["dense", "sparse", "constant"]))
        if kind == "constant":
            columns.append([data.draw(value)] * n_rows)
        else:
            cell = value if kind == "dense" else sparse
            columns.append(data.draw(st.lists(cell, min_size=n_rows, max_size=n_rows)))
    X = np.asarray(columns).T
    target = st.sampled_from([0.0, 0.25, 1.0]) | st.floats(0, 1)
    y = np.asarray(data.draw(st.lists(target, min_size=n_rows, max_size=n_rows)))
    model = GradientBoostedRegressor(n_rounds=n_rounds, max_depth=max_depth)
    with mock.patch.object(scoring, "_SPLIT_BLOCK", block):
        model.fit(X, y)
    assert model.to_dict()["trees"] == reference_fit(X, y, n_rounds, max_depth)


_WORDS = [f"w{i}" for i in range(40)]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_rows=st.integers(50, 400),
    duplicate_rows=st.integers(0, 40),
    duplicate_columns=st.integers(0, 8),
    scale=st.integers(-9, 9),
    n_rounds=st.integers(1, 3),
    max_depth=st.integers(1, 3),
)
def test_screened_fit_grows_reference_trees_on_hashed_pairs(
    seed, n_rows, duplicate_rows, duplicate_columns, scale, n_rounds, max_depth
):
    """The estimator's inputs: two hashed embeddings of 64 buckets per row,
    mostly 0 with few distinct values per column, rewards in {0, 0.5, 1},
    with repeated rows and columns. Scaling the targets by 10**scale scales
    every gain, the screen's margin with it, and the tie tolerance not."""
    rng = np.random.default_rng(seed)
    embedder = HashedEmbedder(dim=64)
    text = lambda: " ".join(rng.choice(_WORDS, size=rng.integers(1, 9)))
    X = np.array([np.concatenate([embedder.embed(text()), embedder.embed(text())]) for _ in range(n_rows)])
    X = np.concatenate([X, X[rng.integers(0, n_rows, duplicate_rows)]])
    X[:, rng.integers(0, 128, duplicate_columns)] = X[:, rng.integers(0, 128, duplicate_columns)]
    y = rng.choice([0.0, 0.5, 1.0], size=len(X)) * 10.0**scale
    model = GradientBoostedRegressor(n_rounds=n_rounds, max_depth=max_depth).fit(X, y)
    assert model.to_dict()["trees"] == reference_fit(X, y, n_rounds, max_depth)


@pytest.mark.parametrize("dense", [False, True])
def test_a_level_is_screened_only_where_its_histograms_are_no_larger_than_its_cells(dense):
    """Mostly-0 columns of 0s and 1s have 2 ranks, so the root's 40 rows
    are screened. Columns of 40 distinct nonzero values have 41 ranks with
    0, more than any level has rows: every level goes to _best_split on
    every feature. The trees are the reference's either way."""
    rng = np.random.default_rng(5)
    X = rng.random((40, 2)) if dense else (rng.random((40, 2)) < 0.2).astype(float)
    y = rng.choice([0.0, 0.5, 1.0], size=40)
    with mock.patch.object(scoring, "_screen", wraps=scoring._screen) as screen:
        model = GradientBoostedRegressor(n_rounds=2, max_depth=3).fit(X, y)
    assert (screen.call_count == 0) == dense
    assert model.to_dict()["trees"] == reference_fit(X, y, 2, 3)


def test_gains_within_the_screens_margin_go_to_the_exact_search():
    """Feature 1's cut gains 3.4e-7 more than feature 0's, more than the
    1e-12 tie tolerance and less than twice the screen's margin at this
    scale (3.7e-7), so the histograms cannot tell them apart: both go to
    _best_split, which takes the later feature."""
    X = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
    y = np.array([3000.0, 1392.3048454133632, 0.0, 0.0])
    checked = []
    exact = scoring._best_split

    def recording(y, order, xs, total):
        checked.append(len(order))
        return exact(y, order, xs, total)

    with mock.patch.object(scoring, "_best_split", recording):
        model = GradientBoostedRegressor(n_rounds=1, max_depth=1, learning_rate=1.0).fit(X, y)
    assert checked == [2]
    assert (model.trees[0].feature[0], model.trees[0].threshold[0]) == (1, 0.5)
    assert model.to_dict()["trees"] == reference_fit(X, y, 1, 1, learning_rate=1.0)


def test_a_later_peak_inside_the_tie_tolerance_does_not_displace_an_earlier_one():
    """At this scale the screen's margin is about 1e-20, so the histograms
    see feature 1 gain 5.2e-13 more than feature 0. That is inside the
    1e-12 tie tolerance: feature 1 is not sure to be taken, and feature 0
    keeps the split."""
    X = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
    y = np.array([0.003, 0.0013923049954132631, 0.0, 0.0])
    model = GradientBoostedRegressor(n_rounds=1, max_depth=1, learning_rate=1.0).fit(X, y)
    assert (model.trees[0].feature[0], model.trees[0].threshold[0]) == (0, 0.5)
    assert model.to_dict()["trees"] == reference_fit(X, y, 1, 1, learning_rate=1.0)


def test_gain_ties_go_to_the_first_cut_of_the_first_feature():
    # Cuts after row 0 and after row 2 both gain 1/3, in both equal columns.
    X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    y = np.array([1.0, 0.0, 0.0, 1.0])
    model = GradientBoostedRegressor(n_rounds=1, max_depth=1, learning_rate=1.0).fit(X, y)
    assert (model.trees[0].feature[0], model.trees[0].threshold[0]) == (0, 0.5)
    assert model.to_dict()["trees"] == reference_fit(X, y, 1, 1, learning_rate=1.0)


@pytest.mark.parametrize(
    "lo, hi",
    [
        (-5e-324, 0.0),  # the midpoint rounds to -0.0, and 0.0 <= -0.0
        (np.nextafter(1.0, 2.0), np.nextafter(np.nextafter(1.0, 2.0), 2.0)),  # rounds onto hi
        (1.5e308, 1.7e308),  # the sum overflows
    ],
)
def test_split_between_adjacent_values_separates_them(lo, hi):
    X = np.array([[lo], [lo], [hi], [hi]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    model = GradientBoostedRegressor(n_rounds=1, max_depth=1, learning_rate=1.0).fit(X, y)
    tree = model.trees[0]
    assert tree.feature[0] == 0 and lo <= tree.threshold[0] < hi
    assert model.predict(X).tolist() == [0.0, 0.0, 1.0, 1.0]


# ---------------------------------------------------------------------------
# Model file validation
# ---------------------------------------------------------------------------

EMBED_DIM = 2


@pytest.fixture()
def model_record(tmp_path):
    rng = np.random.default_rng(0)
    data = [
        OfflineSample(
            emb_i=rng.normal(size=EMBED_DIM), emb_j=rng.normal(size=EMBED_DIM), reward=float(i % 2)
        )
        for i in range(40)
    ]
    model = train_estimator(
        data, holdout_fraction=0.2, regressor_config={"n_rounds": 3, "max_depth": 2},
        embedder_id=HashedEmbedder(dim=EMBED_DIM).embedder_id,
    )
    path = tmp_path / "model.json"
    save_model(model, path)
    record = json.loads(path.read_text())
    assert record["regressor"]["trees"][1]["feature"][0] >= 0  # tree 1 has a split
    return record


def _leaf(tree: dict) -> int:
    return tree["feature"].index(-1)


def _break_child_range(record):
    record["regressor"]["trees"][1]["left"][0] = 99


def _break_cycle(record):
    record["regressor"]["trees"][1]["left"][0] = 0


def _break_long_cycle(record):
    tree = record["regressor"]["trees"][1]
    inner = next(j for j in range(1, len(tree["feature"])) if tree["feature"][j] >= 0)
    tree["right"][inner] = 0


def _break_leaf_children(record):
    tree = record["regressor"]["trees"][1]
    tree["left"][_leaf(tree)] = 0


def _break_feature_range(record):
    record["regressor"]["trees"][1]["feature"][0] = 2 * EMBED_DIM


def _break_lengths(record):
    record["regressor"]["trees"][1]["value"].append(0.0)


def _break_tree_key(record):
    del record["regressor"]["trees"][1]["threshold"]


def _break_model_key(record):
    del record["embed_dim"]


def _break_base_type(record):
    record["regressor"]["base"] = "0.5"


def _break_kind(record):
    record["regressor"]["kind"] = "ridge"


def _break_feature_bool(record):
    record["regressor"]["trees"][1]["feature"][0] = True


def _break_threshold_nan(record):
    record["regressor"]["trees"][1]["threshold"][0] = math.nan


def _break_version_bool(record):
    record["version"] = True


def _break_min_leaf(record):
    record["regressor"]["min_leaf"] = 2


def _break_embedder_id(record):
    record["embed_dim"] = 100  # the trees' features stay in range


@pytest.mark.parametrize(
    "breaker, message",
    [
        (_break_child_range, r"trees\[1\]\.left\[0\]"),
        (_break_cycle, r"trees\[1\]\.left\[0\]"),
        (_break_long_cycle, r"trees\[1\]\.right\[\d+\] = 0"),
        (_break_leaf_children, r"trees\[1\]\.left\[\d+\] = 0 at a leaf"),
        (_break_feature_range, r"trees\[1\]\.feature\[0\]"),
        (_break_lengths, r"trees\[1\]\.value has shape"),
        (_break_tree_key, r"trees\[1\] missing field 'threshold'"),
        (_break_model_key, r"missing field 'embed_dim'"),
        (_break_base_type, r"regressor\.base must be a number"),
        (_break_kind, r"unknown regressor kind 'ridge'"),
        (_break_feature_bool, r"trees\[1\]\.feature\[0\] must be an integer, got True"),
        (_break_threshold_nan, r"trees\[1\]\.threshold\[0\] = nan is not a finite number"),
        (_break_version_bool, r"model\.version must be an integer, got True"),
        (_break_min_leaf, r"regressor\.min_leaf must be 1, got 2"),
        (_break_embedder_id, r"embedder_id 'hashed-tf-v1-d2' is not the embedder of model\.embed_dim 100"),
    ],
    ids=[
        "child_out_of_range",
        "self_cycle",
        "cycle_through_root",
        "leaf_with_child",
        "feature_out_of_range",
        "unequal_lengths",
        "missing_tree_key",
        "missing_model_key",
        "non_numeric_base",
        "unknown_kind",
        "boolean_feature",
        "nan_threshold",
        "boolean_version",
        "min_leaf_not_one",
        "embedder_id_of_another_dim",
    ],
)
def test_malformed_model_file_rejected_at_load(model_record, tmp_path, breaker, message):
    breaker(model_record)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(model_record))
    with pytest.raises(SchemaError, match=message):
        load_model(path)


def test_valid_model_file_loads(model_record, tmp_path):
    path = tmp_path / "good.json"
    path.write_text(json.dumps(model_record))
    model = load_model(path)
    assert len(model.regressor.trees) == 3
