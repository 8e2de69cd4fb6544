"""Compiled GBRT forest: bit-identical to a per-tree reference walk, and
model files are fully checked when they load."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thoughtsearch.errors import SchemaError
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
        data, holdout_fraction=0.2, regressor_config={"rounds": 3, "depth": 2}, embedder_id="e"
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
