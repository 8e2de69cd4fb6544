"""Scoring models for the planner.

Three scorers share one protocol: a metric-backed oracle (needs gold
answers, so training/evaluation only), a critic-prompt probability ratio,
and a pairwise reward estimator trained offline on (parent embeddings,
terminal reward) samples. The estimator's regressor is a small in-repo
gradient-boosted tree ensemble.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import CapabilityError, ConfigError, SchemaError, SearchError
from .errors import JSON_KINDS, is_json, json_field, read_json_object, write_json_lines
from .generate import Generator
from .graph import ThoughtGraph
from .mcts import run_search
from .retrieval import HashedEmbedder
from .seeding import rng_from
from .templates import TemplateSet

log = logging.getLogger(__name__)

MODEL_FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# Regressors
# ---------------------------------------------------------------------------


@dataclass
class _Tree:
    """Flat array encoding of one binary regression tree, as saved in a model
    file. Children always have larger indices than their parent."""

    feature: np.ndarray  # int, -1 for leaves
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray


_TREE_FIELDS = {  # name: (the JSON kind of each entry, array dtype)
    "feature": (int, np.int64),
    "threshold": (float, np.float64),
    "left": (int, np.int64),
    "right": (int, np.int64),
    "value": (float, np.float64),
}


def _tree_from_dict(index: int, record) -> _Tree:
    """Decode one saved tree: every field a list, as long as `feature`, of
    JSON numbers of its kind that fit its dtype. _check_trees checks the
    values."""
    where = f"regressor.trees[{index}]"
    arrays = {}
    for name, (kind, dtype) in _TREE_FIELDS.items():
        values = json_field(record, name, (list,), where)
        if not set(map(type, values)) <= {int, kind}:  # is_json's types, in one pass
            j = next(j for j, value in enumerate(values) if not is_json(value, kind))
            raise SchemaError(f"{where}.{name}[{j}] must be {JSON_KINDS[kind]}, got {values[j]!r}")
        try:
            arrays[name] = np.asarray(values, dtype=dtype)
        except OverflowError:
            raise SchemaError(f"{where}.{name} holds a value outside {dtype.__name__}") from None
        if arrays[name].shape != arrays["feature"].shape:
            raise SchemaError(
                f"{where}.{name} has shape {arrays[name].shape}; "
                f"every field must be a flat list as long as feature"
            )
    if len(arrays["feature"]) == 0:
        raise SchemaError(f"{where} has no nodes")
    return _Tree(**arrays)


def _check_trees(trees: Sequence[_Tree], n_features: int) -> None:
    """Check every node of every tree at once; SchemaError names the tree,
    field and node. Requiring each child index to exceed its parent's rules
    out cycles, so every walk ends at a leaf."""
    if not trees:
        return
    sizes = np.array([len(t.feature) for t in trees])
    tree = np.repeat(np.arange(len(trees)), sizes)
    node = np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    size = sizes[tree]
    feature = np.concatenate([t.feature for t in trees])
    leaf = feature == -1

    def fail_where(bad: np.ndarray, name: str, values: np.ndarray, rule: str) -> None:
        if bad.any():
            at = int(np.argmax(bad))
            raise SchemaError(
                f"regressor.trees[{tree[at]}].{name}[{node[at]}] = {values[at]} "
                + rule.format(node=node[at], size=size[at])
            )

    for name in ("left", "right"):
        child = np.concatenate([getattr(t, name) for t in trees])
        fail_where(leaf & (child != -1), name, child, "at a leaf, which must have -1")
        fail_where(
            ~leaf & ((child <= node) | (child >= size)),
            name,
            child,
            "is not a node after {node} in a tree of {size} nodes",
        )
    fail_where(
        (feature < -1) | (feature >= n_features),
        "feature",
        feature,
        f"is outside [-1, {n_features})",
    )
    for name in ("threshold", "value"):  # is_json's finiteness, over every tree at once
        values = np.concatenate([getattr(t, name) for t in trees])
        fail_where(~np.isfinite(values), name, values, "is not a finite number")


@dataclass(frozen=True)
class _Forest:
    """All trees packed into padded row-major (n_trees, width) tables, stored
    flat. Leaves and padding point to themselves (with feature 0), so every
    tree can be walked for the same fixed number of steps."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray  # learning_rate * leaf value
    roots: np.ndarray  # flat index of each tree's root
    depth: int  # longest root-to-leaf path over all trees


def _compile_forest(trees: Sequence[_Tree], learning_rate: float) -> _Forest:
    width = max((len(t.feature) for t in trees), default=1)
    slots = np.arange(len(trees) * width).reshape(len(trees), width)
    feature = np.full(slots.shape, -1, dtype=np.int64)
    threshold = np.zeros(slots.shape, dtype=np.float64)
    left, right = slots.copy(), slots.copy()
    value = np.zeros(slots.shape, dtype=np.float64)
    if trees:
        sizes = np.array([len(t.feature) for t in trees])
        rows = np.repeat(np.arange(len(trees)), sizes)
        cols = np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        column = lambda name: np.concatenate([getattr(t, name) for t in trees])
        feature[rows, cols] = column("feature")
        threshold[rows, cols] = column("threshold")
        left[rows, cols] = rows * width + column("left")
        right[rows, cols] = rows * width + column("right")
        value[rows, cols] = learning_rate * column("value")
    leaf = feature < 0
    feature[leaf], left[leaf], right[leaf] = 0, slots[leaf], slots[leaf]
    left, right, internal = left.ravel(), right.ravel(), ~leaf.ravel()
    frontier, depth = slots[:, 0], 0
    while True:  # one level of every tree per step; children follow parents
        frontier = frontier[internal[frontier]]
        if not len(frontier):
            break
        frontier = np.unique(np.concatenate([left[frontier], right[frontier]]))
        depth += 1
    return _Forest(
        feature=feature.ravel(),
        threshold=threshold.ravel(),
        left=left,
        right=right,
        value=value.ravel(),
        roots=slots[:, 0].copy(),
        depth=depth,
    )


_SPLIT_BLOCK = 1 << 16  # (feature, row) cells scored at once by _best_split
_TIE = 1e-12  # a feature's peak must beat the best so far by more than this


def _best_split(
    y: np.ndarray, order: np.ndarray, xs: np.ndarray, total: float
) -> tuple[int, float] | None:
    """Exact greedy split maximizing the reduction in squared error.

    Row f of `order` lists a node's rows in stable ascending order of
    feature f, and row f of `xs` holds their values of feature f; `total`
    is the sum of y over those rows. A cut is valid only between two
    distinct values, so the gain is computed only there. Features are
    scored a block at a time, so the temporaries stay small, and ties
    between features go to the first one.
    """
    n = order.shape[1]
    if n < 2:
        return None
    base = total * total / n
    left_n = np.arange(1, n)
    best_gain, best = 0.0, None
    step = max(1, _SPLIT_BLOCK // n)
    for start in range(0, len(order), step):
        block = xs[start : start + step]
        cells = np.flatnonzero(block[:, :-1] < block[:, 1:])
        if not len(cells):
            continue
        feat, cut = np.divmod(cells, n - 1)
        left_sum = np.cumsum(y.take(order[start : start + step]), axis=1)[feat, cut]
        size = left_n[cut]
        right_sum = total - left_sum
        # left_sum**2 / left_n + right_sum**2 / (n - left_n) - base, the
        # same operations in the same order, in place.
        gain = np.square(left_sum, out=left_sum)
        gain /= size
        np.square(right_sum, out=right_sum)
        right_sum /= n - size
        gain += right_sum
        gain -= base
        # Each feature's valid cuts are one run of `gain`; score its peak.
        firsts = np.flatnonzero(np.diff(feat, prepend=-1))
        ends = [*firsts[1:].tolist(), len(gain)]
        for s, e, g in zip(firsts.tolist(), ends, np.maximum.reduceat(gain, firsts).tolist()):
            if g > best_gain + _TIE:
                best_gain = g
                f, c = int(feat[s]), int(cut[s + np.argmax(gain[s:e])])
                best = (start + f, _split_threshold(block[f, c], block[f, c + 1]))
    return best


def _split_threshold(lo: float, hi: float) -> float:
    """The midpoint of two adjacent distinct values, or `lo` where the
    midpoint rounds onto `hi` (or overflows): `x <= t` must send lo left
    and hi right, so neither child is empty."""
    lo, hi = float(lo), float(hi)
    mid = (lo + hi) / 2.0
    return mid if lo <= mid < hi else lo


@dataclass(frozen=True)
class _RankedCells:
    """A fit's inputs, built once per fit. `order` and `xs` hold each
    feature's rows in stable ascending order of that feature, and their
    values, as _best_split takes them. For the histogram screen, each value
    is also stored as its rank among its feature's distinct values, 0
    always among them, shifted so that every feature's 0 has one rank,
    `zero`; only the nonzero cells are kept, as a row's other cells are 0."""

    XT: np.ndarray  # (n_features, n_rows): the inputs, feature-major
    order: np.ndarray  # (n_features, n_rows)
    xs: np.ndarray  # (n_features, n_rows)
    width: int  # the number of ranks
    zero: int
    row: np.ndarray  # each nonzero cell's row and rank, and its bin rank * n_features + feature
    rank: np.ndarray
    bin: np.ndarray
    ordered: bool  # no value is NaN, so ranks order the values as _best_split does


def _rank_cells(X: np.ndarray) -> _RankedCells:
    n_features = X.shape[1]
    XT = np.ascontiguousarray(X.T)
    order = np.argsort(XT, axis=1, kind="stable")
    row, feature = np.nonzero(X)
    value = X[row, feature]
    # The nonzero values and one 0 per feature, sorted by feature, then value.
    features = np.concatenate([feature, np.arange(n_features)])
    values = np.concatenate([value, np.zeros(n_features)])
    by_value = np.lexsort((values, features))
    f, v = features[by_value], values[by_value]
    new = np.ones(len(by_value), dtype=bool)
    new[1:] = (f[1:] != f[:-1]) | (v[1:] != v[:-1])
    distinct = np.cumsum(new) - 1
    rank = np.empty_like(distinct)
    rank[by_value] = distinct - distinct[np.searchsorted(f, np.arange(n_features))][f]
    zero = int(rank[len(row) :].max(initial=0))
    rank += zero - np.concatenate([rank[len(row) :][feature], rank[len(row) :]])
    rank = rank[: len(row)]
    return _RankedCells(
        XT=XT,
        order=order,
        xs=np.take_along_axis(XT, order, axis=1),
        width=max(int(rank.max(initial=0)), zero) + 1,
        zero=zero,
        row=row,
        rank=rank,
        bin=rank * n_features + feature,
        ordered=not np.isnan(value).any(),
    )


def _survivors(peak: np.ndarray, eps: np.ndarray) -> list[np.ndarray]:
    """The features whose peak could decide _best_split's scan, for each
    node, given each (node, feature)'s histogram peak (-inf where it has no
    cut), each within its node's eps of its exact peak. _best_split takes a
    feature only when its peak beats the best so far by more than _TIE, so
    two kinds of feature leave:
    - one whose peak is at most _TIE or at most an earlier feature's peak:
      it is never taken;
    - one before a feature whose peak beats 0 and every earlier peak by
      more than _TIE: that feature is always taken, and the scan goes on
      the same from there."""
    high, low = peak + eps[:, None], peak - eps[:, None]

    def before(first: float, a: np.ndarray) -> np.ndarray:  # the largest of first and a's earlier entries
        out = np.full(a.shape, first)
        out[:, 1:] = np.maximum(np.maximum.accumulate(a[:, :-1], axis=1), first)
        return out

    keep = high > before(_TIE, low)
    sure = low > before(0.0, high) + _TIE
    last_sure = peak.shape[1] - 1 - np.argmax(sure[:, ::-1], axis=1)
    keep &= ~sure.any(axis=1, keepdims=True) | (np.arange(peak.shape[1]) >= last_sure[:, None])
    return [np.flatnonzero(node) for node in keep]


def _exact_splits(
    y: np.ndarray,
    level: list[np.ndarray],
    features: list[np.ndarray],
    total: np.ndarray,
    sources: list[tuple[np.ndarray, np.ndarray]],
) -> tuple[list[tuple[int, float] | None], list[tuple[np.ndarray, np.ndarray] | None]]:
    """_best_split for each node of a tree level over its `features`, given
    each node's rows, the sum of y over them, and its source: every
    feature's rows in stable ascending order of that feature, and their
    values, over rows that hold the node's (its parent's, or all). Kept
    where they are the node's rows, they are a stable argsort of the node.
    Also returns that of each node that took every feature, as a source for
    its children, and None for the others."""
    member = np.zeros(len(y), dtype=bool)
    splits, sorted_rows = [], []
    for rows, f, t, (order, xs) in zip(level, features, total, sources):
        if not len(f):
            splits.append(None)
            sorted_rows.append(None)
            continue
        whole = len(f) == len(order)
        if not whole:
            order, xs = order[f], xs[f]
        member[rows] = True
        cells_in = np.flatnonzero(member[order])
        member[rows] = False
        shape = (len(f), -1)
        order, xs = order.take(cells_in).reshape(shape), xs.take(cells_in).reshape(shape)
        split = _best_split(y, order, xs, t)
        splits.append(None if split is None else (int(f[split[0]]), split[1]))
        sorted_rows.append((order, xs) if whole else None)
    return splits, sorted_rows


def _screen(
    cells: _RankedCells, y: np.ndarray, level: list[np.ndarray], total: np.ndarray, eps: np.ndarray
) -> list[np.ndarray]:
    """The features that could decide _best_split's result for each node of
    a tree level, given each node's rows and the sum of y over them, found
    by scoring every cut from per-value histograms.

    One bincount over the level's nonzero cells gives each node's y sum and
    row count per value; a feature's zero bin is its node's total minus the
    rest. Prefix sums then give every valid cut's gain with _best_split's
    operations, summed in another order, so that each lies within the
    node's `eps` of _best_split's gain for the same cut (README, "Fitting
    the estimator"), and _survivors keeps what that margin cannot rule out.
    """
    width, n_features = cells.width, len(cells.XT)
    k = len(level)
    columns = k * n_features  # one per (node, feature), node-major
    n = np.array([len(rows) for rows in level])
    bins, row = cells.bin, cells.row
    if k > 1:
        node_of = np.zeros(len(y), dtype=np.int64)
        for i, rows in enumerate(level):
            node_of[rows] = i
        node = node_of[row]
        bins = bins + n_features * (cells.rank * (k - 1) + node)
    if n.sum() < len(y):  # rows that stopped at a leaf higher up
        inside = np.zeros(len(y), dtype=bool)
        inside[np.concatenate(level)] = True
        inside = inside[row]
        bins, row = bins[inside], row[inside]
    # hist[r, 0, c], hist[r, 1, c]: the y sum and row count of rank r in column c.
    hist = np.empty((width, 2, columns))
    hist[:, 0] = np.bincount(bins, y[row], minlength=width * columns).reshape(width, columns)
    hist[:, 1] = np.bincount(bins, minlength=width * columns).reshape(width, columns)
    hist[cells.zero] = np.repeat([total, n], n_features, axis=1) - hist.sum(axis=0)
    nonempty = hist[:, 1] > 0
    for r in range(1, width):  # prefix sums down each column, in rank order
        hist[r] += hist[r - 1]
    left_sum, left_n = hist[:, 0], hist[:, 1]
    right_sum = np.repeat(total, n_features) - left_sum
    right_n = np.repeat(n, n_features) - left_n
    with np.errstate(divide="ignore", invalid="ignore"):  # where no cut lies
        gain = np.square(left_sum) / left_n + np.square(right_sum) / right_n
    gain -= np.repeat(total * total / n, n_features)
    gain[~(nonempty & (right_n > 0))] = -np.inf
    peak = gain.max(axis=0).reshape(k, n_features)
    return _survivors(peak, eps)


_ROUNDING = 64 * 2.0**-53  # times n * max|y| * sum|y|: README, "Fitting the estimator"


def _fit_tree(
    cells: _RankedCells, y: np.ndarray, max_depth: int
) -> tuple[_Tree, np.ndarray]:
    """Fit one tree to y; also return each training row's leaf value.

    The tree grows a level at a time, and the nodes are then numbered
    depth-first, left before right. A level is screened where its
    histograms, `cells.width` ranks per node and feature, hold no more
    cells than the (feature, row) cells that an exact pass over every
    feature reads; elsewhere every feature goes to _best_split. A node that
    took every feature hands its children its rows in sorted order, to
    filter for their own; other nodes' children filter the fit's."""
    magnitude = np.abs(y)
    size, scale = magnitude.sum(), magnitude.max(initial=0.0)
    every = np.arange(len(cells.XT))
    # The bound holds below 2**24 rows, and sums under 1e150 square safely.
    screened = cells.ordered and len(every) and len(y) < 1 << 24 and size < 1e150
    nodes, splits, children = [np.arange(len(y))], [], []  # breadth-first
    totals = [y.sum()]
    presorted = (cells.order, cells.xs)
    sources = [presorted]  # those of the level's nodes
    for depth in range(max_depth + 1):
        level, total = nodes[len(splits) :], np.array(totals[len(splits) :])
        if depth == max_depth:
            found = sorted_rows = [None] * len(level)
        else:
            if screened and cells.width * len(level) <= sum(map(len, level)):
                eps = _ROUNDING * np.array([len(rows) for rows in level]) * scale * size
                features = _screen(cells, y, level, total, eps)
            else:
                features = [every] * len(level)
            found, sorted_rows = _exact_splits(y, level, features, total, sources)
        sources = []
        for rows, split, source in zip(level, found, sorted_rows):
            splits.append(split)
            if split is None:
                children.append(None)
                continue
            mask = cells.XT[split[0], rows] <= split[1]
            children.append((len(nodes), len(nodes) + 1))
            nodes += [rows[mask], rows[~mask]]
            totals += [y[nodes[-2]].sum(), y[nodes[-1]].sum()]
            sources += [source or presorted] * 2
        if len(nodes) == len(splits):
            break
    order, stack = [], [0]
    while stack:
        i = stack.pop()
        order.append(i)
        stack += children[i][::-1] if children[i] else ()
    number = np.empty(len(nodes), dtype=np.int64)
    number[order] = np.arange(len(nodes))
    # np.mean is this sum over the count, so the bits equal y[rows].mean()'s.
    value = [float(total / len(rows)) for total, rows in zip(totals, nodes)]
    fitted = np.empty(len(y), dtype=np.float64)
    for rows, split, v in zip(nodes, splits, value):
        if split is None:
            fitted[rows] = v
    tree = _Tree(
        feature=np.array([s[0] if s else -1 for s in splits], dtype=np.int64)[order],
        threshold=np.array([s[1] if s else 0.0 for s in splits], dtype=np.float64)[order],
        left=np.array([number[c[0]] if c else -1 for c in children], dtype=np.int64)[order],
        right=np.array([number[c[1]] if c else -1 for c in children], dtype=np.int64)[order],
        value=np.array(value, dtype=np.float64)[order],
    )
    return tree, fitted


@dataclass
class GradientBoostedRegressor:
    """Squared-loss boosting over depth-limited regression trees.

    The trees are compiled into one packed forest whenever they are set, and
    predict walks every tree at once.
    """

    n_rounds: int = 100
    max_depth: int = 3
    learning_rate: float = 0.1
    base: float = 0.0
    trees: list[_Tree] = field(default_factory=list)

    def __post_init__(self):
        self._forest = _compile_forest(self.trees, self.learning_rate)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GradientBoostedRegressor":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        self.base = float(y.mean())
        self.trees = []
        current = np.full(len(y), self.base)
        cells = _rank_cells(X)
        for _ in range(self.n_rounds):
            residual = y - current
            tree, fitted = _fit_tree(cells, residual, self.max_depth)
            self.trees.append(tree)
            current += self.learning_rate * fitted
        self._forest = _compile_forest(self.trees, self.learning_rate)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Walk all trees for `depth` steps, then add the leaf values onto
        base in tree order (accumulate, not pairwise sum, to fix the bits)."""
        X = np.asarray(X, dtype=np.float64)
        forest = self._forest
        rows = np.arange(len(X))
        node = np.repeat(forest.roots[:, None], len(X), axis=1)
        for _ in range(forest.depth):
            go_left = X[rows, forest.feature[node]] <= forest.threshold[node]
            node = np.where(go_left, forest.left[node], forest.right[node])
        terms = np.concatenate([np.full((1, len(X)), self.base), forest.value[node]])
        return np.add.accumulate(terms, axis=0)[-1]

    def to_dict(self) -> dict:
        return {
            "kind": "gbrt",
            "n_rounds": self.n_rounds,
            "max_depth": self.max_depth,
            "learning_rate": self.learning_rate,
            "min_leaf": 1,  # no fit sets another; kept so model files keep their bytes
            "base": self.base,
            "trees": [
                {
                    "feature": t.feature.tolist(),
                    "threshold": t.threshold.tolist(),
                    "left": t.left.tolist(),
                    "right": t.right.tolist(),
                    "value": t.value.tolist(),
                }
                for t in self.trees
            ],
        }

    @classmethod
    def from_dict(cls, record: dict, n_features: int) -> "GradientBoostedRegressor":
        """Decode and check a saved regressor over n_features inputs."""
        read = lambda key, kind: json_field(record, key, (kind,), "regressor")
        if read("kind", str) != "gbrt":
            raise SchemaError(f"unknown regressor kind {record['kind']!r}")
        if read("min_leaf", int) != 1:
            raise SchemaError(f"regressor.min_leaf must be 1, got {record['min_leaf']!r}")
        trees = [_tree_from_dict(i, t) for i, t in enumerate(read("trees", list))]
        _check_trees(trees, n_features)
        return cls(
            n_rounds=read("n_rounds", int),
            max_depth=read("max_depth", int),
            learning_rate=read("learning_rate", float),
            base=read("base", float),
            trees=trees,
        )


# ---------------------------------------------------------------------------
# Offline dataset and estimator training
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OfflineSample:
    """One recorded combination: parent embeddings and the child's reward."""

    emb_i: np.ndarray
    emb_j: np.ndarray
    reward: float
    query_id: str = ""


@dataclass
class ScorerModel:
    """Trained pairwise reward predictor plus its decision threshold."""

    regressor: GradientBoostedRegressor
    threshold: float
    embedder_id: str
    embed_dim: int
    training_report: dict

    def predict_batch(self, features: np.ndarray) -> np.ndarray:
        return np.clip(self.regressor.predict(features), 0.0, 1.0)


def threshold_fit(scores: Sequence[float], labels: Sequence[int]) -> float:
    """Pick the decision threshold maximizing precision of score >= t.

    Candidates are the distinct observed scores. Precision ties break toward
    higher recall, then toward the higher threshold, so perfectly separated
    data yields the smallest positive score. One descending sort gives every
    candidate's true and false positives as prefix counts at the last of
    its equal scores.
    """
    if len(scores) != len(labels):
        raise ConfigError("scores and labels must have equal length")
    if not len(scores):
        raise ConfigError("threshold_fit requires at least one sample")
    scores, labels = np.asarray(scores, dtype=np.float64), np.asarray(labels)
    if not (labels == 1).any():
        raise ConfigError("threshold_fit requires at least one positive label")
    ranked = np.argsort(-scores, kind="stable")
    ranked_scores = scores[ranked]
    last = np.flatnonzero(np.append(ranked_scores[:-1] != ranked_scores[1:], True))
    tp = np.cumsum(labels[ranked] == 1)[last]
    fp = np.cumsum(labels[ranked] == 0)[last]
    # The first of equal scores stands for them all, as in a set (0.0, -0.0).
    candidate = ranked_scores[np.append(0, last[:-1] + 1)]
    precision = tp / (tp + fp)
    recall = tp / labels.sum()
    best = np.lexsort((candidate, recall, precision))[-1]
    return float(candidate[best])


def train_estimator(
    dataset: Sequence[OfflineSample],
    holdout_fraction: float,
    regressor_config: dict | None = None,
    embedder_id: str | None = None,
    seed: int = 0,
) -> ScorerModel:
    """Fit the pairwise reward regressor on concatenated parent embeddings.

    `regressor_config` holds GradientBoostedRegressor keywords (n_rounds,
    max_depth, learning_rate); the rest keep the regressor's defaults. The
    model is bound to the hashed embedder of the samples' dimension;
    `embedder_id`, when given, must name that embedder.

    Reports train/holdout MSE and fits the decision threshold on the training
    split (labels binarized at 0.5). A degenerate all-equal-label dataset
    trains a constant model with a warning.
    """
    if len(dataset) < 10:
        raise ConfigError(f"need at least 10 samples to train, got {len(dataset)}")
    if not 0.0 < holdout_fraction < 1.0:
        raise ConfigError(f"holdout_fraction must be in (0, 1), got {holdout_fraction}")
    cfg = regressor_config or {}

    dim = len(dataset[0].emb_i)
    for sample in dataset:
        if len(sample.emb_i) != dim or len(sample.emb_j) != dim:
            raise ConfigError("all samples must share one embedding dimension")
    expected_id = HashedEmbedder(dim=dim).embedder_id
    if embedder_id not in (None, expected_id):
        raise ConfigError(
            f"embedder_id {embedder_id!r} is not {expected_id!r}, the embedder of the samples"
        )
    X = np.stack([np.concatenate([s.emb_i, s.emb_j]) for s in dataset])
    y = np.asarray([s.reward for s in dataset], dtype=np.float64)
    finite = np.isfinite(y) & np.isfinite(X).all(axis=1)
    if not finite.all():  # a model fitted to them would not load
        i = int(np.argmin(finite))
        j = int(np.argmin(np.isfinite(X[i])))
        what = (
            f"reward = {y[i]}" if not np.isfinite(y[i])
            else f"emb_i[{j}] = {X[i, j]}" if j < dim else f"emb_j[{j - dim}] = {X[i, j]}"
        )
        raise ConfigError(
            f"sample {i} (query_id {dataset[i].query_id!r}) has {what}; "
            "rewards and embeddings must be finite numbers"
        )

    rng = np.random.default_rng(seed)
    order = rng.permutation(len(y))
    n_holdout = max(1, int(round(len(y) * holdout_fraction)))
    hold_idx, train_idx = order[:n_holdout], order[n_holdout:]

    unknown = set(cfg) - {"n_rounds", "max_depth", "learning_rate"}
    if unknown:
        raise ConfigError(f"unknown regressor options: {sorted(unknown)}")
    regressor = GradientBoostedRegressor(**cfg)
    if bool(np.allclose(y, y[0])):
        log.warning("all %d labels equal %.3f; training a constant model", len(y), y[0])
        regressor = GradientBoostedRegressor(n_rounds=0)

    regressor.fit(X[train_idx], y[train_idx])
    train_pred = np.clip(regressor.predict(X[train_idx]), 0.0, 1.0)
    hold_pred = np.clip(regressor.predict(X[hold_idx]), 0.0, 1.0)
    report = {
        "train_mse": float(np.mean((train_pred - y[train_idx]) ** 2)),
        "holdout_mse": float(np.mean((hold_pred - y[hold_idx]) ** 2)),
        "sample_count": len(dataset),
    }

    bin_labels = [int(label >= 0.5) for label in y[train_idx]]
    if any(bin_labels):
        threshold = threshold_fit(train_pred, bin_labels)
    else:
        log.warning("no positive labels in the training split; threshold set to 1.0")
        threshold = 1.0
    return ScorerModel(
        regressor=regressor,
        threshold=threshold,
        embedder_id=expected_id,
        embed_dim=dim,
        training_report=report,
    )


def collect_offline_dataset(
    examples: Sequence,
    ports_factory: Callable,
    config,
    embedder,
    seed: int = 0,
) -> list[OfflineSample]:
    """Run the oracle-scored search per training QAExample and record one
    sample per generated node: (parent embeddings, that node's oracle reward).

    ports_factory(example, rng) must return ready SearchPorts with an oracle
    scorer; per-example failures are skipped with a warning. Each distinct
    parent text is embedded once per call.
    """
    samples: list[OfflineSample] = []
    vectors: dict[str, np.ndarray] = {}

    def embed(text: str) -> np.ndarray:
        if text not in vectors:
            vectors[text] = embedder.embed(text)
        return vectors[text]

    for idx, example in enumerate(examples):
        rng = rng_from(seed, idx)
        try:
            outcome = run_search(example.query, ports_factory(example, rng), config, rng)
        except SearchError as exc:
            log.warning("skipping example %s: %s", example.query_id, exc)
            continue
        graph = outcome.graph
        for node_id in graph.generated_ids():
            first, second = graph.node(node_id).parents
            samples.append(
                OfflineSample(
                    emb_i=embed(graph.node(first).text),
                    emb_j=embed(graph.node(second).text),
                    reward=outcome.simulation_scores[node_id],
                    query_id=example.query_id,
                )
            )
    return samples


def save_dataset(samples: Sequence[OfflineSample], path: str | Path) -> None:
    write_json_lines(
        path,
        (
            {
                "query_id": s.query_id,
                "emb_i": [float(v) for v in s.emb_i],
                "emb_j": [float(v) for v in s.emb_j],
                "reward": s.reward,
            }
            for s in samples
        ),
    )


def save_model(model: ScorerModel, path: str | Path) -> None:
    record = {
        "version": MODEL_FORMAT_VERSION,
        "embedder_id": model.embedder_id,
        "embed_dim": model.embed_dim,
        "threshold": model.threshold,
        "training_report": model.training_report,
        "regressor": model.regressor.to_dict(),
    }
    write_json_lines(path, [record])  # a model file is one canonical JSON line


def load_model(path: str | Path, expected_embedder_id: str | None = None) -> ScorerModel:
    """Read and fully check a model file, compiling its trees; a malformed
    file raises SchemaError here, never later inside a search."""
    record = read_json_object(path, "model")
    read = lambda key, kind: json_field(record, key, (kind,), "model")
    if read("version", int) != MODEL_FORMAT_VERSION:
        raise SchemaError(f"unsupported model version {record['version']!r}")
    embedder_id, embed_dim = read("embedder_id", str), read("embed_dim", int)
    if embed_dim < 1:
        raise SchemaError(f"model.embed_dim must be a positive integer, got {embed_dim!r}")
    if embedder_id != HashedEmbedder(dim=embed_dim).embedder_id:
        raise SchemaError(
            f"model.embedder_id {embedder_id!r} is not the embedder of model.embed_dim {embed_dim}"
        )
    if expected_embedder_id is not None and embedder_id != expected_embedder_id:
        raise SchemaError(
            f"model embedder_id {embedder_id!r} does not match "
            f"configured {expected_embedder_id!r}"
        )
    return ScorerModel(
        regressor=GradientBoostedRegressor.from_dict(
            read("regressor", dict), n_features=2 * embed_dim
        ),
        threshold=float(read("threshold", float)),
        embedder_id=embedder_id,
        embed_dim=embed_dim,
        training_report=read("training_report", dict),
    )


# ---------------------------------------------------------------------------
# Scorer ports
# ---------------------------------------------------------------------------


def score_from_logprobs(logprob_yes: float, logprob_no: float) -> float:
    """Probability ratio p1 / (p1 + p0) in the shift-stable form; 0.0 past
    exp's range, and 0.5 for equal log-probabilities, -inf ones included."""
    if logprob_yes == logprob_no:
        return 0.5
    try:
        return 1.0 / (1.0 + math.exp(logprob_no - logprob_yes))
    except OverflowError:
        return 0.0


@functools.cache
def _warn_no_logprobs() -> None:
    """Log the self-critic's first-digit fallback once per process."""
    log.warning("backend lacks token log-probabilities; degrading to first-digit parsing")


class OracleScorer:
    """Task-metric score of the answer extracted from a node's thought.

    Requires gold answers, so this signal exists only for training and
    evaluation, never at inference. The optional parser maps the raw
    completion to the task's answer space before the metric is applied.
    """

    def __init__(
        self,
        gold_answers: list[str],
        metric: Callable[[str, list[str]], float],
        parse: Callable[[str], str | None] | None = None,
    ):
        self.gold_answers = gold_answers
        self.metric = metric
        self.parse = parse

    def score(self, graph: ThoughtGraph, node_id: int, generator: Generator) -> float:
        answer = generator.answer(graph.query_text, graph.node(node_id).text)
        if self.parse is not None:
            answer = self.parse(answer) or ""
        return float(self.metric(answer, self.gold_answers))


class SelfCriticScorer:
    """Critic-prompt score. Falls back to parsing the completion's first
    digit when the backend cannot report token log-probabilities."""

    def __init__(self, templates: TemplateSet):
        self.templates = templates

    def score(self, graph: ThoughtGraph, node_id: int, generator: Generator) -> float:
        prompt = self.templates["SelfCritic"].render(
            query=graph.query_text, thought=graph.node(node_id).text
        )
        try:
            logprobs = generator.score_tokens(prompt, ["1", "0"])
            return score_from_logprobs(logprobs["1"], logprobs["0"])
        except CapabilityError:
            _warn_no_logprobs()
        first = generator.complete(prompt).strip()[:1]
        return {"1": 1.0, "0": 0.0}.get(first, 0.5)


class EstimatorScorer:
    """Estimator as both a node scorer (via the node's parent pair) and the
    pairwise scorer the greedy planner needs. It embeds with the embedder
    train_estimator and load_model bind every model to: the unfitted hashed
    embedder of the model's dimension.

    One instance serves one search. It memoizes embeddings by text and
    scores by text pair, so each distinct text is embedded once and each
    distinct pair predicted once. This is exact: the estimator is a pure
    function of the two texts, and each predicted row is independent of the
    rest of its batch.
    """

    def __init__(self, model: ScorerModel):
        self.model = model
        self.embedder = HashedEmbedder(dim=model.embed_dim)
        self._embeddings: dict[str, np.ndarray] = {}
        self._scores: dict[tuple[str, str], float] = {}

    def _embed(self, text: str) -> np.ndarray:
        vec = self._embeddings.get(text)
        if vec is None:
            vec = self._embeddings[text] = self.embedder.embed(text)
        return vec

    def _predict(self, pairs: Sequence[tuple[str, str]]) -> None:
        """Embed and predict new pairs in one batch, into the memo."""
        vectors = [self._embed(text) for pair in pairs for text in pair]
        features = np.concatenate(vectors).reshape(len(pairs), -1)
        for pair, value in zip(pairs, self.model.predict_batch(features).tolist()):
            self._scores[pair] = value

    def score(self, graph: ThoughtGraph, node_id: int, generator: Generator) -> float:
        first, second = graph.node(node_id).parents
        pair = (graph.node(first).text, graph.node(second).text)
        if pair not in self._scores:
            self._predict([pair])
        return self._scores[pair]

    def score_pairs(self, pairs: Sequence[tuple[str, str]]) -> list[float]:
        new = [pair for pair in dict.fromkeys(pairs) if pair not in self._scores]
        if new:
            self._predict(new)
        return [self._scores[pair] for pair in pairs]
