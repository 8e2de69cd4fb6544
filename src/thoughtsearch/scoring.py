"""Scoring models for the planner.

Three scorers share one protocol: a metric-backed oracle (needs gold
answers, so training/evaluation only), a critic-prompt probability ratio,
and a pairwise reward estimator trained offline on (parent embeddings,
terminal reward) samples. The estimator's regressor is a small in-repo
gradient-boosted tree ensemble with a ridge fallback.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import CapabilityError, ConfigError, SchemaError, SearchError
from .generate import Generator
from .graph import ThoughtGraph
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


_TREE_FIELDS = {
    "feature": np.int64,
    "threshold": np.float64,
    "left": np.int64,
    "right": np.int64,
    "value": np.float64,
}


def _tree_from_dict(index: int, record: dict) -> _Tree:
    """Decode one saved tree: every field present, numeric, flat, and as
    long as `feature`. _check_trees checks the structure."""
    _require(record, _TREE_FIELDS, f"regressor.trees[{index}]")
    arrays = {}
    for name, dtype in _TREE_FIELDS.items():
        try:
            arrays[name] = np.asarray(record[name], dtype=dtype)
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"regressor.trees[{index}].{name} is not numeric: {exc}") from exc
        if arrays[name].ndim != 1 or arrays[name].shape != arrays["feature"].shape:
            raise SchemaError(
                f"regressor.trees[{index}].{name} has shape {arrays[name].shape}; "
                f"every field must be a flat list as long as feature"
            )
    if len(arrays["feature"]) == 0:
        raise SchemaError(f"regressor.trees[{index}] has no nodes")
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


def _best_split(X: np.ndarray, y: np.ndarray, min_leaf: int) -> tuple[int, float] | None:
    """Exact greedy split maximizing the reduction in squared error."""
    n = len(y)
    if n < 2 * min_leaf:
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
        if min_leaf > 1:
            valid &= (left_n >= min_leaf) & (n - left_n >= min_leaf)
        if not valid.any():
            continue
        right_sum = total - left_sum
        gain = left_sum**2 / left_n + right_sum**2 / (n - left_n) - base
        gain = np.where(valid, gain, -np.inf)
        idx = int(np.argmax(gain))
        if gain[idx] > best_gain + 1e-12:
            best_gain = float(gain[idx])
            best = (f, float((xs[idx] + xs[idx + 1]) / 2.0))
    return best


def _fit_tree(
    X: np.ndarray, y: np.ndarray, max_depth: int, min_leaf: int
) -> tuple[_Tree, np.ndarray]:
    """Fit one tree; also return each training row's leaf value."""
    feature, threshold, left, right, value = [], [], [], [], []
    fitted = np.empty(len(y), dtype=np.float64)

    def build(rows: np.ndarray, depth: int) -> int:
        node_id = len(feature)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(float(y[rows].mean()))
        if depth < max_depth:
            split = _best_split(X[rows], y[rows], min_leaf)
            if split is not None:
                f, t = split
                mask = X[rows, f] <= t
                feature[node_id] = f
                threshold[node_id] = t
                left[node_id] = build(rows[mask], depth + 1)
                right[node_id] = build(rows[~mask], depth + 1)
                return node_id
        fitted[rows] = value[node_id]
        return node_id

    build(np.arange(len(y)), 0)
    tree = _Tree(
        feature=np.asarray(feature, dtype=np.int64),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int64),
        right=np.asarray(right, dtype=np.int64),
        value=np.asarray(value, dtype=np.float64),
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
    min_leaf: int = 1
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
        for _ in range(self.n_rounds):
            residual = y - current
            tree, fitted = _fit_tree(X, residual, self.max_depth, self.min_leaf)
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
            "min_leaf": self.min_leaf,
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
        _require(
            record,
            ("n_rounds", "max_depth", "learning_rate", "min_leaf", "base", "trees"),
            "regressor",
        )
        if not isinstance(record["trees"], list):
            raise SchemaError("regressor.trees must be a list")
        trees = [_tree_from_dict(i, t) for i, t in enumerate(record["trees"])]
        _check_trees(trees, n_features)
        return cls(
            n_rounds=record["n_rounds"],
            max_depth=record["max_depth"],
            learning_rate=_number(record, "learning_rate", "regressor"),
            min_leaf=record["min_leaf"],
            base=_number(record, "base", "regressor"),
            trees=trees,
        )


@dataclass
class RidgeRegressor:
    """Closed-form L2-regularized linear fallback (config: regressor="ridge")."""

    alpha: float = 1.0
    weights: np.ndarray | None = None
    bias: float = 0.0

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RidgeRegressor":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        mean_x = X.mean(axis=0)
        mean_y = float(y.mean())
        Xc, yc = X - mean_x, y - mean_y
        gram = Xc.T @ Xc + self.alpha * np.eye(X.shape[1])
        self.weights = np.linalg.solve(gram, Xc.T @ yc)
        self.bias = mean_y - float(mean_x @ self.weights)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.asarray(X, dtype=np.float64) @ self.weights + self.bias

    def to_dict(self) -> dict:
        return {
            "kind": "ridge",
            "alpha": self.alpha,
            "weights": self.weights.tolist(),
            "bias": self.bias,
        }

    @classmethod
    def from_dict(cls, record: dict, n_features: int) -> "RidgeRegressor":
        _require(record, ("alpha", "weights", "bias"), "regressor")
        model = cls(alpha=record["alpha"], bias=_number(record, "bias", "regressor"))
        try:
            model.weights = np.asarray(record["weights"], dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"regressor.weights is not numeric: {exc}") from exc
        if model.weights.shape != (n_features,):
            raise SchemaError(
                f"regressor.weights has shape {model.weights.shape}, expected ({n_features},)"
            )
        return model


def _require(record, keys: Sequence[str], where: str) -> None:
    if not isinstance(record, dict):
        raise SchemaError(f"{where} must be an object")
    for key in keys:
        if key not in record:
            raise SchemaError(f"{where} missing field {key!r}")


def _number(record: dict, key: str, where: str) -> float:
    value = record[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{where}.{key} must be a number, got {value!r}")
    return value


def _regressor_from_dict(record: dict, n_features: int):
    _require(record, ("kind",), "regressor")
    kind = record["kind"]
    if kind == "gbrt":
        return GradientBoostedRegressor.from_dict(record, n_features)
    if kind == "ridge":
        return RidgeRegressor.from_dict(record, n_features)
    raise SchemaError(f"unknown regressor kind {kind!r}")


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

    regressor: GradientBoostedRegressor | RidgeRegressor
    threshold: float
    embedder_id: str
    embed_dim: int
    training_report: dict

    def predict(self, emb_i: np.ndarray, emb_j: np.ndarray) -> float:
        return estimator_predict(self, emb_i, emb_j)

    def predict_batch(self, features: np.ndarray) -> np.ndarray:
        return np.clip(self.regressor.predict(features), 0.0, 1.0)


def estimator_predict(model: ScorerModel, emb_i: np.ndarray, emb_j: np.ndarray) -> float:
    """Regressor output on concatenated embeddings, clamped to [0, 1]."""
    emb_i = np.asarray(emb_i, dtype=np.float64)
    emb_j = np.asarray(emb_j, dtype=np.float64)
    if emb_i.shape != (model.embed_dim,) or emb_j.shape != (model.embed_dim,):
        raise ConfigError(
            f"embedding dimension mismatch: model expects {model.embed_dim}, "
            f"got {emb_i.shape} and {emb_j.shape}"
        )
    features = np.concatenate([emb_i, emb_j])[None, :]
    return float(model.predict_batch(features)[0])


def threshold_fit(scores: Sequence[float], labels: Sequence[int]) -> float:
    """Pick the decision threshold maximizing precision of score >= t.

    Candidates are the distinct observed scores. Precision ties break toward
    higher recall, then toward the higher threshold, so perfectly separated
    data yields the smallest positive score.
    """
    if len(scores) != len(labels):
        raise ConfigError("scores and labels must have equal length")
    if not scores:
        raise ConfigError("threshold_fit requires at least one sample")
    if not any(label == 1 for label in labels):
        raise ConfigError("threshold_fit requires at least one positive label")
    pairs = list(zip(scores, labels))
    n_pos = sum(label for _, label in pairs)
    best = None
    for candidate in sorted(set(scores)):
        tp = sum(1 for s, label in pairs if s >= candidate and label == 1)
        fp = sum(1 for s, label in pairs if s >= candidate and label == 0)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / n_pos
        key = (precision, recall, candidate)
        if best is None or key > best[0]:
            best = (key, candidate)
    return float(best[1])


def train_estimator(
    dataset: Sequence[OfflineSample],
    holdout_fraction: float,
    regressor_config: dict | None = None,
    embedder_id: str = "",
    seed: int = 0,
) -> ScorerModel:
    """Fit the pairwise reward regressor on concatenated parent embeddings.

    Reports train/holdout MSE and fits the decision threshold on the training
    split (labels binarized at 0.5). A degenerate all-equal-label dataset
    trains a constant model with a warning.
    """
    if len(dataset) < 10:
        raise ConfigError(f"need at least 10 samples to train, got {len(dataset)}")
    if not 0.0 < holdout_fraction < 1.0:
        raise ConfigError(f"holdout_fraction must be in (0, 1), got {holdout_fraction}")
    cfg = dict(regressor_config or {})
    kind = cfg.pop("regressor", "gbrt")

    dim = len(dataset[0].emb_i)
    for sample in dataset:
        if len(sample.emb_i) != dim or len(sample.emb_j) != dim:
            raise ConfigError("all samples must share one embedding dimension")
    X = np.stack([np.concatenate([s.emb_i, s.emb_j]) for s in dataset])
    y = np.asarray([s.reward for s in dataset], dtype=np.float64)

    rng = np.random.default_rng(seed)
    order = rng.permutation(len(y))
    n_holdout = max(1, int(round(len(y) * holdout_fraction)))
    hold_idx, train_idx = order[:n_holdout], order[n_holdout:]

    if kind == "gbrt":
        regressor = GradientBoostedRegressor(
            n_rounds=cfg.pop("rounds", 100),
            max_depth=cfg.pop("depth", 3),
            learning_rate=cfg.pop("learning_rate", 0.1),
            min_leaf=cfg.pop("min_leaf", 1),
        )
    elif kind == "ridge":
        regressor = RidgeRegressor(alpha=cfg.pop("alpha", 1.0))
    else:
        raise ConfigError(f"unknown regressor kind {kind!r}")
    if cfg:
        raise ConfigError(f"unknown regressor options: {sorted(cfg)}")
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
        threshold = threshold_fit([float(p) for p in train_pred], bin_labels)
    else:
        log.warning("no positive labels in the training split; threshold set to 1.0")
        threshold = 1.0
    return ScorerModel(
        regressor=regressor,
        threshold=threshold,
        embedder_id=embedder_id,
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
    """Run the oracle-scored search per training example and record one sample
    per generated node: (parent embeddings, that node's oracle reward).

    ports_factory(example, rng) must return ready SearchPorts with an oracle
    scorer; per-example failures are skipped with a warning.
    """
    from .mcts import run_search
    from .seeding import rng_from

    samples: list[OfflineSample] = []
    for idx, example in enumerate(examples):
        rng = rng_from(seed, idx)
        try:
            outcome = run_search(example.query, ports_factory(example, rng), config, rng)
        except SearchError as exc:
            log.warning("skipping example %s: %s", getattr(example, "query_id", idx), exc)
            continue
        graph = outcome.graph
        for node_id in graph.generated_ids():
            first, second = graph.node(node_id).parents
            samples.append(
                OfflineSample(
                    emb_i=embedder.embed(graph.node(first).text),
                    emb_j=embedder.embed(graph.node(second).text),
                    reward=outcome.simulation_scores[node_id],
                    query_id=str(getattr(example, "query_id", idx)),
                )
            )
    return samples


def save_dataset(samples: Sequence[OfflineSample], path: str | Path) -> None:
    lines = [
        json.dumps(
            {
                "query_id": s.query_id,
                "emb_i": [float(v) for v in s.emb_i],
                "emb_j": [float(v) for v in s.emb_j],
                "reward": s.reward,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        for s in samples
    ]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_dataset(path: str | Path) -> list[OfflineSample]:
    samples = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        samples.append(
            OfflineSample(
                emb_i=np.asarray(rec["emb_i"], dtype=np.float64),
                emb_j=np.asarray(rec["emb_j"], dtype=np.float64),
                reward=float(rec["reward"]),
                query_id=rec.get("query_id", ""),
            )
        )
    return samples


def save_model(model: ScorerModel, path: str | Path) -> None:
    record = {
        "version": MODEL_FORMAT_VERSION,
        "embedder_id": model.embedder_id,
        "embed_dim": model.embed_dim,
        "threshold": model.threshold,
        "training_report": model.training_report,
        "regressor": model.regressor.to_dict(),
    }
    Path(path).write_text(
        json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n",
        encoding="utf-8",
    )


def load_model(path: str | Path, expected_embedder_id: str | None = None) -> ScorerModel:
    """Read and fully check a model file, compiling its trees; a malformed
    file raises SchemaError here, never later inside a search."""
    try:
        record = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"cannot read model file {path}: {exc}") from exc
    _require(record, ("version",), "model file")
    if record["version"] != MODEL_FORMAT_VERSION:
        raise SchemaError(f"unsupported model version {record['version']!r}")
    _require(
        record,
        ("embedder_id", "embed_dim", "threshold", "training_report", "regressor"),
        "model file",
    )
    embed_dim = record["embed_dim"]
    if not isinstance(embed_dim, int) or isinstance(embed_dim, bool) or embed_dim < 1:
        raise SchemaError(f"model embed_dim must be a positive integer, got {embed_dim!r}")
    if (
        expected_embedder_id is not None
        and record["embedder_id"] != expected_embedder_id
    ):
        raise SchemaError(
            f"model embedder_id {record['embedder_id']!r} does not match "
            f"configured {expected_embedder_id!r}"
        )
    return ScorerModel(
        regressor=_regressor_from_dict(record["regressor"], n_features=2 * embed_dim),
        threshold=float(_number(record, "threshold", "model")),
        embedder_id=record["embedder_id"],
        embed_dim=embed_dim,
        training_report=record["training_report"],
    )


# ---------------------------------------------------------------------------
# Scorer ports
# ---------------------------------------------------------------------------


def oracle_score(
    thought_text: str,
    query: str,
    gold_answers: list[str],
    answerer: Callable[[str, str], str],
    metric: Callable[[str, list[str]], float],
) -> float:
    """Task-metric score of the answer extracted from one thought.

    Requires gold answers, so this signal exists only for training and
    evaluation, never at inference.
    """
    return float(metric(answerer(query, thought_text), gold_answers))


def score_from_logprobs(logprob_yes: float, logprob_no: float) -> float:
    """Probability ratio p1 / (p1 + p0), computed in the shift-stable form."""
    return 1.0 / (1.0 + math.exp(logprob_no - logprob_yes))


_FALLBACK_WARNED = False


def self_critic_score(
    thought_text: str, query: str, generator: Generator, templates: TemplateSet
) -> float:
    """Critic-prompt score. Falls back to parsing the completion's first
    digit when the backend cannot report token log-probabilities."""
    global _FALLBACK_WARNED
    prompt = templates["SelfCritic"].render(query=query, thought=thought_text)
    try:
        logprobs = generator.score_tokens(prompt, ["1", "0"])
        return score_from_logprobs(logprobs["1"], logprobs["0"])
    except CapabilityError:
        if not _FALLBACK_WARNED:
            log.warning("backend lacks token log-probabilities; degrading to first-digit parsing")
            _FALLBACK_WARNED = True
        completion = generator.complete(prompt).strip()
        first = completion[:1]
        if first == "1":
            return 1.0
        if first == "0":
            return 0.0
        return 0.5


class OracleScorer:
    """Scorer port wrapping oracle_score; optional parser maps the raw
    completion to the task's answer space before the metric is applied."""

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
        def answerer(query: str, context: str) -> str:
            raw = generator.answer(query, context)
            if self.parse is None:
                return raw
            return self.parse(raw) or ""

        return oracle_score(
            graph.node(node_id).text,
            graph.query_text,
            self.gold_answers,
            answerer,
            self.metric,
        )


class SelfCriticScorer:
    def __init__(self, templates: TemplateSet):
        self.templates = templates

    def score(self, graph: ThoughtGraph, node_id: int, generator: Generator) -> float:
        return self_critic_score(
            graph.node(node_id).text, graph.query_text, generator, self.templates
        )


class EstimatorScorer:
    """Estimator as both a node scorer (via the node's parent pair) and the
    pairwise scorer the greedy planner needs.

    One instance serves one search. It memoizes embeddings by text and
    scores by text pair, so each distinct text is embedded once and each
    distinct pair predicted once. This is exact: the estimator is a pure
    function of the two texts, and each predicted row is independent of the
    rest of its batch.
    """

    def __init__(self, model: ScorerModel, embedder):
        if embedder.embedder_id != model.embedder_id:
            raise ConfigError(
                f"estimator embedder {embedder.embedder_id!r} does not match "
                f"model {model.embedder_id!r}"
            )
        self.model = model
        self.embedder = embedder
        self._embeddings: dict[str, np.ndarray] = {}
        self._scores: dict[tuple[str, str], float] = {}

    def _embed(self, text: str) -> np.ndarray:
        vec = self._embeddings.get(text)
        if vec is None:
            vec = self._embeddings[text] = self.embedder.embed(text)
        return vec

    def score(self, graph: ThoughtGraph, node_id: int, generator: Generator) -> float:
        first, second = graph.node(node_id).parents
        pair = (graph.node(first).text, graph.node(second).text)
        if pair not in self._scores:
            self._scores[pair] = self.model.predict(self._embed(pair[0]), self._embed(pair[1]))
        return self._scores[pair]

    def score_pairs(self, pairs: Sequence[tuple[str, str]]) -> list[float]:
        new = [pair for pair in dict.fromkeys(pairs) if pair not in self._scores]
        if new:
            features = np.stack(
                [np.concatenate([self._embed(a), self._embed(b)]) for a, b in new]
            )
            for pair, value in zip(new, self.model.predict_batch(features)):
                self._scores[pair] = float(value)
        return [self._scores[pair] for pair in pairs]
