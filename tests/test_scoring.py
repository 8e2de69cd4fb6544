"""Scoring models: oracle, probability-ratio critic algebra, threshold
fitting, estimator training on a synthetic regression oracle, persistence."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from thoughtsearch.errors import CapabilityError, ConfigError, SchemaError
from thoughtsearch.generate import SimulatedGenerator
from thoughtsearch.graph import Action, new_process
from thoughtsearch.metrics import best_token_f1, exact_match
from thoughtsearch.retrieval import HashedEmbedder
from thoughtsearch.scoring import (
    EstimatorScorer,
    OfflineSample,
    OracleScorer,
    collect_offline_dataset,
    estimator_predict,
    load_dataset,
    load_model,
    oracle_score,
    save_dataset,
    save_model,
    score_from_logprobs,
    self_critic_score,
    threshold_fit,
    train_estimator,
)
from thoughtsearch.templates import TemplateSet

# ---------------------------------------------------------------------------
# Oracle score
# ---------------------------------------------------------------------------


def test_oracle_score_boolean_exact():
    answerer = lambda query, context: "1"
    metric = lambda pred, golds: float(exact_match(pred, golds))
    assert oracle_score("thought", "q", ["1"], answerer, metric) == 1.0
    assert oracle_score("thought", "q", ["0"], answerer, metric) == 0.0


def test_oracle_score_exact_match_normalizes():
    answerer = lambda query, context: "The 10"
    metric = lambda pred, golds: float(exact_match(pred, golds))
    assert oracle_score("t", "q", ["10"], answerer, metric) == 1.0


def test_oracle_scorer_simulated_coverage():
    gen = SimulatedGenerator()
    scorer = OracleScorer(["v1 v2"], best_token_f1)
    graph = new_process("need:k1 need:k2 question")
    both = graph.apply_transition(Action(0, 0), "fact:k1=v1 fact:k2=v2")
    one = graph.apply_transition(Action(0, 0), "fact:k1=v1")
    none = graph.apply_transition(Action(0, 0), "note nothing")
    assert scorer.score(graph, both, gen) == 1.0
    assert scorer.score(graph, one, gen) == 0.5  # graded partial credit
    assert scorer.score(graph, none, gen) == 0.0


# ---------------------------------------------------------------------------
# Self-critic score
# ---------------------------------------------------------------------------


def test_probability_ratio_examples():
    lp = math.log
    assert score_from_logprobs(lp(0.3), lp(0.3)) == pytest.approx(0.5)
    assert score_from_logprobs(lp(0.6), lp(0.2)) == pytest.approx(0.75)
    # p0 -> 0 drives the ratio to 1
    assert score_from_logprobs(lp(0.5), -745.0) == pytest.approx(1.0)


@given(
    st.floats(min_value=-20, max_value=0),
    st.floats(min_value=-20, max_value=0),
    st.floats(min_value=-10, max_value=10),
)
def test_probability_ratio_shift_invariance(lp1, lp0, shift):
    base = score_from_logprobs(lp1, lp0)
    shifted = score_from_logprobs(lp1 + shift, lp0 + shift)
    assert shifted == pytest.approx(base, abs=1e-9)
    assert 0.0 <= base <= 1.0


def test_self_critic_score_simulated():
    templates = TemplateSet.builtin("simulated")
    gen = SimulatedGenerator()
    covered = self_critic_score("fact:a=1", "need:a question", gen, templates)
    uncovered = self_critic_score("irrelevant", "need:a question", gen, templates)
    assert covered == pytest.approx(0.9)
    assert uncovered == pytest.approx(0.1)


def test_self_critic_fallback_on_missing_logprobs():
    class NoLogprobGenerator(SimulatedGenerator):
        def score_tokens(self, prompt, tokens):
            raise CapabilityError("no logprobs")

        def complete(self, prompt):
            scores = SimulatedGenerator.score_tokens(self, prompt, ["1", "0"])
            return "1" if scores["1"] > scores["0"] else "0"

    templates = TemplateSet.builtin("simulated")
    gen = NoLogprobGenerator()
    # The simulated complete() answers "1" when the needs are covered.
    assert self_critic_score("fact:a=1", "need:a q", gen, templates) == 1.0
    assert self_critic_score("nothing", "need:a q", gen, templates) == 0.0


# ---------------------------------------------------------------------------
# Threshold fitting
# ---------------------------------------------------------------------------


def test_threshold_fit_separated_returns_min_positive():
    scores = [0.1, 0.2, 0.7, 0.9]
    labels = [0, 0, 1, 1]
    assert threshold_fit(scores, labels) == 0.7


def test_threshold_fit_prefers_precision_then_recall():
    # 0.5 captures both positives with one false positive (P=2/3);
    # 0.8 captures one positive cleanly (P=1) -> precision wins.
    scores = [0.5, 0.6, 0.8]
    labels = [1, 0, 1]
    assert threshold_fit(scores, labels) == 0.8


def test_threshold_fit_errors():
    with pytest.raises(ConfigError):
        threshold_fit([0.5], [0])
    with pytest.raises(ConfigError):
        threshold_fit([0.5, 0.6], [1])


# ---------------------------------------------------------------------------
# Estimator training on the synthetic regression oracle
# ---------------------------------------------------------------------------


def _synthetic_dataset(n=1500, dim_each=8, seed=5, noise=0.01):
    rng = np.random.default_rng(seed)
    weights = rng.normal(size=2 * dim_each)
    X = rng.normal(size=(n, 2 * dim_each))
    raw = X @ weights
    raw = 0.5 + 0.45 * raw / np.max(np.abs(raw))  # keep the clamp inactive
    y = np.clip(raw + rng.normal(scale=noise, size=n), 0.0, 1.0)
    return [
        OfflineSample(emb_i=X[i, :dim_each], emb_j=X[i, dim_each:], reward=float(y[i]))
        for i in range(n)
    ]


def test_train_estimator_on_linear_synthetic():
    data = _synthetic_dataset()
    model = train_estimator(
        data,
        holdout_fraction=0.2,
        regressor_config={"regressor": "gbrt", "rounds": 300, "depth": 3, "learning_rate": 0.1},
        embedder_id="test-embedder",
        seed=0,
    )
    assert model.training_report["holdout_mse"] <= 0.01
    assert model.training_report["sample_count"] == len(data)
    # Best constant predictor cannot beat the trained model on this data.
    y = np.array([s.reward for s in data])
    assert model.training_report["holdout_mse"] <= float(np.var(y))


def test_estimator_predictions_correlate_with_labels():
    data = _synthetic_dataset()
    model = train_estimator(
        data,
        holdout_fraction=0.2,
        regressor_config={"regressor": "gbrt", "rounds": 300},
        seed=0,
    )
    rng = np.random.default_rng(0)
    order = rng.permutation(len(data))
    holdout = [data[i], ] if False else [data[i] for i in order[: len(data) // 5]]
    features = np.stack([np.concatenate([s.emb_i, s.emb_j]) for s in holdout])
    labels = np.array([s.reward for s in holdout])
    preds = model.predict_batch(features)
    assert np.corrcoef(preds, labels)[0, 1] >= 0.9
    assert np.all(preds >= 0.0) and np.all(preds <= 1.0)


def test_train_estimator_ridge_nails_linear():
    data = _synthetic_dataset(n=600)
    model = train_estimator(
        data, holdout_fraction=0.2, regressor_config={"regressor": "ridge", "alpha": 1e-6}, seed=0
    )
    assert model.training_report["holdout_mse"] <= 2e-4


def test_train_estimator_degenerate_constant():
    dim = 4
    data = [
        OfflineSample(emb_i=np.full(dim, i * 0.1), emb_j=np.zeros(dim), reward=0.5)
        for i in range(12)
    ]
    model = train_estimator(data, holdout_fraction=0.25, seed=0)
    assert estimator_predict(model, np.ones(dim), np.ones(dim)) == pytest.approx(0.5)
    assert model.training_report["holdout_mse"] == pytest.approx(0.0)
    # An explicit regressor config must not break the degenerate path.
    model = train_estimator(
        data,
        holdout_fraction=0.25,
        regressor_config={"regressor": "gbrt", "rounds": 100, "depth": 3, "learning_rate": 0.1},
        seed=0,
    )
    assert estimator_predict(model, np.zeros(dim), np.ones(dim)) == pytest.approx(0.5)


def test_train_estimator_requires_min_samples():
    data = _synthetic_dataset(n=9)
    with pytest.raises(ConfigError):
        train_estimator(data, holdout_fraction=0.2)


def test_estimator_predict_constant_and_clamp():
    model = train_estimator(
        [
            OfflineSample(emb_i=np.array([float(i)]), emb_j=np.array([0.0]), reward=i % 2)
            for i in range(20)
        ],
        holdout_fraction=0.2,
        regressor_config={"regressor": "gbrt", "rounds": 10},
        seed=0,
    )
    value = estimator_predict(model, np.array([3.0]), np.array([0.0]))
    assert 0.0 <= value <= 1.0
    with pytest.raises(ConfigError):
        estimator_predict(model, np.zeros(2), np.zeros(1))


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def test_model_round_trip_and_embedder_check(tmp_path):
    data = _synthetic_dataset(n=200, dim_each=4)
    model = train_estimator(
        data,
        holdout_fraction=0.2,
        regressor_config={"regressor": "gbrt", "rounds": 20},
        embedder_id="hashed-tf-v1-d4",
        seed=0,
    )
    path = tmp_path / "model.json"
    save_model(model, path)
    first = path.read_bytes()
    save_model(model, path)
    assert path.read_bytes() == first
    loaded = load_model(path, expected_embedder_id="hashed-tf-v1-d4")
    probe_i, probe_j = np.ones(4) * 0.3, np.ones(4) * -0.2
    assert estimator_predict(loaded, probe_i, probe_j) == estimator_predict(
        model, probe_i, probe_j
    )
    with pytest.raises(SchemaError):
        load_model(path, expected_embedder_id="other-embedder")


def test_retrain_same_seed_identical_model_file(tmp_path):
    data = _synthetic_dataset(n=300, dim_each=4)
    paths = []
    for name in ("m1.json", "m2.json"):
        model = train_estimator(
            data,
            holdout_fraction=0.2,
            regressor_config={"regressor": "gbrt", "rounds": 30},
            embedder_id="e",
            seed=11,
        )
        path = tmp_path / name
        save_model(model, path)
        paths.append(path.read_bytes())
    assert paths[0] == paths[1]


def test_dataset_round_trip_byte_identical(tmp_path):
    data = _synthetic_dataset(n=30, dim_each=3)
    p1, p2 = tmp_path / "d1.jsonl", tmp_path / "d2.jsonl"
    save_dataset(data, p1)
    save_dataset(load_dataset(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


# ---------------------------------------------------------------------------
# Offline collection
# ---------------------------------------------------------------------------


def test_collect_offline_dataset_one_sample_per_node():
    from thoughtsearch.harness import QAExample, Task
    from thoughtsearch.mcts import SearchPorts

    examples = [
        QAExample(
            query_id=f"t{i}",
            query=f"need:k{i} find it",
            gold_answers=["v9"],
            task=Task.SIMULATED_FACT,
        )
        for i in range(3)
    ]

    def ports_factory(example, rng):
        return SearchPorts(
            generator=SimulatedGenerator(),
            scorer=OracleScorer(example.gold_answers, best_token_f1),
        )

    from thoughtsearch.graph import EpisodeConfig

    embedder = HashedEmbedder(dim=32)
    config = EpisodeConfig(max_steps=4, stop_threshold=2.0)  # always exhausts the budget
    samples = collect_offline_dataset(examples, ports_factory, config, embedder, seed=0)
    assert len(samples) == 3 * 4
    assert all(s.reward == 0.0 for s in samples)  # no facts exist anywhere
    assert all(s.emb_i.shape == (32,) for s in samples)


def test_collect_replay_byte_identical_dataset_file(tmp_path):
    from thoughtsearch.harness import QAExample, Task
    from thoughtsearch.graph import EpisodeConfig
    from thoughtsearch.mcts import SearchPorts

    examples = [
        QAExample(
            query_id=f"t{i}",
            query=f"need:k{i} find it",
            gold_answers=["v9"],
            task=Task.SIMULATED_FACT,
        )
        for i in range(4)
    ]

    def ports_factory(example, rng):
        return SearchPorts(
            generator=SimulatedGenerator(),
            scorer=OracleScorer(example.gold_answers, best_token_f1),
        )

    config = EpisodeConfig(max_steps=3, stop_threshold=2.0)
    embedder = HashedEmbedder(dim=16)
    files = []
    for name in ("a.jsonl", "b.jsonl"):
        samples = collect_offline_dataset(examples, ports_factory, config, embedder, seed=3)
        path = tmp_path / name
        save_dataset(samples, path)
        files.append(path.read_bytes())
    assert files[0] == files[1]


def test_estimator_scorer_checks_embedder_id():
    data = _synthetic_dataset(n=100, dim_each=32)
    model = train_estimator(
        data,
        holdout_fraction=0.2,
        regressor_config={"regressor": "ridge"},
        embedder_id="hashed-tf-v1-d32",
        seed=0,
    )
    scorer = EstimatorScorer(model, HashedEmbedder(dim=32))
    graph = new_process("q")
    node = graph.apply_transition(Action(0, 0), "some text")
    value = scorer.score(graph, node, SimulatedGenerator())
    assert 0.0 <= value <= 1.0
    with pytest.raises(ConfigError):
        EstimatorScorer(model, HashedEmbedder(dim=64))


# ---------------------------------------------------------------------------
# Per-search memo of the estimator scorer
# ---------------------------------------------------------------------------


class CountingEmbedder:
    """HashedEmbedder that counts how often each text is embedded."""

    def __init__(self, dim: int):
        self.inner = HashedEmbedder(dim=dim)
        self.calls: dict[str, int] = {}

    @property
    def embedder_id(self) -> str:
        return self.inner.embedder_id

    def embed(self, text: str) -> np.ndarray:
        self.calls[text] = self.calls.get(text, 0) + 1
        return self.inner.embed(text)


class UncachedPairScorer:
    """The estimator's pair scoring with no memo: embed and predict every pair."""

    def __init__(self, model, embedder):
        self.model, self.embedder = model, embedder

    def score_pairs(self, pairs):
        features = np.stack(
            [np.concatenate([self.embedder.embed(a), self.embedder.embed(b)]) for a, b in pairs]
        )
        return [float(v) for v in self.model.predict_batch(features)]


def _hashed_gbrt_model(dim: int = 32):
    return train_estimator(
        _synthetic_dataset(n=300, dim_each=dim),
        holdout_fraction=0.2,
        regressor_config={"regressor": "gbrt", "rounds": 20},
        embedder_id=HashedEmbedder(dim=dim).embedder_id,
        seed=0,
    )


def test_estimator_memo_is_exact_and_embeds_each_text_once():
    model = _hashed_gbrt_model()
    texts = ["alpha beta", "gamma", "delta delta epsilon", "alpha beta gamma"]
    pairs = [(a, b) for a in texts for b in texts[:3]]
    pairs += pairs[2:7]  # repeated pairs, in one batch and across batches
    expected = UncachedPairScorer(model, HashedEmbedder(dim=32)).score_pairs(pairs)
    assert expected == [
        EstimatorScorer(model, HashedEmbedder(dim=32)).score_pairs([pair])[0] for pair in pairs
    ]

    embedder = CountingEmbedder(dim=32)
    scorer = EstimatorScorer(model, embedder)
    rows = []
    model.predict_batch = lambda features, inner=model.predict_batch: (
        rows.append(len(features)) or inner(features)
    )
    assert scorer.score_pairs(pairs) == expected
    assert rows == [len(set(pairs))]
    assert scorer.score_pairs(pairs[3:9]) == expected[3:9]
    assert rows == [len(set(pairs))]  # every pair was already known

    graph = new_process(texts[0])
    first = graph.apply_transition(Action(0, 0), texts[1])
    node = graph.apply_transition(Action(0, first), "unused")
    assert scorer.score(graph, node, SimulatedGenerator()) == expected[1]
    assert rows == [len(set(pairs))]
    assert embedder.calls == {text: 1 for text in texts}

    EstimatorScorer(model, embedder).score_pairs(pairs[:1])  # a new search starts afresh
    assert embedder.calls[texts[0]] == 2


def test_greedy_search_memo_keeps_calls_and_trace(small_index):
    from thoughtsearch.graph import EpisodeConfig
    from thoughtsearch.mcts import RetrieverPorts, SearchPorts, greedy_search
    from thoughtsearch.retrieval import DocumentQueue
    from thoughtsearch.trace import graph_to_record, trace_text

    model = _hashed_gbrt_model()

    def search(scorer):
        ports = SearchPorts(
            generator=SimulatedGenerator(),
            scorer=scorer,
            retriever=RetrieverPorts(index=small_index, queue=DocumentQueue(batch_size=2)),
        )
        outcome = greedy_search(
            "need:k1 need:k4 question", ports, EpisodeConfig(max_steps=6, stop_threshold=2.0)
        )
        return outcome.scorer_calls, trace_text(graph_to_record(outcome.graph, outcome))

    embedder = CountingEmbedder(dim=32)
    cached = search(EstimatorScorer(model, embedder))
    assert cached == search(UncachedPairScorer(model, HashedEmbedder(dim=32)))
    assert cached[0] > len(embedder.calls)
    assert all(count == 1 for count in embedder.calls.values())
