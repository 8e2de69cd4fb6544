"""Scoring models: oracle, probability-ratio critic algebra, threshold
fitting, estimator training on a synthetic regression oracle, persistence."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
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
    SelfCriticScorer,
    _warn_no_logprobs,
    collect_offline_dataset,
    load_model,
    save_dataset,
    save_model,
    score_from_logprobs,
    threshold_fit,
    train_estimator,
)
from thoughtsearch.templates import TemplateSet

# ---------------------------------------------------------------------------
# Oracle score
# ---------------------------------------------------------------------------


class FixedAnswerGenerator(SimulatedGenerator):
    """Answers every query with one fixed completion."""

    def __init__(self, reply: str):
        self.reply = reply

    def answer(self, query, context):
        return self.reply


def _single_thought_graph(query: str, thought: str):
    graph = new_process(query)
    return graph, graph.apply_transition(Action(0, 0), thought)


def test_oracle_score_boolean_exact():
    metric = lambda pred, golds: float(exact_match(pred, golds))
    graph, node = _single_thought_graph("q", "thought")
    gen = FixedAnswerGenerator("1")
    assert OracleScorer(["1"], metric).score(graph, node, gen) == 1.0
    assert OracleScorer(["0"], metric).score(graph, node, gen) == 0.0


def test_oracle_score_exact_match_normalizes():
    metric = lambda pred, golds: float(exact_match(pred, golds))
    graph, node = _single_thought_graph("q", "t")
    assert OracleScorer(["10"], metric).score(graph, node, FixedAnswerGenerator("The 10")) == 1.0
    # The parser maps the completion into the answer space; no parse scores "".
    gen = FixedAnswerGenerator("dose: 10 mg")
    assert OracleScorer(["10"], metric, parse=lambda raw: "10").score(graph, node, gen) == 1.0
    assert OracleScorer([""], metric, parse=lambda raw: None).score(graph, node, gen) == 1.0


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
    # p1 -> 0 drives it to 0, also past where exp overflows
    assert score_from_logprobs(-745.0, lp(0.5)) == pytest.approx(0.0)
    assert score_from_logprobs(-1000.0, 0.0) == 0.0
    # -inf is probability 0; two of them leave the ratio at even odds
    assert score_from_logprobs(-math.inf, 0.0) == 0.0
    assert score_from_logprobs(0.0, -math.inf) == 1.0
    assert score_from_logprobs(-math.inf, -math.inf) == 0.5


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


def _self_critic(thought: str, query: str, gen) -> float:
    graph, node = _single_thought_graph(query, thought)
    return SelfCriticScorer(TemplateSet.builtin("simulated")).score(graph, node, gen)


def test_self_critic_score_simulated():
    gen = SimulatedGenerator()
    assert _self_critic("fact:a=1", "need:a question", gen) == pytest.approx(0.9)
    assert _self_critic("irrelevant", "need:a question", gen) == pytest.approx(0.1)


def test_self_critic_fallback_on_missing_logprobs(caplog):
    class NoLogprobGenerator(SimulatedGenerator):
        def score_tokens(self, prompt, tokens):
            raise CapabilityError("no logprobs")

        def complete(self, prompt):
            scores = SimulatedGenerator.score_tokens(self, prompt, ["1", "0"])
            return "1" if scores["1"] > scores["0"] else "0"

    gen = NoLogprobGenerator()
    _warn_no_logprobs.cache_clear()
    # The simulated complete() answers "1" when the needs are covered.
    assert _self_critic("fact:a=1", "need:a q", gen) == 1.0
    assert _self_critic("nothing", "need:a q", gen) == 0.0
    warnings = [r for r in caplog.records if "log-probabilities" in r.getMessage()]
    assert len(warnings) == 1  # once per process, not once per scorer or call


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


def reference_threshold_fit(scores, labels):
    """Every distinct score tried in turn, counting all samples for each."""
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


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    n=st.integers(1, 40),
    one_positive=st.booleans(),
)
def test_threshold_fit_matches_reference_loop(data, n, one_positive):
    # Few distinct scores give duplicates and precision/recall ties; 0.0 and
    # -0.0 are one candidate, stood for by the first of them.
    score = st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0]) | st.floats(-2, 2, allow_nan=False)
    scores = data.draw(st.lists(score, min_size=n, max_size=n))
    if one_positive:  # all negative but one
        labels = [0] * n
    else:
        labels = data.draw(st.lists(st.sampled_from([0, 1]), min_size=n, max_size=n))
    labels[data.draw(st.integers(0, n - 1))] = 1
    assert repr(threshold_fit(scores, labels)) == repr(reference_threshold_fit(scores, labels))


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
        regressor_config={"n_rounds": 300, "max_depth": 3, "learning_rate": 0.1},
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
        regressor_config={"n_rounds": 300},
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


def test_train_estimator_degenerate_constant():
    dim = 4
    data = [
        OfflineSample(emb_i=np.full(dim, i * 0.1), emb_j=np.zeros(dim), reward=0.5)
        for i in range(12)
    ]
    model = train_estimator(data, holdout_fraction=0.25, seed=0)
    assert model.predict_batch(np.ones((1, 2 * dim)))[0] == pytest.approx(0.5)
    assert model.training_report["holdout_mse"] == pytest.approx(0.0)
    # An explicit regressor config must not break the degenerate path.
    model = train_estimator(
        data,
        holdout_fraction=0.25,
        regressor_config={"n_rounds": 100, "max_depth": 3, "learning_rate": 0.1},
        seed=0,
    )
    features = np.concatenate([np.zeros(dim), np.ones(dim)])[None, :]
    assert model.predict_batch(features)[0] == pytest.approx(0.5)


@pytest.mark.parametrize("option", ["rounds", "depth", "base", "trees"])
def test_train_estimator_refuses_unknown_regressor_options(option):
    """regressor_config takes GradientBoostedRegressor's fit settings under
    their own names, and nothing else."""
    with pytest.raises(ConfigError, match=rf"unknown regressor options: \['{option}'\]"):
        train_estimator(_synthetic_dataset(n=20), holdout_fraction=0.2, regressor_config={option: 1})


def test_train_estimator_requires_min_samples():
    data = _synthetic_dataset(n=9)
    with pytest.raises(ConfigError):
        train_estimator(data, holdout_fraction=0.2)


@pytest.mark.parametrize(
    "index, field, value, message",
    [
        (3, "reward", math.nan, r"sample 3 \(query_id 'q3'\) has reward = nan;"),
        (7, "reward", math.inf, r"sample 7 \(query_id 'q7'\) has reward = inf;"),
        (5, "emb_j", math.nan, r"sample 5 \(query_id 'q5'\) has emb_j\[2\] = nan;"),
    ],
)
def test_train_estimator_refuses_a_sample_that_is_not_finite(index, field, value, message):
    """A model fitted to such a sample would save, then fail load_model's
    finiteness check; training names the first such sample instead."""
    data = [
        OfflineSample(s.emb_i, s.emb_j.copy(), s.reward, query_id=f"q{i}")
        for i, s in enumerate(_synthetic_dataset(n=20))
    ]
    if field == "reward":
        data[index] = OfflineSample(data[index].emb_i, data[index].emb_j, value, f"q{index}")
    else:
        data[index].emb_j[2] = value
    data[index + 1] = OfflineSample(data[index].emb_i, data[index].emb_j, math.nan, "later")
    with pytest.raises(ConfigError, match=message):
        train_estimator(data, holdout_fraction=0.2)


def test_estimator_predict_constant_and_clamp():
    model = train_estimator(
        [
            OfflineSample(emb_i=np.array([float(i)]), emb_j=np.array([0.0]), reward=i % 2)
            for i in range(20)
        ],
        holdout_fraction=0.2,
        regressor_config={"n_rounds": 10},
        seed=0,
    )
    value = model.predict_batch(np.array([[3.0, 0.0], [-50.0, 0.0], [50.0, 0.0]]))
    assert np.all((0.0 <= value) & (value <= 1.0))


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def test_model_round_trip_and_embedder_check(tmp_path):
    data = _synthetic_dataset(n=200, dim_each=4)
    model = train_estimator(
        data,
        holdout_fraction=0.2,
        regressor_config={"n_rounds": 20},
        embedder_id="hashed-tf-v1-d4",
        seed=0,
    )
    path = tmp_path / "model.json"
    save_model(model, path)
    first = path.read_bytes()
    save_model(model, path)
    assert path.read_bytes() == first
    loaded = load_model(path, expected_embedder_id="hashed-tf-v1-d4")
    probe = np.concatenate([np.ones(4) * 0.3, np.ones(4) * -0.2])[None, :]
    assert loaded.predict_batch(probe)[0] == model.predict_batch(probe)[0]
    with pytest.raises(SchemaError):
        load_model(path, expected_embedder_id="other-embedder")


def test_model_trained_without_an_embedder_id_loads(tmp_path):
    """The default binds the model to the hashed embedder of the samples'
    dimension, which is what load_model checks; any other id is refused."""
    data = _synthetic_dataset(n=40, dim_each=4)
    model = train_estimator(data, holdout_fraction=0.2, regressor_config={"n_rounds": 5}, seed=0)
    assert model.embedder_id == HashedEmbedder(dim=4).embedder_id
    save_model(model, tmp_path / "model.json")
    loaded = load_model(tmp_path / "model.json", expected_embedder_id=HashedEmbedder(dim=4).embedder_id)
    probe = np.linspace(-1.0, 1.0, 8)[None, :]
    assert loaded.predict_batch(probe)[0] == model.predict_batch(probe)[0]
    for other in ("", "hashed-tf-v1-d8", HashedEmbedder(dim=4, idf={"a": 1.0}).embedder_id):
        with pytest.raises(ConfigError, match="the embedder of the samples"):
            train_estimator(data, holdout_fraction=0.2, regressor_config={"n_rounds": 5}, embedder_id=other)


def test_retrain_same_seed_identical_model_file(tmp_path):
    data = _synthetic_dataset(n=300, dim_each=4)
    paths = []
    for name in ("m1.json", "m2.json"):
        model = train_estimator(
            data,
            holdout_fraction=0.2,
            regressor_config={"n_rounds": 30},
            seed=11,
        )
        path = tmp_path / name
        save_model(model, path)
        paths.append(path.read_bytes())
    assert paths[0] == paths[1]


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

    from thoughtsearch.config import EpisodeConfig

    embedder = HashedEmbedder(dim=32)
    config = EpisodeConfig(max_steps=4, stop_threshold=2.0)  # always exhausts the budget
    samples = collect_offline_dataset(examples, ports_factory, config, embedder, seed=0)
    assert len(samples) == 3 * 4
    assert all(s.reward == 0.0 for s in samples)  # no facts exist anywhere
    assert all(s.emb_i.shape == (32,) for s in samples)


def test_collect_offline_dataset_skips_a_failed_search(caplog):
    """A search that raises SearchError adds no sample and stops no other
    example's search."""
    from thoughtsearch.config import EpisodeConfig
    from thoughtsearch.errors import GenerationError
    from thoughtsearch.harness import QAExample, Task
    from thoughtsearch.mcts import SearchPorts

    class FailingGenerator(SimulatedGenerator):
        def generate_thought(self, parents, query):
            raise GenerationError("backend down")

    examples = [
        QAExample(query_id=f"t{i}", query=f"need:k{i} find it", gold_answers=["v9"], task=Task.SIMULATED_FACT)
        for i in range(3)
    ]

    def ports_factory(example, rng):
        generator = FailingGenerator() if example.query_id == "t1" else SimulatedGenerator()
        return SearchPorts(generator=generator, scorer=OracleScorer(example.gold_answers, best_token_f1))

    config = EpisodeConfig(max_steps=4, stop_threshold=2.0)
    with caplog.at_level("WARNING", logger="thoughtsearch.scoring"):
        samples = collect_offline_dataset(examples, ports_factory, config, HashedEmbedder(dim=16), seed=0)
    assert [s.query_id for s in samples] == ["t0"] * 4 + ["t2"] * 4
    assert "skipping example t1: search failed after 0 thoughts: backend down" in caplog.text


def test_collect_replay_byte_identical_dataset_file(tmp_path):
    from thoughtsearch.harness import QAExample, Task
    from thoughtsearch.config import EpisodeConfig
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


def test_collect_embeds_each_distinct_parent_text_once():
    from thoughtsearch.config import EpisodeConfig
    from thoughtsearch.harness import QAExample, Task
    from thoughtsearch.mcts import SearchPorts

    class CountingEmbedder(HashedEmbedder):
        def embed(self, text):
            self.texts.append(text)
            return super().embed(text)

    examples = [
        QAExample(query_id=f"t{i}", query=f"need:k{i} find it", gold_answers=["v9"], task=Task.SIMULATED_FACT)
        for i in range(3)
    ]

    def ports_factory(example, rng):
        return SearchPorts(
            generator=SimulatedGenerator(),
            scorer=OracleScorer(example.gold_answers, best_token_f1),
        )

    embedder = CountingEmbedder(dim=16)
    embedder.texts = []
    config = EpisodeConfig(max_steps=6, stop_threshold=2.0)
    samples = collect_offline_dataset(examples, ports_factory, config, embedder, seed=0)
    assert len(samples) == 3 * 6
    assert len(embedder.texts) == len(set(embedder.texts)) < 2 * len(samples)
    reference = HashedEmbedder(dim=16)
    for sample, text_i, text_j in zip(samples, *_parent_texts(examples, ports_factory, config)):
        assert sample.emb_i.tobytes() == reference.embed(text_i).tobytes()
        assert sample.emb_j.tobytes() == reference.embed(text_j).tobytes()


def _parent_texts(examples, ports_factory, config):
    """The two parent texts of every generated node, in collect's order."""
    from thoughtsearch.mcts import run_search
    from thoughtsearch.seeding import rng_from

    firsts, seconds = [], []
    for idx, example in enumerate(examples):
        rng = rng_from(0, idx)
        graph = run_search(example.query, ports_factory(example, rng), config, rng).graph
        for node_id in graph.generated_ids():
            first, second = graph.node(node_id).parents
            firsts.append(graph.node(first).text)
            seconds.append(graph.node(second).text)
    return firsts, seconds


def test_estimator_scorer_checks_embedder_id():
    data = _synthetic_dataset(n=100, dim_each=32)
    model = train_estimator(
        data,
        holdout_fraction=0.2,
        regressor_config={"n_rounds": 10},
        embedder_id="hashed-tf-v1-d32",
        seed=0,
    )
    scorer = EstimatorScorer(model)
    assert scorer.embedder.embedder_id == model.embedder_id
    graph = new_process("q")
    node = graph.apply_transition(Action(0, 0), "some text")
    value = scorer.score(graph, node, SimulatedGenerator())
    assert 0.0 <= value <= 1.0


@pytest.mark.parametrize("dim", [32, 64])
def test_estimator_scorer_embeds_with_its_models_embedder(tmp_path, dim):
    """The scorer's embedder is the one the model is bound to, for a model
    fresh from training and for the same model read back from its file."""
    model = train_estimator(
        _synthetic_dataset(n=60, dim_each=dim), holdout_fraction=0.2, regressor_config={"n_rounds": 3}
    )
    save_model(model, tmp_path / "model.json")
    for scored in (model, load_model(tmp_path / "model.json")):
        embedder = EstimatorScorer(scored).embedder
        assert embedder.embedder_id == scored.embedder_id == HashedEmbedder(dim=dim).embedder_id
        assert embedder.dim == dim


# ---------------------------------------------------------------------------
# Per-search memo of the estimator scorer
# ---------------------------------------------------------------------------


class CountingEmbedder:
    """HashedEmbedder that counts how often each text is embedded."""

    def __init__(self, dim: int):
        self.inner = HashedEmbedder(dim=dim)
        self.dim = dim
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


def _counting_scorer(model, embedder: CountingEmbedder) -> EstimatorScorer:
    """An estimator scorer that embeds through `embedder`."""
    scorer = EstimatorScorer(model)
    scorer.embedder = embedder
    return scorer


def _hashed_gbrt_model(dim: int = 32):
    return train_estimator(
        _synthetic_dataset(n=300, dim_each=dim),
        holdout_fraction=0.2,
        regressor_config={"n_rounds": 20},
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
        EstimatorScorer(model).score_pairs([pair])[0] for pair in pairs
    ]

    embedder = CountingEmbedder(dim=32)
    scorer = _counting_scorer(model, embedder)
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

    _counting_scorer(model, embedder).score_pairs(pairs[:1])  # a new search starts afresh
    assert embedder.calls[texts[0]] == 2


def test_greedy_search_memo_keeps_calls_and_trace(small_index):
    from thoughtsearch.config import EpisodeConfig
    from thoughtsearch.mcts import SearchPorts, greedy_search
    from thoughtsearch.retrieval import DocumentQueue
    from thoughtsearch.trace import graph_to_record, trace_text

    model = _hashed_gbrt_model()

    def search(scorer):
        ports = SearchPorts(
            generator=SimulatedGenerator(),
            scorer=scorer,
            retriever=DocumentQueue(small_index, batch_size=2),
        )
        outcome = greedy_search(
            "need:k1 need:k4 question", ports, EpisodeConfig(max_steps=6, stop_threshold=2.0)
        )
        return outcome.scorer_calls, trace_text(graph_to_record(outcome.graph, outcome))

    embedder = CountingEmbedder(dim=32)
    cached = search(_counting_scorer(model, embedder))
    assert cached == search(UncachedPairScorer(model, HashedEmbedder(dim=32)))
    assert cached[0] > len(embedder.calls)
    assert all(count == 1 for count in embedder.calls.values())
