"""Acceptance suite.

One test per acceptance criterion, each printing a PASS/FAIL line (run with
-s or check captured output). Numeric thresholds for the simulated-benchmark
criteria were frozen after a seeded calibration run (suite seed 77, config
seed 0): mcts_oracle 0.775, random control 0.395, greedy_estimation 0.685.
"""

from __future__ import annotations

import math
import time

import mpmath
import numpy as np
import pytest

from tests.conftest import ConstantScorer, write_jsonl
from thoughtsearch import simenv
from thoughtsearch.config import EpisodeConfig, default_config
from thoughtsearch.generate import SimulatedGenerator
from thoughtsearch.graph import Action, NodeKind, new_process
from thoughtsearch.harness import (
    EnginePorts,
    Method,
    example_search_ports,
    run_benchmark,
    train_scorer,
)
from thoughtsearch.mcts import (
    SearchPorts,
    Termination,
    backpropagate,
    expand,
    run_search,
    select,
    uct_value,
)
from thoughtsearch.metrics import exact_match, token_f1
from thoughtsearch.retrieval import (
    DocumentQueue,
    chunk_words,
    ingest_corpus,
    retrieve,
)
from thoughtsearch.scoring import (
    OfflineSample,
    score_from_logprobs,
    threshold_fit,
    train_estimator,
)
from thoughtsearch.templates import TemplateSet

SUITE_SEED = 77


def _criterion(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}" + (f"  ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# Criterion 1: UCT correctness
# ---------------------------------------------------------------------------


def test_uct_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    mpmath.mp.dps = 50
    worst = 0.0
    for _ in range(1000):
        q = float(rng.uniform(-2, 3))
        n = int(rng.integers(1, 500))
        parent_n = int(rng.integers(1, 5000))
        c = float(rng.uniform(0, 3))
        got = uct_value(q, n, parent_n, c)
        expected = mpmath.mpf(q) / n + mpmath.mpf(c) * mpmath.sqrt(
            mpmath.log(parent_n) / n
        )
        worst = max(worst, abs(got - float(expected)))
    tabulated = (
        uct_value(1.0, 1, 1, math.sqrt(2)) == 1.0
        and abs(uct_value(0.5, 2, 4, math.sqrt(2)) - 1.427410022515475) < 1e-9
        and uct_value(0.9, 3, 7, 0.0) == 0.9 / 3
    )
    elapsed = time.perf_counter() - start
    _criterion(
        "UCT correctness (1000 tuples vs high-precision, <1s)",
        worst < 1e-9 and tabulated and elapsed < 1.0,
        f"worst_err={worst:.2e} elapsed={elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# Criteria 2-3: selection / backpropagation oracles on random DAGs
# ---------------------------------------------------------------------------


def _random_dag(rng, max_nodes=20):
    graph = new_process("q")
    for _ in range(int(rng.integers(1, max_nodes))):
        if rng.random() < 0.2:
            graph.add_document("chunk")
            continue
        pool = sorted(graph.nodes)
        first, second = int(rng.choice(pool)), int(rng.choice(pool))
        child = graph.apply_transition(Action(first, second), "t")
        for parent in dict.fromkeys((first, second)):
            graph.stats[parent].children.append(child)
    for node_id, node in graph.nodes.items():
        if node.kind == NodeKind.DOCUMENT:
            continue
        graph.stats[node_id].visits = int(rng.integers(1, 30))
        graph.stats[node_id].cumulative_score = float(rng.uniform(0, 3))
    return graph


def test_selection_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(2)
    c = math.sqrt(2)

    def oracle(graph):
        node = 0
        while graph.stats[node].children:
            parent_visits = graph.stats[node].visits
            scored = {
                ch: graph.stats[ch].cumulative_score / graph.stats[ch].visits
                + c * math.sqrt(math.log(parent_visits) / graph.stats[ch].visits)
                for ch in graph.stats[node].children
            }
            node = max(sorted(scored), key=lambda ch: (scored[ch], -ch))
        return node

    agree = all(select(_g, c) == oracle(_g) for _g in (_random_dag(rng) for _ in range(500)))
    elapsed = time.perf_counter() - start
    _criterion(
        "Selection oracle equivalence (500 DAGs <= 20 nodes, <5s)",
        agree and elapsed < 5.0,
        f"elapsed={elapsed:.2f}s",
    )


def test_backpropagation_dag_correctness():
    rng = np.random.default_rng(3)
    ok = True
    for _ in range(500):
        graph = _random_dag(rng)
        target = int(rng.choice(sorted(graph.nodes)))
        expected, frontier = set(), set(graph.node(target).parents)
        while frontier:
            current = frontier.pop()
            if current in expected or current == target:
                continue
            expected.add(current)
            if graph.node(current).kind == NodeKind.DOCUMENT:
                continue
            frontier.update(graph.node(current).parents)
        expected = {n for n in expected if graph.node(n).kind != NodeKind.DOCUMENT}
        before = {nid: (s.visits, s.cumulative_score) for nid, s in graph.stats.items()}
        score = float(rng.uniform(0, 1))
        backpropagate(graph, target, score)
        for nid, stats in graph.stats.items():
            v0, c0 = before[nid]
            want = (v0 + 1, c0 + score) if nid in expected else (v0, c0)
            if (stats.visits, stats.cumulative_score) != pytest.approx(want):
                ok = False
    _criterion("Backpropagation DAG correctness (500 DAGs, each ancestor once)", ok)


# ---------------------------------------------------------------------------
# Criterion 4: expansion branch frequency
# ---------------------------------------------------------------------------


def test_expansion_branch_frequency(tmp_path):
    records = [
        {"source_id": f"s{i}", "filter_key": None, "text": f"entry common doc{i}"}
        for i in range(12000)
    ]
    index = ingest_corpus(write_jsonl(tmp_path / "big.jsonl", records), chunk_size=50, dim=32)
    gen = SimulatedGenerator()
    rates = {}
    for p_doc in (0.0, 0.5, 1.0):
        rng = np.random.default_rng(4)
        config = EpisodeConfig(p_doc=p_doc)
        graph = new_process("q")
        retriever = DocumentQueue(index, batch_size=12000)
        doc_branch = 0
        for _ in range(10000):
            child = expand(graph, 0, retriever, gen, rng, config, lambda: graph.query_text)
            if any(
                graph.node(p).kind == NodeKind.DOCUMENT for p in graph.node(child).parents
            ):
                doc_branch += 1
        rates[p_doc] = doc_branch / 10000
    _criterion(
        "Expansion branch frequency (10000 draws at p_doc 0/0.5/1)",
        rates[0.0] == 0.0 and abs(rates[0.5] - 0.5) <= 0.02 and rates[1.0] == 1.0,
        f"rates={rates}",
    )


# ---------------------------------------------------------------------------
# Criterion 5: termination contract at the default episode settings
# ---------------------------------------------------------------------------


def test_termination_contract():
    episode = default_config("boolq").episode(stop_threshold=0.5)  # T=10, oracle stop 0.5
    hi = run_search(
        "q", SearchPorts(generator=SimulatedGenerator(), scorer=ConstantScorer(1.0)), episode
    )
    lo = run_search(
        "q", SearchPorts(generator=SimulatedGenerator(), scorer=ConstantScorer(0.0)), episode
    )
    _criterion(
        "Termination contract (constant scorers, T=10 defaults)",
        hi.terminated_by == Termination.THRESHOLD_REACHED
        and hi.graph.generated_count == 1
        and lo.terminated_by == Termination.BUDGET_EXHAUSTED
        and lo.graph.generated_count == 10,
        f"hi={hi.graph.generated_count} lo={lo.graph.generated_count}",
    )


# ---------------------------------------------------------------------------
# Criteria 6, 7, 12: the seed-fixed simulated benchmark
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def benchmark_env(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("bench")
    suite = simenv.build_suite(n_train=100, n_test=200, seed=SUITE_SEED)
    simenv.write_records(suite.records, tmp / "corpus.jsonl")
    index = ingest_corpus(tmp / "corpus.jsonl", chunk_size=100, dim=256)
    config = default_config("simulated")
    ports = EnginePorts(
        generator=SimulatedGenerator(),
        templates=TemplateSet.builtin("simulated"),
        index=index,
    )
    ports.scorer_model, _ = train_scorer(suite.train, ports, config)
    return suite, ports, config


def test_simulated_two_hop_benchmark(benchmark_env):
    start = time.perf_counter()
    suite, ports, config = benchmark_env
    oracle = run_benchmark(suite.test, Method.MCTS_ORACLE, ports, config)
    control = run_benchmark(suite.test, Method.RANDOM_CONTROL, ports, config)
    greedy = run_benchmark(suite.test, Method.GREEDY_ESTIMATION, ports, config)
    llm = run_benchmark(suite.test, Method.LLM_ONLY, ports, config)
    elapsed = time.perf_counter() - start
    # Frozen after calibration: oracle 0.775, control 0.395, greedy 0.685.
    ok = (
        oracle.aggregate - control.aggregate >= 0.20
        and oracle.aggregate >= 0.70
        and control.aggregate <= 0.50
        and llm.aggregate == 0.0
        and greedy.aggregate >= 0.30
        and greedy.aggregate > llm.aggregate
        and elapsed < 120.0
    )
    _criterion(
        "Simulated 2-hop benchmark (200 tasks, frozen thresholds, <2min)",
        ok,
        f"oracle={oracle.aggregate:.3f} control={control.aggregate:.3f} "
        f"greedy={greedy.aggregate:.3f} llm={llm.aggregate:.3f} elapsed={elapsed:.1f}s",
    )


def test_query_count_linearity(benchmark_env):
    suite, ports, config = benchmark_env
    ratios = []
    for t in (2, 5, 10):
        calls = nodes = 0
        for idx, example in enumerate(suite.test[:40]):
            search_ports = example_search_ports(Method.MCTS_ORACLE, example, ports, config)
            episode = EpisodeConfig(
                max_steps=t,
                stop_threshold=config.stop_thresholds["oracle"],
                p_doc=config.p_doc,
                thought_sample_size=config.thought_sample_size,
            )
            from thoughtsearch.seeding import rng_from

            outcome = run_search(example.query, search_ports, episode, rng_from(0, idx))
            calls += outcome.generator_calls
            nodes += outcome.graph.generated_count
        ratios.append(calls / nodes)
    spread = (max(ratios) - min(ratios)) / ratios[0]
    _criterion(
        "Query-count linearity (calls per thought constant within 5% over T=2,5,10)",
        spread <= 0.05,
        f"ratios={[f'{r:.3f}' for r in ratios]}",
    )


def test_determinism_replay(benchmark_env, tmp_path):
    from thoughtsearch.harness import report_to_csv
    from thoughtsearch.trace import graph_to_record, trace_text

    suite, ports, config = benchmark_env

    def run_once():
        traces = {}

        def sink(example, outcome):
            traces[example.query_id] = trace_text(graph_to_record(outcome.graph, outcome))

        report = run_benchmark(
            suite.test[:20], Method.MCTS_ORACLE, ports, config, trace_sink=sink
        )
        return report_to_csv(report), traces

    (csv_a, traces_a), (csv_b, traces_b) = run_once(), run_once()
    _criterion(
        "Determinism/replay (byte-identical reports and traces)",
        csv_a == csv_b and traces_a == traces_b,
        f"{len(traces_a)} traces compared",
    )


# ---------------------------------------------------------------------------
# Criterion 8: estimator training on the synthetic regression oracle
# ---------------------------------------------------------------------------


def test_estimator_training_synthetic():
    start = time.perf_counter()
    rng = np.random.default_rng(5)
    n, dim_each = 1500, 8
    weights = rng.normal(size=2 * dim_each)
    X = rng.normal(size=(n, 2 * dim_each))
    raw = X @ weights
    raw = 0.5 + 0.45 * raw / np.max(np.abs(raw))
    y = np.clip(raw + rng.normal(scale=0.01, size=n), 0.0, 1.0)
    data = [
        OfflineSample(emb_i=X[i, :dim_each], emb_j=X[i, dim_each:], reward=float(y[i]))
        for i in range(n)
    ]
    model = train_estimator(
        data,
        holdout_fraction=0.2,
        regressor_config={"n_rounds": 300, "max_depth": 3, "learning_rate": 0.1},
        seed=0,
    )
    order = np.random.default_rng(0).permutation(n)
    hold = order[: max(1, int(round(n * 0.2)))]
    preds = model.predict_batch(X[hold])
    pearson = float(np.corrcoef(preds, y[hold])[0, 1])
    mse = model.training_report["holdout_mse"]

    separable_scores = [0.05, 0.1, 0.2, 0.8, 0.9, 0.95]
    separable_labels = [0, 0, 0, 1, 1, 1]
    fitted = threshold_fit(separable_scores, separable_labels)
    precision_one = all(
        (s >= fitted) == bool(l) for s, l in zip(separable_scores, separable_labels)
    )
    elapsed = time.perf_counter() - start
    _criterion(
        "Estimator training (holdout MSE <= 0.01, Pearson >= 0.9, threshold precision 1.0, <30s)",
        mse <= 0.01 and pearson >= 0.9 and precision_one and elapsed < 30.0,
        f"mse={mse:.5f} pearson={pearson:.3f} threshold={fitted} elapsed={elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# Criterion 9: probability-ratio score algebra
# ---------------------------------------------------------------------------


def test_self_critic_algebra():
    rng = np.random.default_rng(6)
    ok = True
    for _ in range(1000):
        lp1 = float(rng.uniform(-20, 0))
        lp0 = float(rng.uniform(-20, 0))
        shift = float(rng.uniform(-10, 10))
        base = score_from_logprobs(lp1, lp0)
        if abs(score_from_logprobs(lp1 + shift, lp0 + shift) - base) > 1e-9:
            ok = False
        if abs(score_from_logprobs(lp1, lp1) - 0.5) > 1e-12:
            ok = False
        if abs(score_from_logprobs(lp1, lp1 - 60.0) - 1.0) > 1e-9:  # p0 -> 0 limit
            ok = False
    _criterion("Probability-ratio algebra (shift invariance, symmetry, p0->0 limit)", ok)


# ---------------------------------------------------------------------------
# Criterion 10: metric reference suite
# ---------------------------------------------------------------------------

_METRIC_CASES = [
    # exact_match
    (lambda: exact_match("1 mg", ["1 mg"]), 1),
    (lambda: exact_match("10 mg", ["20 mg"]), 0),
    (lambda: exact_match("The 30 mg", ["30 mg"]), 1),
    (lambda: exact_match("An Apple!", ["apple"]), 1),
    (lambda: exact_match("apples", ["apple"]), 0),
    (lambda: exact_match("", [""]), 1),
    (lambda: exact_match("B", ["a", "b"]), 1),
    # token_f1
    (lambda: token_f1("same words here", "same words here"), 1.0),
    (lambda: token_f1("left only", "right half"), 0.0),
    (lambda: token_f1("x y", "y z"), 0.5),
    (lambda: token_f1("", ""), 1.0),
    (lambda: token_f1("", "text"), 0.0),
    (lambda: token_f1("b b", "b"), 2 * (1 / 2) * 1 / (1 / 2 + 1)),
    (lambda: token_f1("p q r s", "p q"), 2 * (1 / 2) * 1 / (1 / 2 + 1)),
]


def test_metric_reference_suite():
    hand_ok = all(abs(fn() - expected) < 1e-12 for fn, expected in _METRIC_CASES)
    _criterion(
        "Metric reference suite (14 hand cases)",
        hand_ok,
        f"hand_cases={len(_METRIC_CASES)}",
    )


# ---------------------------------------------------------------------------
# Criterion 11: retrieval oracle equivalence
# ---------------------------------------------------------------------------


def test_retrieval_oracle_equivalence(tmp_path):
    rng = np.random.default_rng(9)
    vocab = [f"term{i}" for i in range(50)]
    records = [
        {
            "source_id": f"s{i}",
            "filter_key": None,
            "text": " ".join(vocab[j] for j in rng.integers(0, 50, size=10)),
        }
        for i in range(100)
    ]
    index = ingest_corpus(write_jsonl(tmp_path / "c.jsonl", records), chunk_size=50, dim=128)
    rank_ok = True
    for _ in range(100):
        query = " ".join(vocab[j] for j in rng.integers(0, 50, size=5))
        k = int(rng.integers(1, 12))
        got = [d.doc_id for d in retrieve(index, query, k=k)]
        qv = index.embedder.embed(query)
        sims = [
            (float(np.dot(index.embeddings[i], qv)), d.doc_id)
            for i, d in enumerate(index.documents)
        ]
        want = [doc for s, doc in sorted(sims, key=lambda p: (-p[0], p[1]))][:k]
        if got != want:
            rank_ok = False

    text = "  one\ttwo \n three four  five " * 123
    reassembly_ok = " ".join(chunk_words(text, 7)).split() == text.split()

    queue_records = [
        {"source_id": f"q{i}", "filter_key": None, "text": f"shared topic doc{i}"}
        for i in range(5)
    ]
    qindex = ingest_corpus(write_jsonl(tmp_path / "q.jsonl", queue_records), chunk_size=50, dim=64)
    queue = DocumentQueue(qindex, batch_size=2)
    refills, seen = [], []
    provider_calls = [0]

    def provider():
        provider_calls[0] += 1
        return "shared topic"

    for call in range(1, 6):
        before = provider_calls[0]
        doc = queue.next(provider)
        if provider_calls[0] > before:
            refills.append(call)
        seen.append(doc.doc_id)
    queue_ok = refills == [1, 3, 5] and len(set(seen)) == 5
    _criterion(
        "Retrieval oracle equivalence (brute-force ranking, reassembly, queue pattern)",
        rank_ok and reassembly_ok and queue_ok,
        f"refills={refills}",
    )
