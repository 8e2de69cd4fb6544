"""Golden digests: rows and trace bytes of three planners on a small seeded
simulated suite, pinned to the values the engine has produced since these
planners' behaviour was last changed on purpose. A speed-up that moves
either digest changed behaviour; update the pins only for a change that
says so."""

from __future__ import annotations

import hashlib

import pytest

from thoughtsearch import simenv
from thoughtsearch.config import default_config
from thoughtsearch.generate import SimulatedGenerator
from thoughtsearch.harness import EnginePorts, Method, example_search_ports, run_benchmark
from thoughtsearch.retrieval import HashedEmbedder, ingest_corpus
from thoughtsearch.scoring import collect_offline_dataset, train_estimator
from thoughtsearch.templates import TemplateSet
from thoughtsearch.trace import graph_to_record, trace_text

GOLDEN = {  # method: (rows sha256, trace bytes sha256)
    Method.MCTS_SELF_CRITIC: (
        "d8fefd22832cb33e334e15960621df0eab2578320d85b2d2336768d6687e429a",
        "c17fa760a2e9ba5061553ecb240228ecc1a666af5a1dab22b72578cba857ad1e",
    ),
    Method.MCTS_ORACLE: (
        "d8fefd22832cb33e334e15960621df0eab2578320d85b2d2336768d6687e429a",
        "c829c139ad3a60c124f0666a920444c0127ca2d01f4be2463be4c2468969d236",
    ),
    Method.GREEDY_ESTIMATION: (
        "0c6ef9a3917502bf5796603c65aba35b53c3d9ebebbe58e4618a849f1ebd0458",
        "37112a7f430f11f6431efb8bd093d56210c4f72cc1549e6c183a26ab3fd56178",
    ),
}


@pytest.fixture(scope="module")
def engine(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("golden")
    suite = simenv.build_suite(n_train=20, n_test=20, seed=5)
    simenv.write_records(suite.records, tmp / "corpus.jsonl")
    config = default_config("simulated")
    ports = EnginePorts(
        generator=SimulatedGenerator(),
        templates=TemplateSet.builtin("simulated"),
        index=ingest_corpus(tmp / "corpus.jsonl", chunk_size=100, dim=256),
    )
    embedder = HashedEmbedder(dim=config.scoring.embed_dim)
    samples = collect_offline_dataset(
        suite.train,
        lambda ex, rng: example_search_ports(Method.MCTS_ORACLE, ex, ports, config),
        config.episode(stop_threshold=config.stop_thresholds["oracle"]),
        embedder,
        seed=config.seed,
    )
    ports.scorer_model = train_estimator(
        samples,
        holdout_fraction=0.2,
        regressor_config=config.scoring.regressor_config(),
        embedder_id=embedder.embedder_id,
        seed=config.seed,
    )
    ports.scoring_embedder = embedder
    return suite.test, ports, config


@pytest.mark.parametrize("method", list(GOLDEN), ids=lambda m: m.value)
def test_rows_and_trace_bytes_match_golden_digests(engine, method):
    examples, ports, config = engine
    traces = hashlib.sha256()

    def sink(example, outcome):
        text = trace_text(graph_to_record(outcome.graph, outcome))
        traces.update(f"{example.query_id}\n{text}".encode("utf-8"))

    report = run_benchmark(examples, method, ports, config, trace_sink=sink)
    rows = hashlib.sha256()
    for r in report.per_example:
        rows.update(
            f"{r.query_id}|{r.correct}|{r.thought_count}|{r.generator_calls}|{r.scorer_calls}|"
            f"{r.terminated_by}|{r.answer}|{r.error}\n".encode("utf-8")
        )
    assert (rows.hexdigest(), traces.hexdigest()) == GOLDEN[method]
