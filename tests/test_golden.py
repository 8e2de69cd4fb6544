"""Golden digests: rows and trace bytes of every planning method and of the
random-pairing control on a small seeded simulated suite, and the bytes of
the suite's index and estimator model files, pinned to the values the
engine has produced since these planners' behaviour was last changed on
purpose. A speed-up or refactor that moves any digest changed behaviour;
update the pins only for a change that says so."""

from __future__ import annotations

import hashlib

import pytest

from thoughtsearch import simenv
from thoughtsearch.config import default_config
from thoughtsearch.generate import SimulatedGenerator
from thoughtsearch.harness import (
    EnginePorts,
    Method,
    run_benchmark,
    scoring_embedder,
    train_scorer,
)
from thoughtsearch.retrieval import ingest_corpus, save_index
from thoughtsearch.scoring import save_model
from thoughtsearch.templates import TemplateSet
from thoughtsearch.trace import graph_to_record, trace_text

GOLDEN = {  # id: (method, rows sha256, trace bytes sha256)
    "mcts_self_critic": (
        Method.MCTS_SELF_CRITIC,
        "d8fefd22832cb33e334e15960621df0eab2578320d85b2d2336768d6687e429a",
        "c17fa760a2e9ba5061553ecb240228ecc1a666af5a1dab22b72578cba857ad1e",
    ),
    "mcts_oracle": (
        Method.MCTS_ORACLE,
        "d8fefd22832cb33e334e15960621df0eab2578320d85b2d2336768d6687e429a",
        "c829c139ad3a60c124f0666a920444c0127ca2d01f4be2463be4c2468969d236",
    ),
    "greedy_estimation": (
        Method.GREEDY_ESTIMATION,
        "0c6ef9a3917502bf5796603c65aba35b53c3d9ebebbe58e4618a849f1ebd0458",
        "37112a7f430f11f6431efb8bd093d56210c4f72cc1549e6c183a26ab3fd56178",
    ),
    "mcts_estimation": (
        Method.MCTS_ESTIMATION,
        "9c153a00b56453395753f4c1460ba7eddb5f0e45dceefb2123280e632c80deaf",
        "70bdbbc814a7c332e66ebc4eee1906474bbf1e81e86f85aba5cbd7a8dbd38233",
    ),
    "mcts_oracle_no_ir": (
        Method.MCTS_ORACLE_NO_IR,
        "aa5c88d5c70836be0fd60eddb48e2d5246511a3bc80f1dc22b94b7311057fdd6",
        "d4f71bac8ce41585485c5e25c666e81986104c0f5348f4c0bbf8594ad69a7fa7",
    ),
    "random_control": (
        Method.RANDOM_CONTROL,
        "7c0d3f4d523376dbc5be975168cdab80f35dbb027087f7730e4bdcfd321565da",
        "2bda482aeac205ea40ee2c0bb7a7da19d0911d1f81afb9d91eaf7c90e73e60dc",
    ),
}


# sha256 of the fixture's index file (save_index) and model file (save_model).
INDEX_FILE_SHA256 = "c844447c257a924fce661032866dcf9b73a4466f1cae3c278d4cc457ec5fa956"
MODEL_FILE_SHA256 = "05eb63def41520205ae0b5b001e460ef28fbfb907971c98d63f982f1cf481b1e"


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
    ports.scorer_model, _ = train_scorer(suite.train, ports, config)
    ports.scoring_embedder = scoring_embedder(config)
    return suite.test, ports, config


@pytest.mark.parametrize("case", list(GOLDEN))
def test_rows_and_trace_bytes_match_golden_digests(engine, case):
    examples, ports, config = engine
    method, *golden = GOLDEN[case]
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
    assert [rows.hexdigest(), traces.hexdigest()] == golden


def test_index_and_model_files_match_golden_digests(engine, tmp_path):
    _, ports, _ = engine
    save_index(ports.index, tmp_path / "index.bin")
    save_model(ports.scorer_model, tmp_path / "model.json")
    digests = [
        hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("index.bin", "model.json")
    ]
    assert digests == [INDEX_FILE_SHA256, MODEL_FILE_SHA256]
