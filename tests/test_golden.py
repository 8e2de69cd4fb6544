"""Golden digests: rows and trace bytes of every planning method and of the
random-pairing control on a small seeded simulated suite, and the bytes of
the suite's corpus, examples, dataset, index (at two dimensions) and
estimator model files, pinned to
the values the engine has produced since these planners' behaviour was
last changed on purpose. A speed-up or refactor that moves any digest changed behaviour;
update the pins only for a change that says so. Damaged copies of the
fixture's model file and of one of its traces must fail as SchemaError."""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thoughtsearch import simenv
from thoughtsearch.config import config_hash, default_config
from thoughtsearch.errors import SchemaError
from thoughtsearch.generate import SimulatedGenerator
from thoughtsearch.harness import (
    EnginePorts,
    Method,
    run_benchmark,
    train_scorer,
)
from thoughtsearch.retrieval import ingest_corpus, save_index
from thoughtsearch.scoring import load_model, save_dataset, save_model
from thoughtsearch.templates import TemplateSet
from thoughtsearch.trace import graph_to_record, load_trace, trace_text

GOLDEN = {  # id: (method, rows sha256, trace bytes sha256)
    "mcts_self_critic": (
        Method.MCTS_SELF_CRITIC,
        "d8fefd22832cb33e334e15960621df0eab2578320d85b2d2336768d6687e429a",
        "300ebf372842cb6bc6c72f147c3de5b648b6c435dffa70efeec2359591067666",
    ),
    "mcts_oracle": (
        Method.MCTS_ORACLE,
        "d8fefd22832cb33e334e15960621df0eab2578320d85b2d2336768d6687e429a",
        "866f37723a956c34701e85e847542b2b42dfcdc3c065de1aa8d62aec7135f9af",
    ),
    "greedy_estimation": (
        Method.GREEDY_ESTIMATION,
        "0c6ef9a3917502bf5796603c65aba35b53c3d9ebebbe58e4618a849f1ebd0458",
        "ce1badfbabbf1115e22a4eccdd392e78286dec564f7fb918b1d32cb1dc9b78ac",
    ),
    "mcts_estimation": (
        Method.MCTS_ESTIMATION,
        "9c153a00b56453395753f4c1460ba7eddb5f0e45dceefb2123280e632c80deaf",
        "100e94521ff6ceec2f45d836c0230bb9fc9ad2b9b6b9ddee8ce1cab835fa4cc5",
    ),
    "mcts_oracle_no_ir": (
        Method.MCTS_ORACLE_NO_IR,
        "aa5c88d5c70836be0fd60eddb48e2d5246511a3bc80f1dc22b94b7311057fdd6",
        "6bea43802e42a321b54e86818c9c542975b6da5b17d3b7bfa7db5b291ae4970d",
    ),
    "random_control": (
        Method.RANDOM_CONTROL,
        "7c0d3f4d523376dbc5be975168cdab80f35dbb027087f7730e4bdcfd321565da",
        "3025e41b61bc021b57370af17865cf07d221ec3db3b31993d48812e5a046b781",
    ),
}


# sha256 of the fixture's index file (save_index) and model file (save_model).
INDEX_FILE_SHA256 = "a88738ead2bcafdfa7d08e1ee628755221d5c74c128f5b9ac1fea50db23e0240"
MODEL_FILE_SHA256 = "05eb63def41520205ae0b5b001e460ef28fbfb907971c98d63f982f1cf481b1e"
# sha256 of the index file of the fixture's corpus at dim 7: most of its
# tokens share a bucket, so each row's sums depend on the order of the adds.
DIM7_INDEX_FILE_SHA256 = "56797193edfa656222a43800217164478e39dda67cfcce187cc2fb86ea67633f"
# sha256 of the fixture's corpus file (write_records), examples file
# (write_examples of train and test) and dataset file (save_dataset of the
# samples train_scorer collects).
WRITTEN_FILE_SHA256 = {
    "corpus.jsonl": "c7f1be9d8d0c9e99438de42e64b4b8962ddc95a53a703ca7979ad270cfd62dd2",
    "examples.jsonl": "b29f4f258dae70fd3920a8f5fe334e8478cc26f3286520f67d939dd53536030b",
    "dataset.jsonl": "53451423f8e9145182d39180dd023abc29eadd3cf10563bdf07353a531a248e3",
}
# config_hash of each task mode's resolved defaults.
DEFAULT_CONFIG_HASH = {"boolq": "4b4ca4f691a7", "emrqa": "f470d36ab9dd", "simulated": "b81e0adb9799"}


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
    ports.scorer_model, samples = train_scorer(suite.train, ports, config)
    simenv.write_examples(suite.train + suite.test, tmp / "examples.jsonl")
    save_dataset(samples, tmp / "dataset.jsonl")
    return suite.test, ports, config, tmp


@pytest.mark.parametrize("case", list(GOLDEN))
def test_rows_and_trace_bytes_match_golden_digests(engine, case):
    examples, ports, config, _ = engine
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
    _, ports, _, _ = engine
    save_index(ports.index, tmp_path / "index.bin")
    save_model(ports.scorer_model, tmp_path / "model.json")
    digests = [
        hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("index.bin", "model.json")
    ]
    assert digests == [INDEX_FILE_SHA256, MODEL_FILE_SHA256]


def test_corpus_examples_and_dataset_files_match_golden_digests(engine):
    *_, tmp = engine
    digests = {name: hashlib.sha256((tmp / name).read_bytes()).hexdigest() for name in WRITTEN_FILE_SHA256}
    assert digests == WRITTEN_FILE_SHA256


def test_mode_defaults_match_golden_config_hashes():
    assert {mode: config_hash(default_config(mode)) for mode in DEFAULT_CONFIG_HASH} == DEFAULT_CONFIG_HASH


def test_index_file_with_bucket_collisions_matches_golden_digest(tmp_path):
    suite = simenv.build_suite(n_train=20, n_test=20, seed=5)
    simenv.write_records(suite.records, tmp_path / "corpus.jsonl")
    save_index(ingest_corpus(tmp_path / "corpus.jsonl", chunk_size=100, dim=7), tmp_path / "index.bin")
    assert hashlib.sha256((tmp_path / "index.bin").read_bytes()).hexdigest() == DIM7_INDEX_FILE_SHA256


@pytest.fixture(scope="module")
def saved_files(engine, tmp_path_factory):
    """The fixture's model file and the trace of one of its searches, as
    bytes, each with its loader."""
    examples, ports, config, _ = engine
    model = tmp_path_factory.mktemp("saved") / "model.json"
    save_model(ports.scorer_model, model)
    traces = []
    sink = lambda example, outcome: traces.append(trace_text(graph_to_record(outcome.graph, outcome)))
    run_benchmark(examples[:1], Method.MCTS_SELF_CRITIC, ports, config, trace_sink=sink)
    return {
        "model": (model.read_bytes(), load_model),
        "trace": (traces[0].encode("utf-8"), load_trace),
    }


@pytest.mark.parametrize("kind", ["model", "trace"])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_damaged_model_and_trace_files_raise_only_schema_error(saved_files, tmp_path_factory, kind, data):
    """A file cut short anywhere, or with a few bytes flipped, either loads
    or raises SchemaError; nothing else escapes its loader."""
    blob, load = saved_files[kind]
    blob = bytearray(blob)
    if data.draw(st.booleans(), label="truncate"):
        blob = blob[: data.draw(st.integers(0, len(blob) - 1), label="cut at")]
    else:
        for at in data.draw(st.lists(st.integers(0, len(blob) - 1), min_size=1, max_size=4), label="flip"):
            blob[at] ^= data.draw(st.integers(1, 255), label="mask")
    path = tmp_path_factory.mktemp("fuzz") / f"{kind}.json"
    path.write_bytes(bytes(blob))
    try:
        load(path)
    except SchemaError:
        pass
