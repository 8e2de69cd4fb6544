"""Benchmark harness: method dispatch, report audit, loaders, determinism."""

from __future__ import annotations

import csv
import dataclasses
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thoughtsearch import simenv
from thoughtsearch.config import SCORER_KINDS, default_config
from thoughtsearch.errors import ConfigError, EngineError, GenerationError, SchemaError
from thoughtsearch.generate import SimulatedGenerator
from thoughtsearch.harness import (
    PLANS,
    BenchmarkReport,
    EnginePorts,
    ExampleResult,
    Method,
    QAExample,
    Task,
    accuracy_vs_size_curve,
    extract_answer,
    load_examples,
    make_scorer,
    oracle_metric_for,
    report_to_csv,
    run_benchmark,
    run_example,
    train_scorer,
)
from thoughtsearch.retrieval import ingest_corpus
from thoughtsearch.seeding import rng_from
from thoughtsearch.templates import TemplateSet
from tests.conftest import write_jsonl


@pytest.fixture(scope="module")
def sim(tmp_path_factory):
    """Small seed-fixed suite shared by the harness tests."""
    tmp = tmp_path_factory.mktemp("sim")
    suite = simenv.build_suite(n_train=30, n_test=30, seed=77)
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


def test_llm_only_scores_zero_on_two_hop(sim):
    suite, ports, config = sim
    report = run_benchmark(suite.test, Method.LLM_ONLY, ports, config)
    assert report.aggregate == 0.0
    assert all(r.generator_calls == r.backend_calls == 1 for r in report.per_example)


def test_report_audit_aggregate_matches_rows(sim):
    suite, ports, config = sim
    report = run_benchmark(suite.test, Method.MCTS_ORACLE, ports, config)
    assert report.aggregate == sum(r.correct for r in report.per_example) / len(report.per_example)
    assert sorted(r.query_id for r in report.per_example) == [
        e.query_id for e in sorted(suite.test, key=lambda e: e.query_id)
    ]


def test_baseline_ordering_on_simulated_tasks(sim):
    suite, ports, config = sim
    oracle = run_benchmark(suite.test, Method.MCTS_ORACLE, ports, config)
    greedy = run_benchmark(suite.test, Method.GREEDY_ESTIMATION, ports, config)
    llm = run_benchmark(suite.test, Method.LLM_ONLY, ports, config)
    assert oracle.aggregate >= greedy.aggregate >= llm.aggregate
    assert llm.aggregate == 0.0


def test_oracle_beats_random_control(sim):
    suite, ports, config = sim
    oracle = run_benchmark(suite.test, Method.MCTS_ORACLE, ports, config)
    control = run_benchmark(suite.test, Method.RANDOM_CONTROL, ports, config)
    assert oracle.aggregate > control.aggregate


def test_no_ir_ablation_has_no_documents(sim):
    suite, ports, config = sim
    report = run_benchmark(suite.test[:5], Method.MCTS_ORACLE_NO_IR, ports, config)
    # Facts only exist in documents, so the ablation cannot answer.
    assert report.aggregate == 0.0
    assert all(r.thought_count == config.max_steps for r in report.per_example)


def test_rag_answers_one_hop_when_doc_suffices(tmp_path):
    records = [
        {"source_id": "s0", "filter_key": "t", "text": "entry k7 has:k7 fact:k7=v42 filler"},
        {"source_id": "s1", "filter_key": "t", "text": "entry other filler words here"},
    ]
    index = ingest_corpus(write_jsonl(tmp_path / "c.jsonl", records), chunk_size=100, dim=128)
    config = default_config("simulated")
    ports = EnginePorts(
        generator=SimulatedGenerator(),
        templates=TemplateSet.builtin("simulated"),
        index=index,
    )
    example = QAExample(
        query_id="one-hop",
        query="need:k7 what figure is recorded for k7",
        gold_answers=["v42"],
        task=Task.SIMULATED_FACT,
        filter_key="t",
    )
    report = run_benchmark([example], Method.RAG, ports, config)
    assert report.aggregate == 1.0


def test_per_example_failure_is_recorded_not_raised(sim):
    """A search that fails keeps the thoughts and calls it spent on its row."""
    suite, ports, config = sim

    class ExplodingScorer:
        """Scores 0 three times, then fails on its fourth call."""

        calls = 0

        def score(self, graph, node_id, generator):
            self.calls += 1
            if self.calls == 4:
                raise EngineError("scorer down")
            return 0.0

    import thoughtsearch.harness as harness_mod

    original = harness_mod.make_scorer

    def broken_make_scorer(method, example, ports_, config_):
        if example.query_id == suite.test[0].query_id:
            return ExplodingScorer()
        return original(method, example, ports_, config_)

    harness_mod.make_scorer = broken_make_scorer
    try:
        report = run_benchmark(suite.test[:3], Method.MCTS_ORACLE, ports, config)
    finally:
        harness_mod.make_scorer = original
    failed = [r for r in report.per_example if r.error]
    assert len(failed) == 1
    assert failed[0].correct == 0
    assert len(report.per_example) == 3
    assert failed[0].error == "search failed after 4 thoughts: scorer down"
    # Four thoughts, one generator call each; the fourth score raised.
    row = failed[0]
    assert (row.thought_count, row.generator_calls, row.backend_calls, row.scorer_calls) == (4, 4, 4, 3)


def test_a_failed_row_names_the_class_of_what_failed(sim, monkeypatch):
    """A failed search's row names the class of the error that ended the
    search, not SearchError; any other failure names its own class, and a
    row that did not fail names none."""
    suite, ports, config = sim

    class DownScorer:
        def score(self, graph, node_id, generator):
            raise GenerationError("scorer down")

    import thoughtsearch.harness as harness_mod

    monkeypatch.setattr(harness_mod, "make_scorer", lambda *args: DownScorer())
    searched = run_benchmark(suite.test[:2], Method.MCTS_ORACLE, ports, config)
    baseline = run_benchmark(suite.test[:2], Method.LLM_ONLY, ports, config)
    no_index = run_benchmark(suite.test[:2], Method.RAG, dataclasses.replace(ports, index=None), config)
    assert [r.error_class for r in searched.per_example] == ["GenerationError"] * 2
    assert [r.thought_count for r in searched.per_example] == [1, 1]
    assert [(r.error, r.error_class) for r in baseline.per_example] == [("", "")] * 2
    assert [r.error_class for r in no_index.per_example] == ["ConfigError"] * 2


@pytest.mark.parametrize("method", [method for method, plan in PLANS.items() if plan.retrieves])
def test_a_retrieving_method_without_an_index_fails_closed(sim, method):
    """A method that retrieves, run over ports with no index, fails every
    example naming the method: it neither answers closed-book nor searches
    without documents."""
    suite, ports, config = sim
    no_index = dataclasses.replace(ports, index=None)
    want = f"method {method.value} requires a corpus index"
    with pytest.raises(ConfigError, match=want):
        run_example(method, suite.test[0], no_index, config, rng_from(config.seed, 0))
    report = run_benchmark(suite.test[:2], method, no_index, config)
    assert [(r.error, r.thought_count, r.generator_calls) for r in report.per_example] == [(want, 0, 0)] * 2


class _Recorder:
    """Deterministic simulated port that records every call reaching it."""

    deterministic = True

    def __init__(self):
        self.inner, self.seen = SimulatedGenerator(), []

    def __getattr__(self, name):
        method = getattr(self.inner, name)

        def call(*args):
            self.seen.append((name, repr(args)))
            return method(*args)

        return call


@pytest.mark.parametrize(
    "method", [Method.MCTS_ORACLE, Method.MCTS_ORACLE_NO_IR, Method.RANDOM_CONTROL]
)
def test_oracle_example_sends_each_call_once(sim, method):
    """The oracle scorer already asked for the best thought's answer, so the
    final answer comes from the example's memo: one ledger per example
    sends no call to the port twice and counts each one once."""
    suite, ports, config = sim
    for example in suite.test[:3]:
        recorder = _Recorder()
        report = run_benchmark([example], method, dataclasses.replace(ports, generator=recorder), config)
        row = report.per_example[0]
        assert not row.error
        assert len(recorder.seen) == len(set(recorder.seen)) == row.backend_calls
        assert row.backend_calls < row.generator_calls


def test_curve_rows_and_call_linearity(sim):
    suite, ports, config = sim
    reports = []
    for t in (2, 5, 10):
        cfg = default_config("simulated")
        cfg.max_steps = t
        reports.append(run_benchmark(suite.test[:10], Method.MCTS_ORACLE, ports, cfg))
    rows = accuracy_vs_size_curve(reports)
    assert [row["max_thoughts"] for row in rows] == [2, 5, 10]
    assert all(0.0 <= row["accuracy"] <= 1.0 for row in rows)
    # More budget never means fewer generator calls on average.
    calls = [row["mean_generator_calls"] for row in rows]
    assert calls[0] <= calls[1] <= calls[2]


def test_workers_do_not_change_results(sim):
    suite, ports, config = sim
    serial = run_benchmark(suite.test[:8], Method.MCTS_ORACLE, ports, config)
    cfg = default_config("simulated")
    cfg.workers = 4
    parallel = run_benchmark(suite.test[:8], Method.MCTS_ORACLE, ports, cfg)
    assert report_to_csv(serial) == report_to_csv(parallel)


def test_rerun_is_byte_identical(sim):
    suite, ports, config = sim
    a = report_to_csv(run_benchmark(suite.test[:8], Method.MCTS_ESTIMATION, ports, config))
    b = report_to_csv(run_benchmark(suite.test[:8], Method.MCTS_ESTIMATION, ports, config))
    assert a == b


def test_report_rows_are_one_csv_line_each():
    """A comma or any line break in an answer or error stays inside its field."""
    rows = [
        ExampleResult("q1", 0, 2, 3, 2, answer="v1\rv2,v3", error="a\r\nb"),
        ExampleResult("q2", 1, 1, 2, 1, answer="v\n4", terminated_by="threshold_reached"),
    ]
    text = report_to_csv(BenchmarkReport(Method.MCTS_ORACLE, rows, 0.5, max_steps=10))
    parsed = list(csv.reader(text.splitlines()))
    assert [len(row) for row in parsed] == [8, 8, 8]
    assert parsed[1] == ["q1", "0", "2", "3", "2", "", "v1 v2;v3", "a  b"]
    assert parsed[2][6] == "v 4"


_PLANNER_METHODS = [method for method, plan in PLANS.items() if plan.planner is not None]


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_hops=st.integers(1, 3),
    n_test=st.integers(1, 3),
    short=st.integers(1, 5),
    extra=st.integers(1, 6),
)
def test_a_smaller_budget_runs_the_first_steps_of_a_larger_one(sim, seed, n_hops, n_test, short, extra):
    """No step reads the thought budget, so the search is anytime: for every
    planner method over a drawn suite, a budget-T search holds at most T
    thoughts and is the first T steps of a budget-T' search (T < T'), with
    the same history and nodes; one that stops at its threshold first is the
    same search, row for row."""
    _, ports, config = sim
    suite = simenv.build_suite(n_train=0, n_test=n_test, seed=seed, n_hops=n_hops)
    with tempfile.TemporaryDirectory() as tmp:
        simenv.write_records(suite.records, Path(tmp) / "corpus.jsonl")
        ports = dataclasses.replace(ports, index=ingest_corpus(Path(tmp) / "corpus.jsonl", chunk_size=100, dim=256))
    for method in _PLANNER_METHODS:
        runs = []
        for budget in (short, short + extra):
            graphs = {}
            report = run_benchmark(
                suite.test,
                method,
                ports,
                dataclasses.replace(config, max_steps=budget),
                trace_sink=lambda example, outcome: graphs.__setitem__(example.query_id, outcome.graph),
            )
            for row in report.per_example:
                assert not row.error and row.thought_count <= budget, (method, row)
            runs.append((report.per_example, graphs))
        (short_rows, short_graphs), (long_rows, long_graphs) = runs
        for short_row, long_row in zip(short_rows, long_rows):
            first, whole = short_graphs[short_row.query_id], long_graphs[long_row.query_id]
            assert first.history == whole.history[: len(first.history)], method
            assert list(first.nodes.values()) == list(whole.nodes.values())[: len(first.nodes)], method
            if short_row.thought_count < short:
                assert short_row == long_row, method


def test_every_method_has_one_plan():
    """PLANS declares every method; a method plans iff it has a scorer kind,
    and every scorer kind has a stop threshold."""
    assert set(PLANS) == set(Method)
    for plan in PLANS.values():
        assert plan.planner in (None, "mcts", "greedy", "random")
        assert (plan.planner is None) == (plan.scorer is None)
        assert plan.scorer is None or plan.scorer in SCORER_KINDS


def test_extract_answer_per_task():
    assert extract_answer(Task.BOOLEAN, "I think 1 is right") == "1"
    assert extract_answer(Task.BOOLEAN, "no digits") == ""
    assert extract_answer(Task.EXTRACTIVE_MG, "Take 12.5 mg") == "12.5 mg"
    assert extract_answer(Task.SIMULATED_FACT, "v1 v2") == "v1 v2"


def test_load_examples_loaders(tmp_path):
    records = [
        {"id": "a", "query": "q1", "answers": ["true"], "task": "boolean", "split": "train"},
        {"id": "b", "query": "q2", "answers": "no", "task": "boolean"},
        {"id": "c", "query": "q3", "answers": ["30 mg"], "task": "extractive_mg"},
        {"id": "d", "query": "q4", "answers": ["thirty"], "task": "extractive_mg"},
        {"id": "e", "query": "q5", "answers": ["v1"], "task": "simulated_fact", "filter_key": "t5"},
        {"id": 12, "query": "q6", "answers": [True], "task": "boolean"},
        {"id": -3, "query": "q7", "answers": [30, 2.5]},
    ]
    path = write_jsonl(tmp_path / "examples.jsonl", records)
    examples = load_examples(path)
    assert [e.query_id for e in examples] == ["a", "b", "c", "d", "e", "12", "-3"]
    assert examples[0].gold_answers == ["1"]
    assert examples[1].gold_answers == ["0"]
    assert examples[5].gold_answers == ["1"]
    assert examples[6].gold_answers == ["30", "2.5"]
    assert load_examples(path, split="train")[0].query_id == "a"
    assert load_examples(path, limit=2) == examples[:2]


def test_example_query_may_hold_a_line_separator(tmp_path):
    """JSON allows U+2028 raw inside a string: the examples file splits into
    lines at newlines only."""
    path = tmp_path / "examples.jsonl"
    path.write_text(json.dumps({"query": "q\u2028r", "answers": ["a"]}, ensure_ascii=False) + "\n", encoding="utf-8")
    assert [example.query for example in load_examples(path)] == ["q\u2028r"]


@pytest.mark.parametrize(
    "record, field",
    [
        ({"query": "q"}, "'answers'"),
        ({"query": "q", "answers": {"a": 1}}, "'answers'"),
        ({"query": 7, "answers": ["v"]}, "'query'"),
        ({"query": "q", "answers": ["v"], "filter_key": ["k"]}, "'filter_key'"),
        *[({"id": bad, "query": "q", "answers": ["v"]}, "'id'") for bad in ["", ".", "..", "a/b", "a\\b", "a\0b"]],
        ({"query": "q", "answers": ["v"], "split": ["train"]}, "'split'"),
        ({"query": "q", "answers": [None, {"a": 1}], "id": [1, 2]}, "'answers[0]'"),
        ({"query": "q", "answers": [float("inf")]}, "'answers[0]'"),
        ({"query": "q", "answers": ["v", [1]]}, "'answers[1]'"),
        *[({"id": bad, "query": "q", "answers": ["v"]}, "'id'") for bad in [True, 1e308, [1, 2], None]],
    ],
)
def test_load_examples_names_line_and_field(tmp_path, record, field):
    path = write_jsonl(tmp_path / "examples.jsonl", [{"query": "fine", "answers": ["v"]}, record])
    if field == "'id'" and isinstance(record["id"], str):  # not a usable file name
        message = rf"examples.jsonl:2: field {field}"
    else:  # the shared JSON wording: missing, or not of the field's kind
        name = re.escape(field[1:-1])
        message = rf"examples.jsonl:2: example( missing field {field}|\.{name} must be)"
    with pytest.raises(SchemaError, match=message):
        load_examples(path)


@pytest.mark.parametrize("first, second", [("a", "a"), (7, "7"), (None, "q00001")])
def test_load_examples_rejects_a_repeated_id_naming_both_lines(tmp_path, first, second):
    """Each id names one trace file, so a repeat (after str(), or of the
    q<line> default) would lose a trace."""
    records = [{"query": "q", "answers": ["v"]}, {"id": "other", "query": "q", "answers": ["v"]}]
    if first is not None:
        records[0]["id"] = first
    records.append({"id": second, "query": "q", "answers": ["v"], "split": "train"})
    path = write_jsonl(tmp_path / "examples.jsonl", records)
    with pytest.raises(SchemaError, match=r"examples.jsonl:3: id .* repeats the id of line 1"):
        load_examples(path, split="train")


def test_load_examples_missing_file_is_schema_error(tmp_path):
    with pytest.raises(SchemaError, match="cannot read examples file"):
        load_examples(tmp_path / "absent.jsonl")


def test_exact_oracle_metric_scores_only_a_whole_answer():
    """The boolq and emrqa modes grade with exact match; the simulated mode
    with token F1, which gives a partial answer partial credit."""
    exact = oracle_metric_for(default_config("boolq"))
    assert exact("30 mg", ["30 mg"]) == 1.0
    assert exact("30", ["30 mg"]) == 0.0
    assert oracle_metric_for(default_config("simulated"))("30", ["30 mg"]) == pytest.approx(2 / 3)


class _Answering(SimulatedGenerator):
    """Answers every question with one fixed completion."""

    def __init__(self, completion):
        self.completion = completion

    def answer(self, query, context=None):
        return self.completion


@pytest.mark.parametrize(
    "mode, task, gold, completion",
    [
        ("boolq", Task.BOOLEAN, "1", "I think 1 is right"),
        ("emrqa", Task.EXTRACTIVE_MG, "30 mg", "The dose is 30 milligrams daily"),
    ],
)
def test_oracle_parses_the_completion_into_the_task_answer_space(mode, task, gold, completion):
    """make_scorer's oracle parses a boolean or milligram completion before
    the exact metric grades it: the raw completion would score 0."""
    from thoughtsearch.graph import Action, new_process

    example = QAExample("q1", "what dose?", [gold], task)
    config = default_config(mode)
    scorer = make_scorer(Method.MCTS_ORACLE, example, EnginePorts(generator=None, templates=None), config)
    graph = new_process(example.query)
    node = graph.apply_transition(Action(0, 0), "a thought")
    assert scorer.score(graph, node, _Answering(completion)) == 1.0
    assert oracle_metric_for(config)(completion, [gold]) == 0.0
    assert scorer.score(graph, node, _Answering("no answer here")) == 0.0


def test_boolean_example_needs_gold_answers_0_or_1():
    assert QAExample("q1", "is it?", ["0", "1"], Task.BOOLEAN).gold_answers == ["0", "1"]
    with pytest.raises(ConfigError, match="example q1: boolean gold answers must be '0' or '1'"):
        QAExample("q1", "is it?", ["yes"], Task.BOOLEAN)
