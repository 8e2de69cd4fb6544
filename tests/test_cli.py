"""CLI end to end in temp dirs: ingest, run, train-scorer, eval, export-trace."""

from __future__ import annotations

import argparse
import importlib.util
import json
import re
import shlex
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thoughtsearch.cli import _TASK_FOR_MODE, build_parser, main
from thoughtsearch.config import ENV_API_KEY, ENV_ENDPOINT, TASK_MODES, config_hash, load_config
from thoughtsearch.errors import CorpusError, SchemaError
from thoughtsearch.generate import SimulatedGenerator
from thoughtsearch.harness import (
    PLANS,
    EnginePorts,
    Method,
    load_examples,
    run_benchmark,
)
from thoughtsearch.retrieval import HashedEmbedder, ingest_corpus, load_index
from thoughtsearch.scoring import load_model
from thoughtsearch.templates import BOOLQ_TEMPLATES, BUILTIN_TEMPLATES, TemplateSet
from thoughtsearch.trace import dump_trace, graph_to_record


def _load_script(name: str):
    """Import scripts/<name>.py as a module."""
    path = Path(__file__).resolve().parent.parent / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Generated suite + ingested index + trained model, via the CLI itself."""
    tmp = tmp_path_factory.mktemp("cli")
    corpus = tmp / "corpus.jsonl"
    examples = tmp / "examples.jsonl"
    assert (
        main(
            [
                "make-suite",
                "--train",
                "12",
                "--test",
                "15",
                "--seed",
                "77",
                "--corpus-out",
                str(corpus),
                "--examples-out",
                str(examples),
            ]
        )
        == 0
    )
    index = tmp / "index.json"
    assert (
        main(
            ["ingest", "--mode", "simulated", "--corpus", str(corpus), "--out", str(index)]
        )
        == 0
    )
    model = tmp / "model.json"
    assert (
        main(
            [
                "train-scorer",
                "--mode",
                "simulated",
                "--examples",
                str(examples),
                "--split",
                "train",
                "--index",
                str(index),
                "--out",
                str(model),
            ]
        )
        == 0
    )
    return tmp, corpus, examples, index, model


def test_ingest_deterministic(workspace, tmp_path):
    tmp, corpus, *_ = workspace
    out1, out2 = tmp_path / "i1.json", tmp_path / "i2.json"
    assert main(["ingest", "--mode", "simulated", "--corpus", str(corpus), "--out", str(out1)]) == 0
    assert main(["ingest", "--mode", "simulated", "--corpus", str(corpus), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_run_answers_planted_query(workspace, tmp_path, capsys):
    tmp, corpus, examples, index, model = workspace
    example = json.loads(examples.read_text().splitlines()[0])
    trace = tmp_path / "trace.json"
    code = main(
        [
            "run",
            "--mode",
            "simulated",
            "--query",
            example["query"],
            "--index",
            str(index),
            "--method",
            "mcts_oracle",
            "--gold",
            *example["answers"],
            "--filter-key",
            example["filter_key"],
            "--trace",
            str(trace),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert f"answer: {example['answers'][0]}" in out
    record = json.loads(trace.read_text())
    assert record["outcome"]["terminated_by"] == "threshold_reached"
    assert len(record["nodes"]) >= 2
    counts = dict(
        field.split("=") for field in next(l for l in out.splitlines() if l.startswith("thoughts=")).split()
    )
    # The search's calls plus the final answer call.
    assert int(counts["generator_calls"]) == record["outcome"]["generator_calls"] + 1
    assert 1 <= int(counts["backend_calls"]) <= int(counts["generator_calls"])
    assert "backend_calls" not in record["outcome"]  # trace v1 is unchanged

    # `eval` on the same example at the same rng index reports the same.
    outdir = tmp_path / "eval"
    argv = [
        "eval", "--mode", "simulated", "--examples", str(examples), "--split", "train",
        "--limit", "1", "--methods", "mcts_oracle", "--index", str(index), "--out", str(outdir),
    ]
    assert main(argv) == 0
    row = (outdir / "mcts_oracle.csv").read_text().splitlines()[1].split(",")
    summary = json.loads((outdir / "summary.json").read_text())["methods"]["mcts_oracle"]
    assert row[0] == example["id"] and f"answer: {row[6]}\n" in out
    assert int(counts["generator_calls"]) == int(row[3])
    assert int(counts["backend_calls"]) == summary["backend_calls"]


def test_run_estimation_scorer(workspace, tmp_path):
    tmp, corpus, examples, index, model = workspace
    example = json.loads(examples.read_text().splitlines()[0])
    trace = tmp_path / "trace.json"
    code = main(
        [
            "run",
            "--mode",
            "simulated",
            "--query",
            example["query"],
            "--index",
            str(index),
            "--model",
            str(model),
            "--method",
            "mcts_estimation",
            "--filter-key",
            example["filter_key"],
            "--trace",
            str(trace),
        ]
    )
    assert code == 0
    assert trace.exists()


def test_run_with_malformed_model_is_config_error(workspace, tmp_path, capsys):
    *_, index, model = workspace
    record = json.loads(model.read_text())
    record["regressor"]["trees"][0]["left"][0] = 0  # a node that is its own child
    bad = tmp_path / "cyclic.json"
    bad.write_text(json.dumps(record))
    code = main(
        [
            "run", "--mode", "simulated", "--query", "need:k0", "--method", "mcts_estimation",
            "--index", str(index), "--model", str(bad), "--trace", str(tmp_path / "t.json"),
        ]
    )
    assert code == 2
    assert "trees[0].left[0]" in capsys.readouterr().err


def test_run_with_truncated_index_is_config_error(workspace, tmp_path, capsys):
    """A version 1 (JSON) index and a cut-short version 2 index both exit 2."""
    *_, index, _model = workspace
    bad = tmp_path / "index.json"
    argv = ["run", "--mode", "simulated", "--query", "need:k0", "--method", "mcts_self_critic", "--index", str(bad)]
    bad.write_text('{"version":1}')
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "version 1" in err and "re-ingest" in err
    data = index.read_bytes()
    bad.write_bytes(data[: len(data) - 100])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "embeddings are" in err and "Traceback" not in err


_GOOD_EXAMPLE = '{"id": "ok", "query": "need:k0 q", "answers": ["v"], "split": "train"}'


@pytest.mark.parametrize(
    "bad_line, field",
    [
        ('{"query": "q", "answers": ["v"]', "bad JSON"),
        ('["query", "q"]', "must be an object"),
        ('{"answers": ["v"], "split": "train"}', "'query'"),
        ('{"query": "q", "answers": ["v"], "task": "nope", "split": "train"}', "'task'"),
        ('{"query": "q", "answers": [], "split": "train"}', "'answers'"),
        ('{"id": "a/b", "query": "q", "answers": ["v"], "split": "train"}', "'a/b' is not a usable file name"),
        ('{"id": "ok", "query": "q", "answers": ["v"], "split": "train"}', "repeats the id of line 1"),
        ('{"query": "q", "answers": [null, {"a": 1}], "id": [1, 2], "split": "train"}', "example.answers[0] must be"),
        ('{"id": true, "query": "q", "answers": ["v"], "split": "train"}', "example.id must be"),
        ('{"id": 1e308, "query": "q", "answers": ["v"], "split": "train"}', "example.id must be"),
        ('{"query": "q", "answers": [Infinity], "split": "train"}', "example.answers[0] must be"),
    ],
    ids=[
        "bad_json", "not_an_object", "missing_query", "unknown_task", "empty_answers", "path_id", "repeated_id",
        "answers_not_scalar", "id_bool", "id_huge_float", "answers_infinity",
    ],
)
@pytest.mark.parametrize("command", ["eval", "train-scorer"])
def test_malformed_example_line_is_config_error(workspace, tmp_path, capsys, command, bad_line, field):
    *_, index, _model = workspace
    bad = tmp_path / "examples.jsonl"
    bad.write_text(_GOOD_EXAMPLE + "\n" + bad_line + "\n")
    common = ["--mode", "simulated", "--examples", str(bad), "--index", str(index)]
    if command == "eval":
        argv = ["eval", *common, "--methods", "llm_only", "--out", str(tmp_path / "out")]
    else:
        argv = ["train-scorer", *common, "--split", "train", "--out", str(tmp_path / "m.json")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"{bad}:2" in err and field in err


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_damaged_example_line_raises_only_schema_error(workspace, tmp_path_factory, data):
    """An examples file whose second line is cut short, or has a few bytes
    flipped, either loads or raises SchemaError naming the file; on the
    latter, eval and train-scorer exit 2."""
    *_, examples, index, _model = workspace
    first, line = examples.read_bytes().splitlines()[:2]
    line = bytearray(line)
    if data.draw(st.booleans(), label="truncate"):
        line = line[: data.draw(st.integers(0, len(line) - 1), label="cut at")]
    else:
        for at in data.draw(st.lists(st.integers(0, len(line) - 1), min_size=1, max_size=4), label="flip"):
            line[at] ^= data.draw(st.integers(1, 255), label="mask")
    tmp_path = tmp_path_factory.mktemp("fuzz")
    bad = tmp_path / "examples.jsonl"
    bad.write_bytes(first + b"\n" + bytes(line) + b"\n")
    try:
        load_examples(bad)
    except SchemaError as exc:
        assert str(bad) in str(exc)
    else:
        return
    common = ["--mode", "simulated", "--examples", str(bad), "--index", str(index)]
    assert main(["eval", *common, "--methods", "llm_only", "--out", str(tmp_path / "out")]) == 2
    assert main(["train-scorer", *common, "--split", "train", "--out", str(tmp_path / "m.json")]) == 2
    assert not (tmp_path / "out").exists() and not (tmp_path / "m.json").exists()


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_damaged_corpus_line_raises_only_corpus_error(workspace, tmp_path_factory, data):
    """A corpus whose second record is cut short, has a few bytes flipped,
    is buried 200,000 brackets deep or has another JSON value as its
    source_id either ingests, with that source_id a string or the decimal
    of an integer, or raises CorpusError naming the file (and a line, for
    a bad record: a flipped byte may be a line break to splitlines); on the
    latter, ingest exits 3."""
    _tmp, corpus, *_ = workspace
    first, line = corpus.read_bytes().splitlines()[:2]
    line = bytearray(line)
    damage = data.draw(st.sampled_from(["truncate", "flip", "nest", "source_id"]), label="damage")
    if damage == "truncate":
        line = line[: data.draw(st.integers(0, len(line) - 1), label="cut at")]
    elif damage == "flip":
        for at in data.draw(st.lists(st.integers(0, len(line) - 1), min_size=1, max_size=4), label="flip"):
            line[at] ^= data.draw(st.integers(1, 255), label="mask")
    elif damage == "nest":
        line = b"[" * 200_000 + line
    else:
        record = {**json.loads(line), "source_id": data.draw(_JSON_VALUES, label="source_id")}
        line = json.dumps(record).encode("utf-8")
    tmp_path = tmp_path_factory.mktemp("fuzz")
    bad = tmp_path / "corpus.jsonl"
    bad.write_bytes(first + b"\n" + bytes(line) + b"\n")
    try:
        index = ingest_corpus(bad, chunk_size=100, dim=16)
    except CorpusError as exc:
        assert re.match(rf"{re.escape(str(bad))}:\d+: |cannot read corpus file {re.escape(str(bad))}", str(exc))
    else:
        source_ids = {json.loads(first)["source_id"]}
        if bytes(line).strip():  # a blank line holds no record
            source_id = json.loads(line).get("source_id", "record-2")
            assert type(source_id) in (str, int)
            source_ids.add(str(source_id))
        assert {doc.source_id for doc in index.documents} <= source_ids
        return
    out = tmp_path / "index.bin"
    assert main(["ingest", "--mode", "simulated", "--corpus", str(bad), "--out", str(out)]) == 3
    assert not out.exists()


@pytest.mark.parametrize("method", list(Method), ids=lambda method: method.value)
def test_commands_need_an_index_and_a_model_as_plans_say(workspace, tmp_path, capsys, method):
    """With no index, eval and run of a method exit 2 exactly when it
    retrieves; with no model, exactly when it scores by estimation."""
    _tmp, _corpus, examples, index, model = workspace
    plan = PLANS[method]
    out = str(tmp_path / "out")
    commands = [["eval", "--mode", "simulated", "--examples", str(examples), "--limit", "1",
                 "--methods", method.value, "--out", out]]
    if plan.planner is not None:
        example = load_examples(examples, split="test")[0]
        commands.append(["run", "--mode", "simulated", "--query", example.query, "--method", method.value,
                         "--filter-key", example.filter_key, "--trace", str(tmp_path / "trace.json"),
                         "--gold", *example.gold_answers])
    for argv in commands:
        assert main([*argv, "--model", str(model)]) == (2 if plan.retrieves else 0)
        assert ("requires index_file" in capsys.readouterr().err) == plan.retrieves
        estimates = plan.scorer == "estimation"
        assert main([*argv, "--index", str(index)]) == (2 if estimates else 0)
        assert ("require model_file" in capsys.readouterr().err) == estimates


def test_run_oracle_without_gold_is_config_error(workspace):
    *_, index, model = workspace
    assert (
        main(
            ["run", "--mode", "simulated", "--query", "need:k0", "--method", "mcts_oracle", "--index", str(index)]
        )
        == 2
    )


def test_run_unknown_method_exits_2(workspace, capsys):
    *_, index, _model = workspace
    argv = ["run", "--mode", "simulated", "--query", "need:k0", "--index", str(index)]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--method", "greedy_self_critic"])
    assert exc.value.code == 2
    assert "invalid choice: 'greedy_self_critic'" in capsys.readouterr().err


def test_run_method_choices_are_the_planner_methods():
    """`run --method` takes exactly the methods whose plan has a planner."""
    parser = build_parser()
    for method, plan in PLANS.items():
        argv = ["run", "--query", "q", "--method", method.value]
        if plan.planner is None:
            with pytest.raises(SystemExit):
                parser.parse_args(argv)
        else:
            assert parser.parse_args(argv).method == method.value


def test_every_mode_list_is_the_config_task_modes():
    """`--mode`, the task of each mode and the built-in template sets name
    exactly the config's task modes."""
    commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    mode_flags = [p._option_string_actions.get("--mode") for p in commands.choices.values()]
    assert {tuple(flag.choices) for flag in mode_flags if flag} == {TASK_MODES}
    assert tuple(_TASK_FOR_MODE) == TASK_MODES
    assert tuple(BUILTIN_TEMPLATES) == TASK_MODES


_PLANNER_METHODS = [m for m, plan in PLANS.items() if plan.planner is not None]


@pytest.mark.parametrize(
    "method",
    _PLANNER_METHODS,
    ids=[f"{PLANS[m].planner}-{PLANS[m].scorer}-{m.value}" for m in _PLANNER_METHODS],
)
def test_run_trace_equals_harness_trace(workspace, tmp_path, method):
    """`run` and the benchmark harness wire the same search: for one example
    at rng index 0 they write the same trace bytes."""
    tmp, corpus, examples, index, model = workspace
    example = load_examples(examples, split="test")[0]
    trace = tmp_path / "run.json"
    argv = [
        "run", "--mode", "simulated", "--query", example.query, "--index", str(index),
        "--model", str(model), "--method", method.value,
        "--filter-key", example.filter_key, "--trace", str(trace),
    ]
    if PLANS[method].scorer == "oracle":
        argv += ["--gold", *example.gold_answers]
    assert main(argv) == 0

    config = load_config(task_mode="simulated")
    embedder = HashedEmbedder(dim=config.scoring.embed_dim)
    ports = EnginePorts(
        generator=SimulatedGenerator(),
        templates=TemplateSet.builtin("simulated"),
        index=load_index(index),
        scorer_model=load_model(model, expected_embedder_id=embedder.embedder_id),
    )
    sunk = tmp_path / "harness.json"
    sink = lambda ex, outcome: dump_trace(graph_to_record(outcome.graph, outcome), sunk)
    run_benchmark([example], method, ports, config, trace_sink=sink)
    assert trace.read_bytes() == sunk.read_bytes()


def test_config_file_setting_gamma_is_unknown_field(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"task_mode": "simulated", "gamma": 0.9}))
    assert main(["run", "--config", str(config), "--query", "q"]) == 2
    assert "unknown config field 'gamma'" in capsys.readouterr().err


def test_run_missing_model_is_config_error(workspace):
    *_, index, _model = workspace
    assert (
        main(
            ["run", "--mode", "simulated", "--query", "q", "--method", "mcts_estimation", "--index", str(index)]
        )
        == 2
    )


def test_run_retrieving_method_without_index_is_config_error(tmp_path, capsys):
    """`run` fails closed, as `eval` does, rather than searching without
    retrieval; a method that does not retrieve needs no index."""
    argv = ["run", "--mode", "simulated", "--query", "need:k0", "--max-steps", "2"]
    argv += ["--trace", str(tmp_path / "trace.json")]
    assert main([*argv, "--method", "mcts_self_critic"]) == 2
    assert "requires index_file" in capsys.readouterr().err
    assert main([*argv, "--method", "mcts_oracle", "--gold", "x"]) == 2
    assert main([*argv, "--method", "mcts_oracle_no_ir", "--gold", "x"]) == 0


def test_http_backend_without_endpoint_is_config_error(workspace, tmp_path, capsys):
    *_, index, _model = workspace
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"task_mode": "simulated", "generator": {"backend": "http"}}))
    assert main(["run", "--config", str(config), "--query", "q", "--index", str(index)]) == 2
    assert "endpoint" in capsys.readouterr().err


def test_unreachable_endpoint_is_transport_error(workspace, tmp_path):
    *_, index, _model = workspace
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "task_mode": "simulated",
                "generator": {
                    "backend": "http",
                    "endpoint": "http://127.0.0.1:9/nowhere",
                    "timeout_s": 0.2,
                    "retries": 0,
                },
            }
        )
    )
    assert main(["run", "--config", str(config), "--query", "q", "--index", str(index)]) == 3


def test_eval_counts_the_examples_that_failed(workspace, tmp_path, capsys):
    """Against a backend that is down every example fails; eval still exits 0
    and says how many failed."""
    _tmp, _corpus, examples, _index, _model = workspace
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {"generator": {"backend": "http", "endpoint": "http://127.0.0.1:9/nowhere", "timeout_s": 0.2, "retries": 0}}
        )
    )
    argv = ["eval", "--examples", str(examples), "--methods", "llm_only", "--limit", "3"]
    for extra, failed in (["--config", str(config)], 3), ([], 0):
        out = tmp_path / f"reports{failed}"
        assert main([*argv, *extra, "--out", str(out)]) == 0
        assert capsys.readouterr().out.splitlines()[0].endswith(f"over 3 examples failed={failed}")
        entry = json.loads((out / "summary.json").read_text())["methods"]["llm_only"]
        assert (entry["n"], entry["failed"]) == (3, failed)


def test_eval_summary_counts_the_failures_per_error_class(workspace, tmp_path, capsys):
    """summary.json's failed_by counts a method's failed examples by the
    class of the error that failed each."""
    _tmp, _corpus, examples, _index, _model = workspace
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {"generator": {"backend": "http", "endpoint": "http://127.0.0.1:9/nowhere", "timeout_s": 0.2, "retries": 0}}
        )
    )
    argv = ["eval", "--examples", str(examples), "--methods", "llm_only", "--limit", "3"]
    for extra, failed_by in (["--config", str(config)], {"TransportError": 3}), ([], {}):
        out = tmp_path / f"reports{len(failed_by)}"
        assert main([*argv, *extra, "--out", str(out)]) == 0
        capsys.readouterr()
        entry = json.loads((out / "summary.json").read_text())["methods"]["llm_only"]
        assert entry["failed_by"] == failed_by


def test_template_brace_that_is_not_a_slot_is_literal_text(workspace, tmp_path):
    """A SelfCritic body holding a JSON object and a stray brace runs: only
    the five slots are substituted."""
    _tmp, _corpus, examples, index, _model = workspace
    assert BOOLQ_TEMPLATES.count('"{thought}"') == 1
    templates = tmp_path / "templates.txt"
    templates.write_text(BOOLQ_TEMPLATES.replace('"{thought}"', '"{thought}" as {"score": 1} {'))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"generator": {"template_file": str(templates)}}))
    out = tmp_path / "reports"
    argv = [
        "eval", "--config", str(config), "--examples", str(examples), "--split", "test",
        "--methods", "mcts_self_critic", "--index", str(index), "--limit", "3", "--out", str(out),
    ]
    assert main(argv) == 0
    _header, *rows = (out / "mcts_self_critic.csv").read_text().splitlines()
    assert len(rows) == 3 and all(row.endswith(",") for row in rows)  # no error column


def test_eval_with_malformed_endpoint_exits_2_before_any_search(workspace, tmp_path, capsys):
    _tmp, _corpus, examples, index, _model = workspace
    out = tmp_path / "reports"
    argv = ["eval", "--mode", "simulated", "--examples", str(examples), "--index", str(index)]
    assert main([*argv, "--out", str(out), "--endpoint", "localhost:8808/complete"]) == 2
    assert "generator endpoint 'localhost:8808/complete'" in capsys.readouterr().err
    assert not out.exists()


def test_eval_all_methods_writes_eight_reports(workspace, tmp_path):
    tmp, corpus, examples, index, model = workspace
    outdir = tmp_path / "reports"
    code = main(
        [
            "eval",
            "--mode",
            "simulated",
            "--examples",
            str(examples),
            "--split",
            "test",
            "--methods",
            "all",
            "--index",
            str(index),
            "--model",
            str(model),
            "--out",
            str(outdir),
            "--limit",
            "6",
        ]
    )
    assert code == 0
    csvs = sorted(p.name for p in outdir.glob("*.csv"))
    assert csvs == sorted(f"{m.value}.csv" for m in Method)
    assert len(csvs) == 8 and (outdir / "random_control.csv").exists()
    summary = json.loads((outdir / "summary.json").read_text())
    assert set(summary["methods"]) == {m.value for m in Method}
    assert "config_hash" in summary
    for method, entry in summary["methods"].items():
        header, *rows = (outdir / f"{method}.csv").read_text().splitlines()
        assert header == "query_id,correct,thought_count,generator_calls,scorer_calls,terminated_by,answer,error"
        assert entry["generator_calls"] == sum(int(row.split(",")[3]) for row in rows)
        assert 0 < entry["backend_calls"] <= entry["generator_calls"]
    # The simulated generator is deterministic, so repeated calls are memoized.
    self_critic = summary["methods"]["mcts_self_critic"]
    assert self_critic["backend_calls"] < self_critic["generator_calls"]


def test_eval_rerun_byte_identical_reports_and_traces(workspace, tmp_path):
    tmp, corpus, examples, index, model = workspace
    outs = []
    for name in ("r1", "r2"):
        outdir = tmp_path / name
        code = main(
            [
                "eval",
                "--mode",
                "simulated",
                "--examples",
                str(examples),
                "--split",
                "test",
                "--methods",
                "mcts_oracle,llm_only",
                "--index",
                str(index),
                "--out",
                str(outdir),
                "--limit",
                "5",
                "--traces",
            ]
        )
        assert code == 0
        outs.append(outdir)
    for rel in sorted(p.relative_to(outs[0]) for p in outs[0].rglob("*") if p.is_file()):
        assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes(), rel


def test_eval_sweep_emits_curve(workspace, tmp_path):
    tmp, corpus, examples, index, model = workspace
    outdir = tmp_path / "sweep"
    code = main(
        [
            "eval",
            "--mode",
            "simulated",
            "--examples",
            str(examples),
            "--split",
            "test",
            "--methods",
            "mcts_oracle",
            "--index",
            str(index),
            "--out",
            str(outdir),
            "--limit",
            "4",
            "--sweep-t",
            "2,5",
        ]
    )
    assert code == 0
    curve = (outdir / "mcts_oracle_curve.csv").read_text().splitlines()
    assert curve[0] == "max_thoughts,accuracy,mean_generator_calls"
    assert len(curve) == 3


@pytest.mark.parametrize(
    "budgets, message", [("0,2", "max_steps must be >= 1"), ("2,x", "comma-separated integers")]
)
def test_eval_bad_sweep_budget_fails_before_running(workspace, tmp_path, capsys, budgets, message):
    tmp, corpus, examples, index, model = workspace
    outdir = tmp_path / "sweep"
    argv = [
        "eval", "--mode", "simulated", "--examples", str(examples), "--methods", "mcts_oracle",
        "--index", str(index), "--out", str(outdir), "--sweep-t", budgets,
    ]
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert not outdir.exists()


@pytest.mark.parametrize(
    "command, flags, message",
    [
        ("ingest", ["--chunk-words", "0"], "retrieval.chunk_words must be >= 1, got 0"),
        ("ingest", ["--chunk-words", "-2"], "retrieval.chunk_words must be >= 1, got -2"),
        ("eval", ["--limit", "0"], "limit must be >= 1, got 0"),
        ("eval", ["--limit", "-3"], "limit must be >= 1, got -3"),
        ("make-suite", ["--train", "-1"], "n_train must be >= 0, got -1"),
        ("make-suite", ["--test", "-5"], "n_test must be >= 0, got -5"),
        ("make-suite", ["--seed", "-1"], "seed must be >= 0, got -1"),
    ],
)
def test_flag_below_its_bound_exits_2(workspace, tmp_path, capsys, command, flags, message):
    """A flag's value is held to the same bound as the config field it sets,
    never replaced by a default or read as another value."""
    _tmp, corpus, examples, _index, _model = workspace
    out = tmp_path / "out"
    argv = {
        "ingest": ["ingest", "--mode", "simulated", "--corpus", str(corpus), "--out", str(out)],
        "eval": ["eval", "--mode", "simulated", "--examples", str(examples), "--methods", "llm_only", "--out", str(out)],
        "make-suite": ["make-suite", "--train", "2", "--test", "2", "--corpus-out", str(out), "--examples-out", str(out)],
    }[command]
    assert main([*argv, *flags]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists()


def test_ingest_chunk_words_flag_overrides_the_config(workspace, tmp_path, capsys):
    _tmp, corpus, *_ = workspace
    config = tmp_path / "config.json"
    config.write_text('{"retrieval": {"chunk_words": 40}}')
    argv = ["ingest", "--config", str(config), "--corpus", str(corpus), "--out", str(tmp_path / "i.bin")]
    assert main([*argv, "--chunk-words", "7"]) == 0
    assert "chunk_words=7 " in capsys.readouterr().out
    assert main(argv) == 0
    assert "chunk_words=40 " in capsys.readouterr().out


def test_eval_rejects_a_model_whose_embedder_id_is_not_of_its_embed_dim(workspace, tmp_path, capsys):
    """A model file whose embedder_id names another dimension than its
    embed_dim would fail every estimation search; it fails to load instead."""
    _tmp, _corpus, examples, index, model = workspace
    record = json.loads(model.read_text())
    assert record["embedder_id"] == "hashed-tf-v1-d64"
    record["embed_dim"] = 100  # the trees' features stay in range
    bad = tmp_path / "model.json"
    bad.write_text(json.dumps(record))
    out = tmp_path / "reports"
    argv = [
        "eval", "--mode", "simulated", "--examples", str(examples), "--methods", "mcts_estimation",
        "--index", str(index), "--model", str(bad), "--out", str(out), "--limit", "2",
    ]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "model.embedder_id 'hashed-tf-v1-d64' is not the embedder of model.embed_dim 100" in err
    assert not out.exists()


def test_export_trace_round_trip_and_dot(workspace, tmp_path, capsys):
    tmp, corpus, examples, index, model = workspace
    example = json.loads(examples.read_text().splitlines()[0])
    trace = tmp_path / "trace.json"
    main(
        [
            "run",
            "--mode",
            "simulated",
            "--query",
            example["query"],
            "--index",
            str(index),
            "--method",
            "mcts_self_critic",
            "--filter-key",
            example["filter_key"],
            "--trace",
            str(trace),
        ]
    )
    capsys.readouterr()
    exported = tmp_path / "exported.json"
    assert main(["export-trace", "--trace", str(trace), "--out", str(exported)]) == 0
    capsys.readouterr()
    assert exported.read_bytes() == trace.read_bytes()
    assert main(["export-trace", "--trace", str(trace), "--format", "graphviz"]) == 0
    dot = capsys.readouterr().out
    assert dot.startswith("digraph thoughts {")
    assert "->" in dot


def test_export_malformed_trace_names_field(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"version": 1, "query": "q", "nodes": [{"id": 0}], "history": []}))
    assert main(["export-trace", "--trace", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "nodes[0]" in err


_QUERY_NODE = {"id": 0, "kind": "query", "text": "q", "parents": [], "step": 0, "score": 0.0, "visits": 0}


def _trace(nodes, history, **extra):
    return json.dumps({"version": 1, "query": "q", "nodes": nodes, "history": history, **extra})


def _model(version=1, dim=64, **tree) -> str:
    """A one-leaf model file, by default for the simulated mode's scoring
    embedder, with the tree's fields replaced by `tree`."""
    leaf = {"feature": [-1], "threshold": [0.0], "left": [-1], "right": [-1], "value": [0.0]}
    regressor = {"kind": "gbrt", "n_rounds": 1, "max_depth": 1, "learning_rate": 0.1,
                 "min_leaf": 1, "base": 0.0, "trees": [{**leaf, **tree}]}
    return json.dumps({"version": version, "embedder_id": f"hashed-tf-v1-d{dim}", "embed_dim": dim,
                       "threshold": 0.5, "training_report": {}, "regressor": regressor})


def _http_config(endpoint: str) -> str:
    return json.dumps({"generator": {"backend": "http", "endpoint": endpoint}})


# What stderr holds for a file that is not UTF-8: its name, then the cause.
_NOT_UTF8 = "input.json: 'utf-8' codec can't decode byte 0xff"

# (command, file content, exit code, what stderr must name)
_MALFORMED_INPUTS = {
    "config_max_steps_string": ("run", '{"max_steps": "ten"}', 2, "max_steps must be an integer"),
    "config_max_steps_float": ("run", '{"max_steps": 2.5}', 2, "max_steps must be an integer"),
    "config_p_doc_string": ("run", '{"p_doc": "x"}', 2, "p_doc must be a number"),
    "config_section_not_object": ("run", '{"scoring": 5}', 2, "scoring must be an object"),
    "config_retries_string": ("run", '{"generator": {"retries": "x"}}', 2, "generator.retries"),
    "config_top_level_list": ("run", "[1]", 2, "must hold an object"),
    "config_thresholds_not_object": ("run", '{"stop_thresholds": 5}', 2, "stop_thresholds must be"),
    "config_threshold_string": (
        "run",
        '{"stop_thresholds": {"oracle": "x", "self_critic": 0.8, "estimation": 0.8}}',
        2,
        "stop_thresholds.oracle must be a number",
    ),
    "config_threshold_unknown_key": (
        "run",
        '{"stop_thresholds": {"oracle": 0.5, "self_critic": 0.8, "estimation": 0.8, "orcale": 1}}',
        2,
        "stop_thresholds has unknown entry 'orcale'",
    ),
    "config_scoring_regressor": ("run", '{"scoring": {"regressor": "gbrt"}}', 2, "regressor"),
    "config_scoring_ridge_alpha": ("run", '{"scoring": {"ridge_alpha": 1.0}}', 2, "ridge_alpha"),
    "config_scorer": ("run", '{"scorer": "self_critic"}', 2, "unknown config field 'scorer'"),
    "config_query_mode": (
        "run", '{"retrieval": {"query_mode": "formulate"}}', 2, "retrieval.query_mode must be one of"
    ),
    "config_oracle_metric": (
        "run", '{"scoring": {"oracle_metric": "f1"}}', 2, "scoring.oracle_metric must be one of"
    ),
    "config_backend_unknown": (
        "ingest-config",
        '{"generator": {"backend": "htp"}}',
        2,
        "config.generator.backend must be one of ('simulated', 'http'), got 'htp'",
    ),
    "run_query_blank": ("run-query", "   ", 2, "--query must not be blank"),
    # A byte that is not UTF-8 reaches argv as a lone surrogate.
    "run_query_not_utf8": ("run-query", "need:k q\udcff", 2, "--query must encode as UTF-8"),
    "examples_query_blank": (
        "eval-examples", '{"query": " ", "answers": ["v"]}\n', 2, "input.json:1: field 'query' must not be blank"
    ),
    # An id names a CSV row, so it holds no comma or line break; every
    # text field must encode as UTF-8 (JSON allows a lone surrogate).
    "examples_id_comma": (
        "eval-examples", '{"id": "a,b", "query": "q", "answers": ["v"]}\n', 2, "input.json:1: field 'id'"
    ),
    "examples_id_newline": (
        "eval-examples", r'{"id": "a\nb", "query": "q", "answers": ["v"]}' "\n", 2, "input.json:1: field 'id'"
    ),
    "examples_id_return": (
        "eval-examples", r'{"id": "a\rb", "query": "q", "answers": ["v"]}' "\n", 2, "input.json:1: field 'id'"
    ),
    "examples_id_surrogate": (
        "eval-examples",
        r'{"id": "q\ud800", "query": "q", "answers": ["v"]}' "\n",
        2,
        "input.json:1: field 'id' must encode as UTF-8",
    ),
    "examples_query_surrogate": (
        "eval-examples",
        r'{"query": "q\ud800", "answers": ["v"]}' "\n",
        2,
        "input.json:1: field 'query' must encode as UTF-8",
    ),
    "examples_answer_surrogate": (
        "eval-examples",
        r'{"query": "q", "answers": ["v", "w\udfff"]}' "\n",
        2,
        "input.json:1: field 'answers[1]' must encode as UTF-8",
    ),
    "endpoint_no_scheme": ("run", _http_config("localhost:8808/complete"), 2, "'localhost:8808/complete'"),
    "endpoint_ftp": ("run", _http_config("ftp://127.0.0.1/x"), 2, "'ftp://127.0.0.1/x' is not an http"),
    "endpoint_no_host": ("run", _http_config("http:///nohost"), 2, "'http:///nohost' is not an http"),
    "endpoint_bad_port": ("run", _http_config("http://127.0.0.1:port/x"), 2, "has a bad port"),
    "config_not_utf8": ("run", b"\xff", 2, _NOT_UTF8),
    "model_not_utf8": ("run-model", b"\xff", 2, _NOT_UTF8),
    "templates_not_utf8": ("run-templates", b"\xff", 2, _NOT_UTF8),
    "trace_nodes_not_list": ("export-trace", _trace(5, []), 2, "trace.nodes must be a list"),
    "trace_node_not_object": ("export-trace", _trace([1], []), 2, "nodes[0] must be an object"),
    "trace_history_not_object": ("export-trace", _trace([], [5]), 2, "history[0] must be an object"),
    "trace_parent_not_int": (
        "export-trace", _trace([{**_QUERY_NODE, "parents": ["a"]}], []), 2, "nodes[0].parents"
    ),
    "trace_history_field_not_int": (
        "export-trace",
        _trace([_QUERY_NODE], [{"first": "a", "second": 0, "produced": 0}]),
        2,
        "history[0].first",
    ),
    "config_exploration_c_nan": ("run", '{"exploration_c": NaN}', 2, "config.exploration_c must be a number"),
    "config_timeout_negative": (
        "run", '{"generator": {"timeout_s": -1}}', 2, "generator.timeout_s must be > 0"
    ),
    "config_max_concurrency_negative": (
        "run", '{"generator": {"max_concurrency": -1}}', 2, "generator.max_concurrency must be >= 1"
    ),
    "trace_outcome_list": (
        "export-dot", _trace([_QUERY_NODE], [], outcome=[0]), 2, "trace.outcome must be an object"
    ),
    "trace_visits_bool": (
        "export-trace", _trace([{**_QUERY_NODE, "visits": True}], []), 2, "nodes[0].visits must be an integer"
    ),
    "model_feature_huge": ("run-model", _model(feature=[2**70]), 2, "regressor.trees[0].feature holds"),
    "model_feature_strings": (
        "run-model", _model(feature=["-1"]), 2, "regressor.trees[0].feature[0] must be an integer"
    ),
    "model_version_bool": ("run-model", _model(version=True), 2, "model.version must be an integer"),
    "model_embed_dim_not_configured": (
        "run-model", _model(dim=32), 2, "model embedding dimension 32 does not match configured scoring.embed_dim 64"
    ),
    "corpus_record_not_object": ("ingest", "5\n", 3, ":1: record must be an object"),
    "corpus_text_not_string": ("ingest", '{"text": 5}\n', 3, ":1: record.text must be a string"),
    "corpus_text_surrogate": ("ingest", r'{"text": "a\ud800 b"}' "\n", 3, ":1: record.text must encode as UTF-8"),
    "corpus_not_utf8": ("ingest", b"\xff\n", 3, _NOT_UTF8),
    "corpus_record_nested_deep": ("ingest", "[" * 200_000 + "\n", 3, ":1: bad JSON"),
    "corpus_source_id_null": (
        "ingest", '{"text": "a", "source_id": null}\n', 3, ":1: record.source_id must be a string or an integer"
    ),
    "corpus_source_id_object": (
        "ingest", '{"text": "a", "source_id": {"x": [1, 2]}}\n', 3, ":1: record.source_id must be"
    ),
    "corpus_source_id_bool": ("ingest", '{"text": "a", "source_id": true}\n', 3, ":1: record.source_id"),
    "trace_not_utf8": ("export-trace", b"\xff", 2, _NOT_UTF8),
    "config_retrieval_embed_dim_zero": (
        "ingest-config", '{"retrieval": {"embed_dim": 0}}', 2, "retrieval.embed_dim must be >= 1, got 0"
    ),
    "config_retrieval_embed_dim_negative": (
        "ingest-config", '{"retrieval": {"embed_dim": -4}}', 2, "retrieval.embed_dim must be >= 1, got -4"
    ),
    "config_chunk_words_zero": (
        "ingest-config", '{"retrieval": {"chunk_words": 0}}', 2, "retrieval.chunk_words must be >= 1"
    ),
    "config_scoring_embed_dim_zero": (
        "train-config", '{"scoring": {"embed_dim": 0}}', 2, "scoring.embed_dim must be >= 1"
    ),
    "config_gbrt_rounds_negative": (
        "train-config", '{"scoring": {"gbrt_rounds": -1}}', 2, "scoring.gbrt_rounds must be >= 1"
    ),
    "config_gbrt_depth_zero": ("train-config", '{"scoring": {"gbrt_depth": 0}}', 2, "scoring.gbrt_depth must be >= 1"),
    "config_gbrt_learning_rate_zero": (
        "train-config", '{"scoring": {"gbrt_learning_rate": 0}}', 2, "scoring.gbrt_learning_rate must be > 0"
    ),
    "config_holdout_fraction_above_one": (
        "train-config", '{"scoring": {"holdout_fraction": 1.5}}', 2, "scoring.holdout_fraction must be in (0, 1)"
    ),
    "config_holdout_fraction_zero": (
        "train-config", '{"scoring": {"holdout_fraction": 0}}', 2, "scoring.holdout_fraction must be in (0, 1)"
    ),
}


@pytest.mark.parametrize(
    "command, content, code, names", _MALFORMED_INPUTS.values(), ids=_MALFORMED_INPUTS.keys()
)
def test_malformed_input_exits_with_documented_code(tmp_path, capsys, command, content, code, names):
    """Config, model, template, trace and corpus files of the wrong shape,
    JSON type or text encoding fail closed: the documented exit code and a
    message, never a traceback."""
    bad = tmp_path / "input.json"
    if isinstance(content, bytes):
        bad.write_bytes(content)
    else:  # a run-query row's lone surrogate stands for the byte it escapes
        bad.write_text(content, errors="surrogateescape")
    templates_config = tmp_path / "config.json"
    templates_config.write_text(json.dumps({"generator": {"template_file": str(bad)}}))
    run = ["run", "--query", "q", "--trace", str(tmp_path / "t.json")]
    argv = {
        "run": [*run, "--config", str(bad)],
        "run-model": [*run, "--model", str(bad)],
        "run-templates": [*run, "--config", str(templates_config)],
        "run-query": ["run", "--query", content, "--trace", str(tmp_path / "t.json")],
        "eval-examples": [
            "eval", "--mode", "simulated", "--examples", str(bad), "--methods", "llm_only", "--out", str(tmp_path / "out")
        ],
        "export-trace": ["export-trace", "--trace", str(bad)],
        "export-dot": ["export-trace", "--trace", str(bad), "--format", "graphviz"],
        "ingest": ["ingest", "--mode", "simulated", "--corpus", str(bad), "--out", str(tmp_path / "i.json")],
        # The config fails before the corpus, examples or index is read.
        "ingest-config": [
            "ingest", "--config", str(bad), "--corpus", str(tmp_path / "absent"), "--out", str(tmp_path / "i.bin")
        ],
        "train-config": [
            "train-scorer", "--config", str(bad), "--examples", str(tmp_path / "absent.jsonl"),
            "--index", str(tmp_path / "absent.bin"), "--out", str(tmp_path / "m.json"),
        ],
    }[command]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert names in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["make-suite", "ingest", "run", "train-scorer", "eval", "export-trace"])
def test_output_path_that_cannot_be_written_exits_2(workspace, tmp_path, capsys, command):
    """An output path under a regular file fails with exit 2 and a message
    naming the path, never a traceback."""
    _, corpus, examples, index, _ = workspace
    (tmp_path / "plain.txt").write_text("")
    out = str(tmp_path / "plain.txt" / "out")
    trace = tmp_path / "trace.json"
    trace.write_text(_trace([_QUERY_NODE], []))
    simulated = ["--mode", "simulated"]
    argv = {
        "make-suite": ["make-suite", "--train", "1", "--test", "1", "--corpus-out", out, "--examples-out", out],
        "ingest": ["ingest", *simulated, "--corpus", str(corpus), "--out", out],
        "run": ["run", *simulated, "--query", "q", "--index", str(index), "--max-steps", "2", "--trace", out],
        "train-scorer": ["train-scorer", *simulated, "--examples", str(examples), "--index", str(index), "--out", out],
        "eval": ["eval", *simulated, "--examples", str(examples), "--methods", "llm_only", "--out", out],
        "export-trace": ["export-trace", "--trace", str(trace), "--out", out],
    }[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert out in err
    assert "Traceback" not in err


def test_run_through_wire_backend(workspace, tmp_path, capsys):
    """Full flow over the HTTP wire protocol, served by the backend script."""
    import threading
    from http.server import ThreadingHTTPServer

    module = _load_script("serve_sim_backend")
    module.Handler.log_message = lambda *a, **k: None
    server = ThreadingHTTPServer(("127.0.0.1", 0), module.Handler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        tmp, corpus, examples, index, model = workspace
        example = json.loads(examples.read_text().splitlines()[0])
        trace = tmp_path / "trace.json"
        code = main(
            [
                "run",
                "--mode",
                "simulated",
                "--query",
                example["query"],
                "--index",
                str(index),
                "--method",
                "mcts_self_critic",
                "--filter-key",
                example["filter_key"],
                "--endpoint",
                f"http://127.0.0.1:{server.server_port}/complete",
                "--trace",
                str(trace),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert f"answer: {example['answers'][0]}" in out
    finally:
        server.shutdown()


@pytest.mark.parametrize(
    "body",
    [b"[]", b'"text"', b"5", b"{}", b'{"prompt": 5}', b"\xff", pytest.param(b"[" * 200_000, id="nested_deep")],
)
def test_backend_script_rejects_a_malformed_body_with_400(body):
    import http.client
    import threading
    from http.server import ThreadingHTTPServer

    module = _load_script("serve_sim_backend")
    module.Handler.log_message = lambda *a, **k: None
    server = ThreadingHTTPServer(("127.0.0.1", 0), module.Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    conn = http.client.HTTPConnection("127.0.0.1", server.server_port, timeout=5)
    try:
        conn.request("POST", "/complete", body, {"Content-Type": "application/json"})
        resp = conn.getresponse()
        assert (resp.status, resp.getheader("Content-Length"), resp.read()) == (400, "0", b"")
    finally:
        conn.close()
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()


def test_backend_script_on_port_0_prints_the_port_it_bound(tmp_path):
    """`serve_sim_backend.py --port 0` first prints `listening <port>`,
    flushed, and serves completions on that port."""
    import http.client
    import os
    import select
    import subprocess
    import sys

    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen(
        [sys.executable, str(root / "scripts" / "serve_sim_backend.py"), "--port", "0"],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )
    try:
        ready, _, _ = select.select([proc.stdout], [], [], 30)
        line = proc.stdout.readline() if ready else ""
        assert re.fullmatch(r"listening [1-9][0-9]*\n", line), line
        conn = http.client.HTTPConnection("127.0.0.1", int(line.split()[1]), timeout=10)
        try:
            conn.request("POST", "/complete", json.dumps({"prompt": "need:k1 q\nANSWER :"}))
            resp = conn.getresponse()
            assert (resp.status, json.loads(resp.read())) == (200, {"text": "unknown"})
        finally:
            conn.close()
    finally:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()


def test_config_hash_echoed(workspace, tmp_path, capsys, monkeypatch):
    """`eval` prints the config hash and writes, next to summary.json, the
    config it hashed; the API key stays in the environment."""
    tmp, corpus, examples, index, model = workspace
    monkeypatch.delenv(ENV_ENDPOINT, raising=False)
    monkeypatch.setenv(ENV_API_KEY, "secret-key-value")
    outdir = tmp_path / "echo"
    main(
        [
            "eval",
            "--mode",
            "simulated",
            "--examples",
            str(examples),
            "--methods",
            "llm_only",
            "--out",
            str(outdir),
            "--limit",
            "2",
            "--seed",
            "9",
        ]
    )
    out = capsys.readouterr().out
    summary = json.loads((outdir / "summary.json").read_text())
    assert summary["config_hash"] in out
    written = outdir / "config.json"
    assert config_hash(load_config(written)) == summary["config_hash"]
    assert load_config(written).seed == 9
    assert "secret-key-value" not in written.read_text()


def _readme_commands() -> list[str]:
    """Every `thoughtsearch ...` line of README's fenced bash blocks, with
    its `\\` continuation lines joined and any pipe cut off."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    blocks = re.findall(r"^```bash\n(.*?)^```", readme.read_text(encoding="utf-8"), re.M | re.S)
    lines = re.sub(r"\s*\\\n\s*", " ", "\n".join(blocks)).splitlines()
    return [line.split("|")[0].strip() for line in lines if line.lstrip().startswith("thoughtsearch ")]


@pytest.mark.parametrize("command", _readme_commands())
def test_readme_commands_parse(command):
    """The README's commands name only subcommands and flags the parser has."""
    build_parser().parse_args(shlex.split(command)[1:])
