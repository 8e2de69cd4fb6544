"""CLI end to end in temp dirs: ingest, run, train-scorer, eval, export-trace."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from thoughtsearch.cli import main
from thoughtsearch.harness import Method


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
            "--scorer",
            "oracle",
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
            "--scorer",
            "estimation",
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
            "run", "--mode", "simulated", "--query", "need:k0", "--scorer", "estimation",
            "--index", str(index), "--model", str(bad), "--trace", str(tmp_path / "t.json"),
        ]
    )
    assert code == 2
    assert "trees[0].left[0]" in capsys.readouterr().err


def test_run_oracle_without_gold_is_config_error(workspace):
    *_, index, model = workspace
    assert (
        main(
            ["run", "--mode", "simulated", "--query", "need:k0", "--scorer", "oracle", "--index", str(index)]
        )
        == 2
    )


def test_run_missing_model_is_config_error(workspace):
    *_, index, _model = workspace
    assert (
        main(
            ["run", "--mode", "simulated", "--query", "q", "--scorer", "estimation", "--index", str(index)]
        )
        == 2
    )


def test_http_backend_without_endpoint_is_config_error(workspace, tmp_path):
    tmp, *_ = workspace
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"task_mode": "simulated", "generator": {"backend": "http"}}))
    assert main(["run", "--config", str(config), "--query", "q"]) == 2


def test_unreachable_endpoint_is_transport_error(workspace, tmp_path):
    tmp, *_ = workspace
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
    assert main(["run", "--config", str(config), "--query", "q"]) == 3


def test_eval_all_methods_writes_seven_reports(workspace, tmp_path):
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
    summary = json.loads((outdir / "summary.json").read_text())
    assert set(summary["methods"]) == {m.value for m in Method}
    assert "config_hash" in summary


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
            "--scorer",
            "self_critic",
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


def test_run_through_wire_backend(workspace, tmp_path, capsys):
    """Full flow over the HTTP wire protocol, served by the backend script."""
    import importlib.util
    import threading
    from http.server import ThreadingHTTPServer

    spec = importlib.util.spec_from_file_location(
        "serve_sim_backend",
        Path(__file__).resolve().parent.parent / "scripts" / "serve_sim_backend.py",
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
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
                "--scorer",
                "self_critic",
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


def test_config_hash_echoed(workspace, tmp_path, capsys):
    tmp, corpus, examples, index, model = workspace
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
        ]
    )
    out = capsys.readouterr().out
    summary = json.loads((outdir / "summary.json").read_text())
    assert summary["config_hash"] in out
