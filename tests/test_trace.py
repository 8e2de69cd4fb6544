"""Trace schema: round-trips, validation errors, graphviz rendering."""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thoughtsearch.cli import main
from thoughtsearch.config import EpisodeConfig
from thoughtsearch.errors import SchemaError
from thoughtsearch.generate import SimulatedGenerator
from thoughtsearch.graph import Action, NodeKind, new_process
from thoughtsearch.mcts import SearchPorts, run_search
from thoughtsearch.retrieval import DocumentQueue
from thoughtsearch.trace import (
    dump_trace,
    graph_to_record,
    load_trace,
    to_dot,
    trace_text,
    validate_trace,
)
from tests.conftest import ConstantScorer


def _diamond_graph():
    graph = new_process("q")
    t1 = graph.apply_transition(Action(0, 0), "t1")
    t2 = graph.apply_transition(Action(0, 0), "t2")
    t3 = graph.apply_transition(Action(t1, t2), "t3")
    for action, produced in graph.history:
        for parent in dict.fromkeys((action.first, action.second)):
            graph.stats[parent].children.append(produced)
    return graph


def test_single_node_trace():
    record = graph_to_record(new_process("just a question"))
    validate_trace(record)
    assert len(record["nodes"]) == 1
    assert record["history"] == []
    dot = to_dot(record)
    assert dot.count("shape=diamond") == 1
    assert "->" not in dot


def test_diamond_graph_four_nodes_four_edges():
    record = graph_to_record(_diamond_graph())
    dot = to_dot(record)
    assert sum(line.strip().startswith("n") and "[shape=" in line for line in dot.splitlines()) == 4
    assert dot.count("->") == 4  # duplicate (0,0) parents collapse to one edge


def test_trace_round_trip_is_byte_identical(tmp_path):
    ports = SearchPorts(generator=SimulatedGenerator(), scorer=ConstantScorer(0.3))
    outcome = run_search("a query", ports, EpisodeConfig(max_steps=4, stop_threshold=0.9))
    record = graph_to_record(outcome.graph, outcome)
    path = tmp_path / "trace.json"
    dump_trace(record, path)
    first = path.read_bytes()
    loaded = load_trace(path)
    dump_trace(loaded, path)
    assert path.read_bytes() == first
    assert trace_text(loaded) == first.decode("utf-8")


def test_trace_contains_every_node_and_history_entry(tmp_path):
    ports = SearchPorts(generator=SimulatedGenerator(), scorer=ConstantScorer(0.0))
    outcome = run_search("query text", ports, EpisodeConfig(max_steps=5, stop_threshold=0.9))
    record = graph_to_record(outcome.graph, outcome)
    assert len(record["nodes"]) == len(outcome.graph.nodes)
    assert len(record["history"]) == outcome.graph.generated_count
    assert record["outcome"]["terminated_by"] == "budget_exhausted"
    assert record["outcome"]["generator_calls"] == outcome.generator_calls


def test_validation_names_offending_field():
    record = graph_to_record(_diamond_graph())
    record["version"] = 99
    with pytest.raises(SchemaError, match="version"):
        validate_trace(record)
    record = graph_to_record(_diamond_graph())
    del record["nodes"][1]["step"]
    with pytest.raises(SchemaError, match=r"nodes\[1\].*step"):
        validate_trace(record)
    record = graph_to_record(_diamond_graph())
    record["history"][0].pop("produced")
    with pytest.raises(SchemaError, match=r"history\[0\].*produced"):
        validate_trace(record)
    record = graph_to_record(_diamond_graph())
    record["nodes"][0]["kind"] = "mystery"
    with pytest.raises(SchemaError, match="kind"):
        validate_trace(record)


@pytest.mark.parametrize(
    "where, name, value, message",
    [
        ("nodes", "id", True, r"nodes\[1\]\.id must be an integer, got True"),
        ("nodes", "step", True, r"nodes\[1\]\.step must be an integer"),
        ("nodes", "visits", True, r"nodes\[1\]\.visits must be an integer"),
        ("nodes", "score", math.nan, r"nodes\[1\]\.score must be a number, got nan"),
        ("nodes", "score", math.inf, r"nodes\[1\]\.score must be a number, got inf"),
        ("outcome", "best_thought", True, r"trace\.outcome\.best_thought must be an integer or null"),
    ],
)
def test_validation_applies_the_json_rule(where, name, value, message):
    """A boolean is no integer and a score must be finite."""
    ports = SearchPorts(generator=SimulatedGenerator(), scorer=ConstantScorer(0.0))
    outcome = run_search("q", ports, EpisodeConfig(max_steps=3, stop_threshold=0.9))
    record = graph_to_record(outcome.graph, outcome)
    entry = record[where] if where == "outcome" else record[where][1]
    entry[name] = value
    with pytest.raises(SchemaError, match=message):
        validate_trace(record)


@pytest.mark.parametrize("outcome", [[0], "done", None])
def test_outcome_must_be_an_object(outcome):
    record = {**graph_to_record(_diamond_graph()), "outcome": outcome}
    with pytest.raises(SchemaError, match="trace.outcome must be an object"):
        to_dot(record)


@pytest.mark.parametrize("name", ["first", "second", "produced"])
def test_validate_trace_rejects_history_naming_no_node(name):
    for value in (7, -1):
        record = graph_to_record(_diamond_graph())
        record["history"][1][name] = value
        with pytest.raises(SchemaError, match=rf"history\[1\]\.{name} is {value}, not a node id"):
            validate_trace(record)


def test_validate_trace_rejects_forward_parent_references():
    graph = new_process("q")
    graph.apply_transition(Action(0, 0), "t1")
    for parents, bad in (([0, 1], 1), ([0, -1], -1), ([77, 0], 77)):
        record = graph_to_record(graph)
        record["nodes"][1]["parents"] = parents
        with pytest.raises(SchemaError, match=rf"nodes\[1\]\.parents has {bad}, not an earlier node id"):
            validate_trace(record)
    record = graph_to_record(graph)
    record["nodes"][1]["id"] = 5
    with pytest.raises(SchemaError, match=r"nodes\[1\]\.id is 5, expected its position"):
        validate_trace(record)


@pytest.mark.parametrize("fmt", ["structured", "graphviz"])
def test_export_trace_rejects_dangling_references(tmp_path, capsys, fmt):
    """A parent or history id that names no node fails the export with
    exit 2 and the field, in both formats, before any output is written."""
    record = graph_to_record(_diamond_graph())
    record["nodes"][3]["parents"] = [1, 77]
    path = tmp_path / "trace.json"
    dump_trace(record, path)
    out = tmp_path / "out"
    assert main(["export-trace", "--trace", str(path), "--format", fmt, "--out", str(out)]) == 2
    assert r"nodes[3].parents has 77" in capsys.readouterr().err
    assert not out.exists()
    record = graph_to_record(_diamond_graph())
    record["history"][0]["produced"] = 999
    dump_trace(record, path)
    assert main(["export-trace", "--trace", str(path), "--format", fmt]) == 2
    captured = capsys.readouterr()
    assert "history[0].produced is 999" in captured.err and captured.out == ""


@pytest.mark.parametrize("best", [999, -1, 0, 1])
@pytest.mark.parametrize("fmt", ["structured", "graphviz"])
def test_export_trace_rejects_a_best_thought_naming_no_generated_node(tmp_path, capsys, fmt, best):
    """best_thought is null or a generated node's id: 999 and -1 name no
    node, 0 is the query and 1 a document."""
    graph = new_process("q")
    graph.add_document("d")
    graph.apply_transition(Action(0, 1), "t")
    assert [graph.node(i).kind for i in (0, 1)] == [NodeKind.QUERY, NodeKind.DOCUMENT]
    record = graph_to_record(graph)
    outcome = {"best_thought": None, "terminated_by": "budget_exhausted", "generator_calls": 1, "scorer_calls": 1}
    validate_trace({**record, "outcome": outcome})
    validate_trace({**record, "outcome": {**outcome, "best_thought": graph.generated_ids()[0]}})
    path = tmp_path / "trace.json"
    dump_trace({**record, "outcome": {**outcome, "best_thought": best}}, path)
    assert main(["export-trace", "--trace", str(path), "--format", fmt]) == 2
    captured = capsys.readouterr()
    assert f"trace.outcome.best_thought is {best}, not the id of a generated node" in captured.err
    assert captured.out == "" and "Traceback" not in captured.err


def test_best_thought_highlighted_in_dot():
    ports = SearchPorts(generator=SimulatedGenerator(), scorer=ConstantScorer(1.0))
    outcome = run_search("q", ports, EpisodeConfig(max_steps=3, stop_threshold=0.5))
    dot = to_dot(graph_to_record(outcome.graph, outcome))
    assert "color=red" in dot


# ---------------------------------------------------------------------------
# trace_text: canonical compact JSON
# ---------------------------------------------------------------------------


_tricky_text = st.sampled_from(
    ["", "%", "%s", "%(x)s", "%%", '"', "\\", "\x00", "\x1f\x7f", "\n\t", "\u2028", "é", "日本", "😀", "a\ud800b"]
)
_texts = _tricky_text | st.text(max_size=12)
_floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [-0.0, 0.0, math.nan, math.inf, -math.inf, 1e16, 1e-7, 5e-324, 1.7976931348623157e308]
)
_scalars = st.none() | st.booleans() | st.integers() | _floats | _texts
_json_values = st.recursive(
    _scalars,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(_texts, children, max_size=4),
    max_leaves=20,
)


@st.composite
def _random_records(draw):
    """A random graph's trace record, with random statistics, an optional
    outcome and arbitrary extra keys at the top level and on nodes."""
    graph = new_process(draw(_texts.filter(lambda t: t.strip())))
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.booleans()):
            graph.add_document(draw(_texts))
        else:
            ids = st.integers(0, len(graph.nodes) - 1)
            graph.apply_transition(Action(draw(ids), draw(ids)), draw(_texts))
    for stats in graph.stats.values():
        stats.visits = draw(st.integers(0, 50))
        stats.cumulative_score = draw(_floats)
    record = graph_to_record(graph)
    if draw(st.booleans()):
        record["outcome"] = {
            "best_thought": draw(st.integers(0, len(graph.nodes))),
            "terminated_by": draw(st.sampled_from(["threshold_reached", "budget_exhausted"])),
            "generator_calls": draw(st.integers(0, 100)),
            "scorer_calls": draw(st.integers(0, 100)),
        }
    # Nodes first: an extra top-level key may replace "nodes" itself.
    for node in record["nodes"]:
        node.update(draw(st.dictionaries(_texts, _json_values, max_size=2)))
    record.update(draw(st.dictionaries(_texts, _json_values, max_size=3)))
    return record


def _assert_canonical(value):
    """One line of JSON that reloads to a value written back byte for byte."""
    text = trace_text(value)
    assert text.count("\n") == 1 and text.endswith("\n")
    assert trace_text(json.loads(text)) == text


@given(_random_records())
@settings(max_examples=150, deadline=None)
def test_trace_text_is_canonical_on_records(record):
    _assert_canonical(record)


@given(_json_values)
@settings(max_examples=300, deadline=None)
def test_trace_text_is_canonical_on_json_values(value):
    _assert_canonical(value)


@given(_json_values)
@settings(max_examples=50, deadline=None)
def test_trace_text_rejects_bytes(value):
    with pytest.raises(TypeError):
        trace_text({"value": value, "bytes": b"raw"})


def test_trace_text_is_compact_and_sorted():
    assert trace_text({"b": [1, 2.5], "a": {"y": None, "x": True}, "c": "é"}) == (
        '{"a":{"x":true,"y":null},"b":[1,2.5],"c":"\\u00e9"}\n'
    )


def test_indented_parent_trace_loads_and_exports_compact(tmp_path, small_index):
    """Version-1 traces from older runs were written with indent=2; they
    still load, validate and export, and come back in compact form."""
    ports = SearchPorts(
        generator=SimulatedGenerator(),
        scorer=ConstantScorer(0.1),
        retriever=DocumentQueue(small_index, batch_size=2),
    )
    outcome = run_search("need:k0 q", ports, EpisodeConfig(max_steps=12, stop_threshold=0.9, p_doc=0.5))
    record = graph_to_record(outcome.graph, outcome)
    indented = tmp_path / "indented.json"
    indented.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    assert load_trace(indented) == record
    exported = tmp_path / "exported.json"
    assert main(["export-trace", "--trace", str(indented), "--out", str(exported)]) == 0
    assert exported.read_text(encoding="utf-8") == trace_text(record)
    assert exported.stat().st_size < indented.stat().st_size
