"""Trace schema: round-trips, validation errors, graphviz rendering."""

from __future__ import annotations

import pytest

from thoughtsearch.errors import SchemaError
from thoughtsearch.generate import SimulatedGenerator
from thoughtsearch.graph import Action, EpisodeConfig, NodeKind, new_process
from thoughtsearch.mcts import RetrieverPorts, SearchPorts, run_search
from thoughtsearch.retrieval import DocumentQueue
from thoughtsearch.trace import (
    dump_trace,
    graph_to_record,
    load_trace,
    record_to_graph,
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


def test_record_to_graph_reconstructs(tmp_path):
    graph = _diamond_graph()
    graph.stats[3].visits = 1
    graph.stats[3].cumulative_score = 0.5
    record = graph_to_record(graph)
    rebuilt = record_to_graph(record)
    assert rebuilt.nodes == graph.nodes
    assert rebuilt.history == graph.history
    assert rebuilt.stats[3].cumulative_score == 0.5


def test_record_to_graph_rebuilds_thought_ids(small_index):
    ports = SearchPorts(
        generator=SimulatedGenerator(),
        scorer=ConstantScorer(0.0),
        retriever=RetrieverPorts(index=small_index, queue=DocumentQueue(batch_size=2)),
    )
    outcome = run_search("q", ports, EpisodeConfig(max_steps=8, stop_threshold=0.9, p_doc=0.6))
    graph = outcome.graph
    assert any(node.kind == NodeKind.DOCUMENT for node in graph.nodes.values())
    rebuilt = record_to_graph(graph_to_record(graph, outcome))
    assert rebuilt.thought_ids == graph.thought_ids == sorted(
        nid for nid, node in graph.nodes.items() if node.kind != NodeKind.DOCUMENT
    )


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


def test_best_thought_highlighted_in_dot():
    ports = SearchPorts(generator=SimulatedGenerator(), scorer=ConstantScorer(1.0))
    outcome = run_search("q", ports, EpisodeConfig(max_steps=3, stop_threshold=0.5))
    dot = to_dot(graph_to_record(outcome.graph, outcome))
    assert "color=red" in dot
