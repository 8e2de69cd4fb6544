"""Core state machine: construction, transitions, replay."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thoughtsearch.errors import GraphError
from thoughtsearch.graph import Action, NodeKind, new_process


def test_new_process_single_query_node():
    graph = new_process("is the sky blue")
    assert len(graph.nodes) == 1
    assert graph.history == []
    root = graph.node(0)
    assert root.kind == NodeKind.QUERY
    assert root.id == 0
    assert root.parents == ()


def test_new_process_rejects_empty_query():
    with pytest.raises(GraphError):
        new_process("")
    with pytest.raises(GraphError):
        new_process("   ")


@given(st.text(min_size=1).filter(lambda s: s.strip()))
def test_new_process_query_round_trip(query):
    assert new_process(query).query_text == query


def test_smallest_legal_transition_is_self_pair():
    graph = new_process("q")
    node_id = graph.apply_transition(Action(0, 0), "t1")
    node = graph.node(node_id)
    assert node.kind == NodeKind.GENERATED
    assert node.parents == (0, 0)
    assert node.id == 1
    assert graph.history == [(Action(0, 0), node_id)]


def test_transition_rejects_unknown_node():
    graph = new_process("q")
    with pytest.raises(GraphError):
        graph.apply_transition(Action(0, 99), "t")


def test_documents_are_parentless_and_get_dense_steps():
    graph = new_process("q")
    doc = graph.add_document("some chunk")
    assert graph.node(doc).kind == NodeKind.DOCUMENT
    assert graph.node(doc).parents == ()
    assert graph.node(doc).id == doc == 1
    gen = graph.apply_transition(Action(0, doc), "t")
    assert graph.node(gen).id == gen == 2
    # history tracks generated nodes only
    assert graph.generated_count == 1


def test_append_only_transition():
    graph = new_process("q")
    graph.add_document("d")
    before = dict(graph.nodes)
    new_id = graph.apply_transition(Action(0, 1), "t")
    after = dict(graph.nodes)
    assert set(after) - set(before) == {new_id}
    for node_id, node in before.items():
        assert after[node_id] is node


@st.composite
def _graph_ops(draw):
    # Sequence of transitions over whatever nodes exist so far, plus documents.
    n_ops = draw(st.integers(min_value=1, max_value=25))
    ops = []
    n_nodes = 1
    for _ in range(n_ops):
        if draw(st.booleans()):
            ops.append(("doc", None))
        else:
            first = draw(st.integers(min_value=0, max_value=n_nodes - 1))
            second = draw(st.integers(min_value=0, max_value=n_nodes - 1))
            ops.append(("gen", (first, second)))
        n_nodes += 1
    return ops


@given(_graph_ops())
@settings(max_examples=100)
def test_acyclicity_parents_precede_children(ops):
    graph = new_process("q")
    for kind, payload in ops:
        if kind == "doc":
            graph.add_document("chunk")
        else:
            graph.apply_transition(Action(*payload), "t")
    for node in graph.nodes.values():
        for parent in node.parents:
            assert graph.node(parent).id < node.id
    # Kahn-style topological sort must consume every node.
    remaining = {nid: set(node.parents) for nid, node in graph.nodes.items()}
    seen = set()
    while remaining:
        ready = [nid for nid, deps in remaining.items() if deps <= seen]
        assert ready, "cycle detected"
        for nid in ready:
            seen.add(nid)
            del remaining[nid]


@given(_graph_ops())
@settings(max_examples=50)
def test_history_replay_reproduces_graph(ops):
    graph = new_process("q")
    for kind, payload in ops:
        if kind == "doc":
            graph.add_document("chunk")
        else:
            graph.apply_transition(Action(*payload), "t")

    # Replay documents and transitions in creation order on a fresh graph.
    replayed = new_process(graph.query_text)
    action_for = {produced: action for action, produced in graph.history}
    for node in sorted(graph.nodes.values(), key=lambda n: n.id):
        if node.kind == NodeKind.DOCUMENT:
            replayed.add_document(node.text)
        elif node.kind == NodeKind.GENERATED:
            replayed.apply_transition(action_for[node.id], node.text)
    assert replayed.nodes == graph.nodes
    assert replayed.history == graph.history

