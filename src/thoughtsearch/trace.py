"""Thought-graph trace records: a versioned structured-text schema plus a
graphviz rendering, so every answer's full reasoning graph stays inspectable
after the fact.
"""

from __future__ import annotations

from pathlib import Path

from .errors import SchemaError, canonical_json, is_json, json_field, read_json_object
from .graph import NodeKind, ThoughtGraph
from .mcts import SearchOutcome

TRACE_VERSION = 1

_NODE_FIELDS = {
    "id": (int,),
    "kind": (str,),
    "text": (str,),
    "parents": (list,),
    "step": (int,),
    "score": (float,),
    "visits": (int,),
}
_HISTORY_FIELDS = {"first": (int,), "second": (int,), "produced": (int,)}
_OUTCOME_FIELDS = {
    "best_thought": (int, type(None)),
    "terminated_by": (str,),
    "generator_calls": (int,),
    "scorer_calls": (int,),
}


def graph_to_record(graph: ThoughtGraph, outcome: SearchOutcome | None = None) -> dict:
    record = {
        "version": TRACE_VERSION,
        "query": graph.query_text,
        "nodes": [
            {
                "id": node.id,
                "kind": node.kind.value,
                "text": node.text,
                "parents": list(node.parents),
                "step": node.id,
                "score": graph.stats[node.id].cumulative_score,
                "visits": graph.stats[node.id].visits,
            }
            for node in sorted(graph.nodes.values(), key=lambda n: n.id)
        ],
        "history": [
            {"first": action.first, "second": action.second, "produced": produced}
            for action, produced in graph.history
        ],
    }
    if outcome is not None:
        record["outcome"] = {
            "best_thought": outcome.best_thought,
            "terminated_by": outcome.terminated_by.value,
            "generator_calls": outcome.generator_calls,
            "scorer_calls": outcome.scorer_calls,
        }
    return record


def validate_trace(record: dict) -> dict:
    """Schema check naming the offending field on failure. Node ids are
    positions, parents earlier nodes, and history entries name nodes, as in
    the graph a search builds."""
    version = json_field(record, "version", (int,), "trace")
    if version != TRACE_VERSION:
        raise SchemaError(f"unsupported trace version {version!r} in field 'version'")
    json_field(record, "query", (str,), "trace")
    nodes = json_field(record, "nodes", (list,), "trace")
    for i, node in enumerate(nodes):
        for key, kinds in _NODE_FIELDS.items():
            json_field(node, key, kinds, f"nodes[{i}]")
        if node["kind"] not in {k.value for k in NodeKind}:
            raise SchemaError(f"nodes[{i}].kind has unknown value {node['kind']!r}")
        if not all(is_json(parent, int) for parent in node["parents"]):
            raise SchemaError(f"nodes[{i}].parents must hold integer node ids")
        if node["id"] != i:
            raise SchemaError(f"nodes[{i}].id is {node['id']}, expected its position")
        for parent in node["parents"]:
            if not 0 <= parent < i:
                raise SchemaError(f"nodes[{i}].parents has {parent}, not an earlier node id")
    for i, entry in enumerate(json_field(record, "history", (list,), "trace")):
        for key, kinds in _HISTORY_FIELDS.items():
            if not 0 <= json_field(entry, key, kinds, f"history[{i}]") < len(nodes):
                raise SchemaError(f"history[{i}].{key} is {entry[key]}, not a node id")
    if "outcome" in record:
        for key, kinds in _OUTCOME_FIELDS.items():
            json_field(record["outcome"], key, kinds, "trace.outcome")
        best = record["outcome"]["best_thought"]
        if best is not None and not (
            0 <= best < len(nodes) and nodes[best]["kind"] == NodeKind.GENERATED.value
        ):
            raise SchemaError(f"trace.outcome.best_thought is {best}, not the id of a generated node")
    return record


def dump_trace(record: dict, path: str | Path) -> None:
    Path(path).write_text(trace_text(record), encoding="utf-8")


def trace_text(record: dict) -> str:
    """The record as canonical compact JSON: sorted keys, no whitespace, one
    trailing newline."""
    return canonical_json(record) + "\n"


def load_trace(path: str | Path) -> dict:
    return validate_trace(read_json_object(path, "trace"))


_SHAPES = {"query": "diamond", "document": "box", "generated": "ellipse"}


def _dot_escape(text: str, limit: int = 40) -> str:
    clipped = text if len(text) <= limit else text[: limit - 3] + "..."
    return clipped.replace("\\", "\\\\").replace('"', '\\"')


def to_dot(record: dict) -> str:
    """Graphviz digraph source: one node per thought, one edge per distinct
    parent link, scores and visit counts in the labels."""
    validate_trace(record)
    best = record.get("outcome", {}).get("best_thought")
    lines = ["digraph thoughts {", "  rankdir=TB;", "  node [fontsize=10];"]
    for node in record["nodes"]:
        label = (
            f"{node['id']} {node['kind']}\\n"
            f"score={node['score']:.3f} visits={node['visits']}\\n"
            f"{_dot_escape(node['text'])}"
        )
        extra = ", penwidth=2, color=red" if node["id"] == best else ""
        lines.append(
            f'  n{node["id"]} [shape={_SHAPES[node["kind"]]}, label="{label}"{extra}];'
        )
    for node in record["nodes"]:
        for parent in dict.fromkeys(node["parents"]):
            lines.append(f"  n{parent} -> n{node['id']};")
    lines.append("}")
    return "\n".join(lines) + "\n"
