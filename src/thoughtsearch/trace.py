"""Thought-graph trace records: a versioned structured-text schema plus a
graphviz rendering, so every answer's full reasoning graph stays inspectable
after the fact.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import SchemaError
from .graph import Action, NodeKind, NodeStats, Thought, ThoughtGraph
from .mcts import SearchOutcome

TRACE_VERSION = 1

_NODE_FIELDS = {
    "id": int,
    "kind": str,
    "text": str,
    "parents": list,
    "step": int,
    "score": (int, float),
    "visits": int,
}
_HISTORY_FIELDS = {"first": int, "second": int, "produced": int}


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
                "step": node.step,
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
    """Schema check naming the offending field on failure."""
    if not isinstance(record, dict):
        raise SchemaError("trace root must be an object")
    version = record.get("version")
    if version != TRACE_VERSION:
        raise SchemaError(f"unsupported trace version {version!r} in field 'version'")
    for top in ("query", "nodes", "history"):
        if top not in record:
            raise SchemaError(f"trace missing field {top!r}")
    for i, node in enumerate(record["nodes"]):
        for name, types in _NODE_FIELDS.items():
            if name not in node:
                raise SchemaError(f"nodes[{i}] missing field {name!r}")
            if not isinstance(node[name], types) and not (
                name == "parents" and isinstance(node[name], list)
            ):
                raise SchemaError(f"nodes[{i}].{name} has wrong type")
        if node["kind"] not in {k.value for k in NodeKind}:
            raise SchemaError(f"nodes[{i}].kind has unknown value {node['kind']!r}")
    for i, entry in enumerate(record["history"]):
        for name in _HISTORY_FIELDS:
            if name not in entry:
                raise SchemaError(f"history[{i}] missing field {name!r}")
    return record


def dump_trace(record: dict, path: str | Path) -> None:
    Path(path).write_text(trace_text(record), encoding="utf-8")


def trace_text(record: dict) -> str:
    return json.dumps(record, indent=2, sort_keys=True) + "\n"


def load_trace(path: str | Path) -> dict:
    try:
        record = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"cannot read trace file {path}: {exc}") from exc
    return validate_trace(record)


def record_to_graph(record: dict) -> ThoughtGraph:
    """Rebuild the graph (with its stored statistics) from a trace record."""
    validate_trace(record)
    graph = ThoughtGraph(query_text=record["query"])
    for node in record["nodes"]:
        graph.nodes[node["id"]] = Thought(
            id=node["id"],
            text=node["text"],
            kind=NodeKind(node["kind"]),
            parents=tuple(node["parents"]),
            step=node["step"],
        )
        graph.stats[node["id"]] = NodeStats(
            visits=node["visits"], cumulative_score=node["score"]
        )
    graph.thought_ids = sorted(
        nid for nid, node in graph.nodes.items() if node.kind != NodeKind.DOCUMENT
    )
    for entry in record["history"]:
        action = Action(first=entry["first"], second=entry["second"])
        graph.history.append((action, entry["produced"]))
        for parent in dict.fromkeys((entry["first"], entry["second"])):
            graph.stats[parent].children.append(entry["produced"])
    return graph


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
