"""Thought-graph state machine: nodes, pairing actions, transitions.

A graph starts from a single query node. Retrieval injects parentless
document nodes; every generated node records the ordered pair of nodes it
was built from. Node ids are dense integers in creation order and double as
steps, so parent references always point strictly backwards and the graph is
acyclic by construction. This module is the pure environment: no policy, no
scoring, no LLM access.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .errors import GraphError

ROOT_ID = 0


class NodeKind(str, Enum):
    QUERY = "query"
    GENERATED = "generated"
    DOCUMENT = "document"


@dataclass(frozen=True)
class Thought:
    """One node of the reasoning graph: text plus provenance."""

    id: int
    text: str
    kind: NodeKind
    parents: tuple[int, ...]  # () for query/document, exactly 2 for generated


@dataclass(frozen=True)
class Action:
    """An ordered pair of existing nodes to combine into a new thought."""

    first: int
    second: int


@dataclass
class NodeStats:
    """Per-node search bookkeeping. Owned by the planner, stored here."""

    visits: int = 0
    cumulative_score: float = 0.0
    children: list[int] = field(default_factory=list)

    @property
    def mean_score(self) -> float:
        return self.cumulative_score / self.visits if self.visits else 0.0


@dataclass
class ThoughtGraph:
    """The full search state: node map, planner stats, transition history.

    Single-owner mutable value; never mutate from two execution contexts.
    """

    query_text: str
    nodes: dict[int, Thought] = field(default_factory=dict)
    stats: dict[int, NodeStats] = field(default_factory=dict)
    history: list[tuple[Action, int]] = field(default_factory=list)
    # Non-document node ids in creation (so ascending) order: the planners'
    # pairing candidates, kept here so no step rescans every node.
    thought_ids: list[int] = field(default_factory=list)
    # ancestors[i] has bit j set iff non-document node j is a proper ancestor
    # of node i, so backpropagation reads the set instead of walking parent
    # links. Node i's mask holds at most i bits: N**2 / 8 bytes at most in all.
    ancestors: list[int] = field(default_factory=list, repr=False)

    @property
    def generated_count(self) -> int:
        return len(self.history)

    def node(self, node_id: int) -> Thought:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise GraphError(f"unknown node id {node_id}") from None

    def generated_ids(self) -> list[int]:
        return [nid for _, nid in self.history]

    def _append(self, text: str, kind: NodeKind, parents: tuple[int, ...]) -> int:
        node_id = len(self.nodes)
        self.nodes[node_id] = Thought(id=node_id, text=text, kind=kind, parents=parents)
        self.stats[node_id] = NodeStats()
        if kind != NodeKind.DOCUMENT:
            self.thought_ids.append(node_id)
        self.ancestors.append(self.ancestor_mask(parents))
        return node_id

    def ancestor_mask(self, parents: tuple[int, ...]) -> int:
        """The union of the parents' masks and their own bits, documents
        excluded (they carry no statistics and have no parents)."""
        mask = 0
        for parent in parents:
            if self.nodes[parent].kind != NodeKind.DOCUMENT:
                mask |= self.ancestors[parent] | 1 << parent
        return mask

    def add_document(self, text: str) -> int:
        """Inject a retrieved document as a parentless source node."""
        return self._append(text, NodeKind.DOCUMENT, ())

    def apply_transition(self, action: Action, new_text: str) -> int:
        """Append the generated node produced by combining an action's pair.

        Existing nodes are never mutated; the graph is append-only.
        """
        for ref in (action.first, action.second):
            if ref not in self.nodes:
                raise GraphError(f"action references unknown node id {ref}")
        node_id = self._append(
            new_text, NodeKind.GENERATED, (action.first, action.second)
        )
        self.history.append((action, node_id))
        return node_id


def new_process(query: str) -> ThoughtGraph:
    """Start a fresh graph containing only the query node."""
    if not query.strip():
        raise GraphError("query must be non-empty")
    graph = ThoughtGraph(query_text=query)
    graph._append(query, NodeKind.QUERY, ())
    return graph
