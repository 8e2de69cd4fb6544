"""Thought-graph state machine: nodes, pairing actions, transitions, episodic return.

A graph starts from a single query node. Retrieval injects parentless
document nodes; every generated node records the ordered pair of nodes it
was built from. Node ids are dense integers in creation order and double as
steps, so parent references always point strictly backwards and the graph is
acyclic by construction. This module is the pure environment: no policy, no
scoring, no LLM access.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from .errors import BudgetError, ConfigError, GraphError

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
    step: int


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
class EpisodeConfig:
    """Knobs for one search episode. Bounds are enforced on construction."""

    max_steps: int = 10
    gamma: float = 1.0
    stop_threshold: float = 0.5
    exploration_c: float = math.sqrt(2.0)
    p_doc: float = 0.5
    doc_batch_size: int = 2
    thought_sample_size: int = 5

    def __post_init__(self):
        if self.max_steps < 1:
            raise ConfigError(f"max_steps must be >= 1, got {self.max_steps}")
        if not 0.0 < self.gamma <= 1.0:
            raise ConfigError(f"gamma must be in (0, 1], got {self.gamma}")
        if self.exploration_c < 0.0:
            raise ConfigError(f"exploration_c must be >= 0, got {self.exploration_c}")
        if not 0.0 <= self.p_doc <= 1.0:
            raise ConfigError(f"p_doc must be in [0, 1], got {self.p_doc}")
        if self.doc_batch_size < 1:
            raise ConfigError(f"doc_batch_size must be >= 1, got {self.doc_batch_size}")
        if self.thought_sample_size < 1:
            raise ConfigError(
                f"thought_sample_size must be >= 1, got {self.thought_sample_size}"
            )


@dataclass
class ThoughtGraph:
    """The full search state: node map, planner stats, transition history.

    Single-owner mutable value; never mutate from two execution contexts.
    """

    query_text: str
    max_generated: int | None = None
    nodes: dict[int, Thought] = field(default_factory=dict)
    stats: dict[int, NodeStats] = field(default_factory=dict)
    history: list[tuple[Action, int]] = field(default_factory=list)
    # Non-document node ids in creation (so ascending) order: the planners'
    # pairing candidates, kept here so no step rescans every node.
    thought_ids: list[int] = field(default_factory=list)

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
        self.nodes[node_id] = Thought(
            id=node_id, text=text, kind=kind, parents=parents, step=node_id
        )
        self.stats[node_id] = NodeStats()
        if kind != NodeKind.DOCUMENT:
            self.thought_ids.append(node_id)
        return node_id

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
        if self.max_generated is not None and self.generated_count >= self.max_generated:
            raise BudgetError(
                f"step budget exhausted: {self.max_generated} generated nodes"
            )
        node_id = self._append(
            new_text, NodeKind.GENERATED, (action.first, action.second)
        )
        self.history.append((action, node_id))
        return node_id


def new_process(query: str, max_generated: int | None = None) -> ThoughtGraph:
    """Start a fresh graph containing only the query node."""
    if not query.strip():
        raise GraphError("query must be non-empty")
    graph = ThoughtGraph(query_text=query, max_generated=max_generated)
    graph._append(query, NodeKind.QUERY, ())
    return graph


def episodic_return(reward_at_end: float, horizon: int, gamma: float) -> float:
    """Discounted return of an episode that pays out only at the final step."""
    if horizon < 1:
        raise ConfigError(f"horizon must be >= 1, got {horizon}")
    if not 0.0 < gamma <= 1.0:
        raise ConfigError(f"gamma must be in (0, 1], got {gamma}")
    return gamma**horizon * reward_at_end
