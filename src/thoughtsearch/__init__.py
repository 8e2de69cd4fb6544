"""Retrieval-grounded thought-graph planning engine.

Builds a directed graph of generated thoughts anchored in retrieved
documents, plans its growth with bandit tree search under pluggable scoring
models, and evaluates the resulting answers on QA benchmarks.
"""

from .graph import (
    Action,
    EpisodeConfig,
    NodeKind,
    NodeStats,
    Thought,
    ThoughtGraph,
    new_process,
)
from .mcts import (
    SearchOutcome,
    SearchPorts,
    Termination,
    backpropagate,
    expand,
    greedy_search,
    random_search,
    run_search,
    select,
    simulate,
    uct_value,
)

__version__ = "0.1.0"

__all__ = [
    "Action",
    "EpisodeConfig",
    "NodeKind",
    "NodeStats",
    "SearchOutcome",
    "SearchPorts",
    "Termination",
    "Thought",
    "ThoughtGraph",
    "backpropagate",
    "expand",
    "greedy_search",
    "new_process",
    "random_search",
    "run_search",
    "select",
    "simulate",
    "uct_value",
]
