"""Planners over the thought graph.

Every planner runs the same episode (_search): add one thought per step
until the newest one clears the stop threshold or the generated-node budget
is spent. A planner only supplies the step. run_search's step is Selection
-> Expansion -> Simulation -> Backpropagation; greedy_search's applies the
argmax pair under a pairwise reward estimator; random_search's is the
uniform-pairing control used by experiments.

Each search owns its graph, queue, and RNG. Ports (generator, index,
scorer) may be shared across concurrent searches when they are themselves
safe to share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import compress, count
from typing import Callable, Protocol

import numpy as np

from .config import EpisodeConfig
from .errors import ConfigError, EngineError, SearchError
from .generate import CountingGenerator, Generator, counting
from .graph import ROOT_ID, Action, ThoughtGraph, new_process
from .retrieval import DocumentQueue


_BIT_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


class Termination(str, Enum):
    THRESHOLD_REACHED = "threshold_reached"
    BUDGET_EXHAUSTED = "budget_exhausted"


class Scorer(Protocol):
    """Scores one freshly generated node; must return a value in [0, 1]."""

    def score(self, graph: ThoughtGraph, node_id: int, generator: Generator) -> float: ...


@dataclass
class SearchPorts:
    generator: Generator
    scorer: Scorer
    retriever: DocumentQueue | None = None


@dataclass
class SearchOutcome:
    """What one search did, filled in as it runs (a failure's is partial)."""

    graph: ThoughtGraph
    best_thought: int | None = None
    terminated_by: Termination = Termination.BUDGET_EXHAUSTED
    generator_calls: int = 0  # calls this search's planner and scorer asked for
    backend_calls: int = 0  # of those, the ones the memo did not answer
    scorer_calls: int = 0
    simulation_scores: dict[int, float] = field(default_factory=dict)


def uct_value(q: float, n: int, parent_n: int, c: float) -> float:
    """Mean score plus the exploration bonus c * sqrt(ln(parent_n) / n)."""
    if n < 1:
        raise ConfigError(f"uct_value requires n >= 1, got {n}")
    if parent_n < 1:
        raise ConfigError(f"uct_value requires parent_n >= 1, got {parent_n}")
    return q / n + c * math.sqrt(math.log(parent_n) / n)


def select(graph: ThoughtGraph, exploration_c: float = math.sqrt(2.0)) -> int:
    """Descend from the root to a childless node, greedily maximizing UCT.

    Document nodes never appear in children lists, so the walk can only visit
    the query root and generated nodes. Ties break toward the lowest node id.
    """
    node_id = ROOT_ID
    while graph.stats[node_id].children:
        parent_visits = graph.stats[node_id].visits
        best_child = None
        best_value = -math.inf
        for child in graph.stats[node_id].children:
            stats = graph.stats[child]
            value = uct_value(
                stats.cumulative_score, stats.visits, parent_visits, exploration_c
            )
            if value > best_value or (value == best_value and child < best_child):
                best_child, best_value = child, value
        node_id = best_child
    return node_id


def _record_child(graph: ThoughtGraph, action: Action, child: int) -> None:
    graph.stats[action.first].children.append(child)
    if action.second != action.first:
        graph.stats[action.second].children.append(child)


def _generate_from_pair(
    graph: ThoughtGraph, action: Action, generator: Generator
) -> int:
    first, second = graph.node(action.first), graph.node(action.second)
    text = generator.generate_thought(
        [(first.text, first.kind), (second.text, second.kind)], graph.query_text
    )
    child = graph.apply_transition(action, text)
    _record_child(graph, action, child)
    return child


def _best_generated(graph: ThoughtGraph) -> int | None:
    """Highest mean score among generated nodes; ties go to the lowest id."""
    best, best_score = None, -math.inf
    for node_id in graph.generated_ids():
        score = graph.stats[node_id].mean_score
        if score > best_score:
            best, best_score = node_id, score
    return best


def _query_provider(graph: ThoughtGraph, retriever: DocumentQueue | None, generator: Generator):
    """Refill queries: either the raw question or an LLM-formulated query
    seeded with the best-scored thought so far."""
    if retriever is None or retriever.query_mode != "formulated":
        return lambda: graph.query_text

    def formulated() -> str:
        best = _best_generated(graph)
        seed_text = graph.node(best).text if best is not None else graph.query_text
        return generator.formulate_retrieval_query(seed_text, graph.query_text)

    return formulated


def _document_partner(
    graph: ThoughtGraph,
    retriever: DocumentQueue | None,
    rng: np.random.Generator,
    p_doc: float,
    query_provider,
) -> int | None:
    """With probability p_doc, add the next queued document (a refill
    retrieval fires when the queue is empty) and return its id. None when
    there is no retriever, the draw misses, or the corpus is exhausted."""
    if retriever is None or not rng.random() < p_doc:
        return None
    doc = retriever.next(query_provider)
    return None if doc is None else graph.add_document(doc.text)


def expand(
    graph: ThoughtGraph,
    selected: int,
    retriever: DocumentQueue | None,
    generator: Generator,
    rng: np.random.Generator,
    config: EpisodeConfig,
    query_provider: Callable[[], str],
) -> int:
    """Pair the selected node with a document or an existing thought.

    With probability p_doc the partner is the next queued document;
    otherwise, or when the corpus is exhausted, up to thought_sample_size
    candidate partners are sampled uniformly from the non-document nodes and
    the one with the highest current mean score wins. query_provider phrases
    each refill retrieval.
    """
    graph.node(selected)
    partner = _document_partner(graph, retriever, rng, config.p_doc, query_provider)
    if partner is None:
        candidates = graph.thought_ids
        if len(candidates) > config.thought_sample_size:
            picked = rng.choice(
                len(candidates), size=config.thought_sample_size, replace=False
            )
            candidates = sorted(candidates[i] for i in picked)
        best_score = -math.inf
        for nid in candidates:
            score = graph.stats[nid].mean_score
            if score > best_score:
                partner, best_score = nid, score
    action = Action(first=selected, second=partner)
    return _generate_from_pair(graph, action, generator)


def _install_score(graph: ThoughtGraph, node_id: int, score: float) -> float:
    """Clamp a fresh node's score into [0, 1] and make it its only visit."""
    score = min(1.0, max(0.0, float(score)))
    stats = graph.stats[node_id]
    stats.visits = 1
    stats.cumulative_score = score
    return score


def simulate(graph: ThoughtGraph, node_id: int, scorer: Scorer, generator: Generator) -> float:
    """Score a fresh node and install the result as its initial statistics."""
    return _install_score(graph, node_id, scorer.score(graph, node_id, generator))


def backpropagate(graph: ThoughtGraph, node_id: int, score: float) -> None:
    """Credit every distinct proper ancestor exactly once.

    The ancestors are the set bits of the node's mask (see
    ThoughtGraph.ancestors): document nodes (they carry no statistics) are
    not in it, and a shared ancestor is one bit, so a diamond updates the
    root once, not once per path.
    """
    graph.node(node_id)  # an unknown id raises GraphError
    # Bit i of the mask is character i of its reversed binary string.
    flags = bin(graph.ancestors[node_id])[:1:-1].encode().translate(_BIT_FLAGS)
    stats = graph.stats
    for ancestor in compress(count(), flags):
        entry = stats[ancestor]
        entry.visits += 1
        entry.cumulative_score += score


# One step adds one thought: (graph, counting generator, refill-query
# provider) -> (new node id, its score in [0, 1], scorer calls spent).
Step = Callable[[ThoughtGraph, CountingGenerator, Callable[[], str]], tuple[int, float, int]]


def _search(query: str, ports: SearchPorts, config: EpisodeConfig, step: Step) -> SearchOutcome:
    """The episode every planner shares: add one thought per step until one
    scores at least the stop threshold (it is the answer) or the budget is
    spent (the best mean score among generated nodes is). The outcome counts
    the ports' generator's calls when it already counts (every engine path
    hands it the example's fresh ledger), a fresh CountingGenerator's
    otherwise. A failure raises SearchError carrying the outcome so far."""
    outcome = SearchOutcome(new_process(query))
    graph = outcome.graph
    generator = counting(ports.generator)
    provider = _query_provider(graph, ports.retriever, generator)
    try:
        while graph.generated_count < config.max_steps:  # the one budget check
            child, score, calls = step(graph, generator, provider)
            outcome.scorer_calls += calls
            outcome.simulation_scores[child] = score
            if score >= config.stop_threshold:
                outcome.terminated_by, outcome.best_thought = Termination.THRESHOLD_REACHED, child
                break
    except EngineError as exc:
        message = f"search failed after {graph.generated_count} thoughts: {exc}"
        raise SearchError(message, outcome) from exc
    finally:
        outcome.generator_calls, outcome.backend_calls = generator.calls, generator.backend_calls
    if outcome.best_thought is None:  # max_steps >= 1 guarantees at least one thought
        outcome.best_thought = _best_generated(graph)
    return outcome


def run_search(
    query: str,
    ports: SearchPorts,
    config: EpisodeConfig,
    rng: np.random.Generator | None = None,
) -> SearchOutcome:
    """Full bandit search. Deterministic given (query, ports, config, seed)."""
    rng = rng if rng is not None else np.random.default_rng(0)

    def step(graph, generator, provider):
        selected = select(graph, config.exploration_c)
        child = expand(graph, selected, ports.retriever, generator, rng, config, provider)
        score = simulate(graph, child, ports.scorer, generator)
        backpropagate(graph, child, score)
        return child, score, 1

    return _search(query, ports, config, step)


def random_search(
    query: str,
    ports: SearchPorts,
    config: EpisodeConfig,
    rng: np.random.Generator | None = None,
) -> SearchOutcome:
    """Uniform-random pairing control: same termination contract as
    run_search, no score guidance anywhere."""
    rng = rng if rng is not None else np.random.default_rng(0)

    def step(graph, generator, provider):
        pool = graph.thought_ids
        selected = pool[rng.choice(len(pool))]
        partner = _document_partner(graph, ports.retriever, rng, config.p_doc, provider)
        if partner is None:
            partner = pool[rng.choice(len(pool))]
        child = _generate_from_pair(graph, Action(selected, partner), generator)
        return child, simulate(graph, child, ports.scorer, generator), 1

    return _search(query, ports, config, step)


def greedy_search(
    query: str,
    ports: SearchPorts,
    config: EpisodeConfig,
    rng: np.random.Generator | None = None,
) -> SearchOutcome:
    """Always apply the argmax pair under the pairwise estimator.

    Candidates are the existing non-document nodes plus the queue's current
    head batch. Each unordered pair is evaluated once, in (lowest id, next id)
    order, so ties deterministically pick the lexicographically smallest pair.
    The chosen action is invariant under any strictly increasing transform of
    the estimator's scores.
    """
    pair_scorer, retriever = ports.scorer, ports.retriever
    if not hasattr(pair_scorer, "score_pairs"):
        raise ConfigError("greedy_search requires a pairwise scorer port")

    def step(graph, generator, provider):
        nodes, docs = graph.thought_ids, []
        if retriever is not None:
            retriever.refill_if_empty(provider)
            docs = list(retriever.pending)
        texts = [graph.node(nid).text for nid in nodes] + [doc.text for doc in docs]
        pairs = [(i, j) for i in range(len(texts)) for j in range(i + 1, len(texts))]
        if not pairs:  # only the root exists and no documents are available
            score = pair_scorer.score_pairs([(graph.query_text, graph.query_text)])[0]
            child = _generate_from_pair(graph, Action(ROOT_ID, ROOT_ID), generator)
            return child, _install_score(graph, child, score), 1
        scores = pair_scorer.score_pairs([(texts[i], texts[j]) for i, j in pairs])
        best_idx = max(range(len(pairs)), key=lambda k: (scores[k], -k))

        n_nodes = len(nodes)

        def realize(i: int) -> int:
            if i < n_nodes:
                return nodes[i]
            doc = docs[i - n_nodes]
            retriever.take(doc)
            return graph.add_document(doc.text)

        first, second = pairs[best_idx]
        child = _generate_from_pair(graph, Action(realize(first), realize(second)), generator)
        return child, _install_score(graph, child, scores[best_idx]), len(pairs)

    return _search(query, ports, config, step)
