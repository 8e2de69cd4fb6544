"""Planners over the thought graph.

run_search loops Selection -> Expansion -> Simulation -> Backpropagation
until the newest thought clears the stop threshold or the generated-node
budget is spent. greedy_search skips the bandit machinery and always applies
the argmax pair under a pairwise reward estimator. random_search is the
uniform-pairing control used by experiments.

One search is one sequential loop; each search owns its graph, queue, and
RNG. Ports (generator, index, scorer) may be shared across concurrent
searches when they are themselves safe to share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import compress, count
from typing import Protocol, Sequence

import numpy as np

from .errors import ConfigError, EngineError, ExhaustedCorpusError, SearchError
from .generate import CountingGenerator, Generator
from .graph import (
    ROOT_ID,
    Action,
    EpisodeConfig,
    NodeKind,
    ThoughtGraph,
    new_process,
)
from .retrieval import CorpusIndex, DocumentQueue, consume_pending, queue_next, refill_if_empty


_BIT_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


class Termination(str, Enum):
    THRESHOLD_REACHED = "threshold_reached"
    BUDGET_EXHAUSTED = "budget_exhausted"


class Scorer(Protocol):
    """Scores one freshly generated node; must return a value in [0, 1]."""

    def score(self, graph: ThoughtGraph, node_id: int, generator: Generator) -> float: ...


class PairScorer(Protocol):
    """Predicts the reward of combining two texts (the greedy planner's port)."""

    def score_pairs(self, pairs: Sequence[tuple[str, str]]) -> list[float]: ...


@dataclass
class RetrieverPorts:
    """Document supply for one search; query_mode picks how refills are phrased."""

    index: CorpusIndex
    queue: DocumentQueue
    query_mode: str = "raw"  # "raw" | "formulated"


@dataclass
class SearchPorts:
    generator: Generator
    scorer: Scorer
    retriever: RetrieverPorts | None = None


@dataclass
class SearchOutcome:
    graph: ThoughtGraph
    best_thought: int
    terminated_by: Termination
    generator_calls: int
    scorer_calls: int
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


def _query_provider(graph: ThoughtGraph, ports: SearchPorts):
    """Refill queries: either the raw question or an LLM-formulated query
    seeded with the best-scored thought so far."""

    def provider() -> str:
        if ports.retriever is not None and ports.retriever.query_mode == "formulated":
            best = _best_generated(graph)
            seed_text = graph.node(best).text if best is not None else graph.query_text
            return ports.generator.formulate_retrieval_query(seed_text, graph.query_text)
        return graph.query_text

    return provider


def expand(
    graph: ThoughtGraph,
    selected: int,
    retriever: RetrieverPorts | None,
    generator: Generator,
    rng: np.random.Generator,
    config: EpisodeConfig,
    query_provider=None,
) -> int:
    """Pair the selected node with a document or an existing thought.

    With probability p_doc the partner is the next queued document (a refill
    retrieval fires when the queue is empty); otherwise up to
    thought_sample_size candidate partners are sampled uniformly from the
    non-document nodes and the one with the highest current mean score wins.
    An exhausted corpus falls back to thought pairing.
    """
    graph.node(selected)
    partner: int | None = None
    if retriever is not None and rng.random() < config.p_doc:
        provider = query_provider or (lambda: graph.query_text)
        try:
            doc = queue_next(retriever.queue, retriever.index, provider)
        except ExhaustedCorpusError:
            doc = None
        if doc is not None:
            partner = graph.add_document(doc.text)
    if partner is None:
        candidates = graph.thought_ids
        if len(candidates) > config.thought_sample_size:
            picked = rng.choice(
                len(candidates), size=config.thought_sample_size, replace=False
            )
            candidates = sorted(candidates[i] for i in picked)
        partner, best_score = None, -math.inf
        for nid in candidates:
            score = graph.stats[nid].mean_score
            if score > best_score:
                partner, best_score = nid, score
    action = Action(first=selected, second=partner)
    return _generate_from_pair(graph, action, generator)


def simulate(graph: ThoughtGraph, node_id: int, scorer: Scorer, generator: Generator) -> float:
    """Score a fresh node and install the result as its initial statistics."""
    score = float(scorer.score(graph, node_id, generator))
    score = min(1.0, max(0.0, score))
    stats = graph.stats[node_id]
    stats.visits = 1
    stats.cumulative_score = score
    return score


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


def _finish(
    graph: ThoughtGraph,
    best: int | None,
    terminated: Termination,
    generator: CountingGenerator,
    scorer_calls: int,
    simulation_scores: dict[int, float],
) -> SearchOutcome:
    if best is None:
        best = _best_generated(graph)
        if best is None:  # max_steps >= 1 guarantees at least one node
            raise SearchError("search produced no thoughts", graph=graph)
    return SearchOutcome(
        graph=graph,
        best_thought=best,
        terminated_by=terminated,
        generator_calls=generator.calls,
        scorer_calls=scorer_calls,
        simulation_scores=simulation_scores,
    )


def run_search(
    query: str,
    ports: SearchPorts,
    config: EpisodeConfig,
    rng: np.random.Generator | None = None,
) -> SearchOutcome:
    """Full bandit search. Deterministic given (query, ports, config, seed)."""
    rng = rng if rng is not None else np.random.default_rng(0)
    graph = new_process(query, max_generated=config.max_steps)
    generator = CountingGenerator(ports.generator)
    provider = _query_provider(graph, SearchPorts(generator, ports.scorer, ports.retriever))
    scorer_calls = 0
    simulation_scores: dict[int, float] = {}
    terminated = Termination.BUDGET_EXHAUSTED
    best: int | None = None
    try:
        while graph.generated_count < config.max_steps:
            selected = select(graph, config.exploration_c)
            child = expand(
                graph, selected, ports.retriever, generator, rng, config, provider
            )
            score = simulate(graph, child, ports.scorer, generator)
            scorer_calls += 1
            simulation_scores[child] = score
            backpropagate(graph, child, score)
            if score >= config.stop_threshold:
                terminated = Termination.THRESHOLD_REACHED
                best = child
                break
    except EngineError as exc:
        raise SearchError(f"search failed after {graph.generated_count} thoughts: {exc}", graph=graph) from exc
    return _finish(graph, best, terminated, generator, scorer_calls, simulation_scores)


def random_search(
    query: str,
    ports: SearchPorts,
    config: EpisodeConfig,
    rng: np.random.Generator | None = None,
) -> SearchOutcome:
    """Uniform-random pairing control: same termination contract as
    run_search, no score guidance anywhere."""
    rng = rng if rng is not None else np.random.default_rng(0)
    graph = new_process(query, max_generated=config.max_steps)
    generator = CountingGenerator(ports.generator)
    provider = _query_provider(graph, SearchPorts(generator, ports.scorer, ports.retriever))
    scorer_calls = 0
    simulation_scores: dict[int, float] = {}
    terminated = Termination.BUDGET_EXHAUSTED
    best: int | None = None
    try:
        while graph.generated_count < config.max_steps:
            pool = graph.thought_ids
            selected = pool[rng.choice(len(pool))]
            partner: int | None = None
            if ports.retriever is not None and rng.random() < config.p_doc:
                try:
                    doc = queue_next(ports.retriever.queue, ports.retriever.index, provider)
                    partner = graph.add_document(doc.text)
                except ExhaustedCorpusError:
                    partner = None
            if partner is None:
                partner = pool[rng.choice(len(pool))]
            child = _generate_from_pair(graph, Action(selected, partner), generator)
            score = simulate(graph, child, ports.scorer, generator)
            scorer_calls += 1
            simulation_scores[child] = score
            if score >= config.stop_threshold:
                terminated = Termination.THRESHOLD_REACHED
                best = child
                break
    except EngineError as exc:
        raise SearchError(f"search failed after {graph.generated_count} thoughts: {exc}", graph=graph) from exc
    return _finish(graph, best, terminated, generator, scorer_calls, simulation_scores)


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
    pair_scorer = ports.scorer
    if not hasattr(pair_scorer, "score_pairs"):
        raise ConfigError("greedy_search requires a pairwise scorer port")
    graph = new_process(query, max_generated=config.max_steps)
    generator = CountingGenerator(ports.generator)
    provider = _query_provider(graph, SearchPorts(generator, ports.scorer, ports.retriever))
    scorer_calls = 0
    simulation_scores: dict[int, float] = {}
    terminated = Termination.BUDGET_EXHAUSTED
    best: int | None = None
    try:
        while graph.generated_count < config.max_steps:
            items: list[tuple[str, object, str, NodeKind]] = []
            for nid in graph.thought_ids:
                node = graph.node(nid)
                items.append(("node", nid, node.text, node.kind))
            if ports.retriever is not None:
                refill_if_empty(ports.retriever.queue, ports.retriever.index, provider)
                for doc in ports.retriever.queue.pending:
                    items.append(("doc", doc, doc.text, NodeKind.DOCUMENT))
            pairs = [
                (i, j) for i in range(len(items)) for j in range(i + 1, len(items))
            ]
            if pairs:
                scores = pair_scorer.score_pairs(
                    [(items[i][2], items[j][2]) for i, j in pairs]
                )
                scorer_calls += len(pairs)
                best_idx = max(range(len(pairs)), key=lambda k: (scores[k], -k))
                chosen, chosen_score = pairs[best_idx], float(scores[best_idx])
            else:  # only the root exists and no documents are available
                chosen, chosen_score = None, float(
                    pair_scorer.score_pairs([(graph.query_text, graph.query_text)])[0]
                )
                scorer_calls += 1

            def realize(entry) -> int:
                kind_tag, ref = entry[0], entry[1]
                if kind_tag == "node":
                    return ref
                consume_pending(ports.retriever.queue, ref)
                return graph.add_document(ref.text)

            if chosen is None:
                action = Action(ROOT_ID, ROOT_ID)
            else:
                action = Action(realize(items[chosen[0]]), realize(items[chosen[1]]))
            child = _generate_from_pair(graph, action, generator)
            stats = graph.stats[child]
            stats.visits = 1
            stats.cumulative_score = min(1.0, max(0.0, chosen_score))
            simulation_scores[child] = stats.cumulative_score
            if stats.cumulative_score >= config.stop_threshold:
                terminated = Termination.THRESHOLD_REACHED
                best = child
                break
    except EngineError as exc:
        raise SearchError(f"search failed after {graph.generated_count} thoughts: {exc}", graph=graph) from exc
    return _finish(graph, best, terminated, generator, scorer_calls, simulation_scores)
