"""Planner tests: UCT arithmetic, selection and backpropagation against
brute-force oracles on random DAGs, expansion branching, termination
contracts, greedy argmax behaviour, and seed determinism."""

from __future__ import annotations

import math

import numpy as np
import pytest

from thoughtsearch.config import EpisodeConfig
from thoughtsearch.errors import ConfigError, GenerationError, SearchError
from thoughtsearch.generate import SimulatedGenerator, parse_facts
from thoughtsearch.graph import Action, NodeKind, new_process
from thoughtsearch.mcts import (
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
from thoughtsearch.retrieval import DocumentQueue
from thoughtsearch.scoring import OracleScorer, SelfCriticScorer
from thoughtsearch.metrics import best_token_f1
from thoughtsearch.templates import TemplateSet
from thoughtsearch.trace import graph_to_record, trace_text

# ---------------------------------------------------------------------------
# UCT
# ---------------------------------------------------------------------------


def test_uct_tabulated_values():
    assert uct_value(1.0, 1, 1, math.sqrt(2)) == 1.0  # ln(1) kills exploration
    expected = 0.25 + math.sqrt(2) * math.sqrt(math.log(4) / 2)
    assert uct_value(0.5, 2, 4, math.sqrt(2)) == pytest.approx(1.4274100, abs=1e-7)
    assert uct_value(0.5, 2, 4, math.sqrt(2)) == pytest.approx(expected, abs=1e-12)
    assert uct_value(0.7, 3, 9, 0.0) == pytest.approx(0.7 / 3)


def test_uct_rejects_unvisited():
    with pytest.raises(ConfigError):
        uct_value(1.0, 0, 1, 1.0)
    with pytest.raises(ConfigError):
        uct_value(1.0, 1, 0, 1.0)


# ---------------------------------------------------------------------------
# Random DAGs with random statistics, for the selection/backprop oracles
# ---------------------------------------------------------------------------


def _random_dag(rng, max_nodes=20):
    graph = new_process("q")
    n = int(rng.integers(1, max_nodes))
    for _ in range(n):
        if rng.random() < 0.2:
            graph.add_document("chunk")
            continue
        pool = sorted(graph.nodes)
        first = int(rng.choice(pool))
        second = int(rng.choice(pool))
        child = graph.apply_transition(Action(first, second), "t")
        for parent in dict.fromkeys((first, second)):
            graph.stats[parent].children.append(child)
    for node_id, node in graph.nodes.items():
        stats = graph.stats[node_id]
        if node.kind == NodeKind.DOCUMENT:
            continue
        stats.visits = int(rng.integers(1, 30))
        stats.cumulative_score = float(rng.uniform(0.0, 3.0))
    return graph


def _select_oracle(graph, c):
    # Independent recursive walk recomputing UCT per child from scratch.
    def walk(node_id):
        children = graph.stats[node_id].children
        if not children:
            return node_id
        parent_visits = graph.stats[node_id].visits
        scored = {
            child: graph.stats[child].cumulative_score / graph.stats[child].visits
            + c * math.sqrt(math.log(parent_visits) / graph.stats[child].visits)
            for child in children
        }
        best = max(sorted(scored), key=lambda ch: (scored[ch], -ch))
        return walk(best)

    return walk(0)


def test_select_trivial_cases():
    graph = new_process("q")
    assert select(graph) == 0  # childless root
    t1 = graph.apply_transition(Action(0, 0), "t1")
    graph.stats[0].children.append(t1)
    graph.stats[0].visits = 2
    graph.stats[t1].visits = 1
    t2 = graph.apply_transition(Action(t1, t1), "t2")
    graph.stats[t1].children.append(t2)
    graph.stats[t2].visits = 1
    assert select(graph) == t2  # unique chain


def test_select_matches_bruteforce_oracle():
    rng = np.random.default_rng(123)
    c = math.sqrt(2)
    for _ in range(300):
        graph = _random_dag(rng)
        assert select(graph, c) == _select_oracle(graph, c)


def _ancestors_oracle(graph, node_id):
    # Set-based enumeration over parent links, stopping at documents.
    out, frontier = set(), set(graph.node(node_id).parents)
    while frontier:
        current = frontier.pop()
        if current in out or current == node_id:
            continue
        out.add(current)
        if graph.node(current).kind == NodeKind.DOCUMENT:
            continue
        frontier.update(graph.node(current).parents)
    return {nid for nid in out if graph.node(nid).kind != NodeKind.DOCUMENT}


def test_backprop_linear_chain():
    graph = new_process("q")
    t1 = graph.apply_transition(Action(0, 0), "t1")
    t2 = graph.apply_transition(Action(t1, t1), "t2")
    before = {nid: (s.visits, s.cumulative_score) for nid, s in graph.stats.items()}
    backpropagate(graph, t2, 1.0)
    assert graph.stats[0].visits == before[0][0] + 1
    assert graph.stats[t1].visits == before[t1][0] + 1
    assert graph.stats[t1].cumulative_score == before[t1][1] + 1.0
    assert graph.stats[t2].visits == before[t2][0]  # the node itself untouched


def test_backprop_diamond_updates_root_once():
    graph = new_process("q")
    t1 = graph.apply_transition(Action(0, 0), "t1")
    t2 = graph.apply_transition(Action(0, 0), "t2")
    t3 = graph.apply_transition(Action(t1, t2), "t3")
    backpropagate(graph, t3, 1.0)
    assert graph.stats[0].visits == 1  # once, not twice
    assert graph.stats[t1].visits == 1
    assert graph.stats[t2].visits == 1


def test_backprop_root_is_noop():
    graph = new_process("q")
    before = {nid: (s.visits, s.cumulative_score) for nid, s in graph.stats.items()}
    backpropagate(graph, 0, 0.7)
    assert {nid: (s.visits, s.cumulative_score) for nid, s in graph.stats.items()} == before


def test_backprop_matches_ancestor_oracle_on_random_dags():
    rng = np.random.default_rng(321)
    for _ in range(300):
        graph = _random_dag(rng)
        target = int(rng.choice(sorted(graph.nodes)))
        expected = _ancestors_oracle(graph, target)
        before = {nid: (s.visits, s.cumulative_score) for nid, s in graph.stats.items()}
        score = float(rng.uniform(0, 1))
        backpropagate(graph, target, score)
        for nid, stats in graph.stats.items():
            visits0, cum0 = before[nid]
            if nid in expected:
                assert stats.visits == visits0 + 1
                assert stats.cumulative_score == pytest.approx(cum0 + score)
            else:
                assert stats.visits == visits0
                assert stats.cumulative_score == cum0
        # Visit-count conservation.
        total_before = sum(v for v, _ in before.values())
        total_after = sum(s.visits for s in graph.stats.values())
        assert total_after == total_before + len(expected)


def _mask_members(mask):
    return {bit for bit in range(mask.bit_length()) if mask >> bit & 1}


def test_ancestor_masks_track_oracle_through_appends_and_backprop():
    rng = np.random.default_rng(99)
    for _ in range(60):
        graph = new_process("q")
        for _ in range(int(rng.integers(1, 40))):
            roll = rng.random()
            if roll < 0.2:
                graph.add_document("chunk")
            elif roll < 0.7:
                first, second = (int(rng.choice(len(graph.nodes))) for _ in range(2))
                child = graph.apply_transition(Action(first, second), "t")
                for parent in dict.fromkeys((first, second)):
                    graph.stats[parent].children.append(child)
            else:
                backpropagate(graph, int(rng.choice(len(graph.nodes))), float(rng.uniform()))
            assert len(graph.ancestors) == len(graph.nodes)
            for node_id in graph.nodes:
                assert _mask_members(graph.ancestors[node_id]) == _ancestors_oracle(graph, node_id)


def test_ancestor_mask_of_a_diamond_holds_each_ancestor_once():
    graph = new_process("q")
    doc = graph.add_document("chunk")
    t1 = graph.apply_transition(Action(0, doc), "t1")
    t2 = graph.apply_transition(Action(0, 0), "t2")
    t3 = graph.apply_transition(Action(t1, t2), "t3")
    assert graph.ancestors == [0, 0, 1 << 0, 1 << 0, 1 << 0 | 1 << t1 | 1 << t2]


# ---------------------------------------------------------------------------
# Expansion
# ---------------------------------------------------------------------------


def _retriever(index, batch_size=2, query_mode="raw"):
    return DocumentQueue(index, batch_size=batch_size, query_mode=query_mode)


def test_expand_forced_document_branch(small_index):
    graph = new_process("need:k0 q")
    config = EpisodeConfig(p_doc=1.0)
    child = expand(
        graph, 0, _retriever(small_index), SimulatedGenerator(), np.random.default_rng(0), config,
        lambda: graph.query_text,
    )
    kinds = [graph.node(p).kind for p in graph.node(child).parents]
    assert kinds.count(NodeKind.DOCUMENT) == 1
    assert graph.node(child).parents[0] == 0


def test_expand_forced_thought_branch(small_index):
    graph = new_process("q")
    config = EpisodeConfig(p_doc=0.0)
    child = expand(
        graph, 0, _retriever(small_index), SimulatedGenerator(), np.random.default_rng(0), config,
        lambda: graph.query_text,
    )
    kinds = [graph.node(p).kind for p in graph.node(child).parents]
    assert NodeKind.DOCUMENT not in kinds
    assert graph.node(child).parents == (0, 0)  # only the root exists


def test_expand_falls_back_when_corpus_exhausted(small_index):
    graph = new_process("q")
    config = EpisodeConfig(p_doc=1.0)
    retriever = _retriever(small_index, batch_size=10)
    retriever.served = {d.doc_id for d in small_index.documents}
    child = expand(
        graph, 0, retriever, SimulatedGenerator(), np.random.default_rng(0), config,
        lambda: graph.query_text,
    )
    assert graph.node(child).parents == (0, 0)


def test_expand_records_children_in_both_parents(small_index):
    graph = new_process("q")
    gen = SimulatedGenerator()
    config = EpisodeConfig(p_doc=1.0)
    rng = np.random.default_rng(0)
    child = expand(graph, 0, _retriever(small_index), gen, rng, config, lambda: graph.query_text)
    doc = graph.node(child).parents[1]
    assert child in graph.stats[0].children
    assert child in graph.stats[doc].children


def test_expand_branch_frequency_seeded(small_index):
    rng = np.random.default_rng(42)
    config = EpisodeConfig(p_doc=0.5, max_steps=10)
    graph = new_process("q")
    retriever = _retriever(small_index, batch_size=6)
    gen = SimulatedGenerator()
    doc_children = 0
    trials = 200
    for _ in range(trials):
        child = expand(graph, 0, retriever, gen, rng, config, lambda: graph.query_text)
        kinds = [graph.node(p).kind for p in graph.node(child).parents]
        if NodeKind.DOCUMENT in kinds:
            doc_children += 1
        retriever.served.clear()  # keep the corpus inexhaustible
    assert abs(doc_children / trials - 0.5) < 0.1


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_installs_initial_stats(constant_scorer):
    graph = new_process("q")
    child = graph.apply_transition(Action(0, 0), "t")
    value = simulate(graph, child, constant_scorer(0.5), SimulatedGenerator())
    assert value == 0.5
    assert graph.stats[child].visits == 1
    assert graph.stats[child].cumulative_score == 0.5


def test_simulate_oracle_hit_and_miss(small_index):
    gen = SimulatedGenerator()
    scorer = OracleScorer(["v1 v2"], best_token_f1)
    graph = new_process("need:k1 need:k2 q")
    hit = graph.apply_transition(Action(0, 0), "note fact:k1=v1 fact:k2=v2")
    miss = graph.apply_transition(Action(0, 0), "note")
    assert simulate(graph, hit, scorer, gen) == 1.0
    assert simulate(graph, miss, scorer, gen) == 0.0


# ---------------------------------------------------------------------------
# run_search
# ---------------------------------------------------------------------------


def test_run_search_threshold_after_one_thought(constant_scorer):
    ports = SearchPorts(generator=SimulatedGenerator(), scorer=constant_scorer(1.0))
    outcome = run_search("q", ports, EpisodeConfig(max_steps=10, stop_threshold=0.5))
    assert outcome.terminated_by == Termination.THRESHOLD_REACHED
    assert outcome.graph.generated_count == 1
    assert outcome.best_thought == outcome.graph.generated_ids()[0]


class _HalfScorer:
    """Scores every node and every pair 0.5, so each planner can use it."""

    def score(self, graph, node_id, generator):
        return 0.5

    def score_pairs(self, pairs):
        return [0.5] * len(pairs)


@pytest.mark.parametrize("planner", [run_search, random_search, greedy_search])
def test_score_equal_to_threshold_stops_every_planner(planner):
    ports = SearchPorts(generator=SimulatedGenerator(), scorer=_HalfScorer())
    outcome = planner("q", ports, EpisodeConfig(max_steps=10, stop_threshold=0.5))
    assert outcome.terminated_by == Termination.THRESHOLD_REACHED
    assert outcome.graph.generated_ids() == [outcome.best_thought]
    assert outcome.simulation_scores == {outcome.best_thought: 0.5}
    assert outcome.scorer_calls == 1


def test_run_search_budget_exhausted(constant_scorer):
    ports = SearchPorts(generator=SimulatedGenerator(), scorer=constant_scorer(0.0))
    outcome = run_search("q", ports, EpisodeConfig(max_steps=10, stop_threshold=0.5))
    assert outcome.terminated_by == Termination.BUDGET_EXHAUSTED
    assert outcome.graph.generated_count == 10
    assert outcome.scorer_calls == 10


@pytest.mark.parametrize("planner", [run_search, random_search])
def test_a_failed_search_hands_back_its_outcome(planner):
    """The SearchError of a failed search carries the outcome it reached:
    its graph, the scores and scorer calls so far, and its ledger's counts."""

    class FailsThirdCall:
        calls = 0

        def score(self, graph, node_id, generator):
            self.calls += 1
            if self.calls == 3:
                raise GenerationError("scorer down")
            return 0.0

    ports = SearchPorts(generator=SimulatedGenerator(), scorer=FailsThirdCall())
    with pytest.raises(SearchError, match="search failed after 3 thoughts: scorer down") as info:
        planner("q", ports, EpisodeConfig(max_steps=10, stop_threshold=0.5))
    outcome = info.value.outcome
    assert isinstance(info.value.__cause__, GenerationError)
    assert outcome.graph.generated_count == 3
    assert (outcome.scorer_calls, outcome.simulation_scores) == (2, {1: 0.0, 2: 0.0})
    assert outcome.generator_calls == 3 and 1 <= outcome.backend_calls <= 3
    assert (outcome.best_thought, outcome.terminated_by) == (None, Termination.BUDGET_EXHAUSTED)


def test_run_search_counters_affine_in_nodes(small_index, constant_scorer):
    # Thought generation is the only generator call with a constant scorer.
    ports = SearchPorts(
        generator=SimulatedGenerator(),
        scorer=constant_scorer(0.0),
        retriever=_retriever(small_index),
    )
    outcome = run_search("q", ports, EpisodeConfig(max_steps=5, stop_threshold=0.5))
    nodes = outcome.graph.generated_count
    assert outcome.generator_calls == nodes
    assert outcome.generator_calls <= 3 * nodes + 2


def test_run_search_oracle_counters_two_calls_per_node(small_index):
    ports = SearchPorts(
        generator=SimulatedGenerator(),
        scorer=OracleScorer(["v1 v2"], best_token_f1),
        retriever=_retriever(small_index),
    )
    outcome = run_search(
        "need:k1 need:k2 q", ports, EpisodeConfig(max_steps=6, stop_threshold=2.0)
    )
    nodes = outcome.graph.generated_count
    assert outcome.generator_calls == 2 * nodes
    assert outcome.scorer_calls == nodes


def test_run_search_deterministic_under_seed(small_index, constant_scorer):
    def one(seed):
        ports = SearchPorts(
            generator=SimulatedGenerator(),
            scorer=constant_scorer(0.2),
            retriever=_retriever(small_index),
        )
        return run_search(
            "need:k0 q",
            ports,
            EpisodeConfig(max_steps=8, stop_threshold=0.9),
            np.random.default_rng(seed),
        )

    a, b = one(7), one(7)
    assert a.graph.nodes == b.graph.nodes
    assert a.graph.history == b.graph.history
    assert a.simulation_scores == b.simulation_scores
    c = one(8)
    assert a.graph.nodes != c.graph.nodes  # a different seed takes another path


class _Tally:
    """A generator that counts the calls it answers and reports the given
    `deterministic`, which turns a search's completion memo on or off."""

    def __init__(self, inner, deterministic: bool):
        self.inner, self.deterministic, self.answered = inner, deterministic, 0

    def __getattr__(self, name):
        method = getattr(self.inner, name)

        def call(*args):
            self.answered += 1
            return method(*args)

        return call


def _self_critic_search(index, generator, query_mode="raw", seed=3):
    ports = SearchPorts(
        generator=generator,
        scorer=SelfCriticScorer(TemplateSet.builtin("simulated")),
        retriever=_retriever(index, query_mode=query_mode),
    )
    config = EpisodeConfig(max_steps=30, stop_threshold=2.0, p_doc=0.5)
    return run_search("need:k1 need:k2 q", ports, config, np.random.default_rng(seed))


@pytest.mark.parametrize("query_mode", ["raw", "formulated"])
def test_memo_keeps_trace_bytes_and_generator_calls(small_index, query_mode):
    on, off = _Tally(SimulatedGenerator(), True), _Tally(SimulatedGenerator(), False)
    memo, plain = (_self_critic_search(small_index, gen, query_mode) for gen in (on, off))
    assert trace_text(graph_to_record(memo.graph, memo)) == trace_text(graph_to_record(plain.graph, plain))
    assert memo.generator_calls == plain.generator_calls == plain.backend_calls == off.answered
    assert on.answered == memo.backend_calls < memo.generator_calls


def test_searches_sharing_a_generator_each_pay_for_their_calls(small_index):
    shared = _Tally(SimulatedGenerator(), True)
    first = _self_critic_search(small_index, shared)
    second = _self_critic_search(small_index, shared)
    assert first.backend_calls == second.backend_calls < first.generator_calls
    assert shared.answered == first.backend_calls + second.backend_calls


def test_run_search_no_retriever_runs_thought_only(constant_scorer):
    ports = SearchPorts(generator=SimulatedGenerator(), scorer=constant_scorer(0.0))
    outcome = run_search("q", ports, EpisodeConfig(max_steps=4, stop_threshold=0.5, p_doc=1.0))
    assert outcome.graph.generated_count == 4
    assert all(
        graph_node.kind != NodeKind.DOCUMENT for graph_node in outcome.graph.nodes.values()
    )


def test_visit_conservation_through_search(small_index, constant_scorer):
    ports = SearchPorts(
        generator=SimulatedGenerator(),
        scorer=constant_scorer(0.3),
        retriever=_retriever(small_index),
    )
    outcome = run_search("q", ports, EpisodeConfig(max_steps=6, stop_threshold=0.9))
    graph = outcome.graph
    for node in graph.nodes.values():
        if node.kind == NodeKind.DOCUMENT:
            assert graph.stats[node.id].visits == 0
    # Every generated node was visited at least once (its own simulation).
    for nid in graph.generated_ids():
        assert graph.stats[nid].visits >= 1


def test_run_search_two_hop_environment(tmp_path):
    """Facts split across two documents; the search must combine them."""
    from tests.conftest import write_jsonl
    from thoughtsearch.retrieval import ingest_corpus
    from thoughtsearch.generate import parse_facts

    records = [
        {"source_id": "d0", "text": "entry k1 has:k1 fact:k1=v1 filler words"},
        {"source_id": "d1", "text": "entry k2 has:k2 fact:k2=v2 filler words"},
        {"source_id": "d2", "text": "entry k9 has:k9 fact:k9=v9 filler words"},
    ]
    index = ingest_corpus(write_jsonl(tmp_path / "c.jsonl", records), chunk_size=50, dim=128)
    query = "need:k1 need:k2 report the figures for k1 and k2"
    # Brute-force confirmation that a 2-combination solution exists: some pair
    # of documents unions to full coverage.
    docs = [d.text for d in index.documents]
    assert any(
        set(parse_facts(a + " " + b)) >= {"k1", "k2"}
        for i, a in enumerate(docs)
        for b in docs[i + 1 :]
    )
    ports = SearchPorts(
        generator=SimulatedGenerator(),
        scorer=OracleScorer(["v1 v2"], best_token_f1),
        retriever=_retriever(index),
    )
    outcome = run_search(
        query,
        ports,
        EpisodeConfig(max_steps=10, stop_threshold=0.75),
        np.random.default_rng(5),
    )
    assert outcome.terminated_by == Termination.THRESHOLD_REACHED
    best_facts = parse_facts(outcome.graph.node(outcome.best_thought).text)
    assert set(best_facts) >= {"k1", "k2"}
    assert best_facts["k1"] == "v1" and best_facts["k2"] == "v2"


# ---------------------------------------------------------------------------
# greedy_search
# ---------------------------------------------------------------------------


class TextLengthPairScorer:
    """Scores a pair by total text length (longest pair wins the argmax)."""

    def score_pairs(self, pairs):
        return [float(len(a) + len(b)) for a, b in pairs]

    def score(self, graph, node_id, generator):
        first, second = graph.node(node_id).parents
        return self.score_pairs([(graph.node(first).text, graph.node(second).text)])[0]


def test_greedy_needs_pairwise_scorer(constant_scorer):
    ports = SearchPorts(generator=SimulatedGenerator(), scorer=constant_scorer(0.0))
    with pytest.raises(ConfigError):
        greedy_search("q", ports, EpisodeConfig(max_steps=2))


def test_greedy_singleton_pair_is_chosen(tmp_path):
    from tests.conftest import write_jsonl
    from thoughtsearch.retrieval import ingest_corpus

    index = ingest_corpus(
        write_jsonl(tmp_path / "c.jsonl", [{"source_id": "s", "text": "only document"}]),
        chunk_size=50,
        dim=32,
    )
    ports = SearchPorts(
        generator=SimulatedGenerator(),
        scorer=TextLengthPairScorer(),
        retriever=DocumentQueue(index, batch_size=1),
    )
    outcome = greedy_search("q", ports, EpisodeConfig(max_steps=1, stop_threshold=9e9))
    first, second = outcome.graph.node(outcome.graph.generated_ids()[0]).parents
    assert graph_kinds(outcome, (first, second)) == [NodeKind.QUERY, NodeKind.DOCUMENT]


def graph_kinds(outcome, ids):
    return [outcome.graph.node(i).kind for i in ids]


def test_greedy_always_pairs_longest_texts():
    ports = SearchPorts(generator=SimulatedGenerator(), scorer=TextLengthPairScorer())
    outcome = greedy_search(
        "a rather long query text", ports, EpisodeConfig(max_steps=4, stop_threshold=9e9)
    )
    graph = outcome.graph
    for action, produced in graph.history:
        lengths = sorted(
            (len(node.text), node.id)
            for node in graph.nodes.values()
            if node.id < produced and node.kind != NodeKind.DOCUMENT
        )
        chosen = sorted((len(graph.node(p).text), p) for p in (action.first, action.second))
        # The chosen pair's total length is maximal over available pairs.
        best_two = lengths[-2:] if len(lengths) >= 2 else lengths * 2
        assert sum(l for l, _ in chosen) >= sum(l for l, _ in best_two)


def test_greedy_tie_breaks_to_lowest_pair():
    class ConstantPairScorer:
        def score_pairs(self, pairs):
            return [0.5] * len(pairs)

    ports = SearchPorts(generator=SimulatedGenerator(), scorer=ConstantPairScorer())
    outcome = greedy_search("q", ports, EpisodeConfig(max_steps=3, stop_threshold=9e9))
    first_actions = [action for action, _ in outcome.graph.history]
    # Step 1: only the root exists -> self pair; step 2: (0, 1); step 3: (0, 1) beats later ids.
    assert first_actions[0] == Action(0, 0)
    assert first_actions[1] == Action(0, 1)
    assert first_actions[2] == Action(0, 1)


def test_greedy_argmax_invariant_under_monotone_transform():
    class Wrapped:
        def __init__(self, inner, f):
            self.inner, self.f = inner, f

        def score_pairs(self, pairs):
            return [self.f(s) for s in self.inner.score_pairs(pairs)]

    base = TextLengthPairScorer()
    actions = {}
    for name, scorer in {
        "raw": base,
        "affine": Wrapped(base, lambda s: 0.001 * s + 0.2),
        "tanh": Wrapped(base, math.tanh),
    }.items():
        ports = SearchPorts(generator=SimulatedGenerator(), scorer=scorer)
        outcome = greedy_search(
            "some query words", ports, EpisodeConfig(max_steps=4, stop_threshold=9e9)
        )
        actions[name] = [a for a, _ in outcome.graph.history]
    assert actions["raw"] == actions["affine"] == actions["tanh"]


# ---------------------------------------------------------------------------
# random_search control
# ---------------------------------------------------------------------------


def test_random_search_follows_termination_contract(small_index, constant_scorer):
    ports = SearchPorts(
        generator=SimulatedGenerator(),
        scorer=constant_scorer(0.0),
        retriever=_retriever(small_index),
    )
    outcome = random_search(
        "q", ports, EpisodeConfig(max_steps=5, stop_threshold=0.5), np.random.default_rng(3)
    )
    assert outcome.terminated_by == Termination.BUDGET_EXHAUSTED
    assert outcome.graph.generated_count == 5
