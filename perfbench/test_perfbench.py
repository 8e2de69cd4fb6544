"""Tests for the benchmark's own code: the percentile rule, span self-time
arithmetic, the tracer's wrappers, and the loopback backend's replies."""

from __future__ import annotations

import threading
import types

import pytest

import run
import sim_backend
from tracer import Span, Tracer, self_times
from thoughtsearch.generate import HttpGenerator, SimulatedGenerator
from thoughtsearch.graph import NodeKind
from thoughtsearch.templates import TemplateSet


def test_p95_needs_ten_samples_beyond_it():
    samples = [float(i) for i in range(1, 201)]
    assert run.percentile(samples, 95) == 190.0  # nearest rank: 10 samples above
    with pytest.raises(ValueError, match="9 beyond"):
        run.percentile(samples[:199], 95)


def test_median_rank_and_small_samples():
    assert run.percentile([float(i) for i in range(1, 21)], 50) == 10.0
    with pytest.raises(ValueError):
        run.percentile([1.0, 2.0, 3.0], 50)


def _span(span_id, start, end, parent=-1):
    return Span(span_id, f"s{span_id}", start, end, parent, "q")


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 4.0, parent=0),
        _span(2, 2.0, 3.0, parent=1),
        _span(3, 5.0, 7.0, parent=0),
    ]
    assert self_times(spans) == {0: 5.0, 1: 2.0, 2: 1.0, 3: 2.0}


def test_self_time_counts_overlapping_children_once():
    spans = [_span(0, 0.0, 10.0), _span(1, 1.0, 4.0, 0), _span(2, 3.0, 6.0, 0), _span(3, 9.0, 12.0, 0)]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_tracer_nests_spans_and_tags_queries():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def inner():
        return "x"

    def outer():
        return tracer.call("inner", inner)

    assert tracer.call("outer", outer, query_id="q7") == "x"
    tracer.call("after", inner)
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["inner"].parent == by_name["outer"].span_id
    assert by_name["inner"].query_id == "q7" and by_name["outer"].query_id == "q7"
    assert by_name["after"].parent == -1 and by_name["after"].query_id != "q7"
    assert self_times(tracer.spans)[by_name["outer"].span_id] == 2.0


def test_wrap_records_failures_and_restore_puts_originals_back():
    module = types.SimpleNamespace(fn=lambda x: 10 // x)
    original = module.fn
    seen = []
    tracer = Tracer()
    tracer.wrap(module, "fn", "layer.fn", observe=lambda args, result: seen.append(result))
    assert module.fn(2) == 5
    with pytest.raises(ZeroDivisionError):
        module.fn(0)
    tracer.restore()
    assert module.fn is original
    assert seen == [5]
    assert [s.failed for s in tracer.spans] == [False, True]


@pytest.fixture()
def backend_client():
    server = sim_backend.make_server(0, delay_ms=0.0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    templates = TemplateSet.builtin("simulated")
    client = HttpGenerator(
        f"http://127.0.0.1:{server.server_address[1]}/complete", templates, timeout_s=5.0, retries=0
    )
    try:
        yield client, templates
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()


QUERY = "need:k001 need:k002 report the recorded figures for k001 and k002"
DOC = "ledger entry k001 has:k001 fact:k001=v00042 archive shelf"
THOUGHT = "note need:k001 need:k002 has:k002 fact:k002=v00007"


def test_backend_thought_reply_matches_simulated_generator(backend_client):
    client, _ = backend_client
    parents = [(THOUGHT, NodeKind.GENERATED), (DOC, NodeKind.DOCUMENT)]
    expected = "note need:k001 need:k002 has:k001 has:k002 fact:k001=v00042 fact:k002=v00007"
    assert client.generate_thought(parents, QUERY) == expected
    assert SimulatedGenerator().generate_thought(parents, QUERY) == expected


def test_backend_answer_reply(backend_client):
    client, _ = backend_client
    context = "note has:k001 has:k002 fact:k001=v00042 fact:k002=v00007"
    assert client.answer(QUERY, context) == "v00042 v00007"
    assert client.answer(QUERY, DOC) == "v00042 unknown"


def test_backend_logprob_reply(backend_client):
    client, templates = backend_client
    covered = templates["SelfCritic"].render(
        query=QUERY, thought="note fact:k001=v00042 fact:k002=v00007"
    )
    partial = templates["SelfCritic"].render(query=QUERY, thought=DOC)
    for prompt in (covered, partial):
        assert client.score_tokens(prompt, ["1", "0"]) == pytest.approx(
            SimulatedGenerator().score_tokens(prompt, ["1", "0"])
        )
    scores = client.score_tokens(covered, ["1", "0"])
    assert scores["1"] > scores["0"]


def test_backend_reply_without_needs_or_prompt():
    assert sim_backend.reply_for({"prompt": "no needs here"}) == {"text": "unknown"}
    with pytest.raises(KeyError):
        sim_backend.reply_for({})
