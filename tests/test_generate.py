"""Template hygiene, simulated generator semantics, and the HTTP client
exercised against a locally served backend speaking the wire protocol."""

from __future__ import annotations

import csv
import json
import math
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import given
from hypothesis import strategies as st

from thoughtsearch import generate
from thoughtsearch.cli import main
from thoughtsearch.config import default_config
from thoughtsearch.errors import CapabilityError, ConfigError, GenerationError, TransportError
from thoughtsearch.generate import (
    CountingGenerator,
    HttpGenerator,
    SimulatedGenerator,
    parse_facts,
    parse_needs,
)
from thoughtsearch.graph import NodeKind
from thoughtsearch.harness import EnginePorts, Method, QAExample, Task, run_benchmark
from thoughtsearch.templates import SLOTS, TEMPLATE_NAMES, PromptTemplate, TemplateSet

# ---------------------------------------------------------------------------
# Templates
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", ["boolq", "emrqa", "simulated"])
def test_builtin_templates_render_without_residue(mode):
    templates = TemplateSet.builtin(mode)
    slots = {slot: f"<{slot} value>" for slot in SLOTS}
    for name in TEMPLATE_NAMES:
        rendered = templates[name].render(**slots)
        for slot in SLOTS:
            assert f"{{{slot}}}" not in rendered
        assert rendered.strip()


def test_template_rejects_unknown_placeholder():
    with pytest.raises(ConfigError):
        PromptTemplate(name="ThoughtGen", body="hello {nonsense}")


def test_render_leaves_a_brace_that_is_not_a_slot_literal():
    template = PromptTemplate(name="SelfCritic", body='{"a": 1} { {query} {{thought}}')
    assert template.render(query="q", thought="t") == '{"a": 1} { q {t}'


def test_template_file_round_trip(tmp_path):
    from thoughtsearch.templates import BOOLQ_TEMPLATES

    path = tmp_path / "templates.txt"
    path.write_text(BOOLQ_TEMPLATES, encoding="utf-8")
    from_file = TemplateSet.from_file(path)
    builtin = TemplateSet.builtin("boolq")
    for name in TEMPLATE_NAMES:
        assert from_file[name].body == builtin[name].body


def test_template_set_requires_all_sections():
    with pytest.raises(ConfigError):
        TemplateSet.from_text("=== ThoughtGen ===\nonly one section {query}")


# ---------------------------------------------------------------------------
# Simulated generator
# ---------------------------------------------------------------------------


def test_fact_union():
    gen = SimulatedGenerator()
    out = gen.generate_thought(
        [("fact:a=1", NodeKind.DOCUMENT), ("fact:b=2", NodeKind.GENERATED)],
        "need:a need:b q",
    )
    assert parse_facts(out) == {"a": "1", "b": "2"}
    assert parse_needs(out) == ["a", "b"]


def test_fact_union_idempotent():
    gen = SimulatedGenerator()
    parent = ("note fact:a=1", NodeKind.GENERATED)
    out = gen.generate_thought([parent, parent], "q need:a")
    assert parse_facts(out) == {"a": "1"}


def test_simulated_determinism():
    gen = SimulatedGenerator()
    parents = [("fact:x=9 stuff", NodeKind.DOCUMENT), ("note", NodeKind.QUERY)]
    assert gen.generate_thought(parents, "need:x") == gen.generate_thought(parents, "need:x")


def test_union_is_commutative_and_associative():
    gen = SimulatedGenerator()
    a = ("fact:a=1", NodeKind.GENERATED)
    b = ("fact:b=2", NodeKind.GENERATED)
    c = ("fact:c=3", NodeKind.GENERATED)
    ab = gen.generate_thought([a, b], "q")
    ba = gen.generate_thought([b, a], "q")
    assert parse_facts(ab) == parse_facts(ba)
    left = gen.generate_thought([(ab, NodeKind.GENERATED), c], "q")
    bc = gen.generate_thought([b, c], "q")
    right = gen.generate_thought([a, (bc, NodeKind.GENERATED)], "q")
    assert parse_facts(left) == parse_facts(right)


def test_answer_extraction_monotone():
    gen = SimulatedGenerator()
    query = "need:k1 need:k2 what are they"
    partial = "fact:k1=v1"
    full = partial + " fact:k2=v2 fact:extra=x"
    assert gen.answer(query, partial) == "v1 unknown"
    assert gen.answer(query, full) == "v1 v2"
    assert gen.answer(query) == "unknown unknown"
    assert gen.answer("no needs here") == "unknown"


def test_simulated_retrieval_query_concatenates_keywords():
    gen = SimulatedGenerator()
    out = gen.formulate_retrieval_query("note has:a fact:a=1", "need:a question")
    assert out.startswith("need:a question")
    assert "fact:a=1" in out and "has:a" in out


def test_score_tokens_reflects_coverage():
    gen = SimulatedGenerator()
    covered = gen.score_tokens("need:a ... fact:a=1", ["1", "0"])
    assert covered["1"] > covered["0"]
    uncovered = gen.score_tokens("need:a need:b fact:a=1", ["1", "0"])
    assert uncovered["1"] < uncovered["0"]
    with pytest.raises(GenerationError):
        gen.score_tokens("prompt", [])


@given(st.text(max_size=60))
def test_parse_facts_never_crashes(text):
    facts = parse_facts(text)
    assert all(isinstance(k, str) and isinstance(v, str) for k, v in facts.items())


# ---------------------------------------------------------------------------
# The per-search completion memo in CountingGenerator
# ---------------------------------------------------------------------------


class _FakeBackend:
    """Inner generator that logs every call it gets and numbers its replies,
    so a reply served from the memo is the earlier reply, not a new one."""

    def __init__(self, deterministic: bool | None = True, failures: int = 0):
        if deterministic is not None:
            self.deterministic = deterministic
        self.failures = failures  # raise GenerationError on this many calls
        self.seen: list[tuple] = []

    def _reply(self, *call) -> str:
        self.seen.append(call)
        if self.failures:
            self.failures -= 1
            raise GenerationError("flaky backend")
        return f"reply {len(self.seen)}"

    def generate_thought(self, parents, query):
        return self._reply("thought", list(parents), query)

    def answer(self, query, context=None):
        return self._reply("answer", query, context)

    def formulate_retrieval_query(self, thoughts, query):
        return self._reply("formulate", thoughts, query)

    def score_tokens(self, prompt, tokens):
        reply = self._reply("score", prompt, list(tokens))
        return {tok: -float(len(reply) + i) for i, tok in enumerate(tokens)}

    def complete(self, prompt):
        return self._reply("complete", prompt)


def _every_call(gen):
    parents = [("t", NodeKind.GENERATED), ("d", NodeKind.DOCUMENT)]
    return [
        gen.generate_thought(parents, "q"),
        gen.answer("q", "ctx"),
        gen.formulate_retrieval_query("t", "q"),
        gen.score_tokens("p", ["1", "0"]),
        gen.complete("p"),
    ]


def test_memo_sends_a_repeated_call_to_the_backend_once():
    inner = _FakeBackend()
    gen = CountingGenerator(inner)
    first, second = _every_call(gen), _every_call(gen)
    assert first == second
    assert len(inner.seen) == 5
    assert (gen.calls, gen.backend_calls) == (10, 5)


def test_memo_keys_parents_by_order_and_kind_and_every_argument():
    inner = _FakeBackend()
    gen = CountingGenerator(inner)
    for parents in (
        [("a", NodeKind.GENERATED), ("b", NodeKind.DOCUMENT)],
        [("b", NodeKind.DOCUMENT), ("a", NodeKind.GENERATED)],
        [("a", NodeKind.DOCUMENT), ("b", NodeKind.DOCUMENT)],
        (("a", NodeKind.GENERATED), ("b", NodeKind.DOCUMENT)),  # a tuple is the first list
    ):
        gen.generate_thought(parents, "q")
    gen.answer("q")
    gen.answer("q", "")
    gen.score_tokens("p", ["1", "0"])
    gen.score_tokens("p", ["0", "1"])
    gen.complete("p")
    gen.formulate_retrieval_query("p", "q")
    assert (gen.calls, gen.backend_calls) == (10, 9)
    assert len(inner.seen) == 9


@pytest.mark.parametrize("deterministic", [False, None], ids=["false", "no_attribute"])
def test_memo_is_off_unless_the_backend_says_it_is_deterministic(deterministic):
    inner = _FakeBackend(deterministic=deterministic)
    gen = CountingGenerator(inner)
    first, second = _every_call(gen), _every_call(gen)
    assert first != second  # every reply is a fresh one
    assert (gen.calls, gen.backend_calls, len(inner.seen)) == (10, 10, 10)


def test_memo_retries_a_call_that_raised():
    inner = _FakeBackend(failures=1)
    gen = CountingGenerator(inner)
    with pytest.raises(GenerationError, match="flaky"):
        gen.answer("q")
    assert gen.answer("q") == gen.answer("q") == "reply 2"
    assert (gen.calls, gen.backend_calls, len(inner.seen)) == (3, 2, 2)


def test_memo_hands_out_a_fresh_score_dict_each_time():
    gen = CountingGenerator(_FakeBackend())
    scores = gen.score_tokens("p", ["1", "0"])
    want = dict(scores)
    scores["1"] = 0.0
    scores.pop("0")
    assert gen.score_tokens("p", ["1", "0"]) == want
    assert gen.backend_calls == 1


def test_simulated_generator_is_deterministic():
    assert SimulatedGenerator.deterministic is True


# ---------------------------------------------------------------------------
# HTTP generator against a local wire-protocol server
# ---------------------------------------------------------------------------


class _Backend(BaseHTTPRequestHandler):
    fail_next = 0  # reply 503 to this many requests
    reject_with = 0  # when set, reply this status to every request
    bad_bodies: list[bytes] = []  # reply these bodies (with 200), one per request
    omit_logprobs = False
    delay_s = 0.0  # wait this long before each reply
    requests_seen = 0
    in_flight = 0  # requests received and not yet replied to
    peak_in_flight = 0
    authorizations: list[str | None] = []  # each request's Authorization header
    paths: list[str] = []  # each request's target
    lock = threading.Lock()  # handler threads update the counters above

    def do_POST(self):
        cls = type(self)
        length = int(self.headers["Content-Length"])
        payload = json.loads(self.rfile.read(length))
        body: dict = {"text": f"echo {len(payload['prompt'])}"}
        if payload.get("logprob_tokens") and not cls.omit_logprobs:
            body["token_logprobs"] = {tok: math.log(0.5) for tok in payload["logprob_tokens"]}
        with cls.lock:
            cls.requests_seen += 1
            cls.in_flight += 1
            cls.peak_in_flight = max(cls.peak_in_flight, cls.in_flight)
            cls.authorizations.append(self.headers.get("Authorization"))
            cls.paths.append(self.path)
            if cls.fail_next > 0 or cls.reject_with:
                if not cls.reject_with:
                    cls.fail_next -= 1
                status, data = cls.reject_with or 503, b""
            else:
                status = 200
                data = cls.bad_bodies.pop(0) if cls.bad_bodies else json.dumps(body).encode("utf-8")
        time.sleep(cls.delay_s)
        with cls.lock:  # no longer in flight once the client can read the reply
            cls.in_flight -= 1
        self.send_response(status)
        if status == 200:
            self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):  # keep test output quiet
        pass


@pytest.fixture()
def backend():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Backend)
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    _Backend.fail_next = 0
    _Backend.reject_with = 0
    _Backend.bad_bodies = []
    _Backend.omit_logprobs = False
    _Backend.delay_s = 0.0
    _Backend.requests_seen = 0
    _Backend.in_flight = 0
    _Backend.peak_in_flight = 0
    _Backend.authorizations = []
    _Backend.paths = []
    yield f"http://127.0.0.1:{server.server_port}/complete"
    server.shutdown()
    server.server_close()  # joins the handler threads, so none outlives its test
    thread.join(timeout=5)
    assert not thread.is_alive()


def _client(endpoint, retries=2, temperature=0.0):
    return HttpGenerator(
        endpoint, TemplateSet.builtin("boolq"), timeout_s=5.0, retries=retries, temperature=temperature
    )


@pytest.mark.parametrize("temperature, requests", [(0.0, 1), (0.7, 2)])
def test_http_memo_only_at_temperature_zero(backend, temperature, requests):
    client = _client(backend, temperature=temperature)
    assert client.deterministic is (temperature == 0)
    gen = CountingGenerator(client)
    assert gen.score_tokens("prompt", ["1", "0"]) == gen.score_tokens("prompt", ["1", "0"])
    assert _Backend.requests_seen == gen.backend_calls == requests
    assert gen.calls == 2


def test_http_smoke_generate_answer_query(backend):
    gen = _client(backend)
    thought = gen.generate_thought(
        [("t1", NodeKind.GENERATED), ("d1", NodeKind.DOCUMENT)], "q"
    )
    assert thought
    assert gen.answer("q", "context")
    assert gen.answer("q")
    assert gen.formulate_retrieval_query("best thought", "q")


def test_http_score_tokens_and_capability_error(backend):
    gen = _client(backend)
    scores = gen.score_tokens("prompt", ["1", "0"])
    assert set(scores) == {"1", "0"}
    assert all(isinstance(v, float) and v <= 0.0 for v in scores.values())
    _Backend.omit_logprobs = True
    with pytest.raises(CapabilityError):
        gen.score_tokens("prompt", ["1", "0"])


def test_http_retries_then_transport_error(backend):
    _Backend.fail_next = 2
    gen = _client(backend, retries=2)
    assert gen.answer("q")  # two failures absorbed by retries
    _Backend.fail_next = 5
    with pytest.raises(TransportError):
        gen.answer("q")


def test_http_retries_server_errors_up_to_retries(backend):
    _Backend.fail_next = 5
    with pytest.raises(TransportError, match="503"):
        _client(backend, retries=2).answer("q")
    assert _Backend.requests_seen == 3


@pytest.fixture()
def sleeps(monkeypatch):
    """Record each backoff sleep as (requests seen so far, seconds) instead of sleeping."""
    seen: list[tuple[int, float]] = []
    monkeypatch.setattr(generate, "sleep", lambda s: seen.append((_Backend.requests_seen, s)))
    return seen


@pytest.mark.parametrize("retries", [3, 8])
def test_http_backoff_between_retries_only(backend, sleeps, retries):
    _Backend.fail_next = 100
    with pytest.raises(TransportError):
        _client(backend, retries=retries).answer("q")
    assert _Backend.requests_seen == retries + 1
    assert [seen for seen, _ in sleeps] == list(range(1, retries + 1))  # none after the last
    for k, (_, seconds) in enumerate(sleeps):
        assert 0.0 <= seconds <= min(generate.BACKOFF_CAP_S, generate.BACKOFF_BASE_S * 2**k)


def test_http_backoff_draws_full_jitter_up_to_the_cap(backend, sleeps, monkeypatch):
    monkeypatch.setattr(generate.random, "uniform", lambda lo, hi: hi)
    _Backend.fail_next = 7
    assert _client(backend, retries=8).answer("q")
    base, cap = generate.BACKOFF_BASE_S, generate.BACKOFF_CAP_S
    assert [seconds for _, seconds in sleeps] == [min(cap, base * 2**k) for k in range(7)]
    assert sleeps[-1][1] == cap


def test_http_client_error_does_not_back_off(backend, sleeps):
    _Backend.reject_with = 404
    with pytest.raises(TransportError):
        _client(backend, retries=3).answer("q")
    assert sleeps == []


@pytest.mark.parametrize("status", [400, 404, 422, 307])
def test_http_client_error_fails_fast(backend, status):
    _Backend.reject_with = status
    with pytest.raises(TransportError, match=str(status)):
        _client(backend, retries=2).answer("q")
    assert _Backend.requests_seen == 1


@pytest.mark.parametrize(
    "body, call",
    [
        (b"[]", "answer"),
        (b'"just text"', "answer"),
        (b"not json", "answer"),
        (b'{"text": 5}', "answer"),
        (b'{"text": ["a"]}', "thought"),
        (b'{"text": "", "token_logprobs": [0.0]}', "score"),
        (b'{"text": "", "token_logprobs": {"1": "high", "0": -1.0}}', "score"),
        (b'{"text": "", "token_logprobs": {"1": NaN, "0": -1.0}}', "score"),
        (b'{"text": "", "token_logprobs": {"1": true, "0": -1.0}}', "score"),
        (b'{"text": "", "token_logprobs": {"1": "-0.5", "0": -1.0}}', "score"),
        (b'{"text": "", "token_logprobs": {"1": Infinity, "0": -1.0}}', "score"),
        (b'{"text": "", "token_logprobs": {"1": null, "0": -1.0}}', "score"),
        (b"[" * 200_000, "answer"),
    ],
    ids=[
        "array", "string", "not_json", "int_text", "list_text", "list_logprobs", "text_logprob",
        "nan_logprob", "bool_logprob", "numeric_string_logprob", "infinity_logprob", "null_logprob",
        "nested_deep",
    ],
)
def test_http_malformed_reply_is_generation_error(backend, body, call):
    _Backend.bad_bodies = [body]
    gen = _client(backend)
    with pytest.raises(GenerationError):
        if call == "answer":
            gen.answer("q")
        elif call == "thought":
            gen.generate_thought([("t", NodeKind.GENERATED), ("d", NodeKind.DOCUMENT)], "q")
        else:
            gen.score_tokens("prompt", ["1", "0"])
    assert _Backend.requests_seen == 1  # a bad reply is not retried


def test_http_logprobs_checked_only_for_requested_tokens(backend):
    """-Infinity is a requested token's probability 0; an entry nobody
    asked for is not read, so it cannot fail the call."""
    _Backend.bad_bodies = [
        b'{"text": "", "token_logprobs": {"1": -Infinity, "0": -1.0, "x": NaN}}',
        b'{"text": "a thought", "token_logprobs": {"x": null}}',
    ]
    gen = _client(backend)
    assert gen.score_tokens("prompt", ["1", "0"]) == {"1": -math.inf, "0": -1.0}
    thought = gen.generate_thought([("t", NodeKind.GENERATED), ("d", NodeKind.DOCUMENT)], "q")
    assert thought == "a thought"


def test_bad_reply_fails_one_example_and_the_rest_are_graded(backend):
    examples = [
        QAExample(query_id=f"q{i}", query=f"question {i}", gold_answers=[f"echo {i}"], task=Task.SIMULATED_FACT)
        for i in range(4)
    ]
    ports = EnginePorts(generator=_client(backend), templates=TemplateSet.builtin("boolq"))
    for body, names in [
        (b"[]", "backend reply must be an object"),
        (b"[" * 200_000, "backend reply is not JSON"),  # nested too deep to decode
    ]:
        _Backend.bad_bodies, _Backend.requests_seen = [body], 0
        report = run_benchmark(examples, Method.LLM_ONLY, ports, default_config("boolq"))
        failed = [row for row in report.per_example if row.error]
        assert [row.query_id for row in failed] == ["q0"]
        assert names in failed[0].error
        graded = [row for row in report.per_example if not row.error]
        assert len(graded) == 3 and all(row.answer.startswith("echo ") for row in graded)
        assert _Backend.requests_seen == 4


def test_reply_text_utf8_cannot_encode_fails_one_example_through_eval(backend, tmp_path, capsys):
    """A reply whose text holds a lone surrogate (valid JSON) fails its own
    example; eval grades the rest and writes one CSV row per example."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"generator": {"backend": "http", "endpoint": backend}}))
    examples = tmp_path / "examples.jsonl"
    records = [{"id": f"q{i}", "query": f"question {i}", "answers": ["v"]} for i in range(3)]
    examples.write_text("".join(json.dumps(record) + "\n" for record in records))
    _Backend.bad_bodies = [b'{"text": "bad \\ud800 reply"}']
    out = tmp_path / "out"
    argv = ["eval", "--config", str(config), "--examples", str(examples), "--methods", "llm_only", "--out", str(out)]
    assert main(argv) == 0
    assert "Traceback" not in capsys.readouterr().err
    header, *rows = csv.reader((out / "llm_only.csv").read_text(encoding="utf-8").splitlines())
    assert len(header) == 8 and [len(row) for row in rows] == [8, 8, 8]
    errors = {row[0]: row[7] for row in rows}
    assert errors["q1"] == errors["q2"] == ""
    assert errors["q0"].startswith("backend reply.text must encode as UTF-8")
    assert json.loads((out / "summary.json").read_text())["methods"]["llm_only"]["failed"] == 1


def test_http_read_timeout_is_retried_then_transport_error(backend, sleeps):
    _Backend.delay_s = 0.5
    gen = HttpGenerator(backend, TemplateSet.builtin("boolq"), timeout_s=0.1, retries=2)
    with pytest.raises(TransportError, match="timed out"):
        gen.answer("q")
    assert _Backend.requests_seen == 3
    assert len(sleeps) == 2


def test_http_concurrent_calls_each_get_their_own_reply(backend):
    """8 threads share one client with 4 slots; no reply crosses to another
    call, and the server never holds more than 4 requests at once."""
    _Backend.delay_s = 0.002
    gen = HttpGenerator(backend, TemplateSet.builtin("boolq"), timeout_s=5.0, max_concurrency=4)
    mismatches: list[tuple[int, str]] = []
    errors: list[BaseException] = []

    def worker(t: int) -> None:
        try:
            for i in range(25):
                n = 1 + t * 25 + i  # a distinct prompt length per call
                reply = gen.complete("x" * n)
                if reply != f"echo {n}":
                    mismatches.append((n, reply))
        except BaseException as exc:  # reported below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == [] and mismatches == []
    assert _Backend.requests_seen == 200
    assert 1 < _Backend.peak_in_flight <= 4


@pytest.mark.parametrize("api_key, header", [("s3cret", "Bearer s3cret"), (None, None), ("", None)])
def test_http_sends_bearer_token_exactly_when_a_key_is_set(backend, api_key, header):
    gen = HttpGenerator(backend, TemplateSet.builtin("boolq"), timeout_s=5.0, api_key=api_key)
    gen.answer("q")
    gen.score_tokens("prompt", ["1", "0"])
    assert _Backend.authorizations == [header, header]


@pytest.mark.parametrize(
    "endpoint",
    [
        "localhost:8808/complete",
        "127.0.0.1:8808/complete",
        "ftp://127.0.0.1/x",
        "http:///nohost",
        "http://127.0.0.1:port/complete",
        "http://127.0.0.1:99999/complete",
        "https://user:pw@127.0.0.1/complete",
        "",
    ],
)
def test_http_malformed_endpoint_is_config_error(endpoint):
    with pytest.raises(ConfigError, match="generator endpoint"):
        HttpGenerator(endpoint, TemplateSet.builtin("boolq"))


def test_http_endpoint_path_and_query_reach_the_server(backend):
    HttpGenerator(backend + "?model=m", TemplateSet.builtin("boolq")).answer("q")
    HttpGenerator(backend.removesuffix("/complete"), TemplateSet.builtin("boolq")).answer("q")
    assert _Backend.paths == ["/complete?model=m", "/"]
