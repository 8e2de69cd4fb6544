"""Generator ports.

Two implementations of the same protocol: a wire client for any
completion-style HTTP backend, and a deterministic simulated generator whose
texts carry machine-readable fact tokens so planner behaviour can be checked
by brute force. The simulated text convention:

    fact:KEY=VALUE   a planted fact (documents carry these)
    need:KEY         a query's information requirement
    has:KEY          emitted by the combiner for every fact key it holds
"""

from __future__ import annotations

import http.client
import json
import math
import random
import re
import threading
from dataclasses import dataclass
from time import sleep
from typing import Protocol, Sequence
from urllib.parse import urlsplit

from .errors import CapabilityError, ConfigError, GenerationError, TransportError
from .errors import decode_json, json_field, json_value, utf8_text
from .graph import NodeKind
from .templates import TemplateSet

ParentText = tuple[str, NodeKind]

# Full-jitter exponential backoff between HTTP retries, in seconds.
BACKOFF_BASE_S = 0.05
BACKOFF_CAP_S = 2.0

FACT_TOKEN = re.compile(r"fact:([A-Za-z0-9_]+)=([A-Za-z0-9_]+)")
NEED_TOKEN = re.compile(r"need:([A-Za-z0-9_]+)")

UNKNOWN_ANSWER = "unknown"

# The connection class for each endpoint scheme HttpGenerator accepts.
# HTTPSConnection verifies certificates with ssl's default context.
CONNECTIONS = {"http": http.client.HTTPConnection, "https": http.client.HTTPSConnection}


@dataclass(frozen=True)
class GenerationResult:
    text: str
    token_scores: dict[str, float] | None = None


class Generator(Protocol):
    """Completion-backed operations every backend must provide.

    A backend whose reply is a function of the call alone may also set
    `deterministic = True`; each example then sends it every distinct call
    once (see CountingGenerator). Without the attribute it counts as False.
    """

    def generate_thought(self, parents: Sequence[ParentText], query: str) -> str: ...

    def answer(self, query: str, context: str | None = None) -> str: ...

    def formulate_retrieval_query(self, thoughts: str, query: str) -> str: ...

    def score_tokens(self, prompt: str, tokens: Sequence[str]) -> dict[str, float]: ...

    def complete(self, prompt: str) -> str: ...


class CountingGenerator:
    """Delegating wrapper for one example (its search, scorer and final
    answer): counts every call and, when the inner generator is
    deterministic, answers a repeated call from a memo.

    `calls` counts the calls the caller asked for; `backend_calls` counts
    those that reached the inner generator. The memo is keyed by method and
    arguments as given (parents keep their order and kinds), stores only
    results (a call that raised is retried next time), and lives as long as
    this wrapper, so it needs no lock and nothing leaks between examples.
    """

    def __init__(self, inner: Generator):
        self.inner = inner
        self.calls = 0
        self.backend_calls = 0
        self._memo: dict | None = {} if getattr(inner, "deterministic", False) else None

    def _ask(self, key: tuple, fn, *args):
        self.calls += 1
        memo = self._memo
        if memo is not None and key in memo:
            return memo[key]
        self.backend_calls += 1
        result = fn(*args)
        if memo is not None:
            memo[key] = result
        return result

    def generate_thought(self, parents: Sequence[ParentText], query: str) -> str:
        key = ("generate_thought", tuple((text, kind) for text, kind in parents), query)
        return self._ask(key, self.inner.generate_thought, parents, query)

    def answer(self, query: str, context: str | None = None) -> str:
        return self._ask(("answer", query, context), self.inner.answer, query, context)

    def formulate_retrieval_query(self, thoughts: str, query: str) -> str:
        key = ("formulate_retrieval_query", thoughts, query)
        return self._ask(key, self.inner.formulate_retrieval_query, thoughts, query)

    def score_tokens(self, prompt: str, tokens: Sequence[str]) -> dict[str, float]:
        key = ("score_tokens", prompt, tuple(tokens))
        # A copy per call: a caller that edits its dict cannot edit the memo.
        return dict(self._ask(key, self.inner.score_tokens, prompt, tokens))

    def complete(self, prompt: str) -> str:
        return self._ask(("complete", prompt), self.inner.complete, prompt)


def counting(generator: Generator) -> CountingGenerator:
    """The ledger for `generator`: the port itself when it already counts,
    a fresh CountingGenerator around it otherwise."""
    if isinstance(generator, CountingGenerator):
        return generator
    return CountingGenerator(generator)


def parse_facts(text: str) -> dict[str, str]:
    """Fact tokens in order of first occurrence; first binding of a key wins."""
    facts: dict[str, str] = {}
    for key, value in FACT_TOKEN.findall(text):
        facts.setdefault(key, value)
    return facts


def parse_needs(text: str) -> list[str]:
    """Sorted unique requirement keys mentioned in the text."""
    return sorted(set(NEED_TOKEN.findall(text)))


class SimulatedGenerator:
    """Deterministic generator over fact tokens.

    Thought generation is fact-set union plus framing; answering looks up the
    query's requirement keys in the context facts. Identical inputs always
    produce identical outputs.
    """

    deterministic = True

    def generate_thought(self, parents: Sequence[ParentText], query: str) -> str:
        if len(parents) != 2:
            raise GenerationError(f"expected 2 parents, got {len(parents)}")
        facts: dict[str, str] = {}
        needs: set[str] = set(parse_needs(query))
        for text, _ in parents:
            for key, value in parse_facts(text).items():
                facts.setdefault(key, value)
            needs.update(parse_needs(text))
        pieces = ["note"]
        pieces += [f"need:{key}" for key in sorted(needs)]
        pieces += [f"has:{key}" for key in sorted(facts)]
        pieces += [f"fact:{key}={facts[key]}" for key in sorted(facts)]
        return " ".join(pieces)

    def answer(self, query: str, context: str | None = None) -> str:
        needs = parse_needs(query)
        if not needs:
            return UNKNOWN_ANSWER
        facts = parse_facts(context) if context else {}
        return " ".join(facts.get(key, UNKNOWN_ANSWER) for key in needs)

    def formulate_retrieval_query(self, thoughts: str, query: str) -> str:
        keywords = sorted({tok for tok in thoughts.split() if ":" in tok})
        return " ".join([query, *keywords]).strip()

    def score_tokens(self, prompt: str, tokens: Sequence[str]) -> dict[str, float]:
        if not tokens:
            raise GenerationError("score_tokens requires at least one token")
        needs = parse_needs(prompt)
        facts = parse_facts(prompt)
        covered = bool(needs) and all(key in facts for key in needs)
        p_yes, p_no = (0.9, 0.1) if covered else (0.1, 0.9)
        table = {"1": math.log(p_yes), "0": math.log(p_no)}
        return {tok: table.get(tok, math.log(1e-9)) for tok in tokens}

    def complete(self, prompt: str) -> str:
        scores = self.score_tokens(prompt, ["1", "0"])
        return "1" if scores["1"] > scores["0"] else "0"


def _join_parent_texts(parents: Sequence[ParentText]) -> tuple[str, str]:
    thoughts = [text for text, kind in parents if kind != NodeKind.DOCUMENT]
    documents = [text for text, kind in parents if kind == NodeKind.DOCUMENT]
    return "\n\n".join(thoughts), "\n\n".join(documents)


class HttpGenerator:
    """Client for a single completion-style HTTP route.

    Request body: {"prompt": str, "max_tokens": int, "logprob_tokens": [str]}
    Response body: {"text": str, "token_logprobs": {str: float}}, each
    requested log-probability a finite JSON number or -Infinity

    Safe for concurrent use: every request opens its own connection and
    closes it (`Connection: close`), so threads share nothing but the
    semaphore that bounds in-flight requests; each request carries a
    timeout plus bounded retry.
    """

    def __init__(
        self,
        endpoint: str,
        templates: TemplateSet,
        timeout_s: float = 30.0,
        retries: int = 2,
        max_concurrency: int = 4,
        max_tokens: int = 256,
        temperature: float = 0.0,
        api_key: str | None = None,
    ):
        parts = urlsplit(endpoint)
        try:
            port = parts.port
        except ValueError as exc:
            raise ConfigError(f"generator endpoint {endpoint!r} has a bad port: {exc}") from None
        if parts.scheme not in CONNECTIONS or not parts.hostname:
            raise ConfigError(
                f"generator endpoint {endpoint!r} is not an http:// or https:// URL with a host"
            )
        if parts.username is not None:
            raise ConfigError(
                f"generator endpoint {endpoint!r} holds credentials; pass a bearer token instead"
            )
        self.endpoint = endpoint
        self.templates = templates
        self.timeout_s = timeout_s
        self.retries = retries
        self.max_tokens = max_tokens
        self.temperature = temperature
        self.api_key = api_key
        self._semaphore = threading.BoundedSemaphore(max_concurrency)
        self._connection = CONNECTIONS[parts.scheme]
        self._host, self._port = parts.hostname, port
        self._path = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")

    @property
    def deterministic(self) -> bool:
        """Greedy decoding: a search may reuse a reply to an identical call."""
        return self.temperature == 0

    def _send(self, body: bytes, headers: dict) -> tuple[int, bytes]:
        """One POST on a fresh connection: the reply's status and body."""
        conn = self._connection(self._host, self._port, timeout=self.timeout_s)
        try:
            conn.request("POST", self._path, body, headers)
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def _post(self, payload: dict) -> dict:
        """POST one request. 5xx replies, timeouts and connection errors are
        retried up to `retries` times, retry k (from 0) after sleeping
        uniform(0, min(BACKOFF_CAP_S, BACKOFF_BASE_S * 2**k)) s; a 3xx or
        4xx reply fails at once (redirects are not followed)."""
        body = json.dumps(payload).encode("utf-8")
        headers = {"Content-Type": "application/json", "Connection": "close"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        last_error: Exception | None = None
        for attempt in range(self.retries + 1):
            if attempt:
                sleep(random.uniform(0.0, min(BACKOFF_CAP_S, BACKOFF_BASE_S * 2 ** (attempt - 1))))
            try:
                with self._semaphore:
                    status, data = self._send(body, headers)
            except (OSError, http.client.HTTPException) as exc:
                last_error = exc
                continue
            if status >= 500:
                last_error = TransportError(f"server error {status}")
                continue
            if status >= 300:
                raise TransportError(f"completion endpoint rejected the request with HTTP {status}")
            return decode_json(data, "backend reply is not JSON", GenerationError)
        raise TransportError(f"completion endpoint failed: {last_error}") from last_error

    def _complete(
        self, prompt: str, logprob_tokens: Sequence[str] | None = None
    ) -> GenerationResult:
        payload: dict = {"prompt": prompt, "max_tokens": self.max_tokens}
        if self.temperature:
            payload["temperature"] = self.temperature
        if logprob_tokens:
            payload["logprob_tokens"] = list(logprob_tokens)
        body = json_value(self._post(payload), (dict,), "backend reply", GenerationError)
        text = json_value(body.get("text", ""), (str,), "backend reply.text", GenerationError)
        utf8_text(text, "backend reply.text", GenerationError)
        scores = body.get("token_logprobs")
        json_value(scores, (dict, type(None)), "backend reply.token_logprobs", GenerationError)
        return GenerationResult(text=text, token_scores=scores)

    def _nonempty(self, text: str, what: str) -> str:
        if not text.strip():
            raise GenerationError(f"backend returned an empty {what}")
        return text.strip()

    def generate_thought(self, parents: Sequence[ParentText], query: str) -> str:
        if len(parents) != 2:
            raise GenerationError(f"expected 2 parents, got {len(parents)}")
        thoughts, documents = _join_parent_texts(parents)
        prompt = self.templates["ThoughtGen"].render(
            thoughts=thoughts, documents=documents, query=query
        )
        return self._nonempty(self._complete(prompt).text, "thought")

    def answer(self, query: str, context: str | None = None) -> str:
        if context is None:
            prompt = self.templates["AnswerClosedBook"].render(query=query)
        else:
            prompt = self.templates["AnswerWithContext"].render(
                query=query, context=context
            )
        return self._nonempty(self._complete(prompt).text, "answer")

    def formulate_retrieval_query(self, thoughts: str, query: str) -> str:
        prompt = self.templates["RetrievalQuery"].render(thoughts=thoughts, query=query)
        return self._nonempty(self._complete(prompt).text, "retrieval query")

    def score_tokens(self, prompt: str, tokens: Sequence[str]) -> dict[str, float]:
        if not tokens:
            raise GenerationError("score_tokens requires at least one token")
        scores = self._complete(prompt, logprob_tokens=tokens).token_scores
        if scores is None:
            raise CapabilityError("backend does not report token log-probabilities")
        missing = [tok for tok in tokens if tok not in scores]
        if missing:
            raise CapabilityError(f"backend omitted log-probabilities for {missing}")
        for tok in tokens:
            # -Infinity, probability 0, is a log-probability; NaN, +Infinity,
            # booleans and strings are not.
            if scores[tok] != -math.inf:
                json_field(scores, tok, (float,), "backend reply.token_logprobs", GenerationError)
        return {tok: float(scores[tok]) for tok in tokens}

    def complete(self, prompt: str) -> str:
        return self._nonempty(self._complete(prompt).text, "completion")
