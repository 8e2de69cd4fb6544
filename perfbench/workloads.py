"""The benchmark's workloads: seed-generated inputs, timed set-up, and
passes of queries through the engine's public API.

A pass runs every method of a workload once over all its test queries, in a
closed loop: each client (a `config.workers` thread) starts its next query
only when its last one has returned. Every pass of one run must produce the
same rows, so repeated passes double as a determinism check.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import select
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import requests

from thoughtsearch import harness, mcts, retrieval, simenv
from thoughtsearch.config import EngineConfig, load_config
from thoughtsearch.generate import HttpGenerator, SimulatedGenerator
from thoughtsearch.graph import NodeKind
from thoughtsearch.harness import BenchmarkReport, EnginePorts, Method, QAExample
from thoughtsearch.metrics import normalize_answer
from thoughtsearch.scoring import (
    EstimatorScorer,
    OracleScorer,
    ScorerModel,
    SelfCriticScorer,
    collect_offline_dataset,
    load_model,
    save_model,
    train_estimator,
)
from thoughtsearch.templates import TemplateSet
from thoughtsearch.trace import graph_to_record, trace_text

from tracer import Tracer, TracedGenerator

BACKEND_START_TIMEOUT_S = 20.0
# The fixed suite every workload draws its test queries from.
POOL_SEED = 77
POOL_TASKS = 400
BACKEND_SCRIPT = Path(__file__).resolve().parent / "sim_backend.py"


@dataclass(frozen=True)
class Spec:
    """One workload: suite shape, engine settings and methods per pass."""

    n_train: int
    n_test: int
    n_hops: int
    n_distractors: int
    methods: tuple[Method, ...]
    overrides: dict = field(default_factory=dict)
    trains_estimator: bool = False
    uses_backend: bool = False
    serializes_traces: bool = False


SPECS = {
    "estimation": Spec(
        n_train=100,
        n_test=100,
        n_hops=2,
        n_distractors=6,
        methods=(Method.MCTS_ESTIMATION, Method.GREEDY_ESTIMATION),
        trains_estimator=True,
    ),
    "deep_search": Spec(
        n_train=0,
        n_test=300,
        n_hops=4,
        n_distractors=30,
        methods=(Method.MCTS_SELF_CRITIC,),
        overrides={"max_steps": 100},
        serializes_traces=True,
    ),
    "http_backend": Spec(
        n_train=100,
        n_test=100,
        n_hops=2,
        n_distractors=6,
        methods=(Method.MCTS_SELF_CRITIC,),
        overrides={"workers": 2, "retrieval": {"query_mode": "formulated"}},
        uses_backend=True,
    ),
}


@dataclass
class Inputs:
    """What the engine receives: the generated suite, corpus and config."""

    train: list[QAExample]
    test: list[QAExample]
    corpus: Path
    config: EngineConfig


def make_inputs(spec: Spec, seed: int, workdir: Path) -> Inputs:
    """The suite and its corpus are fixed; --seed draws the test queries
    from the pool, so every seed runs on the same corpus. Seeded corpora
    were tried: the greedy planner's budget-exhaustion rate moves with any
    change to the corpus (87 to 157 of 200 queries across five of them),
    while over one corpus each query's cost is fixed. Draws are prefixes of
    one permutation, so a smaller draw is a subset of a larger one."""
    suite = simenv.build_suite(
        n_train=spec.n_train,
        n_test=POOL_TASKS,
        seed=POOL_SEED,
        n_hops=spec.n_hops,
        n_distractors=spec.n_distractors,
    )
    picked = np.random.default_rng(seed).permutation(POOL_TASKS)[: spec.n_test]
    corpus = workdir / "corpus.jsonl"
    simenv.write_records(suite.records, corpus)
    config = load_config(task_mode="simulated", overrides=spec.overrides)
    return Inputs(
        train=suite.train,
        test=[suite.test[i] for i in sorted(picked)],
        corpus=corpus,
        config=config,
    )


def _timed(stages: dict, name: str, fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    stages[name] = time.perf_counter() - start
    return result


def set_up(spec: Spec, inputs: Inputs, workdir: Path) -> tuple[EnginePorts, dict]:
    """Everything before the first query can run, with each stage timed:
    ingest -> save_index -> load_index and, for the estimator,
    collect -> train -> save_model -> load_model."""
    config = inputs.config
    stages: dict[str, float] = {}
    index_path, model_path = workdir / "index.json", workdir / "model.json"
    index = _timed(
        stages,
        "ingest",
        retrieval.ingest_corpus,
        inputs.corpus,
        chunk_size=config.retrieval.chunk_words,
        dim=config.retrieval.embed_dim,
    )
    _timed(stages, "save_index", retrieval.save_index, index, index_path)
    index = _timed(stages, "load_index", retrieval.load_index, index_path)
    ports = EnginePorts(
        generator=SimulatedGenerator(),
        templates=TemplateSet.builtin(config.task_mode),
        index=index,
    )
    samples = []
    if spec.trains_estimator:
        embedder = retrieval.HashedEmbedder(dim=config.scoring.embed_dim)
        samples = _timed(
            stages,
            "collect",
            collect_offline_dataset,
            inputs.train,
            lambda ex, rng: harness.example_search_ports(Method.MCTS_ORACLE, ex, ports, config),
            config.episode(stop_threshold=config.stop_thresholds["oracle"]),
            embedder,
            seed=config.seed,
        )
        model = _timed(
            stages,
            "train",
            train_estimator,
            samples,
            holdout_fraction=config.scoring.holdout_fraction,
            regressor_config=config.scoring.regressor_config(),
            embedder_id=embedder.embedder_id,
            seed=config.seed,
        )
        _timed(stages, "save_model", save_model, model, model_path)
        ports.scorer_model = _timed(
            stages, "load_model", load_model, model_path, expected_embedder_id=embedder.embedder_id
        )
        ports.scoring_embedder = embedder
    stages["total"] = sum(stages.values())
    stages["samples"] = len(samples)
    return ports, stages


def _wait_ready(endpoint: str) -> None:
    deadline = time.monotonic() + BACKEND_START_TIMEOUT_S
    while True:
        try:
            resp = requests.post(endpoint, json={"prompt": "need:k probe"}, timeout=2)
            if resp.status_code == 200 and resp.json().get("text"):
                return
        except requests.RequestException:
            pass
        if time.monotonic() > deadline:
            raise RuntimeError(f"backend at {endpoint} never answered")
        time.sleep(0.05)


@contextlib.contextmanager
def maybe_backend(spec: Spec):
    """Yield the endpoint of a freshly started loopback backend process when
    the workload needs one, else ''. The process is stopped on every exit,
    failures included, and only yielded once it has answered a request."""
    if not spec.uses_backend:
        yield ""
        return
    proc = subprocess.Popen(
        [sys.executable, str(BACKEND_SCRIPT), "--port", "0"],
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        ready, _, _ = select.select([proc.stdout], [], [], BACKEND_START_TIMEOUT_S)
        line = proc.stdout.readline() if ready else ""
        if not line.startswith("listening "):
            raise RuntimeError(f"backend did not start (said {line!r})")
        endpoint = f"http://127.0.0.1:{int(line.split()[1])}/complete"
        _wait_ready(endpoint)
        yield endpoint
    finally:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()


def http_ports(ports: EnginePorts, config: EngineConfig, endpoint: str) -> EnginePorts:
    gen = config.generator
    generator = HttpGenerator(
        endpoint=endpoint,
        templates=ports.templates,
        timeout_s=gen.timeout_s,
        retries=gen.retries,
        max_concurrency=gen.max_concurrency,
        max_tokens=gen.max_tokens,
        temperature=gen.temperature,
    )
    return dataclasses.replace(ports, generator=generator)


@dataclass
class PassResult:
    reports: list[BenchmarkReport]
    wall_s: float
    query_ms: list[float]
    traces: list[tuple[str, str, int]]  # (query_id, sha256, bytes) per serialized trace


def run_pass(spec: Spec, inputs: Inputs, ports: EnginePorts, tracer: Tracer | None = None) -> PassResult:
    """Every method over every test query once. Each query is timed as a
    `harness.run_example` span, in a fresh tracer unless the caller passes
    the one it has installed its own wrappers in; all are restored on return."""
    traces: list[tuple[str, str, int]] = []
    sink = None
    if spec.serializes_traces:

        def serialize(outcome):
            return trace_text(graph_to_record(outcome.graph, outcome)).encode("utf-8")

        def sink(example, outcome):
            data = tracer.call("trace.serialize", serialize, outcome) if traced else serialize(outcome)
            traces.append((example.query_id, hashlib.sha256(data).hexdigest(), len(data)))

    traced = tracer is not None
    tracer = tracer or Tracer()
    tracer.wrap(harness, "run_example", "harness.run_example", query_of=lambda a: a[1].query_id)
    start = time.perf_counter()
    try:
        reports = [
            harness.run_benchmark(inputs.test, method, ports, inputs.config, trace_sink=sink)
            for method in spec.methods
        ]
    finally:
        wall = time.perf_counter() - start
        tracer.restore()
    query_ms = [s.duration * 1000.0 for s in tracer.spans if s.name == "harness.run_example"]
    return PassResult(reports, wall, query_ms, traces)


def check_pass(result: PassResult, examples: list[QAExample]) -> list[str]:
    """Output checks: one row per query, accuracy recomputed from the rows
    equals the report's aggregate, and each row's grade matches its answer
    under exact match of normalized text."""
    problems = []
    expected = sorted(ex.query_id for ex in examples)
    gold = {ex.query_id: {normalize_answer(g) for g in ex.gold_answers} for ex in examples}
    for report in result.reports:
        name = report.method.value
        ids = [row.query_id for row in report.per_example]
        if sorted(ids) != expected:
            problems.append(f"{name}: {len(ids)} rows for {len(expected)} queries")
        recomputed = sum(row.correct for row in report.per_example) / max(1, len(ids))
        if recomputed != report.aggregate:
            problems.append(f"{name}: accuracy {recomputed} != aggregate {report.aggregate}")
        for row in report.per_example:
            grade = int(normalize_answer(row.answer) in gold.get(row.query_id, ()))
            if not row.error and row.correct != grade:
                problems.append(f"{name}: {row.query_id} graded {row.correct} for {row.answer!r}")
                break
    return problems


def rows_digest(result: PassResult) -> str:
    h = hashlib.sha256()
    for report in result.reports:
        for r in report.per_example:
            h.update(
                f"{report.method.value}|{r.query_id}|{r.answer}|{r.thought_count}|"
                f"{r.generator_calls}|{r.scorer_calls}|{r.terminated_by}|{r.correct}|"
                f"{r.error}\n".encode("utf-8")
            )
    return h.hexdigest()


def traces_digest(result: PassResult) -> str:
    h = hashlib.sha256()
    for query_id, digest, size in sorted(result.traces):
        h.update(f"{query_id}|{digest}|{size}\n".encode("utf-8"))
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------


class LayerProbe:
    """Installs the traced pass's wrappers and keeps the counts that need a
    call's arguments or result. Counters are shared by worker threads."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._lock = threading.Lock()
        self.docs_retrieved = 0
        self.embed_texts: set[int] = set()
        self.pairs = 0
        self.distinct_pairs: set[int] = set()
        self.predict_rows = 0
        self.outcomes: list[dict] = []

    def _on_retrieve(self, args, docs):
        with self._lock:
            self.docs_retrieved += len(docs)

    def _on_embed(self, args, _vec):
        with self._lock:
            self.embed_texts.add(hash(args[1]))

    def _on_score_pairs(self, args, _scores):
        with self._lock:
            self.pairs += len(args[1])
            self.distinct_pairs.update(hash(pair) for pair in args[1])

    def _on_estimator_score(self, args, _score):
        _self, graph, node_id = args[:3]
        first, second = graph.node(node_id).parents
        pair = (graph.node(first).text, graph.node(second).text)
        with self._lock:
            self.pairs += 1
            self.distinct_pairs.add(hash(pair))

    def _on_predict(self, args, _out):
        with self._lock:
            self.predict_rows += len(args[1])

    def _on_search(self, args, outcome):
        graph = outcome.graph
        doc_branches = sum(
            1
            for action, _ in graph.history
            if NodeKind.DOCUMENT in (graph.node(action.first).kind, graph.node(action.second).kind)
        )
        ancestry, stack = set(), [outcome.best_thought]
        while stack:
            node_id = stack.pop()
            if node_id not in ancestry:
                ancestry.add(node_id)
                stack.extend(graph.node(node_id).parents)
        self.outcomes.append(
            {
                "thoughts": graph.generated_count,
                "nodes": len(graph.nodes),
                "documents": sum(1 for n in graph.nodes.values() if n.kind == NodeKind.DOCUMENT),
                "doc_branches": doc_branches,
                "threshold": outcome.terminated_by == mcts.Termination.THRESHOLD_REACHED,
                "best_path": sum(
                    1 for n in ancestry if graph.node(n).kind == NodeKind.GENERATED
                ),
            }
        )

    def install(self, ports: EnginePorts) -> EnginePorts:
        """Wrap every layer entry point below harness.run_example (which
        run_pass wraps) at the name its caller uses, and return ports whose
        generator is traced."""
        t = self.tracer
        t.wrap(harness, "run_search", "mcts.run_search", observe=self._on_search)
        t.wrap(harness, "greedy_search", "mcts.greedy_search", observe=self._on_search)
        for name in ("select", "expand", "simulate", "backpropagate"):
            t.wrap(mcts, name, f"mcts.{name}")
        t.wrap(retrieval, "retrieve", "retrieval.retrieve", observe=self._on_retrieve)
        t.wrap(retrieval.HashedEmbedder, "embed", "retrieval.embed", observe=self._on_embed)
        t.wrap(ScorerModel, "predict_batch", "scoring.predict_batch", observe=self._on_predict)
        t.wrap(EstimatorScorer, "score_pairs", "scoring.score_pairs", observe=self._on_score_pairs)
        t.wrap(EstimatorScorer, "score", "scoring.score", observe=self._on_estimator_score)
        t.wrap(SelfCriticScorer, "score", "scoring.score")
        t.wrap(OracleScorer, "score", "scoring.score")
        return dataclasses.replace(ports, generator=TracedGenerator(ports.generator, t))
