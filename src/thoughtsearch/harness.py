"""Benchmark runner.

Executes one of eight methods per QA example: two single-shot baselines
(closed-book LLM, one-document RAG), the bandit planner under three scoring
models, the no-retrieval ablation, the greedy estimator planner, and the
uniform-random pairing control. Parses answers per task, applies the task
metric, and emits per-example rows plus the aggregate. Rows are keyed by
query id so concurrent execution assembles an order-independent report.
"""

from __future__ import annotations

import dataclasses
import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable

from .config import EngineConfig
from .errors import ConfigError, EngineError, SchemaError, SearchError, json_field, json_value
from .errors import read_json_lines, utf8_text
from .generate import CountingGenerator, Generator, counting
from .metrics import best_token_f1, exact_match, parse_boolean, parse_quantity_mg
from .mcts import SearchOutcome, SearchPorts, greedy_search, random_search, run_search
from .retrieval import CorpusIndex, DocumentQueue, HashedEmbedder, retrieve
from .scoring import (
    EstimatorScorer,
    OfflineSample,
    OracleScorer,
    ScorerModel,
    SelfCriticScorer,
    collect_offline_dataset,
    train_estimator,
)
from .seeding import rng_from
from .templates import TemplateSet

log = logging.getLogger(__name__)


class Task(str, Enum):
    BOOLEAN = "boolean"
    EXTRACTIVE_MG = "extractive_mg"
    SIMULATED_FACT = "simulated_fact"


class Method(str, Enum):
    LLM_ONLY = "llm_only"
    RAG = "rag"
    MCTS_ORACLE = "mcts_oracle"
    MCTS_ORACLE_NO_IR = "mcts_oracle_no_ir"
    MCTS_SELF_CRITIC = "mcts_self_critic"
    MCTS_ESTIMATION = "mcts_estimation"
    GREEDY_ESTIMATION = "greedy_estimation"
    RANDOM_CONTROL = "random_control"


@dataclass(frozen=True)
class Plan:
    """What a method is: its planner ("mcts", "greedy", "random"; None for
    the single-shot baselines), its scorer kind (also its stop_thresholds
    key; None when nothing is scored), and whether it retrieves."""

    planner: str | None
    scorer: str | None
    retrieves: bool


PLANS: dict[Method, Plan] = {
    Method.LLM_ONLY: Plan(None, None, retrieves=False),
    Method.RAG: Plan(None, None, retrieves=True),
    Method.MCTS_ORACLE: Plan("mcts", "oracle", retrieves=True),
    Method.MCTS_ORACLE_NO_IR: Plan("mcts", "oracle", retrieves=False),
    Method.MCTS_SELF_CRITIC: Plan("mcts", "self_critic", retrieves=True),
    Method.MCTS_ESTIMATION: Plan("mcts", "estimation", retrieves=True),
    Method.GREEDY_ESTIMATION: Plan("greedy", "estimation", retrieves=True),
    Method.RANDOM_CONTROL: Plan("random", "oracle", retrieves=True),
}

@dataclass(frozen=True)
class QAExample:
    query_id: str
    query: str
    gold_answers: list[str]
    task: Task
    filter_key: str | None = None
    split: str = "test"

    def __post_init__(self):
        if self.task == Task.BOOLEAN and any(
            gold not in ("0", "1") for gold in self.gold_answers
        ):
            raise ConfigError(
                f"example {self.query_id}: boolean gold answers must be '0' or '1'"
            )


@dataclass
class ExampleResult:
    query_id: str
    correct: int
    thought_count: int
    generator_calls: int
    scorer_calls: int
    backend_calls: int = 0
    terminated_by: str = ""
    answer: str = ""
    error: str = ""
    error_class: str = ""  # the failure's class: a SearchError's cause's, else its own


@dataclass
class BenchmarkReport:
    method: Method
    per_example: list[ExampleResult]
    aggregate: float
    max_steps: int


@dataclass
class EnginePorts:
    """Shared, search-safe resources the benchmark wires per example."""

    generator: Generator
    templates: TemplateSet
    index: CorpusIndex | None = None
    scorer_model: ScorerModel | None = None


def extract_answer(task: Task, completion: str) -> str:
    """Map a raw completion into the task's answer space ('' when unparsable)."""
    if task == Task.BOOLEAN:
        return parse_boolean(completion) or ""
    if task == Task.EXTRACTIVE_MG:
        return parse_quantity_mg(completion) or ""
    return completion


def oracle_metric_for(config: EngineConfig) -> Callable[[str, list[str]], float]:
    if config.scoring.oracle_metric == "token_f1":
        return best_token_f1
    return lambda pred, golds: float(exact_match(pred, golds))


def make_scorer(method: Method, example: QAExample, ports: EnginePorts, config: EngineConfig):
    kind = PLANS[method].scorer
    if kind == "oracle":
        if not example.gold_answers:
            raise ConfigError(f"method {method.value} requires gold answers")
        parse = None
        if example.task in (Task.BOOLEAN, Task.EXTRACTIVE_MG):
            parse = lambda raw: extract_answer(example.task, raw)
        return OracleScorer(example.gold_answers, oracle_metric_for(config), parse)
    if kind == "self_critic":
        return SelfCriticScorer(ports.templates)
    if kind == "estimation":
        if ports.scorer_model is None:
            raise ConfigError(f"method {method.value} requires a trained scorer model")
        return EstimatorScorer(ports.scorer_model)
    raise ConfigError(f"method {method.value} has no scorer")


def _index(method: Method, ports: EnginePorts) -> CorpusIndex:
    if ports.index is None:
        raise ConfigError(f"method {method.value} requires a corpus index")
    return ports.index


def example_search_ports(
    method: Method, example: QAExample, ports: EnginePorts, config: EngineConfig
) -> SearchPorts:
    """Assemble per-example search ports: fresh queue (a method that
    retrieves requires the index), method-specific scorer."""
    retriever = None
    if PLANS[method].retrieves:
        retriever = DocumentQueue(
            _index(method, ports),
            batch_size=config.doc_batch_size,
            filter_key=example.filter_key,
            query_mode=config.retrieval.query_mode,
        )
    return SearchPorts(
        generator=ports.generator,
        scorer=make_scorer(method, example, ports, config),
        retriever=retriever,
    )


def search_example(
    method: Method,
    example: QAExample,
    ports: EnginePorts,
    config: EngineConfig,
    rng,
) -> SearchOutcome:
    """Search one example with a planning method's ports, its scorer's stop
    threshold and its planner's search. The dict is built on each call, so a
    wrapper installed on a module's search function sees every search."""
    plan = PLANS[method]
    search = {"mcts": run_search, "greedy": greedy_search, "random": random_search}[plan.planner]
    episode = config.episode(stop_threshold=config.stop_thresholds[plan.scorer])
    return search(example.query, example_search_ports(method, example, ports, config), episode, rng)


def train_scorer(
    examples: list[QAExample], ports: EnginePorts, config: EngineConfig
) -> tuple[ScorerModel, list[OfflineSample]]:
    """Collect the offline dataset from oracle-scored MCTS searches over
    `examples` and fit the reward estimator on it; returns the model and
    the samples."""
    samples = collect_offline_dataset(
        examples,
        lambda example, rng: example_search_ports(Method.MCTS_ORACLE, example, ports, config),
        config.episode(stop_threshold=config.stop_thresholds["oracle"]),
        HashedEmbedder(dim=config.scoring.embed_dim),
        seed=config.seed,
    )
    model = train_estimator(
        samples,
        holdout_fraction=config.scoring.holdout_fraction,
        regressor_config=config.scoring.regressor_config(),
        seed=config.seed,
    )
    return model, samples


def _row(
    example: QAExample, ledger: CountingGenerator, outcome: SearchOutcome | None, **fields
) -> ExampleResult:
    """One example's row: its calls from its ledger, its thoughts and scorer
    calls from its search's outcome (none for a baseline or an error
    outside the search)."""
    return ExampleResult(
        query_id=example.query_id,
        thought_count=outcome.graph.generated_count if outcome else 0,
        generator_calls=ledger.calls,
        scorer_calls=outcome.scorer_calls if outcome else 0,
        backend_calls=ledger.backend_calls,
        **fields,
    )


def run_example(
    method: Method,
    example: QAExample,
    ports: EnginePorts,
    config: EngineConfig,
    rng,
    trace_sink: Callable[[QAExample, SearchOutcome], None] | None = None,
) -> ExampleResult:
    """One example end to end: search (if the method plans), answer, grade.
    The search, its scorer and the final answer share one ledger: the
    ports' generator when it already counts, a fresh one otherwise."""
    ledger = counting(ports.generator)
    if ledger is not ports.generator:
        ports = dataclasses.replace(ports, generator=ledger)
    plan = PLANS[method]
    outcome = None
    context = None
    if plan.planner is not None:
        outcome = search_example(method, example, ports, config, rng)
        if trace_sink is not None:
            trace_sink(example, outcome)
        context = outcome.graph.node(outcome.best_thought).text
    elif plan.retrieves:
        docs = retrieve(_index(method, ports), example.query, k=1, filter_key=example.filter_key)
        context = docs[0].text if docs else None
    pred = extract_answer(example.task, ledger.answer(example.query, context))
    return _row(
        example, ledger, outcome,
        correct=exact_match(pred, example.gold_answers),
        terminated_by=outcome.terminated_by.value if outcome else "",
        answer=pred,
    )


def run_benchmark(
    examples: list[QAExample],
    method: Method,
    ports: EnginePorts,
    config: EngineConfig,
    trace_sink: Callable[[QAExample, SearchOutcome], None] | None = None,
) -> BenchmarkReport:
    """Run one method over a dataset. Per-example failures are recorded as
    incorrect with an error tag and the calls and thoughts they spent, and
    never abort the run."""

    def worker(idx_example: tuple[int, QAExample]) -> ExampleResult:
        idx, example = idx_example
        rng = rng_from(config.seed, idx)
        ledger = CountingGenerator(ports.generator)
        try:
            return run_example(
                method, example, dataclasses.replace(ports, generator=ledger), config, rng, trace_sink
            )
        except EngineError as exc:
            log.warning("example %s failed: %s", example.query_id, exc)
            searched = isinstance(exc, SearchError)  # raised from the error that ended the search
            error_class = type(exc.__cause__ if searched else exc).__name__
            outcome = exc.outcome if searched else None
            return _row(example, ledger, outcome, correct=0, error=str(exc), error_class=error_class)

    indexed = list(enumerate(examples))
    if config.workers > 1:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            results = list(pool.map(worker, indexed))
    else:
        results = [worker(item) for item in indexed]
    results.sort(key=lambda r: r.query_id)
    aggregate = sum(r.correct for r in results) / max(1, len(results))
    return BenchmarkReport(method, results, aggregate, max_steps=config.max_steps)


def accuracy_vs_size_curve(reports: list[BenchmarkReport]) -> list[dict]:
    """One row per thought budget: accuracy and mean generator calls."""
    rows = []
    for report in sorted(reports, key=lambda r: r.max_steps):
        n = len(report.per_example)
        mean_calls = (
            sum(r.generator_calls for r in report.per_example) / n if n else 0.0
        )
        rows.append(
            {
                "max_thoughts": report.max_steps,
                "accuracy": report.aggregate,
                "mean_generator_calls": mean_calls,
            }
        )
    return rows


# Free text stays one CSV field: no field separator, no line break.
_CSV_TEXT = str.maketrans({",": ";", "\n": " ", "\r": " "})


def report_to_csv(report: BenchmarkReport) -> str:
    lines = ["query_id,correct,thought_count,generator_calls,scorer_calls,terminated_by,answer,error"]
    for r in report.per_example:
        answer, error = r.answer.translate(_CSV_TEXT), r.error.translate(_CSV_TEXT)
        lines.append(
            f"{r.query_id},{r.correct},{r.thought_count},{r.generator_calls},"
            f"{r.scorer_calls},{r.terminated_by},{answer},{error}"
        )
    return "\n".join(lines) + "\n"


def curve_to_csv(rows: list[dict]) -> str:
    lines = ["max_thoughts,accuracy,mean_generator_calls"]
    for row in rows:
        lines.append(
            f"{row['max_thoughts']},{row['accuracy']},{row['mean_generator_calls']}"
        )
    return "\n".join(lines) + "\n"


def normalize_gold(task: Task, answers: list) -> list[str]:
    """Gold answers as strings; boolean golds normalize to "1" (1, true,
    yes) or "0" (anything else)."""
    if task == Task.BOOLEAN:
        return ["1" if str(a).strip().lower() in ("1", "true", "yes") else "0" for a in answers]
    return [str(a) for a in answers]


def _parse_example(rec, where: str, default_id: str) -> QAExample:
    """One decoded example record; a malformed one raises SchemaError naming
    `where` (path:line) and the field."""
    read = lambda key, kinds: json_field(rec, key, kinds, f"{where}: example")
    text = lambda value, name: utf8_text(value, f"{where}: field {name!r}")
    query = text(read("query", (str,)), "query")
    if not query.strip():
        raise SchemaError(f"{where}: field 'query' must not be blank")
    filter_key = read("filter_key", (str, type(None))) if "filter_key" in rec else None
    answers = read("answer" if "answer" in rec and "answers" not in rec else "answers", (str, list))
    if isinstance(answers, str):
        answers = [answers]
    if not answers:
        raise SchemaError(f"{where}: field 'answers' must not be empty")
    for i, answer in enumerate(answers):
        json_value(answer, (str, float, bool), f"{where}: example.answers[{i}]")
        text(str(answer), f"answers[{i}]")
    try:
        task = Task(rec.get("task", "simulated_fact"))
    except ValueError:
        raise SchemaError(
            f"{where}: field 'task' has unknown value {rec.get('task')!r}; "
            f"choose from {[t.value for t in Task]}"
        ) from None
    return QAExample(
        query_id=text(str(read("id", (str, int))), "id") if "id" in rec else default_id,
        query=query,
        gold_answers=normalize_gold(task, answers),
        task=task,
        filter_key=filter_key,
        split=read("split", (str,)) if "split" in rec else "test",
    )


def load_examples(
    path: str | Path,
    split: str | None = None,
    limit: int | None = None,
) -> list[QAExample]:
    """Read the newline-delimited example format.

    Fields: query (required), answers (list or string), task, id, filter_key,
    split. An id names the example's trace file and CSV row, so it must be a
    usable file name with no comma or line break, and unique in the file. An
    id, query or answer must encode as UTF-8. An unreadable file or a
    malformed line raises SchemaError; a limit below 1, ConfigError.
    """
    if limit is not None and limit < 1:
        raise ConfigError(f"limit must be >= 1, got {limit}")
    examples = []
    seen: dict[str, int] = {}
    for lineno, rec in read_json_lines(path, "examples"):
        where = f"{path}:{lineno}"
        example = _parse_example(rec, where, default_id=f"q{lineno:05d}")
        query_id = example.query_id
        if query_id in ("", ".", "..") or any(c in query_id for c in "/\\\0,\r\n"):
            raise SchemaError(f"{where}: field 'id' {query_id!r} is not a usable file name or CSV field")
        if query_id in seen:
            raise SchemaError(f"{where}: id {query_id!r} repeats the id of line {seen[query_id]}")
        seen[query_id] = lineno
        if split is not None and example.split != split:
            continue
        examples.append(example)
        if limit is not None and len(examples) >= limit:
            break
    return examples
