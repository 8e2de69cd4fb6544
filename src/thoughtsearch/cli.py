"""Operator surface.

Subcommands: ingest (corpus -> index file), run (answer one query and write
its trace), train-scorer (collect the offline dataset and fit the reward
estimator), eval (benchmark methods over a dataset), export-trace
(structured or graphviz rendering).

Exit codes: 0 success, 2 configuration/schema errors and output paths that
cannot be written, 3 runtime port errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from collections import Counter
from pathlib import Path

from . import harness, simenv
from .config import ENV_API_KEY, TASK_MODES, EngineConfig, config_hash, load_config
from .errors import ConfigError, EngineError, SchemaError, utf8_text
from .generate import HttpGenerator, SimulatedGenerator
from .harness import EnginePorts, Method, QAExample, Task
from .retrieval import ingest_corpus, load_index, save_index
from .scoring import load_model, save_dataset, save_model
from .seeding import rng_from
from .templates import TemplateSet
from .trace import dump_trace, graph_to_record, load_trace, to_dot, trace_text

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

_TASK_FOR_MODE = {
    "boolq": Task.BOOLEAN,
    "emrqa": Task.EXTRACTIVE_MG,
    "simulated": Task.SIMULATED_FACT,
}


def _templates(config: EngineConfig) -> TemplateSet:
    if config.generator.template_file:
        return TemplateSet.from_file(config.generator.template_file)
    return TemplateSet.builtin(config.task_mode)


def _generator(config: EngineConfig, templates: TemplateSet):
    if config.generator.backend == "simulated":
        return SimulatedGenerator()
    if not config.generator.endpoint:  # the backend is "http", checked at load
        raise ConfigError("http generator backend requires generator.endpoint")
    return HttpGenerator(
        endpoint=config.generator.endpoint,
        templates=templates,
        timeout_s=config.generator.timeout_s,
        retries=config.generator.retries,
        max_concurrency=config.generator.max_concurrency,
        max_tokens=config.generator.max_tokens,
        temperature=config.generator.temperature,
        api_key=os.environ.get(ENV_API_KEY),
    )


def _ports(config: EngineConfig, methods: list[Method]) -> EnginePorts:
    """Build the generator (a bad endpoint fails here, before any file
    loads), load every file the config names, then fail on a file that
    `methods` need (by their PLANS) and the config does not name."""
    plans = [harness.PLANS[method] for method in methods]
    templates = _templates(config)
    generator = _generator(config, templates)
    index = model = None
    if config.index_file:
        index = load_index(config.index_file)
        if index.embedder.dim != config.retrieval.embed_dim:
            raise ConfigError(
                f"index embedding dimension {index.embedder.dim} does not match "
                f"configured retrieval.embed_dim {config.retrieval.embed_dim}"
            )
    if config.model_file:
        model = load_model(config.model_file)
        if model.embed_dim != config.scoring.embed_dim:
            raise ConfigError(
                f"model embedding dimension {model.embed_dim} does not match "
                f"configured scoring.embed_dim {config.scoring.embed_dim}"
            )
    if index is None and any(plan.retrieves for plan in plans):
        raise ConfigError("this command requires index_file (or --index)")
    if model is None and any(plan.scorer == "estimation" for plan in plans):
        raise ConfigError("estimation methods require model_file (or --model)")
    return EnginePorts(generator=generator, templates=templates, index=index, scorer_model=model)


def _load_args_config(args: argparse.Namespace) -> EngineConfig:
    overrides: dict = {}
    for name in ("seed", "max_steps", "workers"):
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    if getattr(args, "index", None):
        overrides["index_file"] = args.index
    if getattr(args, "model", None):
        overrides["model_file"] = args.model
    if getattr(args, "chunk_words", None) is not None:
        overrides["retrieval"] = {"chunk_words": args.chunk_words}
    if getattr(args, "endpoint", None):
        overrides.setdefault("generator", {})["endpoint"] = args.endpoint
        overrides["generator"]["backend"] = "http"
    return load_config(args.config, task_mode=getattr(args, "mode", None), overrides=overrides)


def cmd_ingest(args: argparse.Namespace) -> int:
    config = _load_args_config(args)
    chunk_size = config.retrieval.chunk_words
    index = ingest_corpus(args.corpus, chunk_size, dim=config.retrieval.embed_dim)
    save_index(index, args.out)
    sources = sorted({doc.source_id for doc in index.documents})
    print(f"ingested {len(sources)} sources into {len(index.documents)} chunks")
    print(f"chunk_words={chunk_size} embedder={index.embedder_id}")
    print(f"index written to {args.out}")
    return EXIT_OK


def cmd_run(args: argparse.Namespace) -> int:
    config = _load_args_config(args)
    if not utf8_text(args.query, "--query", ConfigError).strip():
        raise ConfigError(f"--query must not be blank, got {args.query!r}")
    method = Method(args.method)
    ports = _ports(config, [method])
    task = _TASK_FOR_MODE[config.task_mode]
    example = QAExample(
        query_id="run",
        query=args.query,
        gold_answers=harness.normalize_gold(task, args.gold or []),
        task=task,
        filter_key=args.filter_key,
    )
    result = harness.run_example(
        method,
        example,
        ports,
        config,
        rng_from(config.seed, 0),
        trace_sink=lambda _, outcome: dump_trace(
            graph_to_record(outcome.graph, outcome), args.trace
        ),
    )
    print(f"answer: {result.answer}")
    print(
        f"thoughts={result.thought_count} terminated_by={result.terminated_by} "
        f"generator_calls={result.generator_calls} backend_calls={result.backend_calls} "
        f"scorer_calls={result.scorer_calls}"
    )
    print(f"trace written to {args.trace}")
    return EXIT_OK


def cmd_train_scorer(args: argparse.Namespace) -> int:
    config = _load_args_config(args)
    ports = _ports(config, [Method.MCTS_ORACLE])  # the searches train_scorer runs
    examples = harness.load_examples(args.examples, split=args.split)
    if not examples:
        raise ConfigError(f"no examples with split={args.split!r} in {args.examples}")
    model, samples = harness.train_scorer(examples, ports, config)
    if args.dataset_out:
        save_dataset(samples, args.dataset_out)
        print(f"dataset written to {args.dataset_out}")
    save_model(model, args.out)
    report = model.training_report
    print(
        f"trained on {report['sample_count']} samples: "
        f"train_mse={report['train_mse']:.6f} holdout_mse={report['holdout_mse']:.6f}"
    )
    print(f"threshold={model.threshold:.6f} embedder={model.embedder_id}")
    print(f"model written to {args.out}")
    return EXIT_OK


def _parse_methods(selector: str) -> list[Method]:
    if selector == "all":
        return list(Method)
    methods = []
    for name in selector.split(","):
        name = name.strip()
        try:
            methods.append(Method(name))
        except ValueError:
            raise ConfigError(
                f"unknown method {name!r}; choose from "
                f"{[m.value for m in Method]} or 'all'"
            ) from None
    return methods


def cmd_eval(args: argparse.Namespace) -> int:
    config = _load_args_config(args)
    methods = _parse_methods(args.methods)
    budgets = args.sweep_t.split(",") if args.sweep_t else []
    try:
        sweep = [dataclasses.replace(config, max_steps=int(t)) for t in budgets]
    except ValueError as exc:
        raise ConfigError(f"--sweep-t takes comma-separated integers: {exc}") from None
    ports = _ports(config, methods)
    examples = harness.load_examples(args.examples, split=args.split, limit=args.limit)
    if not examples:
        raise ConfigError(f"no examples loaded from {args.examples}")

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "config.json").write_text(config.to_json(), encoding="utf-8")
    summary: dict = {"config_hash": config_hash(config), "n_examples": len(examples), "methods": {}}

    for method in methods:
        trace_sink = None
        if args.traces:
            trace_dir = outdir / "traces" / method.value
            trace_dir.mkdir(parents=True, exist_ok=True)

            def trace_sink(example, outcome, _dir=trace_dir):
                dump_trace(graph_to_record(outcome.graph, outcome), _dir / f"{example.query_id}.json")

        report = harness.run_benchmark(examples, method, ports, config, trace_sink=trace_sink)
        (outdir / f"{method.value}.csv").write_text(
            harness.report_to_csv(report), encoding="utf-8"
        )
        results = report.per_example
        n = len(results)
        generator_calls = sum(r.generator_calls for r in results)
        failed_by = Counter(r.error_class for r in results if r.error)
        failed = sum(failed_by.values())
        summary["methods"][method.value] = {
            "aggregate": report.aggregate,
            "n": n,
            "failed": failed,
            "failed_by": dict(failed_by),
            "max_steps": report.max_steps,
            "generator_calls": generator_calls,
            "backend_calls": sum(r.backend_calls for r in results),
        }
        if sweep and harness.PLANS[method].planner is not None:
            sweep_reports = [
                harness.run_benchmark(examples, method, ports, sweep_config)
                for sweep_config in sweep
            ]
            rows = harness.accuracy_vs_size_curve(sweep_reports)
            (outdir / f"{method.value}_curve.csv").write_text(
                harness.curve_to_csv(rows), encoding="utf-8"
            )
        print(
            f"{method.value}: accuracy={report.aggregate:.4f} "
            f"thoughts={sum(r.thought_count for r in results) / n:.2f} "
            f"generator_calls={generator_calls / n:.2f} over {n} examples failed={failed}"
        )

    (outdir / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"reports written to {outdir} (config {summary['config_hash']})")
    return EXIT_OK


def cmd_export_trace(args: argparse.Namespace) -> int:
    record = load_trace(args.trace)
    rendered = to_dot(record) if args.format == "graphviz" else trace_text(record)
    if args.out:
        Path(args.out).write_text(rendered, encoding="utf-8")
        print(f"written to {args.out}")
    else:
        sys.stdout.write(rendered)
    return EXIT_OK


def cmd_make_suite(args: argparse.Namespace) -> int:
    suite = simenv.build_suite(
        n_train=args.train, n_test=args.test, seed=args.seed if args.seed is not None else 0
    )
    simenv.write_records(suite.records, args.corpus_out)
    simenv.write_examples(suite.train + suite.test, args.examples_out)
    print(
        f"wrote {len(suite.train)} train + {len(suite.test)} test tasks, "
        f"{len(suite.records)} corpus records"
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thoughtsearch",
        description="Retrieval-grounded thought-graph planning engine",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser):
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--mode", choices=TASK_MODES, default=None)
        p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("ingest", help="chunk and embed a corpus into an index file")
    common(p)
    p.add_argument("--corpus", required=True, help=".txt directory or JSONL record file")
    p.add_argument("--out", required=True, help="index file path")
    p.add_argument("--chunk-words", type=int, default=None, dest="chunk_words")

    p = sub.add_parser("run", help="answer one query and write its trace")
    common(p)
    p.add_argument("--query", required=True)
    p.add_argument("--index", default=None)
    p.add_argument("--model", default=None)
    p.add_argument(
        "--method",
        choices=[m.value for m, plan in harness.PLANS.items() if plan.planner is not None],
        default=Method.MCTS_SELF_CRITIC.value,
    )
    p.add_argument("--gold", nargs="*", default=None, help="gold answers (oracle-scored methods)")
    p.add_argument("--filter-key", default=None, dest="filter_key")
    p.add_argument("--max-steps", type=int, default=None, dest="max_steps")
    p.add_argument("--endpoint", default=None, help="HTTP generator endpoint")
    p.add_argument("--trace", default="trace.json")

    p = sub.add_parser("train-scorer", help="collect the offline dataset and train the estimator")
    common(p)
    p.add_argument("--examples", required=True)
    p.add_argument("--split", default="train")
    p.add_argument("--index", required=True)
    p.add_argument("--out", required=True, help="model file path")
    p.add_argument("--dataset-out", default=None, dest="dataset_out")
    p.add_argument("--endpoint", default=None)

    p = sub.add_parser("eval", help="run benchmark methods over a dataset")
    common(p)
    p.add_argument("--examples", required=True)
    p.add_argument("--split", default=None)
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--methods", default="all")
    p.add_argument("--index", default=None)
    p.add_argument("--model", default=None)
    p.add_argument("--out", required=True, help="report directory")
    p.add_argument("--sweep-t", default=None, dest="sweep_t", help="comma-separated thought budgets")
    p.add_argument("--traces", action="store_true", help="write per-example trace files")
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--max-steps", type=int, default=None, dest="max_steps")
    p.add_argument("--endpoint", default=None)

    p = sub.add_parser("export-trace", help="render a trace file")
    p.add_argument("--trace", required=True)
    p.add_argument("--format", choices=["structured", "graphviz"], default="structured")
    p.add_argument("--out", default=None)

    p = sub.add_parser("make-suite", help="generate a planted-fact task suite")
    p.add_argument("--train", type=int, default=100)
    p.add_argument("--test", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--corpus-out", required=True, dest="corpus_out")
    p.add_argument("--examples-out", required=True, dest="examples_out")

    return parser


_COMMANDS = {
    "ingest": cmd_ingest,
    "run": cmd_run,
    "train-scorer": cmd_train_scorer,
    "eval": cmd_eval,
    "export-trace": cmd_export_trace,
    "make-suite": cmd_make_suite,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, SchemaError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except EngineError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:  # an output path that cannot be written; loaders raise EngineErrors
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
