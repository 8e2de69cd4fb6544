#!/usr/bin/env python3
"""The repository benchmark. Run it from the root of a checkout:

    python3 perfbench/run.py --workload deep_search --seed 77 --seconds 10 --trace 0

It builds the workload's inputs from --seed, sets the engine up several
times (reporting the median), then runs passes over the workload's queries:
at least two, so that every run checks that passes agree, and more while
the next one is expected to end within --seconds. With
--trace 0 it reports the end-to-end metrics. With --trace 1 it sets up once,
runs one untraced and one traced pass, and reports the per-layer metrics
from the traced pass's spans. Human-readable lines come first; the last line
on stdout is one JSON object {"correct", "attempted", "failed", "metrics"}.
Exit status is 0 only when a result was printed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from tracer import Tracer, self_times

WORKLOADS = ("estimation", "deep_search", "http_backend")
SETUP_REPEATS = 5
MIN_PASSES = 2
MIN_BEYOND = 10  # a percentile is reported only with this many samples above it
WORK_ROOT = Path(".perfbench")


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank q-th percentile, refused unless at least MIN_BEYOND
    samples lie beyond it."""
    n = len(samples)
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} of {n} samples has {n - rank} beyond it; need {MIN_BEYOND}"
        )
    return sorted(samples)[rank - 1]


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _check_passes(wl, passes, examples) -> tuple[list[str], str, str]:
    problems = []
    for i, result in enumerate(passes):
        problems += [f"pass {i}: {p}" for p in wl.check_pass(result, examples)]
    rows = [wl.rows_digest(p) for p in passes]
    traces = [wl.traces_digest(p) for p in passes]
    if len(set(rows)) > 1 or len(set(traces)) > 1:
        problems.append("passes of the same inputs produced different rows or traces")
    return problems, rows[0], traces[0]


def _rows(result):
    return [row for report in result.reports for row in report.per_example]


def _print_table(metrics: dict) -> None:
    for name, m in metrics.items():
        print(f"  {name:<32} {m['value']:>14.6g} {m['unit']}")


def timed_run(wl, spec, inputs, workdir: Path, seconds: float) -> tuple[dict, list, list[str]]:
    setup_times = []
    for _ in range(SETUP_REPEATS):
        ports, stages = wl.set_up(spec, inputs, workdir)
        setup_times.append(stages["total"])
    passes = []
    with wl.maybe_backend(spec) as endpoint:
        if endpoint:
            ports = wl.http_ports(ports, inputs.config, endpoint)
        start, cpu_start = time.perf_counter(), time.process_time()
        while len(passes) < MIN_PASSES or (
            time.perf_counter() - start + passes[-1].wall_s <= seconds
        ):
            passes.append(wl.run_pass(spec, inputs, ports))
        cpu_s = time.process_time() - cpu_start
    problems, rows_digest, traces_digest = _check_passes(wl, passes, inputs.test)
    first = _rows(passes[0])
    latencies = [ms for p in passes for ms in p.query_ms]
    attempted = sum(len(_rows(p)) for p in passes)
    failed = sum(1 for p in passes for row in _rows(p) if row.error)
    metrics = {
        "setup_s": _metric(statistics.median(setup_times), "s"),
        "throughput_qps": _metric(
            statistics.median(len(_rows(p)) / p.wall_s for p in passes), "queries/s"
        ),
        "query_mean_ms": _metric(statistics.median(statistics.fmean(p.query_ms) for p in passes), "ms"),
        "query_p95_ms": _metric(percentile(latencies, 95), "ms"),
        "accuracy": _metric(sum(r.correct for r in first) / len(first), "fraction"),
        "llm_calls_per_query": _metric(
            sum(r.generator_calls for r in first) / len(first), "calls"
        ),
        "success_rate": _metric(1.0 - failed / attempted, "fraction"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
    }
    print(
        f"passes={len(passes)} attempted={attempted} succeeded={attempted - failed} failed={failed} "
        f"error_rate={failed / attempted:.6f} setups={SETUP_REPEATS}"
    )
    print(f"latency over {len(latencies)} queries: p50={statistics.median(latencies):.3f} ms")
    print("pass walls: " + " ".join(f"{p.wall_s:.3f}" for p in passes)
          + f" s; query-phase cpu {cpu_s:.3f} s")
    print(f"digest rows={rows_digest} traces={traces_digest}")
    return metrics, [attempted, failed], problems


def traced_run(wl, spec, inputs, workdir: Path, spans_path: Path) -> tuple[dict, list, list[str]]:
    ports, stages = wl.set_up(spec, inputs, workdir)
    tracer = Tracer()
    probe = wl.LayerProbe(tracer)
    with wl.maybe_backend(spec) as endpoint:
        if endpoint:
            ports = wl.http_ports(ports, inputs.config, endpoint)
        base = wl.run_pass(spec, inputs, ports)
        try:
            traced = wl.run_pass(spec, inputs, probe.install(ports), tracer)
        finally:
            tracer.restore()
    problems, rows_digest, traces_digest = _check_passes(wl, [base, traced], inputs.test)
    tracer.write(spans_path)

    selfs = self_times(tracer.spans)
    self_ms: dict[str, float] = {}
    count: dict[str, int] = {}
    for s in tracer.spans:
        self_ms[s.name] = self_ms.get(s.name, 0.0) + selfs[s.span_id] * 1000.0
        count[s.name] = count.get(s.name, 0) + 1
    gen_spans = [s for s in tracer.spans if s.name.startswith("generate.")]
    gen_ms = [s.duration * 1000.0 for s in gen_spans]
    queries = len(_rows(traced))
    busy_s = sum(s.duration for s in tracer.spans if s.name == "harness.run_example")
    outcomes = probe.outcomes
    thoughts = sum(o["thoughts"] for o in outcomes)
    ms = lambda name: self_ms.get(name, 0.0)
    n = lambda name: count.get(name, 0)

    metrics = {
        "retrieval.ingest_s": _metric(stages["ingest"], "s"),
        "retrieval.index_roundtrip_s": _metric(stages["save_index"] + stages["load_index"], "s"),
        "retrieval.retrieve_calls": _metric(n("retrieval.retrieve"), "count"),
        "retrieval.retrieve_ms": _metric(ms("retrieval.retrieve"), "ms"),
        "retrieval.retrieve_us_per_call": _metric(
            _ratio(ms("retrieval.retrieve") * 1000.0, n("retrieval.retrieve")), "us"
        ),
        "retrieval.embed_calls": _metric(n("retrieval.embed"), "count"),
        "retrieval.embed_ms": _metric(ms("retrieval.embed"), "ms"),
        "retrieval.embed_distinct_frac": _metric(
            _ratio(len(probe.embed_texts), n("retrieval.embed")), "fraction"
        ),
        "retrieval.docs_retrieved": _metric(probe.docs_retrieved, "count"),
        "retrieval.docs_used_frac": _metric(
            _ratio(sum(o["documents"] for o in outcomes), probe.docs_retrieved), "fraction"
        ),
        "mcts.select_ms": _metric(ms("mcts.select"), "ms"),
        "mcts.expand_ms": _metric(ms("mcts.expand"), "ms"),
        "mcts.simulate_ms": _metric(ms("mcts.simulate"), "ms"),
        "mcts.backprop_ms": _metric(ms("mcts.backpropagate"), "ms"),
        "mcts.steps": _metric(n("mcts.select"), "count"),
        "mcts.greedy_step_ms": _metric(ms("mcts.greedy_search"), "ms"),
        "mcts.thoughts_per_query": _metric(_ratio(thoughts, len(outcomes)), "thoughts"),
        "mcts.nodes_per_query": _metric(
            _ratio(sum(o["nodes"] for o in outcomes), len(outcomes)), "nodes"
        ),
        "mcts.doc_branch_frac": _metric(
            _ratio(sum(o["doc_branches"] for o in outcomes), thoughts), "fraction"
        ),
        "mcts.threshold_stop_frac": _metric(
            _ratio(sum(o["threshold"] for o in outcomes), len(outcomes)), "fraction"
        ),
        "mcts.best_path_frac": _metric(
            _ratio(sum(o["best_path"] for o in outcomes), thoughts), "fraction"
        ),
        "generate.thought_calls": _metric(n("generate.generate_thought"), "count"),
        "generate.answer_calls": _metric(n("generate.answer"), "count"),
        "generate.score_token_calls": _metric(n("generate.score_tokens"), "count"),
        "generate.formulate_calls": _metric(n("generate.formulate_retrieval_query"), "count"),
        "generate.call_ms": _metric(sum(ms(s) for s in count if s.startswith("generate.")), "ms"),
        "generate.call_p50_ms": _metric(statistics.median(gen_ms), "ms"),
        "generate.call_p95_ms": _metric(percentile(gen_ms, 95), "ms"),
        "generate.errors": _metric(sum(1 for s in gen_spans if s.failed), "count"),
        "scoring.collect_s": _metric(stages.get("collect", 0.0), "s"),
        "scoring.train_s": _metric(stages.get("train", 0.0), "s"),
        "scoring.samples": _metric(stages["samples"], "count"),
        "scoring.model_roundtrip_s": _metric(
            stages.get("save_model", 0.0) + stages.get("load_model", 0.0), "s"
        ),
        "scoring.predict_calls": _metric(n("scoring.predict_batch"), "count"),
        "scoring.predict_rows": _metric(probe.predict_rows, "count"),
        "scoring.predict_ms": _metric(ms("scoring.predict_batch"), "ms"),
        "scoring.predict_us_per_row": _metric(
            _ratio(ms("scoring.predict_batch") * 1000.0, probe.predict_rows), "us"
        ),
        "scoring.pairs_scored": _metric(probe.pairs, "count"),
        "scoring.pairs_distinct_frac": _metric(
            _ratio(len(probe.distinct_pairs), probe.pairs), "fraction"
        ),
        "scoring.score_calls": _metric(n("scoring.score"), "count"),
        "scoring.score_ms": _metric(ms("scoring.score"), "ms"),
        "harness.worker_busy_frac": _metric(
            _ratio(busy_s, inputs.config.workers * traced.wall_s), "fraction"
        ),
        "trace.bytes_per_query": _metric(
            _ratio(sum(size for _, _, size in traced.traces), queries), "bytes"
        ),
        "trace.serialize_ms": _metric(ms("trace.serialize"), "ms"),
        "trace.overhead_frac": _metric(_ratio(traced.wall_s - base.wall_s, base.wall_s), "fraction"),
    }
    total_ms = traced.wall_s * 1000.0 * inputs.config.workers
    print(f"traced pass: {len(tracer.spans)} spans, wall {traced.wall_s:.3f} s "
          f"(untraced {base.wall_s:.3f} s); spans in {spans_path}")
    layers: dict[str, float] = {}
    for name, value in self_ms.items():
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + value
    print("self time by layer, share of worker wall time: " + ", ".join(
        f"{layer} {100.0 * value / total_ms:.1f}%"
        for layer, value in sorted(layers.items(), key=lambda kv: -kv[1])
    ))
    print("largest self times:")
    for name, value in sorted(self_ms.items(), key=lambda kv: -kv[1])[:8]:
        print(f"  {name:<34} {value:>10.1f} ms {100.0 * value / total_ms:>5.1f}% {count[name]:>7} calls")
    print(f"digest rows={rows_digest} traces={traces_digest}")
    attempted = 2 * queries
    failed = sum(1 for p in (base, traced) for row in _rows(p) if row.error)
    return metrics, [attempted, failed], problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=77)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    engine_src = Path.cwd() / "src"
    if not (engine_src / "thoughtsearch" / "__init__.py").is_file():
        print(f"error: no engine package under {engine_src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(engine_src))
    import workloads as wl

    spec = wl.SPECS[args.workload]
    workdir = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        inputs = wl.make_inputs(spec, args.seed, workdir)
        print(f"workload={args.workload} seed={args.seed} queries/pass="
              f"{len(inputs.test) * len(spec.methods)} workers={inputs.config.workers}")
        if args.trace:
            spans_path = WORK_ROOT / f"spans-{args.workload}-{args.seed}.tsv.gz"
            metrics, (attempted, failed), problems = traced_run(wl, spec, inputs, workdir, spans_path)
        else:
            metrics, (attempted, failed), problems = timed_run(wl, spec, inputs, workdir, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    _print_table(metrics)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
