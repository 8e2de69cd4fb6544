#!/usr/bin/env python3
"""Accuracy and LLM-call cost as the thought budget grows.

Sweeps the generated-node budget T for one method on a simulated suite and
prints the accuracy-vs-size curve (one row per T). The call count per thought
stays flat, so total cost grows linearly with the budget.

    python scripts/sweep_thought_budget.py --budgets 2,5,10,15,25
"""

from __future__ import annotations

import argparse
import tempfile
from dataclasses import replace
from pathlib import Path

from thoughtsearch import simenv
from thoughtsearch.config import default_config
from thoughtsearch.errors import ConfigError
from thoughtsearch.generate import SimulatedGenerator
from thoughtsearch.harness import (
    EnginePorts,
    Method,
    accuracy_vs_size_curve,
    curve_to_csv,
    run_benchmark,
)
from thoughtsearch.retrieval import ingest_corpus
from thoughtsearch.templates import TemplateSet


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tasks", type=int, default=100)
    parser.add_argument("--seed", type=int, default=77)
    parser.add_argument("--budgets", default="2,5,10,15,25")
    parser.add_argument("--method", default="mcts_oracle")
    parser.add_argument("--out", default=None, help="write the curve CSV here")
    args = parser.parse_args()

    method = Method(args.method)
    base = default_config("simulated")
    try:
        configs = [replace(base, max_steps=int(t)) for t in args.budgets.split(",")]
    except (ConfigError, ValueError) as exc:
        parser.error(str(exc))
    suite = simenv.build_suite(n_train=0, n_test=args.tasks, seed=args.seed)
    with tempfile.TemporaryDirectory() as tmp:
        corpus = Path(tmp) / "corpus.jsonl"
        simenv.write_records(suite.records, corpus)
        index = ingest_corpus(corpus, chunk_size=100, dim=256)
    ports = EnginePorts(
        generator=SimulatedGenerator(),
        templates=TemplateSet.builtin("simulated"),
        index=index,
    )

    reports = [run_benchmark(suite.test, method, ports, config) for config in configs]
    rows = accuracy_vs_size_curve(reports)
    print(f"{'T':>4} {'accuracy':>9} {'mean llm calls':>15}")
    for row in rows:
        print(
            f"{row['max_thoughts']:>4} {row['accuracy']:>9.3f} "
            f"{row['mean_generator_calls']:>15.2f}"
        )
    if args.out:
        Path(args.out).write_text(curve_to_csv(rows), encoding="utf-8")
        print(f"curve written to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
