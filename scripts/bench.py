#!/usr/bin/env python3
"""Compare two checkouts on perfbench workloads by alternating pairs of
runs, and write the result as BENCH_<tag>.json:

    python3 scripts/bench.py --pair ../parent ../change --workload http_backend \\
        --pairs 10 --seconds 10 --tag head

Each pair runs `perfbench/run.py` once in each checkout, at its seed 77, with
the first side alternating from pair to pair (Kalibera and Jones, "Rigorous
Benchmarking in Reasonable Time", ISMM 2013). The two checkouts' absolute
paths must have one length: the process's memory layout, and with it
`peak_rss_mb`, moves with the length of the path it runs from. After the
pairs come three `--trace 1` runs per side, alternating in the same way,
for the per-layer metrics: each traced run times one cold set-up, so one
run per side is one noisy sample.

The file holds, per workload and side: each end-to-end metric's runs,
median and quartiles; each per-layer metric's traced runs, median and
quartiles; the row and trace digests; the checkout's directory name and
the length of its path; and the git commit. Across sides it holds how many
pairs the change won per metric (by the direction `BENCHMARK.json` gives),
the gap between the medians and whether it exceeds the parent's
interquartile range, and the run length and pair count it used. It also
records `nproc`, Python and numpy. With --append, the workloads go into an
existing file of the same tag, so that each can run its own pair count and
length. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

SIDES = ("parent", "change")
SEED = 77  # perfbench/run.py's default seed, which every run uses
TRACED_RUNS = 3  # --trace 1 runs per side
DIGEST = re.compile(r"^digest rows=(\S+) traces=(\S+)$", re.M)


def perfbench(checkout: Path, workload: str, seconds: float, trace: int) -> dict:
    """One `perfbench/run.py` run in `checkout`, at its default seed: its
    result object (the last stdout line) with the digests it printed."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"error: {' '.join(argv)} in {checkout} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    match = DIGEST.search(proc.stdout)
    result["digests"] = {"rows": match[1], "traces": match[2]} if match else {}
    return result


def summary(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of one metric's runs."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"runs": values, "median": median, "q1": q1, "q3": q3}


def alternating(rounds: int):
    """(round, side) for each run, the first side alternating from round to round."""
    for i in range(rounds):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            yield i, side


def commit_of(checkout: Path) -> str | None:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def compare(checkouts: dict[str, Path], better: dict[str, str], workload: str, args) -> dict:
    """The alternating pairs and the traced runs of one workload, summed up."""
    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    for i, side in alternating(args.pairs):
        result = perfbench(checkouts[side], workload, args.seconds, trace=0)
        runs[side].append(result)
        print(f"{workload} pair {i + 1}/{args.pairs} {side}: " + " ".join(
            f"{name}={m['value']:.6g}" for name, m in result["metrics"].items()), flush=True)
    traced: dict[str, list[dict]] = {side: [] for side in SIDES}
    for _, side in alternating(TRACED_RUNS):
        traced[side].append(perfbench(checkouts[side], workload, args.seconds, trace=1))

    sides = {}
    for side in SIDES:
        digests = [r["digests"] for r in runs[side]]
        sides[side] = {
            "checkout": checkouts[side].name,
            "path_length": len(str(checkouts[side])),
            "commit": commit_of(checkouts[side]),
            "correct": all(r["correct"] for r in runs[side]),
            "attempted": sum(r["attempted"] for r in runs[side]),
            "failed": sum(r["failed"] for r in runs[side]),
            "digests": [d for i, d in enumerate(digests) if d not in digests[:i]],  # each distinct once
            "metrics": {
                name: dict(summary([r["metrics"][name]["value"] for r in runs[side]]), unit=m["unit"])
                for name, m in runs[side][0]["metrics"].items()
            },
            "per_layer": {
                name: summary([r["metrics"][name]["value"] for r in traced[side]])
                for name in traced[side][0]["metrics"]
            },
        }
    compared = {}
    for name, direction in better.items():
        old, new = sides["parent"]["metrics"][name], sides["change"]["metrics"][name]
        sign = 1.0 if direction == "higher" else -1.0
        gap = new["median"] - old["median"]
        compared[name] = {
            "better": direction,
            "pairs_won": sum(sign * (n - o) > 0 for o, n in zip(old["runs"], new["runs"])),
            "median_gap": gap,
            "median_gap_frac": gap / old["median"] if old["median"] else None,
            "parent_iqr": old["q3"] - old["q1"],
            "gap_exceeds_parent_iqr": sign * gap > old["q3"] - old["q1"],
        }
    return {
        "sides": sides,
        "compared": compared,
        "same_digests": sides["parent"]["digests"] == sides["change"]["digests"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--pair", nargs=2, metavar=("PARENT", "CHANGE"), type=Path, required=True)
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--tag", required=True, help="the output file is BENCH_<tag>.json")
    parser.add_argument("--out-dir", type=Path, default=Path("."))
    parser.add_argument("--append", action="store_true",
                        help="add these workloads to an existing BENCH_<tag>.json of the same host")
    args = parser.parse_args(argv)

    checkouts = dict(zip(SIDES, (p.resolve() for p in args.pair)))
    if len({len(str(p)) for p in checkouts.values()}) != 1:
        parser.error(f"the checkouts' paths differ in length: {checkouts['parent']} and {checkouts['change']}")
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    host = {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": metadata.version("numpy")}
    out = args.out_dir / f"BENCH_{args.tag}.json"
    record = {"tag": args.tag, "seed": SEED, "host": host, "workloads": {}}
    if args.append and out.exists():
        record = json.loads(out.read_text(encoding="utf-8"))
        if record["host"] != host:
            parser.error(f"{out} was written on another host: {record['host']}")
    results = {
        name: dict(compare(checkouts, better, name, args), seconds=args.seconds, pairs=args.pairs)
        for name in args.workload
    }
    record["workloads"].update(results)
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    for workload, result in results.items():
        print(f"{workload}: digests equal: {result['same_digests']}")
        for name, c in result["compared"].items():
            print(f"  {name:<20} won {c['pairs_won']}/{args.pairs}  median gap {c['median_gap']:+.6g}"
                  f"  parent IQR {c['parent_iqr']:.6g}")
    print(f"written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
