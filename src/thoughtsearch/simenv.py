"""Planted-fact task construction for offline verification.

Each task hides one value per requirement key inside per-task document
chunks; the query names its keys with need: tokens and the gold answer is
the values joined in key order. A 2-hop task splits its two facts across two
documents, so answering requires combining them into one thought. Distractor
documents about other keys share the task's filter key and compete in
retrieval.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError, write_json_lines
from .harness import QAExample, Task
from .retrieval import token_bucket
from .seeding import rng_from

_FILLER = (
    "ledger archive shelf carries routine entries for the quarter and the "
    "clerk files them in order"
).split()


def pick_keys(count: int, dim: int) -> list[str]:
    """Deterministic key names whose plain, need: and has: tokens land in
    pairwise-distinct hash buckets at the given embedding dimension."""
    keys: list[str] = []
    used: set[int] = set()
    candidate = 0
    while len(keys) < count:
        name = f"k{candidate:03d}"
        candidate += 1
        buckets = {
            token_bucket(token, dim)
            for token in (name, f"need:{name}", f"has:{name}")
        }
        if len(buckets) == 3 and not (buckets & used):
            keys.append(name)
            used |= buckets
        if candidate > 100000:
            raise RuntimeError(f"cannot find {count} collision-free keys at dim {dim}")
    return keys


@dataclass(frozen=True)
class SimTask:
    example: QAExample
    records: list[dict]  # corpus records: {source_id, filter_key, text}


def make_task(
    task_id: str,
    rng,
    key_pool: list[str],
    n_hops: int = 2,
    n_distractors: int = 6,
    split: str = "test",
) -> SimTask:
    keys = sorted(rng.choice(len(key_pool), size=n_hops, replace=False).tolist())
    need_keys = [key_pool[i] for i in keys]
    values = {key: f"v{int(rng.integers(0, 100000)):05d}" for key in need_keys}
    query = (
        " ".join(f"need:{key}" for key in need_keys)
        + " report the recorded figures for "
        + " and ".join(need_keys)
    )
    gold = " ".join(values[key] for key in need_keys)

    records = []
    for j, key in enumerate(need_keys):
        lead = _FILLER[int(rng.integers(0, len(_FILLER)))]
        records.append(
            {
                "source_id": f"{task_id}-doc{j}",
                "filter_key": task_id,
                "text": (
                    f"{lead} entry {key} has:{key} fact:{key}={values[key]} "
                    + " ".join(_FILLER[:6])
                ),
            }
        )
    other_keys = [k for k in key_pool if k not in need_keys]
    for j in range(n_distractors):
        key = other_keys[int(rng.integers(0, len(other_keys)))]
        value = f"v{int(rng.integers(0, 100000)):05d}"
        lead = _FILLER[int(rng.integers(0, len(_FILLER)))]
        records.append(
            {
                "source_id": f"{task_id}-distractor{j}",
                "filter_key": task_id,
                "text": (
                    f"{lead} entry {key} has:{key} fact:{key}={value} "
                    + " ".join(_FILLER[6:])
                ),
            }
        )
    example = QAExample(
        query_id=task_id,
        query=query,
        gold_answers=[gold],
        task=Task.SIMULATED_FACT,
        filter_key=task_id,
        split=split,
    )
    return SimTask(example=example, records=records)


@dataclass
class SimSuite:
    train: list[QAExample]
    test: list[QAExample]
    records: list[dict]


def build_suite(
    n_train: int,
    n_test: int,
    seed: int,
    n_keys: int = 12,
    key_dim: int = 64,
    n_hops: int = 2,
    n_distractors: int = 6,
) -> SimSuite:
    """Seed-fixed suite: shared key vocabulary, per-task values and documents."""
    for name, value in (("n_train", n_train), ("n_test", n_test), ("seed", seed)):
        if value < 0:
            raise ConfigError(f"{name} must be >= 0, got {value}")
    key_pool = pick_keys(n_keys, key_dim)
    train, test, records = [], [], []
    for idx in range(n_train + n_test):
        split = "train" if idx < n_train else "test"
        task = make_task(
            f"{split}-{idx:04d}",
            rng_from(seed, 1000 + idx),
            key_pool,
            n_hops=n_hops,
            n_distractors=n_distractors,
            split=split,
        )
        records.extend(task.records)
        (train if split == "train" else test).append(task.example)
    return SimSuite(train=train, test=test, records=records)


def write_records(records: list[dict], path: str | Path) -> None:
    write_json_lines(path, records)


def write_examples(examples: list[QAExample], path: str | Path) -> None:
    write_json_lines(
        path,
        (
            {
                "id": ex.query_id,
                "query": ex.query,
                "answers": ex.gold_answers,
                "task": ex.task.value,
                "filter_key": ex.filter_key,
                "split": ex.split,
            }
            for ex in examples
        ),
    )
