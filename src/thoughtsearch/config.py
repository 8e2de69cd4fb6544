"""Engine configuration: one JSON file, per-task-mode defaults, environment
overrides for endpoint values, and a content hash for reproducibility.

Task modes ship the hyperparameters each benchmark ran with, so a bare
config reproduces the intended setup shape.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from pathlib import Path

from .errors import ConfigError, canonical_json, json_field, read_json_object

# Where each mode departs from the dataclass defaults (the simulated mode's).
_MODE_DEFAULTS: dict[str, dict] = {
    "boolq": {
        "stop_thresholds": {"oracle": 0.5, "self_critic": 0.49, "estimation": 0.21},
        "retrieval": {"chunk_words": 500, "query_mode": "formulated"},
        "scoring": {"oracle_metric": "exact", "embed_dim": 256},
    },
    "emrqa": {
        "p_doc": 1.0,
        "doc_batch_size": 10,
        "stop_thresholds": {"oracle": 0.5, "self_critic": 0.49, "estimation": 0.22},
        "scoring": {"oracle_metric": "exact", "embed_dim": 256},
    },
    "simulated": {},
}

TASK_MODES = tuple(_MODE_DEFAULTS)
GENERATOR_BACKENDS = ("simulated", "http")
SCORER_KINDS = ("oracle", "self_critic", "estimation")
QUERY_MODES = ("raw", "formulated")
ORACLE_METRICS = ("exact", "token_f1")

ENV_ENDPOINT = "THOUGHTSEARCH_ENDPOINT"
ENV_API_KEY = "THOUGHTSEARCH_API_KEY"


def _check_bounds(section, where: str, rows) -> None:
    """Each row is (field, whether its bound or choice holds, the rule); each
    bound is written so that NaN fails it."""
    for name, holds, rule in rows:
        if not holds:
            raise ConfigError(f"{where}.{name} must be {rule}, got {getattr(section, name)!r}")


@dataclass
class EpisodeConfig:
    """Knobs for one search episode. Bounds are enforced on construction."""

    max_steps: int = 10
    stop_threshold: float = 0.5
    exploration_c: float = math.sqrt(2.0)
    p_doc: float = 0.5
    thought_sample_size: int = 5

    def __post_init__(self):
        _check_bounds(self, "config", (
            ("max_steps", self.max_steps >= 1, ">= 1"),
            ("exploration_c", self.exploration_c >= 0, ">= 0"),
            ("p_doc", 0 <= self.p_doc <= 1, "in [0, 1]"),
            ("thought_sample_size", self.thought_sample_size >= 1, ">= 1"),
        ))


@dataclass
class GeneratorConfig:
    backend: str = "simulated"
    endpoint: str = ""
    timeout_s: float = 30.0
    retries: int = 2
    max_concurrency: int = 4
    max_tokens: int = 256
    temperature: float = 0.0
    template_file: str = ""  # empty -> builtin templates for the task mode

    def __post_init__(self):
        _check_bounds(self, "config.generator", (
            ("backend", self.backend in GENERATOR_BACKENDS, f"one of {GENERATOR_BACKENDS}"),
            ("timeout_s", self.timeout_s > 0, "> 0"),
            ("retries", self.retries >= 0, ">= 0"),
            ("max_concurrency", self.max_concurrency >= 1, ">= 1"),
            ("max_tokens", self.max_tokens >= 1, ">= 1"),
        ))


@dataclass
class RetrievalConfig:
    chunk_words: int = 100
    embed_dim: int = 256
    query_mode: str = "raw"

    def __post_init__(self):
        _check_bounds(self, "config.retrieval", (
            ("query_mode", self.query_mode in QUERY_MODES, f"one of {QUERY_MODES}"),
            ("chunk_words", self.chunk_words >= 1, ">= 1"),
            ("embed_dim", self.embed_dim >= 1, ">= 1"),
        ))


@dataclass
class ScoringConfig:
    embed_dim: int = 64
    gbrt_rounds: int = 100
    gbrt_depth: int = 3
    gbrt_learning_rate: float = 0.1
    holdout_fraction: float = 0.2
    oracle_metric: str = "token_f1"

    def __post_init__(self):
        _check_bounds(self, "config.scoring", (
            ("oracle_metric", self.oracle_metric in ORACLE_METRICS, f"one of {ORACLE_METRICS}"),
            ("embed_dim", self.embed_dim >= 1, ">= 1"),
            ("gbrt_rounds", self.gbrt_rounds >= 1, ">= 1"),
            ("gbrt_depth", self.gbrt_depth >= 1, ">= 1"),
            ("gbrt_learning_rate", self.gbrt_learning_rate > 0, "> 0"),
            ("holdout_fraction", 0 < self.holdout_fraction < 1, "in (0, 1)"),
        ))

    def regressor_config(self) -> dict:
        """GradientBoostedRegressor's keywords."""
        return {
            "n_rounds": self.gbrt_rounds,
            "max_depth": self.gbrt_depth,
            "learning_rate": self.gbrt_learning_rate,
        }


@dataclass
class EngineConfig:
    task_mode: str = "simulated"
    max_steps: int = 10
    exploration_c: float = math.sqrt(2.0)
    p_doc: float = 0.5
    doc_batch_size: int = 2
    thought_sample_size: int = 5
    stop_thresholds: dict = field(
        default_factory=lambda: {"oracle": 0.75, "self_critic": 0.8, "estimation": 0.8}
    )
    seed: int = 0
    workers: int = 1
    index_file: str = ""
    model_file: str = ""
    generator: GeneratorConfig = field(default_factory=GeneratorConfig)
    retrieval: RetrievalConfig = field(default_factory=RetrievalConfig)
    scoring: ScoringConfig = field(default_factory=ScoringConfig)

    def __post_init__(self):
        _check_bounds(self, "config", (
            ("task_mode", self.task_mode in TASK_MODES, f"one of {TASK_MODES}"),
        ))
        for kind in self.stop_thresholds:
            if kind not in SCORER_KINDS:
                raise ConfigError(
                    f"stop_thresholds has unknown entry {kind!r}; expected {SCORER_KINDS}"
                )
        for kind in SCORER_KINDS:
            json_field(self.stop_thresholds, kind, (float,), "stop_thresholds", ConfigError)
        _check_bounds(self, "config", (
            ("doc_batch_size", self.doc_batch_size >= 1, ">= 1"),
            ("workers", self.workers >= 1, ">= 1"),
            ("seed", 0 <= self.seed < 2**64, "a 64-bit unsigned integer"),
        ))
        # Bounds shared with the per-episode view.
        self.episode(stop_threshold=0.0)

    def episode(self, stop_threshold: float) -> EpisodeConfig:
        """Per-search view under one scorer's stop threshold."""
        return EpisodeConfig(
            max_steps=self.max_steps,
            stop_threshold=stop_threshold,
            exploration_c=self.exploration_c,
            p_doc=self.p_doc,
            thought_sample_size=self.thought_sample_size,
        )

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def default_config(task_mode: str) -> EngineConfig:
    if task_mode not in TASK_MODES:  # a tuple, so an unhashable value fails here too
        raise ConfigError(f"unknown task mode {task_mode!r}")
    return _apply_overrides(EngineConfig(task_mode=task_mode), _MODE_DEFAULTS[task_mode])


_SECTIONS = {"generator": GeneratorConfig, "retrieval": RetrievalConfig, "scoring": ScoringConfig}


def _apply_overrides(config: EngineConfig, overrides: dict) -> EngineConfig:
    """`config` with `overrides` laid over it; every key must name a field,
    and every value is checked again."""
    data = config.to_dict()
    for key, value in overrides.items():
        if key not in data:
            raise ConfigError(f"unknown config field {key!r}")
        if key in _SECTIONS and isinstance(value, dict):
            for sub_key, sub_value in value.items():
                if sub_key not in data[key]:
                    raise ConfigError(f"unknown config field {key}.{sub_key!r}")
                data[key][sub_key] = sub_value
        else:
            data[key] = value
    _check_fields(EngineConfig, data, "config")
    for key, cls in _SECTIONS.items():
        _check_fields(cls, data[key], f"config.{key}")
        data[key] = cls(**data[key])
    return EngineConfig(**data)


def _check_fields(cls, values: dict, where: str) -> None:
    """Every value must have the JSON kind of its field's default in cls; a
    section is an object."""
    for f in fields(cls):
        default = f.default if f.default is not MISSING else f.default_factory()
        kind = dict if is_dataclass(default) else type(default)
        json_field(values, f.name, (kind,), where, ConfigError)


def load_config(
    path: str | Path | None = None,
    task_mode: str | None = None,
    overrides: dict | None = None,
) -> EngineConfig:
    """Resolve a config: file values over mode defaults, then explicit
    overrides, then environment variables for endpoint values. Each layer is
    built and checked in turn, so a later one cannot hide a bad value in an
    earlier one."""
    data = read_json_object(path, "config", ConfigError) if path is not None else {}
    config = default_config(task_mode or data.get("task_mode", EngineConfig.task_mode))
    for layer in (data, {"task_mode": task_mode} if task_mode else None, overrides):
        if layer:
            config = _apply_overrides(config, layer)
    endpoint = os.environ.get(ENV_ENDPOINT)
    if endpoint:
        config.generator.endpoint = endpoint
    return config


def config_hash(config: EngineConfig) -> str:
    blob = canonical_json(config.to_dict()).encode("utf-8")
    return hashlib.blake2b(blob, digest_size=6).hexdigest()
