"""Config resolution: mode defaults, file round-trip, overrides, validation."""

from __future__ import annotations

import json
import math
import re

import pytest

from thoughtsearch.config import (
    EngineConfig,
    EpisodeConfig,
    config_hash,
    default_config,
    load_config,
)
from thoughtsearch.errors import ConfigError


def test_mode_defaults_carry_benchmark_hyperparameters():
    boolq = default_config("boolq")
    assert boolq.retrieval.chunk_words == 500
    assert boolq.doc_batch_size == 2
    assert boolq.p_doc == 0.5
    assert boolq.exploration_c == pytest.approx(math.sqrt(2))
    assert boolq.thought_sample_size == 5
    assert boolq.max_steps == 10
    assert boolq.stop_thresholds == {"oracle": 0.5, "self_critic": 0.49, "estimation": 0.21}
    assert boolq.retrieval.query_mode == "formulated"

    emrqa = default_config("emrqa")
    assert emrqa.retrieval.chunk_words == 100
    assert emrqa.doc_batch_size == 10
    assert emrqa.p_doc == 1.0
    assert emrqa.stop_thresholds["estimation"] == 0.22
    assert emrqa.retrieval.query_mode == "raw"

    sim = default_config("simulated")
    assert sim.scoring.oracle_metric == "token_f1"
    assert sim.scoring.embed_dim == 64


def test_bare_config_is_the_default_mode(monkeypatch):
    monkeypatch.delenv("THOUGHTSEARCH_ENDPOINT", raising=False)
    assert EngineConfig() == default_config("simulated")
    assert load_config() == EngineConfig()


def test_config_round_trip_identity(tmp_path):
    config = default_config("emrqa")
    config.seed = 1234567
    path = tmp_path / "config.json"
    path.write_text(config.to_json(), encoding="utf-8")
    reloaded = load_config(path)
    assert reloaded == config
    assert reloaded.to_json() == config.to_json()
    assert config_hash(reloaded) == config_hash(config)


def test_config_file_overrides_defaults(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(
        json.dumps({"task_mode": "boolq", "max_steps": 4, "retrieval": {"chunk_words": 64}}),
        encoding="utf-8",
    )
    config = load_config(path)
    assert config.max_steps == 4
    assert config.retrieval.chunk_words == 64
    assert config.doc_batch_size == 2  # untouched mode default


def test_explicit_overrides_beat_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"task_mode": "simulated", "seed": 5}), encoding="utf-8")
    config = load_config(path, overrides={"seed": 9})
    assert config.seed == 9


def test_env_endpoint_override(tmp_path, monkeypatch):
    monkeypatch.setenv("THOUGHTSEARCH_ENDPOINT", "http://somewhere:9999/v1")
    config = load_config(None, task_mode="boolq")
    assert config.generator.endpoint == "http://somewhere:9999/v1"


def test_unknown_fields_rejected():
    with pytest.raises(ConfigError):
        load_config(overrides={"task_mode": "boolq", "no_such_field": 1})
    with pytest.raises(ConfigError):
        load_config(overrides={"task_mode": "boolq", "retrieval": {"bogus": 2}})


def test_bounds_validated_on_construction():
    with pytest.raises(ConfigError):
        EngineConfig(task_mode="nope")
    with pytest.raises(ConfigError):
        EngineConfig(p_doc=1.5)
    with pytest.raises(ConfigError):
        EngineConfig(workers=0)
    with pytest.raises(ConfigError):
        EpisodeConfig(max_steps=0)
    with pytest.raises(ConfigError):
        EpisodeConfig(exploration_c=-1.0)


@pytest.mark.parametrize(
    "name, value, rule",
    [
        ("timeout_s", 0, "> 0"),
        ("timeout_s", -1, "> 0"),
        ("retries", -1, ">= 0"),
        ("max_concurrency", 0, ">= 1"),  # would block every request forever
        ("max_concurrency", -1, ">= 1"),
        ("max_tokens", 0, ">= 1"),
    ],
)
def test_generator_bounds_fail_at_load(name, value, rule):
    with pytest.raises(ConfigError, match=f"generator.{name} must be {rule}, got {value}"):
        load_config(overrides={"generator": {name: value}})


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"exploration_c": NaN}', "config.exploration_c must be a number, got nan"),
        ('{"p_doc": Infinity}', "config.p_doc must be a number, got inf"),
        ('{"generator": {"temperature": -Infinity}}', "config.generator.temperature must be a number"),
        ('{"max_steps": true}', "config.max_steps must be an integer, got True"),
        (
            '{"stop_thresholds": {"oracle": NaN, "self_critic": 0.8, "estimation": 0.8}}',
            "stop_thresholds.oracle must be a number, got nan",
        ),
        ('{"task_mode": ["boolq"]}', "unknown task mode"),
    ],
)
def test_config_file_values_follow_the_json_rule(tmp_path, text, message):
    path = tmp_path / "config.json"
    path.write_text(text)
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_config(path)


@pytest.mark.parametrize("name", ["max_steps", "exploration_c", "p_doc", "thought_sample_size"])
def test_episode_bounds_reject_nan(name):
    with pytest.raises(ConfigError, match=name):
        EpisodeConfig(**{name: math.nan})


def test_episode_view_takes_the_given_threshold():
    config = default_config("boolq")
    episode = config.episode(stop_threshold=0.77)
    assert episode.stop_threshold == 0.77
    assert episode.max_steps == config.max_steps
