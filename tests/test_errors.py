"""The one JSON codec: the reading rule every file loader and backend reply
goes through, and the canonical writer of byte-stable files."""

from __future__ import annotations

import math

import pytest

from thoughtsearch.errors import (
    ConfigError,
    SchemaError,
    is_json,
    json_field,
    read_json_lines,
    read_json_object,
    write_json_lines,
)


@pytest.mark.parametrize(
    "value, kind, holds",
    [
        (1, int, True),
        (2**70, int, True),
        (True, int, False),
        (1.0, int, False),
        ("1", int, False),
        (1, float, True),
        (2.5, float, True),
        (False, float, False),
        (math.nan, float, False),
        (math.inf, float, False),
        (-math.inf, float, False),
        (10**400, float, False),  # beyond the float range
        ("x", str, True),
        ([], list, True),
        ({}, dict, True),
        ([], dict, False),
        (None, type(None), True),
        (0, type(None), False),
    ],
)
def test_is_json(value, kind, holds):
    assert is_json(value, kind) is holds


def test_json_field_names_where_and_key():
    assert json_field({"k": 3}, "k", (float,), "x") == 3
    assert json_field({"k": None}, "k", (str, type(None)), "x") is None
    with pytest.raises(SchemaError, match=r"^x missing field 'k'$"):
        json_field({}, "k", (int,), "x")
    with pytest.raises(ConfigError, match=r"^x\.k must be an integer or null, got True$"):
        json_field({"k": True}, "k", (int, type(None)), "x", ConfigError)
    with pytest.raises(SchemaError, match=r"^x\.k must be a number, got nan$"):
        json_field({"k": math.nan}, "k", (float,), "x")


def test_json_field_message_stays_short():
    with pytest.raises(SchemaError) as info:
        json_field({"k": "a" * 10_000}, "k", (list,), "x")
    assert len(str(info.value)) < 100


@pytest.mark.parametrize(
    "content, message",
    [
        (b"[1]", "model file .* must hold an object, got \\[1\\]"),
        (b"{", "cannot read model file"),
        (b"\xff", "cannot read model file .* 'utf-8' codec"),
        (b"[" * 100_000, "cannot read model file"),
    ],
    ids=["not-an-object", "bad-json", "not-utf8", "nested-too-deep"],
)
def test_read_json_object_names_the_file(tmp_path, content, message):
    path = tmp_path / "f.json"
    path.write_bytes(content)
    with pytest.raises(SchemaError, match=message):
        read_json_object(path, "model")
    with pytest.raises(ConfigError):
        read_json_object(path, "config", ConfigError)


def test_read_json_object_reads_an_object_and_names_a_missing_file(tmp_path):
    path = tmp_path / "ok.json"
    path.write_text('{"a": [1]}')
    assert read_json_object(path, "trace") == {"a": [1]}
    with pytest.raises(SchemaError, match="cannot read trace file"):
        read_json_object(tmp_path / "absent.json", "trace")


def test_json_lines_round_trip_in_canonical_form(tmp_path):
    """Sorted keys, no whitespace, ASCII escapes, a newline after every
    record, and no records is one newline; a raw U+2028 inside a string does
    not split its line."""
    path = tmp_path / "records.jsonl"
    write_json_lines(path, [{"b": 1, "a": "x\u2028y"}, [1.5, None]])
    assert path.read_bytes() == b'{"a":"x\\u2028y","b":1}\n[1.5,null]\n'
    assert list(read_json_lines(path, "corpus")) == [(1, {"a": "x\u2028y", "b": 1}), (2, [1.5, None])]
    path.write_text('{"a": "x\u2028y"}\n', encoding="utf-8")
    assert list(read_json_lines(path, "corpus")) == [(1, {"a": "x\u2028y"})]
    write_json_lines(path, [])
    assert path.read_bytes() == b"\n"
    assert list(read_json_lines(path, "corpus")) == []

