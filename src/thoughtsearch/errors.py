"""Exception taxonomy shared across the engine, and the one JSON codec:
the reading rule every file loader and backend reply goes through, and the
canonical encoding every byte-stable file is written in.

CLI exit codes group these: configuration/schema problems are operator
errors, everything else is a runtime port failure.
"""

from __future__ import annotations

import json
import math
import reprlib
from pathlib import Path


class EngineError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(EngineError):
    """Invalid configuration value or cross-field violation."""


class GraphError(EngineError):
    """Rejected graph input: empty query, dangling node reference."""


class GenerationError(EngineError):
    """Backend returned an unusable completion (e.g. empty text)."""


class TransportError(EngineError):
    """Wire-level failure talking to a remote backend; retryable."""


class CapabilityError(EngineError):
    """Backend lacks a requested capability (e.g. token log-probabilities)."""


class CorpusError(EngineError):
    """Unreadable or empty corpus input."""


class SchemaError(EngineError):
    """Malformed persisted file: index, scorer model, or trace."""


class SearchError(EngineError):
    """Port failure inside a search; carries its mcts.SearchOutcome so far."""

    def __init__(self, message: str, outcome):
        super().__init__(message)
        self.outcome = outcome


# The JSON kinds a loader may ask for, by the Python type json decodes them to.
JSON_KINDS = {int: "an integer", float: "a number", str: "a string", bool: "a boolean",
              list: "a list", dict: "an object", type(None): "null"}


def is_json(value, kind: type) -> bool:
    """Whether a decoded JSON value is of `kind`, a key of JSON_KINDS: a
    boolean is never an integer, and a number may be an integer but must be
    finite (NaN, Infinity and integers beyond the float range are not)."""
    if kind is float and type(value) in (int, float):
        try:
            return math.isfinite(value)
        except OverflowError:
            return False
    return type(value) is kind


def json_field(record: dict, key: str, kinds: tuple[type, ...], where: str, error=SchemaError):
    """record[key], from an object `record`, present and of one of `kinds`
    under `is_json`; otherwise `error` naming `where` or `where.key`."""
    if type(record) is not dict:
        raise error(f"{where} must be an object, got {reprlib.repr(record)}")
    if key not in record:
        raise error(f"{where} missing field {key!r}")
    return json_value(record[key], kinds, f"{where}.{key}", error)


def json_value(value, kinds: tuple[type, ...], where: str, error=SchemaError):
    """`value` when it is of one of `kinds` under `is_json`; otherwise
    `error` naming `where`."""
    for kind in kinds:
        if is_json(value, kind):
            return value
    wanted = " or ".join(JSON_KINDS[kind] for kind in kinds)
    raise error(f"{where} must be {wanted}, got {reprlib.repr(value)}")


def utf8_text(value: str, where: str, error=SchemaError) -> str:
    """`value` when it encodes as UTF-8; otherwise `error` naming `where`. A
    JSON string may hold a lone surrogate (RFC 8259 8.2), which does not."""
    try:
        value.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise error(f"{where} must encode as UTF-8 ({exc.reason} at index {exc.start})") from None
    return value


def read_text(path: str | Path, what: str, error=SchemaError) -> str:
    """The text of a UTF-8 file; a file that cannot be read or decoded
    raises `error` naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what} file {path}: {exc}") from exc


def decode_json(data: str | bytes, where: str, error=SchemaError):
    """The value JSON text `data` holds; data that is not UTF-8 or JSON, or
    nests too deep to decode, raises `error` as `{where}: {cause}`."""
    try:
        return json.loads(data)
    except (ValueError, RecursionError) as exc:  # ValueError: bad UTF-8 or JSON
        raise error(f"{where}: {exc}") from exc


def read_json_object(path: str | Path, what: str, error=SchemaError) -> dict:
    """The JSON object a UTF-8 file holds; a file that cannot be read or
    decoded, or holds anything but an object, raises `error` naming it."""
    data = decode_json(read_text(path, what, error), f"cannot read {what} file {path}", error)
    if type(data) is not dict:
        raise error(f"{what} file {path} must hold an object, got {reprlib.repr(data)}")
    return data


def read_json_lines(path: str | Path, what: str, error=SchemaError):
    """Yield (line number, value) for each non-blank line of a UTF-8 file of
    JSON lines; a bad line raises `error` as `path:line: bad JSON: {cause}`."""
    # Not splitlines: it also splits at U+2028, which a JSON string may hold.
    for lineno, line in enumerate(read_text(path, what, error).split("\n"), 1):
        if line.strip():
            yield lineno, decode_json(line, f"{path}:{lineno}: bad JSON", error)


def canonical_json(value) -> str:
    """`value` as canonical compact JSON: sorted keys, no whitespace."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def write_json_lines(path: str | Path, records) -> None:
    """Write one canonical JSON line per record, each ending in a newline;
    a file of no records is a single newline."""
    Path(path).write_text("\n".join(map(canonical_json, records)) + "\n", encoding="utf-8")
