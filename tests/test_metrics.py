"""Metric reference cases."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from thoughtsearch.metrics import (
    exact_match,
    normalize_answer,
    parse_boolean,
    parse_quantity_mg,
    token_f1,
)


@pytest.mark.parametrize(
    "raw,expected",
    [
        ("The Aspirin.", "aspirin"),
        ("10 mg", "10 mg"),
        ("", ""),
        ("A  Big,   DOG!", "big dog"),
        ("an answer the end", "answer end"),
    ],
)
def test_normalize_answer(raw, expected):
    assert normalize_answer(raw) == expected


@pytest.mark.parametrize(
    "pred,golds,expected",
    [
        ("1 mg", ["1 mg"], 1),
        ("10 mg", ["20 mg"], 0),
        ("The 30 mg", ["30 mg"], 1),
        ("yes", ["Yes."], 1),
        ("", [""], 1),
        ("x", ["y", "x"], 1),
    ],
)
def test_exact_match(pred, golds, expected):
    assert exact_match(pred, golds) == expected


@pytest.mark.parametrize(
    "pred,gold,expected",
    [
        ("same words here", "same words here", 1.0),
        ("left only", "right half", 0.0),
        ("x y", "y z", 0.5),
        ("", "", 1.0),
        ("", "something", 0.0),
        ("b b", "b", 2 * (1 / 2) * 1 / (1 / 2 + 1)),  # multiplicity-aware
    ],
)
def test_token_f1(pred, gold, expected):
    assert token_f1(pred, gold) == pytest.approx(expected)


@given(st.text(max_size=40), st.text(max_size=40))
def test_token_f1_symmetric_and_bounded(a, b):
    assert token_f1(a, b) == pytest.approx(token_f1(b, a))
    assert 0.0 <= token_f1(a, b) <= 1.0


@pytest.mark.parametrize(
    "completion,expected",
    [
        ("1", "1"),
        ("0", "0"),
        ("  The answer is 1.", "1"),
        ("output: 0 (no)", "0"),
        ("maybe", None),
        ("", None),
    ],
)
def test_parse_boolean(completion, expected):
    assert parse_boolean(completion) == expected


@pytest.mark.parametrize(
    "completion,expected",
    [
        ("30", "30 mg"),
        ("Dosage: 12.5 mg daily", "12.5 mg"),
        ("around 900  / day", "900 mg"),
        ("no number here", None),
    ],
)
def test_parse_quantity_mg(completion, expected):
    assert parse_quantity_mg(completion) == expected
