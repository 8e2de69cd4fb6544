"""Answer normalization and QA quality metrics.

normalize_answer follows the SQuAD evaluation convention: lowercase, strip
punctuation, drop English articles, collapse whitespace. exact_match and
token_f1 operate on normalized text.
"""

from __future__ import annotations

import re
import string
from collections import Counter

_ARTICLES = re.compile(r"\b(a|an|the)\b")
_NUMERAL = re.compile(r"\d+(?:\.\d+)?")


def normalize_answer(text: str) -> str:
    """Lower text and remove punctuation, articles and extra whitespace."""
    text = text.lower()
    text = "".join(ch for ch in text if ch not in string.punctuation)
    text = _ARTICLES.sub(" ", text)
    return " ".join(text.split())


def exact_match(prediction: str, gold_answers: list[str]) -> int:
    """1 iff the normalized prediction equals any normalized gold answer."""
    pred = normalize_answer(prediction)
    return int(any(pred == normalize_answer(gold) for gold in gold_answers))


def token_f1(prediction: str, gold: str) -> float:
    """Bag-of-tokens F1 over normalized tokens, multiplicity-aware."""
    pred_tokens = normalize_answer(prediction).split()
    gold_tokens = normalize_answer(gold).split()
    if not pred_tokens or not gold_tokens:
        return float(pred_tokens == gold_tokens)
    common = Counter(pred_tokens) & Counter(gold_tokens)
    overlap = sum(common.values())
    if overlap == 0:
        return 0.0
    precision = overlap / len(pred_tokens)
    recall = overlap / len(gold_tokens)
    return 2 * precision * recall / (precision + recall)


def best_token_f1(prediction: str, gold_answers: list[str]) -> float:
    """Max token F1 over a set of acceptable answers."""
    return max(token_f1(prediction, gold) for gold in gold_answers)


def parse_boolean(completion: str) -> str | None:
    """First '1' or '0' in the completion decides; None when neither occurs."""
    for ch in completion:
        if ch in ("0", "1"):
            return ch
    return None


def parse_quantity_mg(completion: str) -> str | None:
    """First integer-or-decimal numeral, rendered as a milligram answer."""
    match = _NUMERAL.search(completion)
    return f"{match.group(0)} mg" if match else None
