"""Corpus ingestion, hashed TF-IDF embeddings, cosine top-k retrieval, and the
refill-on-empty per-search document queue.

Corpora are desk-scale, so exhaustive cosine scoring of a query's candidate
rows (its filter key's rows, from a per-key row list) is both the oracle and
the implementation; there is deliberately no approximate nearest-neighbor
structure here.
"""

from __future__ import annotations

import hashlib
import math
import mmap
import os
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from itertools import count, repeat
from pathlib import Path
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .errors import CorpusError, SchemaError, canonical_json, decode_json
from .errors import is_json, json_field, json_value, read_json_lines, read_text, utf8_text

INDEX_MAGIC = b"thoughtsearch-index v3\n"


class Document(NamedTuple):
    """One retrievable chunk of source text; its id is its position in the
    index."""

    doc_id: int
    text: str
    source_id: str
    filter_key: str | None


def _tokens(text: str) -> list[str]:
    return text.lower().split()


def token_bucket(token: str, dim: int) -> int:
    """Stable hash bucket for a token; identical across processes and runs."""
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little") % dim


@dataclass
class HashedEmbedder:
    """Hashed term-frequency embedder, optionally IDF-weighted, L2-normalized.

    Without an IDF table (the unfitted form) every token weighs 1.0, which
    makes the embedder usable on arbitrary text with no corpus attached.
    """

    dim: int = 256
    idf: dict[str, float] | None = None
    n_docs: int = 0
    # Filled on use: the bucket of each IDF token embedded so far, so that a
    # vocabulary token is hashed once. Only IDF tokens enter it, which bounds
    # it by the index; concurrent searches can only write the same value.
    _buckets: dict[str, int] = field(default_factory=dict, init=False, repr=False, compare=False)
    # The weight of a token outside the IDF table: 1.0 unfitted, the smooth
    # IDF's df=0 weight when fitted.
    _unseen_weight: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._unseen_weight = 1.0 if self.idf is None else math.log(1.0 + self.n_docs) + 1.0

    @property
    def embedder_id(self) -> str:
        if self.idf is None:
            return f"hashed-tf-v1-d{self.dim}"
        return f"hashed-tfidf-v1-d{self.dim}-{self._idf_fingerprint()}"

    def _idf_fingerprint(self) -> str:
        blob = canonical_json(sorted(self.idf.items()))
        return hashlib.blake2b(blob.encode("utf-8"), digest_size=6).hexdigest()

    def _bucket(self, token: str) -> int:
        """Hash a token not in the memo, and memoize it if it is an IDF token."""
        bucket = token_bucket(token, self.dim)
        if self.idf is not None and token in self.idf:
            self._buckets[token] = bucket
        return bucket

    def embed(self, text: str) -> np.ndarray:
        vec = np.zeros(self.dim, dtype=np.float64)
        buckets, idf, unseen = self._buckets, self.idf or {}, self._unseen_weight
        for token, count in Counter(_tokens(text)).items():
            bucket = buckets.get(token)
            if bucket is None:
                bucket = self._bucket(token)
            vec[bucket] += count * idf.get(token, unseen)
        norm = math.sqrt(vec.dot(vec))  # np.linalg.norm's own form
        return vec / norm if norm else vec


class _Tallies(NamedTuple):
    """Every chunk's token counts, flat: chunk i has `sizes[i]` entries,
    each a token's id in `vocab` and its count, in Counter order."""

    vocab: dict[str, int]
    ids: np.ndarray
    counts: np.ndarray
    sizes: np.ndarray


def _tally(texts: Iterable[str]) -> _Tallies:
    """Every chunk's tally at once. Each text is split once into token ids,
    which follow first occurrence; one sort of the distinct (chunk, id) keys
    by their first position then puts each chunk's entries in Counter order."""
    ids_by_token = defaultdict(count().__next__)  # a new token takes the next id
    ids, lengths = array("q"), array("q")
    for text in texts:
        tokens = _tokens(text)
        ids.extend(map(ids_by_token.__getitem__, tokens))
        lengths.append(len(tokens))
    vocab = dict(ids_by_token)
    n, v = len(lengths), len(vocab)
    keys = np.repeat(np.arange(n, dtype=np.int64), lengths) * v + np.asarray(ids)
    keys, first, counts = np.unique(keys, return_index=True, return_counts=True)
    order = np.argsort(first, kind="stable")
    keys = keys[order]
    return _Tallies(
        vocab, keys % v, counts[order].astype(np.float64), np.bincount(keys // v, minlength=n)
    )


def _fit_idf(tallies: _Tallies, dim: int) -> HashedEmbedder:
    """Smooth IDF weights; a token's document frequency is the number of
    chunks whose tally holds it."""
    n_docs = len(tallies.sizes)
    doc_freq = np.bincount(tallies.ids, minlength=len(tallies.vocab)).tolist()
    idf = {
        token: math.log((1.0 + n_docs) / (1.0 + doc_freq[tallies.vocab[token]])) + 1.0
        for token in sorted(tallies.vocab)
    }
    return HashedEmbedder(dim=dim, idf=idf, n_docs=n_docs)


def _embed_tallies(embedder: HashedEmbedder, tallies: _Tallies) -> np.ndarray:
    """One row per chunk, bit-equal to `embedder.embed` of its text: the same
    `count * weight` terms, added into each row in the same (Counter) order by
    one `np.add.at` over flat (row, bucket) cells, then each row divided by
    the same norm. Every token is in the embedder's vocabulary,
    which was fitted on these chunks."""
    # Each vocabulary token's bucket and weight, at its id.
    n = len(tallies.vocab)
    bucket = np.fromiter(map(embedder._bucket, tallies.vocab), np.int64, n)
    weight = np.fromiter(map(embedder.idf.__getitem__, tallies.vocab), np.float64, n)
    n_rows, dim = len(tallies.sizes), embedder.dim
    cells = np.repeat(np.arange(n_rows, dtype=np.int64) * dim, tallies.sizes) + bucket[tallies.ids]
    terms = tallies.counts * weight[tallies.ids]
    embeddings = np.zeros((n_rows, dim), dtype=np.float64)
    np.add.at(embeddings.reshape(-1), cells, terms)
    norms = np.fromiter((math.sqrt(row.dot(row)) for row in embeddings), np.float64, n_rows)
    embeddings /= np.where(norms == 0.0, 1.0, norms)[:, None]
    return embeddings


@dataclass
class CorpusIndex:
    """Immutable after ingestion; safe to share across concurrent searches.

    documents[i].doc_id == i: a document's id is its position. `rows_by_key`
    maps each filter_key to the ascending rows of its documents; it is
    derived here, on construction, and never written to an index file.
    """

    documents: list[Document]
    embeddings: np.ndarray  # row i embeds documents[i]; rows L2-normalized
    embedder: HashedEmbedder
    rows_by_key: dict[str | None, tuple[int, ...]] = field(init=False, repr=False)

    def __post_init__(self):
        rows: dict[str | None, list[int]] = {}
        for i, doc in enumerate(self.documents):
            rows.setdefault(doc.filter_key, []).append(i)
        self.rows_by_key = {key: tuple(r) for key, r in rows.items()}

    @property
    def embedder_id(self) -> str:
        return self.embedder.embedder_id


def _documents(*columns: list) -> list[Document]:
    """Documents from their text, source_id and filter_key columns, each
    document's id its position. Each is made by `tuple.__new__`, as
    `Document._make` makes it, with no Python call per document."""
    return list(map(tuple.__new__, repeat(Document), zip(count(), *columns)))


def chunk_words(text: str, size: int) -> list[str]:
    """Split on whitespace into consecutive chunks of exactly `size` words.

    The final chunk may be shorter. Chunk text is whitespace-normalized, so
    concatenating the chunks' tokens reproduces the source token stream.
    """
    if size < 1:
        raise CorpusError(f"chunk size must be >= 1, got {size}")
    words = text.split()
    return [" ".join(words[i : i + size]) for i in range(0, len(words), size)]


# A corpus record's fields: text is required, the others optional. For
# these kinds the JSON rule is an exact type test.
_RECORD_FIELDS = {"text": (str,), "filter_key": (str, type(None)), "source_id": (str, int)}
_KEY_KINDS, _ID_KINDS = _RECORD_FIELDS["filter_key"], _RECORD_FIELDS["source_id"]


def _read_records(source: str | Path) -> list[tuple[str, str | None, str]]:
    """Yield (source_id, filter_key, text) from a directory of .txt files or
    a newline-delimited JSON record file with fields source_id (a string, or
    an integer read as its decimal string), filter_key (a string or null)
    and text (a string that encodes as UTF-8)."""
    path = Path(source)
    if path.is_dir():
        files = sorted(p for p in path.rglob("*.txt") if p.is_file())
        if not files:
            raise CorpusError(f"no .txt files under {path}")
        return [(str(p.relative_to(path)), None, read_text(p, "corpus", CorpusError)) for p in files]
    if path.is_file():
        records = []
        for lineno, rec in read_json_lines(path, "corpus", CorpusError):
            # The field kinds, tested inline; ASCII text always encodes. Any
            # other record goes through the field rules, which raise for its
            # first bad field or pass it unchanged.
            if not (
                type(rec) is dict
                and type(text := rec.get("text")) is str
                and text.isascii()
                and type(rec.get("filter_key")) in _KEY_KINDS
                and type(rec.get("source_id", "")) in _ID_KINDS
            ):
                where = f"{path}:{lineno}: record"
                for name, kinds in _RECORD_FIELDS.items():
                    if name == "text" or name in rec:  # json_field fails a non-object at "text"
                        json_field(rec, name, kinds, where, CorpusError)
                text = utf8_text(rec["text"], f"{where}.text", CorpusError)
            source_id = rec.get("source_id")
            records.append(
                (f"record-{lineno}" if source_id is None else str(source_id), rec.get("filter_key"), text)
            )
        if not records:
            raise CorpusError(f"no records in {path}")
        return records
    raise CorpusError(f"corpus source not found: {path}")


def ingest_corpus(
    source: str | Path,
    chunk_size: int,
    dim: int = 256,
) -> CorpusIndex:
    """Chunk every source text, fit IDF weights, and embed each chunk."""
    texts: list[str] = []
    source_ids: list[str] = []
    filter_keys: list[str | None] = []
    for source_id, filter_key, text in _read_records(source):
        chunks = chunk_words(text, chunk_size)
        texts += chunks
        source_ids += [source_id] * len(chunks)
        filter_keys += [filter_key] * len(chunks)
    if not texts:
        raise CorpusError(f"corpus at {source} produced no chunks")
    tallies = _tally(texts)
    embedder = _fit_idf(tallies, dim)
    return CorpusIndex(
        documents=_documents(texts, source_ids, filter_keys),
        embeddings=_embed_tallies(embedder, tallies),
        embedder=embedder,
    )


def retrieve(
    index: CorpusIndex,
    query_text: str,
    k: int,
    filter_key: str | None = None,
    exclude: set[int] | frozenset[int] = frozenset(),
    query_vectors: dict[str, np.ndarray] | None = None,
) -> list[Document]:
    """Top-k documents by cosine similarity, ties broken by lowest doc_id.

    Only the filter key's own rows are scored, gathered in ascending order,
    so each similarity is computed exactly as over a filtered full scan.
    query_vectors, when given, memoizes query embeddings by text: a text
    already in it is not embedded again, and a new one is added.
    """
    if k < 1:
        raise CorpusError(f"k must be >= 1, got {k}")
    if filter_key is None:
        rows = range(len(index.documents))
    else:
        rows = index.rows_by_key.get(filter_key, ())
    candidates = [i for i in rows if i not in exclude]
    if not candidates:
        return []
    query_vec = query_vectors.get(query_text) if query_vectors is not None else None
    if query_vec is None:
        query_vec = index.embedder.embed(query_text)
        if query_vectors is not None:
            query_vectors[query_text] = query_vec
    sims = index.embeddings[candidates] @ query_vec
    ranked = np.lexsort((candidates, -sims))[:k]
    return [index.documents[candidates[j]] for j in ranked]


@dataclass
class DocumentQueue:
    """Per-search FIFO of chunks retrieved from `index`. Never hands out a
    chunk twice.

    query_mode picks how refills are phrased: "raw" (the question) or
    "formulated" (an LLM-written query). query_vectors holds the embedding
    of every refill text so far, so a search that refills with the same
    text embeds it once.
    """

    index: CorpusIndex = field(repr=False)
    batch_size: int
    filter_key: str | None = None
    query_mode: str = "raw"  # "raw" | "formulated"
    pending: list[Document] = field(default_factory=list)
    served: set[int] = field(default_factory=set)
    refills: int = 0
    query_vectors: dict[str, np.ndarray] = field(default_factory=dict, repr=False)

    def refill_if_empty(self, query_provider: Callable[[], str]) -> None:
        if self.pending:
            return
        self.refills += 1
        self.pending = retrieve(
            self.index,
            query_provider(),
            k=self.batch_size,
            filter_key=self.filter_key,
            exclude=self.served,
            query_vectors=self.query_vectors,
        )

    def next(self, query_provider: Callable[[], str]) -> Document | None:
        """Pop the head document, refilling when empty; None when none remains."""
        self.refill_if_empty(query_provider)
        if not self.pending:
            return None
        doc = self.pending.pop(0)
        self.served.add(doc.doc_id)
        return doc

    def take(self, doc: Document) -> None:
        """Mark a specific pending document as served (used by the greedy planner)."""
        self.pending = [d for d in self.pending if d.doc_id != doc.doc_id]
        self.served.add(doc.doc_id)


# The saved documents, one column per field, in Document's field order after
# the id, which is the position. For these kinds the JSON rule is an exact
# type test, which the column check below makes inline.
_DOCUMENT_COLUMNS = {"text": (str,), "source_id": (str,), "filter_key": (str, type(None))}
_V2_MAGIC = b"thoughtsearch-index v2\n"


def _documents_from_columns(columns: dict) -> list[Document]:
    """Check the saved documents one column at a time, each whole: a
    per-document call per field would add a third to load_index's time."""
    found = []
    for name, kinds in _DOCUMENT_COLUMNS.items():
        column = json_field(columns, name, (list,), "index.documents")
        if not set(map(type, column)) <= set(kinds):
            i = next(i for i, value in enumerate(column) if type(value) not in kinds)
            json_value(column[i], kinds, f"index.documents.{name}[{i}]")  # raises
        if found and len(column) != len(found[0]):
            raise SchemaError(
                f"index.documents.{name} has {len(column)} entries, expected {len(found[0])} "
                "(one per text)"
            )
        found.append(column)
    return _documents(*found)


def save_index(index: CorpusIndex, path: str | Path) -> None:
    """Write a deterministic, byte-stable index file (format version 3): the
    magic line, the header's byte length in ASCII and a newline, the
    canonical JSON header, then the embeddings as raw little-endian C-order
    float64 bytes, whose sha256 the header holds. The header holds the
    documents as columns; a document's id is its position."""
    body = np.ascontiguousarray(index.embeddings, dtype="<f8")
    docs = index.documents
    header = {
        "embedder_id": index.embedder_id,
        "embedder": {
            "dim": index.embedder.dim,
            "n_docs": index.embedder.n_docs,
            "idf": index.embedder.idf,
        },
        "documents": {
            "text": [d.text for d in docs],
            "source_id": [d.source_id for d in docs],
            "filter_key": [d.filter_key for d in docs],
        },
        "shape": list(body.shape),
        "sha256": hashlib.sha256(body).hexdigest(),
    }
    blob = canonical_json(header).encode("utf-8")
    with open(path, "wb") as f:
        f.write(INDEX_MAGIC + b"%d\n" % len(blob) + blob)
        f.write(body)


def _read_header(f, path: str | Path) -> tuple[dict, int]:
    """The JSON header of a version 3 index file, and the byte length of the
    body that follows it, where `f` is left."""
    magic = f.read(len(INDEX_MAGIC))
    if magic != INDEX_MAGIC:
        old = "1 (JSON)" if magic.startswith(b"{") else "2" if magic == _V2_MAGIC else None
        if old:
            raise SchemaError(
                f"{path} is a version {old} index file; this version reads only "
                "version 3 index files: re-ingest the corpus"
            )
        raise SchemaError(f"{path} does not start with the index magic line {INDEX_MAGIC!r}")
    line = f.readline(21)  # at most 20 digits and the newline
    length = line[:-1] if line.endswith(b"\n") else b""
    if not length.isdigit():
        raise SchemaError(f"{path}: no header length after the magic line")
    remain = os.fstat(f.fileno()).st_size - f.tell()
    if int(length) > remain:
        raise SchemaError(
            f"{path}: header length {int(length)} runs past the end of the file "
            f"({remain} bytes remain)"
        )
    header = decode_json(f.read(int(length)), f"{path}: index header is not JSON")
    return header, remain - int(length)


def load_index(path: str | Path) -> CorpusIndex:
    """Read and fully check an index file; a malformed file raises
    SchemaError naming the field here, never later inside a search."""
    try:
        with open(path, "rb") as f:
            return _read_index(f, path)
    except OSError as exc:
        raise SchemaError(f"cannot read index file {path}: {exc}") from exc


def _read_index(f, path: str | Path) -> CorpusIndex:
    record, body_bytes = _read_header(f, path)
    emb_rec = json_field(record, "embedder", (dict,), "index")
    dim = json_field(emb_rec, "dim", (int,), "index.embedder")
    n_docs = json_field(emb_rec, "n_docs", (int,), "index.embedder")
    idf = json_field(emb_rec, "idf", (dict, type(None)), "index.embedder")
    if dim < 1 or not 0 <= n_docs < 2**63:  # n_docs enters a float logarithm
        raise SchemaError(
            f"index.embedder has dim {dim} and n_docs {n_docs}; need dim >= 1, 0 <= n_docs < 2**63"
        )
    for token, weight in (idf or {}).items():
        if not is_json(weight, float):
            raise SchemaError(f"index.embedder.idf[{token!r}] = {weight!r} is not a finite number")
    embedder = HashedEmbedder(dim=dim, idf=idf, n_docs=n_docs)
    documents = _documents_from_columns(json_field(record, "documents", (dict,), "index"))
    shape = [len(documents), dim]
    if json_field(record, "shape", (list,), "index") != shape:
        raise SchemaError(
            f"index.shape is {record['shape']}, expected {shape} (documents x embedder.dim)"
        )
    if body_bytes != shape[0] * dim * 8:
        raise SchemaError(
            f"index embeddings are {body_bytes} bytes, expected {shape[0]} x {dim} x 8 = "
            f"{shape[0] * dim * 8}"
        )
    # The body goes straight into an aligned array of its own: the file is
    # never held whole, and the rows are never copied. Its pages are an
    # anonymous mapping, unmapped when the index is freed. From the C heap,
    # a freed index's rows leave a hole that smaller allocations split, so
    # a process that loads indexes in turn can keep one more index resident
    # than it holds.
    pages = mmap.mmap(-1, max(1, body_bytes), flags=mmap.MAP_PRIVATE | getattr(mmap, "MAP_POPULATE", 0))
    embeddings = np.frombuffer(pages, dtype="<f8", count=shape[0] * dim).reshape(shape)
    if f.readinto(embeddings) != body_bytes:
        raise SchemaError(f"{path}: the index file changed while it was read")
    if hashlib.sha256(embeddings).hexdigest() != json_field(record, "sha256", (str,), "index"):
        raise SchemaError("index embeddings do not match index.sha256")
    finite = np.isfinite(embeddings).all(axis=1)
    if not finite.all():
        raise SchemaError(f"index.embeddings row {int(np.argmin(finite))} is not finite")
    return CorpusIndex(documents=documents, embeddings=embeddings, embedder=embedder)
