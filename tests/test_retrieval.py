"""Chunking, embedding, cosine retrieval vs a brute-force oracle and vs the
full-scan implementation, queue refills, index files and their load checks."""

from __future__ import annotations

import gc
import hashlib
import json
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thoughtsearch.errors import CorpusError, SchemaError, canonical_json, decode_json, json_field, utf8_text
from thoughtsearch.retrieval import (
    INDEX_MAGIC,
    CorpusIndex,
    DocumentQueue,
    HashedEmbedder,
    _read_records,
    _tally,
    chunk_words,
    ingest_corpus,
    load_index,
    retrieve,
    save_index,
    token_bucket,
)


def _corpus_file(tmp_path, records):
    path = tmp_path / "corpus.jsonl"
    path.write_text(
        "\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8"
    )
    return path


def _index_from(tmp_path, chunks: list[tuple[str, str | None]], dim: int) -> CorpusIndex:
    """The index ingest_corpus builds with one chunk per (text, filter_key)."""
    records = [{"source_id": f"s{i}", "filter_key": key, "text": text} for i, (text, key) in enumerate(chunks)]
    return ingest_corpus(_corpus_file(tmp_path, records), chunk_size=100, dim=dim)


def _words(n, prefix="w"):
    return " ".join(f"{prefix}{i}" for i in range(n))


def test_chunking_1200_words_at_500():
    chunks = chunk_words(_words(1200), 500)
    assert [len(c.split()) for c in chunks] == [500, 500, 200]


def test_chunking_boundary_single_chunk():
    chunks = chunk_words(_words(100), 100)
    assert len(chunks) == 1


@pytest.mark.parametrize("n_words", [1, 99, 100, 101, 250, 999])
def test_chunk_count_is_ceil(n_words):
    chunks = chunk_words(_words(n_words), 100)
    assert len(chunks) == math.ceil(n_words / 100)


def test_chunk_reassembly_reproduces_token_stream():
    text = "  one\ttwo \n three four  five " * 321
    chunks = chunk_words(text, 7)
    assert " ".join(chunks).split() == text.split()


def test_ingest_directory_and_empty_errors(tmp_path):
    (tmp_path / "a.txt").write_text(_words(12), encoding="utf-8")
    (tmp_path / "b.txt").write_text(_words(5), encoding="utf-8")
    index = ingest_corpus(tmp_path, chunk_size=10, dim=64)
    assert len(index.documents) == 3  # 10+2 and 5
    assert all(len(d.text.split()) <= 10 for d in index.documents)
    with pytest.raises(CorpusError):
        ingest_corpus(tmp_path / "missing", chunk_size=10)


def test_ingest_directory_with_non_utf8_file_names_it(tmp_path):
    (tmp_path / "a.txt").write_text(_words(12), encoding="utf-8")
    (tmp_path / "b.txt").write_bytes(b"\xff")
    with pytest.raises(CorpusError, match="b.txt: 'utf-8' codec can't decode"):
        ingest_corpus(tmp_path, chunk_size=10)


def test_embedder_determinism_and_norm():
    emb = HashedEmbedder(dim=128)
    text = "alpha beta gamma alpha"
    v1, v2 = emb.embed(text), emb.embed(text)
    assert np.array_equal(v1, v2)
    assert np.linalg.norm(v1) == pytest.approx(1.0, abs=1e-9)
    assert np.array_equal(emb.embed(""), np.zeros(128))


def _reference_embed(embedder, text):
    """embed as it was before the term table: hash every token, weigh it by
    its IDF (or the df=0 weight when unseen, 1.0 when unfitted)."""
    vec = np.zeros(embedder.dim, dtype=np.float64)
    for token, count in Counter(text.lower().split()).items():
        if embedder.idf is None:
            weight = 1.0
        else:
            weight = embedder.idf.get(token, math.log(1.0 + embedder.n_docs) + 1.0)
        vec[token_bucket(token, embedder.dim)] += count * weight
    norm = float(np.linalg.norm(vec))
    return vec / norm if norm else vec


_vocab = st.sampled_from(["alpha", "Beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"])
_words_st = st.lists(_vocab | st.text(min_size=1, max_size=6).filter(lambda t: not t.isspace()), max_size=30)


@given(
    corpus=st.lists(st.lists(_vocab, min_size=1, max_size=12).map(" ".join), min_size=1, max_size=8),
    queries=st.lists(_words_st.map(" ".join), min_size=1, max_size=5),
    dim=st.sampled_from([1, 7, 64, 256]),
)
@settings(max_examples=100, deadline=None)
def test_embed_matches_reference(tmp_path_factory, corpus, queries, dim):
    fitted = _index_from(tmp_path_factory.mktemp("embed"), [(text, None) for text in corpus], dim).embedder
    unfitted = HashedEmbedder(dim=dim)
    for text in corpus + queries:  # queries carry tokens outside the vocabulary
        for embedder in (fitted, unfitted):
            got, want = embedder.embed(text), _reference_embed(embedder, text)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@given(
    records=st.lists(
        st.lists(_vocab | st.sampled_from(["ALPHA", "alpha", "a"]), min_size=1, max_size=40).map(" ".join),
        min_size=1,
        max_size=6,
    ),
    chunk_size=st.integers(1, 12),
    dim=st.sampled_from([1, 7, 64]),
)
# theta, zeta and delta share bucket 1 at dim 7: their sum changes in the
# last bit when added in another order.
@example(
    records=["theta epsilon alpha alpha gamma eta alpha eta", "beta theta zeta alpha zeta theta delta"],
    chunk_size=12,
    dim=7,
)
@settings(max_examples=100, deadline=None)
def test_ingested_rows_equal_embed_bit_for_bit(tmp_path_factory, records, chunk_size, dim):
    """ingest_corpus embeds all chunks at once, and queries go through
    embed: every row must be embed's vector of its chunk, to the bit.
    Repeated and case-folded tokens give counts above one, and at dims 1
    and 7 distinct tokens share buckets."""
    tmp_path = tmp_path_factory.mktemp("ingest")
    corpus = _corpus_file(tmp_path, [{"source_id": f"s{i}", "text": t} for i, t in enumerate(records)])
    index = ingest_corpus(corpus, chunk_size=chunk_size, dim=dim)
    assert index.embeddings.shape == (len(index.documents), dim)
    for doc, row in zip(index.documents, index.embeddings):
        assert row.tobytes() == index.embedder.embed(doc.text).tobytes()
        assert len(doc.text.split()) <= chunk_size


def _reference_tally(texts):
    """_tally as one Counter per text: ids by first occurrence across texts,
    each text's entries in Counter order."""
    vocab, ids, counts, sizes = {}, [], [], []
    for text in texts:
        tally = Counter(text.lower().split())
        ids += [vocab.setdefault(token, len(vocab)) for token in tally]
        counts += tally.values()
        sizes.append(len(tally))
    return vocab, ids, counts, sizes


@given(
    texts=st.lists(
        st.lists(_vocab | st.sampled_from(["ALPHA", "alpha", "Alpha", "a", "A"]) | st.text(max_size=4), max_size=30)
        .map(" ".join),
        min_size=1,
        max_size=10,
    )
)
@settings(max_examples=200, deadline=None)
def test_tally_equals_one_counter_per_text(texts):
    """Repeated and case-folded tokens, texts with no token, and words of
    arbitrary characters (some of which split on Unicode whitespace)."""
    got = _tally(texts)
    vocab, ids, counts, sizes = _reference_tally(texts)
    assert list(got.vocab.items()) == list(vocab.items())
    assert (got.ids.dtype, got.counts.dtype, got.sizes.dtype) == (np.int64, np.float64, np.int64)
    assert got.ids.tolist() == ids and got.counts.tolist() == counts and got.sizes.tolist() == sizes


def _reference_records(path):
    """The corpus record reader as one decode, one field check per field and
    one UTF-8 check per line."""
    records = []
    for lineno, line in enumerate(path.read_text(encoding="utf-8").split("\n"), 1):
        if not line.strip():
            continue
        rec = decode_json(line, f"{path}:{lineno}: bad JSON", CorpusError)
        where = f"{path}:{lineno}: record"
        text = json_field(rec, "text", (str,), where, CorpusError)
        for name, kinds in (("filter_key", (str, type(None))), ("source_id", (str, int))):
            if name in rec:
                json_field(rec, name, kinds, where, CorpusError)
        utf8_text(text, f"{where}.text", CorpusError)
        records.append((str(rec.get("source_id", f"record-{lineno}")), rec.get("filter_key"), text))
    if not records:
        raise CorpusError(f"no records in {path}")
    return records


def _records_or_error(read, path):
    try:
        return read(path)
    except CorpusError as exc:
        return f"CorpusError: {exc}"


_ascii_text = st.text(st.characters(max_codepoint=127), max_size=10)
_unicode_text = st.text(max_size=10) | st.sampled_from(["caf\u00e9 na\u00efve", "\u65e5\u672c \u8a9e", "x\u2028y"])
_surrogate_text = st.sampled_from(["\ud800", "a \udfff b", "\udbff\udc00"])
_wrong_kind = st.booleans() | st.floats(allow_nan=False, allow_infinity=False) | st.none() | st.lists(st.integers(0, 2), max_size=2)
# Each field of a drawn record is of its kind or of a wrong one, or absent.
_record = st.fixed_dictionaries(
    {},
    optional={
        "text": _ascii_text | _unicode_text | _surrogate_text | _wrong_kind | st.integers(),
        "source_id": _ascii_text | st.integers() | _surrogate_text | _wrong_kind,
        "filter_key": _ascii_text | st.none() | _unicode_text | _wrong_kind | st.integers(),
        "other": _wrong_kind,
    },
)
_non_object = st.lists(st.integers(), max_size=2) | _ascii_text | st.integers() | st.none() | st.booleans()
_raw_line = st.sampled_from(
    ["", "   ", "{", "nul", '{"text": "a"} x', "[" * 100_000, "\ufeff" + '{"text": "a b"}', '{"text": "\\ud83d"}']
)


def _line(draw, value):
    try:
        line = json.dumps(value, ensure_ascii=draw(st.booleans()))
        line.encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate is written as its escape
        line = json.dumps(value)
    return draw(st.sampled_from(["", " ", "\t"])) + line + draw(st.sampled_from(["", "\r"]))


@st.composite
def _record_lines(draw):
    """Well-formed records, with one line of any kind among them."""
    good = st.fixed_dictionaries(
        {"text": _ascii_text | _unicode_text},
        optional={"source_id": _ascii_text | st.integers(), "filter_key": st.none() | _ascii_text},
    )
    lines = [_line(draw, value) for value in draw(st.lists(good, max_size=4))]
    kind = draw(st.sampled_from(["raw", "non-object", "record", "record"]))
    line = draw(_raw_line) if kind == "raw" else _line(draw, draw(_record if kind == "record" else _non_object))
    lines.insert(draw(st.integers(0, len(lines))), line)
    return lines


@given(lines=_record_lines())
@example(lines=['{"text": "a b", "source_id": null}'])
@example(lines=['{"text": true}'])
@example(lines=['{"text": "a", "filter_key": 1.5}'])
@example(lines=['{"text": "a", "source_id": ["s"]}'])
@example(lines=['{"text": "\\udc00 b"}'])
@settings(max_examples=300, deadline=None)
def test_corpus_reader_matches_the_per_line_reference(tmp_path_factory, lines):
    """The reader's inline field test passes exactly the records the field
    rules pass, and any other record fails with the rules' own message:
    non-objects, fields of the wrong kind, a missing text, non-ASCII text,
    lone surrogates, a BOM, leading whitespace, CRLF line ends, nesting too
    deep and blank lines."""
    path = tmp_path_factory.mktemp("reader") / "corpus.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert _records_or_error(_read_records, path) == _records_or_error(_reference_records, path)


_escaped_token = st.text(min_size=1, max_size=5) | st.sampled_from(
    ['"quoted"', "back\\slash", "ctl\x01\x1f", "</end>", "\u00e9t\u00e9", "\u65e5\u672c", "\U0001f600"]
)


@given(
    records=st.lists(
        st.tuples(
            st.lists(_escaped_token, min_size=1, max_size=8).map(" ".join).filter(str.split),
            st.none() | st.sampled_from(["a", 'k"ey', "\u00e9"]),
        ),
        min_size=1,
        max_size=5,
    ),
    dim=st.sampled_from([1, 8]),
)
@settings(max_examples=60, deadline=None)
def test_saved_index_is_magic_length_canonical_header_and_body(tmp_path_factory, records, dim):
    """save_index writes the magic line, the header's byte length, the
    canonical JSON header with the documents as columns, and the rows."""
    tmp_path = tmp_path_factory.mktemp("layout")
    corpus = [{"source_id": f"s{i}", "filter_key": key, "text": text} for i, (text, key) in enumerate(records)]
    index = ingest_corpus(_corpus_file(tmp_path, corpus), chunk_size=3, dim=dim)
    save_index(index, tmp_path / "index.bin")
    body = index.embeddings.astype("<f8").tobytes()
    header = canonical_json(
        {
            "embedder_id": index.embedder_id,
            "embedder": {"dim": dim, "n_docs": len(index.documents), "idf": index.embedder.idf},
            "documents": {
                "text": [d.text for d in index.documents],
                "source_id": [d.source_id for d in index.documents],
                "filter_key": [d.filter_key for d in index.documents],
            },
            "shape": [len(index.documents), dim],
            "sha256": hashlib.sha256(body).hexdigest(),
        }
    ).encode("utf-8")
    assert (tmp_path / "index.bin").read_bytes() == INDEX_MAGIC + b"%d\n" % len(header) + header + body
    loaded = load_index(tmp_path / "index.bin")
    assert loaded.documents == index.documents and loaded.embedder == index.embedder


def test_bucket_memo_holds_only_idf_tokens(tmp_path):
    """Buckets are memoized when a vocabulary token is first embedded, never
    for a token outside the IDF table, and never by an unfitted embedder."""
    index = _index_from(tmp_path, [("alpha beta", None), ("beta gamma", None)], dim=16)
    save_index(index, tmp_path / "index.bin")
    loaded = load_index(tmp_path / "index.bin").embedder
    assert loaded._buckets == {}
    for embedder in (index.embedder, loaded):
        for text in ("Alpha unseen", "beta delta delta", "nothing known"):
            embedder.embed(text)
        assert set(embedder._buckets) <= set(embedder.idf)
        assert {"alpha", "beta"} <= set(embedder._buckets)
        assert all(bucket == token_bucket(token, 16) for token, bucket in embedder._buckets.items())
    unfitted = HashedEmbedder(dim=16)
    unfitted.embed("alpha beta")
    assert unfitted._buckets == {}


def test_term_table_is_not_part_of_equality_or_repr(tmp_path):
    embedder = _index_from(tmp_path, [("alpha beta", None), ("beta gamma", None)], dim=16).embedder
    same = HashedEmbedder(dim=16, idf=dict(embedder.idf), n_docs=embedder.n_docs)
    embedder.embed("alpha")  # the memos now differ
    assert embedder == same
    assert "_buckets" not in repr(embedder) and "_unseen_weight" not in repr(embedder)
    assert embedder != HashedEmbedder(dim=16, idf=None, n_docs=embedder.n_docs)


def test_disjoint_vocabulary_cosine_zero():
    dim = 128
    # Verify the two vocabularies are collision-free at this dimension first.
    left, right = ["apple", "brick", "cloud"], ["delta", "ember", "frost"]
    buckets = [token_bucket(t, dim) for t in left + right]
    assert len(set(buckets)) == len(buckets)
    emb = HashedEmbedder(dim=dim)
    assert float(emb.embed(" ".join(left)) @ emb.embed(" ".join(right))) == 0.0


def test_identical_text_ranked_first(tmp_path):
    records = [
        {"source_id": f"s{i}", "filter_key": None, "text": _words(8, prefix=f"tok{i}_")}
        for i in range(6)
    ]
    path = _corpus_file(tmp_path, records)
    index = ingest_corpus(path, chunk_size=50, dim=128)
    target = index.documents[3]
    result = retrieve(index, target.text, k=1)
    assert result[0].doc_id == target.doc_id


def test_filter_contract(tmp_path):
    records = [
        {"source_id": f"s{i}", "filter_key": f"patient-{i % 3}", "text": f"note {i} " + _words(5)}
        for i in range(9)
    ]
    index = ingest_corpus(_corpus_file(tmp_path, records), chunk_size=50, dim=128)
    result = retrieve(index, "note", k=5, filter_key="patient-1")
    assert result
    assert all(d.filter_key == "patient-1" for d in result)


def test_retrieve_matches_bruteforce_oracle(tmp_path):
    rng = np.random.default_rng(11)
    vocab = [f"term{i}" for i in range(40)]
    records = [
        {
            "source_id": f"s{i}",
            "filter_key": None,
            "text": " ".join(vocab[j] for j in rng.integers(0, 40, size=12)),
        }
        for i in range(80)
    ]
    index = ingest_corpus(_corpus_file(tmp_path, records), chunk_size=50, dim=96)
    for _ in range(50):
        query = " ".join(vocab[j] for j in rng.integers(0, 40, size=5))
        k = int(rng.integers(1, 10))
        got = [d.doc_id for d in retrieve(index, query, k=k)]
        # Oracle: recompute every cosine from scratch, python-side.
        qv = index.embedder.embed(query)
        sims = [(float(np.dot(index.embeddings[i], qv)), d.doc_id) for i, d in enumerate(index.documents)]
        expected = [doc_id for sim, doc_id in sorted(sims, key=lambda p: (-p[0], p[1]))][:k]
        assert got == expected


def reference_retrieve(index, query_text, k, filter_key=None, exclude=frozenset()):
    """The full-scan implementation: test every document, then sort every
    candidate in Python by (-similarity, row)."""
    candidates = [
        i
        for i, doc in enumerate(index.documents)
        if doc.doc_id not in exclude
        and (filter_key is None or doc.filter_key == filter_key)
    ]
    if not candidates:
        return []
    query_vec = index.embedder.embed(query_text)
    sims = index.embeddings[candidates] @ query_vec
    ranked = sorted(zip(candidates, sims), key=lambda pair: (-pair[1], pair[0]))
    return [index.documents[i] for i, _ in ranked[:k]]


VOCAB = ["apple", "brick", "cloud", "delta", "ember", "frost", "grove"]
KEYS = ["p0", "p1", "p2", None]


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    chunks=st.lists(
        st.tuples(
            # One to three words from seven give many duplicate texts, so
            # exact similarity ties.
            st.lists(st.sampled_from(VOCAB), min_size=1, max_size=3).map(" ".join),
            st.sampled_from(KEYS),
        ),
        min_size=1,
        max_size=30,
    ),
    dim=st.sampled_from([4, 16, 64]),
)
def test_retrieve_matches_full_scan(tmp_path_factory, data, chunks, dim):
    index = _index_from(tmp_path_factory.mktemp("scan"), chunks, dim)
    n = len(chunks)
    query = " ".join(data.draw(st.lists(st.sampled_from(VOCAB + ["unseen"]), max_size=4)))
    filter_key = data.draw(st.sampled_from(KEYS + ["absent"]))
    exclude = data.draw(
        st.one_of(
            st.sets(st.integers(0, n - 1)),
            # Every candidate of the key excluded: nothing is left.
            st.just({i for i, (_, key) in enumerate(chunks) if filter_key in (None, key)}),
        )
    )
    k = data.draw(st.integers(1, n + 5))
    got = [d.doc_id for d in retrieve(index, query, k, filter_key=filter_key, exclude=exclude)]
    want = [d.doc_id for d in reference_retrieve(index, query, k, filter_key, exclude)]
    assert got == want
    vectors: dict = {}
    for _ in range(2):  # the first call fills the vector memo, the second reads it
        memoized = retrieve(index, query, k, filter_key=filter_key, exclude=exclude, query_vectors=vectors)
        assert [d.doc_id for d in memoized] == want


def test_queue_refill_pattern_batch2_over_5_docs(tmp_path):
    records = [
        {"source_id": f"s{i}", "filter_key": None, "text": f"shared topic doc{i}"}
        for i in range(5)
    ]
    index = ingest_corpus(_corpus_file(tmp_path, records), chunk_size=50, dim=64)
    queue = DocumentQueue(index, batch_size=2)
    provider_calls = []

    def provider():
        provider_calls.append(len(provider_calls) + 1)
        return "shared topic"

    seen = []
    refill_at = []
    for call in range(1, 6):
        before = len(provider_calls)
        doc = queue.next(provider)
        if len(provider_calls) > before:
            refill_at.append(call)
        seen.append(doc.doc_id)
    assert refill_at == [1, 3, 5]
    assert len(set(seen)) == 5  # no document served twice
    assert queue.next(provider) is None


def test_index_round_trip_and_embedder_id_check(tmp_path):
    records = [{"source_id": "s", "filter_key": "f", "text": _words(30)}]
    index = ingest_corpus(_corpus_file(tmp_path, records), chunk_size=10, dim=32)
    out = tmp_path / "index.json"
    save_index(index, out)
    first = out.read_bytes()
    save_index(index, out)
    assert out.read_bytes() == first  # byte-identical rewrite
    loaded = load_index(out)
    assert loaded.documents == index.documents and loaded.embedder == index.embedder
    assert loaded.embedder_id == index.embedder_id
    assert loaded.embeddings.dtype == index.embeddings.dtype
    assert loaded.embeddings.tobytes() == index.embeddings.tobytes()  # bit-equal


def test_rows_by_key_survives_round_trip(tmp_path):
    records = [
        {"source_id": f"s{i}", "filter_key": [None, "a", "b"][i % 3], "text": _words(25, f"t{i}_")}
        for i in range(7)
    ]
    index = ingest_corpus(_corpus_file(tmp_path, records), chunk_size=10, dim=32)
    assert index.rows_by_key == {
        key: tuple(i for i, d in enumerate(index.documents) if d.filter_key == key)
        for key in (None, "a", "b")
    }
    out = tmp_path / "index.json"
    save_index(index, out)
    assert b"rows_by_key" not in out.read_bytes()
    assert load_index(out).rows_by_key == index.rows_by_key


MAGIC = b"thoughtsearch-index v3\n"


def _read_index(path):
    """The (header, embeddings) of a v3 index file; the rows are a copy."""
    data = path.read_bytes()
    assert data.startswith(MAGIC)
    length_line, rest = data[len(MAGIC) :].split(b"\n", 1)
    length = int(length_line)
    header = json.loads(rest[:length])
    rows = np.frombuffer(rest[length:], dtype="<f8").reshape(header["shape"]).copy()
    return header, rows


def _write_index(path, header, rows, rehash=True):
    """Write a header and rows as a v3 index file. With rehash the header's
    sha256 is recomputed, so that checks after the hash check still run."""
    body = np.ascontiguousarray(rows, dtype="<f8").tobytes()
    if rehash:
        header["sha256"] = hashlib.sha256(body).hexdigest()
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    path.write_bytes(MAGIC + b"%d\n" % len(blob) + blob + body)


def _small_index_file(tmp_path):
    records = [
        {"source_id": f"s{i}", "filter_key": "f", "text": _words(20, f"t{i}_")} for i in range(2)
    ]
    out = tmp_path / "index.bin"
    save_index(ingest_corpus(_corpus_file(tmp_path, records), chunk_size=10, dim=16), out)
    return out


def test_index_file_layout(tmp_path):
    out = _small_index_file(tmp_path)
    header, rows = _read_index(out)
    assert sorted(header) == ["documents", "embedder", "embedder_id", "sha256", "shape"]
    # The documents are columns; a document's id is its position.
    assert header["documents"] == {
        "text": [d.text for d in load_index(out).documents],
        "source_id": ["s0", "s0", "s1", "s1"],
        "filter_key": ["f"] * 4,
    }
    assert header["shape"] == [4, 16] and rows.shape == (4, 16)
    assert header["sha256"] == hashlib.sha256(rows.tobytes()).hexdigest()
    # The header is canonical JSON, and the body is the file's tail.
    before = out.read_bytes()
    _write_index(out, header, rows, rehash=False)
    assert out.read_bytes() == before
    assert load_index(out).embeddings.flags.aligned


def _add_document(header, rows):
    for column in header["documents"].values():
        column.append(column[-1])


def _drop_last_document(header, rows):
    for column in header["documents"].values():
        column.pop()


def _drop_last_row(header, rows):
    header["shape"][0] -= 1
    return rows[:-1]


def _non_finite_row(header, rows):
    rows[2, 0] = np.nan


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda h, r: h.clear(), "missing field 'embedder'"),
        (lambda h, r: h["embedder"].pop("dim"), r"index.embedder missing field 'dim'"),
        (lambda h, r: h.pop("shape"), "missing field 'shape'"),
        (lambda h, r: h["documents"].pop("text"), r"index.documents missing field 'text'"),
        (_add_document, "shape"),
        (_drop_last_document, "shape"),
        (_drop_last_row, "shape"),
        (lambda h, r: h["shape"].__setitem__(1, 8), "shape"),
        (lambda h, r: r.reshape(-1)[:-3], "embeddings are 488 bytes, expected 4 x 16 x 8 = 512"),
        (lambda h, r: h["documents"]["source_id"].pop(), r"documents.source_id has 3 entries, expected 4"),
        (lambda h, r: h["documents"]["filter_key"].__setitem__(0, ["a"]), r"documents.filter_key\[0\]"),
        (lambda h, r: h["documents"]["filter_key"].__setitem__(0, 7), r"documents.filter_key\[0\]"),
        (lambda h, r: h["documents"]["text"].__setitem__(2, None), r"documents.text\[2\] must be a string"),
        (lambda h, r: h["documents"]["source_id"].__setitem__(3, 3), r"documents.source_id\[3\] must be a string"),
        (lambda h, r: h.__setitem__("documents", [{"text": "x"}]), "index.documents must be an object"),
        (lambda h, r: h["documents"].__setitem__("filter_key", None), "index.documents.filter_key must be a list"),
        (lambda h, r: h["embedder"]["idf"].__setitem__("w0", "x"), "idf"),
        (_non_finite_row, "row 2 is not finite"),
        (lambda h, r: h["embedder"].__setitem__("n_docs", 10**400), r"0 <= n_docs < 2\*\*63"),
    ],
    ids=[
        "truncated-to-version",
        "no-dim",
        "no-shape",
        "document-without-text",
        "more-documents-than-rows",
        "fewer-documents-than-rows",
        "fewer-rows-than-documents",
        "shape-not-embedder-dim",
        "embeddings-truncated",
        "columns-of-unequal-length",
        "filter-key-unhashable",
        "filter-key-not-string",
        "text-not-string",
        "source-id-not-string",
        "documents-as-records",
        "column-not-list",
        "idf-not-numeric",
        "embeddings-not-finite",
        "n-docs-beyond-float",
    ],
)
def test_malformed_index_is_rejected_at_load(tmp_path, mutate, message):
    """Header and body mutations, written back with a recomputed sha256 so
    that each reaches the check it targets."""
    out = _small_index_file(tmp_path)
    header, rows = _read_index(out)
    mutated = mutate(header, rows)  # the rows when it returns new ones
    _write_index(out, header, mutated if isinstance(mutated, np.ndarray) else rows)
    with pytest.raises(SchemaError, match=message):
        load_index(out)


def _flip_body_byte(data):
    flipped = bytearray(data)
    flipped[-5] ^= 0x01
    return bytes(flipped)


def _header_length_past_eof(data):
    length_line, rest = data[len(MAGIC) :].split(b"\n", 1)
    return MAGIC + b"%d\n" % len(data) + rest


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: b"thoughtsearch-index v4\n" + d[len(MAGIC) :], "magic line"),
        (_header_length_past_eof, "runs past the end of the file"),
        (_flip_body_byte, "do not match index.sha256"),
        (lambda d: d + b"\0" * 8, "embeddings are 520 bytes"),
        (lambda d: b'{"version":1}\n', "version 1 .* re-ingest"),
        (lambda d: b"thoughtsearch-index v2\n" + d[len(MAGIC) :], "version 2 index file.* re-ingest"),
        (lambda d: d[: len(MAGIC) + 2], "no header length"),
    ],
    ids=[
        "bad-magic",
        "header-length-past-eof",
        "body-byte-flipped",
        "trailing-bytes",
        "v1-json-file",
        "v2-file",
        "cut-in-header-length",
    ],
)
def test_malformed_index_bytes_are_rejected_at_load(tmp_path, mutate, message):
    out = _small_index_file(tmp_path)
    out.write_bytes(mutate(out.read_bytes()))
    with pytest.raises(SchemaError, match=message):
        load_index(out)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_damaged_index_file_raises_only_schema_error(tmp_path_factory, data):
    """A v3 file cut short anywhere, or with a few bytes flipped, either
    loads or raises SchemaError; nothing else escapes load_index."""
    tmp_path = tmp_path_factory.mktemp("fuzz")
    out = _small_index_file(tmp_path)
    blob = bytearray(out.read_bytes())
    if data.draw(st.booleans(), label="truncate"):
        blob = blob[: data.draw(st.integers(0, len(blob) - 1), label="cut at")]
    else:
        for at in data.draw(st.lists(st.integers(0, len(blob) - 1), min_size=1, max_size=4), label="flip"):
            blob[at] ^= data.draw(st.integers(1, 255), label="mask")
    out.write_bytes(bytes(blob))
    try:
        load_index(out)
    except SchemaError:
        pass


def test_load_index_holds_the_body_once(tmp_path):
    """The body is read straight into the embeddings array: no copy of the
    file, and no second copy of the rows, is alive at the load's peak."""
    records = [{"source_id": f"s{i}", "text": _words(6, f"d{i}_")} for i in range(64)]
    out = tmp_path / "index.bin"
    save_index(ingest_corpus(_corpus_file(tmp_path, records), chunk_size=10, dim=16384), out)
    body = 64 * 16384 * 8
    gc.collect()
    tracemalloc.start()
    try:
        index = load_index(out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert index.embeddings.nbytes == body
    assert peak < 1.3 * body, f"load_index peaked at {peak / body:.2f}x the body"


def test_corpus_record_may_hold_a_line_separator(tmp_path):
    """JSON allows U+2028 raw inside a string: the record file splits into
    records at newlines only."""
    path = tmp_path / "corpus.jsonl"
    path.write_text(json.dumps({"text": "a\u2028b c"}, ensure_ascii=False) + "\n", encoding="utf-8")
    index = ingest_corpus(path, chunk_size=10)
    assert [doc.source_id for doc in index.documents] == ["record-1"]


def test_ingest_rejects_unhashable_filter_key(tmp_path):
    path = _corpus_file(tmp_path, [{"source_id": "s", "filter_key": ["a"], "text": "x y"}])
    with pytest.raises(CorpusError, match="filter_key"):
        ingest_corpus(path, chunk_size=10)


def test_reingest_is_byte_identical(tmp_path):
    records = [
        {"source_id": f"s{i}", "filter_key": None, "text": _words(23, prefix=f"p{i}_")}
        for i in range(4)
    ]
    path = _corpus_file(tmp_path, records)
    out1, out2 = tmp_path / "i1.json", tmp_path / "i2.json"
    save_index(ingest_corpus(path, chunk_size=10, dim=64), out1)
    save_index(ingest_corpus(path, chunk_size=10, dim=64), out2)
    assert out1.read_bytes() == out2.read_bytes()


def test_queue_embeds_each_refill_text_once(tmp_path, monkeypatch):
    records = [
        {"source_id": f"s{i}", "filter_key": None, "text": f"shared topic doc{i}"}
        for i in range(5)
    ]
    index = ingest_corpus(_corpus_file(tmp_path, records), chunk_size=50, dim=64)
    want = [d.doc_id for d in reference_retrieve(index, "shared topic", k=5)]
    embedded = []
    embed = HashedEmbedder.embed
    monkeypatch.setattr(HashedEmbedder, "embed", lambda self, text: embedded.append(text) or embed(self, text))
    queue = DocumentQueue(index, batch_size=2)
    seen = [queue.next(lambda: "shared topic").doc_id for _ in range(5)]
    assert queue.refills == 3 and embedded == ["shared topic"]
    assert seen == want
    assert queue.next(lambda: "a new text") is None  # nothing left: no embedding either
    assert embedded == ["shared topic"] and "a new text" not in queue.query_vectors
