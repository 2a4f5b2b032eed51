"""Immutable forward and inverted index with collection statistics.

build_index is the one place that counts terms. ``corpus.tokenize`` interns
every token, so the term tuple, the dict keys and the passages' token
tuples share one string per distinct term. Terms get integer ids in
sorted-term order, so id order is term-string order. One pass over the
distinct (passage, term id) pairs gives the forward index, a CSR matrix
holding each passage's ascending term ids and their tfs, and its transpose,
the postings. Term ids and tfs are built as int32; positions, ``row_ptr``
and ``tie_rank`` stay int64, as int32 fancy indices doubled ``ql_scores``'s
scatter-add (1.4 -> 3.2 us at 42 postings). cf and df are arrays by term
id, read through ``collection_prob`` and ``idf``. The index holds the
collection's ``ids`` and ``id_to_pos``: one id map serves both. It reads
passages' tokens only; ingested passages keep no text, and their ids and
doc ids are interned. The (passage, term) sort keys are int32 when
passages x terms < 2**31, and each token-length temporary is dropped once
it is dead.

``memo`` is the one get-or-build behind every cache in irflab. The index
keeps what depends on no query, read-only, for its lifetime, in its memo
(``Index.cached``):
  - under ("ql", mu), ``irflab.retrieval.ql_weights``: ln(|d| + mu) of
    every passage and the log posting weights of each term scored at mu,
    at most 8 bytes per passage and per posting for each distinct mu;
  - under "counts" and "tfidf", by passage id, the term counts
    (``term_counts``) and tf-idf weights (``tfidf_row``) of each passage
    feedback has read: one small dict per distinct passage, not per call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .corpus import Passage, PassageCollection, Query

# Sparse term -> real weight vector in vector-space form (not normalized).
TermVector = dict[str, float]


@dataclass(eq=False)
class Index:
    """Forward rows, postings and corpus statistics; treat as immutable once built.

    Compared and hashed by identity, so caches can key on the index."""

    ids: tuple[str, ...]                     # the collection's own tuple
    id_to_pos: dict[str, int]                # the collection's own map
    terms: tuple[str, ...]                   # term id -> term, ascending
    term_ids: dict[str, int]
    doc_len: np.ndarray                      # int64, tokens per passage
    row_ptr: np.ndarray                      # int64; passage i's row is [row_ptr[i], row_ptr[i + 1])
    row_terms: np.ndarray                    # int32 term ids, ascending within a row
    row_tfs: np.ndarray                      # int32
    postings: dict[str, tuple[np.ndarray, np.ndarray]]  # term -> (int64 positions, int32 tfs)
    cf: np.ndarray                           # int64 collection frequency by term id
    df: np.ndarray                           # int64 document frequency by term id
    total_tokens: int
    passage_count: int
    tie_rank: np.ndarray = field(repr=False, default=None)  # rank of each position under id-ascending order
    _memo: dict = field(init=False, repr=False, default_factory=dict)

    @property
    def avg_doc_len(self) -> float:
        return self.total_tokens / self.passage_count

    def __contains__(self, term: str) -> bool:
        return term in self.term_ids

    def cached(self, key, build):
        """build()'s value, computed once per key and kept on the index;
        callers must not modify it."""
        return memo(self._memo, key, build)

    def position(self, passage_id: str) -> int:
        """The passage's index position; ValueError if it is not indexed."""
        pos = self.id_to_pos.get(passage_id)
        if pos is None:
            raise ValueError(f"passage {passage_id!r} is not in the index")
        return pos

    def row(self, passage: Passage) -> tuple[np.ndarray, np.ndarray]:
        """The passage's forward row: its ascending term ids and their tfs."""
        pos = self.position(passage.passage_id)
        lo, hi = self.row_ptr[pos:pos + 2].tolist()
        return self.row_terms[lo:hi], self.row_tfs[lo:hi]

    def term_counts(self, passage: Passage) -> Mapping[str, int]:
        """{term: tf} of the passage, read from its forward row in term order
        on the first call and kept: a read-only mapping."""
        def build():
            term_ids, tfs = self.row(passage)
            terms = self.terms
            return MappingProxyType({terms[t]: tf for t, tf in zip(term_ids.tolist(), tfs.tolist())})
        return memo(self.cached("counts", dict), passage.passage_id, build)

    def tfidf_row(self, passage: Passage) -> Mapping[str, float]:
        """``tfidf_vector`` of the passage, computed on the first call and
        kept: a read-only mapping."""
        return memo(self.cached("tfidf", dict), passage.passage_id,
                    lambda: MappingProxyType(tfidf_vector(passage, self)))


def memo(table: dict, key, build):
    """table[key], set to build() on the first call for the key; a None value
    counts as absent."""
    value = table.get(key)
    if value is None:
        value = table[key] = build()
    return value


def build_index(collection: PassageCollection) -> Index:
    if len(collection) == 0:
        raise ValueError("cannot index an empty collection")
    ids = collection.ids
    n = len(ids)
    rows = [p.tokens for p in collection]
    doc_len = np.fromiter(map(len, rows), dtype=np.int64, count=n)
    terms = tuple(sorted(set(chain.from_iterable(rows))))
    term_ids = {t: i for i, t in enumerate(terms)}
    v = len(terms)
    token_ids = np.fromiter(map(term_ids.__getitem__, chain.from_iterable(rows)),
                            dtype=np.int32, count=int(doc_len.sum()))
    cf = np.bincount(token_ids, minlength=v)
    # sorted passage-major keys: each run of equal keys is one row entry, its length the tf
    keys = np.repeat(np.arange(n, dtype=np.int32 if n * v < 2**31 else np.int64), doc_len)
    keys *= v
    keys += token_ids
    del token_ids
    keys.sort()
    first = np.flatnonzero(np.diff(keys, prepend=-1))
    row_pos = np.empty(len(first), dtype=np.int64)
    row_terms, row_tfs = np.empty((2, len(first)), dtype=np.int32)
    np.divmod(keys[first], v, out=(row_pos, row_terms))
    np.subtract(np.append(first[1:], len(keys)), first, out=row_tfs)
    del keys, first
    row_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(row_pos, minlength=n), out=row_ptr[1:])
    # the transpose: a stable sort by term keeps each term's positions ascending
    order = np.argsort(row_terms, kind="stable")
    post_pos, post_tfs = row_pos[order], row_tfs[order]
    del order, row_pos
    post_pos.setflags(write=False)  # scorers cache views of the postings
    post_tfs.setflags(write=False)
    df = np.bincount(row_terms, minlength=v)
    bounds = np.concatenate(([0], np.cumsum(df))).tolist()
    postings = {
        term: (post_pos[bounds[i]:bounds[i + 1]], post_tfs[bounds[i]:bounds[i + 1]])
        for i, term in enumerate(terms)
    }
    tie_rank = np.empty(n, dtype=np.int64)
    tie_rank[np.argsort(np.array(ids))] = np.arange(n)
    return Index(
        ids=ids,
        id_to_pos=collection.id_to_pos,
        terms=terms,
        term_ids=term_ids,
        doc_len=doc_len,
        row_ptr=row_ptr,
        row_terms=row_terms,
        row_tfs=row_tfs,
        postings=postings,
        cf=cf,
        df=df,
        total_tokens=int(doc_len.sum()),
        passage_count=n,
        tie_rank=tie_rank,
    )


def query_counts(query: Query) -> dict[str, int]:
    """Term counts of the query tokens, in first-occurrence order."""
    counts: dict[str, int] = {}
    for tok in query.tokens:
        counts[tok] = counts.get(tok, 0) + 1
    return counts


def collection_prob(index: Index, term: str) -> float:
    """Corpus unigram probability cf(term)/total_tokens; 0 for unseen terms."""
    tid = index.term_ids.get(term)
    return 0.0 if tid is None else index.cf.item(tid) / index.total_tokens


def idf(index: Index, term: str) -> float:
    """ln(N / df); 0 for unseen terms (df = 0 terms carry no weight)."""
    tid = index.term_ids.get(term)
    if tid is None:
        return 0.0
    return float(np.log(index.passage_count / index.df.item(tid)))


def tfidf_vector(passage: Passage, index: Index) -> TermVector:
    """tf * ln(N/df) weights of the passage's row, in term order; zero
    weights are omitted."""
    term_ids, tfs = index.row(passage)
    weights = tfs * np.log(index.passage_count / index.df[term_ids])
    return {index.terms[t]: w for t, w in zip(term_ids.tolist(), weights.tolist()) if w != 0.0}


def query_tfidf(query: Query, index: Index) -> TermVector:
    """tf * ln(N/df) weights of the query terms, in first-occurrence order;
    unindexed terms and zero weights are omitted."""
    weights = {t: tf * idf(index, t) for t, tf in query_counts(query).items()}
    return {t: w for t, w in weights.items() if w != 0.0}
