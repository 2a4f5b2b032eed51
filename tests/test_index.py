"""Forward rows, postings, collection statistics and tf-idf vectors."""

import dataclasses
import math
from collections import Counter
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irflab.corpus import PassageCollection
from irflab.embeddings import EmbeddingModel
from irflab.feedback import query_mle
from irflab.index import build_index, collection_prob, query_tfidf, tfidf_vector
from irflab.retrieval import RetrievalParams, bm25_scores, ql_scores, rocchio_scores
from irflab.synthgen import GeneratorConfig, generate

from conftest import make_collection, make_query, random_token_lists

# Few distinct short tokens, so terms repeat within and across passages;
# empty token lists stand for passages with nothing left after tokenizing.
token_lists = st.lists(
    st.lists(st.text(alphabet="abc", min_size=1, max_size=2), max_size=8),
    min_size=1, max_size=12,
)


class TestBuildIndex:
    def test_hand_counted_statistics(self):
        coll = make_collection([["a", "b"], ["a"]])
        idx = build_index(coll)
        a, b = idx.term_ids["a"], idx.term_ids["b"]
        assert idx.df[a] == 2
        assert idx.cf[a] == 2
        assert idx.df[b] == 1
        assert idx.total_tokens == 3
        assert idx.passage_count == 2

    def test_repeated_term_in_one_passage(self):
        idx = build_index(make_collection([["a", "a"]]))
        assert idx.cf[idx.term_ids["a"]] == 2
        assert idx.df[idx.term_ids["a"]] == 1

    def test_empty_collection_rejected(self):
        with pytest.raises(ValueError):
            build_index(PassageCollection([]))

    @settings(max_examples=200, deadline=None)
    @given(token_lists)
    def test_audit_on_random_corpora(self, lists):
        coll = make_collection(lists)
        idx = build_index(coll)
        recount = Counter(tok for tokens in lists for tok in tokens)
        assert idx.terms == tuple(sorted(recount))
        assert all(idx.term_ids[t] == i for i, t in enumerate(idx.terms))

        transpose = {t: ([], []) for t in idx.terms}
        for i, (passage, tokens) in enumerate(zip(coll, lists)):
            row_terms, row_tfs = idx.row(passage)
            assert list(row_terms) == sorted(row_terms)
            assert idx.term_counts(passage) == Counter(tokens)
            for t, tf in zip(row_terms, row_tfs):
                transpose[idx.terms[t]][0].append(i)
                transpose[idx.terms[t]][1].append(tf)
        assert set(idx.postings) == set(idx.terms)
        for term, (positions, tfs) in idx.postings.items():
            assert positions.tolist() == transpose[term][0]  # ascending: rows were visited in order
            assert tfs.tolist() == transpose[term][1]

        assert idx.cf.tolist() == [recount[t] for t in idx.terms]
        assert idx.df.tolist() == [sum(t in tokens for tokens in lists) for t in idx.terms]
        assert idx.doc_len.tolist() == [len(tokens) for tokens in lists]
        assert idx.total_tokens == sum(recount.values())
        assert idx.passage_count == len(lists)

    def test_queries_are_pure(self, tiny_index):
        _, idx = tiny_index
        first = collection_prob(idx, "a")
        assert all(collection_prob(idx, "a") == first for _ in range(5))


def int64_reference(coll, idx):
    """The index with its forward rows and postings rebuilt in int64 from
    each passage's token Counter, one passage at a time."""
    row_ptr, row_terms, row_tfs = [0], [], []
    postings = {t: ([], []) for t in idx.terms}
    for pos, passage in enumerate(coll):
        counts = Counter(passage.tokens)
        for term in sorted(counts):  # term ids follow term order
            row_terms.append(idx.term_ids[term])
            row_tfs.append(counts[term])
            postings[term][0].append(pos)
            postings[term][1].append(counts[term])
        row_ptr.append(len(row_terms))

    def int64(values):
        return np.array(values, dtype=np.int64)
    return dataclasses.replace(
        idx, row_ptr=int64(row_ptr), row_terms=int64(row_terms), row_tfs=int64(row_tfs),
        postings={t: (int64(p), int64(f)) for t, (p, f) in postings.items()})


class TestThirtyTwoBitCounts:
    """Term ids and tfs are int32; every score is bit for bit the one an
    int64 index gives."""

    @settings(max_examples=150, deadline=None)
    @given(token_lists, st.lists(st.text(alphabet="abcx", min_size=1, max_size=2), min_size=1, max_size=4),
           st.sampled_from([0.5, 10.0, 2000.0]))
    def test_scores_equal_an_int64_reference(self, lists, query_tokens, mu):
        coll = make_collection(lists)
        idx = build_index(coll)
        ref = int64_reference(coll, idx)
        for name in ("row_ptr", "row_terms", "row_tfs"):
            assert getattr(idx, name).tolist() == getattr(ref, name).tolist()
        assert {t: (p.tolist(), f.tolist()) for t, (p, f) in idx.postings.items()} == \
            {t: (p.tolist(), f.tolist()) for t, (p, f) in ref.postings.items()}
        for passage in coll:
            assert list(idx.term_counts(passage).items()) == list(ref.term_counts(passage).items())
            assert [(t, w.hex()) for t, w in idx.tfidf_row(passage).items()] == \
                [(t, w.hex()) for t, w in ref.tfidf_row(passage).items()]
        query = make_query(query_tokens)
        params = RetrievalParams(mu=mu)
        for score in (lambda index: ql_scores(query_mle(query), index, params),
                      lambda index: bm25_scores(query, index, params),
                      lambda index: rocchio_scores(query_tfidf(query, index), index)):
            assert score(idx).tobytes() == score(ref).tobytes()

    def test_dtypes(self):
        idx = build_index(make_collection([["a", "b", "a"], [], ["b"]]))
        assert idx.row_terms.dtype == idx.row_tfs.dtype == np.int32
        # positions stay int64: they index the score arrays, and int32 fancy
        # indices doubled ql_scores's scatter-add
        for positions, tfs in idx.postings.values():
            assert (positions.dtype, tfs.dtype) == (np.int64, np.int32)
        assert idx.row_ptr.dtype == idx.tie_rank.dtype == idx.doc_len.dtype == np.int64

    def test_index_holds_the_collections_ids_and_id_map(self):
        coll = make_collection([["a"], ["b"]])
        idx = build_index(coll)
        assert idx.ids is coll.ids and idx.id_to_pos is coll.id_to_pos


class TestResidentBytes:
    """What a loaded collection keeps resident for the whole run: the
    index's per-posting arrays and the maps from passage id."""

    def test_bytes_per_posting_and_one_id_map(self):
        coll, _, _ = generate(GeneratorConfig(num_queries=10, num_noise_passages=300, vocab_size=200, seed=1))
        idx = build_index(coll)
        # a forward-row entry and a posting: term id 4 + tf 4, position 8 + tf 4 bytes
        per_posting = [idx.row_terms, idx.row_tfs, *chain.from_iterable(idx.postings.values())]
        assert sum(a.nbytes for a in per_posting) / len(idx.row_terms) <= 20
        model = EmbeddingModel(vocab={"w0000": 0}, word_vectors=np.zeros((1, 2)), context_vectors=np.zeros((1, 2)),
                               dim=2, passage_vectors=np.ones((len(coll), 2)), passage_ids=coll.ids)
        model.vectors_at("pvc", coll, idx, np.arange(len(coll)))
        id_maps = {id(value) for holder in (coll, idx, model) for value in vars(holder).values()
                   if isinstance(value, dict) and value.keys() == set(coll.ids)}
        assert len(id_maps) == 1


class TestCollectionProb:
    def test_half(self):
        idx = build_index(make_collection([["a", "b"]]))
        assert collection_prob(idx, "a") == 0.5

    def test_unseen_is_zero(self, tiny_index):
        _, idx = tiny_index
        assert collection_prob(idx, "never") == 0.0

    def test_sums_to_one(self, rng):
        coll = make_collection(random_token_lists(rng, 20, 12))
        idx = build_index(coll)
        total = sum(collection_prob(idx, t) for t in idx.postings)
        assert total == pytest.approx(1.0, abs=1e-12)


class TestTfidfVector:
    def test_df_equals_n_gives_zero_weight(self, tiny_index):
        coll, idx = tiny_index
        vec = tfidf_vector(coll["p000"], idx)
        assert "a" not in vec  # ln(2/2) = 0 weight dropped
        assert vec["b"] == pytest.approx(math.log(2))

    def test_hand_computed_weight(self):
        coll = make_collection([["a", "a"], ["b"]])
        idx = build_index(coll)
        vec = tfidf_vector(coll["p000"], idx)
        assert vec["a"] == pytest.approx(2 * math.log(2), abs=1e-9)

    def test_empty_passage_gives_empty_vector(self):
        coll = make_collection([["a"], []])
        idx = build_index(coll)
        assert tfidf_vector(coll["p001"], idx) == {}
