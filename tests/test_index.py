"""Forward rows, postings, collection statistics and tf-idf vectors."""

import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irflab.corpus import PassageCollection
from irflab.index import build_index, collection_prob, tfidf_vector

from conftest import make_collection, random_token_lists

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
