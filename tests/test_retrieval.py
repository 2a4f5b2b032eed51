"""QL / BM25 / Rocchio scoring against brute-force oracles."""

import copy
import json
import math
import pickle
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irflab import retrieval
from irflab.corpus import TokenizerConfig, ingest_corpus
from irflab.index import build_index, collection_prob, tfidf_vector
from irflab.retrieval import (
    RankedList,
    RetrievalParams,
    MU_GRID,
    K1_GRID,
    _take_top,
    bm25_scores,
    ql_scores,
    rank_bm25,
    rank_ql,
    rank_rocchio,
    read_run,
    rocchio_scores,
    write_ranked_ids,
    write_run,
)

from conftest import make_collection, make_query, random_token_lists, ranking_of, shuffled_collection


def brute_ql_score(query_model, tokens, index, mu):
    """Oracle: direct evaluation of the smoothed KL scoring formula."""
    counts = {}
    for t in tokens:
        counts[t] = counts.get(t, 0) + 1
    score = 0.0
    for term, w in query_model.items():
        if term not in index:
            continue
        p_c = int(index.cf[index.term_ids[term]]) / index.total_tokens
        score += w * math.log((counts.get(term, 0) + mu * p_c) / (len(tokens) + mu))
    return score


def brute_bm25_score(qtokens, tokens, index, k1, b):
    counts = {}
    for t in tokens:
        counts[t] = counts.get(t, 0) + 1
    n = index.passage_count
    score = 0.0
    for term in qtokens:
        if term not in index:
            continue
        df = int(index.df[index.term_ids[term]])
        idf = max(0.0, math.log((n - df + 0.5) / (df + 0.5)))
        tf = counts.get(term, 0)
        if tf == 0:
            continue
        score += idf * tf * (k1 + 1) / (tf + k1 * (1 - b + b * len(tokens) / index.avg_doc_len))
    return score


class TestRankQL:
    def test_single_doc_hand_computation(self):
        coll = make_collection([["a", "b"]])
        idx = build_index(coll)
        ranked = rank_ql({"a": 1.0}, idx, RetrievalParams(mu=1.0), depth=1)
        assert ranked.entries[0][1] == pytest.approx(math.log(0.5), abs=1e-9)

    def test_unseen_term_skipped_scores_unaffected(self, caplog):
        coll = make_collection([["a", "b"], ["a", "a"]])
        idx = build_index(coll)
        params = RetrievalParams(mu=10.0)
        base = rank_ql({"a": 1.0}, idx, params, depth=2)
        with caplog.at_level("WARNING"):
            with_unseen = rank_ql({"a": 1.0, "zeta": 0.3}, idx, params, depth=2)
        assert with_unseen.entries == base.entries
        assert any("unseen" in r.message for r in caplog.records)

    def test_mu_grid_matches_protocol(self):
        assert MU_GRID == (30.0, 50.0, 300.0, 500.0, 1000.0, 1500.0)

    def test_against_oracle_on_random_corpora(self, rng):
        for _ in range(10):
            lists = random_token_lists(rng, 15, 8)
            coll = make_collection(lists)
            idx = build_index(coll)
            terms = sorted({t for l in lists for t in l})[:4]
            w = rng.random(len(terms))
            model = dict(zip(terms, (w / w.sum()).tolist()))
            mu = float(rng.uniform(0.5, 50))
            ranked = rank_ql(model, idx, RetrievalParams(mu=mu), depth=len(coll))
            for pid, score in ranked.entries:
                assert score == pytest.approx(brute_ql_score(model, coll[pid].tokens, idx, mu), abs=1e-9)

    def test_exclusion(self):
        coll = make_collection([["a"], ["a"], ["a", "a"]])
        idx = build_index(coll)
        ranked = rank_ql({"a": 1.0}, idx, RetrievalParams(mu=1.0), depth=3, exclude={"p002"})
        assert "p002" not in ranked.ids()

    def test_empty_model_rejected(self, tiny_index):
        _, idx = tiny_index
        with pytest.raises(ValueError):
            rank_ql({}, idx, RetrievalParams(), depth=1)

    def test_one_term_mle_order_matches_smoothed_probability(self, rng):
        for _ in range(10):
            lists = random_token_lists(rng, 12, 6)
            coll = make_collection(lists)
            idx = build_index(coll)
            term = idx.terms[int(np.argmax(idx.cf))]
            mu = 7.0
            ranked = rank_ql({term: 1.0}, idx, RetrievalParams(mu=mu), depth=len(coll))
            p_c = collection_prob(idx, term)
            probs = []
            for pid, _ in ranked.entries:
                toks = coll[pid].tokens
                tf = sum(1 for t in toks if t == term)
                probs.append((tf + mu * p_c) / (len(toks) + mu))
            assert all(probs[i] >= probs[i + 1] - 1e-12 for i in range(len(probs) - 1))


class TestRankBM25:
    def test_default_b(self):
        assert RetrievalParams().b == 0.75
        assert K1_GRID == (1.2, 1.4, 1.6, 1.8, 2.0)

    def test_common_term_clamped_to_zero(self):
        coll = make_collection([["a", "b"], ["a", "c"], ["a", "d"]])
        idx = build_index(coll)
        # df(a) = 3 = N: idf = max(0, ln(0.5/3.5)) = 0, so "a" contributes nothing.
        ranked = rank_bm25(make_query(["a"]), idx, RetrievalParams(), depth=3)
        assert all(score == 0.0 for _, score in ranked.entries)

    def test_single_doc_matches_oracle(self):
        coll = make_collection([["a", "a"]])
        idx = build_index(coll)
        params = RetrievalParams(k1=1.2, b=0.75)
        ranked = rank_bm25(make_query(["a"]), idx, params, depth=1)
        expected = brute_bm25_score(["a"], ["a", "a"], idx, 1.2, 0.75)
        assert ranked.entries[0][1] == pytest.approx(expected, abs=1e-12)

    def test_against_oracle_on_random_corpora(self, rng):
        for _ in range(10):
            lists = random_token_lists(rng, 15, 8)
            coll = make_collection(lists)
            idx = build_index(coll)
            qtokens = [f"t{int(i)}" for i in rng.integers(0, 8, size=3)]
            params = RetrievalParams(k1=float(rng.uniform(1.2, 2.0)), b=0.75)
            ranked = rank_bm25(make_query(qtokens), idx, params, depth=len(coll))
            for pid, score in ranked.entries:
                expected = brute_bm25_score(qtokens, coll[pid].tokens, idx, params.k1, params.b)
                assert score == pytest.approx(expected, abs=1e-9)

    def test_empty_query_rejected(self, tiny_index):
        _, idx = tiny_index
        with pytest.raises(ValueError):
            rank_bm25(make_query([]), idx, RetrievalParams(), depth=1)

    def test_all_empty_passages_score_zero_without_warnings(self):
        idx = build_index(make_collection([[], [], []]))
        assert idx.avg_doc_len == 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ranked = rank_bm25(make_query(["a"]), idx, RetrievalParams(), depth=3)
        assert ranked.entries == (("p000", 0.0), ("p001", 0.0), ("p002", 0.0))


class TestRankRocchio:
    def test_all_zero_vector_ranks_by_tie_break(self):
        coll = make_collection([["b"], ["a"], ["c"]])
        idx = build_index(coll)
        for qvec in ({"a": 0.0}, {}):  # an empty vector scores every passage 0 too
            ranked = rank_rocchio(qvec, idx, depth=3)
            assert ranked.ids() == ("p000", "p001", "p002")
            assert all(score == 0.0 for _, score in ranked.entries)

    def test_orthogonal_vocabulary_scores_zero(self):
        coll = make_collection([["x", "y"]])
        idx = build_index(coll)
        ranked = rank_rocchio({"z": 2.0}, idx, depth=1)
        assert ranked.entries[0][1] == 0.0

    def test_inner_product_matches_brute_force(self, rng):
        lists = [["a", "a", "b"], ["b", "c"], ["a", "c", "c"]]
        coll = make_collection(lists)
        idx = build_index(coll)
        qvec = {"a": 0.5, "c": 1.5}
        ranked = rank_rocchio(qvec, idx, depth=3)
        for pid, score in ranked.entries:
            doc_vec = tfidf_vector(coll[pid], idx)
            expected = sum(qvec.get(t, 0.0) * w for t, w in doc_vec.items())
            assert score == pytest.approx(expected, abs=1e-12)


class TestDeterminismAndExclusion:
    def test_permutation_stability(self, rng):
        lists = random_token_lists(rng, 20, 6)
        coll = make_collection(lists)
        idx = build_index(coll)
        model = {"t0": 0.6, "t1": 0.4}
        a = rank_ql(model, idx, RetrievalParams(), depth=20)
        b = rank_ql(model, idx, RetrievalParams(), depth=20)
        assert a.entries == b.entries

    def test_ties_break_by_ascending_passage_id(self):
        coll = make_collection([["z"], ["z"], ["z"]])
        idx = build_index(coll)
        ranked = rank_ql({"z": 1.0}, idx, RetrievalParams(), depth=3)
        assert ranked.ids() == ("p000", "p001", "p002")

    def test_excluded_never_appear(self, rng):
        for _ in range(20):
            lists = random_token_lists(rng, 25, 6)
            coll = make_collection(lists)
            idx = build_index(coll)
            ids = list(coll.ids)
            excluded = {ids[int(i)] for i in rng.choice(len(ids), size=7, replace=False)}
            ranked = rank_ql({"t0": 1.0}, idx, RetrievalParams(), depth=25, exclude=excluded)
            assert not excluded & set(ranked.ids())
            assert len(ranked) == 25 - len(excluded)

    def test_nan_scores_rank_last(self):
        idx = build_index(make_collection([["t"]] * 5))
        scores = np.array([np.nan, 1.0, np.nan, 0.5, 2.0])
        for depth in (1, 2, 3, 5):
            ranked = _take_top(idx, scores, frozenset(), depth, "q")
            assert ranked.ids() == ("p004", "p001", "p003", "p000", "p002")[:depth]


@st.composite
def take_top_cases(draw):
    n = draw(st.integers(1, 40))
    # three or four distinct values, so ties are heavy; +-0.0 tie with each other
    values = draw(st.sampled_from([(2.5, 0.0, -0.0, -1.0), (1.0, 0.0, -0.0, -math.inf), (0.5, -0.0, 0.25)]))
    scores = np.array(draw(st.lists(st.sampled_from(values), min_size=n, max_size=n)))
    order = draw(st.permutations(range(n)))
    ids = [f"d{k:02d}" for k in order]
    exclude = frozenset(draw(st.sets(st.sampled_from(ids + ["x1", "x2"]))))
    depth = draw(st.integers(1, n + 3))
    return shuffled_collection([["t"]] * n, order), scores, exclude, depth


# Small vocabulary and short passages: many passages share a score.
ranking_cases = st.tuples(
    st.lists(st.lists(st.sampled_from("abcde"), max_size=6), min_size=1, max_size=30),
    st.lists(st.sampled_from("abcdef"), min_size=1, max_size=4),
    st.randoms(use_true_random=False),
)


class TestRankingProperties:
    @settings(max_examples=300, deadline=None)
    @given(take_top_cases())
    def test_take_top_equals_reference_sort(self, case):
        coll, scores, exclude, depth = case
        idx = build_index(coll)
        got = _take_top(idx, scores, exclude, depth, "q")
        ref = sorted(((pid, s) for pid, s in zip(idx.ids, scores.tolist()) if pid not in exclude),
                     key=lambda e: (-e[1], e[0]))[:depth]
        # repr tells 0.0 from -0.0: each entry carries its own passage's score
        assert [(pid, repr(s)) for pid, s in got.entries] == [(pid, repr(s)) for pid, s in ref]

    @settings(max_examples=150, deadline=None)
    @given(ranking_cases)
    def test_rankers_are_sorted_unique_and_respect_excludes(self, case):
        lists, qtokens, rnd = case
        order = list(range(len(lists)))
        rnd.shuffle(order)
        coll = shuffled_collection(lists, order)
        idx = build_index(coll)
        ids = list(idx.ids)
        exclude = frozenset(rnd.sample(ids, rnd.randint(0, len(ids))) + ["x1"])
        depth = rnd.randint(1, len(ids) + 2)
        query = make_query(qtokens)
        params = RetrievalParams(mu=rnd.choice(MU_GRID), k1=rnd.choice(K1_GRID))
        qmodel = {t: w / len(qtokens) for t, w in {t: qtokens.count(t) for t in qtokens}.items()}
        qvec = {t: rnd.uniform(0.1, 2.0) for t in qtokens}
        for ranked in (rank_ql(qmodel, idx, params, depth, exclude),
                       rank_bm25(query, idx, params, depth, exclude),
                       rank_rocchio(qvec, idx, depth, exclude)):
            got = ranked.ids()
            assert len(set(got)) == len(got)
            assert not set(got) & exclude
            assert len(got) == min(depth, len(ids) - len(exclude & set(ids)))
            for (pid_a, a), (pid_b, b) in zip(ranked.entries, ranked.entries[1:]):
                assert a > b or (a == b and pid_a < pid_b)


def reference_rank_ql(query_model, index, params, depth, exclude=frozenset(), query_id="q"):
    """Oracle: rank_ql taking every term's logs afresh on each call."""
    mu = params.mu
    scores = np.zeros(index.passage_count, dtype=np.float64)
    kept_weight = 0.0
    const = 0.0
    for term, weight in query_model.items():
        p_c = collection_prob(index, term)
        if p_c == 0.0:
            continue
        kept_weight += weight
        log_smooth = np.log(mu * p_c)
        const += weight * log_smooth
        positions, tfs = index.postings[term]
        scores[positions] += weight * (np.log(tfs + mu * p_c) - log_smooth)
    scores += const - kept_weight * np.log(index.doc_len + mu)
    return _take_top(index, scores, exclude, depth, query_id)


@st.composite
def cached_ql_cases(draw):
    """A collection, two or three mus and query models over seen and unseen
    terms ("f", "g" never occur), each scored at every mu on one index."""
    lists = draw(st.lists(st.lists(st.sampled_from("abcde"), max_size=6), min_size=1, max_size=30))
    order = draw(st.permutations(range(len(lists))))
    mus = draw(st.lists(st.sampled_from(MU_GRID) | st.floats(0.1, 5000.0), min_size=2, max_size=3, unique=True))
    weights = st.dictionaries(st.sampled_from("abcdefg"), st.floats(0.01, 1.0), min_size=1, max_size=5)
    models = [{t: w / sum(m.values()) for t, w in m.items()} for m in draw(st.lists(weights, min_size=1, max_size=4))]
    ids = [f"d{k:02d}" for k in order]
    calls = [(draw(st.sets(st.sampled_from(ids + ["x1"]))), draw(st.integers(1, len(lists) + 3)))
             for _ in models]
    return shuffled_collection(lists, order), mus, models, calls


class TestCachedQL:
    @settings(max_examples=200, deadline=None)
    @given(cached_ql_cases())
    def test_rank_ql_equals_per_call_logs(self, case):
        coll, mus, models, calls = case
        idx = build_index(coll)
        # twice over, so the second round reads every (term, mu) from the cache
        for _ in range(2):
            for model, (exclude, depth) in zip(models, calls):
                for mu in mus:
                    params = RetrievalParams(mu=mu)
                    with mock.patch.object(retrieval.logger, "warning") as warn:
                        got = rank_ql(model, idx, params, depth, exclude)
                    ref = reference_rank_ql(model, idx, params, depth, exclude)
                    assert [(pid, repr(s)) for pid, s in got.entries] == [(pid, repr(s)) for pid, s in ref.entries]
                    # every call warns once per unseen term
                    assert warn.call_count == sum(t not in idx for t in model)
        for model in models:
            for term in model:
                for mu in mus:
                    log_len, weights = retrieval.ql_weights(idx, mu)
                    with pytest.raises(ValueError):
                        log_len[0] = 0.0
                    if term not in idx:
                        assert term not in weights
                        continue
                    _, positions, ratio = weights[term]
                    with pytest.raises(ValueError):
                        ratio[0] = 0.0
                    with pytest.raises(ValueError):
                        positions[0] = 0


def reference_take_top(index, scores, exclude, depth, query_id):
    """Oracle: _take_top as it was before lists kept index positions; it
    builds the (passage_id, score) tuple of the answer at once."""
    id_to_pos = index.id_to_pos
    excluded = {id_to_pos[pid] for pid in exclude if pid in id_to_pos}
    n = index.passage_count
    k = depth + len(excluded)
    cand = None
    if k < n:
        cut = -np.partition(-scores, k - 1)[k - 1]
        if np.isfinite(cut):
            above = np.flatnonzero(scores > cut)
            tied = np.flatnonzero(scores == cut)
            need = k - len(above)
            if len(tied) > need:
                tied = tied[np.argpartition(index.tie_rank[tied], need - 1)[:need]]
            cand = np.concatenate((above, tied))
    if cand is None:
        cand = np.arange(n)
    order = np.lexsort((index.tie_rank[cand], -scores[cand]))
    top = cand[order[:k]].tolist()
    if excluded:
        top = [i for i in top if i not in excluded][:depth]
    ids = index.ids
    return RankedList(query_id=query_id, entries=tuple(zip([ids[i] for i in top], scores[top].tolist())))


class TestPositionLists:
    """Rankers hold index positions and scores; entries are built on read."""

    @settings(max_examples=200, deadline=None)
    @given(ranking_cases)
    def test_rankers_equal_reference_tuples(self, case):
        lists, qtokens, rnd = case
        order = list(range(len(lists)))
        rnd.shuffle(order)
        coll = shuffled_collection(lists, order)
        idx = build_index(coll)
        ids = list(idx.ids)
        exclude = frozenset(rnd.sample(ids, rnd.randint(0, len(ids))) + ["x1"])
        depth = rnd.randint(1, len(ids) + 2)
        params = RetrievalParams(mu=rnd.choice(MU_GRID), k1=rnd.choice(K1_GRID))
        qmodel = {t: qtokens.count(t) / len(qtokens) for t in qtokens}
        qvec = {t: rnd.uniform(0.1, 2.0) for t in qtokens}
        for call in (lambda: rank_ql(qmodel, idx, params, depth, exclude, query_id="q7"),
                     lambda: rank_bm25(make_query(qtokens, "q7"), idx, params, depth, exclude),
                     lambda: rank_rocchio(qvec, idx, depth, exclude, query_id="q7")):
            with mock.patch.object(retrieval, "_take_top", wraps=retrieval._take_top) as take_top:
                got = call()
            (args, _), = take_top.call_args_list
            ref = reference_take_top(*args)
            assert got.positions.dtype == np.int64 and got.scores.dtype == np.float64
            assert got.index_ids is idx.ids
            # head() before ids() and entries, which cache the ids it reads next
            for n in (0, 1, 3, len(got) + 1):
                assert got.head(n) == ref.ids()[:n]
            assert repr(got.entries) == repr(ref.entries)
            assert got.ids() == ref.ids()

    def test_arrays_and_attributes_are_read_only(self):
        coll = make_collection([["a", "b"], ["b"], ["a", "a"]])
        idx = build_index(coll)
        ranked = rank_ql({"a": 0.5, "b": 0.5}, idx, RetrievalParams(mu=10.0), 3, exclude={"p001"})
        assert len(ranked) == 2
        for array in (ranked.positions, ranked.scores):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1
        for name in ("positions", "scores", "query_id", "entries"):
            with pytest.raises(AttributeError):
                setattr(ranked, name, None)
        # entries and ids() are built on each read and not kept
        for _ in range(2):
            assert ranked.entries == tuple(zip(ranked.ids(), ranked.scores.tolist()))
        assert RankedList.__slots__ == ("query_id", "positions", "scores", "index_ids")

    def test_constructors_agree_by_entries(self):
        coll = make_collection([["a", "b"], ["b"], ["a", "a"], ["c"]])
        idx = build_index(coll)
        ranked = rank_bm25(make_query(["a", "b"]), idx, RetrievalParams(), 4)
        built = RankedList(query_id="q0", entries=ranked.entries)
        fresh = rank_bm25(make_query(["a", "b"]), idx, RetrievalParams(), 4)
        assert ranking_of(ranked) == ranking_of(built) == ranking_of(fresh)
        assert built.ids() == ranked.ids()
        # lists hold no value semantics: they compare and hash by identity
        assert ranked != fresh and hash(ranked) != hash(fresh)
        for name in ("__iter__", "__eq__", "__hash__", "__repr__"):
            assert name not in vars(RankedList), name
        # an entries-built list ranks positions 0 .. n-1 of its own ids
        assert built.index_ids == ranked.ids() and built.index_ids is not idx.ids
        assert built.positions.dtype == np.int64 and built.scores.dtype == np.float64
        assert built.positions.tolist() == list(range(len(built)))
        assert not built.positions.flags.writeable and not built.scores.flags.writeable
        assert built.head(2) == ranked.head(2) and len(built) == len(ranked)
        moved = RankedList.at_positions("q0.d3", ranked.index_ids, ranked.positions, ranked.scores)
        assert ranking_of(moved) == ("q0.d3", ranked.entries)
        assert moved.positions is ranked.positions and moved.index_ids is idx.ids
        # a pickle would carry the whole ids tuple: a list is not rebuilt elsewhere
        for original in (ranked, built):
            for rebuild in (lambda: pickle.loads(pickle.dumps(original)), lambda: copy.copy(original)):
                with pytest.raises(AttributeError, match="read-only"):
                    rebuild()


@st.composite
def depth_one_cases(draw):
    """Scores from a few values, so ties are heavy, including +-0.0 (equal
    but told apart by repr), +-inf and NaN; excluded ids in and out of the
    index."""
    n = draw(st.integers(1, 40))
    values = draw(st.sampled_from([
        (1.0, 0.0, -0.0), (0.0, -0.0, -math.inf), (2.5, -1.0, math.nan), (-math.inf, math.nan),
        (math.inf, 1.0, 0.0), (-math.inf,), (3.0,), (0.5, -0.25, 0.125, -2.0)]))
    scores = np.array(draw(st.lists(st.sampled_from(values), min_size=n, max_size=n)), dtype=np.float64)
    order = draw(st.permutations(range(n)))
    ids = [f"d{k:02d}" for k in order]
    exclude = frozenset(draw(st.sets(st.sampled_from(ids + ["x1", "x2"]))))
    return shuffled_collection([["t"]] * n, order), scores, exclude


class TestScoreFunctions:
    @settings(max_examples=400, deadline=None)
    @given(depth_one_cases())
    def test_depth_one_equals_reference_take_top(self, case):
        coll, scores, exclude = case
        idx = build_index(coll)
        scores.setflags(write=False)
        got = _take_top(idx, scores, exclude, 1, "q3")
        ref = reference_take_top(idx, scores, exclude, 1, "q3")
        assert got.positions.dtype == np.int64 and got.scores.dtype == np.float64
        assert repr(got.entries) == repr(ref.entries)
        assert got.head(1) == ref.ids()

    @settings(max_examples=100, deadline=None)
    @given(ranking_cases)
    def test_rankers_are_their_score_function_plus_take_top(self, case):
        lists, qtokens, rnd = case
        idx = build_index(make_collection(lists))
        ids = list(idx.ids)
        exclude = frozenset(rnd.sample(ids, rnd.randint(0, len(ids))))
        depth = rnd.randint(1, len(ids) + 2)
        params = RetrievalParams(mu=rnd.choice(MU_GRID), k1=rnd.choice(K1_GRID))
        qmodel = {t: qtokens.count(t) / len(qtokens) for t in qtokens}
        qvec = {t: rnd.uniform(0.1, 2.0) for t in qtokens}
        query = make_query(qtokens, "q5")
        for ranked, scores in ((rank_ql(qmodel, idx, params, depth, exclude, query_id="q5"),
                                ql_scores(qmodel, idx, params)),
                               (rank_bm25(query, idx, params, depth, exclude), bm25_scores(query, idx, params)),
                               (rank_rocchio(qvec, idx, depth, exclude, query_id="q5"), rocchio_scores(qvec, idx))):
            assert scores.dtype == np.float64 and scores.shape == (idx.passage_count,)
            assert not scores.flags.writeable
            assert repr(ranked.entries) == repr(_take_top(idx, scores, exclude, depth, "q5").entries)


def read_run_oracle(path):
    """read_run as first released: every (rank, id, score) row kept, then a
    sorted (id, score) copy per query."""
    raw = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            fields = line.split()
            if len(fields) != 6:
                raise ValueError(f"{path}: line {lineno}: expected 6 fields, got {len(fields)}")
            qid, _, pid, rank_str, score_str, _ = fields
            raw.setdefault(qid, []).append((int(rank_str), pid, float(score_str)))
    out = {}
    for qid, rows in raw.items():
        rows.sort(key=lambda r: r[0])
        out[qid] = [(pid, score) for _, pid, score in rows]
    return out


# a run's rows: (query, passage, rank, score), ids shared across queries,
# ranks repeated and out of order
RUN_ROWS = st.lists(
    st.tuples(st.sampled_from(["q1", "q2", "q10"]), st.sampled_from(["p1", "p2", "p3", "d-7"]),
              st.integers(-3, 2**40), st.floats(allow_nan=False)),
    max_size=40,
)
BLANK_LINES = st.sampled_from(["", " ", "\t \t", "\u3000", "\x0b\x0c"])


class TestRunFiles:
    @settings(max_examples=80, deadline=None)
    @given(rows=RUN_ROWS, blanks=st.lists(st.tuples(st.integers(0, 40), BLANK_LINES), max_size=5))
    def test_read_run_equals_the_oracle(self, tmp_path_factory, rows, blanks):
        lines = [f"{q} Q0 {p} {rank} {score!r} tag" for q, p, rank, score in rows]
        for at, blank in blanks:
            lines.insert(at, blank)
        path = tmp_path_factory.mktemp("run") / "run.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        got, expected = read_run(path), read_run_oracle(path)
        assert got == expected
        assert list(got) == list(expected)  # queries in file order

    def test_one_string_per_passage_id(self, tmp_path):
        path = tmp_path / "run.txt"
        path.write_text("q1 Q0 p7 2 0.5 t\nq1 Q0 p7 1 0.9 t\nq2 Q0 p7 1 0.2 t\n")
        run = read_run(path)
        assert run == {"q1": [("p7", 0.9), ("p7", 0.5)], "q2": [("p7", 0.2)]}
        assert run["q1"][0][0] is run["q1"][1][0] is run["q2"][0][0]

    def test_ids_read_beside_a_collection_are_its_strings(self, tmp_path):
        corpus = tmp_path / "c.jsonl"
        corpus.write_text("".join(json.dumps({"id": f"x{i}-{i * 7}", "doc_id": "d", "text": "w"}) + "\n"
                                  for i in range(5)), encoding="utf-8")
        coll = ingest_corpus(corpus, TokenizerConfig())
        path = tmp_path / "run.txt"
        write_ranked_ids(path, [("q1", coll.ids[::-1]), ("q2", coll.ids[1:3])])
        run = read_run(path)
        assert all(pid is coll.ids[coll.id_to_pos[pid]] for rows in run.values() for pid, _ in rows)
        assert [pid for pid, _ in run["q2"]] == list(coll.ids[1:3])

    def test_read_run_peaks_under_a_quarter_above_its_result(self, tmp_path):
        path = tmp_path / "run.txt"
        with open(path, "w") as fh:
            for q in range(50):
                for rank in range(1, 1001):
                    fh.write(f"q{q} Q0 p{(q * 37 + rank * 11) % 2000:04d} {rank} {1.0 / rank:.6f} tag\n")
        tracemalloc.start()
        try:
            run = read_run(path)
            result, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(map(len, run.values())) == 50_000
        assert peak < 1.25 * result

    @pytest.mark.parametrize("line, match", [
        ("q1 Q0 p1 first 0.5 t", "line 2: rank 'first' is not a 64-bit integer"),
        ("q1 Q0 p1 1.0 0.5 t", "line 2: rank '1.0' is not a 64-bit integer"),
        ("q1 Q0 p1 99999999999999999999 0.5 t", "line 2: rank '99999999999999999999' is not a 64-bit"),
        ("q1 Q0 p1 1 high t", "line 2: score 'high' is not a number"),
    ])
    def test_bad_rank_or_score_names_the_line(self, tmp_path, line, match):
        path = tmp_path / "run.txt"
        path.write_text("q1 Q0 p2 2 0.4 t\n" + line + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: {match}")):
            read_run(path)

    def test_round_trip(self, tmp_path):
        lists = [
            RankedList(query_id="q1", entries=(("p2", 1.5), ("p1", 0.5))),
            RankedList(query_id="q2", entries=(("p1", 2.0),)),
        ]
        path = tmp_path / "run.txt"
        write_run(path, lists, tag="tagx")
        text = path.read_text().splitlines()
        assert text[0].split() == ["q1", "Q0", "p2", "1", "1.500000", "tagx"]
        run = read_run(path)
        assert [pid for pid, _ in run["q1"]] == ["p2", "p1"]
        assert run["q2"][0][1] == pytest.approx(2.0)

    def test_ranked_ids_written_as_the_entries_list_of_descending_scores(self, tmp_path):
        rankings = [("q2", ("p9", "p1", "p5")), ("q1", ("p3",)), ("q3", ())]
        by_ids, by_entries = tmp_path / "ids.txt", tmp_path / "entries.txt"
        write_ranked_ids(by_ids, rankings, tag="t")
        write_run(by_entries, [RankedList(query_id=qid, entries=tuple(
            (pid, float(len(ids) - i)) for i, pid in enumerate(ids))) for qid, ids in rankings], tag="t")
        assert by_ids.read_bytes() == by_entries.read_bytes()
        assert by_ids.read_text().splitlines()[0] == "q2 Q0 p9 1 3.000000 t"

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "run.txt"
        path.write_text("q1 Q0 p1 1 0.5\n")
        with pytest.raises(ValueError, match="6 fields"):
            read_run(path)
