"""Cached per-passage and per-pool evidence against the uncached originals.

The estimators and fused_rank read term counts and tf-idf rows kept by the
index, and ERM translation likelihoods and pool centroids kept in a
caller's cache. The oracles below, and conftest's ``oracle_fused_rank``,
are the functions as they were before any of that was cached: every
quantity recomputed on every call. With the
caches warm (several pools sharing passages, several mu values, several
ErmParams) each result must be the oracle's, float for float and in the
same order.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from irflab.embeddings import EmbeddingModel
from irflab.feedback import (
    ErmParams,
    FeedbackParams,
    FeedbackState,
    _interpolate,
    _log_query_likelihood,
    _pool_weighted_model,
    _translation_tables,
    _truncate_top_m,
    estimate_distillation,
    estimate_erm,
    estimate_rm3,
    query_mle,
    rocchio_update,
    update_pools,
)
from irflab.fusion import FusionConfig, fused_rank
from irflab.index import build_index, collection_prob, query_tfidf, tfidf_vector
from irflab.retrieval import RetrievalParams, rank_ql

from conftest import make_query, oracle_fused_rank, shuffled_collection
from test_feedback import reference_mixture_em


# --- oracles: the uncached functions -----------------------------------------

def oracle_counts(index, passage):
    term_ids, tfs = index.row(passage)
    return {index.terms[t]: tf for t, tf in zip(term_ids.tolist(), tfs.tolist())}


def oracle_rm3(query, rel_pool, index, params, mu):
    pool = [(oracle_counts(index, p), len(p.tokens)) for p in rel_pool]
    logps = np.array([_log_query_likelihood(query, counts, dlen, index, mu) for counts, dlen in pool])
    weights = np.exp(logps - logps.max())
    weights /= weights.sum()
    relevance_model = _truncate_top_m(_pool_weighted_model(pool, weights), params.m)
    return _interpolate(query_mle(query), relevance_model, params.alpha_interp)


def oracle_distillation(query, rel_pool, nr_pool, index, params):
    lambda_nr = params.lambda_nr
    if lambda_nr > 0.0 and not nr_pool:
        lambda_nr = 0.0
    counts = {}
    for passage in rel_pool:
        for term, tf in oracle_counts(index, passage).items():
            counts[term] = counts.get(term, 0) + tf
    theta_nr = {}
    if lambda_nr > 0.0:
        nr_counts = {}
        for passage in nr_pool:
            for term, tf in oracle_counts(index, passage).items():
                nr_counts[term] = nr_counts.get(term, 0) + tf
        total = sum(nr_counts.values())
        if total > 0:
            theta_nr = {t: c / total for t, c in nr_counts.items()}
        else:
            lambda_nr = 0.0
    p_corpus = {t: collection_prob(index, t) for t in counts}
    theta = reference_mixture_em(counts, p_corpus, theta_nr, params.lambda_mix, lambda_nr,
                                 params.em_max_iters, params.em_tol)
    return _interpolate(query_mle(query), _truncate_top_m(theta, params.m), params.alpha_interp)


def oracle_rocchio(query_vec, rel_pool, nr_pool, index, params):
    updated = {t: params.rocchio_alpha * w for t, w in query_vec.items()}
    if rel_pool and params.rocchio_beta > 0.0:
        scale = params.rocchio_beta / len(rel_pool)
        for passage in rel_pool:
            for term, w in tfidf_vector(passage, index).items():
                updated[term] = updated.get(term, 0.0) + scale * w
    if nr_pool and params.rocchio_gamma > 0.0:
        scale = params.rocchio_gamma / len(nr_pool)
        for passage in nr_pool:
            for term, w in tfidf_vector(passage, index).items():
                updated[term] = updated.get(term, 0.0) - scale * w
    clipped = {t: max(0.0, w) for t, w in updated.items()}
    new_terms = sorted(((t, w) for t, w in clipped.items() if t not in query_vec and w > 0.0),
                       key=lambda kv: (-kv[1], kv[0]))[: params.m]
    out = {t: clipped[t] for t in query_vec}
    out.update(dict(new_terms))
    return out


def oracle_erm(query, rel_pool, index, embeddings, params, erm, mu):
    in_vocab = [t for t in query.tokens if t in embeddings.vocab]
    tables = _translation_tables(sorted(set(in_vocab)), embeddings, erm)
    pool = [(oracle_counts(index, p), len(p.tokens)) for p in rel_pool]
    weights = np.zeros(len(rel_pool))
    for i, (counts, dlen) in enumerate(pool):
        p_exact = float(np.exp(_log_query_likelihood(query, counts, dlen, index, mu)))
        p_trans = 1.0
        for tok in in_vocab:
            table = tables[tok]
            p_trans *= sum(tw * counts.get(w, 0) / dlen for w, tw in table.items()) if dlen else 0.0
        weights[i] = erm.lambda_erm * p_exact + (1.0 - erm.lambda_erm) * p_trans
    total = weights.sum()
    weights = np.full(len(rel_pool), 1.0 / len(rel_pool)) if total <= 0.0 else weights / total
    relevance_model = _truncate_top_m(_pool_weighted_model(pool, weights), params.m)
    return _interpolate(query_mle(query), relevance_model, params.alpha_interp)


def exact(model):
    """A model's items with each weight's repr: equal means the same floats
    in the same order."""
    return [(t, repr(w)) for t, w in model.items()]


# --- cases ---------------------------------------------------------------------

VOCAB = "abcdefg"        # collection terms; the embedding vocabulary is "abcde"
QUERY_TERMS = "abcdfxy"  # f is out of the embedding vocabulary, x and y unseen


@st.composite
def collections(draw, min_size=3, max_size=16):
    lists = draw(st.lists(st.lists(st.sampled_from(VOCAB), min_size=1, max_size=8),
                          min_size=min_size, max_size=max_size))
    order = draw(st.permutations(range(len(lists))))
    return shuffled_collection(lists, order)


@st.composite
def evidence_cases(draw):
    """A collection, a query and a sequence of (relevant pool, non-relevant
    pool, mu) calls. The pools grow as a session's do, so later calls
    reach the same passages again, at several mu values; the first call has
    an empty non-relevant pool."""
    coll = draw(collections())
    ids = list(coll.ids)
    order = draw(st.permutations(ids))
    query = make_query(draw(st.lists(st.sampled_from(QUERY_TERMS), min_size=1, max_size=4)))
    calls = []
    for step in range(draw(st.integers(2, 5))):
        shown = draw(st.integers(1, len(ids)))
        judged = order[:shown]
        cut = draw(st.integers(1, shown))
        rel, nonrel = judged[:cut], judged[cut:] if step else []
        calls.append(([coll[p] for p in rel], [coll[p] for p in nonrel],
                      draw(st.sampled_from([10.0, 300.0, 1000.0]))))
    params = FeedbackParams(m=draw(st.integers(1, 6)), alpha_interp=draw(st.sampled_from([0.0, 0.5, 0.9])),
                            lambda_nr=draw(st.sampled_from([0.0, 0.1, 0.3])), em_max_iters=30)
    seed = draw(st.integers(0, 2**32 - 1))
    return coll, query, calls, params, seed


def word_model(rng):
    vectors = rng.integers(-2, 3, size=(5, 3)).astype(float)
    return EmbeddingModel(vocab={t: i for i, t in enumerate("abcde")}, word_vectors=vectors,
                          context_vectors=np.zeros_like(vectors), dim=3)


class TestEstimatorsWithWarmCaches:

    @settings(max_examples=200, deadline=None)
    @given(evidence_cases())
    def test_every_estimator_equals_its_uncached_oracle(self, case):
        coll, query, calls, params, seed = case
        idx = build_index(coll)
        embeddings = word_model(np.random.default_rng(seed))
        erms = (ErmParams(lambda_erm=0.5, neighbors=3), ErmParams(lambda_erm=0.0, neighbors=5))
        queries = (query, make_query(query.tokens + ("f",)))  # the second always has an OOV term
        caches = {q.tokens: {} for q in queries}
        for _ in range(2):  # the second round runs on warm caches only
            for rel, nonrel, mu in calls:
                for q in queries:
                    cache = caches[q.tokens]
                    assert exact(estimate_rm3(q, rel, idx, params, mu=mu)) == exact(
                        oracle_rm3(q, rel, idx, params, mu))
                    for erm in erms:
                        assert exact(estimate_erm(q, rel, idx, embeddings, params, erm, mu=mu, cache=cache)) == \
                            exact(oracle_erm(q, rel, idx, embeddings, params, erm, mu))
                    assert exact(estimate_distillation(q, rel, nonrel, idx, params)) == exact(
                        oracle_distillation(q, rel, nonrel, idx, params))
                qvec = query_tfidf(query, idx) or {"a": 1.0}
                assert exact(rocchio_update(qvec, rel, nonrel, idx, params)) == exact(
                    oracle_rocchio(qvec, rel, nonrel, idx, params))
        for passage in coll:
            counts = idx.term_counts(passage)
            assert counts is idx.term_counts(passage) and counts == oracle_counts(idx, passage)
            assert idx.tfidf_row(passage) == tfidf_vector(passage, idx)


@st.composite
def fusion_cases(draw):
    """A collection, a QL ranking over it, and a growing sequence of
    relevant pools; passage vectors are small integers, so zero rows occur."""
    coll = draw(collections(min_size=4, max_size=24))
    ids = list(coll.ids)
    order = draw(st.permutations(ids))
    query = make_query(draw(st.lists(st.sampled_from("abcd"), min_size=1, max_size=3)))
    depth = draw(st.integers(1, len(ids)))
    sizes = sorted(draw(st.lists(st.integers(1, len(ids)), min_size=1, max_size=4)))
    mode = draw(st.sampled_from(["pv", "pvc", "avg_w2v", "idf_w2v"]))
    lam = draw(st.sampled_from([0.0, 1.0, 10.0]))
    return coll, query, depth, [order[:k] for k in sizes], mode, lam, draw(st.integers(0, 2**32 - 1))


class TestFusionWithWarmCache:

    @settings(max_examples=200, deadline=None)
    @given(fusion_cases())
    def test_fused_rank_equals_its_uncached_oracle(self, case):
        coll, query, depth, pools, mode, lam, seed = case
        rng = np.random.default_rng(seed)
        idx = build_index(coll)
        vectors = rng.integers(-1, 2, size=(len(coll), 3)).astype(float)
        words = word_model(rng)
        cfg = FusionConfig(lambda_sf=lam, representation_mode=mode)
        for zero_row in (False, True):
            base = rank_ql(query_mle(query), idx, RetrievalParams(mu=50.0), depth, frozenset())
            if zero_row:  # a candidate with a zero vector takes the masked product
                vectors = vectors.copy()
                vectors[base.positions[0]] = 0.0
            model = EmbeddingModel(vocab=words.vocab, word_vectors=words.word_vectors,
                                   context_vectors=words.context_vectors, dim=3,
                                   passage_vectors=vectors, passage_ids=idx.ids)
            cache = {}
            for _ in range(2):
                for pool in pools:
                    state = update_pools(FeedbackState(), [(pid, True) for pid in pool])
                    got = fused_rank(base, state, model, cfg, coll, idx, cache=cache)
                    want = oracle_fused_rank(base, state, model, cfg, coll, idx)
                    assert [(p, repr(s)) for p, s in got.entries] == [(p, repr(s)) for p, s in want.entries]
                    assert got.positions.tobytes() == want.positions.tobytes()
