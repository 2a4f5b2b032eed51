"""Semantic centroid scoring and score fusion."""

import logging

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from irflab.corpus import PassageCollection
from irflab.embeddings import EmbeddingModel, UnrepresentablePassage, cosine, passage_vector
from irflab.feedback import FeedbackState, query_mle, update_pools
from irflab.fusion import FusionConfig, fused_rank
from irflab.index import build_index
from irflab.retrieval import RankedList, RetrievalParams, rank_bm25, rank_ql

from conftest import (make_collection, make_query, oracle_fused_rank, random_token_lists, ranked_over,
                      shuffled_collection, vector_or_zero)

logger = logging.getLogger(__name__)


def pool_centroid(rel_pool, model, mode, index):
    """Oracle: mean vector of the relevant pool, each vector computed on its
    own; unrepresentable members count as zero."""
    if not rel_pool:
        raise ValueError("relevant pool is empty")
    total = np.zeros(model.dim)
    for passage in rel_pool:
        total += vector_or_zero(passage, model, mode, index)
    return total / len(rel_pool)


def semantic_score(rel_pool, candidate, model, mode, index):
    """Oracle: cosine between the pool centroid and the candidate's
    representation; 0 when the candidate has no representable tokens."""
    centroid = pool_centroid(rel_pool, model, mode, index)
    try:
        vec = passage_vector(candidate, model, mode, index)
    except UnrepresentablePassage:
        logger.warning("candidate %r not representable; semantic score 0", candidate.passage_id)
        return 0.0
    return cosine(centroid, vec)


def model_with_passage_vectors(ids, vectors):
    vectors = np.asarray(vectors, dtype=np.float64)
    word_vectors = np.zeros((1, vectors.shape[1]))
    return EmbeddingModel(
        vocab={"stub": 0},
        word_vectors=word_vectors,
        context_vectors=word_vectors.copy(),
        dim=vectors.shape[1],
        passage_vectors=vectors,
        passage_ids=tuple(ids),
    )


def avg_model(term_vectors):
    terms = sorted(term_vectors)
    vectors = np.array([term_vectors[t] for t in terms], dtype=np.float64)
    return EmbeddingModel(
        vocab={t: i for i, t in enumerate(terms)},
        word_vectors=vectors,
        context_vectors=np.zeros_like(vectors),
        dim=vectors.shape[1],
    )


class TestSemanticScore:
    def test_singleton_pool_equals_pairwise_cosine(self):
        coll = make_collection([["a"], ["b"]])
        idx = build_index(coll)
        model = model_with_passage_vectors(coll.ids, [[1.0, 0.0], [1.0, 1.0]])
        score = semantic_score([coll["p000"]], coll["p001"], model, "pv", idx)
        assert score == pytest.approx(1 / np.sqrt(2), abs=1e-12)

    def test_duplicate_pool_vectors_do_not_change_score(self):
        coll = make_collection([["a"], ["a"], ["b"]])
        idx = build_index(coll)
        model = model_with_passage_vectors(coll.ids, [[1.0, 0.0], [1.0, 0.0], [0.5, 2.0]])
        one = semantic_score([coll["p000"]], coll["p002"], model, "pv", idx)
        two = semantic_score([coll["p000"], coll["p001"]], coll["p002"], model, "pv", idx)
        assert one == pytest.approx(two, abs=1e-12)

    def test_orthogonal_pool_centroid_hand_computation(self):
        coll = make_collection([["a"], ["b"], ["c"]])
        idx = build_index(coll)
        vec = [[1.0, 0.0], [0.0, 1.0], [1 / np.sqrt(2), 1 / np.sqrt(2)]]
        model = model_with_passage_vectors(coll.ids, vec)
        score = semantic_score([coll["p000"], coll["p001"]], coll["p002"], model, "pv", idx)
        assert score == pytest.approx(1.0, abs=1e-12)

    def test_unrepresentable_candidate_scores_zero_with_warning(self, caplog):
        coll = make_collection([["a", "a", "a", "a", "a"], ["zz"]])
        idx = build_index(coll)
        model = avg_model({"a": [1.0, 0.0]})
        with caplog.at_level("WARNING"):
            score = semantic_score([coll["p000"]], coll["p001"], model, "avg_w2v", idx)
        assert score == 0.0
        assert any("not representable" in r.message for r in caplog.records)

    def test_empty_pool_rejected(self):
        coll = make_collection([["a"]])
        idx = build_index(coll)
        model = avg_model({"a": [1.0, 0.0]})
        with pytest.raises(ValueError):
            pool_centroid([], model, "avg_w2v", idx)


class TestFusedRank:
    def _setup(self):
        coll = make_collection([["a"], ["b"], ["c"], ["d"]])
        idx = build_index(coll)
        vectors = [[1.0, 0.0], [0.9, 0.1], [0.0, 1.0], [0.5, 0.5]]
        model = model_with_passage_vectors(coll.ids, vectors)
        base = ranked_over(idx, (("p001", 3.0), ("p002", 2.0), ("p003", 1.0)))
        state = update_pools(FeedbackState(), [("p000", True)])
        return coll, idx, model, base, state

    def test_lambda_zero_is_identity_permutation(self):
        coll, idx, model, base, state = self._setup()
        out = fused_rank(base, state, model, FusionConfig(lambda_sf=0.0, representation_mode="pv"), coll, idx)
        assert out.ids() == base.ids()

    def test_huge_lambda_orders_by_semantic_score(self):
        coll, idx, model, base, state = self._setup()
        out = fused_rank(base, state, model, FusionConfig(lambda_sf=1e9, representation_mode="pv"), coll, idx)
        # semantic order vs pool {p000}: p001 (cos~.994) > p003 (.707) > p002 (0)
        assert out.ids() == ("p001", "p003", "p002")

    def test_empty_pool_returns_base_unchanged(self):
        coll, idx, model, base, _ = self._setup()
        out = fused_rank(base, FeedbackState(), model, FusionConfig(lambda_sf=5.0, representation_mode="pv"), coll, idx)
        assert out is base

    def test_output_is_same_passage_set(self, rng):
        coll, idx, model, base, state = self._setup()
        for lam in (0.0, 0.3, 2.0, 50.0):
            out = fused_rank(base, state, model, FusionConfig(lambda_sf=lam, representation_mode="pv"), coll, idx)
            assert sorted(out.ids()) == sorted(base.ids())

    def test_ties_break_by_passage_id_as_in_the_sorted_reference(self, rng):
        base_coll = make_collection(random_token_lists(rng, 30, 6))
        # index positions out of id order, so tie_rank is not the position
        coll = PassageCollection([base_coll[base_coll.ids[i]] for i in rng.permutation(30)])
        idx = build_index(coll)
        model = model_with_passage_vectors(coll.ids, rng.integers(0, 2, size=(30, 3)).astype(float))
        base = ranked_over(idx, tuple(
            (str(pid), float(rng.integers(0, 3))) for pid in rng.permutation(coll.ids)[:20]))
        state = update_pools(FeedbackState(), [(base.ids()[0], True)])
        for lam in (0.0, 1.0, 2.0):
            out = fused_rank(base, state, model, FusionConfig(lambda_sf=lam, representation_mode="pv"), coll, idx)
            fused = dict(out.entries)
            assert len(set(fused.values())) < len(fused)
            assert out.ids() == tuple(sorted(base.ids(), key=lambda pid: (-fused[pid], pid)))

    def test_scores_are_base_plus_lambda_times_similarity(self):
        coll, idx, model, base, state = self._setup()
        lam = 2.5
        out = fused_rank(base, state, model, FusionConfig(lambda_sf=lam, representation_mode="pv"), coll, idx)
        base_scores = dict(base.entries)
        for pid, fused_score in out.entries:
            sem = semantic_score([coll["p000"]], coll[pid], model, "pv", idx)
            assert fused_score == pytest.approx(base_scores[pid] + lam * sem, abs=1e-9)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            FusionConfig(lambda_sf=-1.0)

    def test_grids_match_protocol(self):
        from irflab.fusion import LAMBDA_SF_GRID_WIDE
        assert LAMBDA_SF_GRID_WIDE == (5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0)


class TestFusedRankModes:
    """fused_rank's gathered vectors against the per-passage semantic_score."""

    def _setup(self):
        coll = make_collection([["a", "b"], ["b", "c", "c"], ["zz"], ["a", "c"], ["c"]])
        idx = build_index(coll)
        model = EmbeddingModel(
            vocab={"a": 0, "b": 1, "c": 2},
            word_vectors=np.array([[1.0, 0.0, 0.5], [0.2, 1.0, 0.0], [0.0, 0.3, 1.0]]),
            context_vectors=np.zeros((3, 3)),
            dim=3,
            passage_vectors=np.array([[1.0, 0.0, 0.0], [0.6, 0.8, 0.0], [0.0, 0.0, 1.0],
                                      [0.5, 0.5, 0.5], [-1.0, 0.2, 0.0]]),
            passage_ids=coll.ids,
        )
        base = ranked_over(idx, (("p001", 2.0), ("p002", 1.5), ("p003", 1.5), ("p004", 0.5)))
        return coll, idx, model, base

    @pytest.mark.parametrize("mode", ["avg_w2v", "idf_w2v", "pv", "pvc"])
    def test_scores_are_base_plus_lambda_times_semantic_score(self, mode):
        coll, idx, model, base = self._setup()
        lam = 1.7
        base_scores = dict(base.entries)
        # p002 holds only "zz": no word vector, so avg_w2v/idf_w2v score it 0
        for pool in (["p000"], ["p000", "p002"]):
            state = update_pools(FeedbackState(), [(pid, True) for pid in pool])
            for _ in range(2):  # the second call reads the cached vectors
                out = fused_rank(base, state, model, FusionConfig(lambda_sf=lam, representation_mode=mode),
                                 coll, idx)
                assert sorted(out.ids()) == sorted(base.ids())
                for pid, fused_score in out.entries:
                    sem = semantic_score([coll[p] for p in pool], coll[pid], model, mode, idx)
                    if mode in ("avg_w2v", "idf_w2v") and pid == "p002":
                        assert sem == 0.0
                    assert fused_score == pytest.approx(base_scores[pid] + lam * sem, abs=1e-12)
                scores = [score for _, score in out.entries]
                assert scores == sorted(scores, reverse=True)

    def test_unrepresentable_passage_warns_once_per_matrix(self, caplog):
        coll, idx, model, base = self._setup()
        state = update_pools(FeedbackState(), [("p000", True)])
        short = ranked_over(idx, (("p001", 2.0), ("p003", 1.5)))  # without p002 among the candidates
        with caplog.at_level("WARNING"):
            for mode in ("avg_w2v", "idf_w2v"):
                for _ in range(2):
                    fused_rank(base, state, model, FusionConfig(representation_mode=mode), coll, idx)
                    fused_rank(short, state, model, FusionConfig(representation_mode=mode), coll, idx)
                assert [r.getMessage() for r in caplog.records] == [
                    f"passage 'p002' not representable in mode {mode}; using zero vector"]
                caplog.clear()
            # the matrix is built on first use, over every passage: here for a call that never ranks p002
            fresh = EmbeddingModel(vocab=model.vocab, word_vectors=model.word_vectors,
                                   context_vectors=model.context_vectors, dim=model.dim)
            fused_rank(short, state, fresh, FusionConfig(representation_mode="avg_w2v"), coll, idx)
            assert ["'p002'" in r.getMessage() for r in caplog.records] == [True]
            caplog.clear()
            for mode in ("pv", "pvc"):
                fused_rank(base, state, model, FusionConfig(representation_mode=mode), coll, idx)
        assert not caplog.records

    @pytest.mark.parametrize("mode", ["pv", "pvc", "avg_w2v", "idf_w2v"])
    def test_pool_passage_missing_from_index_is_named(self, mode):
        coll, idx, model, base = self._setup()
        state = update_pools(FeedbackState(), [("p000", True), ("zz", True)])
        for cache in (None, {}):
            with pytest.raises(ValueError, match="relevant-pool passage 'zz' is not in the index"):
                fused_rank(base, state, model, FusionConfig(representation_mode=mode), coll, idx, cache=cache)

    def test_passage_missing_from_model_raises(self):
        coll, idx, model, base = self._setup()
        partial = model_with_passage_vectors(coll.ids[:3], model.passage_vectors[:3])
        for pool, missing in ((["p000"], "p003"), (["p004"], "p004")):
            state = update_pools(FeedbackState(), [(pid, True) for pid in pool])
            with pytest.raises(ValueError, match=f"'{missing}' was not in the training corpus"):
                fused_rank(base, state, partial, FusionConfig(representation_mode="pvc"), coll, idx)


@st.composite
def fusion_cases(draw):
    """A collection with shuffled ids (some passages empty or holding only
    the unrepresentable "zz"), a ranker's list over its index with
    excludes, a relevant pool, a mode and a lambda; small integer vectors,
    so zero vectors and tied fused scores are common."""
    lists = draw(st.lists(st.lists(st.sampled_from("abcdez"), max_size=6), min_size=2, max_size=30))
    lists = [["zz" if t == "z" else t for t in tokens] for tokens in lists]
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(lists))
    coll = shuffled_collection(lists, order)
    ids = list(coll.ids)
    query = make_query(draw(st.lists(st.sampled_from("abcde"), min_size=1, max_size=4)))
    exclude = frozenset(draw(st.sets(st.sampled_from(ids))))
    depth = draw(st.integers(1, len(ids) + 2))
    pool = draw(st.lists(st.sampled_from(ids), min_size=1, max_size=4, unique=True))
    ranker = draw(st.sampled_from(["ql", "bm25"]))
    mode = draw(st.sampled_from(["pv", "pvc", "avg_w2v", "idf_w2v"]))
    lam = draw(st.sampled_from([0.0, 0.5, 1.0, 5.0, 40.0]))
    return coll, rng, query, exclude, depth, pool, ranker, mode, lam


class TestPositionLists:
    """fused_rank reads and returns index positions; entries only on read."""

    @settings(max_examples=300, deadline=None)
    @given(fusion_cases())
    def test_fused_rank_equals_reference_tuples(self, case):
        coll, rng, query, exclude, depth, pool, ranker, mode, lam = case
        idx = build_index(coll)
        model = EmbeddingModel(
            vocab={t: i for i, t in enumerate("abcde")},
            word_vectors=rng.integers(-1, 3, size=(5, 3)).astype(float),
            context_vectors=np.zeros((5, 3)),
            dim=3,
            passage_vectors=rng.integers(-1, 2, size=(len(coll), 3)).astype(float),
            passage_ids=tuple(rng.permutation(coll.ids)),
        )
        if ranker == "ql":
            base = rank_ql(query_mle(query), idx, RetrievalParams(mu=50.0), depth, exclude)
        else:
            base = rank_bm25(query, idx, RetrievalParams(), depth, exclude)
        state = update_pools(FeedbackState(), [(pid, True) for pid in pool])
        cfg = FusionConfig(lambda_sf=lam, representation_mode=mode)
        out = fused_rank(base, state, model, cfg, coll, idx)
        expected = oracle_fused_rank(base, state, model, cfg, coll, idx)
        assert [(pid, repr(s)) for pid, s in out.entries] == [(pid, repr(s)) for pid, s in expected.entries]
        assert out.positions.tobytes() == expected.positions.tobytes()
        assert out.query_id == base.query_id

    def test_list_not_ranked_over_this_index_raises(self):
        coll = make_collection([["a"], ["b"], ["c"]])
        idx = build_index(coll)
        other = build_index(make_collection([["a"], ["b"], ["c"]]))  # equal content, another collection
        model = EmbeddingModel(vocab={"a": 0}, word_vectors=np.ones((1, 2)), context_vectors=np.ones((1, 2)),
                               dim=2, passage_vectors=np.eye(3)[:, :2] + 0.5, passage_ids=coll.ids)
        entries = (("p001", 2.0), ("p002", 1.0))
        cfg = FusionConfig(representation_mode="pv")
        for base in (RankedList(query_id="q0", entries=entries), ranked_over(other, entries)):
            for state in (FeedbackState(), update_pools(FeedbackState(), [("p000", True)])):
                with pytest.raises(ValueError, match="ranked over this index"):
                    fused_rank(base, state, model, cfg, coll, idx)
        # an index rebuilt over the same collection shares its ids tuple, and so its positions
        for same in (idx, build_index(coll)):
            assert fused_rank(ranked_over(same, entries), FeedbackState(), model, cfg, coll, idx).entries == entries

    def test_cached_norms_equal_per_call_norms(self):
        rng = np.random.default_rng(7)
        n = 5000  # more than one block of 4096 rows
        coll = make_collection([["a"]] * n)
        idx = build_index(coll)
        ids = list(coll.ids)
        trained = [ids[i] for i in rng.permutation(n)[: n - 10]]  # ten passages without a vector
        model = EmbeddingModel(vocab={"a": 0}, word_vectors=np.ones((1, 24)), context_vectors=np.ones((1, 24)),
                               dim=24, passage_vectors=rng.normal(size=(n - 10, 24)), passage_ids=tuple(trained))
        rows, norms = model._row_map(idx)
        assert not rows.flags.writeable and not norms.flags.writeable
        assert (norms[rows < 0] == 0.0).all() and (rows < 0).sum() == 10
        for _ in range(300):
            draw = rng.choice(np.flatnonzero(rows >= 0), size=int(rng.integers(1, 131)), replace=False)
            vectors, cached = model.vectors_at(str(rng.choice(["pv", "pvc"])), coll, idx, draw)
            assert vectors.tobytes() == model.passage_vectors[rows[draw]].tobytes()
            assert np.linalg.norm(vectors, axis=1).tobytes() == cached.tobytes() == norms[draw].tobytes()
