"""Embedding training: gradient checks, convergence, corruption, storage."""

import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irflab.corpus import Passage, TokenizerConfig, ingest_corpus, write_corpus
from irflab.embeddings import (
    MODEL_MAGIC,
    MODEL_VERSION,
    EmbeddingModel,
    TrainConfig,
    UnrepresentablePassage,
    _corrupted_rep,
    _negative_buckets,
    _negative_cdf,
    _negative_rows,
    _ns_loss,
    _ns_rows,
    _write_block,
    cosine,
    load_model,
    passage_vector,
    save_model,
    train_pv_hdc,
    train_skipgram,
)
from irflab.index import build_index

from conftest import make_collection, shuffled_collection, vector_or_zero


def finite_difference(f, x, h=1e-6):
    """Central-difference gradient of a scalar function of a vector."""
    g = np.zeros_like(x)
    for i in range(len(x)):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2 * h)
    return g


def rel_error(a, b):
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
    return np.linalg.norm(a - b) / denom


def ns_loss_at(G, y, head, rep, w):
    """The loss _ns_rows differentiates, at these parameters."""
    s = np.empty(len(G))
    _ns_rows(G, y, head, rep, w, 1.0, s)
    return _ns_loss(s, y)


def position_rows(rng, d, k, n_contexts, head):
    """One target position's rows laid out as the trainer lays them: with a
    passage side (head = 1 + k), the observed word and k negatives, then the
    n_contexts context words and n_contexts * k negatives. Returns (G, y)."""
    y = np.zeros(head + n_contexts * (1 + k))
    if head:
        y[0] = 1.0
    y[head:head + n_contexts] = 1.0
    return rng.normal(size=(len(y), d)), y


def ns_rows_errors(G, y, head, rep, w):
    """Relative errors of _ns_rows' gradients of rep (when head >= 1), of w
    and of each row of G, against central finite differences of the loss.
    A row enters only its own loss term, so each row is differenced on that
    term alone: the other rows' terms would add rounding to the quotient
    that swamps the small gradient of a row whose sigmoid saturates."""
    g_rep, g_w, g_rows = _ns_rows(G, y, head, rep, w, 1.0, np.empty(len(G)))
    errors = [rel_error(g_w, finite_difference(lambda x: ns_loss_at(G, y, head, rep, x), w))]
    if head:
        errors.append(rel_error(g_rep, finite_difference(lambda x: ns_loss_at(G, y, head, x, w), rep)))
    for j, row in enumerate(G):
        row_head = int(j < head)
        errors.append(rel_error(g_rows[j], finite_difference(
            lambda x: ns_loss_at(x[None, :], y[j:j + 1], row_head, rep, w), row)))
    return errors


def corrupted_word_error(rng, d, k, n_contexts, q):
    """Relative error of the word-vector gradient of one corrupted-mode
    position, applied as the trainer applies it (g_w to the observed word's
    row, scale * g_rep to each kept row of the passage), against central
    finite differences over every entry of W."""
    v = 8
    W = rng.normal(size=(v, d))
    words = rng.integers(0, v, size=int(rng.integers(1, 12)))
    draws = rng.random(len(words))
    draws[0] = 0.0  # at least one kept word, so rep depends on W
    wt = int(words[0])
    head = 1 + k
    G, y = position_rows(rng, d, k, n_contexts, head)

    def loss(flat):
        W_ = flat.reshape(v, d)
        return ns_loss_at(G, y, head, _corrupted_rep(W_, words, draws, q)[0], W_[wt])

    rep, kept, scale = _corrupted_rep(W, words, draws, q)
    g_rep, g_w, _ = _ns_rows(G, y, head, rep, W[wt], 1.0, np.empty(len(G)))
    applied = np.zeros_like(W)
    applied[wt] += g_w
    np.add.at(applied, kept, scale * g_rep)
    return rel_error(applied.ravel(), finite_difference(loss, W.ravel()))


def repeated_bigram_collection(n=80):
    return make_collection([["x", "y"]] * n)


class TestNegativeSampler:
    def test_cdf_ends_at_one(self):
        freqs = np.array([7.0, 5.0])  # the cumulative sum rounds to 1 - 2**-53
        p = freqs**0.75
        assert np.cumsum(p / p.sum())[-1] < 1.0
        cdf = _negative_cdf(freqs)
        assert cdf[-1] == 1.0
        draw = np.array([np.nextafter(1.0, 0.0)])
        assert _negative_rows(cdf, _negative_buckets(cdf), draw).tolist() == [1]

    @settings(max_examples=60, deadline=None)
    @given(freqs=st.lists(st.integers(5, 10**6), min_size=1, max_size=3000), seed=st.integers(0, 2**32 - 1))
    def test_buckets_equal_searchsorted(self, freqs, seed):
        cdf = _negative_cdf(np.sort(np.array(freqs, dtype=np.float64))[::-1])
        draws = np.concatenate((
            np.random.default_rng(seed).random(2000), [0.0], cdf,
            np.nextafter(cdf, 0.0), np.nextafter(cdf, 2.0),
        ))
        draws = draws[draws < 1.0]
        rows = _negative_rows(cdf, _negative_buckets(cdf), draws)
        assert rows.tolist() == np.searchsorted(cdf, draws, side="right").tolist()


class TestGradients:
    def test_center_gradient_matches_finite_differences(self, rng):
        # skip-gram: no passage side, every row scored against the word
        for _ in range(20):
            G, y = position_rows(rng, d=6, k=4, n_contexts=1, head=0)
            w = rng.normal(size=6)
            g_w = _ns_rows(G, y, 0, None, w, 1.0, np.empty(len(G)))[1]
            fd = finite_difference(lambda x: ns_loss_at(G, y, 0, None, x), w)
            assert rel_error(g_w, fd) < 1e-4

    def test_positive_and_negative_gradients(self, rng):
        # each row on its own: a small row gradient is not hidden by a large one
        for _ in range(10):
            w = rng.normal(size=5)
            G, y = position_rows(rng, d=5, k=3, n_contexts=1, head=0)
            g_rows = _ns_rows(G, y, 0, None, w, 1.0, np.empty(len(G)))[2]
            for j in range(len(G)):
                def f(x, j=j):
                    G_ = G.copy()
                    G_[j] = x
                    return ns_loss_at(G_, y, 0, None, w)
                assert rel_error(g_rows[j], finite_difference(f, G[j])) < 1e-4

    def test_passage_side_gradients_match_finite_differences(self, rng):
        # pv: head rows (observed word and its negatives) scored against the
        # passage vector, context rows against the word; no contexts too
        for n_contexts in (0, 1, 2, 0, 1, 2):
            G, y = position_rows(rng, d=5, k=3, n_contexts=n_contexts, head=4)
            assert max(ns_rows_errors(G, y, 4, rng.normal(size=5), rng.normal(size=5))) < 1e-4

    def test_corrupted_rep_gradient_on_kept_word_rows(self, rng):
        for q in (0.0, 0.5, 0.9, 0.5, 0.9):
            assert corrupted_word_error(rng, d=4, k=2, n_contexts=int(rng.integers(0, 3)), q=q) < 1e-4

    def test_loss_is_positive_and_finite(self, rng):
        for _ in range(20):
            G, y = position_rows(rng, d=4, k=2, n_contexts=1, head=3)
            loss = ns_loss_at(G, y, 3, rng.normal(size=4), rng.normal(size=4))
            assert np.isfinite(loss) and loss > 0.0


class TestSkipgram:
    def test_epoch_loss_strictly_decreases_on_bigram_corpus(self):
        # lr below the default keeps the descent away from the sampling-noise
        # floor a 2-word vocabulary hits within a couple of epochs
        coll = repeated_bigram_collection()
        cfg = TrainConfig(dim=8, epochs=5, seed=3, window=2, mode="skipgram", learning_rate=0.025)
        model = train_skipgram(coll, cfg)
        losses = model.metadata["epoch_losses"]
        assert len(losses) == 5
        assert all(losses[i + 1] < losses[i] for i in range(4))

    def test_low_frequency_words_excluded(self):
        lists = [["common"] * 3 for _ in range(3)]  # freq 9
        lists.append(["rare"] * 4)                   # freq 4 < 5
        coll = make_collection(lists)
        model = train_skipgram(coll, TrainConfig(dim=4, epochs=1, mode="skipgram"))
        assert "common" in model.vocab
        assert "rare" not in model.vocab

    def test_empty_vocabulary_rejected(self):
        coll = make_collection([["one", "two"]])  # every frequency < 5
        with pytest.raises(ValueError, match="frequency"):
            train_skipgram(coll, TrainConfig(dim=4, epochs=1))

    def test_deterministic_mode_is_bit_reproducible(self):
        coll = repeated_bigram_collection(30)
        cfg = TrainConfig(dim=6, epochs=2, seed=9, window=2, mode="skipgram")
        a = train_skipgram(coll, cfg)
        b = train_skipgram(coll, cfg)
        assert np.array_equal(a.word_vectors, b.word_vectors)
        assert np.array_equal(a.context_vectors, b.context_vectors)

    def test_mode_mismatch_rejected(self):
        with pytest.raises(ValueError):
            train_skipgram(repeated_bigram_collection(10), TrainConfig(mode="pv_hdc"))

    def test_vectors_finite_after_training(self, rng):
        lists = [[f"v{int(j)}" for j in rng.integers(0, 6, size=10)] for _ in range(40)]
        coll = make_collection(lists)
        model = train_skipgram(coll, TrainConfig(dim=10, epochs=3, seed=1, mode="skipgram"))
        assert np.isfinite(model.word_vectors).all()
        assert np.isfinite(model.context_vectors).all()


class TestPvHdc:
    def test_plain_mode_learns_passage_vectors(self):
        coll = repeated_bigram_collection(40)
        cfg = TrainConfig(dim=6, epochs=3, seed=2, window=2, mode="pv_hdc")
        model = train_pv_hdc(coll, cfg)
        assert model.passage_vectors.shape == (40, 6)
        assert model.passage_ids == coll.ids
        losses = model.metadata["epoch_losses"]
        assert losses[-1] < losses[0]

    def test_corrupted_mode_stores_word_means(self):
        coll = repeated_bigram_collection(40)
        cfg = TrainConfig(dim=6, epochs=2, seed=2, window=2, mode="pv_hdc_corrupted", corruption_q=0.5)
        model = train_pv_hdc(coll, cfg)
        expected = model.word_vectors[[model.vocab["x"], model.vocab["y"]]].mean(axis=0)
        assert model.passage_vectors[0] == pytest.approx(expected, abs=1e-12)

    def test_corruption_q_zero_matches_plain_mean_at_update_time(self, rng):
        vectors = rng.normal(size=(7, 5))
        words = np.array([0, 3, 3, 6, 1])  # a repeated word counts each time
        rep, kept, scale = _corrupted_rep(vectors, words, np.random.default_rng(0).random(5), q=0.0)
        assert rep == pytest.approx(vectors[words].mean(axis=0), abs=1e-12)
        assert kept.tolist() == words.tolist() and scale == 1.0 / 5

    def test_corrupted_mean_is_unbiased(self, rng):
        # offset entries keep the target norm well away from zero, so the
        # relative error reflects bias rather than cancellation noise
        vectors = rng.uniform(0.5, 1.5, size=(30, 8))
        words = np.arange(30)
        draws = np.stack([
            _corrupted_rep(vectors, words, rng.random(30), q=0.9)[0] for _ in range(20_000)
        ])
        mean = draws.mean(axis=0)
        target = vectors.mean(axis=0)
        assert np.linalg.norm(mean - target) / np.linalg.norm(target) < 0.01

    def test_biased_variants_would_fail_the_unbiasedness_check(self, rng):
        # dividing by the kept count instead of the full length, or skipping
        # the 1/(1-q) rescale, shifts the mean by an order of magnitude
        vectors = rng.uniform(0.5, 1.5, size=(30, 8))
        q = 0.9
        unscaled = []
        kept_avg = []
        r = np.random.default_rng(7)
        for _ in range(5_000):
            mask = r.random(30) < (1.0 - q)
            if mask.any():
                kept_avg.append(vectors[mask].mean(axis=0) / (1.0 - q))
                unscaled.append(vectors[mask].sum(axis=0) / 30.0)
        target = vectors.mean(axis=0)
        err_kept = np.linalg.norm(np.mean(kept_avg, axis=0) - target) / np.linalg.norm(target)
        err_unscaled = np.linalg.norm(np.mean(unscaled, axis=0) - target) / np.linalg.norm(target)
        assert err_kept > 0.5
        assert err_unscaled > 0.5

    def test_doc_vector_gradient_matches_finite_differences(self, rng):
        # step one of the passage-side update: the observed word and its
        # negatives scored against the doc representation (the head rows)
        for _ in range(15):
            G, y = position_rows(rng, d=6, k=5, n_contexts=0, head=6)
            doc, w = rng.normal(size=6), rng.normal(size=6)
            g_doc = _ns_rows(G, y, 6, doc, w, 1.0, np.empty(len(G)))[0]
            fd = finite_difference(lambda x: ns_loss_at(G, y, 6, x, w), doc)
            assert rel_error(g_doc, fd) < 1e-4

    def test_deterministic_reproducibility(self):
        coll = repeated_bigram_collection(25)
        cfg = TrainConfig(dim=5, epochs=2, seed=4, window=2, mode="pv_hdc_corrupted")
        a = train_pv_hdc(coll, cfg)
        b = train_pv_hdc(coll, cfg)
        assert np.array_equal(a.word_vectors, b.word_vectors)
        assert np.array_equal(a.passage_vectors, b.passage_vectors)

    def test_wrong_mode_rejected(self):
        with pytest.raises(ValueError):
            train_pv_hdc(repeated_bigram_collection(10), TrainConfig(mode="skipgram"))


class TestPassageVector:
    def _model(self):
        vectors = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
        return EmbeddingModel(
            vocab={"a": 0, "b": 1, "c": 2},
            word_vectors=vectors,
            context_vectors=np.zeros_like(vectors),
            dim=2,
            passage_vectors=np.array([[5.0, 6.0]]),
            passage_ids=("p000",),
        )

    def test_avg_of_identical_tokens_is_that_vector(self):
        coll = make_collection([["a", "a", "a"]])
        idx = build_index(coll)
        vec = passage_vector(coll["p000"], self._model(), "avg_w2v", idx)
        assert vec == pytest.approx([1.0, 0.0])

    def test_idf_weighting_hand_computation(self):
        # "a" appears in 1 of 2 passages (idf = ln 2 > 0), "b" in both (idf 0)
        coll = make_collection([["a", "b"], ["b"]])
        idx = build_index(coll)
        vec = passage_vector(coll["p000"], self._model(), "idf_w2v", idx)
        assert vec == pytest.approx([1.0, 0.0], abs=1e-12)

    def test_pv_mode_returns_stored_row(self):
        coll = make_collection([["a"]])
        idx = build_index(coll)
        vec = passage_vector(coll["p000"], self._model(), "pv", idx)
        assert vec == pytest.approx([5.0, 6.0])

    def test_no_invocab_tokens_flagged(self):
        coll = make_collection([["zz", "qq"]])
        idx = build_index(coll)
        with pytest.raises(UnrepresentablePassage):
            passage_vector(coll["p000"], self._model(), "avg_w2v", idx)

    def test_unknown_passage_in_pv_mode_rejected(self):
        coll = make_collection([["a"], ["b"]])
        idx = build_index(coll)
        with pytest.raises(ValueError, match="training corpus"):
            passage_vector(coll["p001"], self._model(), "pv", idx)
        with pytest.raises(ValueError, match="'zz' is not in the index"):
            passage_vector(Passage("zz", "d", "a", ("a",)), self._model(), "pv", idx)

    def test_pv_rows_follow_the_models_passage_order(self):
        coll = make_collection([["a"], ["b"], ["c"], ["a", "b"]])
        idx = build_index(coll)
        order = [2, 0, 3, 1]
        vectors = np.arange(8.0).reshape(4, 2)
        model = EmbeddingModel(vocab={"a": 0}, word_vectors=np.zeros((1, 2)), context_vectors=np.zeros((1, 2)),
                               dim=2, passage_vectors=vectors, passage_ids=tuple(coll.ids[i] for i in order))
        for mode in ("pv", "pvc"):
            for row, i in enumerate(order):
                assert passage_vector(coll[coll.ids[i]], model, mode, idx).tolist() == vectors[row].tolist()


@st.composite
def represented_cases(draw):
    """A collection with shuffled ids, some passages empty or holding only
    the out-of-vocabulary "zz", and with "a" in every passage when
    ``everywhere`` is drawn (its idf is then 0, so a passage holding only
    "a" has no idf_w2v weight); a model over "abcd" with small integer word
    vectors (zero rows occur) and passage vectors in shuffled row order; a
    mode; and a draw of index positions, repeats allowed."""
    lists = draw(st.lists(st.lists(st.sampled_from(["a", "b", "c", "d", "zz"]), max_size=6),
                          min_size=1, max_size=20))
    if draw(st.booleans()):
        lists = [tokens + ["a"] for tokens in lists]
    coll = shuffled_collection(lists, draw(st.permutations(range(len(lists)))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    model = EmbeddingModel(vocab={t: i for i, t in enumerate("abcd")},
                           word_vectors=rng.integers(-1, 2, size=(4, 3)).astype(float),
                           context_vectors=np.zeros((4, 3)), dim=3,
                           passage_vectors=rng.integers(-1, 2, size=(len(coll), 3)).astype(float),
                           passage_ids=tuple(rng.permutation(coll.ids)))
    positions = np.array(draw(st.lists(st.integers(0, len(coll) - 1), min_size=1, max_size=30)), dtype=np.int64)
    return coll, model, draw(st.sampled_from(["avg_w2v", "idf_w2v", "pv", "pvc"])), positions


class TestVectorsAt:
    """vectors_at, every mode's one read path, against vector_or_zero: pv/pvc
    rows looked up by id in the model, avg_w2v/idf_w2v from passage_vector."""

    @settings(max_examples=300, deadline=None)
    @given(represented_cases())
    def test_rows_and_norms_equal_a_per_passage_stack(self, case):
        coll, model, mode, positions = case
        idx = build_index(coll)
        for draw in (positions, np.arange(len(coll)), positions):  # the last reads the kept rows
            stack = np.stack([vector_or_zero(coll[idx.ids[i]], model, mode, idx) for i in draw.tolist()])
            vectors, norms = model.vectors_at(mode, coll, idx, draw)
            assert vectors.tobytes() == stack.tobytes()
            assert norms.tobytes() == np.linalg.norm(stack, axis=1).tobytes()

    def _model(self):
        return EmbeddingModel(vocab={"a": 0, "b": 1}, word_vectors=np.array([[1.0, 2.0], [3.0, -1.0]]),
                              context_vectors=np.zeros((2, 2)), dim=2)

    def test_passage_without_an_in_vocabulary_token_is_a_zero_row(self):
        coll = make_collection([["a", "b"], ["zz"], []])
        idx = build_index(coll)
        for mode in ("avg_w2v", "idf_w2v"):
            vectors, norms = self._model().vectors_at(mode, coll, idx, np.array([1, 2, 0]))
            assert vectors[:2].tolist() == [[0.0, 0.0], [0.0, 0.0]] and norms[:2].tolist() == [0.0, 0.0]
            assert norms[2] > 0.0

    def test_idf_passage_of_terms_in_every_passage_is_a_zero_row(self, caplog):
        coll = make_collection([["a", "b"], ["a"], ["a", "a"]])
        idx = build_index(coll)
        with caplog.at_level("WARNING"):
            vectors, norms = self._model().vectors_at("idf_w2v", coll, idx, np.arange(3))
        assert vectors[1:].tolist() == [[0.0, 0.0], [0.0, 0.0]] and norms[1:].tolist() == [0.0, 0.0]
        assert vectors[0].tolist() == [3.0, -1.0]  # "a" has weight 0, "b" all of it
        assert not caplog.records  # representable, only weightless: not warned about
        avg, _ = self._model().vectors_at("avg_w2v", coll, idx, np.arange(3))
        assert avg[1].tolist() == [1.0, 2.0]

    def test_passage_missing_from_a_pv_model_raises(self):
        coll = make_collection([["a"], ["b"], ["a", "b"]])
        idx = build_index(coll)
        model = EmbeddingModel(vocab={"a": 0}, word_vectors=np.ones((1, 2)), context_vectors=np.ones((1, 2)),
                               dim=2, passage_vectors=np.array([[1.0, 0.0], [0.0, 0.0]]),
                               passage_ids=("p002", "p000"))
        for mode in ("pv", "pvc"):
            assert model.vectors_at(mode, coll, idx, np.array([2, 0]))[1].tolist() == [1.0, 0.0]
            with pytest.raises(ValueError, match="'p001' was not in the training corpus"):
                model.vectors_at(mode, coll, idx, np.array([0, 1]))
        with pytest.raises(ValueError, match="no trained passage vectors"):
            self._model().vectors_at("pv", coll, idx, np.array([0]))


class TestCosine:
    def test_self_similarity_is_one(self, rng):
        for _ in range(10):
            v = rng.normal(size=6)
            assert cosine(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_vectors(self):
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_hand_value(self):
        assert cosine(np.array([1.0, 0.0]), np.array([1.0, 1.0])) == pytest.approx(0.70710678, abs=1e-8)

    def test_zero_norm_gives_zero(self):
        assert cosine(np.zeros(3), np.array([1.0, 2.0, 3.0])) == 0.0

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            cosine(np.ones(3), np.ones(4))

    def test_bounded_on_random_inputs(self, rng):
        for _ in range(200):
            c = cosine(rng.normal(size=5), rng.normal(size=5))
            assert -1.0 - 1e-12 <= c <= 1.0 + 1e-12


class TestModelIO:
    def test_round_trip(self, tmp_path):
        coll = repeated_bigram_collection(20)
        model = train_pv_hdc(coll, TrainConfig(dim=4, epochs=1, seed=7, window=2, mode="pv_hdc_corrupted"))
        path = tmp_path / "model.bin"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.vocab == model.vocab
        assert np.array_equal(loaded.word_vectors, model.word_vectors)
        assert np.array_equal(loaded.context_vectors, model.context_vectors)
        assert np.array_equal(loaded.passage_vectors, model.passage_vectors)
        assert loaded.passage_ids == model.passage_ids
        assert loaded.metadata["mode"] == "pv_hdc_corrupted"
        for vectors in (loaded.word_vectors, loaded.context_vectors, loaded.passage_vectors):
            assert vectors.flags.writeable and vectors.flags.aligned and vectors.dtype == np.float64

    def test_save_bytes_deterministic(self, tmp_path):
        coll = repeated_bigram_collection(20)
        cfg = TrainConfig(dim=4, epochs=1, seed=7, window=2, mode="skipgram")
        a_path, b_path = tmp_path / "a.bin", tmp_path / "b.bin"
        save_model(train_skipgram(coll, cfg), a_path)
        save_model(train_skipgram(coll, cfg), b_path)
        assert a_path.read_bytes() == b_path.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "nope.bin"
        path.write_bytes(b"JUNKJUNKJUNK")
        with pytest.raises(ValueError, match="not an embedding model"):
            load_model(path)

    def test_truncated_or_padded_file_rejected(self, tmp_path):
        rng = np.random.default_rng(3)
        model = EmbeddingModel(
            vocab={f"w{i}": i for i in range(20)}, word_vectors=rng.normal(size=(20, 4)),
            context_vectors=rng.normal(size=(20, 4)), dim=4,
            passage_vectors=rng.normal(size=(5, 4)), passage_ids=tuple(f"p{i}" for i in range(5)),
            metadata={"mode": "pv_hdc_corrupted"},
        )
        path = tmp_path / "model.bin"
        save_model(model, path)
        data = path.read_bytes()
        cut = tmp_path / "cut.bin"
        for size in range(len(data)):
            cut.write_bytes(data[:size])
            with pytest.raises(ValueError, match="truncated" if size >= len(MODEL_MAGIC) else "not an embedding"):
                load_model(cut)
        cut.write_bytes(data + bytes(16))
        with pytest.raises(ValueError, match="trailing bytes"):
            load_model(cut)
        # a header dimension the vector blocks do not hold
        cut.write_bytes(data[:10] + (5).to_bytes(4, "little") + data[14:])
        with pytest.raises(ValueError):
            load_model(cut)

    @staticmethod
    def _write_model_file(path, passage_ids, n_rows, dim=2):
        """A model file as save_model lays it out, written block by block, so
        its id block and its passage-vector rows can disagree."""
        with open(path, "wb") as fh:
            fh.write(MODEL_MAGIC)
            fh.write(struct.pack("<IIQQ", MODEL_VERSION, dim, 1, n_rows))
            _write_block(fh, b"pv_hdc")
            _write_block(fh, b'{"mode": "pv_hdc"}')
            _write_block(fh, b"a")
            _write_block(fh, bytes(8 * dim))
            _write_block(fh, bytes(8 * dim))
            _write_block(fh, "\n".join(passage_ids).encode("utf-8"))
            _write_block(fh, np.arange(n_rows * dim, dtype="<f8").tobytes())

    def test_mixed_up_passage_ids_rejected(self, tmp_path):
        path = tmp_path / "model.bin"
        self._write_model_file(path, ["p1", "p2", "p3"], 3)
        assert load_model(path).passage_ids == ("p1", "p2", "p3")
        for passage_ids, problem in ((["p1", "p2p3"], "passage id mismatch: 2 names (2 distinct) for 3 rows"),
                                     (["p1", "p2", "p1"], "passage id mismatch: 3 names (2 distinct) for 3 rows")):
            self._write_model_file(path, passage_ids, 3)
            with pytest.raises(ValueError, match=re.escape(f"{path}: {problem}")):
                load_model(path)

    def test_save_refuses_mixed_up_passage_ids(self, tmp_path):
        path = tmp_path / "model.bin"
        for passage_ids in (("p1", "p2"), ("p1", "p2", "p1"), ("p1", "p2\np3")):
            model = EmbeddingModel(vocab={"a": 0}, word_vectors=np.zeros((1, 2)), context_vectors=np.zeros((1, 2)),
                                   dim=2, passage_vectors=np.ones((3, 2)), passage_ids=passage_ids)
            with pytest.raises(ValueError, match=re.escape(str(path))):
                save_model(model, path)
            assert not path.exists()

    @pytest.mark.parametrize("model_first", [False, True])
    def test_loaded_model_shares_the_collections_strings(self, tmp_path, model_first):
        texts = ["apple banana", "banana cherry", "apple cherry"]
        write_corpus(tmp_path / "corpus.jsonl", make_collection([t.split() for t in texts]))
        model = EmbeddingModel(vocab={"apple": 0, "banana": 1, "cherry": 2}, word_vectors=np.zeros((3, 2)),
                               context_vectors=np.zeros((3, 2)), dim=2, passage_vectors=np.ones((3, 2)),
                               passage_ids=("p000", "p001", "p002"))
        save_model(model, tmp_path / "model.bin")
        tokenizer = TokenizerConfig(stopwords=frozenset(), stemming="none")
        if model_first:
            loaded = load_model(tmp_path / "model.bin")
            coll = ingest_corpus(tmp_path / "corpus.jsonl", tokenizer)
        else:
            coll = ingest_corpus(tmp_path / "corpus.jsonl", tokenizer)
            loaded = load_model(tmp_path / "model.bin")
        assert all(a is b for a, b in zip(loaded.passage_ids, coll.ids, strict=True))
        tokens = {t: t for p in coll for t in p.tokens}
        assert all(tokens[t] is t for t in (*loaded.vocab, *loaded.terms))

    def test_default_config_matches_training_protocol(self):
        cfg = TrainConfig()
        assert (cfg.dim, cfg.negatives, cfg.learning_rate, cfg.batch_size) == (100, 10, 0.05, 256)
        assert cfg.corruption_q == 0.9
