"""Feedback estimators: pools, RM3, distillation EM, Rocchio, ERM."""

import logging
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import irflab

from irflab.corpus import Passage
from irflab.embeddings import EmbeddingModel
from irflab.feedback import (
    _mixture_em,
    ErmParams,
    FeedbackParams,
    FeedbackState,
    estimate_distillation,
    estimate_erm,
    estimate_rm3,
    query_mle,
    rocchio_update,
    update_pools,
)
from irflab.index import build_index, collection_prob

from conftest import make_collection, make_query, random_token_lists


def passage(pid, tokens):
    return Passage(passage_id=pid, doc_id=pid, text=" ".join(tokens), tokens=tuple(tokens))


def brute_force_em(counts, p_corpus, theta_nr, lam_mix, lam_nr, iters):
    """Independent EM oracle: literal per-term loops, fixed iteration count."""
    terms = sorted(counts)
    theta = {t: 1.0 / len(terms) for t in terms}
    f = 1.0 - lam_mix - lam_nr
    for _ in range(iters):
        resp = {}
        for t in terms:
            mix = f * theta[t] + lam_mix * p_corpus.get(t, 0.0) + lam_nr * theta_nr.get(t, 0.0)
            resp[t] = f * theta[t] / mix
        raw = {t: counts[t] * resp[t] for t in terms}
        total = sum(raw.values())
        theta = {t: raw[t] / total for t in terms}
    return theta


def check_query_model(model, tol=1e-9):
    """Raise if the model violates the distribution invariants."""
    if any(w < 0 for w in model.values()):
        raise ValueError("query model has negative weights")
    total = sum(model.values())
    if abs(total - 1.0) > tol:
        raise ValueError(f"query model sums to {total}, expected 1 within {tol}")


def reference_mixture_em(counts, p_corpus, theta_nr, lambda_mix, lambda_nr, max_iters, tol):
    """Oracle: the EM loop that builds the whole mixture on every iteration."""
    terms = sorted(counts)
    c = np.array([counts[t] for t in terms], dtype=np.float64)
    pc = np.array([p_corpus.get(t, 0.0) for t in terms])
    pn = np.array([theta_nr.get(t, 0.0) for t in terms])
    f = 1.0 - lambda_mix - lambda_nr
    theta = np.full(len(terms), 1.0 / len(terms))
    prev_ll = None
    for _ in range(max_iters):
        mix = f * theta + lambda_mix * pc + lambda_nr * pn
        ll = float(np.sum(c * np.log(mix)))
        if prev_ll is not None:
            if not ll - prev_ll >= -1e-9:
                raise RuntimeError(f"EM log-likelihood decreased: {prev_ll} -> {ll}")
            if ll - prev_ll < tol:
                break
        prev_ll = ll
        resp = f * theta / mix
        theta = c * resp
        theta /= theta.sum()
    return dict(zip(terms, theta.tolist()))


@st.composite
def mixture_cases(draw):
    """Pooled counts over 1-12 terms, a corpus model, a non-relevant topic
    over some of the terms and mixture weights with a positive topic part."""
    terms = draw(st.lists(st.sampled_from([f"t{i}" for i in range(15)]), min_size=1, max_size=12, unique=True))
    counts = {t: draw(st.integers(1, 9)) for t in terms}
    p_corpus = {t: draw(st.floats(1e-4, 1.0)) for t in terms}
    nr_terms = draw(st.lists(st.sampled_from(terms), unique=True))
    raw = {t: draw(st.floats(0.01, 1.0)) for t in nr_terms}
    theta_nr = {t: w / sum(raw.values()) for t, w in raw.items()}
    lambda_mix = draw(st.floats(0.0, 0.9))
    lambda_nr = draw(st.floats(0.0, 0.95 - lambda_mix)) if theta_nr else 0.0
    return counts, p_corpus, theta_nr, lambda_mix, lambda_nr, draw(st.integers(1, 60)), draw(
        st.sampled_from([0.0, 1e-12, 1e-6, 1e-3]))


def toy_embeddings(vectors, terms=None):
    terms = terms or [f"w{i}" for i in range(len(vectors))]
    vectors = np.asarray(vectors, dtype=np.float64)
    return EmbeddingModel(
        vocab={t: i for i, t in enumerate(terms)},
        word_vectors=vectors,
        context_vectors=np.zeros_like(vectors),
        dim=vectors.shape[1],
    )


class TestUpdatePools:
    def test_basic_split(self):
        state = update_pools(FeedbackState(), [("p1", True), ("p2", False)])
        assert state.relevant_pool == ("p1",)
        assert state.nonrelevant_pool == ("p2",)
        assert state.shown == {"p1", "p2"}

    def test_pools_accumulate_across_iterations(self):
        state = update_pools(FeedbackState(), [("p1", True)])
        state = update_pools(state, [("p2", True)])
        assert state.relevant_pool == ("p1", "p2")

    def test_rejudging_shown_rejected(self):
        state = update_pools(FeedbackState(), [("p1", True)])
        with pytest.raises(ValueError, match="already shown"):
            update_pools(state, [("p1", False)])

    def test_duplicate_in_batch_rejected(self):
        with pytest.raises(ValueError, match="twice"):
            update_pools(FeedbackState(), [("p1", True), ("p1", True)])

    def test_pools_stay_disjoint_and_grow(self, rng):
        state = FeedbackState()
        next_id = 0
        for _ in range(20):
            batch = []
            for _ in range(int(rng.integers(1, 4))):
                batch.append((f"p{next_id}", bool(rng.random() < 0.5)))
                next_id += 1
            prev_rel, prev_nr = state.relevant_pool, state.nonrelevant_pool
            state = update_pools(state, batch)
            assert set(state.relevant_pool) >= set(prev_rel)
            assert set(state.nonrelevant_pool) >= set(prev_nr)
            assert not set(state.relevant_pool) & set(state.nonrelevant_pool)
            assert set(state.relevant_pool) | set(state.nonrelevant_pool) == state.shown


class TestRM3:
    def test_alpha_one_returns_query_mle(self, tiny_index):
        coll, idx = tiny_index
        q = make_query(["a", "b", "a"])
        model = estimate_rm3(q, [coll["p000"]], idx, FeedbackParams(alpha_interp=1.0))
        assert model == pytest.approx(query_mle(q))

    def test_single_passage_pool_gives_its_mle(self):
        coll = make_collection([["a", "a", "b"], ["c"]])
        idx = build_index(coll)
        q = make_query(["a"])
        model = estimate_rm3(q, [coll["p000"]], idx, FeedbackParams(m=2, alpha_interp=0.0))
        assert model["a"] == pytest.approx(2 / 3, abs=1e-12)
        assert model["b"] == pytest.approx(1 / 3, abs=1e-12)

    def test_truncation_and_normalization(self):
        coll = make_collection([["a", "b", "c", "d", "e"], ["x"]])
        idx = build_index(coll)
        q = make_query(["a"])
        model = estimate_rm3(q, [coll["p000"]], idx, FeedbackParams(m=1, alpha_interp=0.5))
        assert len(model) <= 1 + 1  # query terms + m
        assert sum(model.values()) == pytest.approx(1.0, abs=1e-9)

    def test_document_weights_hand_computation(self):
        # D1 = "a b", D2 = "a a"; p(a|C) = 3/4; mu = 1
        # P(Q|D1) = (1 + 0.75)/3 = 7/12, P(Q|D2) = (2 + 0.75)/3 = 11/12
        # normalized weights (7/18, 11/18) give
        # P(a|R) = 7/18 * 1/2 + 11/18 = 29/36, P(b|R) = 7/36
        coll = make_collection([["a", "b"], ["a", "a"]])
        idx = build_index(coll)
        model = estimate_rm3(make_query(["a"]), list(coll), idx,
                             FeedbackParams(m=5, alpha_interp=0.0), mu=1.0)
        assert model["a"] == pytest.approx(29 / 36, abs=1e-12)
        assert model["b"] == pytest.approx(7 / 36, abs=1e-12)

    def test_pool_weighting_prefers_query_matching_doc(self):
        coll = make_collection([["a", "a", "a", "x"], ["y", "y", "y", "z"]])
        idx = build_index(coll)
        q = make_query(["a"])
        model = estimate_rm3(q, list(coll), idx, FeedbackParams(m=10, alpha_interp=0.0), mu=1.0)
        assert model["a"] > model["y"]

    def test_empty_pool_rejected(self, tiny_index):
        _, idx = tiny_index
        with pytest.raises(ValueError):
            estimate_rm3(make_query(["a"]), [], idx, FeedbackParams())

    def test_output_is_distribution(self, rng):
        for _ in range(25):
            lists = random_token_lists(rng, 8, 6)
            coll = make_collection(lists)
            idx = build_index(coll)
            q = make_query([f"t{int(rng.integers(0, 6))}"])
            pool = [tuple(coll)[int(i)] for i in rng.choice(8, size=3, replace=False)]
            model = estimate_rm3(q, pool, idx, FeedbackParams(m=int(rng.integers(1, 8))))
            check_query_model(model)


class TestDistillation:
    def test_degenerate_mixture_is_pool_mle(self):
        coll = make_collection([["a", "a", "b"], ["c"]])
        idx = build_index(coll)
        pool = [coll["p000"]]
        model = estimate_distillation(
            make_query(["a"]), pool, [], idx,
            FeedbackParams(alpha_interp=0.0, lambda_mix=0.0, lambda_nr=0.0, m=10),
        )
        assert model["a"] == pytest.approx(2 / 3, abs=1e-9)
        assert model["b"] == pytest.approx(1 / 3, abs=1e-9)

    def test_worked_two_iteration_example(self):
        # pool "a a b" with p(a|C) = p(b|C) = 0.5, lambda_mix = 0.5:
        # two EM updates from uniform init give theta = (20/27, 7/27).
        coll = make_collection([["a", "a", "b"], ["b", "b", "a"]])
        idx = build_index(coll)
        pool = [coll["p000"]]
        params = FeedbackParams(alpha_interp=0.0, lambda_mix=0.5, lambda_nr=0.0,
                                em_max_iters=2, em_tol=0.0, m=10)
        model = estimate_distillation(make_query(["a"]), pool, [], idx, params)
        oracle = brute_force_em({"a": 2, "b": 1}, {"a": 0.5, "b": 0.5}, {}, 0.5, 0.0, iters=2)
        assert model["a"] == pytest.approx(oracle["a"], abs=1e-9)
        assert model["b"] == pytest.approx(oracle["b"], abs=1e-9)
        assert oracle["a"] == pytest.approx(20 / 27, abs=1e-12)

    def test_empty_nr_pool_drops_component(self, tiny_index, caplog):
        coll, idx = tiny_index
        pool = [coll["p000"]]
        params = FeedbackParams(alpha_interp=0.0, lambda_mix=0.3, lambda_nr=0.4, m=10)
        with caplog.at_level("DEBUG"):
            model = estimate_distillation(make_query(["a"]), pool, [], idx, params)
        # an all-relevant session's normal state: dropped quietly, not warned
        assert any("non-relevant pool empty" in r.message for r in caplog.records)
        assert not [r for r in caplog.records if r.levelno >= logging.WARNING]
        check_query_model(model)
        without = estimate_distillation(make_query(["a"]), pool, [], idx,
                                        FeedbackParams(alpha_interp=0.0, lambda_mix=0.3, lambda_nr=0.0, m=10))
        assert model == without

    def test_nr_component_suppresses_nr_terms(self):
        coll = make_collection([["a", "b"], ["b", "c"], ["a", "a", "b", "b"], ["b", "b", "b"]])
        idx = build_index(coll)
        pool = [coll["p002"]]
        nr = [coll["p003"]]
        base = estimate_distillation(
            make_query(["a"]), pool, [], idx,
            FeedbackParams(alpha_interp=0.0, lambda_mix=0.2, lambda_nr=0.0, m=10))
        with_nr = estimate_distillation(
            make_query(["a"]), pool, nr, idx,
            FeedbackParams(alpha_interp=0.0, lambda_mix=0.2, lambda_nr=0.4, m=10))
        assert with_nr.get("b", 0.0) < base.get("b", 0.0)

    def test_invalid_mixture_weights_rejected(self, tiny_index):
        _, idx = tiny_index
        pool = [passage("r1", ["a"])]
        nr = [passage("n1", ["b"])]
        with pytest.raises(ValueError, match="< 1"):
            estimate_distillation(make_query(["a"]), pool, nr, idx,
                                  FeedbackParams(lambda_mix=0.6, lambda_nr=0.4))

    def test_matches_em_oracle_on_random_instances(self, rng):
        for _ in range(30):
            vocab = [f"v{i}" for i in range(int(rng.integers(2, 8)))]
            lists = [[vocab[int(j)] for j in rng.integers(0, len(vocab), size=int(rng.integers(2, 9)))]
                     for _ in range(4)]
            coll = make_collection(lists)
            idx = build_index(coll)
            pool = list(tuple(coll)[:int(rng.integers(1, 4))])
            lam = float(rng.uniform(0.0, 0.8))
            iters = int(rng.integers(1, 6))
            params = FeedbackParams(alpha_interp=0.0, lambda_mix=lam, lambda_nr=0.0,
                                    em_max_iters=iters, em_tol=0.0, m=50)
            model = estimate_distillation(make_query([vocab[0]]), pool, [], idx, params)
            counts = {}
            for p in pool:
                for t in p.tokens:
                    counts[t] = counts.get(t, 0) + 1
            p_corpus = {t: collection_prob(idx, t) for t in counts}
            oracle = brute_force_em(counts, p_corpus, {}, lam, 0.0, iters)
            for t, w in oracle.items():
                assert model[t] == pytest.approx(w, abs=1e-9)

    @settings(max_examples=300, deadline=None)
    @given(mixture_cases())
    def test_mixture_em_equals_reference_loop(self, case):
        # the same floats term by term, and the same error where the loop raises
        try:
            expected = reference_mixture_em(*case)
        except RuntimeError as err:
            with pytest.raises(RuntimeError, match="EM log-likelihood decreased") as got:
                _mixture_em(*case)
            assert str(got.value) == str(err)
            return
        got = _mixture_em(*case)
        assert list(got) == list(expected)
        assert [repr(w) for w in got.values()] == [repr(w) for w in expected.values()]

    def test_em_likelihood_decrease_raises_under_optimize(self):
        # A corpus weight above one gives the topic component a negative
        # weight, outside EM's monotonicity guarantee. The check must still
        # fire when python -O strips asserts.
        code = (
            "from irflab.feedback import _mixture_em\n"
            "print(__debug__)\n"
            "try:\n"
            "    _mixture_em({'a': 2, 'b': 3, 'c': 4}, {'a': 0.5, 'b': 0.5, 'c': 1.0}, {}, 1.2, 0.0, 50, 0.0)\n"
            "except RuntimeError as exc:\n"
            "    print(exc)\n"
        )
        src = str(Path(irflab.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True,
                             text=True, timeout=120, check=True).stdout.splitlines()
        assert out[0] == "False"
        assert out[1].startswith("EM log-likelihood decreased: -2.64")
        assert " -> -2.68" in out[1]


class TestRocchio:
    def test_beta_gamma_zero_scales_query(self):
        coll = make_collection([["a", "b"], ["c"]])
        idx = build_index(coll)
        qvec = {"a": 2.0, "b": 1.0}
        out = rocchio_update(qvec, [], [], idx, FeedbackParams(rocchio_alpha=0.5, rocchio_beta=0.0, rocchio_gamma=0.0))
        assert out == {"a": 1.0, "b": 0.5}

    def test_single_relevant_passage_hand_computation(self):
        coll = make_collection([["a", "a"], ["b"]])
        idx = build_index(coll)
        qvec = {"b": 1.0}
        params = FeedbackParams(rocchio_alpha=1.0, rocchio_beta=0.5, rocchio_gamma=0.0, m=10)
        out = rocchio_update(qvec, [coll["p000"]], [], idx, params)
        # tfidf("a" in p000) = 2 ln 2; q' = q + 0.5 * that on "a"
        assert out["b"] == pytest.approx(1.0)
        assert out["a"] == pytest.approx(0.5 * 2 * math.log(2), abs=1e-12)

    def test_negative_weights_clipped(self):
        coll = make_collection([["a"], ["b"]])
        idx = build_index(coll)
        params = FeedbackParams(rocchio_alpha=1.0, rocchio_beta=0.0, rocchio_gamma=5.0, m=10)
        out = rocchio_update({"a": 0.1}, [], [coll["p000"]], idx, params)
        assert out["a"] == 0.0
        assert all(w >= 0.0 for w in out.values())

    def test_truncation_keeps_query_terms_plus_top_m(self):
        coll = make_collection([["x", "y", "z", "w"], ["q"]])
        idx = build_index(coll)
        params = FeedbackParams(rocchio_alpha=1.0, rocchio_beta=1.0, rocchio_gamma=0.0, m=2)
        out = rocchio_update({"q": 1.0}, [coll["p000"]], [], idx, params)
        assert "q" in out
        assert len(out) <= 1 + 2

    def test_never_negative_on_random_instances(self, rng):
        for _ in range(25):
            lists = random_token_lists(rng, 10, 6)
            coll = make_collection(lists)
            idx = build_index(coll)
            pool = [tuple(coll)[int(i)] for i in rng.choice(10, size=3, replace=False)]
            nr = [tuple(coll)[int(i)] for i in rng.choice(10, size=3, replace=False)]
            params = FeedbackParams(
                rocchio_alpha=float(rng.uniform(0, 2)),
                rocchio_beta=float(rng.uniform(0, 2)),
                rocchio_gamma=float(rng.uniform(0, 2)),
                m=int(rng.integers(1, 10)),
            )
            out = rocchio_update({"t0": float(rng.uniform(0, 1))}, pool, nr, idx, params)
            assert all(w >= 0.0 for w in out.values())


class TestERM:
    def test_lambda_one_equals_rm3(self):
        coll = make_collection([["a", "a", "b"], ["b", "c", "c"]])
        idx = build_index(coll)
        q = make_query(["a", "c"])
        pool = list(coll)
        model = toy_embeddings(np.eye(3), terms=["a", "b", "c"])
        params = FeedbackParams(m=5, alpha_interp=0.4)
        erm = estimate_erm(q, pool, idx, model, params, ErmParams(lambda_erm=1.0), mu=10.0)
        rm3 = estimate_rm3(q, pool, idx, params, mu=10.0)
        assert set(erm) == set(rm3)
        for t in rm3:
            assert erm[t] == pytest.approx(rm3[t], abs=1e-9)

    def test_shared_vector_gives_uniform_translation(self):
        # Every word has the same embedding: translation weights are uniform
        # over the neighbor set, so the translation likelihood reduces to a
        # uniform mixture of the pool MLEs.
        coll = make_collection([["a", "b"], ["b", "c"]])
        idx = build_index(coll)
        vectors = np.tile(np.array([[1.0, 2.0]]), (3, 1))
        model = toy_embeddings(vectors, terms=["a", "b", "c"])
        q = make_query(["a"])
        pool = list(coll)
        out = estimate_erm(q, pool, idx, model, FeedbackParams(m=5, alpha_interp=0.0),
                           ErmParams(lambda_erm=0.0), mu=10.0)
        # both passages share the same translation likelihood -> uniform doc
        # weights -> model = average of the two MLEs
        assert out["b"] == pytest.approx(0.5, abs=1e-9)
        assert out["a"] == pytest.approx(0.25, abs=1e-9)
        assert out["c"] == pytest.approx(0.25, abs=1e-9)

    def test_sigmoid_translation_hand_computation(self):
        from irflab.feedback import _translation_tables
        vectors = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        model = toy_embeddings(vectors, terms=["q", "same", "orth"])
        tables = _translation_tables(["q"], model, ErmParams(sigmoid_a=10.0, sigmoid_c=0.5, neighbors=3))
        t = tables["q"]
        sig5 = 1.0 / (1.0 + math.exp(-5.0))
        # cos(q, q) = cos(q, same) = 1 -> sigma(5); cos(q, orth) = 0 -> sigma(-5)
        total = 2 * sig5 + (1 - sig5)
        assert t["q"] == pytest.approx(sig5 / total, abs=1e-12)
        assert t["orth"] == pytest.approx((1 - sig5) / total, abs=1e-12)

    def test_translation_tables_built_once_per_model_and_params(self):
        from irflab.feedback import _translation_tables
        model = toy_embeddings(np.array([[1.0, 0.0], [0.8, 0.6], [0.0, 1.0]]), terms=["q", "near", "far"])
        erm = ErmParams(neighbors=3)
        first = _translation_tables(["q", "oov"], model, erm)
        assert set(first) == {"q"}
        assert _translation_tables(["q"], model, erm)["q"] is first["q"]
        assert _translation_tables(["q"], model, ErmParams(neighbors=3))["q"] is first["q"]
        narrow = _translation_tables(["q"], model, ErmParams(neighbors=2))["q"]
        assert list(narrow) == ["q", "near"]
        fresh = toy_embeddings(model.word_vectors, terms=["q", "near", "far"])
        assert _translation_tables(["q"], fresh, erm)["q"] == first["q"]

    def test_neighbors_tied_at_the_cut_are_taken_in_term_order(self):
        from irflab.feedback import _translation_tables
        rng = np.random.default_rng(11)
        for _ in range(40):
            # 25 words share one vector, so their cosines tie exactly, and the
            # vocabulary rows are not in term order
            n, dim = 60, 4
            vectors = rng.normal(size=(n, dim))
            vectors[rng.choice(n, size=25, replace=False)] = rng.normal(size=dim)
            terms = [f"w{int(i):02d}" for i in rng.permutation(n)]
            model = toy_embeddings(vectors, terms=terms)
            query = terms[0]
            unit = model.unit_word_vectors()
            sims = unit @ unit[model.vocab[query]]
            expected = sorted(range(n), key=lambda j: (-sims[j], terms[j]))[:10]
            table = _translation_tables([query], model, ErmParams(neighbors=10))[query]
            assert list(table) == [terms[j] for j in expected]

    def test_pure_translation_weights_hand_computation(self):
        # orthogonal unit vectors for x and y; sigma(a(cos - c)) with a=10,
        # c=0.5 gives T(x|x) = sigma(5), T(x|y) = sigma(-5), which already
        # sum to one. Pool D1="x", D2="y" under lambda_erm=0 yields document
        # weights (sigma(5), sigma(-5)) and the same final model.
        coll = make_collection([["x"], ["y"]])
        idx = build_index(coll)
        model = toy_embeddings(np.eye(2), terms=["x", "y"])
        out = estimate_erm(make_query(["x"]), list(coll), idx, model,
                           FeedbackParams(m=5, alpha_interp=0.0),
                           ErmParams(lambda_erm=0.0, sigmoid_a=10.0, sigmoid_c=0.5, neighbors=2),
                           mu=1.0)
        sig5 = 1.0 / (1.0 + math.exp(-5.0))
        assert out["x"] == pytest.approx(sig5, abs=1e-12)
        assert out["y"] == pytest.approx(1.0 - sig5, abs=1e-12)

    def test_oov_query_term_warns_and_skips(self, caplog):
        coll = make_collection([["a", "b"], ["b", "b"]])
        idx = build_index(coll)
        model = toy_embeddings(np.eye(2), terms=["a", "b"])
        q = make_query(["a", "mystery"])
        with caplog.at_level("WARNING"):
            out = estimate_erm(q, list(coll), idx, model,
                               FeedbackParams(m=5), ErmParams(lambda_erm=0.5), mu=10.0)
        assert any("not in embedding vocabulary" in r.message for r in caplog.records)
        check_query_model(out)

    def test_missing_model_rejected(self, tiny_index):
        _, idx = tiny_index
        with pytest.raises(ValueError, match="embedding model"):
            estimate_erm(make_query(["a"]), [passage("r", ["a"])], idx, None,
                         FeedbackParams(), ErmParams())


@st.composite
def estimator_cases(draw):
    """A random collection, query, relevant and non-relevant pools (the
    latter possibly empty), feedback parameters and an embedding model
    whose vocabulary misses some collection and query terms."""
    lists = draw(st.lists(st.lists(st.sampled_from("abcdefg"), min_size=1, max_size=10), min_size=2, max_size=15))
    coll = make_collection(lists)
    ids = list(coll.ids)
    judged = draw(st.lists(st.sampled_from(ids), min_size=1, max_size=len(ids), unique=True))
    cut = draw(st.integers(1, len(judged)))
    query = make_query(draw(st.lists(st.sampled_from("abcdxy"), min_size=1, max_size=5)))
    lambda_mix = draw(st.sampled_from([0.0, 0.3, 0.5, 0.8]))
    params = FeedbackParams(
        m=draw(st.integers(1, 10)), alpha_interp=draw(st.floats(0.0, 1.0)), lambda_mix=lambda_mix,
        lambda_nr=draw(st.sampled_from([0.0, 0.05, 0.15])), em_max_iters=draw(st.integers(1, 40)),
        rocchio_beta=draw(st.floats(0.0, 2.0)), rocchio_gamma=draw(st.floats(0.0, 2.0)))
    erm = ErmParams(lambda_erm=draw(st.floats(0.0, 1.0)), neighbors=draw(st.integers(1, 6)))
    vectors = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=(5, 3))
    mu = draw(st.sampled_from([1.0, 50.0, 1000.0]))
    return (coll, query, [coll[p] for p in judged[:cut]], [coll[p] for p in judged[cut:]], params, erm,
            toy_embeddings(vectors, terms=list("abcde")), mu)


class TestEstimatorOutputs:
    @settings(max_examples=200, deadline=None)
    @given(estimator_cases())
    def test_every_estimate_is_a_query_model(self, case):
        coll, query, rel, nonrel, params, erm, embeddings, mu = case
        idx = build_index(coll)
        cache = {}
        check_query_model(estimate_rm3(query, rel, idx, params, mu=mu))
        check_query_model(estimate_erm(query, rel, idx, embeddings, params, erm, mu=mu, cache=cache))
        check_query_model(estimate_distillation(query, rel, nonrel, idx, params))
        # rocchio's output is a tf-idf vector, not a distribution: only its sign is bound
        vec = rocchio_update({t: 1.0 for t in query.tokens}, rel, nonrel, idx, params)
        assert all(w >= 0.0 for w in vec.values())
