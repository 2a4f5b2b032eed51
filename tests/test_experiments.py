"""``experiments.sweep``, the query-major session sweep, and the session-step
memo its sessions share."""

from collections import Counter
from dataclasses import replace
from types import MappingProxyType

import numpy as np
import pytest

from irflab import experiments, simulation
from irflab.embeddings import EmbeddingModel, save_model
from irflab.feedback import FeedbackState, update_pools
from irflab.fusion import FusionConfig
from irflab.retrieval import rank_ql
from irflab.simulation import SessionConfig, _SessionModel, freeze_ranking, run_irf_session, write_trace
from irflab.synthgen import GeneratorConfig, generate, write_dataset

from conftest import make_query, ranking_of, session_of

METHODS = ["rm3", "distillation", "rocchio", "erm"]
MU_GRID = [30.0, 300.0, 1000.0]
K1_GRID = [1.2, 2.0]
SETTINGS = [[10, 1], [1, 10]]
# sessions score through the score functions and rank their arrays with _take_top
STEPS = ("ql_scores", "bm25_scores", "rocchio_scores", "estimate_rm3", "estimate_distillation",
         "rocchio_update", "estimate_erm", "fused_rank")


@pytest.fixture(scope="module")
def sweep_config(tmp_path_factory):
    """Six planted queries, a random pvc-shaped model over the corpus
    vocabulary, all four methods with mu and k1 grids, a non-relevant
    mixture component and pvc fusion."""
    root = tmp_path_factory.mktemp("sweep")
    collection, queries, qrels = generate(GeneratorConfig(
        num_queries=6, passages_per_query_relevant=5, num_noise_passages=80, vocab_size=96, seed=7))
    paths = write_dataset(root, collection, queries, qrels)
    vocab = {t: i for i, t in enumerate(sorted({t for p in collection for t in p.tokens}))}
    rng = np.random.default_rng(7)
    words = rng.standard_normal((len(vocab), 6))
    passages = np.stack([words[[vocab[t] for t in p.tokens]].mean(axis=0) for p in collection])
    save_model(EmbeddingModel(vocab=vocab, word_vectors=words, context_vectors=words.copy(), dim=6,
                              passage_vectors=passages, passage_ids=collection.ids),
               root / "model.emb")
    return {
        "schema_version": 1,
        "seed": 2,
        "output_dir": str(root / "out"),
        "corpus": {"passages": str(paths["corpus"]), "queries": str(paths["queries"]),
                   "qrels": str(paths["qrels"])},
        "tokenizer": {"stopwords": "none", "stemming": "none"},
        "retrieval": {"mu_grid": MU_GRID, "k1_grid": K1_GRID},
        "feedback": {"methods": METHODS, "m": 5, "lambda_nr": 0.3},
        "embeddings": {"model_path": str(root / "model.emb"), "representation_mode": "pvc"},
        "fusion": {"enabled": True, "lambda_sf": 2.0},
        "session": {"settings": SETTINGS},
        "evaluation": {"metrics": ["map100"], "folds": 3},
    }


def _count_steps(monkeypatch) -> Counter:
    counts = Counter()
    for name in STEPS:
        def counted(*args, _call=getattr(simulation, name), _name=name, **kwargs):
            counts[_name] += 1
            return _call(*args, **kwargs)
        monkeypatch.setattr(simulation, name, counted)
    return counts


class TestSweep:
    def test_every_point_equals_a_fresh_session(self, sweep_config, tmp_path, monkeypatch):
        calls = []

        def recorded(query, qrels, cfg, ctx, memo=None):
            result = run_irf_session(query, qrels, cfg, ctx, memo=memo)
            calls.append((query, qrels, cfg, ctx, result))
            return result

        monkeypatch.setattr(experiments, "run_irf_session", recorded)
        counts = _count_steps(monkeypatch)
        experiments.irf_experiment(dict(sweep_config, output_dir=str(tmp_path)))
        points = {m: len(K1_GRID) if m == "rocchio" else len(MU_GRID) for m in METHODS}
        assert len(calls) == sum(points.values()) * len(SETTINGS) * 6
        assert {(c[2].rf_method, c[3].retrieval.mu, c[3].retrieval.k1) for c in calls} == (
            {(m, mu, 1.2) for m in ("rm3", "distillation", "erm") for mu in MU_GRID}
            | {("rocchio", 1000.0, k1) for k1 in K1_GRID})
        swept = counts.copy()
        counts.clear()
        for query, qrels, cfg, ctx, result in calls:
            assert session_of(run_irf_session(query, qrels, cfg, ctx)) == session_of(result)
        # the memo was used: sessions at different points shared steps
        for name in ("estimate_distillation", "rocchio_scores", "rocchio_update", "fused_rank"):
            assert swept[name] < counts[name], name

    def test_no_memo_outlives_an_experiment(self, sweep_config, tmp_path, monkeypatch):
        counts = _count_steps(monkeypatch)
        experiments.irf_experiment(dict(sweep_config, output_dir=str(tmp_path / "a")))
        first = counts.copy()
        counts.clear()
        experiments.irf_experiment(dict(sweep_config, output_dir=str(tmp_path / "b")))
        assert counts == first
        assert first["estimate_distillation"] > 0
        for path in sorted((tmp_path / "a").iterdir()):
            assert path.read_bytes() == (tmp_path / "b" / path.name).read_bytes(), path.name


@pytest.fixture(scope="module")
def engine(sweep_config):
    return experiments.load_engine(sweep_config)


class TestMixedSweep:
    """One memo per query across methods, settings, parameters and fusion,
    as C8 runs its sessions; run-irf's sweeps mix only grid points."""

    @pytest.fixture(scope="class")
    def sessions(self, engine):
        ctx = engine.ctx
        fusion = FusionConfig(lambda_sf=2.0, representation_mode="pvc")
        out = []
        for per_iter, iterations in SETTINGS:
            for method in METHODS:
                out.append((ctx, SessionConfig(per_iter=per_iter, iterations=iterations, rf_method=method)))
            out.append((replace(ctx, retrieval=replace(ctx.retrieval, mu=MU_GRID[0])),
                        SessionConfig(per_iter=per_iter, iterations=iterations, rf_method="rm3")))
            out.append((ctx, SessionConfig(per_iter=per_iter, iterations=iterations, rf_method="rm3",
                                           fusion=fusion)))
        return out

    def test_every_session_equals_a_fresh_one(self, engine, sessions, tmp_path):
        swept = experiments.sweep(engine, sessions)
        assert len(swept) == len(sessions)
        for (ctx, scfg), results in zip(sessions, swept):
            assert list(results) == [q.query_id for q in engine.queries]
            fresh = [run_irf_session(query, engine.qrels, scfg, ctx) for query in engine.queries]
            for result, (got, ids) in zip(fresh, results.values()):
                assert ids == freeze_ranking(result.frozen)
                assert session_of(got) == session_of(result)
            write_trace(tmp_path / "swept.jsonl", [got for got, _ in results.values()])
            write_trace(tmp_path / "fresh.jsonl", fresh)
            rows = (tmp_path / "swept.jsonl").read_bytes()
            assert rows and rows == (tmp_path / "fresh.jsonl").read_bytes()

    def test_results_do_not_depend_on_the_order_of_sessions(self, engine, sessions):
        def comparable(swept):
            return [{qid: (ids, session_of(result)) for qid, (result, ids) in results.items()}
                    for results in swept]

        forward = comparable(experiments.sweep(engine, sessions))
        order = np.random.default_rng(3).permutation(len(sessions))
        shuffled = comparable(experiments.sweep(engine, [sessions[i] for i in order]))
        assert [shuffled[j] for j in np.argsort(order)] == forward
        assert comparable(experiments.sweep(engine, sessions[::-1]))[::-1] == forward


class TestSessionMemo:
    def test_hits_return_the_same_read_only_mapping(self, engine):
        query = engine.queries[0]
        ranked = rank_ql({t: 1.0 / len(query.tokens) for t in query.tokens}, engine.ctx.index,
                         engine.ctx.retrieval, 4)
        state = update_pools(FeedbackState(), [(pid, True) for pid in ranked.ids()])
        memo: dict = {}
        for method in ("rm3", "rocchio"):
            models = []
            for _ in range(3):  # a miss, then two hits
                model = _SessionModel(query, method, engine.ctx, memo)
                models.append(model.weights(state))
            assert models[0] is models[1] is models[2]
            assert isinstance(models[0], MappingProxyType)
            stored = [key for key, value in memo.items() if value is models[0]]
            assert len(stored) == 1
            before = dict(models[0])
            term = next(iter(before))
            with pytest.raises(TypeError):
                models[1][term] = 0.0
            with pytest.raises(TypeError):
                models[1]["not-a-term"] = 1.0
            assert memo[stored[0]] is models[0] and dict(memo[stored[0]]) == before
            assert model.weights(state) is models[0] and dict(models[0]) == before

    def test_rank_key_keeps_the_model_order(self, engine, monkeypatch):
        # rank_ql sums the terms in the model's order; two orders of the same
        # weights can differ in the last bit and must not share a memo entry
        ctx = engine.ctx
        query = engine.queries[0]
        terms = [t for t in ctx.index.terms if ctx.index.df[ctx.index.term_ids[t]] > 3][:12]
        rng = np.random.default_rng(0)
        for _ in range(50):
            weights = rng.dirichlet(np.ones(len(terms))).tolist()
            forward = dict(zip(terms, weights))
            backward = dict(reversed(list(forward.items())))
            fresh = [rank_ql(m, ctx.index, ctx.retrieval, 20, query_id=query.query_id)
                     for m in (forward, backward)]
            if fresh[0].entries != fresh[1].entries:
                break
        else:
            pytest.fail("no model whose ranking depends on the term order")
        memo: dict = {}
        for model_dict, expected in zip((forward, backward), fresh):
            model = _SessionModel(query, "rm3", ctx, memo)
            monkeypatch.setattr(model, "weights", lambda state, weights=MappingProxyType(model_dict): weights)
            assert ranking_of(model.rank(FeedbackState(), 20, None)) == ranking_of(expected)

    def test_memo_belongs_to_one_query(self, engine):
        memo: dict = {}
        run_irf_session(engine.queries[0], engine.qrels,
                        simulation.SessionConfig(per_iter=2, iterations=2), engine.ctx, memo=memo)
        with pytest.raises(ValueError, match="one query"):
            run_irf_session(engine.queries[1], engine.qrels,
                            simulation.SessionConfig(per_iter=2, iterations=2), engine.ctx, memo=memo)
        with pytest.raises(ValueError, match="one query"):
            _SessionModel(make_query(list(engine.queries[0].tokens), qid="other"), "rm3", engine.ctx, memo)
