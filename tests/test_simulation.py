"""Session mechanics, freezing construction, and the one-feedback experiment."""

import dataclasses
import json
import tempfile
from collections import Counter
from pathlib import Path
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from irflab.corpus import Judgments
from irflab.embeddings import EmbeddingModel
from irflab.feedback import ErmParams
from irflab.fusion import FusionConfig, fused_rank
from irflab.feedback import FeedbackParams
from irflab.index import build_index
from irflab.retrieval import RankedList, RetrievalParams, rank_bm25, rank_ql, rank_rocchio
from irflab.feedback import FeedbackState, query_mle, estimate_rm3, update_pools
from irflab import simulation
from irflab.simulation import (
    BUDGET_SETTINGS,
    EngineContext,
    FrozenRanking,
    SessionConfig,
    SessionResult,
    TraceStep,
    _SessionModel,
    freeze_ranking,
    run_irf_session,
    run_one_rel_experiment,
    write_trace,
)

from conftest import make_collection, make_query, random_token_lists, ranking_of, session_of, shown_of, shuffled_collection


def planted_context(rng, n_passages=40, vocab=10, n_relevant=8, qid="q0"):
    """Small corpus with a planted topic in the relevant passages."""
    lists = random_token_lists(rng, n_passages, vocab, min_len=4, max_len=10)
    judgments = Judgments()
    rel_positions = rng.choice(n_passages, size=n_relevant, replace=False)
    for pos in rel_positions:
        lists[pos] = lists[pos] + ["topic", "topic"]
        judgments.add(qid, f"p{pos:03d}", 1)
    coll = make_collection(lists)
    ctx = EngineContext(
        collection=coll,
        index=build_index(coll),
        retrieval=RetrievalParams(mu=10.0),
        feedback=FeedbackParams(m=5, alpha_interp=0.5),
    )
    query = make_query(["topic", "t1"], qid=qid)
    return ctx, query, judgments


class TestSessionBasics:
    def test_single_iteration_is_top_k_feedback(self, rng):
        ctx, query, qrels = planted_context(rng)
        cfg = SessionConfig(per_iter=10, iterations=1, rf_method="rm3")
        result = run_irf_session(query, qrels, cfg, ctx)
        frozen = result.frozen
        assert frozen.shown_blocks[:-1] == ()
        assert len(frozen.shown_blocks) == 1 and len(frozen.shown_blocks[0]) == 10
        # the shown block is exactly the initial retrieval's top 10
        initial = rank_ql(query_mle(query), ctx.index, ctx.retrieval, 10)
        assert frozen.shown_blocks[0] == initial.ids()
        assert not set(frozen.tail.ids()) & shown_of(frozen)

    def test_single_iteration_tail_matches_batch_estimator(self, rng):
        ctx, query, qrels = planted_context(rng)
        cfg = SessionConfig(per_iter=10, iterations=1, rf_method="rm3")
        result = run_irf_session(query, qrels, cfg, ctx)
        shown = list(result.frozen.shown_blocks[0])
        rel = [ctx.collection[p] for p in shown if qrels.is_relevant("q0", p)]
        model = (estimate_rm3(query, rel, ctx.index, ctx.feedback, mu=ctx.retrieval.mu)
                 if rel else query_mle(query))
        expected = rank_ql(model, ctx.index, ctx.retrieval, 110, exclude=set(shown), query_id="q0")
        assert result.frozen.tail.entries == expected.entries

    def test_five_iterations_freeze_eight(self, rng):
        ctx, query, qrels = planted_context(rng)
        cfg = SessionConfig(per_iter=2, iterations=5, rf_method="rm3")
        result = run_irf_session(query, qrels, cfg, ctx)
        assert sum(len(block) for block in result.frozen.shown_blocks[:-1]) == (5 - 1) * 2
        assert len(shown_of(result.frozen)) == 10

    def test_relevant_top_passage_never_reappears(self, rng):
        ctx, query, qrels = planted_context(rng)
        cfg = SessionConfig(per_iter=1, iterations=3, rf_method="rm3")
        result = run_irf_session(query, qrels, cfg, ctx)
        first = result.frozen.shown_blocks[0][0]
        for block in result.frozen.shown_blocks[1:]:
            assert first not in block
        assert first not in result.frozen.tail.ids()

    def test_freeze_ranking_layout(self, rng):
        ctx, query, qrels = planted_context(rng)
        cfg = SessionConfig(per_iter=2, iterations=3, rf_method="rm3")
        result = run_irf_session(query, qrels, cfg, ctx)
        full = freeze_ranking(result.frozen)
        for i, block in enumerate(result.frozen.shown_blocks):
            n = cfg.per_iter
            # block of iteration i occupies ranks i*N+1 .. (i+1)*N (1-based)
            assert full[i * n:(i + 1) * n] == block
        assert len(full) == len(set(full))

    def test_session_is_deterministic(self, rng):
        ctx, query, qrels = planted_context(rng)
        cfg = SessionConfig(per_iter=2, iterations=5, rf_method="distillation")
        a = run_irf_session(query, qrels, cfg, ctx)
        b = run_irf_session(query, qrels, cfg, ctx)
        assert session_of(a) == session_of(b)

    def test_rocchio_session_runs_bm25_first(self, rng):
        ctx, query, qrels = planted_context(rng)
        cfg = SessionConfig(per_iter=2, iterations=2, rf_method="rocchio")
        result = run_irf_session(query, qrels, cfg, ctx)
        from irflab.retrieval import rank_bm25
        initial = rank_bm25(query, ctx.index, ctx.retrieval, 2)
        assert result.frozen.shown_blocks[0] == initial.ids()

    def test_early_exhaustion_shortens_prefix(self, rng, caplog):
        lists = [["topic", "x"], ["topic", "y"], ["z", "w"]]
        judgments = Judgments()
        judgments.add("q0", "p000", 1)
        coll = make_collection(lists)
        ctx = EngineContext(
            collection=coll, index=build_index(coll),
            retrieval=RetrievalParams(mu=10.0), feedback=FeedbackParams(m=5),
        )
        cfg = SessionConfig(per_iter=2, iterations=5, rf_method="rm3")
        with caplog.at_level("WARNING"):
            result = run_irf_session(make_query(["topic"], "q0"), judgments, cfg, ctx)
        assert result.frozen.early_exhausted
        assert len(shown_of(result.frozen)) == 3  # corpus exhausted
        assert any("ending session early" in r.message for r in caplog.records)
        assert len(result.frozen.tail) == 0

    def test_trace_written_as_json_lines(self, rng, tmp_path):
        ctx, query, qrels = planted_context(rng)
        result = run_irf_session(query, qrels, SessionConfig(per_iter=2, iterations=2, rf_method="rm3"), ctx)
        path = tmp_path / "trace.jsonl"
        write_trace(path, [result])
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(rows) == 2
        assert rows[0]["iteration"] == 0
        assert rows[0]["query_id"] == "q0"
        assert len(rows[0]["shown"]) == 2

    def test_budget_settings_cover_protocol(self):
        assert BUDGET_SETTINGS == ((10, 1), (5, 2), (2, 5), (1, 10))
        assert all(n * i == 10 for n, i in BUDGET_SETTINGS)


def sorted_summary(weights):
    """Reference trace summary: the full sort, cut to ten."""
    top = sorted(weights.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
    return {t: round(w, 6) for t, w in top}


def written_rows(results):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.jsonl"
        write_trace(path, results)
        return [json.loads(line) for line in path.read_text().splitlines()]


# exact ties, and weights that differ below the sixth place, so round alike
trace_weights = st.one_of(
    st.sampled_from([0.5, 0.25, 0.1, 1 / 3, 1e-7, 0.0]),
    st.builds(lambda base, nudge: base + nudge, st.sampled_from([0.1, 0.123456, 0.4]),
              st.sampled_from([0.0, 1e-9, -1e-9, 2.5e-8, 4.9e-7])),
    st.floats(0.0, 1.0),
)


class TestTraceSummaries:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.dictionaries(st.text("abcdefgh", min_size=1, max_size=2), trace_weights,
                                    min_size=1, max_size=25), min_size=1, max_size=4))
    def test_written_model_is_the_sorted_summary(self, models):
        steps = [TraceStep(((f"p{i}", i % 2 == 0), (f"n{i}", False)), MappingProxyType(dict(weights)))
                 for i, weights in enumerate(models)]
        before = [(step.judged, step.weights, tuple(step.weights.items())) for step in steps]
        result = SessionResult(FrozenRanking("q3", (), RankedList("q3", ())), list(steps))
        rows = written_rows([result])
        assert [row["model"] for row in rows] == [sorted_summary(weights) for weights in models]
        assert [row["iteration"] for row in rows] == list(range(len(models)))
        assert all(row["query_id"] == "q3" for row in rows)
        assert [row["shown"] for row in rows] == [[f"p{i}", f"n{i}"] for i in range(len(models))]
        assert [row["judgments"] for row in rows] == [{f"p{i}": i % 2 == 0, f"n{i}": False}
                                                      for i in range(len(models))]
        # writing renders; the steps are left as they were
        assert result.trace == steps
        for step, (judged, weights, items) in zip(steps, before):
            assert step.judged is judged and step.weights is weights
            assert tuple(step.weights.items()) == items

    @pytest.mark.parametrize("method", ["rm3", "rocchio"])
    def test_session_trace_renders_sorted_summaries(self, method, rng):
        ctx, query, qrels = planted_context(rng, n_passages=60, vocab=30, n_relevant=6)
        ctx = dataclasses.replace(ctx, feedback=FeedbackParams(m=20))  # models of more than ten terms
        cfg = SessionConfig(per_iter=1, iterations=10, rf_method=method)
        memo: dict = {}
        first = run_irf_session(query, qrels, cfg, ctx, memo)
        again = run_irf_session(query, qrels, cfg, ctx, memo)  # every model a memo hit
        assert first.trace == again.trace
        assert all(a.weights is b.weights for a, b in zip(first.trace, again.trace))
        assert all(isinstance(step.weights, MappingProxyType) for step in first.trace)
        rows = written_rows([first])
        assert [row["model"] for row in rows] == [sorted_summary(step.weights) for step in first.trace]
        assert max(len(step.weights) for step in first.trace) > 10
        assert len(rows[-1]["model"]) == 10
        if method == "rm3":
            # a non-relevant judgment keeps the rm3 model: the same mapping
            assert any(a.weights is b.weights for a, b in zip(first.trace, first.trace[1:]))


class TestSessionInvariants:
    @pytest.mark.parametrize("method", ["rm3", "distillation", "rocchio"])
    def test_shown_monotone_and_unique_across_methods(self, method, rng):
        for trial in range(8):
            ctx, query, qrels = planted_context(rng, n_passages=30, n_relevant=6)
            n, iters = [(1, 10), (2, 5), (5, 2), (10, 1)][trial % 4]
            cfg = SessionConfig(per_iter=n, iterations=iters, rf_method=method)
            result = run_irf_session(query, qrels, cfg, ctx)
            frozen = result.frozen
            seen = []
            for block in frozen.shown_blocks:
                for pid in block:
                    assert pid not in seen
                    seen.append(pid)
            assert not set(frozen.tail.ids()) & set(seen)


@st.composite
def freezing_cases(draw):
    """A shuffled-id collection of 4-25 passages with a planted topic in
    the relevant ones, an embedding model over it, and a session setting:
    any method, fused or not, a fixed or the default depth."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    n = draw(st.integers(4, 25))
    lists = random_token_lists(rng, n, 6, min_len=1, max_len=6)
    order = rng.permutation(n)
    relevant = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n // 2))
    for i in relevant:
        lists[i] = lists[i] + ["topic"]
    coll = shuffled_collection(lists, order)
    qrels = Judgments()
    for i in relevant:
        qrels.add("q0", coll.ids[i], 1)
    vocab = sorted({t for p in coll for t in p.tokens})
    emb = EmbeddingModel(
        vocab={t: i for i, t in enumerate(vocab)},
        word_vectors=rng.normal(size=(len(vocab), 4)),
        context_vectors=np.zeros((len(vocab), 4)),
        dim=4,
        passage_vectors=rng.integers(-1, 2, size=(n, 4)).astype(float),
        passage_ids=coll.ids,
    )
    ctx = EngineContext(collection=coll, index=build_index(coll), retrieval=RetrievalParams(mu=10.0),
                        feedback=FeedbackParams(m=4, alpha_interp=0.5), erm=ErmParams(lambda_erm=0.5),
                        embeddings=emb)
    fusion = draw(st.sampled_from([None, FusionConfig(lambda_sf=1.5, representation_mode="pvc"),
                                   FusionConfig(lambda_sf=40.0, representation_mode="pv")]))
    cfg = SessionConfig(per_iter=draw(st.integers(1, 4)), iterations=draw(st.integers(1, 4)),
                        rf_method=draw(st.sampled_from(["rm3", "distillation", "rocchio", "erm"])),
                        fusion=fusion, depth=draw(st.sampled_from([None, 3, 8])))
    return ctx, make_query(["topic", "t1"], qid="q0"), qrels, cfg


class TestFreezingProperty:
    @settings(max_examples=120, deadline=None)
    @given(freezing_cases())
    def test_shown_blocks_keep_their_presentation_ranks(self, case):
        ctx, query, qrels, cfg = case
        frozen = run_irf_session(query, qrels, cfg, ctx).frozen
        blocks, n = frozen.shown_blocks, cfg.per_iter
        full = freeze_ranking(frozen)
        assert len(full) == len(set(full))
        # block i sits at ranks i*N+1 .. (i+1)*N, ahead of the tail
        assert all(len(block) == n for block in blocks[:-1])
        for i, block in enumerate(blocks):
            assert full[i * n:i * n + len(block)] == block
        assert full[sum(map(len, blocks)):] == frozen.tail.ids()
        assert not set(frozen.tail.ids()) & shown_of(frozen)
        # later iterations never move a shown block: a session stopped after
        # i iterations shows the same first i blocks, and its tail, ranked
        # from the same judgments, opens with block i
        for i in range(1, len(blocks)):
            shorter = run_irf_session(query, qrels, dataclasses.replace(cfg, iterations=i), ctx).frozen
            assert shorter.shown_blocks == blocks[:i]
            assert shorter.tail.head(n) == blocks[i]


def reference_rank(model, state, depth, fusion):
    """Oracle: the session ranking before scores and tops were memoized
    apart, with no memo; every ranking taken at the full depth."""
    ctx, qid, weights = model.ctx, model.query.query_id, model.weights(state)
    if model.method in simulation.LM_METHODS:
        ranked = rank_ql(weights, ctx.index, ctx.retrieval, depth, state.shown, query_id=qid)
    elif not state.shown:
        ranked = rank_bm25(model.query, ctx.index, ctx.retrieval, depth, state.shown)
    else:
        ranked = rank_rocchio(weights, ctx.index, depth, state.shown, query_id=qid)
    if fusion is None or not state.relevant_pool:
        return ranked
    return fused_rank(ranked, state, ctx.embeddings, fusion, ctx.collection, ctx.index)


def reference_session(query, qrels, cfg, ctx):
    """Oracle: the session loop ranking at depth 100 + shown (or the fixed
    depth) every iteration and reading the first per_iter rows."""
    state = FeedbackState()
    model = _SessionModel(query, cfg.rf_method, ctx, {})
    blocks, trace, early = [], [], False
    for iteration in range(cfg.iterations):
        depth = cfg.depth if cfg.depth is not None else 100 + len(state.shown)
        block = reference_rank(model, state, depth, cfg.fusion).ids()[:cfg.per_iter]
        early = len(block) < cfg.per_iter
        if not block:
            break
        judged = [(pid, qrels.is_relevant(query.query_id, pid)) for pid in block]
        state = update_pools(state, judged)
        blocks.append(block)
        trace.append(TraceStep(tuple(judged), model.weights(state)))
        if early:
            break
    depth = cfg.depth if cfg.depth is not None else 100 + len(state.shown)
    tail = reference_rank(model, state, depth, cfg.fusion)
    return FrozenRanking(query.query_id, tuple(blocks), tail, early), trace


class TestHeadOnlyRankings:
    @settings(max_examples=150, deadline=None)
    @given(freezing_cases(), st.sampled_from([None, 1, 2, 3, 8]))
    def test_session_equals_full_depth_loop(self, case, depth):
        ctx, query, qrels, cfg = case
        cfg = dataclasses.replace(cfg, depth=depth)  # below per_iter: sessions end early
        result = run_irf_session(query, qrels, cfg, ctx)
        frozen, trace = reference_session(query, qrels, cfg, ctx)
        assert result.frozen.shown_blocks == frozen.shown_blocks
        assert result.frozen.early_exhausted == frozen.early_exhausted
        assert repr(result.frozen.tail.entries) == repr(frozen.tail.entries)
        assert result.trace == trace

    def test_model_kept_after_a_nonrelevant_judgment_is_scored_once(self, rng, monkeypatch):
        ctx, query, qrels = planted_context(rng, n_relevant=3)
        scored, ranked = Counter(), []
        ql_scores, take_top = simulation.ql_scores, simulation._take_top

        def counted_scores(model, index, params):
            scored[(tuple(model.items()), params.mu)] += 1
            return ql_scores(model, index, params)

        def counted_top(index, scores, exclude, depth, query_id):
            ranked.append(depth)
            return take_top(index, scores, exclude, depth, query_id)

        monkeypatch.setattr(simulation, "ql_scores", counted_scores)
        monkeypatch.setattr(simulation, "_take_top", counted_top)
        result = run_irf_session(query, qrels, SessionConfig(per_iter=1, iterations=10, rf_method="rm3"), ctx)
        judgments = [rel for step in result.trace for _, rel in step.judged]
        assert any(judgments) and not all(judgments)
        # every distinct (model, mu) once; the rankings it serves differ in
        # their excluded sets, and the in-loop ones read one row
        assert set(scored.values()) == {1}
        assert len(scored) < len(ranked) == 11
        assert ranked == [1] * 10 + [110]


class TestOneRel:
    def test_fed_passage_never_in_output(self, rng):
        ctx, query, qrels = planted_context(rng)
        draws = run_one_rel_experiment(query, qrels, "rm3", ctx, draws=10, seed=4)
        assert len(draws) == 10
        for d in draws:
            assert d.fed_passage not in d.ranking.ids()

    def test_topics_are_query_draw_pairs(self, rng):
        ctx, query, qrels = planted_context(rng)
        draws = run_one_rel_experiment(query, qrels, "ql", ctx, draws=3, seed=1)
        assert [d.topic_id for d in draws] == ["q0.d0", "q0.d1", "q0.d2"]
        assert all(d.ranking.query_id == d.topic_id for d in draws)

    def test_single_relevant_query_skipped(self, rng, caplog):
        lists = random_token_lists(rng, 10, 6)
        coll = make_collection(lists)
        qrels = Judgments()
        qrels.add("q0", "p000", 1)
        ctx = EngineContext(collection=coll, index=build_index(coll),
                            retrieval=RetrievalParams(mu=10.0), feedback=FeedbackParams())
        with caplog.at_level("WARNING"):
            draws = run_one_rel_experiment(make_query(["t0"], "q0"), qrels, "rm3", ctx, draws=10, seed=0)
        assert draws == []
        assert any("skipped" in r.message for r in caplog.records)

    def test_same_seed_same_draws(self, rng):
        ctx, query, qrels = planted_context(rng)
        a = run_one_rel_experiment(query, qrels, "rocchio", ctx, draws=5, seed=9)
        b = run_one_rel_experiment(query, qrels, "rocchio", ctx, draws=5, seed=9)
        assert [d.fed_passage for d in a] == [d.fed_passage for d in b]
        assert all(x.ranking.entries == y.ranking.entries for x, y in zip(a, b))

    def test_baseline_ranking_ignores_feedback(self, rng):
        ctx, query, qrels = planted_context(rng)
        draws = run_one_rel_experiment(query, qrels, "ql", ctx, draws=2, seed=3)
        expected = rank_ql(query_mle(query), ctx.index, ctx.retrieval, 101,
                           exclude={draws[0].fed_passage}, query_id="q0")
        assert draws[0].ranking.entries == expected.entries

    def test_unknown_method_rejected(self, rng):
        ctx, query, qrels = planted_context(rng)
        with pytest.raises(ValueError, match="unknown method"):
            run_one_rel_experiment(query, qrels, "pagerank", ctx)

    @pytest.mark.parametrize("baseline", ["ql", "bm25"])
    def test_baselines_and_first_rankings_equal_rank_ql_and_rank_bm25(self, rng, monkeypatch, baseline):
        ctx, query, qrels = planted_context(rng)
        coll = ctx.collection
        ctx = dataclasses.replace(ctx, embeddings=EmbeddingModel(
            vocab={"stub": 0}, word_vectors=np.zeros((1, 4)), context_vectors=np.zeros((1, 4)), dim=4,
            passage_vectors=rng.normal(size=(len(coll), 4)), passage_ids=coll.ids))
        fused = []
        monkeypatch.setattr(simulation, "fused_rank", lambda *args, **kwargs: fused.append(args))

        def oracle(depth, exclude=frozenset()):
            """A baseline's ranking as rank_ql and rank_bm25 give it."""
            if baseline == "ql":
                return rank_ql(query_mle(query), ctx.index, ctx.retrieval, depth, exclude, query_id="q0")
            return rank_bm25(query, ctx.index, ctx.retrieval, depth, exclude)

        for fusion in (None, FusionConfig(lambda_sf=2.0, representation_mode="pv")):
            draws = run_one_rel_experiment(query, qrels, baseline, ctx, fusion=fusion, draws=6, seed=5)
            assert len({d.fed_passage for d in draws}) > 1
            for d in draws:
                assert ranking_of(d.ranking) == (d.topic_id, oracle(101, {d.fed_passage}).entries)
        assert not fused
        starts_from = {"ql": ("ql",) + simulation.LM_METHODS, "bm25": ("bm25",) + simulation.VSM_METHODS}[baseline]
        for method in starts_from:
            for depth in (1, 100):
                assert ranking_of(simulation.initial_ranking(query, method, ctx, depth)) == ranking_of(oracle(depth))

    def test_fusion_and_erm_paths(self, rng):
        import dataclasses
        from irflab.embeddings import EmbeddingModel
        from irflab.feedback import ErmParams
        from irflab.fusion import FusionConfig

        ctx, query, qrels = planted_context(rng)
        coll = ctx.collection
        vocab = sorted({t for p in coll for t in p.tokens})
        emb = EmbeddingModel(
            vocab={t: i for i, t in enumerate(vocab)},
            word_vectors=rng.normal(size=(len(vocab), 6)),
            context_vectors=np.zeros((len(vocab), 6)),
            dim=6,
            passage_vectors=rng.normal(size=(len(coll), 6)),
            passage_ids=coll.ids,
        )
        ctx = dataclasses.replace(ctx, embeddings=emb, erm=ErmParams(lambda_erm=0.5))
        fusion = FusionConfig(lambda_sf=2.0, representation_mode="pv")
        for method in ("erm", "rocchio"):
            draws = run_one_rel_experiment(query, qrels, method, ctx,
                                           fusion=fusion, draws=3, seed=2)
            assert len(draws) == 3
            for d in draws:
                assert d.fed_passage not in d.ranking.ids()

    def test_fused_session_runs_end_to_end(self, rng):
        import dataclasses
        from irflab.embeddings import EmbeddingModel
        from irflab.fusion import FusionConfig

        ctx, query, qrels = planted_context(rng)
        coll = ctx.collection
        emb = EmbeddingModel(
            vocab={"stub": 0},
            word_vectors=np.zeros((1, 4)),
            context_vectors=np.zeros((1, 4)),
            dim=4,
            passage_vectors=rng.normal(size=(len(coll), 4)),
            passage_ids=coll.ids,
        )
        ctx = dataclasses.replace(ctx, embeddings=emb)
        cfg = SessionConfig(per_iter=2, iterations=3, rf_method="rm3",
                            fusion=FusionConfig(lambda_sf=1.5, representation_mode="pv"))
        result = run_irf_session(query, qrels, cfg, ctx)
        assert len(shown_of(result.frozen)) == 6
        assert not set(result.frozen.tail.ids()) & shown_of(result.frozen)

    def test_fusion_without_model_rejected(self, rng):
        from irflab.fusion import FusionConfig
        ctx, query, qrels = planted_context(rng)
        cfg = SessionConfig(per_iter=2, iterations=2, rf_method="rm3",
                            fusion=FusionConfig(lambda_sf=1.0, representation_mode="pvc"))
        with pytest.raises(ValueError, match="embedding model"):
            run_irf_session(query, qrels, cfg, ctx)
