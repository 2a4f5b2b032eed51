"""Acceptance criteria, one test per criterion.

Each test records a PASS, FAIL or SKIP line that the conftest hook prints
in the terminal summary. The directional-replication criterion (8) drives
the full pipeline on ten seeded synthetic corpora and takes a few minutes;
the full-collection criterion (9) is informational and runs only when
IRFLAB_WEBAP_DIR / IRFLAB_PSGROBUST_DIR are set.
"""

import logging
import os
import time
from pathlib import Path

import numpy as np
import pytest

from irflab.corpus import Judgments, TokenizerConfig, ingest_corpus, load_qrels, load_queries
from irflab.embeddings import TrainConfig, _corrupted_rep, train_pv_hdc
from irflab.evaluation import _exhaustive_p, _sampled_p, evaluate_ranking, fisher_randomization
from irflab.feedback import (
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
from irflab.fusion import FusionConfig, fused_rank
from irflab.index import build_index
from irflab.experiments import Engine, score_rankings, score_sessions, sweep
from irflab.retrieval import RetrievalParams, rank_rocchio
from irflab.simulation import (
    EngineContext,
    SessionConfig,
    freeze_ranking,
    initial_ranking,
    run_irf_session,
    run_one_rel_experiment,
)
from irflab.synthgen import GeneratorConfig, generate

from conftest import make_collection, make_query, random_token_lists, ranked_over, record_acceptance
from test_embeddings import corrupted_word_error, ns_rows_errors, position_rows
from test_evaluation import oracle_metric
from test_feedback import brute_force_em, toy_embeddings

logging.disable(logging.WARNING)


def test_c1_metric_oracle_equivalence(rng):
    """map100/ndcg20/p1/mrr match a brute-force oracle on 1000 random rankings."""
    start = time.time()
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 201))
        ranking = [f"p{i}" for i in range(n)]
        rng.shuffle(ranking)
        relevant = {f"p{i}" for i in range(n) if rng.random() < 0.25} or {"p0"}
        for metric in ("map100", "ndcg20", "p1", "mrr"):
            got = evaluate_ranking(ranking, relevant, metric)
            want = oracle_metric(ranking, relevant, metric)
            worst = max(worst, abs(got - want))
    elapsed = time.time() - start
    ok = worst <= 1e-9 and elapsed < 10.0
    record_acceptance("1 metric oracle equivalence", ok,
                      f"max |diff| {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-9
    assert elapsed < 10.0


def test_c2_gradient_checks(rng):
    """The trainers' row kernel, _ns_rows, matches central finite differences:
    word side (head = 0), passage side with a pv vector (head >= 1), and a
    corrupted representation's gradient as applied to the kept word rows."""
    start = time.time()
    worst = 0.0
    for head_side in (False, True):  # skip-gram rows; pv rows
        for _ in range(100):
            d = int(rng.integers(3, 12))
            k = int(rng.integers(1, 8))
            head = 1 + k if head_side else 0
            G, y = position_rows(rng, d, k, int(rng.integers(0 if head else 1, 3)), head)
            rep = rng.normal(size=d) if head else None
            worst = max(worst, *ns_rows_errors(G, y, head, rep, rng.normal(size=d)))
    for _ in range(100):  # pvc: the representation drawn by _corrupted_rep
        q = float(rng.choice([0.0, 0.5, 0.9]))
        worst = max(worst, corrupted_word_error(rng, int(rng.integers(3, 8)), int(rng.integers(1, 5)),
                                                int(rng.integers(0, 3)), q))
    elapsed = time.time() - start
    ok = worst < 1e-4 and elapsed < 30.0
    record_acceptance("2 gradient checks", ok, f"max rel err {worst:.2e}, {elapsed:.1f}s")
    assert worst < 1e-4
    assert elapsed < 30.0


def test_c3_em_monotonic_and_oracle(rng):
    """EM log-likelihood never decreases; two iterations match the oracle."""
    # the estimator asserts non-decreasing likelihood internally each step
    for _ in range(100):
        vocab = [f"v{i}" for i in range(int(rng.integers(2, 11)))]
        lists = [
            [vocab[int(j)] for j in rng.integers(0, len(vocab), size=int(rng.integers(2, 10)))]
            for _ in range(6)
        ]
        coll = make_collection(lists)
        idx = build_index(coll)
        pool = [tuple(coll)[int(i)] for i in rng.choice(6, size=int(rng.integers(1, 6)), replace=False)]
        lam_mix = float(rng.uniform(0.0, 0.7))
        lam_nr = float(rng.uniform(0.0, 0.9 - lam_mix))
        nr = [tuple(coll)[-1]] if lam_nr > 0 else []
        params = FeedbackParams(alpha_interp=0.3, lambda_mix=lam_mix, lambda_nr=lam_nr,
                                em_max_iters=30, em_tol=0.0, m=50)
        estimate_distillation(make_query([vocab[0]]), pool, nr, idx, params)

    coll = make_collection([["a", "a", "b"], ["b", "b", "a"]])  # p(a|C) = p(b|C) = 0.5
    idx = build_index(coll)
    pool = [coll["p000"]]
    params = FeedbackParams(alpha_interp=0.0, lambda_mix=0.5, lambda_nr=0.0,
                            em_max_iters=2, em_tol=0.0, m=10)
    model = estimate_distillation(make_query(["a"]), pool, [], idx, params)
    oracle = brute_force_em({"a": 2, "b": 1}, {"a": 0.5, "b": 0.5}, {}, 0.5, 0.0, iters=2)
    diff = max(abs(model[t] - oracle[t]) for t in oracle)
    ok = diff <= 1e-9
    record_acceptance("3 EM monotonicity + oracle", ok, f"worked-example diff {diff:.2e}")
    assert diff <= 1e-9


def test_c4_reduction_identities(rng):
    """alpha=1 RM3 == MLE; lambda_erm=1 ERM == RM3; lambda_sf=0 fusion no-op;
    beta=gamma=0 Rocchio preserves ordering. 200 random instances each."""
    worst_rm3 = worst_erm = 0.0
    fused_identity = rocchio_identity = True
    for _ in range(200):
        lists = random_token_lists(rng, 8, 6)
        coll = make_collection(lists)
        idx = build_index(coll)
        qtokens = [f"t{int(i)}" for i in rng.integers(0, 6, size=int(rng.integers(1, 4)))]
        query = make_query(qtokens)
        pool = [tuple(coll)[int(i)] for i in rng.choice(8, size=3, replace=False)]
        params = FeedbackParams(m=int(rng.integers(1, 8)), alpha_interp=1.0)
        model = estimate_rm3(query, pool, idx, params, mu=float(rng.uniform(1, 100)))
        mle = query_mle(query)
        worst_rm3 = max(worst_rm3, max(abs(model.get(t, 0.0) - w) for t, w in mle.items()))
        worst_rm3 = max(worst_rm3, 0.0 if set(model) <= set(mle) else 1.0)

        emb = toy_embeddings(rng.normal(size=(6, 4)), terms=[f"t{i}" for i in range(6)])
        params2 = FeedbackParams(m=int(rng.integers(1, 8)), alpha_interp=float(rng.uniform(0, 1)))
        mu = float(rng.uniform(1, 100))
        erm = estimate_erm(query, pool, idx, emb, params2, ErmParams(lambda_erm=1.0), mu=mu)
        rm3 = estimate_rm3(query, pool, idx, params2, mu=mu)
        worst_erm = max(worst_erm, max(abs(erm.get(t, 0.0) - w) for t, w in rm3.items()),
                        max(abs(rm3.get(t, 0.0) - w) for t, w in erm.items()))

        base_ids = list(coll.ids)
        rng.shuffle(base_ids)
        base = ranked_over(idx, tuple((pid, float(s)) for pid, s in
                           zip(base_ids, sorted(rng.normal(size=8), reverse=True))), query_id="q")
        vecs = rng.normal(size=(8, 4))
        pvmodel = toy_embeddings(rng.normal(size=(6, 4)), terms=[f"t{i}" for i in range(6)])
        pvmodel.passage_vectors = vecs
        pvmodel.passage_ids = coll.ids
        state = update_pools(FeedbackState(), [(base_ids[0], True)])
        fused = fused_rank(base, state, pvmodel, FusionConfig(lambda_sf=0.0, representation_mode="pv"), coll, idx)
        fused_identity &= fused.ids() == base.ids()

        qvec = {f"t{int(i)}": float(rng.uniform(0.1, 2.0)) for i in rng.integers(0, 6, size=3)}
        alpha = float(rng.uniform(0.1, 3.0))
        updated = rocchio_update(qvec, pool, pool[:1], idx,
                                 FeedbackParams(rocchio_alpha=alpha, rocchio_beta=0.0, rocchio_gamma=0.0))
        before = rank_rocchio(qvec, idx, depth=8).ids()
        after = rank_rocchio(updated, idx, depth=8).ids()
        rocchio_identity &= before == after

    ok = worst_rm3 <= 1e-9 and worst_erm <= 1e-9 and fused_identity and rocchio_identity
    record_acceptance("4 reduction identities", ok,
                      f"rm3 diff {worst_rm3:.2e}, erm diff {worst_erm:.2e}, "
                      f"fusion no-op {fused_identity}, rocchio order {rocchio_identity}")
    assert worst_rm3 <= 1e-9
    assert worst_erm <= 1e-9
    assert fused_identity
    assert rocchio_identity


def test_c5_freezing_invariants(rng):
    """500 random sessions: prefix length, no duplicates, presentation order,
    tail disjoint from shown."""
    violations = []
    settings = [(10, 1), (5, 2), (2, 5), (1, 10), (3, 3), (2, 4)]
    methods = ("rm3", "distillation", "rocchio")
    for s in range(500):
        n_passages = int(rng.integers(25, 90))
        lists = random_token_lists(rng, n_passages, 12, min_len=4, max_len=12)
        qrels = Judgments()
        for pos in rng.choice(n_passages, size=int(rng.integers(2, 10)), replace=False):
            lists[pos] = lists[pos] + ["topic"]
            qrels.add("q0", f"p{pos:03d}", 1)
        coll = make_collection(lists)
        ctx = EngineContext(collection=coll, index=build_index(coll),
                            retrieval=RetrievalParams(mu=float(rng.uniform(5, 500))),
                            feedback=FeedbackParams(m=int(rng.integers(2, 15))))
        per_iter, iterations = settings[s % len(settings)]
        cfg = SessionConfig(per_iter=per_iter, iterations=iterations,
                            rf_method=methods[s % len(methods)])
        query = make_query(["topic", f"t{int(rng.integers(0, 12))}"], "q0")
        result = run_irf_session(query, qrels, cfg, ctx)
        frozen = result.frozen
        flat = [pid for block in frozen.shown_blocks for pid in block]
        prefix = sum(len(block) for block in frozen.shown_blocks[:-1])
        if not frozen.early_exhausted and prefix != (iterations - 1) * per_iter:
            violations.append(f"session {s}: prefix {prefix}")
        if len(flat) != len(set(flat)):
            violations.append(f"session {s}: duplicate presentation")
        if set(frozen.tail.ids()) & set(flat):
            violations.append(f"session {s}: tail overlaps shown")
        full = freeze_ranking(frozen)
        if len(full) != len(set(full)):
            violations.append(f"session {s}: duplicates in frozen list")
    ok = not violations
    record_acceptance("5 freezing invariants", ok,
                      violations[0] if violations else "500 sessions clean")
    assert not violations, violations[:5]


def test_c6_fisher_exactness(rng):
    """Sampled p within 0.01 of exhaustive p for every instance up to 10
    topics; identical inputs give exactly 1.0."""
    a = {f"q{i}": float(rng.random()) for i in range(12)}
    exact_one = fisher_randomization(a, dict(a))
    worst = 0.0
    for trial in range(40):
        n = int(rng.integers(2, 11))
        scale = 10.0 ** rng.integers(-3, 2)
        d = rng.normal(size=n) * scale
        worst = max(worst, abs(_exhaustive_p(d) - _sampled_p(d, 100_000, trial)))
    ok = exact_one == 1.0 and worst <= 0.01
    record_acceptance("6 Fisher exactness", ok,
                      f"identical p={exact_one}, max |mc-exh| {worst:.4f}")
    assert exact_one == 1.0
    assert worst <= 0.01


def test_c7_pvc_unbiasedness():
    """Mean of 10,000 corrupted representations, drawn by the trainer's
    _corrupted_rep, within 1% of the plain mean (q=0.9, dim 100)."""
    rng = np.random.default_rng(99)
    vectors = rng.uniform(0.5, 1.5, size=(40, 100))
    words = np.arange(40)
    draw_rng = np.random.default_rng(7)
    total = np.zeros(100)
    for _ in range(10_000):
        total += _corrupted_rep(vectors, words, draw_rng.random(40), q=0.9)[0]
    empirical = total / 10_000
    target = vectors.mean(axis=0)
    rel = float(np.linalg.norm(empirical - target) / np.linalg.norm(target))
    ok = rel < 0.01
    record_acceptance("7 PVC unbiasedness", ok, f"relative error {rel:.4f}")
    assert rel < 0.01


RETRIEVAL_8 = RetrievalParams(mu=300.0, k1=1.2, b=0.75)
FEEDBACK_8 = FeedbackParams(m=10, alpha_interp=0.5, lambda_mix=0.5, lambda_nr=0.1)
ERM_8 = ErmParams(lambda_erm=0.5, sigmoid_a=10.0, sigmoid_c=0.5, neighbors=10)
TRAIN_8 = dict(dim=48, epochs=4, mode="pv_hdc_corrupted")
LAMBDA_GRID_8 = (5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0)


def _initial_map(engine, method):
    """Mean MAP@100 of the ranking a session of ``method`` starts from, as
    run-irf's initial column reads it."""
    return score_rankings(((q.query_id, initial_ranking(q, method, engine.ctx).ids(),
                            engine.qrels.relevant_ids(q.query_id)) for q in engine.queries), ["map100"])["map100"].mean


def test_c8_directional_replication():
    """On ten seeded synthetic corpora: every feedback method beats its base
    retrieval; 1x10 is at least as good as 10x1 for RM3 and Rocchio on
    average; fused RM3 at 5x2 is at least as good as plain RM3 and better
    than ERM, the term-level semantic method, on >= 8 seeds each. Fused
    RM3's lambda is the best of LAMBDA_GRID_8 on the evaluated queries.
    Each seed's sessions run in one sweep, so one memo per query serves
    every method and setting."""
    start = time.time()
    methods = ("rm3", "distillation", "rocchio", "erm")
    beats_failures = []
    by_setting = {m: {"10x1": [], "1x10": []} for m in methods}
    fusion_wins = 0
    erm_wins = 0
    for seed in range(10):
        coll, queries, qrels = generate(GeneratorConfig(seed=seed))
        model = train_pv_hdc(coll, TrainConfig(seed=seed, **TRAIN_8))
        ctx = EngineContext(collection=coll, index=build_index(coll), retrieval=RETRIEVAL_8,
                            feedback=FEEDBACK_8, erm=ERM_8, embeddings=model)
        engine = Engine(ctx=ctx, queries=queries, qrels=qrels)
        configs = {f"{m}_{n}x{i}": SessionConfig(per_iter=n, iterations=i, rf_method=m)
                   for m in methods for n, i in ((10, 1), (1, 10))}
        configs["rm3_5x2"] = SessionConfig(per_iter=5, iterations=2, rf_method="rm3")
        configs["erm_5x2"] = SessionConfig(per_iter=5, iterations=2, rf_method="erm")
        for lam in LAMBDA_GRID_8:
            configs[f"fused{lam:g}_5x2"] = SessionConfig(
                per_iter=5, iterations=2, rf_method="rm3",
                fusion=FusionConfig(lambda_sf=lam, representation_mode="pvc"))
        swept = sweep(engine, [(ctx, scfg) for scfg in configs.values()])
        score = {tag: score_sessions(results, qrels, ["map100"])["map100"].mean
                 for tag, results in zip(configs, swept)}
        for method in methods:
            base = _initial_map(engine, method)  # BM25 for rocchio, QL for the others
            for setting in ("10x1", "1x10"):
                got = score[f"{method}_{setting}"]
                by_setting[method][setting].append(got)
                if got <= base:
                    beats_failures.append(f"seed {seed} {method} {setting} {got:.4f} <= base {base:.4f}")
        fused_best = max(score[f"fused{lam:g}_5x2"] for lam in LAMBDA_GRID_8)
        if fused_best >= score["rm3_5x2"]:
            fusion_wins += 1
        if fused_best > score["erm_5x2"]:
            erm_wins += 1
    iter_ok = all(
        np.mean(by_setting[m]["1x10"]) >= np.mean(by_setting[m]["10x1"])
        for m in ("rm3", "rocchio")
    )
    elapsed = time.time() - start
    ok = not beats_failures and iter_ok and fusion_wins >= 8 and erm_wins >= 8 and elapsed < 900.0
    detail = (f"beats-base failures {len(beats_failures)}, "
              f"rm3 10x1->1x10 {np.mean(by_setting['rm3']['10x1']):.4f}->{np.mean(by_setting['rm3']['1x10']):.4f}, "
              f"rocchio {np.mean(by_setting['rocchio']['10x1']):.4f}->{np.mean(by_setting['rocchio']['1x10']):.4f}, "
              f"fusion wins {fusion_wins}/10, over erm {erm_wins}/10, {elapsed:.0f}s")
    record_acceptance("8 directional replication", ok, detail)
    assert not beats_failures, beats_failures[:4]
    assert iter_ok
    assert fusion_wins >= 8
    assert erm_wins >= 8
    assert elapsed < 900.0


REFERENCE_TARGETS = {
    "webap": {"ql_initial_map": 0.076, "rm3_1x10_map": 0.113, "ql_onerel_p1": 0.259},
    "psgrobust": {"ql_initial_map": 0.248, "rm3_1x10_map": 0.308, "ql_onerel_p1": 0.367},
}


@pytest.mark.parametrize("collection_name", ["webap", "psgrobust"])
def test_c9_full_collection_reproduction(collection_name):
    """Informational: with real exports supplied, run the pipeline and record
    the gap to the reference figures (not gating)."""
    env = f"IRFLAB_{collection_name.upper()}_DIR"
    root = os.environ.get(env)
    if not root:
        record_acceptance(f"9 full reproduction ({collection_name})", None, f"{env} not set")
        pytest.skip(f"{env} not set")
    root = Path(root)
    tokenizer = TokenizerConfig()
    collection = ingest_corpus(root / "corpus.jsonl", tokenizer)
    queries = [q for q in load_queries(root / "queries.tsv", tokenizer) if q.tokens]
    qrels = load_qrels(root / "qrels.txt")
    idx = build_index(collection)
    ctx = EngineContext(collection=collection, index=idx, retrieval=RetrievalParams(mu=1000.0),
                        feedback=FeedbackParams(m=20, alpha_interp=0.5))
    engine = Engine(ctx=ctx, queries=queries, qrels=qrels)
    ql_map = _initial_map(engine, "rm3")
    [rm3] = sweep(engine, [(ctx, SessionConfig(per_iter=1, iterations=10, rf_method="rm3"))])
    rm3_map = score_sessions(rm3, qrels, ["map100"])["map100"].mean
    p1 = []
    for q in queries:
        for d in run_one_rel_experiment(q, qrels, "ql", ctx, draws=10, seed=0):
            rel = qrels.relevant_ids(q.query_id) - {d.fed_passage}
            p1.append(evaluate_ranking(d.ranking.ids(), rel, "p1"))
    onerel_p1 = float(np.mean(p1)) if p1 else 0.0
    targets = REFERENCE_TARGETS[collection_name]
    detail = (f"QL MAP {ql_map:.3f} (ref {targets['ql_initial_map']}), "
              f"RM3 1x10 MAP {rm3_map:.3f} (ref {targets['rm3_1x10_map']}), "
              f"one-rel P@1 {onerel_p1:.3f} (ref {targets['ql_onerel_p1']})")
    record_acceptance(f"9 full reproduction ({collection_name})", True, detail)
