"""Experiment orchestration shared by the CLI commands.

``sweep`` runs sessions query-major under one memo per query, and
``score_sessions`` scores their frozen rankings: run-irf, acceptance checks
C8 and C9 and the full-experiment demo score sessions through these two.

run-irf: per feedback method and per (per_iter x iterations) setting, one
sweep over every grid point (no grid is a sweep of one point), with any
configured grids tuned by seeded k-fold cross-validation; it emits TREC
runs, session traces, per-query CSVs and a summary table (rows are methods,
columns are settings), and holds one setting's sessions at a time.

run-onerel: per method (including the no-feedback baselines), ten draws per
query with one fed relevant passage, each (query, draw) pair a topic.
"""

from __future__ import annotations

import csv
import json
import logging
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path
from typing import AbstractSet, Iterable, Mapping, Sequence

from .config import (
    ConfigError,
    erm_from_config,
    feedback_from_config,
    fusion_from_config,
    methods_from_config,
    metrics_from_config,
    onerel_methods_from_config,
    point_params,
    retrieval_from_config,
    settings_from_config,
    tokenizer_from_config,
    tuning_grids,
)
from .corpus import Judgments, Query, TokenizerConfig, ingest_corpus, load_qrels, load_queries
from .embeddings import EmbeddingModel, load_model
from .evaluation import (
    DEFAULT_PERMUTATIONS,
    MetricResult,
    cross_validate_grid,
    evaluate_ranking,
    fisher_randomization,
    grid_points,
)
from .index import build_index
from .retrieval import read_run, write_ranked_ids, write_run
from .simulation import (
    EngineContext,
    SessionConfig,
    SessionResult,
    freeze_ranking,
    initial_ranking,
    run_irf_session,
    run_one_rel_experiment,
    write_trace,
)

logger = logging.getLogger(__name__)


@dataclass
class Engine:
    ctx: EngineContext
    queries: list[Query]
    qrels: Judgments


def load_engine(cfg: dict) -> Engine:
    corpus_cfg = cfg.get("corpus", {})
    for key in ("passages", "queries", "qrels"):
        if key not in corpus_cfg:
            raise ConfigError(f"corpus.{key} is required")
    tokenizer = tokenizer_from_config(cfg)
    collection = ingest_corpus(corpus_cfg["passages"], tokenizer)
    queries = load_queries(corpus_cfg["queries"], tokenizer)
    qrels = load_qrels(corpus_cfg["qrels"])
    embeddings = None
    model_path = cfg.get("embeddings", {}).get("model_path")
    if model_path:
        embeddings = load_model(model_path)
        _check_model_tokenizer(embeddings, tokenizer, model_path)
    ctx = EngineContext(
        collection=collection,
        index=build_index(collection),
        retrieval=retrieval_from_config(cfg),
        feedback=feedback_from_config(cfg),
        erm=erm_from_config(cfg),
        embeddings=embeddings,
    )
    kept = []
    for query in queries:  # load_queries has warned about the token-less ones
        if any(token in ctx.index for token in query.tokens):
            kept.append(query)
        elif query.tokens:
            logger.warning("query %s: no token occurs in the collection; dropped", query.query_id)
    if not kept:
        raise ValueError(f"{corpus_cfg['queries']}: no query has a token in the collection; nothing to evaluate")
    return Engine(ctx=ctx, queries=kept, qrels=qrels)


def _check_model_tokenizer(model: EmbeddingModel, tokenizer: TokenizerConfig, path) -> None:
    """Refuse a model trained with another tokenizer than the experiment's:
    its vocabulary would miss the experiment's terms. A model that records
    none (trained through the library, or before models recorded it) loads
    unchecked."""
    recorded = model.metadata.get("tokenizer")
    if recorded is None:
        logger.info("embedding model %s records no tokenizer; not checked against the experiment's", path)
        return
    expected = tokenizer.fingerprint()
    if recorded != expected:
        raise ConfigError(f"embedding model {path} was trained with tokenizer {recorded}; "
                          f"the experiment tokenizes with {expected}")


def score_rankings(rankings: Iterable[tuple[str, Sequence[str], AbstractSet[str]]],
                   metrics: Sequence[str]) -> dict[str, MetricResult]:
    """Each metric over (topic, ranked ids, relevant ids) triples, per topic
    and in the mean."""
    per_metric: dict[str, dict[str, float]] = {metric: {} for metric in metrics}
    for topic, ranking, relevant in rankings:
        for metric, per_query in per_metric.items():
            per_query[topic] = evaluate_ranking(ranking, relevant, metric)
    return {metric: MetricResult.aggregate(per_query) for metric, per_query in per_metric.items()}


def sweep(engine: Engine, sessions: Sequence[tuple[EngineContext, SessionConfig]]
          ) -> list[dict[str, tuple[SessionResult, tuple[str, ...]]]]:
    """Each (context, session config) for each of the engine's queries, in
    query order: per session, {query id: (session, frozen ranking)}. The
    sessions of one query share one memo of session steps, whatever their
    method or parameters, so a step that several reach with the same inputs
    is computed once; the memo is dropped before the next query. The
    contexts share the engine's collection, index and embedding model."""
    results: list[dict[str, tuple[SessionResult, tuple[str, ...]]]] = [{} for _ in sessions]
    for query in engine.queries:
        memo: dict = {}
        for (ctx, scfg), out in zip(sessions, results):
            result = run_irf_session(query, engine.qrels, scfg, ctx, memo=memo)
            out[query.query_id] = result, freeze_ranking(result.frozen)
    return results


def score_sessions(results: Mapping[str, tuple[SessionResult, tuple[str, ...]]], qrels: Judgments,
                   metrics: Sequence[str]) -> dict[str, MetricResult]:
    """``score_rankings`` over the frozen rankings of one session's sweep,
    {query id: (session, frozen ranking)}, in its order."""
    return score_rankings(((qid, ranking, qrels.relevant_ids(qid)) for qid, (_, ranking) in results.items()), metrics)


def _write_per_query_csv(path, per_metric: Mapping[str, MetricResult]) -> None:
    metrics = list(per_metric)
    topics = sorted(next(iter(per_metric.values())).per_query)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["topic"] + metrics)
        for topic in topics:
            writer.writerow([topic] + [f"{per_metric[m].per_query[topic]:.6f}" for m in metrics])
        writer.writerow(["mean"] + [f"{per_metric[m].mean:.6f}" for m in metrics])


def write_summary_csv(path, rows: Mapping[str, Mapping[str, float]], columns: Sequence[str]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method"] + list(columns))
        for name, values in rows.items():
            writer.writerow([name] + [f"{values[c]:.4f}" if c in values else "" for c in columns])


def format_table(rows: Mapping[str, Mapping[str, float]], title: str) -> str:
    columns = list(next(iter(rows.values())))
    width = max(len(name) for name in rows) + 2
    lines = [title, f"{'':<{width}}" + "".join(f"{c:>12}" for c in columns)]
    for name, values in rows.items():
        cells = "".join(f"{values[c]:>12.4f}" if c in values else f"{'-':>12}" for c in columns)
        lines.append(f"{name:<{width}}" + cells)
    return "\n".join(lines)


def irf_metrics(cfg: dict) -> list[str]:
    """run-irf's metrics; the first, its objective, is tuned and tabled."""
    return metrics_from_config(cfg, ("map100", "ndcg20"))


def irf_experiment(cfg: dict) -> dict[str, dict[str, float]]:
    """Run the full iterative-feedback experiment; returns the summary rows
    {method: {column: mean score}} for the objective metric."""
    engine = load_engine(cfg)
    methods = methods_from_config(cfg)
    folds = cfg.get("evaluation", {}).get("folds", 5)
    if folds > len(engine.queries) and any(tuning_grids(cfg, method) for method in methods):
        raise ConfigError(f"evaluation.folds is {folds}, more than the {len(engine.queries)} queries kept")
    out_dir = Path(cfg.get("output_dir", "irflab-out"))
    out_dir.mkdir(parents=True, exist_ok=True)
    settings = settings_from_config(cfg)
    metrics = irf_metrics(cfg)
    objective = metrics[0]
    seed = cfg.get("seed", 0)
    depth = cfg.get("session", {}).get("depth")

    columns = ["initial"] + [f"{n}x{i}" for n, i in settings]
    summary: dict[str, dict[str, float]] = {}
    for method in methods:
        initial = score_rankings(((q.query_id, initial_ranking(q, method, engine.ctx).ids(),
                                   engine.qrels.relevant_ids(q.query_id)) for q in engine.queries), [objective])
        row: dict[str, float] = {"initial": initial[objective].mean}
        grids = tuning_grids(cfg, method)
        points = grid_points(grids) if grids else [{}]
        variants = [(replace(engine.ctx, retrieval=retrieval, feedback=feedback), fusion)
                    for retrieval, feedback, fusion in (point_params(cfg, point) for point in points)]
        for per_iter, iterations in settings:
            tag = f"{method}_{per_iter}x{iterations}"
            # per grid point, in query order: {query id: (session, frozen ranking)}
            swept = sweep(engine, [(ctx, SessionConfig(per_iter=per_iter, iterations=iterations,
                                                       rf_method=method, fusion=fusion, depth=depth))
                                   for ctx, fusion in variants])
            if grids:
                chosen = cross_validate_grid([q.query_id for q in engine.queries], grids, lambda point: score_sessions(
                    swept[points.index(point)], engine.qrels, [objective])[objective].per_query,
                    folds=folds, seed=seed)
                # fold order, which the trace file and the metrics' sums keep
                results = {qid: swept[points.index(point)][qid] for point, fold in chosen for qid in fold}
                (out_dir / f"chosen_params_{tag}.json").write_text(
                    json.dumps([point for point, _ in chosen], indent=2, sort_keys=True), encoding="utf-8")
            else:
                results = swept[0]
            write_ranked_ids(out_dir / f"run_irf_{tag}.txt",
                             [(qid, ranking) for qid, (_, ranking) in sorted(results.items())], tag=tag)
            write_trace(out_dir / f"trace_{tag}.jsonl", [result for result, _ in results.values()])
            per_metric = score_sessions(results, engine.qrels, metrics)
            _write_per_query_csv(out_dir / f"perquery_{tag}.csv", per_metric)
            row[f"{per_iter}x{iterations}"] = per_metric[objective].mean
            del swept, results  # the next sweep holds only its own setting's sessions
        summary[method] = row
    write_summary_csv(out_dir / f"summary_{objective}.csv", summary, columns)
    return summary


def onerel_experiment(cfg: dict) -> dict[str, dict[str, float]]:
    """Retrieval given one fed relevant passage; returns {method: {metric: mean}}."""
    engine = load_engine(cfg)
    out_dir = Path(cfg.get("output_dir", "irflab-out"))
    out_dir.mkdir(parents=True, exist_ok=True)
    methods = onerel_methods_from_config(cfg)
    fusion = fusion_from_config(cfg)
    draws = cfg.get("onerel", {}).get("draws", 10)
    seed = cfg.get("seed", 0)
    metrics = metrics_from_config(cfg, ("p1", "mrr", "map100"))
    depth = cfg.get("session", {}).get("depth")

    summary: dict[str, dict[str, float]] = {}
    for method in methods:
        all_draws = [(query, draw) for query in engine.queries for draw in run_one_rel_experiment(
            query, engine.qrels, method, engine.ctx, fusion=fusion, depth=depth, draws=draws, seed=seed)]
        if not all_draws:
            raise ValueError(f"{cfg['corpus']['queries']}: no query has two relevant passages in the collection")
        write_run(out_dir / f"run_onerel_{method}.txt", [d.ranking for _, d in all_draws], tag=f"onerel_{method}")
        per_metric = score_rankings(
            ((d.topic_id, d.ranking.ids(), engine.qrels.relevant_ids(query.query_id) - {d.fed_passage})
             for query, d in all_draws), metrics)
        _write_per_query_csv(out_dir / f"perquery_onerel_{method}.csv", per_metric)
        summary[method] = {m: res.mean for m, res in per_metric.items()}
    write_summary_csv(out_dir / "summary_onerel.csv", summary, metrics)
    return summary


def evaluate_run_file(run_path, qrels_path, metrics: Sequence[str]) -> dict[str, MetricResult]:
    run = read_run(run_path)
    if not run:
        raise ValueError(f"{run_path}: empty run file")
    rankings = {qid: [pid for pid, _ in entries] for qid, entries in run.items()}
    for qid, ids in rankings.items():
        if len(set(ids)) < len(ids):  # the metrics score one duplicate-free ranking
            pid = Counter(ids).most_common(1)[0][0]
            raise ValueError(f"{run_path}: query {qid!r} ranks passage {pid!r} more than once")
    qrels = load_qrels(qrels_path)
    return score_rankings(((qid, ids, qrels.relevant_ids(qid)) for qid, ids in rankings.items()), metrics)


def significance_between(run_a, run_b, qrels_path, metric: str,
                         permutations: int = DEFAULT_PERMUTATIONS, seed: int = 0) -> float:
    a = evaluate_run_file(run_a, qrels_path, [metric])[metric].per_query
    b = evaluate_run_file(run_b, qrels_path, [metric])[metric].per_query
    return fisher_randomization(a, b, permutations=permutations, seed=seed)
