"""Simulated feedback sessions and freezing-rank construction.

A session alternates ranking and judging: the top N unshown results of the
current query model are shown, judged against the qrels and folded into the
pools. Shown results keep their presentation ranks (iteration i occupies
ranks i*N+1 .. (i+1)*N); after the last iteration's judgments the final
model ranks all remaining candidates as the tail. The query model and the
ranking are functions of the pools and the shown set (``_SessionModel``),
for the four feedback methods and the two no-feedback baselines alike:
language-model methods (rm3, distillation, erm) start from Query
Likelihood; rocchio starts from BM25 and re-ranks by tf-idf dot product;
ql and bm25 ignore the judgments.

Sessions that share a memo (one query over one collection, index and
embedding model) share two kinds of cached work, both exact:
  - steps (estimates, score arrays, rankings, fusions), keyed on exactly
    the inputs each reads;
  - the evidence those steps read per passage or per pool, under the memo's
    "evidence" dict: ERM's translation likelihood prod_q sum_w T(q|w)
    P_ml(w|D) per (ErmParams, passage), and the relevant pool's centroid
    per (pool, representation mode). A step that is computed pays only for
    the passages and pools no earlier step has read. It holds a float per
    passage read per ErmParams and a vector per distinct pool, and lives as
    long as the memo.

Every cache is one owner's memo, filled through ``irflab.index.memo``: a
session memo lives as long as its caller keeps it, the index's
(``Index.cached``: term counts, tf-idf rows, query likelihood's logs) as
long as the index, the embedding model's (``EmbeddingModel.cached``: ERM's
translation tables, unit word vectors, and per index the pv/pvc row map and
each avg_w2v/idf_w2v matrix fusion reads) as long as the model.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .corpus import Judgments, Passage, PassageCollection, Query
from .embeddings import EmbeddingModel
from .feedback import (
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
from .fusion import FusionConfig, fused_rank
from .index import Index, memo, query_tfidf
from .retrieval import (
    RankedList,
    RetrievalParams,
    _take_top,
    bm25_scores,
    ql_scores,
    rocchio_scores,
)

logger = logging.getLogger(__name__)

LM_METHODS = ("rm3", "distillation", "erm")
VSM_METHODS = ("rocchio",)
RF_METHODS = LM_METHODS + VSM_METHODS
BASELINE_METHODS = ("ql", "bm25")

# judgment budget of 10 split as per_iter x iterations
BUDGET_SETTINGS = ((10, 1), (5, 2), (2, 5), (1, 10))


@dataclass(frozen=True)
class SessionConfig:
    per_iter: int = 10
    iterations: int = 1
    rf_method: str = "rm3"
    fusion: FusionConfig | None = None
    depth: int | None = None   # None: 100 + number of shown results

    def __post_init__(self):
        if self.per_iter < 1 or self.iterations < 1:
            raise ValueError("per_iter and iterations must be >= 1")
        if self.rf_method not in RF_METHODS:
            raise ValueError(f"unknown rf_method {self.rf_method!r}")


@dataclass(frozen=True)
class EngineContext:
    """Everything a session needs besides the query and the qrels."""

    collection: PassageCollection
    index: Index
    retrieval: RetrievalParams = RetrievalParams()
    feedback: FeedbackParams = FeedbackParams()
    erm: ErmParams | None = None
    embeddings: EmbeddingModel | None = None


@dataclass(frozen=True)
class FrozenRanking:
    """Per-iteration shown blocks in presentation order plus the final tail."""

    query_id: str
    shown_blocks: tuple[tuple[str, ...], ...]
    tail: RankedList
    early_exhausted: bool = False


def freeze_ranking(frozen: FrozenRanking) -> tuple[str, ...]:
    """The evaluated list: shown blocks at their presentation ranks, then the
    re-ranked tail over everything unshown."""
    out: list[str] = []
    for block in frozen.shown_blocks:
        out.extend(block)
    out.extend(frozen.tail.ids())
    return tuple(out)


@dataclass(frozen=True, slots=True)
class TraceStep:
    """One iteration of a session: the shown passages with their judgments,
    and the query weights re-estimated from them (the memo's, not a copy)."""

    judged: tuple[tuple[str, bool], ...]
    weights: Mapping[str, float]


@dataclass
class SessionResult:
    frozen: FrozenRanking
    trace: list[TraceStep] = field(default_factory=list)


class _SessionModel:
    """A session's steps as functions of its feedback state.

    ``weights(state)`` is the query model after the state's judgments: for
    ql the query's MLE and for bm25 its tf-idf vector; for rm3,
    distillation and erm the MLE until the first relevant passage, then the
    method's estimate from the pools; for rocchio the tf-idf vector until
    the first judgment, then ``rocchio_update``. ``rank(state, ...)`` scores
    those weights by QL (ql and the language-model methods), by BM25 (bm25,
    and rocchio before anything is shown) or by the tf-idf dot product
    (rocchio after that), and ranks the unshown passages.

    Every step goes through ``memo``, keyed on exactly the inputs it reads;
    a step already taken with the same inputs is looked up, not recomputed.
    A ranking is two steps: the score array of the weights (keyed on their
    ordered items, because ql_scores sums the terms in that order, and on
    the scorer's parameters), then its top for one depth and excluded set,
    so weights that survive a judgment are scored once. Every memo value is
    read-only and shared (arrays not writeable, weights
    ``MappingProxyType``s). The keys leave out what the memo's scope holds
    fixed: the query, the collection, the index and the embedding model.

    ERM and fusion also get ``evidence``, the memo's cache of per-passage
    and per-pool work (see the module docstring).

    Only the rows a session reads are ranked: a ranking for a shown block
    that is not fused (no fusion config, or an empty relevant pool) is taken
    at depth ``min(depth, per_iter)``. The tail and every base list that
    fusion re-ranks keep the full depth.
    """

    def __init__(self, query: Query, method: str, ctx: EngineContext, memo: dict):
        held = (query, ctx.collection, ctx.index, ctx.embeddings)
        scope = memo.setdefault("scope", held)
        if scope[0] != query or any(a is not b for a, b in zip(scope[1:], held[1:])):
            raise ValueError("a session memo serves one query over one collection, index and embedding model")
        self.query = query
        self.method = method
        self.ctx = ctx
        self.memo = memo
        self.evidence = memo.setdefault("evidence", {})

    def weights(self, state: FeedbackState) -> Mapping[str, float]:
        """The query model after the state's judgments (see the class docstring)."""
        ctx, method = self.ctx, self.method
        rel, nonrel = state.relevant_pool, state.nonrelevant_pool
        fb, mu = ctx.feedback, ctx.retrieval.mu
        if method in ("bm25", "rocchio"):
            tfidf = memo(self.memo, ("tfidf",), lambda: MappingProxyType(query_tfidf(self.query, ctx.index)))
            if method == "bm25" or not state.shown:
                return tfidf
        elif method == "ql" or not rel:
            return memo(self.memo, ("mle",), lambda: MappingProxyType(query_mle(self.query)))

        def passages(pids: tuple[str, ...]) -> list[Passage]:
            return [ctx.collection[pid] for pid in pids]

        if method == "rocchio":
            key = ("rocchio_update", rel, nonrel, fb)
            compute = lambda: rocchio_update(tfidf, passages(rel), passages(nonrel), ctx.index, fb)
        elif method == "rm3":
            key = ("rm3", rel, fb, mu)
            compute = lambda: estimate_rm3(self.query, passages(rel), ctx.index, fb, mu=mu)
        elif method == "distillation":
            key = ("distillation", rel, nonrel, fb)
            compute = lambda: estimate_distillation(
                self.query, passages(rel), passages(nonrel), ctx.index, fb)
        elif method == "erm":
            if ctx.erm is None or ctx.embeddings is None:
                raise ValueError("erm sessions need ErmParams and an embedding model in the context")
            key = ("erm", rel, fb, ctx.erm, mu)
            compute = lambda: estimate_erm(
                self.query, passages(rel), ctx.index, ctx.embeddings, fb, ctx.erm, mu=mu, cache=self.evidence)
        else:
            raise ValueError(f"unknown method {method!r}")
        return memo(self.memo, key, lambda: MappingProxyType(compute()))

    def rank(self, state: FeedbackState, depth: int, fusion: FusionConfig | None,
             per_iter: int | None = None) -> RankedList:
        """The ranking of the unshown passages by ``weights(state)``, fused
        with the relevant pool when fusion is on and the pool is not empty.
        A caller that reads only the first ``per_iter`` rows gets an unfused
        ranking taken no deeper."""
        ctx = self.ctx
        exclude = state.shown
        fused = fusion is not None and bool(state.relevant_pool)
        if per_iter is not None and not fused:
            depth = min(depth, per_iter)
        weights, params = self.weights(state), ctx.retrieval
        if self.method not in ("bm25", "rocchio"):
            score_key = ("ql", tuple(weights.items()), params.mu)
            score = lambda: ql_scores(weights, ctx.index, params)
        elif self.method == "bm25" or not exclude:
            score_key = ("bm25", params.k1, params.b)
            score = lambda: bm25_scores(self.query, ctx.index, params)
        else:
            score_key = ("rocchio", tuple(weights.items()))
            score = lambda: rocchio_scores(weights, ctx.index)
        key = (score_key, depth, exclude)
        ranked = memo(self.memo, key, lambda: _take_top(
            ctx.index, memo(self.memo, score_key, score), exclude, depth, self.query.query_id))
        if not fused:
            return ranked
        if ctx.embeddings is None:
            raise ValueError("fusion requires an embedding model in the context")
        return memo(self.memo, ("fused", key, state.relevant_pool, fusion), lambda: fused_rank(
            ranked, state, ctx.embeddings, fusion, ctx.collection, ctx.index, cache=self.evidence))


def _depth(depth: int | None, state: FeedbackState) -> int:
    """``depth``, or by default 100 plus the number of results shown so far."""
    return depth if depth is not None else 100 + len(state.shown)


def run_irf_session(
    query: Query,
    qrels: Judgments,
    cfg: SessionConfig,
    ctx: EngineContext,
    memo: dict | None = None,
) -> SessionResult:
    """Drive one simulated session; judgments come from the qrels' true labels.

    ``memo`` holds the steps already computed for this query over this
    context's collection, index and embedding model (``experiments.sweep``
    shares one among a query's sessions); None starts an empty one.
    """
    state = FeedbackState()
    model = _SessionModel(query, cfg.rf_method, ctx, {} if memo is None else memo)
    blocks: list[tuple[str, ...]] = []
    trace: list[TraceStep] = []
    early = False
    for iteration in range(cfg.iterations):
        ranked = model.rank(state, _depth(cfg.depth, state), cfg.fusion, per_iter=cfg.per_iter)
        block = ranked.head(cfg.per_iter)
        if len(block) < cfg.per_iter:
            early = True
            logger.warning(
                "query %s: only %d candidates left in iteration %d; ending session early",
                query.query_id, len(block), iteration,
            )
        if not block:
            break
        judged = tuple([(pid, qrels.is_relevant(query.query_id, pid)) for pid in block])
        state = update_pools(state, judged)
        blocks.append(block)
        trace.append(TraceStep(judged, model.weights(state)))
        if early:
            break
    tail = model.rank(state, _depth(cfg.depth, state), cfg.fusion)
    frozen = FrozenRanking(
        query_id=query.query_id,
        shown_blocks=tuple(blocks),
        tail=tail,
        early_exhausted=early,
    )
    return SessionResult(frozen=frozen, trace=trace)


def initial_ranking(query: Query, method: str, ctx: EngineContext, depth: int = 100) -> RankedList:
    """The no-feedback retrieval a method starts from: its session's first
    ranking, before any judgment."""
    return _SessionModel(query, method, ctx, {}).rank(FeedbackState(), depth, None)


@dataclass(frozen=True)
class OneRelDraw:
    """One retrieval given a single fed relevant passage."""

    topic_id: str
    fed_passage: str
    ranking: RankedList


def run_one_rel_experiment(
    query: Query,
    qrels: Judgments,
    method: str,
    ctx: EngineContext,
    fusion: FusionConfig | None = None,
    depth: int | None = None,
    draws: int = 10,
    seed: int = 0,
) -> list[OneRelDraw]:
    """Feed one uniformly drawn relevant passage as the sole positive
    judgment and rank the remaining candidates, `draws` times. Each draw is
    its own evaluation topic. Methods 'ql'/'bm25' ignore the feedback and
    any fusion config, and serve as baselines. Queries with fewer than two in-collection relevant
    passages are skipped."""
    if method not in RF_METHODS + BASELINE_METHODS:
        raise ValueError(f"unknown method {method!r}")
    rel_ids = sorted(pid for pid in qrels.relevant_ids(query.query_id) if pid in ctx.collection)
    if len(rel_ids) < 2:
        logger.warning("query %s has %d relevant passages; one-rel experiment skipped",
                       query.query_id, len(rel_ids))
        return []
    if method in BASELINE_METHODS:
        fusion = None
    rng = np.random.default_rng(seed)
    # draws that feed the same passage share their steps, and a baseline's
    # draws share one score array
    model = _SessionModel(query, method, ctx, {})
    out: list[OneRelDraw] = []
    for draw in range(draws):
        fed = rel_ids[int(rng.integers(len(rel_ids)))]
        topic_id = f"{query.query_id}.d{draw}"
        state = update_pools(FeedbackState(), [(fed, True)])
        ranked = model.rank(state, _depth(depth, state), fusion)
        ranking = RankedList.at_positions(topic_id, ranked.index_ids, ranked.positions, ranked.scores)
        out.append(OneRelDraw(topic_id=topic_id, fed_passage=fed, ranking=ranking))
    return out


def write_trace(path, results: Sequence[SessionResult]) -> None:
    """Session audit log, one JSON object per trace step, rendered here: the
    query id, the iteration, the shown passages and their judgments, and the
    re-estimated model's ten heaviest terms (ties broken by term), weights
    rounded to 6 places."""
    with open(path, "w", encoding="utf-8") as fh:
        for result in results:
            for iteration, step in enumerate(result.trace):
                top = sorted(step.weights.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
                row = {"iteration": iteration, "judgments": dict(step.judged),
                       "model": {t: round(w, 6) for t, w in top}, "query_id": result.frozen.query_id,
                       "shown": [pid for pid, _ in step.judged]}
                fh.write(json.dumps(row, sort_keys=True) + "\n")
