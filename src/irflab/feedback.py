"""Feedback query-model estimators over accumulated judgment pools.

Estimators:
  estimate_rm3           relevance model weighted by Dirichlet P(Q|D),
                         interpolated with the original query
  estimate_distillation  EM topic model under a three-component mixture
                         (topic / corpus / non-relevant), interpolated
  rocchio_update         vector-space centroid update with negative clipping
  estimate_erm           RM3 with the document weight replaced by a mix of
                         exact-match likelihood and embedding-translation
                         likelihood

Query models are plain {term: probability} dicts (non-negative, summing to
one), so they serialize directly with ``json.dumps`` for inspection. Pools
are Passage lists; their term counts are read from the index's forward
rows, so every pooled passage must be in the index.

Per-passage evidence is combined in pool order, so an estimate is bit for
bit the same however warm its caches are. Term counts and tf-idf rows come
from the index. log P(Q|D) is computed on every call. ERM's translation
likelihoods go in the optional ``cache`` dict that estimate_erm takes, one
per query over one index and embedding model; ``irflab.simulation`` says
how long a session keeps it. Without a cache every call computes afresh.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .corpus import Passage, Query
from .embeddings import EmbeddingModel
from .index import Index, TermVector, collection_prob, memo, query_counts

logger = logging.getLogger(__name__)

# Weighted term distribution; probabilities >= 0, sum to 1 within 1e-9.
QueryModel = dict[str, float]


@dataclass(frozen=True)
class FeedbackParams:
    m: int = 20                 # expansion terms kept after truncation
    alpha_interp: float = 0.5   # weight of the original query model
    lambda_mix: float = 0.5     # corpus component of the distillation mixture
    lambda_nr: float = 0.1      # non-relevant component of the mixture
    rocchio_alpha: float = 1.0
    rocchio_beta: float = 0.75
    rocchio_gamma: float = 0.15
    em_max_iters: int = 50
    em_tol: float = 1e-6

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if not 0.0 <= self.alpha_interp <= 1.0:
            raise ValueError("alpha_interp must be in [0, 1]")
        if min(self.lambda_mix, self.lambda_nr) < 0.0:
            raise ValueError("mixture weights must be >= 0")
        if min(self.rocchio_alpha, self.rocchio_beta, self.rocchio_gamma) < 0.0:
            raise ValueError("rocchio coefficients must be >= 0")
        if self.em_max_iters < 1:
            raise ValueError("em_max_iters must be >= 1")


@dataclass(frozen=True)
class ErmParams:
    lambda_erm: float = 0.5   # weight of the exact-match likelihood
    sigmoid_a: float = 10.0
    sigmoid_c: float = 0.5
    neighbors: int = 10

    def __post_init__(self):
        if not 0.0 <= self.lambda_erm <= 1.0:
            raise ValueError("lambda_erm must be in [0, 1]")
        if self.neighbors < 1:
            raise ValueError("neighbors must be >= 1")


@dataclass(frozen=True)
class FeedbackState:
    """Per-session accumulated judgment pools; grows monotonically."""

    relevant_pool: tuple[str, ...] = ()
    nonrelevant_pool: tuple[str, ...] = ()
    shown: frozenset[str] = frozenset()


def update_pools(state: FeedbackState, judged: Sequence[tuple[str, bool]]) -> FeedbackState:
    """Fold one iteration of judgments into the pools."""
    seen_now: set[str] = set()
    for pid, _ in judged:
        if pid in state.shown:
            raise ValueError(f"passage {pid!r} was already shown in this session")
        if pid in seen_now:
            raise ValueError(f"passage {pid!r} judged twice in one iteration")
        seen_now.add(pid)
    rel = list(state.relevant_pool)
    nonrel = list(state.nonrelevant_pool)
    for pid, is_rel in judged:
        (rel if is_rel else nonrel).append(pid)
    return FeedbackState(
        relevant_pool=tuple(rel),
        nonrelevant_pool=tuple(nonrel),
        shown=state.shown | seen_now,
    )


def query_mle(query: Query) -> QueryModel:
    """Maximum-likelihood model of the query tokens."""
    if not query.tokens:
        raise ValueError(f"query {query.query_id!r} has no tokens")
    n = len(query.tokens)
    return {t: c / n for t, c in query_counts(query).items()}


def _normalize(dist: dict[str, float]) -> QueryModel:
    total = sum(dist.values())
    if total <= 0:
        raise ValueError("cannot normalize an all-zero distribution")
    return {t: w / total for t, w in dist.items()}


def _truncate_top_m(dist: dict[str, float], m: int) -> QueryModel:
    """Keep the m heaviest terms (ties broken by term) and renormalize."""
    top = sorted(dist.items(), key=lambda kv: (-kv[1], kv[0]))[:m]
    return _normalize(dict(top))


def _interpolate(original: QueryModel, expansion: QueryModel, alpha: float) -> QueryModel:
    mixed: dict[str, float] = {}
    for t, w in original.items():
        mixed[t] = mixed.get(t, 0.0) + alpha * w
    for t, w in expansion.items():
        mixed[t] = mixed.get(t, 0.0) + (1.0 - alpha) * w
    return _normalize({t: w for t, w in mixed.items() if w > 0.0})


def _log_query_likelihood(query: Query, counts: Mapping[str, int], dlen: int, index: Index, mu: float) -> float:
    """Dirichlet-smoothed log P(Q|D) of a passage with these term counts and
    length; collection-unseen terms are skipped."""
    logp = 0.0
    for tok in query.tokens:
        p_c = collection_prob(index, tok)
        if p_c == 0.0:
            logger.warning("query term %r unseen in collection; skipped in P(Q|D)", tok)
            continue
        logp += np.log((counts.get(tok, 0) + mu * p_c) / (dlen + mu))
    return logp


def _pool_counts(pool: Sequence[Passage], index: Index) -> list[tuple[Mapping[str, int], int]]:
    """Each pooled passage's term counts, read from its forward row, and length."""
    return [(index.term_counts(p), len(p.tokens)) for p in pool]


def _pool_weighted_model(pool: Sequence[tuple[Mapping[str, int], int]], doc_weights: np.ndarray) -> dict[str, float]:
    """P(w|R) = sum_D weight(D) * P_ml(w|D) with weights summing to one."""
    model: dict[str, float] = {}
    for (counts, dlen), w in zip(pool, doc_weights):
        if w == 0.0 or dlen == 0:
            continue
        for term, tf in counts.items():
            model[term] = model.get(term, 0.0) + w * tf / dlen
    if not model:
        raise ValueError("relevant pool contains no tokens")
    return model


def estimate_rm3(
    query: Query,
    rel_pool: Sequence[Passage],
    index: Index,
    params: FeedbackParams,
    mu: float = 1000.0,
) -> QueryModel:
    """Relevance model over the pool, truncated to the top m terms and
    interpolated with the query MLE by alpha_interp.

    A query term unseen in the collection is skipped with a warning per
    pooled passage and call, each time a log P(Q|D) is computed.
    """
    if not rel_pool:
        raise ValueError("relevant pool is empty")
    pool = _pool_counts(rel_pool, index)
    logps = np.array([_log_query_likelihood(query, counts, dlen, index, mu) for counts, dlen in pool])
    weights = np.exp(logps - logps.max())
    weights /= weights.sum()
    relevance_model = _truncate_top_m(_pool_weighted_model(pool, weights), params.m)
    return _interpolate(query_mle(query), relevance_model, params.alpha_interp)


def _mixture_em(
    counts: dict[str, int],
    p_corpus: dict[str, float],
    theta_nr: dict[str, float],
    lambda_mix: float,
    lambda_nr: float,
    max_iters: int,
    tol: float,
) -> dict[str, float]:
    """EM for the topic component of
    P(w) = (1-lm-ln)*theta_F(w) + lm*p(w|C) + ln*theta_N(w),
    maximizing the likelihood of the pooled counts. A step that lowers the
    log-likelihood by more than 1e-9, or makes it NaN, raises RuntimeError."""
    terms = sorted(counts)
    c = np.array([counts[t] for t in terms], dtype=np.float64)
    pc = np.array([p_corpus.get(t, 0.0) for t in terms])
    pn = np.array([theta_nr.get(t, 0.0) for t in terms])
    f = 1.0 - lambda_mix - lambda_nr
    corpus_part = lambda_mix * pc
    nr_part = lambda_nr * pn
    theta = np.full(len(terms), 1.0 / len(terms))
    # Every iteration writes into these buffers: the same ufuncs on the same
    # operands as allocating fresh arrays, so the same floats. Adding an
    # all-zero non-relevant part leaves the mixture as it is, so it is skipped.
    topic_part, mix, weighted_log = np.empty_like(theta), np.empty_like(theta), np.empty_like(theta)
    add_nr = bool(nr_part.any())
    multiply, add, divide, log, total = np.multiply, np.add, np.divide, np.log, np.add.reduce
    prev_ll = None
    for _ in range(max_iters):
        multiply(f, theta, out=topic_part)
        add(topic_part, corpus_part, out=mix)
        if add_nr:
            add(mix, nr_part, out=mix)
        log(mix, out=weighted_log)
        multiply(c, weighted_log, out=weighted_log)
        ll = float(total(weighted_log))
        if prev_ll is not None:
            if not ll - prev_ll >= -1e-9:
                raise RuntimeError(f"EM log-likelihood decreased: {prev_ll} -> {ll}")
            if ll - prev_ll < tol:
                break
        prev_ll = ll
        divide(topic_part, mix, out=topic_part)  # the responsibilities of the topic
        multiply(c, topic_part, out=theta)
        divide(theta, total(theta), out=theta)
    return dict(zip(terms, theta.tolist()))


def estimate_distillation(
    query: Query,
    rel_pool: Sequence[Passage],
    nr_pool: Sequence[Passage],
    index: Index,
    params: FeedbackParams,
) -> QueryModel:
    """Distill a topic model out of the relevant pool by explaining away
    corpus-typical mass and a non-relevant topic estimated from the
    non-relevant pool."""
    if not rel_pool:
        raise ValueError("relevant pool is empty")
    lambda_nr = params.lambda_nr
    if lambda_nr > 0.0 and not nr_pool:
        # the normal state of a session whose judged passages were all relevant
        logger.debug("non-relevant pool empty; dropping the non-relevant mixture component")
        lambda_nr = 0.0
    if params.lambda_mix + lambda_nr >= 1.0:
        raise ValueError("lambda_mix + lambda_nr must be < 1")

    counts: dict[str, int] = {}  # summed over the relevant pool, in first-occurrence order
    nr_counts: dict[str, int] = {}  # over the non-relevant pool, when its component is on
    for pool, summed in ((rel_pool, counts), (nr_pool if lambda_nr > 0.0 else (), nr_counts)):
        for passage in pool:
            for term, tf in index.term_counts(passage).items():
                summed[term] = summed.get(term, 0) + tf
    if not counts:
        raise ValueError("relevant pool contains no tokens")

    theta_nr: dict[str, float] = {}
    if lambda_nr > 0.0:
        total = sum(nr_counts.values())
        if total > 0:
            theta_nr = {t: c / total for t, c in nr_counts.items()}
        else:
            logger.warning("non-relevant pool has no tokens; dropping its mixture component")
            lambda_nr = 0.0

    p_corpus = {t: collection_prob(index, t) for t in counts}
    theta = _mixture_em(
        counts, p_corpus, theta_nr, params.lambda_mix, lambda_nr,
        params.em_max_iters, params.em_tol,
    )
    topic_model = _truncate_top_m(theta, params.m)
    return _interpolate(query_mle(query), topic_model, params.alpha_interp)


def rocchio_update(
    query_vec: TermVector,
    rel_pool: Sequence[Passage],
    nr_pool: Sequence[Passage],
    index: Index,
    params: FeedbackParams,
) -> TermVector:
    """alpha*q + beta*centroid(rel) - gamma*centroid(nonrel); negatives are
    clipped to zero and only the original terms plus the top m new terms
    survive."""
    updated: dict[str, float] = {t: params.rocchio_alpha * w for t, w in query_vec.items()}
    # adding -(gamma / n) * w gives the float that subtracting (gamma / n) * w does
    for pool, coef, sign in ((rel_pool, params.rocchio_beta, 1.0), (nr_pool, params.rocchio_gamma, -1.0)):
        if pool and coef > 0.0:
            scale = sign * coef / len(pool)
            for passage in pool:
                for term, w in index.tfidf_row(passage).items():
                    updated[term] = updated.get(term, 0.0) + scale * w
    clipped = {t: max(0.0, w) for t, w in updated.items()}
    new_terms = sorted(
        ((t, w) for t, w in clipped.items() if t not in query_vec and w > 0.0),
        key=lambda kv: (-kv[1], kv[0]),
    )[: params.m]
    out = {t: clipped[t] for t in query_vec}
    out.update(dict(new_terms))
    return out


def _translation_tables(
    terms: Sequence[str],
    model: EmbeddingModel,
    erm: ErmParams,
) -> dict[str, dict[str, float]]:
    """Per query term in the embedding vocabulary: sigmoid-transformed
    cosine weights over its k nearest vocabulary neighbors, normalized over
    the neighbor set. Each table is built once per (term, erm) and cached on
    the model."""
    return {
        term: model.cached(("erm", term, erm), lambda: _translation_table(term, model, erm))
        for term in terms
        if term in model.vocab
    }


def _translation_table(term: str, model: EmbeddingModel, erm: ErmParams) -> dict[str, float]:
    unit = model.unit_word_vectors()
    vocab_terms = model.terms
    sims = unit @ unit[model.vocab[term]]
    k = min(erm.neighbors, len(vocab_terms))
    # every word at or above the k-th highest cosine, so that term order,
    # not the partition, decides among the words tied at the cut
    nearest = np.flatnonzero(sims >= -np.partition(-sims, k - 1)[k - 1])
    order = sorted(nearest.tolist(), key=lambda j: (-sims[j], vocab_terms[j]))[:k]
    raw = {vocab_terms[j]: _sigmoid(erm.sigmoid_a * (float(sims[j]) - erm.sigmoid_c)) for j in order}
    return _normalize(raw)


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + np.exp(-x))
    e = np.exp(x)
    return e / (1.0 + e)


def estimate_erm(
    query: Query,
    rel_pool: Sequence[Passage],
    index: Index,
    embeddings: EmbeddingModel,
    params: FeedbackParams,
    erm: ErmParams,
    mu: float = 1000.0,
    cache: dict | None = None,
) -> QueryModel:
    """RM3 with P(Q|D) replaced by
    lambda*P_exact(Q|D) + (1-lambda)*prod_q sum_w T(q|w) P_ml(w|D).

    Query terms outside the embedding vocabulary are skipped from the
    translation product with a warning. Likelihoods are combined in raw
    probability space, so this suits short queries (topic-description
    length), not paragraph-length ones.

    ``cache`` (see the module docstring) keeps each passage's translation
    likelihood per ErmParams; the exact-match log P(Q|D) is computed on
    every call. The out-of-vocabulary warning fires once per call (a
    feedback session computes each distinct estimate once), the
    unseen-term one per pooled passage and call, as rm3's does.
    """
    if embeddings is None:
        raise ValueError("estimate_erm requires an embedding model")
    if not rel_pool:
        raise ValueError("relevant pool is empty")
    in_vocab = [t for t in query.tokens if t in embeddings.vocab]
    for t in query.tokens:
        if t not in embeddings.vocab:
            logger.warning("query term %r not in embedding vocabulary; skipped in translation", t)
    tables = _translation_tables(sorted(set(in_vocab)), embeddings, erm)

    pool = _pool_counts(rel_pool, index)
    translations = {} if cache is None else memo(cache, ("erm", erm), dict)
    weights = np.zeros(len(rel_pool))
    for i, (passage, (counts, dlen)) in enumerate(zip(rel_pool, pool)):
        logp = _log_query_likelihood(query, counts, dlen, index, mu)
        p_trans = memo(translations, passage.passage_id, lambda: math.prod(  # prod_q sum_w T(q|w) P_ml(w|D)
            (sum(tw * counts.get(w, 0) / dlen for w, tw in tables[tok].items()) if dlen else 0.0
             for tok in in_vocab), start=1.0))
        weights[i] = erm.lambda_erm * float(np.exp(logp)) + (1.0 - erm.lambda_erm) * p_trans
    total = weights.sum()
    if total <= 0.0:
        logger.warning("all document weights vanished; falling back to uniform pool weights")
        weights = np.full(len(rel_pool), 1.0 / len(rel_pool))
    else:
        weights = weights / total
    relevance_model = _truncate_top_m(_pool_weighted_model(pool, weights), params.m)
    return _interpolate(query_mle(query), relevance_model, params.alpha_interp)

