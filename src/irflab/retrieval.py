"""Ranking functions over the inverted index.

Each ranker is a score function plus _take_top:
  ql_scores / rank_ql            weighted query models under Dirichlet
                                 smoothing, in the KL-divergence
                                 rank-equivalent form (reduces to standard
                                 QL for a maximum-likelihood query model)
  bm25_scores / rank_bm25        Okapi BM25 with the IDF clamped at zero
  rocchio_scores / rank_rocchio  dot product between a tf-idf query vector
                                 and tf-idf passages
A score function returns one read-only float64 score per index position;
the rank_* function passes it to _take_top. A caller that ranks one score
array at several depths or excluded sets (a feedback session whose query
model did not change) scores once and takes the tops itself.

All rankings are deterministic: descending score with ties broken by
ascending passage_id (the index's tie_rank). Excluded passages never appear
in the output.

A ranking of depth k with e passages excluded does not sort all n scores.
np.partition finds the cut, the (k + e)-th highest score, and one pass
finds the passages at or above it. When more than k + e remain, those above
the cut are kept, and of those tied at it the ones first in passage_id
order, until k + e are kept. Every other passage sorts after all
of these, so sorting them by (-score, tie_rank) gives exactly the first
k + e entries of the full sort. Dropping the excluded passages among them
and cutting to k gives the ranking. NaN scores sort last and never reach
the cut. The full sort is used when k + e >= n and when the cut score is
not finite: an infinite score, or fewer than k + e scores that are not NaN.

Depth 1 needs no partition: with the excluded positions set to -inf on a
copy, the answer is the passage of lowest tie_rank among those tied at the
maximum. When that maximum is not finite (a NaN or an infinite score, or
every passage excluded), the general path above decides instead.

A ranking stays in index positions: a RankedList holds positions into an
ids tuple (the index's; a list built from entries has its own) and their
scores as two arrays, and fused_rank re-ranks those arrays. Passage ids and
entries are built on every read, for a shown block, a tail or a run file,
and not kept.

Query likelihood's logs at each mu (``ql_weights``) are computed here and
kept in the index's memo (see ``irflab.index``); the other scorers keep
nothing.
"""

from __future__ import annotations

import logging
import sys
from array import array
from dataclasses import dataclass
from operator import gt
from typing import AbstractSet, Iterable, Mapping, Sequence

import numpy as np

from .corpus import Query
from .index import Index, TermVector, collection_prob, idf, query_counts

logger = logging.getLogger(__name__)

MU_GRID = (30.0, 50.0, 300.0, 500.0, 1000.0, 1500.0)
K1_GRID = (1.2, 1.4, 1.6, 1.8, 2.0)


@dataclass(frozen=True)
class RetrievalParams:
    mu: float = 1000.0
    k1: float = 1.2
    b: float = 0.75

    def __post_init__(self):
        if self.mu <= 0:
            raise ValueError("mu must be > 0")
        if self.k1 <= 0:
            raise ValueError("k1 must be > 0")
        if not 0.0 <= self.b <= 1.0:
            raise ValueError("b must be in [0, 1]")


class RankedList:
    """Descending-score ranking of passages for one query.

    A list holds two read-only arrays, ``positions`` (int64, into the ids
    tuple ``index_ids``) and ``scores`` (float64). Rankers and fused_rank
    share the index's ``ids``; ``RankedList(query_id, entries)`` ranks
    positions 0 .. n-1 of the entries' own ids, so fused_rank refuses it.
    ``ids()`` and ``entries`` are built afresh on every read and not kept,
    so a list that a writer or checker has read holds no id tuple and no
    (id, float) tuple per row. Lists compare by identity; compare two
    rankings by their ``entries`` or ``ids()``. Unpickling or copying a
    list raises the read-only AttributeError: its pickle would carry the
    whole ids tuple, so a worker process returns ids, never a list.
    """

    __slots__ = ("query_id", "positions", "scores", "index_ids")

    def __init__(self, query_id: str, entries: Iterable[tuple[str, float]]):
        entries = tuple(entries)
        self._hold(query_id, tuple([pid for pid, _ in entries]), np.arange(len(entries), dtype=np.int64),
                   np.array([score for _, score in entries], dtype=np.float64))

    @classmethod
    def at_positions(cls, query_id: str, index_ids: tuple[str, ...], positions: np.ndarray,
                     scores: np.ndarray) -> "RankedList":
        """The list of these index positions with these scores, in order; both
        arrays are made read-only, not copied."""
        ranked = cls.__new__(cls)
        ranked._hold(query_id, index_ids, positions, scores)
        return ranked

    def _hold(self, query_id: str, index_ids: tuple[str, ...], positions: np.ndarray, scores: np.ndarray) -> None:
        positions.setflags(write=False)
        scores.setflags(write=False)
        _set = object.__setattr__
        _set(self, "query_id", query_id)
        _set(self, "positions", positions)
        _set(self, "scores", scores)
        _set(self, "index_ids", index_ids)

    def __setattr__(self, name, value):
        raise AttributeError(f"RankedList is read-only; cannot set {name!r}")

    @property
    def entries(self) -> tuple[tuple[str, float], ...]:
        """(passage id, score) pairs in rank order, built on each read."""
        return tuple(zip(self.ids(), self.scores.tolist()))

    def ids(self) -> tuple[str, ...]:
        """Every passage id in rank order, built on each read."""
        return self.head(len(self))

    def head(self, n: int) -> tuple[str, ...]:
        """The first n passage ids, read without building the rest."""
        index_ids = self.index_ids
        return tuple([index_ids[i] for i in self.positions[:n].tolist()])

    def __len__(self) -> int:
        return len(self.positions)


def _take_top(index: Index, scores: np.ndarray, exclude: AbstractSet[str], depth: int, query_id: str) -> RankedList:
    """The first depth entries of the (-score, passage_id asc) order over the
    passages not excluded, as a list of index positions and their scores."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    id_to_pos = index.id_to_pos
    excluded = [id_to_pos[pid] for pid in exclude if pid in id_to_pos]
    n = index.passage_count
    if depth == 1 and n:
        masked = scores.copy()
        masked[excluded] = -np.inf
        best = masked.max()
        if np.isfinite(best):
            tied = np.flatnonzero(masked == best)
            top = tied[index.tie_rank[tied].argmin(keepdims=True)]
            return RankedList.at_positions(query_id, index.ids, top, scores[top])
    k = depth + len(excluded)
    cand = None
    if k < n:
        # selecting the k-th smallest of -scores stays fast when most scores
        # are equal, which selecting the (n-k)-th smallest of scores does not
        cut = -np.partition(-scores, k - 1)[k - 1]
        if np.isfinite(cut):
            cand = np.flatnonzero(scores >= cut)
            if len(cand) > k:  # of the passages tied at the cut, the first in id order
                cand_scores = scores[cand]
                above = cand[cand_scores > cut]
                tied = cand[cand_scores == cut]
                need = k - len(above)
                tied = tied[np.argpartition(index.tie_rank[tied], need - 1)[:need]]
                cand = np.concatenate((above, tied))
    if cand is None:
        cand = np.arange(n)
    order = np.lexsort((index.tie_rank[cand], -scores[cand]))
    # the first k of the order hold every passage of the answer
    top = cand[order[:k]]
    if excluded:
        keep = np.ones(n, dtype=bool)
        keep[excluded] = False
        top = top[keep[top]][:depth]
    return RankedList.at_positions(query_id, index.ids, top, scores[top])


def ql_weights(index: Index, mu: float) -> tuple[np.ndarray, dict[str, tuple]]:
    """ln(|d| + mu) of every passage and, by term, the (ln(mu p(w|C)),
    positions, ln(tf + mu p(w|C)) - ln(mu p(w|C))) of the postings of each
    term ``ql_scores`` has scored at mu: kept on the index, all read-only."""
    def build():
        log_len = np.log(index.doc_len + mu)
        log_len.setflags(write=False)
        return log_len, {}
    return index.cached(("ql", mu), build)


def ql_scores(query_model: Mapping[str, float], index: Index, params: RetrievalParams) -> np.ndarray:
    """Score passages by sum_w P(w|Q) * ln[(tf + mu p(w|C)) / (|d| + mu)].

    Expects a normalized query model (weights >= 0 summing to 1). Terms
    absent from the collection (p(w|C) = 0) are skipped with a warning, on
    every call, and leave the remaining weights untouched.

    A term's logs are computed on the first call that scores the (term, mu)
    pair and kept in mu's ``ql_weights``: 8 bytes per posting per distinct
    mu. A call looks up mu's table once and reads each term there. It adds
    ``weight`` times the logs, so its scores are bit for bit those of
    taking the logs afresh.
    """
    if not query_model:
        raise ValueError("empty query model")
    mu = params.mu
    log_len, cached = ql_weights(index, mu)
    scores = np.zeros(index.passage_count, dtype=np.float64)
    kept_weight = 0.0
    const = 0.0
    for term, weight in query_model.items():
        entry = cached.get(term)
        if entry is None:
            p_c = collection_prob(index, term)
            if p_c == 0.0:
                logger.warning("query term %r unseen in collection; skipped", term)
                continue
            positions, tfs = index.postings[term]
            log_smooth = np.log(mu * p_c)
            ratio = np.log(tfs + mu * p_c) - log_smooth
            ratio.setflags(write=False)
            entry = cached[term] = (log_smooth, positions, ratio)
        log_smooth, positions, ratio = entry
        kept_weight += weight
        const += weight * log_smooth
        scores[positions] += weight * ratio
    scores += const - kept_weight * log_len
    scores.setflags(write=False)
    return scores


def rank_ql(
    query_model: Mapping[str, float],
    index: Index,
    params: RetrievalParams,
    depth: int,
    exclude: AbstractSet[str] = frozenset(),
    query_id: str = "q",
) -> RankedList:
    """The top depth passages by ``ql_scores``.

    Every call scores afresh, so every call warns about each unseen query
    term. A feedback session scores each distinct (model, mu) once and
    warns once per scoring, however many rankings read it.
    """
    return _take_top(index, ql_scores(query_model, index, params), exclude, depth, query_id)


def bm25_scores(query: Query, index: Index, params: RetrievalParams) -> np.ndarray:
    """Okapi BM25; idf = max(0, ln((N - df + 0.5) / (df + 0.5))).

    Repeated query tokens contribute once per occurrence.
    """
    if not query.tokens:
        raise ValueError(f"query {query.query_id!r} has no tokens")
    k1, b = params.k1, params.b
    n = index.passage_count
    # in a collection of empty passages every length equals the average, 0
    rel_len = index.doc_len / index.avg_doc_len if index.avg_doc_len > 0 else np.ones(n)
    norm = k1 * (1.0 - b + b * rel_len)
    scores = np.zeros(n, dtype=np.float64)
    for term, mult in query_counts(query).items():
        if term not in index:
            continue
        df = index.df.item(index.term_ids[term])
        w = max(0.0, float(np.log((n - df + 0.5) / (df + 0.5))))
        if w == 0.0:
            continue
        positions, tfs = index.postings[term]
        scores[positions] += mult * w * tfs * (k1 + 1.0) / (tfs + norm[positions])
    scores.setflags(write=False)
    return scores


def rank_bm25(
    query: Query,
    index: Index,
    params: RetrievalParams,
    depth: int,
    exclude: AbstractSet[str] = frozenset(),
) -> RankedList:
    """The top depth passages by ``bm25_scores``."""
    return _take_top(index, bm25_scores(query, index, params), exclude, depth, query.query_id)


def rocchio_scores(query_vec: TermVector, index: Index) -> np.ndarray:
    """Inner product of the query vector with each passage's tf-idf vector."""
    scores = np.zeros(index.passage_count, dtype=np.float64)
    for term, qw in query_vec.items():
        if qw == 0.0:
            continue
        w = idf(index, term)
        if w == 0.0:
            continue
        positions, tfs = index.postings[term]
        scores[positions] += qw * w * tfs
    scores.setflags(write=False)
    return scores


def rank_rocchio(
    query_vec: TermVector,
    index: Index,
    depth: int,
    exclude: AbstractSet[str] = frozenset(),
    query_id: str = "q",
) -> RankedList:
    """The top depth passages by ``rocchio_scores``."""
    return _take_top(index, rocchio_scores(query_vec, index), exclude, depth, query_id)


def _write_trec(path, rankings: Iterable[tuple[str, Iterable[str], Iterable[float]]], tag: str) -> None:
    """One TREC run line per rank of each (query_id, ranked ids, their scores)."""
    with open(path, "w", encoding="utf-8") as fh:
        for query_id, ids, scores in rankings:
            for rank, (pid, score) in enumerate(zip(ids, scores), start=1):
                fh.write(f"{query_id} Q0 {pid} {rank} {score:.6f} {tag}\n")


def write_run(path, rankings: Iterable[RankedList], tag: str = "irflab") -> None:
    """Write rankings in TREC run format: qid Q0 pid rank score tag."""
    _write_trec(path, ((ranked.query_id, ranked.ids(), ranked.scores.tolist()) for ranked in rankings), tag)


def write_ranked_ids(path, rankings: Iterable[tuple[str, Sequence[str]]], tag: str = "irflab") -> None:
    """Write (query_id, ordered passage ids) pairs in TREC run format. The
    id at rank r of n gets the score n - r + 1, so scores descend with rank;
    a list with no scores of its own (a freezing ranking) is written so."""
    _write_trec(path, ((query_id, ids, map(float, range(len(ids), 0, -1))) for query_id, ids in rankings), tag)


def read_run(path) -> dict[str, list[tuple[str, float]]]:
    """Read a TREC run file; entries per query ordered by the rank column,
    file order among equal ranks.

    The (id, score) rows are the result from the first line on: a query's
    ranks wait in a 64-bit array and reorder its rows in place only when
    the file has them out of order. Passage ids are interned
    (``sys.intern``), so a run file shares one string per distinct id with
    the collection ingested beside it. A rank that is not a 64-bit integer
    or a score that is not a number raises ValueError naming the path and
    the line.
    """
    out: dict[str, list[tuple[str, float]]] = {}
    ranks: dict[str, array] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            fields = line.split()
            if not fields:
                continue
            if len(fields) != 6:
                raise ValueError(f"{path}: line {lineno}: expected 6 fields, got {len(fields)}")
            qid, _, pid, rank_str, score_str, _ = fields
            rows = out.get(qid)
            if rows is None:
                rows = out[qid] = []
                ranks[qid] = array("q")
            try:
                ranks[qid].append(int(rank_str))
            except (ValueError, OverflowError):
                raise ValueError(f"{path}: line {lineno}: rank {rank_str!r} is not a 64-bit integer") from None
            try:
                rows.append((sys.intern(pid), float(score_str)))
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: score {score_str!r} is not a number") from None
    for qid, rows in out.items():
        order = ranks.pop(qid)
        if any(map(gt, order, order[1:])):
            rows[:] = [rows[i] for i in sorted(range(len(rows)), key=order.__getitem__)]
    return out
