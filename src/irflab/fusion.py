"""Passage-level semantic-match fusion.

A candidate is scored against the centroid of the relevant pool in
embedding space, and that similarity is added to the base feedback score:

    score(d) = score_rf(d) + lambda_sf * cos(centroid(RP), vec(d))

Scores are combined raw (no normalization); the lambda grids absorb the
scale differences between feedback methods.

For pv/pvc, fused_rank reads the pool and candidate vectors with one fancy
index into the trained passage vectors, through a map from index position to
model row built once per (model, index); the vectors are not copied.
avg_w2v/idf_w2v vectors are computed per call, for the pool and candidates
only. pool_centroid and semantic_score compute each vector on the fly; they
are the per-passage reference.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import Passage, PassageCollection
from .embeddings import EmbeddingModel, REPRESENTATION_MODES, UnrepresentablePassage, cosine, passage_vector
from .feedback import FeedbackState
from .index import Index
from .retrieval import RankedList

logger = logging.getLogger(__name__)

LAMBDA_SF_GRID_WIDE = tuple(float(x) for x in range(5, 45, 5))  # 5 .. 40


@dataclass(frozen=True)
class FusionConfig:
    lambda_sf: float = 1.0
    representation_mode: str = "pvc"

    def __post_init__(self):
        if self.lambda_sf < 0.0:
            raise ValueError("lambda_sf must be >= 0")
        if self.representation_mode not in REPRESENTATION_MODES:
            raise ValueError(f"unknown representation mode {self.representation_mode!r}")


def _vector_or_zero(passage: Passage, model: EmbeddingModel, mode: str, index: Index) -> np.ndarray:
    try:
        return passage_vector(passage, model, mode, index)
    except UnrepresentablePassage:
        logger.warning("passage %r not representable in mode %s; using zero vector", passage.passage_id, mode)
        return np.zeros(model.dim)


def pool_centroid(rel_pool: Sequence[Passage], model: EmbeddingModel, mode: str, index: Index) -> np.ndarray:
    """Mean vector of the relevant pool; unrepresentable members count as zero."""
    if not rel_pool:
        raise ValueError("relevant pool is empty")
    total = np.zeros(model.dim)
    for passage in rel_pool:
        total += _vector_or_zero(passage, model, mode, index)
    return total / len(rel_pool)


def semantic_score(
    rel_pool: Sequence[Passage],
    candidate: Passage,
    model: EmbeddingModel,
    mode: str,
    index: Index,
) -> float:
    """Cosine between the pool centroid and the candidate's representation;
    0 when the candidate has no representable tokens."""
    centroid = pool_centroid(rel_pool, model, mode, index)
    try:
        vec = passage_vector(candidate, model, mode, index)
    except UnrepresentablePassage:
        logger.warning("candidate %r not representable; semantic score 0", candidate.passage_id)
        return 0.0
    return cosine(centroid, vec)


def _gather(positions: list[int], model: EmbeddingModel, mode: str, collection: PassageCollection, index: Index) -> np.ndarray:
    """The vectors of the passages at these index positions, one row each;
    unrepresentable ones are zero. A passage missing from a pv/pvc model
    raises ValueError."""
    if mode not in ("pv", "pvc"):
        return np.stack([_vector_or_zero(collection[index.ids[i]], model, mode, index) for i in positions])
    rows = model.cached(("pv", index), lambda: model.passage_rows(index.ids))
    rows = rows[positions]
    missing = np.flatnonzero(rows < 0)
    if len(missing):
        raise ValueError(f"passage {index.ids[positions[missing[0]]]!r} was not in the training corpus")
    return model.passage_vectors[rows]


def fused_rank(
    base: RankedList,
    state: FeedbackState,
    model: EmbeddingModel,
    cfg: FusionConfig,
    collection: PassageCollection,
    index: Index,
) -> RankedList:
    """Re-rank the base list by base score + lambda_sf * semantic score,
    ties broken by ascending passage_id.

    The output contains exactly the base list's passages. With an empty
    relevant pool no semantic evidence exists and the base list is returned
    unchanged.
    """
    if not state.relevant_pool:
        return base
    pool_size = len(state.relevant_pool)
    pids = base.ids()
    id_to_pos = index.id_to_pos
    positions = [id_to_pos[pid] for pid in state.relevant_pool + pids]
    vectors = _gather(positions, model, cfg.representation_mode, collection, index)
    centroid = np.zeros(model.dim)
    for vec in vectors[:pool_size]:  # row by row, in pool_centroid's summation order
        centroid += vec
    centroid /= pool_size
    vectors = vectors[pool_size:]
    norms = np.linalg.norm(vectors, axis=1)
    cnorm = np.linalg.norm(centroid)
    sims = np.zeros(len(pids))
    if cnorm > 0.0:
        ok = norms > 0.0
        sims[ok] = vectors[ok] @ centroid / (norms[ok] * cnorm)
    fused = np.array([score for _, score in base.entries]) + cfg.lambda_sf * sims
    order = np.lexsort((index.tie_rank[positions[pool_size:]], -fused)).tolist()
    scores = fused.tolist()
    return RankedList(
        query_id=base.query_id,
        entries=tuple([(pids[i], scores[i]) for i in order]),
    )
