"""Passage-level semantic-match fusion.

A candidate is scored against the centroid of the relevant pool in
embedding space, and that similarity is added to the base feedback score:

    score(d) = score_rf(d) + lambda_sf * cos(centroid(RP), vec(d))

Scores are combined raw (no normalization); the lambda grids absorb the
scale differences between feedback methods.

fused_rank works on index positions. It reads the base list's positions
and scores as arrays (the base list must be a ranking of the same index) and
returns positions and fused scores, ordered by one lexsort; passage ids are
not looked up. For pv/pvc it reads the pool and candidate vectors with one
fancy index into the trained passage vectors, through a map from index
position to model row built once per (model, index), and takes the
candidates' norms from a table built with the map; the vectors are not
copied. avg_w2v/idf_w2v vectors and norms are computed per call, for the
pool and candidates only.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .corpus import Passage, PassageCollection
from .embeddings import EmbeddingModel, REPRESENTATION_MODES, UnrepresentablePassage, passage_vector
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


def _pv_rows(model: EmbeddingModel, index: Index) -> tuple[np.ndarray, np.ndarray]:
    """Per index position, the row of its passage in the model's passage
    vectors (-1 if it was not trained) and that vector's norm (0 if not)."""
    rows = model.passage_rows(index.ids)
    vectors = model.passage_vectors
    vector_norms = np.empty(len(vectors))
    for lo in range(0, len(vectors), 4096):  # in blocks: no temporary as large as the vectors
        vector_norms[lo:lo + 4096] = np.linalg.norm(vectors[lo:lo + 4096], axis=1)
    trained = rows >= 0
    norms = np.zeros(len(rows))
    norms[trained] = vector_norms[rows[trained]]
    rows.setflags(write=False)
    norms.setflags(write=False)
    return rows, norms


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

    The base list must be a ranking of this index (a ranker's or
    fused_rank's list over it, told by its ids tuple); any other list
    raises ValueError. Its positions and scores are read as arrays, and the
    output is a list of positions too. It contains exactly the base list's
    passages. With an empty relevant pool no semantic evidence exists and
    the base list is returned unchanged. A passage missing from a pv/pvc
    model raises ValueError.
    """
    if base.index_ids is not index.ids:
        raise ValueError(f"fused_rank needs a list ranked over this index; the list of {base.query_id!r} is not")
    if not state.relevant_pool:
        return base
    pool_size = len(state.relevant_pool)
    id_to_pos = index.id_to_pos
    cand = base.positions
    positions = np.concatenate(([id_to_pos[pid] for pid in state.relevant_pool], cand))
    mode = cfg.representation_mode
    if mode in ("pv", "pvc"):
        rows, row_norms = model.cached(("pv", index), lambda: _pv_rows(model, index))
        rows = rows[positions]
        missing = np.flatnonzero(rows < 0)
        if len(missing):
            raise ValueError(f"passage {index.ids[positions[missing[0]]]!r} was not in the training corpus")
        vectors = model.passage_vectors[rows]
        norms = row_norms[cand]
    else:
        ids = index.ids
        vectors = np.stack([_vector_or_zero(collection[ids[i]], model, mode, index) for i in positions.tolist()])
        norms = np.linalg.norm(vectors[pool_size:], axis=1)
    centroid = np.zeros(model.dim)
    for vec in vectors[:pool_size]:  # row by row in pool order, as the per-passage reference sums
        centroid += vec
    centroid /= pool_size
    vectors = vectors[pool_size:]
    cnorm = np.linalg.norm(centroid)
    sims = np.zeros(len(cand))
    if cnorm > 0.0:
        ok = norms > 0.0
        sims[ok] = vectors[ok] @ centroid / (norms[ok] * cnorm)
    fused = base.scores + cfg.lambda_sf * sims
    order = np.lexsort((index.tie_rank[cand], -fused))
    return RankedList.at_positions(base.query_id, index.ids, cand[order], fused[order])
