"""Passage-level semantic-match fusion.

A candidate is scored against the centroid of the relevant pool in
embedding space, and that similarity is added to the base feedback score:

    score(d) = score_rf(d) + lambda_sf * cos(centroid(RP), vec(d))

Scores are combined raw (no normalization); the lambda grids absorb the
scale differences between feedback methods.

fused_rank works on index positions. It reads the base list's positions
and scores as arrays (the base list must be a ranking of the same index) and
returns positions and fused scores, ordered by one lexsort; passage ids are
not looked up. One gather, ``_gather``, reads the vectors and norms of
the pool and of the candidates. For pv/pvc it reads them by fancy indexing
into the trained passage vectors and their norms, through the model's row
map from index position to model row (``EmbeddingModel.vectors_at``): built
once per (model, index) from the index's id map, 16 bytes per indexed
passage. avg_w2v/idf_w2v vectors and norms are computed per call.

The pool side of a call, the centroid of the relevant pool's vectors
(summed row by row in pool order) and its norm, depends only on the pool
and the mode. A caller that fuses against one pool many times (a feedback
session, across iterations and grid points) passes a ``cache`` dict, kept
for one index and embedding model, and the centroid is computed once per
(relevant pool, mode) and kept there through ``irflab.index.memo``: one
dim-float vector per distinct pool. A call then gathers only the
candidates' rows.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .corpus import Passage, PassageCollection
from .embeddings import EmbeddingModel, REPRESENTATION_MODES, UnrepresentablePassage, passage_vector
from .feedback import FeedbackState
from .index import Index, memo
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


def _gather(positions: np.ndarray, model: EmbeddingModel, mode: str, collection: PassageCollection,
            index: Index) -> tuple[np.ndarray, np.ndarray]:
    """The vectors of these index positions, one row each, and their norms.
    pv/pvc rows are the trained passage vectors (``vectors_at``);
    avg_w2v/idf_w2v vectors are computed per passage (an unrepresentable
    one is a zero vector)."""
    if mode in ("pv", "pvc"):
        return model.vectors_at(index, positions)
    ids = index.ids
    vectors = (np.stack([_vector_or_zero(collection[ids[i]], model, mode, index) for i in positions.tolist()])
               if len(positions) else np.zeros((0, model.dim)))
    return vectors, np.linalg.norm(vectors, axis=1)


def _pool_centroid(pool: tuple[str, ...], model: EmbeddingModel, mode: str, collection: PassageCollection,
                   index: Index) -> tuple[np.ndarray, float]:
    """The centroid of the pool's vectors, summed row by row in pool order as
    the per-passage reference sums, and its norm; the centroid is read-only."""
    missing = [pid for pid in pool if pid not in index.id_to_pos]
    if missing:
        raise ValueError(f"relevant-pool passage {missing[0]!r} is not in the index")
    vectors, _ = _gather(np.array([index.id_to_pos[pid] for pid in pool]), model, mode, collection, index)
    centroid = np.zeros(model.dim)
    for vec in vectors:
        centroid += vec
    centroid /= len(pool)
    centroid.setflags(write=False)
    return centroid, np.linalg.norm(centroid)


def fused_rank(
    base: RankedList,
    state: FeedbackState,
    model: EmbeddingModel,
    cfg: FusionConfig,
    collection: PassageCollection,
    index: Index,
    cache: dict | None = None,
) -> RankedList:
    """Re-rank the base list by base score + lambda_sf * semantic score,
    ties broken by ascending passage_id.

    The base list must be a ranking of this index (a ranker's or
    fused_rank's list over it, told by its ids tuple); any other list
    raises ValueError. Its positions and scores are read as arrays, and the
    output is a list of positions too. It contains exactly the base list's
    passages. With an empty relevant pool no semantic evidence exists and
    the base list is returned unchanged. A relevant-pool passage missing
    from the index, or any passage missing from a pv/pvc model, raises
    ValueError. ``cache`` keeps the pool's centroid (see the module
    docstring); the fused scores are the same with or without it.
    """
    if base.index_ids is not index.ids:
        raise ValueError(f"fused_rank needs a list ranked over this index; the list of {base.query_id!r} is not")
    if not state.relevant_pool:
        return base
    mode = cfg.representation_mode
    centroid, cnorm = memo({} if cache is None else cache, ("centroid", state.relevant_pool, mode),
                           lambda: _pool_centroid(state.relevant_pool, model, mode, collection, index))
    cand = base.positions
    vectors, norms = _gather(cand, model, mode, collection, index)
    ok = norms > 0.0
    if cnorm > 0.0 and ok.all():  # no mask copy: the product runs over the same rows either way
        sims = vectors @ centroid / (norms * cnorm)
    else:
        sims = np.zeros(len(cand))
        if cnorm > 0.0:
            sims[ok] = vectors[ok] @ centroid / (norms[ok] * cnorm)
    fused = base.scores + cfg.lambda_sf * sims
    order = np.lexsort((index.tie_rank[cand], -fused))
    return RankedList.at_positions(base.query_id, index.ids, cand[order], fused[order])
