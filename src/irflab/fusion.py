"""Passage-level semantic-match fusion.

A candidate is scored against the centroid of the relevant pool in
embedding space, and that similarity is added to the base feedback score:

    score(d) = score_rf(d) + lambda_sf * cos(centroid(RP), vec(d))

Scores are combined raw (no normalization); the lambda grids absorb the
scale differences between feedback methods.

fused_rank works on index positions. It reads the base list's positions
and scores as arrays (the base list must be a ranking of the same index) and
returns positions and fused scores, ordered by one lexsort; passage ids are
not looked up. Every mode's vectors and norms, the pool's and the
candidates', come from ``EmbeddingModel.vectors_at``: the trained pv/pvc
rows, or an avg_w2v/idf_w2v matrix built once per (model, mode, index).

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

from dataclasses import dataclass

import numpy as np

from .corpus import PassageCollection
from .embeddings import EmbeddingModel, REPRESENTATION_MODES
from .feedback import FeedbackState
from .index import Index, memo
from .retrieval import RankedList

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


def _pool_centroid(pool: tuple[str, ...], model: EmbeddingModel, mode: str, collection: PassageCollection,
                   index: Index) -> tuple[np.ndarray, float]:
    """The centroid of the pool's vectors, summed row by row in pool order as
    the per-passage reference sums, and its norm; the centroid is read-only."""
    missing = [pid for pid in pool if pid not in index.id_to_pos]
    if missing:
        raise ValueError(f"relevant-pool passage {missing[0]!r} is not in the index")
    vectors, _ = model.vectors_at(mode, collection, index, np.array([index.id_to_pos[pid] for pid in pool]))
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
    vectors, norms = model.vectors_at(mode, collection, index, cand)
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
