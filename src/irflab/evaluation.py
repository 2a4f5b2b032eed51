"""Ranking metrics, the Fisher randomization test, and cross-validated grid
search.

Metrics follow trec_eval conventions: average precision at cutoff 100 keeps
the full relevant count in the denominator; NDCG@20 uses binary gains with a
1/log2(rank+1) discount; P@1 and MRR are over the whole list.

The randomization test holds a bounded slice of its sign matrix at a time.
The exhaustive path multiplies 4,096 assignments per product (4,096 x n
float64 signs, 655 KB at the 20-topic limit, plus the bit temporaries of
the same shape). The sampled path draws its permutations in the blocks of
20,000 rows it has always used, and each block in sub-blocks of at most
1,024 rows (1,025 when a single row would be left over): under 0.5 MB of
signs at 50 topics, for any number of permutations. The sub-blocks take
the same draws from the same generator in the same order, and each mean
is one row's product with the differences, so with one BLAS thread the
floats do not depend on where a block is cut, provided no product has a
single row: a lone row would take numpy's one-row path instead of the
matrix-vector kernel, hence the folded remainder. A multithreaded BLAS
splits a product's rows among its threads by the row count, so there a
last block shorter than 20,000 rows can move a mean by rounding (under
1e-16 in random trials with two OpenBLAS threads); the 1e-12 slack of the
threshold absorbs that, and the p-values stay equal.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass
from typing import AbstractSet, Callable, Mapping, Sequence

import numpy as np

logger = logging.getLogger(__name__)

METRICS = ("map100", "ndcg20", "p1", "mrr")
SIGNIFICANCE_THRESHOLD = 0.05
EXHAUSTIVE_LIMIT = 20  # enumerate all sign assignments up to this many topics
DEFAULT_PERMUTATIONS = 100_000


def evaluate_ranking(ranking: Sequence[str], relevant: AbstractSet[str], metric: str) -> float:
    """Score one duplicate-free ranking against a relevant set."""
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    if not relevant:
        logger.warning("empty relevant set; %s = 0", metric)
        return 0.0
    if metric == "map100":
        hits = 0
        total = 0.0
        for k, pid in enumerate(ranking[:100], start=1):
            if pid in relevant:
                hits += 1
                total += hits / k
        return total / len(relevant)
    if metric == "ndcg20":
        dcg = sum(
            1.0 / np.log2(k + 1)
            for k, pid in enumerate(ranking[:20], start=1)
            if pid in relevant
        )
        ideal = sum(1.0 / np.log2(k + 1) for k in range(1, min(len(relevant), 20) + 1))
        return float(dcg / ideal)
    if metric == "p1":
        return 1.0 if ranking and ranking[0] in relevant else 0.0
    for k, pid in enumerate(ranking, start=1):
        if pid in relevant:
            return 1.0 / k
    return 0.0


@dataclass(frozen=True)
class MetricResult:
    per_query: dict[str, float]
    mean: float

    @classmethod
    def aggregate(cls, per_query: Mapping[str, float]) -> "MetricResult":
        per_query = dict(per_query)
        mean = sum(per_query.values()) / len(per_query) if per_query else 0.0
        return cls(per_query=per_query, mean=mean)


def fisher_randomization(
    a: Mapping[str, float],
    b: Mapping[str, float],
    permutations: int = DEFAULT_PERMUTATIONS,
    seed: int = 0,
) -> float:
    """Two-sided paired sign-flip test on per-topic differences.

    Enumerates all 2^n assignments when n <= 20 and samples otherwise. The
    sampled estimate counts the identity assignment alongside the samples.
    """
    if set(a) != set(b):
        raise ValueError("topic sets of the two systems differ")
    if not a:
        raise ValueError("no topics to compare")
    if permutations < 1:
        raise ValueError(f"permutations must be >= 1, got {permutations}")
    topics = sorted(a)
    d = np.array([a[t] - b[t] for t in topics], dtype=np.float64)
    if len(d) <= EXHAUSTIVE_LIMIT:
        return _exhaustive_p(d)
    return _sampled_p(d, permutations, seed)


def _threshold(d: np.ndarray) -> float:
    # tiny slack keeps the identity assignment counted despite summation-order
    # rounding between mean() and the matrix products used for the flips
    return abs(d.mean()) - 1e-12


def _exhaustive_p(d: np.ndarray) -> float:
    n = len(d)
    if n > 30:
        raise ValueError(f"exhaustive enumeration over {n} topics is infeasible")
    threshold = _threshold(d)
    count = 0
    total = 1 << n
    chunk = 1 << 12
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.uint64)
        bits = (idx[:, None] >> np.arange(n, dtype=np.uint64)) & 1
        signs = bits.astype(np.float64) * 2.0 - 1.0
        means = signs @ d / n
        count += int((np.abs(means) >= threshold).sum())
    return count / total


def _sampled_p(d: np.ndarray, permutations: int, seed: int) -> float:
    n = len(d)
    threshold = _threshold(d)
    rng = np.random.default_rng(seed)
    count = 0
    remaining = permutations
    while remaining > 0:
        block = min(remaining, 20_000)
        remaining -= block
        while block > 0:
            rows = min(block, 1_024)
            if block - rows == 1:  # a lone last row would take the 1-row product path
                rows += 1
            signs = rng.integers(0, 2, size=(rows, n)).astype(np.float64) * 2.0 - 1.0
            means = signs @ d / n
            count += int((np.abs(means) >= threshold).sum())
            block -= rows
    return (count + 1) / (permutations + 1)


def grid_points(grid: Mapping[str, Sequence]) -> list[dict]:
    """Cartesian product of the grid in deterministic (sorted-name) order."""
    if not grid:
        raise ValueError("empty parameter grid")
    names = sorted(grid)
    for name in names:
        if not grid[name]:
            raise ValueError(f"grid for {name!r} has no values")
    return [dict(zip(names, combo)) for combo in itertools.product(*(grid[n] for n in names))]


def assign_folds(query_ids: Sequence[str], folds: int, seed: int) -> list[list[str]]:
    """The sorted query ids in a seeded shuffle, cut into folds of sizes
    differing by at most one; the ids are the ones given, not copies."""
    if folds < 2:
        raise ValueError(f"cross-validation needs at least 2 folds, got {folds}")
    if len(query_ids) < folds:
        raise ValueError(f"need at least {folds} queries for {folds}-fold cross-validation")
    rng = np.random.default_rng(seed)
    ids = sorted(query_ids)
    return [[ids[i] for i in part] for part in np.array_split(rng.permutation(len(ids)), folds)]


def cross_validate_grid(
    query_ids: Sequence[str],
    grid: Mapping[str, Sequence],
    evaluate: Callable[[dict], Mapping[str, float]],
    folds: int = 5,
    seed: int = 0,
) -> list[tuple[dict, list[str]]]:
    """Seeded k-fold grid search.

    ``evaluate(params)`` must return per-query scores for every query. Each
    fold picks the grid point with the best mean score on the other folds,
    summed in the order ``evaluate`` gives the queries (first point wins
    ties). Returns each fold's (chosen params, query ids), in fold order.
    """
    points = grid_points(grid)
    fold_sets = assign_folds(query_ids, folds, seed)  # refuses bad fold counts before any evaluation
    cache = [evaluate(point) for point in points]
    chosen: list[tuple[dict, list[str]]] = []
    for fold in fold_sets:
        held_out = set(fold)
        means = []
        for scores in cache:
            train = [s for q, s in scores.items() if q not in held_out]
            means.append(sum(train) / len(train) if train else -np.inf)
        chosen.append((points[means.index(max(means))], fold))
    return chosen
