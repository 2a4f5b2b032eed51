"""Metrics vs brute-force oracles, randomization test, cross-validation."""

import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import irflab
from irflab.evaluation import (
    MetricResult,
    _exhaustive_p,
    _sampled_p,
    _threshold,
    assign_folds,
    cross_validate_grid,
    evaluate_ranking,
    fisher_randomization,
    grid_points,
)


def evaluate_rankings(rankings, relevant_by_topic, metric):
    """Per-topic scores of a metric over several rankings, aggregated."""
    per_query = {
        topic: evaluate_ranking(ranking, relevant_by_topic.get(topic, frozenset()), metric)
        for topic, ranking in rankings.items()
    }
    return MetricResult.aggregate(per_query)


def oracle_metric(ranking, relevant, metric):
    """Straight-from-definition implementations used as oracles."""
    if not relevant:
        return 0.0
    if metric == "map100":
        ap = 0.0
        hits = 0
        for k, pid in enumerate(ranking, start=1):
            if k > 100:
                break
            if pid in relevant:
                hits += 1
                ap += hits / k
        return ap / len(relevant)
    if metric == "ndcg20":
        dcg = 0.0
        for k, pid in enumerate(ranking, start=1):
            if k > 20:
                break
            if pid in relevant:
                dcg += 1.0 / math.log2(k + 1)
        ideal = sum(1.0 / math.log2(k + 1) for k in range(1, min(len(relevant), 20) + 1))
        return dcg / ideal
    if metric == "p1":
        return 1.0 if ranking and ranking[0] in relevant else 0.0
    if metric == "mrr":
        for k, pid in enumerate(ranking, start=1):
            if pid in relevant:
                return 1.0 / k
        return 0.0
    raise ValueError(metric)


class TestEvaluateRanking:
    def test_ap_hand_example(self):
        # [R, N, R] with 2 relevant: (1/1 + 2/3) / 2
        val = evaluate_ranking(["r1", "n1", "r2"], {"r1", "r2"}, "map100")
        assert val == pytest.approx((1.0 + 2 / 3) / 2, abs=1e-9)

    def test_ideal_ranking_scores_one_everywhere(self):
        ranking = [f"r{i}" for i in range(5)] + [f"n{i}" for i in range(5)]
        relevant = {f"r{i}" for i in range(5)}
        for metric in ("map100", "ndcg20", "p1", "mrr"):
            assert evaluate_ranking(ranking, relevant, metric) == pytest.approx(1.0)

    def test_relevant_at_rank_101_does_not_count_for_map(self):
        ranking = [f"n{i}" for i in range(100)] + ["r1"]
        assert evaluate_ranking(ranking, {"r1"}, "map100") == 0.0
        # but mrr has no cutoff
        assert evaluate_ranking(ranking, {"r1"}, "mrr") == pytest.approx(1 / 101)

    def test_empty_relevant_warns_and_returns_zero(self, caplog):
        with caplog.at_level("WARNING"):
            assert evaluate_ranking(["a"], set(), "map100") == 0.0
        assert any("empty relevant" in r.message for r in caplog.records)

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError):
            evaluate_ranking(["a"], {"a"}, "recall5")

    def test_matches_oracle_on_random_rankings(self, rng):
        for _ in range(300):
            n = int(rng.integers(1, 60))
            ranking = [f"p{i}" for i in range(n)]
            rng.shuffle(ranking)
            relevant = {f"p{i}" for i in range(n) if rng.random() < 0.3}
            if not relevant:
                relevant = {"p0"}
            for metric in ("map100", "ndcg20", "p1", "mrr"):
                assert evaluate_ranking(ranking, relevant, metric) == pytest.approx(
                    oracle_metric(ranking, relevant, metric), abs=1e-9
                )

    def test_map_improves_when_relevant_swapped_upward(self, rng):
        for _ in range(50):
            n = 30
            ranking = [f"p{i}" for i in range(n)]
            relevant = {f"p{i}" for i in range(n) if rng.random() < 0.25} or {"p5"}
            base = evaluate_ranking(ranking, relevant, "map100")
            idxs = [i for i in range(1, n) if ranking[i] in relevant and ranking[i - 1] not in relevant]
            if not idxs:
                continue
            i = idxs[int(rng.integers(len(idxs)))]
            swapped = list(ranking)
            swapped[i - 1], swapped[i] = swapped[i], swapped[i - 1]
            assert evaluate_ranking(swapped, relevant, "map100") > base


class TestMetricResult:
    def test_mean_is_arithmetic_mean(self):
        res = MetricResult.aggregate({"q1": 0.2, "q2": 0.4})
        assert res.mean == pytest.approx(0.3)

    def test_evaluate_rankings_maps_topics(self):
        res = evaluate_rankings(
            {"q1": ["a", "b"], "q2": ["c"]},
            {"q1": {"a"}, "q2": {"x"}},
            "p1",
        )
        assert res.per_query == {"q1": 1.0, "q2": 0.0}


class TestFisherRandomization:
    def test_identical_inputs_give_exactly_one(self):
        a = {"q1": 0.3, "q2": 0.5, "q3": 0.7}
        assert fisher_randomization(a, dict(a)) == 1.0

    def test_three_unit_differences_exhaustive(self):
        a = {"q1": 1.0, "q2": 1.0, "q3": 1.0}
        b = {"q1": 0.0, "q2": 0.0, "q3": 0.0}
        # only +++ and --- reach |mean| = 1 among the 8 assignments
        assert fisher_randomization(a, b) == pytest.approx(0.25)

    def test_exhaustive_matches_direct_enumeration(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 9))
            d = rng.normal(size=n)
            a = {f"q{i}": float(d[i]) for i in range(n)}
            b = {f"q{i}": 0.0 for i in range(n)}
            obs = abs(d.mean()) - 1e-12
            count = sum(
                1 for signs in itertools.product((-1, 1), repeat=n)
                if abs(np.dot(signs, d) / n) >= obs
            )
            assert fisher_randomization(a, b) == pytest.approx(count / 2**n, abs=1e-12)

    def test_monte_carlo_close_to_exhaustive(self, rng):
        for trial in range(5):
            n = int(rng.integers(4, 10))
            d = rng.normal(size=n)
            mc = _sampled_p(d, 100_000, 17 + trial)
            assert mc == pytest.approx(_exhaustive_p(d), abs=0.01)

    def test_misaligned_topics_rejected(self):
        with pytest.raises(ValueError, match="topic sets"):
            fisher_randomization({"q1": 1.0}, {"q2": 1.0})

    def test_permutations_below_one_rejected(self):
        for n in (25, 5):  # sampled and exhaustive
            a = {f"q{i}": float(i) for i in range(n)}
            b = {f"q{i}": 0.0 for i in range(n)}
            for permutations in (0, -1, -2):
                with pytest.raises(ValueError, match="permutations must be >= 1"):
                    fisher_randomization(a, b, permutations=permutations)

    def test_p_values_do_not_depend_on_the_blas_thread_count(self):
        # a threaded gemv splits a product's rows among threads by the row
        # count, so means may round differently per sub-block size; the
        # threshold's slack must keep every p-value equal
        code = (
            "import numpy as np\n"
            "from irflab.evaluation import fisher_randomization\n"
            "rng = np.random.default_rng(5)\n"
            "for n in (21, 50, 130):\n"
            "    for d in (rng.random(n), rng.choice([0.0, 0.1, 0.25, 1 / 3, 0.5], n)):\n"
            "        a = {f'q{i}': float(x) for i, x in enumerate(d)}\n"
            "        b = {f'q{i}': float(x) for i, x in enumerate(rng.permutation(d))}\n"
            "        for perms in (1_025, 2_047, 20_001, 21_025, *rng.integers(1_000, 45_000, 3).tolist()):\n"
            "            print(n, perms, repr(fisher_randomization(a, b, permutations=perms, seed=perms)))\n"
        )
        src = str(Path(irflab.__file__).resolve().parents[1])
        out = {}
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            out[threads] = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                          text=True, timeout=120, check=True).stdout.splitlines()
        assert len(out["1"]) == 42
        assert out["1"] == out["2"]

    def test_monte_carlo_path_in_unit_range(self, rng):
        n = 25  # above the exhaustive limit
        a = {f"q{i}": float(rng.random()) for i in range(n)}
        b = {f"q{i}": float(rng.random()) for i in range(n)}
        p = fisher_randomization(a, b, permutations=20_000, seed=3)
        assert 0.0 < p <= 1.0


def exhaustive_p_oracle(d):
    """The exhaustive test as first released: 65,536 assignments per product."""
    n = len(d)
    threshold = _threshold(d)
    count = 0
    total = 1 << n
    chunk = 1 << 16
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.uint64)
        bits = (idx[:, None] >> np.arange(n, dtype=np.uint64)) & 1
        signs = bits.astype(np.float64) * 2.0 - 1.0
        means = signs @ d / n
        count += int((np.abs(means) >= threshold).sum())
    return count / total


def sampled_p_oracle(d, permutations, seed):
    """The sampled test as first released: 20,000 sign rows per product."""
    n = len(d)
    threshold = _threshold(d)
    rng = np.random.default_rng(seed)
    count = 0
    remaining = permutations
    while remaining > 0:
        block = min(remaining, 20_000)
        signs = rng.integers(0, 2, size=(block, n)).astype(np.float64) * 2.0 - 1.0
        means = signs @ d / n
        count += int((np.abs(means) >= threshold).sum())
        remaining -= block
    return (count + 1) / (permutations + 1)


# per-topic differences: metric-like floats, drawn with ties from a small pool
DIFFERENCE = st.one_of(
    st.sampled_from([-1.0, -0.5, -0.125, 0.0, 0.1, 0.25, 1.0 / 3.0]),
    st.floats(-1.0, 1.0, allow_nan=False),
)
# a remainder of 1 after 20,000 rows and after 1,024, several blocks, and 100,000
PERMUTATIONS = st.one_of(
    st.sampled_from([1, 2, 1_025, 20_001, 21_025, 25_001, 100_000]),
    st.integers(1, 60_000),
)


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBoundedMemory:
    """Sub-blocks and smaller chunks bound the memory; the p-values are the
    first release's to the last bit."""

    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(2, 300).flatmap(lambda n: st.lists(DIFFERENCE, min_size=n, max_size=n)),
           permutations=PERMUTATIONS,
           seed=st.integers(0, 2**32 - 1))
    def test_sampled_p_equals_the_oracle(self, d, permutations, seed):
        d = np.array(d)
        assert _sampled_p(d, permutations, seed) == sampled_p_oracle(d, permutations, seed)

    @settings(max_examples=25, deadline=None)
    @given(d=st.lists(DIFFERENCE, min_size=1, max_size=20))
    def test_exhaustive_p_equals_the_oracle(self, d):
        d = np.array(d)
        assert _exhaustive_p(d) == exhaustive_p_oracle(d)

    def test_sampled_test_stays_under_2_mb(self, rng):
        d = rng.normal(size=50)
        assert traced_peak(_sampled_p, d, 100_000, 0) < 2_000_000

    def test_exhaustive_test_stays_under_4_mb(self, rng):
        d = rng.normal(size=20)
        assert traced_peak(_exhaustive_p, d) < 4_000_000


class TestCrossValidation:
    def test_grid_points_deterministic_order(self):
        pts = grid_points({"b": [1, 2], "a": [10]})
        assert pts == [{"a": 10, "b": 1}, {"a": 10, "b": 2}]

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            grid_points({})
        with pytest.raises(ValueError):
            grid_points({"a": []})

    def test_fold_assignment_seeded(self):
        ids = [f"q{i}" for i in range(11)]
        a = assign_folds(ids, 5, seed=2)
        b = assign_folds(ids, 5, seed=2)
        assert a == b
        assert sorted(q for fold in a for q in fold) == sorted(ids)

    def test_folds_hold_python_str(self):
        ids = [f"q{i}" for i in range(13)]
        for folds in (2, 5):
            assert all(type(q) is str for fold in assign_folds(ids, folds, seed=3) for q in fold)

    def test_fewer_than_two_folds_rejected(self):
        ids = [f"q{i}" for i in range(6)]
        for folds in (1, 0, -1):
            with pytest.raises(ValueError, match="at least 2 folds"):
                assign_folds(ids, folds, seed=0)

    def test_too_few_queries_rejected(self):
        with pytest.raises(ValueError):
            assign_folds(["q1", "q2"], 5, seed=0)

    def test_single_grid_point_always_chosen(self):
        ids = [f"q{i}" for i in range(10)]
        def evaluate(params):
            return {q: 0.5 for q in ids}
        chosen = cross_validate_grid(ids, {"mu": [300]}, evaluate, folds=5, seed=0)
        assert [point for point, _ in chosen] == [{"mu": 300}] * 5
        assert [fold for _, fold in chosen] == assign_folds(ids, 5, seed=0)

    def test_best_point_wins_on_held_out_data(self):
        ids = [f"q{i}" for i in range(10)]
        def evaluate(params):
            # mu=500 uniformly better
            return {q: (0.9 if params["mu"] == 500 else 0.1) for q in ids}
        chosen = cross_validate_grid(ids, {"mu": [300, 500]}, evaluate, folds=5, seed=1)
        assert all(point == {"mu": 500} for point, _ in chosen)

    def test_same_seed_reproducible(self):
        ids = [f"q{i}" for i in range(12)]
        rng = np.random.default_rng(5)
        table = {q: {m: float(rng.random()) for m in (1, 2, 3)} for q in ids}
        def evaluate(params):
            return {q: table[q][params["m"]] for q in ids}
        a = cross_validate_grid(ids, {"m": [1, 2, 3]}, evaluate, folds=4, seed=7)
        b = cross_validate_grid(ids, {"m": [1, 2, 3]}, evaluate, folds=4, seed=7)
        assert a == b

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_brute_force_oracle(self, data):
        n = data.draw(st.integers(2, 14), label="queries")
        folds = data.draw(st.integers(2, n), label="folds")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        ids = data.draw(st.permutations([f"q{i:02d}" for i in range(n)]), label="ids")
        grid = {"a": data.draw(st.lists(st.integers(0, 9), min_size=1, max_size=3, unique=True)),
                "b": data.draw(st.lists(st.integers(0, 9), min_size=1, max_size=2, unique=True))}
        points = grid_points(grid)
        # few distinct scores, so ties between points are common
        table = {(q, i): data.draw(st.sampled_from([0.0, 0.25, 0.5, 1.0])) for q in ids for i in range(len(points))}
        evaluated = []

        def evaluate(point):
            evaluated.append(point)
            i = points.index(point)
            return {q: table[q, i] for q in ids}

        chosen = cross_validate_grid(ids, grid, evaluate, folds=folds, seed=seed)
        assert evaluated == points
        # the folds partition the ids, in assign_folds order
        expected_folds = assign_folds(ids, folds, seed)
        assert [fold for _, fold in chosen] == expected_folds
        assert sorted(q for _, fold in chosen for q in fold) == sorted(ids)
        for point, fold in chosen:
            train = [q for q in ids if q not in fold]
            means = [sum(table[q, i] for q in train) / len(train) for i in range(len(points))]
            # the first point with the best mean over the other folds
            assert point == points[means.index(max(means))]
