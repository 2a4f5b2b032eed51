"""The config's tuning-grid table: which grid tunes which parameter of
which run-irf method, and the parameters at each grid point."""

import pytest

from irflab.config import (
    TUNING_GRIDS,
    feedback_from_config,
    fusion_from_config,
    point_params,
    retrieval_from_config,
    tuning_grids,
)
from irflab.feedback import FeedbackParams
from irflab.fusion import FusionConfig
from irflab.retrieval import RetrievalParams
from irflab.simulation import RF_METHODS

GRIDS = {"mu_grid": [300, 1000.0], "k1_grid": [1.2, 2], "m_grid": [10, 20],
         "alpha_grid": [0.25, 1], "lambda_grid": [5, 10.0]}


def grid_config(fusion_enabled: bool) -> dict:
    return {
        "schema_version": 1,
        "retrieval": {"mu": 500.0, "k1_grid": GRIDS["k1_grid"], "mu_grid": GRIDS["mu_grid"]},
        "feedback": {"m": 5, "alpha_interp": 0.5, "m_grid": GRIDS["m_grid"], "alpha_grid": GRIDS["alpha_grid"]},
        "fusion": {"enabled": fusion_enabled, "lambda_sf": 2.0, "lambda_grid": GRIDS["lambda_grid"]},
    }


def tuned_by(grid: str, fusion_enabled: bool = True) -> set[str]:
    _, param, _ = TUNING_GRIDS[grid]
    cfg = grid_config(fusion_enabled)
    return {method for method in RF_METHODS if param in tuning_grids(cfg, method)}


def test_each_grid_tunes_its_methods():
    assert tuned_by("k1_grid") == {"rocchio"}
    assert tuned_by("mu_grid") == {"rm3", "distillation", "erm"}
    assert tuned_by("alpha_grid") == {"rm3", "distillation", "erm"}
    assert tuned_by("m_grid") == {"rm3", "distillation", "rocchio", "erm"}
    assert tuned_by("lambda_grid") == {"rm3", "distillation", "rocchio", "erm"}


def test_lambda_grid_tunes_only_while_fusion_is_enabled():
    assert tuned_by("lambda_grid", fusion_enabled=False) == set()
    for grid in ("mu_grid", "k1_grid", "m_grid", "alpha_grid"):
        assert tuned_by(grid, fusion_enabled=False) == tuned_by(grid)


def test_grids_are_keyed_by_parameter_with_their_values():
    cfg = grid_config(True)
    assert tuning_grids(cfg, "rm3") == {"mu": [300, 1000.0], "m": [10, 20], "alpha_interp": [0.25, 1],
                                        "lambda_sf": [5, 10.0]}
    assert tuning_grids(cfg, "rocchio") == {"k1": [1.2, 2], "m": [10, 20], "lambda_sf": [5, 10.0]}
    assert tuning_grids({"schema_version": 1}, "rm3") == {}


@pytest.mark.parametrize("grid", sorted(TUNING_GRIDS))
@pytest.mark.parametrize("fusion_enabled", [True, False])
def test_point_params_equal_the_load_time_builders(grid, fusion_enabled):
    section, param, _ = TUNING_GRIDS[grid]
    cfg = grid_config(fusion_enabled)
    for value in GRIDS[grid]:
        substituted = dict(cfg, **{section: {**cfg[section], param: value}})
        assert point_params(cfg, {param: value}) == (
            retrieval_from_config(substituted), feedback_from_config(substituted), fusion_from_config(substituted))


def test_an_int_entry_is_read_as_a_float():
    retrieval, feedback, fusion = point_params(grid_config(True), {"mu": 300, "alpha_interp": 1, "lambda_sf": 5})
    assert (retrieval, feedback, fusion) == (RetrievalParams(mu=300.0), FeedbackParams(m=5, alpha_interp=1.0),
                                             FusionConfig(lambda_sf=5.0))
    assert type(retrieval.mu) is float and retrieval.mu == 300.0
    assert type(feedback.alpha_interp) is float and feedback.alpha_interp == 1.0
    assert type(fusion.lambda_sf) is float and fusion.lambda_sf == 5.0
    assert type(feedback.m) is int


def test_the_empty_point_is_the_config():
    cfg = grid_config(True)
    assert point_params(cfg, {}) == (retrieval_from_config(cfg), feedback_from_config(cfg), fusion_from_config(cfg))
