"""Experiment configuration: a single schema-versioned JSON document.

Unknown keys are rejected anywhere in the document so typos fail loudly,
and the session and feedback values are checked when the document is
loaded, before any data is read. Grids with more than one point trigger
cross-validated tuning in run-irf.
"""

from __future__ import annotations

import json
from pathlib import Path

from .corpus import TokenizerConfig
from .embeddings import REPRESENTATION_MODES
from .feedback import ErmParams, FeedbackParams
from .fusion import FusionConfig
from .retrieval import RetrievalParams
from .simulation import BASELINE_METHODS, BUDGET_SETTINGS, RF_METHODS
from .stopwords import DEFAULT_STOPWORDS

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Configuration problem; maps to exit code 2 in the CLI."""


_SCHEMA: dict = {
    "schema_version": None,
    "seed": None,
    "output_dir": None,
    "corpus": {"passages": None, "queries": None, "qrels": None},
    "tokenizer": {"stopwords": None, "stemming": None},
    "retrieval": {"mu": None, "k1": None, "b": None, "mu_grid": None, "k1_grid": None},
    "feedback": {
        "methods": None, "m": None, "alpha_interp": None, "lambda_mix": None,
        "lambda_nr": None, "rocchio_alpha": None, "rocchio_beta": None,
        "rocchio_gamma": None, "em_max_iters": None, "em_tol": None,
        "m_grid": None, "alpha_grid": None,
    },
    "erm": {"lambda_erm": None, "sigmoid_a": None, "sigmoid_c": None, "neighbors": None},
    "embeddings": {"model_path": None, "representation_mode": None},
    "fusion": {"enabled": None, "lambda_sf": None, "lambda_grid": None},
    "session": {"settings": None, "depth": None},
    "onerel": {"draws": None, "methods": None},
    "evaluation": {"metrics": None, "folds": None},
}


def _check_keys(obj: dict, schema: dict, path: str) -> None:
    for key, value in obj.items():
        if key not in schema:
            raise ConfigError(f"unknown config key {path}{key!r}")
        sub = schema[key]
        if isinstance(sub, dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config section {path}{key!r} must be an object")
            _check_keys(value, sub, f"{path}{key}.")


def load_experiment_config(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: top level must be an object")
    _check_keys(cfg, _SCHEMA, "")
    version = cfg.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(f"{path}: schema_version must be {SCHEMA_VERSION}, got {version!r}")
    for grid_key, section in (("mu_grid", "retrieval"), ("k1_grid", "retrieval"),
                              ("m_grid", "feedback"), ("alpha_grid", "feedback"),
                              ("lambda_grid", "fusion")):
        values = cfg.get(section, {}).get(grid_key)
        if values is not None and (not isinstance(values, list) or not values):
            raise ConfigError(f"{section}.{grid_key} must be a non-empty list")
    folds = cfg.get("evaluation", {}).get("folds")
    if folds is not None and (type(folds) is not int or folds < 2):
        raise ConfigError(f"evaluation.folds must be an integer >= 2, got {folds!r}")
    depth = cfg.get("session", {}).get("depth")
    if depth is not None and (type(depth) is not int or depth < 1):
        raise ConfigError(f"session.depth must be an integer >= 1, got {depth!r}")
    settings_from_config(cfg)
    feedback_from_config(cfg)
    erm_from_config(cfg)
    return cfg


def _typed_params(cfg: dict, section_name: str, ints: tuple[str, ...], reals: tuple[str, ...]) -> dict:
    """The section's values for these parameters, refused unless each is an
    integer (ints) or a number (reals); booleans are neither."""
    section = cfg.get(section_name, {})
    kwargs = {}
    for key in ints + reals:
        if key not in section:
            continue
        value = section[key]
        if key in ints and type(value) is not int:
            raise ConfigError(f"{section_name}.{key} must be an integer, got {value!r}")
        if key in reals and (type(value) is bool or not isinstance(value, (int, float))):
            raise ConfigError(f"{section_name}.{key} must be a number, got {value!r}")
        kwargs[key] = value
    return kwargs


def tokenizer_from_config(cfg: dict) -> TokenizerConfig:
    section = cfg.get("tokenizer", {})
    stop_spec = section.get("stopwords", "default")
    if stop_spec == "default":
        stopwords = DEFAULT_STOPWORDS
    elif stop_spec == "none":
        stopwords = frozenset()
    else:
        stop_path = Path(stop_spec)
        if not stop_path.exists():
            raise ConfigError(f"stopword file {stop_spec!r} not found")
        stopwords = frozenset(stop_path.read_text(encoding="utf-8").split())
    stemming = section.get("stemming", "s")
    try:
        return TokenizerConfig(stopwords=stopwords, stemming=stemming)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def retrieval_from_config(cfg: dict) -> RetrievalParams:
    section = cfg.get("retrieval", {})
    try:
        return RetrievalParams(
            mu=float(section.get("mu", 1000.0)),
            k1=float(section.get("k1", 1.2)),
            b=float(section.get("b", 0.75)),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def feedback_from_config(cfg: dict) -> FeedbackParams:
    kwargs = _typed_params(cfg, "feedback", ("m", "em_max_iters"),
                           ("alpha_interp", "lambda_mix", "lambda_nr", "rocchio_alpha",
                            "rocchio_beta", "rocchio_gamma", "em_tol"))
    try:
        return FeedbackParams(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def erm_from_config(cfg: dict) -> ErmParams:
    kwargs = _typed_params(cfg, "erm", ("neighbors",), ("lambda_erm", "sigmoid_a", "sigmoid_c"))
    try:
        return ErmParams(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def fusion_from_config(cfg: dict) -> FusionConfig | None:
    section = cfg.get("fusion", {})
    if not section.get("enabled", False):
        return None
    mode = cfg.get("embeddings", {}).get("representation_mode", "pvc")
    if mode not in REPRESENTATION_MODES:
        raise ConfigError(f"unknown representation_mode {mode!r}")
    try:
        return FusionConfig(lambda_sf=float(section.get("lambda_sf", 1.0)), representation_mode=mode)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def methods_from_config(cfg: dict) -> list[str]:
    methods = cfg.get("feedback", {}).get("methods", ["rm3"])
    if isinstance(methods, str):
        methods = [methods]
    for method in methods:
        if method not in RF_METHODS:
            raise ConfigError(f"unknown feedback method {method!r}; expected one of {RF_METHODS}")
    return list(methods)


def onerel_methods_from_config(cfg: dict) -> list[str]:
    methods = cfg.get("onerel", {}).get("methods", ["ql", "rm3"])
    if isinstance(methods, str):
        methods = [methods]
    allowed = RF_METHODS + BASELINE_METHODS
    for method in methods:
        if method not in allowed:
            raise ConfigError(f"unknown one-rel method {method!r}; expected one of {allowed}")
    return list(methods)


def settings_from_config(cfg: dict) -> list[tuple[int, int]]:
    raw = cfg.get("session", {}).get("settings")
    if raw is None:
        return [tuple(s) for s in BUDGET_SETTINGS]
    if not isinstance(raw, list):
        raise ConfigError(f"session.settings must be a list of [per_iter, iterations] pairs, got {raw!r}")
    out = []
    for item in raw:
        if not (isinstance(item, list) and len(item) == 2):
            raise ConfigError("session.settings must be a list of [per_iter, iterations] pairs")
        if not all(type(v) is int and v >= 1 for v in item):
            raise ConfigError(f"session.settings: per_iter and iterations must be integers >= 1, got {item!r}")
        out.append((item[0], item[1]))
    return out
