"""Experiment configuration: a single schema-versioned JSON document.

Unknown keys are rejected anywhere in the document so typos fail loudly.
The session settings, the methods and the type of every number, grid
entries included, are checked when the document is loaded, before any
data is read. Grids with more than one point trigger cross-validated
tuning in run-irf.
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
    folds = cfg.get("evaluation", {}).get("folds")
    if folds is not None and (type(folds) is not int or folds < 2):
        raise ConfigError(f"evaluation.folds must be an integer >= 2, got {folds!r}")
    depth = cfg.get("session", {}).get("depth")
    if depth is not None and (type(depth) is not int or depth < 1):
        raise ConfigError(f"session.depth must be an integer >= 1, got {depth!r}")
    settings_from_config(cfg)
    retrieval_from_config(cfg)
    feedback_from_config(cfg)
    erm_from_config(cfg)
    fusion_from_config(cfg)
    methods_from_config(cfg)
    onerel_methods_from_config(cfg)
    _check_grids(cfg)
    return cfg


def _check_grids(cfg: dict) -> None:
    """Each grid is a non-empty list, and each entry passes the check its
    parameter gets as a single value."""
    for section, grid, key, build in (
            ("retrieval", "mu_grid", "mu", retrieval_from_config),
            ("retrieval", "k1_grid", "k1", retrieval_from_config),
            ("feedback", "m_grid", "m", feedback_from_config),
            ("feedback", "alpha_grid", "alpha_interp", feedback_from_config),
            ("fusion", "lambda_grid", "lambda_sf", fusion_from_config)):
        values = cfg.get(section, {}).get(grid)
        if values is None:
            continue
        if not isinstance(values, list) or not values:
            raise ConfigError(f"{section}.{grid} must be a non-empty list")
        for value in values:
            try:
                build({**cfg, section: {**cfg[section], key: value}})
            except ConfigError as exc:
                raise ConfigError(f"{section}.{grid} entry {value!r}: {exc}") from exc


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
    kwargs = _typed_params(cfg, "retrieval", (), ("mu", "k1", "b"))
    try:
        return RetrievalParams(**{key: float(value) for key, value in kwargs.items()})
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
    kwargs = _typed_params(cfg, "fusion", (), ("lambda_sf",))
    if not cfg.get("fusion", {}).get("enabled", False):
        return None
    mode = cfg.get("embeddings", {}).get("representation_mode", "pvc")
    if mode not in REPRESENTATION_MODES:
        raise ConfigError(f"unknown representation_mode {mode!r}")
    try:
        return FusionConfig(lambda_sf=float(kwargs.get("lambda_sf", 1.0)), representation_mode=mode)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _methods(cfg: dict, section: str, default: list[str], allowed: tuple[str, ...]) -> list[str]:
    methods = cfg.get(section, {}).get("methods", default)
    if isinstance(methods, str):
        methods = [methods]
    if not isinstance(methods, list):
        raise ConfigError(f"{section}.methods must be a list of method names, got {methods!r}")
    for method in methods:
        if method not in allowed:
            raise ConfigError(f"unknown {section}.methods entry {method!r}; expected one of {allowed}")
    return list(methods)


def methods_from_config(cfg: dict) -> list[str]:
    return _methods(cfg, "feedback", ["rm3"], RF_METHODS)


def onerel_methods_from_config(cfg: dict) -> list[str]:
    return _methods(cfg, "onerel", ["ql", "rm3"], RF_METHODS + BASELINE_METHODS)


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
