"""Experiment configuration: a single schema-versioned JSON document.

Unknown keys are rejected anywhere in the document so typos fail loudly.
The session settings, the methods, the metrics and the type of every
number, grid entries included, are checked when the document is loaded,
before any data is read. ``TUNING_GRIDS`` says which grid tunes which
parameter of which methods; grids with more than one point trigger
cross-validated tuning in run-irf.
"""

from __future__ import annotations

import json
from pathlib import Path

from .corpus import TokenizerConfig
from .evaluation import METRICS
from .feedback import ErmParams, FeedbackParams
from .fusion import FusionConfig
from .retrieval import RetrievalParams
from .simulation import BASELINE_METHODS, BUDGET_SETTINGS, LM_METHODS, RF_METHODS, VSM_METHODS
from .stopwords import DEFAULT_STOPWORDS

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Configuration problem; maps to exit code 2 in the CLI."""


# A leaf's kind: int (an integer; (int, low) one >= low), float (any number,
# read as a float) or bool. None leaves are checked by the code that reads them.
_SCHEMA: dict = {
    "schema_version": None,
    "seed": (int, 0),
    "output_dir": None,
    "corpus": {"passages": None, "queries": None, "qrels": None},
    "tokenizer": {"stopwords": None, "stemming": None},
    "retrieval": {"mu": float, "k1": float, "b": float, "mu_grid": None, "k1_grid": None},
    "feedback": {
        "methods": None, "m": int, "alpha_interp": float, "lambda_mix": float,
        "lambda_nr": float, "rocchio_alpha": float, "rocchio_beta": float,
        "rocchio_gamma": float, "em_max_iters": int, "em_tol": float,
        "m_grid": None, "alpha_grid": None,
    },
    "erm": {"lambda_erm": float, "sigmoid_a": float, "sigmoid_c": float, "neighbors": int},
    "embeddings": {"model_path": None, "representation_mode": None},
    "fusion": {"enabled": bool, "lambda_sf": float, "lambda_grid": None},
    "session": {"settings": None, "depth": (int, 1)},
    "onerel": {"draws": (int, 1), "methods": None},
    "evaluation": {"metrics": None, "folds": (int, 2)},
}

# grid -> (section, the parameter it tunes, the run-irf methods it tunes);
# lambda_grid tunes only while fusion is enabled
TUNING_GRIDS = {
    "mu_grid": ("retrieval", "mu", LM_METHODS),
    "k1_grid": ("retrieval", "k1", VSM_METHODS),
    "m_grid": ("feedback", "m", RF_METHODS),
    "alpha_grid": ("feedback", "alpha_interp", LM_METHODS),
    "lambda_grid": ("fusion", "lambda_sf", RF_METHODS),
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
    for section in ("", "session", "onerel", "evaluation"):  # the builders below check the others
        _typed_params(cfg, section)
    settings_from_config(cfg)
    retrieval_from_config(cfg)
    feedback_from_config(cfg)
    erm_from_config(cfg)
    fusion_from_config(cfg)
    methods_from_config(cfg)
    onerel_methods_from_config(cfg)
    metrics_from_config(cfg)
    _check_grids(cfg)
    return cfg


def _check_grids(cfg: dict) -> None:
    """Each grid is a non-empty list, and each entry passes the check its
    parameter gets as a single value."""
    for grid, (section, param, _) in TUNING_GRIDS.items():
        values = cfg.get(section, {}).get(grid)
        if values is None:
            continue
        if not isinstance(values, list) or not values:
            raise ConfigError(f"{section}.{grid} must be a non-empty list")
        for value in values:
            try:
                point_params(cfg, {param: value})
            except ConfigError as exc:
                raise ConfigError(f"{section}.{grid} entry {value!r}: {exc}") from exc


def tuning_grids(cfg: dict, method: str) -> dict[str, list]:
    """The grids that tune this run-irf method, keyed by the parameter each
    tunes."""
    fused = fusion_from_config(cfg) is not None
    return {param: list(cfg[section][grid])
            for grid, (section, param, methods) in TUNING_GRIDS.items()
            if method in methods and cfg.get(section, {}).get(grid) and (fused or section != "fusion")}


def point_params(cfg: dict, point: dict) -> tuple[RetrievalParams, FeedbackParams, FusionConfig | None]:
    """The retrieval, feedback and fusion parameters at a grid point
    ({parameter: value}): the config's, with the point's values in place."""
    cfg = dict(cfg)
    for section, param, _ in TUNING_GRIDS.values():
        if param in point:
            cfg[section] = {**cfg.get(section, {}), param: point[param]}
    return retrieval_from_config(cfg), feedback_from_config(cfg), fusion_from_config(cfg)


def _typed_params(cfg: dict, section_name: str) -> dict:
    """The section's values of its typed leaves ("" is the top level),
    refused unless each is of the kind its _SCHEMA leaf declares; booleans
    are not numbers."""
    section, schema = (cfg.get(section_name, {}), _SCHEMA[section_name]) if section_name else (cfg, _SCHEMA)
    params = {}
    for key, kind in schema.items():
        if key not in section or kind is None or isinstance(kind, dict):
            continue
        value = section[key]
        kind, low = kind if isinstance(kind, tuple) else (kind, None)
        if kind is bool:
            ok, wanted = type(value) is bool, "true or false"
        elif kind is int:
            ok = type(value) is int and (low is None or value >= low)
            wanted = "an integer" if low is None else f"an integer >= {low}"
        else:
            ok, wanted = type(value) is not bool and isinstance(value, (int, float)), "a number"
        if not ok:
            name = f"{section_name}.{key}" if section_name else key
            raise ConfigError(f"{name} must be {wanted}, got {value!r}")
        params[key] = float(value) if kind is float else value
    return params


def _build(cls, **params):
    try:
        return cls(**params)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


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
    return _build(TokenizerConfig, stopwords=stopwords, stemming=section.get("stemming", "s"))


def retrieval_from_config(cfg: dict) -> RetrievalParams:
    return _build(RetrievalParams, **_typed_params(cfg, "retrieval"))


def feedback_from_config(cfg: dict) -> FeedbackParams:
    return _build(FeedbackParams, **_typed_params(cfg, "feedback"))


def erm_from_config(cfg: dict) -> ErmParams:
    return _build(ErmParams, **_typed_params(cfg, "erm"))


def fusion_from_config(cfg: dict) -> FusionConfig | None:
    params = _typed_params(cfg, "fusion")
    if not params.pop("enabled", False):
        return None
    mode = cfg.get("embeddings", {}).get("representation_mode", "pvc")
    return _build(FusionConfig, representation_mode=mode, **params)


def _names(path: str, names, allowed: tuple[str, ...]) -> list[str]:
    if not isinstance(names, list) or not names:
        raise ConfigError(f"{path} must be a non-empty list of names, got {names!r}")
    for name in names:
        if name not in allowed:
            raise ConfigError(f"unknown {path} entry {name!r}; expected one of {allowed}")
    return list(names)


def _methods(cfg: dict, section: str, default: list[str], allowed: tuple[str, ...]) -> list[str]:
    """The section's methods; a single name is a list of one."""
    methods = cfg.get(section, {}).get("methods", default)
    return _names(f"{section}.methods", [methods] if isinstance(methods, str) else methods, allowed)


def metrics_from_config(cfg: dict, default: tuple[str, ...] = METRICS) -> list[str]:
    return _names("evaluation.metrics", cfg.get("evaluation", {}).get("metrics", list(default)), METRICS)


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
