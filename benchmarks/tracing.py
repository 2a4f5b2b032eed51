"""Spans around irflab's public functions, recorded from outside the package.

Tracer.install() replaces each function in LAYER_FUNCTIONS with a wrapper
in every irflab module that holds it, including modules that imported it by
name (simulation binds its own rank_ql and fused_rank, experiments its own
run_irf_session and evaluate_ranking). Spans stay in memory as
(name, start, end, parent, query_id, note) and are written out once at the
end. Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from functools import wraps

import numpy as np

# module -> public functions timed as that layer's spans
LAYER_FUNCTIONS = {
    "corpus": ("ingest_corpus", "load_queries", "load_qrels"),
    "index": ("build_index",),
    "embeddings": ("train_skipgram", "train_pv_hdc", "load_model"),
    "retrieval": ("rank_ql", "rank_bm25", "rank_rocchio"),
    "feedback": ("estimate_rm3", "estimate_distillation", "rocchio_update", "estimate_erm"),
    "fusion": ("fused_rank",),
    "simulation": ("run_irf_session", "run_one_rel_experiment"),
    "evaluation": ("evaluate_ranking", "cross_validate_grid", "fisher_randomization"),
    "experiments": ("load_engine", "irf_experiment", "onerel_experiment", "evaluate_run_file"),
}

TRAIN_MODES = ("skipgram", "pv_hdc", "pv_hdc_corrupted")


def trained_positions(collection, model) -> int:
    """Target positions one training epoch visits: in-vocabulary tokens."""
    vocab = model.vocab
    return sum(1 for p in collection for t in p.tokens if t in vocab)


# Counts taken at a span's boundary: (args, kwargs, result) -> note.
def _note_training(args, kwargs, result):
    collection, config = args[0], args[1] if len(args) > 1 else kwargs["config"]
    return {"mode": config.mode, "epochs": config.epochs,
            "positions": trained_positions(collection, result) * config.epochs,
            "final_loss": result.metadata["epoch_losses"][-1]}


def _note_pool(args, kwargs, result):
    return {"pool": sum(len(a) for a in args if isinstance(a, list))}


NOTES = {
    "corpus.ingest_corpus": lambda a, k, r: {"tokens": sum(len(p.tokens) for p in r)},
    "index.build_index": lambda a, k, r: {"postings": sum(len(pos) for pos, _ in r.postings.values())},
    "embeddings.train_skipgram": _note_training,
    "embeddings.train_pv_hdc": _note_training,
    "feedback.estimate_rm3": _note_pool,
    "feedback.estimate_distillation": _note_pool,
    "feedback.rocchio_update": _note_pool,
    "feedback.estimate_erm": _note_pool,
    "fusion.fused_rank": lambda a, k, r: {"candidates": len(a[0])},
    "simulation.run_irf_session": lambda a, k, r: {"early": r.frozen.early_exhausted},
    "evaluation.cross_validate_grid": lambda a, k, r: {"points": int(np.prod([len(v) for v in a[1].values()]))},
}


def _query_id(args, kwargs, parent_qid):
    if "query_id" in kwargs:
        return kwargs["query_id"]
    for arg in args:
        qid = getattr(arg, "query_id", None)
        if isinstance(qid, str):
            return qid
    return parent_qid


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, query_id, note]
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, query_id: str | None = None):
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), None, parent, query_id, None]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, func):
        note = NOTES.get(name)
        spans, stack = self.spans, self._stack

        @wraps(func)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            qid = _query_id(args, kwargs, spans[parent][4] if parent >= 0 else None)
            record = [name, time.perf_counter(), None, parent, qid, None]
            spans.append(record)
            stack.append(len(spans) - 1)
            try:
                result = func(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if note is not None:
                record[5] = note(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "irflab" or n.startswith("irflab.")]
        for layer, names in LAYER_FUNCTIONS.items():
            home = sys.modules[f"irflab.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapped = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, attr, original))
                            setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, qid, note) in enumerate(self.spans):
                row = {"id": i, "name": name, "start": start, "end": end, "parent": parent, "query_id": qid}
                if note:
                    row["note"] = note
                fh.write(json.dumps(row) + "\n")

    def self_times(self) -> np.ndarray:
        """Duration minus child coverage, per span. Spans come from one
        thread, so children of a span never overlap each other."""
        n = len(self.spans)
        duration = np.array([s[2] - s[1] for s in self.spans]) if n else np.zeros(0)
        covered = np.zeros(n)
        for i, s in enumerate(self.spans):
            if s[3] >= 0:
                covered[s[3]] += duration[i]
        return duration - covered


def quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile (0 < q < 1): a Beta-weighted
    mean of all order statistics. Session latencies mix several session
    kinds with gaps between them; one order statistic at such a gap jumps
    from run to run, this estimate does not. 0.0 for no values."""
    x = np.sort(np.asarray(values, dtype=np.float64))
    n = len(x)
    if n < 2:
        return float(x[0]) if n else 0.0
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    edges = np.linspace(0.0, 1.0, 200_001)
    mids = (edges[:-1] + edges[1:]) / 2
    log_pdf = (a - 1.0) * np.log(mids) + (b - 1.0) * np.log1p(-mids)
    cdf = np.concatenate(([0.0], np.cumsum(np.exp(log_pdf - log_pdf.max()))))
    weights = np.diff(np.interp(np.arange(n + 1) / n, edges, cdf / cdf[-1]))
    return float(weights @ x)


def layer_metrics(tracer: Tracer) -> tuple[dict[str, float], dict[str, str], dict[str, int]]:
    """Per-layer metrics from the recorded spans: values, units, and the
    sample count behind every percentile."""
    self_s = tracer.self_times()
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(tracer.spans):
        by_name.setdefault(s[0], []).append(i)
    metrics: dict[str, float] = {}
    units: dict[str, str] = {}
    samples: dict[str, int] = {}

    def put(name, value, unit):
        metrics[name] = value
        units[name] = unit

    def seconds(name):
        return [tracer.spans[i][2] - tracer.spans[i][1] for i in by_name.get(name, [])]

    def notes(name, key):
        return [tracer.spans[i][5][key] for i in by_name.get(name, []) if tracer.spans[i][5]]

    def mean(values):
        return float(np.mean(values)) if values else 0.0

    def calls_and_self(name, percentiles=()):
        put(f"{name}.calls", len(by_name.get(name, [])), "count")
        ms = [d * 1e3 for d in seconds(name)]
        for q in percentiles:
            put(f"{name}.ms_p{q}", quantile(ms, q / 100), "ms")
            samples[f"{name}.ms_p{q}"] = len(ms)
        put(f"{name}.self_s", float(sum(self_s[i] for i in by_name.get(name, []))), "s")

    train = {mode: [] for mode in TRAIN_MODES}
    for name in ("embeddings.train_skipgram", "embeddings.train_pv_hdc"):
        for i in by_name.get(name, []):
            span = tracer.spans[i]
            train[span[5]["mode"]].append((span[2] - span[1], span[5]))
    total_positions, total_s = 0, 0.0
    for mode, runs in train.items():
        busy = sum(r[0] for r in runs)
        positions = sum(r[1]["positions"] for r in runs)
        epochs = sum(r[1]["epochs"] for r in runs)
        put(f"embeddings.positions_per_s.{mode}", positions / busy if busy else 0.0, "1/s")
        put(f"embeddings.epoch_s.{mode}", busy / epochs if epochs else 0.0, "s")
        put(f"embeddings.final_loss.{mode}", runs[-1][1]["final_loss"] if runs else 0.0, "nat")
        total_positions += positions
        total_s += busy
    put("train_positions_per_s", total_positions / total_s if total_s else 0.0, "1/s")

    for name in ("rank_ql", "rank_bm25", "rank_rocchio"):
        calls_and_self(f"retrieval.{name}", (50, 99))
    for name in LAYER_FUNCTIONS["feedback"]:
        calls_and_self(f"feedback.{name}", (50,))
    put("feedback.pool_size_mean",
        mean([p for name in LAYER_FUNCTIONS["feedback"] for p in notes(f"feedback.{name}", "pool")]), "count")
    calls_and_self("fusion.fused_rank", (50,))
    put("fusion.candidates_per_call", mean(notes("fusion.fused_rank", "candidates")), "count")
    for name in LAYER_FUNCTIONS["simulation"]:
        calls_and_self(f"simulation.{name}", (50,))
    put("simulation.early_exhausted", sum(notes("simulation.run_irf_session", "early")), "count")
    for name in LAYER_FUNCTIONS["evaluation"]:
        calls_and_self(f"evaluation.{name}")
    put("evaluation.grid_points", sum(notes("evaluation.cross_validate_grid", "points")), "count")
    for name in ("irf_experiment", "onerel_experiment", "evaluate_run_file"):
        name = f"experiments.{name}"
        put(f"{name}.self_s", float(sum(self_s[i] for i in by_name.get(name, []))), "s")

    ingest_s = seconds("corpus.ingest_corpus")
    put("corpus.ingest_corpus.s", float(np.median(ingest_s)) if ingest_s else 0.0, "s")
    put("corpus.tokens_per_s", sum(notes("corpus.ingest_corpus", "tokens")) / sum(ingest_s) if ingest_s else 0.0,
        "1/s")
    index_s = seconds("index.build_index")
    put("index.build_index.s", float(np.median(index_s)) if index_s else 0.0, "s")
    samples["corpus.ingest_corpus.s"] = len(ingest_s)
    samples["index.build_index.s"] = len(index_s)
    postings = notes("index.build_index", "postings")
    put("index.postings", postings[-1] if postings else 0, "count")
    put("tracing.spans", len(tracer.spans), "count")
    return metrics, units, samples
