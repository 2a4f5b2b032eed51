"""The three workloads: set-up (irflab's load calls), the timed work, and
the output checks that feed error_rate.

Each workload is one closed-loop client in one process, driving irflab's
public API with threads=1. Its inputs are files written by inputs.py.

  train-2k       embedding training dominates; a short session sweep follows
  sessions-22k   a large collection: retrieval, feedback and fusion dominate
  experiment-2k  the researcher's CLI run: many short calls, CV grids,
                 evaluation and file output
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import irflab
from irflab import cli, config, corpus, embeddings, evaluation, experiments, index, retrieval, simulation
from irflab.fusion import LAMBDA_SF_GRID_WIDE
from tracing import TRAIN_MODES, trained_positions

# Per size: set-up repetitions (set-up time is their median), the training
# config (C8's: dim 48, 10 negatives, batch 256; one epoch per mode keeps a
# run under a minute) and the permutations of the significance command.
SIZES = {
    "full": {"setup_repeats": 5, "train": dict(dim=48, negatives=10, batch_size=256, epochs=1),
             "permutations": 100_000},
    "smoke": {"setup_repeats": 2, "train": dict(dim=8, negatives=3, batch_size=64, epochs=1),
              "permutations": 1000},
}


@dataclass
class Session:
    """One session the benchmark ran, with its run-file tag."""

    tag: str
    scfg: simulation.SessionConfig
    query: corpus.Query
    result: simulation.SessionResult | None
    error: str | None


@dataclass
class Work:
    """What one timed pass did; filled by work(), read by check()."""

    sessions: list[Session] = field(default_factory=list)
    session_s: float = 0.0
    session_ms: list[float] = field(default_factory=list)
    training: dict = field(default_factory=dict)  # mode -> (seconds, model or error)
    commands: list[tuple[list[str], int, str, float]] = field(default_factory=list)


@dataclass
class Checked:
    attempted: int
    failed: int
    failures: list[str]  # one line per problem found
    map100: float
    digests: dict[str, str]
    training: dict = field(default_factory=dict)  # mode -> seconds, epochs, positions, final_loss


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _session_setup(cfg: dict, model) -> tuple:
    """The load calls of the in-process workloads: corpus, queries, qrels,
    index, and the engine context the sessions run against."""
    tokenizer = config.tokenizer_from_config(cfg)
    paths = cfg["corpus"]
    collection = corpus.ingest_corpus(paths["passages"], tokenizer)
    queries = [q for q in corpus.load_queries(paths["queries"], tokenizer) if q.tokens]
    qrels = corpus.load_qrels(paths["qrels"])
    ctx = simulation.EngineContext(
        collection=collection,
        index=index.build_index(collection),
        retrieval=config.retrieval_from_config(cfg),
        feedback=config.feedback_from_config(cfg),
        erm=config.erm_from_config(cfg),
        embeddings=model,
    )
    return cfg, queries, qrels, ctx


def _run_sessions(work: Work, plan, queries, qrels, ctx) -> None:
    """Every session of the plan for one query before the next query, so
    that a slow spell of the machine falls on all methods alike."""
    start = time.perf_counter()
    for query in queries:
        for tag, scfg in plan:
            t = time.perf_counter()
            try:
                result, error = simulation.run_irf_session(query, qrels, scfg, ctx), None
            except Exception as exc:  # noqa: BLE001 - a failed session is counted, not fatal
                result, error = None, f"{type(exc).__name__}: {exc}"
            work.session_ms.append((time.perf_counter() - t) * 1e3)
            work.sessions.append(Session(tag, scfg, query, result, error))
    work.session_s = time.perf_counter() - start


def check_frozen_list(ids, blocks, per_iter: int, iterations: int, passage_count: int,
                      depth: int | None) -> str | None:
    """A frozen ranking as written to a run file: duplicate-free, shown
    blocks at their presentation ranks, a tail without shown passages that
    holds every unshown candidate up to the session depth."""
    if len(set(ids)) != len(ids):
        return "duplicate passages"
    if not blocks or len(blocks) > iterations:
        return f"{len(blocks)} shown blocks for {iterations} iterations"
    pos = 0
    for i, block in enumerate(blocks):
        if list(ids[pos:pos + len(block)]) != list(block):
            return f"shown block {i} not at ranks {pos + 1}..{pos + len(block)}"
        if len(block) != per_iter and i != len(blocks) - 1:
            return f"shown block {i} has {len(block)} passages, expected {per_iter}"
        pos += len(block)
    shown = pos
    tail = ids[shown:]
    if len(blocks[-1]) != per_iter and tail:
        return "session ended early but the tail is not empty"
    limit = depth if depth is not None else 100 + shown
    if len(tail) != min(limit, passage_count - shown):
        return f"tail of {len(tail)} passages, expected {min(limit, passage_count - shown)}"
    return None


def _check_sessions(work: Work, qrels, passage_count: int, out: Path) -> tuple[list[str], list[float], dict]:
    """Checks every session, writes one run file per tag from the frozen
    rankings, reads it back and checks the lists as written."""
    failures: list[str] = []
    maps: list[float] = []
    by_tag: dict[str, list[Session]] = {}
    for s in work.sessions:
        if s.error is not None:
            failures.append(f"{s.tag} {s.query.query_id}: {s.error}")
            continue
        by_tag.setdefault(s.tag, []).append(s)
    digests = {}
    for tag, sessions in by_tag.items():
        path = out / f"run_{tag}.txt"
        rankings = []
        for s in sessions:
            full = simulation.freeze_ranking(s.result.frozen)
            rankings.append(retrieval.RankedList(
                query_id=s.query.query_id,
                entries=tuple((pid, float(len(full) - i)) for i, pid in enumerate(full))))
        retrieval.write_run(path, rankings, tag=tag)
        written = retrieval.read_run(path)
        digests[path.name] = sha256(path)
        for s in sessions:
            qid = s.query.query_id
            ids = [pid for pid, _ in written.get(qid, [])]
            frozen = s.result.frozen
            problem = check_frozen_list(ids, frozen.shown_blocks, s.scfg.per_iter, s.scfg.iterations,
                                        passage_count, s.scfg.depth)
            scores = [score for _, score in frozen.tail.entries]
            if problem is None and not all(math.isfinite(x) for x in scores):
                problem = "non-finite tail score"
            if problem is None and any(b > a for a, b in zip(scores, scores[1:])):
                problem = "tail not in descending score order"
            if problem is not None:
                failures.append(f"{tag} {qid}: {problem}")
            maps.append(evaluation.evaluate_ranking(ids, qrels.relevant_ids(qid), "map100"))
    return failures, maps, digests


class _Workload:
    def __init__(self, size: str, seed: int, inputs: Path, out: Path):
        self.size, self.seed, self.out = size, seed, out
        self.cfg_path = inputs / "config.json"


class TrainWorkload(_Workload):
    """train-2k: skipgram, pv_hdc and pv_hdc_corrupted on the 2k acceptance
    corpus, then C8's session sweep with the trained pvc model: every method
    at 10x1 and 1x10, plain rm3 5x2, and fused rm3 5x2 over the lambda grid.
    The sweep lasts a few seconds, long enough for steady session figures,
    against the training's fifteen."""

    def setup(self):
        cfg = config.load_experiment_config(self.cfg_path)
        if config.tokenizer_from_config(cfg) != corpus.TokenizerConfig.embedding():
            raise ValueError("training and retrieval tokenizers differ")
        return _session_setup(cfg, None)

    def work(self, state) -> Work:
        cfg, queries, qrels, ctx = state
        work = Work()
        for mode in TRAIN_MODES:
            train_cfg = embeddings.TrainConfig(seed=self.seed, mode=mode, **SIZES[self.size]["train"])
            trainer = irflab.train_skipgram if mode == "skipgram" else irflab.train_pv_hdc
            t = time.perf_counter()
            try:
                model = trainer(ctx.collection, train_cfg)
            except Exception as exc:  # noqa: BLE001 - a failed training run is counted
                model = f"{type(exc).__name__}: {exc}"
            work.training[mode] = (time.perf_counter() - t, model)
        pvc = work.training["pv_hdc_corrupted"][1]
        ctx = replace(ctx, embeddings=None if isinstance(pvc, str) else pvc)
        fusion = config.fusion_from_config(cfg)
        plan = [(f"{m}_{n}x{i}", simulation.SessionConfig(per_iter=n, iterations=i, rf_method=m))
                for m in config.methods_from_config(cfg) for n, i in ((10, 1), (1, 10))]
        plan.append(("rm3_5x2", simulation.SessionConfig(per_iter=5, iterations=2, rf_method="rm3")))
        plan += [(f"rm3_fused{lam:g}_5x2", simulation.SessionConfig(
            per_iter=5, iterations=2, rf_method="rm3", fusion=replace(fusion, lambda_sf=lam)))
            for lam in LAMBDA_SF_GRID_WIDE]
        _run_sessions(work, plan, queries, qrels, ctx)
        return work

    def check(self, state, work: Work) -> Checked:
        _, _, qrels, ctx = state
        failures, maps, digests = _check_sessions(work, qrels, len(ctx.collection), self.out)
        epochs = SIZES[self.size]["train"]["epochs"]
        training = {}
        for mode, (seconds, model) in work.training.items():
            if isinstance(model, str):
                failures.append(f"train {mode}: {model}")
                continue
            losses = model.metadata.get("epoch_losses", [])
            arrays = [model.word_vectors, model.context_vectors]
            if model.passage_vectors is not None:
                arrays.append(model.passage_vectors)
            if not all(np.isfinite(a).all() for a in arrays):
                failures.append(f"train {mode}: non-finite vectors")
            elif len(losses) != epochs or not all(map(math.isfinite, losses)):
                failures.append(f"train {mode}: epoch losses {losses}")
            path = self.out / f"model_{mode}.emb"
            embeddings.save_model(model, path)
            digests[path.name] = sha256(path)
            training[mode] = {"seconds": seconds, "epochs": epochs,
                              "final_loss": losses[-1] if losses else math.nan,
                              "positions": trained_positions(ctx.collection, model) * epochs}
        return Checked(len(work.sessions) + len(work.training), len(failures), failures,
                       float(np.mean(maps)) if maps else 0.0, digests, training)


class SessionsWorkload(_Workload):
    """sessions-22k: 1x10 sessions for every query with rm3, distillation,
    rocchio and erm, plus fused rm3 1x10 (pvc), on a synthesized model."""

    def setup(self):
        cfg = config.load_experiment_config(self.cfg_path)
        return _session_setup(cfg, embeddings.load_model(cfg["embeddings"]["model_path"]))

    def work(self, state) -> Work:
        cfg, queries, qrels, ctx = state
        work = Work()
        plan = [(f"{m}_1x10", simulation.SessionConfig(per_iter=1, iterations=10, rf_method=m))
                for m in config.methods_from_config(cfg)]
        plan.append(("rm3_fused_1x10", simulation.SessionConfig(
            per_iter=1, iterations=10, rf_method="rm3", fusion=config.fusion_from_config(cfg))))
        _run_sessions(work, plan, queries, qrels, ctx)
        return work

    def check(self, state, work: Work) -> Checked:
        _, _, qrels, ctx = state
        failures, maps, digests = _check_sessions(work, qrels, len(ctx.collection), self.out)
        return Checked(len(work.sessions), len(failures), failures, float(np.mean(maps)) if maps else 0.0, digests)


class ExperimentWorkload(_Workload):
    """experiment-2k: run-irf (4 methods x the CLI budget settings, fusion,
    mu/k1 grid CV), run-onerel, then eval and significance on two of the
    produced runs, all through irflab.cli.main in this process."""

    def setup(self):
        cfg = config.load_experiment_config(self.cfg_path)
        return cfg, experiments.load_engine(cfg)

    def commands(self, cfg: dict) -> list[list[str]]:
        run_dir = Path(cfg["output_dir"])
        qrels = cfg["corpus"]["qrels"]
        common = ["--deterministic", "--threads", "1"]
        return [
            ["run-irf", "--config", str(self.cfg_path)] + common,
            ["run-onerel", "--config", str(self.cfg_path)] + common,
            ["eval", "--run", str(run_dir / "run_irf_rm3_1x10.txt"), "--qrels", qrels,
             "--metrics", "map100,ndcg20"] + common,
            ["significance", "--run-a", str(run_dir / "run_irf_rm3_1x10.txt"),
             "--run-b", str(run_dir / "run_irf_rocchio_1x10.txt"), "--qrels", qrels,
             "--metric", "map100", "--permutations", str(SIZES[self.size]["permutations"]),
             "--seed", str(self.seed)] + common,
        ]

    def work(self, state) -> Work:
        cfg, _ = state
        work = Work()
        original = experiments.run_irf_session

        def timed_session(*args, **kwargs):
            t = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                work.session_ms.append((time.perf_counter() - t) * 1e3)

        for argv in self.commands(cfg):
            stdout = io.StringIO()
            if argv[0] == "run-irf":
                experiments.run_irf_session = timed_session
            t = time.perf_counter()
            try:
                with contextlib.redirect_stdout(stdout):
                    code = cli.main(argv)
            finally:
                experiments.run_irf_session = original
            seconds = time.perf_counter() - t
            if argv[0] == "run-irf":
                work.session_s = seconds
            work.commands.append((argv, code, stdout.getvalue(), seconds))
        return work

    def check(self, state, work: Work) -> Checked:
        cfg, engine = state
        run_dir = Path(cfg["output_dir"])
        failures: list[str] = []
        failed = 0
        digests: dict[str, str] = {}
        maps: list[float] = []
        qrels = engine.qrels
        passage_count = len(engine.ctx.collection)
        settings = config.settings_from_config(cfg)
        summary = {}
        summary_path = run_dir / "summary_map100.csv"
        if summary_path.exists():
            with open(summary_path, newline="", encoding="utf-8") as fh:
                summary = {row["method"]: row for row in csv.DictReader(fh)}
        for argv, code, stdout, _ in work.commands:
            problems = [f"exit code {code}"] if code != 0 else []
            try:
                if code == 0 and argv[0] == "run-irf":
                    problems += self._check_irf(run_dir, cfg, settings, summary, qrels,
                                                len(engine.queries), passage_count, maps, digests)
                elif code == 0 and argv[0] == "run-onerel":
                    for method in config.onerel_methods_from_config(cfg):
                        path = run_dir / f"run_onerel_{method}.txt"
                        run = retrieval.read_run(path)
                        digests[path.name] = sha256(path)
                        if not run or any(len({p for p, _ in e}) != len(e) for e in run.values()):
                            problems.append(f"{path.name}: empty or has duplicate passages")
                elif code == 0 and argv[0] == "eval":
                    shown = stdout.split("\n")[0].split()
                    expected = summary.get("rm3", {}).get("1x10")
                    if (len(shown) < 2 or shown[0] != "map100:" or expected is None
                            or abs(float(shown[1]) - float(expected)) > 1.01e-4):
                        problems.append(f"eval printed {stdout.strip()!r}, summary has map100 {expected}")
                elif code == 0 and argv[0] == "significance":
                    fields = stdout.split()
                    if len(fields) < 2 or fields[0] != "p-value:" or not 0.0 < float(fields[1]) <= 1.0:
                        problems.append(f"significance printed {stdout.strip()!r}")
            except (OSError, ValueError, KeyError) as exc:  # missing or malformed output
                problems.append(f"{type(exc).__name__}: {exc}")
            failures += [f"{argv[0]}: {p}" for p in problems]
            failed += bool(problems)
        return Checked(len(work.commands), failed, failures, float(np.mean(maps)) if maps else 0.0, digests)

    def _check_irf(self, run_dir, cfg, settings, summary, qrels, n_queries, passage_count,
                   maps, digests) -> list[str]:
        problems = []
        depth = cfg.get("session", {}).get("depth")
        for method in config.methods_from_config(cfg):
            for per_iter, iterations in settings:
                tag = f"{method}_{per_iter}x{iterations}"
                path = run_dir / f"run_irf_{tag}.txt"
                run = retrieval.read_run(path)
                digests[path.name] = sha256(path)
                blocks: dict[str, list] = {}
                with open(run_dir / f"trace_{tag}.jsonl", encoding="utf-8") as fh:
                    for line in fh:
                        row = json.loads(line)
                        blocks.setdefault(row["query_id"], []).append((row["iteration"], row["shown"]))
                if len(run) != n_queries:
                    problems.append(f"{path.name}: {len(run)} queries, expected {n_queries}")
                per_query = []
                for qid, entries in run.items():
                    ids = [pid for pid, _ in entries]
                    shown = [b for _, b in sorted(blocks.get(qid, []))]
                    problem = check_frozen_list(ids, shown, per_iter, iterations, passage_count, depth)
                    if problem is not None:
                        problems.append(f"{path.name} {qid}: {problem}")
                    per_query.append(evaluation.evaluate_ranking(ids, qrels.relevant_ids(qid), "map100"))
                mean = float(np.mean(per_query)) if per_query else 0.0
                maps.append(mean)
                expected = summary.get(method, {}).get(f"{per_iter}x{iterations}")
                if expected is None or abs(float(expected) - mean) > 5.1e-5:
                    problems.append(f"{path.name}: map100 {mean:.4f} but summary has {expected}")
        return problems


WORKLOADS = {
    "train-2k": TrainWorkload,
    "sessions-22k": SessionsWorkload,
    "experiment-2k": ExperimentWorkload,
}
