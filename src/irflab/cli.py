"""Command-line front end.

Commands: gen-synth, train-embeddings, run-irf, run-onerel, eval,
significance. Exit codes: 0 success, 1 runtime failure, 2 usage or
configuration error. Every command that takes a seed is reproducible
byte-for-byte. Every command runs single-threaded and is deterministic:
--threads 1 and --deterministic are accepted and change nothing, and
--threads above 1 exits 2.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from . import __version__
from .config import ConfigError, _build, load_experiment_config, tokenizer_from_config
from .corpus import TokenizerConfig, ingest_corpus
from .embeddings import TrainConfig, save_model, train_pv_hdc, train_skipgram
from .evaluation import DEFAULT_PERMUTATIONS, METRICS, SIGNIFICANCE_THRESHOLD
from .experiments import (
    evaluate_run_file,
    format_table,
    irf_experiment,
    irf_metrics,
    onerel_experiment,
    significance_between,
)
from .synthgen import GeneratorConfig, generate, write_dataset

logger = logging.getLogger("irflab")

CLI_TRAIN_MODES = {"skipgram": "skipgram", "pv-hdc": "pv_hdc", "pvc": "pv_hdc_corrupted"}


def _seed(text: str) -> int:
    """--seed's type: an integer >= 0, so a bad seed exits 2 before any data is read."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return int(text)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=_seed, default=None, help="override the config seed")
    parser.add_argument("--output-dir", default=None, help="override the config output directory")
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility: irflab runs single-threaded and exits 2 above 1")
    parser.add_argument("--deterministic", action="store_true",
                        help="accepted for compatibility: every run is deterministic")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="irflab",
                                     description="iterative relevance feedback experiments")
    parser.add_argument("--version", action="version", version=f"irflab {__version__}")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)
    gen, train = GeneratorConfig(), TrainConfig()  # the flags' defaults are the configs'

    p = sub.add_parser("gen-synth", help="generate a seeded synthetic dataset")
    p.add_argument("--config", help="experiment config (seed/output_dir) or omit for defaults")
    p.add_argument("--queries", type=int, default=gen.num_queries)
    p.add_argument("--relevant-per-query", type=int, default=gen.passages_per_query_relevant)
    p.add_argument("--noise", type=int, default=gen.num_noise_passages)
    p.add_argument("--vocab", type=int, default=gen.vocab_size)
    p.add_argument("--concentration", type=float, default=gen.topic_concentration)
    _add_common(p)

    p = sub.add_parser("train-embeddings", help="train word/passage embeddings")
    p.add_argument("--config", help="experiment config whose tokenizer reads the corpus; "
                                    "default: stopwords removed, no stemming")
    p.add_argument("--corpus", required=True)
    p.add_argument("--mode", choices=sorted(CLI_TRAIN_MODES), required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--dim", type=int, default=train.dim)
    p.add_argument("--negatives", type=int, default=train.negatives)
    p.add_argument("--learning-rate", type=float, default=train.learning_rate)
    p.add_argument("--batch-size", type=int, default=train.batch_size)
    p.add_argument("--window", type=int, default=train.window)
    p.add_argument("--epochs", type=int, default=train.epochs)
    p.add_argument("--corruption-q", type=float, default=train.corruption_q)
    _add_common(p)

    p = sub.add_parser("run-irf", help="iterative feedback sessions with freezing evaluation")
    p.add_argument("--config", required=True)
    _add_common(p)

    p = sub.add_parser("run-onerel", help="retrieval given one relevant passage")
    p.add_argument("--config", required=True)
    _add_common(p)

    p = sub.add_parser("eval", help="evaluate a TREC run file against qrels")
    p.add_argument("--run", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument("--metrics", default="map100,ndcg20", help=f"comma list from {METRICS}")
    _add_common(p)

    p = sub.add_parser("significance", help="Fisher randomization test between two runs")
    p.add_argument("--run-a", required=True)
    p.add_argument("--run-b", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument("--metric", default="map100", choices=METRICS)
    p.add_argument("--permutations", type=int, default=DEFAULT_PERMUTATIONS)
    _add_common(p)
    return parser


def _load_config(args) -> dict:
    cfg = load_experiment_config(args.config) if getattr(args, "config", None) else {"schema_version": 1}
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.output_dir is not None:
        cfg["output_dir"] = args.output_dir
    return cfg


def _cmd_gen_synth(args) -> int:
    cfg = _load_config(args)
    gen = _build(
        GeneratorConfig,
        num_queries=args.queries,
        passages_per_query_relevant=args.relevant_per_query,
        num_noise_passages=args.noise,
        vocab_size=args.vocab,
        topic_concentration=args.concentration,
        seed=int(cfg.get("seed", 0)),
    )
    out_dir = Path(cfg.get("output_dir", "synth-data"))
    paths = write_dataset(out_dir, *generate(gen))
    for name, path in paths.items():
        print(f"{name}: {path}")
    return 0


def _cmd_train_embeddings(args) -> int:
    if args.config:
        tokenizer = tokenizer_from_config(load_experiment_config(args.config))
    else:
        tokenizer = TokenizerConfig.embedding()
    config = _build(
        TrainConfig,
        dim=args.dim,
        negatives=args.negatives,
        learning_rate=args.learning_rate,
        batch_size=args.batch_size,
        window=args.window,
        epochs=args.epochs,
        seed=args.seed if args.seed is not None else 0,
        corruption_q=args.corruption_q,
        mode=CLI_TRAIN_MODES[args.mode],
    )
    collection = ingest_corpus(args.corpus, tokenizer)
    trainer = train_skipgram if config.mode == "skipgram" else train_pv_hdc
    model = trainer(collection, config)
    # load_engine refuses the model in an experiment that tokenizes otherwise
    model.metadata["tokenizer"] = tokenizer.fingerprint()
    save_model(model, args.out)
    print(f"trained {config.mode} ({len(model.vocab)} terms, dim {model.dim}) -> {args.out}")
    return 0


def _cmd_run_irf(args) -> int:
    cfg = _load_config(args)
    print(format_table(irf_experiment(cfg), f"mean {irf_metrics(cfg)[0]} of freezing rank lists"))
    return 0


def _cmd_run_onerel(args) -> int:
    print(format_table(onerel_experiment(_load_config(args)), "one-relevant-passage experiment"))
    return 0


def _cmd_eval(args) -> int:
    metrics = [m.strip() for m in args.metrics.split(",") if m.strip()]
    if not metrics:
        raise ConfigError(f"--metrics names no metric; expected a comma list from {METRICS}")
    for metric in metrics:
        if metric not in METRICS:
            raise ConfigError(f"unknown metric {metric!r}; expected one of {METRICS}")
    results = evaluate_run_file(args.run, args.qrels, metrics)
    for metric, res in results.items():
        print(f"{metric}: {res.mean:.4f} over {len(res.per_query)} topics")
    return 0


def _cmd_significance(args) -> int:
    if args.permutations < 1:
        raise ConfigError(f"--permutations must be >= 1, got {args.permutations}")
    p = significance_between(
        args.run_a, args.run_b, args.qrels, args.metric,
        permutations=args.permutations, seed=args.seed if args.seed is not None else 0,
    )
    verdict = "significant" if p < SIGNIFICANCE_THRESHOLD else "not significant"
    print(f"p-value: {p:.6f} ({verdict} at {SIGNIFICANCE_THRESHOLD})")
    return 0


_COMMANDS = {
    "gen-synth": _cmd_gen_synth,
    "train-embeddings": _cmd_train_embeddings,
    "run-irf": _cmd_run_irf,
    "run-onerel": _cmd_run_onerel,
    "eval": _cmd_eval,
    "significance": _cmd_significance,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.threads > 1:
        print(f"error: --threads {args.threads}: irflab runs single-threaded", file=sys.stderr)
        return 2
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        logger.debug("command failed", exc_info=True)
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
