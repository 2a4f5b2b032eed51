"""Generate one workload's inputs from its seed and write them to files.

Run as a separate process so that the measured process only reads files:

    python3 benchmarks/inputs.py --workload sessions-22k --size full --seed 3 --out DIR

Writes corpus.jsonl, queries.tsv, qrels.txt and config.json into DIR, and
for the workloads that do not train, model.emb: a pvc-shaped embedding
model synthesized without the trainer (see synthesize_model).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Corpus sizes per workload and size. "full" is the measured benchmark;
# "smoke" exercises the same code paths in seconds.
GENERATOR = {
    "full": {
        "train-2k": {},  # GeneratorConfig defaults: the 2k acceptance corpus
        "sessions-22k": {"num_queries": 200, "num_noise_passages": 20000, "vocab_size": 4000},
        "experiment-2k": {},
    },
    "smoke": {
        "train-2k": {"num_queries": 10, "num_noise_passages": 200, "vocab_size": 100},
        "sessions-22k": {"num_queries": 10, "num_noise_passages": 300, "vocab_size": 100},
        "experiment-2k": {"num_queries": 10, "num_noise_passages": 200, "vocab_size": 100},
    },
}
MODEL_DIM = {"full": 48, "smoke": 8}


def experiment_config(workload: str, out: Path, seed: int) -> dict:
    """The experiment config every workload reads. Stemming is off so that
    query and embedding tokens agree (the embedding tokenizer never stems)."""
    from irflab.retrieval import K1_GRID, MU_GRID

    cfg = {
        "schema_version": 1,
        "seed": seed,
        "output_dir": str(out / "cli-out"),
        "corpus": {"passages": str(out / "corpus.jsonl"), "queries": str(out / "queries.tsv"),
                   "qrels": str(out / "qrels.txt")},
        "tokenizer": {"stopwords": "default", "stemming": "none"},
        "feedback": {"methods": ["rm3", "distillation", "rocchio", "erm"]},
        "fusion": {"enabled": True, "lambda_sf": 10.0},
        "embeddings": {"representation_mode": "pvc"},
    }
    if workload != "train-2k":
        cfg["embeddings"]["model_path"] = str(out / "model.emb")
    if workload == "experiment-2k":
        cfg["retrieval"] = {"mu_grid": list(MU_GRID), "k1_grid": list(K1_GRID)}
        cfg["onerel"] = {"methods": ["ql", "rm3"]}
    return cfg


def synthesize_model(corpus_path: Path, dim: int, seed: int):
    """A pvc-shaped model without training: the vocabulary the trainer would
    keep (embedding-tokenizer terms with frequency >= MIN_VOCAB_FREQ, most
    frequent first), seeded random word and context vectors, and passage
    vectors that are the mean of each passage's word rows, as the corrupted
    mode stores them."""
    import numpy as np
    from irflab import EmbeddingModel, TokenizerConfig, ingest_corpus
    from irflab.embeddings import MIN_VOCAB_FREQ

    collection = ingest_corpus(corpus_path, TokenizerConfig.embedding())
    counts: dict[str, int] = {}
    for passage in collection:
        for tok in passage.tokens:
            counts[tok] = counts.get(tok, 0) + 1
    kept = sorted((t for t, c in counts.items() if c >= MIN_VOCAB_FREQ), key=lambda t: (-counts[t], t))
    vocab = {t: i for i, t in enumerate(kept)}
    rng = np.random.default_rng(seed)
    word = (rng.random((len(vocab), dim)) - 0.5) / dim
    context = (rng.random((len(vocab), dim)) - 0.5) / dim
    passage_vectors = np.zeros((len(collection), dim))
    for i, passage in enumerate(collection):
        rows = [vocab[t] for t in passage.tokens if t in vocab]
        if rows:
            passage_vectors[i] = word[rows].mean(axis=0)
    metadata = {"mode": "pv_hdc_corrupted", "dim": dim, "seed": seed,
                "vocab_min_freq": MIN_VOCAB_FREQ, "synthesized": True}
    return EmbeddingModel(vocab=vocab, word_vectors=word, context_vectors=context, dim=dim,
                          passage_vectors=passage_vectors, passage_ids=collection.ids,
                          metadata=metadata)


def write_inputs(workload: str, size: str, seed: int, out: Path) -> None:
    from irflab import GeneratorConfig, generate, save_model
    from irflab.synthgen import write_dataset

    out.mkdir(parents=True, exist_ok=True)
    gen = GeneratorConfig(seed=seed, **GENERATOR[size][workload])
    write_dataset(out, *generate(gen))
    (out / "config.json").write_text(json.dumps(experiment_config(workload, out, seed), indent=2), encoding="utf-8")
    if workload != "train-2k":
        save_model(synthesize_model(out / "corpus.jsonl", MODEL_DIM[size], seed), out / "model.emb")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATOR["full"]))
    parser.add_argument("--size", default="full", choices=sorted(GENERATOR))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    write_inputs(args.workload, args.size, args.seed, Path(args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
