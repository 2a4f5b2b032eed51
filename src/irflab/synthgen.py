"""Seeded planted-topic corpus generator.

Each query owns a disjoint slice of the vocabulary with a geometric topic
distribution over it. Relevant passages mix topic and background draws;
noise passages are pure background; queries sample from the topic head. The
planted qrels let the feedback pipeline's directional behavior be tested at
desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import Judgments, Passage, PassageCollection, Query, write_corpus, write_qrels, write_queries

MIN_TOPIC_TERMS = 4
QUERY_TERMS = 2
TOPIC_HEAD = 4          # query terms come from the first TOPIC_HEAD slice terms
TOPIC_DECAY = 0.9       # geometric topic distribution over the slice
BACKGROUND_POWER = 0.7  # background ~ 1 / (rank+1)^power


@dataclass(frozen=True)
class GeneratorConfig:
    num_queries: int = 50
    passages_per_query_relevant: int = 10
    num_noise_passages: int = 1500
    vocab_size: int = 500
    topic_concentration: float = 0.6
    passage_length_range: tuple[int, int] = (8, 16)
    seed: int = 0

    def __post_init__(self):
        if min(self.num_queries, self.passages_per_query_relevant,
               self.num_noise_passages, self.vocab_size) < 1:
            raise ValueError("all generator counts must be >= 1")
        if not 0.0 < self.topic_concentration <= 1.0:
            raise ValueError("topic_concentration must be in (0, 1]")
        lo, hi = self.passage_length_range
        if lo < 1 or hi < lo:
            raise ValueError("invalid passage_length_range")
        if self.vocab_size // self.num_queries < MIN_TOPIC_TERMS:
            raise ValueError(f"vocabulary of {self.vocab_size} too small for {self.num_queries} "
                             f"topics of at least {MIN_TOPIC_TERMS} terms")


def generate(config: GeneratorConfig) -> tuple[PassageCollection, list[Query], Judgments]:
    slice_size = config.vocab_size // config.num_queries
    rng = np.random.default_rng(config.seed)
    vocab = np.array([f"w{i:04d}" for i in range(config.vocab_size)])
    # permuting the power-law decouples background frequency from the
    # contiguous topic slices, so every topic faces comparable noise
    background = 1.0 / (np.arange(config.vocab_size) + 1.0) ** BACKGROUND_POWER
    background = background[rng.permutation(config.vocab_size)]
    background /= background.sum()
    topic_weights = TOPIC_DECAY ** np.arange(slice_size)
    topic_weights /= topic_weights.sum()

    lo, hi = config.passage_length_range
    conc = config.topic_concentration
    passages: list[Passage] = []
    queries: list[Query] = []
    judgments = Judgments()

    def sample_passage(pid: str, doc_id: str, topic_slice: np.ndarray | None) -> Passage:
        length = int(rng.integers(lo, hi + 1))
        from_topic = (rng.random(length) < conc) if topic_slice is not None else np.zeros(length, dtype=bool)
        tokens = np.empty(length, dtype=object)
        n_topic = int(from_topic.sum())
        if n_topic:
            tokens[from_topic] = topic_slice[rng.choice(slice_size, size=n_topic, p=topic_weights)]
        n_bg = length - n_topic
        if n_bg:
            tokens[~from_topic] = vocab[rng.choice(config.vocab_size, size=n_bg, p=background)]
        toks = tuple(tokens.tolist())
        return Passage(passage_id=pid, doc_id=doc_id, text=" ".join(toks), tokens=toks)

    for qi in range(config.num_queries):
        topic_slice = vocab[qi * slice_size : (qi + 1) * slice_size]
        qid = f"q{qi:03d}"
        head = topic_slice[:TOPIC_HEAD]
        head_w = topic_weights[:TOPIC_HEAD] / topic_weights[:TOPIC_HEAD].sum()
        n_terms = min(QUERY_TERMS, len(head))
        picked = rng.choice(len(head), size=n_terms, replace=False, p=head_w)
        q_tokens = tuple(head[sorted(picked)].tolist())
        queries.append(Query(query_id=qid, text=" ".join(q_tokens), tokens=q_tokens))
        for j in range(config.passages_per_query_relevant):
            pid = f"p{qi:03d}r{j:02d}"
            passages.append(sample_passage(pid, f"d{qi:03d}r{j:02d}", topic_slice))
            judgments.add(qid, pid, 1)

    for j in range(config.num_noise_passages):
        pid = f"pn{j:05d}"
        passages.append(sample_passage(pid, f"dn{j:05d}", None))

    return PassageCollection(passages), queries, judgments


def write_dataset(outdir, collection: PassageCollection, queries, judgments: Judgments) -> dict[str, Path]:
    """Write corpus.jsonl / queries.tsv / qrels.txt into outdir."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = {
        "corpus": outdir / "corpus.jsonl",
        "queries": outdir / "queries.tsv",
        "qrels": outdir / "qrels.txt",
    }
    write_corpus(paths["corpus"], collection)
    write_queries(paths["queries"], queries)
    write_qrels(paths["qrels"], judgments)
    return paths
