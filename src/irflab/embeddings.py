"""Word and passage embeddings trained with negative sampling.

Three trainers share one loss core:
  skipgram            within-window word pairs
  pv_hdc              a per-passage vector predicts each observed word,
                      then the word predicts its context words
  pv_hdc_corrupted    same, but the passage-side representation is an
                      unbiased-dropout average of the passage's word
                      embeddings, resampled every optimizer step; the
                      stored passage vector is the plain mean

Batch size counts target positions and is the unit of work of one
optimizer round; within a batch the gradients of each target position are
summed and applied immediately, word2vec style, which keeps high-frequency
rows stable at the default learning rate. Training is single-threaded and,
for a fixed seed, bit-for-bit reproducible. The vocabulary and its
frequencies come from build_index.

Model files are version-tagged little-endian snapshots; a truncated file or
one with trailing bytes is rejected with ValueError.
"""

from __future__ import annotations

import json
import logging
import struct
from dataclasses import asdict, dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .corpus import Passage, PassageCollection
from .index import Index, build_index, idf

logger = logging.getLogger(__name__)

MODEL_MAGIC = b"IRFEMB"
MODEL_VERSION = 1
MIN_VOCAB_FREQ = 5

TRAIN_MODES = ("skipgram", "pv_hdc", "pv_hdc_corrupted")
REPRESENTATION_MODES = ("avg_w2v", "idf_w2v", "pv", "pvc")


class UnrepresentablePassage(ValueError):
    """Raised when a passage has no in-vocabulary tokens to embed."""


@dataclass(frozen=True)
class TrainConfig:
    dim: int = 100
    negatives: int = 10
    learning_rate: float = 0.05
    batch_size: int = 256
    window: int = 5
    epochs: int = 10
    seed: int = 0
    corruption_q: float = 0.9
    mode: str = "skipgram"

    def __post_init__(self):
        if self.mode not in TRAIN_MODES:
            raise ValueError(f"unknown training mode {self.mode!r}")
        if not 0.0 <= self.corruption_q < 1.0:
            raise ValueError("corruption_q must be in [0, 1)")
        if min(self.dim, self.negatives, self.batch_size, self.window, self.epochs) < 1:
            raise ValueError("dim, negatives, batch_size, window, epochs must be >= 1")


@dataclass
class EmbeddingModel:
    vocab: dict[str, int]
    word_vectors: np.ndarray
    context_vectors: np.ndarray
    dim: int
    passage_vectors: np.ndarray | None = None
    passage_ids: tuple[str, ...] | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        terms = [""] * len(self.vocab)
        for t, i in self.vocab.items():
            terms[i] = t
        self.terms: tuple[str, ...] = tuple(terms)
        self._pid_to_row = (
            {pid: i for i, pid in enumerate(self.passage_ids)} if self.passage_ids else {}
        )
        self._memo: dict = {}

    def cached(self, key, build):
        """build()'s value, computed once per key and kept on the model.

        A value is stored only when fully built, so concurrent callers can
        at worst both build it; callers must not modify it."""
        value = self._memo.get(key)
        if value is None:
            value = build()
            self._memo[key] = value
        return value

    def unit_word_vectors(self) -> np.ndarray:
        """Row-normalized word vectors (zero rows stay zero); cached."""
        return self.cached("unit", self._build_unit_words)

    def _build_unit_words(self) -> np.ndarray:
        norms = np.linalg.norm(self.word_vectors, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        return self.word_vectors / norms

    def passage_row(self, passage_id: str) -> np.ndarray:
        (row,) = self.passage_rows([passage_id]).tolist()
        if row < 0:
            raise ValueError(f"passage {passage_id!r} was not in the training corpus")
        return self.passage_vectors[row]

    def passage_rows(self, passage_ids: Sequence[str]) -> np.ndarray:
        """Row of each passage in passage_vectors; -1 for a passage that was
        not in the training corpus."""
        if self.passage_vectors is None:
            raise ValueError("model has no trained passage vectors")
        return np.array([self._pid_to_row.get(pid, -1) for pid in passage_ids], dtype=np.int64)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # clip keeps exp in range; sigmoid saturates long before +-60 anyway
    return 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))


def _ns_batch(centers: np.ndarray, positives: np.ndarray, negatives: np.ndarray):
    """Loss and gradients of -ln s(c.p) - sum_k ln s(-c.n_k), batched.

    centers/positives are (B, d), negatives (B, K, d). Returns per-pair
    losses and gradients with matching shapes.
    """
    s_pos = np.einsum("bd,bd->b", centers, positives)
    s_neg = np.einsum("bd,bkd->bk", centers, negatives)
    loss = np.logaddexp(0.0, -s_pos) + np.logaddexp(0.0, s_neg).sum(axis=1)
    a = _sigmoid(s_pos) - 1.0
    b = _sigmoid(s_neg)
    g_center = a[:, None] * positives + np.einsum("bk,bkd->bd", b, negatives)
    g_pos = a[:, None] * centers
    g_negs = b[:, :, None] * centers[:, None, :]
    return loss, g_center, g_pos, g_negs


def ns_pair_loss(center: np.ndarray, positive: np.ndarray, negatives: np.ndarray) -> float:
    """Scalar negative-sampling loss for one (center, positive, negatives) triple."""
    loss, _, _, _ = _ns_batch(center[None, :], positive[None, :], negatives[None, :, :])
    return float(loss[0])


def ns_pair_grads(center: np.ndarray, positive: np.ndarray, negatives: np.ndarray):
    """Analytic gradients matching ns_pair_loss, as (g_center, g_positive, g_negatives)."""
    _, g_c, g_p, g_n = _ns_batch(center[None, :], positive[None, :], negatives[None, :, :])
    return g_c[0], g_p[0], g_n[0]


def corrupted_mean(vectors: np.ndarray, q: float, rng: np.random.Generator) -> np.ndarray:
    """One draw of the unbiased-dropout average: each row kept with
    probability 1-q and scaled by 1/(1-q), divided by the total row count.
    Expectation equals the plain row mean."""
    n = len(vectors)
    mask = rng.random(n) < (1.0 - q)
    if not mask.any():
        return np.zeros(vectors.shape[1])
    return vectors[mask].sum(axis=0) / ((1.0 - q) * n)


def _build_vocab(collection: PassageCollection) -> tuple[dict[str, int], np.ndarray]:
    """Terms with cf >= MIN_VOCAB_FREQ, most frequent first; term ids follow
    term order, so a stable sort breaks ties by term."""
    index = build_index(collection)
    kept = np.flatnonzero(index.cf >= MIN_VOCAB_FREQ)
    if not len(kept):
        raise ValueError(f"vocabulary empty after frequency-{MIN_VOCAB_FREQ} filter")
    kept = kept[np.argsort(-index.cf[kept], kind="stable")]
    vocab = {index.terms[t]: i for i, t in enumerate(kept.tolist())}
    return vocab, index.cf[kept].astype(np.float64)


def _encode(collection: PassageCollection, vocab: dict[str, int]) -> list[np.ndarray]:
    return [
        np.array([vocab[t] for t in p.tokens if t in vocab], dtype=np.int64)
        for p in collection
    ]


def _negative_cdf(freqs: np.ndarray) -> np.ndarray:
    p = freqs**0.75
    return np.cumsum(p / p.sum())


def _draw_negatives(rng: np.random.Generator, cdf: np.ndarray, shape) -> np.ndarray:
    return np.searchsorted(cdf, rng.random(shape), side="right").astype(np.int64)


def _passage_pairs(seq: np.ndarray, window: int):
    """Context words of every target position, grouped by position.

    Returns (contexts, counts): counts[t] pairs for position t, contexts
    stored position-by-position. The pair's center word is seq[t].
    """
    length = len(seq)
    xs, ps = [], []
    for off in range(1, min(window, length - 1) + 1):
        xs.append(seq[:-off])
        ps.append(np.arange(off, length))
        xs.append(seq[off:])
        ps.append(np.arange(0, length - off))
    if not xs:
        return np.empty(0, dtype=np.int64), np.zeros(length, dtype=np.int64)
    contexts = np.concatenate(xs)
    pos = np.concatenate(ps)
    order = np.argsort(pos, kind="stable")
    return contexts[order], np.bincount(pos, minlength=length)


@dataclass
class _Batch:
    pos_passage: np.ndarray   # passage index per target position
    pos_target: np.ndarray    # word index per target position
    pair_contexts: np.ndarray  # context words, grouped by position
    pair_counts: np.ndarray    # pairs per position


def _iter_batches(seqs: Sequence[np.ndarray], window: int, batch_positions: int) -> Iterator[_Batch]:
    """Pack target positions into work units of batch_positions, never
    splitting a position's pairs across units."""
    buf: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
    buffered = 0

    def flush() -> _Batch:
        nonlocal buf, buffered
        batch = _Batch(
            pos_passage=np.concatenate([b[0] for b in buf]),
            pos_target=np.concatenate([b[1] for b in buf]),
            pair_contexts=np.concatenate([b[2] for b in buf]),
            pair_counts=np.concatenate([b[3] for b in buf]),
        )
        buf = []
        buffered = 0
        return batch

    for pi, seq in enumerate(seqs):
        if len(seq) == 0:
            continue
        contexts, counts = _passage_pairs(seq, window)
        cum = np.concatenate(([0], np.cumsum(counts)))
        start = 0
        while start < len(seq):
            take = min(batch_positions - buffered, len(seq) - start)
            end = start + take
            buf.append((
                np.full(take, pi, dtype=np.int64),
                seq[start:end],
                contexts[cum[start]:cum[end]],
                counts[start:end],
            ))
            buffered += take
            start = end
            if buffered == batch_positions:
                yield flush()
    if buffered:
        yield flush()


class _Trainer:
    def __init__(self, collection: PassageCollection, config: TrainConfig):
        self.config = config
        self.vocab, self.freqs = _build_vocab(collection)
        self.seqs = _encode(collection, self.vocab)
        self.passage_ids = collection.ids
        self.cdf = _negative_cdf(self.freqs)
        rng = np.random.default_rng(config.seed)
        v, d = len(self.vocab), config.dim
        self.W = (rng.random((v, d)) - 0.5) / d
        self.C = np.zeros((v, d))
        self.P = None
        if config.mode == "pv_hdc":
            self.P = (rng.random((len(self.seqs), d)) - 0.5) / d
        self.rng = rng
        self.epoch_losses: list[float] = []
        # linear lr decay over the whole run, floored at 1e-4 of the start
        self.total_positions = max(1, sum(len(s) for s in self.seqs) * config.epochs)
        self.positions_done = 0

    def _next_lr(self) -> float:
        lr = self.config.learning_rate * max(1e-4, 1.0 - self.positions_done / self.total_positions)
        self.positions_done += 1
        return lr

    def _step_skipgram(self, batch: _Batch) -> tuple[float, int]:
        """Process one work unit position by position."""
        cfg = self.config
        rng = self.rng
        d = cfg.dim
        cum = np.concatenate(([0], np.cumsum(batch.pair_counts)))
        total = 0.0
        for i, wt in enumerate(batch.pos_target):
            lr = self._next_lr()
            ctx = batch.pair_contexts[cum[i]:cum[i + 1]]
            n = len(ctx)
            if n == 0:
                continue
            negs = _draw_negatives(rng, self.cdf, n * cfg.negatives)
            rows = np.concatenate((ctx, negs))
            gathered = self.C[rows]
            centers = np.broadcast_to(self.W[wt], (n, d))
            loss, g_c, g_p, g_n = _ns_batch(centers, gathered[:n], gathered[n:].reshape(n, cfg.negatives, d))
            self.W[wt] -= lr * g_c.sum(axis=0)
            np.add.at(self.C, rows, -lr * np.concatenate((g_p, g_n.reshape(-1, d))))
            total += float(loss.sum())
        return total, int(cum[-1])

    def _step_hdc(self, batch: _Batch) -> tuple[float, int]:
        """One work unit of the two-part update: the passage representation
        predicts the observed word, then the word predicts its context. Both
        parts of a position are computed at the same parameter point and
        applied together; in corrupted mode the representation is resampled
        every position and its gradient falls on the kept word rows."""
        cfg = self.config
        d = cfg.dim
        k = cfg.negatives
        q = cfg.corruption_q
        rng = self.rng
        corrupted = cfg.mode == "pv_hdc_corrupted"
        cum = np.concatenate(([0], np.cumsum(batch.pair_counts)))
        total = 0.0
        n_lossed = 0
        for i, wt in enumerate(batch.pos_target):
            lr = self._next_lr()
            pi = batch.pos_passage[i]
            seq = self.seqs[pi]
            if corrupted:
                mask = rng.random(len(seq)) < (1.0 - q)
                kept = seq[mask]
                scale = 1.0 / ((1.0 - q) * len(seq))
                rep = self.W[kept].sum(axis=0) * scale if kept.size else np.zeros(d)
            else:
                rep = self.P[pi]
            ctx = batch.pair_contexts[cum[i]:cum[i + 1]]
            n = len(ctx)
            # one gradient call covers both parts: row 0 is (rep -> observed
            # word), rows 1.. are (observed word -> context)
            negs = _draw_negatives(rng, self.cdf, (n + 1) * k)
            rows = np.concatenate(([wt], ctx, negs))
            gathered = self.C[rows]
            centers = np.vstack((rep[None, :], np.broadcast_to(self.W[wt], (n, d))))
            loss, g_c, g_p, g_n = _ns_batch(
                centers, gathered[:1 + n], gathered[1 + n:].reshape(n + 1, k, d)
            )
            if n:
                self.W[wt] -= lr * g_c[1:].sum(axis=0)
            if corrupted:
                if kept.size:
                    np.add.at(self.W, kept, -lr * scale * g_c[0])
            else:
                self.P[pi] -= lr * g_c[0]
            np.add.at(self.C, rows, -lr * np.concatenate((g_p, g_n.reshape(-1, d))))
            total += float(loss.sum())
            n_lossed += 1 + n
        return total, n_lossed

    def run(self) -> None:
        cfg = self.config
        step = self._step_skipgram if cfg.mode == "skipgram" else self._step_hdc
        for _ in range(cfg.epochs):
            total, count = 0.0, 0
            for batch in _iter_batches(self.seqs, cfg.window, cfg.batch_size):
                loss, n = step(batch)
                total += loss
                count += n
            self.epoch_losses.append(total / max(count, 1))
        if not np.isfinite(self.W).all() or not np.isfinite(self.C).all():
            raise FloatingPointError("non-finite values in trained embeddings")

    def finish(self) -> EmbeddingModel:
        cfg = self.config
        if cfg.mode == "skipgram":
            passage_vectors, passage_ids = None, None
        elif cfg.mode == "pv_hdc":
            passage_vectors, passage_ids = self.P, self.passage_ids
        else:
            passage_vectors = np.zeros((len(self.seqs), cfg.dim))
            for i, seq in enumerate(self.seqs):
                if len(seq):
                    passage_vectors[i] = self.W[seq].mean(axis=0)
            passage_ids = self.passage_ids
        if passage_vectors is not None and not np.isfinite(passage_vectors).all():
            raise FloatingPointError("non-finite values in trained passage vectors")
        metadata = asdict(cfg)
        metadata["epoch_losses"] = list(self.epoch_losses)
        metadata["vocab_min_freq"] = MIN_VOCAB_FREQ
        return EmbeddingModel(
            vocab=self.vocab,
            word_vectors=self.W,
            context_vectors=self.C,
            dim=cfg.dim,
            passage_vectors=passage_vectors,
            passage_ids=passage_ids,
            metadata=metadata,
        )


def train_skipgram(collection: PassageCollection, config: TrainConfig) -> EmbeddingModel:
    if config.mode != "skipgram":
        raise ValueError("train_skipgram requires mode='skipgram'")
    trainer = _Trainer(collection, config)
    trainer.run()
    return trainer.finish()


def train_pv_hdc(collection: PassageCollection, config: TrainConfig) -> EmbeddingModel:
    if config.mode not in ("pv_hdc", "pv_hdc_corrupted"):
        raise ValueError("train_pv_hdc requires mode 'pv_hdc' or 'pv_hdc_corrupted'")
    trainer = _Trainer(collection, config)
    trainer.run()
    return trainer.finish()


def passage_vector(passage: Passage, model: EmbeddingModel, mode: str, index: Index) -> np.ndarray:
    """One of the four passage representations.

    avg_w2v / idf_w2v aggregate word vectors on the fly and raise
    UnrepresentablePassage when no token is in the vocabulary; pv / pvc
    return the stored row from training.
    """
    if mode not in REPRESENTATION_MODES:
        raise ValueError(f"unknown representation mode {mode!r}")
    if mode in ("pv", "pvc"):
        return model.passage_row(passage.passage_id)
    rows = [model.vocab[t] for t in passage.tokens if t in model.vocab]
    if not rows:
        raise UnrepresentablePassage(f"passage {passage.passage_id!r} has no in-vocabulary tokens")
    vectors = model.word_vectors[rows]
    if mode == "avg_w2v":
        return vectors.mean(axis=0)
    weights = np.array([idf(index, t) for t in passage.tokens if t in model.vocab])
    total = weights.sum()
    if total == 0.0:
        logger.debug("all idf weights zero for %r; using zero vector", passage.passage_id)
        return np.zeros(model.dim)
    return (weights[:, None] * vectors).sum(axis=0) / total


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """u.v / (|u||v|); 0.0 when either norm is zero."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(np.dot(u, v) / (nu * nv))


def _write_block(fh, payload: bytes) -> None:
    fh.write(struct.pack("<Q", len(payload)))
    fh.write(payload)


def _read_exact(fh, n: int) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise ValueError(f"{fh.name}: truncated model file")
    return data


def _read_block(fh) -> bytes:
    (n,) = struct.unpack("<Q", _read_exact(fh, 8))
    return _read_exact(fh, n)


def save_model(model: EmbeddingModel, path) -> None:
    """Versioned binary snapshot: header, vocabulary, row-major float64 vectors."""
    n_passages = 0 if model.passage_vectors is None else len(model.passage_vectors)
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<IIQQ", MODEL_VERSION, model.dim, len(model.vocab), n_passages))
        _write_block(fh, str(model.metadata.get("mode", "")).encode("utf-8"))
        _write_block(fh, json.dumps(model.metadata, sort_keys=True).encode("utf-8"))
        _write_block(fh, "\n".join(model.terms).encode("utf-8"))
        _write_block(fh, model.word_vectors.astype("<f8").tobytes())
        _write_block(fh, model.context_vectors.astype("<f8").tobytes())
        if n_passages:
            _write_block(fh, "\n".join(model.passage_ids).encode("utf-8"))
            _write_block(fh, model.passage_vectors.astype("<f8").tobytes())


def load_model(path) -> EmbeddingModel:
    with open(path, "rb") as fh:
        magic = fh.read(len(MODEL_MAGIC))
        if magic != MODEL_MAGIC:
            raise ValueError(f"{path}: not an embedding model file")
        version, dim, n_vocab, n_passages = struct.unpack("<IIQQ", _read_exact(fh, 4 + 4 + 8 + 8))
        if version != MODEL_VERSION:
            raise ValueError(f"{path}: unsupported model version {version}")
        _read_block(fh)  # mode string; also present in metadata
        metadata = json.loads(_read_block(fh).decode("utf-8"))
        terms = _read_block(fh).decode("utf-8").split("\n")
        if len(terms) != n_vocab:
            raise ValueError(f"{path}: vocabulary size mismatch")
        word = np.frombuffer(_read_block(fh), dtype="<f8").reshape(n_vocab, dim).copy()
        ctx = np.frombuffer(_read_block(fh), dtype="<f8").reshape(n_vocab, dim).copy()
        passage_ids = None
        passage_vectors = None
        if n_passages:
            passage_ids = tuple(_read_block(fh).decode("utf-8").split("\n"))
            passage_vectors = np.frombuffer(_read_block(fh), dtype="<f8").reshape(n_passages, dim).copy()
        if fh.read(1):
            raise ValueError(f"{path}: trailing bytes after the model data")
    return EmbeddingModel(
        vocab={t: i for i, t in enumerate(terms)},
        word_vectors=word,
        context_vectors=ctx,
        dim=dim,
        passage_vectors=passage_vectors,
        passage_ids=passage_ids,
        metadata=metadata,
    )
