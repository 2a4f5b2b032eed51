"""Word and passage embeddings trained with negative sampling.

Three trainers share one loss core:
  skipgram            within-window word pairs
  pv_hdc              a per-passage vector predicts each observed word,
                      then the word predicts its context words
  pv_hdc_corrupted    same, but the passage-side representation is an
                      unbiased-dropout average of the passage's word
                      embeddings, resampled every optimizer step; the
                      stored passage vector is the plain mean

Updates are per target position, word2vec style: a position's gradients
are all taken at one parameter point and applied before the next position
is scored, which keeps high-frequency rows stable at the default learning
rate (applying a whole batch's summed gradients at once diverged at lr
0.05). The corpus is laid out once per run, as flat arrays over its
in-vocabulary positions (passage, word, context words); a work unit is a
slice of the next batch_size positions, which may span passages. A unit's
random draws, rows and learning rates are laid out once per unit, and each
position then runs one row kernel, _ns_rows (in corrupted mode after
_corrupted_rep has drawn its passage representation). Training is
single-threaded and, for a fixed seed, bit-for-bit reproducible. The
vocabulary and its frequencies come from build_index.

Model files are version-tagged little-endian snapshots; a truncated file,
one with trailing bytes, or one whose passage ids are not one distinct id
per row is rejected with ValueError (and not written). ``load_model``
interns terms and ids. ``passage_vector`` defines each passage
representation; ``EmbeddingModel.vectors_at`` reads any mode's rows, per index.
"""

from __future__ import annotations

import json
import logging
import struct
import sys
from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from .corpus import Passage, PassageCollection
from .index import Index, build_index, idf, memo

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
        self._memo: dict = {}

    def cached(self, key, build):
        """build()'s value, computed once per key and kept on the model;
        callers must not modify it."""
        return memo(self._memo, key, build)

    def unit_word_vectors(self) -> np.ndarray:
        """Row-normalized word vectors (zero rows stay zero); cached."""
        return self.cached("unit", self._build_unit_words)

    def _build_unit_words(self) -> np.ndarray:
        norms = np.linalg.norm(self.word_vectors, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        return self.word_vectors / norms

    def vectors_at(self, mode: str, collection: PassageCollection, index: Index,
                   positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The mode's vectors of these index positions and their norms. pv/pvc
        read the trained rows (``_trained_at``); avg_w2v/idf_w2v one n x dim matrix
        per (mode, index) in the memo, built on first use from ``passage_vector``."""
        if mode in ("pv", "pvc"):
            return self._trained_at(index, positions)
        vectors, norms = self.cached((mode, index), lambda: self._aggregated(mode, collection, index))
        return vectors[positions], norms[positions]

    def _aggregated(self, mode: str, collection: PassageCollection, index: Index) -> tuple[np.ndarray, np.ndarray]:
        """Each position's passage_vector (a zero row, logged once, if unrepresentable) and norm."""
        ids = index.ids
        vectors = np.zeros((len(ids), self.dim))
        for i, pid in enumerate(ids):
            try:
                vectors[i] = passage_vector(collection[pid], self, mode, index)
            except UnrepresentablePassage:
                logger.warning("passage %r not representable in mode %s; using zero vector", pid, mode)
        norms = np.zeros(len(ids))
        for lo in range(0, len(ids), 4096):  # in blocks: no temporary as large as the vectors
            norms[lo:lo + 4096] = np.linalg.norm(vectors[lo:lo + 4096], axis=1)
        vectors.setflags(write=False)
        norms.setflags(write=False)
        return vectors, norms

    def _trained_at(self, index: Index, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The trained vectors of these index positions and their norms, read
        through the row map for the index, kept in the memo. A passage without
        one has norm 0, so only then is it looked for, and it raises ValueError."""
        if self.passage_vectors is None:
            raise ValueError("model has no trained passage vectors")
        rows, norms = self.cached(("pv", index), lambda: self._row_map(index))
        rows, norms = rows[positions], norms[positions]
        if not norms.all():
            missing = np.flatnonzero(rows < 0)
            if len(missing):
                raise ValueError(f"passage {index.ids[positions[missing[0]]]!r} was not in the training corpus")
        return self.passage_vectors[rows], norms

    def _row_map(self, index: Index) -> tuple[np.ndarray, np.ndarray]:
        """Per index position, its passage's row in passage_vectors (-1 if not
        trained) and that row's norm (0 if not), from the index's id map."""
        positions = np.array([index.id_to_pos.get(pid, -1) for pid in self.passage_ids], dtype=np.int64)
        trained = np.flatnonzero(positions >= 0)
        rows = np.full(index.passage_count, -1, dtype=np.int64)
        rows[positions[trained]] = trained
        norms = np.zeros(index.passage_count)
        for lo in range(0, len(trained), 4096):  # in blocks: no temporary as large as the vectors
            block = trained[lo:lo + 4096]
            norms[positions[block]] = np.linalg.norm(self.passage_vectors[block], axis=1)
        rows.setflags(write=False)
        norms.setflags(write=False)
        return rows, norms


def _ns_rows(G: np.ndarray, y: np.ndarray, head: int, rep, w: np.ndarray, scale: float, s: np.ndarray):
    """Negative-sampling gradients of one target position over its rows G.

    Rows [0, head) are scored against rep, the others against w; y is 1.0
    on positive rows and 0.0 on negatives. The loss is sum_r ln(1 + e^z_r)
    with z_r = -s_r on positive rows and s_r on negatives, s_r being the
    row's score, which is written into s. Returns the gradients with respect
    to rep, w and each row of G, all multiplied by scale.
    """
    if head:
        np.dot(G[:head], rep, out=s[:head])
    np.dot(G[head:], w, out=s[head:])
    # sigmoid(s) - y; clipping at +-60, where sigmoid has long saturated, keeps exp in range
    coef = 1.0 / (1.0 + np.exp(-np.minimum(np.maximum(s, -60.0), 60.0)))
    coef -= y
    coef *= scale
    # row gradients: outer products, as k=1 matrix products (BLAS; ~2x np.outer's speed)
    g_rows = np.empty_like(G)
    g_rep = None
    if head:
        g_rep = coef[:head] @ G[:head]
        np.dot(coef[:head, None], rep[None, :], out=g_rows[:head])
    g_w = coef[head:] @ G[head:]
    np.dot(coef[head:, None], w[None, :], out=g_rows[head:])
    return g_rep, g_w, g_rows


def _ns_loss(s: np.ndarray, y: np.ndarray) -> float:
    """Summed loss of the rows whose scores are s and labels y (see _ns_rows)."""
    return float(np.logaddexp(0.0, np.where(y > 0.0, -s, s)).sum())


def _corrupted_rep(W: np.ndarray, words: np.ndarray, draws: np.ndarray, q: float):
    """The corrupted passage representation of one optimizer step: each of
    the passage's words is kept where its draw is below 1 - q, and the kept
    rows of W are summed and scaled by 1 / ((1 - q) * len(words)), so that
    its expectation is the plain mean of the words' rows (Chen, ICLR 2017).

    Returns (rep, kept, scale): the gradient with respect to rep, times
    scale, falls on each kept row of W (twice on a word kept twice).
    """
    kept = words[draws < (1.0 - q)]
    scale = 1.0 / ((1.0 - q) * len(words))
    return W.take(kept, axis=0).sum(axis=0) * scale, kept, scale


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
    cdf = np.cumsum(p / p.sum())
    cdf[-1] = 1.0  # a sum rounded below 1 would send a draw above it past the last row
    return cdf


def _negative_buckets(cdf: np.ndarray) -> np.ndarray:
    """The row of every draw in each of 2^16 equal buckets over [0, 1): the
    count of cdf entries at or below the bucket's lower edge, or -1 where a
    cdf entry lies above that edge and at or below the upper one, so that
    the row depends on the draw. Edges and bucket numbers are exact in
    float64, because the bucket count is a power of two."""
    n = 1 << 16
    edges = np.searchsorted(cdf, np.arange(n + 1) / n, side="right")
    return np.where(edges[1:] == edges[:-1], edges[:-1], -1).astype(np.int32)


def _negative_rows(cdf: np.ndarray, buckets: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """searchsorted(cdf, draws, side="right"), one table lookup per draw but
    for draws in a bucket that holds a cdf entry."""
    rows = buckets[(draws * len(buckets)).astype(np.int64)]
    mixed = np.flatnonzero(rows < 0)
    if len(mixed):
        rows[mixed] = np.searchsorted(cdf, draws[mixed], side="right")
    return rows


def _layout(seqs: Sequence[np.ndarray], window: int):
    """Every in-vocabulary position of the corpus, passage by passage.

    Returns flat int64 arrays (pos_passage, pos_target, pair_counts,
    pair_contexts, pair_ptr): each position's passage index, word and
    number of context pairs; the context words, position by position, in
    the order left 1, right 1, left 2, right 2, ... within the window and
    the passage; and pair_ptr, the cumulative pair counts from 0, so that
    position t's contexts are pair_contexts[pair_ptr[t]:pair_ptr[t + 1]].
    A work unit is a [lo, hi) slice of the positions.
    """
    lens = np.array([len(s) for s in seqs], dtype=np.int64)
    pos_passage = np.repeat(np.arange(len(seqs), dtype=np.int64), lens)
    pos_target = np.concatenate(seqs).astype(np.int64, copy=False)
    offsets = np.arange(1, window + 1)
    steps = np.column_stack((-offsets, offsets)).ravel()
    first = (np.cumsum(lens) - lens)[pos_passage]  # the passage's first position
    near = (np.arange(len(pos_target)) - first)[:, None] + steps  # context positions in the passage
    valid = (near >= 0) & (near < lens[pos_passage][:, None])
    near += first[:, None]
    pair_counts = valid.sum(axis=1, dtype=np.int64)
    pair_ptr = np.concatenate(([0], np.cumsum(pair_counts)))
    return pos_passage, pos_target, pair_counts, pos_target[near[valid]], pair_ptr


class _Trainer:
    def __init__(self, collection: PassageCollection, config: TrainConfig):
        self.config = config
        self.vocab, self.freqs = _build_vocab(collection)
        self.seqs = _encode(collection, self.vocab)
        self.seq_lens = np.array([len(s) for s in self.seqs], dtype=np.int64)
        self.passage_ids = collection.ids
        (self.pos_passage, self.pos_target, self.pair_counts,
         self.pair_contexts, self.pair_ptr) = _layout(self.seqs, config.window)
        self.cdf = _negative_cdf(self.freqs)
        self.negative_buckets = _negative_buckets(self.cdf)
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
        self.total_positions = max(1, int(self.seq_lens.sum()) * config.epochs)
        self.positions_done = 0

    def _step(self, lo: int, hi: int) -> tuple[float, int]:
        """One work unit, positions [lo, hi) of the layout, updated position
        by position.

        A position's rows into C are, in pv modes, the observed word and k
        negatives, scored against the passage representation, then its n
        context words and n * k negatives, scored against the observed
        word's vector; y marks the positive rows. All of a position's
        gradients are computed at the same parameter point and applied
        together. In corrupted mode the representation is resampled
        every position and its gradient falls on the kept word rows.
        What does not depend on the parameters (random draws, rows, labels,
        learning rates) is laid out for the whole unit first."""
        cfg = self.config
        d, k, q = cfg.dim, cfg.negatives, cfg.corruption_q
        corrupted = cfg.mode == "pv_hdc_corrupted"
        head = 0 if cfg.mode == "skipgram" else 1  # passage-side pairs per position
        head_rows = head * (1 + k)
        pos_passage, pos_target = self.pos_passage[lo:hi], self.pos_target[lo:hi]
        counts = self.pair_counts[lo:hi]
        n_pos = hi - lo
        pairs = counts + head
        ends = np.cumsum(pairs * (1 + k))
        starts = ends - pairs * (1 + k)

        # the random stream, position by position: the corruption mask over
        # the passage's words (corrupted mode), then k negatives per pair
        if corrupted:
            lens = self.seq_lens[pos_passage]
            is_neg = np.repeat(np.tile([False, True], n_pos), np.column_stack((lens, pairs * k)).ravel())
            draws = self.rng.random(len(is_neg))
            mask_draws = draws[~is_neg]
            mask_bounds = np.concatenate(([0], np.cumsum(lens))).tolist()
            draws = draws[is_neg]
        else:
            draws = self.rng.random(int(pairs.sum()) * k)

        rows = np.empty(int(ends[-1]), dtype=np.int64)
        y = np.zeros(len(rows))
        ctx_slots = np.repeat(starts + head_rows - (np.cumsum(counts) - counts), counts)
        ctx_slots += np.arange(len(ctx_slots))
        rows[ctx_slots] = self.pair_contexts[self.pair_ptr[lo]:self.pair_ptr[hi]]
        y[ctx_slots] = 1.0
        if head:
            rows[starts] = pos_target
            y[starts] = 1.0
        rows[y == 0.0] = _negative_rows(self.cdf, self.negative_buckets, draws)
        row_starts = rows * d  # each row's first element in C.reshape(-1)
        cols = np.arange(d)
        done = self.positions_done
        lrs = cfg.learning_rate * np.maximum(1e-4, 1.0 - np.arange(done, done + n_pos) / self.total_positions)
        self.positions_done = done + n_pos

        W, C, P = self.W, self.C, self.P
        C_flat = C.reshape(-1)
        scores = np.empty(len(rows))
        for i, (a, b, wt, pi, neg_lr) in enumerate(zip(
            starts.tolist(), ends.tolist(), pos_target.tolist(), pos_passage.tolist(),
            (-lrs).tolist(),
        )):
            if a == b:
                continue
            G = C.take(rows[a:b], axis=0)
            w = W[wt]
            rep = None
            if corrupted:
                rep, kept, rep_scale = _corrupted_rep(
                    W, self.seqs[pi], mask_draws[mask_bounds[i]:mask_bounds[i + 1]], q)
            elif head:
                rep = P[pi]
            # row gradients first: w and rep are views of W and P
            g_rep, g_w, g_rows = _ns_rows(G, y[a:b], head_rows, rep, w, neg_lr, scores[a:b])
            if b - a > head_rows:
                w += g_w
            if corrupted:
                np.add.at(W, kept, rep_scale * g_rep)
            elif head:
                rep += g_rep
            # flat indices: the same element order as 2-D rows, several times faster
            np.add.at(C_flat, (row_starts[a:b, None] + cols).ravel(), g_rows.ravel())
        return _ns_loss(scores, y), int(pairs.sum())

    def run(self) -> None:
        cfg = self.config
        n_positions = len(self.pos_target)
        for _ in range(cfg.epochs):
            total, count = 0.0, 0
            for lo in range(0, n_positions, cfg.batch_size):
                loss, n = self._step(lo, min(lo + cfg.batch_size, n_positions))
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
        return model._trained_at(index, np.array([index.position(passage.passage_id)]))[0][0]
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


def _read_exact(fh, n: int) -> bytearray:
    """The next n bytes, read straight into a mutable buffer: the vectors
    loaded from a block are writable views of it, not copies."""
    data = bytearray(n)
    if fh.readinto(data) != n:
        raise ValueError(f"{fh.name}: truncated model file")
    return data


def _read_block(fh) -> bytearray:
    (n,) = struct.unpack("<Q", _read_exact(fh, 8))
    return _read_exact(fh, n)


def _names(path, block: str, count: int, what: str) -> tuple[str, ...]:
    """The interned lines of a name block; ValueError unless count distinct, one per row."""
    names = tuple(map(sys.intern, block.split("\n")))
    if len(set(names)) != count or len(names) != count:
        raise ValueError(f"{path}: {what} mismatch: {len(names)} names ({len(set(names))} distinct) for {count} rows")
    return names


def save_model(model: EmbeddingModel, path) -> None:
    """Versioned binary snapshot: header, vocabulary, row-major float64 vectors."""
    n_passages = 0 if model.passage_vectors is None else len(model.passage_vectors)
    if n_passages and _names(path, "\n".join(model.passage_ids), n_passages, "passage id") != tuple(model.passage_ids):
        raise ValueError(f"{path}: a passage id holds a line break")
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
        terms = _names(path, _read_block(fh).decode("utf-8"), n_vocab, "vocabulary size")
        word = np.frombuffer(_read_block(fh), dtype="<f8").reshape(n_vocab, dim)
        ctx = np.frombuffer(_read_block(fh), dtype="<f8").reshape(n_vocab, dim)
        passage_ids = None
        passage_vectors = None
        if n_passages:
            passage_ids = _names(path, _read_block(fh).decode("utf-8"), n_passages, "passage id")
            passage_vectors = np.frombuffer(_read_block(fh), dtype="<f8").reshape(n_passages, dim)
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
