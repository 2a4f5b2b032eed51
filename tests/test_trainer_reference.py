"""The trainer against a reference implementation of the same SGD.

The reference steps each target position with broadcast centers and
einsums, drawing its corruption mask and negatives one position at a time.
The package's trainer lays those draws out once per work unit and runs a
shared row kernel per position, so the two agree up to float summation
order and must leave the random generator in the same state.

Both read their work units from the trainer's corpus layout, built once
per run; the layout itself is checked against a reference that pairs and
packs each passage's positions one passage at a time.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irflab.embeddings import TrainConfig, _layout, _Trainer

from conftest import make_collection, random_token_lists


def _passage_pairs(seq, window):
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


def _iter_batches(seqs, window, batch_positions):
    """Pack target positions into work units of batch_positions, never
    splitting a position's pairs across units. Yields (passage index,
    target word, context words, pair counts) per unit."""
    buf = []
    buffered = 0

    def flush():
        nonlocal buf, buffered
        unit = tuple(np.concatenate([b[j] for b in buf]) for j in range(4))
        buf = []
        buffered = 0
        return unit

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


def _layout_units(layout, batch_size):
    """The layout's work units: [lo, hi) slices of batch_size positions."""
    pos_passage, pos_target, pair_counts, pair_contexts, pair_ptr = layout
    n = len(pos_target)
    assert len(pos_passage) == len(pair_counts) == n and len(pair_ptr) == n + 1
    assert pair_ptr.dtype == np.int64 and pair_ptr[0] == 0 and pair_ptr[-1] == len(pair_contexts)
    for lo in range(0, n, batch_size):
        hi = min(lo + batch_size, n)
        yield (pos_passage[lo:hi], pos_target[lo:hi],
               pair_contexts[pair_ptr[lo]:pair_ptr[hi]], pair_counts[lo:hi])


def _assert_units_equal(layout, seqs, window, batch_size):
    got = list(_layout_units(layout, batch_size))
    want = list(_iter_batches(seqs, window, batch_size))
    assert len(got) == len(want)
    for g_unit, w_unit in zip(got, want):
        for g, w in zip(g_unit, w_unit):
            assert g.dtype == w.dtype == np.int64
            np.testing.assert_array_equal(g, w)


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))


def _ns_batch(centers, positives, negatives):
    """Loss and gradients of -ln s(c.p) - sum_k ln s(-c.n_k), batched:
    centers/positives (B, d), negatives (B, K, d)."""
    s_pos = np.einsum("bd,bd->b", centers, positives)
    s_neg = np.einsum("bd,bkd->bk", centers, negatives)
    loss = np.logaddexp(0.0, -s_pos) + np.logaddexp(0.0, s_neg).sum(axis=1)
    a = _sigmoid(s_pos) - 1.0
    b = _sigmoid(s_neg)
    g_center = a[:, None] * positives + np.einsum("bk,bkd->bd", b, negatives)
    g_pos = a[:, None] * centers
    g_negs = b[:, :, None] * centers[:, None, :]
    return loss, g_center, g_pos, g_negs


class ReferenceTrainer(_Trainer):
    """Per-position SGD, every draw and gradient made inside the position."""

    def _next_lr(self) -> float:
        lr = self.config.learning_rate * max(1e-4, 1.0 - self.positions_done / self.total_positions)
        self.positions_done += 1
        return lr

    def _draw_negatives(self, shape) -> np.ndarray:
        return np.searchsorted(self.cdf, self.rng.random(shape), side="right").astype(np.int64)

    def _step(self, lo, hi):
        if self.config.mode == "skipgram":
            return self._step_skipgram(lo, hi)
        return self._step_hdc(lo, hi)

    def _step_skipgram(self, lo, hi):
        cfg = self.config
        d = cfg.dim
        cum = self.pair_ptr
        total = 0.0
        for i in range(lo, hi):
            wt = self.pos_target[i]
            lr = self._next_lr()
            ctx = self.pair_contexts[cum[i]:cum[i + 1]]
            n = len(ctx)
            if n == 0:
                continue
            negs = self._draw_negatives(n * cfg.negatives)
            rows = np.concatenate((ctx, negs))
            gathered = self.C[rows]
            centers = np.broadcast_to(self.W[wt], (n, d))
            loss, g_c, g_p, g_n = _ns_batch(centers, gathered[:n], gathered[n:].reshape(n, cfg.negatives, d))
            self.W[wt] -= lr * g_c.sum(axis=0)
            np.add.at(self.C, rows, -lr * np.concatenate((g_p, g_n.reshape(-1, d))))
            total += float(loss.sum())
        return total, int(cum[hi] - cum[lo])

    def _step_hdc(self, lo, hi):
        cfg = self.config
        d, k, q = cfg.dim, cfg.negatives, cfg.corruption_q
        corrupted = cfg.mode == "pv_hdc_corrupted"
        cum = self.pair_ptr
        total = 0.0
        n_lossed = 0
        for i in range(lo, hi):
            wt = self.pos_target[i]
            lr = self._next_lr()
            pi = self.pos_passage[i]
            seq = self.seqs[pi]
            if corrupted:
                mask = self.rng.random(len(seq)) < (1.0 - q)
                kept = seq[mask]
                scale = 1.0 / ((1.0 - q) * len(seq))
                rep = self.W[kept].sum(axis=0) * scale if kept.size else np.zeros(d)
            else:
                rep = self.P[pi]
            ctx = self.pair_contexts[cum[i]:cum[i + 1]]
            n = len(ctx)
            # row 0 is (rep -> observed word), rows 1.. are (observed word -> context)
            negs = self._draw_negatives((n + 1) * k)
            rows = np.concatenate(([wt], ctx, negs))
            gathered = self.C[rows]
            centers = np.vstack((rep[None, :], np.broadcast_to(self.W[wt], (n, d))))
            loss, g_c, g_p, g_n = _ns_batch(centers, gathered[:1 + n], gathered[1 + n:].reshape(n + 1, k, d))
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


# (mode, batch_size, window, corruption_q, collection seed); batch sizes
# 1 and 7 split passages across work units, 512 holds a whole epoch
CASES = [
    ("skipgram", 1, 1, 0.9, 1),
    ("skipgram", 7, 2, 0.9, 2),
    ("skipgram", 512, 3, 0.9, 3),
    ("pv_hdc", 1, 2, 0.9, 4),
    ("pv_hdc", 7, 3, 0.9, 5),
    ("pv_hdc", 512, 1, 0.9, 6),
    ("pv_hdc_corrupted", 1, 3, 0.0, 7),
    ("pv_hdc_corrupted", 7, 1, 0.5, 8),
    ("pv_hdc_corrupted", 512, 2, 0.9, 9),
    ("pv_hdc_corrupted", 3, 2, 0.0, 10),
    ("pv_hdc_corrupted", 5, 3, 0.5, 11),
    ("pv_hdc_corrupted", 7, 1, 0.9, 12),
]


def _collection(seed):
    rng = np.random.default_rng(seed)
    lists = random_token_lists(rng, 14, 6, min_len=1, max_len=9)
    # one-token passages have no context pairs; an out-of-vocabulary
    # passage has no positions at all
    lists += [["t0"], ["rare"], ["t1", "rare", "t2"]]
    return make_collection(lists)


def _train(cls, coll, cfg):
    trainer = cls(coll, cfg)
    trainer.run()
    return trainer, trainer.finish()


@pytest.mark.parametrize("mode,batch_size,window,q,seed", CASES)
def test_trainer_matches_reference_sgd(mode, batch_size, window, q, seed):
    coll = _collection(seed)
    cfg = TrainConfig(dim=5, negatives=3, batch_size=batch_size, window=window, epochs=2,
                      seed=seed, corruption_q=q, mode=mode, learning_rate=0.2)
    ref, ref_model = _train(ReferenceTrainer, coll, cfg)
    got, model = _train(_Trainer, coll, cfg)
    assert got.rng.bit_generator.state == ref.rng.bit_generator.state
    assert got.positions_done == ref.positions_done == got.total_positions
    np.testing.assert_allclose(model.word_vectors, ref_model.word_vectors, rtol=0, atol=1e-9)
    np.testing.assert_allclose(model.context_vectors, ref_model.context_vectors, rtol=0, atol=1e-9)
    if mode == "skipgram":
        assert model.passage_vectors is None
    else:
        np.testing.assert_allclose(model.passage_vectors, ref_model.passage_vectors, rtol=0, atol=1e-9)
    np.testing.assert_allclose(model.metadata["epoch_losses"], ref_model.metadata["epoch_losses"],
                               rtol=1e-12, atol=0)
    # the run moved the vectors: a trainer that skipped its updates would
    # fail here rather than agree with a reference that also skipped them
    assert np.abs(model.context_vectors).max() > 1e-3


@pytest.mark.parametrize("mode,batch_size,window,q,seed", CASES)
def test_layout_slices_equal_reference_units(mode, batch_size, window, q, seed):
    cfg = TrainConfig(dim=5, negatives=3, batch_size=batch_size, window=window, epochs=2,
                      seed=seed, corruption_q=q, mode=mode)
    t = _Trainer(_collection(seed), cfg)
    layout = (t.pos_passage, t.pos_target, t.pair_counts, t.pair_contexts, t.pair_ptr)
    _assert_units_equal(layout, t.seqs, window, batch_size)


token_seqs = st.lists(
    st.lists(st.integers(0, 6), max_size=15).map(lambda ids: np.array(ids, dtype=np.int64)),
    min_size=1, max_size=8,
)


@settings(max_examples=300, deadline=None)
@given(token_seqs, st.integers(1, 6), st.integers(1, 60))
def test_layout_slices_equal_reference_units_on_random_sequences(seqs, window, batch_size):
    _assert_units_equal(_layout(seqs, window), seqs, window, batch_size)
