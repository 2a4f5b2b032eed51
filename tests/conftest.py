"""Shared fixtures and the acceptance-report hook."""

import numpy as np
import pytest

from irflab.corpus import Passage, PassageCollection, Query, TokenizerConfig
from irflab.embeddings import UnrepresentablePassage, passage_vector
from irflab.index import build_index
from irflab.retrieval import RankedList

_ACCEPTANCE_RESULTS: list[tuple[str, bool | None, str]] = []


def record_acceptance(name: str, ok: bool | None, detail: str = "") -> None:
    """Record a criterion's result for the summary: PASS, FAIL, or SKIP
    when ok is None (the criterion could not run)."""
    _ACCEPTANCE_RESULTS.append((name, ok, detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name, ok, detail in _ACCEPTANCE_RESULTS:
        status = "SKIP" if ok is None else "PASS" if ok else "FAIL"
        line = f"{status}  {name}"
        if detail:
            line += f"  ({detail})"
        terminalreporter.write_line(line)


def make_collection(token_lists, prefix="p"):
    """Build a collection from lists of tokens; ids are p000, p001, ..."""
    passages = [
        Passage(
            passage_id=f"{prefix}{i:03d}",
            doc_id=f"d{i:03d}",
            text=" ".join(tokens),
            tokens=tuple(tokens),
        )
        for i, tokens in enumerate(token_lists)
    ]
    return PassageCollection(passages)


def shuffled_collection(token_lists, order):
    """Passage i gets id d<order[i]>, so id order differs from position order."""
    return PassageCollection(
        Passage(passage_id=f"d{k:02d}", doc_id=f"d{k:02d}", text=" ".join(tokens), tokens=tuple(tokens))
        for k, tokens in zip(order, token_lists)
    )


def make_query(tokens, qid="q0"):
    return Query(query_id=qid, text=" ".join(tokens), tokens=tuple(tokens))


def ranked_over(index, entries, query_id="q0"):
    """A list over the index with these (passage_id, score) entries, held
    as a ranker holds it: index positions and scores."""
    positions = np.array([index.id_to_pos[pid] for pid, _ in entries], dtype=np.int64)
    scores = np.array([score for _, score in entries], dtype=np.float64)
    return RankedList.at_positions(query_id, index.ids, positions, scores)


def vector_or_zero(passage, model, mode, index):
    """The passage's vector in the mode, by id: pv/pvc read straight from the
    model's passage_ids and passage_vectors (ValueError if the id was not
    trained), avg_w2v/idf_w2v from passage_vector, or a zero vector where the
    passage is unrepresentable."""
    if mode in ("pv", "pvc"):
        if passage.passage_id not in model.passage_ids:
            raise ValueError(f"passage {passage.passage_id!r} was not in the training corpus")
        return model.passage_vectors[model.passage_ids.index(passage.passage_id)]
    try:
        return passage_vector(passage, model, mode, index)
    except UnrepresentablePassage:
        return np.zeros(model.dim)


def oracle_fused_rank(base, state, model, cfg, collection, index):
    """fused_rank recomputed passage by passage, by id: every vector from
    ``vector_or_zero``, the pool's centroid summed in pool order, the
    candidates' norms taken per call, and the candidates sorted by (-fused
    score, passage id). Returns the base list itself for an empty pool, and
    otherwise the list ``ranked_over`` builds from the sorted entries."""
    if not state.relevant_pool:
        return base
    mode = cfg.representation_mode
    centroid = np.zeros(model.dim)
    for pid in state.relevant_pool:
        centroid += vector_or_zero(collection[pid], model, mode, index)
    centroid /= len(state.relevant_pool)
    cnorm = np.linalg.norm(centroid)
    pids = [pid for pid, _ in base.entries]
    vectors = np.zeros((len(pids), model.dim))
    for i, pid in enumerate(pids):
        vectors[i] = vector_or_zero(collection[pid], model, mode, index)
    norms = np.linalg.norm(vectors, axis=1)
    sims = np.zeros(len(pids))
    if cnorm > 0.0:
        ok = norms > 0.0
        sims[ok] = vectors[ok] @ centroid / (norms[ok] * cnorm)
    fused = np.array([score for _, score in base.entries]) + cfg.lambda_sf * sims
    order = sorted(range(len(pids)), key=lambda i: (-fused[i], pids[i]))
    return ranked_over(index, [(pids[i], fused[i]) for i in order], base.query_id)


def ranking_of(ranked):
    """A ranking as comparable data: its query id and (passage id, score)
    entries; RankedList itself compares by identity."""
    return ranked.query_id, ranked.entries


def session_of(result):
    """A session result as comparable data, its tail read as ``ranking_of``."""
    frozen = result.frozen
    return (frozen.query_id, frozen.shown_blocks, ranking_of(frozen.tail), frozen.early_exhausted,
            result.trace)


def shown_of(frozen):
    """The passages a frozen ranking's shown blocks hold."""
    return {pid for block in frozen.shown_blocks for pid in block}


def random_token_lists(rng, n_passages, vocab_size, min_len=3, max_len=12):
    vocab = [f"t{i}" for i in range(vocab_size)]
    return [
        [vocab[int(j)] for j in rng.integers(0, vocab_size, size=int(rng.integers(min_len, max_len + 1)))]
        for _ in range(n_passages)
    ]


@pytest.fixture
def plain_config():
    """No stopping, no stemming: token extraction only."""
    return TokenizerConfig(stopwords=frozenset(), stemming="none")


@pytest.fixture
def tiny_index():
    collection = make_collection([["a", "b"], ["a"]])
    return collection, build_index(collection)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
