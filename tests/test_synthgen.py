"""Planted-topic generator: determinism, signal strength, file outputs."""

import numpy as np
import pytest

from irflab.corpus import ingest_corpus, load_qrels, load_queries
from irflab.feedback import query_mle
from irflab.index import build_index
from irflab.retrieval import RetrievalParams, rank_ql
from irflab.synthgen import GeneratorConfig, generate, write_dataset

SMALL = GeneratorConfig(num_queries=10, passages_per_query_relevant=5,
                        num_noise_passages=60, vocab_size=120, seed=7)


class TestGenerate:
    def test_counts(self):
        coll, queries, qrels = generate(SMALL)
        assert len(coll) == 10 * 5 + 60
        assert len(queries) == 10
        total_qrels = sum(len(v) for v in qrels.data.values())
        assert total_qrels == 10 * 5

    def test_same_seed_is_byte_identical(self, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        write_dataset(a_dir, *generate(SMALL))
        write_dataset(b_dir, *generate(SMALL))
        for name in ("corpus.jsonl", "queries.tsv", "qrels.txt"):
            assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()

    def test_different_seed_differs(self):
        coll_a, _, _ = generate(SMALL)
        coll_b, _, _ = generate(GeneratorConfig(**{**SMALL.__dict__, "seed": 8}))
        assert [p.tokens for p in coll_a] != [p.tokens for p in coll_b]

    def test_relevant_passages_carry_elevated_topic_rate(self):
        coll, queries, qrels = generate(SMALL)
        slice_size = SMALL.vocab_size // SMALL.num_queries
        for qi, query in enumerate(queries):
            topic_terms = {f"w{i:04d}" for i in range(qi * slice_size, (qi + 1) * slice_size)}
            rel_tokens = [t for pid in qrels.relevant_ids(query.query_id) for t in coll[pid].tokens]
            noise_tokens = [t for p in coll if p.passage_id.startswith("pn") for t in p.tokens]
            rel_rate = sum(t in topic_terms for t in rel_tokens) / len(rel_tokens)
            noise_rate = sum(t in topic_terms for t in noise_tokens) / len(noise_tokens)
            assert rel_rate > noise_rate * 2

    def test_query_tokens_come_from_topic_head(self):
        coll, queries, qrels = generate(SMALL)
        slice_size = SMALL.vocab_size // SMALL.num_queries
        for qi, query in enumerate(queries):
            head = {f"w{i:04d}" for i in range(qi * slice_size, qi * slice_size + 5)}
            assert set(query.tokens) <= head

    def test_vocab_too_small_rejected(self):
        with pytest.raises(ValueError, match="too small"):
            generate(GeneratorConfig(num_queries=50, vocab_size=100))

    def test_planted_relevant_outscore_noise_under_ql(self):
        coll, queries, qrels = generate(SMALL)
        idx = build_index(coll)
        params = RetrievalParams(mu=300.0)
        for query in queries[:4]:
            ranked = rank_ql(query_mle(query), idx, params, depth=len(coll), query_id=query.query_id)
            scores = dict(ranked.entries)
            rel = [scores[p] for p in qrels.relevant_ids(query.query_id)]
            noise = [s for p, s in scores.items() if p.startswith("pn")]
            assert np.mean(rel) > np.mean(noise)

    def test_write_dataset_round_trips(self, tmp_path, plain_config):
        coll, queries, qrels = generate(SMALL)
        paths = write_dataset(tmp_path, coll, queries, qrels)
        cfg = plain_config
        coll2 = ingest_corpus(paths["corpus"], cfg)
        assert coll2.ids == coll.ids
        assert [p.tokens for p in coll2] == [p.tokens for p in coll]
        queries2 = load_queries(paths["queries"], cfg)
        assert [q.tokens for q in queries2] == [q.tokens for q in queries]
        assert load_qrels(paths["qrels"]).data == qrels.data

    def test_default_config_matches_acceptance_corpus(self):
        cfg = GeneratorConfig()
        assert cfg.num_queries == 50
        assert cfg.num_noise_passages + cfg.num_queries * cfg.passages_per_query_relevant == 2000
        assert cfg.vocab_size == 500
        assert cfg.topic_concentration == 0.6
