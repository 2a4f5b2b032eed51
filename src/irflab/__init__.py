"""Iterative relevance feedback for answer passage retrieval.

Core pipeline: tokenize and index a passage collection, run simulated
feedback sessions (RM3 / Distillation / Rocchio / ERM, optionally fused
with passage-embedding similarity), build freezing rankings, and evaluate
with trec_eval-style metrics and randomization tests.
"""

from .corpus import (
    Judgments,
    Passage,
    PassageCollection,
    Query,
    TokenizerConfig,
    ingest_corpus,
    load_qrels,
    load_queries,
    segment_document,
    tokenize,
)
from .embeddings import (
    EmbeddingModel,
    TrainConfig,
    cosine,
    load_model,
    passage_vector,
    save_model,
    train_pv_hdc,
    train_skipgram,
)
from .evaluation import MetricResult, cross_validate_grid, evaluate_ranking, fisher_randomization
from .feedback import (
    ErmParams,
    FeedbackParams,
    FeedbackState,
    estimate_distillation,
    estimate_erm,
    estimate_rm3,
    query_mle,
    rocchio_update,
    update_pools,
)
from .fusion import FusionConfig, fused_rank
from .index import Index, build_index, collection_prob, tfidf_vector
from .retrieval import RankedList, RetrievalParams, rank_bm25, rank_ql, rank_rocchio, read_run, write_run
from .simulation import (
    EngineContext,
    FrozenRanking,
    SessionConfig,
    freeze_ranking,
    run_irf_session,
    run_one_rel_experiment,
)
from .synthgen import GeneratorConfig, generate

__version__ = "0.1.0"

__all__ = [
    "EmbeddingModel", "EngineContext", "ErmParams", "FeedbackParams", "FeedbackState",
    "FrozenRanking", "FusionConfig", "GeneratorConfig", "Index", "Judgments", "MetricResult",
    "Passage", "PassageCollection", "Query", "RankedList", "RetrievalParams", "SessionConfig",
    "TokenizerConfig", "TrainConfig", "build_index", "collection_prob", "cosine",
    "cross_validate_grid", "estimate_distillation", "estimate_erm", "estimate_rm3",
    "evaluate_ranking", "fisher_randomization", "freeze_ranking", "fused_rank", "generate",
    "ingest_corpus", "load_model", "load_qrels", "load_queries", "passage_vector",
    "query_mle", "rank_bm25", "rank_ql", "rank_rocchio", "read_run", "rocchio_update",
    "run_irf_session", "run_one_rel_experiment", "save_model", "segment_document",
    "tfidf_vector", "tokenize", "train_pv_hdc", "train_skipgram", "update_pools", "write_run",
]
