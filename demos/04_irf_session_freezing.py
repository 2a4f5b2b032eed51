"""Walk one simulated feedback session and inspect the freezing ranking.

Judgments come from the planted qrels; two results are shown per iteration
for five iterations (the 2x5 setting), and the final list freezes each
shown block at its presentation ranks before the re-ranked tail. Each step
of the session's trace holds the judged passages and the query model
re-estimated from them.
"""

from irflab import (
    EngineContext,
    FeedbackParams,
    GeneratorConfig,
    RetrievalParams,
    SessionConfig,
    evaluate_ranking,
    freeze_ranking,
    generate,
)
from irflab.index import build_index
from irflab.simulation import run_irf_session

coll, queries, qrels = generate(GeneratorConfig(
    num_queries=10, passages_per_query_relevant=8, num_noise_passages=120,
    vocab_size=150, seed=11))
ctx = EngineContext(
    collection=coll,
    index=build_index(coll),
    retrieval=RetrievalParams(mu=300.0),
    feedback=FeedbackParams(m=10, alpha_interp=0.5),
)

query = queries[0]
result = run_irf_session(query, qrels, SessionConfig(per_iter=2, iterations=5, rf_method="rm3"), ctx)

print(f"query {query.query_id}: {query.text!r}")
for iteration, step in enumerate(result.trace):
    shown = [pid for pid, _ in step.judged]
    marks = ["+" if rel else "-" for _, rel in step.judged]
    heaviest = max(step.weights, key=step.weights.get)
    print(f"  iteration {iteration}: shown {shown} judged {marks}, heaviest term {heaviest!r}")

frozen = result.frozen
prefix = [pid for block in frozen.shown_blocks[:-1] for pid in block]
print(f"\nfrozen prefix ({len(prefix)} results): {prefix}")
print(f"tail starts with: {frozen.tail.ids()[:5]}")

full = freeze_ranking(frozen)
relevant = qrels.relevant_ids(query.query_id)
print(f"\nMAP@100 of the freezing list: {evaluate_ranking(full, relevant, 'map100'):.4f}")
print(f"NDCG@20 of the freezing list: {evaluate_ranking(full, relevant, 'ndcg20'):.4f}")
