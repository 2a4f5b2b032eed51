"""The whole pipeline at desk scale: generate data, train passage vectors,
run word-based and fused feedback across iteration settings, and test
significance of the iterative-versus-batch difference.

Takes a minute or two of CPU; the corpus is trimmed to keep it quick.
"""

from irflab import (
    EngineContext,
    FeedbackParams,
    FusionConfig,
    GeneratorConfig,
    RetrievalParams,
    SessionConfig,
    TrainConfig,
    fisher_randomization,
    generate,
    train_pv_hdc,
)
from irflab.experiments import Engine, score_sessions, sweep
from irflab.index import build_index

coll, queries, qrels = generate(GeneratorConfig(
    num_queries=20, passages_per_query_relevant=10, num_noise_passages=400,
    vocab_size=200, seed=3))
index = build_index(coll)
model = train_pv_hdc(coll, TrainConfig(dim=24, epochs=2, seed=3, mode="pv_hdc_corrupted"))
ctx = EngineContext(
    collection=coll, index=index,
    retrieval=RetrievalParams(mu=300.0),
    feedback=FeedbackParams(m=10, alpha_interp=0.5),
    embeddings=model,
)

# every session of a query runs before the next query, sharing one memo
settings = [(10, 1), (5, 2), (2, 5), (1, 10)]
sessions = [SessionConfig(per_iter=n, iterations=iters, rf_method="rm3") for n, iters in settings]
sessions.append(SessionConfig(per_iter=5, iterations=2, rf_method="rm3",
                              fusion=FusionConfig(lambda_sf=2.0, representation_mode="pvc")))
scores = [score_sessions(results, qrels, ["map100"])["map100"]
          for results in sweep(Engine(ctx=ctx, queries=queries, qrels=qrels), [(ctx, s) for s in sessions])]
for (n, iters), result in zip(settings, scores):
    print(f"rm3 {n:>2}x{iters:<2}  MAP@100 = {result.mean:.4f}")

p = fisher_randomization(scores[3].per_query, scores[0].per_query)
print(f"\n1x10 vs 10x1 randomization p-value: {p:.4f}")

fused, plain = scores[4], scores[1]
print(f"fused rm3+pvc 5x2 MAP@100 = {fused.mean:.4f} (plain {plain.mean:.4f})")
