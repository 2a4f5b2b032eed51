"""Tokenize a few passages, build an index, and compare the three scorers.

Run from the repository root:  python3 demos/01_index_and_search.py
"""

from irflab import (
    Passage,
    PassageCollection,
    Query,
    RetrievalParams,
    TokenizerConfig,
    build_index,
    collection_prob,
    query_mle,
    rank_bm25,
    rank_ql,
    rank_rocchio,
    tfidf_vector,
    tokenize,
)

config = TokenizerConfig()  # bundled stopword list + suffix-s stemmer

texts = {
    "p1": "Solar panels convert sunlight into electricity.",
    "p2": "Wind turbines convert moving air into electricity.",
    "p3": "The recipes in this book use seasonal vegetables.",
    "p4": "Electricity storage in batteries smooths solar output.",
}

passages = [
    Passage(passage_id=pid, doc_id=pid, text=text, tokens=tuple(tokenize(text, config)))
    for pid, text in texts.items()
]
collection = PassageCollection(passages)
index = build_index(collection)

print("tokens of p1:", collection["p1"].tokens)
print("p(electricity | corpus) =", round(collection_prob(index, "electricity"), 4))

query = Query(query_id="q1", text="solar electricity", tokens=tuple(tokenize("solar electricity", config)))

print("\nQuery Likelihood (Dirichlet mu=100):")
for pid, score in rank_ql(query_mle(query), index, RetrievalParams(mu=100.0), depth=4).entries:
    print(f"  {pid}  {score:8.4f}   {texts[pid]}")

print("\nBM25 (k1=1.2, b=0.75):")
for pid, score in rank_bm25(query, index, RetrievalParams(), depth=4).entries:
    print(f"  {pid}  {score:8.4f}")

qvec = tfidf_vector(collection["p1"], index)  # use p1 itself as a vector query
print("\ntf-idf dot product against p1's vector:")
for pid, score in rank_rocchio(qvec, index, depth=4).entries:
    print(f"  {pid}  {score:8.4f}")
