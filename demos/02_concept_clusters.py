"""Inspecting semantic concepts: which n-grams share a cluster?

Builds word vectors with planted topic structure, clusters n-gram
embeddings, and prints each cluster's nearest members — the qualitative
view that the CLI's cluster command prints for the concepts it fits on
real data.
Run with: python demos/02_concept_clusters.py
"""

import numpy as np

from conceptbag.clustering import KMeansConfig, kmeans_fit
from conceptbag.corpus import Document, NGramIndex, build_vocab
from conceptbag.embeddings import WordVectors, embed_all

rng = np.random.default_rng(1)

# Three planted topics; vectors for words in a topic share a region.
topics = {
    "praise": ["brilliant", "superb", "delightful", "stunning", "perfect"],
    "pacing": ["slow", "dragging", "rushed", "uneven", "meandering"],
    "craft": ["editing", "lighting", "scoring", "framing", "casting"],
}
words = {}
rows = []
for t, (name, members) in enumerate(topics.items()):
    center = rng.normal(size=8) * 4.0
    for w in members:
        words[w] = len(rows)
        rows.append(center + rng.normal(scale=0.4, size=8))
wv = WordVectors(words=words, matrix=np.array(rows))

# One synthetic document per topic supplies the n-grams.
docs = [
    Document(id=name, label=None, tokens=tuple(members * 2))
    for name, members in topics.items()
]
vocab = build_vocab(docs, NGramIndex(docs, orders=(1, 2), dictionary=wv.words))
table = embed_all(vocab, wv)
print(f"{len(vocab)} n-grams embedded in {wv.dim} dimensions")

result = kmeans_fit(table, KMeansConfig(K=3, iterations=10, seed=0))
for k in range(3):
    members = np.flatnonzero(result.labels == k)
    dists = ((table.X[members] - result.centroids[k]) ** 2).sum(axis=1)
    nearest = members[np.argsort(dists, kind="stable")[:6]]  # ties (a b and b a) in column order
    grams = [" ".join(vocab.entries[t]) for t in nearest]
    print(f"cluster {k}: " + " | ".join(grams))
