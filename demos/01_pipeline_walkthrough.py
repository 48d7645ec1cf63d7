"""End-to-end walkthrough of the bag-of-semantic-concepts pipeline.

Builds a small synthetic review corpus, trains toy word vectors on it,
extracts in-dictionary n-grams, clusters their embeddings into concepts,
builds per-concept document features, and trains the linear classifier.
Run with: python demos/01_pipeline_walkthrough.py
"""

import numpy as np

from conceptbag.clustering import KMeansConfig, kmeans_fit
from conceptbag.corpus import Dataset, Document, NGramIndex, build_vocab, count_vectors
from conceptbag.embeddings import SgnsConfig, embed_all, train_sgns
from conceptbag.features import concept_features_nb, log_count_ratio
from conceptbag.svm import SvmConfig, svm_predict, svm_train

rng = np.random.default_rng(0)

# ---------------------------------------------------------------------------
# 1. A synthetic corpus: positive reviews lean on one word family, negative
#    reviews on another, with shared filler vocabulary.
# ---------------------------------------------------------------------------
pos_words = ["great", "superb", "charming", "moving"]
neg_words = ["dull", "tedious", "clumsy", "flat"]
fillers = [f"word{i}" for i in range(20)]

documents = []
for i in range(200):
    label = 1 if i < 100 else -1
    charged = pos_words if label == 1 else neg_words
    tokens = tuple(
        str(rng.choice(charged)) if rng.random() < 0.3 else str(rng.choice(fillers))
        for _ in range(30)
    )
    documents.append(Document(id=f"doc{i}", label=label, tokens=tokens))
dataset = Dataset(name="demo", documents=documents)
print(f"corpus: {len(documents)} documents, balanced labels")

# ---------------------------------------------------------------------------
# 2. Train skip-gram word vectors on the raw token streams.
# ---------------------------------------------------------------------------
wv = train_sgns(
    [list(d.tokens) for d in documents],
    SgnsConfig(dim=16, window=3, epochs=3, min_count=1, subsample_threshold=1.0, seed=0),
)
print(f"embeddings: {len(wv)} words, dim {wv.dim}")

# ---------------------------------------------------------------------------
# 3. Split train/test, number every 1- and 2-gram of both once, select the
#    vocabulary from training data only, and embed every n-gram as the mean
#    of its word vectors.
# ---------------------------------------------------------------------------
train, test = documents[0::2], documents[1::2]
y_train = np.array([d.label for d in train])
y_test = np.array([d.label for d in test])
index = NGramIndex(train + test, orders=(1, 2), dictionary=wv.words)
vocab = build_vocab(train, index)
table = embed_all(vocab, wv)
print(f"vocabulary: {len(vocab)} n-grams of orders 1-2")

# ---------------------------------------------------------------------------
# 4. Cluster n-gram embeddings into K semantic concepts.
# ---------------------------------------------------------------------------
K = 12
result = kmeans_fit(table, KMeansConfig(K=K, iterations=10, seed=0))
print(f"k-means: K={K}, final inertia {result.inertia:.2f}")

# ---------------------------------------------------------------------------
# 5. Per-concept document features: the signed log-count ratio of maximal
#    magnitude among the document's n-grams in each cluster.
# ---------------------------------------------------------------------------
counts_train = count_vectors(train, vocab)
counts_test = count_vectors(test, vocab)
ratio = log_count_ratio(counts_train, y_train)
f_train = concept_features_nb(counts_train, result.labels, ratio, K)
f_test = concept_features_nb(counts_test, result.labels, ratio, K)
print(f"features: {f_train.shape[0]} train rows x {K} concepts")

# ---------------------------------------------------------------------------
# 6. L2-regularized squared-hinge linear SVM, then held-out accuracy.
# ---------------------------------------------------------------------------
model = svm_train(f_train, y_train, SvmConfig(C=1.0))
acc = float(np.mean(svm_predict(model, f_test) == y_test))
print(f"test accuracy: {acc:.3f}")
