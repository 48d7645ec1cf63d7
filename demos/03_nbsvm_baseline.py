"""NBSVM baseline vs concept features on the same synthetic corpus.

The bag-of-words NBSVM baseline scales binarized word presence by the
naive-Bayes log-count ratio; the concept model compresses the same signal
into K cluster-level features. This script compares their held-out
accuracy and feature dimensionality.
Run with: python demos/03_nbsvm_baseline.py
"""

import numpy as np

from conceptbag.clustering import KMeansConfig, kmeans_fit
from conceptbag.corpus import Dataset, Document, NGramIndex, build_vocab, count_vectors
from conceptbag.embeddings import WordVectors
from conceptbag.features import (
    bow_nb_features,
    concept_features_nb,
    log_count_ratio,
)
from conceptbag.svm import SvmConfig, svm_predict, svm_train

rng = np.random.default_rng(2)

pos_words = [f"pos{i}" for i in range(15)]
neg_words = [f"neg{i}" for i in range(15)]
fillers = [f"word{i}" for i in range(30)]

documents = []
for i in range(300):
    label = 1 if i < 150 else -1
    charged = pos_words if label == 1 else neg_words
    tokens = tuple(
        str(rng.choice(charged)) if rng.random() < 0.25 else str(rng.choice(fillers))
        for _ in range(40)
    )
    documents.append(Document(id=f"doc{i}", label=label, tokens=tokens))
dataset = Dataset(name="demo", documents=documents)

# Sentiment-structured word vectors stand in for pretrained embeddings.
words = {}
rows = []
for group, center in ((pos_words, 3.0), (neg_words, -3.0), (fillers, 0.0)):
    for w in group:
        words[w] = len(rows)
        rows.append(rng.normal(loc=center, scale=0.5, size=12))
wv = WordVectors(words=words, matrix=np.array(rows))

train, test = documents[0::2], documents[1::2]
y_train = np.array([d.label for d in train])
y_test = np.array([d.label for d in test])
index = NGramIndex(train + test, orders=(1,), dictionary=wv.words)
vocab = build_vocab(train, index)
counts_train = count_vectors(train, vocab)
counts_test = count_vectors(test, vocab)
ratio = log_count_ratio(counts_train, y_train)


def evaluate(f_train, f_test, name):
    model = svm_train(f_train, y_train, SvmConfig(C=1.0))
    acc = float(np.mean(svm_predict(model, f_test) == y_test))
    print(f"{name:>12}: dim {f_train.shape[1]:>4}, test accuracy {acc:.3f}")


# NBSVM: binarized presence scaled by r, one feature per vocabulary entry.
evaluate(bow_nb_features(counts_train, ratio), bow_nb_features(counts_test, ratio), "bow_nb")

# Concept model: K cluster-level features from the same counts and ratios.
from conceptbag.embeddings import embed_all

table = embed_all(vocab, wv)
for K in (5, 15, 30):
    result = kmeans_fit(table, KMeansConfig(K=K, iterations=10, seed=0))
    evaluate(
        concept_features_nb(counts_train, result.labels, ratio, K),
        concept_features_nb(counts_test, result.labels, ratio, K),
        f"concepts K={K}",
    )
