"""LSA baseline: truncated SVD of the word log-count-ratio matrix.

Factorizes the presence-binarized, r-weighted word-by-document matrix of
the training documents (the transpose of their NBSVM rows) with the
exact truncated SVD. Every document, training or test, is its NBSVM
row projected on the top-K left singular vectors U; classification runs
in that K-dimensional space.
Run with: python demos/04_lsa_baseline.py
"""

import numpy as np

from conceptbag.corpus import Dataset, Document, NGramIndex, build_vocab, count_vectors
from conceptbag.features import bow_nb_features, log_count_ratio
from conceptbag.lsa import truncated_svd
from conceptbag.svm import SvmConfig, svm_predict, svm_train

rng = np.random.default_rng(3)

pos_words = [f"pos{i}" for i in range(10)]
neg_words = [f"neg{i}" for i in range(10)]
fillers = [f"word{i}" for i in range(40)]

documents = []
for i in range(240):
    label = 1 if i < 120 else -1
    charged = pos_words if label == 1 else neg_words
    tokens = tuple(
        str(rng.choice(charged)) if rng.random() < 0.3 else str(rng.choice(fillers))
        for _ in range(35)
    )
    documents.append(Document(id=f"doc{i}", label=label, tokens=tokens))
dataset = Dataset(name="demo", documents=documents)

train, test = documents[0::2], documents[1::2]
y_train = np.array([d.label for d in train])
y_test = np.array([d.label for d in test])
index = NGramIndex(train + test, orders=(1,), dictionary=None)  # every token is a word
vocab = build_vocab(train, index)
counts_train = count_vectors(train, vocab)
counts_test = count_vectors(test, vocab)
ratio = log_count_ratio(counts_train, y_train)

rows_train, rows_test = (bow_nb_features(counts, ratio) for counts in (counts_train, counts_test))
X = rows_train.T.tocsr()
print(f"word-by-document matrix: {X.shape[0]} words x {X.shape[1]} documents")

for K in (2, 5, 10):
    factors = truncated_svd(X, K)
    f_train, f_test = rows_train @ factors.U, rows_test @ factors.U
    model = svm_train(f_train, y_train, SvmConfig(C=1.0))
    acc = float(np.mean(svm_predict(model, f_test) == y_test))
    spectrum = ", ".join(f"{s:.2f}" for s in factors.S[:3])
    print(f"K={K:>2}: leading singular values [{spectrum} ...], test accuracy {acc:.3f}")
