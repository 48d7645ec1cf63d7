"""Bag-of-semantic-concepts document classification.

Documents are represented by clustering averaged word-embedding vectors of
their n-grams into K semantic concepts, scoring concepts with naive-Bayes
log-count ratios, and classifying with a squared-hinge linear SVM. An LSA
baseline and an evaluation harness are included.
"""

from .clustering import (
    KMeansConfig,
    KMeansResult,
    assign,
    inertia,
    kmeans_fit,
    minibatch_kmeans_fit,
)
from .corpus import (
    Dataset,
    Document,
    NGramIndex,
    NGramVocabulary,
    build_vocab,
    count_vectors,
    load_imdb_dataset,
    load_polarity_dataset,
    tokenize,
)
from .embeddings import (
    NGramTable,
    SgnsConfig,
    WordVectors,
    embed_all,
    embed_ngram,
    load_word_vectors,
    save_word_vectors,
    train_sgns,
)
from .evaluation import (
    ExperimentConfig,
    ExperimentReport,
    accuracy,
    kfold_split,
    run_experiment,
)
from .features import (
    bow_nb_features,
    concept_features_freq,
    concept_features_nb,
    log_count_ratio,
)
from .lsa import SvdFactors, truncated_svd
from .svm import LinearModel, SvmConfig, svm_objective, svm_predict, svm_train

__version__ = "0.1.0"
