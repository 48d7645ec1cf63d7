"""The concept featurizers that ``features`` replaced, kept as a test oracle.

``reference_concept_features_nb`` lexsorts every stored (document, n-gram)
entry on (document, concept, |r| descending, n-gram) and takes the first
entry of each (document, concept) run; ``reference_concept_features_freq``
multiplies the counts by an n-gram × concept one-hot matrix and densifies.
Neither checks the assignment's values.
"""

import numpy as np
import scipy.sparse as sp


def reference_concept_features_nb(counts, assignment, r, K):
    """Entry (i, k): the r_t of largest |r_t| over concept k's n-grams in document i, else 0."""
    counts = sp.csr_matrix(counts)
    assignment = np.asarray(assignment)
    coo = counts.tocoo()
    docs, grams = coo.row, coo.col
    clusters = assignment[grams]
    order = np.lexsort((grams, -np.abs(r[grams]), clusters, docs))
    docs, grams, clusters = docs[order], grams[order], clusters[order]
    out = np.zeros((counts.shape[0], K))
    if len(docs):
        group_start = np.ones(len(docs), dtype=bool)
        group_start[1:] = (docs[1:] != docs[:-1]) | (clusters[1:] != clusters[:-1])
        sel = np.flatnonzero(group_start)
        out[docs[sel], clusters[sel]] = r[grams[sel]]
    return out


def reference_concept_features_freq(counts, assignment, K):
    """Entry (i, k): document i's counts summed over concept k's n-grams."""
    counts = sp.csr_matrix(counts)
    assignment = np.asarray(assignment)
    onehot = sp.csr_matrix(
        (np.ones(len(assignment)), (np.arange(len(assignment)), assignment)),
        shape=(len(assignment), K),
    )
    return np.asarray((counts @ onehot).todense(), dtype=np.float64)
