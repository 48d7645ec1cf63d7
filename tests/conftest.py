import numpy as np

from conceptbag.corpus import Dataset, Document, NGramIndex, NGramVocabulary, build_vocab
from conceptbag.embeddings import SgnsConfig, WordVectors


def indexed_vocab(documents, orders, dictionary, counted=()):
    """build_vocab over ``documents`` from one NGramIndex over them and the ``counted`` documents."""
    return build_vocab(documents, NGramIndex(list(documents) + list(counted), orders, dictionary))


def vocab_of(grams, orders, counted=()):
    """The vocabulary whose entries are ``grams``, in that order.

    Its index holds one document per n-gram, then the ``counted`` documents,
    and has the n-grams' words as its dictionary.
    """
    grams = [tuple(g) for g in grams]
    gram_docs = [Document(id=f"gram{i}", label=None, tokens=g) for i, g in enumerate(grams)]
    index = NGramIndex(gram_docs + list(counted), orders, {w for g in grams for w in g})
    if not grams:
        return NGramVocabulary(index, np.zeros(0, dtype=np.int64))
    full = build_vocab(gram_docs, index)
    column = {g: t for t, g in enumerate(full.entries)}
    return NGramVocabulary(index, full.ids[[column[g] for g in grams]])


def make_synthetic_sentiment(n_docs=120, doc_len=30, seed=0, dim=12):
    """Balanced labeled corpus plus word vectors with sentiment structure.

    Positive documents over-sample "pos*" words, negative ones "neg*" words;
    word vectors put each sentiment group in its own region so concept
    clustering has something to find.
    """
    rng = np.random.default_rng(seed)
    pos_words = [f"pos{i}" for i in range(15)]
    neg_words = [f"neg{i}" for i in range(15)]
    neutral = [f"filler{i}" for i in range(30)]
    docs = []
    for i in range(n_docs):
        label = 1 if i < n_docs // 2 else -1
        charged = pos_words if label == 1 else neg_words
        toks = [
            str(rng.choice(charged)) if rng.random() < 0.3 else str(rng.choice(neutral))
            for _ in range(doc_len)
        ]
        docs.append(Document(id=f"d{i}", label=label, tokens=tuple(toks)))
    words = {}
    rows = []
    for group, center in ((pos_words, 3.0), (neg_words, -3.0), (neutral, 0.0)):
        for w in group:
            words[w] = len(rows)
            rows.append(rng.normal(loc=center, scale=0.5, size=dim))
    wv = WordVectors(words=words, matrix=np.array(rows))
    return Dataset(name="synthetic", documents=docs), wv


def sgns_pair_corpus(seed, ntopics=30, tsize=3, ndocs=160):
    """Synthetic corpus where "x" and "y" always co-occur within the window.

    Filler words are grouped into small topics so that a random word pair
    rarely shares a context distribution; the x/y pair forms its own topic.
    """
    rng = np.random.default_rng(seed)
    topics = [[f"t{t}_{i}" for i in range(tsize)] for t in range(ntopics)]
    docs = []
    for _ in range(ndocs):
        if rng.random() < 0.2:
            docs.append([str(w) for w in rng.permutation(["x", "y"] * 5)])
        else:
            t = int(rng.integers(ntopics))
            docs.append([str(w) for w in rng.choice(topics[t], size=10)])
    words = [w for t in topics for w in t]
    return docs, words


def sgns_pair_config(seed):
    return SgnsConfig(
        dim=16, window=2, epochs=15, min_count=1, subsample_threshold=1.0, seed=seed
    )


def cosine(wv, a, b):
    va, vb = wv.vector(a), wv.vector(b)
    return float(va @ vb / (np.linalg.norm(va) * np.linalg.norm(vb)))
