"""Clinical note featurization: masking-aware tokenization, document-frequency
vocabulary pruning, tf-idf weighting straight into CSR, and fusion with
structured features.
"""

from __future__ import annotations

import itertools
import re
from importlib import resources

import numpy as np
import scipy.sparse as sp

# de-identification placeholders look like "[**First Name 123**]"
_MASK_RE = re.compile(r"\[\*\*.*?\*\*\]", re.DOTALL)
_TOKEN_RE = re.compile(r"[a-z0-9]+")
_DIGITS_RE = re.compile(r"[0-9]+\Z")


class TextFeatError(ValueError):
    pass


def _parse_stopwords(text):
    """One token per line; '#' comment lines and blanks are skipped."""
    tokens = (line.strip() for line in text.split("\n"))
    return {t for t in tokens if t and not t.startswith("#")}


def load_stopwords(path):
    with open(path, encoding="utf-8") as f:
        return _parse_stopwords(f.read())


def default_stopwords():
    return _parse_stopwords(
        resources.files("icumort.data").joinpath("stopwords.txt").read_text("utf-8"))


def preprocess_note(text, stopwords):
    """Mask spans deleted, lowercased, split into letter/digit runs;
    pure-digit tokens and stop words dropped."""
    text = _MASK_RE.sub(" ", text)
    tokens = _TOKEN_RE.findall(text.lower())
    return [t for t in tokens if not _DIGITS_RE.match(t) and t not in stopwords]


class Vocabulary:
    """Lexicographically ordered retained tokens with document frequencies."""

    def __init__(self, tokens, dfs, n_docs, min_df):
        self.tokens = tuple(tokens)
        self.dfs = tuple(int(d) for d in dfs)
        self.n_docs = int(n_docs)
        self.min_df = int(min_df)
        if list(self.tokens) != sorted(self.tokens):
            raise TextFeatError("vocabulary must be lexicographically ordered")
        if len(set(self.tokens)) != len(self.tokens):
            raise TextFeatError("duplicate vocabulary tokens")
        if any(d < self.min_df for d in self.dfs):
            raise TextFeatError("document frequency below the retention threshold")
        self.index = {t: i for i, t in enumerate(self.tokens)}

    def __len__(self):
        return len(self.tokens)


def build_vocab(token_docs, min_df=10):
    if min_df < 1:
        raise TextFeatError("min_df must be >= 1")
    token_docs = list(token_docs)
    if not token_docs:
        raise TextFeatError("cannot build a vocabulary from an empty corpus")
    df = {}
    for doc in token_docs:
        for token in set(doc):
            df[token] = df.get(token, 0) + 1
    kept = sorted(t for t, d in df.items() if d >= min_df)
    return Vocabulary(kept, [df[t] for t in kept], len(token_docs), min_df)


class TfIdfModel:
    """Frozen idf weights; transform is pure (the test corpus cannot move idf)."""

    def __init__(self, vocab, idf):
        self.vocab = vocab
        self.idf = np.asarray(idf, dtype=float)
        if self.idf.shape != (len(vocab),):
            raise TextFeatError("idf length must match the vocabulary")
        if np.any(self.idf <= 0):
            raise TextFeatError("idf weights must be positive")


def tfidf_fit(vocab):
    """idf = ln((1+N)/(1+df)) + 1, always positive."""
    dfs = np.asarray(vocab.dfs, dtype=float)
    idf = np.log((1.0 + vocab.n_docs) / (1.0 + dfs)) + 1.0
    return TfIdfModel(vocab, idf)


def transform_corpus(model, token_docs):
    """tf-idf transform a corpus into one CSR matrix, one row per document.

    Each row holds count x idf for the document's vocabulary tokens, in
    column order, divided by its L2 norm; out-of-vocabulary tokens are
    dropped, and a document with none of the vocabulary is an empty row.
    """
    token_docs = list(token_docs)
    n, width = len(token_docs), len(model.vocab)
    lengths = np.fromiter(map(len, token_docs), dtype=np.int64, count=n)
    index = model.vocab.index
    tokens = itertools.chain.from_iterable(token_docs)
    cols = np.fromiter(map(index.get, tokens, itertools.repeat(-1)),
                       dtype=np.int64, count=int(lengths.sum()))
    rows = np.repeat(np.arange(n, dtype=np.int64), lengths)
    known = cols >= 0
    # sorted unique (row, col) keys are CSR order: by row, then by column
    keys, counts = np.unique(rows[known] * width + cols[known],
                             return_counts=True)
    rows, cols = np.divmod(keys, width)
    data = counts * model.idf[cols]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    for start, end in zip(indptr[:-1].tolist(), indptr[1:].tolist()):
        if end > start:
            # one norm per row: a batched norm rounds differently
            data[start:end] /= np.linalg.norm(data[start:end])
    return sp.csr_matrix((data, cols, indptr), shape=(n, width))


def tokenize_corpus(notes, stopwords=None):
    if stopwords is None:
        stopwords = default_stopwords()
    return [preprocess_note(text, stopwords) for text in notes]


def fuse_matrix(structured, text_csr):
    """Row-wise fusion of a dense structured matrix with a text CSR block."""
    structured = np.asarray(structured, dtype=float)
    if structured.shape[0] != text_csr.shape[0]:
        raise TextFeatError("row counts differ between blocks")
    return sp.hstack([sp.csr_matrix(structured), text_csr], format="csr")
