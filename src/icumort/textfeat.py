"""Clinical note featurization: masking-aware tokenization into one integer
corpus, document-frequency vocabulary pruning, tf-idf weighting straight
into CSR, and fusion with structured features.

scipy.sparse is imported only where a scipy matrix is built, by
CsrBlock.tocsr and fuse_matrix, so a run whose fold tables are all dense
never loads it.
"""

from __future__ import annotations

import array
import collections
import itertools
import re
from collections.abc import Sequence
from importlib import resources

import numpy as np

# de-identification placeholders look like "[**First Name 123**]"
_MASK_RE = re.compile(r"\[\*\*.*?\*\*\]", re.DOTALL)
# Tokens are the runs of a-z and 0-9: after lowercasing, every other
# character becomes a space (non-ASCII ones by way of "?"), then split.
_SPACES = str.maketrans({chr(c): " " for c in range(128)
                         if not ("a" <= chr(c) <= "z" or "0" <= chr(c) <= "9")})
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


def _raw_tokens(text):
    """Mask spans deleted, lowercased, split into letter/digit runs."""
    text = _MASK_RE.sub(" ", text).lower()
    return text.encode("ascii", "replace").decode("ascii").translate(
        _SPACES).split()


def _kept(token, stopwords):
    return not _DIGITS_RE.match(token) and token not in stopwords


class Corpus(Sequence):
    """Tokenized documents as one integer array: `terms` holds the distinct
    tokens in sorted order, `ids` one term index per token, all documents
    in order, and document i is ids[indptr[i]:indptr[i + 1]].  Indexing
    gives a document's tokens as a list."""

    def __init__(self, terms, ids, indptr):
        self.terms, self.ids, self.indptr = terms, ids, indptr

    @classmethod
    def of(cls, docs):
        """`docs` itself if it is a Corpus, else its token sequences packed
        one document at a time (a lazy `docs` is never held whole)."""
        if isinstance(docs, cls):
            return docs
        # codes in order of first appearance, then renumbered in term order
        code = collections.defaultdict(itertools.count().__next__)
        codes, indptr = array.array("q"), [0]
        for doc in docs:
            codes.extend(map(code.__getitem__, doc))
            indptr.append(len(codes))
        terms, rank = np.unique(np.array(list(code), dtype=object),
                                return_inverse=True)
        return cls(terms, rank[np.frombuffer(codes, dtype=np.int64)],
                   np.array(indptr, dtype=np.int64))

    def __len__(self):
        return self.indptr.size - 1

    def __getitem__(self, i):
        i = range(len(self))[i]
        return self.terms[self.ids[self.indptr[i]:self.indptr[i + 1]]].tolist()

    def take(self, rows):
        """The sub-corpus of documents `rows`, in that order, over the same
        terms."""
        rows = np.asarray(rows, dtype=np.int64)
        starts = self.indptr[rows]
        lengths = self.indptr[rows + 1] - starts
        indptr = np.concatenate(([0], lengths.cumsum()))
        at = np.arange(indptr[-1]) + np.repeat(starts - indptr[:-1], lengths)
        return Corpus(self.terms, self.ids[at], indptr)

    def lookup(self, index):
        """Each term's value in the dict `index`, -1 where it has none."""
        return np.array([index.get(t, -1) for t in self.terms.tolist()],
                        dtype=np.int64)

    def map(self, index, shift, unknown):
        """The corpus of integers with each token replaced by its value in
        the dict `index` plus `shift`, or by `unknown` where it has none."""
        values = self.lookup(index)
        values = np.where(values >= 0, values + shift, unknown)
        terms, rank = np.unique(values, return_inverse=True)
        return Corpus(terms, rank[self.ids], self.indptr)

    def pad(self, max_len):
        """(documents, max_len) int64 array of each document's first
        max_len tokens, front-aligned, 0 after; the terms are integers."""
        out = np.zeros((len(self), max_len), dtype=np.int64)
        rows = self.doc_of_token()
        cols = np.arange(rows.size) - self.indptr[rows]
        keep = cols < max_len
        out[rows[keep], cols[keep]] = self.terms[self.ids[keep]]
        return out

    def doc_of_token(self):
        """The document index of every token."""
        return np.repeat(np.arange(len(self)), np.diff(self.indptr))


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
    """Tokens in at least `min_df` documents of the corpus, with their
    document frequencies, from the sorted distinct (document, term) pairs."""
    if min_df < 1:
        raise TextFeatError("min_df must be >= 1")
    corpus = Corpus.of(token_docs)
    if not len(corpus):
        raise TextFeatError("cannot build a vocabulary from an empty corpus")
    n_terms = len(corpus.terms)
    pairs = np.sort(corpus.doc_of_token() * n_terms + corpus.ids)
    first = np.ones(pairs.size, dtype=bool)  # a pair's first occurrence
    first[1:] = pairs[1:] != pairs[:-1]
    dfs = np.bincount(pairs[first] % n_terms, minlength=n_terms)
    kept = np.flatnonzero(dfs >= min_df)
    return Vocabulary(corpus.terms[kept].tolist(), dfs[kept], len(corpus),
                      min_df)


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


class CsrBlock:
    """A matrix in CSR layout, as scipy's csr_matrix holds it: row i's
    columns are indices[indptr[i]:indptr[i + 1]], ascending, and data holds
    their values.  It only converts: toarray() to a dense array, tocsr() to
    a scipy CSR matrix."""

    def __init__(self, data, indices, indptr, shape):
        self.data, self.indices, self.indptr = data, indices, indptr
        self.shape = shape

    @property
    def nnz(self):
        return self.data.size

    def toarray(self):
        n, width = self.shape
        out = np.zeros(self.shape)
        # a stored value's flat position: its row's offset plus its column
        at = np.repeat(np.arange(n) * width, np.diff(self.indptr))
        out.reshape(-1)[at + self.indices] = self.data
        return out

    def tocsr(self):
        import scipy.sparse as sp

        return sp.csr_matrix((self.data, self.indices, self.indptr),
                             shape=self.shape)


def transform_corpus(model, token_docs):
    """tf-idf transform a corpus into one CsrBlock, one row per document.

    Each row holds count x idf for the document's vocabulary tokens, in
    column order, divided by its L2 norm; out-of-vocabulary tokens are
    dropped, and a document with none of the vocabulary is an empty row.
    """
    corpus = Corpus.of(token_docs)
    n, width = len(corpus), len(model.vocab)
    cols = corpus.lookup(model.vocab.index)[corpus.ids]
    rows = corpus.doc_of_token()
    known = cols >= 0
    # sorted unique (row, col) keys are CSR order: by row, then by column
    keys, counts = np.unique(rows[known] * width + cols[known],
                             return_counts=True)
    rows, cols = np.divmod(keys, width)
    data = counts * model.idf[cols]
    lengths = np.bincount(rows, minlength=n)
    indptr = np.concatenate(([0], lengths.cumsum()))
    # each row's squared norm is its own dot product, as np.linalg.norm
    # takes it (a batched sum of squares rounds differently); square roots
    # and divisions round each value alone, so they run batched
    squares = np.fromiter(
        (data[a:b].dot(data[a:b])
         for a, b in zip(indptr[:-1].tolist(), indptr[1:].tolist())),
        dtype=float, count=n)
    data /= np.repeat(np.sqrt(squares), lengths)
    return CsrBlock(data, cols, indptr, (n, width))


def tokenize_corpus(notes, stopwords=None):
    """The notes' tokens as one Corpus: in each note, mask spans deleted,
    lowercased, split into letter/digit runs, pure-digit runs and stop
    words dropped; the last two once per distinct term."""
    if stopwords is None:
        stopwords = default_stopwords()
    raw = Corpus.of(map(_raw_tokens, notes))
    kept = np.array([_kept(t, stopwords) for t in raw.terms.tolist()],
                    dtype=bool)
    keep = kept[raw.ids]
    before = np.concatenate(([0], keep.cumsum()))  # kept tokens before each
    return Corpus(raw.terms[kept], (kept.cumsum() - 1)[raw.ids[keep]],
                  before[raw.indptr])


def fuse_matrix(structured, text_csr):
    """Row-wise fusion of a dense structured matrix with a text CSR block
    (a CsrBlock or a scipy matrix) into one scipy CSR matrix."""
    import scipy.sparse as sp

    structured = np.asarray(structured, dtype=float)
    if structured.shape[0] != text_csr.shape[0]:
        raise TextFeatError("row counts differ between blocks")
    return sp.hstack([sp.csr_matrix(structured), text_csr.tocsr()],
                     format="csr")
