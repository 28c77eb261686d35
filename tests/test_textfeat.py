import re

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from icumort.neural import pad_sequences, tokens_to_ids
from icumort.textfeat import (
    Corpus,
    TextFeatError,
    _kept,
    _raw_tokens,
    build_vocab,
    default_stopwords,
    fuse_matrix,
    load_stopwords,
    tfidf_fit,
    tokenize_corpus,
    transform_corpus,
)


def preprocess_note(text, stopwords):
    """The per-note reference tokenizer: mask spans deleted, lowercased,
    split into letter/digit runs; pure-digit tokens and stop words dropped,
    token by token."""
    return [t for t in _raw_tokens(text) if _kept(t, stopwords)]


# Reference tf-idf: one document at a time, counts in a dict, the weights
# divided by their norm.  transform_corpus must agree with it bit for bit.

def _ref_tfidf(model, tokens):
    """(sorted column indices, unit-norm weights) of one document."""
    counts = {}
    for t in tokens:
        j = model.vocab.index.get(t)
        if j is not None:
            counts[j] = counts.get(j, 0) + 1
    if not counts:
        return [], np.zeros(0)
    idx = sorted(counts)
    weights = np.array([counts[j] * model.idf[j] for j in idx])
    return idx, weights / np.linalg.norm(weights)


def _ref_corpus(model, docs):
    """Reference CSR: the per-document rows stacked in order."""
    indptr, indices, data = [0], [], []
    for doc in docs:
        idx, weights = _ref_tfidf(model, doc)
        indices.extend(idx)
        data.extend(weights.tolist())
        indptr.append(len(indices))
    return sp.csr_matrix((np.array(data, dtype=float),
                          np.array(indices, dtype=np.int64),
                          np.array(indptr, dtype=np.int64)),
                         shape=(len(docs), len(model.vocab)))


def assert_csr_identical(got, want):
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.indptr, want.indptr)
    np.testing.assert_array_equal(got.indices, want.indices)
    assert got.data.tobytes() == want.data.tobytes()


def assert_tfidf_rows(M):
    """Sorted unique column indices per row; finite, positive data; every
    row of unit L2 norm or empty."""
    assert M.format == "csr"
    for i in range(M.shape[0]):
        cols = M.indices[M.indptr[i]:M.indptr[i + 1]]
        vals = M.data[M.indptr[i]:M.indptr[i + 1]]
        assert np.all(np.diff(cols) > 0)
        assert np.all((cols >= 0) & (cols < M.shape[1]))
        assert np.all(np.isfinite(vals)) and np.all(vals > 0)
        assert vals.size == 0 or abs(np.linalg.norm(vals) - 1.0) < 1e-12


_WORDS = ["w%d" % i for i in range(12)]


@st.composite
def corpora(draw):
    """(fit corpus, corpus to transform) over a small alphabet.  Words past
    the fit corpus are out of vocabulary, so documents may come out empty;
    documents repeat tokens, and the transformed corpus may be empty."""
    doc = st.lists(st.sampled_from(_WORDS), max_size=12)
    fit_docs = draw(st.lists(st.lists(st.sampled_from(_WORDS[:8]),
                                      max_size=10), min_size=1, max_size=8))
    return fit_docs, draw(st.lists(doc, max_size=10)), draw(st.integers(1, 3))


# Note text for the tokenizer: fragments that exercise masks (closed,
# unclosed, spanning lines), case folding, digit runs, stop words,
# punctuation and non-ASCII case mappings, and arbitrary text between them.
_FRAGMENTS = ["The", "the", "AND", "120", "5mg", "o2", "[**", "**]",
              "[**First Name 12**]", "a.m.,", "\n", " ", "Sepsis", "sepsis",
              "\u0130", "\u212a", "\u03a3", "\x00", "-"]
_notes = st.lists(
    st.lists(st.one_of(st.sampled_from(_FRAGMENTS), st.text(max_size=6)),
             max_size=12).map("".join),
    max_size=6)


def _ref_preprocess(text, stopwords):
    """Mask spans deleted, lowercased, the a-z/0-9 runs found by a regular
    expression, pure-digit runs and stop words dropped."""
    text = re.sub(r"\[\*\*.*?\*\*\]", " ", text, flags=re.DOTALL).lower()
    return [t for t in re.findall(r"[a-z0-9]+", text)
            if not t.isdigit() and t not in stopwords]


class TestCorpus:
    """The integer corpus against plain token lists."""

    @settings(max_examples=300, deadline=None)
    @given(notes=_notes, stopwords=st.sampled_from([None, {"the", "sepsis"}]))
    def test_tokenize_matches_preprocess_note(self, notes, stopwords):
        corpus = tokenize_corpus(notes, stopwords)
        words = default_stopwords() if stopwords is None else stopwords
        assert len(corpus) == len(notes)
        for i, text in enumerate(notes):
            assert corpus[i] == preprocess_note(text, words)
            assert corpus[i] == _ref_preprocess(text, words)
        assert list(corpus.terms) == sorted(set(corpus.terms.tolist()))

    @settings(max_examples=100, deadline=None)
    @given(case=corpora(), data=st.data())
    def test_take_equals_list_gather(self, case, data):
        docs = case[1]
        rows = data.draw(st.lists(st.integers(0, max(len(docs) - 1, 0)),
                                  max_size=12 if docs else 0))
        got = Corpus.of(docs).take(rows)
        assert list(got) == [docs[i] for i in rows]

    def test_indexing(self):
        corpus = Corpus.of([["b", "a"], [], ["a"]])
        assert corpus.terms.tolist() == ["a", "b"]
        assert corpus[-1] == ["a"] and corpus[1] == []
        with pytest.raises(IndexError):
            corpus[3]
        assert Corpus.of(corpus) is corpus


def _ref_vocab(docs, min_df):
    """(tokens, dfs) by counting each document's distinct tokens in a dict."""
    df = {}
    for doc in docs:
        for token in set(doc):
            df[token] = df.get(token, 0) + 1
    kept = sorted(t for t, d in df.items() if d >= min_df)
    return tuple(kept), tuple(df[t] for t in kept)


def _ref_padded_ids(docs, vocab, max_len):
    """Per token: unk 1, else the vocabulary index + 2; cut to max_len and
    padded with 0."""
    out = np.zeros((len(docs), max_len), dtype=np.int64)
    for i, doc in enumerate(docs):
        for j, token in enumerate(doc[:max_len]):
            out[i, j] = vocab.index[token] + 2 if token in vocab.index else 1
    return out


class TestCorpusReferences:
    @settings(max_examples=150, deadline=None)
    @given(case=corpora())
    def test_vocab_matches_dict_count(self, case):
        fit_docs, docs, min_df = case
        for corpus in (fit_docs, docs):
            if not corpus:
                continue
            v = build_vocab(corpus, min_df=min_df)
            assert (v.tokens, v.dfs) == _ref_vocab(corpus, min_df)
            assert v.n_docs == len(corpus)

    @settings(max_examples=150, deadline=None)
    @given(case=corpora(), max_len=st.integers(1, 14))
    def test_ids_match_per_token_reference(self, case, max_len):
        """Truncation, max_len past the longest document, empty documents
        and documents with no vocabulary token."""
        fit_docs, docs, min_df = case
        vocab = build_vocab(fit_docs, min_df=min_df)
        ids = tokens_to_ids(docs, vocab)
        assert list(ids) == [[vocab.index[t] + 2 if t in vocab.index else 1
                              for t in doc] for doc in docs]
        assert ids.terms.tolist() == sorted(set(ids.terms.tolist()))
        got = pad_sequences(ids, max_len)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, _ref_padded_ids(docs, vocab,
                                                           max_len))
        # plain id lists take the same path
        np.testing.assert_array_equal(pad_sequences(list(ids), max_len), got)

    @settings(max_examples=100, deadline=None)
    @given(case=corpora())
    def test_vocab_transforms_a_corpus_with_other_terms(self, case):
        """The fit corpus and the transformed one have their own term tables
        (the transformed one has words the fit corpus lacks)."""
        fit_docs, docs, min_df = case
        m = tfidf_fit(build_vocab(Corpus.of(fit_docs), min_df=min_df))
        assert_csr_identical(transform_corpus(m, Corpus.of(docs)),
                             _ref_corpus(m, docs))
        np.testing.assert_array_equal(
            pad_sequences(tokens_to_ids(Corpus.of(docs), m.vocab), 12),
            _ref_padded_ids(docs, m.vocab, 12))


class TestPreprocess:
    def test_mask_removal_and_stopwords(self):
        tokens = preprocess_note("Pt seen by [**First Name 123**] today", {"by"})
        assert tokens == ["pt", "seen", "today"]

    def test_empty_input(self):
        assert preprocess_note("", set()) == []

    def test_case_folding_with_stop_removal(self):
        assert preprocess_note("THE the The", {"the"}) == []

    def test_pure_digits_dropped(self):
        assert preprocess_note("bp 120 over 80 stable", set()) == \
            ["bp", "over", "stable"]

    def test_alphanumeric_kept(self):
        # mixed runs like drug codes survive the digit filter
        assert preprocess_note("gave 5mg o2 sat", set()) == \
            ["gave", "5mg", "o2", "sat"]

    def test_mask_spanning_newline(self):
        text = "seen [**Last Name\n(un) 99**] again"
        assert preprocess_note(text, set()) == ["seen", "again"]

    def test_punctuation_splits_tokens(self):
        assert preprocess_note("a.m., rounds—done", set()) == ["a", "m", "rounds", "done"]


class TestStopwords:
    def test_bundled_list_has_313_entries(self):
        sw = default_stopwords()
        assert len(sw) == 313
        assert "the" in sw
        assert all(t == t.lower() for t in sw)

    def test_loader_skips_comments(self, tmp_path):
        p = tmp_path / "sw.txt"
        p.write_text("# comment\nthe\n\nand\n")
        assert load_stopwords(p) == {"the", "and"}


class TestVocab:
    def test_min_df_excludes_rare(self):
        docs = [["word"]] * 9 + [["other"]] * 10
        v = build_vocab(docs, min_df=10)
        assert "word" not in v.index
        assert "other" in v.index

    def test_default_min_df_is_ten(self):
        v = build_vocab([["word"]] * 10 + [["rare"]] * 9)
        assert v.tokens == ("word",) and v.min_df == 10

    def test_min_df_one_keeps_all(self):
        docs = [["a", "b"], ["c"]]
        v = build_vocab(docs, min_df=1)
        assert v.tokens == ("a", "b", "c")

    def test_counting_by_hand(self):
        v = build_vocab([["a", "b"], ["a"], ["c"]], min_df=2)
        assert v.tokens == ("a",)
        assert v.dfs == (2,)
        assert v.n_docs == 3

    def test_df_counts_documents_not_occurrences(self):
        v = build_vocab([["x", "x", "x"], ["y"]], min_df=1)
        assert v.dfs[v.index["x"]] == 1

    def test_empty_corpus_rejected(self):
        with pytest.raises(TextFeatError, match="empty corpus"):
            build_vocab([])

    def test_order_insensitive(self):
        rng = np.random.default_rng(0)
        docs = [["alpha", "beta"], ["beta", "gamma"], ["alpha"], ["delta", "beta"]]
        v1 = build_vocab(docs, min_df=1)
        for _ in range(5):
            perm = rng.permutation(len(docs))
            v2 = build_vocab([docs[i] for i in perm], min_df=1)
            assert v2.tokens == v1.tokens
            assert v2.dfs == v1.dfs


class TestTfIdf:
    def test_everywhere_token_has_unit_idf(self):
        v = build_vocab([["x"], ["x"], ["x"]], min_df=1)
        m = tfidf_fit(v)
        assert m.idf[0] == pytest.approx(1.0)

    def test_hand_worked_three_doc_corpus(self):
        """d1 over (fever, sepsis, shock) must come out (0, 0.6053, 0.7960)."""
        docs = [["sepsis", "shock"], ["sepsis", "fever"], ["fever"]]
        v = build_vocab(docs, min_df=1)
        assert v.tokens == ("fever", "sepsis", "shock")
        m = tfidf_fit(v)
        M = transform_corpus(m, docs).tocsr()
        np.testing.assert_allclose(M[0].toarray().ravel(), [0.0, 0.6053, 0.7960],
                                   atol=1e-4)
        assert_tfidf_rows(M)

    def test_oov_only_doc_gives_zero_vector(self):
        v = build_vocab([["a"], ["a"]], min_df=1)
        m = tfidf_fit(v)
        M = transform_corpus(m, [["zebra", "yak"]])
        assert M.shape == (1, 1)
        assert M.nnz == 0

    def test_unit_norm_or_zero(self):
        rng = np.random.default_rng(4)
        words = ["w%d" % i for i in range(30)]
        docs = [[words[i] for i in rng.integers(0, 30, size=rng.integers(1, 15))]
                for _ in range(40)]
        v = build_vocab(docs, min_df=1)
        m = tfidf_fit(v)
        norms = sp.linalg.norm(transform_corpus(m, docs + [["zzz"]]).tocsr(),
                               axis=1)
        for n in norms:
            assert n == pytest.approx(1.0, abs=1e-12) or n == 0.0
        assert norms[-1] == 0.0

    def test_transform_does_not_mutate_model(self):
        v = build_vocab([["a", "b"], ["b"]], min_df=1)
        m = tfidf_fit(v)
        before = m.idf.copy()
        transform_corpus(m, [["a", "a", "b", "zzz"]])
        np.testing.assert_array_equal(m.idf, before)
        assert v.dfs == (1, 2)

    def test_repeated_token_raises_tf(self):
        v = build_vocab([["a", "b"], ["a"], ["b"]], min_df=1)
        m = tfidf_fit(v)
        single, doubled = transform_corpus(m, [["a", "b"], ["a", "a", "b"]]).toarray()
        assert doubled[0] / doubled[1] > single[0] / single[1]


class TestCsrRows:
    @settings(max_examples=100, deadline=None)
    @given(case=corpora())
    def test_invariants_hold(self, case):
        fit_docs, docs, min_df = case
        m = tfidf_fit(build_vocab(fit_docs, min_df=min_df))
        M = transform_corpus(m, docs).tocsr()
        assert M.shape == (len(docs), len(m.vocab))
        assert_tfidf_rows(M)

    @settings(max_examples=100, deadline=None)
    @given(case=corpora())
    def test_block_converts_as_scipy_does(self, case):
        """toarray() gives scipy's dense bytes, and tocsr() a well-formed
        scipy matrix."""
        fit_docs, docs, min_df = case
        block = transform_corpus(tfidf_fit(build_vocab(fit_docs, min_df)),
                                 docs)
        M = block.tocsr()
        M.check_format(full_check=True)
        D, want = block.toarray(), M.toarray()
        assert (D.shape, D.dtype) == (want.shape, want.dtype)
        assert D.flags.c_contiguous and D.tobytes() == want.tobytes()
        assert block.nnz == M.nnz

    @settings(max_examples=100, deadline=None)
    @given(case=corpora())
    def test_matches_per_document_reference(self, case):
        """Bit for bit, over empty rows, repeated tokens and empty corpora."""
        fit_docs, docs, min_df = case
        m = tfidf_fit(build_vocab(fit_docs, min_df=min_df))
        assert_csr_identical(transform_corpus(m, docs), _ref_corpus(m, docs))

    def test_dense_round_trip(self):
        # no explicit zeros are stored, so the dense form loses nothing
        docs = [["a", "b", "b"], ["zzz"], ["c", "a"]]
        m = tfidf_fit(build_vocab(docs, min_df=1))
        M = transform_corpus(m, docs)
        assert_csr_identical(sp.csr_matrix(M.toarray()), M)


def _text_block(rows):
    """CSR with the given {column: value} dict per row over 10 columns."""
    D = np.zeros((len(rows), 10))
    for i, row in enumerate(rows):
        for j, w in row.items():
            D[i, j] = w
    return sp.csr_matrix(D)


class TestFuse:
    def test_dimension_additivity(self):
        F = fuse_matrix(np.zeros((1, 58)), sp.csr_matrix((1, 100)))
        assert F.shape == (1, 158)

    def test_zero_structured_is_pure_shift(self):
        F = fuse_matrix(np.zeros((1, 58)), _text_block([{2: 0.3, 5: -0.7}]))
        assert F.indices.tolist() == [60, 63]
        assert F.data.tolist() == [0.3, -0.7]

    def test_layout_trace(self):
        T = sp.csr_matrix(np.array([[0.8]]))
        F = fuse_matrix(np.array([[1.5, -0.5]]), T)
        assert F.indices.tolist() == [0, 1, 2]
        assert F.data.tolist() == [1.5, -0.5, 0.8]

    def test_lossless_by_index_partition(self):
        rng = np.random.default_rng(9)
        S = rng.normal(size=(3, 6))
        S[:, 2] = 0.0
        T = sp.csr_matrix(rng.normal(size=(3, 4)) * (rng.random((3, 4)) < 0.5))
        F = fuse_matrix(S, T)
        for i in range(3):
            cols = F.indices[F.indptr[i]:F.indptr[i + 1]]
            vals = F.data[F.indptr[i]:F.indptr[i + 1]]
            # structured values sit below column 6, text values at or above
            np.testing.assert_array_equal(cols[cols < 6], np.flatnonzero(S[i]))
            np.testing.assert_array_equal(vals[cols < 6], S[i][S[i] != 0])
            np.testing.assert_array_equal(cols[cols >= 6] - 6, T[i].indices)
            np.testing.assert_array_equal(vals[cols >= 6], T[i].data)


class TestMatrixHelpers:
    def test_empty_document_gives_empty_row(self):
        docs = [["a", "c"], [], ["c", "zzz"]]
        m = tfidf_fit(build_vocab([["a", "b", "c"]], min_df=1))
        M = transform_corpus(m, docs)
        assert M.shape == (3, 3)
        assert M.indptr.tolist() == [0, 2, 2, 3]
        assert M.indices.tolist() == [0, 2, 2]
        np.testing.assert_allclose(M.toarray(), [[2 ** -0.5, 0, 2 ** -0.5],
                                                 [0, 0, 0], [0, 0, 1]])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(TextFeatError, match="row counts"):
            fuse_matrix(np.zeros((2, 3)), sp.csr_matrix((3, 4)))

    def test_transform_corpus_matches_per_doc(self):
        docs = [["sepsis", "shock"], ["sepsis", "fever"], ["fever"]]
        v = build_vocab(docs, min_df=1)
        m = tfidf_fit(v)
        assert_csr_identical(transform_corpus(m, docs), _ref_corpus(m, docs))

    def test_fuse_matrix_blocks(self):
        S = np.array([[1.0, 0.0], [0.0, 2.0]])
        T = sp.csr_matrix(np.array([[0.0, 0.5, 0.0], [0.0, 0.0, 0.0]]))
        F = fuse_matrix(S, T)
        assert F.shape == (2, 5)
        np.testing.assert_allclose(F.toarray(),
                                   [[1, 0, 0, 0.5, 0], [0, 2, 0, 0, 0]])
