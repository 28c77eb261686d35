"""From raw note text to tf-idf vectors.

Lowercasing, PHI-mask removal, stopword filtering, a document-frequency
cutoff, then tf-idf weighting straight into a CSR matrix. Its rows fuse
with dense structured rows for the combined feature set.
"""

import numpy as np

from icumort.cohort import synth_cohort
from icumort.textfeat import (
    build_vocab,
    default_stopwords,
    fuse_matrix,
    tfidf_fit,
    tokenize_corpus,
    transform_corpus,
)

stop = default_stopwords()
print(f"stopword list size: {len(stop)}")

cohort = synth_cohort(n=600, seed=3)
notes = cohort.notes
print("raw note:", notes[0][:100], "...")

docs = tokenize_corpus(notes)
print("tokens:  ", docs[0][:12])

vocab = build_vocab(docs, min_df=5)
print(f"\nvocabulary: {len(vocab)} tokens kept at min_df=5 "
      f"over {vocab.n_docs} documents")

model = tfidf_fit(vocab)
csr = transform_corpus(model, docs).tocsr()
row = csr[0]
top = sorted(zip(row.indices, row.data), key=lambda t: -t[1])[:8]
print("heaviest tf-idf terms in document 0:")
for j, w in top:
    print(f"  {vocab.tokens[j]:<18} {w:.4f}")

# rare tokens carry more idf weight than ubiquitous ones
dfs = np.array(vocab.dfs)
print(f"\ndf range: {dfs.min()} to {dfs.max()}")

# fuse a structured row with document 0's text row
structured = np.array([[0.5, -1.2, 3.0]])
fused = fuse_matrix(structured, row)
print(f"fused row length: 3 dense + {len(vocab)} sparse slots")
print("fused head:", fused[:, :5].toarray().ravel().round(3))

print(f"\ncorpus matrix: {csr.shape}, {csr.nnz} stored values, "
      f"density {csr.nnz / (csr.shape[0] * csr.shape[1]):.4f}")
