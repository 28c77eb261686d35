"""Fixed-order products, whose bits no BLAS thread count changes, and the
one budget for dense copies.

One BLAS call on a large block may split its sums across threads, changing
their order. Each call here stays under the 2**18 multiply-adds at which
OpenBLAS starts a second thread: the interior point's Gram matrix and factor
work on _TILE x _TILE blocks summing at most _SPAN terms, and matvec and
rmatvec take a dense X in row tiles of at most _ROW_TILE_VALUES values.
Vector products of a factor use einsum, which calls no BLAS at all, and
scipy multiplies a CSR X on one thread.
"""

import numpy as np
import scipy.sparse as sp

# The most values of a dense copy: a fold's feature table, the interior
# point's [X, 1] (16 MB), a tree fit's presorted transpose.  It lies above
# every paper-scale fold at min_df 10; a 3,600 x 7,306 tf-idf block at 3.5%
# density took 1.8x the peak memory dense, and no less time.  Read at call
# time, so one monkeypatch reaches every user.
DENSE_VALUES = 2 ** 21

_TILE = 48
_SPAN = 112
_ROW_TILE_VALUES = 2 ** 18


def _dot(x, y):
    """x @ y by einsum, whose sum order no BLAS thread count changes."""
    return float(np.einsum("i,i->", x, y))


def _gram(A, B):
    """The lower block triangle of A.T @ B; blocks above it are 0."""
    n, m = A.shape
    G = np.zeros((m, m))
    for i in range(0, m, _TILE):
        for j in range(0, i + 1, _TILE):
            block = G[i:i + _TILE, j:j + _TILE]
            for k in range(0, n, _SPAN):
                rows = slice(k, k + _SPAN)
                block += A[rows, i:i + _TILE].T @ B[rows, j:j + _TILE]
    return G


def _cholesky(G):
    """Cholesky factor of the positive definite matrix whose lower block
    triangle is G, as (L, the inverses of L's diagonal blocks)."""
    L = G.copy()
    cuts = range(0, L.shape[0], _TILE)
    inverses = []
    for k in cuts:
        kk = slice(k, k + _TILE)
        L[kk, kk] = np.linalg.cholesky(L[kk, kk])
        inverses.append(np.linalg.inv(L[kk, kk]))
        below = [slice(i, i + _TILE) for i in cuts if i > k]
        for ii in below:
            L[ii, kk] = L[ii, kk] @ inverses[-1].T
        for p, ii in enumerate(below):
            for jj in below[:p + 1]:
                L[ii, jj] -= L[ii, kk] @ L[jj, kk].T
    return L, inverses


def _cholesky_solve(factor, b):
    """x with L L.T x = b, by block forward and back substitution."""
    L, inverses = factor
    x = b.copy()
    blocks = [slice(k, k + _TILE) for k in range(0, b.size, _TILE)]
    for p, kk in enumerate(blocks):
        x[kk] = np.einsum("ij,j->i", inverses[p],
                          x[kk] - np.einsum("ij,j->i", L[kk, :kk.start],
                                            x[:kk.start]))
    for p in range(len(blocks) - 1, -1, -1):
        kk = blocks[p]
        x[kk] = np.einsum("ji,j->i", inverses[p],
                          x[kk] - np.einsum("ji,j->i", L[kk.stop:, kk],
                                            x[kk.stop:]))
    return x


def matvec(X, v):
    """X @ v; a dense X is taken in row tiles, whose outputs are joined."""
    if sp.issparse(X):
        return X @ v
    rows = max(1, _ROW_TILE_VALUES // max(1, X.shape[1]))
    return np.concatenate([X[i:i + rows] @ v
                           for i in range(0, max(1, X.shape[0]), rows)])


def rmatvec(X, r):
    """X.T @ r; a dense X is taken in row tiles, whose partial sums are
    added in tile order."""
    if sp.issparse(X):
        return X.T @ r
    rows = max(1, _ROW_TILE_VALUES // max(1, X.shape[1]))
    out = X[:rows].T @ r[:rows]
    for i in range(rows, X.shape[0], rows):
        out += X[i:i + rows].T @ r[i:i + rows]
    return out
