"""Hankel liftings, anti-diagonal averaging, rank truncation and rooting.

Small dense kernels shared by both recovery algorithms. Everything here is a
pure function on numpy arrays; matrices never exceed a few hundred rows so we
just call LAPACK through numpy and do not bother with anything iterative.

Both PGD solvers also take from here the rules that differ between their
liftings only by a number: the rank-feasibility check (a function of the
lift's column count) and the root -> angle map. Their step, 1 / (2 lambda_max)
of the data operator, does not depend on the lifting (``refine.pgd_step``).

The stacked lift of the rows of an m x n matrix V (for Algorithm 1, m = 2 and
V = [x_R; x_T], the vertical pair [H(x_R); H(x_T)]) also has an n x n form that
never builds the m(n-alpha) x (alpha+1) stack: its Gram matrix is a fixed
gather-and-sum over D = V^H V, and lifting, right-multiplying by any
(alpha+1) x (alpha+1) matrix P and averaging back to rows is V @ M(P), with
M(P) linear in P (see ``_stacked_maps``).

Algorithm 2 lifts, truncates and averages back in every PGD iteration, so its
kernels carry no set-up beyond their arithmetic: a Hankel lift is one gather
v[..., idx] through a cached read-only index array (``_hankel_index``), the
horizontal pair one gather from [v_r, v_t] (``_paired_index``), and each half
of the paired average one product with a cached read-only complex averaging
matrix (``_avg_t``). The tests hold each of them bit for bit to a
window-view lift and a per-half average.

Grid scans of a slot basis B (t_s x n) over unit-modulus steering columns v
take their squared norms ||B v||^2 = Re(v^H c) from one n-vector c, the
weighted lag sums of B^H B (``_lag_sums``), so no t_s x G block of B v is
needed for them: the grid baselines' dictionary scale and the polish's
rescan both use it.
"""

import functools

import numpy as np


def check_feasible(k, alpha, n, cols):
    """Reject an order K that an (n - alpha) x cols lift cannot hold."""
    if k > min(cols, n - alpha):
        raise ValueError(f"order K={k} infeasible for a {n - alpha} x {cols} lift "
                         f"(alpha={alpha}, n={n})")


@functools.lru_cache(maxsize=None)
def _hankel_index(n, alpha):
    """Read-only (n-alpha) x (alpha+1) index array idx[i, m] = i + m."""
    idx = np.arange(n - alpha)[:, None] + np.arange(alpha + 1)
    idx.flags.writeable = False
    return idx


@functools.lru_cache(maxsize=None)
def _paired_index(n, alpha):
    """Read-only index [idx, idx + n] of the paired lift into [v_r, v_t]."""
    idx = _hankel_index(n, alpha)
    pair = np.hstack([idx, idx + n])
    pair.flags.writeable = False
    return pair


def _check_alpha(n, alpha):
    if not (1 <= alpha < n):
        raise ValueError("alpha out of range")


def hankel_lift(v, alpha):
    """(n-alpha) x (alpha+1) Hankel matrix with entry (i, m) = v[i+m].

    One gather through the cached index ``_hankel_index(n, alpha)``; leading
    axes of v are kept, so a t x n input gives t lifts.
    """
    v = np.asarray(v)
    n = v.shape[-1]
    _check_alpha(n, alpha)
    return v[..., _hankel_index(n, alpha)]


def stacked_hankel_lift(vs, alpha):
    """Vertically stack the Hankel lifts of the rows of vs (row order preserved)."""
    return hankel_lift(np.asarray(vs), alpha).reshape(-1, alpha + 1)


def paired_hankel_lift(v_r, v_t, alpha):
    """Horizontal concatenation [H_alpha(v_r), H_alpha(v_t)] of two n-vectors.

    One gather from [v_r, v_t] through the cached index ``_paired_index``.
    """
    v_r = np.asarray(v_r)
    v_t = np.asarray(v_t)
    if v_r.shape != v_t.shape:
        raise ValueError("paired vectors must have equal length")
    n = v_r.shape[-1]
    _check_alpha(n, alpha)
    return np.concatenate([v_r, v_t])[_paired_index(n, alpha)]


def _averaging_matrix(rows, cols):
    # W[k, i*cols+j] = 1/count(k) for i+j = k; maps vec(m) to anti-diagonal means
    n = rows + cols - 1
    W = np.zeros((n, rows * cols))
    for i in range(rows):
        for j in range(cols):
            W[i + j, i * cols + j] = 1.0
    W /= W.sum(axis=1, keepdims=True)
    return W


@functools.lru_cache(maxsize=None)
def _avg(rows, cols):
    W = _averaging_matrix(rows, cols)
    W.flags.writeable = False
    return W


@functools.lru_cache(maxsize=None)
def _stacked_maps(n, alpha):
    """Fixed (gather, T) of the n x n form of the stacked lift of order alpha.

    For an m x n matrix V with D = V^H V, the Gram matrix of
    stacked_hankel_lift(V, alpha) is
        D.ravel()[gather].sum(axis=0).reshape(alpha + 1, alpha + 1),
    since G[l, m] = sum_{i < n-alpha} D[i+l, i+m]. For any (alpha+1)-square P,
    inverse_hankel(lift @ P) per row equals V @ (T @ P.ravel()).reshape(n, n):
    M[j, k] = sum_i P[j-i, k-i] / c_k, with c_k the anti-diagonal count. T is
    real and n^2 x (alpha+1)^2. Both arrays are read-only.
    """
    rows, cols = n - alpha, alpha + 1
    i = np.arange(rows)[:, None, None]
    l = np.arange(cols)[None, :, None]
    m = np.arange(cols)[None, None, :]
    gather = ((i + l) * n + (i + m)).reshape(rows, cols * cols)
    counts = np.bincount((np.arange(rows)[:, None] + np.arange(cols)).ravel(), minlength=n)
    diag = np.broadcast_to(i + m, (rows, cols, cols)).reshape(rows, cols * cols)
    T = np.zeros((n * n, cols * cols))
    T[gather, np.arange(cols * cols)] = 1.0 / counts[diag]
    gather.flags.writeable = False
    T.flags.writeable = False
    return gather, T


def inverse_hankel(m):
    """Anti-diagonal averaging: entry k of the output is the mean of m[i, j]
    over i + j = k. Exact inverse of hankel_lift on Hankel inputs."""
    m = np.asarray(m)
    rows, cols = m.shape[-2:]
    return m.reshape(*m.shape[:-2], rows * cols) @ _avg(rows, cols).T


@functools.lru_cache(maxsize=None)
def _avg_t(rows, cols):
    """Read-only complex, C-contiguous transpose of ``_avg(rows, cols)``: the
    (rows*cols) x n matrix that averages a flattened complex lift back."""
    Wt = np.ascontiguousarray(_avg(rows, cols).T, dtype=complex)
    Wt.flags.writeable = False
    return Wt


def inverse_paired_hankel(m):
    """Average each half of a horizontally paired lift back to two vectors.

    Each half is one product with the cached complex averaging matrix
    ``_avg_t``. The halves stay two products: one product with a
    block-diagonal matrix lets BLAS group the nonzero terms differently, which
    changes the last bit for some lift shapes (alpha = 2 among them).
    """
    m = np.asarray(m)
    rows, cols = m.shape
    if cols % 2:
        raise ValueError("odd column count")
    half = cols // 2
    Wt = _avg_t(rows, half)
    return m[:, :half].reshape(-1) @ Wt, m[:, half:].reshape(-1) @ Wt


def rank_truncate(m, k):
    """Best rank-k Frobenius approximation (keep the k largest singular values)."""
    if not (1 <= k <= min(m.shape)):
        raise ValueError("k out of range")
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    return (u[:, :k] * s[:k]) @ vh[:k]


def _lag_sums(n):
    """(n, n*n) matrix taking a flattened n x n Hermitian M to the weighted
    lag sums c with v^H M v = Re(v^H c) for every Vandermonde column v of
    unit-modulus nodes: c_0 = trace(M), c_l = 2 * sum_k M[k, k-l] for l >= 1."""
    k = np.arange(n)
    lag = np.subtract.outer(k, k).ravel()
    return (lag == k[:, None]) * np.where(k == 0, 1.0, 2.0)[:, None]


def smallest_right_singular_vector(m):
    """Unit right singular vector of the smallest singular value.

    Phase-normalized so the first entry with magnitude above 1e-12 is real
    positive.
    """
    m = np.asarray(m)
    if m.shape[1] < 2:
        raise ValueError("need at least 2 columns")
    if m.shape[0] >= m.shape[1]:
        _, _, vh = np.linalg.svd(m, full_matrices=False)
    else:
        _, _, vh = np.linalg.svd(m)
    v = vh[-1].conj()
    nz = np.flatnonzero(np.abs(v) > 1e-12)
    if nz.size:
        v = v * (np.abs(v[nz[0]]) / v[nz[0]])
    return v


def polynomial_roots(coeffs):
    """Roots of sum_m c_m z^m (ascending coefficients), via the companion
    matrix of the monic-normalized polynomial."""
    c = np.asarray(coeffs, dtype=complex)
    if not np.any(c):
        raise ValueError("zero polynomial")
    tol = 1e-12 * np.abs(c).max()
    deg = np.flatnonzero(np.abs(c) > tol).max()
    if deg == 0:
        return np.zeros(0, complex)
    # np.roots builds the companion matrix and takes eigenvalues; it wants
    # descending coefficient order
    return np.roots(c[deg::-1])


def roots_to_angles(roots):
    """Invert the exponent map z = exp(-j pi sin theta) of each root:
    theta = -arcsin(arg(z)/pi) in degrees, in the order given."""
    return -np.degrees(np.arcsin(np.clip(np.angle(roots) / np.pi, -1.0, 1.0)))
