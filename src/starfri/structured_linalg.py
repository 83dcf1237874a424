"""Hankel liftings, anti-diagonal averaging, rank truncation and rooting.

Small dense kernels shared by both recovery algorithms. Everything here is a
pure function on numpy arrays; matrices never exceed a few hundred rows, so
every decomposition is one direct LAPACK call and nothing is iterative.

Both PGD solvers also take from here the rules that differ between their
liftings only by a number: the rank-feasibility check (a function of the
lift's column count) and the root -> angle map. Their step, 1 / (2 lambda_max)
of the data operator, does not depend on the lifting (``refine.pgd_step``).

Both spectral steps on a lift are one LAPACK Hermitian eigensolve of its
small Gram matrix, ``eigh``: the rank-K truncation both PGD solvers run in
every iteration (``rank_truncate``) and the annihilating filter
(``smallest_right_singular_vector``). PGD's step (``refine.pgd_step``)
stays on numpy's SVD of the 2n-row operator (see there).
The other kernels carry no set-up beyond their arithmetic. A Hankel lift is
one gather v[..., idx] through a cached read-only index (``_hankel_index``);
a pair lift one gather from the whole 2n-vector beta = [x_R; x_T] through
its layout's index: ``_stacked_index`` for Algorithm 1's vertical pair
[H(x_R); H(x_T)], ``_paired_index`` for Algorithm 2's horizontal pair
[H(x_R), H(x_T)]. Every average, of a lift or of a pair's halves back into
beta, is a product with a cached complex averaging matrix (``_avg_t``).

The products of the PGD iteration's kernels, of the grid dictionaries and of
the polish are ``np.dot``: on these 9 x 9 to 32 x 32 operands it gives the
same bits as ``@`` and skips matmul's ufunc dispatch, which is a sizeable
share of each product's time.

Every grid scan (the grid start, the polish's rescan and the grid baselines)
holds the atoms B v of a slot basis B (t_s x n) over unit-modulus steering
columns v as one ``GridDictionary`` of factors: its norms ||B v||^2 =
Re(c^H v) come from the lag sums c of B^H B (``_lag_sums``), and its
correlations r^H B v from one O(n*G) product, so no t_s x G block is built.

scipy is imported in one place, ``load_scipy``, at its first call: only the
gridless solvers use it (``eigh`` and the polish's ``refine.least_squares``),
so ``import starfri``, the grid baselines and the bound load numpy alone.
"""

import functools
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np


def check_feasible(k, alpha, n, cols):
    """Reject a lifting order alpha outside 1..n-1 (``_check_alpha``) and an
    order K that an (n - alpha) x cols lift cannot hold."""
    _check_alpha(n, alpha)
    if k > min(cols, n - alpha):
        raise ValueError(f"order K={k} infeasible for a {n - alpha} x {cols} lift "
                         f"(alpha={alpha}, n={n})")


def _check_alpha(n, alpha):
    if not 1 <= alpha < n:
        raise ValueError(f"alpha out of range: alpha={alpha} outside 1..n-1 for n={n}")


@functools.lru_cache(maxsize=None)
def _hankel_index(n, alpha):
    """Read-only (n-alpha) x (alpha+1) index array idx[i, m] = i + m."""
    idx = np.arange(n - alpha)[:, None] + np.arange(alpha + 1)
    idx.flags.writeable = False
    return idx


@functools.lru_cache(maxsize=None)
def _paired_index(n, alpha):
    """Read-only index [idx, idx + n] into beta = [v_1; v_2] (length 2n)
    whose gather is the horizontal pair [H(v_1), H(v_2)]."""
    idx = _hankel_index(n, alpha)
    pair = np.hstack([idx, idx + n])
    pair.flags.writeable = False
    return pair


@functools.lru_cache(maxsize=None)
def _stacked_index(n, alpha):
    """Read-only index [idx; idx + n] into beta = [v_1; v_2] (length 2n)
    whose gather is the vertical pair [H(v_1); H(v_2)]."""
    idx = _hankel_index(n, alpha)
    stack = np.vstack([idx, idx + n])
    stack.flags.writeable = False
    return stack


@functools.lru_cache(maxsize=None)
def _avg_t(rows, cols):
    """Read-only complex (rows*cols) x (rows+cols-1) averaging matrix:
    Wt[i*cols + j, i + j] = 1 / (entries on anti-diagonal i + j), so that
    np.dot(vec(m), Wt) is the anti-diagonal mean of a rows x cols m."""
    diag = (np.arange(rows)[:, None] + np.arange(cols)).ravel()
    Wt = np.zeros((rows * cols, rows + cols - 1), complex)
    Wt[np.arange(rows * cols), diag] = 1.0 / np.bincount(diag)[diag]
    Wt.flags.writeable = False
    return Wt


def hankel_lift(v, alpha):
    """(n-alpha) x (alpha+1) Hankel matrix with entry (i, m) = v[i+m].

    One gather through the cached index ``_hankel_index(n, alpha)``; leading
    axes of v are kept, so a t x n input gives t lifts.
    """
    v = np.asarray(v)
    n = v.shape[-1]
    _check_alpha(n, alpha)
    return v[..., _hankel_index(n, alpha)]


def _gather_pair(beta, alpha, index):
    """beta[index(n, alpha)] for a 2n-vector beta, once beta and alpha are checked."""
    beta = np.asarray(beta)
    if beta.ndim != 1 or len(beta) % 2:
        raise ValueError(f"beta of shape {beta.shape} is not one 2n-vector [v_1; v_2]")
    _check_alpha(len(beta) // 2, alpha)
    return beta[index(len(beta) // 2, alpha)]


def stacked_hankel_lift(beta, alpha):
    """Vertical pair [H_alpha(v_1); H_alpha(v_2)] of beta = [v_1; v_2]: one
    gather through the cached index ``_stacked_index``."""
    return _gather_pair(beta, alpha, _stacked_index)


def paired_hankel_lift(beta, alpha):
    """Horizontal pair [H_alpha(v_1), H_alpha(v_2)] of beta = [v_1; v_2]:
    one gather through the cached index ``_paired_index``."""
    return _gather_pair(beta, alpha, _paired_index)


def inverse_hankel(m):
    """Anti-diagonal averaging: entry k of the output is the mean of m[i, j]
    over i + j = k. Exact inverse of hankel_lift on Hankel inputs; leading
    axes of m are kept, and a real m gives a real output."""
    m = np.asarray(m)
    rows, cols = m.shape[-2:]
    out = np.dot(m.reshape(*m.shape[:-2], rows * cols), _avg_t(rows, cols))
    return out if np.iscomplexobj(m) else out.real


def inverse_paired_hankel(m):
    """Average each half of a horizontally paired lift back to beta = [v_1; v_2].

    Each half is one ``np.dot`` with the cached averaging matrix ``_avg_t``,
    written into its half of one preallocated 2n-vector. The halves stay two
    products: one product with a block-diagonal matrix lets BLAS group the
    nonzero terms differently, which changes the last bit for some lift
    shapes (alpha = 2 among them). m is a 2-D array.
    """
    rows, cols = m.shape
    if cols % 2:
        raise ValueError("odd column count")
    half = cols // 2
    Wt = _avg_t(rows, half)
    n = Wt.shape[1]
    beta = np.empty(2 * n, complex)
    np.dot(m[:, :half].reshape(-1), Wt, out=beta[:n])
    np.dot(m[:, half:].reshape(-1), Wt, out=beta[n:])
    return beta


@functools.lru_cache(maxsize=None)
def load_scipy():
    """scipy's LAPACK lookup ``get_lapack_funcs`` and MINPACK driver
    ``leastsq`` (Levenberg-Marquardt, ``lmder`` with a user Jacobian),
    imported at the first call and cached.

    The one scipy import of the package. Only the gridless solvers call it,
    so a process that runs the grid baselines or the bound alone never pays
    scipy's import (about 0.3 s over numpy's).
    """
    from scipy.linalg import get_lapack_funcs
    from scipy.optimize import leastsq
    return SimpleNamespace(get_lapack_funcs=get_lapack_funcs, leastsq=leastsq)


@functools.lru_cache(maxsize=None)
def _eigh_routine(dtype):
    """(name, routine) of LAPACK's Hermitian eigensolver for dtype, looked up
    once per dtype: ``heevd`` (``zheevd`` for complex128), ``syevd`` for a
    real dtype."""
    name = "heevd" if dtype.kind == "c" else "syevd"
    solve, = load_scipy().get_lapack_funcs((name,), dtype=dtype)
    return solve.typecode + name, solve


def eigh(gram):
    """Ascending eigenvalues and unit eigenvectors (columns) of a Hermitian
    matrix from one LAPACK call, ``heevd`` (``syevd`` for real input),
    resolved through ``load_scipy`` once per dtype. A failed solve or a
    non-finite input raises LinAlgError."""
    name, solve = _eigh_routine(gram.dtype)
    w, vecs, info = solve(gram, lower=1)
    # LAPACK returns info = 0 for some non-finite inputs (a NaN in a 2 x 2
    # Gram, for one); such an input, or a Gram that overflowed, leaves the
    # largest eigenvalue NaN or inf
    if info != 0 or not math.isfinite(w[-1]):
        raise np.linalg.LinAlgError(
            f"{name} failed: info={info}, largest eigenvalue {w[-1]}")
    return w, vecs


def rank_truncate(m, k):
    """Best rank-k Frobenius approximation (keep the k largest singular values).

    Projects onto the top-k eigenvectors (``eigh``) of the smaller Gram
    matrix: U_k (U_k^H m) with U_k from m m^H when m is wide, (m V_k) V_k^H
    with V_k from m^H m when it is tall. m is a 2-D array. A non-finite
    entry, a Gram matrix that overflows or a failed solve raises LinAlgError.
    """
    rows, cols = m.shape
    if not 1 <= k <= min(rows, cols):
        raise ValueError("k out of range")
    mh = m.conj().T
    if rows <= cols:
        top = eigh(np.dot(m, mh))[1][:, -k:]
        return np.dot(top, np.dot(top.conj().T, m))
    top = eigh(np.dot(mh, m))[1][:, -k:]
    return np.dot(np.dot(m, top), top.conj().T)


@functools.lru_cache(maxsize=None)
def _lag_sums(n):
    """Read-only (n, n*n) matrix taking a flattened n x n Hermitian M to the
    weighted lag sums c with v^H M v = Re(v^H c) for every Vandermonde column
    v of unit-modulus nodes: c_0 = trace(M), c_l = 2 * sum_k M[k, k-l] for
    l >= 1."""
    k = np.arange(n)
    lag = np.subtract.outer(k, k).ravel()
    lags = (lag == k[:, None]) * np.where(k == 0, 1.0, 2.0)[:, None]
    lags.flags.writeable = False
    return lags


@dataclass
class GridDictionary:
    """The unit-norm atoms basis @ steer[:, g] * scale[g] of a grid, held
    as these factors only."""
    grid: np.ndarray    # (G,) angles, degrees, strictly increasing
    basis: np.ndarray   # (t_s, n) slot basis
    steer: np.ndarray   # (n, G) Vandermonde steering matrix
    scale: np.ndarray   # (G,) inverse column norms of basis @ steer

    @classmethod
    def of(cls, basis, grid, steer):
        """The dictionary of basis over the steering columns of grid. Each
        squared column norm |basis v|^2 = Re(c^H v) comes from c, the lag sums
        of basis^H basis; a zero column gets a finite scale from the floor."""
        c = _lag_sums(steer.shape[0]) @ (basis.conj().T @ basis).ravel()
        norms2 = (c.conj() @ steer).real
        return cls(grid, basis, steer, 1.0 / np.maximum(np.sqrt(np.maximum(norms2, 0.0)), 1e-15))

    def correlation(self, r):
        """r^H a for every atom a, by one O(n*G) product; for a t_s x m
        matrix r, the m x G block of its columns' correlations."""
        return np.dot(np.dot(r.conj().T, self.basis), self.steer) * self.scale

    def columns(self, cols):
        """The atoms at grid indices cols: (t_s, len(cols)) for a list of
        indices, (t_s,) for one."""
        return np.dot(self.basis, self.steer[:, cols] * self.scale[cols])


def smallest_right_singular_vector(m):
    """Unit right singular vector of the smallest singular value, as the
    eigenvector (``eigh``) of the smallest eigenvalue of m^H m.

    Phase-normalized so the first entry with magnitude above 1e-12 is real
    positive.
    """
    m = np.asarray(m)
    if m.shape[1] < 2:
        raise ValueError("need at least 2 columns")
    v = eigh(m.conj().T @ m)[1][:, 0]
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
