"""Grid-based comparison estimators: FFT beam scan, OMP and SBL.

All three work on a per-subspace dictionary of effective slot responses: the
atom for angle theta in the reflection space is the top half of the paired
operator applied to the steering vector, and the bottom (G-weighted) half for
the transmission space. They estimate RS and TS angles separately with known
per-subspace source counts, and are grid-limited by construction.

Every atom factorises as atoms = basis @ steer * scale: a t_s x n slot basis
(the transposed operator half), the n x G Vandermonde steering matrix and the
per-column normalisation. SBL runs each EM step through this factorisation,
so a step costs O(n*G + t_s^2*n) instead of the O(t_s^2*G) of a dense solve
against every atom. The default grid and steering are the model's cached
fine grid of the search range (``star_ris_model.grid_steering``).
"""

from dataclasses import dataclass

import numpy as np

from .star_ris_model import FINE_STEP, grid_steering, steering_matrix

GUARD_DEG = 1.0   # least separation of two picked spectrum peaks, degrees


@dataclass
class GridDictionary:
    grid: np.ndarray      # angles, degrees, strictly increasing
    atoms: np.ndarray     # (t_s, len(grid)), unit-norm columns
    # factors of atoms = basis @ steer * scale, filled by build_dictionary
    basis: np.ndarray = None   # (t_s, n) slot basis
    steer: np.ndarray = None   # (n, len(grid)) Vandermonde steering matrix
    scale: np.ndarray = None   # (len(grid),) inverse column norms


def build_dictionary(batch, subspace, grid=None):
    """The subspace's dictionary over grid (degrees), by default the cached fine grid."""
    psi = batch.operator_paired
    n = psi.shape[0] // 2
    if grid is None:
        grid, steer = grid_steering(n, FINE_STEP)
    else:
        grid = np.asarray(grid, float)
        if grid.size == 0:
            raise ValueError("empty grid")
        steer = steering_matrix(grid, n)
    basis = (psi[:n] if subspace == 'RS' else psi[n:]).T
    atoms = basis @ steer
    norms = np.maximum(np.linalg.norm(atoms, axis=0), 1e-15)
    return GridDictionary(grid=grid, atoms=atoms / norms, basis=basis, steer=steer,
                          scale=1.0 / norms)


def _pick_peaks(P, grid, k_i):
    """k_i highest local maxima of a spectrum, separated by at least
    GUARD_DEG; padded with the best remaining grid points (flagged) when the
    spectrum has fewer usable peaks. k_i = 0 picks nothing, unflagged."""
    if k_i == 0:
        return grid[:0], False
    if not np.any(P):
        return np.sort(grid[np.zeros(k_i, int)]), True
    interior = np.zeros(len(P), bool)
    interior[1:-1] = (P[1:-1] >= P[:-2]) & (P[1:-1] >= P[2:])
    interior[0] = P[0] >= P[1]
    interior[-1] = P[-1] >= P[-2]
    order = np.argsort(-P)
    picked = []
    for i in order:
        if not interior[i]:
            continue
        if all(abs(grid[i] - grid[j]) >= GUARD_DEG for j in picked):
            picked.append(i)
        if len(picked) == k_i:
            break
    flagged = len(picked) < k_i
    for i in order:
        if len(picked) == k_i:
            break
        if i not in picked:
            picked.append(i)
    return np.sort(grid[picked]), flagged


def fft_scan(batch, dictionary, k_i):
    """Beam-scan spectrum P(theta) = |atom^H y|^2; returns its k_i highest
    well-separated peaks."""
    if k_i < 1:
        raise ValueError("k_i >= 1")
    P = np.abs(dictionary.atoms.conj().T @ batch.y) ** 2
    return _pick_peaks(P, dictionary.grid, k_i)


def omp(batch, dictionary, k_i):
    """Standard greedy pursuit: pick the atom best correlated with the
    residual, least-squares refit on the support, repeat k_i times."""
    A = dictionary.atoms
    if k_i > A.shape[1]:
        raise ValueError("k_i exceeds grid size")
    res = batch.y.copy()
    support = []
    flagged = False
    for _ in range(k_i):
        c = np.abs(A.conj().T @ res)
        c[support] = -1
        support.append(int(np.argmax(c)))
        As = A[:, support]
        if np.linalg.matrix_rank(As) < len(support):
            flagged = True
        coef = np.linalg.pinv(As) @ batch.y
        res = batch.y - As @ coef
    return np.sort(dictionary.grid[support]), flagged


@dataclass
class SblConfig:
    max_em: int = 200
    prune_tol: float = 1e-6
    tol: float = 1e-6


def _lag_sums(n):
    """(n, n*n) matrix taking a flattened n x n Hermitian M to the weighted
    lag sums c with v^H M v = Re(v^H c) for every Vandermonde column v of
    unit-modulus nodes: c_0 = trace(M), c_l = 2 * sum_k M[k, k-l] for l >= 1."""
    k = np.arange(n)
    lag = np.subtract.outer(k, k).ravel()
    return (lag == k[:, None]) * np.where(k == 0, 1.0, 2.0)[:, None]


def sbl_gamma(y, dictionaries, sigma_n2, config=None):
    """EM evidence maximization: per-atom prior variances gamma under known
    noise variance, over the atoms of all dictionaries jointly (returned
    concatenated in dictionary order). The EM update is
    gamma_g <- |mu_g|^2 + Sigma_gg (Wipf & Rao, IEEE TSP 2004).

    Each step runs through the factorisation atoms_h = basis_h @ steer_h *
    scale_h of every dictionary h: with weights w = gamma * scale^2, the
    prior covariance basis_h R_h basis_h^H has the Hermitian Toeplitz R_h
    whose first column is steer_h @ w_h, so Sy = sigma^2 I + sum_h basis_h
    R_h basis_h^H. One solve against [y, basis_1, basis_2, ...] then gives
    mu = gamma * scale * steer^H (basis^H Sy^-1 y) and the posterior-variance
    term a^H Sy^-1 a = scale^2 * Re(steer^H c), with c the lag sums of
    basis^H Sy^-1 basis. A step costs O(n*G + t_s^2*n) for G atoms, n
    elements and t_s slots. Returns (gamma, aborted_flag)."""
    if config is None:
        config = SblConfig()
    sig2 = max(sigma_n2, 1e-10)
    n = dictionaries[0].basis.shape[1]
    bases = np.hstack([d.basis for d in dictionaries])
    bases_h = bases.conj().T
    rhs = np.column_stack([y, bases])
    steers_h = [np.ascontiguousarray(d.steer.conj().T) for d in dictionaries]
    scale = np.concatenate([d.scale for d in dictionaries])
    scale2 = scale ** 2
    splits = np.cumsum([d.scale.size for d in dictionaries])[:-1]
    rows = [slice(h * n, (h + 1) * n) for h in range(len(dictionaries))]
    toeplitz_index = np.subtract.outer(np.arange(n), np.arange(n)) + n - 1
    lag_sums = _lag_sums(n)
    noise = sig2 * np.eye(len(y), dtype=complex)
    by = bases_h @ y
    gamma = np.abs(scale * np.concatenate(
        [s_h @ by[r] for s_h, r in zip(steers_h, rows)])) ** 2   # matched-filter start
    for _ in range(config.max_em):
        act = gamma > config.prune_tol * max(gamma.max(), 1e-30)
        ga = np.where(act, gamma, 0.0)
        w = ga * scale2
        Sy = noise.copy()
        for d, w_h, r in zip(dictionaries, np.split(w, splits), rows):
            first = d.steer @ w_h                          # first column of R_h
            R = np.concatenate([first[:0:-1].conj(), first])[toeplitz_index]
            Sy += d.basis @ R @ bases_h[r]
        proj = bases_h @ np.linalg.solve(Sy, rhs)   # basis^H Sy^-1 [y, bases]
        # per atom: column 0 is a^H Sy^-1 y / scale, and the real part of
        # column 1 is a^H Sy^-1 a / scale^2
        per_atom = np.concatenate([
            s_h @ np.column_stack([proj[r, 0], lag_sums @ proj[r, 1 + r.start:1 + r.stop].ravel()])
            for s_h, r in zip(steers_h, rows)])
        mu = ga * scale * per_atom[:, 0]
        diag = ga - ga ** 2 * scale2 * per_atom[:, 1].real
        new = np.abs(mu) ** 2 + np.maximum(diag, 0.0)
        if not np.all(np.isfinite(new)):
            return gamma, True
        delta = np.abs(new - gamma).max()
        gamma = new
        if delta <= config.tol * max(gamma.max(), 1e-30):
            break
    return gamma, False


def sbl_full_space(batch, dict_rs, dict_ts, k_r, k_t, config=None):
    """SBL over the joint RS/TS dictionary, read out per subspace.

    A single-subspace dictionary cannot explain the energy arriving through
    the other side of the surface, so the EM noise model is violated and the
    evidence maximization wanders; fitting both halves jointly and picking
    peaks per half keeps the per-subspace reporting while the model stays
    well-specified.
    """
    gamma, aborted = sbl_gamma(batch.y, (dict_rs, dict_ts), batch.sigma_n2, config)
    n_r = dict_rs.grid.size
    a_r, f_r = _pick_peaks(gamma[:n_r], dict_rs.grid, k_r)
    a_t, f_t = _pick_peaks(gamma[n_r:], dict_ts.grid, k_t)
    return a_r, a_t, f_r or f_t or aborted
