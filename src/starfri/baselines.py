"""Grid-based comparison estimators: FFT beam scan, OMP and SBL.

All three work on a per-subspace dictionary of effective slot responses: the
atom for angle theta in the reflection space is the top half of the paired
operator applied to the steering vector, and the bottom (G-weighted) half for
the transmission space. They estimate RS and TS angles separately with known
per-subspace source counts, and are grid-limited by construction.

Every atom factorises as atoms = basis @ steer * scale: a t_s x n slot basis
(the transposed operator half), the n x G Vandermonde steering matrix and the
per-column normalisation. SBL maximises the evidence by Tipping & Faul's fast
update, which adds, re-estimates or deletes one atom per step, and scores
every atom's move through this factorisation: a step costs O(n*G) over the
G atoms plus t_s x t_s and M x M dense algebra for M active atoms, instead
of the O(t_s^2*G) of a dense solve against every atom. The default grid and
steering are the model's cached fine grid of the search range
(``star_ris_model.grid_steering``).
"""

from dataclasses import dataclass

import numpy as np

from .star_ris_model import FINE_STEP, grid_steering, steering_matrix

GUARD_DEG = 1.0   # least separation of two picked spectrum peaks, degrees


@dataclass
class GridDictionary:
    grid: np.ndarray      # angles, degrees, strictly increasing
    atoms: np.ndarray     # (t_s, len(grid)), unit-norm columns
    # factors of atoms = basis @ steer * scale, filled by build_dictionary; SBL
    # scores all G atoms per step from them in O(n*G) (see _SblFactors)
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
    interior &= P > 0     # a run of zeros (pruned SBL atoms) holds no peak
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
    max_em: int = 200        # cap on the number of single-atom update steps
    prune_tol: float = 1e-6  # kept for callers that count an atom as active when its gamma
                             # exceeds prune_tol * max(gamma); pruned atoms are exactly 0
    tol: float = 1e-3        # stop when no single-atom move gains more log-evidence, nats


def _lag_sums(n):
    """(n, n*n) matrix taking a flattened n x n Hermitian M to the weighted
    lag sums c with v^H M v = Re(v^H c) for every Vandermonde column v of
    unit-modulus nodes: c_0 = trace(M), c_l = 2 * sum_k M[k, k-l] for l >= 1."""
    k = np.arange(n)
    lag = np.subtract.outer(k, k).ravel()
    return (lag == k[:, None]) * np.where(k == 0, 1.0, 2.0)[:, None]


class _SblFactors:
    """Per-call constants of the fast update, and the scores of one step.

    The atoms of dictionary h factorise as basis_h @ steer_h * scale_h. For
    every atom, S = a^H C^-1 a and Q = a^H C^-1 y come through that
    factorisation: one solve of the t_s x t_s covariance
    C = sigma^2 I + sum_m gamma_m a_m a_m^H against [y, bases] gives
    basis^H C^-1 [y, bases], per-dictionary lag sums turn the S quadratic
    form into one n-vector, and one real (3, 2n) x (2n, G_h) product per
    dictionary gives S and Q of all its atoms. An inactive atom's s and q are
    its S and Q. An active atom's s = S / (1 - gamma S) and
    q = Q / (1 - gamma S) lose all precision when gamma S is close to 1, so
    they are taken from the posterior (Sigma, mu) of the active set instead:
    s = 1/Sigma_mm - 1/gamma_m and q = mu_m / Sigma_mm."""

    def __init__(self, y, dictionaries, sigma_n2):
        sig2 = max(sigma_n2, 1e-10)
        n = dictionaries[0].basis.shape[1]
        self.atoms = np.hstack([d.atoms for d in dictionaries])
        self.atoms_y = (y.conj() @ self.atoms).conj() / sig2     # a^H y / sig2
        bases = np.hstack([d.basis for d in dictionaries])
        self.bases_h = bases.conj().T
        self.rhs = np.column_stack([y, bases])
        self.noise = sig2 * np.eye(len(y))
        self.sig2 = sig2
        # [Re steer_h; Im steer_h], so that Re(steer_h^H v) = W_h^T [Re v; Im v]
        self.steers = [np.concatenate([d.steer.real, d.steer.imag]) for d in dictionaries]
        self.scale2 = np.concatenate([d.scale for d in dictionaries]) ** 2
        self.n = n
        self.lag_sums_t = _lag_sums(n).T.astype(complex)

    def scores(self, act, g):
        """(s, |q|^2, gain) of every atom when the atoms act are active with
        prior variances g and all others are 0; gain is the log-evidence gain
        of the atom's best single move. An atom contributes
        l(gamma) = -log(1 + gamma s) + |q|^2 gamma / (1 + gamma s), largest at
        gamma = (|q|^2 - s) / s^2 when |q|^2 > s (add or re-estimate) and at
        gamma = 0 otherwise (delete, or leave out), where it is
        theta - 1 - log(theta) with theta = max(|q|^2 / s, 1)."""
        n = self.n
        A = self.atoms[:, act]
        A_h = A.conj().T
        proj = self.bases_h @ np.linalg.solve(self.noise + (A * g) @ A_h, self.rhs)
        H = A_h @ A / self.sig2             # posterior precision of the active set
        H.flat[::len(act) + 1] += 1.0 / g
        Sigma = np.linalg.inv(H)
        mu = Sigma @ self.atoms_y[act]
        blocks = np.stack([proj[r:r + n, 1 + r:1 + r + n].ravel() for r in range(0, len(proj), n)])
        c = blocks @ self.lag_sums_t       # per dictionary: v^H M v = Re(v^H c)
        v = proj[:, 0].reshape(c.shape)
        probes = np.stack([c, v, -1j * v], axis=1)
        probes = np.concatenate([probes.real, probes.imag], axis=2)
        # rows: Re(steer^H c), Re(steer^H v) and Im(steer^H v)
        per_atom = np.hstack([p @ W for p, W in zip(probes, self.steers)])
        s = self.scale2 * per_atom[0]
        q2 = self.scale2 * (per_atom[1] ** 2 + per_atom[2] ** 2)
        d = Sigma.diagonal().real
        s[act] = 1.0 / d - 1.0 / g
        q2[act] = (mu.real ** 2 + mu.imag ** 2) / d ** 2
        theta = np.maximum(q2 / s, 1.0)
        gain = theta - 1.0 - np.log(theta)
        x = g * s[act]
        gain[act] -= q2[act] * g / (1.0 + x) - np.log1p(x)
        return s, q2, gain


def sbl_gamma(y, dictionaries, sigma_n2, config=None):
    """Evidence maximization by Tipping & Faul's fast marginal-likelihood
    update (AISTATS 2003): per-atom prior variances gamma under known noise
    variance, over the atoms of all dictionaries jointly (returned
    concatenated in dictionary order, exactly 0 for every pruned atom).

    Starting from the empty model, each step scores the log-evidence gain
    of adding, re-estimating or deleting every atom and applies the single
    best move; it stops when no move gains more than config.tol nats, or
    after config.max_em steps. The scores come through the dictionaries'
    factorisation (``_SblFactors``): a step costs O(n*G) for G atoms and n
    elements, plus t_s x t_s and M x M dense algebra for t_s slots and M
    active atoms. Returns (gamma, aborted_flag), the flag set on a
    non-finite step."""
    if config is None:
        config = SblConfig()
    factors = _SblFactors(y, dictionaries, sigma_n2)
    active = {}     # atom index -> gamma
    aborted = False
    for _ in range(config.max_em):
        act = np.fromiter(active, int, len(active))
        g = np.fromiter(active.values(), float, len(active))
        s, q2, gain = factors.scores(act, g)
        k = int(np.argmax(gain))
        target = (q2[k] - s[k]) / s[k] ** 2
        if not np.isfinite(gain[k] + target):
            aborted = True
            break
        if gain[k] <= config.tol:
            break
        if target > 0:
            active[k] = target
        else:
            del active[k]
    gamma = np.zeros(factors.atoms.shape[1])
    gamma[list(active)] = list(active.values())
    return gamma, aborted


def sbl_full_space(batch, dict_rs, dict_ts, k_r, k_t, config=None):
    """SBL over the joint RS/TS dictionary, read out per subspace.

    A single-subspace dictionary cannot explain the energy arriving through
    the other side of the surface, so the noise model is violated and the
    evidence maximization wanders; fitting both halves jointly and picking
    peaks per half keeps the per-subspace reporting while the model stays
    well-specified.
    """
    gamma, aborted = sbl_gamma(batch.y, (dict_rs, dict_ts), batch.sigma_n2, config)
    n_r = dict_rs.grid.size
    a_r, f_r = _pick_peaks(gamma[:n_r], dict_rs.grid, k_r)
    a_t, f_t = _pick_peaks(gamma[n_r:], dict_ts.grid, k_t)
    return a_r, a_t, f_r or f_t or aborted
