"""Grid-based comparison estimators: FFT beam scan, OMP and SBL.

All three work on a per-subspace dictionary of effective slot responses: the
atom for angle theta in the reflection space is the top half of the paired
operator applied to the steering vector, and the bottom (G-weighted) half for
the transmission space. They estimate RS and TS angles separately, each side
with a known order 0 <= k_i <= G, the grid size (else ValueError naming k_i;
k_i = 0 gives no angle, unflagged), and are grid-limited by construction. A
side with fewer than k_i usable peaks is padded with distinct grid points and
flagged.

A side's atoms are the factor-form ``structured_linalg.GridDictionary`` that
every grid scan of the package shares, with the transposed operator half as
its basis. FFT scans its ``correlation`` for y and OMP for its residual, and
``columns`` builds the few atoms a method takes: OMP's support and SBL's
active set. SBL maximises the evidence by Tipping & Faul's fast update,
which adds, re-estimates or deletes one atom per step. It keeps
S = a^H C^-1 a and Q = a^H C^-1 y of every atom across steps, and each move
changes them by one rank-one term, taken for all G atoms through the
factors: a step costs one O(n*G) product plus t_s x M and M x M dense
algebra for M active atoms. ``build_dictionary``'s grid and steering are the
model's cached fine grid of the search range (``star_ris_model.grid_steering``),
and SBL reads that grid's real steering stack from the same cache.
"""

import bisect
import itertools
from dataclasses import dataclass

import numpy as np

from .structured_linalg import GridDictionary
from .star_ris_model import FINE_STEP, grid_steering, stacked_grid_steering

GUARD_DEG = 1.0   # least separation of two picked spectrum peaks, degrees
SBL_NOISE_FLOOR = 1e-8   # SBL's least noise variance, relative to the data's power |y|^2 / t_s


def build_dictionary(batch, subspace):
    """The subspace's dictionary over the model's cached fine grid."""
    psi = batch.operator_paired
    n = psi.shape[0] // 2
    return GridDictionary.of((psi[:n] if subspace == 'RS' else psi[n:]).T,
                             *grid_steering(n, FINE_STEP))


def _stacked_steering(steer):
    """[Re; Im] of a dictionary's n x G steering matrix: the cached stack
    for the model's fine grid, which ``build_dictionary`` uses, and a fresh
    one for any other."""
    n = steer.shape[0]
    if steer is grid_steering(n, FINE_STEP)[1]:
        return stacked_grid_steering(n, FINE_STEP)
    return np.concatenate([steer.real, steer.imag])


def _check_order(k_i, dictionary):
    """Reject a per-subspace order outside 0 <= k_i <= G, the grid size."""
    if not 0 <= k_i <= dictionary.grid.size:
        raise ValueError(f"k_i={k_i} is outside 0..{dictionary.grid.size}, the grid size")


def _pick_peaks(P, grid, k_i):
    """k_i highest local maxima of a spectrum, separated by at least
    GUARD_DEG; padded with the best remaining grid points (flagged) when the
    spectrum has fewer usable peaks. A zero-valued point is no peak, so an
    all-zero spectrum is all padding; k_i = 0 picks nothing, unflagged."""
    edged = np.concatenate([[-np.inf], P, [-np.inf]])
    interior = (P >= edged[:-2]) & (P >= edged[2:]) & (P > 0)   # no peak in a run of zeros
    order = np.argsort(-P)
    picked = []
    for i in order:
        if len(picked) == k_i:
            break
        if interior[i] and all(abs(grid[i] - grid[j]) >= GUARD_DEG for j in picked):
            picked.append(i)
    flagged = len(picked) < k_i
    if flagged:
        picked += [i for i in order if i not in picked][:k_i - len(picked)]
    return np.sort(grid[picked]), flagged


def fft_scan(batch, dictionary, k_i):
    """Beam-scan spectrum P(theta) = |atom^H y|^2; returns its k_i highest
    well-separated peaks."""
    _check_order(k_i, dictionary)
    P = np.abs(dictionary.correlation(batch.y)) ** 2
    return _pick_peaks(P, dictionary.grid, k_i)


def omp(batch, dictionary, k_i):
    """Standard greedy pursuit: pick the atom best correlated with the
    residual, least-squares refit on the support, repeat k_i times; flagged
    when the support's atoms are linearly dependent."""
    _check_order(k_i, dictionary)
    res = batch.y
    support = []
    flagged = False
    for _ in range(k_i):
        c = np.abs(dictionary.correlation(res))
        c[support] = -1
        support.append(int(np.argmax(c)))
        As = dictionary.columns(support)
        coef, _, rank, _ = np.linalg.lstsq(As, batch.y, rcond=None)
        flagged |= rank < len(support)
        res = batch.y - As @ coef
    return np.sort(dictionary.grid[support]), flagged


@dataclass
class SblConfig:
    max_em: int = 200        # cap on the number of single-atom update steps
    prune_tol: float = 1e-6  # kept for callers that count an atom as active when its gamma
                             # exceeds prune_tol * max(gamma); pruned atoms are exactly 0
    tol: float = 1e-3        # stop when no single-atom move gains more log-evidence, nats


class _SblFactors:
    """State of the fast update: the active set with its posterior, and
    S = a^H C^-1 a and |Q|^2 = |a^H C^-1 y|^2 of every atom under the
    current covariance C = sigma^2 I + sum_m gamma_m a_m a_m^H.

    A move changes one gamma_k, so C^-1 changes by a rank-one term along
    u = C_k^-1 a_k, where C_k is C without atom k. move() computes u and
    C_k^-1 y afresh, by Woodbury with one M x M solve against the posterior
    precision of the other active atoms, so no rounding carries over from
    earlier steps. From them come atom k's s_k = a_k^H u and C^-1 y after
    the move. One real (4, 2n) x (2n, G_h) product per dictionary
    takes a^H u and a^H C^-1 y of every atom through the factorisation
    atoms = basis_h @ steer_h * scale_h. S drops by kappa |a^H u|^2 with
    kappa = (new - old) / ((1 + old s_k)(1 + new s_k)); the textbook
    1 / (1 - gamma_k S_k) form is all rounding when gamma_k S_k is close to
    1. Q is replaced outright.

    An inactive atom's s and q are its S and Q. An active atom's
    s = S / (1 - gamma S) and q = Q / (1 - gamma S) would lose all precision
    in the same way, so they come from the posterior (Sigma, mu) of the
    active set: s = 1/Sigma_mm - 1/gamma_m and q = mu_m / Sigma_mm."""

    def __init__(self, y, dictionaries, sigma_n2):
        # a noiseless batch runs at the floor; y = 0 with no noise has nothing
        # to fit at any scale
        sig2 = max(sigma_n2, SBL_NOISE_FLOOR * np.vdot(y, y).real / len(y)) or 1.0
        self.y, self.sig2 = y, sig2
        self.dictionaries = dictionaries
        self.starts = list(itertools.accumulate((d.grid.size for d in dictionaries), initial=0))
        # rows [basis_h^H; -i basis_h^H] per dictionary and W_h = [Re steer_h; Im steer_h]:
        # the real view of [b; -i b] times W_h, times scale_h, gives Re and Im of a^H v
        self.probes = np.vstack([np.vstack([B, -1j * B])
                                 for B in (d.basis.conj().T for d in dictionaries)])
        self.steers = [_stacked_steering(d.steer) for d in dictionaries]
        self.S = np.full(self.starts[-1], 1.0 / sig2)  # unit-norm atoms, empty model
        av = self._products(y[:, None] / sig2)
        self.Q2 = av[0] + av[1]
        self.theta = self.Q2 / self.S                  # |q|^2 / s, -inf on active atoms
        self.act = []                                  # active atoms, in order of entry
        self.g = np.zeros(0)                           # their gammas
        self.A = np.zeros((len(y), 0), complex)        # their atoms
        self._posterior()

    def _atom(self, k):
        h = bisect.bisect_right(self.starts, k) - 1
        return self.dictionaries[h].columns(k - self.starts[h])

    def _products(self, V):
        """Rows Re(a^H v_0), Im(a^H v_0), Re(a^H v_1), ... over all atoms,
        squared, for the columns v of V."""
        X = (self.probes @ V).reshape(len(self.steers), -1, V.shape[1])
        av = np.hstack([(x.view(float).T @ W) * d.scale
                        for x, W, d in zip(X, self.steers, self.dictionaries)])
        av *= av
        return av

    def _posterior(self):
        """s, |q|^2 and best-move gain of every active atom, from the
        posterior of the active set."""
        if not self.act:
            self.s_act = self.q2_act = self.gain_act = np.zeros(0)
            return
        self.H = self._precision(self.A, self.g)
        Sigma = np.linalg.inv(self.H)          # posterior covariance / sigma^2
        mu = Sigma @ (self.A.conj().T @ self.y)
        d = Sigma.diagonal().real * self.sig2
        self.s_act = 1.0 / d - 1.0 / self.g
        self.q2_act = (mu.real ** 2 + mu.imag ** 2) / d ** 2
        theta = np.maximum(self.q2_act / self.s_act, 1.0)
        x = self.g * self.s_act
        self.gain_act = (theta - 1.0 - np.log(theta)
                         - (self.q2_act * self.g / (1.0 + x) - np.log1p(x)))

    def _precision(self, A, g):
        """A^H A + sigma^2 diag(1/g): sigma^2 times the posterior precision
        of atoms A with gammas g."""
        H = A.conj().T @ A
        H.reshape(-1)[::len(g) + 1] += self.sig2 / g
        return H

    def best_move(self):
        """(k, gain, target) of the single move with the largest log-evidence
        gain. An atom contributes l(gamma) = -log(1 + gamma s) +
        |q|^2 gamma / (1 + gamma s), largest at target = (|q|^2 - s) / s^2
        when |q|^2 > s (add or re-estimate) and at gamma = 0 otherwise
        (delete, or leave out), where it is theta - 1 - log(theta) with
        theta = max(|q|^2 / s, 1). That is monotone in theta, so of the
        inactive atoms only the one of largest |q|^2 / s is scored."""
        k = int(np.argmax(self.theta))
        theta = max(self.theta[k], 1.0)
        gain, s, q2 = theta - 1.0 - np.log(theta), self.S[k], self.Q2[k]
        if self.act:
            i = int(np.argmax(self.gain_act))
            if not self.gain_act[i] <= gain:     # a NaN gain is taken, so that it aborts
                k, gain, s, q2 = self.act[i], self.gain_act[i], self.s_act[i], self.q2_act[i]
        return k, gain, (q2 - s) / s ** 2

    def move(self, k, target):
        """Set gamma_k to target (deleting atom k when target <= 0), and
        update S and Q of every atom to the new covariance."""
        M = len(self.act)
        i = self.act.index(k) if k in self.act else M
        A, g = self.A, self.g
        a = self._atom(k)
        B = np.column_stack([a, self.y])
        if i < M:       # C_k leaves atom k out
            A = np.concatenate([A[:, :i], A[:, i + 1:]], axis=1)
            g = np.concatenate([g[:i], g[i + 1:]])
        if g.size:      # C_k^-1 B = (B - A (A^H A + sigma^2 diag(1/g))^-1 A^H B) / sigma^2
            H = self.H if i == M else self._precision(A, g)
            B = B - A @ np.linalg.solve(H, A.conj().T @ B)
        u, v = B.T / self.sig2
        s_k = np.vdot(a, u).real
        g_old = self.g[i] if i < M else 0.0
        g_new = max(target, 0.0)
        resid = v - g_new / (1.0 + g_new * s_k) * np.vdot(a, v) * u    # C^-1 y after the move
        if g_new == 0.0:
            del self.act[i]
            self.A, self.g = A, g
        elif i == M:
            self.act.append(k)
            self.A, self.g = np.column_stack([A, a]), np.append(g, g_new)
        else:
            self.g[i] = g_new
        self._posterior()
        av = self._products(np.column_stack([u, resid]))
        self.S -= (g_new - g_old) / ((1.0 + g_old * s_k) * (1.0 + g_new * s_k)) * (av[0] + av[1])
        self.S[k] = s_k / (1.0 + g_new * s_k)
        self.Q2 = av[2] + av[3]
        self.theta = self.Q2 / self.S
        self.theta[self.act] = -np.inf

    def gamma(self):
        gamma = np.zeros(self.starts[-1])
        gamma[self.act] = self.g
        return gamma


def sbl_gamma(y, dictionaries, sigma_n2, config=None):
    """Evidence maximization by Tipping & Faul's fast marginal-likelihood
    update (AISTATS 2003): per-atom prior variances gamma under known noise
    variance, floored at SBL_NOISE_FLOOR * |y|^2 / t_s, over the atoms of
    all dictionaries jointly (returned concatenated in dictionary order,
    exactly 0 for every pruned atom).

    Starting from the empty model, each step finds the single add,
    re-estimate or delete with the largest log-evidence gain and applies
    it; it stops when no move gains more than config.tol nats. The state
    (``_SblFactors``) keeps S and Q of every atom across steps and updates
    them by one rank-one term per move: a step costs one O(n*G) product
    over the G atoms through the dictionaries' factorisation, plus t_s x M
    and M x M dense algebra for t_s slots and M active atoms. Returns
    (gamma, flag); the flag is set on a non-finite step, and when the loop
    ran all config.max_em steps without the gain test stopping it."""
    if config is None:
        config = SblConfig()
    factors = _SblFactors(y, dictionaries, sigma_n2)
    flagged = False
    for _ in range(config.max_em):
        k, gain, target = factors.best_move()
        if not np.isfinite(gain + target):
            flagged = True
            break
        if gain <= config.tol:
            break
        factors.move(k, target)
    else:
        flagged = True
    return factors.gamma(), flagged


def sbl_full_space(batch, dict_rs, dict_ts, k_r, k_t, config=None):
    """SBL over the joint RS/TS dictionary, read out per subspace.

    A single-subspace dictionary cannot explain the energy arriving through
    the other side of the surface, so the noise model is violated and the
    evidence maximization wanders; fitting both halves jointly and picking
    peaks per half keeps the per-subspace reporting while the model stays
    well-specified.
    """
    _check_order(k_r, dict_rs)
    _check_order(k_t, dict_ts)
    gamma, aborted = sbl_gamma(batch.y, (dict_rs, dict_ts), batch.sigma_n2, config)
    n_r = dict_rs.grid.size
    a_r, f_r = _pick_peaks(gamma[:n_r], dict_rs.grid, k_r)
    a_t, f_t = _pick_peaks(gamma[n_r:], dict_ts.grid, k_t)
    return a_r, a_t, f_r or f_t or aborted
