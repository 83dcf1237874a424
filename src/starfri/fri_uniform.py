"""Recovery in the element-wise uniform regime (Algorithm 1).

In the uniform regime every slot measurement is linear in the combined vector
x_R + g(t) x_T, so the data see beta = [x_R; x_T] through the
uniform-assumption operator Psi_u, whose bottom half is g(t) times its top
half. Both halves are K-term exponential sums over one shared set of roots:
the solver alternates a gradient step on the data fit with a rank-K
truncation of the vertical pair [H(x_R); H(x_T)] (the same truncation kernel
as Algorithm 2, on the other lifting), then reads all K angles off
one annihilating filter of the denoised pair and labels each root RS or TS by
which half carries its gain.
"""

import numpy as np

from . import structured_linalg as sl
from .refine import (RecoveryResult, check_nonzero, check_slots, grid_init, label_angles,
                     multistart, pgd, pgd_step, polish_angles, select_roots_by_energy)
from .star_ris_model import UNIFORM, steering_matrix


def uniform_assumption_operator(batch):
    """The paired operator the uniform latent model implies: bottom half is
    g(t) times the top half. Identical to the exact operator in the uniform
    scenario; deliberately mismatched otherwise."""
    n = batch.operator_paired.shape[0] // 2
    top = batch.operator_paired[:n]
    return np.vstack([top, batch.g[None, :] * top])


def lifting(batch, config):
    """(Psi_u, alpha): the uniform-assumption operator and the fixed lifting
    order n // 2. Rejects fewer slots than sources, and an order K the lift
    of one half cannot hold."""
    check_slots(len(batch.y), config.k)
    psi = uniform_assumption_operator(batch)
    n = psi.shape[0] // 2
    alpha = n // 2
    sl.check_feasible(config.k, alpha, n, alpha + 1)
    return psi, alpha


def initial_iterate(batch, config, psi):
    """Start on beta: zero, the backprojection 2 mu Psi_u^* y, or the grid
    start, whose atoms are matched under the exact paired operator."""
    if config.init == "Zero":
        return np.zeros(psi.shape[0], complex)
    if config.init == "Backprojection":
        return 2 * pgd_step(psi) * (psi.conj() @ batch.y)
    x_r, x_t, _, _ = grid_init(batch.operator_paired, batch.y, config.k_r, config.k_t)
    return np.concatenate([x_r, x_t])


def pgd_denoise(batch, config):
    """Projected gradient on beta = [x_R; x_T] under Psi_u.

    Gradient step on ||y - Psi_u^T beta||^2 (``refine.pgd``), then rank-K
    truncation of the vertical pair [H(x_R); H(x_T)] - one root set for both
    halves - and anti-diagonal averaging of each half.

    The pair, 2(n-alpha) x (alpha+1), is the gather of
    ``structured_linalg.stacked_hankel_lift``, through its index
    ``_stacked_index``; it is truncated by the kernel M2 also uses
    (``structured_linalg.rank_truncate``), and both halves average back to
    beta in one ``np.dot`` with the averaging matrix ``_avg_t``. The index
    and the matrix are looked up once per solve, so the loop skips the
    kernels' per-call checks on beta and alpha.
    """
    psi, alpha = lifting(batch, config)
    n = psi.shape[0] // 2
    idx = sl._stacked_index(n, alpha)
    Wt = sl._avg_t(n - alpha, alpha + 1)

    def project(db):
        return np.dot(sl.rank_truncate(db[idx], config.k).reshape(2, -1), Wt).reshape(-1)

    return pgd(batch, config, psi, initial_iterate(batch, config, psi), project)


def extract_af(denoised, alpha):
    """Annihilating filter of a denoised beta: smallest right singular vector
    of the vertical pair [H(x_R); H(x_T)]."""
    return sl.smallest_right_singular_vector(sl.stacked_hankel_lift(denoised, alpha))


def af_spectrum(af_coeffs, grid):
    """|C(e^{-j pi sin theta})| over the grid, normalized to peak 1."""
    v = np.abs(af_coeffs @ steering_matrix(grid, len(af_coeffs)))
    peak = v.max()
    return v / peak if peak > 0 else v


def label_subspaces(b, g, roots, k_t):
    """Mark as TS the k_t roots whose gain sits most in beta's x_T half.

    Each root's gains s_R, s_T on the two halves are fitted by least squares
    on the Vandermonde of the roots. Over the slots, the root contributes
    s_R + g(t) s_T to the measured signal, so |s_T| ||g|| against
    |s_R| sqrt(t_s) compares the energy of its TS and RS parts.
    """
    V = np.vander(roots, len(b) // 2, increasing=True).T     # (n, K)
    s, *_ = np.linalg.lstsq(V, b.reshape(2, -1).T, rcond=None)   # (K, 2): s_R, s_T
    margin = np.abs(s[:, 1]) * np.linalg.norm(g) - np.abs(s[:, 0]) * np.sqrt(len(g))
    is_ts = np.zeros(len(roots), bool)
    is_ts[np.argsort(-margin)[:k_t]] = True
    return is_ts


def estimate_angles_uniform(batch, config):
    """End-to-end Algorithm 1 inside the shared residual-gated multistart.

    The multistart runs only when the solver's model matches the batch
    scenario: a mismatched-scenario solve is returned as it is, since it
    carries no accuracy contract. All-zero measurements are rejected in
    either case.
    """
    check_nonzero(batch.y)
    if batch.scenario != UNIFORM:
        return _estimate_uniform_once(batch, config)
    return multistart(batch, config, lambda cfg: _estimate_uniform_once(batch, cfg))


def _estimate_uniform_once(batch, config):
    """One denoise / annihilate / root / label / polish pass."""
    psi, alpha = lifting(batch, config)
    b, it, history, converged = pgd_denoise(batch, config)
    c = extract_af(b, alpha)
    roots = select_roots_by_energy(sl.polynomial_roots(c), config.k, b.reshape(2, -1).T)
    angles = sl.roots_to_angles(roots)
    is_ts = label_subspaces(b, batch.g, roots, config.k_t)
    th_r, th_t, residual = polish_angles(batch.y, psi, np.sort(angles[~is_ts]),
                                         np.sort(angles[is_ts]))
    return RecoveryResult(angles=label_angles(th_r, th_t), iterations=it,
                          residual_history=history, converged=converged, residual=residual)
