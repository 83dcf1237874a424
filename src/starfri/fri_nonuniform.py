"""Recovery in the element-wise nonuniform regime (Algorithm 2).

Here the reflection and transmission latent vectors x_R, x_T cannot be merged
into one per-slot exponential sum, but each is an exponential sum on its own,
so the two annihilating-filter constraints are imposed jointly through one
horizontally paired Hankel lifting of rank K = K_R + K_T. Angle extraction is
then done per subspace, which makes the RS/TS labels inherent.
"""

import numpy as np

from . import structured_linalg as sl
from .refine import (RecoveryResult, check_nonzero, check_slots, grid_init, label_angles,
                     multistart, pgd, pgd_step, polish_angles, select_roots_by_energy)


def lifting(batch, config):
    """(Psi, alpha): the exact paired operator and the fixed lifting order
    n // 3. Rejects fewer slots than sources, and an order K the paired lift
    cannot hold."""
    check_slots(len(batch.y), config.k)
    psi = batch.operator_paired
    n = psi.shape[0] // 2
    alpha = n // 3
    sl.check_feasible(config.k, alpha, n, 2 * (alpha + 1))
    return psi, alpha


def initial_iterate(batch, config, psi):
    """Start on beta: zero, the backprojection 2 mu Psi^* y, or the grid start."""
    if config.init == "Zero":
        return np.zeros(psi.shape[0], complex)
    if config.init == "Backprojection":
        return 2 * pgd_step(psi) * (psi.conj() @ batch.y)
    x_r, x_t, _, _ = grid_init(psi, batch.y, config.k_r, config.k_t)
    return np.concatenate([x_r, x_t])


def pgd_denoise_paired(batch, config):
    """Projected gradient on the static stacked vector beta = [x_R; x_T].

    Gradient step on ||y - Psi^T beta||^2 (``refine.pgd``), then rank-K
    truncation of the horizontal pair [H(x_R), H(x_T)] and anti-diagonal
    averaging of each half: the pair is gathered from beta whole
    (``structured_linalg.paired_hankel_lift``) and averaged back to beta
    whole (``structured_linalg.inverse_paired_hankel``).
    """
    psi, alpha = lifting(batch, config)

    def project(db):
        return sl.inverse_paired_hankel(
            sl.rank_truncate(sl.paired_hankel_lift(db, alpha), config.k))

    return pgd(batch, config, psi, initial_iterate(batch, config, psi), project)


def estimate_angles_nonuniform(batch, config):
    """End-to-end Algorithm 2 inside the shared residual-gated multistart.

    The exact paired model holds in both scenarios, so the gate is always
    active. All-zero measurements are rejected.
    """
    check_nonzero(batch.y)
    return multistart(batch, config, lambda cfg: _estimate_nonuniform_once(batch, cfg))


def _estimate_nonuniform_once(batch, config):
    """One denoise / per-subspace annihilate / root / polish pass."""
    psi, alpha = lifting(batch, config)
    b, it, history, converged = pgd_denoise_paired(batch, config)
    per_sub = []
    for half, c, k_i in zip(np.split(b, 2), subspace_af_coeffs(b, alpha),
                            (config.k_r, config.k_t)):
        roots = select_roots_by_energy(sl.polynomial_roots(c), k_i, half[:, None])
        per_sub.append(np.sort(sl.roots_to_angles(roots)))
    th_r, th_t, residual = polish_angles(batch.y, psi, *per_sub)
    return RecoveryResult(angles=label_angles(th_r, th_t), iterations=it,
                          residual_history=history, converged=converged, residual=residual)


def subspace_af_coeffs(denoised, alpha):
    """The two per-subspace annihilating filters of a denoised [x_R; x_T]."""
    return tuple(sl.smallest_right_singular_vector(sl.hankel_lift(half, alpha))
                 for half in np.split(np.asarray(denoised), 2))
