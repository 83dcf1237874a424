"""Recovery in the element-wise uniform regime (Algorithm 1).

The T_s slot measurements are linear in the combined latent vector
r(t) = x_R + g(t) x_T, which is a K-term sum of complex exponentials for
every slot. The solver alternates a gradient step on the data fit with a
projection of the stacked per-slot Hankel lifting onto rank K, then reads the
angles off the annihilating filter of the denoised stack.
"""

from dataclasses import dataclass

import numpy as np

from . import structured_linalg as sl
from .refine import (RecoveryResult, grid_init, label_angles, multistart, polish_angles,
                     select_roots_by_energy)
from .star_ris_model import UNIFORM, steering_matrix


@dataclass
class PgdConfig:
    alpha: int = None          # lifting order; None -> floor(n/2)
    k: int = 4                 # model order (total number of sources)
    mu: float = None           # step size; None -> interval midpoint
    i_max: int = 200
    eps: float = 1e-7
    init: str = "Backprojection"   # Zero | Backprojection | Grid
    temporal_projection: bool = True
    polish: bool = True


def _temporal_projector(g):
    # projector onto span{1, g(t)} along the slot axis; pinv copes with the
    # rank-deficient case of a constant gain sequence
    t_s = len(g)
    X = np.column_stack([np.ones(t_s), g])
    return X @ np.linalg.pinv(X)


def _resolve(batch, config):
    rows = batch.operator_uniform
    t_s, n = rows.shape
    alpha = config.alpha if config.alpha is not None else n // 2
    sl.check_feasible(config.k, alpha, n, alpha + 1)
    mu = config.mu
    if mu is None:
        # the operator is block-diagonal across slots, so lambda_max of
        # Phi^H Phi is the largest squared slot-row norm
        lo, hi = sl.step_size_bounds((np.abs(rows) ** 2).sum(axis=1).max(), alpha)
        mu = 0.5 * (lo + hi)
    return rows, t_s, n, alpha, mu


def initial_iterate(batch, config, mu, k_r=None, k_t=None):
    rows = batch.operator_uniform
    t_s, n = rows.shape
    if config.init == "Zero":
        return np.zeros((n, t_s), complex)
    if config.init == "Backprojection":
        return 2 * mu * (rows.conj().T * batch.y[None, :])
    if config.init == "Grid":
        kr = k_r if k_r is not None else config.k // 2
        kt = k_t if k_t is not None else config.k - kr
        x_r, x_t, _, _ = grid_init(batch.operator_paired, batch.y, kr, kt)
        return x_r[:, None] + batch.g[None, :] * x_t[:, None]
    raise ValueError(f"unknown init {config.init!r}")


def pgd_denoise(batch, config, b0=None, k_r=None, k_t=None):
    """Projected-gradient denoising of the stacked slot vectors.

    Each iteration: b <- b + 2 mu Phi^H (y - Phi b), then lift every slot,
    truncate the stack to rank K, average back, and (optionally) project the
    slot trajectories onto span{1, g(t)} - the temporal structure the latent
    model implies. Stops when the update norm falls below eps.

    The lift is never formed; every step runs in n x n form on the slot-major
    iterate db (t_s x n). The stack's Gram matrix is a fixed gather-and-sum
    over D = db^H db, its top-K eigenvectors V_K give P = V_K V_K^H, and
    truncating and averaging the lift is the one right-multiply db @ M(P)
    (see ``structured_linalg._stacked_maps``).
    """
    rows, t_s, n, alpha, mu = _resolve(batch, config)
    y = batch.y
    K = config.k
    b = initial_iterate(batch, config, mu, k_r, k_t) if b0 is None else b0.copy()
    b = np.ascontiguousarray(b.T)                            # slot-major (t_s, n)
    gather, T = sl._stacked_maps(n, alpha)
    P_t = _temporal_projector(batch.g) if config.temporal_projection else None
    rows_c = 2 * mu * rows.conj()
    history = []
    converged = False
    it = 0
    for it in range(1, config.i_max + 1):
        res = y - np.einsum('tn,tn->t', rows, b)
        db = b + res[:, None] * rows_c
        D = db.conj().T @ db
        _, V = np.linalg.eigh(D.ravel()[gather].sum(axis=0).reshape(alpha + 1, alpha + 1))
        Vk = V[:, -K:]
        # T is real: multiply the (re, im) pairs of vec(P) as a real (., 2) matrix
        P = (Vk @ Vk.conj().T).reshape(-1).view(float).reshape(-1, 2)
        db = db @ (T @ P).view(complex).reshape(n, n)
        if P_t is not None:
            db = P_t @ db
        step = np.linalg.norm(db - b)
        history.append(step)
        b = db
        if step <= config.eps:
            converged = True
            break
    return b.T, it, history, converged


def extract_af(denoised, alpha):
    """Annihilating filter of the denoised stack: smallest right singular
    vector of the stacked Hankel lifting."""
    b = np.asarray(denoised)
    H = sl.stacked_hankel_lift(b.T, alpha)
    c, degenerate = sl.smallest_right_singular_vector(H)
    return c, degenerate


def af_spectrum(af_coeffs, grid):
    """|C(e^{-j pi sin theta})| over the grid, normalized to peak 1."""
    v = np.abs(af_coeffs @ steering_matrix(grid, len(af_coeffs)))
    peak = v.max()
    return v / peak if peak > 0 else v


def label_subspaces(b, g, roots, k_r=None, k_t=None):
    """Classify each recovered root as RS or TS from its per-slot gain track.

    The per-slot gains are recovered by least squares on the Vandermonde of
    the roots; a source behind the surface inherits the known g(t) modulation
    while a reflection-side source has a constant track. When the subspace
    cardinalities are known the k_t roots with the largest TS margin are
    assigned to TS.
    """
    n = b.shape[0]
    V = np.vander(roots, n, increasing=True).T           # (n, K)
    s_hat, *_ = np.linalg.lstsq(V, b, rcond=None)        # (K, t_s)
    t_s = b.shape[1]
    norm_s = np.maximum(np.linalg.norm(s_hat, axis=1), 1e-15)
    corr_g = np.abs(s_hat @ g.conj()) / (norm_s * max(np.linalg.norm(g), 1e-15))
    corr_c = np.abs(s_hat.sum(axis=1)) / (norm_s * np.sqrt(t_s))
    margin = corr_g - corr_c
    K = len(roots)
    if k_t is None:
        is_ts = margin > 0
    else:
        is_ts = np.zeros(K, bool)
        is_ts[np.argsort(-margin)[:k_t]] = True
    return is_ts


def uniform_assumption_operator(batch):
    """The paired operator the uniform latent model implies: bottom half is
    g(t) times the top half. Identical to the exact operator in the uniform
    scenario; deliberately mismatched otherwise."""
    rows_t = batch.operator_uniform.T                    # (n, t_s)
    return np.vstack([rows_t, batch.g[None, :] * rows_t])


def estimate_angles_uniform(batch, config, k_r=None, k_t=None):
    """End-to-end Algorithm 1 inside the shared residual-gated multistart.

    The multistart runs only when the solver's model matches the batch
    scenario: a mismatched-scenario solve is returned as it is, since it
    carries no accuracy contract.
    """
    if batch.scenario != UNIFORM:
        return _estimate_uniform_once(batch, config, k_r, k_t)
    return multistart(batch, uniform_assumption_operator(batch), config,
                      lambda cfg: _estimate_uniform_once(batch, cfg, k_r, k_t))


def _estimate_uniform_once(batch, config, k_r=None, k_t=None):
    """One denoise / annihilate / root / label / polish pass."""
    rows, t_s, n, alpha, _ = _resolve(batch, config)
    b, it, history, converged = pgd_denoise(batch, config, k_r=k_r, k_t=k_t)
    c, degenerate = extract_af(b, alpha)
    if degenerate:
        # no filter to root: spread placeholder roots over the aperture
        roots = steering_matrix(np.degrees(np.arcsin(np.linspace(-0.5, 0.5, config.k))), 2)[1]
    else:
        roots = select_roots_by_energy(sl.polynomial_roots(c), config.k, b)
    angles = sl.roots_to_angles(roots)
    is_ts = label_subspaces(b, batch.g, roots, k_r, k_t)
    th_r = np.sort(angles[~is_ts])
    th_t = np.sort(angles[is_ts])
    if config.polish and not degenerate:
        psi_u = uniform_assumption_operator(batch)
        th_r, th_t = polish_angles(batch.y, psi_u, th_r, th_t)
    return RecoveryResult(
        angles=label_angles(th_r, th_t), af_coeffs=c, iterations=it,
        residual_history=history, converged=converged, denoised=b,
        mismatched=(batch.scenario != UNIFORM),
    )
