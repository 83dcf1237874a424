"""Recovery in the element-wise uniform regime (Algorithm 1).

The T_s slot measurements are linear in the combined latent vector
r(t) = x_R + g(t) x_T, which is a K-term sum of complex exponentials for
every slot. The solver alternates a gradient step on the data fit with a
projection of the stacked per-slot Hankel lifting onto rank K, then reads the
angles off the annihilating filter of the denoised stack.
"""

from dataclasses import dataclass, replace

import numpy as np

from . import structured_linalg as sl
from .refine import _atoms, grid_init, polish_angles, select_roots_by_energy
from .star_ris_model import UNIFORM


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


@dataclass
class RecoveryResult:
    angles: list               # [(theta_deg, 'RS'|'TS'), ...]
    af_coeffs: np.ndarray
    iterations: int
    residual_history: list     # per-iteration update norms ||b_new - b_old||
    converged: bool
    denoised: np.ndarray
    mismatched: bool = False   # solver model does not match the batch scenario

    def by_subspace(self):
        rs = np.sort([a for a, lab in self.angles if lab == 'RS'])
        ts = np.sort([a for a, lab in self.angles if lab == 'TS'])
        return rs, ts


def step_size_bounds(rows, alpha):
    """Admissible step interval (1 -+ 1/sqrt(alpha+1)) / (2 lambda_max).

    The operator is block-diagonal across slots, so lambda_max of Phi^H Phi is
    just the largest squared slot-row norm.
    """
    rows = np.asarray(rows)
    lam = (np.abs(rows) ** 2).sum(axis=1).max()
    if lam == 0:
        raise ValueError("zero operator")
    w = 1.0 / np.sqrt(alpha + 1)
    return (1.0 - w) / (2.0 * lam), (1.0 + w) / (2.0 * lam)


def _check_feasible(k, alpha, n):
    if k > min(alpha + 1, n - alpha):
        raise ValueError(f"order K={k} infeasible for alpha={alpha}, n={n}")


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
    _check_feasible(config.k, alpha, n)
    mu = config.mu
    if mu is None:
        lo, hi = step_size_bounds(rows, alpha)
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
    m = np.arange(len(af_coeffs))
    E = np.exp(-1j * np.pi * np.outer(m, np.sin(np.radians(grid))))
    v = np.abs(af_coeffs @ E)
    peak = v.max()
    return v / peak if peak > 0 else v


def _roots_to_angles_raw(roots):
    return -np.degrees(np.arcsin(np.clip(np.angle(roots) / np.pi, -1.0, 1.0)))


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


def _fit_residual(y, psi, th_r, th_t):
    """Norm of the data residual with gains projected out at the given angles."""
    A = _atoms(psi, th_r, th_t)
    s, *_ = np.linalg.lstsq(A, y, rcond=None)
    return np.linalg.norm(y - A @ s)


def _retry_inits(first_init):
    return [i for i in ("Zero", "Backprojection", "Grid") if i != first_init]


def _residual_gate(batch):
    """A final fit should not sit far above the noise floor; anything beyond
    this gate means the solver landed in a wrong basin and a restart from a
    different initialization is worth the cost."""
    return max(2.0 * np.sqrt(batch.sigma_n2 * len(batch.y)), 1e-8 * np.linalg.norm(batch.y))


def estimate_angles_uniform(batch, config, k_r=None, k_t=None):
    """End-to-end Algorithm 1 with a residual-gated multi-start.

    The solve is run from config.init; when the solver's model matches the
    batch scenario and the final data fit sits above the noise floor, it is
    rerun from the remaining initializations and the best fit is kept.
    Mismatched-scenario solves are never retried (no accuracy contract).
    """
    res = _estimate_uniform_once(batch, config, k_r, k_t)
    if batch.scenario != UNIFORM or not config.polish:
        return res
    psi_u = uniform_assumption_operator(batch)
    gate = _residual_gate(batch)
    best = (_fit_residual(batch.y, psi_u, *res.by_subspace()), res)
    for init in _retry_inits(config.init):
        if best[0] <= gate:
            break
        alt = _estimate_uniform_once(batch, replace(config, init=init), k_r, k_t)
        r = _fit_residual(batch.y, psi_u, *alt.by_subspace())
        if r < best[0]:
            best = (r, alt)
    return best[1]


def _estimate_uniform_once(batch, config, k_r=None, k_t=None):
    """One denoise / annihilate / root / label / polish pass."""
    rows, t_s, n, alpha, _ = _resolve(batch, config)
    b, it, history, converged = pgd_denoise(batch, config, k_r=k_r, k_t=k_t)
    c, degenerate = extract_af(b, alpha)
    if degenerate:
        roots = np.exp(-1j * np.pi * np.linspace(-0.5, 0.5, config.k))
    else:
        roots = select_roots_by_energy(sl.polynomial_roots(c), config.k, b)
    angles = _roots_to_angles_raw(roots)
    is_ts = label_subspaces(b, batch.g, roots, k_r, k_t)
    th_r = np.sort(angles[~is_ts])
    th_t = np.sort(angles[is_ts])
    if config.polish and not degenerate:
        psi_u = uniform_assumption_operator(batch)
        th_r, th_t = polish_angles(batch.y, psi_u, th_r, th_t)
    labeled = [(float(a), 'RS') for a in np.sort(th_r)] + [(float(a), 'TS') for a in np.sort(th_t)]
    return RecoveryResult(
        angles=labeled, af_coeffs=c, iterations=it,
        residual_history=history, converged=converged, denoised=b,
        mismatched=(batch.scenario != UNIFORM),
    )
