"""The solver skeleton shared by both recovery algorithms.

Both algorithms run their iterative denoiser inside the same pieces:

* a matched-atom greedy initializer on a coarse angle grid (with a few
  cyclic re-selection sweeps, which fixes the occasional greedy mistake),
  scoring each residual r as |r^H a| against the unit-norm atoms a,
* root selection by fitted gain energy when the annihilating filter has more
  roots than sources, and a ValueError when it has fewer,
* a maximum-likelihood polish: variable-projection least squares over the
  angles (gains eliminated in closed form) interleaved with per-angle global
  rescans on a fine grid, so the final estimate sits in the ML basin instead
  of wherever the algebraic extraction left it; varpro and the rescan build
  their operator responses with one helper, ``_atoms``, from the model's
  ``steering_matrix`` and ``steering_derivative``, and the polish returns the
  projected residual at varpro's end point with its angles,
* the projected-gradient loop (``pgd``) on the latent beta = [x_R; x_T]: one
  config (``PgdConfig``), one step rule and one affine data step
  b -> A b + c, with A and c built once per solve and the solver's
  projection of its Hankel lifting passed in,
* a residual-gated multistart (``multistart``) that reruns the whole solve,
  starting over with each other initialization, while the residual its
  polish recorded sits above the noise floor; and the RS/TS-labelled result
  every solver returns.

Both grid scans, the initializer's at INIT_STEP and the rescan's at FINE_STEP,
hold each side's atoms as a ``structured_linalg.GridDictionary`` over the
model's cached ``grid_steering``, so neither builds a t_s x G atom block.
"""

from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np

from . import structured_linalg as sl
from .star_ris_model import FINE_STEP, grid_steering, steering_derivative, steering_matrix

INIT_STEP, INIT_CYCLES = 0.5, 3   # grid_init: grid step (degrees), re-selection sweeps
RESCAN_CYCLES = 2                 # coordinate_rescan: sweeps over the fine grid
INITS = ("Zero", "Backprojection", "Grid")


@dataclass(frozen=True)
class PgdConfig:
    """Settings of one solve, shared by both algorithms. A setting no solve
    can run raises ValueError naming its field; frozen, so every config a
    solver sees passed these checks."""
    k_r: int = 2               # reflection-side sources
    k_t: int = 2               # transmission-side sources
    i_max: int = 200
    eps: float = 1e-7
    init: str = "Backprojection"   # one of INITS

    def __post_init__(self):
        for name, least in (("k_r", 0), ("k_t", 0), ("i_max", 1), ("eps", 0)):
            if not getattr(self, name) >= least:
                raise ValueError(f"{name}={getattr(self, name)} is below its least value {least}")
        if self.k == 0:
            raise ValueError("k_r + k_t = 0: no source to estimate")
        if self.init not in INITS:
            raise ValueError(f"init={self.init!r} is none of {', '.join(INITS)}")

    @property
    def k(self):
        return self.k_r + self.k_t


@dataclass
class RecoveryResult:
    """One solve's RS/TS-labelled angles, its PGD report, and the data
    residual its polish reached, which ``multistart`` gates on."""
    angles: list               # [(theta_deg, 'RS'|'TS'), ...]
    iterations: int
    residual_history: list     # per-iteration update norms ||b_new - b_old||
    converged: bool
    residual: float            # ||y - A s_hat|| at the angles, from the polish's last varpro pass


def label_angles(th_r, th_t):
    """[(theta, 'RS'), ...] + [(theta, 'TS'), ...], each side ascending."""
    return [(float(a), 'RS') for a in np.sort(th_r)] + [(float(a), 'TS') for a in np.sort(th_t)]


def grid_init(psi, y, k_r, k_t):
    """Greedy matched-atom initialization of (x_R, x_T) on a coarse grid.

    Atoms are the unit-norm operator responses psi_half^T a(theta), one
    ``GridDictionary`` per side, scored and fitted through its factors. After
    the greedy pass, each selected atom is cyclically dropped, the rest re-fit,
    and its subspace rescanned; this repairs greedy support errors at moderate
    SNR. Returns the two initial latent vectors and the selected angles.
    """
    n = psi.shape[0] // 2
    grid, sv = grid_steering(n, INIT_STEP)
    dicts = [sl.GridDictionary.of(half.T, grid, sv) for half in (psi[:n], psi[n:])]
    sel = []                                     # (side, grid index) per atom

    def fit(support):
        """Residual and gains of the least-squares fit of y on the atoms support."""
        A = (np.column_stack([dicts[s].columns(i) for s, i in support]) if support
             else np.zeros((len(y), 0), complex))
        coef, *_ = np.linalg.lstsq(A, y, rcond=None)
        return y - np.dot(A, coef), coef

    def score(side, residual):
        return np.abs(dicts[side].correlation(residual))

    res = y.copy()
    for _ in range(k_r + k_t):
        c = [score(s, res) if sum(t == s for t, _ in sel) < k else np.full(len(grid), -1.0)
             for s, k in enumerate((k_r, k_t))]
        side = 0 if c[0].max() >= c[1].max() else 1
        sel.append((side, int(np.argmax(c[side]))))
        res, _ = fit(sel)
    for _ in range(INIT_CYCLES):
        changed = False
        for j, (side, i) in enumerate(sel):
            best = int(np.argmax(score(side, fit(sel[:j] + sel[j + 1:])[0])))
            if best != i:
                sel[j] = (side, best)
                changed = True
        if not changed:
            break
    x = np.zeros((2, n), complex)
    th = ([], [])
    for (side, i), c in zip(sel, fit(sel)[1]):
        x[side] += c * dicts[side].scale[i] * sv[:, i]
        th[side].append(grid[i])
    return x[0], x[1], np.sort(th[0]), np.sort(th[1])


def select_roots_by_energy(roots, k, sig_cols):
    """Keep the k candidate roots carrying the most fitted signal energy.

    The signal columns are jointly regressed on the Vandermonde of all
    candidates; each root is scored by |coefficient|^2 times its column
    energy. This both breaks unit-circle-distance ties and rejects the
    spurious null-space roots that appear when the filter order exceeds the
    number of sources. Fewer candidates than k raise ValueError.
    """
    roots = np.asarray(roots)
    if len(roots) < k:
        raise ValueError(f"the annihilating filter has {len(roots)} roots for {k} sources")
    sig_cols = np.atleast_2d(np.asarray(sig_cols).T).T   # (n, m)
    n = sig_cols.shape[0]
    V = np.vander(roots, n, increasing=True).T           # (n, n_roots)
    coef, *_ = np.linalg.lstsq(V, sig_cols, rcond=None)
    energy = (np.abs(coef) ** 2).sum(axis=1) * (np.abs(V) ** 2).sum(axis=0)
    return roots[np.argsort(-energy)[:k]]


def _atoms(psi, S, k_r):
    """t_s x K operator responses of the steering block S: its first k_r
    columns through the RS half of psi, the rest through the TS half."""
    n = psi.shape[0] // 2
    return np.hstack([np.dot(psi[:n].T, S[:, :k_r]), np.dot(psi[n:].T, S[:, k_r:])])


def least_squares(fun, x0, jac, xtol, ftol, gtol, max_nfev):
    """Levenberg-Marquardt on the residual vector fun with the Jacobian jac:
    MINPACK's ``lmder``, called through ``_lmder`` of scipy's compiled
    MINPACK module (``sl.load_scipy``, at the first call) on a flattened
    float copy of x0.

    The exact call ``scipy.optimize.leastsq`` makes, and the same ``lmder``
    call as ``scipy.optimize.least_squares(method='lm')`` (step bound factor
    100, scaling from the Jacobian's column norms, row derivatives), so the
    end point and the evaluation count are the same bit for bit. It skips
    leastsq's wrapper (a residual and a Jacobian at x0 to check their shapes,
    and a covariance from the end point's factor) and least_squares'
    per-evaluation bookkeeping and extra Jacobian at the end point. Returns a
    namespace with the end point ``x``, the residual vector there ``fun`` and
    the evaluation count ``nfev``."""
    x, info, _ = sl.load_scipy().minpack._lmder(fun, jac, np.asarray(x0, float).flatten(), (),
                                                1, 0, ftol, xtol, gtol, max_nfev, 100, None)
    return SimpleNamespace(x=x, fun=info['fvec'], nfev=info['nfev'])


def varpro_refine(y, psi, th_r, th_t):
    """Local ML refinement of the angles with gains projected out.

    Levenberg-Marquardt on the real/imaginary parts of the projected residual
    y - A(theta) s_hat(theta); plain variable projection, converging to the
    ML stationary point of the basin it starts in. The Jacobian uses the
    Kaufman form -P_perp dA s_hat, which leaves the gradient of the projected
    functional exact because the dropped term lies in range(A). A and dA are
    ``_atoms`` of the steering matrix S and of its ``steering_derivative``
    (per degree), which reuses S's exponentials. The solver is MINPACK's
    ``lmder`` through ``least_squares``, so scipy's compiled MINPACK loads at
    the first polish.

    Each point the solver asks for is solved once: its steering matrix,
    atoms, gains and residual are kept under the point's bytes, and its
    Jacobian is added when the solver first asks for it. The solver asks
    for the residual at the start twice (the compiled wrapper sizes its
    output, then ``lmder`` starts), for each other point's residual once,
    and for the Jacobian once at each point it accepts.

    Returns (th_r, th_t, residual), the residual ||y - A s_hat|| at the end
    point: the norm of the solver's own residual vector there, so the fit is
    not solved again.
    """
    k_r = len(th_r)
    n = psi.shape[0] // 2
    th0 = np.concatenate([th_r, th_t]).astype(float)
    points = {}

    def solve(th):
        key = th.tobytes()
        point = points.get(key)
        if point is None:
            S = steering_matrix(th, n)
            A = _atoms(psi, S, k_r)
            s, *_ = np.linalg.lstsq(A, y, rcond=None)
            r = y - np.dot(A, s)
            point = SimpleNamespace(S=S, A=A, s=s, f=np.concatenate([r.real, r.imag]), J=None)
            points[key] = point
        return point

    def resid(th):
        return solve(th).f

    def jac(th):
        p = solve(th)
        if p.J is None:
            cols = _atoms(psi, steering_derivative(th, p.S) * (np.pi / 180.0), k_r) * p.s[None, :]
            proj, *_ = np.linalg.lstsq(p.A, cols, rcond=None)
            J = -(cols - np.dot(p.A, proj))
            p.J = np.concatenate([J.real, J.imag])
        return p.J

    sol = least_squares(resid, th0, jac, xtol=1e-12, ftol=1e-12, gtol=1e-12, max_nfev=400)
    return sol.x[:k_r], sol.x[k_r:], float(np.linalg.norm(sol.fun))


def coordinate_rescan(y, psi, th_r, th_t):
    """Per-angle global 1-D rescans to escape wrong local basins.

    For each angle in turn, the other atoms are projected out (QR) and the
    orthogonalized matched-filter score is maximized over a fine grid; the
    angle jumps to the global 1-D optimum if it differs.

    The candidates of a side are the unit-norm atoms a of its FINE_STEP
    ``GridDictionary``, built once per call. With Q an orthonormal basis of
    the other atoms, the score of a is |y^H a - (Q^H y)^H Q^H a|^2 /
    (1 - ||Q^H a||^2), and y^H a and Q^H a are the dictionary's correlations
    of y and of Q's columns: the projected candidates are never formed, and
    no t_s x G candidate block is built.
    """
    n = psi.shape[0] // 2
    grid, sv = grid_steering(n, FINE_STEP)
    dicts = [sl.GridDictionary.of(half.T, grid, sv) for half in (psi[:n], psi[n:])]
    corr_y = [d.correlation(y) for d in dicts]
    th = list(th_r) + list(th_t)
    k_r = len(th_r)
    K = len(th)
    for _ in range(RESCAN_CYCLES):
        changed = False
        for k in range(K):
            others = steering_matrix([th[j] for j in range(K) if j != k], n)
            Q, _ = np.linalg.qr(_atoms(psi, others, k_r - (k < k_r)))
            side = int(k >= k_r)
            QA = dicts[side].correlation(Q)
            num = corr_y[side] - (Q.conj().T @ y).conj() @ QA
            score = np.abs(num) ** 2 / np.maximum(1.0 - (np.abs(QA) ** 2).sum(axis=0), 1e-12)
            i = int(np.argmax(score))
            if abs(grid[i] - th[k]) > FINE_STEP / 2:
                th[k] = grid[i]
                changed = True
        if not changed:
            break
    return np.array(th[:k_r]), np.array(th[k_r:])


def polish_angles(y, psi, th_r, th_t):
    """Full polish: local ML, global per-angle rescan, and a second local ML
    pass only when the rescan actually moved an angle. Returns (th_r, th_t,
    residual), with the residual of the last varpro pass."""
    th_r, th_t, residual = varpro_refine(y, psi, th_r, th_t)
    new_r, new_t = coordinate_rescan(y, psi, th_r, th_t)
    if np.array_equal(new_r, th_r) and np.array_equal(new_t, th_t):
        return th_r, th_t, residual
    return varpro_refine(y, psi, new_r, new_t)


def pgd_step(psi):
    """The PGD step 1 / (2 lambda_max) for the 2n x t_s operator psi, with
    lambda_max = sigma_max(psi)^2, whatever the lifting and its order.

    numpy's SVD, not ``sl.eigh``: the 2n x 2n Gram matrix is large enough
    for scipy's LAPACK to start its own BLAS thread pool, which then competes
    with numpy's for the cores and doubled the time of a solve with
    unpinned BLAS threads."""
    lam = np.linalg.svd(psi, compute_uv=False)[0] ** 2
    if lam == 0:
        raise ValueError("zero operator")
    return 0.5 / lam


def pgd(batch, config, psi, b0, project):
    """Projected gradient on beta = [x_R; x_T] from the start b0.

    Each iteration: b <- project(b + 2 mu psi^* (y - psi^T b)), with mu from
    ``pgd_step`` and project the solver's rank-K truncation of its lifting.
    The gradient step is affine in b, so it runs as one 2n x 2n matvec,
    project(A b + c) with A = I - 2 mu psi^* psi^T and c = 2 mu psi^* y built
    once per solve; every product is ``np.dot``, which skips the ufunc
    dispatch of ``@`` at these sizes with the same result. Stops once the
    update norm is at most config.eps. Returns (b, iterations, update norms,
    converged).
    """
    mu = pgd_step(psi)
    psi_c = psi.conj()
    A = np.eye(psi.shape[0]) - 2 * mu * np.dot(psi_c, psi.T)
    c = 2 * mu * np.dot(psi_c, batch.y)
    b = b0.copy()
    history = []
    converged = False
    it = 0
    for it in range(1, config.i_max + 1):
        db = project(np.dot(A, b) + c)
        d = db - b
        step = np.sqrt(np.vdot(d, d).real)
        history.append(step)
        b = db
        if step <= config.eps:
            converged = True
            break
    return b, it, history, converged


def check_nonzero(y):
    """Reject all-zero measurements: they carry no source to estimate."""
    if not np.any(y):
        raise ValueError("all-zero measurements y: no source to estimate")


def check_slots(t_s, k):
    """Reject fewer slots t_s than sources k: the data cannot resolve them."""
    if t_s < k:
        raise ValueError(f"t_s={t_s} slots cannot resolve K_R+K_T={k} sources")


def _residual_gate(batch):
    """A final fit should not sit far above the noise floor; anything beyond
    this gate means the solver landed in a wrong basin and a restart from a
    different initialization is worth the cost."""
    return max(2.0 * np.sqrt(batch.sigma_n2 * len(batch.y)), 1e-8 * np.linalg.norm(batch.y))


def multistart(batch, config, solve_once):
    """Residual-gated multistart around one solver.

    solve_once(config) runs one whole solve from config.init and returns a
    RecoveryResult, whose residual is its polish's fit to y. While the best
    residual sits above the noise-floor gate, the solve is rerun with each
    remaining initialization and the lowest residual wins.
    """
    best = solve_once(config)
    gate = _residual_gate(batch)
    for init in (i for i in INITS if i != config.init):
        if best.residual <= gate:
            break
        alt = solve_once(replace(config, init=init))
        if alt.residual < best.residual:
            best = alt
    return best
