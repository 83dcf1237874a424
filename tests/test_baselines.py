"""Tests for the grid-based comparison estimators."""

import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from starfri import baselines as bl
from starfri import star_ris_model as sm
from starfri import structured_linalg as sl
from starfri.experiments import ExperimentConfig, make_batch, match_and_score, run_method
from starfri.refine import INIT_STEP
from starfri.star_ris_model import grid_steering


def _batch(theta_rs, theta_ts, snr_db=30.0, seed=3, gains=None):
    rng = np.random.default_rng(seed)
    k = len(theta_rs) + len(theta_ts)
    if gains is None:
        gains = np.ones(k, complex)
    scene = sm.UserScene(list(theta_rs), list(theta_ts), np.asarray(gains))
    prof = sm.generate_profile(sm.NONUNIFORM, 16, 32, rng)
    ch = sm.draw_channel(rng, 16)
    return sm.synthesize_measurements(scene, prof, ch, snr_db, rng)


def _with_y(batch, y):
    return sm.MeasurementBatch(y=y, sigma_n2=batch.sigma_n2,
                               operator_paired=batch.operator_paired,
                               g=batch.g, scenario=batch.scenario)


COARSE = np.arange(-60.0, 60.0 + 1e-9, 1.0)


def _dictionary(batch, subspace, grid=None):
    """``build_dictionary``'s dictionary of the side, or, given a grid
    (degrees), the side's dictionary over that grid."""
    if grid is None:
        return bl.build_dictionary(batch, subspace)
    psi = batch.operator_paired
    n = psi.shape[0] // 2
    return sl.GridDictionary.of((psi[:n] if subspace == 'RS' else psi[n:]).T, grid,
                                sm.steering_matrix(grid, n))


def _dense_atoms(*dictionaries):
    """The t_s x G atom block of the dictionaries side by side, built here
    from the factors as an oracle independent of the library's accessors."""
    return np.hstack([d.basis @ (d.steer * d.scale) for d in dictionaries])


def test_dictionary_is_its_factors():
    # four factor fields and no atom block; the correlation and column
    # accessors match the dense block built here, whose atoms are unit-norm,
    # on the baselines' fine grid and on the grid start's INIT_STEP grid
    assert [f.name for f in fields(bl.GridDictionary)] == ["grid", "basis", "steer", "scale"]
    assert bl.GridDictionary is sl.GridDictionary
    batch = _batch([20.0], [-35.0])
    psi = batch.operator_paired
    rng = np.random.default_rng(0)
    r = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    R = rng.standard_normal((32, 3)) + 1j * rng.standard_normal((32, 3))
    for sub, half in (('RS', psi[:16]), ('TS', psi[16:])):
        for d in (bl.build_dictionary(batch, sub),
                  sl.GridDictionary.of(half.T, *grid_steering(16, INIT_STEP))):
            G = d.grid.size
            A = _dense_atoms(d)
            assert np.allclose(np.linalg.norm(A, axis=0), 1.0)
            assert np.all(np.diff(d.grid) > 0)
            for v in (r, R):
                want = v.conj().T @ A
                assert d.correlation(v).shape == want.shape
                assert np.linalg.norm(d.correlation(v) - want) <= 1e-12 * np.linalg.norm(want)
            for cols in ([0, 7, G // 2, G - 1], [G - 1, 3], G // 2):
                want = A[:, cols]
                assert d.columns(cols).shape == want.shape
                assert np.linalg.norm(d.columns(cols) - want) <= 1e-12 * np.linalg.norm(want)


def test_build_dictionary_allocates_less_than_one_atom_block():
    # with the fine grid's steering and the lag sums cached, building the
    # default dictionary must not allocate a t_s x G complex block
    batch = _batch([20.0], [-35.0])
    block = batch.y.size * bl.build_dictionary(batch, 'RS').grid.size * 16
    tracemalloc.start()
    try:
        bl.build_dictionary(batch, 'RS')
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < block


def test_sbl_allocates_less_than_one_real_steering_block():
    # warm, SBL reads the fine grid's [Re; Im] steering stack from the
    # model's cache and scales after the product: no call holds a (2n, G)
    # real block of its own
    _, batch, dicts = _pool_batch(0, 1)
    block = 2 * 16 * dicts[0].grid.size * 8
    bl.sbl_gamma(batch.y, dicts, batch.sigma_n2)
    tracemalloc.start()
    try:
        bl.sbl_gamma(batch.y, dicts, batch.sigma_n2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < block


def test_stacked_steering_is_cached_for_the_fine_grid_only():
    grid, sv = grid_steering(16, sm.FINE_STEP)
    stack = bl._stacked_steering(sv)
    assert stack is sm.stacked_grid_steering(16, sm.FINE_STEP) and not stack.flags.writeable
    assert np.array_equal(stack, np.concatenate([sv.real, sv.imag]))
    fresh = bl._stacked_steering(sv.copy())
    assert fresh is not stack and np.array_equal(fresh, stack)


def test_default_dictionary_matches_explicit_fine_grid():
    # the cached default equals a dictionary built on the fine grid spelled out
    batch = _batch([20.0], [-35.0])
    for sub in ('RS', 'TS'):
        got = bl.build_dictionary(batch, sub)
        want = _dictionary(batch, sub, np.arange(-60.0, 60.0 + 1e-9, 0.1))
        for name in ("grid", "basis", "steer", "scale"):
            assert np.array_equal(getattr(got, name), getattr(want, name))


def test_rs_and_ts_atoms_differ():
    batch = _batch([20.0], [-35.0])
    d_r = _dictionary(batch, 'RS', COARSE)
    d_t = _dictionary(batch, 'TS', COARSE)
    assert not np.allclose(_dense_atoms(d_r), _dense_atoms(d_t))


def test_fft_scan_single_source():
    # single user total: the subspace dictionary is fully matched
    batch = _batch([20.0], [])
    d = bl.build_dictionary(batch, 'RS')
    angles, flagged = bl.fft_scan(batch, d, 1)
    assert not flagged and np.isclose(angles[0], 20.0)


def test_fft_scan_zero_measurement_flagged():
    batch = _batch([20.0], [])
    d = _dictionary(batch, 'RS', COARSE)
    angles, flagged = bl.fft_scan(_with_y(batch, np.zeros(32, complex)), d, 2)
    assert flagged and len(angles) == 2


def test_fft_scan_two_sources():
    batch = _batch([-30.0, 35.0], [], snr_db=20.0, seed=5)
    d = bl.build_dictionary(batch, 'RS')
    angles, _ = bl.fft_scan(batch, d, 2)
    # beam-scan accuracy is beamwidth-limited, not grid-limited
    assert np.max(np.abs(np.sort(angles) - [-30.0, 35.0])) <= 1.0


def test_omp_single_atom():
    batch = _batch([20.0], [])
    d = _dictionary(batch, 'RS', COARSE)
    y = _dense_atoms(d)[:, 80]          # the 20-degree atom
    angles, flagged = bl.omp(_with_y(batch, y), d, 1)
    assert not flagged and angles[0] == 20.0


def test_omp_orthogonal_atoms_exact_support():
    batch = _batch([20.0], [])
    d5 = _dictionary(batch, 'RS', np.arange(-60.0, 60.0 + 1e-9, 5.0))
    Q, _ = np.linalg.qr(_dense_atoms(d5)[:, :24])
    dq = bl.GridDictionary(grid=d5.grid[:24], basis=Q, steer=np.eye(24), scale=np.ones(24))
    y = Q[:, 3] + 0.5 * Q[:, 17]
    angles, _ = bl.omp(_with_y(batch, y), dq, 2)
    assert np.allclose(np.sort(angles), np.sort([dq.grid[3], dq.grid[17]]))


def test_omp_matches_brute_force_pair():
    batch = _batch([20.0], [])
    grid = np.arange(-60.0, 60.0 + 1e-9, 5.0)
    d = _dictionary(batch, 'RS', grid)
    atoms = _dense_atoms(d)
    y = atoms[:, 6] + 0.7 * atoms[:, 19]
    angles, _ = bl.omp(_with_y(batch, y), d, 2)
    best = None
    for a in range(len(grid)):
        for c in range(a + 1, len(grid)):
            A = atoms[:, [a, c]]
            coef, *_ = np.linalg.lstsq(A, y, rcond=None)
            r = np.linalg.norm(y - A @ coef)
            if best is None or r < best[0]:
                best = (r, grid[a], grid[c])
    assert np.allclose(np.sort(angles), np.sort(best[1:]))


def test_sbl_zero_measurement_shrinks_to_zero():
    batch = _batch([20.0], [])
    d = _dictionary(batch, 'RS', COARSE)
    for sigma_n2 in (1e-3, 0.0):    # no noise either: the floor, relative to y, is 0
        gamma, aborted = bl.sbl_gamma(np.zeros(32, complex), (d,), sigma_n2)
        assert not aborted and np.all(gamma <= bl.SblConfig().prune_tol)


def test_sbl_single_source_peak_at_truth():
    # single user total at 30 dB: the evidence maximization must concentrate
    # on the true on-grid atom, and the empty TS side reports no angle
    batch = _batch([20.0], [])
    d_r = _dictionary(batch, 'RS', COARSE)
    d_t = _dictionary(batch, 'TS', COARSE)
    gamma, aborted = bl.sbl_gamma(batch.y, (d_r, d_t), batch.sigma_n2)
    assert not aborted
    assert np.argmax(gamma) == np.flatnonzero(COARSE == 20.0)[0]
    assert np.all(gamma >= 0)
    a_r, a_t, flagged = bl.sbl_full_space(batch, d_r, d_t, 1, 0)
    assert a_r.tolist() == [20.0] and a_t.size == 0 and not flagged


def test_pick_peaks_zero_count_is_empty_and_unflagged():
    grid = np.arange(5.0)
    for spectrum in (np.array([0.0, 1.0, 0.0, 2.0, 0.0]), np.zeros(5)):
        angles, flagged = bl._pick_peaks(spectrum, grid, 0)
        assert angles.size == 0 and not flagged


def test_pick_peaks_zero_points_are_no_peaks():
    # a pruned SBL spectrum: one nonzero peak where two are asked for, so the
    # second angle is padding and flagged, not a zero-valued "local maximum"
    grid = np.arange(6.0)
    angles, flagged = bl._pick_peaks(np.array([0.0, 0.0, 3.0, 0.0, 0.0, 0.0]), grid, 2)
    assert flagged and len(angles) == 2 and 2.0 in angles


@st.composite
def _spectra_with_zero_runs(draw):
    """A nonnegative spectrum: runs of zeros (pruned atoms) between runs of
    positive values, plateaus included, or a short one of 1-4 points."""
    runs = st.lists(st.one_of(
        st.integers(1, 30).map(lambda n: [0.0] * n),
        st.lists(st.floats(1e-12, 1e6), min_size=1, max_size=30),
        st.tuples(st.floats(1e-12, 1e6), st.integers(1, 15)).map(lambda vn: [vn[0]] * vn[1]),
    ), min_size=1, max_size=12).map(lambda rs: sum(rs, []))
    short = st.lists(st.one_of(st.just(0.0), st.floats(1e-12, 1e6)), min_size=1, max_size=4)
    return np.asarray(draw(st.one_of(short, runs)), float)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_pick_peaks_properties(data):
    # any order up to the grid size: k_i sorted, distinct angles, padding only when flagged
    P = data.draw(_spectra_with_zero_runs())
    k_i = data.draw(st.integers(0, min(P.size, 4)))
    grid = -60.0 + 0.1 * np.arange(P.size)
    angles, flagged = bl._pick_peaks(P, grid, k_i)
    assert len(angles) == k_i and np.all(np.diff(angles) > 0)
    if not flagged:
        values = P[np.searchsorted(grid, angles)]
        assert np.all(values > 0)
        assert np.all(np.abs(np.subtract.outer(angles, angles))[~np.eye(k_i, dtype=bool)]
                      >= bl.GUARD_DEG)


# each estimator as (angle arrays..., flag) for one order k on COARSE dictionaries
ORDERED = {
    "FFT": lambda batch, d_r, d_t, k: bl.fft_scan(batch, d_r, k),
    "OMP": lambda batch, d_r, d_t, k: bl.omp(batch, d_r, k),
    "SBL-RS": lambda batch, d_r, d_t, k: bl.sbl_full_space(batch, d_r, d_t, k, 0),
    "SBL-TS": lambda batch, d_r, d_t, k: bl.sbl_full_space(batch, d_r, d_t, 0, k),
}


@pytest.mark.parametrize("estimator", sorted(ORDERED))
def test_order_contract(estimator):
    # 0 <= k_i <= G: k_i = 0 gives no angle, unflagged; outside, ValueError naming k_i
    batch = _batch([20.0], [-35.0])
    d_r = _dictionary(batch, 'RS', COARSE)
    d_t = _dictionary(batch, 'TS', COARSE)
    call = ORDERED[estimator]
    *angles, flagged = call(batch, d_r, d_t, 0)
    assert all(a.size == 0 for a in angles) and not flagged
    for k in (-1, COARSE.size + 1):
        with pytest.raises(ValueError, match="k_i"):
            call(batch, d_r, d_t, k)


def test_omp_flags_a_rank_deficient_support():
    # one slot: any two atoms are dependent, so the second pick must flag
    batch = _batch([20.0], [])
    grid = COARSE[:6]
    d = bl.GridDictionary(grid=grid, basis=np.exp(1j * np.deg2rad(grid))[None, :],
                          steer=np.eye(grid.size), scale=np.ones(grid.size))
    one_slot = _with_y(batch, np.array([1.0 + 0.5j]))
    assert not bl.omp(one_slot, d, 1)[1]
    angles, flagged = bl.omp(one_slot, d, 2)
    assert flagged and len(angles) == 2 and np.all(np.diff(angles) > 0)


def test_sbl_full_space_two_users():
    # with users on both sides, only the joint dictionary is well-specified
    batch = _batch([20.0], [-35.0])
    d_r = _dictionary(batch, 'RS', COARSE)
    d_t = _dictionary(batch, 'TS', COARSE)
    a_r, a_t, flagged = bl.sbl_full_space(batch, d_r, d_t, 1, 1)
    assert a_r[0] == 20.0 and a_t[0] == -35.0


def _dense_sbl_gamma(y, atoms, sigma_n2, config):
    """Reference EM loop: a dense t_s x t_s solve against every active atom
    in each step, O(t_s^2 * G) per step."""
    A = atoms
    t_s = A.shape[0]
    sig2 = max(sigma_n2, 1e-10)
    gamma = np.abs(A.conj().T @ y) ** 2
    for _ in range(config.max_em):
        act = gamma > config.prune_tol * max(gamma.max(), 1e-30)
        Aa = A[:, act]
        ga = gamma[act]
        Sy = sig2 * np.eye(t_s) + (Aa * ga) @ Aa.conj().T
        Si_y = np.linalg.solve(Sy, y)
        Si_A = np.linalg.solve(Sy, Aa)
        mu = ga * (Aa.conj().T @ Si_y)
        diag = ga - ga ** 2 * np.real(np.einsum('tg,tg->g', Aa.conj(), Si_A))
        new = np.zeros_like(gamma)
        new[act] = np.abs(mu) ** 2 + np.maximum(diag, 0.0)
        if not np.all(np.isfinite(new)):
            return gamma, True
        delta = np.abs(new - gamma).max()
        gamma = new
        if delta <= config.tol * max(gamma.max(), 1e-30):
            break
    return gamma, False


EM_CONFIG = bl.SblConfig(max_em=200, prune_tol=1e-6, tol=1e-6)   # the reference EM's settings


def _log_evidence(y, atoms, sigma_n2, gamma):
    """-log det C - y^H C^-1 y with C = sigma^2 I + A diag(gamma) A^H."""
    C = max(sigma_n2, 1e-10) * np.eye(len(y)) + (atoms * gamma) @ atoms.conj().T
    return -np.linalg.slogdet(C)[1] - np.real(y.conj() @ np.linalg.solve(C, y))


def _dense_scores(y, atoms, sigma_n2, gamma):
    """Reference (s, |q|^2, gain) of every atom, by dense t_s x G solves: s
    and q are a^H C^-1 a and a^H C^-1 y of the model without that atom, so an
    active atom's come from a covariance rebuilt from the other atoms."""
    sig2 = max(sigma_n2, 1e-10)
    act = np.flatnonzero(gamma)

    def cov(keep):
        return sig2 * np.eye(len(y)) + (atoms[:, keep] * gamma[keep]) @ atoms[:, keep].conj().T

    Ci = np.linalg.inv(cov(act))
    s = np.real(np.einsum('tg,tg->g', atoms.conj(), Ci @ atoms))
    q = atoms.conj().T @ Ci @ y
    for m in act:
        a = atoms[:, m]
        Cm = np.linalg.inv(cov(act[act != m]))
        s[m] = np.real(a.conj() @ Cm @ a)
        q[m] = a.conj() @ Cm @ y
    q2 = np.abs(q) ** 2
    return s, q2, _gains(s, q2, gamma)


def _gains(s, q2, gamma):
    """Log-evidence gain of each atom's best move: l(gamma) = -log(1 + gamma s)
    + |q|^2 gamma / (1 + gamma s), at its maximiser minus at gamma."""
    def ell(g):
        return -np.log1p(g * s) + q2 * g / (1.0 + g * s)

    best = np.where(q2 > s, ell(np.maximum(q2 - s, 0.0) / s ** 2), 0.0)
    return best - ell(gamma)


class _RescoringFactors:
    """Reference kernel: the fast update's scores of every atom computed anew
    in each step. One solve of the t_s x t_s covariance against
    [y, bases] gives basis^H C^-1 [y, bases]; per-dictionary lag sums turn
    the S quadratic form into one n-vector, and one real (3, 2n) x (2n, G_h)
    product per dictionary gives S and Q of all its atoms. Active atoms take
    s and q from the posterior (Sigma, mu) of the active set."""

    def __init__(self, y, dictionaries, sigma_n2):
        sig2 = max(sigma_n2, 1e-10)
        n = dictionaries[0].basis.shape[1]
        self.atoms = _dense_atoms(*dictionaries)
        self.atoms_y = (y.conj() @ self.atoms).conj() / sig2
        bases = np.hstack([d.basis for d in dictionaries])
        self.bases_h = bases.conj().T
        self.rhs = np.column_stack([y, bases])
        self.noise = sig2 * np.eye(len(y))
        self.sig2 = sig2
        self.steers = [np.concatenate([d.steer.real, d.steer.imag]) for d in dictionaries]
        self.scale2 = np.concatenate([d.scale for d in dictionaries]) ** 2
        self.n = n
        self.lag_sums_t = sl._lag_sums(n).T.astype(complex)

    def scores(self, act, g):
        """(s, |q|^2, gain) of every atom when the atoms act are active with
        prior variances g and all others are 0."""
        n = self.n
        A = self.atoms[:, act]
        A_h = A.conj().T
        proj = self.bases_h @ np.linalg.solve(self.noise + (A * g) @ A_h, self.rhs)
        H = A_h @ A / self.sig2
        H.flat[::len(act) + 1] += 1.0 / g
        Sigma = np.linalg.inv(H)
        mu = Sigma @ self.atoms_y[act]
        blocks = np.stack([proj[r:r + n, 1 + r:1 + r + n].ravel() for r in range(0, len(proj), n)])
        c = blocks @ self.lag_sums_t
        v = proj[:, 0].reshape(c.shape)
        probes = np.stack([c, v, -1j * v], axis=1)
        probes = np.concatenate([probes.real, probes.imag], axis=2)
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


def _rescoring_sbl_gamma(y, dictionaries, sigma_n2, config):
    """Reference loop: the same moves as sbl_gamma, each chosen from a full
    rescoring of every atom, O(t_s^2 * G) per step; flagged on a non-finite
    step or when it runs all config.max_em steps."""
    factors = _RescoringFactors(y, dictionaries, sigma_n2)
    active = {}
    flag = True
    for _ in range(config.max_em):
        act = np.fromiter(active, int, len(active))
        g = np.fromiter(active.values(), float, len(active))
        s, q2, gain = factors.scores(act, g)
        k = int(np.argmax(gain))
        target = (q2[k] - s[k]) / s[k] ** 2
        if not np.isfinite(gain[k] + target):
            break
        if gain[k] <= config.tol:
            flag = False
            break
        if target > 0:
            active[k] = target
        else:
            del active[k]
    gamma = np.zeros(factors.atoms.shape[1])
    gamma[list(active)] = list(active.values())
    return gamma, flag


def _held_sbl_gamma(monkeypatch, y, dicts, sigma_n2, config=None):
    """sbl_gamma's (gamma, flag) and the _SblFactors state it returned from."""
    held = []
    init = bl._SblFactors.__init__

    def capture(self, *args):
        init(self, *args)
        held.append(self)

    monkeypatch.setattr(bl._SblFactors, "__init__", capture)
    gamma, flag = bl.sbl_gamma(y, dicts, sigma_n2, config)
    assert np.array_equal(held[-1].gamma(), gamma)
    return gamma, flag, held[-1]


def _held_s_q2(factors):
    """The s and |q|^2 the loop holds: S and |Q|^2 for inactive atoms, the
    posterior's values for active ones."""
    s, q2 = factors.S.copy(), factors.Q2.copy()
    s[factors.act] = factors.s_act
    q2[factors.act] = factors.q2_act
    return s, q2


def _pool_batch(seed, trial, scenario=1, snr_db=None):
    """Trial `trial` of the grid-baseline benchmark's pool of `seed`:
    n = 16, t_s = 32, two users per side, 0/15/30 dB in turn."""
    if snr_db is None:
        snr_db = (0.0, 15.0, 30.0)[trial % 3]
    cfg = ExperimentConfig(scenario=scenario, n=16, t_s=32, k_r=2, k_t=2, snr_db=snr_db,
                           seed=seed)
    scene, _, _, batch = make_batch(cfg, trial)
    return scene, batch, (bl.build_dictionary(batch, 'RS'), bl.build_dictionary(batch, 'TS'))


@pytest.mark.parametrize("grid", [None, COARSE], ids=["default_grid", "1deg_grid"])
@pytest.mark.parametrize("snr_db", [0.0, 15.0, 30.0])
@pytest.mark.parametrize("scenario", [1, 2], ids=["uniform", "nonuniform"])
def test_sbl_factorised_em_matches_dense_reference(scenario, snr_db, grid, monkeypatch):
    # the s and |q|^2 the loop holds after ten steps and at return, which
    # come from rank-one updates of S and fresh Q, match dense solves to
    # 1e-9 for every atom. After ten steps, so does the gain of the move it
    # would take next, against the best gain taken from those s and |q|^2
    # (at return that gain is below tol, a difference of terms of order
    # theta = |q|^2 / s, up to 3e4 here). Against gains from the dense s and |q|^2 the bound is 1e-6:
    # theta = |q|^2 / s divides by the small s of atoms next to an active one
    cfg = ExperimentConfig(scenario=scenario, snr_db=snr_db, seed=0)
    _, _, _, batch = make_batch(cfg, 0)
    dicts = (_dictionary(batch, 'RS', grid), _dictionary(batch, 'TS', grid))
    for config, capped in ((bl.SblConfig(max_em=10), True), (bl.SblConfig(), False)):
        gamma, flag, factors = _held_sbl_gamma(monkeypatch, batch.y, dicts, batch.sigma_n2,
                                               config)
        assert flag == capped and np.all(np.isfinite(gamma)) and np.any(gamma)
        s, q2 = _held_s_q2(factors)
        s_ref, q2_ref, gain_ref = _dense_scores(batch.y, _dense_atoms(*dicts),
                                                batch.sigma_n2, gamma)
        assert np.abs(s - s_ref).max() <= 1e-9 * s_ref.max()
        assert np.abs(q2 - q2_ref).max() <= 1e-9 * q2_ref.max()
        gain = _gains(s, q2, gamma)
        if capped:
            assert abs(factors.best_move()[1] - gain.max()) <= 1e-9 * gain_ref.max()
        assert np.abs(gain - gain_ref).max() <= 1e-6 * gain_ref.max()


@pytest.mark.parametrize("grid", [None, COARSE], ids=["default_grid", "1deg_grid"])
@pytest.mark.parametrize("snr_db", [0.0, 15.0, 30.0])
@pytest.mark.parametrize("scenario", [1, 2], ids=["uniform", "nonuniform"])
def test_sbl_evidence_at_least_dense_em(scenario, snr_db, grid):
    cfg = ExperimentConfig(scenario=scenario, snr_db=snr_db, seed=0)
    _, _, _, batch = make_batch(cfg, 0)
    dicts = (_dictionary(batch, 'RS', grid), _dictionary(batch, 'TS', grid))
    atoms = _dense_atoms(*dicts)
    gamma, aborted = bl.sbl_gamma(batch.y, dicts, batch.sigma_n2)
    ref, ref_aborted = _dense_sbl_gamma(batch.y, atoms, batch.sigma_n2, EM_CONFIG)
    assert not aborted and not ref_aborted
    assert (_log_evidence(batch.y, atoms, batch.sigma_n2, gamma)
            >= _log_evidence(batch.y, atoms, batch.sigma_n2, ref))


def test_sbl_active_atoms_near_saturation_stay_finite(monkeypatch):
    # scenario 2 at 30 dB on the default grid drives gamma * S of an active
    # atom to 1 - 1e-6 within three steps, where s = S / (1 - gamma S) is all
    # rounding: the active atoms' s and |q|^2 that the loop holds must still
    # match leave-one-out solves there and at the end, and the result must
    # beat the EM's evidence
    cfg = ExperimentConfig(scenario=2, snr_db=30.0, seed=0)
    _, _, _, batch = make_batch(cfg, 0)
    dicts = (bl.build_dictionary(batch, 'RS'), bl.build_dictionary(batch, 'TS'))
    atoms = _dense_atoms(*dicts)
    for config, saturation, capped in ((bl.SblConfig(max_em=3), 1 - 1e-5, True),
                                       (bl.SblConfig(), 1 - 1e-4, False)):
        gamma, flag, factors = _held_sbl_gamma(monkeypatch, batch.y, dicts, batch.sigma_n2,
                                               config)
        assert flag == capped and np.all(np.isfinite(gamma))
        act = np.flatnonzero(gamma)
        A, g = atoms[:, act], gamma[act]
        C = batch.sigma_n2 * np.eye(len(batch.y)) + (A * g) @ A.conj().T
        S = np.real(np.einsum('tg,tg->g', A.conj(), np.linalg.solve(C, A)))
        assert np.max(g * S) > saturation
        s, q2 = _held_s_q2(factors)
        s_ref, q2_ref, _ = _dense_scores(batch.y, atoms, batch.sigma_n2, gamma)
        assert np.allclose(s[act], s_ref[act], rtol=1e-6, atol=0)
        assert np.allclose(q2[act], q2_ref[act], rtol=1e-6, atol=0)
    ref, _ = _dense_sbl_gamma(batch.y, atoms, batch.sigma_n2, EM_CONFIG)
    assert (_log_evidence(batch.y, atoms, batch.sigma_n2, gamma)
            >= _log_evidence(batch.y, atoms, batch.sigma_n2, ref))


@pytest.mark.parametrize("trial", range(12))
def test_sbl_converges_and_prunes_on_the_benchmark_pool(trial, monkeypatch):
    _, batch, dicts = _pool_batch(0, trial)
    move = bl._SblFactors.move
    moves = []

    def counted(self, k, target):
        moves.append(k)
        return move(self, k, target)

    monkeypatch.setattr(bl._SblFactors, "move", counted)
    config = bl.SblConfig()
    gamma, aborted, factors = _held_sbl_gamma(monkeypatch, batch.y, dicts, batch.sigma_n2,
                                              config)
    assert not aborted
    assert 0 < len(moves) < config.max_em     # stopped by the gain test, not by the cap
    act = np.flatnonzero(gamma)
    assert act.size <= 64
    assert _gains(*_held_s_q2(factors), gamma).max() <= config.tol


@pytest.mark.parametrize("seed", [0, 1])
def test_sbl_matches_rescoring_reference_on_the_benchmark_pools(seed):
    # the rank-one update takes the same moves as a full rescoring of every
    # atom in each step: same support, picked angles and flag on every trial
    config = bl.SblConfig()
    for trial in range(12):
        _, batch, dicts = _pool_batch(seed, trial)
        gamma, flag = bl.sbl_gamma(batch.y, dicts, batch.sigma_n2, config)
        ref, ref_flag = _rescoring_sbl_gamma(batch.y, dicts, batch.sigma_n2, config)
        assert np.array_equal(np.flatnonzero(gamma), np.flatnonzero(ref)), trial
        assert flag == ref_flag, trial
        n_r = dicts[0].grid.size

        def picks(g):
            return [bl._pick_peaks(g[:n_r], dicts[0].grid, 2),
                    bl._pick_peaks(g[n_r:], dicts[1].grid, 2)]

        for (a, f), (b, h) in zip(picks(gamma), picks(ref)):
            assert np.array_equal(a, b) and f == h, trial


@pytest.mark.parametrize("scenario", [1, 2], ids=["uniform", "nonuniform"])
def test_sbl_at_40db_matches_references(scenario, monkeypatch):
    # above the benchmark's SNRs: the held s and |q|^2 still match dense
    # solves to 1e-9, and the moves match the full rescoring
    _, batch, dicts = _pool_batch(0, 0, scenario, snr_db=40.0)
    gamma, flag, factors = _held_sbl_gamma(monkeypatch, batch.y, dicts, batch.sigma_n2)
    s, q2 = _held_s_q2(factors)
    s_ref, q2_ref, _ = _dense_scores(batch.y, _dense_atoms(*dicts),
                                     batch.sigma_n2, gamma)
    assert np.abs(s - s_ref).max() <= 1e-9 * s_ref.max()
    assert np.abs(q2 - q2_ref).max() <= 1e-9 * q2_ref.max()
    ref, ref_flag = _rescoring_sbl_gamma(batch.y, dicts, batch.sigma_n2, bl.SblConfig())
    assert not flag and not ref_flag
    assert np.array_equal(np.flatnonzero(gamma), np.flatnonzero(ref))


@pytest.mark.parametrize("trial", range(4))
def test_sbl_noiseless_at_the_noise_floor_recovers_the_scene(trial):
    # sigma_n2 = 0 runs at the floor SBL_NOISE_FLOOR * |y|^2 / t_s, where C
    # is ill-conditioned and s and |q|^2 lose digits in any float64
    # algorithm. The update must stay finite, stop by the gain test and put
    # every picked angle within 0.15 degrees of its user (a full rescoring of
    # every atom fails here: NaN gains, flagged calls and angles tens of
    # degrees off)
    scene, batch, dicts = _pool_batch(0, trial, scenario=2, snr_db=np.inf)
    assert batch.sigma_n2 == 0.0
    gamma, flag = bl.sbl_gamma(batch.y, dicts, batch.sigma_n2)
    assert not flag and np.all(np.isfinite(gamma))
    a_r, a_t, flagged = bl.sbl_full_space(batch, *dicts, 2, 2)
    assert not flagged
    assert np.abs(a_r - np.sort(scene.theta_rs)).max() <= 0.15
    assert np.abs(a_t - np.sort(scene.theta_ts)).max() <= 0.15


@pytest.mark.parametrize("scenario", [1, 2], ids=["uniform", "nonuniform"])
def test_sbl_noiseless_trials_all_succeed(scenario):
    # make_batch seed 0 with no noise, trials 0-11: every SBL call through
    # run_method must pass match_and_score's 5-degree threshold. Under an
    # absolute 1e-10 floor on the noise variance, trials 3 and 8 of scenario 1
    # ended 45 and 13 degrees off, and trial 8 of scenario 2 8.7 degrees off
    cfg = ExperimentConfig(scenario=scenario, n=16, t_s=32, k_r=2, k_t=2, snr_db=np.inf,
                           seed=0)
    for trial in range(12):
        scene, _, _, batch = make_batch(cfg, trial)
        angles, _, _ = run_method("SBL", batch, cfg)
        assert match_and_score(angles, scene, cfg.success_threshold_deg)[1], trial


def test_sbl_flags_the_step_cap():
    # seed 5, trial 9 of the scenario-1 pool runs all 200 steps without the
    # gain test stopping it: the call is flagged, and so is sbl_full_space
    _, batch, dicts = _pool_batch(5, 9)
    gamma, flag = bl.sbl_gamma(batch.y, dicts, batch.sigma_n2)
    assert flag and np.all(np.isfinite(gamma))
    assert bl.sbl_full_space(batch, *dicts, 2, 2)[2]
    assert not bl.sbl_gamma(batch.y, dicts, batch.sigma_n2, bl.SblConfig(max_em=400))[1]


@pytest.mark.parametrize("snr_db", [-1540.0, -3000.0, float(np.nextafter(sm.SNR_DB_MIN, np.inf))],
                         ids=["-1540dB", "-3000dB", "ulp_above_min"])
@pytest.mark.parametrize("method", ["FFT", "OMP", "SBL"])
def test_grid_baselines_stay_finite_down_to_the_snr_floor(method, snr_db):
    # a noise variance up to the largest float overflows nothing (a
    # RuntimeWarning fails the test): each call returns K finite labelled
    # angles. SBL's 1 / sigma^2 terms underflowed from about -1540 dB, and
    # FFT's |a^H y|^2 overflowed near the floor, before both ran on y
    # scaled by a power of two
    for scenario in (1, 2):
        cfg = ExperimentConfig(scenario=scenario, n=16, t_s=32, k_r=2, k_t=2, snr_db=snr_db,
                               seed=0, methods=(method,))
        _, _, _, batch = make_batch(cfg, 0)
        angles, _, _ = run_method(method, batch, cfg)
        assert [lab for _, lab in angles] == ['RS', 'RS', 'TS', 'TS']
        assert np.all(np.isfinite([a for a, _ in angles]))


@pytest.mark.parametrize("e", [-7, 3, 40])
def test_sbl_gamma_is_homogeneous_under_a_power_of_two(e):
    # y * 2**-e with sigma_n2 * 2**-2e gives gamma * 2**-2e bit for bit and
    # the same flag, so sbl_full_space's scaling leaves its picks as they were
    for trial in range(3):
        _, batch, dicts = _pool_batch(0, trial)
        gamma, flag = bl.sbl_gamma(batch.y, dicts, batch.sigma_n2)
        scaled, scaled_flag = bl.sbl_gamma(batch.y * np.ldexp(1.0, -e), dicts,
                                           np.ldexp(batch.sigma_n2, -2 * e))
        assert np.array_equal(scaled, np.ldexp(gamma, -2 * e)) and scaled_flag == flag


def test_baselines_deterministic():
    batch = _batch([-12.0, 39.0], [-47.0, 16.0], snr_db=15.0, seed=7,
                   gains=np.exp(2j * np.pi * np.random.default_rng(7).random(4)))
    d = bl.build_dictionary(batch, 'RS')
    d_t = bl.build_dictionary(batch, 'TS')
    for fn in (lambda: bl.fft_scan(batch, d, 2)[0], lambda: bl.omp(batch, d, 2)[0],
               lambda: np.concatenate(bl.sbl_full_space(batch, d, d_t, 2, 2)[:2])):
        assert np.array_equal(fn(), fn())


def test_on_grid_truth_recovered_exactly_at_high_snr():
    # grid methods have no grid-mismatch penalty when the truth is on-grid
    batch = _batch([20.0], [], snr_db=40.0, seed=11)
    d = bl.build_dictionary(batch, 'RS')
    assert np.isclose(bl.fft_scan(batch, d, 1)[0][0], 20.0)
    assert np.isclose(bl.omp(batch, d, 1)[0][0], 20.0)
