"""Tests for the grid-based comparison estimators."""

import numpy as np
import pytest

from starfri import baselines as bl
from starfri import star_ris_model as sm
from starfri.experiments import ExperimentConfig, make_batch


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


def test_dictionary_atoms_unit_norm():
    batch = _batch([20.0], [-35.0])
    for sub in ('RS', 'TS'):
        d = bl.build_dictionary(batch, sub)
        assert np.allclose(np.linalg.norm(d.atoms, axis=0), 1.0)
        assert np.all(np.diff(d.grid) > 0)
    with pytest.raises(ValueError):
        bl.build_dictionary(batch, 'RS', grid=np.array([]))


def test_default_dictionary_matches_explicit_fine_grid():
    # the cached default equals a dictionary built on the fine grid spelled out
    batch = _batch([20.0], [-35.0])
    for sub in ('RS', 'TS'):
        got = bl.build_dictionary(batch, sub)
        want = bl.build_dictionary(batch, sub, np.arange(-60.0, 60.0 + 1e-9, 0.1))
        for name in ("grid", "atoms", "steer", "scale"):
            assert np.array_equal(getattr(got, name), getattr(want, name))


def test_rs_and_ts_atoms_differ():
    batch = _batch([20.0], [-35.0])
    d_r = bl.build_dictionary(batch, 'RS', COARSE)
    d_t = bl.build_dictionary(batch, 'TS', COARSE)
    assert not np.allclose(d_r.atoms, d_t.atoms)


def test_fft_scan_single_source():
    # single user total: the subspace dictionary is fully matched
    batch = _batch([20.0], [])
    d = bl.build_dictionary(batch, 'RS')
    angles, flagged = bl.fft_scan(batch, d, 1)
    assert not flagged and np.isclose(angles[0], 20.0)


def test_fft_scan_zero_measurement_flagged():
    batch = _batch([20.0], [])
    d = bl.build_dictionary(batch, 'RS', COARSE)
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
    d = bl.build_dictionary(batch, 'RS', COARSE)
    y = d.atoms[:, 80].copy()          # the 20-degree atom
    angles, flagged = bl.omp(_with_y(batch, y), d, 1)
    assert not flagged and angles[0] == 20.0


def test_omp_orthogonal_atoms_exact_support():
    batch = _batch([20.0], [])
    d5 = bl.build_dictionary(batch, 'RS', np.arange(-60.0, 60.0 + 1e-9, 5.0))
    Q, _ = np.linalg.qr(d5.atoms[:, :24])
    dq = bl.GridDictionary(grid=d5.grid[:24], atoms=Q)
    y = Q[:, 3] + 0.5 * Q[:, 17]
    angles, _ = bl.omp(_with_y(batch, y), dq, 2)
    assert np.allclose(np.sort(angles), np.sort([dq.grid[3], dq.grid[17]]))


def test_omp_matches_brute_force_pair():
    batch = _batch([20.0], [])
    grid = np.arange(-60.0, 60.0 + 1e-9, 5.0)
    d = bl.build_dictionary(batch, 'RS', grid)
    y = d.atoms[:, 6] + 0.7 * d.atoms[:, 19]
    angles, _ = bl.omp(_with_y(batch, y), d, 2)
    best = None
    for a in range(len(grid)):
        for c in range(a + 1, len(grid)):
            A = d.atoms[:, [a, c]]
            coef, *_ = np.linalg.lstsq(A, y, rcond=None)
            r = np.linalg.norm(y - A @ coef)
            if best is None or r < best[0]:
                best = (r, grid[a], grid[c])
    assert np.allclose(np.sort(angles), np.sort(best[1:]))


def test_omp_rejects_oversized_support():
    batch = _batch([20.0], [])
    d = bl.build_dictionary(batch, 'RS', COARSE)
    with pytest.raises(ValueError):
        bl.omp(batch, d, len(COARSE) + 1)


def test_sbl_zero_measurement_shrinks_to_zero():
    batch = _batch([20.0], [])
    d = bl.build_dictionary(batch, 'RS', COARSE)
    gamma, aborted = bl.sbl_gamma(np.zeros(32, complex), (d,), 1e-3)
    assert not aborted and np.all(gamma <= bl.SblConfig().prune_tol)


def test_sbl_single_source_peak_at_truth():
    # single user total at 30 dB: the evidence maximization must concentrate
    # on the true on-grid atom, and the empty TS side reports no angle
    batch = _batch([20.0], [])
    d_r = bl.build_dictionary(batch, 'RS', COARSE)
    d_t = bl.build_dictionary(batch, 'TS', COARSE)
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


def test_sbl_full_space_two_users():
    # with users on both sides, only the joint dictionary is well-specified
    batch = _batch([20.0], [-35.0])
    d_r = bl.build_dictionary(batch, 'RS', COARSE)
    d_t = bl.build_dictionary(batch, 'TS', COARSE)
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


@pytest.mark.parametrize("grid", [None, COARSE], ids=["default_grid", "1deg_grid"])
@pytest.mark.parametrize("snr_db", [0.0, 15.0, 30.0])
@pytest.mark.parametrize("scenario", [1, 2], ids=["uniform", "nonuniform"])
def test_sbl_factorised_em_matches_dense_reference(scenario, snr_db, grid):
    # one step of the fast update: from the same gamma (ten steps in), the
    # factorised s and |q|^2 of every atom match dense solves to 1e-9, and
    # so do the move gains taken from them. Against gains from the dense s
    # and |q|^2 the bound is 1e-6: theta = |q|^2 / s divides by the small s
    # of atoms next to an active one, whose factorised lag-sum form carries
    # rounding of order eps * max(s) (up to 7e-8 relative at 30 dB).
    cfg = ExperimentConfig(scenario=scenario, snr_db=snr_db, seed=0)
    _, _, _, batch = make_batch(cfg, 0)
    dicts = (bl.build_dictionary(batch, 'RS', grid), bl.build_dictionary(batch, 'TS', grid))
    gamma, aborted = bl.sbl_gamma(batch.y, dicts, batch.sigma_n2, bl.SblConfig(max_em=10))
    act = np.flatnonzero(gamma)
    assert not aborted and act.size > 0
    s, q2, gain = bl._SblFactors(batch.y, dicts, batch.sigma_n2).scores(act, gamma[act])
    s_ref, q2_ref, gain_ref = _dense_scores(batch.y, np.hstack([d.atoms for d in dicts]),
                                            batch.sigma_n2, gamma)
    assert np.abs(s - s_ref).max() <= 1e-9 * s_ref.max()
    assert np.abs(q2 - q2_ref).max() <= 1e-9 * q2_ref.max()
    assert np.abs(gain - _gains(s, q2, gamma)).max() <= 1e-9 * gain_ref.max()
    assert np.abs(gain - gain_ref).max() <= 1e-6 * gain_ref.max()


@pytest.mark.parametrize("grid", [None, COARSE], ids=["default_grid", "1deg_grid"])
@pytest.mark.parametrize("snr_db", [0.0, 15.0, 30.0])
@pytest.mark.parametrize("scenario", [1, 2], ids=["uniform", "nonuniform"])
def test_sbl_evidence_at_least_dense_em(scenario, snr_db, grid):
    cfg = ExperimentConfig(scenario=scenario, snr_db=snr_db, seed=0)
    _, _, _, batch = make_batch(cfg, 0)
    dicts = (bl.build_dictionary(batch, 'RS', grid), bl.build_dictionary(batch, 'TS', grid))
    atoms = np.hstack([d.atoms for d in dicts])
    gamma, aborted = bl.sbl_gamma(batch.y, dicts, batch.sigma_n2)
    ref, ref_aborted = _dense_sbl_gamma(batch.y, atoms, batch.sigma_n2, EM_CONFIG)
    assert not aborted and not ref_aborted
    assert (_log_evidence(batch.y, atoms, batch.sigma_n2, gamma)
            >= _log_evidence(batch.y, atoms, batch.sigma_n2, ref))


def test_sbl_active_atoms_near_saturation_stay_finite():
    # scenario 2 at 30 dB on the default grid drives gamma * S of an active
    # atom to 1 - 1e-6 within three steps, where s = S / (1 - gamma S) is all
    # rounding: the active atoms' s and |q|^2 must still match leave-one-out
    # solves there and at the end, and the result must beat the EM's evidence
    cfg = ExperimentConfig(scenario=2, snr_db=30.0, seed=0)
    _, _, _, batch = make_batch(cfg, 0)
    dicts = (bl.build_dictionary(batch, 'RS'), bl.build_dictionary(batch, 'TS'))
    atoms = np.hstack([d.atoms for d in dicts])
    for config, saturation in ((bl.SblConfig(max_em=3), 1 - 1e-5), (bl.SblConfig(), 1 - 1e-4)):
        gamma, aborted = bl.sbl_gamma(batch.y, dicts, batch.sigma_n2, config)
        assert not aborted and np.all(np.isfinite(gamma))
        act = np.flatnonzero(gamma)
        A, g = atoms[:, act], gamma[act]
        C = batch.sigma_n2 * np.eye(len(batch.y)) + (A * g) @ A.conj().T
        S = np.real(np.einsum('tg,tg->g', A.conj(), np.linalg.solve(C, A)))
        assert np.max(g * S) > saturation
        s, q2, _ = bl._SblFactors(batch.y, dicts, batch.sigma_n2).scores(act, g)
        s_ref, q2_ref, _ = _dense_scores(batch.y, atoms, batch.sigma_n2, gamma)
        assert np.allclose(s[act], s_ref[act], rtol=1e-6, atol=0)
        assert np.allclose(q2[act], q2_ref[act], rtol=1e-6, atol=0)
    ref, _ = _dense_sbl_gamma(batch.y, atoms, batch.sigma_n2, EM_CONFIG)
    assert (_log_evidence(batch.y, atoms, batch.sigma_n2, gamma)
            >= _log_evidence(batch.y, atoms, batch.sigma_n2, ref))


@pytest.mark.parametrize("trial", range(12))
def test_sbl_converges_and_prunes_on_the_benchmark_pool(trial, monkeypatch):
    # the grid-baseline benchmark's pool of seed 0: scenario 1, n = 16,
    # t_s = 32, two users per side, 0/15/30 dB in turn
    cfg = ExperimentConfig(scenario=1, n=16, t_s=32, k_r=2, k_t=2,
                           snr_db=(0.0, 15.0, 30.0)[trial % 3], seed=0)
    _, _, _, batch = make_batch(cfg, trial)
    dicts = (bl.build_dictionary(batch, 'RS'), bl.build_dictionary(batch, 'TS'))
    scores = bl._SblFactors.scores
    calls = []

    def counted(self, act, g):
        calls.append(act)
        return scores(self, act, g)

    monkeypatch.setattr(bl._SblFactors, "scores", counted)
    config = bl.SblConfig()
    gamma, aborted = bl.sbl_gamma(batch.y, dicts, batch.sigma_n2, config)
    assert not aborted
    assert len(calls) < config.max_em     # stopped by the gain test, not by the cap
    act = np.flatnonzero(gamma)
    assert act.size <= 64
    _, _, gain = scores(bl._SblFactors(batch.y, dicts, batch.sigma_n2), act, gamma[act])
    assert gain.max() <= config.tol


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
