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


@pytest.mark.parametrize("grid", [None, COARSE], ids=["default_grid", "1deg_grid"])
@pytest.mark.parametrize("snr_db", [0.0, 15.0, 30.0])
@pytest.mark.parametrize("scenario", [1, 2], ids=["uniform", "nonuniform"])
def test_sbl_factorised_em_matches_dense_reference(scenario, snr_db, grid):
    cfg = ExperimentConfig(scenario=scenario, snr_db=snr_db, seed=0)
    _, _, _, batch = make_batch(cfg, 0)
    d_r = bl.build_dictionary(batch, 'RS', grid)
    d_t = bl.build_dictionary(batch, 'TS', grid)
    config = bl.SblConfig()
    gamma, aborted = bl.sbl_gamma(batch.y, (d_r, d_t), batch.sigma_n2, config)
    ref, ref_aborted = _dense_sbl_gamma(batch.y, np.hstack([d_r.atoms, d_t.atoms]),
                                        batch.sigma_n2, config)
    assert aborted == ref_aborted
    assert np.abs(gamma - ref).max() <= 1e-6 * ref.max()
    n_r = d_r.grid.size
    a_r, f_r = bl._pick_peaks(ref[:n_r], d_r.grid, cfg.k_r)
    a_t, f_t = bl._pick_peaks(ref[n_r:], d_t.grid, cfg.k_t)
    got_r, got_t, flagged = bl.sbl_full_space(batch, d_r, d_t, cfg.k_r, cfg.k_t, config)
    assert np.array_equal(got_r, a_r) and np.array_equal(got_t, a_t)
    assert flagged == (f_r or f_t or ref_aborted)


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
