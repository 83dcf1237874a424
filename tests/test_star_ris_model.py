"""Tests for the metasurface model and measurement synthesis."""

import numpy as np
import pytest

from starfri import baselines, bounds, refine
from starfri import star_ris_model as sm
from starfri.fri_uniform import uniform_assumption_operator


def _profile(scenario="UniformES", n=16, t_s=32, seed=0, **kw):
    return sm.generate_profile(scenario, n, t_s, np.random.default_rng(seed), **kw)


def _manual_uniform_profile(n, t_s, beta=np.sqrt(2) / 2, phi=0.0, sign=1.0):
    return sm.StarRisProfile(
        n=n, t_s=t_s,
        beta_r=np.full((n, t_s), beta),
        phi_r=np.full((n, t_s), phi),
        sign_j=np.full((n, t_s), sign),
        scenario=sm.UNIFORM,
    )


# ------------------------------------------------------------------- steering

def test_steering_vector_values():
    assert np.allclose(sm.steering_matrix(0.0, 4), np.ones((4, 1)))
    assert np.allclose(sm.steering_matrix(30.0, 2)[:, 0], [1.0, -1j])
    v = sm.steering_matrix(-47.34, 16)[:, 0]
    m = np.arange(16)
    assert np.allclose(np.angle(v), np.angle(np.exp(1j * np.pi * m * np.sin(np.radians(47.34)))))
    # the matrix form equals the per-angle formula bit for bit, column by column
    grid = np.arange(-60.0, 60.0 + 1e-9, 0.1)
    S = sm.steering_matrix(grid, 16)
    assert S.shape == (16, grid.size)
    for j, t in enumerate(grid):
        assert np.array_equal(S[:, j], np.exp(-1j * np.pi * m * np.sin(np.radians(t))))
        assert np.array_equal(sm.steering_matrix(t, 16)[:, 0], S[:, j])
    assert sm.steering_matrix([], 5).shape == (5, 0)


# ------------------------------------------------------------------- profiles

def test_uniform_profile_amplitudes():
    p = _profile(sm.UNIFORM)
    assert np.all(p.beta_r == np.sqrt(2) / 2)


def test_nonuniform_profile_amplitudes():
    p = _profile(sm.NONUNIFORM)
    assert np.all(p.beta_r ** 2 >= 0.2) and np.all(p.beta_r ** 2 <= 0.8)


def test_profile_determinism():
    p1, p2 = _profile(sm.NONUNIFORM, seed=7), _profile(sm.NONUNIFORM, seed=7)
    assert np.array_equal(p1.beta_r, p2.beta_r)
    assert np.array_equal(p1.phi_r, p2.phi_r)
    assert np.array_equal(p1.sign_j, p2.sign_j)


def test_sign_shared_within_slot():
    p = _profile(sm.NONUNIFORM, seed=3)
    assert np.all(p.sign_j == p.sign_j[0])
    assert set(np.unique(p.sign_j)) <= {-1.0, 1.0}
    pinned = _profile(sm.NONUNIFORM, seed=3, randomize_sign=False)
    assert np.all(pinned.sign_j == 1.0)


def test_unknown_scenario_rejected():
    with pytest.raises(ValueError):
        _profile("Other")


# ------------------------------------------------- energy / phase constraints

def _coefficients(p):
    """(reflection, transmission) coefficients of every element and slot: the
    two halves of the paired operator under a unit channel, as the data are
    synthesized."""
    return np.split(sm.build_paired_operator(p, sm.Channel(np.ones(p.n))), 2)


def test_energy_conservation():
    for scen in (sm.UNIFORM, sm.NONUNIFORM):
        p = _profile(scen, seed=11)
        refl, tran = _coefficients(p)
        assert np.array_equal(refl, p.reflection())
        assert np.max(np.abs(np.abs(refl) ** 2 + np.abs(tran) ** 2 - 1.0)) <= 1e-12


def test_phase_offset_is_quarter_turn():
    p = _profile(sm.NONUNIFORM, seed=13)
    refl, tran = _coefficients(p)
    dphi = np.mod(np.angle(refl) - np.angle(tran), 2 * np.pi)
    ok = (np.abs(dphi - np.pi / 2) <= 1e-10) | (np.abs(dphi - 3 * np.pi / 2) <= 1e-10)
    assert np.all(ok)


def test_transmission_examples():
    p = _manual_uniform_profile(2, 1)
    assert np.allclose(_coefficients(p)[1], 1j * np.sqrt(2) / 2)
    p6 = sm.StarRisProfile(1, 1, np.array([[0.6]]), np.zeros((1, 1)), np.ones((1, 1)), sm.NONUNIFORM)
    assert np.allclose(np.abs(_coefficients(p6)[1]), 0.8)


# ------------------------------------------------------------------ operators

def _one_user_batch(p, ch):
    scene = sm.UserScene([0.0], [], np.array([1.0 + 0j]))
    return sm.synthesize_measurements(scene, p, ch, np.inf, np.random.default_rng(0))


def test_uniform_operator_rows():
    p = _manual_uniform_profile(4, 3)
    psi_u = uniform_assumption_operator(_one_user_batch(p, sm.Channel(h=np.ones(4, complex))))
    assert np.allclose(psi_u[:4], np.sqrt(2) / 2)
    # scalar oracle on random profiles, including a nonuniform one; the
    # bottom half is g(t) times the top half in both
    for scen in (sm.UNIFORM, sm.NONUNIFORM):
        p = _profile(scen, n=5, t_s=4, seed=17)
        ch = sm.draw_channel(np.random.default_rng(17), 5)
        batch = _one_user_batch(p, ch)
        psi_u = uniform_assumption_operator(batch)
        rows = psi_u[:5].T
        assert psi_u.shape == (10, 4)
        assert np.array_equal(psi_u[5:], batch.g[None, :] * psi_u[:5])
        for t in range(4):
            for m in range(5):
                assert np.isclose(rows[t, m], ch.h[m] * p.beta_r[m, t] * np.exp(1j * p.phi_r[m, t]))


def test_paired_operator_halves():
    p = _profile(sm.UNIFORM, seed=19)
    ch = sm.draw_channel(np.random.default_rng(19), 16)
    psi = sm.build_paired_operator(p, ch)
    # uniform splitting: bottom half = (+-j) * top half
    ratio = psi[16:] / psi[:16]
    assert np.allclose(ratio, p.sign_j * 1j)
    # amplitude ratio for beta=0.6 is 0.8/0.6
    p6 = sm.StarRisProfile(1, 1, np.array([[0.6]]), np.zeros((1, 1)), np.ones((1, 1)), sm.NONUNIFORM)
    psi6 = sm.build_paired_operator(p6, sm.Channel(h=np.ones(1, complex)))
    assert np.isclose(np.abs(psi6[1, 0]) / np.abs(psi6[0, 0]), 0.8 / 0.6)


# ------------------------------------------------------ latent vectors and y

def test_latent_vectors():
    rng = np.random.default_rng(23)
    p = _profile(sm.UNIFORM, seed=23)
    # no transmission-side users: the x_T half is zero
    scene = sm.UserScene([10.0, -30.0], [], np.array([1.0, 1j]))
    x = sm.latent_fri_vectors(scene, p)
    assert x.shape == (32,) and not np.any(x[16:])
    # uniform splitting: |g| = 1
    assert np.allclose(np.abs(p.gain_sequence()), 1.0)
    # line-spectrum oracle entrywise, on each half with its own side's users
    scene = sm.draw_scene(rng, 2, 2)
    x = sm.latent_fri_vectors(scene, p)
    for half, thetas, gains in ((x[:16], scene.theta_rs, scene.gains[:2]),
                                (x[16:], scene.theta_ts, scene.gains[2:])):
        z = np.exp(-1j * np.pi * np.sin(np.radians(thetas)))
        for m in range(p.n):
            assert np.isclose(half[m], np.sum(gains * z ** m))


def test_synthesize_trivial_case():
    p = _manual_uniform_profile(2, 3)
    ch = sm.Channel(h=np.ones(2, complex))
    scene = sm.UserScene([0.0], [], np.array([1.0 + 0j]))
    batch = sm.synthesize_measurements(scene, p, ch, np.inf, np.random.default_rng(0))
    assert np.allclose(batch.y, np.sqrt(2))


def test_three_path_consistency():
    # direct synthesis, the uniform-assumption operator and the exact paired
    # operator must produce the same noiseless y from the latent x
    rng = np.random.default_rng(29)
    scene = sm.draw_scene(rng, 2, 2)
    p = _profile(sm.UNIFORM, seed=29)
    ch = sm.draw_channel(rng, 16)
    batch = sm.synthesize_measurements(scene, p, ch, np.inf, rng)
    x = sm.latent_fri_vectors(scene, p)
    y_uniform = uniform_assumption_operator(batch).T @ x
    y_paired = batch.operator_paired.T @ x
    scale = np.linalg.norm(batch.y)
    assert np.linalg.norm(batch.y - y_uniform) <= 1e-10 * scale
    assert np.linalg.norm(batch.y - y_paired) <= 1e-10 * scale


def test_noise_statistics():
    p = _profile(sm.UNIFORM, n=4, t_s=1000, seed=31)
    ch = sm.draw_channel(np.random.default_rng(31), 4)
    scene = sm.UserScene([5.0], [], np.array([0.0 + 0j]))  # silent source: pure noise
    batch = sm.synthesize_measurements(scene, p, ch, 10.0, np.random.default_rng(31))
    var = np.mean(np.abs(batch.y) ** 2)
    assert abs(var - batch.sigma_n2) <= 3 * batch.sigma_n2 / np.sqrt(1000)


def test_synthesize_determinism_and_empty_scene():
    rng_args = dict(snr_db=15.0)
    p = _profile(sm.UNIFORM, seed=37)
    ch = sm.draw_channel(np.random.default_rng(37), 16)
    scene = sm.draw_scene(np.random.default_rng(37), 2, 2)
    b1 = sm.synthesize_measurements(scene, p, ch, rng=np.random.default_rng(1), **rng_args)
    b2 = sm.synthesize_measurements(scene, p, ch, rng=np.random.default_rng(1), **rng_args)
    assert np.array_equal(b1.y, b2.y)
    with pytest.raises(ValueError):
        sm.synthesize_measurements(sm.UserScene([], [], np.zeros(0)), p, ch, 15.0, np.random.default_rng(0))



@pytest.mark.parametrize("snr_db", [np.nan, -np.inf])
def test_non_finite_snr_rejected(snr_db):
    p = _profile(sm.UNIFORM, seed=37)
    ch = sm.draw_channel(np.random.default_rng(37), 16)
    scene = sm.draw_scene(np.random.default_rng(37), 2, 2)
    with pytest.raises(ValueError, match="snr_db"):
        sm.synthesize_measurements(scene, p, ch, snr_db, np.random.default_rng(1))
    # +inf stays the noiseless batch
    batch = sm.synthesize_measurements(scene, p, ch, np.inf, np.random.default_rng(1))
    x = sm.latent_fri_vectors(scene, p)
    assert batch.sigma_n2 == 0.0 and np.array_equal(batch.y, batch.operator_paired.T @ x)

def test_snr_rejected_where_the_noise_variance_overflows():
    # at or below SNR_DB_MIN, 10^(-snr_db/10) overflows a float; one ulp
    # above it, the variance is finite and synthesis runs
    p = _profile(sm.UNIFORM, seed=37)
    ch = sm.draw_channel(np.random.default_rng(37), 16)
    scene = sm.draw_scene(np.random.default_rng(37), 2, 2)
    for snr_db in (-4000.0, sm.SNR_DB_MIN):
        with pytest.raises(ValueError, match=f"snr_db={snr_db!r} is not an SNR above"):
            sm.synthesize_measurements(scene, p, ch, snr_db, np.random.default_rng(1))
    above = np.nextafter(sm.SNR_DB_MIN, 0.0)
    batch = sm.synthesize_measurements(scene, p, ch, above, np.random.default_rng(1))
    assert np.isfinite(batch.sigma_n2) and np.all(np.isfinite(batch.y))


def test_draw_scene_separation():
    rng = np.random.default_rng(41)
    for _ in range(50):
        scene = sm.draw_scene(rng, 3, 2)
        assert np.diff(np.sort(scene.theta_rs)).min() >= 2.0
        assert np.all(np.abs(scene.gains) > 0)


def test_search_range_is_decided_once():
    # the dictionaries share the model's cached fine grid and its steering
    p = _profile(sm.NONUNIFORM, seed=43)
    scene = sm.UserScene([20.0], [-35.0], np.ones(2, complex))
    batch = sm.synthesize_measurements(scene, p, sm.draw_channel(np.random.default_rng(43), 16),
                                       30.0, np.random.default_rng(44))
    grid, sv = sm.grid_steering(16, sm.FINE_STEP)
    for sub in ('RS', 'TS'):
        d = baselines.build_dictionary(batch, sub)
        assert d.grid is grid and d.steer is sv
    # the bound's a-priori width is the range's
    assert bounds.ZETA == 2 * np.pi / 3
    # the initializer's grid and the rescan's span the range end to end
    for step in (refine.INIT_STEP, sm.FINE_STEP):
        g = sm.grid_steering(16, step)[0]
        assert g[0] == sm.ANGLE_LO and np.isclose(g[-1], sm.ANGLE_HI, rtol=0, atol=1e-9)
    # drawn users lie in the range, each side MIN_SEP_DEG apart
    rng = np.random.default_rng(45)
    for _ in range(50):
        scene = sm.draw_scene(rng, 3, 3)
        for side in (scene.theta_rs, scene.theta_ts):
            assert min(side) >= sm.ANGLE_LO and max(side) <= sm.ANGLE_HI
            assert np.diff(np.sort(side)).min() >= sm.MIN_SEP_DEG
