"""Tests for the nonuniform-regime solver (paired lifting PGD)."""

import numpy as np
import pytest

from starfri import fri_nonuniform
from starfri import star_ris_model as sm
from starfri import structured_linalg as sl
from starfri.fri_nonuniform import (estimate_angles_nonuniform, pgd_denoise_paired,
                                    subspace_af_coeffs)
from starfri.fri_uniform import estimate_angles_uniform
from starfri.refine import PgdConfig


def _batch(theta_rs, theta_ts, snr_db=np.inf, seed=0, scenario=sm.NONUNIFORM, n=16, t_s=32):
    rng = np.random.default_rng(seed)
    k = len(theta_rs) + len(theta_ts)
    scene = sm.UserScene(list(theta_rs), list(theta_ts), np.exp(2j * np.pi * rng.random(k)))
    prof = sm.generate_profile(scenario, n, t_s, rng)
    ch = sm.draw_channel(rng, n)
    return scene, prof, sm.synthesize_measurements(scene, prof, ch, snr_db, rng)


def test_paired_step_size_bounds(liftings, operator_batch):
    # one unit column with equal halves: with g = 1 the uniform-assumption
    # operator is Psi itself, sigma_max = 1 under both liftings, step 1/2
    psi = np.zeros((6, 4), complex)
    psi[:, 0] = (np.eye(6)[:, 0] + np.eye(6)[:, 3]) / np.sqrt(2)
    for step, _ in liftings.values():
        assert np.isclose(step(operator_batch(psi), 1), 0.5)
    # lambda_max agrees with a sigma_max oracle on each lifting's operator,
    # and scaling the operator by 3 divides the step by 9
    rng = np.random.default_rng(0)
    psi = rng.standard_normal((8, 5)) + 1j * rng.standard_normal((8, 5))
    for step, dense in liftings.values():
        smax = np.linalg.svd(dense(operator_batch(psi)), compute_uv=False)[0]
        mu = step(operator_batch(psi), 1)
        assert np.isclose(mu, 1 / (2 * smax ** 2), rtol=1e-10)
        assert np.isclose(step(operator_batch(3 * psi), 1), mu / 9, rtol=1e-10)
        with pytest.raises(ValueError, match="zero operator"):
            step(operator_batch(np.zeros((8, 5), complex)), 1)


def test_paired_feasibility_rejection(liftings):
    _, _, batch = _batch([10.0], [-20.0], snr_db=15.0, n=9)
    with pytest.raises(ValueError):
        pgd_denoise_paired(batch, PgdConfig(k_r=4, k_t=4))
    # n=9: a filter of order alpha resolves at most alpha sources, K <= 4 on
    # the stacked lift (alpha=4) and k_r <= 3 on the paired one (alpha=3)
    for name, k_max in (("stacked", 4), ("paired", 3)):
        step, _ = liftings[name]
        step(batch, k_max)
        with pytest.raises(ValueError):
            step(batch, k_max + 1)


def test_more_sources_on_a_side_than_filter_roots_rejected():
    # n = 16: alpha = 5, so each side's filter has 5 roots, one fewer than
    # k_r = 6; the solve must say so rather than return 5 RS angles
    _, _, batch = _batch([-50.0, -30.0, -10.0, 10.0, 30.0, 50.0], [], n=16)
    with pytest.raises(ValueError, match=r"k_r=6 infeasible.*alpha=5.*n=16"):
        estimate_angles_nonuniform(batch, PgdConfig(k_r=6, k_t=0, init="Grid"))


def test_zero_lifting_order_rejected_before_any_work(monkeypatch):
    # n = 2 gives alpha = n // 3 = 0: the solve names alpha and n before its
    # grid start runs
    _, _, batch = _batch([10.0], [-20.0], snr_db=15.0, n=2)
    monkeypatch.setattr(fri_nonuniform, "grid_init", _no_grid_start)
    with pytest.raises(ValueError, match="alpha=0 outside 1..n-1 for n=2"):
        estimate_angles_nonuniform(batch, PgdConfig(k_r=1, k_t=1, init="Grid"))


def _no_grid_start(*args):
    raise AssertionError("grid_init ran")


def test_zero_measurement_zero_fixed_point():
    _, _, batch = _batch([10.0], [-20.0], snr_db=15.0)
    batch.y = np.zeros_like(batch.y)
    b, it, hist, converged = pgd_denoise_paired(batch, PgdConfig(k_r=1, k_t=1, init="Zero"))
    assert not np.any(b) and converged and it == 1


def test_noiseless_denoise_recovers_latent():
    for scen in (sm.UNIFORM, sm.NONUNIFORM):
        scene, prof, batch = _batch([-12.0, 39.0], [-47.0, 16.0], scenario=scen, seed=1)
        x = sm.latent_fri_vectors(scene, prof)
        # a tighter stop is needed for the latent vectors themselves to reach
        # 1e-6 relative accuracy (the update norm decays ~10x faster)
        b, _, _, converged = pgd_denoise_paired(
            batch, PgdConfig(init="Grid", i_max=20000, eps=1e-9))
        assert converged
        assert np.linalg.norm(b - x) / np.linalg.norm(x) <= 1e-6


def test_noiseless_single_user_per_subspace_exact(by_subspace):
    scene, prof, batch = _batch([23.4], [-51.7], seed=2)
    res = estimate_angles_nonuniform(batch, PgdConfig(k_r=1, k_t=1, init="Grid"))
    rs, ts = by_subspace(res)
    assert abs(rs[0] - 23.4) <= 1e-6
    assert abs(ts[0] + 51.7) <= 1e-6


def test_noiseless_exactness_randomized(by_subspace):
    for i in range(10):
        rng = np.random.default_rng([200, i])
        scene = sm.draw_scene(rng, 2, 2)
        prof = sm.generate_profile(sm.NONUNIFORM, 16, 32, rng)
        ch = sm.draw_channel(rng, 16)
        batch = sm.synthesize_measurements(scene, prof, ch, np.inf, rng)
        res = estimate_angles_nonuniform(batch, PgdConfig(init="Grid"))
        rs, ts = by_subspace(res)
        assert np.max(np.abs(rs - np.sort(scene.theta_rs))) <= 1e-6
        assert np.max(np.abs(ts - np.sort(scene.theta_ts))) <= 1e-6


def test_per_subspace_annihilation_noiseless():
    scene, prof, batch = _batch([-12.0, 39.0], [-47.0, 16.0], seed=3)
    x = sm.latent_fri_vectors(scene, prof)
    c_r, c_t = subspace_af_coeffs(x, 5)
    H_r = sl.hankel_lift(x[:16], 5)
    H_t = sl.hankel_lift(x[16:], 5)
    assert np.linalg.norm(H_r @ c_r) <= 1e-9 * np.linalg.norm(H_r)
    assert np.linalg.norm(H_t @ c_t) <= 1e-9 * np.linalg.norm(H_t)


def test_matches_uniform_solver_on_scenario1(by_subspace):
    # the uniform regime is a special case; at 15 dB both algorithms land on
    # the same maximum-likelihood refinement
    rng = np.random.default_rng([5, 0])
    scene = sm.draw_scene(rng, 2, 2)
    prof = sm.generate_profile(sm.UNIFORM, 16, 32, rng)
    ch = sm.draw_channel(rng, 16)
    batch = sm.synthesize_measurements(scene, prof, ch, 15.0, rng)
    a1 = by_subspace(estimate_angles_uniform(batch, PgdConfig(init="Grid")))
    a2 = by_subspace(estimate_angles_nonuniform(batch, PgdConfig(init="Grid")))
    assert np.max(np.abs(np.concatenate(a1) - np.concatenate(a2))) <= 0.1


def test_result_iteration_history():
    _, _, batch = _batch([10.0], [-20.0], snr_db=15.0, seed=4)
    res = estimate_angles_nonuniform(batch, PgdConfig(k_r=1, k_t=1, init="Grid", i_max=60))
    assert res.iterations == 60 and len(res.residual_history) == 60
    assert not res.converged
