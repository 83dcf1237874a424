"""Tests for the uniform-regime solver (vertical-pair PGD on beta + AF extraction)."""

from dataclasses import replace

import numpy as np
import pytest

from starfri import fri_uniform
from starfri import star_ris_model as sm
from starfri import structured_linalg as sl
from starfri.experiments import ExperimentConfig, make_batch
from starfri.fri_uniform import (af_spectrum, estimate_angles_uniform, extract_af, initial_iterate,
                                 label_subspaces, lifting, pgd_denoise,
                                 uniform_assumption_operator)
from starfri.refine import PgdConfig, pgd_step


def _uniform_batch(theta_rs, theta_ts, snr_db=np.inf, seed=0, gains=None, n=16, t_s=32):
    rng = np.random.default_rng(seed)
    k = len(theta_rs) + len(theta_ts)
    if gains is None:
        gains = np.exp(2j * np.pi * rng.random(k))
    scene = sm.UserScene(list(theta_rs), list(theta_ts), np.asarray(gains))
    prof = sm.generate_profile(sm.UNIFORM, n, t_s, rng)
    ch = sm.draw_channel(rng, n)
    batch = sm.synthesize_measurements(scene, prof, ch, snr_db, rng)
    return scene, prof, batch


# ------------------------------------------------------------------ step size

def test_step_size_bounds_unit_rows(liftings, operator_batch):
    # orthonormal slot columns [e_t; e_t] / sqrt(2): with g = 1 the
    # uniform-assumption operator is Psi itself, lambda_max = 1 under both
    # liftings, so each solver steps at 1 / (2 lambda_max) = 1/2
    half = np.eye(4)[:, :3] / np.sqrt(2)
    batch = operator_batch(np.vstack([half, half]))
    for step, _ in liftings.values():
        assert np.isclose(step(batch, 1), 0.5)


def test_step_size_bounds_scaling(liftings, operator_batch):
    # lambda_max agrees with a dense eigen-oracle on each lifting's operator,
    # and scaling the operator by 2 divides the step by 4
    rng = np.random.default_rng(0)
    psi = rng.standard_normal((12, 5)) + 1j * rng.standard_normal((12, 5))
    for step, dense in liftings.values():
        full = dense(operator_batch(psi))
        lam = np.linalg.eigvalsh(full.conj().T @ full).max()
        mu = step(operator_batch(psi), 1)
        assert np.isclose(mu, 1 / (2 * lam), rtol=1e-10)
        assert np.isclose(step(operator_batch(2 * psi), 1), mu / 4, rtol=1e-10)
        with pytest.raises(ValueError, match="zero operator"):
            step(operator_batch(np.zeros((12, 5), complex)), 1)


def test_feasibility_rejection(liftings):
    _, _, batch = _uniform_batch([10.0], [], snr_db=20.0, n=8)
    with pytest.raises(ValueError):
        pgd_denoise(batch, PgdConfig(k_r=7, k_t=0))
    # n=8: each 4 x 5 half of the stacked lift (alpha=4) holds K <= 4, the
    # paired 6 x 6 one (alpha=2) K <= 6
    for name, k_max in (("stacked", 4), ("paired", 6)):
        step, _ = liftings[name]
        step(batch, k_max)
        with pytest.raises(ValueError):
            step(batch, k_max + 1)


def test_zero_lifting_order_rejected_before_any_work(monkeypatch):
    # n = 1 gives alpha = n // 2 = 0: the solve names alpha and n before its
    # grid start runs
    _, _, batch = _uniform_batch([10.0], [], snr_db=15.0, n=1)
    monkeypatch.setattr(fri_uniform, "grid_init", _no_grid_start)
    with pytest.raises(ValueError, match="alpha=0 outside 1..n-1 for n=1"):
        estimate_angles_uniform(batch, PgdConfig(k_r=1, k_t=0, init="Grid"))


def _no_grid_start(*args):
    raise AssertionError("grid_init ran")


# -------------------------------------------------------------------- denoise

def test_zero_measurement_zero_fixed_point():
    _, _, batch = _uniform_batch([10.0], [-20.0], snr_db=15.0)
    batch.y = np.zeros_like(batch.y)
    b, it, hist, converged = pgd_denoise(batch, PgdConfig(k_r=1, k_t=1, init="Zero"))
    assert not np.any(b) and converged and it == 1


def _reference_pgd_denoise(batch, config):
    # the explicit loop: gradient step on beta, build the vertical pair
    # [H(x_R); H(x_T)], truncate it by numpy's SVD, average each half back
    psi, alpha = lifting(batch, config)
    n = psi.shape[0] // 2
    mu = pgd_step(psi)
    b = initial_iterate(batch, config, psi)
    history = []
    converged = False
    it = 0
    for it in range(1, config.i_max + 1):
        db = b + 2 * mu * (psi.conj() @ (batch.y - psi.T @ b))
        u, sv, vh = np.linalg.svd(sl.stacked_hankel_lift(db, alpha),
                                  full_matrices=False)
        Hk = (u[:, :config.k] * sv[:config.k]) @ vh[:config.k]
        db = np.concatenate([sl.inverse_hankel(half)
                             for half in Hk.reshape(2, n - alpha, alpha + 1)])
        step = np.linalg.norm(db - b)
        history.append(step)
        b = db
        if step <= config.eps:
            converged = True
            break
    return b, it, history, converged


@pytest.mark.parametrize("scenario,snr_db,options", [
    (1, 0.0, {}), (1, 15.0, {}), (1, 30.0, {}),
    (2, 0.0, {}), (2, 15.0, {}), (2, 30.0, {}),
    (1, 15.0, {"init": "Backprojection"}), (2, 15.0, {"init": "Zero"}),
    (1, 15.0, {"n": 12}), (2, 30.0, {"n": 20}),
])
def test_nxn_pgd_matches_stacked_lift_reference(scenario, snr_db, options):
    # "n" sets the batch's aperture, hence the lifting order n // 2 (6 and 10);
    # the other options are the solve's
    options = dict(options)
    n = options.pop("n", 16)
    _, _, _, batch = make_batch(
        ExperimentConfig(scenario=scenario, snr_db=snr_db, seed=0, n=n), 0)
    cfg = PgdConfig(**{"init": "Grid", **options})
    b, it, hist, converged = pgd_denoise(batch, cfg)
    b_ref, it_ref, hist_ref, conv_ref = _reference_pgd_denoise(batch, cfg)
    assert b.shape == (2 * n,)
    assert it == it_ref and converged == conv_ref
    assert np.linalg.norm(b - b_ref) <= 1e-10 * np.linalg.norm(b_ref)
    # relative over the whole trace: a late step of 1e-7 is a difference of
    # two O(1) iterates, so its own relative rounding is far above 1e-10
    assert np.linalg.norm(np.subtract(hist, hist_ref)) <= 1e-10 * np.linalg.norm(hist_ref)


def test_noiseless_k1_denoise():
    # the midpoint step size converges to the exact latent beta, though it
    # takes a few hundred iterations to hit the 1e-7 update tolerance
    scene, prof, batch = _uniform_batch([23.0], [], gains=[1.0 + 0j])
    x = sm.latent_fri_vectors(scene, prof)
    b, it, _, converged = pgd_denoise(
        batch, PgdConfig(k_r=1, k_t=0, init="Backprojection", i_max=1000))
    assert converged
    assert np.linalg.norm(b - x) / np.linalg.norm(x) <= 1e-6


def test_noiseless_fixed_point_reached():
    # the full update (with rank truncation) reaches the eps=1e-7 fixed point
    # on random noiseless scenes, given a generous iteration budget, and the
    # fixed point is the latent beta
    for i in range(3):
        rng = np.random.default_rng([100, i])
        scene = sm.draw_scene(rng, 2, 2)
        prof = sm.generate_profile(sm.UNIFORM, 16, 32, rng)
        ch = sm.draw_channel(rng, 16)
        batch = sm.synthesize_measurements(scene, prof, ch, np.inf, rng)
        x = sm.latent_fri_vectors(scene, prof)
        b, _, _, converged = pgd_denoise(batch, PgdConfig(init="Grid", i_max=5000))
        assert converged
        assert np.linalg.norm(b - x) / np.linalg.norm(x) <= 1e-6


def test_linear_update_contraction_factor():
    # gradient step followed by the vertical-pair lifting obeys the
    # sqrt(alpha+1) * ||I - 2 mu Psi_u^* Psi_u^T||_2 Lipschitz factor
    rng = np.random.default_rng(3)
    _, _, batch = _uniform_batch([10.0, -30.0], [5.0], snr_db=15.0, seed=3)
    psi, alpha = lifting(batch, PgdConfig(k_r=2, k_t=1))
    n = psi.shape[0] // 2
    mu = pgd_step(psi)
    gain = np.linalg.norm(np.eye(2 * n) - 2 * mu * psi.conj() @ psi.T, 2)
    factor = np.sqrt(alpha + 1) * gain

    def lifted_grad(b):
        db = b + 2 * mu * (psi.conj() @ (batch.y - psi.T @ b))
        return sl.stacked_hankel_lift(db, alpha)

    for _ in range(50):
        b1 = rng.standard_normal(2 * n) + 1j * rng.standard_normal(2 * n)
        b2 = rng.standard_normal(2 * n) + 1j * rng.standard_normal(2 * n)
        lhs = np.linalg.norm(lifted_grad(b1) - lifted_grad(b2))
        assert lhs <= factor * np.linalg.norm(b1 - b2) + 1e-9


# ------------------------------------------------------------------ extraction

def _pair_beta(seed=0):
    # one RS and one TS source: the two halves of beta carry different roots,
    # and the vertical pair's filter must annihilate both
    scene, prof, batch = _uniform_batch([-41.0], [22.0], gains=[1.0, -0.5 + 1j], seed=seed)
    x = sm.latent_fri_vectors(scene, prof)
    return batch, x


def test_extract_af_noiseless_annihilation():
    _, x = _pair_beta()
    c = extract_af(x, 8)
    H = sl.stacked_hankel_lift(x, 8)
    assert np.linalg.norm(H @ c) <= 1e-9 * np.linalg.norm(H)


def test_extract_af_alpha_equals_k_matches_product():
    _, x = _pair_beta()
    c = extract_af(x, 2)
    z = np.exp(-1j * np.pi * np.sin(np.radians([-41.0, 22.0])))
    want = np.poly(z)[::-1]
    want = want / np.linalg.norm(want)
    phase = np.vdot(want, c)
    assert np.linalg.norm(c - want * phase / abs(phase)) <= 1e-9


def test_extract_af_noise_perturbation():
    # alpha = K keeps the null space one-dimensional, so the filter is a
    # stable function of the data; 30 dB entry noise barely rotates it
    _, x = _pair_beta()
    rng = np.random.default_rng(5)
    sig = np.sqrt(np.mean(np.abs(x) ** 2)) * 10 ** (-30 / 20)
    noisy = x + sig * (rng.standard_normal(x.shape) + 1j * rng.standard_normal(x.shape)) / np.sqrt(2)
    c0 = extract_af(x, 2)
    c1 = extract_af(noisy, 2)
    principal_angle = np.arccos(min(1.0, abs(np.vdot(c0, c1))))
    assert principal_angle <= 1e-2


def test_null_space_dimension_and_root_containment():
    # noiseless rank-K vertical pair with alpha > K: null space has dimension
    # >= alpha+1-K and every null vector's polynomial contains the true roots
    _, x = _pair_beta()
    alpha, K = 6, 2
    H = sl.stacked_hankel_lift(x, alpha)
    s = np.linalg.svd(H, compute_uv=False)
    null_dim = np.sum(s <= 1e-10 * s[0])
    assert null_dim >= alpha + 1 - K
    _, _, vh = np.linalg.svd(H)
    basis = vh[-null_dim:].conj()
    z_true = np.exp(-1j * np.pi * np.sin(np.radians([-41.0, 22.0])))
    rng = np.random.default_rng(7)
    for _ in range(20):
        w = rng.standard_normal(null_dim) + 1j * rng.standard_normal(null_dim)
        c = basis.T @ w
        roots = sl.polynomial_roots(c)
        for z in z_true:
            assert np.min(np.abs(roots - z)) <= 1e-6


def test_label_subspaces_on_beta_halves():
    # each root's gain sits in the half of beta of its own side; the k_t
    # roots with the largest TS margin are labelled TS, in the given order
    theta_rs, theta_ts = [-41.0, 10.0], [22.0, -5.0]
    scene, prof, batch = _uniform_batch(theta_rs, theta_ts, seed=4)
    x = sm.latent_fri_vectors(scene, prof)
    roots = sm.steering_matrix(theta_ts + theta_rs, 2)[1]
    assert list(label_subspaces(x, batch.g, roots, 2)) == [True, True, False, False]
    assert list(label_subspaces(x, batch.g, roots[::-1], 2)) == [False, False, True, True]
    assert not label_subspaces(x, batch.g, roots, 0).any()


# ------------------------------------------------------------------- spectrum

def test_af_spectrum_flat_for_delta_filter():
    grid = np.linspace(-60, 60, 121)
    assert np.allclose(af_spectrum(np.array([1.0, 0, 0]), grid), 1.0)


def test_af_spectrum_nulls_at_sources():
    thetas = [-41.0, 22.0]
    z = np.exp(-1j * np.pi * np.sin(np.radians(thetas)))
    c = np.poly(z)[::-1]
    grid = np.array([-41.0, 0.0, 22.0])
    spec = af_spectrum(c, grid)
    raw = np.abs(c @ np.exp(-1j * np.pi * np.outer(np.arange(3), np.sin(np.radians(grid)))))
    assert raw[0] <= 1e-10 and raw[2] <= 1e-10 and spec[1] == 1.0


# ------------------------------------------------------------------ end to end

def test_noiseless_single_rs_user_exact():
    scene, prof, batch = _uniform_batch([23.4], [], gains=[1.0 + 0j])
    res = estimate_angles_uniform(batch, PgdConfig(k_r=1, k_t=0, init="Backprojection"))
    assert len(res.angles) == 1
    angle, label = res.angles[0]
    assert label == 'RS' and abs(angle - 23.4) <= 1e-6


def test_noiseless_full_scene_exact(by_subspace):
    scene, prof, batch = _uniform_batch([-12.23, 39.19], [-47.34, 15.57], seed=9)
    res = estimate_angles_uniform(batch, PgdConfig(init="Grid"))
    rs, ts = by_subspace(res)
    assert np.max(np.abs(rs - [-12.23, 39.19])) <= 1e-6
    assert np.max(np.abs(ts - [-47.34, 15.57])) <= 1e-6


def test_scenario2_batch_solved_once_without_multistart(monkeypatch):
    # the uniform model does not match a nonuniform batch, which carries no
    # accuracy contract: one pass, with no residual-gated restart
    rng = np.random.default_rng(11)
    scene = sm.draw_scene(rng, 2, 2)
    prof = sm.generate_profile(sm.NONUNIFORM, 16, 32, rng)
    ch = sm.draw_channel(rng, 16)
    batch = sm.synthesize_measurements(scene, prof, ch, 15.0, rng)

    def no_multistart(*args):
        raise AssertionError("multistart ran on a mismatched-scenario batch")

    monkeypatch.setattr(fri_uniform, "multistart", no_multistart)
    res = estimate_angles_uniform(batch, PgdConfig(init="Grid"))
    assert [lab for _, lab in res.angles] == ['RS', 'RS', 'TS', 'TS']


def test_uniform_assumption_operator_matches_exact_in_scenario1():
    _, _, batch = _uniform_batch([10.0], [-20.0], snr_db=15.0, seed=13)
    assert np.allclose(uniform_assumption_operator(batch), batch.operator_paired)


def test_initial_iterate_variants():
    _, _, batch = _uniform_batch([10.0], [-20.0], snr_db=15.0, seed=13)
    cfg = PgdConfig(k_r=1, k_t=1)
    psi, _ = lifting(batch, cfg)
    z = initial_iterate(batch, replace(cfg, init="Zero"), psi)
    assert z.shape == (32,) and not np.any(z)
    bp = initial_iterate(batch, replace(cfg, init="Backprojection"), psi)
    mu = pgd_step(psi)
    assert np.allclose(bp, 2 * mu * uniform_assumption_operator(batch).conj() @ batch.y)
    gr = initial_iterate(batch, replace(cfg, init="Grid"), psi)
    assert gr.shape == (32,)
    # a one-atom start per side: each half of beta is one grid steering vector
    for half in gr.reshape(2, 16):
        assert np.linalg.matrix_rank(sl.hankel_lift(half, 8), tol=1e-9 * np.abs(half).max()) == 1
    with pytest.raises(ValueError):
        initial_iterate(batch, replace(cfg, init="Bogus"), psi)
