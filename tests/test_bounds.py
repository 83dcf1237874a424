"""Tests for the Ziv-Zakai bound components."""

import numpy as np
import pytest

from starfri import star_ris_model as sm
from starfri.experiments import ExperimentConfig, make_batch
from starfri.bounds import (ZETA, ZzbInputs, fisher_information, p_l, u_tilde, valley_weight,
                            zzb_full, zzb_subspace)
from starfri.star_ris_model import steering_derivative


def _pinned_inputs():
    # sensing row equals the all-ones row: h = sqrt(2) ones, beta = sqrt(2)/2,
    # zero phases; single reflection-side user at broadside
    prof = sm.StarRisProfile(2, 1, np.full((2, 1), np.sqrt(2) / 2),
                             np.zeros((2, 1)), np.ones((2, 1)), sm.UNIFORM)
    ch = sm.Channel(h=np.full(2, np.sqrt(2), complex))
    scene = sm.UserScene([0.0], [], np.array([1.0 + 0j]))
    return ZzbInputs(scene, prof, ch, sigma_n2=1.0)


def _random_inputs(seed=0, sigma_n2=10 ** (-1.5), k_r=2, k_t=2):
    rng = np.random.default_rng(seed)
    scene = sm.draw_scene(rng, k_r, k_t)
    prof = sm.generate_profile(sm.NONUNIFORM, 16, 32, rng)
    ch = sm.draw_channel(rng, 16)
    return ZzbInputs(scene, prof, ch, sigma_n2=sigma_n2)


def test_steering_derivative_values():
    d = steering_derivative(0.0, sm.steering_matrix(0.0, 2))[:, 0]
    assert np.allclose(d, [0.0, -1j * np.pi])
    # derivative magnitude vanishes at grazing incidence
    assert np.max(np.abs(steering_derivative(89.999, sm.steering_matrix(89.999, 8)))) <= 1e-3


def test_steering_derivative_finite_difference():
    h = 1e-6
    thetas = [-37.2, 0.0, 12.9, 55.0]
    D = steering_derivative(thetas, sm.steering_matrix(thetas, 8))
    assert D.shape == (8, 4)
    for j, theta in enumerate(thetas):
        fd = (sm.steering_matrix(theta + np.degrees(h), 8)[:, 0]
              - sm.steering_matrix(theta - np.degrees(h), 8)[:, 0]) / (2 * h)
        assert np.max(np.abs(D[:, j] - fd)) <= 1e-6 * np.max(np.abs(D[:, j]) + 1)
    # the matrix form, differenced as a whole, against itself column by column
    fd = (sm.steering_matrix(np.add(thetas, np.degrees(h)), 8)
          - sm.steering_matrix(np.subtract(thetas, np.degrees(h)), 8)) / (2 * h)
    assert np.max(np.abs(D - fd)) <= 1e-6 * np.max(np.abs(D) + 1)


def test_fisher_pinned_example():
    F, singular = fisher_information(_pinned_inputs(), 'RS')
    assert not singular
    assert np.isclose(F[0, 0], 2 * np.pi ** 2, rtol=1e-12)


def test_fisher_noise_scaling_and_psd():
    inp = _random_inputs(1)
    F1, _ = fisher_information(inp, 'RS')
    inp2 = _random_inputs(1, sigma_n2=inp.sigma_n2 * 3)
    F2, _ = fisher_information(inp2, 'RS')
    assert np.allclose(F2, F1 / 3)
    for sub in ('RS', 'TS'):
        F, _ = fisher_information(inp, sub)
        assert np.allclose(F, F.T)
        assert np.linalg.eigvalsh(F).min() >= -1e-10 * np.abs(F).max()
    with pytest.raises(ValueError):
        fisher_information(_pinned_inputs(), 'TS')


def test_fisher_finite_difference():
    # Fisher entries from numerical derivatives of the noiseless mean
    for seed in (2, 3):
        inp = _random_inputs(seed)
        scene, prof, ch = inp.scene, inp.profile, inp.channel
        psi = sm.build_paired_operator(prof, ch)

        def mean_y(theta_rs):
            s2 = sm.UserScene(list(theta_rs), list(scene.theta_ts), scene.gains)
            x = sm.latent_fri_vectors(s2, prof)
            return psi.T @ x

        h = 1e-6
        t0 = np.asarray(scene.theta_rs, float)
        cols = []
        for k in range(len(t0)):
            tp, tm = t0.copy(), t0.copy()
            tp[k] += np.degrees(h)
            tm[k] -= np.degrees(h)
            cols.append((mean_y(tp) - mean_y(tm)) / (2 * h))
        D = np.column_stack(cols)
        F_fd = (2.0 / (prof.t_s * inp.sigma_n2)) * np.real(D.conj().T @ D)
        F, _ = fisher_information(inp, 'RS')
        assert np.max(np.abs(F - F_fd)) <= 1e-4 * np.max(np.abs(F))


def test_p_l_limits_and_value():
    assert np.isclose(p_l(4, 32, 16, 0.0), 0.5)
    assert p_l(4, 32, 16, 1e6) <= 1e-12
    assert p_l(4, 32, 16, np.inf) == 0.0
    # high-precision two-path evaluation at K=4, T_s=32, N=16, eta=1
    from mpmath import mp, mpf, exp as mexp, log as mlog, erfc, sqrt as msqrt
    mp.dps = 40
    K, Ts, N, eta = mpf(4), mpf(32), mpf(16), mpf(1)
    x = N * eta / (2 + N * eta)
    ref = mexp(K * Ts * (mlog(4 * (1 + N * eta) / (2 + N * eta) ** 2) + x ** 2)) \
        * erfc(msqrt(2 * K * Ts) * x / msqrt(2)) / 2
    assert np.isclose(p_l(4, 32, 16, 1.0), float(ref), rtol=1e-12)


def test_p_l_matches_scipy_tail_without_cancellation():
    # q is erfc(sqrt(k t_s) x) / 2, the Gaussian tail Q(z) at z = sqrt(2 k t_s) x;
    # scipy's ndtr(-z) is the same tail, where 1 - ndtr(z) rounds to 0 beyond z ~ 8.3
    from scipy.special import ndtr
    for k, t_s, n in ((4, 32, 16), (2, 8, 8), (1, 4, 4), (6, 64, 20)):
        for eta in np.logspace(-3, 3, 61):
            x = n * eta / (2.0 + n * eta)
            ref = (np.exp(k * t_s * (np.log(4.0 * (1.0 + n * eta) / (2.0 + n * eta) ** 2) + x ** 2))
                   * ndtr(-np.sqrt(2.0 * k * t_s) * x))
            if ref >= np.finfo(float).tiny:
                assert p_l(k, t_s, n, eta) == pytest.approx(ref, rel=1e-12, abs=0.0), (k, t_s, n, eta)
    # z = sqrt(256) * 16/18 = 14.2: the tail is about 1e-46, not 0
    assert p_l(4, 32, 16, 1.0) > 0.0


def test_valley_weight_matches_the_regularized_incomplete_gamma():
    from scipy.special import gammainc
    u = np.logspace(-3, 3, 601)
    w = np.array([valley_weight(x) for x in u])
    np.testing.assert_allclose(w, gammainc(1.5, u), rtol=1e-12, atol=0.0)
    # the small-u series keeps it monotone and in [0, 1] where the closed
    # form's two terms cancel
    u = np.logspace(-12, 3, 1501)
    w = np.array([valley_weight(x) for x in u])
    assert np.all((w >= 0.0) & (w <= 1.0))
    assert np.all(np.diff(w) >= 0.0)


def test_u_tilde():
    assert u_tilde(4, 10, 16, 0.0) == 0.0
    assert np.isclose(u_tilde(4, 10, 16, 1e9), 40.0, rtol=1e-6)
    assert np.isclose(u_tilde(4, 10, 16, 1.0), 40 * (16.0 / 18.0) ** 2)
    assert u_tilde(4, 10, 16, np.inf) == 40.0


def test_valley_weight():
    assert valley_weight(0.0) == 0.0
    assert valley_weight(200.0) >= 1.0 - 1e-12
    u = np.linspace(0, 30, 400)
    w = np.array([valley_weight(x) for x in u])
    assert np.all(np.diff(w) >= -1e-15) and np.all((w >= 0) & (w <= 1))


def test_zzb_subspace_limits():
    # low SNR: the a-priori term dominates; K_i = 1 gives ZETA^2 / 12
    inp = _random_inputs(5, sigma_n2=1e12, k_r=1, k_t=1)
    apb = zzb_subspace(inp, 'RS')
    assert np.isclose(apb, ZETA ** 2 / 12, rtol=1e-3)
    # high SNR: collapses onto the Fisher (CRB-type) term
    inp = _random_inputs(5, sigma_n2=1e-9, k_r=1, k_t=1)
    F, _ = fisher_information(inp, 'RS')
    assert np.isclose(zzb_subspace(inp, 'RS'), np.trace(np.linalg.inv(F)), rtol=1e-6)


def test_zzb_full_aggregation():
    inp = _random_inputs(6)
    z_r = zzb_subspace(inp, 'RS')
    z_t = zzb_subspace(inp, 'TS')
    assert np.isclose(zzb_full(inp), (2 * z_r + 2 * z_t) / 4)
    # weight collapse with an empty transmission side
    inp1 = _random_inputs(7, k_r=2, k_t=0)
    assert np.isclose(zzb_full(inp1), zzb_subspace(inp1, 'RS'))


@pytest.mark.parametrize("scenario", [1, 2])
def test_zzb_noiseless_batch_is_the_zero_limit(scenario):
    # make_batch at snr_db=inf gives sigma_n2 = 0; the bound there is its
    # sigma^2 -> 0 limit, 0, which it approaches in proportion to sigma^2
    cfg = ExperimentConfig(scenario=scenario, snr_db=np.inf, seed=0)
    for trial in range(3):
        scene, prof, ch, batch = make_batch(cfg, trial)
        assert batch.sigma_n2 == 0.0
        assert zzb_full(ZzbInputs(scene, prof, ch, batch.sigma_n2)) == 0.0
        per_s2 = [zzb_full(ZzbInputs(scene, prof, ch, s2)) / s2 for s2 in (1e-8, 1e-10)]
        assert np.isclose(per_s2[0], per_s2[1], rtol=1e-6)


@pytest.mark.parametrize("subspace", ['RS', 'TS'])
def test_fisher_information_rejects_a_noiseless_batch(subspace):
    # sigma_n2 = 0 has no finite information: a ValueError naming sigma_n2,
    # not a bare ZeroDivisionError
    scene, prof, ch, batch = make_batch(ExperimentConfig(snr_db=np.inf, seed=0), 0)
    assert batch.sigma_n2 == 0.0
    with pytest.raises(ValueError, match="sigma_n2=0"):
        fisher_information(ZzbInputs(scene, prof, ch, batch.sigma_n2), subspace)


def test_zzb_crb_ratio_tends_to_one():
    ratios = []
    for snr in (20.0, 40.0, 60.0):
        inp = _random_inputs(8, sigma_n2=10 ** (-snr / 10))
        crb = (2 * np.trace(np.linalg.inv(fisher_information(inp, 'RS')[0])) / 2
               + 2 * np.trace(np.linalg.inv(fisher_information(inp, 'TS')[0])) / 2) / 4
        ratios.append(zzb_full(inp) / crb)
    assert ratios[-1] < ratios[0] or np.isclose(ratios[0], 1.0, rtol=1e-6)
    assert np.isclose(ratios[-1], 1.0, rtol=1e-6)
