"""End-to-end acceptance gate.

Seven criteria, each pinned to a fixed seed/trial recipe:
  1. annihilating-filter spectra at the four-user reference scene
  2. success probability and RMSE at 15 dB over 200 trials
  3. solver convergence speed at the default stopping rule
  4. SNR sweep orderings and the Ziv-Zakai bound comparison
  5. runtime ordering of the two solvers
  6. aperture dependence versus the grid baselines
  7. numeric property suite (no experiment dependence)

The Monte Carlo fixtures are module-scoped and shared across criteria; the
SNR sweep behind criteria 2, 4 and 5 takes about 70 s on a 2-vCPU VM.
"""

import numpy as np
import pytest

from starfri import baselines as bl
from starfri import star_ris_model as sm
from starfri import structured_linalg as sl
from starfri.bounds import ZzbInputs, fisher_information, zzb_full
from starfri.experiments import (ExperimentConfig, make_batch, match_and_score,
                                 run_convergence, run_method, run_spectrum)
from starfri.fri_nonuniform import estimate_angles_nonuniform, subspace_af_coeffs
from starfri.fri_uniform import estimate_angles_uniform
from starfri.refine import PgdConfig

SNRS = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
TRIALS = 200


def _rmse(cell):
    return np.sqrt(np.mean(cell["sq"])) if cell["sq"] else float("nan")


@pytest.fixture(scope="module")
def snr_sweep():
    """SNR x scenario x method grid, plus per-trial MSE/bound pairs.

    Returns (cells, mse_trials, zzb_trials) where cells[(scenario, snr)][m]
    holds success flags, success-conditioned squared errors (deg^2) and
    runtimes; mse_trials[snr] holds the per-trial mean squared error
    (radians^2, all trials) of the paired solver in scenario 1 and
    zzb_trials[snr] the matching per-trial bound values.
    """
    cells = {}
    mse_trials = {snr: [] for snr in SNRS}
    zzb_trials = {snr: [] for snr in SNRS}
    for scenario, methods in ((1, ("M1", "M2", "FFT", "OMP")), (2, ("M1", "M2"))):
        for snr in SNRS:
            cfg = ExperimentConfig(scenario=scenario, snr_db=snr, trials=TRIALS, seed=0)
            grid = {m: dict(succ=[], sq=[], runtime=[]) for m in methods}
            for i in range(TRIALS):
                scene, prof, ch, batch = make_batch(cfg, i)
                if scenario == 1:
                    zzb_trials[snr].append(
                        zzb_full(ZzbInputs(scene, prof, ch, batch.sigma_n2)))
                for m in methods:
                    angles, _, dt = run_method(m, batch, cfg)
                    errors, success = match_and_score(angles, scene)
                    grid[m]["succ"].append(success)
                    grid[m]["runtime"].append(dt)
                    if success:
                        grid[m]["sq"].extend(np.square(errors))
                    if scenario == 1 and m == "M2":
                        mse_trials[snr].append(
                            float(np.mean(np.square(np.radians(errors)))))
            cells[scenario, snr] = grid
    return cells, mse_trials, zzb_trials


@pytest.fixture(scope="module")
def aperture_sweep():
    """Scenario 1, 15 dB, 200 trials at N=10 and N=20 for all four methods."""
    out = {}
    for n in (10, 20):
        cfg = ExperimentConfig(scenario=1, snr_db=15.0, trials=TRIALS, seed=0, n=n)
        grid = {m: dict(succ=[], sq=[]) for m in ("M1", "M2", "FFT", "OMP")}
        for i in range(TRIALS):
            scene, _, _, batch = make_batch(cfg, i)
            for m in grid:
                angles, _, _ = run_method(m, batch, cfg)
                errors, success = match_and_score(angles, scene)
                grid[m]["succ"].append(success)
                if success:
                    grid[m]["sq"].extend(np.square(errors))
        out[n] = grid
    return out


# --- criterion 1: spectra ---------------------------------------------------

def local_minima(grid, spectrum):
    """The grid points where the spectrum is strictly below both neighbours."""
    s = np.asarray(spectrum)
    idx = np.where((s[1:-1] < s[:-2]) & (s[1:-1] < s[2:]))[0] + 1
    return np.asarray(grid)[idx]


def test_local_minima():
    grid = np.arange(5.0)
    spec = np.array([1.0, 0.2, 0.8, 0.1, 0.9])
    assert np.allclose(local_minima(grid, spec), [1.0, 3.0])


def _nearest_minimum_gaps(grid, spectrum, truths):
    minima = local_minima(grid, spectrum)
    return [np.min(np.abs(np.asarray(minima) - t)) for t in truths]


def test_criterion_1_spectra_scenario_1():
    cfg = ExperimentConfig(scenario=1, snr_db=15.0, seed=0)
    out = run_spectrum(cfg)
    truths = list(out["theta_rs"]) + list(out["theta_ts"])
    assert np.max(_nearest_minimum_gaps(out["grid"], out["m1"], truths)) <= 0.5
    # in the uniform regime both subspace spectra see all four angles
    assert np.max(_nearest_minimum_gaps(out["grid"], out["m2_rs"], truths)) <= 0.5
    assert np.max(_nearest_minimum_gaps(out["grid"], out["m2_ts"], truths)) <= 0.5
    diff = np.linalg.norm(out["m2_rs"] - out["m2_ts"])
    assert diff <= 0.05 * np.linalg.norm(out["m2_rs"])


def test_criterion_1_spectra_scenario_2():
    cfg = ExperimentConfig(scenario=2, snr_db=15.0, seed=0)
    out = run_spectrum(cfg)
    assert np.max(_nearest_minimum_gaps(out["grid"], out["m2_rs"], out["theta_rs"])) <= 0.5
    assert np.max(_nearest_minimum_gaps(out["grid"], out["m2_ts"], out["theta_ts"])) <= 0.5
    # the combined-model spectrum is biased: at least one minimum displaced
    truths = list(out["theta_rs"]) + list(out["theta_ts"])
    assert np.max(_nearest_minimum_gaps(out["grid"], out["m1"], truths)) > 0.5


# --- criterion 2: success probability and accuracy at 15 dB ------------------

def test_criterion_2_success_and_rmse(snr_sweep):
    cells, _, _ = snr_sweep
    for scenario, method in ((1, "M1"), (1, "M2"), (2, "M2")):
        cell = cells[scenario, 15.0][method]
        assert np.mean(cell["succ"]) >= 0.95
        assert _rmse(cell) <= 0.5


# --- criterion 3: convergence speed ------------------------------------------

def test_criterion_3_convergence():
    cfg = ExperimentConfig(scenario=1, snr_db=15.0, trials=100, seed=0)
    traces, iters = run_convergence(cfg)
    for m in ("M1", "M2"):
        # stopping rule reached within 45 iterations (10-iteration tolerance)
        assert np.mean(iters[m]) <= 55
        d30 = [h[min(29, len(h) - 1)] for h in traces[m]]
        assert np.mean(d30) <= 1e-5


# --- criterion 4: SNR sweep and the Ziv-Zakai bound ---------------------------

def test_criterion_4_method_orderings(snr_sweep):
    cells, _, _ = snr_sweep
    for snr in SNRS:
        if snr < 10.0:
            continue
        s1 = cells[1, snr]
        for m in ("M1", "M2"):
            assert _rmse(s1[m]) <= _rmse(s1["FFT"])
            assert _rmse(s1[m]) <= _rmse(s1["OMP"])
        s2 = cells[2, snr]
        assert _rmse(s2["M2"]) <= _rmse(s2["M1"])


def test_criterion_4_zzb_validity(snr_sweep):
    _, mse_trials, zzb_trials = snr_sweep
    ratios = {}
    for snr in SNRS:
        mse = np.asarray(mse_trials[snr])
        bound = float(np.mean(zzb_trials[snr]))
        se = mse.std(ddof=1) / np.sqrt(len(mse))
        # the bound must hold within two-sided 95% Monte Carlo confidence
        assert mse.mean() + 1.96 * se >= bound
        ratios[snr] = mse.mean() / bound
    assert ratios[30.0] < ratios[10.0]


# --- criterion 5: runtime ordering --------------------------------------------

def test_criterion_5_runtime_ordering(snr_sweep):
    cells, _, _ = snr_sweep
    for scenario in (1, 2):
        cell = cells[scenario, 15.0]
        assert np.mean(cell["M1"]["runtime"]) < np.mean(cell["M2"]["runtime"])


# --- criterion 6: aperture dependence ------------------------------------------

def test_criterion_6_aperture(aperture_sweep):
    rmse = {(n, m): _rmse(aperture_sweep[n][m])
            for n in (10, 20) for m in ("M1", "M2", "FFT", "OMP")}
    for m in ("M1", "M2"):
        assert rmse[20, m] < rmse[10, m]
    improvement = {m: (rmse[10, m] - rmse[20, m]) / rmse[10, m]
                   for m in ("M1", "M2", "FFT", "OMP")}
    for prop in ("M1", "M2"):
        for base in ("FFT", "OMP"):
            assert improvement[prop] > improvement[base]


# --- criterion 7: numeric property suite ---------------------------------------

def test_criterion_7_hankel_round_trips():
    # the lift and average of every M2 iteration, on beta = [x_R; x_T]
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(4, 20))
        alpha = int(rng.integers(1, n - 1))
        x = rng.standard_normal(2 * n) + 1j * rng.standard_normal(2 * n)
        assert np.allclose(sl.inverse_paired_hankel(sl.paired_hankel_lift(x, alpha)), x,
                           atol=1e-12)


def test_criterion_7_lifting_lipschitz():
    rng = np.random.default_rng(1)
    for _ in range(200):
        n, alpha = 16, 5
        x = rng.standard_normal(2 * n) + 1j * rng.standard_normal(2 * n)
        y = rng.standard_normal(2 * n) + 1j * rng.standard_normal(2 * n)
        d = np.linalg.norm(sl.paired_hankel_lift(x, alpha) - sl.paired_hankel_lift(y, alpha))
        assert d <= np.sqrt(alpha + 1) * np.linalg.norm(x - y) + 1e-12


def test_criterion_7_rank_truncation_optimality():
    rng = np.random.default_rng(2)
    m = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
    best = np.linalg.norm(m - sl.rank_truncate(m, 1))
    for _ in range(2000):
        u = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        cand = np.outer(u, v)
        c = np.vdot(cand, m) / np.vdot(cand, cand)
        assert np.linalg.norm(m - c * cand) >= best - 1e-12


def test_criterion_7_weyl_singular_value_bound():
    rng = np.random.default_rng(3)
    for _ in range(100):
        u = rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))
        v = rng.standard_normal((2, 6)) + 1j * rng.standard_normal((2, 6))
        e = 0.1 * (rng.standard_normal((8, 6)) + 1j * rng.standard_normal((8, 6)))
        s = np.linalg.svd(u @ v + e, compute_uv=False)
        assert s[2] <= np.linalg.norm(e, 2) + 1e-12


def test_criterion_7_averaging_projection_distance():
    rng = np.random.default_rng(4)
    x = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    h = sl.paired_hankel_lift(x, 7)
    for _ in range(1000):
        e = rng.standard_normal(h.shape) + 1j * rng.standard_normal(h.shape)
        proj = sl.paired_hankel_lift(sl.inverse_paired_hankel(h + e), 7)
        assert np.linalg.norm(proj - h) <= 2 * np.linalg.norm(e) + 1e-12


def test_criterion_7_element_constraint_residuals():
    rng = np.random.default_rng(5)
    for scen in (sm.UNIFORM, sm.NONUNIFORM):
        prof = sm.generate_profile(scen, 16, 32, rng)
        # under a unit channel the operator's halves are the reflection and
        # transmission coefficients the data are synthesized with
        r, t = np.split(sm.build_paired_operator(prof, sm.Channel(np.ones(16))), 2)
        assert np.max(np.abs(np.abs(r) ** 2 + np.abs(t) ** 2 - 1.0)) <= 1e-12
        ratio = t / r
        assert np.max(np.abs(np.real(ratio))) <= 1e-10 * np.max(np.abs(ratio))


def test_criterion_7_noiseless_annihilation():
    rng = np.random.default_rng(6)
    scene = sm.draw_scene(rng, 2, 2)
    prof = sm.generate_profile(sm.NONUNIFORM, 16, 32, rng)
    x = sm.latent_fri_vectors(scene, prof)
    c_r, c_t = subspace_af_coeffs(x, 5)
    for c, v in ((c_r, x[:16]), (c_t, x[16:])):
        h = sl.hankel_lift(v, 5)
        assert np.linalg.norm(h @ c) <= 1e-9 * np.linalg.norm(h)


def test_criterion_7_fim_finite_difference():
    rng = np.random.default_rng(7)
    scene = sm.draw_scene(rng, 2, 2)
    prof = sm.generate_profile(sm.NONUNIFORM, 16, 32, rng)
    ch = sm.draw_channel(rng, 16)
    inputs = ZzbInputs(scene, prof, ch, sigma_n2=10 ** (-1.5))
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
    d = np.column_stack(cols)
    f_fd = (2.0 / (prof.t_s * inputs.sigma_n2)) * np.real(d.conj().T @ d)
    f, _ = fisher_information(inputs, 'RS')
    assert np.max(np.abs(f - f_fd)) <= 1e-4 * np.max(np.abs(f))


def test_criterion_7_noiseless_end_to_end_exactness(by_subspace):
    rng = np.random.default_rng(8)
    scene = sm.draw_scene(rng, 2, 2)
    for scen, run in ((sm.UNIFORM, "M1"), (sm.NONUNIFORM, "M2")):
        prof = sm.generate_profile(scen, 16, 32, rng)
        ch = sm.draw_channel(rng, 16)
        batch = sm.synthesize_measurements(scene, prof, ch, np.inf, rng)
        if run == "M1":
            res = estimate_angles_uniform(batch, PgdConfig(init="Grid"))
        else:
            res = estimate_angles_nonuniform(batch, PgdConfig(init="Grid"))
        rs, ts = by_subspace(res)
        assert np.max(np.abs(rs - np.sort(scene.theta_rs))) <= 1e-6
        assert np.max(np.abs(ts - np.sort(scene.theta_ts))) <= 1e-6
