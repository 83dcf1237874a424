"""Tests for the grid initializer, root selection and ML polish."""

import tracemalloc
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from starfri import experiments, fri_nonuniform, fri_uniform, refine
from starfri import star_ris_model as sm
from starfri import structured_linalg as sl
from starfri.experiments import ExperimentConfig, make_batch
from starfri.fri_uniform import uniform_assumption_operator
from starfri.refine import (INIT_STEP, PgdConfig, RecoveryResult, _atoms, _residual_gate,
                            check_slots, coordinate_rescan, grid_init, multistart, pgd, pgd_step,
                            polish_angles, select_roots_by_energy, varpro_refine)
from starfri.star_ris_model import grid_steering, steering_derivative, steering_matrix


def _batch(theta_rs, theta_ts, snr_db=np.inf, seed=0, scenario=sm.NONUNIFORM):
    rng = np.random.default_rng(seed)
    k = len(theta_rs) + len(theta_ts)
    scene = sm.UserScene(list(theta_rs), list(theta_ts), np.exp(2j * np.pi * rng.random(k)))
    prof = sm.generate_profile(scenario, 16, 32, rng)
    ch = sm.draw_channel(rng, 16)
    return scene, sm.synthesize_measurements(scene, prof, ch, snr_db, rng)


def test_grid_init_lands_near_truth():
    scene, batch = _batch([-12.0, 39.0], [-47.0, 16.0])
    x_r, x_t, th_r, th_t = grid_init(batch.operator_paired, batch.y, 2, 2)
    assert np.max(np.abs(th_r - np.array([-12.0, 39.0]))) <= 0.5
    assert np.max(np.abs(th_t - np.array([-47.0, 16.0]))) <= 0.5
    assert x_r.shape == (16,) and x_t.shape == (16,)


def _reference_grid_init(psi, y, k_r, k_t, grid_step=0.5, lo=-60.0, hi=60.0, cycles=3):
    # the initializer on both sides' explicit t_s x G atom blocks, scored as
    # |r^H A| over A's column norms and fitted on A's columns
    n = psi.shape[0] // 2
    grid = np.arange(lo, hi + 1e-9, grid_step)
    sv = np.exp(-1j * np.pi * np.outer(np.arange(n), np.sin(np.radians(grid))))
    atoms = (psi[:n].T @ sv, psi[n:].T @ sv)
    norms = [np.linalg.norm(a, axis=0) for a in atoms]
    sel = []

    def fit(support):
        A = np.zeros((len(y), 0), complex)
        if support:
            A = np.column_stack([atoms[s][:, i] for s, i in support])
        coef, *_ = np.linalg.lstsq(A, y, rcond=None)
        return y - A @ coef, coef

    def score(side, residual):
        return np.abs(residual.conj() @ atoms[side]) / norms[side]

    res = y.copy()
    for _ in range(k_r + k_t):
        c = [score(s, res) if sum(t == s for t, _ in sel) < k else np.full(len(grid), -1.0)
             for s, k in enumerate((k_r, k_t))]
        side = 0 if c[0].max() >= c[1].max() else 1
        sel.append((side, int(np.argmax(c[side]))))
        res, _ = fit(sel)
    for _ in range(cycles):
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
        x[side] += c * sv[:, i]
        th[side].append(grid[i])
    return x[0], x[1], np.sort(th[0]), np.sort(th[1])


@pytest.mark.parametrize("scenario", [1, 2])
def test_grid_init_matches_explicit_block_reference(scenario):
    # the same selected angles as the explicit-block initializer, and the same
    # latent vectors to rounding, over SNRs and per-side orders
    for snr in (0.0, 15.0, 30.0, np.inf):
        cfg = ExperimentConfig(scenario=scenario, snr_db=snr, seed=5)
        for trial in range(3):
            _, _, _, batch = make_batch(cfg, trial)
            for k_r, k_t in ((2, 2), (1, 0), (0, 2), (3, 1)):
                got = grid_init(batch.operator_paired, batch.y, k_r, k_t)
                want = _reference_grid_init(batch.operator_paired, batch.y, k_r, k_t)
                assert np.array_equal(got[2], want[2]) and np.array_equal(got[3], want[3])
                for g, w in zip(got[:2], want[:2]):
                    assert np.linalg.norm(g - w) <= 1e-9 * np.linalg.norm(w)


def test_grid_init_allocates_less_than_one_atom_block():
    # with the coarse grid's steering and the lag sums cached, the initializer
    # must not allocate a t_s x G complex atom block
    _, _, _, batch = make_batch(ExperimentConfig(scenario=2, snr_db=15.0, seed=0), 0)
    psi = batch.operator_paired
    block = batch.y.size * grid_steering(psi.shape[0] // 2, INIT_STEP)[0].size * 16
    grid_init(psi, batch.y, 2, 2)
    tracemalloc.start()
    try:
        grid_init(psi, batch.y, 2, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < block


def test_varpro_refines_to_truth():
    scene, batch = _batch([-20.5, 8.25], [33.75], seed=1)
    th_r, th_t, residual = varpro_refine(batch.y, batch.operator_paired,
                                         np.array([-20.0, 8.5]), np.array([33.5]))
    assert np.max(np.abs(th_r - [-20.5, 8.25])) <= 1e-6
    assert np.max(np.abs(th_t - [33.75])) <= 1e-6
    assert residual <= 1e-8 * np.linalg.norm(batch.y)   # noiseless: the fit is exact


@pytest.mark.parametrize("method", ["M1", "M2"])
def test_least_squares_matches_scipy_lm_on_the_benchmark_polish(monkeypatch, method):
    # refine.least_squares is MINPACK's lmder, called as leastsq calls it;
    # scipy's least_squares(method='lm') runs the same lmder call, so both must reach
    # the same end point, residual and evaluation count on every varpro
    # problem of the fri_mc benchmark's seed-0 trials 0-5 (both scenarios,
    # 0/15/30 dB)
    from scipy.optimize import least_squares as scipy_lm
    problems = []
    solve = refine.least_squares

    def recording(fun, x0, jac, **kwargs):
        tolerances = {name: kwargs[name] for name in ("xtol", "ftol", "gtol", "max_nfev")}
        problems.append((fun, np.array(x0), jac, tolerances))
        return solve(fun, x0, jac, **kwargs)

    monkeypatch.setattr(refine, "least_squares", recording)
    for i in range(6):
        cfg = ExperimentConfig(scenario=(1, 2)[i % 2], snr_db=(0.0, 15.0, 30.0)[(i // 2) % 3],
                               seed=0, methods=(method,))
        _, _, _, batch = make_batch(cfg, i)
        experiments.run_method(method, batch, cfg)
    assert len(problems) >= 6
    for fun, x0, jac, kwargs in problems:
        want = scipy_lm(fun, x0, jac=jac, method='lm', **kwargs)
        got = solve(fun, x0, jac, **kwargs)
        assert np.array_equal(got.x, want.x)
        assert np.array_equal(got.fun, want.fun)
        assert got.nfev == want.nfev


def test_varpro_builds_atoms_and_jacobian_once_per_point(monkeypatch):
    # MINPACK's compiled wrapper asks for the residual at x0 once to size its
    # output, then lmder asks for it again; every other point's residual is
    # asked for once, and the Jacobian once at each point it accepts, right
    # after that point's residual. Each distinct point's atoms are built once,
    # and its derivative atoms once when its Jacobian is asked for
    _, batch = _batch([-20.5, 8.25], [33.75, -40.0], snr_db=15.0, seed=2)
    counts = {"_atoms": 0, "steering_derivative": 0}
    asked = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in counts:
        monkeypatch.setattr(refine, name, counting(name, getattr(refine, name)))
    solve = refine.least_squares

    def spying(fun, x0, jac, **kwargs):
        def f(th):
            asked.append(("fun", th.tobytes()))
            return fun(th)

        def j(th):
            asked.append(("jac", th.tobytes()))
            return jac(th)

        return solve(f, x0, j, **kwargs)

    monkeypatch.setattr(refine, "least_squares", spying)
    th0 = (np.array([-20.0, 8.5]), np.array([33.5, -40.5]))
    varpro_refine(batch.y, batch.operator_paired, *th0)
    x0 = np.concatenate(th0).tobytes()
    fun_points = [key for kind, key in asked if kind == "fun"]
    jac_points = [key for kind, key in asked if kind == "jac"]
    assert fun_points[:2] == [x0, x0] and len(set(fun_points)) == len(fun_points) - 1
    assert len(set(jac_points)) == len(jac_points) > 1
    assert all(asked[i - 1] == ("fun", key) for i, (kind, key) in enumerate(asked)
               if kind == "jac")
    assert counts["steering_derivative"] == len(jac_points)
    assert counts["_atoms"] == len(set(fun_points)) + len(jac_points)


@pytest.mark.parametrize("k_r", [0, 1, 2, 3])
def test_atoms_and_derivs_match_steering_matrix_and_derivative(k_r):
    # _atoms of the steering matrix and of its derivative in degrees equal
    # the columns sent one at a time through their side's half of psi
    _, batch = _batch([-20.5, 8.25], [33.75], snr_db=15.0, seed=3)
    psi = batch.operator_paired
    n = psi.shape[0] // 2
    th = np.array([-59.9, -20.5, 8.25, 33.75, 0.0])[:k_r + 2]
    S = steering_matrix(th, n)
    dS = steering_derivative(th, S) * (np.pi / 180.0)
    halves = [psi[:n].T if j < k_r else psi[n:].T for j in range(len(th))]
    assert np.allclose(_atoms(psi, S, k_r),
                       np.column_stack([h @ S[:, j] for j, h in enumerate(halves)]))
    assert np.allclose(_atoms(psi, dS, k_r),
                       np.column_stack([h @ dS[:, j] for j, h in enumerate(halves)]))


def test_coordinate_rescan_escapes_wrong_basin():
    scene, batch = _batch([-20.5, 8.25], [33.75], seed=1)
    # one angle started 25 degrees off; the 1-D global rescan must recover it
    th_r, th_t = coordinate_rescan(batch.y, batch.operator_paired,
                                   np.array([-45.0, 8.3]), np.array([33.7]))
    assert np.max(np.abs(th_r - [-20.5, 8.25])) <= 0.2


def _reference_coordinate_rescan(y, psi, th_r, th_t, grid_step=0.1, lo=-60.0, hi=60.0, cycles=2):
    # the rescan with every candidate projected: C = (I - QQ^H) cand in full
    n = psi.shape[0] // 2

    def steering(angles):
        return np.exp(-1j * np.pi * np.outer(np.arange(n), np.sin(np.radians(angles))))

    grid = np.arange(lo, hi + 1e-9, grid_step)
    sv = steering(grid)
    cand_r = psi[:n].T @ sv
    cand_t = psi[n:].T @ sv
    th = list(th_r) + list(th_t)
    k_r = len(th_r)
    K = len(th)
    for _ in range(cycles):
        changed = False
        for k in range(K):
            other_r = [th[j] for j in range(K) if j != k and j < k_r]
            other_t = [th[j] for j in range(K) if j != k and j >= k_r]
            Q, _ = np.linalg.qr(np.hstack([psi[:n].T @ steering(other_r),
                                           psi[n:].T @ steering(other_t)]))
            cand = cand_r if k < k_r else cand_t
            res_y = y - Q @ (Q.conj().T @ y)
            C = cand - Q @ (Q.conj().T @ cand)
            score = np.abs(C.conj().T @ res_y) ** 2 / np.maximum((np.abs(C) ** 2).sum(axis=0), 1e-12)
            i = int(np.argmax(score))
            if abs(grid[i] - th[k]) > grid_step / 2:
                th[k] = grid[i]
                changed = True
        if not changed:
            break
    return np.array(th[:k_r]), np.array(th[k_r:])


@pytest.mark.parametrize("scenario,n", [(1, 16), (2, 16), (1, 10), (2, 10), (1, 20), (2, 20)],
                         ids=["1", "2", "1-n10", "2-n10", "1-n20", "2-n20"])
def test_coordinate_rescan_matches_projected_reference(scenario, n):
    # identical outputs on seeded batches at the criterion-6 apertures and
    # n = 16, from starts near the truth, one angle in a wrong basin, with one
    # subspace left empty, and with a single angle (K = 1: Q has no columns)
    rng = np.random.default_rng(scenario)
    moved = 0
    for snr in (0.0, 15.0, 30.0):
        cfg = ExperimentConfig(scenario=scenario, snr_db=snr, seed=4, n=n)
        for trial in range(4):
            scene, _, _, batch = make_batch(cfg, trial)
            for psi in (batch.operator_paired, uniform_assumption_operator(batch)):
                th_r = np.sort(scene.theta_rs) + rng.normal(0.0, 0.3, 2)
                th_t = np.sort(scene.theta_ts) + rng.normal(0.0, 0.3, 2)
                th_r[trial % 2] += 25.0 * rng.choice([-1, 1])
                for args in ((th_r, th_t), (th_r[:0], th_t),
                             (th_r[:1], th_t[:0]), (th_r[:0], th_t[1:])):
                    got = coordinate_rescan(batch.y, psi, *args)
                    want = _reference_coordinate_rescan(batch.y, psi, *args)
                    assert all(np.array_equal(g, w) for g, w in zip(got, want))
                    moved += not np.array_equal(got[0], args[0])
    assert moved > 0


@pytest.mark.parametrize("solver", [fri_uniform, fri_nonuniform], ids=["M1", "M2"])
def test_pgd_data_step_is_the_gradient_step(solver):
    # with the identity as projection, one iteration is the bare gradient
    # step b + 2 mu psi^* (y - psi^T b) under the solver's lifting operator
    rng = np.random.default_rng(11)
    _, _, _, batch = make_batch(ExperimentConfig(scenario=2, snr_db=15.0, seed=11), 5)
    cfg = PgdConfig(i_max=1)
    psi, _ = solver.lifting(batch, cfg)
    b0 = rng.standard_normal(psi.shape[0]) + 1j * rng.standard_normal(psi.shape[0])
    start = b0.copy()
    b, it, history, converged = pgd(batch, cfg, psi, b0, lambda v: v)
    want = b0 + 2 * pgd_step(psi) * (psi.conj() @ (batch.y - psi.T @ b0))
    assert it == 1 and not converged and len(history) == 1
    assert np.array_equal(b0, start)
    assert np.linalg.norm(b - want) <= 1e-12 * np.linalg.norm(want)
    step = np.linalg.norm(b - b0)
    assert abs(history[0] - step) <= 1e-12 * step


@pytest.mark.parametrize("fields, message", [
    ({"k_r": -1, "k_t": 3}, "k_r=-1"),
    ({"k_r": 3, "k_t": -1}, "k_t=-1"),
    ({"k_r": 0, "k_t": 0}, r"k_r \+ k_t = 0"),
    ({"i_max": 0}, "i_max=0"),
    ({"eps": -1e-7}, "eps=-1e-07"),
    ({"eps": np.nan}, "eps=nan"),
    ({"init": "Bogus"}, "init='Bogus'"),
], ids=["negative-k_r", "negative-k_t", "no-source", "no-iteration", "negative-eps", "nan-eps",
        "unknown-init"])
def test_pgd_config_rejects_a_setting_no_solve_can_run(fields, message):
    with pytest.raises(ValueError, match=message):
        PgdConfig(**fields)
    # replace() checks again, and a built config cannot be changed after its checks
    with pytest.raises(ValueError, match=message):
        replace(PgdConfig(), **fields)
    with pytest.raises(FrozenInstanceError):
        PgdConfig().k_r = -1


@pytest.mark.parametrize("solve", [fri_uniform.estimate_angles_uniform,
                                   fri_nonuniform.estimate_angles_nonuniform,
                                   fri_uniform.pgd_denoise, fri_nonuniform.pgd_denoise_paired])
def test_solvers_reject_fewer_slots_than_sources(solve):
    # t_s = 3 slots, K = 4 sources: both solvers and both denoisers refuse,
    # naming t_s and K
    _, _, _, batch = make_batch(ExperimentConfig(t_s=3, snr_db=15.0, seed=0), 0)
    assert len(batch.y) == 3
    with pytest.raises(ValueError, match=r"t_s=3.*K_R\+K_T=4"):
        solve(batch, PgdConfig(init="Grid"))
    check_slots(4, 4)   # as many slots as sources is enough


def test_grid_steering_cached_and_read_only():
    grid, sv = grid_steering(16, 0.1)
    assert grid_steering(16, 0.1)[1] is sv
    assert sv.shape == (16, 1201) and grid.shape == (1201,)
    with pytest.raises(ValueError):
        sv[0, 0] = 0.0


def test_polish_pipeline_end_to_end():
    scene, batch = _batch([-20.5, 8.25], [33.75], seed=2)
    th_r, th_t, _ = polish_angles(batch.y, batch.operator_paired,
                                  np.array([-45.0, 8.0]), np.array([34.0]))
    assert np.max(np.abs(np.sort(th_r) - [-20.5, 8.25])) <= 1e-6
    assert np.max(np.abs(th_t - [33.75])) <= 1e-6


@pytest.mark.parametrize("scenario", [1, 2])
@pytest.mark.parametrize("solver, estimate", [
    (fri_uniform, fri_uniform.estimate_angles_uniform),
    (fri_nonuniform, fri_nonuniform.estimate_angles_nonuniform),
], ids=["M1", "M2"])
def test_recovery_residual_is_the_fit_at_the_returned_angles(solver, estimate, scenario,
                                                             by_subspace):
    # the residual a solve records is ||y - A s_hat|| at its returned angles,
    # under the solver's own operator (M1's uniform assumption in scenario 2)
    cfg = PgdConfig(init="Grid")
    _, _, _, batch = make_batch(ExperimentConfig(scenario=scenario, snr_db=15.0, seed=5), 0)
    res = estimate(batch, cfg)
    psi, _ = solver.lifting(batch, cfg)
    n = psi.shape[0] // 2
    th_r, th_t = by_subspace(res)
    A = np.hstack([psi[:n].T @ steering_matrix(th_r, n), psi[n:].T @ steering_matrix(th_t, n)])
    s, *_ = np.linalg.lstsq(A, batch.y, rcond=None)
    assert res.residual == pytest.approx(np.linalg.norm(batch.y - A @ s), rel=1e-10)


def test_multistart_retries_above_the_gate_and_keeps_the_lowest_residual():
    # fake solves with given residuals: no retry at or below the noise-floor
    # gate; above it, the other inits run in INITS order until one reaches
    # the gate, and the lowest residual wins (the first on a tie)
    _, _, _, batch = make_batch(ExperimentConfig(snr_db=15.0, seed=0), 0)
    gate = _residual_gate(batch)

    def run(residuals):
        calls = []

        def solve_once(cfg):
            calls.append(cfg.init)
            return RecoveryResult(angles=[(float(len(calls)), 'RS')], iterations=0,
                                  residual_history=[], converged=False,
                                  residual=residuals[cfg.init])

        best = multistart(batch, PgdConfig(init="Grid"), solve_once)
        return calls, best.residual, best.angles[0][0]

    assert run({"Grid": gate}) == (["Grid"], gate, 1.0)
    assert run({"Grid": 0.5 * gate}) == (["Grid"], 0.5 * gate, 1.0)
    assert run({"Grid": 3 * gate, "Zero": 5 * gate, "Backprojection": 2 * gate}) == (
        ["Grid", "Zero", "Backprojection"], 2 * gate, 3.0)
    assert run({"Grid": 3 * gate, "Zero": 3 * gate, "Backprojection": 4 * gate}) == (
        ["Grid", "Zero", "Backprojection"], 3 * gate, 1.0)
    assert run({"Grid": 3 * gate, "Zero": gate, "Backprojection": 0.0}) == (
        ["Grid", "Zero"], gate, 2.0)


def test_select_roots_by_energy_rejects_spurious():
    thetas = [11.0, -37.0]
    z = np.exp(-1j * np.pi * np.sin(np.radians(thetas)))
    m = np.arange(16)
    sig = (z[None, :] ** m[:, None]) @ np.array([1.0, 0.8j])
    cands = np.concatenate([z, [0.97 * np.exp(0.4j), 1.02 * np.exp(-2.1j)]])
    kept = select_roots_by_energy(cands, 2, sig[:, None])
    assert np.allclose(np.sort_complex(kept), np.sort_complex(z), atol=1e-8)


def test_select_roots_by_energy_rejects_fewer_roots_than_sources():
    # a filter whose leading coefficient vanishes loses a root in
    # polynomial_roots: 3 taps, 1 root, for 2 sources
    z = np.exp(-1j * np.pi * np.sin(np.radians(11.0)))
    roots = sl.polynomial_roots(np.array([-z, 1.0, 1e-15]))
    assert len(roots) == 1
    sig = z ** np.arange(16)
    with pytest.raises(ValueError, match="1 roots for 2 sources"):
        select_roots_by_energy(roots, 2, sig[:, None])
    assert np.allclose(select_roots_by_energy(roots, 1, sig[:, None]), [z])
