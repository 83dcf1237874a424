"""Tests for the experiment harness, scoring and CLI."""

import csv
import functools
import itertools
import json
import os
import subprocess
import sys
import time
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from starfri import experiments, fri_nonuniform, fri_uniform
from starfri import star_ris_model as sm
from starfri.experiments import (CSV_COLUMNS, ExperimentConfig, _aggregate, main, make_batch,
                                 match_and_score, run_aperture_sweep, run_convergence,
                                 run_method, run_spectrum, run_sweep, run_trial, to_full_space,
                                 write_records)
from starfri.refine import PgdConfig


def _scene(theta_rs, theta_ts):
    k = len(theta_rs) + len(theta_ts)
    return sm.UserScene(list(theta_rs), list(theta_ts), np.ones(k, complex))


def test_to_full_space():
    out = to_full_space([(10.0, 'RS'), (-20.0, 'TS')])
    assert np.allclose(out, [10.0, 200.0])


def test_match_and_score_permutation_invariant():
    scene = _scene([-12.0, 39.0], [-47.0, 16.0])
    est = [(39.0, 'RS'), (16.0, 'TS'), (-12.0, 'RS'), (-47.0, 'TS')]
    errors, success = match_and_score(est, scene)
    assert success and np.allclose(errors, 0.0)


def test_match_and_score_threshold():
    scene = _scene([10.0], [])
    errors, success = match_and_score([(16.0, 'RS')], scene, threshold_deg=5.0)
    assert not success and np.isclose(errors[0], 6.0)
    errors, success = match_and_score([(14.0, 'RS')], scene, threshold_deg=5.0)
    assert success


def test_match_and_score_distinguishes_mirrored_labels():
    # theta on the RS side and theta on the TS side are different full-space
    # directions; swapping the labels must register as an error
    scene = _scene([25.0], [-25.0])
    good, s1 = match_and_score([(25.0, 'RS'), (-25.0, 'TS')], scene)
    assert s1 and np.allclose(good, 0.0)
    swapped, s2 = match_and_score([(25.0, 'TS'), (-25.0, 'RS')], scene)
    assert not s2 and np.max(swapped) >= 45.0


def test_match_and_score_breaks_an_l1_tie_by_the_largest_error():
    # (0, 1) against (2, 3): both matchings sum to 4; sorted order gives (2, 2), not (3, 1)
    errors, _ = match_and_score([(0.0, 'RS'), (1.0, 'RS')], _scene([2.0, 3.0], []))
    assert errors.tolist() == [2.0, 2.0]


_ANGLE = st.one_of(st.integers(-60, 60).map(float), st.floats(-60.0, 60.0))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_match_and_score_against_an_assignment_solver(data):
    # scipy's assignment solver as the oracle: the same total error, a
    # largest error never above its own, and the same errors in estimate
    # order whenever the optimal matching is unique
    from scipy.optimize import linear_sum_assignment
    k_r, k_t = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
    assume(k_r + k_t > 0)
    scene = _scene(data.draw(st.lists(_ANGLE, min_size=k_r, max_size=k_r)),
                   data.draw(st.lists(_ANGLE, min_size=k_t, max_size=k_t)))
    est = data.draw(st.lists(st.tuples(_ANGLE, st.sampled_from(['RS', 'TS'])),
                             min_size=k_r + k_t, max_size=k_r + k_t))
    errors, success = match_and_score(est, scene)
    truth = [(t, 'RS') for t in scene.theta_rs] + [(t, 'TS') for t in scene.theta_ts]
    cost = np.abs(to_full_space(est)[:, None] - to_full_space(truth)[None, :])
    rows, cols = linear_sum_assignment(cost)
    oracle = cost[rows, cols]
    assert errors.sum() == pytest.approx(oracle.sum(), rel=1e-12, abs=1e-9)
    assert errors.max() <= oracle.max()
    assert success or not oracle.max() <= 5.0
    perms = np.array(list(itertools.permutations(range(len(est)))))
    sums = cost[np.arange(len(est)), perms].sum(axis=1)
    if np.count_nonzero(sums <= sums.min() + 1e-9) == 1:
        assert np.array_equal(errors, oracle)


def test_match_and_score_cardinality_mismatch():
    scene = _scene([10.0], [20.0])
    errors, success = match_and_score([(10.0, 'RS')], scene)
    assert errors is None and not success


def test_make_batch_deterministic():
    cfg = ExperimentConfig(scenario=2, snr_db=15.0, seed=3)
    s1, p1, c1, b1 = make_batch(cfg, 7)
    s2, p2, c2, b2 = make_batch(cfg, 7)
    assert np.array_equal(b1.y, b2.y)
    assert np.array_equal(s1.theta_rs, s2.theta_rs)
    s3, _, _, b3 = make_batch(cfg, 8)
    assert not np.array_equal(b1.y, b3.y)


def test_make_batch_rejects_a_scenario_other_than_1_or_2():
    # scenario_name is the one scenario rule: no other value maps to a regime
    for scenario in (0, 3, "2", True, 1.0):
        with pytest.raises(ValueError, match=f"scenario={scenario!r} is neither 1 nor 2"):
            make_batch(ExperimentConfig(scenario=scenario), 0)


def test_run_trial_deterministic_and_method_selection():
    cfg = ExperimentConfig(scenario=1, snr_db=15.0, trials=1, seed=1, methods=("FFT", "OMP"))
    r1 = run_trial(cfg, 0)
    r2 = run_trial(cfg, 0)
    assert set(r1) == {"FFT", "OMP"}
    assert r1["FFT"]["angles"] == r2["FFT"]["angles"]


@pytest.mark.parametrize("method", ["FFT", "OMP", "SBL"])
def test_sbl_with_an_empty_subspace_reports_only_the_other(method):
    # k_t = 0 runs through the baselines themselves: no angle on that side
    cfg = ExperimentConfig(scenario=1, k_r=2, k_t=0, snr_db=15.0, seed=0)
    _, _, _, batch = make_batch(cfg, 0)
    angles, _, _ = run_method(method, batch, cfg)
    assert [lab for _, lab in angles] == ['RS', 'RS']


def test_aggregate_rmse_over_successes_only():
    cfg = ExperimentConfig(methods=("X",), snr_db=10.0)
    trials = [
        {"X": dict(errors=np.array([1.0, 1.0]), success=True, iterations=5, runtime=0.1)},
        {"X": dict(errors=np.array([9.0, 9.0]), success=False, iterations=7, runtime=0.3)},
    ]
    rec = _aggregate(cfg, trials)[0]
    assert rec.success_prob == 0.5 and np.isclose(rec.rmse_deg, 1.0)
    assert np.isclose(rec.mean_iterations, 6.0) and np.isclose(rec.mean_runtime_s, 0.2)
    # zero successes: RMSE reported as nan
    trials = [{"X": dict(errors=None, success=False, iterations=1, runtime=0.1)}]
    assert np.isnan(_aggregate(cfg, trials)[0].rmse_deg)


def test_csv_round_trip(tmp_path):
    cfg = ExperimentConfig(scenario=1, snr_db=15.0, trials=2, seed=0, methods=("FFT",))
    records = run_sweep(cfg)
    out = tmp_path / "metrics.csv"
    write_records(records, cfg, str(out))
    with open(out) as f:
        rows = list(csv.DictReader(f))
    assert list(rows[0]) == CSV_COLUMNS
    assert rows[0]["method"] == "FFT" and int(rows[0]["trials"]) == 2
    assert np.isclose(float(rows[0]["success_prob"]), records[0].success_prob)
    sidecar = json.loads((tmp_path / "metrics.config.json").read_text())
    assert sidecar["config"]["scenario"] == 1


def _without_runtime(records):
    return [{**asdict(r), "mean_runtime_s": None} for r in records]


def test_sweep_over_an_snr_list_runs_each_value():
    cfg = ExperimentConfig(scenario=1, snr_db=[10.0, 20.0], trials=2, seed=0, methods=("FFT",))
    records = run_sweep(cfg)
    assert [r.snr_db for r in records] == [10.0, 20.0]
    np.testing.assert_equal(_without_runtime(records[1:]),
                            _without_runtime(run_sweep(replace(cfg, snr_db=20.0))))


@pytest.mark.parametrize("methods, snr_db", [(("FFT",), 15.0), (("M1", "M2"), [0.0, 30.0])],
                         ids=["grid", "gridless"])
def test_sweep_with_two_workers_matches_one(methods, snr_db):
    # the pool's workers, a new pool per SNR point, give the serial run's
    # records, with the gridless methods on scipy's compiled modules too
    cfg = ExperimentConfig(scenario=2, snr_db=snr_db, trials=2, seed=0, methods=methods)
    np.testing.assert_equal(_without_runtime(run_sweep(replace(cfg, workers=2))),
                            _without_runtime(run_sweep(cfg)))


def test_sweep_at_minus_3000_db_completes():
    # a noise variance of 1e300 times the signal's: SBL overflows nothing
    # (RuntimeWarnings are errors here), and each trial is scored
    recs = run_sweep(ExperimentConfig(snr_db=-3000.0, trials=2, methods=("SBL", "M1")))
    assert [(r.method, r.trials) for r in recs] == [("SBL", 2), ("M1", 2)]


def test_cli_sweep_smoke(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--trials", "2", "--methods", "FFT,OMP",
               "--snr-db", "15", "--seed", "0", "--out", str(out)])
    assert rc == 0 and out.exists()
    with open(out) as f:
        rows = list(csv.DictReader(f))
    assert {r["method"] for r in rows} == {"FFT", "OMP"}


def test_cli_config_file_with_flag_override(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"trials": 2, "methods": ["OMP"], "snr_db": 20.0}))
    out = tmp_path / "o.csv"
    rc = main(["sweep", "--config", str(cfg_path), "--trials", "1", "--out", str(out)])
    assert rc == 0
    with open(out) as f:
        rows = list(csv.DictReader(f))
    assert int(rows[0]["trials"]) == 1 and rows[0]["method"] == "OMP"


def test_cli_config_file_rejects_unknown_key(tmp_path):
    # the search range and the scene separation are the model's, not settings
    cfg_path = tmp_path / "cfg.json"
    for key, val in (("snr", 20.0), ("angle_region", [-60.0, 60.0]), ("min_sep_deg", 2.0)):
        cfg_path.write_text(json.dumps({"trials": 1, key: val}))
        with pytest.raises(SystemExit, match=f"'{key}'"):
            main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "o.csv")])
        assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("experiment, out, written", [
    ("sweep", "sweep", ["sweep", "sweep.config.json"]),
    ("spectrum", "spec", ["spec.json"]),
    ("convergence", "conv", ["conv.json"]),
])
def test_cli_output_stays_in_a_directory_with_a_dot(tmp_path, experiment, out, written):
    # only the file name's extension is replaced, never a directory's
    out_dir = tmp_path / "res.d"
    out_dir.mkdir()
    assert main([experiment, "--trials", "1", "--methods", "FFT", "--out",
                 str(out_dir / out)]) == 0
    assert sorted(os.listdir(out_dir)) == written
    assert sorted(os.listdir(tmp_path)) == ["res.d"]


def test_cli_convergence_smoke(tmp_path):
    out = tmp_path / "conv.json"
    rc = main(["convergence", "--trials", "1", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert set(payload["iterations"]) == {"M1", "M2"}
    assert len(payload["traces"]["M1"][0]) >= 1


def _run_module(*args, cwd):
    """Run ``python <args>`` with this checkout's starfri first on the path."""
    src = os.path.dirname(os.path.dirname(experiments.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True)


def _no_trial(*args, **kwargs):
    raise AssertionError("a trial ran")


@pytest.mark.parametrize("runner, name, draw", [
    (run_convergence, "convergence", "make_batch"),
    (run_spectrum, "spectrum", "synthesize_measurements"),
])
def test_single_snr_experiment_rejects_an_snr_list(monkeypatch, runner, name, draw):
    monkeypatch.setattr(experiments, draw, _no_trial)
    with pytest.raises(ValueError, match=rf"{name} experiment runs at one SNR.*10\.0, 30\.0"):
        runner(ExperimentConfig(snr_db=[10.0, 30.0], trials=1))


def test_convergence_one_value_list_equals_the_scalar():
    cfg = ExperimentConfig(snr_db=30.0, trials=1)
    np.testing.assert_equal(run_convergence(replace(cfg, snr_db=[30.0])), run_convergence(cfg))


def test_cli_convergence_records_its_snr(tmp_path):
    out = tmp_path / "conv.json"
    assert main(["convergence", "--snr-db", "30", "--trials", "1", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["snr_db"] == 30.0


def test_cli_convergence_rejects_an_snr_list_before_writing(tmp_path):
    out = tmp_path / "conv.json"
    proc = _run_module("-m", "starfri.experiments", "convergence", "--snr-db", "10,20",
                       "--trials", "1", "--out", str(out), cwd=tmp_path)
    assert proc.returncode != 0
    assert "convergence experiment runs at one SNR" in proc.stderr
    assert not out.exists()


def test_module_entry_point_runs_without_runtime_warning(tmp_path):
    # runpy warns when the package has already imported the module it runs
    out = tmp_path / "m.csv"
    proc = _run_module("-W", "error::RuntimeWarning", "-m", "starfri.experiments", "sweep",
                       "--trials", "1", "--methods", "FFT", "--out", str(out), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert out.exists()


def test_aperture_sweep_records_an_infeasible_size_as_failed():
    # M1 cannot hold K=4 at n=6 (alpha=3); the sweep goes on to n=8
    cfg = ExperimentConfig(scenario=1, snr_db=15.0, trials=1, seed=0, methods=("M1",),
                           experiment="aperture")
    recs = run_aperture_sweep(cfg, n_list=(6, 8))
    assert [r.n for r in recs] == [6, 8]
    assert recs[0].successes == 0 and recs[0].mean_iterations == 0
    assert np.isnan(recs[0].rmse_deg)
    assert recs[1].mean_iterations > 0


def test_run_trial_records_value_error_as_failed_trial():
    cfg = ExperimentConfig(scenario=1, n=6, snr_db=15.0, seed=0, methods=("M1", "FFT"))
    out = run_trial(cfg, 0)
    assert out["M1"]["angles"] == [] and out["M1"]["errors"] is None
    assert not out["M1"]["success"] and out["M1"]["iterations"] == 0
    assert len(out["FFT"]["angles"]) == 4


def test_sweep_records_more_sources_than_filter_roots_as_failed():
    # n = 9: M1's filter (alpha = 4) has 4 roots for K = 5, so M1 raises,
    # naming K, alpha and n, and each trial is a failed trial with no
    # iterations; M2's filters (alpha = 3) hold k_r = 2 and k_t = 3
    cfg = ExperimentConfig(n=9, k_r=2, k_t=3, trials=5, snr_db=30.0,
                           methods=("M1", "M2", "OMP"))
    _, _, _, batch = make_batch(cfg, 0)
    with pytest.raises(ValueError, match=r"K=5 infeasible.*alpha=4.*n=9"):
        run_method("M1", batch, cfg)
    recs = {r.method: r for r in run_sweep(cfg)}
    assert recs["M1"].successes == 0 and recs["M1"].mean_iterations == 0
    assert recs["M2"].mean_iterations > 0 and recs["OMP"].trials == 5


def test_failed_trial_runtime_excludes_the_scipy_import(monkeypatch):
    # M1 cannot hold K=4 at n=6: its failure is timed from after the scipy
    # load, as a solve is, so a slow first import is charged to neither; the
    # stub is cached, as load_scipy is
    @functools.lru_cache(maxsize=None)
    def slow_load():
        time.sleep(0.5)

    monkeypatch.setattr(experiments, "load_scipy", slow_load)
    cfg = ExperimentConfig(scenario=1, n=6, snr_db=15.0, seed=0, methods=("M1", "M2", "FFT"))
    out = run_trial(cfg, 0)
    assert out["M1"]["angles"] == [] and len(out["M2"]["angles"]) == 4
    assert out["M1"]["runtime"] < 0.25


def test_run_trial_records_fewer_slots_than_sources_as_failed():
    # both solvers reject t_s = 3 < K = 4 themselves, so a trial that reaches
    # them without check_config is a failed trial with no angles
    out = run_trial(ExperimentConfig(t_s=3, snr_db=15.0, seed=0, methods=("M1", "M2")), 0)
    for res in out.values():
        assert res["angles"] == [] and res["errors"] is None
        assert not res["success"] and res["iterations"] == 0


ALL_METHODS = ("M1", "M2", "FFT", "OMP", "SBL")


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 12), t_s=st.integers(1, 16), k_r=st.integers(0, 4),
       k_t=st.integers(0, 4), scenario=st.sampled_from([1, 2]),
       snr_db=st.sampled_from([0.0, 30.0, np.inf]))
def test_every_estimator_returns_k_labelled_angles_or_raises(n, t_s, k_r, k_t, scenario,
                                                            snr_db):
    # each call returns K_R + K_T finite angles, RS first and TS after, or
    # raises ValueError; none returns fewer angles than asked without a word
    cfg = ExperimentConfig(scenario=scenario, n=n, t_s=t_s, k_r=k_r, k_t=k_t, snr_db=snr_db)
    try:
        _, _, _, batch = make_batch(cfg, 0)
    except ValueError:
        assert k_r + k_t == 0   # an empty scene has no batch
        return
    solve = PgdConfig(k_r=k_r, k_t=k_t, i_max=5)
    estimators = {"M1": fri_uniform.estimate_angles_uniform,
                  "M2": fri_nonuniform.estimate_angles_nonuniform}
    for method in ALL_METHODS:
        try:
            if method in estimators:
                angles = estimators[method](batch, solve).angles
            else:
                angles = run_method(method, batch, cfg)[0]
        except ValueError:
            continue
        assert [lab for _, lab in angles] == ['RS'] * k_r + ['TS'] * k_t
        assert np.all(np.isfinite([a for a, _ in angles]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("method", ALL_METHODS)
def test_non_finite_y_rejected_at_the_batch(method, bad):
    cfg = ExperimentConfig(scenario=1, snr_db=15.0, seed=0, methods=(method,))
    _, _, _, batch = make_batch(cfg, 0)
    y = batch.y.copy()
    y[5] = bad
    with pytest.raises(ValueError, match=r"MeasurementBatch\.y has non-finite"):
        run_method(method, replace(batch, y=y), cfg)
    with pytest.raises(ValueError, match=r"MeasurementBatch\.y has non-finite"):
        batch.y = y
        run_method(method, batch, cfg)


def test_run_trial_records_a_non_finite_batch_as_failed(monkeypatch):
    # a channel of NaNs makes every measurement NaN
    monkeypatch.setattr(experiments, "draw_channel",
                        lambda rng, n: sm.Channel(h=np.full(n, np.nan, complex)))
    out = run_trial(ExperimentConfig(seed=0, methods=ALL_METHODS), 0)
    assert set(out) == set(ALL_METHODS)
    for res in out.values():
        assert res["angles"] == [] and res["errors"] is None
        assert not res["success"] and res["iterations"] == 0


# Every rejected setting, as (id, settings, message): each settings dict
# changes ExperimentConfig(trials=1, methods=("FFT",)), and each message is
# a pattern of the ValueError, which also names every field the row sets.
REJECTED = [
    ("no-trials", {"trials": 0}, "trials=0"),
    ("n0", {"n": 0}, "n=0"),
    ("n1", {"n": 1}, "n=1"),
    ("negative-k_r", {"k_r": -1}, "k_r=-1"),
    ("negative-k_t", {"k_t": -1}, "k_t=-1"),
    ("no-users", {"k_r": 0, "k_t": 0}, "no source to estimate"),
    ("fewer-slots", {"t_s": 3}, r"t_s=3.*K_R\+K_T=4"),
    ("unknown-method", {"methods": ["FFT", "FTT"]}, "unknown method 'FTT'"),
    ("repeated-method", {"methods": ["FFT", "FFT"]}, "'FFT' more than once"),
    ("methods-string", {"methods": "FFT"}, "methods='FFT' is not a list"),
    ("methods-number", {"methods": 5}, "methods=5 is not a list"),
    ("no-methods", {"methods": []}, r"methods=\[\] names no method"),
    ("scenario0", {"scenario": 0}, "scenario=0 is neither 1 nor 2"),
    ("scenario3", {"scenario": 3}, "scenario=3 is neither 1 nor 2"),
    ("bool-scenario", {"scenario": True}, "scenario=True"),
    ("float-scenario", {"scenario": 1.0}, "scenario=1.0"),
    ("string-scenario", {"scenario": "2"}, "scenario='2'"),
    ("negative-seed", {"seed": -1}, "seed=-1"),
    ("fractional-seed", {"seed": 1.5}, "seed=1.5"),
    ("fractional-trials", {"trials": 1.5}, "trials=1.5"),
    ("fractional-n", {"n": 16.5}, "n=16.5"),
    ("float-t_s", {"t_s": 32.0}, "t_s=32.0"),
    ("bool-k_r", {"k_r": True}, "k_r=True"),
    ("float-k_t", {"k_t": 2.0}, "k_t=2.0"),
    ("fractional-workers", {"workers": 1.5}, "workers=1.5"),
    ("no-workers", {"workers": 0}, "workers=0 is below its least value 1"),
    ("negative-workers", {"workers": -2}, "workers=-2 is below its least value 1"),
    ("string-threshold", {"success_threshold_deg": "5"},
     "success_threshold_deg='5' is not a finite positive real"),
    ("null-threshold", {"success_threshold_deg": None}, "success_threshold_deg=None"),
    ("bool-threshold", {"success_threshold_deg": True}, "success_threshold_deg=True"),
    ("zero-threshold", {"success_threshold_deg": 0.0}, "success_threshold_deg=0.0"),
    ("negative-threshold", {"success_threshold_deg": -1}, "success_threshold_deg=-1"),
    ("nan-threshold", {"success_threshold_deg": np.nan}, "success_threshold_deg=nan"),
    ("inf-threshold", {"success_threshold_deg": np.inf}, "success_threshold_deg=inf"),
    ("no-snrs", {"snr_db": []}, r"snr_db=\[\] holds no SNR"),
    ("nan-snr", {"snr_db": np.nan}, "snr_db=nan"),
    ("minus-inf-snr", {"snr_db": -np.inf}, "snr_db=-inf"),
    ("nan-in-snrs", {"snr_db": [15.0, np.nan]}, "snr_db=nan"),
    ("minus-inf-in-snrs", {"snr_db": [-np.inf, 15.0]}, "snr_db=-inf"),
    ("overflowing-snr", {"snr_db": -4000.0}, "snr_db=-4000.0 is not an SNR above"),
    ("overflowing-in-snrs", {"snr_db": [15.0, -4000.0]}, "snr_db=-4000.0 is not an SNR above"),
    ("string-snr", {"snr_db": "abc"}, "snr_db='abc' is not a real number"),
    ("string-in-snrs", {"snr_db": ["x"]}, "snr_db='x' is not a real number"),
    ("string-after-snr", {"snr_db": [10.0, "abc"]}, "snr_db='abc' is not a real number"),
    ("null-snr", {"snr_db": None}, "snr_db=None is not a real number"),
    ("nested-snrs", {"snr_db": [[10.0, 20.0]]}, r"snr_db=\[10.0, 20.0\] is not a real number"),
    ("bool-snr", {"snr_db": True}, "snr_db=True is not a real number"),
]

_FLAGS = {"scenario": "--scenario", "n": "--n", "t_s": "--ts", "k_r": "--kr", "k_t": "--kt",
          "trials": "--trials", "seed": "--seed", "workers": "--workers",
          "methods": "--methods", "snr_db": "--snr-db"}


def _flags(settings):
    """The flags that set settings, or None where no flag can: a field with
    no flag, a non-int value of an integer flag, or a value of a comma-list
    flag that its list cannot spell (a bool, an empty list, one method name
    outside a list, a nested list)."""
    argv = []
    for name, value in settings.items():
        if name == "snr_db" and not isinstance(value, list):
            value = [value]
        if name in ("methods", "snr_db"):
            if not (isinstance(value, list) and value
                    and all(isinstance(v, (str, float)) for v in value)):
                return None
            value = ",".join(map(str, value))
        elif name not in _FLAGS or type(value) is not int:
            return None
        argv.append(f"{_FLAGS[name]}={value}")
    return argv


ENTRY_POINTS = ("run_sweep", "run_convergence", "run_spectrum", "run_aperture_sweep",
                "cli-config", "cli-flag")


def _rejections():
    for row, settings, message in REJECTED:
        for entry in ENTRY_POINTS:
            # the aperture sweep sets n itself; a flag spells only some rows
            if not ((entry == "run_aperture_sweep" and "n" in settings)
                    or (entry == "cli-flag" and _flags(settings) is None)):
                yield pytest.param(entry, settings, message, id=f"{entry}-{row}")


@pytest.mark.parametrize("entry, settings, message", _rejections())
def test_degenerate_config_rejected_before_any_trial(monkeypatch, tmp_path, entry, settings,
                                                     message):
    # the one table of rejections: each row through each runner and the CLI,
    # with no trial drawn and, from the CLI, nothing written
    monkeypatch.setattr(experiments, "make_batch", _no_trial)
    monkeypatch.setattr(experiments, "synthesize_measurements", _no_trial)
    out = str(tmp_path / "o.csv")
    with pytest.raises(ValueError, match=message) as err:
        if entry == "cli-config":
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps({"trials": 1, "methods": ["FFT"], **settings}))
            main(["sweep", "--config", str(cfg_path), "--out", out])
        elif entry == "cli-flag":
            main(["sweep", "--trials=1", "--methods=FFT", *_flags(settings), "--out", out])
        else:
            getattr(experiments, entry)(replace(ExperimentConfig(trials=1, methods=("FFT",)),
                                                **settings))
    assert all(name in str(err.value) for name in settings)
    assert os.listdir(tmp_path) == (["cfg.json"] if entry == "cli-config" else [])


@pytest.mark.parametrize("threshold", [5, 0.5, np.float64(2.5), np.int64(3)])
def test_config_takes_a_finite_positive_real_threshold(threshold):
    cfg = ExperimentConfig(trials=1, methods=("FFT",), success_threshold_deg=threshold)
    experiments.check_config(cfg)


_SCIPY_PROBE = """
import json, sys, time
import numpy as np

def scipy_loaded():
    return any(m.partition('.')[0] == 'scipy' for m in sys.modules)

import starfri
from starfri import experiments, refine
from starfri.bounds import ZzbInputs, zzb_full
state = {"import": scipy_loaded()}
cfg = experiments.ExperimentConfig(methods=("FFT", "OMP", "SBL"))
scene, prof, ch, batch = experiments.make_batch(cfg, 0)
for method in cfg.methods:
    angles, _, _ = experiments.run_method(method, batch, cfg)
    experiments.match_and_score(angles, scene)
zzb_full(ZzbInputs(scene, prof, ch, batch.sigma_n2))
state["grid"] = scipy_loaded()
clock, reads = time.perf_counter, []

def spy():
    reads.append(scipy_loaded())
    return clock()

experiments.time.perf_counter = spy
experiments.run_method("M1", batch, cfg)
experiments.time.perf_counter = clock
state["m1_clock_reads"] = reads
problems, solve = [], refine.least_squares

def recording(fun, x0, jac, **kwargs):
    problems.append((fun, np.array(x0), jac, kwargs))
    return solve(fun, x0, jac, **kwargs)

refine.least_squares = recording
experiments.run_method("M2", batch, cfg)
state["packages"] = sorted({"scipy.linalg", "scipy.optimize"} & set(sys.modules))
import scipy.optimize
fun, x0, jac, kwargs = problems[0]
want = scipy.optimize.leastsq(fun, x0, Dfun=jac, full_output=True, xtol=kwargs["xtol"],
                              ftol=kwargs["ftol"], gtol=kwargs["gtol"],
                              maxfev=kwargs["max_nfev"])
got = solve(fun, x0, jac, **kwargs)
state["leastsq_bits"] = (np.array_equal(got.x, want[0]) and np.array_equal(got.fun, want[2]["fvec"])
                         and got.nfev == want[2]["nfev"])
print(json.dumps(state))
"""


def test_scipy_loads_at_the_first_gridless_solve_before_its_clock(tmp_path):
    # a fresh interpreter: the package, the grid baselines, the scoring and
    # the bound load no scipy; an M1 call loads it before run_method first
    # reads the clock, so its time is the solve's alone. M1 and M2 import
    # neither scipy.linalg nor scipy.optimize: their compiled modules load
    # from file. A later import of scipy.optimize still works, and its
    # leastsq and refine.least_squares agree bit for bit on an M2 polish
    proc = _run_module("-c", _SCIPY_PROBE, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    state = json.loads(proc.stdout.strip().splitlines()[-1])
    assert state == {"import": False, "grid": False, "m1_clock_reads": [True, True],
                     "packages": [], "leastsq_bits": True}


@pytest.mark.parametrize("experiment", ["convergence", "bogus"])
def test_cli_config_experiment_must_match_the_subcommand(tmp_path, experiment):
    # the subcommand names the experiment: a config naming another is
    # rejected, naming the key, and nothing is written
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"experiment": experiment}))
    with pytest.raises(SystemExit, match="experiment='%s'" % experiment):
        main(["sweep", "--config", str(cfg_path), "--trials", "1", "--methods", "FFT",
              "--out", str(tmp_path / "o.csv")])
    assert sorted(os.listdir(tmp_path)) == ["cfg.json"]
    cfg_path.write_text(json.dumps({"experiment": "sweep"}))
    assert main(["sweep", "--config", str(cfg_path), "--trials", "1", "--methods", "FFT",
                 "--out", str(tmp_path / "o.csv")]) == 0


@pytest.mark.parametrize("scenario", [1, 2])
@pytest.mark.parametrize("method", ["M1", "M2"])
def test_all_zero_y_rejected_before_any_solve(monkeypatch, method, scenario):
    cfg = ExperimentConfig(scenario=scenario, snr_db=15.0, seed=0, methods=(method,))
    _, _, _, batch = make_batch(cfg, 0)
    batch.y = np.zeros_like(batch.y)
    monkeypatch.setattr(fri_uniform, "pgd_denoise", _no_trial)
    monkeypatch.setattr(fri_nonuniform, "pgd_denoise_paired", _no_trial)
    with pytest.raises(ValueError, match="all-zero measurements"):
        run_method(method, batch, cfg)


def test_all_zero_y_is_a_failed_trial_and_the_sweep_goes_on(monkeypatch):
    draw = experiments.make_batch

    def zero_first_trial(config, trial_index):
        scene, profile, channel, batch = draw(config, trial_index)
        if trial_index == 0:
            batch.y = np.zeros_like(batch.y)
        return scene, profile, channel, batch

    monkeypatch.setattr(experiments, "make_batch", zero_first_trial)
    cfg = ExperimentConfig(scenario=1, snr_db=30.0, trials=2, seed=0, methods=("M1", "M2"))
    first = run_trial(cfg, 0)
    for res in first.values():
        assert res["angles"] == [] and res["errors"] is None and not res["success"]
    recs = run_sweep(cfg)
    assert [(r.method, r.trials, r.successes) for r in recs] == [("M1", 2, 1), ("M2", 2, 1)]
