"""Monte Carlo experiment harness and CLI.

Five experiments: annihilating-filter spectra at fixed angles, a full-space
success/RMSE/runtime sweep at each SNR given, convergence traces, an SNR sweep
of the methods and the baselines, and an aperture sweep. Only the acceptance
suite compares the SNR sweep with the Ziv-Zakai bound (``bounds.zzb_full``).
Metrics go to CSV (one row per method and sweep point) with a JSON sidecar
echoing the configuration; the spectrum experiment emits JSON grids.

Every trial owns an RNG stream seeded by (master seed, trial index), so
results are independent of execution order and worker count.
"""

import argparse
import csv
import json
import math
import numbers
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields, replace
from importlib.metadata import PackageNotFoundError, version
from itertools import repeat

import numpy as np

from . import baselines as bl
from . import fri_nonuniform, fri_uniform
from .fri_nonuniform import estimate_angles_nonuniform, pgd_denoise_paired, subspace_af_coeffs
from .fri_uniform import af_spectrum, estimate_angles_uniform, extract_af, pgd_denoise
from .refine import PgdConfig, check_slots, label_angles
from .star_ris_model import (FINE_STEP, NONUNIFORM, UNIFORM, UserScene, check_snr_db,
                             draw_channel, draw_scene, generate_profile, grid_steering,
                             synthesize_measurements)
from .structured_linalg import load_scipy

EXP1_THETA_RS = [-12.23, 39.19]
EXP1_THETA_TS = [-47.34, 15.57]
METHODS = ("M1", "M2", "FFT", "OMP", "SBL")


@dataclass
class ExperimentConfig:
    experiment: str = "sweep"   # spectrum|sweep|convergence|snr|aperture
    scenario: int = 1
    n: int = 16
    t_s: int = 32
    k_r: int = 2
    k_t: int = 2
    snr_db: object = 15.0       # scalar or list for sweeps
    trials: int = 200
    seed: int = 0
    methods: tuple = ("M1", "M2")
    success_threshold_deg: float = 5.0
    workers: int = 1
    out: str = None


@dataclass
class MetricsRecord:
    experiment: str
    method: str
    scenario: int
    n: int
    ts: int
    snr_db: float
    trials: int
    successes: int
    success_prob: float
    rmse_deg: float            # over successful trials; nan when none
    mean_iterations: float
    mean_runtime_s: float


CSV_COLUMNS = [fld.name for fld in fields(MetricsRecord)]


def to_full_space(angles_labeled):
    """Map labeled semi-space angles to the single full-space axis: a
    reflection-side angle maps to itself, a transmission-side angle theta to
    180 - theta (the mirror on the far side of the surface)."""
    return np.array([a if lab == 'RS' else 180.0 - a for a, lab in angles_labeled])


def match_and_score(angles_labeled, scene, threshold_deg=5.0):
    """Matched scoring in the full-space representation.

    The estimates, sorted on the full-space axis, are matched to the truths
    sorted the same way. On a line that matching minimizes both the sum of
    absolute errors (what an assignment solver minimizes) and the largest
    error (what the success test reads); among matchings of equal sum it is
    the one with the smallest largest error. Returns (per-angle absolute
    errors in degrees, in the order of the estimates, success flag); success
    requires the largest matched error to stay within the threshold. A
    cardinality mismatch marks the trial failed.
    """
    truth = [(t, 'RS') for t in scene.theta_rs] + [(t, 'TS') for t in scene.theta_ts]
    if len(angles_labeled) != len(truth):
        return None, False
    est = to_full_space(angles_labeled)
    order = np.argsort(est, kind="stable")
    errors = np.empty(len(est))
    errors[order] = np.abs(est[order] - np.sort(to_full_space(truth)))
    return errors, bool(errors.max() <= threshold_deg)


def scenario_name(scenario):
    return UNIFORM if scenario == 1 else NONUNIFORM


def make_batch(config, trial_index):
    """Draw trial trial_index's scene, profile and channel and synthesize its
    batch at the one SNR config.snr_db."""
    rng = np.random.default_rng([config.seed, trial_index])
    scene = draw_scene(rng, config.k_r, config.k_t)
    profile = generate_profile(scenario_name(config.scenario), config.n, config.t_s, rng)
    channel = draw_channel(rng, config.n)
    batch = synthesize_measurements(scene, profile, channel, float(config.snr_db), rng)
    return scene, profile, channel, batch


def _start_clock(method):
    """time.perf_counter() once the method's imports are in: a gridless method
    loads scipy (``load_scipy``) first, so no solve or failure is timed with it."""
    if method in ("M1", "M2"):
        load_scipy()
    return time.perf_counter()


def run_method(method, batch, config):
    """(labelled angles, iterations, seconds) of one estimator on batch; the
    seconds time the estimator alone (``_start_clock``)."""
    k_r, k_t = config.k_r, config.k_t
    t0 = _start_clock(method)
    if method in ("M1", "M2"):
        solve = estimate_angles_uniform if method == "M1" else estimate_angles_nonuniform
        res = solve(batch, PgdConfig(k_r=k_r, k_t=k_t, init="Grid"))
        out = (res.angles, res.iterations)
    elif method in ("FFT", "OMP", "SBL"):
        d_r, d_t = bl.build_dictionary(batch, 'RS'), bl.build_dictionary(batch, 'TS')
        if method == "SBL":
            a_r, a_t, _ = bl.sbl_full_space(batch, d_r, d_t, k_r, k_t)
        else:
            scan = bl.fft_scan if method == "FFT" else bl.omp
            a_r, a_t = scan(batch, d_r, k_r)[0], scan(batch, d_t, k_t)[0]
        out = (label_angles(a_r, a_t), 0)
    else:
        raise ValueError(f"unknown method {method!r}")
    return out[0], out[1], time.perf_counter() - t0


def check_config(config):
    """Reject a configuration no method can solve, naming the field, before
    any trial runs: an unknown method or scenario among them, a methods
    value that is not a list or tuple of names (one string, say), an empty
    methods or snr_db list (it would write a bare header), a size, order,
    trial or worker count that is not an integer (a bool is not one), a
    worker count below 1, a seed that is not a non-negative integer (every
    trial's RNG stream would refuse it), and a success threshold that is not
    a finite positive real (a bool or a string is not one). The orders and
    the slot count go through the solvers' own rules (``PgdConfig``,
    ``refine.check_slots``)."""
    if not isinstance(config.methods, (list, tuple)):
        raise ValueError(f"methods={config.methods!r} is not a list of names from "
                         f"{', '.join(METHODS)}")
    if not len(config.methods):
        raise ValueError(f"methods={config.methods!r} names no method")
    for method in config.methods:
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}; choose from {', '.join(METHODS)}")
    if config.scenario not in (1, 2):
        raise ValueError(f"scenario={config.scenario!r} is neither 1 nor 2")
    for name in ("n", "t_s", "k_r", "k_t", "trials", "workers", "seed"):
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name}={value!r} is not an integer")
    for name, least in (("trials", 1), ("n", 2), ("workers", 1), ("seed", 0)):
        if getattr(config, name) < least:
            raise ValueError(f"{name}={getattr(config, name)} is below its least value {least}")
    threshold = config.success_threshold_deg
    if (isinstance(threshold, bool) or not isinstance(threshold, numbers.Real)
            or not (math.isfinite(threshold) and threshold > 0)):
        raise ValueError(f"success_threshold_deg={threshold!r} is not a finite positive real")
    check_slots(config.t_s, PgdConfig(k_r=config.k_r, k_t=config.k_t).k)
    if not np.size(config.snr_db):
        raise ValueError(f"snr_db={config.snr_db!r} holds no SNR")
    for snr in np.atleast_1d(config.snr_db):
        check_snr_db(float(snr))


def single_snr(config, experiment):
    """The one SNR of an experiment that runs at a single SNR: config.snr_db
    as a scalar or a one-value list. Rejects a longer list, naming the
    experiment, so that no value of it is dropped."""
    snrs = np.atleast_1d(config.snr_db)
    if snrs.size != 1:
        raise ValueError(f"the {experiment} experiment runs at one SNR, "
                         f"got snr_db={config.snr_db!r}")
    return float(snrs[0])


def _failed_trial(runtime):
    return dict(angles=[], errors=None, success=False, iterations=0, runtime=runtime)


def run_trial(config, trial_index):
    """Synthesize one batch and run every selected method on it.

    A method that raises ValueError on this batch (an order its lifting
    cannot hold, say) is recorded as a failed trial with no angles, and the
    remaining methods still run. A batch that cannot be built (non-finite
    measurements, say) is a failed trial for every method.
    """
    try:
        scene, _, _, batch = make_batch(config, trial_index)
    except ValueError:
        return {method: _failed_trial(0.0) for method in config.methods}
    results = {}
    for method in config.methods:
        t0 = _start_clock(method)
        try:
            angles, iters, dt = run_method(method, batch, config)
        except ValueError:
            results[method] = _failed_trial(time.perf_counter() - t0)
            continue
        errors, success = match_and_score(angles, scene, config.success_threshold_deg)
        results[method] = dict(angles=angles, errors=errors, success=success,
                               iterations=iters, runtime=dt)
    return results


def _aggregate(config, trial_results):
    records = []
    for method in config.methods:
        per = [tr[method] for tr in trial_results]
        succ = [p for p in per if p["success"]]
        errs = np.concatenate([p["errors"] for p in succ]) if succ else np.array([])
        records.append(MetricsRecord(
            experiment=config.experiment, method=method, scenario=config.scenario,
            n=config.n, ts=config.t_s, snr_db=config.snr_db, trials=len(per), successes=len(succ),
            success_prob=len(succ) / len(per),
            rmse_deg=float(np.sqrt(np.mean(errs ** 2))) if errs.size else float("nan"),
            mean_iterations=float(np.mean([p["iterations"] for p in per])),
            mean_runtime_s=float(np.mean([p["runtime"] for p in per])),
        ))
    return records


def _map_trials(config, indices):
    if config.workers > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            return list(pool.map(run_trial, repeat(config), indices))
    return [run_trial(config, i) for i in indices]


def run_sweep(config):
    """One record per method at each value of config.snr_db (a scalar or a
    list); every SNR point runs the same trial draws."""
    check_config(config)
    records = []
    for snr in np.atleast_1d(config.snr_db):
        point = replace(config, snr_db=float(snr))
        records += _aggregate(point, _map_trials(point, range(point.trials)))
    return records


def run_aperture_sweep(config, n_list=(8, 10, 12, 14, 16, 18, 20)):
    """run_sweep at each aperture n of n_list."""
    return [rec for n in n_list for rec in run_sweep(replace(config, n=int(n)))]


def run_convergence(config):
    """Update-norm traces for both solvers over config.trials random batches,
    all at the one SNR config.snr_db (see ``single_snr``)."""
    check_config(config)
    config = replace(config, snr_db=single_snr(config, "convergence"))
    traces = {"M1": [], "M2": []}
    iters = {"M1": [], "M2": []}
    cfg = PgdConfig(k_r=config.k_r, k_t=config.k_t, init="Grid")
    for i in range(config.trials):
        _, _, _, batch = make_batch(config, i)
        for method, denoise in (("M1", pgd_denoise), ("M2", pgd_denoise_paired)):
            _, it, history, _ = denoise(batch, cfg)
            traces[method].append(history)
            iters[method].append(it)
    return traces, iters


def run_spectrum(config):
    """Annihilating-filter spectra at the fixed four-user reference scene.

    Uses a sign-fixed control sequence (the phase offset pinned by element
    design), under which the uniform-regime latent mapping is exactly rank
    one and the two subspace filters of Algorithm 2 coincide in Scenario 1.
    Algorithm 1 is solved from both the backprojection and the grid
    initialization and the better data fit is kept. Runs at the one SNR
    config.snr_db (see ``single_snr``), which the result records.
    """
    check_config(config)
    snr = single_snr(config, "spectrum")
    rng = np.random.default_rng([config.seed, 0])
    gains = np.exp(2j * np.pi * rng.random(4))
    scene = UserScene(EXP1_THETA_RS, EXP1_THETA_TS, gains)
    profile = generate_profile(scenario_name(config.scenario), config.n, config.t_s,
                               rng, randomize_sign=False)
    channel = draw_channel(rng, config.n)
    batch = synthesize_measurements(scene, profile, channel, snr, rng)
    grid = grid_steering(config.n, FINE_STEP)[0]
    cfg = PgdConfig(k_r=config.k_r, k_t=config.k_t, i_max=500)

    # Algorithm 1 spectrum: two initializations, keep the lower residual
    psi_u, alpha1 = fri_uniform.lifting(batch, cfg)
    fits = []
    for init in ("Backprojection", "Grid"):
        b, _, _, _ = pgd_denoise(batch, replace(cfg, init=init))
        fits.append((np.linalg.norm(batch.y - psi_u.T @ b), b))
    b1 = min(fits, key=lambda f: f[0])[1]
    c1 = extract_af(b1, alpha1)
    spec_m1 = af_spectrum(c1, grid)

    # Algorithm 2 spectra: backprojection suffices in the uniform scenario;
    # the nonuniform one needs the grid start to land in the right basin
    _, alpha2 = fri_nonuniform.lifting(batch, cfg)
    init2 = "Backprojection" if config.scenario == 1 else "Grid"
    b2, _, _, _ = pgd_denoise_paired(batch, replace(cfg, init=init2))
    c_r, c_t = subspace_af_coeffs(b2, alpha2)
    spec_r = af_spectrum(c_r, grid)
    spec_t = af_spectrum(c_t, grid)
    return dict(grid=grid, m1=spec_m1, m2_rs=spec_r, m2_ts=spec_t,
                theta_rs=scene.theta_rs, theta_ts=scene.theta_ts, snr_db=snr)


def write_records(records, config, path):
    with open(path, "w", newline="") as f:
        w = csv.DictWriter(f, fieldnames=CSV_COLUMNS)
        w.writeheader()
        for r in records:
            w.writerow(asdict(r))
    sidecar = os.path.splitext(path)[0] + ".config.json"
    with open(sidecar, "w") as f:
        cfg = asdict(config)
        cfg["methods"] = list(cfg["methods"])
        json.dump({"config": cfg, "version": _version()}, f, indent=2, default=str)


def _version():
    try:
        return version("artifact")
    except PackageNotFoundError:
        return "unknown"


def main(argv=None):
    p = argparse.ArgumentParser(prog="starfri-sim",
                                description="STAR-RIS full-space DOA estimation experiments. "
                                            "Full-space convention: reflection-side angles report "
                                            "as theta, transmission-side as 180 - theta.")
    sub = p.add_subparsers(dest="experiment", required=True)
    for name in ("spectrum", "sweep", "convergence", "snr", "aperture"):
        q = sub.add_parser(name)
        q.add_argument("--config", help="JSON config file; flags override its values")
        q.add_argument("--scenario", type=int, choices=(1, 2))
        q.add_argument("--n", type=int)
        q.add_argument("--ts", type=int)
        q.add_argument("--kr", type=int)
        q.add_argument("--kt", type=int)
        q.add_argument("--snr-db", type=str, help="single value or comma list")
        q.add_argument("--trials", type=int)
        q.add_argument("--seed", type=int)
        q.add_argument("--methods", type=str, help="comma list from M1,M2,FFT,OMP,SBL")
        q.add_argument("--out", type=str)
        q.add_argument("--workers", type=int)
    args = p.parse_args(argv)

    cfg = ExperimentConfig(experiment=args.experiment)
    if args.config:
        with open(args.config) as f:
            values = json.load(f)
        known = {fld.name for fld in fields(ExperimentConfig)}
        for key, val in values.items():
            if key not in known:
                raise SystemExit(f"{args.config}: unknown config key {key!r}")
            if key == "experiment" and val != args.experiment:
                raise SystemExit(f"{args.config}: experiment={val!r} differs from the "
                                 f"subcommand {args.experiment!r}")
            setattr(cfg, key, val)
    overrides = {"scenario": args.scenario, "n": args.n, "t_s": args.ts,
                 "k_r": args.kr, "k_t": args.kt, "trials": args.trials,
                 "seed": args.seed, "out": args.out, "workers": args.workers}
    for key, val in overrides.items():
        if val is not None:
            setattr(cfg, key, val)
    if args.snr_db is not None:
        vals = [float(v) for v in args.snr_db.split(",")]
        cfg.snr_db = vals[0] if len(vals) == 1 else vals
    if args.methods is not None:
        cfg.methods = tuple(args.methods.split(","))

    out = cfg.out or f"{cfg.experiment}.csv"
    if cfg.experiment == "spectrum":
        spec = run_spectrum(cfg)
        payload = {k: (v.tolist() if isinstance(v, np.ndarray) else v) for k, v in spec.items()}
        path = os.path.splitext(out)[0] + ".json"
        with open(path, "w") as f:
            json.dump(payload, f)
        print(f"wrote {path}")
        return 0
    if cfg.experiment == "convergence":
        traces, iters = run_convergence(cfg)
        path = os.path.splitext(out)[0] + ".json"
        with open(path, "w") as f:
            json.dump({"snr_db": single_snr(cfg, "convergence"), "iterations": iters,
                       "traces": {k: [list(map(float, t)) for t in v] for k, v in traces.items()}}, f)
        print(f"wrote {path}")
        return 0
    if cfg.experiment == "aperture":
        records = run_aperture_sweep(cfg)
    else:
        records = run_sweep(cfg)
    write_records(records, cfg, out)
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
