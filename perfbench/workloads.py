"""Benchmark workloads, the trial loop and the correctness checks.

A trial is what the acceptance suite does once per Monte Carlo draw:
``experiments.make_batch(config, i)``, then ``experiments.run_method`` for each
estimator and ``experiments.match_and_score`` on its angles, plus
``bounds.zzb_full`` where the workload names it. Trial ``i`` of seed ``s``
draws from ``default_rng([s, i])``, as in the library's own sweeps.

Import this module only after ``run.bootstrap()`` has pinned BLAS to one
thread and put the checkout's ``src`` first on the import path.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from starfri import baselines, bounds, experiments, fri_nonuniform, fri_uniform
from starfri import refine, star_ris_model, structured_linalg

MODULES = {
    "fri_uniform": fri_uniform, "fri_nonuniform": fri_nonuniform,
    "structured_linalg": structured_linalg, "refine": refine, "baselines": baselines,
    "bounds": bounds, "star_ris_model": star_ris_model, "experiments": experiments,
}

T_S, K_R, K_T = 32, 2, 2
SNRS = (0.0, 15.0, 30.0)
CANARY_TOL_DEG = 1e-6


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    methods: tuple
    pool: int           # distinct trials per seed; the timed loop cycles over them
    zzb: bool = False

    def trial_config(self, seed, i):
        """(scenario, snr_db) of trial i, as an ExperimentConfig."""
        if self.name == "fri_mc":
            scenario, snr = (1, 2)[i % 2], SNRS[(i // 2) % 3]
        else:
            scenario, snr = 1, SNRS[i % 3]
        return experiments.ExperimentConfig(scenario=scenario, n=16, t_s=T_S, k_r=K_R, k_t=K_T,
                                            snr_db=snr, seed=seed, methods=self.methods)


WORKLOADS = {w.name: w for w in (
    Workload("fri_mc",
             "M1+M2 at n=16 over both scenarios and 0/15/30 dB: the gridless PGD and polish "
             "path behind acceptance criteria 2-5, with no baseline code",
             ("M1", "M2"), pool=180),
    Workload("grid_baselines",
             "FFT, OMP and SBL plus the Ziv-Zakai bound at n=16: SBL's EM loop dominates and "
             "no gridless code runs, so PGD or polish changes must leave it unchanged",
             ("FFT", "OMP", "SBL"), pool=12, zzb=True),
)}


class CorrectnessError(Exception):
    """An estimator returned output that breaks the benchmark's contract."""


def check_angles(method, angles):
    """Every call must return K_R+K_T finite angles labelled RS/TS in the
    known per-subspace counts."""
    labels = [lab for _, lab in angles]
    values = np.array([a for a, _ in angles], float)
    if (len(angles) != K_R + K_T or labels.count('RS') != K_R or labels.count('TS') != K_T
            or not np.all(np.isfinite(values))):
        raise CorrectnessError(f"{method} returned {angles!r}")


def canary():
    """Criterion-7 exactness recipe: noiseless batches from default_rng(8);
    M1 on the uniform surface and M2 on the nonuniform one must recover the
    scene to within 1e-6 degrees. Raises CorrectnessError otherwise."""
    rng = np.random.default_rng(8)
    scene = star_ris_model.draw_scene(rng, K_R, K_T)
    cfg = experiments.ExperimentConfig(n=16, t_s=T_S, k_r=K_R, k_t=K_T)
    worst = 0.0
    for scenario, method in ((star_ris_model.UNIFORM, "M1"), (star_ris_model.NONUNIFORM, "M2")):
        prof = star_ris_model.generate_profile(scenario, 16, T_S, rng)
        ch = star_ris_model.draw_channel(rng, 16)
        batch = star_ris_model.synthesize_measurements(scene, prof, ch, np.inf, rng)
        angles, _, _ = experiments.run_method(method, batch, cfg)
        check_angles(method, angles)
        rs = np.sort([a for a, lab in angles if lab == 'RS'])
        ts = np.sort([a for a, lab in angles if lab == 'TS'])
        err = max(np.max(np.abs(rs - np.sort(scene.theta_rs))),
                  np.max(np.abs(ts - np.sort(scene.theta_ts))))
        if not err <= CANARY_TOL_DEG:
            raise CorrectnessError(f"canary: {method} off by {err:.3g} deg")
        worst = max(worst, float(err))
    return worst


@dataclass
class TrialResult:
    index: int
    seconds: float          # wall time of the whole trial
    calls: dict             # method -> (angles or None, seconds, success, sq errors, exception name)


def run_trial(workload, seed, i):
    """One closed-loop trial. An estimator that raises is recorded as a failed
    call with its exception type and the trial goes on."""
    t0 = time.perf_counter()
    cfg = workload.trial_config(seed, i)
    scene, prof, ch, batch = experiments.make_batch(cfg, i)
    calls = {}
    for m in workload.methods:
        c0 = time.perf_counter()
        try:
            angles, _, _ = experiments.run_method(m, batch, cfg)
        except Exception as exc:   # a failed operation, counted and reported
            calls[m] = (None, time.perf_counter() - c0, False, (), type(exc).__name__)
            continue
        dt = time.perf_counter() - c0
        check_angles(m, angles)
        errors, success = experiments.match_and_score(angles, scene, cfg.success_threshold_deg)
        sq = tuple(np.square(errors)) if success else ()
        calls[m] = (angles, dt, success, sq, None)
    if workload.zzb:
        bounds.zzb_full(bounds.ZzbInputs(scene, prof, ch, batch.sigma_n2))
    return TrialResult(i, time.perf_counter() - t0, calls)


def warm_up(workload):
    """Run one trial: every trial has n=16 and t_s=32, so this one trial
    meets every array shape the workload uses."""
    run_trial(workload, 0, 0)


def percentile(values, q):
    return float(np.percentile(np.asarray(values, float), q)) if len(values) else 0.0


def accuracy(results, method):
    """(success share over attempted calls, RMSE in degrees over successful
    calls) on one pass of the pool. Either is None when it has no calls to
    be taken over."""
    calls = [r.calls[method] for r in results if method in r.calls]
    sq = [x for c in calls for x in c[3]]
    succ = sum(1 for c in calls if c[2])
    return (succ / len(calls) if calls else None,
            math.sqrt(sum(sq) / len(sq)) if sq else None)
