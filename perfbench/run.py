"""starfri Monte Carlo benchmark: one closed-loop client, one trial at a time.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fri_mc --seed 0 --seconds 30 --trace 0

The run builds nothing: it imports ``src/starfri`` from the checkout (and fails
with a nonzero exit when that tree is missing), pins BLAS and OpenMP to one
thread before numpy loads, and then:

1. set-up: import plus one warm-up trial of every shape the workload uses,
   timed in this process;
2. correctness gate: the noiseless criterion-7 canary must recover its scene
   to 1e-6 degrees, every estimator call must return K_R+K_T finite
   labelled angles, and a trial seen twice must give bit-identical angles.
   A violation exits nonzero without printing a result;
3. measurement: the workload's pool of trials (inputs drawn from
   ``--seed``) is run in a closed loop, pass after pass, for ``--seconds``
   of trials and at least one full pass. An estimator call that raises
   counts as a failed call and the loop goes on. Every time is wall-clock
   time as measured.

A shared host changes speed by tens of percent over tens of seconds, and one
set-up sample falls into a single such phase. So an untraced run also starts
``SETUP_PROBES`` fresh child processes, spread evenly through the loop, that
each time a cold set-up; ``setup_s`` is the median of those samples and the
one taken in this process. Probe time does not count against ``--seconds``.

With ``--trace 0`` the last stdout line holds the end-to-end metrics. With
``--trace 1`` each trial runs twice back to back, once plain and once under
the span tracer, alternating which goes first; the last line holds the
per-layer metrics, per-method latency and accuracy from the plain runs, and
the tracing overhead measured between the two. Every run also writes its full
record (environment, failures, all metrics) to ``perfbench/out/``, and a traced
run writes its spans there too.

``python3 perfbench/report.py`` runs every workload over several seeds and
summarises the spread.
"""

import time

_T0 = time.perf_counter()   # set-up is timed from here: before numpy is imported

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_PROBES = 6            # child processes timing a cold set-up, besides this one
TAIL_MIN_TRIALS = 100       # a p90 needs ten samples beyond it

# per-layer metric names, in the order they are printed; see BENCHMARK.json
SELF_MS = (
    "fri_uniform.pgd_denoise", "fri_uniform.extract_af", "fri_uniform.label_subspaces",
    "fri_nonuniform.pgd_denoise_paired",
    "structured_linalg.rank_truncate", "structured_linalg.paired_hankel_lift",
    "structured_linalg.inverse_paired_hankel", "structured_linalg.hankel_lift",
    "structured_linalg.smallest_right_singular_vector", "structured_linalg.polynomial_roots",
    "refine.grid_init", "refine.select_roots_by_energy", "refine.polish_angles",
    "refine.varpro_refine", "refine.coordinate_rescan",
    "baselines.build_dictionary", "baselines.fft_scan", "baselines.omp", "baselines.sbl_gamma",
    "bounds.zzb_full",
    "star_ris_model.synthesize_measurements", "experiments.make_batch",
    "experiments.run_method", "experiments.match_and_score",
)
CALLS = (
    "fri_uniform.pgd_denoise", "fri_nonuniform.pgd_denoise_paired",
    "structured_linalg.rank_truncate", "refine.grid_init", "refine.polish_angles",
    "refine.varpro_refine", "refine.coordinate_rescan", "baselines.build_dictionary",
    "bounds.fisher_information",
)
METHODS = ("M1", "M2", "FFT", "OMP", "SBL")


def bootstrap():
    """Pin every BLAS/OpenMP pool to one thread and import starfri from the
    checkout's own src tree. Call before anything imports numpy."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "starfri" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no starfri sources under {src}; run from a checkout")
    sys.path.insert(0, str(src))
    import starfri
    if Path(starfri.__file__).resolve().parent != src / "starfri":
        raise SystemExit(f"perfbench: imported starfri from {starfri.__file__}, not {src}")


def blas_info():
    """{library file: (threads, config string)} for each OpenBLAS that numpy
    and scipy ship, read through the library's own query functions."""
    import ctypes
    import numpy
    import scipy
    out = {}
    for pkg in (numpy, scipy):
        libdir = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(libdir.glob("*openblas*.so*")):
            handle = ctypes.CDLL(str(lib))
            info = [None, None]
            for prefix in ("scipy_openblas", "openblas"):
                for suffix in ("64_", ""):
                    get_threads = getattr(handle, f"{prefix}_get_num_threads{suffix}", None)
                    get_config = getattr(handle, f"{prefix}_get_config{suffix}", None)
                    if get_threads is not None and info[0] is None:
                        get_threads.restype = ctypes.c_int
                        info[0] = get_threads()
                    if get_config is not None and info[1] is None:
                        get_config.restype = ctypes.c_char_p
                        info[1] = get_config().decode()
            out[lib.name] = info
    return out


def git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None         # a plain checkout without history
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "starfri").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(seed, workloads):
    import numpy
    import scipy
    blas = blas_info()
    threads = {lib: info[0] for lib, info in blas.items()}
    if not threads or any(t != 1 for t in threads.values()):
        raise SystemExit(f"perfbench: BLAS is not confirmed single-threaded: {threads}")
    return {
        "git_sha": git_sha(), "source_sha256": source_digest(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "openblas": {lib: info[1] for lib, info in blas.items()},
        "blas_threads": threads, "thread_env": {v: os.environ[v] for v in THREAD_VARS},
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(), "loadavg_start": os.getloadavg(), "seed": seed,
        "workloads": {w.name: w.why for w in workloads.values()},
    }


def cold_setup_seconds(workload):
    """Set-up time of a fresh interpreter running this script to the end of
    its warm-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", "0", "--seconds", "0", "--trace", "0", "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


class Run:
    """The closed loop over one workload's pool of trials."""

    def __init__(self, wl, workload, seed):
        self.wl = wl
        self.workload = workload
        self.seed = seed
        self.first = {}         # trial index -> {method: angles} from its first run
        self.plain = []         # TrialResult of every untraced execution
        self.traced = []
        self.executions = 0
        self.elapsed = 0.0
        self.setups = []        # cold set-up samples taken during the loop

    def _check_repeat(self, r):
        angles = {m: c[0] for m, c in r.calls.items()}
        seen = self.first.setdefault(r.index, angles)
        if seen is not angles and seen != angles:
            raise self.wl.CorrectnessError(
                f"trial {r.index}: angles differ between two runs of the same input")

    def loop(self, seconds, step, probes=0):
        """Call step(k, i) for execution k on pool trial i until `seconds`
        have passed and every pool trial has run at least once. Take `probes`
        cold set-up samples at even steps through that time; the deadline
        moves out by the time they take."""
        pool = self.workload.pool
        t0 = time.perf_counter()
        probe_s = 0.0
        k = 0
        while k < pool or time.perf_counter() - probe_s < t0 + seconds:
            due = (len(self.setups) + 0.5) * seconds / probes if probes else math.inf
            if len(self.setups) < probes and time.perf_counter() - probe_s - t0 >= due:
                p0 = time.perf_counter()
                self.setups.append(cold_setup_seconds(self.workload.name))
                probe_s += time.perf_counter() - p0
            step(k, k % pool)
            k += 1
        while len(self.setups) < probes:    # a loop shorter than one trial per probe
            self.setups.append(cold_setup_seconds(self.workload.name))
        self.elapsed = time.perf_counter() - t0 - probe_s
        self.executions = k

    def plain_step(self, k, i):
        r = self.wl.run_trial(self.workload, self.seed, i)
        self._check_repeat(r)
        self.plain.append(r)

    def paired_step(self, tracer):
        def step(k, i):
            for traced in ((False, True) if k % 2 == 0 else (True, False)):
                if not traced:
                    self.plain_step(k, i)
                    continue
                tracer.install()
                try:
                    r = tracer.run_trial(k, self.wl.run_trial, self.workload, self.seed, i)
                finally:
                    tracer.uninstall()
                self._check_repeat(r)
                self.traced.append(r)
        return step

    def calls(self):
        out = {"attempted": 0, "failed": 0, "exceptions": {}}
        for r in self.plain + self.traced:
            for m, c in r.calls.items():
                out["attempted"] += 1
                if c[4] is not None:
                    out["failed"] += 1
                    per = out["exceptions"].setdefault(m, {})
                    per[c[4]] = per.get(c[4], 0) + 1
        return out


def end_to_end(run, setups):
    """Trial time is what the plain executions spent from make_batch to the
    last score, without the set-up probes between them."""
    busy_s = sum(r.seconds for r in run.plain)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "trials_per_s": (len(run.plain) / busy_s, "1/s"),
    }


def per_method(run):
    """Latency from the plain runs; accuracy over one pass of the pool.

    The result line must carry every per-layer name on every workload, so a
    method the workload does not run reads 0 calls, 0 ms and 0 success; its
    ``_calls`` tells that apart from a method whose every call failed. RMSE
    is left out when a method the workload runs succeeded on no call, so
    that total failure never reads as a perfect score."""
    wl = run.wl
    first_pass = run.plain[:run.workload.pool]
    out = {}
    for m in METHODS:
        key = m.lower()
        times = [r.calls[m][1] * 1e3 for r in run.plain if m in r.calls]
        success, rmse = wl.accuracy(first_pass, m)
        if m not in run.workload.methods:
            success = rmse = 0.0
        out[f"experiments.run_method.{key}_calls"] = (len(times) / len(run.plain), "count")
        out[f"experiments.run_method.{key}_ms_p50"] = (wl.percentile(times, 50), "ms")
        out[f"experiments.match_and_score.{key}_success"] = (success, "ratio")
        if rmse is not None:
            out[f"experiments.match_and_score.{key}_rmse_deg"] = (rmse, "deg")
    ms = [r.seconds * 1e3 for r in run.plain]
    out["perfbench.trial.ms_p50"] = (wl.percentile(ms, 50), "ms")
    return out


def trial_tail(run):
    """The trial p90, for the run's record only: few workloads run enough
    trials for it, and the result line carries the same names everywhere."""
    ms = [r.seconds * 1e3 for r in run.plain]
    if len(ms) < TAIL_MIN_TRIALS:
        return {}
    return {"perfbench.trial.ms_p90": (run.wl.percentile(ms, 90), "ms")}


def per_layer(run, tracer):
    """Per-trial layer figures from the traced executions."""
    n = len(run.traced)
    ms = 1e3                    # seconds -> milliseconds
    tot = tracer.totals
    cnt = tracer.counts

    def calls(name):
        return tot.get(name, (0, 0.0))[0]

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for name in CALLS:
        out[f"{name}.calls"] = (calls(name) / n, "count")
    for name in SELF_MS:
        out[f"{name}.self_ms"] = (tot.get(name, (0, 0.0))[1] * ms / n, "ms")
    for name, est in (("fri_uniform.pgd_denoise", "fri_uniform.estimate_angles_uniform"),
                      ("fri_nonuniform.pgd_denoise_paired",
                       "fri_nonuniform.estimate_angles_nonuniform")):
        iters = cnt.get(f"{name}.iterations", 0)
        out[f"{name}.iterations_mean"] = (ratio(iters, calls(name)), "count")
        out[f"{name}.ms_per_iter"] = (ratio(cnt.get(f"{name}.loop_s", 0.0) * ms, iters), "ms")
        out[f"{name}.converged_ratio"] = (ratio(cnt.get(f"{name}.converged", 0), calls(name)),
                                          "ratio")
        out[f"{est}.restarts_mean"] = (ratio(calls(name), calls(est)) - 1 if calls(est) else 0.0,
                                       "count")
    sq = cnt.get("refine.polish_angles.input_sq_deg", 0.0)
    out["refine.polish_angles.input_rmse_deg"] = (
        ratio(sq, cnt.get("refine.polish_angles.input_angles", 0)) ** 0.5, "deg")
    out["refine.varpro_refine.nfev_mean"] = (
        ratio(cnt.get("refine.varpro_refine.nfev", 0), calls("refine.varpro_refine")), "count")
    out["refine.coordinate_rescan.moved_ratio"] = (
        ratio(cnt.get("refine.coordinate_rescan.moved", 0), calls("refine.coordinate_rescan")),
        "ratio")
    out["baselines.sbl_gamma.active_atoms_mean"] = (
        ratio(cnt.get("baselines.sbl_gamma.active_atoms", 0), calls("baselines.sbl_gamma")),
        "count")
    out["baselines.sbl_full_space.flagged_ratio"] = (
        ratio(cnt.get("baselines.sbl_full_space.flagged", 0), calls("baselines.sbl_full_space")),
        "ratio")
    plain_s = sum(r.seconds for r in run.plain)
    traced_s = sum(r.seconds for r in run.traced)
    out["perfbench.trial.self_ms"] = (tot[tracer.ROOT][1] * ms / n, "ms")
    out["perfbench.trace.trials_per_s"] = (ratio(n * 1e3, traced_s * ms), "1/s")
    out["perfbench.trace.overhead_ratio"] = (ratio(traced_s, plain_s) - 1.0, "ratio")
    return out


def measure(wl, tracing, workload, seed, seconds, trace, probes=0):
    """Run the closed loop; returns the Run and, for a traced run, its Tracer.
    An untraced run takes `probes` cold set-up samples on the way."""
    run = Run(wl, workload, seed)
    if not trace:
        run.loop(seconds, run.plain_step, probes)
        return run, None
    tracer = tracing.Tracer(wl.MODULES)
    run.loop(seconds, run.paired_step(tracer))
    return run, tracer


def collect(run, tracer, setups):
    """(the metrics of the result line, every metric for the run's record)."""
    metrics = end_to_end(run, setups)
    detail = dict(metrics, **per_method(run), **trial_tail(run))
    if tracer is not None:
        metrics = dict(per_method(run), **per_layer(run, tracer))
        detail.update(metrics)
    return metrics, detail


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    bootstrap()
    import workloads as wl
    import tracing
    if args.workload not in wl.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(wl.WORKLOADS)}")
    workload = wl.WORKLOADS[args.workload]
    wl.warm_up(workload)
    setup_here = time.perf_counter() - _T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_here}))
        return 0

    env = environment(args.seed, wl.WORKLOADS)
    try:
        canary_err = wl.canary()
        run, tracer = measure(wl, tracing, workload, args.seed, args.seconds, args.trace,
                              0 if args.trace else SETUP_PROBES)
    except wl.CorrectnessError as exc:
        print(f"perfbench: correctness check failed: {exc}", file=sys.stderr)
        return 3
    env["loadavg_end"] = os.getloadavg()

    setups = [setup_here] + run.setups
    metrics, detail = collect(run, tracer, setups)
    calls = run.calls()
    record = {
        "workload": workload.name, "why": workload.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "env": env,
        "setup_samples_s": setups, "canary_max_err_deg": canary_err,
        "executions": run.executions, "pool": workload.pool, "elapsed_s": run.elapsed,
        "calls": calls, "metrics": {k: {"value": v, "unit": u} for k, (v, u) in detail.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        tracer.write(OUT_DIR / f"{stem}.spans.json.gz")

    print(f"env {json.dumps(env)}")
    print(f"workload {workload.name}: {workload.why}")
    print(f"executions {run.executions} over {run.elapsed:.1f} s; estimator calls "
          f"{calls['attempted']}, failed {calls['failed']} {calls['exceptions'] or ''}")
    for name, (value, unit) in detail.items():
        print(f"  {name:58s} {value:12.6g} {unit}")
    print(json.dumps({"correct": True, "attempted": calls["attempted"], "failed": calls["failed"],
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
