"""Tests of the benchmark itself: python3 -m pytest perfbench

They run a few trials of each workload (small pools, no time budget), so the
whole file takes well under a minute plus one full command-line run.
"""

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import run as bench

bench.bootstrap()

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SMALL_POOL = {"fri_mc": 2, "grid_baselines": 2}
SECOND_SEED = 3     # on it every method succeeds in its small pool, so every RMSE is defined

FRI = {f"{mod}.{f}" for mod in ("fri_uniform", "fri_nonuniform", "structured_linalg", "refine")
       for f in tracing.SPAN_TARGETS[mod]}
FFT_OMP = {"baselines.build_dictionary", "baselines.fft_scan", "baselines.omp"}
COMMON = {"star_ris_model.synthesize_measurements", "experiments.make_batch",
          "experiments.run_method", "experiments.match_and_score"}
EXPECTED = {
    "fri_mc": FRI | COMMON,
    "grid_baselines": FFT_OMP | COMMON | {"baselines.sbl_gamma", "baselines.sbl_full_space",
                                          "bounds.zzb_full", "bounds.fisher_information"},
}


def small(name):
    return replace(wl.WORKLOADS[name], pool=SMALL_POOL[name])


@pytest.fixture(scope="module")
def traced_runs():
    """A traced run of every workload on the second seed: each pool trial
    once plain and once traced."""
    return {name: bench.measure(wl, tracing, small(name), SECOND_SEED, 0.0, 1)
            for name in wl.WORKLOADS}


def test_every_span_target_belongs_to_a_workload():
    targets = {f"{mod}.{f}" for mod, funcs in tracing.SPAN_TARGETS.items() for f in funcs}
    assert targets == set().union(*EXPECTED.values())


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_traced_run_intercepts_every_named_function(traced_runs, name):
    _, tracer = traced_runs[name]
    seen = {k for k, (calls, _) in tracer.totals.items() if calls > 0}
    assert EXPECTED[name] <= seen
    assert seen - {tracer.ROOT} <= EXPECTED[name]
    if name == "grid_baselines":
        assert not any(s.startswith(("fri_", "refine.", "structured_linalg.")) for s in seen)
    else:
        assert tracer.counts["refine.varpro_refine.nfev"] > 0


def test_install_wraps_every_binding():
    tracer = tracing.Tracer(wl.MODULES)
    bound = tracer.install()
    try:
        # from-imports bind these a second (and third) time
        assert bound["refine.grid_init"] == 3
        assert bound["refine.polish_angles"] == 3
        assert bound["refine.select_roots_by_energy"] == 3
        assert bound["star_ris_model.synthesize_measurements"] == 2
        assert bound["fri_uniform.estimate_angles_uniform"] == 2
        assert bound["refine.least_squares"] == 1
        assert wl.fri_uniform.grid_init is wl.refine.grid_init is not None
        assert wl.fri_uniform.grid_init.__wrapped__ is not None
    finally:
        tracer.uninstall()
    assert not hasattr(wl.fri_uniform.grid_init, "__wrapped__")


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_traced_and_untraced_angles_are_bit_identical(traced_runs, name):
    run, _ = traced_runs[name]
    assert len(run.plain) == len(run.traced) == SMALL_POOL[name]
    for plain, traced in zip(run.plain, run.traced):
        assert plain.index == traced.index
        for m in run.workload.methods:
            assert plain.calls[m][0] == traced.calls[m][0]


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_no_span_has_negative_self_time(traced_runs, name):
    _, tracer = traced_runs[name]
    child = [0.0] * len(tracer.spans)
    for _, _, parent, start, end in tracer.spans:
        if parent >= 0:
            child[parent] += end - start
    for (_, span, _, start, end), inner in zip(tracer.spans, child):
        assert end - start - inner >= -1e-12, span
    assert all(self_s >= 0 for _, self_s in tracer.totals.values())


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_second_seed_produces_every_metric(traced_runs, name):
    run, tracer = traced_runs[name]
    metrics, _ = bench.collect(run, tracer, [1.0])
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert all(math.isfinite(v) for v, _ in metrics.values())
    for m in bench.METHODS:
        runs = m in run.workload.methods
        assert metrics[f"experiments.run_method.{m.lower()}_calls"][0] == (1.0 if runs else 0.0)
    plain, _ = bench.measure(wl, tracing, small(name), SECOND_SEED, 0.0, 0)
    metrics, _ = bench.collect(plain, None, [1.0])
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(math.isfinite(v) and v > 0 for v, _ in metrics.values())
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    assert all(unit == units[k] for k, (_, unit) in metrics.items())


def test_fri_mc_trace_shows_pgd_never_converging(traced_runs):
    run, tracer = traced_runs["fri_mc"]
    layer = bench.per_layer(run, tracer)
    assert layer["fri_uniform.pgd_denoise.calls"][0] >= 1
    assert layer["fri_uniform.pgd_denoise.iterations_mean"][0] == 200
    assert layer["fri_uniform.pgd_denoise.converged_ratio"][0] == 0


def test_failed_call_is_counted_and_the_trial_goes_on(monkeypatch):
    original = wl.experiments.run_method

    def flaky(method, batch, config):
        if method == "M1":
            raise ValueError("injected")
        return original(method, batch, config)

    monkeypatch.setattr(wl.experiments, "run_method", flaky)
    run, _ = bench.measure(wl, tracing, small("fri_mc"), 0, 0.0, 0)
    calls = run.calls()
    assert calls == {"attempted": 4, "failed": 2, "exceptions": {"M1": {"ValueError": 2}}}
    assert all(r.calls["M2"][0] is not None for r in run.plain)
    assert wl.accuracy(run.plain, "M1") == (0.0, None)
    metrics = bench.per_method(run)
    assert metrics["experiments.run_method.m1_calls"][0] == 1.0
    assert metrics["experiments.match_and_score.m1_success"][0] == 0.0
    assert "experiments.match_and_score.m1_rmse_deg" not in metrics


def test_trial_p90_needs_enough_trials():
    run, _ = bench.measure(wl, tracing, small("fri_mc"), 0, 0.0, 0)
    assert bench.trial_tail(run) == {}
    run.plain *= bench.TAIL_MIN_TRIALS
    assert bench.trial_tail(run)["perfbench.trial.ms_p90"][0] > 0


def test_setup_probes_are_spread_through_the_loop(monkeypatch):
    taken = []
    monkeypatch.setattr(bench, "cold_setup_seconds", lambda name: taken.append(name) or 1.0)
    run, _ = bench.measure(wl, tracing, small("fri_mc"), 0, 0.0, 0, probes=3)
    assert run.setups == [1.0, 1.0, 1.0] and taken == ["fri_mc"] * 3


def test_canary_rejects_an_inexact_estimator(monkeypatch):
    assert wl.canary() <= wl.CANARY_TOL_DEG
    original = wl.experiments.run_method

    def biased(method, batch, config):
        angles, it, dt = original(method, batch, config)
        return [(a + 1e-4, lab) for a, lab in angles], it, dt

    monkeypatch.setattr(wl.experiments, "run_method", biased)
    with pytest.raises(wl.CorrectnessError):
        wl.canary()


def test_check_angles_rejects_malformed_output():
    good = [(1.0, 'RS'), (2.0, 'RS'), (3.0, 'TS'), (4.0, 'TS')]
    wl.check_angles("M1", good)
    for bad in (good[:3], good[:3] + [(math.nan, 'TS')], good[:3] + [(4.0, 'RS')]):
        with pytest.raises(wl.CorrectnessError):
            wl.check_angles("M1", bad)


def _copy_benchmark(dest):
    shutil.copy(HERE.parent / "BENCHMARK.json", dest)
    shutil.copytree(HERE, dest / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", "results"))


def test_command_fails_without_the_library(tmp_path):
    _copy_benchmark(tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "fri_mc",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_command_prints_the_result_line(tmp_path):
    _copy_benchmark(tmp_path)
    shutil.copytree(HERE.parent / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "grid_baselines",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 3 * wl.WORKLOADS["grid_baselines"].pool
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
