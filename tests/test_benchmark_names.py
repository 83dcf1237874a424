"""The library names the benchmark's tracer reads, checked without the benchmark.

``perfbench/tracing.py`` wraps functions by name and reads a few fields of the
library's configs; a rename in ``starfri`` would only show when the benchmark
runs. This test loads the tracer by path (it imports only the standard library
and numpy) and checks every name it relies on.
"""

import importlib
import importlib.util
import inspect
from dataclasses import fields
from pathlib import Path

from starfri import (baselines, bounds, experiments, fri_nonuniform, fri_uniform, refine,
                     star_ris_model)
from starfri import structured_linalg as sl


def _tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_span_targets_are_functions_of_their_modules():
    for mod_name, names in _tracing().SPAN_TARGETS.items():
        module = importlib.import_module(f"starfri.{mod_name}")
        for name in names:
            fn = getattr(module, name, None)
            assert inspect.isfunction(fn), f"starfri.{mod_name}.{name}"
            assert fn.__module__ == module.__name__, f"starfri.{mod_name}.{name}"


def test_binding_counts_the_tracer_wraps():
    # Tracer.install wraps a function at every starfri module attribute that
    # holds it; the benchmark's own tests assert these counts, so a moved
    # from-import shows here first
    modules = [importlib.import_module(f"starfri.{m}") for m in _tracing().SPAN_TARGETS]

    def bindings(fn):
        return sum(value is fn for module in modules for value in vars(module).values())

    assert bindings(refine.grid_init) == 3
    assert bindings(refine.polish_angles) == 3
    assert bindings(refine.select_roots_by_energy) == 3
    assert bindings(star_ris_model.synthesize_measurements) == 2
    assert bindings(fri_uniform.estimate_angles_uniform) == 2
    assert bindings(refine.least_squares) == 1


def test_fields_the_tracer_reads_exist():
    assert callable(refine.least_squares)
    assert isinstance(baselines.SblConfig().prune_tol, float)
    assert [f.name for f in fields(bounds.ZzbInputs)] == ["scene", "profile", "channel", "sigma_n2"]
    assert "success_threshold_deg" in {f.name for f in fields(experiments.ExperimentConfig)}


def test_pgd_solvers_call_the_traced_kernels_per_iteration(monkeypatch):
    # the benchmark's span test needs rank_truncate on every M1 and M2
    # iteration and M2's paired lift and average through the module: an
    # inlined kernel fails here before it fails the benchmark
    names = ("rank_truncate", "paired_hankel_lift", "inverse_paired_hankel")
    calls = {}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(sl, name, counting(name, getattr(sl, name)))
    _, _, _, batch = experiments.make_batch(experiments.ExperimentConfig(snr_db=15.0), 0)
    cfg = refine.PgdConfig(i_max=3)
    counts = {}
    for label, denoise in (("M1", fri_uniform.pgd_denoise),
                           ("M2", fri_nonuniform.pgd_denoise_paired)):
        calls.update(dict.fromkeys(names, 0))
        assert denoise(batch, cfg)[1] == 3
        counts[label] = dict(calls)
    assert counts["M1"] == {"rank_truncate": 3, "paired_hankel_lift": 0,
                            "inverse_paired_hankel": 0}
    assert counts["M2"] == dict.fromkeys(names, 3)
