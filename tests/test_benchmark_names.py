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

from starfri import baselines, bounds, experiments, fri_uniform, refine, star_ris_model


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
