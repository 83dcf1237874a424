"""Outside-in span tracing of the starfri layers.

The benchmark records spans from its own code by replacing public library
functions with timing wrappers. A function that another module pulled in with
``from ... import name`` is bound a second time in that module's namespace, so
a wrapper installed only at the definition site would miss every call made
through the second binding. ``Tracer.install`` therefore replaces the function
at every starfri module attribute that holds it, and ``uninstall`` puts the
originals back. The library source is never edited.

Each span has a name, a start, an end, a parent span and a trial id. Spans are
kept in memory and written out once, after the measurement. A span's self time
is its duration minus the time covered by its direct children; the wrapper
computes it when the span closes, so per-layer totals need no second pass.
"""

import functools
import gzip
import json
import time

import numpy as np

# (module, function) pairs traced as spans, grouped by starfri module.
SPAN_TARGETS = {
    "fri_uniform": ("pgd_denoise", "estimate_angles_uniform", "extract_af", "label_subspaces"),
    "fri_nonuniform": ("pgd_denoise_paired", "estimate_angles_nonuniform"),
    "structured_linalg": ("rank_truncate", "paired_hankel_lift", "inverse_paired_hankel",
                          "hankel_lift", "smallest_right_singular_vector", "polynomial_roots"),
    "refine": ("grid_init", "select_roots_by_energy", "polish_angles", "varpro_refine",
               "coordinate_rescan"),
    "baselines": ("build_dictionary", "fft_scan", "omp", "sbl_gamma", "sbl_full_space"),
    "bounds": ("zzb_full", "fisher_information"),
    "star_ris_model": ("synthesize_measurements",),
    "experiments": ("make_batch", "run_method", "match_and_score"),
}


class _Frame:
    __slots__ = ("name", "start", "index", "child_s", "child_by_name")

    def __init__(self, name, start, index):
        self.name = name
        self.start = start
        self.index = index
        self.child_s = 0.0
        self.child_by_name = {}


class Tracer:
    """Span recorder plus the per-layer counters read from wrapped calls.

    ``totals[name]`` holds ``[calls, self_s]``; ``counts`` holds the extra
    per-layer counters (iterations, nfev, moved rescans, ...).
    """

    ROOT = "perfbench.trial"

    def __init__(self, modules):
        self.modules = modules          # {"fri_uniform": <module>, ...}
        self.spans = []                 # (trial, name, parent index, start, end)
        self.totals = {}
        self.counts = {}
        self.trial = -1
        self.scene = None               # truth of the current trial, from make_batch
        self._stack = []
        self._patched = []

    # -- span bookkeeping ----------------------------------------------------

    def _open(self, name):
        frame = _Frame(name, time.perf_counter(), len(self.spans))
        self.spans.append(None)         # reserve the slot so children can point at it
        self._stack.append(frame)
        return frame

    def _close(self, frame):
        end = time.perf_counter()
        self._stack.pop()
        duration = end - frame.start
        parent = self._stack[-1] if self._stack else None
        self.spans[frame.index] = (self.trial, frame.name,
                                   parent.index if parent else -1, frame.start, end)
        tot = self.totals.setdefault(frame.name, [0, 0.0])
        tot[0] += 1
        tot[1] += duration - frame.child_s
        if parent is not None:
            parent.child_s += duration
            parent.child_by_name[frame.name] = parent.child_by_name.get(frame.name, 0.0) + duration
        return duration

    def _exclude(self, seconds):
        """Charge bookkeeping done after a span closed to no layer."""
        if self._stack:
            self._stack[-1].child_s += seconds

    def count(self, key, value=1):
        self.counts[key] = self.counts.get(key, 0) + value

    def run_trial(self, trial, fn, *args):
        """Run one trial under the root span; returns fn's result."""
        self.trial = trial
        frame = self._open(self.ROOT)
        try:
            return fn(*args)
        finally:
            self._close(frame)

    # -- wrappers --------------------------------------------------------------

    def _wrap(self, name, fn, on_result):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                duration = tracer._close(frame)
            if on_result is not None:
                t0 = time.perf_counter()
                on_result(args, kwargs, out, duration, frame)
                tracer._exclude(time.perf_counter() - t0)
            return out

        return traced

    def _bind_everywhere(self, original, replacement):
        n = 0
        for mod in self.modules.values():
            for attr, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, attr, replacement)
                    self._patched.append((mod, attr, original))
                    n += 1
        return n

    def install(self):
        """Wrap every SPAN_TARGETS function at each module binding, plus the
        nfev counter on refine's least_squares. Returns {span name: bindings}."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        hooks = self._result_hooks()
        bound = {}
        for mod_name, funcs in SPAN_TARGETS.items():
            mod = self.modules[mod_name]
            for fname in funcs:
                name = f"{mod_name}.{fname}"
                original = getattr(mod, fname)
                bound[name] = self._bind_everywhere(
                    original, self._wrap(name, original, hooks.get(name)))
        least_squares = self.modules["refine"].least_squares
        bound["refine.least_squares"] = self._bind_everywhere(
            least_squares, self._nfev_counter(least_squares))
        return bound

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched = []

    def _nfev_counter(self, fn):
        # a counter, not a span: varpro_refine's time stays its own
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            sol = fn(*args, **kwargs)
            tracer.count("refine.varpro_refine.nfev", sol.nfev)
            return sol

        return counted

    def _result_hooks(self):
        ex = self.modules["experiments"]
        match_and_score = ex.match_and_score    # the unwrapped original
        SblConfig = self.modules["baselines"].SblConfig

        def pgd(prefix):
            def hook(args, kwargs, out, duration, frame):
                _, iterations, _, converged = out
                self.count(prefix + ".iterations", iterations)
                self.count(prefix + ".converged", int(bool(converged)))
                # per-iteration cost: the whole call minus its grid start
                init_s = frame.child_by_name.get("refine.grid_init", 0.0)
                self.count(prefix + ".loop_s", duration - init_s)
            return hook

        def polish(args, kwargs, out, duration, frame):
            th_r, th_t = args[2], args[3]
            labeled = [(float(a), 'RS') for a in th_r] + [(float(a), 'TS') for a in th_t]
            errors, _ = match_and_score(labeled, self.scene)
            if errors is not None:
                self.count("refine.polish_angles.input_sq_deg", float(np.sum(np.square(errors))))
                self.count("refine.polish_angles.input_angles", len(errors))

        def rescan(args, kwargs, out, duration, frame):
            moved = not (np.array_equal(out[0], args[2]) and np.array_equal(out[1], args[3]))
            self.count("refine.coordinate_rescan.moved", int(moved))

        def sbl_gamma(args, kwargs, out, duration, frame):
            gamma, _ = out
            config = kwargs.get("config", args[3] if len(args) > 3 else None) or SblConfig()
            active = gamma > config.prune_tol * max(gamma.max(), 1e-30)
            self.count("baselines.sbl_gamma.active_atoms", int(np.count_nonzero(active)))

        def make_batch(args, kwargs, out, duration, frame):
            self.scene = out[0]

        def sbl_full(args, kwargs, out, duration, frame):
            self.count("baselines.sbl_full_space.flagged", int(bool(out[2])))

        return {
            "fri_uniform.pgd_denoise": pgd("fri_uniform.pgd_denoise"),
            "fri_nonuniform.pgd_denoise_paired": pgd("fri_nonuniform.pgd_denoise_paired"),
            "refine.polish_angles": polish,
            "refine.coordinate_rescan": rescan,
            "baselines.sbl_gamma": sbl_gamma,
            "baselines.sbl_full_space": sbl_full,
            "experiments.make_batch": make_batch,
        }

    # -- output ----------------------------------------------------------------

    def write(self, path):
        """Write every span as gzipped JSON: a name table plus one row per span."""
        names = sorted({s[1] for s in self.spans if s is not None})
        index = {n: i for i, n in enumerate(names)}
        rows = [[s[0], index[s[1]], s[2], round(s[3], 9), round(s[4], 9)]
                for s in self.spans if s is not None]
        with gzip.open(path, "wt") as f:
            json.dump({"columns": ["trial", "name", "parent", "start_s", "end_s"],
                       "names": names, "spans": rows}, f)
