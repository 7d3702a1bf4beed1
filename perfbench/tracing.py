"""Spans around the public calls into each ctpsim layer, recorded from outside the library.

:func:`instrument` rebinds the functions named in :data:`LAYER_OF`, in every
loaded ``ctpsim`` module that refers to them, to wrappers that record a span
(name, start, end, parent) and a few counts, and restores them on exit.  A
layer's self time is its spans' durations minus the part their child spans
cover.  Nothing in the library changes.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass, field

# traced function (module.name) -> the per-layer metric its self time adds to
LAYER_OF = {
    "cli.main": "cli.write_s",  # root span: CLI time outside every library span
    "kernels.build_retarded": "kernels.build_s",
    "kernels.build_hadamard": "kernels.build_s",
    "kernels.fluctuation_kernel": "kernels.build_s",
    "kernels.memory_kernel": "kernels.build_s",
    "kernels.elementwise_power": "kernels.build_s",
    "kernels.psd_project": "kernels.build_s",
    "kernels.desitter_hadamard": "kernels.build_s",
    "kernels.build_contour_matrix": "kernels.contour_s",
    "kernels.keldysh_rotate": "kernels.contour_s",
    "noise.sample_colored": "noise.draw_s",  # noise.factor_s is taken out after the pass
    "noise.sample_white": "noise.draw_s",
    "langevin.integrate_white": "langevin.integrate_s",
    "langevin.integrate_memory": "langevin.integrate_s",
    "langevin.integrate_overdamped_mode": "langevin.integrate_s",
    "langevin.relaxation_rate": "langevin.integrate_s",
    "langevin.ensemble_run": "langevin.ensemble_s",
    "langevin.aggregate_paths": "langevin.aggregate_s",
    "langevin.estimate_spectrum": "langevin.fit_s",
    "scenarios.run_ssb": "scenarios.integrate_s",
    "scenarios.run_bec": "scenarios.integrate_s",
    "scenarios.scenario_noise_kernel": "scenarios.integrate_s",
    "scenarios.run_inflation": "scenarios.inflation_s",
    "scenarios.recursion_probability": "scenarios.diagnose_s",
    "scenarios.kuiper_statistic": "scenarios.diagnose_s",
}
_INTEGRATORS = ("langevin.integrate_white", "langevin.integrate_memory",
                "langevin.integrate_overdamped_mode")
# counted, not spanned: verify calls it 1e5 times per pass
_SEED_FUNCTION = "core.derive_seed"

PER_LAYER_UNITS = {
    "kernels.build_s": "s",
    "kernels.contour_s": "s",
    "kernels.dense_bytes": "bytes",
    "noise.factor_s": "s",
    "noise.draw_s": "s",
    "noise.rank": "count",
    "noise.clipped": "count",
    "core.seeds_derived": "count",
    "langevin.integrate_s": "s",
    "langevin.steps": "count",
    "langevin.ensemble_s": "s",
    "langevin.aggregate_s": "s",
    "langevin.fit_s": "s",
    "scenarios.integrate_s": "s",
    "scenarios.inflation_s": "s",
    "scenarios.diagnose_s": "s",
    "cli.write_s": "s",
    "cli.write_bytes": "bytes",
    "trace.overhead_s": "s",
}


@dataclass
class Recorder:
    """Spans and counts of one traced pass, kept in memory."""

    spans: list = field(default_factory=list)  # [name, start, end, parent index]
    counts: dict = field(default_factory=dict)
    sampled: list = field(default_factory=list)  # (args, kwargs) of each sample_colored call
    _stack: list = field(default_factory=list)

    def call(self, name, fn, *args, **kwargs):
        index = len(self.spans)
        span = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None]
        self.spans.append(span)
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._stack.pop()
            span[2] = time.perf_counter()
        self._observe(name, args, kwargs, result)
        return result

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def _observe(self, name, args, kwargs, result) -> None:
        if name.startswith("kernels."):
            self.count("kernels.dense_bytes", _dense_bytes(result))
        elif name in _INTEGRATORS:
            self.count("langevin.steps", result.grid.n_points - 1)
        elif name == "noise.sample_colored":
            self.sampled.append((args, kwargs))

    def self_times(self) -> list[float]:
        covered = [0.0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] += end - start
        return [end - start - covered[i]
                for i, (_name, start, end, _parent) in enumerate(self.spans)]


def _dense_bytes(result) -> int:
    from ctpsim.kernels import ContourMatrix, KernelMatrix
    items = result if isinstance(result, tuple) else (result,)
    total = 0
    for item in items:
        if isinstance(item, KernelMatrix):
            total += item.values.nbytes
        elif isinstance(item, ContourMatrix):
            total += sum(b.nbytes for b in (item.g_f, item.g_plus, item.g_minus, item.g_fbar))
    return total


def _resolve(qualname: str):
    module, name = qualname.split(".")
    return getattr(importlib.import_module(f"ctpsim.{module}"), name)


def _spanned(rec: Recorder, qualname: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return rec.call(qualname, fn, *args, **kwargs)
    return wrapper


def _counted(rec: Recorder, counter: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.count(counter)
        return fn(*args, **kwargs)
    return wrapper


@contextlib.contextmanager
def instrument(rec: Recorder):
    """Route the traced library functions through ``rec`` while the block runs."""
    wrappers = {}  # id of the original function -> its stand-in; both stay alive
    for qualname in LAYER_OF:
        if qualname != "cli.main":  # the benchmark opens the root span itself
            fn = _resolve(qualname)
            wrappers[id(fn)] = _spanned(rec, qualname, fn)
    seed_fn = _resolve(_SEED_FUNCTION)
    wrappers[id(seed_fn)] = _counted(rec, "core.seeds_derived", seed_fn)
    patched = []
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "ctpsim" or mod_name.startswith("ctpsim."):
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    setattr(module, attr, wrappers[id(value)])
                    patched.append((module, attr, value))
    try:
        yield rec
    finally:
        for module, attr, value in patched:
            setattr(module, attr, value)


@dataclass
class Probe:
    """Noise-layer figures measured after a traced pass, untraced."""

    factor_s: float = 0.0
    rank: int = 0
    clipped: int = 0


def probe_noise(rec: Recorder) -> Probe:
    """Time the sampler at M = 1 and count clipped eigenvalues for each colored draw."""
    from ctpsim.kernels import psd_project
    from ctpsim.noise import sample_colored
    signature = inspect.signature(sample_colored)
    probe = Probe()
    for args, kwargs in rec.sampled:
        call = signature.bind(*args, **kwargs)
        call.apply_defaults()
        kernel, clip_tol = call.arguments["kernel"], call.arguments["clip_tol"]
        started = time.perf_counter()
        sample_colored(kernel, call.arguments["seed"], 1, clip_tol)
        probe.factor_s += time.perf_counter() - started
        _, clipped = psd_project(kernel, clip_tol)
        probe.rank = max(probe.rank, kernel.n - clipped)
        probe.clipped = max(probe.clipped, clipped)
    return probe


def layer_metrics(rec: Recorder, probe: Probe, bytes_written: int) -> dict:
    """Per-layer figures of one traced pass (trace.overhead_s is added by the caller)."""
    metrics = {name: 0 if unit in ("count", "bytes") else 0.0
               for name, unit in PER_LAYER_UNITS.items()}
    for (name, *_), self_s in zip(rec.spans, rec.self_times()):
        metrics[LAYER_OF[name]] += self_s
    metrics.update(rec.counts)
    metrics["noise.factor_s"] = probe.factor_s
    metrics["noise.draw_s"] -= probe.factor_s
    metrics["noise.rank"] = probe.rank
    metrics["noise.clipped"] = probe.clipped
    metrics["cli.write_bytes"] = bytes_written
    return metrics
