"""The ctpsim benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

ctpsim is imported from ``src/`` of the tree this script sits in; the
workloads are defined in ``workloads.py`` and run in process through
``ctpsim.cli.main`` with the library defaults (threads 1, BLAS at its
default).  The seed is the config's ``master_seed``.

With ``--trace 0`` tracing is off and the end-to-end metrics are printed:

  setup_s       median over fresh interpreters of the spawn-to-exit time of
                ``import ctpsim.cli`` plus writing the workload's config,
                at reference speed (below)
  wall_s        median wall time of one pass of the workload's CLI calls, at
                reference speed; the first pass of the run is a warm-up and
                is not counted
  values_per_s  grid values one pass produces (sum of M*d*n) / wall_s
  peak_rss_mb   peak resident memory of this process after the warm-up pass
                (one process per run, so it is the peak of one pass)
  failed_frac   failed / attempted CLI calls (the result's failed / attempted)

Reference speed: the CPU speed a shared 2-core host gives one process drifts
by +-30 % over minutes, longer than a run, so raw times of the same code differ
from run to run by more than the benchmark's bounds.  A fixed reference block
of interpreter and LAPACK work that never touches ctpsim is timed before the
first timed pass and after every pass; each pass's time is scaled by
``REFERENCE_S`` / (the faster of the two blocks around it), and set-up by
``REFERENCE_S`` / (the run's median block).  The times printed are thus those
of a host on which the block takes ``REFERENCE_S``; the raw medians and the
block's median are printed on ``measured`` lines.

With ``--trace 1`` untraced and traced passes alternate; the per-layer
metrics of ``tracing.PER_LAYER_UNITS`` are medians over the traced passes,
and ``trace.overhead_s`` is the traced minus the untraced median pass time.
The spans are written to ``.perfbench-out/`` when the run ends.

The passes, warm-up included, run for at least ``--seconds`` in total.  Each
line before the last names a metric, a raw measurement, a problem or the
environment; the last line is one JSON object with the keys correct,
attempted, failed and metrics.  Exit status 2, with no result, when the run
cannot be made (no ``src/ctpsim``, a child process failed).
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing
from workloads import WORKLOADS, CallResult, Ledger, config_path, run_pass

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
TRACE_OUT = ROOT / ".perfbench-out"
SETUP_MIN_SAMPLES = 5
REFERENCE_S = 0.3  # nominal seconds of one reference block
REFERENCE_LOOP = 2_000_000
REFERENCE_EIGH = 8
CHILD_TIMEOUT_S = 150

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "values_per_s": "1/s",
                    "peak_rss_mb": "MB"}


class BenchmarkError(RuntimeError):
    """The run could not be made; no result is printed."""


def _setup_child(wl, seed: int, work: Path, sizes: dict) -> float:
    """Run child.py in a fresh interpreter; returns its spawn-to-exit seconds."""
    argv = [sys.executable, str(CHILD), wl.name, str(seed), str(work / "config"),
            json.dumps(sizes)]
    started = time.perf_counter()
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as err:
        raise BenchmarkError(f"setup child timed out after {CHILD_TIMEOUT_S} s") from err
    elapsed = time.perf_counter() - started
    if proc.returncode != 0:
        raise BenchmarkError(f"setup child exited {proc.returncode}: "
                             f"{proc.stderr.strip()[-2000:]}")
    return elapsed


def _pass_seconds(results: list[CallResult]) -> float:
    return sum(r.seconds for r in results)


def reference_seconds() -> float:
    """Time one reference block: a pure-Python loop and a few 400x400 eigh."""
    import numpy as np
    matrix = np.random.default_rng(0).standard_normal((400, 400))
    matrix += matrix.T
    started = time.perf_counter()
    total = 0
    for i in range(REFERENCE_LOOP):
        total += i * i
    for _ in range(REFERENCE_EIGH):
        np.linalg.eigh(matrix)
    return time.perf_counter() - started


def end_to_end(cli, wl, seed: int, seconds: float, work: Path, sizes: dict,
               ledger: Ledger) -> dict:
    # The host's speed drifts, so set-up is sampled after every pass as well as
    # before the first, not in one burst.
    setups = [_setup_child(wl, seed, work, sizes)]
    config = config_path(wl, work / "config")
    started = time.perf_counter()
    ledger.add(run_pass(cli.main, wl, config, work / "out", sizes))  # warm-up
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    walls, refs = [], [reference_seconds()]
    while not walls or time.perf_counter() - started < seconds:
        results = run_pass(cli.main, wl, config, work / "out", sizes)
        ledger.add(results)
        walls.append(_pass_seconds(results))
        setups.append(_setup_child(wl, seed, work, sizes))
        refs.append(reference_seconds())
    while len(setups) < SETUP_MIN_SAMPLES:
        setups.append(_setup_child(wl, seed, work, sizes))
    scaled = [wall * REFERENCE_S / min(before, after)
              for wall, before, after in zip(walls, refs, refs[1:])]
    wall_s = statistics.median(scaled)
    speed = REFERENCE_S / statistics.median(refs)
    measured = {"wall_s": statistics.median(walls), "setup_s": statistics.median(setups),
                "reference_s": statistics.median(refs)}
    for name, value in measured.items():
        print(f"measured {name} {value!r} s")
    return {"setup_s": measured["setup_s"] * speed, "wall_s": wall_s,
            "values_per_s": wl.values(sizes) / wall_s,
            "peak_rss_mb": peak_kib * 1024 / 1e6}


def per_layer(cli, wl, seed: int, seconds: float, work: Path, sizes: dict,
              ledger: Ledger) -> tuple[dict, list[tracing.Recorder]]:
    _setup_child(wl, seed, work, sizes)  # writes the config
    config = config_path(wl, work / "config")
    untraced, traced, samples, recorders = [], [], [], []
    probe = None
    started = time.perf_counter()
    while not traced or time.perf_counter() - started < seconds:
        results = run_pass(cli.main, wl, config, work / "out", sizes)
        ledger.add(results)
        untraced.append(_pass_seconds(results))

        rec = tracing.Recorder()
        with tracing.instrument(rec):
            results = run_pass(lambda argv: rec.call("cli.main", cli.main, argv),
                               wl, config, work / "out", sizes)
        ledger.add(results)
        traced.append(_pass_seconds(results))
        if probe is None:
            probe = tracing.probe_noise(rec)
        rec.sampled.clear()  # drop the kernels the probe needed
        samples.append(tracing.layer_metrics(rec, probe,
                                             sum(r.bytes_written for r in results)))
        recorders.append(rec)
    metrics = {}
    for name, unit in tracing.PER_LAYER_UNITS.items():
        if name in samples[0]:  # counts repeat; median_low keeps them whole
            pick = statistics.median if unit == "s" else statistics.median_low
            metrics[name] = pick(s[name] for s in samples)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    return metrics, recorders


def _blas_threads() -> int | None:
    import numpy as np
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            so = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(so, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(wl, seed: int, seconds: float, trace: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"workload": wl.name, "seed": seed, "seconds": seconds, "trace": trace,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": _blas_threads(), "nproc": len(os.sched_getaffinity(0))}


def _write_spans(env: dict, recorders: list[tracing.Recorder]) -> Path:
    TRACE_OUT.mkdir(exist_ok=True)
    path = TRACE_OUT / f"trace-{env['workload']}-seed{env['seed']}.json"
    path.write_text(json.dumps({
        "env": env,
        "span_fields": ["name", "start_s", "end_s", "parent"],
        "passes": [{"spans": rec.spans, "counts": rec.counts} for rec in recorders],
    }) + "\n")
    return path


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None, sizes: dict | None = None) -> int:
    """Run one benchmark; ``sizes`` overrides the workload's sizes (smoke test)."""
    args = parse_args(argv)
    if not (ROOT / "src" / "ctpsim" / "cli.py").is_file():
        print(f"perfbench: no ctpsim source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    import ctpsim.cli as cli

    wl = WORKLOADS[args.workload]
    sizes = dict(wl.sizes if sizes is None else sizes)
    env = environment(wl, args.seed, args.seconds, args.trace)
    ledger = Ledger()
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        if args.trace:
            metrics, recorders = per_layer(cli, wl, args.seed, args.seconds, work, sizes,
                                           ledger)
            units = tracing.PER_LAYER_UNITS
            print(f"spans {_write_spans(env, recorders)}")
        else:
            metrics = end_to_end(cli, wl, args.seed, args.seconds, work, sizes, ledger)
            units = END_TO_END_UNITS
    except BenchmarkError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, value in metrics.items():
        print(f"metric {name} {value!r} {units[name]}")
    print(f"metric failed_frac {ledger.failed / ledger.attempted!r} ratio")
    for problem in ledger.problems:
        print(f"problem {problem}")
    print(f"env {json.dumps(env)}")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
