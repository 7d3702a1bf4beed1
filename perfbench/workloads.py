"""Workloads of the ctpsim benchmark: generated configs, CLI passes and output checks.

A pass runs a workload's subcommands once, in process, through the public
entry point ``ctpsim.cli.main``.  Every call is checked: exit code, the
workload's correctness gate, and byte identity of its outputs with the first
pass of the same seed (``manifest.json`` minus its ``wall_time_s``).

Why these two workloads: ``scenario_dense`` loads the dense kernel build and
its eigendecomposition (ROADMAP item 2); ``ensembles`` runs ``langevin``,
``inflation`` and ``verify``, which load the Python per-step and per-stream
loops (items 3 and 5) and build no large kernel, so each optimisation has a
workload that exercises it and one on which the prediction is "no change".
The three subcommands share one workload, not one each: their passes are
short, and on a shared 2-core host the CPU speed drifts by +-20 % over tens of
seconds, so one long run per workload keeps the medians steadier than three
short ones.  The fluctuation-kernel scenario is not a workload: ``ssb``/``bec``
with ``noise_kernel: fluctuation`` on the default [0, 30] grid exit 2 (the
run diverges at step 2-3, probably from eigenvector round-off at
e^{3 w t} ~ e^90; unverified).  That is a defect for ROADMAP item 2, and
timing a failing path would make its fix look like a slowdown.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

MASK64 = (1 << 64) - 1

# `ctpsim langevin` on its defaults is a damped oscillator (omega0 = 1,
# gamma = 0.5, sigma2 = 1) whose stationary <x^2> is sigma2 / (2 gamma
# omega0^2) = 1.  Its summary averages over the tail t in [150, 200]; x^2 has
# variance 2 and an integrated autocorrelation time of ~2.1, so one
# realization's tail average has standard deviation sqrt(2 * 2.1 / 50) ~ 0.29
# and the ensemble's standard error is 0.29 / sqrt(M).  The gate allows five.
LANGEVIN_TAIL_SD = 0.29
LANGEVIN_TAIL_SES = 5.0

# acceptance criterion 10 of the test suite: the inflationary slope is -3 +/- 0.1
INFLATION_SLOPE = -3.0
INFLATION_SLOPE_TOL = 0.1

# the Hubbard-Stratonovich check of `ctpsim verify` samples on an 8-point grid
VERIFY_HS_POINTS = 8


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def _check_scenario(sub: str, out: Path, stdout: str, sizes: dict) -> list[str]:
    verdicts = _read_json(out / "report.json")["verdicts"]
    return [f"{sub} verdict {name} is false" for name, ok in verdicts.items() if not ok]


def langevin_tail_tolerance(n_realizations: int) -> float:
    return LANGEVIN_TAIL_SES * LANGEVIN_TAIL_SD / math.sqrt(n_realizations)


def _check_langevin(sub: str, out: Path, stdout: str, sizes: dict) -> list[str]:
    tail = _read_json(out / "summary.json")["tail_mean_x_sq"]
    tol = langevin_tail_tolerance(sizes["n_realizations"])
    if abs(tail - 1.0) <= tol:
        return []
    return [f"tail_mean_x_sq {tail!r} is not within {tol:.3g} of 1"]


def _check_inflation(sub: str, out: Path, stdout: str, sizes: dict) -> list[str]:
    slope = _read_json(out / "report.json")["slope"]
    if abs(slope - INFLATION_SLOPE) <= INFLATION_SLOPE_TOL:
        return []
    return [f"slope {slope!r} is not within {INFLATION_SLOPE_TOL} of {INFLATION_SLOPE}"]


def _check_verify(sub: str, out: Path, stdout: str, sizes: dict) -> list[str]:
    report = _read_json(out / "verify.json")
    lines = stdout.splitlines()
    problems = [f"check line is not PASS: {line}" for line in lines
                if not line.startswith("PASS ")]
    if len(lines) != len(report["checks"]):
        problems.append(f"{len(lines)} check lines printed for "
                        f"{len(report['checks'])} checks")
    if not report["passed"]:
        problems.append("verify.json reports a failed check")
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    subcommands: tuple[str, ...]
    sizes: dict
    make_config: Callable[[int, dict], dict]  # (master seed, sizes) -> config document
    values: Callable[[dict], int]             # grid values one pass produces, sum of M*d*n
    check: Callable[[str, Path, str, dict], list[str]]  # problems with one call's outputs


# the subcommands of the ensembles workload, in the order a pass runs them
_ENSEMBLE_CHECKS = {"langevin": _check_langevin, "inflation": _check_inflation,
                    "verify": _check_verify}


def _check_ensembles(sub: str, out: Path, stdout: str, sizes: dict) -> list[str]:
    return _ENSEMBLE_CHECKS[sub](sub, out, stdout, sizes)


WORKLOADS = {wl.name: wl for wl in (
    Workload(
        name="scenario_dense",
        subcommands=("ssb", "bec"),
        sizes={"n_realizations": 400, "n_points": 3001},
        make_config=lambda seed, s: {
            "master_seed": seed, "n_realizations": s["n_realizations"],
            "ssb": {"n_points": s["n_points"]}, "bec": {"n_points": s["n_points"]}},
        values=lambda s: s["n_realizations"] * (1 + 2) * s["n_points"],
        check=_check_scenario),
    Workload(
        name="ensembles",
        subcommands=tuple(_ENSEMBLE_CHECKS),
        sizes={"n_realizations": 200, "langevin_points": 20001, "inflation_points": 3001,
               "n_modes": 10, "hs_realizations": 100000},
        make_config=lambda seed, s: {
            "master_seed": seed, "n_realizations": s["n_realizations"],
            "langevin": {"n_points": s["langevin_points"]},
            "inflation": {"n_points": s["inflation_points"], "n_modes": s["n_modes"]},
            "verify": {"hs_realizations": s["hs_realizations"]}},
        values=lambda s: (s["n_realizations"] * s["langevin_points"]
                          + s["n_modes"] * s["n_realizations"] * s["inflation_points"]
                          + s["hs_realizations"] * VERIFY_HS_POINTS),
        check=_check_ensembles),
)}


def config_path(wl: Workload, config_dir: Path) -> Path:
    return config_dir / f"{wl.name}.json"


def write_config(wl: Workload, seed: int, sizes: dict, config_dir: Path) -> Path:
    """Write the workload's config document for a benchmark seed; returns its path."""
    config_dir.mkdir(parents=True, exist_ok=True)
    path = config_path(wl, config_dir)
    path.write_text(json.dumps(wl.make_config(seed & MASK64, sizes), indent=2) + "\n")
    return path


@dataclass
class CallResult:
    subcommand: str
    seconds: float        # wall time of the cli.main call alone
    problems: list[str]   # empty when the call exited 0 and its outputs passed the check
    digest: str           # of every output, manifest.json without wall_time_s
    bytes_written: int


def digest_outputs(out: Path) -> tuple[str, int]:
    h = hashlib.sha256()
    total = 0
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        total += len(data)
        if path.name == "manifest.json":
            manifest = json.loads(data)
            manifest.pop("wall_time_s", None)
            data = json.dumps(manifest, sort_keys=True).encode()
        h.update(str(path.relative_to(out)).encode() + b"\0" + data + b"\0")
    return h.hexdigest(), total


def run_call(cli_main: Callable, wl: Workload, sub: str, config: Path, out: Path,
             sizes: dict) -> CallResult:
    shutil.rmtree(out, ignore_errors=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    problems = []
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        started = time.perf_counter()
        try:
            rc = cli_main([sub, "--config", str(config), "--out", str(out)])
        except Exception as err:  # a traceback is a failed call, not a crashed benchmark
            frame = traceback.extract_tb(err.__traceback__)[-1]
            rc = None
            problems.append(f"raised {err!r} at {Path(frame.filename).name}:{frame.lineno}")
        seconds = time.perf_counter() - started
    if rc == 0:
        try:
            problems.extend(wl.check(sub, out, stdout.getvalue(), sizes))
        except (OSError, ValueError, KeyError, TypeError) as err:
            problems.append(f"unreadable outputs: {err!r}")
    elif rc is not None:
        problems.append(f"exit {rc}: {stderr.getvalue().strip()}")
    digest, nbytes = digest_outputs(out) if out.is_dir() else ("", 0)
    return CallResult(sub, seconds, problems, digest, nbytes)


def run_pass(cli_main: Callable, wl: Workload, config: Path, out_root: Path,
             sizes: dict) -> list[CallResult]:
    """One call of each of the workload's subcommands, in order."""
    return [run_call(cli_main, wl, sub, config, out_root / sub, sizes)
            for sub in wl.subcommands]


class Ledger:
    """Counts attempted and failed calls; the first pass's digests are the reference."""

    def __init__(self):
        self.reference: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, results: list[CallResult]) -> None:
        for r in results:
            problems = list(r.problems)
            if r.digest != self.reference.setdefault(r.subcommand, r.digest):
                problems.append("outputs differ from the first pass with this seed")
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems.extend(f"{r.subcommand}: {p}" for p in problems)
