"""Command-line front end: config ingestion, dispatch and bit-stable exports.

One JSON document configures every subcommand; each subcommand reads its own
section plus the shared reproducibility keys (master_seed, n_realizations).
The schema is strict: unknown keys and duplicate keys are fatal, so a
misspelled physical parameter can never fall back to a default silently.
All outputs are written atomically (temp file + rename) and every run leaves
a manifest sufficient to reproduce it bit-exactly.

Exit codes: 0 success, 1 config error, 2 numerical failure, 3 verification
suite failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .core import (ConfigError, NumericalError, TimeGrid, derive_seed, make_grid,
                   require_memory)
from .kernels import (DeSitterParams, KernelMatrix, build_contour_matrix,
                      build_hadamard, build_retarded, fluctuation_kernel,
                      keldysh_rotate, memory_kernel)
from .langevin import PotentialSpec, aggregate_paths, step_semi_implicit
from .langevin import ensemble_run  # noqa: F401  (perfbench traces it through this module)
from .noise import (DEFAULT_CLIP_TOL, draw_white, hs_moment_check, sample_colored,
                    sample_white)
from .scenarios import BECConfig, SSBConfig, run_bec, run_inflation, run_ssb
from .squeeze import (DEFAULT_SQUEEZE_ANGLE, SqueezeParams, bogolubov_coefficients,
                      mode_two_point, particle_number, quadrature_variances)

SUBCOMMANDS = ("squeeze", "kernels", "noise", "langevin", "ssb", "bec",
               "inflation", "verify")


# ---------------------------------------------------------------------------
# schema

_POSITIVE = (lambda v: v > 0, "must be positive")
_NONNEG = (lambda v: v >= 0, "must be >= 0")
_NEGATIVE = (lambda v: v < 0, "must be negative")
_GE1 = (lambda v: v >= 1, "must be >= 1")
_GE2 = (lambda v: v >= 2, "must be >= 2")
_FRACTION = (lambda v: 0 < v < 1, "must be strictly between 0 and 1")


def _choice(*options):
    return (lambda v: v in options, "must be one of " + ", ".join(map(repr, options)))


def _grid_keys(t_end: float, n_points: int) -> dict:
    return {
        "t_start": (float, 0.0, None),
        "t_end": (float, t_end, None),
        "n_points": (int, n_points, _GE2),
    }


_SQUEEZE_MODE_KEYS = {
    "mass": (float, 1.0, _POSITIVE),
    "omega": (float, 1.0, _POSITIVE),
    "phi": (float, DEFAULT_SQUEEZE_ANGLE, None),
    "hbar": (float, 1.0, _POSITIVE),
}

_SECTION_SCHEMAS: dict[str, dict] = {
    "squeeze": {**_SQUEEZE_MODE_KEYS, **_grid_keys(2.0, 201)},
    "kernels": {
        "kind": (str, "retarded", _choice("retarded", "hadamard", "fluctuation", "memory")),
        "coupling": (float, 0.5, _NONNEG),
        **_SQUEEZE_MODE_KEYS,
        **_grid_keys(1.0, 64),
    },
    "noise": {
        "kind": (str, "white", _choice("white", "hadamard", "fluctuation")),
        "sigma2": (float, 1.0, _POSITIVE),
        "coupling": (float, 0.5, _NONNEG),
        "clip_tol": (float, DEFAULT_CLIP_TOL, _POSITIVE),
        **_SQUEEZE_MODE_KEYS,
        **_grid_keys(1.0, 33),
    },
    "langevin": {
        "potential": (str, "quadratic", _choice("quadratic", "inverted", "double_well")),
        "omega0": (float, 1.0, _POSITIVE),
        "omega": (float, 1.0, _POSITIVE),
        "m2": (float, -1.0, None),
        "lambda": (float, 0.6, _POSITIVE),
        "gamma": (float, 0.5, _NONNEG),
        "sigma2": (float, 1.0, _POSITIVE),
        "x0": (float, 0.0, None),
        "v0": (float, 0.0, None),
        **_grid_keys(200.0, 20001),
    },
    "ssb": {
        "m2": (float, -1.0, _NEGATIVE),
        "lambda": (float, 0.6, _POSITIVE),
        "noise_kernel": (str, "hadamard", _choice("hadamard", "fluctuation")),
        "coupling": (float, 0.5, _NONNEG),
        "noise_amplitude": (float, 0.3, _NONNEG),
        "friction": (float, 1.0, _NONNEG),
        "gate": (bool, True, None),
        "gate_threshold": (float, None, _POSITIVE),
        "mass": (float, 1.0, _POSITIVE),
        "hbar": (float, 1.0, _POSITIVE),
        "return_radius": (float, 0.1, _POSITIVE),
        **_grid_keys(30.0, 1501),
    },
    "inflation": {
        "hubble": (float, 1.0, _POSITIVE),
        "lambda": (float, 6.0, _POSITIVE),
        "phi0": (float, 1.0, _POSITIVE),
        "k_min": (float, 0.5, _POSITIVE),
        "decades": (float, 1.5, _POSITIVE),
        "n_modes": (int, 10, _GE2),
        "tail_fraction": (float, 0.5, _FRACTION),
        **_grid_keys(30.0, 3001),
    },
    "verify": {
        "hs_realizations": (int, 20000, _GE1),
    },
}
_SECTION_SCHEMAS["bec"] = dict(_SECTION_SCHEMAS["ssb"])

_TOP_SCHEMA = {
    "master_seed": (int, 0, (lambda v: 0 <= v < 2**64, "must fit in an unsigned 64-bit integer")),
    "n_realizations": (int, 100, _GE1),
}


def _coerce(where: str, key: str, want, value):
    if want is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"{where}{key} must be a boolean")
        return value
    if want is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{where}{key} must be an integer")
        return value
    if want is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{where}{key} must be a number")
        # json accepts NaN, +-Infinity and integers beyond the float range
        if not abs(value) <= sys.float_info.max:
            raise ConfigError(f"{where}{key} must be finite")
        return float(value)
    if want is str:
        if not isinstance(value, str):
            raise ConfigError(f"{where}{key} must be a string")
        return value
    raise AssertionError(f"unhandled schema type {want}")  # pragma: no cover


def _validate_mapping(where: str, data: dict, schema: dict) -> dict:
    out = {}
    for key, value in data.items():
        if key not in schema:
            raise ConfigError(f"unknown key {where}{key!r}")
        want, _default, constraint = schema[key]
        value = _coerce(where, key, want, value)
        if constraint is not None and not constraint[0](value):
            raise ConfigError(f"{where}{key} {constraint[1]}")
        out[key] = value
    for key, (want, default, _constraint) in schema.items():
        out.setdefault(key, default)
    return out


def _no_duplicates(pairs):
    seen = {}
    for key, value in pairs:
        if key in seen:
            raise ConfigError(f"duplicate key {key!r}")
        seen[key] = value
    return seen


def load_config(path: str | os.PathLike | None, section: str) -> dict:
    """Parse and validate the config document for one subcommand.

    Returns the fully-populated configuration: top-level reproducibility keys
    plus the requested section with every default applied.  Any key outside
    the schema is fatal.
    """
    if section not in _SECTION_SCHEMAS:
        raise ConfigError(f"unknown section {section!r}")
    if path is None:
        raw: dict = {}
    else:
        p = Path(path)
        if not p.is_file():
            raise ConfigError(f"config file not found: {p}")
        try:
            raw = json.loads(p.read_text(), object_pairs_hook=_no_duplicates)
        except json.JSONDecodeError as err:
            raise ConfigError(
                f"config parse error in {p} at line {err.lineno}, column {err.colno}: {err.msg}"
            ) from err
        if not isinstance(raw, dict):
            raise ConfigError("config document must be a JSON object")

    top_raw = {}
    sections_raw = {}
    for key, value in raw.items():
        if key in _TOP_SCHEMA:
            top_raw[key] = value
        elif key in _SECTION_SCHEMAS:
            if not isinstance(value, dict):
                raise ConfigError(f"section {key!r} must be an object")
            sections_raw[key] = value
        else:
            raise ConfigError(f"unknown key {key!r}")

    cfg = _validate_mapping("", top_raw, _TOP_SCHEMA)
    cfg[section] = _validate_mapping(f"{section}.", sections_raw.get(section, {}),
                                     _SECTION_SCHEMAS[section])
    return cfg


def _grid_from(sec: dict) -> TimeGrid:
    try:
        return make_grid(sec["t_start"], sec["t_end"], sec["n_points"])
    except ValueError as err:
        raise ConfigError(f"invalid grid: {err}") from err


# ---------------------------------------------------------------------------
# bit-stable output helpers

def _atomic_write(path: Path, chunks) -> None:
    """Write an iterable of text chunks to a temp file, then rename it over path.

    The chunks are consumed one at a time, so a table is never held as text;
    a failure while writing removes the temp file and leaves path untouched.
    """
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    try:
        with open(tmp, "w", encoding="utf-8") as f:
            f.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_table(path: Path, first_line: str, values, sep: str = ",") -> None:
    """first_line, then one line per row of a float matrix, each value as repr(float).

    Rows are converted to Python floats and text one at a time: neither a
    boxed copy of the table nor its text adds to the peak memory of the run.
    """
    def lines():
        yield first_line + "\n"
        for row in np.asarray(values, dtype=float):
            yield sep.join(map(repr, row.tolist())) + "\n"
    _atomic_write(path, lines())


def _write_json(path: Path, obj) -> None:
    _atomic_write(path, [json.dumps(obj, indent=2) + "\n"])


# ---------------------------------------------------------------------------
# subcommand implementations (each returns a list of files written)

def _squeeze_mode_params(sec: dict) -> SqueezeParams:
    return SqueezeParams(mass=sec["mass"], omega=sec["omega"], phi=sec["phi"],
                         hbar=sec["hbar"])


def _cmd_squeeze(cfg: dict, out: Path) -> list[str]:
    sec = cfg["squeeze"]
    grid = _grid_from(sec)
    params = _squeeze_mode_params(sec)
    times = grid.times()
    try:
        columns = [(particle_number(params, t), *quadrature_variances(params, t))
                   for t in times.tolist()]
    except OverflowError:
        columns = [math.inf]
    if not np.isfinite(columns).all():
        raise NumericalError(f"squeeze.omega * squeeze.t_end = {sec['omega'] * grid.t_end:g}"
                             f": sinh(omega t)^2 overflows float64")
    _write_table(out / "squeeze.csv", "t,particle_number,var_squeezed,var_antisqueezed",
                 np.column_stack([times, columns]))
    return ["squeeze.csv"]


#: n x n float64 arrays alive at the peak of building one dense kernel, or of
#: its eigendecomposition in sample_colored: inputs, the kernel, check
#: temporaries, eigenvectors and LAPACK workspace (ru_maxrss at n = 1500:
#: 3.7 to 5.1 for the four kernel kinds, 5.2 for both kinds of colored noise)
_DENSE_PEAK_MATRICES = 6


def _require_dense(grid: TimeGrid, what: str, extra_values: int = 0) -> None:
    """Check _DENSE_PEAK_MATRICES n x n float64 arrays plus extra_values floats against memory."""
    n = grid.n_points
    require_memory((_DENSE_PEAK_MATRICES * n * n + extra_values) * 8, what)


def _build_kernel(sec: dict, grid: TimeGrid) -> KernelMatrix:
    params = _squeeze_mode_params(sec)
    kind = sec["kind"]
    if kind == "retarded":
        return build_retarded(params, grid)
    if kind == "hadamard":
        return build_hadamard(params, grid)
    if kind == "fluctuation":
        return fluctuation_kernel(sec["coupling"], build_hadamard(params, grid))
    return memory_kernel(sec["coupling"], build_retarded(params, grid),
                         build_hadamard(params, grid))


def _cmd_kernels(cfg: dict, out: Path) -> list[str]:
    sec = cfg["kernels"]
    grid = _grid_from(sec)
    n = grid.n_points
    _require_dense(grid, f"{sec['kind']} kernel ({n}, {n}) and its temporaries")
    kernel = _build_kernel(sec, grid)
    # header row: n and dt, then n rows of n values
    _write_table(out / "kernel.txt", f"{kernel.n} {grid.dt!r}", kernel.values, sep=" ")
    return ["kernel.txt"]


def _cmd_noise(cfg: dict, out: Path) -> list[str]:
    sec = cfg["noise"]
    grid = _grid_from(sec)
    m = cfg["n_realizations"]
    seed = cfg["master_seed"]
    n = grid.n_points
    # the summary's var(axis=0) holds the deviations next to the noise: 2 (M, n) arrays
    if sec["kind"] == "white":
        require_memory(2 * m * n * 8, f"noise ({m}, {n}) and its deviations")
        ens = sample_white(sec["sigma2"], grid, seed, m)
    else:
        _require_dense(grid, f"{sec['kind']} kernel ({n}, {n}), its eigendecomposition, "
                             f"noise ({m}, {n}) and its deviations", 2 * m * n)
        ens = sample_colored(_build_kernel(sec, grid), seed, m, sec["clip_tol"])
    _write_table(out / "noise.csv", ",".join(f"xi_{i}" for i in range(grid.n_points)),
                 ens.realizations)
    summary = {
        "n_realizations": m,
        "n_points": grid.n_points,
        "dt": grid.dt,
        "seed": seed,
        "covariance_ref": ens.covariance_ref,
        "max_abs_mean": float(np.max(np.abs(ens.realizations.mean(axis=0)))),
        "mean_sample_variance": float(ens.realizations.var(axis=0).mean()),
    }
    _write_json(out / "summary.json", summary)
    return ["noise.csv", "summary.json"]


def _langevin_potential(sec: dict) -> PotentialSpec:
    kind = sec["potential"]
    if kind == "quadratic":
        return PotentialSpec.quadratic(sec["omega0"])
    if kind == "inverted":
        return PotentialSpec.inverted(sec["omega"])
    if sec["m2"] >= 0:
        raise ConfigError("langevin.m2 must be negative for the double_well potential")
    return PotentialSpec.double_well(sec["m2"], sec["lambda"])


def _cmd_langevin(cfg: dict, out: Path) -> list[str]:
    sec = cfg["langevin"]
    grid = _grid_from(sec)
    pot = _langevin_potential(sec)
    m = cfg["n_realizations"]
    # the noise is stepped in place into the paths: one (M, n) array at the peak
    require_memory(m * grid.n_points * 8, f"noise, then paths ({m}, {grid.n_points})")
    paths = draw_white(sec["sigma2"], grid, cfg["master_seed"], m)
    _, _, v_first = step_semi_implicit(paths[:, None, :], pot.vprime, sec["gamma"],
                                       grid, sec["x0"], sec["v0"])
    stats = aggregate_paths(grid, paths)
    _write_table(out / "ensemble.csv", "t,mean,variance",
                 np.column_stack([grid.times(), stats.mean, stats.variance]))
    _write_table(out / "trajectory0.csv", "t,x,xdot",
                 np.column_stack([grid.times(), paths[0], v_first[0]]))
    tail = slice((grid.n_points * 3) // 4, None)
    summary = {
        "potential": sec["potential"],
        "gamma": sec["gamma"],
        "sigma2": sec["sigma2"],
        "tail_mean_x_sq": float(np.mean(stats.variance[tail] + stats.mean[tail] ** 2)),
    }
    _write_json(out / "summary.json", summary)
    return ["ensemble.csv", "trajectory0.csv", "summary.json"]


def _scenario_config(cls, cfg: dict, section: str):
    sec = cfg[section]
    grid = _grid_from(sec)
    try:
        return cls(m2=sec["m2"], lam=sec["lambda"], grid=grid,
                   n_realizations=cfg["n_realizations"],
                   master_seed=cfg["master_seed"],
                   noise_kernel=sec["noise_kernel"], coupling=sec["coupling"],
                   noise_amplitude=sec["noise_amplitude"],
                   friction=sec["friction"], gate=sec["gate"],
                   gate_threshold=sec["gate_threshold"],
                   mass=sec["mass"], hbar=sec["hbar"],
                   return_radius=sec["return_radius"])
    except ValueError as err:
        raise ConfigError(f"{section}: {err}") from err


def _cmd_ssb(cfg: dict, out: Path) -> list[str]:
    report = run_ssb(_scenario_config(SSBConfig, cfg, "ssb"))
    _write_json(out / "report.json", report.to_dict())
    grid = report.config.grid
    _write_table(out / "mean_trajectory.csv", "t,mean,variance",
                 np.column_stack([grid.times(), report.stats.mean, report.stats.variance]))
    _write_table(out / "finals.csv", "x_final",
                 np.column_stack([report.stats.per_run_finals]))
    return ["report.json", "mean_trajectory.csv", "finals.csv"]


def _cmd_bec(cfg: dict, out: Path) -> list[str]:
    report = run_bec(_scenario_config(BECConfig, cfg, "bec"))
    _write_json(out / "report.json", report.to_dict())
    _write_table(out / "finals.csv", "modulus,phase",
                 np.column_stack([report.final_modulus, report.final_phase]))
    return ["report.json", "finals.csv"]


def _cmd_inflation(cfg: dict, out: Path) -> list[str]:
    sec = cfg["inflation"]
    grid = _grid_from(sec)
    n_modes = sec["n_modes"]
    try:
        ks = [sec["k_min"] * 10.0 ** (sec["decades"] * j / (n_modes - 1))
              for j in range(n_modes)]
        cubes = [k**3 for k in ks]
    except OverflowError:
        cubes = [math.inf]
    if not all(0.0 < c < math.inf for c in cubes):  # the amplitude is H^2 / k^3
        raise ConfigError(f"inflation.k_min {sec['k_min']:g} over inflation.decades "
                          f"{sec['decades']:g} puts k^3 beyond float64")
    modes = [DeSitterParams(hubble=sec["hubble"], k=k, coupling=sec["lambda"],
                            background=sec["phi0"]) for k in ks]
    est = run_inflation(modes, grid, cfg["n_realizations"], cfg["master_seed"],
                        sec["tail_fraction"])
    _write_table(out / "spectrum.csv", "k,variance", np.column_stack([est.k, est.variances]))
    report = {
        "scenario": "inflation",
        "master_seed": cfg["master_seed"],
        "n_realizations": cfg["n_realizations"],
        "n_modes": n_modes,
        "decades": sec["decades"],
        "slope": est.slope,
        "slope_stderr": est.slope_stderr,
        "intercept": est.intercept,
    }
    _write_json(out / "report.json", report)
    return ["spectrum.csv", "report.json"]


def _verify_checks(cfg: dict) -> list[dict]:
    # the HS noise (M, 8) peaks next to its normals (M, <= 8) and seeds (M)
    # while it is drawn, or its phases (5 values a row) after: <= 17 values a row
    m_hs = cfg["verify"]["hs_realizations"]
    require_memory(17 * m_hs * 8, f"Hubbard-Stratonovich noise ({m_hs}, 8) and its normals")
    checks = []

    # Bogolubov normalization over a (wt, phi) grid
    worst = 0.0
    for wt in np.linspace(0.0, 3.0, 10):
        for phi in np.linspace(-math.pi, math.pi, 10):
            params = SqueezeParams(omega=1.0, phi=float(phi))
            worst = max(worst, abs(
                bogolubov_coefficients(params, float(wt)).normalization_defect))
    checks.append({"name": "bogolubov_normalization", "value": worst,
                   "bound": 1e-12, "passed": bool(worst < 1e-12)})

    # Keldysh rotation zero block, stable and inverted oscillators
    grid = make_grid(0.0, 1.0, 16)
    stable = build_contour_matrix(lambda t, tp: 0.5 * np.exp(-1j * (t - tp)), grid)
    params = SqueezeParams()
    inverted = build_contour_matrix(mode_two_point(params), grid)
    worst_res = 0.0
    worst_transpose = 0.0
    worst_cross = 0.0
    for cm in (stable, inverted):
        g_r, g_a, g_c, residual = keldysh_rotate(cm)
        worst_res = max(worst_res, residual)
        worst_transpose = max(worst_transpose,
                              float(np.max(np.abs(g_a.values - g_r.values.T))))
    g_r, _g_a, g_c, _ = keldysh_rotate(inverted)
    worst_cross = max(
        float(np.max(np.abs(g_r.values - build_retarded(params, grid).values))),
        float(np.max(np.abs(g_c.values - build_hadamard(params, grid).values))))
    checks.append({"name": "keldysh_zero_block", "value": worst_res,
                   "bound": 1e-12, "passed": bool(worst_res < 1e-12)})
    checks.append({"name": "keldysh_advanced_transpose", "value": worst_transpose,
                   "bound": 0.0, "passed": bool(worst_transpose == 0.0)})
    checks.append({"name": "keldysh_kernel_cross_check", "value": worst_cross,
                   "bound": 1e-10, "passed": bool(worst_cross < 1e-10)})

    # Hubbard-Stratonovich moment identity on the hadamard kernel
    grid_hs = make_grid(0.0, 1.0, 8)
    kernel = build_hadamard(SqueezeParams(), grid_hs)
    v = np.linspace(0.2, -0.3, 8)
    v *= 1.0 / math.sqrt(float(v @ kernel.values @ v))
    mc, analytic = hs_moment_check(kernel, v, m_hs,
                                   derive_seed(cfg["master_seed"], 97))
    err = abs(mc - analytic)
    bound = 5.0 / math.sqrt(m_hs)
    checks.append({"name": "hs_moment_identity", "value": err,
                   "bound": bound, "passed": bool(err < bound)})
    return checks


def _cmd_verify(cfg: dict, out: Path) -> list[str]:
    checks = _verify_checks(cfg)
    for check in checks:
        status = "PASS" if check["passed"] else "FAIL"
        print(f"{status} {check['name']}: value {check['value']:.3e}, "
              f"bound {check['bound']:.3e}")
    _write_json(out / "verify.json", {"checks": checks,
                                      "passed": all(c["passed"] for c in checks)})
    return ["verify.json"]


_COMMANDS = {
    "squeeze": _cmd_squeeze,
    "kernels": _cmd_kernels,
    "noise": _cmd_noise,
    "langevin": _cmd_langevin,
    "ssb": _cmd_ssb,
    "bec": _cmd_bec,
    "inflation": _cmd_inflation,
    "verify": _cmd_verify,
}


# ---------------------------------------------------------------------------
# argument parsing and dispatch

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage on stderr, exit code 1
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ctpsim",
                     description="quantum-to-classical transient simulations")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name, help=f"run the {name} pipeline")
        p.add_argument("--config", default=None, help="path to the JSON config")
        p.add_argument("--out", default="ctpsim_out", help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override master_seed")
        p.add_argument("--realizations", type=int, default=None,
                       help="override n_realizations")
    return parser


def _dispatch(args: argparse.Namespace) -> int:
    name = args.subcommand
    if args.config is None and name != "verify":
        raise ConfigError(f"subcommand {name!r} requires --config <path>")
    cfg = load_config(args.config, name)
    if args.seed is not None:
        if not 0 <= args.seed < 2**64:
            raise ConfigError("--seed must fit in an unsigned 64-bit integer")
        cfg["master_seed"] = args.seed
    if args.realizations is not None:
        if args.realizations < 1:
            raise ConfigError("--realizations must be >= 1")
        cfg["n_realizations"] = args.realizations

    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"cannot create output directory {out}: {err}") from err

    started = time.perf_counter()
    outputs = _COMMANDS[name](cfg, out)
    failed_verify = False
    if name == "verify":
        report = json.loads((out / "verify.json").read_text())
        failed_verify = not report["passed"]
    manifest = {
        "command": name,
        "artifact_version": __version__,
        "master_seed": cfg["master_seed"],
        "n_realizations": cfg["n_realizations"],
        "config": {name: cfg[name]},
        "outputs": outputs,
        "wall_time_s": time.perf_counter() - started,
    }
    _write_json(out / "manifest.json", manifest)
    return 3 if failed_verify else 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        # float64 overflow, invalid or divide-by-zero that no step checks raises
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return _dispatch(args)
    except (NumericalError, np.linalg.LinAlgError) as err:
        # LinAlgError subclasses ValueError but is a numerical failure
        print(f"numerical failure: {err}", file=sys.stderr)
        return 2
    except ArithmeticError as err:  # OverflowError, ZeroDivisionError, FloatingPointError
        print(f"numerical failure: {args.subcommand}: float64 arithmetic failed: {err}",
              file=sys.stderr)
        return 2
    except ValueError as err:  # ConfigError and the library's parameter checks
        print(f"config error: {err}", file=sys.stderr)
        return 1
    except MemoryError as err:  # numpy names the bytes it could not allocate
        print(f"config error: run too large for memory: {err}", file=sys.stderr)
        return 1


def entry() -> None:  # console-script hook
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    entry()
