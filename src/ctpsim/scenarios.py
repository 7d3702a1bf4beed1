"""End-to-end transient experiments: symmetry breaking, condensation, inflation.

Each scenario starts an ensemble at the symmetric point x = 0, drives it with
colored noise sampled from a squeezed-mode kernel, and reports what the
ensemble selects.  The noise is multiplied by a per-realization gate that
latches to zero once a run leaves the unstable region |x|^2 > -2 m2 / lambda,
after which friction relaxes it into a potential minimum; the ensemble stays
symmetric while every single run breaks the symmetry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Sequence

import numpy as np

from .core import (DivergenceError, NumericalError, TimeGrid, derive_seed,
                   require_memory)
from .kernels import (DeSitterParams, KernelMatrix, build_hadamard,
                      desitter_hadamard, fluctuation_kernel, squeezed_factor)
from .langevin import (_AGGREGATE_BLOCK_VALUES, EnsembleStats, SpectrumEstimate,
                       aggregate_paths, estimate_spectrum, relaxation_rate,
                       step_exponential, step_semi_implicit)
from .noise import draw_from_factor, draw_white
from .noise import sample_colored  # noqa: F401  (perfbench traces it through this module)
from .squeeze import SqueezeParams

#: scaled Kuiper-statistic critical value at the 1 percent level
KUIPER_CRIT_1PCT = 2.001

_NOISE_KERNELS = ("hadamard", "fluctuation")


def _finite_median(values: np.ndarray) -> float | None:
    finite = values[np.isfinite(values)]
    return float(np.median(finite)) if finite.size else None


@dataclass(frozen=True)
class SSBConfig:
    """Double-well order-parameter run: V = m2 x^2 / 2 + lam x^4 / 4!, m2 < 0.

    The instability rate of the noise kernel is sqrt(-m2); noise_amplitude and
    friction are artifact parameters (no normalization is prescribed for
    them), so the assertions downstream are amplitude-independent facts.
    """

    m2: float
    lam: float
    grid: TimeGrid
    n_realizations: int
    master_seed: int
    noise_kernel: str = "hadamard"
    coupling: float = 0.5
    noise_amplitude: float = 0.3
    friction: float = 1.0
    gate: bool = True
    gate_threshold: float | None = None  # |x|^2 latch level; None -> -2 m2 / lam
    mass: float = 1.0
    hbar: float = 1.0
    return_radius: float = 0.1
    min_realizations: ClassVar[int] = 1

    def __post_init__(self):
        if self.m2 >= 0:
            raise ValueError("m2 must be negative (tachyonic curvature)")
        if self.lam <= 0:
            raise ValueError("lambda must be positive")
        if self.noise_kernel not in _NOISE_KERNELS:
            raise ValueError(f"noise_kernel must be one of {_NOISE_KERNELS}")
        if self.n_realizations < self.min_realizations:
            raise ValueError(f"n_realizations must be >= {self.min_realizations}")
        if self.noise_amplitude < 0:
            raise ValueError("noise_amplitude must be >= 0")
        if self.friction < 0:
            raise ValueError("friction must be >= 0")
        if self.gate_threshold is not None and self.gate_threshold <= 0:
            raise ValueError("gate_threshold must be positive")

    @property
    def gate_threshold_sq(self) -> float:
        """Unstable-region exit |x|^2 = -2 m2 / lambda (distinct from the minimum)."""
        if self.gate_threshold is not None:
            return self.gate_threshold
        return -2.0 * self.m2 / self.lam

    @property
    def minimum_radius(self) -> float:
        """Potential minimum |x| = sqrt(-6 m2 / lambda)."""
        return math.sqrt(-6.0 * self.m2 / self.lam)

    @property
    def leave_radius(self) -> float:
        return 0.5 * self.minimum_radius


@dataclass(frozen=True)
class BECConfig(SSBConfig):
    """Same run with a two-component (complex) order parameter.

    The potential is read through the modulus, V = m2 |phi|^2 / 2 +
    lam |phi|^4 / 4!, preserving the U(1) phase symmetry; the noise is
    isotropic over the two components.
    """

    min_realizations: ClassVar[int] = 2  # the phase test compares >= 2 angles


def _config_echo(cfg: SSBConfig) -> dict:
    """The run parameters every ssb/bec report starts with, in report order."""
    return {
        "master_seed": cfg.master_seed,
        "n_realizations": cfg.n_realizations,
        "m2": cfg.m2,
        "lambda": cfg.lam,
        "noise_kernel": cfg.noise_kernel,
        "coupling": cfg.coupling,
        "noise_amplitude": cfg.noise_amplitude,
        "friction": cfg.friction,
        "gate": cfg.gate,
        "gate_threshold": cfg.gate_threshold_sq,
        "grid": {"t_start": cfg.grid.t_start, "t_end": cfg.grid.t_end,
                 "n_points": cfg.grid.n_points},
    }


@dataclass(frozen=True)
class SSBReport:
    config: SSBConfig
    stats: EnsembleStats
    fraction_plus: float
    fraction_minus: float
    fraction_unsettled: float
    mean_abs_final: float
    recursion: float
    gate_close_times: np.ndarray
    mean_max_z: float

    def to_dict(self) -> dict:
        cfg = self.config
        return {
            "scenario": "ssb",
            **_config_echo(cfg),
            "target_abs_final": cfg.minimum_radius,
            "fraction_plus": self.fraction_plus,
            "fraction_minus": self.fraction_minus,
            "fraction_unsettled": self.fraction_unsettled,
            "mean_abs_final": self.mean_abs_final,
            "recursion_probability": self.recursion,
            "recursion_leave_radius": self.config.leave_radius,
            "recursion_return_radius": self.config.return_radius,
            "ensemble_mean_max_z": self.mean_max_z,
            "gate_close_time_median": _finite_median(self.gate_close_times),
            "verdicts": self.verdicts(),
        }

    def verdicts(self) -> dict:
        """Pass/fail statements of what a healthy symmetry-breaking run shows."""
        cfg = self.config
        target = cfg.minimum_radius
        settled = self.fraction_plus + self.fraction_minus
        three_sigma = 3.0 * math.sqrt(0.25 / cfg.n_realizations)
        return {
            "ensemble_mean_symmetric": bool(self.mean_max_z < 5.0),
            "basins_balanced": bool(settled > 0
                                    and abs(self.fraction_plus / settled - 0.5)
                                    <= three_sigma),
            "settled_at_minimum": bool(self.fraction_unsettled == 0.0
                                       and abs(self.mean_abs_final - target)
                                       / target < 0.05),
            "recursion_rare": bool(self.recursion < 0.05),
        }


@dataclass(frozen=True)
class BECReport:
    config: BECConfig
    final_modulus: np.ndarray
    final_phase: np.ndarray
    mean_modulus: float
    kuiper_v: float
    kuiper_scaled: float
    odlro_fraction: float
    gate_close_times: np.ndarray

    def to_dict(self) -> dict:
        cfg = self.config
        return {
            "scenario": "bec",
            **_config_echo(cfg),
            "target_modulus": cfg.minimum_radius,
            "mean_modulus": self.mean_modulus,
            "kuiper_v": self.kuiper_v,
            "kuiper_scaled": self.kuiper_scaled,
            "kuiper_crit_1pct": KUIPER_CRIT_1PCT,
            "odlro_fraction": self.odlro_fraction,
            "gate_close_time_median": _finite_median(self.gate_close_times),
            "verdicts": self.verdicts(),
        }

    def verdicts(self) -> dict:
        """Pass/fail statements of what a healthy condensation run shows."""
        target = self.config.minimum_radius
        return {
            "phase_uniform_1pct": bool(self.kuiper_scaled < KUIPER_CRIT_1PCT),
            "modulus_at_minimum": bool(abs(self.mean_modulus - target)
                                       / target < 0.05),
            "odlro_band": bool(self.odlro_fraction >= 0.9),
        }


def _squeeze_params(cfg: SSBConfig) -> SqueezeParams:
    return SqueezeParams(mass=cfg.mass, omega=math.sqrt(-cfg.m2), hbar=cfg.hbar)


def scenario_noise_kernel(cfg: SSBConfig) -> KernelMatrix:
    """Dense noise covariance of a scenario: free hadamard kernel or the composed one.

    The scenarios sample from its exact factor instead; this n x n matrix is
    the reference that factor is checked against.
    """
    g_c = build_hadamard(_squeeze_params(cfg), cfg.grid)
    if cfg.noise_kernel == "hadamard":
        return g_c
    return fluctuation_kernel(cfg.coupling, g_c)


def _sample_scenario_noise(cfg: SSBConfig, n_components: int) -> np.ndarray:
    """(M, d, n) noise array; component c of run i uses ensemble row i*d + c."""
    m = cfg.n_realizations
    coupling = cfg.coupling if cfg.noise_kernel == "fluctuation" else None
    factor = squeezed_factor(_squeeze_params(cfg), cfg.grid, coupling)
    rows = draw_from_factor(factor, cfg.master_seed, m * n_components)
    rows *= cfg.noise_amplitude
    return rows.reshape(m, n_components, cfg.grid.n_points)


def _integrate_gated(cfg: SSBConfig, noise: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Step all realizations at once from x = 0; returns (paths (M,d,n), close steps (M,)).

    The gate starts at 1, multiplies the noise, and latches to 0 the first
    time |x|^2 crosses the threshold; it never reopens.  A realization's
    close step is the grid index at which its gate first reads 0, or -1 if
    it never closes (always, without a gate).  The radial force is
    -(m2 + lam |x|^2 / 6) x_a, identical to the scalar double well at d = 1.
    """
    c1 = cfg.m2
    c3 = cfg.lam / 6.0

    def vprime(x):
        return (c1 + c3 * np.einsum("md,md->m", x, x))[:, None] * x

    try:
        paths, close, _ = step_semi_implicit(
            noise, vprime, cfg.friction, cfg.grid,
            gate_threshold=cfg.gate_threshold_sq if cfg.gate else None)
    except DivergenceError as err:
        raise DivergenceError(
            f"{err} (dt = {cfg.grid.dt:g} too coarse for the curvature "
            f"|m2| = {abs(c1):g})", step=err.step, realization=err.realization) from err
    return paths, close


def _simulate(cfg: SSBConfig, n_components: int) -> tuple[np.ndarray, np.ndarray]:
    """Sample the noise and step it in place; returns (paths (M, d, n), gate close times (M,)).

    The noise array becomes the path array, and no diagnostic allocates an
    array of its size, so the (M, d, n) float64 array is the run's peak; it
    is checked against physical memory first.
    """
    m, n = cfg.n_realizations, cfg.grid.n_points
    require_memory(m * n_components * n * 8,
                   f"noise, then paths ({m}, {n_components}, {n})")
    paths, close = _integrate_gated(cfg, _sample_scenario_noise(cfg, n_components))
    # t_start + step dt per realization, inf where the gate never closed
    first = close.astype(float) * cfg.grid.dt + cfg.grid.t_start
    return paths, np.where(close >= 0, first, np.inf)


def run_ssb(cfg: SSBConfig) -> SSBReport:
    """Spontaneous symmetry breaking of a scalar order parameter from x = 0.

    Every run starts exactly at the symmetric unstable point; the colored
    noise selects a basin, the gate shuts the noise off outside the unstable
    region, and friction settles the run into a minimum.  Reported: basin
    fractions, mean settled amplitude, recursion probability, and how
    consistent the ensemble mean is with zero.
    """
    paths3, close_times = _simulate(cfg, 1)
    paths = paths3[:, 0, :]
    stats = aggregate_paths(cfg.grid, paths)
    finals = stats.per_run_finals
    settled = np.abs(finals) > cfg.leave_radius
    m = cfg.n_realizations
    frac_plus = float(np.count_nonzero(settled & (finals > 0)) / m)
    frac_minus = float(np.count_nonzero(settled & (finals < 0)) / m)
    frac_unsettled = float(np.count_nonzero(~settled) / m)
    mean_abs = float(np.abs(finals[settled]).mean()) if settled.any() else 0.0
    rec = recursion_probability(paths, cfg.leave_radius, cfg.return_radius)
    se = np.sqrt(stats.variance / m)
    with np.errstate(invalid="ignore", divide="ignore"):
        z = np.abs(stats.mean) / np.where(se > 0, se, np.inf)
    mean_max_z = float(np.max(z[1:])) if m > 1 else 0.0
    return SSBReport(config=cfg, stats=stats, fraction_plus=frac_plus,
                     fraction_minus=frac_minus, fraction_unsettled=frac_unsettled,
                     mean_abs_final=mean_abs, recursion=rec,
                     gate_close_times=close_times,
                     mean_max_z=mean_max_z)


def kuiper_statistic(angles: np.ndarray) -> tuple[float, float]:
    """Kuiper V against the uniform distribution on [0, 2 pi).

    Returns (V, V * (sqrt(M) + 0.155 + 0.24/sqrt(M))); the scaled form is
    compared against the standard critical points (2.001 at the 1% level).
    Invariant under rotations of the circle, which is the right property for
    phases.
    """
    angles = np.asarray(angles, dtype=float)
    m = angles.size
    if m < 2:
        raise ValueError("need at least 2 angles")
    u = np.sort(np.mod(angles, 2.0 * np.pi) / (2.0 * np.pi))
    i = np.arange(1, m + 1)
    d_plus = float(np.max(i / m - u))
    d_minus = float(np.max(u - (i - 1) / m))
    v = d_plus + d_minus
    scaled = v * (math.sqrt(m) + 0.155 + 0.24 / math.sqrt(m))
    return v, scaled


def run_bec(cfg: BECConfig) -> BECReport:
    """Condensate onset: two-component order parameter from phi = 0.

    Isotropic colored noise over (Re phi, Im phi) with the same gate latch;
    after settling, the moduli sit on the ring of minima while the phases are
    uniform over the circle, which is the off-diagonal long-range order proxy
    emerging with no preferred phase.
    """
    paths3, close_times = _simulate(cfg, 2)
    final_vec = paths3[:, :, -1]
    final_modulus = np.sqrt(np.einsum("md,md->m", final_vec, final_vec))
    final_phase = np.arctan2(final_vec[:, 1], final_vec[:, 0])
    kuiper_v, kuiper_scaled = kuiper_statistic(final_phase)
    ratio = final_modulus**2 / cfg.minimum_radius**2
    odlro = float(np.count_nonzero((ratio >= 0.9) & (ratio <= 1.1)) / cfg.n_realizations)
    return BECReport(config=cfg, final_modulus=final_modulus,
                     final_phase=final_phase,
                     mean_modulus=float(final_modulus.mean()),
                     kuiper_v=kuiper_v, kuiper_scaled=kuiper_scaled,
                     odlro_fraction=odlro,
                     gate_close_times=close_times)


def recursion_probability(paths: np.ndarray, leave_radius: float,
                          return_radius: float) -> float:
    """Fraction of runs that re-enter |x| < return_radius after leaving |x| > leave_radius.

    A desk-scale irreversibility proxy: settled symmetry-broken ensembles
    should almost never find their way back to the symmetric point.  Runs
    that never leave contribute zero by convention.  The (M, n) paths are
    read in row blocks of about _AGGREGATE_BLOCK_VALUES values.
    """
    if not leave_radius > return_radius > 0:
        raise ValueError("need leave_radius > return_radius > 0")
    m, n = paths.shape
    rows = max(1, _AGGREGATE_BLOCK_VALUES // n)
    recursed = 0
    for start in range(0, m, rows):
        a = np.abs(paths[start:start + rows])
        has_left = np.logical_or.accumulate(a > leave_radius, axis=1)
        recursed += np.count_nonzero((has_left & (a < return_radius)).any(axis=1))
    return recursed / m


def run_inflation(modes: Sequence[DeSitterParams], grid: TimeGrid,
                  n_realizations: int, master_seed: int,
                  tail_fraction: float = 0.5) -> SpectrumEstimate:
    """Per-mode overdamped relaxation driven by the superhorizon kernel amplitude.

    For each wavenumber the noise amplitude is sqrt(H^2/k^3) (the kernel's
    superhorizon limit); M overdamped trajectories per mode give a stationary
    variance estimated over the trailing tail_fraction of the grid, and the
    fitted log-log slope recovers the k^-3 spectrum.
    """
    modes = list(modes)
    if len(modes) < 8:
        raise ValueError("insufficient k span: need >= 8 modes")
    ks = np.array([dp.k for dp in modes], dtype=float)
    if np.unique(ks).size != ks.size:
        raise ValueError("mode wavenumbers must be distinct")
    if ks.max() / ks.min() < 10.0:
        raise ValueError("insufficient k span: need >= 1 decade in k")
    shared = {(dp.hubble, dp.coupling, dp.background) for dp in modes}
    if len(shared) != 1:
        raise ValueError("modes must share (H, lambda, phi0)")
    if not 0 < tail_fraction < 1:
        raise ValueError("tail_fraction must be in (0, 1)")

    rate = relaxation_rate(modes[0])
    if rate <= 0:
        raise ValueError("non-positive relaxation rate: lambda phi0^2 must be > 0")
    n = grid.n_points
    tail_start = int(math.floor((1.0 - tail_fraction) * (n - 1))) + 1
    t_settle = (tail_start - 1) * grid.dt
    if rate * t_settle < 5.0:
        raise NumericalError(
            f"non-stationary tail: only {rate * t_settle:.2f} relaxation times "
            f"elapse before the tail window; extend the grid or raise the rate")
    if tail_start >= n:
        raise ValueError(f"tail_fraction {tail_fraction:g} leaves no grid point "
                         f"in the tail of {n}")

    # each mode's drive is scaled and stepped in place into its paths
    require_memory(n_realizations * n * 8,
                   f"one mode's drive, then paths ({n_realizations}, {n})")
    q = np.exp(-rate * grid.dt)
    pairs = []
    for mode_idx, dp in enumerate(sorted(modes, key=lambda d: d.k)):
        amp = math.sqrt(desitter_hadamard(dp, 0.0, 0.0))
        phi = draw_white(1.0, grid, derive_seed(master_seed, mode_idx), n_realizations)
        phi *= amp
        step_exponential(phi, q)
        acc = 0.0
        for row in phi:
            acc += float(np.mean(row[tail_start:] ** 2))
        pairs.append((dp.k, acc / n_realizations))
        del phi, row  # freed (row is a view of phi) before the next mode draws
    return estimate_spectrum(pairs)
