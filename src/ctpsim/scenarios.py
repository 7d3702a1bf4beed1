"""End-to-end transient experiments: symmetry breaking, condensation, inflation.

Each scenario starts an ensemble at the symmetric point x = 0, drives it with
colored noise sampled from a squeezed-mode kernel, and reports what the
ensemble selects.  The noise is multiplied by a per-realization gate that
latches to zero once a run leaves the unstable region |x|^2 > -2 m2 / lambda,
after which friction relaxes it into a potential minimum; the ensemble stays
symmetric while every single run breaks the symmetry.  Inflation drives each
de Sitter mode with noise sampled from its own mode kernel and fits the
spectrum of the frozen modes.

The ssb and bec ensembles are streamed through blocks of grid columns
(:func:`ctpsim.langevin.stream_blocks`): what a report needs (pointwise
statistics, the recursion count, final values, the gate close steps) is
reduced block by block, so a run holds block buffers and its result columns,
never an (M, d, n) array.  Inflation's modes are linear in their rank-2 noise,
so each is reduced through its two stepped factor columns and holds no path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Sequence

import numpy as np

from .core import (ConfigError, DivergenceError, NumericalError, TimeGrid, derive_seed,
                   require_memory)
from .kernels import (DeSitterParams, KernelMatrix, build_hadamard, desitter_factor,
                      fluctuation_kernel, squeezed_factor)
from .langevin import (DIVERGENCE_GUARD, ColumnMoments, EnsembleStats, PotentialSpec,
                       SemiImplicitStepper, SpectrumEstimate, _time_blocks, estimate_spectrum,
                       integrate_overdamped_mode, relaxation_rate, require_pipeline,
                       stream_blocks)
from .noise import _standard_normals, factor_source
from .noise import sample_colored  # noqa: F401  (perfbench traces it through this module)
from .squeeze import SqueezeParams

#: scaled Kuiper-statistic critical value at the 1 percent level
KUIPER_CRIT_1PCT = 2.001

#: the noise kernels, each with the most columns of its squeezed_factor
_NOISE_KERNELS = {"hadamard": 2, "fluctuation": 7}

#: |k eta| every inflation mode must be below where the tail window starts: its
#: noise is then within about (k eta)^2 / 2 of the superhorizon amplitude
HORIZON_EXIT = 0.1


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
        if not self.m2 < 0:
            raise ConfigError("m2 must be negative (tachyonic curvature)", ("m2",))
        if not self.lam > 0:
            raise ConfigError("lambda must be positive", ("lam",))
        if self.noise_kernel not in _NOISE_KERNELS:
            raise ConfigError(f"noise_kernel must be one of {tuple(_NOISE_KERNELS)}",
                              ("noise_kernel",))
        if self.n_realizations < self.min_realizations:
            raise ConfigError(f"n_realizations must be >= {self.min_realizations}",
                              ("n_realizations",))
        if not 0 <= self.noise_amplitude < math.inf:
            raise ConfigError("noise_amplitude must be >= 0", ("noise_amplitude",))
        if not 0 <= self.friction < math.inf:
            raise ConfigError("friction must be >= 0", ("friction",))
        if self.gate_threshold is not None and not self.gate_threshold > 0:
            raise ConfigError("gate_threshold must be positive", ("gate_threshold",))
        # the default gate threshold -2 m2 / lambda is a third of it
        if not math.isfinite(-6.0 * self.m2 / self.lam):
            raise ConfigError("the minimum radius sqrt(-6 m2 / lambda) overflows float64",
                              ("m2", "lam"))
        if not self.leave_radius > self.return_radius > 0:
            raise ConfigError(f"return_radius must be positive and below the leave radius "
                              f"sqrt(-6 m2 / lambda) / 2 = {self.leave_radius!r}",
                              ("return_radius", "m2", "lam"))

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


def _scenario_factor(cfg: SSBConfig) -> np.ndarray:
    """The exact factor of the scenario's noise kernel (:func:`scenario_noise_kernel`)."""
    coupling = cfg.coupling if cfg.noise_kernel == "fluctuation" else None
    return squeezed_factor(_squeeze_params(cfg), cfg.grid, coupling)


def _require_run(cfg: SSBConfig, n_components: int, columns: int = 0) -> None:
    """Check a scenario run's peak against physical memory before it allocates.

    Beside the pipeline (:func:`ctpsim.langevin.require_pipeline`) the run
    holds its result columns of n values and, at most, the build of its
    rank-r noise factor: the grid, its w t, r columns and their (n, r)
    stack, which :func:`ctpsim.noise.factor_source` keeps as a transposed
    copy with its normals z (r, M d).  r is the kernel's largest rank.
    What the run forms after its noise is freed, such as ssb's z-scores,
    stays within these bytes.
    """
    m, n = cfg.n_realizations, cfg.grid.n_points
    rank = _NOISE_KERNELS[cfg.noise_kernel]
    held = f"{columns} result columns of {n}, " if columns else ""
    require_pipeline((m, n_components, n), 8 * ((columns + 2 * rank + 2) * n
                                                + rank * m * n_components),
                     f"{held}the rank-{rank} noise factor's build ({2 * rank + 2} columns "
                     f"of {n}) and its normals ({rank}, {m * n_components})")


def _scaled(draw, amplitude: float):
    """fill(rows, start): the noise draw(rows, start) writes, times amplitude."""
    def fill(rows, start):
        draw(rows, start)
        rows *= amplitude
    return fill


def _simulate(cfg: SSBConfig, n_components: int, reduce) -> np.ndarray:
    """Stream the scenario's ensemble from x = 0; returns the gate close times (M,).

    Component c of run i is noise row i*d + c of
    :func:`ctpsim.noise.draw_from_factor` times noise_amplitude.  Each
    time-major block of paths (w, M, d) goes to reduce(paths, cols) (see
    :func:`ctpsim.langevin.stream_blocks`).  The gate starts at 1, multiplies
    the noise, and latches to 0 the first time |x|^2 crosses the threshold;
    a realization's close time is t_start + dt times its close step, inf
    where the gate never closed.  Once every gate has latched the rest of
    the transient is deterministic relaxation: the blocks that start after
    that are neither drawn (unless a step fails) nor read, so a gated run
    draws the noise up to its last close step, and an ungated run draws it
    all.
    """
    m, n = cfg.n_realizations, cfg.grid.n_points
    draw = factor_source(_scenario_factor(cfg), cfg.master_seed, m * n_components)
    stepper = SemiImplicitStepper(
        (m, n_components, n), PotentialSpec.double_well(cfg.m2, cfg.lam), cfg.friction,
        cfg.grid, gate_threshold=cfg.gate_threshold_sq if cfg.gate else None)
    try:
        stream_blocks(_scaled(draw, cfg.noise_amplitude), stepper, reduce)
    except DivergenceError as err:
        raise _with_cause(cfg, err) from err
    close = stepper.close
    first = close.astype(float) * cfg.grid.dt + cfg.grid.t_start
    return np.where(close >= 0, first, np.inf)


def _with_cause(cfg: SSBConfig, err: DivergenceError) -> DivergenceError:
    """err of a scenario run, with its cause and the parameters that cause names."""
    # while its gate is open, the hadamard noise grows as e^(w t) and the
    # fluctuation noise as e^(3 w t) whatever dt is
    rate = (3.0 if cfg.noise_kernel == "fluctuation" else 1.0) * math.sqrt(-cfg.m2)
    grows = f"the noise grows as exp({rate:g} t), unchecked"
    params = ()
    if not cfg.gate:
        cause = f"gate off: {grows}"
    elif cfg.gate_threshold_sq >= DIVERGENCE_GUARD**2:  # no |x|^2 in range latches the gate
        cause = (f"gate open: the gate threshold {cfg.gate_threshold_sq:g} lies beyond the "
                 f"divergence guard's |x|^2 = {DIVERGENCE_GUARD**2:g}, and {grows}")
        # the default threshold is -2 m2 / lambda
        params = ("gate_threshold",) if cfg.gate_threshold is not None else ("m2", "lam")
    else:
        cause = f"dt = {cfg.grid.dt:g} too coarse for the curvature |m2| = {abs(cfg.m2):g}"
    return DivergenceError(f"{err} ({cause})", step=err.step, realization=err.realization,
                           params=params)


def run_ssb(cfg: SSBConfig) -> SSBReport:
    """Spontaneous symmetry breaking of a scalar order parameter from x = 0.

    Every run starts exactly at the symmetric unstable point; the colored
    noise selects a basin, the gate shuts the noise off outside the unstable
    region, and friction settles the run into a minimum.  Reported: basin
    fractions, mean settled amplitude, recursion probability, and how
    consistent the ensemble mean is with zero.  The pointwise statistics,
    the recursion count and the finals are reduced block by block.
    """
    m, n = cfg.n_realizations, cfg.grid.n_points
    _require_run(cfg, 1, columns=2)  # the mean and the variance
    moments = ColumnMoments(m, n)
    recursion = _RecursionCount(m, cfg.leave_radius, cfg.return_radius)

    def reduce(paths, cols):
        x = paths[:, :, 0]
        moments.add(x, cols)
        recursion.add(x)

    close_times = _simulate(cfg, 1, reduce)
    stats = moments.stats()
    finals = stats.per_run_finals
    settled = np.abs(finals) > cfg.leave_radius
    frac_plus = float(np.count_nonzero(settled & (finals > 0)) / m)
    frac_minus = float(np.count_nonzero(settled & (finals < 0)) / m)
    frac_unsettled = float(np.count_nonzero(~settled) / m)
    mean_abs = float(np.abs(finals[settled]).mean()) if settled.any() else 0.0
    rec = recursion.fraction()
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
    emerging with no preferred phase.  Only the final (M, 2) slice is kept.
    """
    _require_run(cfg, 2)
    final_vec = np.empty((cfg.n_realizations, 2))

    def reduce(paths, cols):
        if cols.stop == cfg.grid.n_points:
            final_vec[:] = paths[-1]

    close_times = _simulate(cfg, 2, reduce)
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


class _RecursionCount:
    """Runs that re-enter |x| < return_radius after leaving |x| > leave_radius, counted block by block.

    :meth:`add` takes the next columns of every run time-major, (w, rows),
    and carries each run's "has left" flag into the next block, so any split
    of the columns gives the count of the whole rows.  It compares x with
    +-radius into boolean masks, never forming |x|; NaN fails every
    comparison, as it fails |x| > radius and |x| < radius.  The running
    "has left" over time is a bitwise OR accumulated over the masks' bytes
    (each 0 or 1): logical_or's booleans in about a third of its time.  Once
    every run has left, the "has left" masks are all true, so a block forms
    only the return mask: with ssb's defaults at M 400, n 3001 every run
    has left after 7 of the 24 blocks, and a count took 1.4 ms in place of
    2.7 ms.
    """

    def __init__(self, rows: int, leave_radius: float, return_radius: float):
        self.radii = (leave_radius, return_radius)
        self.has_left = np.zeros(rows, dtype=bool)
        self.recursed = np.zeros(rows, dtype=bool)

    def add(self, paths: np.ndarray) -> None:
        leave_radius, return_radius = self.radii
        if self.has_left.all():
            mask = paths < return_radius
        else:
            mask = paths > leave_radius
            mask |= paths < -leave_radius
            flags = mask.view(np.uint8)
            np.bitwise_or.accumulate(flags, axis=0, out=flags)
            mask |= self.has_left
            self.has_left[:] = mask[-1]
            mask &= paths < return_radius
        mask &= paths > -return_radius
        self.recursed |= mask.any(axis=0)

    def fraction(self) -> float:
        return np.count_nonzero(self.recursed) / self.recursed.size


def recursion_probability(paths: np.ndarray, leave_radius: float,
                          return_radius: float) -> float:
    """Fraction of runs that re-enter |x| < return_radius after leaving |x| > leave_radius.

    A desk-scale irreversibility proxy: settled symmetry-broken ensembles
    should almost never find their way back to the symmetric point.  Runs
    that never leave contribute zero by convention.  The (M, n) paths are
    counted by one :class:`_RecursionCount` over the pipeline's column blocks,
    as :func:`run_ssb` counts them (whose :class:`SSBConfig` checks the radii).
    """
    if not leave_radius > return_radius > 0:
        raise ValueError("need leave_radius > return_radius > 0")
    count = _RecursionCount(paths.shape[0], leave_radius, return_radius)
    for cols in _time_blocks(paths.shape[1], paths.shape[0]):
        count.add(paths[:, cols].T)
    return count.fraction()


def _tail_gram(dp: DeSitterParams, grid: TimeGrid, tail_start: int):
    """(G00, G01, G11): the tail means of P_k P_l, P_k the mode's factor column k stepped from 0.

    A function of its own, so one mode's columns are freed before the next
    mode's are stepped.
    """
    p0, p1 = (integrate_overdamped_mode(dp, 1.0, grid, column, 0.0).x[tail_start:]
              for column in desitter_factor(dp, grid).T)
    width = p0.size
    return (np.add.reduce(p0 * p0) / width, np.add.reduce(p0 * p1) / width,
            np.add.reduce(p1 * p1) / width)


def run_inflation(modes: Sequence[DeSitterParams], grid: TimeGrid,
                  n_realizations: int, master_seed: int,
                  tail_fraction: float = 0.5) -> SpectrumEstimate:
    """Per-mode overdamped relaxation driven by noise drawn from the de Sitter mode kernel.

    Mode j (in increasing k) drives realization i with F z_i: F its exact
    rank-2 factor (:func:`ctpsim.kernels.desitter_factor`), z_i row i of the
    (M, 2) normals of seed derive_seed(master_seed, j).  Once the mode leaves
    the horizon its noise freezes at (H/k^{3/2}) times a per-realization
    normal, and the overdamped paths relax onto it; the variance over the
    trailing tail_fraction of the grid is then H^2/k^3 up to Monte Carlo
    error, and the fitted log-log slope recovers the k^-3 spectrum.  The
    step is linear and starts at 0, so path i is z_i0 P_0 + z_i1 P_1, P_k
    column k stepped by :func:`ctpsim.langevin.integrate_overdamped_mode`,
    and its tail mean square is z_i^T G z_i (:func:`_tail_gram`): no path is
    formed.  Every sum is an elementwise ufunc or np.add.reduce, none a
    product whose summation order depends on the BLAS build.  A grid on
    which the largest k has |k eta| >= HORIZON_EXIT where the tail window
    starts is refused as a NumericalError: its noise has not frozen there.
    """
    modes = list(modes)
    if len(modes) < 8:
        raise ValueError("insufficient k span: need >= 8 modes")
    ks = np.array([dp.k for dp in modes], dtype=float)
    if ks.max() / ks.min() < 10.0:
        raise ConfigError("insufficient k span: need >= 1 decade in k", ("k",))
    if np.unique(ks).size != ks.size:
        raise ConfigError("mode wavenumbers must be distinct", ("k",))
    shared = {(dp.hubble, dp.coupling, dp.background) for dp in modes}
    if len(shared) != 1:
        raise ValueError("modes must share (H, lambda, phi0)")
    if not 0 < tail_fraction < 1:
        raise ValueError("tail_fraction must be in (0, 1)")
    if n_realizations < 1:
        raise ValueError("n_realizations must be >= 1")

    rate = relaxation_rate(modes[0])
    rate_params = ("coupling", "background", "hubble")  # lambda phi0^2 / (6 H)
    if rate <= 0:
        raise ConfigError("non-positive relaxation rate: lambda phi0^2 must be > 0", rate_params)
    n = grid.n_points
    tail_start = int(math.floor((1.0 - tail_fraction) * (n - 1))) + 1
    t_settle = (tail_start - 1) * grid.dt
    if rate * t_settle < 5.0:
        raise NumericalError(
            f"non-stationary tail: only {rate * t_settle:.2f} relaxation times "
            f"elapse before the tail window; extend the grid or raise the rate",
            ("grid", "tail_fraction", *rate_params))
    if tail_start >= n:
        raise ConfigError(f"tail_fraction {tail_fraction:g} leaves no grid point "
                          f"in the tail of {n}", ("tail_fraction", "grid"))
    # |k eta| = (k / H) e^(-H t) of the largest k where the tail window starts, in logs
    hubble, t_tail = modes[0].hubble, grid.t_start + tail_start * grid.dt
    log_k_eta = math.log(ks.max()) - math.log(hubble) - hubble * t_tail
    if not log_k_eta < math.log(HORIZON_EXIT):
        k_eta = math.exp(log_k_eta) if log_k_eta < 709.0 else math.inf
        raise NumericalError(
            f"mode k = {ks.max():g} has not left the horizon by the tail window: "
            f"|k eta| = {k_eta:.3g} at t = {t_tail:g}, need < {HORIZON_EXIT:g}; raise "
            f"hubble or the tail's start, or lower the largest k",
            ("hubble", "k", "grid", "tail_fraction"))

    m = n_realizations
    # at most, per mode: the (n, 2) factor, one stepped column, the other's drive
    # and its step's two lists of n Python floats (an 8-byte pointer and a
    # 32-byte float block a point, 5 values); z (M, 2), its forms and their
    # temporaries, beside the last mode's z and forms
    require_memory(8 * (14 * n + 6 * m),
                   f"the mode factor ({n}, 2), 2 columns and 2 float lists of {n}, "
                   f"z ({m}, 2) and 4 rows of {m}", ("grid", "n_realizations"))
    pairs = []
    for mode_idx, dp in enumerate(sorted(modes, key=lambda d: d.k)):
        g00, g01, g11 = _tail_gram(dp, grid, tail_start)
        z0, z1 = _standard_normals(derive_seed(master_seed, mode_idx), m, 2).T
        forms = z0 * z0 * g00 + 2.0 * z0 * z1 * g01 + z1 * z1 * g11
        pairs.append((dp.k, float(np.add.reduce(forms) / m)))
    return estimate_spectrum(pairs)
