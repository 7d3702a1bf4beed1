"""Trajectory integrators and ensemble statistics.

Three dynamical equations are integrated on fixed uniform grids:

* white-noise Langevin  xdd = -gamma xd - V'(x) + xi(t)
* memory-kernel form    Xdd = w^2 X - int_0^t M(t,s) X(s) ds - xi(t)
* overdamped mode       phid = -a (phi - amp * xi(t)),  a = lambda phi0^2 / (6 H)

The stepping scheme is fixed: semi-implicit Euler with the damping folded in
implicitly, v' = (v + dt f)/(1 + gamma dt), x' = x + dt v'.  It is symplectic
in the frictionless limit and stable for stiff friction.  The overdamped
equation uses an exponential-integrator step that is exact for linear decay.

Ensembles are stepped all realizations at once by :func:`step_semi_implicit`
and :func:`step_exponential`; they apply the same elementwise operations in
the same order as the single-path :func:`integrate_white` and
:func:`integrate_overdamped_mode`, so every row is bit-identical to the
single-path result and does not depend on the ensemble size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .core import DivergenceError, TimeGrid, derive_seed, trapezoid_history
from .kernels import RETARDED, DeSitterParams, KernelMatrix

#: abort a realization once |x| exceeds this many natural units
DIVERGENCE_GUARD = 1e12

#: time steps per block of the batched steppers; a block's noise is read in
#: time-major order and its paths are written back in one transposed copy
_BLOCK_STEPS = 256


@dataclass(frozen=True)
class Trajectory:
    """One integrated path on a grid: positions and velocities."""

    grid: TimeGrid
    x: np.ndarray
    xdot: np.ndarray

    def __post_init__(self):
        n = self.grid.n_points
        for name in ("x", "xdot"):
            arr = np.array(getattr(self, name), dtype=float, copy=True)
            if arr.shape != (n,):
                raise ValueError(f"{name} must have shape ({n},), got {arr.shape}")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class PotentialSpec:
    """Force law V'(x) = c1 x + c3 x^3 in one of three named shapes.

    quadratic:  V = w0^2 x^2 / 2          (c1 = w0^2)
    inverted:   V = -w^2 x^2 / 2          (c1 = -w^2)
    double_well: V = m2 x^2 / 2 + lam x^4 / 4!   (c1 = m2, c3 = lam/6, lam > 0)

    vprime is written as x (c1 + c3 x^2) so negating x negates the force
    exactly in floating point.
    """

    kind: str
    c1: float
    c3: float = 0.0

    @classmethod
    def quadratic(cls, omega0: float) -> "PotentialSpec":
        return cls("quadratic", omega0**2, 0.0)

    @classmethod
    def inverted(cls, omega: float) -> "PotentialSpec":
        return cls("inverted", -(omega**2), 0.0)

    @classmethod
    def double_well(cls, m2: float, lam: float) -> "PotentialSpec":
        if lam <= 0:
            raise ValueError("double_well requires a positive quartic coupling")
        return cls("double_well", m2, lam / 6.0)

    def vprime(self, x):
        return x * (self.c1 + self.c3 * x * x)

    def v(self, x):
        x2 = x * x
        return 0.5 * self.c1 * x2 + 0.25 * self.c3 * x2 * x2


@dataclass(frozen=True)
class EnsembleStats:
    """Pointwise ensemble moments plus the final value of each realization.

    paths (M, n) is retained only on request; it is what trajectory-level
    diagnostics such as the recursion probability need.
    """

    grid: TimeGrid
    mean: np.ndarray
    variance: np.ndarray
    per_run_finals: np.ndarray
    paths: np.ndarray | None = None

    @property
    def n_realizations(self) -> int:
        return self.per_run_finals.shape[0]


@dataclass(frozen=True)
class SpectrumEstimate:
    """Per-mode variances and the fitted log-log power-law slope."""

    k: np.ndarray
    variances: np.ndarray
    slope: float
    slope_stderr: float
    intercept: float


def _check_noise(grid: TimeGrid, xi: np.ndarray) -> np.ndarray:
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (grid.n_points,):
        raise ValueError(
            f"noise realization must match the grid: expected ({grid.n_points},), "
            f"got {xi.shape}"
        )
    return xi


def integrate_white(pot: PotentialSpec, gamma: float, grid: TimeGrid,
                    xi: np.ndarray, x0: float, v0: float) -> Trajectory:
    """Integrate xdd = -gamma xd - V'(x) + xi with the semi-implicit scheme.

    v_{i+1} = (v_i + dt (-V'(x_i) + xi_i)) / (1 + gamma dt),
    x_{i+1} = x_i + dt v_{i+1}.
    """
    xi = _check_noise(grid, xi)
    n = grid.n_points
    dt = grid.dt
    c1, c3 = pot.c1, pot.c3
    denom = 1.0 + gamma * dt
    drive = xi.tolist()
    xs = [0.0] * n
    vs = [0.0] * n
    x = float(x0)
    v = float(v0)
    xs[0] = x
    vs[0] = v
    for i in range(n - 1):
        f = -(x * (c1 + c3 * x * x)) + drive[i]
        v = (v + dt * f) / denom
        x = x + dt * v
        if not abs(x) <= DIVERGENCE_GUARD:
            raise DivergenceError(
                f"trajectory diverged at step {i + 1} (t = {grid.t_start + (i + 1) * dt:g}):"
                f" |x| exceeded {DIVERGENCE_GUARD:g}", step=i + 1)
        xs[i + 1] = x
        vs[i + 1] = v
    return Trajectory(grid, np.array(xs), np.array(vs))


def integrate_memory(omega: float, mem_kernel: KernelMatrix, xi: np.ndarray,
                     x0: float, v0: float) -> Trajectory:
    """Integrate Xdd = w^2 X - sum_{j<=i} w_j M(t_i,t_j) X(t_j) - xi(t_i).

    The memory sum is :func:`ctpsim.core.trapezoid_history` over the history
    prefix; the stepping is the same semi-implicit scheme with zero friction,
    so with a vanishing kernel this reproduces the white integrator on the
    inverted potential (with the noise sign flipped, as the equation is
    written with -xi on the right-hand side).
    """
    if mem_kernel.kind != RETARDED:
        raise ValueError("memory kernel must be retarded")
    grid = mem_kernel.grid
    xi = _check_noise(grid, xi)
    n = grid.n_points
    dt = grid.dt
    om2 = omega * omega
    rows = mem_kernel.values
    xs = np.zeros(n)
    vs = np.zeros(n)
    xs[0] = float(x0)
    vs[0] = float(v0)
    for i in range(n - 1):
        a = om2 * xs[i] - trapezoid_history(rows[i], xs, i, dt) - xi[i]
        vs[i + 1] = vs[i] + dt * a
        x_new = xs[i] + dt * vs[i + 1]
        if not abs(x_new) <= DIVERGENCE_GUARD:
            raise DivergenceError(
                f"memory trajectory diverged at step {i + 1}: |x| exceeded "
                f"{DIVERGENCE_GUARD:g}", step=i + 1)
        xs[i + 1] = x_new
    return Trajectory(grid, xs, vs)


def relaxation_rate(dp: DeSitterParams) -> float:
    """Overdamped relaxation rate a = lambda phi0^2 / (6 H)."""
    return dp.coupling * dp.background**2 / (6.0 * dp.hubble)


def integrate_overdamped_mode(dp: DeSitterParams, noise_amp: float, grid: TimeGrid,
                              xi: np.ndarray, phi_init: float) -> Trajectory:
    """First-order mode equation phid = -a (phi - amp xi) by exponential stepping.

    phi_{i+1} = q phi_i + (1 - q) amp xi_i with q = exp(-a dt): exact for
    linear decay and for piecewise-constant drive.  xdot holds the right-hand
    side evaluated on the grid.
    """
    a = relaxation_rate(dp)
    if a <= 0:
        raise ValueError("non-positive relaxation rate: lambda phi0^2 must be > 0")
    xi = _check_noise(grid, xi)
    n = grid.n_points
    q = np.exp(-a * grid.dt)
    phi = np.empty(n)
    phi[0] = float(phi_init)
    drive = noise_amp * xi
    for i in range(n - 1):
        phi[i + 1] = q * phi[i] + (1.0 - q) * drive[i]
    rhs = -a * (phi - drive)
    return Trajectory(grid, phi, rhs)


def _time_blocks(n_steps: int):
    for start in range(0, n_steps, _BLOCK_STEPS):
        yield start, min(start + _BLOCK_STEPS, n_steps)


def _time_major(a: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Contiguous copy of a[..., start:stop] with the time axis moved first."""
    return np.ascontiguousarray(np.moveaxis(a[..., start:stop], -1, 0))


def step_semi_implicit(noise: np.ndarray, vprime: Callable[[np.ndarray], np.ndarray],
                       gamma: float, grid: TimeGrid, x0=0.0, v0=0.0,
                       gate_threshold: float | None = None
                       ) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """Step M realizations of xdd = -gamma xd - V'(x) + g xi at once.

    noise has shape (M, d, n); vprime maps positions (M, d) to the gradient
    V'(x) (M, d), e.g. PotentialSpec.vprime.  x0 and v0 broadcast to (M, d).
    Each step is the scheme of :func:`integrate_white`,
    f = g xi_i - V'(x), v' = (v + dt f)/(1 + gamma dt), x' = x + dt v',
    applied elementwise (g xi - V' is bit-identical to -V' + g xi), so with
    the same V' every row equals integrate_white on that row bit for bit.

    Without a gate_threshold the gate g is 1.  With one, g starts at 1 per
    realization and latches to 0 the first time sum_a x_a^2 exceeds the
    threshold; it never reopens.

    Returns (paths (M, d, n), close steps (M,) int or None when there is no
    gate, velocities of realization 0 (d, n)).  A realization's close step is
    the first grid index at which its gate is 0, or -1 if it never closed.
    A step at which some |x_a| exceeds DIVERGENCE_GUARD or is not finite
    raises DivergenceError for the earliest such step and, among ties, the
    lowest realization index.
    """
    noise = np.asarray(noise, dtype=float)
    m, d, n = noise.shape
    if n != grid.n_points:
        raise ValueError(f"noise must have {grid.n_points} time points, got {n}")
    dt = grid.dt
    denom = 1.0 + gamma * dt
    x = np.empty((m, d))
    v = np.empty((m, d))
    x[...] = x0
    v[...] = v0
    paths = np.empty((m, d, n))
    paths[:, :, 0] = x
    v_first = np.empty((n, d))
    v_first[0] = v[0]
    gated = gate_threshold is not None
    gate = np.ones(m)
    close = np.full(m, -1, dtype=np.int64) if gated else None
    # x and v are written straight into the block buffers
    xs = np.empty((_BLOCK_STEPS, m, d))
    vs = np.empty((_BLOCK_STEPS, m, d))
    gs = np.empty((_BLOCK_STEPS, m))
    for start, stop in _time_blocks(n - 1):
        xi = _time_major(noise, start, stop)
        size = stop - start
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(size):
                drive = gate[:, None] * xi[j] if gated else xi[j]
                v = np.divide(v + dt * (drive - vprime(x)), denom, out=vs[j])
                x = np.add(x, dt * v, out=xs[j])
                if gated:
                    r2 = np.einsum("md,md->m", x, x)
                    gate = np.where(r2 > gate_threshold, 0.0, gate)
                    gs[j] = gate
        bad = ~(np.abs(xs[:size]) <= DIVERGENCE_GUARD).all(axis=2)
        if bad.any():
            j = int(np.argmax(bad.any(axis=1)))
            idx = int(np.argmax(bad[j]))
            step = start + j + 1
            raise DivergenceError(
                f"realization {idx}: trajectory diverged at step {step} "
                f"(t = {grid.t_start + step * dt:g}): |x| exceeded "
                f"{DIVERGENCE_GUARD:g}", step=step, realization=idx)
        paths[:, :, start + 1:stop + 1] = xs[:size].transpose(1, 2, 0)
        v_first[start + 1:stop + 1] = vs[:size, 0]
        if gated:
            closed = gs[:size] == 0.0
            new = (close < 0) & closed.any(axis=0)
            close[new] = start + 1 + np.argmax(closed[:, new], axis=0)
    return paths, close, v_first.T


def step_exponential(drive: np.ndarray, q: float, phi0=0.0) -> np.ndarray:
    """(M, n) paths of phi_{i+1} = q phi_i + (1 - q) drive_i, all rows at once.

    The step of :func:`integrate_overdamped_mode` (with drive = amp xi),
    applied elementwise, so each row equals the single-path result bit for bit.
    """
    drive = np.asarray(drive, dtype=float)
    m, n = drive.shape
    w = 1.0 - q
    paths = np.empty((m, n))
    paths[:, 0] = phi0
    phi = paths[:, 0].copy()
    block = np.empty((_BLOCK_STEPS, m))
    for start, stop in _time_blocks(n - 1):
        d = _time_major(drive, start, stop)
        for j in range(stop - start):
            phi = np.add(q * phi, w * d[j], out=block[j])
        paths[:, start + 1:stop + 1] = block[:stop - start].T
    return paths


def _sorted_reduce_mean(values: np.ndarray) -> np.ndarray:
    # canonical (sorted) summation order: permutation-invariant reductions
    return np.sort(values, axis=0).sum(axis=0) / values.shape[0]


def _sorted_variance(values: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """_sorted_reduce_mean((values - mean)**2), bit for bit, in one (M, n) buffer."""
    sq = np.subtract(values, mean)
    np.multiply(sq, sq, out=sq)
    sq.sort(axis=0)
    return sq.sum(axis=0) / sq.shape[0]


def aggregate_paths(grid: TimeGrid, paths: np.ndarray, keep_paths: bool = False) -> EnsembleStats:
    """Pointwise mean/variance and per-realization final values of an (M, n) path array.

    Reductions run in sorted order so the statistics are invariant under any
    reordering of the realizations.
    """
    paths = np.asarray(paths, dtype=float)
    if paths.ndim != 2 or paths.shape[1] != grid.n_points:
        raise ValueError(f"paths must be (M, {grid.n_points}), got {paths.shape}")
    mean = _sorted_reduce_mean(paths)
    variance = _sorted_variance(paths, mean)
    return EnsembleStats(grid=grid, mean=mean, variance=variance,
                         per_run_finals=paths[:, -1].copy(),
                         paths=paths.copy() if keep_paths else None)


def ensemble_run(run_one: Callable[[int], Trajectory], master_seed: int,
                 n_realizations: int) -> EnsembleStats:
    """Run M independent trajectories with seeds derive_seed(master, i), one by one.

    run_one maps a derived seed to a Trajectory.  Results depend only on
    master_seed; integrator failures are re-raised with the offending
    realization index attached.  Ensembles that need speed are stepped as one
    batch by :func:`step_semi_implicit` or :func:`step_exponential`.
    """
    if n_realizations < 1:
        raise ValueError("n_realizations must be >= 1")

    def run_indexed(i: int) -> Trajectory:
        try:
            return run_one(derive_seed(master_seed, i))
        except DivergenceError as err:
            raise DivergenceError(
                f"realization {i}: {err}", step=err.step, realization=i
            ) from err

    first = run_indexed(0)
    paths = np.empty((n_realizations, first.grid.n_points))
    paths[0] = first.x
    for i in range(1, n_realizations):
        paths[i] = run_indexed(i).x
    return aggregate_paths(first.grid, paths)


def estimate_spectrum(per_k_variances: Iterable[tuple[float, float]] | Sequence) -> SpectrumEstimate:
    """Least-squares power-law fit of mode variances against wavenumber.

    Fits log(variance) vs log(k); requires at least 4 distinct k spanning at
    least one decade.  Returns the slope, its standard error and the
    intercept; an exact power law comes back with the exact exponent.
    """
    pairs = np.asarray(list(per_k_variances), dtype=float)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError("expected a sequence of (k, variance) pairs")
    order = np.argsort(pairs[:, 0])
    k = pairs[order, 0]
    var = pairs[order, 1]
    if np.any(k <= 0) or np.any(var <= 0):
        raise ValueError("k values and variances must be positive")
    if np.unique(k).size < 4:
        raise ValueError("insufficient k range: need >= 4 distinct k values")
    if k[-1] / k[0] < 10.0:
        raise ValueError("insufficient k range: need k_max / k_min >= 10")
    x = np.log(k)
    y = np.log(var)
    design = np.vstack([x, np.ones_like(x)]).T
    coef, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
    slope, intercept = float(coef[0]), float(coef[1])
    resid = y - design @ coef
    m = x.size
    sxx = float(np.sum((x - x.mean()) ** 2))
    stderr = float(np.sqrt(np.sum(resid**2) / (m - 2) / sxx)) if m > 2 else 0.0
    return SpectrumEstimate(k=k, variances=var, slope=slope,
                            slope_stderr=stderr, intercept=intercept)
