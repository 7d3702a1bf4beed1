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
and :func:`step_exponential`, in place: the paths are written over the noise
array, so an ensemble is held once.  They apply the same elementwise
operations in the same order as the single-path :func:`integrate_white` and
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

    The paths themselves are not kept: trajectory-level diagnostics such as
    the recursion probability read the caller's path array.
    """

    mean: np.ndarray
    variance: np.ndarray
    per_run_finals: np.ndarray


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


def _time_blocks(a: np.ndarray, n_steps: int):
    """(start, stop, a[..., start:stop] copied time-major) for each block of steps.

    Each block is a contiguous copy with the time axis first, never a view
    (ascontiguousarray returns one when M is 1), and block b + 1 is copied
    before block b is yielded: the caller may write block b's paths (columns
    start + 1 .. stop) over a, as the one column they share with the next
    block has been read by then.
    """
    bounds = [(start, min(start + _BLOCK_STEPS, n_steps))
              for start in range(0, n_steps, _BLOCK_STEPS)]
    copies = (np.moveaxis(a[..., start:stop], -1, 0).copy() for start, stop in bounds)
    ahead = next(copies)
    for start, stop in bounds:
        current, ahead = ahead, next(copies, None)
        yield start, stop, current


def _require_writable(a, name: str) -> np.ndarray:
    """a itself, if it is a writable float64 array; the steppers write their paths over it."""
    if not (isinstance(a, np.ndarray) and a.dtype == np.float64 and a.flags.writeable):
        got = (f"{a.dtype}, writeable={a.flags.writeable}" if isinstance(a, np.ndarray)
               else type(a).__name__)
        raise ValueError(f"{name} must be a writable float64 array, got {got}: "
                         f"the paths are written over it, so it is not copied")
    return a


def step_semi_implicit(noise: np.ndarray, vprime: Callable[[np.ndarray], np.ndarray],
                       gamma: float, grid: TimeGrid, x0=0.0, v0=0.0,
                       gate_threshold: float | None = None
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Step M realizations of xdd = -gamma xd - V'(x) + g xi at once, in place.

    noise is a writable float64 array of shape (M, d, n); the paths are
    written over it and it is returned as the path array, so an ensemble is
    held once.  The caller owns it: pass a copy to keep the noise.  Each
    256-step block of noise is read into a time-major buffer before any path
    of the block before it is written back, and slot 0 takes x0 only after
    the first block is read, so every value is that of a separate path array.
    vprime maps positions (M, d) to the gradient V'(x) (M, d), e.g.
    PotentialSpec.vprime.  x0 and v0 broadcast to (M, d).
    Each step is the scheme of :func:`integrate_white`,
    f = g xi_i - V'(x), v' = (v + dt f)/(1 + gamma dt), x' = x + dt v',
    applied elementwise (g xi - V' is bit-identical to -V' + g xi), so with
    the same V' every row equals integrate_white on that row bit for bit.

    Without a gate_threshold the gate g is 1.  With one, g starts at 1 per
    realization and latches to 0 the first time sum_a x_a^2 exceeds the
    threshold; it never reopens.

    Returns (paths (M, d, n), the noise array itself; close steps (M,) int64;
    velocities of realization 0 (d, n)).  A realization's close step is the
    first grid index at which its gate is 0, or -1 if it never closed (every
    realization, when there is no gate).  A step at which some |x_a| exceeds
    DIVERGENCE_GUARD or is not finite raises DivergenceError for the earliest
    such step and, among ties, the lowest realization index; the noise array
    then holds a partly written state.
    """
    paths = _require_writable(noise, "noise")
    m, d, n = paths.shape
    if n != grid.n_points:
        raise ValueError(f"noise must have {grid.n_points} time points, got {n}")
    dt = grid.dt
    denom = 1.0 + gamma * dt
    x = np.empty((m, d))
    v = np.empty((m, d))
    x[...] = x0
    v[...] = v0
    v_first = np.empty((n, d))
    v_first[0] = v[0]
    gated = gate_threshold is not None
    gate = np.ones(m)
    close = np.full(m, -1, dtype=np.int64)
    # x and v are written straight into the block buffers
    xs = np.empty((_BLOCK_STEPS, m, d))
    vs = np.empty((_BLOCK_STEPS, m, d))
    gs = np.empty((_BLOCK_STEPS, m))
    for start, stop, xi in _time_blocks(paths, n - 1):
        if start == 0:
            paths[:, :, 0] = x
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
    """(M, n) paths of phi_{i+1} = q phi_i + (1 - q) drive_i, all rows at once, in place.

    drive is a writable float64 (M, n) array; the paths are written over it
    in the order of :func:`step_semi_implicit` and it is returned.  The step
    of :func:`integrate_overdamped_mode` (with drive = amp xi), applied
    elementwise, so each row equals the single-path result bit for bit.
    """
    paths = _require_writable(drive, "drive")
    m, n = paths.shape
    w = 1.0 - q
    block = np.empty((_BLOCK_STEPS, m))
    for start, stop, d in _time_blocks(paths, n - 1):
        if start == 0:
            paths[:, 0] = phi0
            phi = paths[:, 0].copy()
        for j in range(stop - start):
            phi = np.add(q * phi, w * d[j], out=block[j])
        paths[:, start + 1:stop + 1] = block[:stop - start].T
    return paths


#: float64 values per column block of aggregate_paths' sorted reductions (1 MB),
#: and per row block of scenarios.recursion_probability
_AGGREGATE_BLOCK_VALUES = 131072


def _column_blocks(m: int, n: int):
    """Column slices of about _AGGREGATE_BLOCK_VALUES values over an (m, n) array.

    No slice is one column wide unless n is 1: numpy sums a single column
    pairwise, not row after row as it sums wider blocks and the whole array,
    so a trailing one-column block joins the block before it.
    """
    width = max(2, _AGGREGATE_BLOCK_VALUES // m)
    stops = list(range(width, n, width)) + [n]
    if len(stops) > 1 and stops[-1] - stops[-2] == 1:
        del stops[-2]
    start = 0
    for stop in stops:
        yield slice(start, stop)
        start = stop


def aggregate_paths(grid: TimeGrid, paths: np.ndarray) -> EnsembleStats:
    """Pointwise mean/variance and per-realization final values of an (M, n) path array.

    Reductions run in sorted order so the statistics are invariant under any
    reordering of the realizations.  They run over column blocks of about
    _AGGREGATE_BLOCK_VALUES values: each block is copied into one buffer,
    sorted and summed for the mean, then its squared deviations are formed,
    sorted and summed in that buffer.  No (M, n) temporary is allocated, and
    every column gets the values, in the order, of the whole-array formula.
    """
    paths = np.asarray(paths, dtype=float)
    if paths.ndim != 2 or paths.shape[1] != grid.n_points:
        raise ValueError(f"paths must be (M, {grid.n_points}), got {paths.shape}")
    m, n = paths.shape
    mean = np.empty(n)
    variance = np.empty(n)
    blocks = list(_column_blocks(m, n))
    buffer = np.empty((m, max(cols.stop - cols.start for cols in blocks)))
    for cols in blocks:
        block = buffer[:, :cols.stop - cols.start]
        np.copyto(block, paths[:, cols])
        block.sort(axis=0)
        mean[cols] = block.sum(axis=0) / m
        np.subtract(paths[:, cols], mean[cols], out=block)
        np.multiply(block, block, out=block)
        block.sort(axis=0)
        variance[cols] = block.sum(axis=0) / m
    return EnsembleStats(mean=mean, variance=variance,
                         per_run_finals=paths[:, -1].copy())


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
