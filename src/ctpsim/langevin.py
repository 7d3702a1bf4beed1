"""Trajectory integrators and ensemble statistics.

Three dynamical equations are integrated on fixed uniform grids:

* white-noise Langevin  xdd = -gamma xd - V'(x) + xi(t)
* memory-kernel form    Xdd = w^2 X - int_0^t M(t,s) X(s) ds - xi(t)
* overdamped mode       phid = -a (phi - amp * xi(t)),  a = lambda phi0^2 / (6 H)

The stepping scheme is fixed: semi-implicit Euler with the damping folded in
implicitly, v' = (v + dt f)/(1 + gamma dt), x' = x + dt v'.  It is symplectic
in the frictionless limit and stable for stiff friction.  The overdamped
equation uses an exponential-integrator step that is exact for linear decay;
it is linear in its drive, so inflation steps only its factor columns.

Ensembles are stepped all realizations at once by :class:`SemiImplicitStepper`,
one block of grid columns at a time, as many as :func:`_block_steps` gives
for its M d values a column (128 up to M d = 200, 16 from M d = 1600 on).
It applies the same elementwise operations in the same order as the
single-path :func:`integrate_white`, so every row is bit-identical to the
single-path result and depends neither on the ensemble size nor on the
block width.  The runners stream (:func:`stream_blocks`): each block's
noise is drawn into one reused time-major (w, M, d) buffer, stepped from it
and its (w, M, d) paths reduced (:class:`ColumnMoments` for the pointwise
statistics, summed over the realizations in their index order), so no array
of the ensemble's size is held.  A gated ensemble reads no noise once every
gate has latched, so the blocks after that one are not drawn; an ungated one
draws every block.  :func:`aggregate_paths` reduces a whole path array over
the same blocks, with the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .core import (DivergenceError, NumericalError, TimeGrid, derive_seed,
                   require_memory, trapezoid_history)
from .kernels import RETARDED, DeSitterParams, KernelMatrix
from .noise import white_source, white_source_bytes

#: abort a realization once |x| exceeds this many natural units
DIVERGENCE_GUARD = 1e12

#: float64 values a (w, M, d) slab of the ensemble pipeline holds (200 KB),
#: from which :func:`_block_steps` sizes its blocks
_SLAB_VALUES = 25_600


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
    """Force law V'(x) = x (c1 + c3 x^2) in one of three named shapes.

    quadratic:  V = w0^2 x^2 / 2          (c1 = w0^2)
    inverted:   V = -w^2 x^2 / 2          (c1 = -w^2)
    double_well: V = m2 x^2 / 2 + lam x^4 / 4!   (c1 = m2, c3 = lam/6, lam > 0)

    vprime is written as x (c1 + x x c3) so negating x negates the force
    exactly in floating point.  Its products are those of
    :class:`SemiImplicitStepper`, in the same order, so the stepper and
    :func:`integrate_white` give the same bits.
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
        if not 0 < lam < math.inf:
            raise ValueError("double_well requires a positive quartic coupling")
        return cls("double_well", m2, lam / 6.0)

    def vprime(self, x):
        return x * (self.c1 + x * x * self.c3)


@dataclass(frozen=True)
class EnsembleStats:
    """Pointwise ensemble moments plus the final value of each realization.

    The paths themselves are not kept: the runners reduce them block by
    block, and trajectory-level diagnostics such as the recursion
    probability are counted on the way.
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


def _at_step(grid: TimeGrid, step: int) -> str:
    """'step s (t = t_s)' for a divergence message, or 'step s' where t_s overflows."""
    t = grid.t_start + step * grid.dt
    return f"step {step} (t = {t:g})" if math.isfinite(t) else f"step {step}"


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
        f = -(x * (c1 + x * x * c3)) + drive[i]
        v = (v + dt * f) / denom
        x = x + dt * v
        if not abs(x) <= DIVERGENCE_GUARD:
            raise DivergenceError(
                f"trajectory diverged at {_at_step(grid, i + 1)}: |x| exceeded "
                f"{DIVERGENCE_GUARD:g}", step=i + 1)
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
    side evaluated on the grid.  The loop runs on Python floats, whose
    arithmetic is float64's.
    """
    a = relaxation_rate(dp)
    if a <= 0:
        raise ValueError("non-positive relaxation rate: lambda phi0^2 must be > 0")
    xi = _check_noise(grid, xi)
    q = float(np.exp(-a * grid.dt))
    w = 1.0 - q
    drive = noise_amp * xi
    phi = float(phi_init)
    phis = [phi]
    for term in drive[:-1].tolist():
        phi = q * phi + w * term
        phis.append(phi)
    phis = np.array(phis)
    return Trajectory(grid, phis, -a * (phis - drive))


def _block_steps(values: int) -> int:
    """Grid steps per block of the pipeline whose grid columns hold values = M d values each.

    The one block rule, which every stepper, stream, reduction and memory
    check of the pipeline takes its width from: as many steps as fill a
    _SLAB_VALUES slab, within [16, 128].  128 steps for langevin's M d of
    200, 64 for ssb's 400, 32 for bec's 800 (perfbench's sizes) and 16 from
    M d = 1600 on, so a slab stays at 200 KB, in cache, up to M d = 1600
    and grows as 17 M d values beyond.  No output depends on it.
    """
    return min(128, max(16, _SLAB_VALUES // values))


def _time_blocks(n: int, values: int) -> list[slice]:
    """The column blocks of a pipeline of M d = values: _block_steps columns, the last up to one more.

    No block is one column wide unless n is 1: a last block of one column
    would take 0 steps in :meth:`SemiImplicitStepper.step`, whose divergence
    check cannot take the max of no positions, so a trailing one-column
    block joins the one before it.
    """
    steps = _block_steps(values)
    stops = list(range(steps, n, steps)) + [n]
    if len(stops) > 1 and stops[-1] - stops[-2] == 1:
        del stops[-2]
    return [slice(start, stop) for start, stop in zip([0, *stops], stops)]


def _block_width(n: int, values: int) -> int:
    """The most columns a block of :func:`_time_blocks` (n, values) holds."""
    return min(n, _block_steps(values) + 1)


def _squared_norm(m: int, d: int) -> Callable[[np.ndarray], np.ndarray]:
    """norm_of(x): |x|^2 (M,) of positions x (M, d), formed in one reused (M, d) squares buffer.

    A call squares x in one same-shape multiply, then adds the further
    columns into column 0 in component order, x_0^2 + x_1^2 + ..., and
    returns column 0: the same (M,) view on every call, overwritten by the
    next.
    """
    squares = np.empty((m, d))
    norm, *rest = squares.T
    multiply, add = np.multiply, np.add

    def norm_of(x):
        multiply(x, x, squares)
        for column in rest:
            add(norm, column, norm)
        return norm
    return norm_of


class SemiImplicitStepper:
    """M realizations of xdd = -gamma xd - V'(x) + g xi, stepped one column block at a time.

    shape is (M, d, n).  :meth:`step` reads the noise of the grid columns
    cols from a time-major block (w, M, d) and returns their positions, a
    (w, M, d) view of ``xs`` valid until the next call: the entry state, then
    one step from each column to the next; ``vs[:w]`` holds their velocities
    likewise.  Both hold the widest block of :func:`_time_blocks`.  The next
    call starts where the last step ended, so the last column of the grid is
    never read as noise.
    Each step is the scheme of :func:`integrate_white`, f = g xi_i - V'(x),
    v' = (v + dt f)/(1 + gamma dt), x' = x + dt v', as elementwise
    operations into reused buffers (dt (g xi - V') + v is v + dt (g xi - V')
    bit for bit), so every row equals integrate_white on that row with the
    same pot and does not depend on M.  x0 and v0 broadcast to (M, d).

    V' of positions x (M, d) is the radial law x_a (c1 + |x|^2 c3) of pot,
    formed bit for bit as :meth:`PotentialSpec.vprime` forms it at d = 1.
    With c3 = 0 it is one multiply of x by c1 + 0.0, since |x|^2 c3 is +0.0
    for every |x| <= DIVERGENCE_GUARD and c1 + 0.0 is c1 except that -0.0
    becomes +0.0 (c1 = -w^2 is -0.0 once w^2 underflows).  Otherwise the
    coefficient c1 + |x|^2 c3 is formed in column 0 of the (M, d) buffer
    ``coefs`` and copied to its other columns, so V' is one same-shape
    multiply by x, not an (M, 1) x (M, d) broadcast.

    A ufunc call of a step touches only M d values, so numpy's cost per
    call, not the arithmetic, sets the time.  dt, 1 + gamma dt and the
    force's c1, c1 + 0.0 and c3 are held as 0-d float64 arrays, the
    operands a ufunc takes fastest; the loop binds its ufuncs to locals and
    passes out positionally (numpy parses a keyword out on every call),
    walks a block's noise, position and velocity rows together, and tests
    the gate with count_nonzero, where ndarray.any enters a Python frame.

    With a gate_threshold or a quartic term each step forms |x|^2 once
    (:func:`_squared_norm`) into the one (M,) view ``norm`` that the next
    step's force and gate read; otherwise ``norm`` is None.  Without a
    gate_threshold the gate g is 1.  With one, g starts at 1 per
    realization and latches to 0 the first time |x|^2 exceeds the
    threshold, never to reopen.  It scales the noise once per block: the
    block's noise rows are multiplied by the (M, d) ``gate`` on entry, and
    a gate that latches at step j has its rows after j multiplied by 0
    there ((xi 1) 0 is xi 0 bit for bit).  While some gate is open each
    step compares |x|^2 with ``limit`` (M,), the threshold for open gates
    and +inf for latched ones; once every gate has latched the steps do no
    gate work.  :meth:`_latch` writes a latch by index, realization by
    realization: its ``limit``, ``gate`` and ``close`` entries and, in
    place, the basic-slice view of its noise rows after the step (8 us for
    two at M 400, d 2, where boolean-mask assignments and a masked
    gather-multiply-scatter took 21 us).  ``n_open`` counts the open gates,
    exactly, since a limit of +inf latches no gate twice; ``gate_open`` says
    whether it is positive (always true without a gate).  A block that starts
    with it false reads no noise, so :func:`stream_blocks` does not draw
    it: its rows are not multiplied by the gate, and each step forms
    v - dt V' in place of (0 - V') dt + v.  The two differ only in the sign
    of a zero, which reaches x only where x and v are both exactly 0.
    ``close`` (M,) int64 holds each realization's close step, the first
    grid index at which its gate is 0, recorded when it latches, or -1
    while it is open (always, without a gate).
    A block in which some |x_a| exceeds DIVERGENCE_GUARD or
    is not finite raises DivergenceError for the earliest such step and,
    among ties, the lowest realization index.
    """

    def __init__(self, shape: tuple[int, int, int], pot: PotentialSpec, gamma: float,
                 grid: TimeGrid, x0=0.0, v0=0.0, gate_threshold: float | None = None):
        m, d, n = shape
        if n != grid.n_points:
            raise ValueError(f"noise must have {grid.n_points} time points, got {n}")
        self.shape = shape
        self.grid = grid
        self.dt = np.array(grid.dt, dtype=float)
        self.denom = np.array(1.0 + gamma * grid.dt, dtype=float)
        self.c1 = np.array(pot.c1, dtype=float)
        self.c1_plus_zero = np.array(pot.c1 + 0.0, dtype=float)
        self.c3 = None if pot.c3 == 0.0 else np.array(pot.c3, dtype=float)
        rows = _block_width(n, m * d)
        # time-major buffers, each also as a list of its (M, d) rows; row 0
        # holds a block's entry state, copied from row carry where the last
        # block ended
        self.xs = np.empty((rows, m, d))
        self.vs = np.empty((rows, m, d))
        self.xs[0] = x0
        self.vs[0] = v0
        self.rows = list(self.xs), list(self.vs)
        self.carry = 0
        self.f = np.empty((m, d))
        self.coefs = np.empty((m, d))
        self.close = np.full(m, -1, dtype=np.int64)
        self.norm = self.gate = None
        self.gate_open = True
        if gate_threshold is not None or self.c3 is not None:
            self.squared_norm = _squared_norm(m, d)
            self.norm = self.squared_norm(self.xs[0])
        if gate_threshold is not None:
            self.gate = np.ones((m, d))
            self.limit = np.full(m, gate_threshold, dtype=float)
            self.hit = np.empty(m, dtype=bool)
            self.n_open = m

    def step(self, block: np.ndarray, cols: slice) -> np.ndarray:
        width = cols.stop - cols.start
        steps = width if cols.stop < self.grid.n_points else width - 1
        xs, vs, f, norm = self.xs, self.vs, self.f, self.norm
        carry, self.carry = self.carry, steps
        xs[0] = xs[carry]
        vs[0] = vs[carry]
        x_rows, v_rows = self.rows
        dt, denom, c1, c1_plus_zero, c3 = self.dt, self.denom, self.c1, self.c1_plus_zero, self.c3
        coefs = self.coefs
        coef, *copies = coefs.T
        subtract, multiply, add, divide = np.subtract, np.multiply, np.add, np.divide
        greater, count_nonzero, copyto = np.greater, np.count_nonzero, np.copyto
        x, v = x_rows[0], v_rows[0]
        # after the last latch the noise is not read, nor drawn
        driven = self.gate_open
        gating = driven and self.gate is not None
        if norm is not None:
            squared_norm = self.squared_norm
        if gating:
            limit, hit = self.limit, self.hit
            multiply(block[:steps], self.gate, block[:steps])
        with np.errstate(over="ignore", invalid="ignore"):
            for j, (xi, x_next, v_next) in enumerate(
                    zip(block[:steps], x_rows[1:steps + 1], v_rows[1:steps + 1])):
                if c3 is None:
                    multiply(x, c1_plus_zero, f)
                else:
                    multiply(norm, c3, coef)
                    add(coef, c1, coef)
                    for column in copies:
                        copyto(column, coef)
                    multiply(coefs, x, f)
                if driven:
                    subtract(xi, f, f)
                    multiply(f, dt, f)
                    add(f, v, f)
                else:
                    multiply(f, dt, f)
                    subtract(v, f, f)
                v = divide(f, denom, v_next)
                multiply(v, dt, f)
                x = add(x, f, x_next)
                if norm is not None:
                    squared_norm(x)
                    if gating and count_nonzero(greater(norm, limit, hit)):
                        gating = self._latch(block[j + 1:steps], cols.start + j + 1)
        new = xs[1:steps + 1]
        # max and min propagate NaN, so this holds iff every |x| <= DIVERGENCE_GUARD
        if not (new.max() <= DIVERGENCE_GUARD and new.min() >= -DIVERGENCE_GUARD):
            bad = ~(np.abs(new) <= DIVERGENCE_GUARD).all(axis=2)
            j = int(np.argmax(bad.any(axis=1)))
            idx = int(np.argmax(bad[j]))
            step = cols.start + j + 1
            raise DivergenceError(
                f"realization {idx}: trajectory diverged at {_at_step(self.grid, step)}: "
                f"|x| exceeded {DIVERGENCE_GUARD:g}", step=step, realization=idx)
        return xs[:width]

    def _latch(self, rest: np.ndarray, step: int) -> bool:
        """Latch the gates ``hit`` marks at grid index step, zero their noise rows rest.

        Updates ``n_open`` and returns ``gate_open``, whether some gate is still open.
        """
        limit, gate, close = self.limit, self.gate, self.close
        hits = self.hit.nonzero()[0].tolist()
        for i in hits:
            limit[i] = math.inf
            gate[i] = 0.0
            close[i] = step
            rest[:, i] *= 0.0
        self.n_open -= len(hits)
        self.gate_open = self.n_open > 0
        return self.gate_open


def stream_blocks(fill, stepper, reduce) -> None:
    """Draw, step and reduce an ensemble one column block at a time, in one reused buffer.

    For each block of :func:`_time_blocks`, fill(rows, start) writes the
    noise of the block's columns into the time-major rows (w, M d),
    stepper.step(block, cols) returns their paths (w, M, d), and
    reduce(paths, cols) reads them.  No array of the ensemble's size is held.
    A block is drawn only while stepper.gate_open, that is, while some
    realization's gate can pass its noise (always, without a gate): the
    stepper does not read a block that starts after the last latch, so the
    buffer keeps the last block drawn, unread, and noise that would be
    drawn there cannot fail the run.
    When a step fails, every block not yet drawn is drawn first, so a
    failure of the noise itself is reported as it is when the noise is
    drawn whole before any step.
    """
    m, d, n = stepper.shape
    buffer = np.empty((_block_width(n, m * d), m, d))
    rows = buffer.reshape(len(buffer), m * d)
    blocks = _time_blocks(n, m * d)
    undrawn = []
    for b, cols in enumerate(blocks):
        width = cols.stop - cols.start
        if stepper.gate_open:
            fill(rows[:width], cols.start)
        else:
            undrawn.append(cols)
        try:
            paths = stepper.step(buffer[:width], cols)
        except (NumericalError, ArithmeticError):
            for rest in undrawn + blocks[b + 1:]:
                fill(rows[:rest.stop - rest.start], rest.start)
            raise
        reduce(paths, cols)


#: (M, d, block width) float64 slabs of the pipeline at its peak: the block
#: buffer, the stepper's positions and velocities, the statistics' copy
#: buffer and a reducer's temporaries (two slabs); the stepper's |x|^2
#: squares, force coefficients and gate are (M, d) rows
_PIPELINE_SLABS = 6


def require_pipeline(shape: tuple[int, int, int], extra_bytes: int = 0,
                     extra: str = "") -> None:
    """Check the peak of :func:`stream_blocks` on an (M, d, n) ensemble against physical memory.

    The peak is _PIPELINE_SLABS (M, d, w) float64 slabs of block buffers,
    w = :func:`_block_width` (n, M d), plus extra_bytes of what the run
    holds beside them, which extra names.
    """
    m, d, n = shape
    width = _block_width(n, m * d)
    require_memory(8 * _PIPELINE_SLABS * m * d * width + extra_bytes,
                   f"block buffers ({m}, {d}, {width})" + (f" and {extra}" if extra else ""),
                   ("n_realizations", "grid"))


class ColumnMoments:
    """Pointwise mean and variance of an (M, n) ensemble, reduced column block by column block.

    :meth:`add` takes the paths of some columns time-major, (w, M), and
    keeps the last column's values as the finals.  Each block is copied
    into one reused C-ordered (w, M) buffer, so each column's M values lie
    contiguous in realization order whatever the caller's layout, and
    np.add.reduce sums each such row pairwise (an error bound growing as
    log M, not M): first the values for the mean, then, in the same buffer,
    their squared deviations for the variance.  Row i is fixed by (seed, i),
    so the order and every bit are fixed too.
    """

    def __init__(self, m: int, n: int):
        self.mean = np.empty(n)
        self.variance = np.empty(n)
        self.finals = np.empty(m)
        self.buffer = np.empty((_block_width(n, m), m))

    def add(self, paths: np.ndarray, cols: slice) -> None:
        width, m = paths.shape
        block = self.buffer[:width]
        np.copyto(block, paths)
        self.mean[cols] = np.add.reduce(block, axis=1) / m
        np.subtract(block, self.mean[cols, None], out=block)
        np.multiply(block, block, out=block)
        self.variance[cols] = np.add.reduce(block, axis=1) / m
        if cols.stop == len(self.mean):
            self.finals[:] = paths[-1]

    def stats(self) -> EnsembleStats:
        return EnsembleStats(mean=self.mean, variance=self.variance,
                             per_run_finals=self.finals)


def aggregate_paths(grid: TimeGrid, paths: np.ndarray) -> EnsembleStats:
    """Pointwise mean/variance and per-realization final values of an (M, n) path array.

    The statistics of :class:`ColumnMoments` over the pipeline's column
    blocks (:func:`_time_blocks`), as every runner reduces them.  Each block
    goes in as a transposed view, which ColumnMoments copies, so the bits do
    not depend on the memory layout of paths.
    """
    paths = np.asarray(paths, dtype=float)
    if paths.ndim != 2 or paths.shape[1] != grid.n_points:
        raise ValueError(f"paths must be (M, {grid.n_points}), got {paths.shape}")
    moments = ColumnMoments(*paths.shape)
    for cols in _time_blocks(paths.shape[1], paths.shape[0]):
        moments.add(paths[:, cols].T, cols)
    return moments.stats()


def run_white_ensemble(pot: PotentialSpec, gamma: float, grid: TimeGrid, sigma2: float,
                       seed: int, n_realizations: int, x0: float = 0.0, v0: float = 0.0
                       ) -> tuple[EnsembleStats, Trajectory]:
    """M paths of :func:`integrate_white` driven by :func:`ctpsim.noise.white_source`'s rows.

    Streamed by :func:`stream_blocks`: returns the ensemble statistics and
    realization 0's trajectory, each bit for bit those of integrate_white on
    every row reduced by :func:`aggregate_paths`.
    """
    m, n = n_realizations, grid.n_points
    # statistics, realization 0's x and v, and the trajectory's copies of them
    draw_bytes, draw = white_source_bytes(m)
    require_pipeline((m, 1, n), 8 * 6 * n + draw_bytes, f"6 columns of {n} and {draw}")
    stepper = SemiImplicitStepper((m, 1, n), pot, gamma, grid, x0, v0)
    moments = ColumnMoments(m, n)
    x_first, v_first = np.empty(n), np.empty(n)

    def reduce(paths, cols):
        x = paths[:, :, 0]
        x_first[cols] = x[:, 0]
        v_first[cols] = stepper.vs[:len(x), 0, 0]
        moments.add(x, cols)

    stream_blocks(white_source(sigma2, grid, seed, m), stepper, reduce)
    return moments.stats(), Trajectory(grid, x_first, v_first)


def ensemble_run(run_one: Callable[[int], Trajectory], master_seed: int,
                 n_realizations: int) -> EnsembleStats:
    """Run M independent trajectories with seeds derive_seed(master, i), one by one.

    run_one maps a derived seed to a Trajectory.  Results depend only on
    master_seed; integrator failures are re-raised with the offending
    realization index attached.  Ensembles that need speed are streamed as
    one batch by :func:`stream_blocks`.
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
