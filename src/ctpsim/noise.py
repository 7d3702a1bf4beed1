"""Gaussian noise on a time grid: white, and colored with prescribed covariance.

Colored noise is drawn over a factor F with F F^T = covariance
(:func:`draw_from_factor`).  The squeezed-mode kernels, which the scenarios
and the ``noise`` subcommand sample, have an exact closed-form factor
(:func:`ctpsim.kernels.squeezed_factor`); for a kernel known only as a dense
matrix (:func:`sample_colored`) the factor comes from a clipped symmetric
eigendecomposition (:func:`ctpsim.kernels.psd_factor`).
The ensemble runners never hold a whole noise array: :func:`white_source`
and :func:`factor_source` fill the next block of grid columns of every row
into a time-major (w, M) buffer the caller reuses, with the bits of the
whole draw.  Every normal of the package comes from this module, in row
groups of 64 whose time-major blocks give row i column i mod 64 of its
group's block, by one of two rules, each coded once.  The white rule
(:func:`_fill_normals`) keeps one generator per group, because it draws the
grid block by block; the factor rule (:func:`_factor_normals`) takes the
groups' blocks one after another from group 0's generator, and feeds both a
whole factor draw (:func:`_standard_normals`) and :func:`hs_moment_check`.
:func:`hs_moment_check` is the operational statement of the noise
factorization: averaging exp(i xi . v) over the ensemble must reproduce
exp(-v^T K v / 2); it forms only the projections xi . v = z . (F^T v) of the
rows, never the rows, and takes their normals a draw call at a time from the
factor rule, with the bits of the whole draw.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import TimeGrid, derive_seed, require_memory
from .kernels import KernelMatrix, psd_factor

DEFAULT_CLIP_TOL = 1e-10

#: float64 values per block of a draw (128 KB): a row group's (256, 64)
#: normals, and the tiles of factor_source's accumulation
_DRAW_BLOCK_VALUES = 16384
#: rows per row group; group g holds rows [64 g, 64 g + 64) in one block
_GROUP_ROWS = 64
#: float64 values a call of a whole factor draw takes at most (32 KB): the
#: temporary it holds beside the normals, which the callers' budgets leave out
_FACTOR_DRAW_VALUES = 4096


@dataclass(frozen=True)
class NoiseEnsemble:
    """Seeded realizations of a Gaussian process; rows are realizations.

    Regeneration from (seed, covariance_ref, grid) is bit-exact: realization i
    is column i mod 64 of row group i // 64's block of normals, a white row
    from that group's own generator (:func:`_fill_normals`), a factor row
    from the group's place in one stream (:func:`_factor_normals`).  Either
    way row i depends only on (seed, i, k) for k normals per row, and growing
    M only appends rows.

    The ensemble takes ownership of a float64 ``realizations`` array without
    copying it and makes it read-only; other input is converted to float64.
    """

    grid: TimeGrid
    realizations: np.ndarray
    seed: int
    covariance_ref: str

    def __post_init__(self):
        arr = np.asarray(self.realizations, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != self.grid.n_points:
            raise ValueError(
                f"realizations must be (M, {self.grid.n_points}), got {arr.shape}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "realizations", arr)

    @property
    def n_realizations(self) -> int:
        return self.realizations.shape[0]


def white_source_bytes(n_realizations: int) -> tuple[int, str]:
    """Bytes :func:`white_source` holds for M rows beside the caller's, and what they are.

    1 KB per row group's generator (PCG64 and Generator: 0.93 KB measured)
    and one call's _DRAW_BLOCK_VALUES normals.
    """
    groups = -(-n_realizations // _GROUP_ROWS)
    return (1024 * groups + 8 * _DRAW_BLOCK_VALUES,
            f"{groups} row groups' generators and {_DRAW_BLOCK_VALUES} drawn normals")


def _fill_normals(rows: np.ndarray, generators) -> None:
    """Fill each row of the time-major rows (w, M) with its next w normals: the white rule.

    Row group g draws from generators[g], (c, 64) normals per call with
    c <= 256, into c time rows of its 64 columns; the last group's padding
    columns are dropped.  So the t-th normal of row i is normal
    64 t + (i mod 64) of its group's stream, and any split of the w time rows
    gives the same bits (numpy draws normals one after another).
    """
    width, columns = rows.shape[0], _DRAW_BLOCK_VALUES // _GROUP_ROWS
    for first, generator in zip(range(0, rows.shape[1], _GROUP_ROWS), generators):
        group = rows[:, first:first + _GROUP_ROWS]
        for start in range(0, width, columns):
            draws = generator.standard_normal((min(columns, width - start), _GROUP_ROWS))
            group[start:start + draws.shape[0]] = draws[:, :group.shape[1]]


def _factor_normals(seed: int, n_realizations: int, k: int):
    """Yield (first, z): the (k, w) normals of rows first .. first + w - 1, the factor rule.

    Every group draws from one generator, default_rng(derive_seed(seed, 0)),
    so the groups' (k, 64) blocks come one after another from its stream:
    rows 0-63 are those of one generator per group, and row i depends only on
    (seed, i, k).  Each chunk is one draw call of as many whole groups as
    _FACTOR_DRAW_VALUES holds (a block with k > 256 is drawn in calls of 256
    rows), the last group's padding dropped; its lines z[j] are contiguous.
    """
    generator = np.random.default_rng(derive_seed(seed, 0))
    span = _GROUP_ROWS * max(1, _FACTOR_DRAW_VALUES // (_GROUP_ROWS * max(k, 1)))
    columns = _DRAW_BLOCK_VALUES // _GROUP_ROWS
    for first in range(0, n_realizations, span):
        width = min(span, n_realizations - first)
        count = -(-width // _GROUP_ROWS)
        block = np.empty((count, k, _GROUP_ROWS))
        for start in range(0, k, columns):  # count > 1 only where k <= 32: one call
            generator.standard_normal(out=block[:, start:start + columns])
        yield first, block.transpose(1, 0, 2).reshape(k, count * _GROUP_ROWS)[:, :width]


def _standard_normals(seed: int, n_realizations: int, k: int) -> np.ndarray:
    """(M, k) standard normals: the first k normals of each row by :func:`_factor_normals`.

    Filled into a time-major (k, M) array and returned as its transposed
    view, in which normal k of every row is one contiguous line, as
    factor_source and run_inflation read them.
    """
    rows = np.empty((k, n_realizations))
    for first, z in _factor_normals(seed, n_realizations, k):
        rows[:, first:first + z.shape[1]] = z
    return rows.T


def white_source(sigma2: float, grid: TimeGrid, seed: int, n_realizations: int):
    """fill(rows, start) writing the columns start.. of M white-noise rows into rows.

    Row i is the n normals of :func:`_fill_normals`' white rule, one
    generator per group, times sqrt(sigma2/dt).  rows is time-major, (w, M);
    successive calls continue each row's stream, so filling the columns of
    the grid block by block gives the bits of one whole draw.  The
    generators of the ceil(M/64) row groups are kept between calls.
    """
    if not sigma2 > 0:
        raise ValueError("sigma2 must be positive")
    if n_realizations < 1:
        raise ValueError("n_realizations must be >= 1")
    generators = [np.random.default_rng(derive_seed(seed, g))
                  for g in range(-(-n_realizations // _GROUP_ROWS))]
    scale = np.sqrt(sigma2 / grid.dt)

    def fill(rows: np.ndarray, start: int = 0) -> None:
        _fill_normals(rows, generators)
        rows *= scale
    return fill


def sample_white(sigma2: float, grid: TimeGrid, seed: int, n_realizations: int) -> NoiseEnsemble:
    """Delta-correlated noise: i.i.d. Gaussians with per-sample variance sigma2/dt.

    The 1/dt restores <xi(t) xi(t')> = sigma2 delta(t - t') under trapezoidal
    quadrature on the grid.  The rows are those of :func:`white_source`, which
    the ensemble runners draw block by block.
    """
    fill = white_source(sigma2, grid, seed, n_realizations)
    rows = np.empty((n_realizations, grid.n_points))
    fill(rows.T)
    return NoiseEnsemble(grid, rows, seed, covariance_ref=f"white[sigma2={sigma2!r}]")


def factor_source(factor: np.ndarray, seed: int, n_realizations: int):
    """fill(rows, start) writing the columns start.. of :func:`draw_from_factor`'s rows into rows.

    z is drawn once here, from one generator (:func:`_standard_normals`);
    each call sums 0 + z[:, k] F[start + t, k] over the rank in k order
    into time row t of the time-major rows (w, M), one tile at a time.
    A tile holds at most _DRAW_BLOCK_VALUES values (128 KB, in cache): as
    many whole time rows as fit, or pieces of one time row where M is
    larger.  Every value is the same elementwise sum whatever the tiles, so
    filling the grid block by block gives the bits of one whole draw.
    """
    if n_realizations < 1:
        raise ValueError("n_realizations must be >= 1")
    _, rank = factor.shape
    z = _standard_normals(seed, n_realizations, rank).T
    columns = np.ascontiguousarray(factor.T)

    def fill(rows: np.ndarray, start: int = 0) -> None:
        width = rows.shape[0]
        wide = min(n_realizations, _DRAW_BLOCK_VALUES)
        tall = _DRAW_BLOCK_VALUES // wide
        term = np.empty((min(tall, width), wide))
        for t0 in range(0, width, tall):
            f = columns[:, start + t0:start + min(width, t0 + tall), None]
            for c0 in range(0, n_realizations, wide):
                acc = rows[t0:t0 + tall, c0:c0 + wide]
                tmp = term[:acc.shape[0], :acc.shape[1]]
                acc[...] = 0.0
                for k in range(rank):
                    np.multiply(f[k], z[k, c0:c0 + wide], out=tmp)
                    acc += tmp
    return fill


def draw_from_factor(factor: np.ndarray, seed: int, n_realizations: int) -> np.ndarray:
    """(M, n) Gaussian rows F z_i with covariance F F^T, for a factor F of shape (n, r).

    z_i is row i of :func:`_standard_normals` with k = r: column i mod 64
    of the (r, 64) block that row group i // 64 takes from one stream.  z
    does not depend on n, so a grid and its refinement with the same seed
    share the noise on their common points.  Rows are accumulated as
    sum_k z[:, k] F[:, k] in column order with elementwise operations
    (:func:`factor_source`), not a matrix product whose blocking may depend
    on M, so row i is bit-identical for every ensemble size and a larger
    ensemble only appends rows.  They are filled time-major, as the
    pipeline's blocks are, and returned as a C-ordered copy of the
    transpose, made once z is freed: a column reduction over the rows (the
    ``noise`` summary's) then sums them in realization order.
    """
    rows = np.empty((factor.shape[0], n_realizations))
    factor_source(factor, seed, n_realizations)(rows)
    return np.ascontiguousarray(rows.T)


def sample_colored(kernel: KernelMatrix, seed: int, n_realizations: int,
                   clip_tol: float = DEFAULT_CLIP_TOL) -> NoiseEnsemble:
    """Gaussian process with covariance equal to the given symmetric kernel.

    Realization i is F z_i over the factor F of :func:`ctpsim.kernels.psd_factor`
    (z_i standard normal in the kept eigenspace); the ensemble covariance
    converges to the kernel at the 1/sqrt(M) rate.  Indefiniteness beyond
    clip_tol is an error, not a silent repair, and so is rank-0 noise.
    """
    rows = draw_from_factor(psd_factor(kernel, clip_tol), seed, n_realizations)
    return NoiseEnsemble(kernel.grid, rows, seed, covariance_ref=kernel.describe())


def hs_moment_check(kernel: KernelMatrix, v: np.ndarray, n_realizations: int,
                    seed: int, clip_tol: float = DEFAULT_CLIP_TOL) -> tuple[complex, float]:
    """Monte Carlo characteristic function of the noise against its Gaussian value.

    Returns (mean of exp(i xi . v) over the ensemble, exp(-v^T K v / 2)).
    Agreement within the Monte Carlo tolerance validates that taking the noise
    covariance equal to the fluctuation kernel reproduces the imaginary
    quadratic term the noise was factored out of.

    The rows xi_i = F z_i of :func:`sample_colored` are not formed: xi_i . v
    = z_i . p with p = F^T v.  The check takes the same rows' normals z as
    :func:`_standard_normals`, a chunk of :func:`_factor_normals` at a time,
    and sums each chunk's phases z_i . p in k order into its slice of one
    (M,) buffer, with elementwise operations as :func:`factor_source` sums
    the rows.  The phases and one cos/sin buffer stay whole, so each mean is
    one reduction over M values.  It holds 2 values a row and one chunk of
    max(_FACTOR_DRAW_VALUES, 64 r) normals (32 KB at r = 2); once the factor
    gives r, that peak is checked against physical memory before any draw, a
    ConfigError naming n_realizations.  The draw call's temporary is left
    out, as in every factor draw's budget.
    """
    if n_realizations < 1:
        raise ValueError("n_realizations must be >= 1")
    v = np.asarray(v, dtype=float)
    if v.shape != (kernel.n,):
        raise ValueError(f"v must have shape ({kernel.n},), got {v.shape}")
    factor = psd_factor(kernel, clip_tol)
    p = [np.add.reduce(column * v) for column in factor.T]
    normals = max(_FACTOR_DRAW_VALUES, _GROUP_ROWS * len(p))
    require_memory(8 * (2 * n_realizations + normals),
                   f"Hubbard-Stratonovich phases and buffer ({n_realizations},) "
                   f"and {normals} normals", ("n_realizations",))
    phases, term = np.zeros(n_realizations), np.empty(n_realizations)
    for first, z in _factor_normals(seed, n_realizations, len(p)):
        rows, scratch = phases[first:first + z.shape[1]], term[first:first + z.shape[1]]
        for z_k, p_k in zip(z, p):
            rows += np.multiply(z_k, p_k, out=scratch)
    real = np.add.reduce(np.cos(phases, out=term)) / n_realizations
    imag = np.add.reduce(np.sin(phases, out=phases)) / n_realizations
    analytic = float(np.exp(-0.5 * v @ kernel.values @ v))
    return complex(real, imag), analytic
