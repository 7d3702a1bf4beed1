"""Gaussian noise on a time grid: white, and colored with prescribed covariance.

Colored noise is drawn over a factor F with F F^T = covariance
(:func:`draw_from_factor`).  For a kernel known only as a dense matrix the
factor comes from a clipped symmetric eigendecomposition
(:func:`ctpsim.kernels.psd_factor`); the squeezed-mode kernels of the
scenarios have an exact closed-form factor instead
(:func:`ctpsim.kernels.squeezed_factor`).
:func:`hs_moment_check` is the operational statement of the noise
factorization: averaging exp(i xi . v) over the ensemble must reproduce
exp(-v^T K v / 2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

from .core import NumericalError, TimeGrid, derive_seed, derive_seeds
from .kernels import KernelMatrix, psd_factor

DEFAULT_CLIP_TOL = 1e-10

#: float64 values per row block of draw_from_factor's accumulation (128 KB)
_DRAW_BLOCK_VALUES = 16384


@dataclass(frozen=True)
class NoiseEnsemble:
    """Seeded realizations of a Gaussian process; rows are realizations.

    Regeneration from (seed, covariance_ref, grid) is bit-exact: realization i
    is drawn from its own generator seeded with derive_seed(seed, i), so row i
    depends only on (seed, i, k) for k normals per row, and growing M only
    appends rows.

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


# numpy's SeedSequence hash: O'Neill's seed_seq_fe with a pool of four 32-bit
# words (M. E. O'Neill, "PCG: A Family of Simple Fast Space-Efficient
# Statistically Good Algorithms for Random Number Generation", 2014)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)


def _hash_constants(init: int, mult: int, count: int) -> list[np.uint32]:
    """init * mult^j mod 2^32 for j = 0..count: the hash constant before each use."""
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & _MASK32)
    return [np.uint32(c) for c in out]


# 4 pool fills + 12 cross-mixes use the A constants; 8 output words the B ones
_HASH_A = _hash_constants(_INIT_A, _MULT_A, 16)
_HASH_B = _hash_constants(_INIT_B, _MULT_B, 8)

#: rows per block of _standard_normals' seed hashing (~1 MB of temporaries)
_SEED_BLOCK_ROWS = 4096


def _seed_words(seeds: np.ndarray) -> np.ndarray:
    """(M, 4) uint64: row i equals SeedSequence(seeds[i]).generate_state(4, np.uint64).

    numpy's SeedSequence hashes the 32-bit words of its entropy into a pool of
    four words and hashes the pool out again; every hash constant follows a
    fixed sequence, so the whole computation runs on uint32 arrays over all
    rows at once.  A 64-bit seed's entropy is [lo32, hi32]; numpy keeps only
    [lo32] when hi32 is 0, and the pool pads with zero words either way.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    lo = (seeds & np.uint64(_MASK32)).astype(np.uint32)
    hi = (seeds >> np.uint64(32)).astype(np.uint32)
    consts = iter(zip(_HASH_A, _HASH_A[1:]))

    def hashmix(value):
        xor_const, mult_const = next(consts)
        value = value ^ xor_const
        value *= mult_const
        value ^= value >> _XSHIFT
        return value

    zero = np.zeros_like(lo)
    pool = [hashmix(word) for word in (lo, hi, zero, zero)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * hashmix(pool[src])
                mixed ^= mixed >> _XSHIFT
                pool[dst] = mixed
    state = np.empty((seeds.shape[0], 8), dtype="<u4")
    for j in range(8):
        word = pool[j % 4] ^ _HASH_B[j]
        word *= _HASH_B[j + 1]
        word ^= word >> _XSHIFT
        state[:, j] = word
    # consecutive 32-bit words pair little-endian into 64-bit ones, as in numpy
    return state.view("<u8").astype(np.uint64)


class _Words(ISeedSequence):
    """Precomputed SeedSequence output for one generator, handed to PCG64 as is."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise NumericalError(
                f"numpy {np.__version__} asked the seeding of PCG64 for {n_words} words "
                f"of {np.dtype(dtype)}; ctpsim precomputes 4 uint64 words")
        return self.words


def _standard_normals(seed: int, n_realizations: int, k: int) -> np.ndarray:
    """(M, k) standard normals: row i is drawn by default_rng(derive_seed(seed, i)).

    The one place a generator is built: every random stream of the package is
    these rows, so row i depends only on (seed, i, k), never on M.  The
    SeedSequence words of all rows are hashed in blocks by :func:`_seed_words`
    and handed to PCG64, which seeds itself from them; the first and last rows
    are then redrawn through default_rng, and any difference (numpy changed
    its seeding) is a NumericalError, never a silent change of streams.
    """
    rows = np.empty((n_realizations, k))
    seeds = derive_seeds(seed, n_realizations)
    for start in range(0, n_realizations, _SEED_BLOCK_ROWS):
        words = _seed_words(seeds[start:start + _SEED_BLOCK_ROWS])
        for row, row_words in zip(rows[start:start + _SEED_BLOCK_ROWS], words):
            Generator(PCG64(_Words(row_words))).standard_normal(out=row)
    for i in sorted({0, n_realizations - 1}):
        expected = np.random.default_rng(derive_seed(seed, i)).standard_normal(k)
        if rows[i].tobytes() != expected.tobytes():
            raise NumericalError(
                f"row {i} of seed {seed} differs from default_rng(derive_seed(seed, {i})): "
                f"numpy {np.__version__} no longer seeds generators as ctpsim assumes")
    return rows


def draw_white(sigma2: float, grid: TimeGrid, seed: int, n_realizations: int) -> np.ndarray:
    """The (M, n) realizations of :func:`sample_white` as a writable array the caller owns.

    The ensemble runners step their noise in place (it becomes the path
    array), so they take the rows without the read-only NoiseEnsemble.
    """
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive")
    if n_realizations < 1:
        raise ValueError("n_realizations must be >= 1")
    rows = _standard_normals(seed, n_realizations, grid.n_points)
    rows *= np.sqrt(sigma2 / grid.dt)
    return rows


def sample_white(sigma2: float, grid: TimeGrid, seed: int, n_realizations: int) -> NoiseEnsemble:
    """Delta-correlated noise: i.i.d. Gaussians with per-sample variance sigma2/dt.

    The 1/dt restores <xi(t) xi(t')> = sigma2 delta(t - t') under trapezoidal
    quadrature on the grid.
    """
    return NoiseEnsemble(grid, draw_white(sigma2, grid, seed, n_realizations), seed,
                         covariance_ref=f"white[sigma2={sigma2!r}]")


def draw_from_factor(factor: np.ndarray, seed: int, n_realizations: int) -> np.ndarray:
    """(M, n) Gaussian rows F z_i with covariance F F^T, for a factor F of shape (n, r).

    z_i is row i of :func:`_standard_normals` with k = r.  Rows are
    accumulated as sum_k z[:, k] F[:, k] in column order with elementwise
    operations, not a matrix product whose blocking may depend on M, so row i
    is bit-identical for every ensemble size and a larger ensemble only
    appends rows.  The sum runs over blocks of rows that fit in cache
    (_DRAW_BLOCK_VALUES values); the per-element order is the same.
    """
    if n_realizations < 1:
        raise ValueError("n_realizations must be >= 1")
    n, rank = factor.shape
    z = _standard_normals(seed, n_realizations, rank)
    columns = np.ascontiguousarray(factor.T)
    rows = np.zeros((n_realizations, n))
    block = max(1, _DRAW_BLOCK_VALUES // n)
    term = np.empty((min(block, n_realizations), n))
    for start in range(0, n_realizations, block):
        acc = rows[start:start + block]
        tmp = term[:acc.shape[0]]
        for k in range(rank):
            np.multiply(z[start:start + block, k, None], columns[k], out=tmp)
            acc += tmp
    return rows


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
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (kernel.n,):
        raise ValueError(f"v must have shape ({kernel.n},), got {v.shape}")
    ens = sample_colored(kernel, seed, n_realizations, clip_tol)
    mc = complex(np.mean(np.exp(1j * (ens.realizations @ v))))
    analytic = float(np.exp(-0.5 * v @ kernel.values @ v))
    return mc, analytic
