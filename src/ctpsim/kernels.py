"""Discretized closed-time-path Green-function algebra.

Builds the contour propagator matrix from a two-point function, performs the
rotation into (retarded, advanced, symmetric) components, and assembles the
fluctuation and memory kernels that drive the classical dynamics.  All kernels
are dense real matrices on a uniform time grid; the only complex bookkeeping
lives in :class:`ContourMatrix`.  The squeezed-mode noise kernels also have an
exact low-rank factor (:func:`squeezed_factor`) that never forms the matrix.

Convention: the retarded kernel is stored as the *real* response function
(the explicit i of the commutator is absorbed), because the equation of
motion and the noise weights it feeds are manifestly real.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import InitVar, dataclass
from typing import Callable

import numpy as np

from .core import ConfigError, NumericalError, TimeGrid
from .squeeze import SqueezeParams, _cos_two_phi, commutator_green, hadamard_green

RETARDED = "retarded"
ADVANCED = "advanced"
SYMMETRIC = "symmetric"
_KINDS = (RETARDED, ADVANCED, SYMMETRIC)

#: relative tolerance for structural (symmetry) validation
_STRUCT_RTOL = 1e-12


def _require_finite(what: str, grid: TimeGrid, vals: np.ndarray, params=()) -> None:
    """Raise NumericalError naming the first (t, t') where vals is inf or NaN, and params.

    NaN slips through every structural check (comparisons with it are False),
    so it is rejected here before any of them runs.
    """
    bad = ~np.isfinite(vals)
    if bad.any():
        i, j = np.unravel_index(np.argmax(bad), bad.shape)
        t = grid.times()
        raise NumericalError(f"{what} is not finite at (t, t') = ({t[i]:g}, {t[j]:g})", params)


@dataclass(frozen=True)
class KernelMatrix:
    """Dense two-time kernel K(t_i, t_j) on a grid, tagged by causal structure.

    retarded kernels vanish strictly above the diagonal, advanced ones below,
    symmetric ones equal their transpose.  The kernel takes ownership of a
    float64 ``values`` array without copying it and makes it read-only; other
    input is converted to float64.  params, not a field, name the inputs of values.
    """

    grid: TimeGrid
    values: np.ndarray
    kind: str
    params: InitVar[tuple[str, ...]] = ()

    def __post_init__(self, params):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        vals = np.asarray(self.values, dtype=float)
        n = self.grid.n_points
        if vals.shape != (n, n):
            raise ValueError(f"kernel values must be ({n}, {n}), got {vals.shape}")
        _require_finite(f"{self.kind} kernel", self.grid, vals, params)
        if self.kind == RETARDED:
            if np.any(vals[np.triu_indices(n, k=1)] != 0.0):
                raise ValueError("retarded kernel must vanish above the diagonal")
        elif self.kind == ADVANCED:
            if np.any(vals[np.tril_indices(n, k=-1)] != 0.0):
                raise ValueError("advanced kernel must vanish below the diagonal")
        else:
            scale = max(1.0, float(np.max(np.abs(vals))) if vals.size else 1.0)
            if np.max(np.abs(vals - vals.T)) > _STRUCT_RTOL * scale:
                raise ValueError("symmetric kernel deviates from its transpose")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return self.grid.n_points

    def describe(self) -> str:
        """Short stable descriptor of the kernel, for reproducibility records."""
        digest = hashlib.sha1(self.values.tobytes()).hexdigest()[:12]
        return f"{self.kind}[n={self.n},dt={self.grid.dt!r},sha1={digest}]"


@dataclass(frozen=True)
class ContourMatrix:
    """The four contour-ordered blocks of the propagator matrix.

    g_plus[i, j] = <x(t_j) x(t_i)>, g_minus[i, j] = <x(t_i) x(t_j)>, g_f and
    g_fbar are the time- and anti-time-ordered combinations.  The blocks obey
    g_f + g_fbar = g_plus + g_minus identically (ordering identity).
    """

    grid: TimeGrid
    g_f: np.ndarray
    g_plus: np.ndarray
    g_minus: np.ndarray
    g_fbar: np.ndarray

    def __post_init__(self):
        n = self.grid.n_points
        for name in ("g_f", "g_plus", "g_minus", "g_fbar"):
            block = np.array(getattr(self, name), dtype=complex, copy=True)
            if block.shape != (n, n):
                raise ValueError(f"{name} must be ({n}, {n}), got {block.shape}")
            _require_finite(f"contour block {name}", self.grid, block)
            block.setflags(write=False)
            object.__setattr__(self, name, block)
        scale = max(1.0, float(np.max(np.abs(self.g_plus))))
        ident = self.g_f + self.g_fbar - self.g_plus - self.g_minus
        if np.max(np.abs(ident)) > 1e-10 * scale:
            raise ValueError("ordering identity g_f + g_fbar = g_plus + g_minus violated")
        if np.max(np.abs(self.g_plus - self.g_minus.T)) > 1e-10 * scale:
            raise ValueError("g_plus and g_minus are not transposes of each other")


@dataclass(frozen=True)
class DeSitterParams:
    """Hubble rate, comoving wavenumber and coupling of one inflationary mode."""

    hubble: float
    k: float
    coupling: float
    background: float  # field amplitude phi_0

    def __post_init__(self):
        if not 0 < self.hubble < math.inf:
            raise ValueError("hubble rate must be positive")
        if not 0 < self.k < math.inf:
            raise ValueError("wavenumber k must be positive")
        if not 0 <= self.coupling < math.inf:
            raise ValueError("coupling must be >= 0")


def _lower_mask(n: int) -> np.ndarray:
    return np.tril(np.ones((n, n), dtype=bool))


def build_retarded(params: SqueezeParams, grid: TimeGrid) -> KernelMatrix:
    """Retarded response of the unstable mode: (hbar/m w) sinh(w (t - t')) for t >= t'.

    Vanishing diagonal, strictly lower-triangular support; linear in t - t'
    for small separations (milder IR behavior than the symmetric kernel).
    """
    t = grid.times()
    with np.errstate(over="ignore"):  # KernelMatrix rejects inf
        vals = np.where(_lower_mask(grid.n_points),
                        commutator_green(params, t[:, None], t[None, :]), 0.0)
    return KernelMatrix(grid, vals, RETARDED, ("hbar", "mass", "omega", "grid"))


def build_hadamard(params: SqueezeParams, grid: TimeGrid) -> KernelMatrix:
    """Symmetric (anticommutator) kernel of the squeezed mode.

    (hbar/m w)(cosh(w(t+t')) - cos(2 phi) sinh(w(t+t'))).  By the addition
    identities this is a sum of two outer products, hence positive
    semidefinite with numerical rank <= 2 on any grid.
    """
    t = grid.times()
    with np.errstate(over="ignore", invalid="ignore"):  # KernelMatrix rejects inf/NaN
        vals = hadamard_green(params, t[:, None], t[None, :])
    return KernelMatrix(grid, vals, SYMMETRIC, ("hbar", "mass", "omega", "phi", "grid"))


def build_contour_matrix(mode_two_point: Callable, grid: TimeGrid) -> ContourMatrix:
    """Assemble the contour blocks from a two-point function <x(t) x(t')>.

    The callable may be scalar or vectorized; it is evaluated on the full
    (t_i, t_j) product grid.  Time ordering places the later argument left,
    anti-time ordering the earlier one.
    """
    t = grid.times()
    f = np.vectorize(mode_two_point, otypes=[complex])
    ti, tj = np.meshgrid(t, t, indexing="ij")
    f_ij = f(ti, tj)       # <x(t_i) x(t_j)>
    f_ji = f_ij.T          # <x(t_j) x(t_i)>, same evaluations transposed
    later_i = ti >= tj
    g_minus = f_ij
    g_plus = f_ji
    g_f = np.where(later_i, f_ij, f_ji)
    g_fbar = np.where(later_i, f_ji, f_ij)
    return ContourMatrix(grid, g_f=g_f, g_plus=g_plus, g_minus=g_minus, g_fbar=g_fbar)


def keldysh_rotate(cm: ContourMatrix) -> tuple[KernelMatrix, KernelMatrix, KernelMatrix, float]:
    """Rotate contour blocks into (G_R, G_A, G_C) plus the vanishing-block residual.

    G_R[i, j] = theta(t_i - t_j) * (coefficient of i in the commutator
    expectation), G_A is its exact transpose, G_C the anticommutator.  The
    residual is the max-norm of the rotated block that must cancel by the
    ordering identity; it is an exact algebraic zero for any valid input.
    """
    n = cm.grid.n_points
    comm = cm.g_plus - cm.g_minus          # 2i Im <x(t_j) x(t_i)>
    retarded_vals = np.where(_lower_mask(n), comm.imag, 0.0)
    g_r = KernelMatrix(cm.grid, retarded_vals, RETARDED)
    g_a = KernelMatrix(cm.grid, retarded_vals.T, ADVANCED)
    g_c = KernelMatrix(cm.grid, (cm.g_plus + cm.g_minus).real, SYMMETRIC)
    zero_block = 0.25 * (cm.g_f + cm.g_fbar - cm.g_plus - cm.g_minus)
    residual = float(np.max(np.abs(zero_block)))
    return g_r, g_a, g_c, residual


def elementwise_power(kernel: KernelMatrix, p: int) -> KernelMatrix:
    """Entrywise p-th power of a symmetric kernel (Hadamard product power).

    These powers arise from propagator products at coincident time pairs in
    loop terms, not from operator composition; symmetry and (by the Schur
    product theorem) positive semidefiniteness survive.
    """
    if kernel.kind != SYMMETRIC:
        raise ValueError("elementwise power requires a symmetric kernel")
    if int(p) != p or p < 1:
        raise ValueError("power must be an integer >= 1")
    return KernelMatrix(kernel.grid, kernel.values ** int(p), SYMMETRIC)


def fluctuation_kernel(coupling: float, g_c: KernelMatrix) -> KernelMatrix:
    """Combined noise kernel lambda^2 (G_C + G_C^2 + G_C^3), powers entrywise.

    All loop orders interfere, so there is a single random field with this
    one covariance rather than separate noises per term.
    """
    if g_c.kind != SYMMETRIC:
        raise ValueError("fluctuation kernel requires a symmetric input")
    v = g_c.values
    with np.errstate(over="ignore", invalid="ignore"):  # KernelMatrix rejects inf/NaN
        vals = coupling**2 * (v + v**2 + v**3)
    return KernelMatrix(g_c.grid, vals, SYMMETRIC, ("coupling", "g_c"))


def squeezed_factor(params: SqueezeParams, grid: TimeGrid,
                    coupling: float | None = None) -> np.ndarray:
    """Exact (n, r) factor F of a squeezed-mode noise kernel, F F^T = kernel.

    With c = cos(2 phi), A = pref (1 - c)/2 and B = pref (1 + c)/2 the hadamard
    kernel is A e^{w(t+t')} + B e^{-w(t+t')}: rank 2.  Entrywise powers of a
    low-rank kernel are the face-splitting powers of its factor, so the
    fluctuation kernel lam^2 (G_C + G_C^2 + G_C^3) is
    sum_{k=-3..3} c_k e^{kwt} e^{kwt'} with every c_k >= 0: rank <= 7.
    Column k of F is sqrt(c_k) e^{kwt}, in the fixed order k = 3, ..., -3;
    columns with c_k = 0 are dropped (at c = +-1 the hadamard factor has
    rank 1).  coupling None gives the hadamard kernel, a number the
    fluctuation kernel with that coupling.  Unlike an eigendecomposition of
    the dense kernel this keeps the decaying modes however far the growing
    ones outrun them, and it costs O(n r) memory.  An infinite coefficient
    is a NumericalError naming it, before any column is formed.
    """
    pref = params.hbar / (params.mass * params.omega)
    c = _cos_two_phi(params)
    a = 0.5 * pref * (1.0 - c)
    b = 0.5 * pref * (1.0 + c)
    inputs = ("hbar", "mass", "omega") + (("coupling",) if coupling is not None else ())
    overflow = "noise kernel overflows float64: {} is inf"
    if coupling is None:
        coeffs = {1: a, -1: b}
    else:
        try:
            lam2 = coupling**2
            coeffs = {3: a**3, 2: a**2, 1: a + 3.0 * a * a * b, 0: 2.0 * a * b,
                      -1: b + 3.0 * a * b * b, -2: b**2, -3: b**3}
        except OverflowError as err:  # a float's ** raises where * gives inf
            raise NumericalError(overflow.format("a power of the coupling or of "
                                                 "hbar / (m w)"), inputs) from err
        coeffs = {k: lam2 * ck for k, ck in coeffs.items()}
    kept = [(k, ck) for k, ck in coeffs.items() if ck > 0.0]
    if not kept:
        raise ConfigError("rank-0 noise: every coefficient of the kernel vanishes", inputs)
    infinite = [k for k, ck in kept if math.isinf(ck)]
    if infinite:
        raise NumericalError(overflow.format(
            "hbar / (m w)" if math.isinf(pref) else
            f"the coefficient of e^({infinite[0]} w (t + t'))"), inputs)
    t = grid.times()
    wt = params.omega * t
    with np.errstate(over="ignore"):
        factor = np.stack([math.sqrt(ck) * np.exp(k * wt) for k, ck in kept], axis=1)
    bad = ~np.isfinite(factor).all(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        raise NumericalError(
            f"noise factor overflows at t = {t[i]:g} (w t = {wt[i]:g}, "
            f"e^(k w t) for |k| <= {max(abs(k) for k, _ in kept)}); shorten the grid",
            ("omega", "grid"))
    return factor


def memory_kernel(coupling: float, g_r: KernelMatrix, g_c: KernelMatrix) -> KernelMatrix:
    """Retarded memory kernel 2 G_R(t,t') (1 + lambda^2 G_C(t,t')^2).

    Entrywise composition; the retarded support of G_R carries over since the
    correction factor only multiplies it.
    """
    if g_r.kind != RETARDED:
        raise ValueError("memory kernel requires a retarded G_R")
    if g_c.kind != SYMMETRIC:
        raise ValueError("memory kernel requires a symmetric G_C")
    if g_r.grid != g_c.grid:
        raise ValueError("G_R and G_C live on different grids")
    with np.errstate(over="ignore", invalid="ignore"):  # KernelMatrix rejects inf/NaN
        vals = 2.0 * g_r.values * (1.0 + coupling**2 * g_c.values**2)
    return KernelMatrix(g_r.grid, vals, RETARDED, ("coupling", "g_r", "g_c"))


def desitter_hadamard(dp: DeSitterParams, eta: float, eta_prime: float) -> float:
    """Fluctuation kernel of one de Sitter mode at conformal times (eta, eta').

    (H^2/k^3) ((1 + k^2 eta eta') cos(k eta) + k eta sin(k eta)), implemented
    exactly as printed (eta enters the trig arguments, eta' only the product).
    The superhorizon limit eta, eta' -> 0^- is H^2/k^3.

    The printed form is not symmetric in (eta, eta').  The mode kernel
    (H^2/k^3) Re[u(eta) u*(eta')] with u = (1 + i k eta) e^{-i k eta} is
    (H^2/k^3) ((1 + k^2 eta eta') cos(k (eta - eta')) + k (eta - eta') sin(k (eta - eta'))),
    and the printed form equals its value at eta' = 0 plus
    (H^2/k^3) k^2 eta eta' cos(k eta).
    """
    k = dp.k
    x = k * eta
    return (dp.hubble**2 / k**3) * ((1.0 + k * k * eta * eta_prime) * math.cos(x)
                                    + x * math.sin(x))


def desitter_factor(dp: DeSitterParams, grid: TimeGrid) -> np.ndarray:
    """Exact (n, 2) factor F of one de Sitter mode's kernel on the grid, F F^T = kernel.

    On conformal time eta(t) = -e^{-H t}/H, with x = k eta, the columns are
    (H/k^{3/2}) (cos x + x sin x) and (H/k^{3/2}) (x cos x - sin x), that is
    (H/k^{3/2}) (Re u, Im u) with u = (1 + i k eta) e^{-i k eta}.  So F F^T is
    the symmetric mode kernel (H^2/k^3) Re[u(eta) u*(eta')] of
    :func:`desitter_hadamard`'s docstring, and each column tends to its
    superhorizon limit (H/k^{3/2}, 0) as eta -> 0^-.
    """
    t = grid.times()
    with np.errstate(over="ignore", invalid="ignore"):
        x = -(dp.k / dp.hubble) * np.exp(-dp.hubble * t)
        cos, sin = np.cos(x), np.sin(x)
        factor = (dp.hubble / dp.k**1.5) * np.stack([cos + x * sin, x * cos - sin], axis=1)
    bad = ~np.isfinite(factor).all(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        raise NumericalError(f"de Sitter mode factor of k = {dp.k:g} is not finite at "
                             f"t = {t[i]:g} (k eta = {x[i]:g}); start the grid later",
                             ("k", "hubble", "grid"))
    return factor


def psd_factor(kernel: KernelMatrix, clip_tol: float) -> np.ndarray:
    """Factor F of shape (n, rank) with F F^T = kernel after eigenvalue clipping.

    The symmetric eigendecomposition keeps the eigenvalues w > clip_tol *
    lambda_max, which stays robust on rank-deficient kernels (the rank-2
    hadamard kernel) where plain triangular factorization would fail.  A
    negative eigenvalue beyond clip_tol * lambda_max is a NumericalError, and
    a kernel that keeps no eigenvalue is rank-0 noise, a ConfigError.
    """
    if kernel.kind != SYMMETRIC:
        raise ValueError("noise factorization requires a symmetric kernel")
    w, vecs = np.linalg.eigh(kernel.values)
    w_max = max(float(w[-1]), 0.0)
    if float(w[0]) < -clip_tol * w_max:
        raise NumericalError(
            f"kernel has negative eigenvalue {w[0]:.3e} beyond clip tolerance "
            f"{clip_tol:.1e} * lambda_max ({w_max:.3e})"
        )
    keep = w > clip_tol * w_max
    if not keep.any():
        raise ConfigError(f"rank-0 noise: no eigenvalue of the kernel exceeds clip "
                          f"tolerance {clip_tol:.1e} * lambda_max ({w_max:.3e})")
    return vecs[:, keep] * np.sqrt(w[keep])


def psd_project(kernel: KernelMatrix, tol: float) -> tuple[KernelMatrix, int]:
    """The kernel as F F^T over :func:`psd_factor`, and the clip count n - rank.

    A kernel that clips nothing is returned as is with zero clips.  The clip
    rule is the one the colored-noise sampler draws with, so the projection
    is the covariance that noise has.
    """
    factor = psd_factor(kernel, tol)
    n_clipped = kernel.n - factor.shape[1]
    if n_clipped == 0:
        return kernel, 0
    return KernelMatrix(kernel.grid, factor @ factor.T, SYMMETRIC), n_clipped
