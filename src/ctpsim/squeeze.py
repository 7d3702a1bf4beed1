"""Closed-form analytics of squeezed and coherent states.

The unstable (inverted) oscillator H = p^2/2m - m w^2 q^2 / 2 squeezes the
vacuum along the phase-space angle phi (default -pi/4).  Everything observable
downstream is a Gaussian-state functional, so states are carried entirely by
Bogolubov coefficients (u, v), coherent amplitudes alpha and 2x2 covariance
matrices; no operator algebra appears anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from .core import NumericalError, TimeGrid, trapezoid_history

if TYPE_CHECKING:  # pragma: no cover
    from .kernels import KernelMatrix

DEFAULT_SQUEEZE_ANGLE = -math.pi / 4.0


@dataclass(frozen=True)
class SqueezeParams:
    """Mass, instability rate, squeeze angle and hbar of the unstable mode."""

    mass: float = 1.0
    omega: float = 1.0
    phi: float = DEFAULT_SQUEEZE_ANGLE
    hbar: float = 1.0

    def __post_init__(self):
        if not self.mass > 0:
            raise ValueError("mass must be positive")
        if not self.omega > 0:
            raise ValueError("omega must be positive")
        if not self.hbar > 0:
            raise ValueError("hbar must be positive")

    @property
    def x_scale_sq(self) -> float:
        """Vacuum position variance hbar / (2 m w)."""
        return self.hbar / (2.0 * self.mass * self.omega)


@dataclass(frozen=True)
class BogolubovCoeffs:
    """Coefficients of the mixed mode b = u a + v a^dagger."""

    u: complex
    v: complex

    @property
    def normalization_defect(self) -> float:
        """|u|^2 - |v|^2 - 1; vanishes for a canonical transformation."""
        return abs(self.u) ** 2 - abs(self.v) ** 2 - 1.0


def bogolubov_coefficients(params: SqueezeParams, t: float) -> BogolubovCoeffs:
    """Mixing coefficients after squeezing for a time t >= 0.

    u = cosh(w t), v = -exp(2 i phi) sinh(w t), so |u|^2 - |v|^2 = 1 exactly.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    wt = params.omega * t
    u = complex(math.cosh(wt))
    v = -np.exp(2j * params.phi) * math.sinh(wt)
    return BogolubovCoeffs(u=u, v=complex(v))


def particle_number(params: SqueezeParams, t: float) -> float:
    """Expectation of the number operator in the squeezed state: sinh^2(w t)."""
    if t < 0:
        raise ValueError("t must be >= 0")
    return math.sinh(params.omega * t) ** 2


def _dimensionless_second_moments(params: SqueezeParams, t: float) -> tuple[float, float, float]:
    """(<Q^2>, <P^2>, <{Q,P}>/2) of the squeezed state in vacuum-unit quadratures.

    From the Bogolubov coefficients: n = |v|^2, c = <a^2> = u v, giving
    <Q^2> = (1 + 2n + 2 Re c)/2 and <P^2> = (1 + 2n - 2 Re c)/2.
    """
    co = bogolubov_coefficients(params, t)
    n = abs(co.v) ** 2
    c = co.u * co.v
    qq = 0.5 * (1.0 + 2.0 * n + 2.0 * c.real)
    pp = 0.5 * (1.0 + 2.0 * n - 2.0 * c.real)
    qp = c.imag
    return qq, pp, qp


def quadrature_variances(params: SqueezeParams, t: float) -> tuple[float, float]:
    """Variances of the rotated quadratures along and against the squeeze angle.

    Returns (var_squeezed, var_antisqueezed) in position units: both equal the
    vacuum variance hbar/(2 m w) at t = 0, then scale as exp(-2 w t) and
    exp(+2 w t).  Their product is conserved (pure Gaussian state).  Where
    either leaves float64, as both do wherever sinh^2(w t) does, it raises
    NumericalError.
    """
    try:
        qq, pp, qp = _dimensionless_second_moments(params, t)
        scale = 2.0 * params.x_scale_sq  # vacuum Q-variance is 1/2
    except ArithmeticError:  # sinh(w t)^2, exp(2 i phi) or hbar / (2 m w) beyond float64
        qq = pp = qp = scale = math.nan
    cos_p, sin_p = math.cos(params.phi), math.sin(params.phi)
    var_along = scale * (cos_p**2 * qq + sin_p**2 * pp + 2.0 * sin_p * cos_p * qp)
    var_across = scale * (sin_p**2 * qq + cos_p**2 * pp - 2.0 * sin_p * cos_p * qp)
    if not (math.isfinite(var_along) and math.isfinite(var_across)):
        raise NumericalError(f"the quadrature variances at t = {t:g} leave float64",
                             ("hbar", "mass", "omega", "phi", "t"))
    return var_along, var_across


def _cos_two_phi(params: SqueezeParams) -> float:
    """cos(2 phi) of the hadamard kernel; NumericalError where 2 phi overflows float64."""
    if not math.isfinite(2.0 * params.phi):
        raise NumericalError(f"phi = {params.phi!r}: 2 phi overflows float64, so the "
                             f"hadamard kernel's cos(2 phi) is undefined", ("phi",))
    return math.cos(2.0 * params.phi)


def commutator_green(params: SqueezeParams, t, t_prime):
    """Coefficient of i in the position commutator expectation.

    (1/2) (m w / 2 hbar)^-1 sinh(w (t - t')): antisymmetric in (t, t'),
    state-independent, and locally linear for small separations.  t and
    t_prime are floats or numpy arrays, which broadcast.
    """
    pref = params.hbar / (params.mass * params.omega)
    return pref * np.sinh(params.omega * (t - t_prime))


def hadamard_green(params: SqueezeParams, t, t_prime):
    """Anticommutator expectation <{x(t), x(t')}> of the squeezed state.

    (1/2)(m w/2 hbar)^-1 (cosh(w(t+t')) - cos(2 phi) sinh(w(t+t'))); the
    cos(2 phi) term drops at the default angle phi = -pi/4.  Symmetric in
    (t, t') and growing in t + t', which is what makes the associated noise
    kernel expand without bound.  t and t_prime broadcast as in
    :func:`commutator_green`.
    """
    pref = params.hbar / (params.mass * params.omega)
    c = _cos_two_phi(params)
    s = params.omega * (t + t_prime)
    return pref * (np.cosh(s) - c * np.sinh(s))


def mode_two_point(params: SqueezeParams) -> Callable:
    """<x(t) x(t')> of the squeezed mode as a complex-valued function.

    Real part is half the anticommutator, imaginary part half the commutator
    (ordering <[x(t'), x(t)]>, matching the retarded kernel convention).
    Useful as input to the contour-matrix builder.
    """

    def f(t, t_prime):
        t = np.asarray(t, dtype=float)
        t_prime = np.asarray(t_prime, dtype=float)
        return (0.5 * hadamard_green(params, t, t_prime)
                - 1j * (0.5 * commutator_green(params, t, t_prime)))

    return f


def coherent_overlap(alpha: complex, beta: complex) -> float:
    """|<alpha|beta>|^2 = exp(-|alpha - beta|^2) for two coherent states."""
    return math.exp(-abs(alpha - beta) ** 2)


def coherent_particle_number(alpha: complex) -> float:
    """Mean occupation |alpha|^2 of a coherent state."""
    return abs(alpha) ** 2


def accumulate_coherent_shift(grid: TimeGrid, response: "KernelMatrix",
                              drive: np.ndarray) -> np.ndarray:
    """Classical shift accumulated by a drive through a retarded response.

    shift_i = sum_{j <= i} w_j Delta(t_i, t_j) xi(t_j) with trapezoidal
    weights w_j.  The drive may be deterministic or a zero-mean random
    sequence; either way the coherent component grows by accumulation.
    """
    if response.kind != "retarded":
        raise ValueError("response kernel must be retarded")
    if response.grid != grid:
        raise ValueError("response kernel grid does not match")
    drive = np.asarray(drive, dtype=float)
    n = grid.n_points
    if drive.shape != (n,):
        raise ValueError(f"drive must have shape ({n},), got {drive.shape}")
    dt = grid.dt
    vals = response.values
    return np.array([trapezoid_history(vals[i], drive, i, dt) for i in range(n)])
