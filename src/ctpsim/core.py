"""Time grids, deterministic seed derivation and the trapezoidal history sum.

Everything downstream (kernels, noise ensembles, trajectories) lives on a
uniform :class:`TimeGrid`; reproducibility rests on :func:`derive_seed`.
"""

from __future__ import annotations

import numbers
import os
from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15  # splitmix64 golden-ratio increment


class _NamesParams:
    """An error whose params name the inputs it comes from, as the library names them."""

    def __init__(self, message: str, params: tuple[str, ...] = ()):
        super().__init__(message)
        self.params = params


class ConfigError(_NamesParams, ValueError):
    """Configuration missing, malformed, violating the schema, or describing a degenerate run."""


class NumericalError(_NamesParams, RuntimeError):
    """A simulation failed numerically (divergence, indefinite kernel, ...)."""


class DivergenceError(NumericalError):
    """A trajectory left the admissible range; carries where it happened."""

    def __init__(self, message: str, step: int | None = None,
                 realization: int | None = None, params: tuple[str, ...] = ()):
        super().__init__(message, params)
        self.step = step
        self.realization = realization


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_i = t_start + i*dt with dt = (t_end - t_start)/(n_points - 1).

    dt is always derived, never stored, so a grid can never be inconsistent.
    Instances are immutable; equal grids give equal times() bit for bit.
    Too few points or a reversed or empty range is a ConfigError whose params
    name the fields at fault, so a caller that configures the grid can name
    its own keys.
    """

    t_start: float
    t_end: float
    n_points: int

    def __post_init__(self):
        if self.n_points < 2:
            raise ConfigError(f"too few points: n_points={self.n_points}, need >= 2",
                              ("n_points",))
        if not self.t_end > self.t_start:
            raise ConfigError(
                f"invalid range: t_end={self.t_end} must exceed t_start={self.t_start}",
                ("t_start", "t_end"))

    @property
    def dt(self) -> float:
        return (self.t_end - self.t_start) / (self.n_points - 1)

    def times(self) -> np.ndarray:
        """Grid points, computed exactly as t_start + i*dt."""
        return self.t_start + self.dt * np.arange(self.n_points)


def require_memory(nbytes: int, what: str, params: tuple[str, ...] = ()) -> None:
    """Raise ConfigError if nbytes exceed the host's physical memory.

    Called before a run allocates its large arrays, so a run the host cannot
    hold exits 1 with a message instead of being granted by overcommit and
    killed when the pages are touched.  what names the arrays, params the inputs sizing them.
    """
    physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if nbytes > physical:
        raise ConfigError(
            f"run too large for memory: {what} need {nbytes} bytes "
            f"({nbytes / 2**30:.3g} GiB), physical memory is {physical} bytes "
            f"({physical / 2**30:.3g} GiB)", params)


def make_grid(t_start: float, t_end: float, n_points: int) -> TimeGrid:
    """Build a uniform time grid; rejects empty or reversed intervals."""
    return TimeGrid(float(t_start), float(t_end), int(n_points))


def trapezoid_history(row: np.ndarray, x: np.ndarray, i: int, dt: float) -> float:
    """Trapezoidal history sum dt * sum'_{j <= i} row[j] x[j] on the grid prefix 0..i.

    Both end points carry half weight; for i == 0 the interval has zero length
    and the sum is 0.  This is the discretized retarded integral
    int_{t_0}^{t_i} K(t_i, s) x(s) ds shared by the memory force and the
    coherent shift.
    """
    if i == 0:
        return 0.0
    seg = row[: i + 1] * x[: i + 1]
    return dt * (seg.sum() - 0.5 * seg[0] - 0.5 * seg[i])


def derive_seed(master_seed: int, index: int) -> int:
    """Derive the per-stream seed ``index`` from a 64-bit master seed.

    splitmix64 applied to master_seed + (index+1)*gamma, mod 2^64: a pure
    function, stable across platforms, with distinct outputs for distinct
    indices in any realistic ensemble size.  A master seed that is not an
    integer (a float, a bool) or lies outside [0, 2^64) is a ConfigError, not
    truncated or masked into range, so no two seeds alias.
    """
    if (isinstance(master_seed, bool) or not isinstance(master_seed, numbers.Integral)
            or not 0 <= master_seed <= _MASK64):
        raise ConfigError(f"master_seed must be an integer in [0, 2**64), got {master_seed!r}",
                          ("master_seed",))
    if index < 0:
        raise ValueError("index must be >= 0")
    z = (int(master_seed) + (int(index) + 1) * _GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)
