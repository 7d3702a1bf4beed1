"""Time grids, deterministic seed derivation and shared run metadata.

Everything downstream (kernels, noise ensembles, trajectories) lives on a
uniform :class:`TimeGrid`; reproducibility rests on :func:`derive_seed`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15  # splitmix64 golden-ratio increment


class ConfigError(ValueError):
    """Configuration missing, malformed, violating the schema, or describing a degenerate run."""


class NumericalError(RuntimeError):
    """A simulation failed numerically (divergence, indefinite kernel, ...)."""


class DivergenceError(NumericalError):
    """A trajectory left the admissible range; carries where it happened."""

    def __init__(self, message: str, step: int | None = None,
                 realization: int | None = None):
        super().__init__(message)
        self.step = step
        self.realization = realization


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_i = t_start + i*dt with dt = (t_end - t_start)/(n_points - 1).

    dt is always derived, never stored, so a grid can never be inconsistent.
    Instances are immutable and safe to share across parallel workers.
    """

    t_start: float
    t_end: float
    n_points: int

    def __post_init__(self):
        if self.n_points < 2:
            raise ValueError(f"too few points: n_points={self.n_points}, need >= 2")
        if not self.t_end > self.t_start:
            raise ValueError(
                f"invalid range: t_end={self.t_end} must exceed t_start={self.t_start}"
            )

    @property
    def dt(self) -> float:
        return (self.t_end - self.t_start) / (self.n_points - 1)

    def times(self) -> np.ndarray:
        """Grid points, computed exactly as t_start + i*dt."""
        return self.t_start + self.dt * np.arange(self.n_points)


def make_grid(t_start: float, t_end: float, n_points: int) -> TimeGrid:
    """Build a uniform time grid; rejects empty or reversed intervals."""
    return TimeGrid(float(t_start), float(t_end), int(n_points))


def trapezoid_weights(last_index: int, dt: float) -> np.ndarray:
    """Trapezoidal quadrature weights on the grid prefix 0..last_index.

    For last_index == 0 the integral is over a zero-length interval and all
    weights vanish.
    """
    if last_index < 0:
        raise ValueError("last_index must be >= 0")
    w = np.full(last_index + 1, dt, dtype=float)
    if last_index == 0:
        w[0] = 0.0
        return w
    w[0] = 0.5 * dt
    w[last_index] = 0.5 * dt
    return w


def derive_seed(master_seed: int, index: int) -> int:
    """Derive the per-realization seed ``index`` from a 64-bit master seed.

    splitmix64 applied to master_seed + (index+1)*gamma: a pure function,
    stable across platforms, with distinct outputs for distinct indices in
    any realistic ensemble size.
    """
    if index < 0:
        raise ValueError("index must be >= 0")
    z = (int(master_seed) + (int(index) + 1) * _GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@dataclass(frozen=True)
class RunConfig:
    """Reproducibility envelope shared by every ensemble run."""

    master_seed: int
    n_realizations: int

    def __post_init__(self):
        if not 0 <= self.master_seed <= _MASK64:
            raise ValueError("master_seed must fit in an unsigned 64-bit integer")
        if self.n_realizations < 1:
            raise ValueError("n_realizations must be >= 1")
