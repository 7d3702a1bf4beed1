"""Whole-array references of the streamed ensemble runners.

Each function is the algorithm the runners used before they streamed: draw
the whole (M, d, n) noise array, step it into the paths (:func:`step`), then
reduce the paths with aggregate_paths and recursion_probability.  The
streamed runners must reproduce these values bit for bit, failures included,
with one exception: a gated scenario run does not draw the noise after its
last gate latches, so noise that fails there (a float64 overflow of the
noise times noise_amplitude, say) fails these references but not the run.
:func:`inflation` steps every realization's path, which run_inflation never
forms; it agrees with run_inflation to roundoff.
"""

import math

import numpy as np

from ctpsim import scenarios
from ctpsim.core import DivergenceError, derive_seed
from ctpsim.kernels import desitter_factor
from ctpsim.langevin import (PotentialSpec, SemiImplicitStepper, _time_blocks,
                             aggregate_paths, estimate_spectrum, integrate_overdamped_mode)
from ctpsim.noise import draw_from_factor, sample_white


def step(stepper, paths):
    """Write the paths of the whole (M, d, n) noise array over it, one pipeline block at a time.

    The stepper reads a time-major copy of each block and returns its paths
    time-major, (w, M, d).
    """
    for cols in _time_blocks(paths.shape[2]):
        block = paths[..., cols].transpose(2, 0, 1).copy()
        paths[..., cols] = stepper.step(block, cols).transpose(1, 2, 0)


def scenario_noise(cfg, n_components):
    """(M, d, n) scenario noise: component c of run i is factor row i*d + c times the amplitude."""
    m = cfg.n_realizations
    rows = draw_from_factor(scenarios._scenario_factor(cfg), cfg.master_seed,
                            m * n_components)
    rows *= cfg.noise_amplitude
    return rows.reshape(m, n_components, cfg.grid.n_points)


def integrate_gated(cfg, noise):
    """(paths, close steps) of the gated radial stepper, written over noise (M, d, n)."""
    stepper = SemiImplicitStepper(
        noise.shape, PotentialSpec.double_well(cfg.m2, cfg.lam), cfg.friction, cfg.grid,
        gate_threshold=cfg.gate_threshold_sq if cfg.gate else None)
    try:
        step(stepper, noise)
    except DivergenceError as err:
        raise scenarios._with_cause(cfg, err) from err
    return noise, stepper.close


def close_times(cfg, close):
    first = close.astype(float) * cfg.grid.dt + cfg.grid.t_start
    return np.where(close >= 0, first, np.inf)


def ssb(cfg):
    """(stats, gate close times, recursion probability) of run_ssb's ensemble."""
    paths, close = integrate_gated(cfg, scenario_noise(cfg, 1))
    stats = aggregate_paths(cfg.grid, paths[:, 0, :])
    recursion = scenarios.recursion_probability(paths[:, 0, :], cfg.leave_radius,
                                                cfg.return_radius)
    return stats, close_times(cfg, close), recursion


def bec(cfg):
    """(final (M, 2) slice, gate close times) of run_bec's ensemble."""
    paths, close = integrate_gated(cfg, scenario_noise(cfg, 2))
    return paths[:, :, -1].copy(), close_times(cfg, close)


def langevin(pot, gamma, grid, sigma2, seed, m, x0, v0):
    """(stats, x and v of realization 0) of the white-noise ensemble."""
    paths = sample_white(sigma2, grid, seed, m).realizations.copy()
    stepper = SemiImplicitStepper((m, 1, grid.n_points), pot, gamma, grid, x0, v0)
    step(stepper, paths[:, None, :])
    return aggregate_paths(grid, paths), paths[0].copy(), stepper.v_first[:, 0].copy()


def inflation(modes, grid, m, master_seed, tail_fraction=0.5):
    """The spectrum estimate of run_inflation from each mode's M stepped paths.

    Row i of mode j's draw_from_factor noise drives realization i through
    integrate_overdamped_mode from 0; the tail mean squares are summed row by row.
    """
    n = grid.n_points
    tail_start = int(math.floor((1.0 - tail_fraction) * (n - 1))) + 1
    pairs = []
    for mode_idx, dp in enumerate(sorted(modes, key=lambda d: d.k)):
        noise = draw_from_factor(desitter_factor(dp, grid), derive_seed(master_seed, mode_idx), m)
        acc = 0.0
        for xi in noise:
            phi = integrate_overdamped_mode(dp, 1.0, grid, xi, 0.0).x
            acc += float(np.mean(phi[tail_start:] ** 2))
        pairs.append((dp.k, acc / m))
    return estimate_spectrum(pairs)
