"""Whole-array references of the streamed ensemble runners.

Each function is the algorithm the runners used before they streamed: draw
the whole (M, d, n) noise array, step it in place into the paths, then
reduce the paths with aggregate_paths and recursion_probability.  The
streamed runners must reproduce these values bit for bit, failures included.
"""

import math

import numpy as np

from ctpsim import scenarios
from ctpsim.core import DivergenceError, derive_seed
from ctpsim.kernels import desitter_hadamard
from ctpsim.langevin import (aggregate_paths, estimate_spectrum, relaxation_rate,
                             step_exponential, step_semi_implicit)
from ctpsim.noise import draw_from_factor, draw_white


def scenario_noise(cfg, n_components):
    """(M, d, n) scenario noise: component c of run i is factor row i*d + c times the amplitude."""
    m = cfg.n_realizations
    rows = draw_from_factor(scenarios._scenario_factor(cfg), cfg.master_seed,
                            m * n_components)
    rows *= cfg.noise_amplitude
    return rows.reshape(m, n_components, cfg.grid.n_points)


def integrate_gated(cfg, noise):
    """(paths, close steps) of the gated radial stepper, written over noise (M, d, n)."""
    try:
        paths, close, _ = step_semi_implicit(
            noise, scenarios._radial_vprime(cfg), cfg.friction, cfg.grid,
            gate_threshold=cfg.gate_threshold_sq if cfg.gate else None)
    except DivergenceError as err:
        raise DivergenceError(
            f"{err} (dt = {cfg.grid.dt:g} too coarse for the curvature "
            f"|m2| = {abs(cfg.m2):g})", step=err.step, realization=err.realization) from err
    return paths, close


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
    paths = draw_white(sigma2, grid, seed, m)
    _, _, v_first = step_semi_implicit(paths[:, None, :], pot.vprime, gamma, grid, x0, v0)
    return aggregate_paths(grid, paths), paths[0].copy(), v_first[0].copy()


def inflation(modes, grid, m, master_seed, tail_fraction=0.5):
    """The spectrum estimate of run_inflation from each mode's whole path array."""
    n = grid.n_points
    tail_start = int(math.floor((1.0 - tail_fraction) * (n - 1))) + 1
    q = np.exp(-relaxation_rate(modes[0]) * grid.dt)
    pairs = []
    for mode_idx, dp in enumerate(sorted(modes, key=lambda d: d.k)):
        amp = math.sqrt(desitter_hadamard(dp, 0.0, 0.0))
        phi = draw_white(1.0, grid, derive_seed(master_seed, mode_idx), m)
        phi *= amp
        step_exponential(phi, q)
        acc = 0.0
        for row in phi:
            acc += float(np.mean(row[tail_start:] ** 2))
        pairs.append((dp.k, acc / m))
    return estimate_spectrum(pairs)
