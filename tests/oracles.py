"""Independent numerical oracles used to pin expected values.

These deliberately avoid the library's own code paths: flows come from
scipy's matrix exponential, stationary moments from the Lyapunov solver, and
the memory-scheme reference from a dense simultaneous solve.  The row-group
draw rule, the factor draw's k-ordered sum, the Hubbard-Stratonovich mean
over explicit noise rows and over whole columns of normals, the gated
scenario stepper, the memory integrator's history sum, the overdamped step
and the recursion count are checked against plain loops, and the ensemble
statistics against their former temporaries-allocating formula.
"""

import numpy as np
from scipy.linalg import expm, solve_continuous_lyapunov

from ctpsim.core import derive_seed
from ctpsim.kernels import psd_factor


def flow_matrix(params, t):
    """exp(A t) for the linear phase-space flow of the squeeze generator.

    qdot = -w cos(2 phi) q - sin(2 phi) p / m
    pdot = -m w^2 sin(2 phi) q + w cos(2 phi) p
    reduces to the inverted oscillator at phi = -pi/4.
    """
    c = np.cos(2.0 * params.phi)
    s = np.sin(2.0 * params.phi)
    m, w = params.mass, params.omega
    a = np.array([[-w * c, -s / m], [-m * w * w * s, w * c]])
    return expm(a * t)


def vacuum_covariance(params):
    return np.diag([params.hbar / (2.0 * params.mass * params.omega),
                    0.5 * params.mass * params.omega * params.hbar])


def anticommutator_oracle(params, t, tp):
    """<{x(t), x(t')}> from symplectic covariance evolution."""
    mt = flow_matrix(params, t)
    mp = flow_matrix(params, tp)
    return 2.0 * (mt @ vacuum_covariance(params) @ mp.T)[0, 0]


def commutator_oracle(params, t, tp):
    """Coefficient of i in <[x(t'), x(t)]> from the flow matrices."""
    mt = flow_matrix(params, t)
    mp = flow_matrix(params, tp)
    return params.hbar * (mp[0, 0] * mt[0, 1] - mp[0, 1] * mt[0, 0])


def rotated_variance_oracle(params, t):
    """(var along phi, var across phi) in position units, via expm."""
    mt = flow_matrix(params, t)
    cov = mt @ vacuum_covariance(params) @ mt.T
    d = np.diag([np.sqrt(params.mass * params.omega / params.hbar),
                 1.0 / np.sqrt(params.mass * params.omega * params.hbar)])
    cov_q = d @ cov @ d
    c, s = np.cos(params.phi), np.sin(params.phi)
    along = np.array([c, s])
    across = np.array([-s, c])
    scale = params.hbar / (params.mass * params.omega)
    return (scale * along @ cov_q @ along, scale * across @ cov_q @ across)


def stationary_moments_oracle(omega0, gamma, sigma2):
    """Stationary (<x^2>, <v^2>) of xdd = -gamma xd - omega0^2 x + xi.

    Solves A S + S A^T + B = 0 for the (x, v) system with B = diag(0, sigma2).
    """
    a = np.array([[0.0, 1.0], [-omega0**2, -gamma]])
    b = np.diag([0.0, sigma2])
    s = solve_continuous_lyapunov(a, -b)
    return float(s[0, 0]), float(s[1, 1])


def collocation_memory_oracle(omega, kernel_values, grid, x0, v0):
    """Dense simultaneous solve of the discretized memory dynamics.

    Assembles the stepping relations (with independently re-derived
    trapezoidal weights) as one 2n x 2n linear system and solves it, instead
    of marching sequentially.
    """
    n = grid.n_points
    dt = grid.dt
    size = 2 * n
    a = np.zeros((size, size))
    b = np.zeros(size)
    a[0, 0] = 1.0
    b[0] = x0
    a[n, n] = 1.0
    b[n] = v0
    for i in range(n - 1):
        w = np.full(i + 1, dt)
        if i == 0:
            w[0] = 0.0
        else:
            w[0] = 0.5 * dt
            w[i] = 0.5 * dt
        # v_{i+1} - v_i - dt (omega^2 x_i - sum_j w_j M_ij x_j) = 0
        row = n + i + 1
        a[row, n + i + 1] = 1.0
        a[row, n + i] = -1.0
        a[row, i] += -dt * omega**2
        a[row, : i + 1] += dt * w * kernel_values[i, : i + 1]
        # x_{i+1} - x_i - dt v_{i+1} = 0
        row = i + 1
        a[row, i + 1] = 1.0
        a[row, i] = -1.0
        a[row, n + i + 1] = -dt
    z = np.linalg.solve(a, b)
    return z[:n]


def memory_loop_oracle(omega, kernel_values, grid, xi, x0, v0):
    """(x, v) of the memory integrator with its history sum written inline.

    The original loop of integrate_memory, kept as the bit reference for the
    shared trapezoidal history sum: seg = M[i, :i+1] * x[:i+1], summed with
    half weight on both end points.
    """
    n = grid.n_points
    dt = grid.dt
    om2 = omega * omega
    xs = np.zeros(n)
    vs = np.zeros(n)
    xs[0] = float(x0)
    vs[0] = float(v0)
    for i in range(n - 1):
        if i == 0:
            mem = 0.0
        else:
            seg = kernel_values[i, : i + 1] * xs[: i + 1]
            mem = dt * (seg.sum() - 0.5 * seg[0] - 0.5 * seg[i])
        a = om2 * xs[i] - mem - xi[i]
        vs[i + 1] = vs[i] + dt * a
        xs[i + 1] = xs[i] + dt * vs[i + 1]
    return xs, vs


def overdamped_loop_oracle(dp, noise_amp, grid, xi, phi_init):
    """(phi, rhs) of integrate_overdamped_mode by its former loop over numpy scalars.

    phi[i + 1] = q phi[i] + (1 - q) drive[i] with q = exp(-a dt) a numpy
    float64 and phi a preallocated array, rhs = -a (phi - drive).
    """
    a = dp.coupling * dp.background**2 / (6.0 * dp.hubble)
    n = grid.n_points
    q = np.exp(-a * grid.dt)
    phi = np.empty(n)
    phi[0] = float(phi_init)
    drive = noise_amp * xi
    for i in range(n - 1):
        phi[i + 1] = q * phi[i] + (1.0 - q) * drive[i]
    return phi, -a * (phi - drive)


def squared_radius(x):
    """|x|^2 (M,) of x (M, d), the squares summed in component order.

    np.einsum("md,md->m") gives the same bits at d = 1 and d = 2, which is
    asserted here; from d = 3 on it sums in the order of its SIMD lanes
    ((x_0^2 + x_2^2) + x_1^2 with two float64 lanes), which depends on the
    numpy build.
    """
    r2 = x[:, 0] * x[:, 0]
    for a in range(1, x.shape[1]):
        r2 = r2 + x[:, a] * x[:, a]
    if x.shape[1] <= 2:
        assert r2.tobytes() == np.einsum("md,md->m", x, x).tobytes()
    return r2


def gated_loop_oracle(cfg, noise):
    """Per-step loop of the gated scenario stepper: (paths (M,d,n), gates (M,n)).

    The original implementation, kept as the reference for the batched
    stepper: one step at a time over all realizations, force
    -(m2 + lam |x|^2 / 6) x + gate xi, semi-implicit update, then the gate
    latch on the new |x|^2 (:func:`squared_radius`).
    """
    m, d, n = noise.shape
    dt = cfg.grid.dt
    c1 = cfg.m2
    c3 = cfg.lam / 6.0
    denom = 1.0 + cfg.friction * dt
    threshold = cfg.gate_threshold_sq
    x = np.zeros((m, d))
    v = np.zeros((m, d))
    gate = np.ones(m)
    paths = np.zeros((m, d, n))
    gates = np.ones((m, n))
    for i in range(n - 1):
        r2 = squared_radius(x)
        force = -(c1 + c3 * r2)[:, None] * x + gate[:, None] * noise[:, :, i]
        v = (v + dt * force) / denom
        x = x + dt * v
        if cfg.gate:
            r2 = squared_radius(x)
            gate = np.where(r2 > threshold, 0.0, gate)
        paths[:, :, i + 1] = x
        gates[:, i + 1] = gate
    return paths, gates


def first_closed_step(gates):
    """Per row of an (M, n) gate history, the first column where the gate is 0, or -1."""
    closed = gates == 0.0
    return np.where(closed.any(axis=1), np.argmax(closed, axis=1), -1)


def recursion_loop_oracle(paths, leave_radius, return_radius):
    """Row-by-row recursion fraction: rows re-entering |x| < return after first |x| > leave."""
    a = np.abs(paths)
    recursed = 0
    for row in a:
        outside = np.nonzero(row > leave_radius)[0]
        if outside.size == 0:
            continue
        if np.any(row[outside[0]:] < return_radius):
            recursed += 1
    return recursed / a.shape[0]


def aggregate_oracle(paths):
    """(mean, variance) of an (M, n) path array, summed one column at a time.

    Each column's M values are copied into a contiguous 1-D array and summed
    by np.add.reduce in realization order, for the mean and then for the
    squared deviations, each formed in a fresh array.
    """
    m, n = paths.shape
    mean, variance = np.empty(n), np.empty(n)
    for j in range(n):
        column = np.ascontiguousarray(paths[:, j])
        mean[j] = np.add.reduce(column) / m
        dev = column - mean[j]
        variance[j] = np.add.reduce(dev * dev) / m
    return mean, variance


def white_normals_oracle(seed, n_realizations, n):
    """(M, n) normals by the white rule, one generator per row group.

    Row i is column i mod 64 of default_rng(derive_seed(seed, i // 64))'s
    (n, 64) standard normals, drawn in one call; noise._fill_normals draws
    them in calls of at most 256 time rows, so an n > 256 also checks that
    the split keeps the bits.
    """
    rows = np.empty((n_realizations, n))
    for i in range(n_realizations):
        if i % 64 == 0:
            draws = np.random.default_rng(derive_seed(seed, i // 64)).standard_normal((n, 64))
        rows[i] = draws[:, i % 64]
    return rows


def standard_normals_oracle(seed, n_realizations, k):
    """(M, k) normals by the row-group rule, the groups' blocks from one generator.

    Row group g takes the (k, 64) block after group g - 1's from
    default_rng(derive_seed(seed, 0)), each block one standard_normal call;
    rows [64 g, 64 g + 64) are its columns and the last group's padding is
    dropped.  noise._factor_normals draws a block with k > 256 in calls of
    256 time rows, so a k > 256 also checks that the split keeps the bits.
    """
    generator = np.random.default_rng(derive_seed(seed, 0))
    rows = np.empty((n_realizations, k))
    for first in range(0, n_realizations, 64):
        draws = generator.standard_normal((k, 64))
        rows[first:first + 64] = draws[:, :n_realizations - first].T
    return rows


def factor_draw_oracle(factor, z):
    """(n, M) noise sum_k z[:, k] F[:, k] of a factor F (n, r) and normals z (M, r).

    Accumulated from 0 over the whole array, one column k of the factor at a
    time, in k order: the sum factor_source forms tile by tile.
    """
    acc = np.zeros((factor.shape[0], z.shape[0]))
    for k in range(factor.shape[1]):
        acc += factor[:, k, None] * z[:, k]
    return acc


def hs_moment_oracle(kernel, v, n_realizations, seed, clip_tol):
    """Mean of exp(i xi . v) over the explicit (M, n) noise rows xi_i = F z_i.

    F keeps the kernel's eigenpairs above clip_tol * lambda_max, as the
    sampler's factor does; the rows are factor_draw_oracle's over
    standard_normals_oracle's z, and their phases one matrix-vector product.
    """
    w, vecs = np.linalg.eigh(kernel.values)
    keep = w > clip_tol * max(float(w[-1]), 0.0)
    factor = vecs[:, keep] * np.sqrt(w[keep])
    z = standard_normals_oracle(seed, n_realizations, factor.shape[1])
    rows = factor_draw_oracle(factor, z).T
    return complex(np.mean(np.exp(1j * (rows @ v))))


def hs_whole_draw_oracle(kernel, v, n_realizations, seed, clip_tol):
    """hs_moment_check's two values from the whole (M, r) normals of standard_normals_oracle.

    The phases z_i . (F^T v) over the sampler's factor F are summed in k
    order over whole (M,) columns, then their cos and sin each in one
    reduction: the bits the streamed check must give for every M.
    """
    v = np.asarray(v, dtype=float)
    factor = psd_factor(kernel, clip_tol)
    p = [np.add.reduce(column * v) for column in factor.T]
    z = standard_normals_oracle(seed, n_realizations, len(p)).T
    phases, term = np.zeros(n_realizations), np.empty(n_realizations)
    for z_k, p_k in zip(z, p):
        phases += np.multiply(z_k, p_k, out=term)
    del z
    real = np.add.reduce(np.cos(phases, out=term)) / n_realizations
    imag = np.add.reduce(np.sin(phases, out=phases)) / n_realizations
    analytic = float(np.exp(-0.5 * v @ kernel.values @ v))
    return complex(real, imag), analytic
