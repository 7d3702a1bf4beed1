import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ctpsim import langevin
from ctpsim.core import DivergenceError, make_grid
from ctpsim.kernels import (RETARDED, DeSitterParams, KernelMatrix,
                            build_hadamard, build_retarded, memory_kernel)
from ctpsim.langevin import (PotentialSpec, SemiImplicitStepper, Trajectory,
                             aggregate_paths, ensemble_run, estimate_spectrum,
                             integrate_memory, integrate_overdamped_mode, integrate_white,
                             relaxation_rate)
from ctpsim.noise import sample_white
from ctpsim.squeeze import SqueezeParams

import whole_array
from oracles import (aggregate_oracle, collocation_memory_oracle, first_closed_step,
                     gated_loop_oracle, memory_loop_oracle, overdamped_loop_oracle)

UNIT = SqueezeParams()


def white_realization(grid, seed, sigma2=1.0):
    rng = np.random.default_rng(seed)
    return math.sqrt(sigma2 / grid.dt) * rng.standard_normal(grid.n_points)


def zero(grid):
    return np.zeros(grid.n_points)


def stepped_force(pot, x):
    """V'(x) (M, 1) as SemiImplicitStepper forms it, read off one step from rest at x.

    A step of length 1 without friction, with noise -0.0 and v0 = -0.0, gives
    v1 = ((-0.0 - V') 1 + -0.0) / 1 = -V' bit for bit, the sign of a zero
    included.  v1 is formed before the step's divergence check, so a row
    that leaves the guard (x - V' beyond 1e12) still has it.
    """
    stepper = SemiImplicitStepper((len(x), 1, 2), pot, 0.0, make_grid(0.0, 1.0, 2), x, -0.0)
    try:
        stepper.step(np.full((2, len(x), 1), -0.0), slice(0, 2))
    except DivergenceError:
        pass
    return -stepper.vs[1]


class TestPotentialSpec:
    def test_force_shapes(self):
        quad = PotentialSpec.quadratic(2.0)
        assert quad.vprime(1.5) == 4.0 * 1.5
        inv = PotentialSpec.inverted(2.0)
        assert inv.vprime(1.5) == -4.0 * 1.5
        dw = PotentialSpec.double_well(-1.0, 0.6)
        assert math.isclose(dw.vprime(2.0), -2.0 + 0.1 * 8.0, rel_tol=1e-15)

    def test_double_well_needs_positive_coupling(self):
        with pytest.raises(ValueError, match="positive"):
            PotentialSpec.double_well(-1.0, 0.0)

    def test_double_well_refuses_nan_coupling(self):
        # NaN passes a bare lam <= 0 check
        with pytest.raises(ValueError, match="positive quartic coupling"):
            PotentialSpec.double_well(-1.0, math.nan)

    def test_double_well_minimum(self):
        dw = PotentialSpec.double_well(-1.0, 0.6)
        x_min = math.sqrt(10.0)
        assert abs(dw.vprime(x_min)) < 1e-14

    @pytest.mark.parametrize("c1", [0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324])
    def test_force_without_quartic_is_the_law_bit_for_bit(self, c1):
        rng = np.random.default_rng(11)
        x = np.concatenate([[0.0, -0.0, 5e-324, -5e-324, 1e12, -1e12],
                            rng.standard_normal(20)])[:, None]
        force = stepped_force(PotentialSpec("quadratic", c1), x)
        assert force.tobytes() == (x * (c1 + 0.0 * x * x)).tobytes()

    def test_force_keeps_the_sign_of_zero_when_omega_squared_underflows(self):
        # c1 = -w^2 is -0.0, so x * c1 would be -0.0 where the law gives +0.0
        pot = PotentialSpec.inverted(1e-200)
        assert math.copysign(1.0, pot.c1) == -1.0
        x = np.array([[1.0], [-1.0]])
        force = stepped_force(pot, x)
        assert force.tobytes() == (x * (pot.c1 + 0.0 * x * x)).tobytes()
        assert force.tobytes() != (x * pot.c1).tobytes()

    @settings(max_examples=50, deadline=None)
    @given(m2=st.floats(-2.0, 2.0), lam=st.floats(0.1, 2.0),
           x=hnp.arrays(float, (7, 1), elements=st.floats(-1e12, 1e12)))
    def test_force_with_quartic_is_the_law_bit_for_bit(self, m2, lam, x):
        pot = PotentialSpec.double_well(m2, lam)
        assert stepped_force(pot, x).tobytes() == pot.vprime(x).tobytes()


class TestIntegrateWhite:
    def test_harmonic_tracking_first_order(self):
        # 10 periods; error against cos t shrinks linearly in dt
        t_end = 20.0 * math.pi
        errs = []
        for n in (62_833, 125_665):
            grid = make_grid(0.0, t_end, n)
            traj = integrate_white(PotentialSpec.quadratic(1.0), 0.0, grid,
                                   zero(grid), 1.0, 0.0)
            errs.append(np.max(np.abs(traj.x - np.cos(grid.times()))))
        assert errs[0] < 0.2
        assert 1.7 < errs[0] / errs[1] < 2.3

    def test_harmonic_energy_drift_bounded(self):
        grid = make_grid(0.0, 20.0 * math.pi, 62_833)
        traj = integrate_white(PotentialSpec.quadratic(1.0), 0.0, grid,
                               zero(grid), 1.0, 0.0)
        energy = 0.5 * traj.xdot**2 + 0.5 * traj.x**2
        assert np.max(np.abs(energy - energy[0])) < 0.01 * energy[0]

    def test_inverted_tracks_cosh(self):
        errs = []
        for n in (2001, 4001):
            grid = make_grid(0.0, 2.0, n)
            traj = integrate_white(PotentialSpec.inverted(1.0), 0.0, grid,
                                   zero(grid), 1.0, 0.0)
            errs.append(np.max(np.abs(traj.x - np.cosh(grid.times()))))
        assert errs[0] < 0.05
        assert 1.7 < errs[0] / errs[1] < 2.3

    def test_linear_superposition(self):
        grid = make_grid(0.0, 5.0, 501)
        pot = PotentialSpec.quadratic(1.0)
        xi1 = white_realization(grid, 1)
        xi2 = white_realization(grid, 2)
        t1 = integrate_white(pot, 0.3, grid, xi1, 1.0, 0.0)
        t2 = integrate_white(pot, 0.3, grid, xi2, 0.0, 1.0)
        a, b = 0.6, -1.7
        combo = integrate_white(pot, 0.3, grid, a * xi1 + b * xi2, a, b)
        assert np.max(np.abs(combo.x - (a * t1.x + b * t2.x))) < 1e-10

    @pytest.mark.parametrize("pot", [PotentialSpec.quadratic(1.2),
                                     PotentialSpec.inverted(0.7),
                                     PotentialSpec.double_well(-1.0, 0.6)])
    def test_parity_is_exact(self, pot):
        grid = make_grid(0.0, 3.0, 301)
        xi = white_realization(grid, 3)
        plus = integrate_white(pot, 0.4, grid, xi, 0.8, -0.2)
        minus = integrate_white(pot, 0.4, grid, -xi, -0.8, 0.2)
        assert np.array_equal(minus.x, -plus.x)
        assert np.array_equal(minus.xdot, -plus.xdot)

    def test_grid_mismatch_rejected(self):
        grid = make_grid(0.0, 1.0, 11)
        with pytest.raises(ValueError, match="match the grid"):
            integrate_white(PotentialSpec.quadratic(1.0), 0.0, grid,
                            np.zeros(10), 0.0, 0.0)

    def test_divergence_guard(self):
        grid = make_grid(0.0, 40.0, 401)
        with pytest.raises(DivergenceError) as info:
            integrate_white(PotentialSpec.inverted(2.0), 0.0, grid,
                            zero(grid), 1.0, 0.0)
        assert info.value.step is not None

    def test_divergence_at_an_overflowing_time_names_the_step(self):
        # on [-1e308, 1e308] dt and t_start + dt overflow to inf: the message gives
        # the step's index alone
        grid = make_grid(-1e308, 1e308, 3)
        with pytest.raises(DivergenceError) as info:
            integrate_white(PotentialSpec.quadratic(1.0), 0.0, grid, zero(grid), 1.0, 0.0)
        assert str(info.value) == "trajectory diverged at step 1: |x| exceeded 1e+12"
        assert info.value.step == 1


class TestIntegrateMemory:
    def test_free_limit_tracks_cosh(self):
        errs = []
        for n in (2001, 4001):
            grid = make_grid(0.0, 2.0, n)
            kernel = KernelMatrix(grid, np.zeros((n, n)), RETARDED)
            traj = integrate_memory(1.0, kernel, zero(grid), 1.0, 0.0)
            errs.append(np.max(np.abs(traj.x - np.cosh(grid.times()))))
        assert errs[0] < 0.05
        assert 1.7 < errs[0] / errs[1] < 2.3

    def test_unstable_fixed_point_preserved(self):
        grid = make_grid(0.0, 2.0, 101)
        kernel = KernelMatrix(grid, np.zeros((101, 101)), RETARDED)
        traj = integrate_memory(1.0, kernel, zero(grid), 0.0, 0.0)
        assert np.array_equal(traj.x, np.zeros(101))

    def test_zero_kernel_matches_white_integrator_bitwise(self):
        # shared stepping scheme: the two equations differ only in noise sign
        grid = make_grid(0.0, 2.0, 201)
        kernel = KernelMatrix(grid, np.zeros((201, 201)), RETARDED)
        xi = white_realization(grid, 17)
        mem = integrate_memory(1.3, kernel, xi, 0.5, -0.25)
        white = integrate_white(PotentialSpec.inverted(1.3), 0.0, grid, -xi,
                                0.5, -0.25)
        assert np.array_equal(mem.x, white.x)
        assert np.array_equal(mem.xdot, white.xdot)

    def test_dense_collocation_oracle(self):
        grid = make_grid(0.0, 1.0, 32)
        kernel = memory_kernel(1.0, build_retarded(UNIT, grid),
                               build_hadamard(UNIT, grid))
        traj = integrate_memory(1.0, kernel, zero(grid), 1.0, 0.0)
        reference = collocation_memory_oracle(1.0, kernel.values, grid, 1.0, 0.0)
        rel = np.max(np.abs(traj.x - reference)) / np.max(np.abs(reference))
        assert rel < 1e-3

    def test_constant_kernel_against_ode_oracle(self):
        # M(t, t') = c makes the equation local in (x, v, s = int x):
        # xd = v, vd = w^2 x - c s, sd = x; solved independently by scipy
        from scipy.integrate import solve_ivp
        c, omega = 2.0, 1.0

        def rhs(_t, y):
            return [y[1], omega**2 * y[0] - c * y[2], y[0]]

        sol = solve_ivp(rhs, (0.0, 2.0), [1.0, 0.0, 0.0], rtol=1e-11,
                        atol=1e-12, dense_output=True)
        errs = []
        for n in (1001, 2001):
            grid = make_grid(0.0, 2.0, n)
            kernel = KernelMatrix(grid, np.full((n, n), c) * np.tri(n), RETARDED)
            traj = integrate_memory(omega, kernel, zero(grid), 1.0, 0.0)
            errs.append(np.max(np.abs(traj.x - sol.sol(grid.times())[0])))
        assert errs[0] < 0.02
        assert 1.7 < errs[0] / errs[1] < 2.3

    def test_requires_retarded_kernel(self):
        grid = make_grid(0.0, 1.0, 8)
        sym = build_hadamard(UNIT, grid)
        with pytest.raises(ValueError, match="retarded"):
            integrate_memory(1.0, sym, zero(grid), 0.0, 0.0)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 64), omega=st.floats(0.1, 2.0), seed=st.integers(0, 2**32),
           x0=st.floats(-2.0, 2.0), v0=st.floats(-2.0, 2.0))
    def test_equals_inline_history_loop_bytewise(self, n, omega, seed, x0, v0):
        grid = make_grid(0.0, 2.0, n)
        rng = np.random.default_rng(seed)
        kernel = KernelMatrix(grid, np.tril(rng.normal(0.0, 2.0, (n, n))), RETARDED)
        xi = rng.standard_normal(n)
        traj = integrate_memory(omega, kernel, xi, x0, v0)
        xs, vs = memory_loop_oracle(omega, kernel.values, grid, xi, x0, v0)
        assert traj.x.tobytes() == xs.tobytes()
        assert traj.xdot.tobytes() == vs.tobytes()


class TestOverdampedMode:
    DP = DeSitterParams(hubble=1.0, k=1.0, coupling=6.0, background=1.0)

    def test_relaxation_rate(self):
        assert relaxation_rate(self.DP) == 1.0

    def test_pure_decay_is_exact(self):
        grid = make_grid(0.0, 5.0, 2001)
        traj = integrate_overdamped_mode(self.DP, 1.0, grid, zero(grid), 1.0)
        expected = np.exp(-grid.times())
        assert np.max(np.abs(traj.x - expected)) < 1e-6

    def test_zero_stays_zero(self):
        grid = make_grid(0.0, 5.0, 101)
        traj = integrate_overdamped_mode(self.DP, 1.0, grid, zero(grid), 0.0)
        assert np.array_equal(traj.x, np.zeros(101))

    def test_stationary_variance(self):
        # OU stationary value a s^2 / 2 for drive amplitude s = 1
        grid = make_grid(0.0, 40.0, 4001)
        m = 500
        tail = grid.n_points // 4
        acc = 0.0
        for i in range(m):
            xi = white_realization(grid, 1000 + i)
            traj = integrate_overdamped_mode(self.DP, 1.0, grid, xi, 0.0)
            acc += float(np.mean(traj.x[-tail:] ** 2))
        est = acc / m
        assert abs(est - 0.5) / 0.5 < 0.05

    def test_rejects_nonpositive_rate(self):
        dp = DeSitterParams(hubble=1.0, k=1.0, coupling=0.0, background=1.0)
        grid = make_grid(0.0, 1.0, 11)
        with pytest.raises(ValueError, match="relaxation"):
            integrate_overdamped_mode(dp, 1.0, grid, zero(grid), 1.0)

    @settings(max_examples=40, deadline=None)
    @given(k=st.floats(0.5, 20.0), coupling=st.floats(0.5, 12.0), n=st.integers(2, 600),
           amp=st.floats(-3.0, 3.0), phi_init=st.floats(-2.0, 2.0), seed=st.integers(0, 2**32))
    def test_equals_numpy_scalar_loop_bytewise(self, k, coupling, n, amp, phi_init, seed):
        dp = DeSitterParams(hubble=1.0, k=k, coupling=coupling, background=1.0)
        grid = make_grid(0.0, 10.0, n)
        xi = white_realization(grid, seed)
        traj = integrate_overdamped_mode(dp, amp, grid, xi, phi_init)
        phi, rhs = overdamped_loop_oracle(dp, amp, grid, xi, phi_init)
        assert traj.x.tobytes() == phi.tobytes()
        assert traj.xdot.tobytes() == rhs.tobytes()


class TestEnsemble:
    @staticmethod
    def _runner(grid, pot, gamma=0.5, sigma2=1.0, x0=0.0, v0=0.0):
        def run_one(seed):
            xi = white_realization(grid, seed, sigma2)
            return integrate_white(pot, gamma, grid, xi, x0, v0)
        return run_one

    def test_single_realization(self):
        grid = make_grid(0.0, 2.0, 51)
        stats = ensemble_run(self._runner(grid, PotentialSpec.quadratic(1.0)),
                             master_seed=9, n_realizations=1)
        assert np.all(stats.variance == 0.0)
        assert stats.per_run_finals.shape == (1,)

    def test_determinism(self):
        grid = make_grid(0.0, 2.0, 51)
        runner = self._runner(grid, PotentialSpec.quadratic(1.0))
        a = ensemble_run(runner, master_seed=9, n_realizations=16)
        b = ensemble_run(runner, master_seed=9, n_realizations=16)
        assert a.per_run_finals.tobytes() == b.per_run_finals.tobytes()
        assert a.mean.tobytes() == b.mean.tobytes()
        assert a.variance.tobytes() == b.variance.tobytes()
        assert np.unique(a.per_run_finals).size == 16

    def test_double_well_ensemble_mean_symmetric(self):
        grid = make_grid(0.0, 10.0, 501)
        m = 200
        stats = ensemble_run(
            self._runner(grid, PotentialSpec.double_well(-1.0, 0.6)),
            master_seed=31, n_realizations=m)
        se = np.sqrt(stats.variance / m)
        z = np.abs(stats.mean[1:]) / np.where(se[1:] > 0, se[1:], np.inf)
        assert np.max(z) < 5.0

    def test_reordering_invariance(self):
        # the sums run in realization order, so a permutation moves them by roundoff
        # only: within 1e-12 of the variance, and of the column's root mean square for
        # the mean, which sits near 0
        rng = np.random.default_rng(8)
        grid = make_grid(0.0, 1.0, 21)
        paths = rng.standard_normal((40, 21))
        perm = rng.permutation(40)
        a = aggregate_paths(grid, paths)
        b = aggregate_paths(grid, paths[perm])
        assert np.array_equal(b.per_run_finals, a.per_run_finals[perm])
        rms = np.sqrt(np.mean(paths * paths, axis=0))
        assert np.all(np.abs(b.mean - a.mean) <= 1e-12 * rms)
        assert np.all(np.abs(b.variance - a.variance) <= 1e-12 * a.variance)

    @settings(max_examples=100, deadline=None)
    @given(paths=hnp.arrays(float, st.tuples(st.integers(1, 40), st.integers(2, 40)),
                            elements=st.one_of(st.just(-0.0),
                                               st.floats(-1e150, 1e150),
                                               st.floats(-1e-300, 1e-300))))
    def test_statistics_match_former_formula_bit_for_bit(self, paths):
        # in-place variance: same values summed in the same order as the oracle
        before = paths.tobytes()
        stats = aggregate_paths(make_grid(0.0, 1.0, paths.shape[1]), paths)
        mean, variance = aggregate_oracle(paths.copy())
        assert paths.tobytes() == before
        assert stats.mean.tobytes() == mean.tobytes()
        assert stats.variance.tobytes() == variance.tobytes()

    def test_divergence_annotated_with_realization(self):
        grid = make_grid(0.0, 40.0, 401)

        def run_one(seed):
            return integrate_white(PotentialSpec.inverted(2.0), 0.0, grid,
                                   zero(grid), 1.0, 0.0)

        with pytest.raises(DivergenceError) as info:
            ensemble_run(run_one, master_seed=1, n_realizations=4)
        assert info.value.realization == 0
        assert "realization 0" in str(info.value)


POTENTIALS = st.one_of(
    st.floats(0.2, 2.0).map(PotentialSpec.quadratic),
    st.floats(0.2, 1.0).map(PotentialSpec.inverted),
    st.tuples(st.floats(-2.0, 2.0), st.floats(0.1, 2.0)).map(
        lambda p: PotentialSpec.double_well(*p)))
STARTS = st.floats(-2.0, 2.0, allow_nan=False)


def edge_coefficients(test):
    """test with one example per edge coefficient of the force without a quartic term.

    c1 is +-0, +-5e-324 or +-1, or -0.0 from inverted(1e-200), where w^2
    underflows.  The noise is 0 times a white draw, zeros of both signs, and
    realization 0 starts at x = 1 with v = -0.0: a force of zero with the
    wrong sign turns that row's -0.0 velocities into +0.0, which v_first shows.
    """
    starts = [(1.0, -0.0), (-0.0, 0.0), (5e-324, -5e-324), (-1e3, -0.0)]
    pots = [PotentialSpec("quadratic", c1) for c1 in (0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0)]
    for pot in [*pots, PotentialSpec.inverted(1e-200)]:
        test = example(pot=pot, gamma=0.5, m=4, n=300, seed=7, starts=starts,
                       amplitude=0.0)(test)
    return test


class TestBatchedSteppers:
    """The batched steppers reproduce the single-path integrators bit for bit.

    Each test steps a whole array block by block (whole_array.step); grids run
    up to 600 points so the 128-step time blocks are crossed.
    """

    @settings(max_examples=40, deadline=None)
    @given(pot=POTENTIALS, gamma=st.floats(0.0, 2.0), m=st.integers(1, 4),
           n=st.integers(2, 600), seed=st.integers(0, 2**32),
           starts=st.lists(st.tuples(STARTS, STARTS), min_size=4, max_size=4),
           amplitude=st.floats(0.0, 3.0))
    @edge_coefficients
    def test_rows_equal_integrate_white(self, pot, gamma, m, n, seed, starts, amplitude):
        grid = make_grid(0.0, 3.0, n)
        xi = amplitude * sample_white(1.0, grid, seed, m).realizations
        x0 = np.array([[s[0]] for s in starts[:m]])
        v0 = np.array([[s[1]] for s in starts[:m]])
        # the stepper writes over its noise, and xi is the reference's
        paths = xi[:, None, :].copy()
        stepper = SemiImplicitStepper(paths.shape, pot, gamma, grid, x0, v0)
        whole_array.step(stepper, paths)
        close, v_first = stepper.close, stepper.v_first.T
        assert close.tobytes() == np.full(m, -1, dtype=np.int64).tobytes()
        for i in range(m):
            ref = integrate_white(pot, gamma, grid, xi[i], starts[i][0], starts[i][1])
            assert paths[i, 0].tobytes() == ref.x.tobytes()
            if i == 0:
                assert v_first[0].tobytes() == ref.xdot.tobytes()

    @settings(max_examples=20, deadline=None)
    @given(k=st.integers(1, 5), extra=st.integers(1, 5), seed=st.integers(0, 2**64 - 1))
    def test_larger_ensemble_only_appends(self, k, extra, seed):
        grid = make_grid(0.0, 20.0, 401)
        pot = PotentialSpec.double_well(-1.0, 0.6)
        runs = []
        for m in (k, k + extra):
            xi = sample_white(1.0, grid, seed, m).realizations
            paths = xi[:, None, :].copy()
            stepper = SemiImplicitStepper(paths.shape, pot, 0.5, grid)
            whole_array.step(stepper, paths)
            runs.append((paths, stepper.v_first.T))
        (small, v_small), (big, v_big) = runs
        assert big[:k].tobytes() == small.tobytes()
        assert v_big.tobytes() == v_small.tobytes()

    @settings(max_examples=30, deadline=None)
    @given(m=st.integers(1, 6), d=st.integers(1, 3), n=st.integers(2, 600),
           threshold=st.floats(0.05, 4.0), seed=st.integers(0, 2**32))
    def test_gate_latches_and_never_reopens(self, m, d, n, threshold, seed):
        grid = make_grid(0.0, 10.0, n)
        noise = np.random.default_rng(seed).standard_normal((m, d, n))
        # the loop oracle's radial force with lam = 0 is the quadratic force bit for bit;
        # it reads the noise before the stepper writes its paths over it
        cfg = SimpleNamespace(m2=1.0, lam=0.0, friction=0.5, gate=True,
                              gate_threshold_sq=threshold, grid=grid)
        ref_paths, ref_gates = gated_loop_oracle(cfg, noise)
        stepper = SemiImplicitStepper(noise.shape, PotentialSpec.quadratic(1.0),
                                      0.5, grid, gate_threshold=threshold)
        whole_array.step(stepper, noise)
        paths, close = noise, stepper.close
        assert paths.tobytes() == ref_paths.tobytes()
        assert set(np.unique(ref_gates)) <= {0.0, 1.0}
        assert np.all(np.diff(ref_gates, axis=1) <= 0.0)
        assert close.tobytes() == first_closed_step(ref_gates).tobytes()
        crossed = np.einsum("mdn,mdn->mn", paths, paths) > threshold
        assert np.array_equal(close, first_closed_step(np.where(crossed, 0.0, 1.0)))

    @settings(max_examples=30, deadline=None)
    @given(m=st.integers(1, 6), d=st.integers(1, 3), n=st.sampled_from([2, 257, 258, 513]),
           gate=st.booleans(), amplitude=st.floats(0.1, 3.0), seed=st.integers(0, 2**32))
    def test_scenario_force_matches_loop_oracle(self, m, d, n, gate, amplitude, seed):
        # the radial double well, gated and not, against the oracle's norm summed in
        # component order
        grid = make_grid(0.0, 10.0, n)
        noise = amplitude * np.random.default_rng(seed).standard_normal((m, d, n))
        cfg = SimpleNamespace(m2=-1.0, lam=0.6, friction=0.5, gate=gate,
                              gate_threshold_sq=-2.0 * -1.0 / 0.6, grid=grid)
        ref_paths, ref_gates = gated_loop_oracle(cfg, noise)
        stepper = SemiImplicitStepper(noise.shape, PotentialSpec.double_well(cfg.m2, cfg.lam),
                                      0.5, grid,
                                      gate_threshold=cfg.gate_threshold_sq if gate else None)
        whole_array.step(stepper, noise)
        assert noise.tobytes() == ref_paths.tobytes()
        assert stepper.close.tobytes() == first_closed_step(ref_gates).tobytes()

    # kick column per realization (None: never kicked) on a 600-point grid, whose
    # pipeline blocks start at every 128th column; a kick at column c shuts
    # the gate at step c + 1
    @pytest.mark.parametrize("kicks", [
        pytest.param([255, None], id="last-step-of-block"),
        pytest.param([None, 256, 40], id="first-step-of-block"),
        pytest.param([100, None, 100, 100, 7], id="same-step"),
        pytest.param([10, 300, 200, 300], id="all-shut-mid-block"),
        pytest.param([255, 100, 255], id="all-shut-at-last-step-of-block"),
    ])
    @pytest.mark.parametrize("d", [1, 2])
    def test_latch_at_block_edges_matches_loop_oracle(self, kicks, d):
        n, threshold = 600, 1.0
        grid = make_grid(0.0, 10.0, n)
        rng = np.random.default_rng(len(kicks) + d)
        # small noise that stays far below the threshold, a kick that crosses it
        # in one step, and large noise after the kick that shows in the paths
        # if it leaks past the shut gate
        noise = 0.01 * rng.standard_normal((len(kicks), d, n))
        for i, kick in enumerate(kicks):
            if kick is not None:
                noise[i, :, kick] = 1e5
                noise[i, :, kick + 1:] = 50.0 * rng.standard_normal((d, n - kick - 1))
        cfg = SimpleNamespace(m2=1.0, lam=0.0, friction=0.5, gate=True,
                              gate_threshold_sq=threshold, grid=grid)
        ref_paths, ref_gates = gated_loop_oracle(cfg, noise)
        stepper = SemiImplicitStepper(noise.shape, PotentialSpec.quadratic(1.0),
                                      0.5, grid, gate_threshold=threshold)
        # whole_array.step, checking the count of open gates after every block
        for cols in langevin._time_blocks(n):
            block = noise[..., cols].transpose(2, 0, 1).copy()
            noise[..., cols] = stepper.step(block, cols).transpose(1, 2, 0)
            open_rows = stepper.gate.any(axis=1)
            assert stepper.n_open == np.count_nonzero(open_rows)
            assert stepper.gate_open == bool(open_rows.any())
            assert np.all(stepper.gate == open_rows[:, None])
        assert stepper.n_open == kicks.count(None)
        assert noise.tobytes() == ref_paths.tobytes()
        assert stepper.close.tobytes() == first_closed_step(ref_gates).tobytes()
        assert stepper.close.tolist() == [-1 if k is None else k + 1 for k in kicks]

    def test_no_gate_never_closes(self):
        grid = make_grid(0.0, 1.0, 11)
        noise = np.random.default_rng(3).standard_normal((2, 1, 11))
        stepper = SemiImplicitStepper(noise.shape, PotentialSpec.quadratic(1.0),
                                      0.5, grid)
        whole_array.step(stepper, noise)
        close = stepper.close
        assert close.dtype == np.int64
        assert close.tolist() == [-1, -1]

    @settings(max_examples=30, deadline=None)
    @given(m=st.integers(1, 6), n=st.integers(30, 700), seed=st.integers(0, 2**32),
           ties=st.booleans())
    def test_divergence_names_earliest_step_then_lowest_realization(self, m, n, seed,
                                                                     ties):
        # inverted potential with omega 4 on [0, 12]: growth e^48 from |x0| ~ 1e-9..1e3
        grid = make_grid(0.0, 12.0, n)
        pot = PotentialSpec.inverted(4.0)
        rng = np.random.default_rng(seed)
        x0 = 10.0 ** rng.uniform(-9.0, 3.0, m)
        if ties and m > 1:
            x0[-1] = x0[0]
        xi = np.zeros((m, 1, n))
        expected = []
        for i in range(m):
            try:
                integrate_white(pot, 0.0, grid, xi[i, 0], x0[i], 0.0)
            except DivergenceError as err:
                expected.append((err.step, i))
        stepper = SemiImplicitStepper(xi.shape, pot, 0.0, grid, x0[:, None], 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if not expected:
                whole_array.step(stepper, xi)
                return
            with pytest.raises(DivergenceError) as info:
                whole_array.step(stepper, xi)
        step, realization = min(expected)
        assert (info.value.step, info.value.realization) == (step, realization)
        assert f"realization {realization}:" in str(info.value)

    def test_noise_must_match_grid(self):
        grid = make_grid(0.0, 1.0, 11)
        with pytest.raises(ValueError, match="11 time points"):
            SemiImplicitStepper((2, 1, 10), PotentialSpec.quadratic(1.0), 0.0, grid)


#: kick column per realization (None: never kicked) on a 600-point grid: a kick at
#: column c shuts the gate at step c + 1, the first step of a block where c is a
#: multiple of the width (every c at width 1; 129, 255 and 384 at 3; 128, 256 and
#: 384 at 128; 256 at 256) and a step inside a block elsewhere; two rows share 128
WIDTH_KICKS = [None, 128, 256, 300, 40, 129, 255, 384, 128]


class TestStepperBlockWidth:
    """The stepper's bits do not depend on the pipeline's block width (_BLOCK_STEPS).

    Each step walks a block's noise row and its next position and velocity
    rows together; the latch takes its grid index from the step's count in
    the block, so it is checked where a gate latches on a block's first step
    and inside a block.
    """

    @pytest.mark.parametrize("width", [1, 3, 128, 256])
    @pytest.mark.parametrize("d", [1, 2])
    def test_gated_rows_equal_loop_oracle(self, monkeypatch, width, d):
        n, threshold = 600, 1.0
        grid = make_grid(0.0, 10.0, n)
        rng = np.random.default_rng(d)
        # small noise far below the threshold, a kick that crosses it in one step,
        # and large noise after the kick that shows in the paths if it leaks past
        # the shut gate
        noise = 0.01 * rng.standard_normal((len(WIDTH_KICKS), d, n))
        for i, kick in enumerate(WIDTH_KICKS):
            if kick is not None:
                noise[i, :, kick] = 1e5
                noise[i, :, kick + 1:] = 50.0 * rng.standard_normal((d, n - kick - 1))
        cfg = SimpleNamespace(m2=1.0, lam=0.6, friction=0.5, gate=True,
                              gate_threshold_sq=threshold, grid=grid)
        ref_paths, ref_gates = gated_loop_oracle(cfg, noise)
        monkeypatch.setattr(langevin, "_BLOCK_STEPS", width)
        stepper = SemiImplicitStepper(noise.shape, PotentialSpec.double_well(cfg.m2, cfg.lam),
                                      0.5, grid, gate_threshold=threshold)
        whole_array.step(stepper, noise)
        assert noise.tobytes() == ref_paths.tobytes()
        assert stepper.close.tobytes() == first_closed_step(ref_gates).tobytes()
        assert stepper.close.tolist() == [-1 if k is None else k + 1 for k in WIDTH_KICKS]

    @pytest.mark.parametrize("width", [1, 3, 128, 256])
    def test_ungated_rows_equal_integrate_white(self, monkeypatch, width):
        n, m = 600, 4
        grid = make_grid(0.0, 10.0, n)
        pot = PotentialSpec.double_well(-1.0, 0.6)
        xi = sample_white(1.0, grid, width, m).realizations
        x0 = np.linspace(-1.5, 1.5, m)[:, None]
        v0 = np.linspace(0.5, -0.5, m)[:, None]
        paths = xi[:, None, :].copy()
        monkeypatch.setattr(langevin, "_BLOCK_STEPS", width)
        stepper = SemiImplicitStepper(paths.shape, pot, 0.5, grid, x0, v0)
        whole_array.step(stepper, paths)
        assert stepper.close.tolist() == [-1] * m
        for i in range(m):
            ref = integrate_white(pot, 0.5, grid, xi[i], x0[i, 0], v0[i, 0])
            assert paths[i, 0].tobytes() == ref.x.tobytes()
            if i == 0:
                assert stepper.v_first[:, 0].tobytes() == ref.xdot.tobytes()


class TestBlockedAggregate:
    """aggregate_paths reduces over _time_blocks with the column-by-column oracle's bits."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), m=st.integers(1, 12), width=st.integers(2, 6))
    def test_three_or_more_blocks_match_oracle(self, data, m, width):
        n = data.draw(st.integers(3 * width, 40))
        paths = data.draw(hnp.arrays(float, (m, n), elements=st.one_of(
            st.just(-0.0), st.floats(-1e150, 1e150), st.floats(-1e-300, 1e-300))))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(langevin, "_BLOCK_STEPS", width)
            assert len(langevin._time_blocks(n)) >= 3
            stats = aggregate_paths(make_grid(0.0, 1.0, n), paths)
        mean, variance = aggregate_oracle(paths.copy())
        assert stats.mean.tobytes() == mean.tobytes()
        assert stats.variance.tobytes() == variance.tobytes()

    # values / m columns a block: the 1 MB blocks aggregate_paths once cut
    @pytest.mark.parametrize("m, n, values", [
        (2, 3 * 65536 + 1, 131072),
        (5, 3 * 26214 + 2, 131072)])
    def test_fixed_shapes_match_oracle(self, m, n, values):
        # the stepper cannot step a trailing one-column block (it takes 0 steps), so
        # such a block joins the block before it (first case), a two-column one stays
        # (second)
        rng = np.random.default_rng(n)
        paths = rng.standard_normal((m, n)) * 10.0 ** rng.uniform(-150, 150, (m, n))
        paths[:, ::7] = -0.0
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(langevin, "_BLOCK_STEPS", values // m)
            blocks = langevin._time_blocks(n)
            assert len(blocks) >= 3
            assert min(b.stop - b.start for b in blocks) >= 2
            stats = aggregate_paths(make_grid(0.0, 1.0, n), paths)
        mean, variance = aggregate_oracle(paths)
        assert stats.mean.tobytes() == mean.tobytes()
        assert stats.variance.tobytes() == variance.tobytes()

    # 10000 realizations exceed numpy's 8192-element buffer
    @pytest.mark.parametrize("m", [1, 7, 8, 9, 129, 10000])
    def test_pipeline_blocks_equal_aggregate_paths(self, m):
        # the runners hand ColumnMoments a (w, M) view of the stepper's time-major
        # (w, M, 1) positions, aggregate_paths a transposed view of (M, n) paths in C
        # or F order: the copy into the C-ordered buffer gives all of them one order
        n = 260
        rng = np.random.default_rng(m)
        paths = rng.standard_normal((m, n)) * 10.0 ** rng.uniform(-3, 3, (m, n))
        moments = langevin.ColumnMoments(m, n)
        for cols in langevin._time_blocks(n):
            block = np.empty((cols.stop - cols.start, m, 1))
            block[:, :, 0] = paths[:, cols].T
            moments.add(block[:, :, 0], cols)
        mean, variance = aggregate_oracle(paths)
        assert moments.mean.tobytes() == mean.tobytes()
        assert moments.variance.tobytes() == variance.tobytes()
        for layout in (paths, np.asfortranarray(paths)):
            stats = aggregate_paths(make_grid(0.0, 1.0, n), layout)
            assert stats.mean.tobytes() == mean.tobytes()
            assert stats.variance.tobytes() == variance.tobytes()
            assert stats.per_run_finals.tobytes() == moments.finals.tobytes()


class TestEstimateSpectrum:
    def test_exact_power_law(self):
        k = np.geomspace(0.1, 10.0, 12)
        est = estimate_spectrum(list(zip(k, k**-3.0)))
        assert abs(est.slope + 3.0) < 1e-10
        assert est.slope_stderr < 1e-10

    def test_flat_input(self):
        k = np.geomspace(0.1, 10.0, 8)
        est = estimate_spectrum(list(zip(k, np.ones(8))))
        assert abs(est.slope) < 1e-12

    def test_k_values_sorted_increasing(self):
        pairs = [(10.0, 1e-3), (0.1, 1e3), (1.0, 1.0), (5.0, 8e-3)]
        est = estimate_spectrum(pairs)
        assert np.all(np.diff(est.k) > 0)

    def test_insufficient_range_rejected(self):
        k = np.geomspace(1.0, 5.0, 8)
        with pytest.raises(ValueError, match="insufficient k range"):
            estimate_spectrum(list(zip(k, k**-3.0)))
        k = np.array([1.0, 2.0, 30.0])
        with pytest.raises(ValueError, match="insufficient k range"):
            estimate_spectrum(list(zip(k, k**-3.0)))


class TestTrajectoryType:
    def test_shape_validation(self):
        grid = make_grid(0.0, 1.0, 5)
        with pytest.raises(ValueError):
            Trajectory(grid, np.zeros(4), np.zeros(5))
