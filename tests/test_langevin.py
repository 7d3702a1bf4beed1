import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ctpsim import langevin
from ctpsim.core import DivergenceError, make_grid
from ctpsim.kernels import (RETARDED, DeSitterParams, KernelMatrix,
                            build_hadamard, build_retarded, memory_kernel)
from ctpsim.langevin import (PotentialSpec, Trajectory, aggregate_paths,
                             ensemble_run, estimate_spectrum,
                             integrate_memory, integrate_overdamped_mode,
                             integrate_white, relaxation_rate,
                             step_exponential, step_semi_implicit)
from ctpsim.noise import sample_white
from ctpsim.squeeze import SqueezeParams

from oracles import (aggregate_oracle, collocation_memory_oracle, first_closed_step,
                     gated_loop_oracle, memory_loop_oracle)

UNIT = SqueezeParams()


def white_realization(grid, seed, sigma2=1.0):
    rng = np.random.default_rng(seed)
    return math.sqrt(sigma2 / grid.dt) * rng.standard_normal(grid.n_points)


def zero(grid):
    return np.zeros(grid.n_points)


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

    def test_double_well_minimum(self):
        dw = PotentialSpec.double_well(-1.0, 0.6)
        x_min = math.sqrt(10.0)
        assert abs(dw.vprime(x_min)) < 1e-14


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
        rng = np.random.default_rng(8)
        grid = make_grid(0.0, 1.0, 21)
        paths = rng.standard_normal((40, 21))
        perm = rng.permutation(40)
        a = aggregate_paths(grid, paths)
        b = aggregate_paths(grid, paths[perm])
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.variance, b.variance)

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
    st.tuples(st.floats(-2.0, -0.2), st.floats(0.1, 2.0)).map(
        lambda p: PotentialSpec.double_well(*p)))
STARTS = st.floats(-2.0, 2.0, allow_nan=False)


class TestBatchedSteppers:
    """The batched steppers reproduce the single-path integrators bit for bit.

    Grids run up to 600 points so the 256-step time blocks are crossed.
    """

    @settings(max_examples=40, deadline=None)
    @given(pot=POTENTIALS, gamma=st.floats(0.0, 2.0), m=st.integers(1, 4),
           n=st.integers(2, 600), seed=st.integers(0, 2**32),
           starts=st.lists(st.tuples(STARTS, STARTS), min_size=4, max_size=4))
    def test_rows_equal_integrate_white(self, pot, gamma, m, n, seed, starts):
        grid = make_grid(0.0, 3.0, n)
        xi = sample_white(1.0, grid, seed, m).realizations
        x0 = np.array([[s[0]] for s in starts[:m]])
        v0 = np.array([[s[1]] for s in starts[:m]])
        # the stepper writes over its noise, and xi (read-only) is the reference's
        paths, close, v_first = step_semi_implicit(xi[:, None, :].copy(), pot.vprime,
                                                   gamma, grid, x0, v0)
        assert close.tobytes() == np.full(m, -1, dtype=np.int64).tobytes()
        for i in range(m):
            ref = integrate_white(pot, gamma, grid, xi[i], starts[i][0], starts[i][1])
            assert paths[i, 0].tobytes() == ref.x.tobytes()
            if i == 0:
                assert v_first[0].tobytes() == ref.xdot.tobytes()

    @settings(max_examples=30, deadline=None)
    @given(k=st.floats(0.5, 20.0), coupling=st.floats(0.5, 12.0), m=st.integers(1, 4),
           n=st.integers(2, 600), seed=st.integers(0, 2**32),
           phi0=st.lists(STARTS, min_size=4, max_size=4))
    def test_rows_equal_integrate_overdamped_mode(self, k, coupling, m, n, seed, phi0):
        dp = DeSitterParams(hubble=1.0, k=k, coupling=coupling, background=1.0)
        grid = make_grid(0.0, 10.0, n)
        amp = k ** -1.5
        xi = sample_white(1.0, grid, seed, m).realizations
        q = np.exp(-relaxation_rate(dp) * grid.dt)
        phi = step_exponential(amp * xi, q, np.array(phi0[:m]))
        for i in range(m):
            ref = integrate_overdamped_mode(dp, amp, grid, xi[i], phi0[i])
            assert phi[i].tobytes() == ref.x.tobytes()

    @settings(max_examples=20, deadline=None)
    @given(k=st.integers(1, 5), extra=st.integers(1, 5), seed=st.integers(0, 2**64 - 1))
    def test_larger_ensemble_only_appends(self, k, extra, seed):
        grid = make_grid(0.0, 20.0, 401)
        pot = PotentialSpec.double_well(-1.0, 0.6)
        runs = []
        for m in (k, k + extra):
            xi = sample_white(1.0, grid, seed, m).realizations
            paths, _, v_first = step_semi_implicit(xi[:, None, :].copy(), pot.vprime,
                                                   0.5, grid)
            runs.append((paths, v_first, step_exponential(0.3 * xi, 0.9)))
        (small, v_small, phi_small), (big, v_big, phi_big) = runs
        assert big[:k].tobytes() == small.tobytes()
        assert v_big.tobytes() == v_small.tobytes()
        assert phi_big[:k].tobytes() == phi_small.tobytes()

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
        paths, close, _ = step_semi_implicit(noise, PotentialSpec.quadratic(1.0).vprime,
                                             0.5, grid, gate_threshold=threshold)
        assert paths.tobytes() == ref_paths.tobytes()
        assert set(np.unique(ref_gates)) <= {0.0, 1.0}
        assert np.all(np.diff(ref_gates, axis=1) <= 0.0)
        assert close.tobytes() == first_closed_step(ref_gates).tobytes()
        crossed = np.einsum("mdn,mdn->mn", paths, paths) > threshold
        assert np.array_equal(close, first_closed_step(np.where(crossed, 0.0, 1.0)))

    def test_no_gate_never_closes(self):
        grid = make_grid(0.0, 1.0, 11)
        noise = np.random.default_rng(3).standard_normal((2, 1, 11))
        _, close, _ = step_semi_implicit(noise, PotentialSpec.quadratic(1.0).vprime,
                                         0.5, grid)
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
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if not expected:
                step_semi_implicit(xi, pot.vprime, 0.0, grid, x0[:, None], 0.0)
                return
            with pytest.raises(DivergenceError) as info:
                step_semi_implicit(xi, pot.vprime, 0.0, grid, x0[:, None], 0.0)
        step, realization = min(expected)
        assert (info.value.step, info.value.realization) == (step, realization)
        assert f"realization {realization}:" in str(info.value)

    def test_noise_must_match_grid(self):
        grid = make_grid(0.0, 1.0, 11)
        with pytest.raises(ValueError, match="11 time points"):
            step_semi_implicit(np.zeros((2, 1, 10)), PotentialSpec.quadratic(1.0).vprime,
                               0.0, grid)


def _read_only(a):
    a = a.copy()
    a.setflags(write=False)
    return a


class TestInPlace:
    """The steppers write their paths over the array they are given and return it."""

    def test_paths_are_the_noise_array(self):
        grid = make_grid(0.0, 3.0, 600)
        noise = np.random.default_rng(5).standard_normal((3, 2, 600))
        paths, _, _ = step_semi_implicit(noise, PotentialSpec.quadratic(1.0).vprime,
                                         0.5, grid, gate_threshold=1.0)
        assert np.shares_memory(paths, noise)
        drive = np.random.default_rng(6).standard_normal((3, 600))
        assert np.shares_memory(step_exponential(drive, 0.9), drive)

    @pytest.mark.parametrize("make", [
        _read_only,
        lambda a: a.astype(np.float32),
        lambda a: a.astype(np.int64),
        lambda a: a.tolist()], ids=["read-only", "float32", "int64", "list"])
    def test_rejects_what_it_cannot_overwrite(self, make):
        grid = make_grid(0.0, 1.0, 11)
        noise = make(np.zeros((2, 1, 11)))
        with pytest.raises(ValueError, match="noise must be a writable float64 array"):
            step_semi_implicit(noise, PotentialSpec.quadratic(1.0).vprime, 0.0, grid)
        drive = make(np.zeros((2, 11)))
        with pytest.raises(ValueError, match="drive must be a writable float64 array"):
            step_exponential(drive, 0.9)

    def test_sample_white_stays_read_only(self):
        grid = make_grid(0.0, 1.0, 11)
        xi = sample_white(1.0, grid, 3, 2).realizations
        with pytest.raises(ValueError, match="noise must be a writable float64 array"):
            step_semi_implicit(xi[:, None, :], PotentialSpec.quadratic(1.0).vprime,
                               0.0, grid)
        assert xi.tobytes() == sample_white(1.0, grid, 3, 2).realizations.tobytes()


class TestBlockedAggregate:
    """aggregate_paths reduces in column blocks with the whole-array formula's bits."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), m=st.integers(1, 12), width=st.integers(1, 6))
    def test_three_or_more_blocks_match_oracle(self, data, m, width):
        n = data.draw(st.integers(3 * max(2, width), 40))
        paths = data.draw(hnp.arrays(float, (m, n), elements=st.one_of(
            st.just(-0.0), st.floats(-1e150, 1e150), st.floats(-1e-300, 1e-300))))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(langevin, "_AGGREGATE_BLOCK_VALUES", width * m)
            assert len(list(langevin._column_blocks(m, n))) >= 3
            stats = aggregate_paths(make_grid(0.0, 1.0, n), paths)
        mean, variance = aggregate_oracle(paths.copy())
        assert stats.mean.tobytes() == mean.tobytes()
        assert stats.variance.tobytes() == variance.tobytes()

    @pytest.mark.parametrize("m, n, values", [
        (2, 3 * 65536 + 1, langevin._AGGREGATE_BLOCK_VALUES),
        (5, 3 * 26214 + 2, langevin._AGGREGATE_BLOCK_VALUES),
        (40, 9, 40)])
    def test_fixed_shapes_match_oracle(self, m, n, values):
        # numpy sums a one-column block pairwise, not row after row: a trailing
        # one-column block joins the block before it (first case), a two-column
        # one stays (second), and one column asked for gets two (third)
        rng = np.random.default_rng(n)
        paths = rng.standard_normal((m, n)) * 10.0 ** rng.uniform(-150, 150, (m, n))
        paths[:, ::7] = -0.0
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(langevin, "_AGGREGATE_BLOCK_VALUES", values)
            blocks = list(langevin._column_blocks(m, n))
            assert len(blocks) >= 3
            assert min(b.stop - b.start for b in blocks) >= 2
            stats = aggregate_paths(make_grid(0.0, 1.0, n), paths)
        mean, variance = aggregate_oracle(paths)
        assert stats.mean.tobytes() == mean.tobytes()
        assert stats.variance.tobytes() == variance.tobytes()


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
