import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctpsim.core import ConfigError, NumericalError, make_grid
from ctpsim.kernels import (ADVANCED, RETARDED, SYMMETRIC, ContourMatrix,
                            DeSitterParams, KernelMatrix,
                            build_contour_matrix, build_hadamard,
                            build_retarded, desitter_factor, desitter_hadamard,
                            elementwise_power, fluctuation_kernel,
                            keldysh_rotate, memory_kernel, psd_factor,
                            psd_project, squeezed_factor)
from ctpsim.squeeze import SqueezeParams, mode_two_point

UNIT = SqueezeParams()


def stable_two_point(omega=1.0, mass=1.0, hbar=1.0):
    def f(t, tp):
        return hbar / (2.0 * mass * omega) * np.exp(-1j * omega * (t - tp))
    return f


class TestKernelMatrixStructure:
    def test_retarded_rejects_upper_entries(self):
        grid = make_grid(0.0, 1.0, 4)
        vals = np.ones((4, 4))
        with pytest.raises(ValueError, match="retarded"):
            KernelMatrix(grid, vals, RETARDED)

    def test_advanced_rejects_lower_entries(self):
        grid = make_grid(0.0, 1.0, 4)
        with pytest.raises(ValueError, match="advanced"):
            KernelMatrix(grid, np.tril(np.ones((4, 4))), ADVANCED)

    def test_symmetric_rejects_asymmetry(self):
        grid = make_grid(0.0, 1.0, 4)
        vals = np.eye(4)
        vals[0, 1] = 1e-6
        with pytest.raises(ValueError, match="symmetric"):
            KernelMatrix(grid, vals, SYMMETRIC)

    def test_values_are_read_only(self):
        grid = make_grid(0.0, 1.0, 4)
        kernel = KernelMatrix(grid, np.eye(4), SYMMETRIC)
        with pytest.raises(ValueError):
            kernel.values[0, 0] = 2.0

    def test_takes_ownership_of_float64_array(self):
        vals = np.eye(4)
        kernel = KernelMatrix(make_grid(0.0, 1.0, 4), vals, SYMMETRIC)
        assert np.shares_memory(kernel.values, vals)
        assert not vals.flags.writeable
        ints = np.eye(4, dtype=int)
        converted = KernelMatrix(make_grid(0.0, 1.0, 4), ints, SYMMETRIC)
        assert converted.values.dtype == np.float64 and ints.flags.writeable

    def test_unknown_kind_rejected(self):
        grid = make_grid(0.0, 1.0, 4)
        with pytest.raises(ValueError, match="kind"):
            KernelMatrix(grid, np.eye(4), "weird")

    def test_non_finite_values_rejected(self):
        # cosh and sinh overflow to inf at w (t + t') ~ 710; inf - c inf is NaN
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match="not finite"):
                build_hadamard(UNIT, make_grid(0.0, 400.0, 9))
        vals = np.eye(4)
        vals[2, 2] = np.nan
        with pytest.raises(NumericalError, match=r"\(t, t'\) = \(0.666667, 0.666667\)"):
            KernelMatrix(make_grid(0.0, 1.0, 4), vals, SYMMETRIC)


class TestBuildRetarded:
    def test_diagonal_vanishes(self):
        kernel = build_retarded(UNIT, make_grid(0.0, 1.0, 16))
        assert np.all(np.diag(kernel.values) == 0.0)

    def test_unit_separation_entry(self):
        grid = make_grid(0.0, 2.0, 21)  # dt = 0.1, separation 1.0 is 10 steps
        kernel = build_retarded(UNIT, grid)
        assert math.isclose(kernel.values[10, 0], math.sinh(1.0), rel_tol=1e-14)
        assert kernel.values[0, 10] == 0.0

    def test_small_separation_is_linear(self):
        grid = make_grid(0.0, 0.064, 65)  # dt = 1e-3
        kernel = build_retarded(UNIT, grid)
        sep = grid.dt
        # sinh(w s) = w s (1 + O((w s)^2))
        assert math.isclose(kernel.values[1, 0], sep, rel_tol=1e-5)

    def test_scaling_with_parameters(self):
        params = SqueezeParams(mass=2.0, omega=0.5, hbar=3.0)
        grid = make_grid(0.0, 1.0, 3)
        kernel = build_retarded(params, grid)
        expected = 3.0 / (2.0 * 0.5) * math.sinh(0.5 * 0.5)
        assert math.isclose(kernel.values[1, 0], expected, rel_tol=1e-14)


class TestBuildHadamard:
    def test_origin_entry(self):
        kernel = build_hadamard(UNIT, make_grid(0.0, 1.0, 16))
        assert kernel.values[0, 0] == 1.0

    def test_general_angle_term(self):
        params = SqueezeParams(phi=0.3)
        kernel = build_hadamard(params, make_grid(0.0, 1.0, 5))
        t = make_grid(0.0, 1.0, 5).times()
        s = t[3] + t[1]
        expected = math.cosh(s) - math.cos(0.6) * math.sinh(s)
        assert math.isclose(kernel.values[3, 1], expected, rel_tol=1e-14)

    def test_numerical_rank_two(self):
        kernel = build_hadamard(UNIT, make_grid(0.0, 1.0, 64))
        w = np.linalg.eigvalsh(kernel.values)[::-1]
        assert w[2] < 1e-10 * w[0]
        assert w[1] > 1e-6 * w[0]  # genuinely rank 2, not 1, on a short grid

    def test_positive_semidefinite(self):
        for phi in (-math.pi / 4, 0.0, 0.7):
            kernel = build_hadamard(SqueezeParams(phi=phi), make_grid(0.0, 1.0, 48))
            w = np.linalg.eigvalsh(kernel.values)
            assert w[0] >= -1e-10 * w[-1]


class TestContourMatrix:
    def test_equal_time_diagonals_agree(self):
        grid = make_grid(0.0, 1.0, 16)
        cm = build_contour_matrix(stable_two_point(), grid)
        d = np.diag(cm.g_f)
        for block in (cm.g_plus, cm.g_minus, cm.g_fbar):
            assert np.array_equal(np.diag(block), d)

    def test_ordering_identity(self):
        grid = make_grid(0.0, 1.0, 16)
        cm = build_contour_matrix(stable_two_point(), grid)
        ident = cm.g_f + cm.g_fbar - cm.g_plus - cm.g_minus
        assert np.max(np.abs(ident)) < 1e-12

    def test_feynman_block_matches_closed_form(self):
        grid = make_grid(0.0, 1.0, 16)
        cm = build_contour_matrix(stable_two_point(), grid)
        t = grid.times()
        # Re G_F = (1/2 Omega) cos(Omega (t - t')) / ... with m = hbar = 1
        expected = 0.5 * np.cos(np.abs(t[:, None] - t[None, :]))
        assert np.max(np.abs(cm.g_f.real - expected)) < 1e-12
        assert np.max(np.abs(np.diag(cm.g_f.imag))) == 0.0

    def test_invalid_blocks_rejected(self):
        grid = make_grid(0.0, 1.0, 4)
        good = build_contour_matrix(stable_two_point(), grid)
        with pytest.raises(ValueError, match="ordering identity"):
            ContourMatrix(grid, g_f=good.g_f + 1.0, g_plus=good.g_plus,
                          g_minus=good.g_minus, g_fbar=good.g_fbar)

    def test_non_finite_block_rejected(self):
        grid = make_grid(0.0, 1.0, 4)
        good = build_contour_matrix(stable_two_point(), grid)
        g_plus = good.g_plus.copy()
        g_plus[1, 3] = complex(0.0, np.inf)
        with pytest.raises(NumericalError, match="g_plus is not finite"):
            ContourMatrix(grid, g_f=good.g_f, g_plus=g_plus,
                          g_minus=good.g_minus, g_fbar=good.g_fbar)


class TestKeldyshRotate:
    @pytest.mark.parametrize("n", [8, 16, 64])
    def test_zero_block_residual_stable(self, n):
        grid = make_grid(0.0, 1.0, n)
        _, _, _, residual = keldysh_rotate(build_contour_matrix(stable_two_point(), grid))
        assert residual < 1e-12

    @pytest.mark.parametrize("n", [8, 16, 64])
    def test_zero_block_residual_inverted(self, n):
        grid = make_grid(0.0, 1.0, n)
        cm = build_contour_matrix(mode_two_point(UNIT), grid)
        _, _, _, residual = keldysh_rotate(cm)
        assert residual < 1e-12

    def test_advanced_is_exact_transpose(self):
        grid = make_grid(0.0, 1.0, 16)
        g_r, g_a, _, _ = keldysh_rotate(build_contour_matrix(stable_two_point(), grid))
        assert np.array_equal(g_a.values, g_r.values.T)
        assert g_a.kind == ADVANCED

    def test_stable_oscillator_symmetric_kernel(self):
        grid = make_grid(0.0, 1.0, 16)
        _, _, g_c, _ = keldysh_rotate(build_contour_matrix(stable_two_point(), grid))
        t = grid.times()
        expected = np.cos(t[:, None] - t[None, :])
        assert np.max(np.abs(g_c.values - expected)) < 1e-12

    def test_inverted_oscillator_matches_builders(self):
        params = SqueezeParams(mass=1.5, omega=0.8, hbar=2.0)
        grid = make_grid(0.0, 1.0, 24)
        g_r, _, g_c, _ = keldysh_rotate(
            build_contour_matrix(mode_two_point(params), grid))
        assert np.max(np.abs(g_r.values - build_retarded(params, grid).values)) < 1e-10
        assert np.max(np.abs(g_c.values - build_hadamard(params, grid).values)) < 1e-10


# (amplitude a, frequency w, occupation n) of independent stable oscillators
STABLE_MODES = st.lists(st.tuples(st.floats(1e-3, 1e3), st.floats(0.05, 20.0),
                                  st.floats(0.0, 5.0)), min_size=1, max_size=4)


def thermal_two_point(modes):
    """<x(t) x(t')> = sum a ((n + 1) e^{-i w (t - t')} + n e^{i w (t - t')}) over the modes."""
    def f(t, tp):
        return sum(a * ((occ + 1.0) * np.exp(-1j * w * (t - tp))
                        + occ * np.exp(1j * w * (t - tp))) for a, w, occ in modes)
    return f


class TestRandomStableTwoPoint:
    """The contour algebra on random stable (thermal oscillator) two-point functions."""

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(modes=STABLE_MODES, t_end=st.floats(0.1, 10.0), n=st.integers(2, 24))
    def test_ordering_identity_and_zero_block(self, modes, t_end, n):
        grid = make_grid(0.0, t_end, n)
        cm = build_contour_matrix(thermal_two_point(modes), grid)
        # g_f and g_fbar hold f(t_i, t_j) and f(t_j, t_i) in some order, so the
        # ordering identity holds exactly
        assert np.array_equal(cm.g_f + cm.g_fbar, cm.g_plus + cm.g_minus)
        g_r, g_a, g_c, residual = keldysh_rotate(cm)
        # the zero block is the identity minus itself: rounding only, at most
        # 1.5 ulp of |g| per component, times 1/4
        assert residual <= np.finfo(float).eps * np.max(np.abs(cm.g_plus))
        assert np.array_equal(g_a.values, g_r.values.T)
        t = grid.times()
        tau = t[:, None] - t[None, :]
        scale = sum(a * (2.0 * occ + 1.0) for a, _, occ in modes)
        retarded = sum(2.0 * a * np.sin(w * tau) for a, w, _ in modes)
        assert np.max(np.abs(g_r.values - np.where(tau >= 0, retarded, 0.0))) <= 1e-12 * scale
        anticommutator = sum(2.0 * a * (2.0 * occ + 1.0) * np.cos(w * tau)
                             for a, w, occ in modes)
        assert np.max(np.abs(g_c.values - anticommutator)) <= 1e-12 * scale


class TestElementwisePower:
    def test_identity_power(self):
        kernel = build_hadamard(UNIT, make_grid(0.0, 1.0, 8))
        assert np.array_equal(elementwise_power(kernel, 1).values, kernel.values)

    def test_cubes_entries(self):
        grid = make_grid(0.0, 1.0, 3)
        vals = np.full((3, 3), 2.0)
        kernel = KernelMatrix(grid, vals, SYMMETRIC)
        assert np.all(elementwise_power(kernel, 3).values == 8.0)

    @pytest.mark.parametrize("seed", [3, 17, 2718])
    def test_psd_preserved_by_schur_powers(self, seed):
        rng = np.random.default_rng(seed)
        grid = make_grid(0.0, 1.0, 12)
        b = rng.standard_normal((12, 12))
        vals = b @ b.T
        vals /= np.max(np.abs(vals))
        kernel = KernelMatrix(grid, 0.5 * (vals + vals.T), SYMMETRIC)
        for p in (2, 3):
            powered = elementwise_power(kernel, p)
            w = np.linalg.eigvalsh(powered.values)
            assert w[0] >= -1e-10 * max(w[-1], 1e-30)

    def test_rejects_non_symmetric(self):
        kernel = build_retarded(UNIT, make_grid(0.0, 1.0, 8))
        with pytest.raises(ValueError, match="symmetric"):
            elementwise_power(kernel, 2)
        sym = build_hadamard(UNIT, make_grid(0.0, 1.0, 8))
        with pytest.raises(ValueError, match="integer"):
            elementwise_power(sym, 0)


class TestFluctuationKernel:
    def test_free_theory_has_no_noise(self):
        g_c = build_hadamard(UNIT, make_grid(0.0, 1.0, 8))
        assert np.all(fluctuation_kernel(0.0, g_c).values == 0.0)

    def test_diagonal_kernel_arithmetic(self):
        grid = make_grid(0.0, 1.0, 4)
        g_c = KernelMatrix(grid, np.eye(4), SYMMETRIC)
        out = fluctuation_kernel(2.0, g_c)
        assert np.array_equal(out.values, 4.0 * 3.0 * np.eye(4))

    def test_psd_in_psd_out(self):
        g_c = build_hadamard(UNIT, make_grid(0.0, 1.0, 32))
        out = fluctuation_kernel(0.5, g_c)
        w = np.linalg.eigvalsh(out.values)
        assert w[0] >= -1e-10 * w[-1]


class TestSqueezedFactor:
    @pytest.mark.parametrize("phi", [-math.pi / 4, 0.3, 0.0, math.pi / 2])
    @pytest.mark.parametrize("coupling", [None, 0.7])
    def test_factor_reproduces_dense_kernel(self, phi, coupling):
        params = SqueezeParams(mass=1.3, omega=0.8, phi=phi, hbar=0.9)
        grid = make_grid(-0.5, 3.0, 41)
        g_c = build_hadamard(params, grid)
        dense = g_c if coupling is None else fluctuation_kernel(coupling, g_c)
        f = squeezed_factor(params, grid, coupling)
        # near c = +-1 the dense cosh - c sinh cancels, so its error is
        # relative to the largest entry, not to each entry
        scale = np.max(np.abs(dense.values))
        assert np.allclose(f @ f.T, dense.values, rtol=1e-12, atol=1e-13 * scale)

    def test_rank(self):
        grid = make_grid(0.0, 1.0, 8)
        assert squeezed_factor(UNIT, grid).shape == (8, 2)
        assert squeezed_factor(UNIT, grid, 0.5).shape == (8, 7)
        # c = cos(2 phi) = 1 leaves only the decaying modes
        assert squeezed_factor(SqueezeParams(phi=0.0), grid).shape == (8, 1)
        assert squeezed_factor(SqueezeParams(phi=0.0), grid, 0.5).shape == (8, 3)

    def test_rank_zero_rejected(self):
        with pytest.raises(ConfigError, match="rank-0 noise"):
            squeezed_factor(UNIT, make_grid(0.0, 1.0, 8), 0.0)

    def test_overflow_names_first_bad_time(self):
        grid = make_grid(0.0, 300.0, 31)  # e^{3 w t} leaves the float range past w t ~ 236.6
        squeezed_factor(UNIT, grid)
        with pytest.raises(NumericalError, match="t = 240"):
            squeezed_factor(UNIT, grid, 0.5)


class TestMemoryKernel:
    def test_free_limit(self):
        grid = make_grid(0.0, 1.0, 16)
        g_r = build_retarded(UNIT, grid)
        g_c = build_hadamard(UNIT, grid)
        out = memory_kernel(0.0, g_r, g_c)
        assert np.array_equal(out.values, 2.0 * g_r.values)

    def test_multiplicative_support(self):
        grid = make_grid(0.0, 1.0, 16)
        g_r = build_retarded(UNIT, grid)
        g_c = build_hadamard(UNIT, grid)
        out = memory_kernel(1.0, g_r, g_c)
        assert np.all(out.values[g_r.values == 0.0] == 0.0)
        assert out.kind == RETARDED

    def test_scalar_composition(self):
        # entry at (t, t') = (1, 0): 2 sinh(1) (1 + cosh(1)^2)
        grid = make_grid(0.0, 1.0, 11)
        out = memory_kernel(1.0, build_retarded(UNIT, grid), build_hadamard(UNIT, grid))
        expected = 2.0 * math.sinh(1.0) * (1.0 + math.cosh(1.0) ** 2)
        assert math.isclose(out.values[10, 0], expected, rel_tol=1e-14)

    def test_grid_mismatch_rejected(self):
        g_r = build_retarded(UNIT, make_grid(0.0, 1.0, 16))
        g_c = build_hadamard(UNIT, make_grid(0.0, 2.0, 16))
        with pytest.raises(ValueError, match="grid"):
            memory_kernel(1.0, g_r, g_c)


class TestGridRestrictionLocality:
    def test_builders_commute_with_prefix_restriction(self):
        # dyadic spacing so prefix grids reproduce dt exactly
        params = SqueezeParams(mass=1.5, omega=0.8, hbar=2.0)
        big = make_grid(0.0, 2.0, 33)
        prefix = make_grid(0.0, 1.0, 17)
        assert prefix.dt == big.dt
        for build in (build_retarded, build_hadamard):
            whole = build(params, big).values[:17, :17]
            assert np.array_equal(whole, build(params, prefix).values)
        g_r_big = build_retarded(params, big)
        g_c_big = build_hadamard(params, big)
        g_r_pre = build_retarded(params, prefix)
        g_c_pre = build_hadamard(params, prefix)
        assert np.array_equal(
            fluctuation_kernel(0.7, g_c_big).values[:17, :17],
            fluctuation_kernel(0.7, g_c_pre).values)
        assert np.array_equal(
            memory_kernel(0.7, g_r_big, g_c_big).values[:17, :17],
            memory_kernel(0.7, g_r_pre, g_c_pre).values)


class TestDeSitterKernel:
    DP = DeSitterParams(hubble=1.0, k=2.0, coupling=1.0, background=1.0)

    def test_superhorizon_limit(self):
        assert desitter_hadamard(self.DP, 0.0, 0.0) == 1.0 / 8.0

    def test_k_cubed_prefactor(self):
        base = desitter_hadamard(DeSitterParams(1.0, 1.0, 1.0, 1.0), 0.0, 0.0)
        doubled = desitter_hadamard(DeSitterParams(1.0, 2.0, 1.0, 1.0), 0.0, 0.0)
        assert math.isclose(doubled, base / 8.0, rel_tol=1e-14)

    def test_quarter_period_value(self):
        k = 2.0
        eta = -math.pi / (2.0 * k)
        val = desitter_hadamard(self.DP, eta, 0.0)
        assert math.isclose(val, (1.0 / k**3) * (math.pi / 2.0), rel_tol=1e-12)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            DeSitterParams(hubble=0.0, k=1.0, coupling=1.0, background=1.0)
        with pytest.raises(ValueError):
            DeSitterParams(hubble=1.0, k=-1.0, coupling=1.0, background=1.0)

    @pytest.mark.parametrize("field, message", [
        ("hubble", "hubble rate must be positive"),
        ("k", "wavenumber k must be positive"),
        ("coupling", "coupling must be >= 0")], ids=["hubble", "k", "coupling"])
    def test_nan_params_refused(self, field, message):
        # NaN passes a bare x <= 0 or x < 0 check
        values = dict(hubble=1.0, k=2.0, coupling=1.0, background=1.0)
        with pytest.raises(ValueError, match=message):
            DeSitterParams(**{**values, field: math.nan})

    @pytest.mark.parametrize("field, message", [
        ("hubble", "hubble rate must be positive"),
        ("k", "wavenumber k must be positive"),
        ("coupling", "coupling must be >= 0")], ids=["hubble", "k", "coupling"])
    def test_inf_params_refused(self, field, message):
        # inf passes a bare x > 0 or x >= 0 check
        values = dict(hubble=1.0, k=2.0, coupling=1.0, background=1.0)
        with pytest.raises(ValueError, match=message):
            DeSitterParams(**{**values, field: math.inf})

    @pytest.mark.parametrize("hubble", [1.0, 2.0])
    @pytest.mark.parametrize("k", [0.5, 2.0, 15.8])
    def test_factor_is_the_symmetric_mode_kernel(self, k, hubble):
        # (H^2/k^3) ((1 + k^2 eta eta') cos(k d) + k d sin(k d)), d = eta - eta'
        grid = make_grid(0.0, 30.0, 3001)
        factor = desitter_factor(DeSitterParams(hubble, k, 1.0, 1.0), grid)
        eta = -np.exp(-hubble * grid.times()) / hubble
        d = eta[:, None] - eta[None, :]
        kernel = (hubble**2 / k**3) * ((1.0 + k * k * np.outer(eta, eta)) * np.cos(k * d)
                                       + k * d * np.sin(k * d))
        err = np.max(np.abs(factor @ factor.T - kernel))
        assert err <= 1e-13 * np.max(np.abs(kernel))

    @pytest.mark.parametrize("hubble", [1.0, 2.0])
    @pytest.mark.parametrize("k", [0.5, 2.0, 15.8])
    def test_factor_tends_to_its_superhorizon_limit(self, k, hubble):
        factor = desitter_factor(DeSitterParams(hubble, k, 1.0, 1.0),
                                 make_grid(0.0, 30.0, 3001))
        assert math.isclose(factor[-1, 0], hubble / k**1.5, rel_tol=1e-14)
        assert abs(factor[-1, 1]) <= 1e-30 * factor[-1, 0]

    def test_factor_has_rank_two(self):
        factor = desitter_factor(self.DP, make_grid(0.0, 30.0, 3001))
        assert factor.shape == (3001, 2)
        assert np.linalg.matrix_rank(factor) == 2

    def test_factor_overflow_names_the_time(self):
        # eta = -e^{-H t}/H overflows float64 before t = -710 / H
        with pytest.raises(NumericalError, match=r"not finite at t = -1000"):
            desitter_factor(self.DP, make_grid(-1000.0, 0.0, 11))


class TestPsdProject:
    def test_psd_input_untouched(self):
        grid = make_grid(0.0, 1.0, 8)
        kernel = KernelMatrix(grid, np.eye(8), SYMMETRIC)
        out, clipped = psd_project(kernel, 1e-10)
        assert clipped == 0
        assert out is kernel

    def test_rank_two_kernel_clips_rest(self):
        kernel = build_hadamard(UNIT, make_grid(0.0, 1.0, 64))
        out, clipped = psd_project(kernel, 1e-10)
        assert clipped == 62
        w = np.linalg.eigvalsh(out.values)
        assert w[0] >= -1e-12 * w[-1]

    def test_single_negative_eigenvalue_clip(self):
        rng = np.random.default_rng(11)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        vals = (q * np.array([1.0, 0.5, 0.1, -1e-6])) @ q.T
        grid = make_grid(0.0, 1.0, 4)
        kernel = KernelMatrix(grid, 0.5 * (vals + vals.T), SYMMETRIC)
        out, clipped = psd_project(kernel, 1e-5)
        assert clipped == 1
        assert np.linalg.eigvalsh(out.values)[0] >= 0.0

    @staticmethod
    def _four_by_four():
        rng = np.random.default_rng(11)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        vals = (q * np.array([1.0, 0.5, 0.1, -1e-6])) @ q.T
        return KernelMatrix(make_grid(0.0, 1.0, 4), 0.5 * (vals + vals.T), SYMMETRIC), 1e-5

    @pytest.mark.parametrize("case", ["identity", "hadamard", "four_by_four"])
    def test_projection_is_the_sampled_covariance(self, case, monkeypatch):
        from ctpsim import noise
        if case == "identity":
            kernel, tol = KernelMatrix(make_grid(0.0, 1.0, 8), np.eye(8), SYMMETRIC), 1e-10
        elif case == "hadamard":
            kernel, tol = build_hadamard(UNIT, make_grid(0.0, 1.0, 64)), 1e-10
        else:
            kernel, tol = self._four_by_four()
        drawn = []
        real_draw = noise.draw_from_factor

        def spy(factor, seed, n_realizations):
            drawn.append(factor.shape[1])
            return real_draw(factor, seed, n_realizations)

        monkeypatch.setattr(noise, "draw_from_factor", spy)
        noise.sample_colored(kernel, seed=1, n_realizations=2, clip_tol=tol)
        out, clipped = psd_project(kernel, tol)
        factor = psd_factor(kernel, tol)
        assert drawn == [factor.shape[1]] == [kernel.n - clipped]
        if clipped == 0:
            assert out is kernel
        else:
            assert out.values.tobytes() == (factor @ factor.T).tobytes()
        assert clipped == {"identity": 0, "hadamard": 62, "four_by_four": 1}[case]

    def test_indefinite_kernel_raises(self):
        kernel = KernelMatrix(make_grid(0.0, 1.0, 4), np.diag([1.0, 1.0, 1.0, -1e-3]),
                              SYMMETRIC)
        with pytest.raises(NumericalError, match="negative eigenvalue"):
            psd_project(kernel, 1e-5)

    def test_rank_zero_kernel_is_config_error(self):
        kernel = KernelMatrix(make_grid(0.0, 1.0, 4), np.zeros((4, 4)), SYMMETRIC)
        with pytest.raises(ConfigError, match="rank-0 noise"):
            psd_factor(kernel, 1e-10)
