import math

import numpy as np
import pytest

from ctpsim.core import NumericalError, make_grid
from ctpsim.kernels import KernelMatrix, build_hadamard, build_retarded
from ctpsim.noise import sample_white
from ctpsim.squeeze import (BogolubovCoeffs, SqueezeParams,
                            accumulate_coherent_shift, bogolubov_coefficients,
                            coherent_overlap, coherent_particle_number,
                            commutator_green, hadamard_green, mode_two_point,
                            particle_number, quadrature_variances)

from oracles import (anticommutator_oracle, commutator_oracle,
                     rotated_variance_oracle)

UNIT = SqueezeParams(mass=1.0, omega=1.0, hbar=1.0)
ODD = SqueezeParams(mass=2.0, omega=1.3, phi=0.4, hbar=0.7)


class TestSqueezeParams:
    @pytest.mark.parametrize("field", ["mass", "omega", "hbar"])
    def test_nan_refused(self, field):
        # NaN passes a bare x <= 0 check
        with pytest.raises(ValueError, match=f"{field} must be positive"):
            SqueezeParams(**{field: math.nan})

    @pytest.mark.parametrize("field", ["mass", "omega", "hbar"])
    def test_inf_refused(self, field):
        # inf passes a bare x > 0 check; mass inf gave quadrature variances (0.0, 0.0)
        with pytest.raises(ValueError, match=f"{field} must be positive"):
            SqueezeParams(**{field: math.inf})


class TestBogolubov:
    def test_identity_at_t0(self):
        co = bogolubov_coefficients(UNIT, 0.0)
        assert co.u == 1.0 and co.v == 0.0

    def test_unit_time_values(self):
        co = bogolubov_coefficients(UNIT, 1.0)
        assert math.isclose(co.u.real, math.cosh(1.0), rel_tol=1e-15)
        # v = -exp(-i pi/2) sinh(1) = i sinh(1)
        assert abs(co.v - 1j * math.sinh(1.0)) < 1e-14
        assert math.isclose(abs(co.v), 1.1752011936438014, rel_tol=1e-12)

    def test_normalization_over_grid(self):
        # 100-point (wt, phi) grid, |u|^2 - |v|^2 = 1 within 1e-12
        for wt in np.linspace(0.0, 3.0, 10):
            for phi in np.linspace(-math.pi, math.pi, 10):
                params = SqueezeParams(omega=1.0, phi=float(phi))
                defect = bogolubov_coefficients(params, float(wt)).normalization_defect
                assert abs(defect) < 1e-12

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            bogolubov_coefficients(UNIT, -0.1)


class TestParticleNumber:
    def test_vacuum(self):
        assert particle_number(UNIT, 0.0) == 0.0

    def test_closed_form_values(self):
        assert math.isclose(particle_number(UNIT, 1.0), math.sinh(1.0) ** 2, rel_tol=1e-15)
        assert math.isclose(particle_number(UNIT, 1.0), 1.3811, rel_tol=1e-4)
        assert math.isclose(particle_number(UNIT, 2.0), 13.1541, rel_tol=1e-4)

    def test_matches_v_squared(self):
        for params in (UNIT, ODD):
            for t in np.linspace(0.0, 2.5, 100):
                n = particle_number(params, float(t))
                v = bogolubov_coefficients(params, float(t)).v
                assert math.isclose(n, abs(v) ** 2, rel_tol=1e-13, abs_tol=1e-15)


class TestPairNormalization:
    """|alpha_k|^2 - |beta_k|^2 - 1 of a momentum pair, by BogolubovCoeffs' defect."""

    def test_identity_pair(self):
        assert BogolubovCoeffs(1.0, 0.0).normalization_defect == 0.0

    def test_hyperbolic_pair(self):
        r = 0.7
        dev = BogolubovCoeffs(math.cosh(r), math.sinh(r)).normalization_defect
        assert abs(dev) < 1e-14

    def test_violation_flagged(self):
        assert BogolubovCoeffs(1.0, 1.0).normalization_defect == -1.0


class TestQuadratureVariances:
    def test_vacuum_is_symmetric(self):
        for params in (UNIT, ODD):
            v_s, v_a = quadrature_variances(params, 0.0)
            assert math.isclose(v_s, v_a, rel_tol=1e-14)
            assert math.isclose(v_s, params.x_scale_sq, rel_tol=1e-14)

    def test_ratio_matches_symplectic_oracle(self):
        # anti/squeezed ratio at wt = 1 is exp(4) by the covariance flow
        v_s, v_a = quadrature_variances(UNIT, 1.0)
        o_s, o_a = rotated_variance_oracle(UNIT, 1.0)
        assert math.isclose(v_a / v_s, o_a / o_s, rel_tol=1e-10)
        assert math.isclose(v_a / v_s, math.exp(4.0), rel_tol=1e-10)

    def test_scaling_exponents(self):
        for t in (0.5, 1.0, 2.0):
            v_s, v_a = quadrature_variances(UNIT, t)
            assert math.isclose(v_s, 0.5 * math.exp(-2 * t), rel_tol=1e-12)
            assert math.isclose(v_a, 0.5 * math.exp(+2 * t), rel_tol=1e-12)

    def test_uncertainty_product_conserved(self):
        for params in (UNIT, ODD):
            v_s0, v_a0 = quadrature_variances(params, 0.0)
            product0 = v_s0 * v_a0
            for t in np.linspace(0.0, 2.0, 17):
                v_s, v_a = quadrature_variances(params, float(t))
                assert math.isclose(v_s * v_a, product0, rel_tol=1e-10)


class TestTwoPointFunctions:
    def test_equal_time_commutator_vanishes(self):
        assert commutator_green(UNIT, 1.3, 1.3) == 0.0

    def test_commutator_antisymmetry(self):
        for t, tp in ((0.2, 1.1), (2.0, 0.5)):
            a = commutator_green(ODD, t, tp)
            b = commutator_green(ODD, tp, t)
            assert math.isclose(a, -b, rel_tol=1e-13)

    def test_commutator_unit_separation(self):
        assert math.isclose(commutator_green(UNIT, 1.0, 0.0), math.sinh(1.0), rel_tol=1e-14)

    def test_hadamard_symmetry(self):
        for t, tp in ((0.2, 1.1), (2.0, 0.5)):
            assert hadamard_green(ODD, t, tp) == hadamard_green(ODD, tp, t)

    def test_hadamard_reference_values(self):
        assert math.isclose(hadamard_green(UNIT, 0.0, 0.0), 1.0, rel_tol=1e-14)
        assert math.isclose(hadamard_green(UNIT, 1.5, 0.5), math.cosh(2.0), rel_tol=1e-14)

    def test_greens_match_symplectic_oracle(self):
        # commutator only at the default angle (the generator the flow uses);
        # hadamard also away from it, where the cos(2 phi) term is live
        rng = np.random.default_rng(42)
        pairs = rng.uniform(0.0, 1.5, size=(8, 2))
        inv = SqueezeParams(mass=2.0, omega=1.3, hbar=0.7)
        for t, tp in pairs:
            assert math.isclose(commutator_green(inv, t, tp),
                                commutator_oracle(inv, t, tp),
                                rel_tol=1e-10, abs_tol=1e-10)
        for phi in (-math.pi / 4.0, 0.0, 0.4):
            params = SqueezeParams(mass=2.0, omega=1.3, phi=phi, hbar=0.7)
            for t, tp in pairs:
                assert math.isclose(hadamard_green(params, t, tp),
                                    anticommutator_oracle(params, t, tp),
                                    rel_tol=1e-10, abs_tol=1e-10)

    def test_mode_two_point_consistency(self):
        f = mode_two_point(ODD)
        for t, tp in ((0.3, 0.9), (1.4, 0.1)):
            val = f(t, tp)
            assert math.isclose(2.0 * val.real, hadamard_green(ODD, t, tp), rel_tol=1e-13)
            assert math.isclose(2.0 * val.imag, -commutator_green(ODD, t, tp),
                                rel_tol=1e-13, abs_tol=1e-15)

    def test_greens_broadcast_over_arrays(self):
        t = np.linspace(0.0, 2.0, 9)
        for green in (commutator_green, hadamard_green):
            scalars = [[green(ODD, float(a), float(b)) for b in t] for a in t]
            np.testing.assert_allclose(green(ODD, t[:, None], t[None, :]), scalars,
                                       rtol=1e-14, atol=1e-15)

    def test_overflowing_two_phi_is_a_numerical_error(self):
        # 2 phi overflows float64, so cos(2 phi) is undefined
        params = SqueezeParams(phi=1.7976931348623157e308)
        with pytest.raises(NumericalError, match="2 phi overflows float64"):
            hadamard_green(params, 0.0, 0.0)
        with pytest.raises(NumericalError, match="2 phi overflows float64"):
            mode_two_point(params)(0.0, 0.0)

    def test_equal_time_hadamard_from_mixing_coefficients(self):
        # third route: 2 <x^2> rebuilt from (u, v) moments, n = |v|^2, c = u v
        for params in (UNIT, ODD):
            for t in (0.0, 0.7, 1.4):
                co = bogolubov_coefficients(params, t)
                n = abs(co.v) ** 2
                c = co.u * co.v
                x2 = params.x_scale_sq * (1.0 + 2.0 * n + 2.0 * c.real)
                assert math.isclose(2.0 * x2, hadamard_green(params, t, t),
                                    rel_tol=1e-12)


class TestCoherent:
    def test_identical_states(self):
        assert coherent_overlap(1.2 + 0.3j, 1.2 + 0.3j) == 1.0

    def test_unit_separation(self):
        assert math.isclose(coherent_overlap(0.0, 1.0), math.exp(-1.0), rel_tol=1e-14)

    def test_large_separation(self):
        assert math.isclose(coherent_overlap(0.0, 2.0), math.exp(-4.0), rel_tol=1e-14)

    def test_symmetry_and_uniqueness(self):
        a, b = 0.5 + 0.5j, -0.25 + 1.0j
        assert coherent_overlap(a, b) == coherent_overlap(b, a)
        assert coherent_overlap(a, b) < 1.0

    def test_particle_numbers(self):
        assert coherent_particle_number(0.0) == 0.0
        assert coherent_particle_number(2.0) == 4.0
        assert math.isclose(coherent_particle_number(1 + 1j), 2.0, rel_tol=1e-15)


class TestCoherentShift:
    def setup_method(self):
        self.grid = make_grid(0.0, 2.0, 81)

    def _step_response(self):
        # Delta(t, t') = theta(t - t'), unit step including the diagonal
        n = self.grid.n_points
        vals = np.tril(np.ones((n, n)))
        from ctpsim.kernels import KernelMatrix
        return KernelMatrix(self.grid, vals, "retarded")

    def test_zero_drive_gives_zero_shift(self):
        shift = accumulate_coherent_shift(self.grid, self._step_response(),
                                          np.zeros(self.grid.n_points))
        assert np.array_equal(shift, np.zeros(self.grid.n_points))

    def test_constant_drive_integrates_linearly(self):
        c = 0.7
        drive = np.full(self.grid.n_points, c)
        shift = accumulate_coherent_shift(self.grid, self._step_response(), drive)
        t = self.grid.times()
        assert np.max(np.abs(shift - c * (t - self.grid.t_start))) < 1e-12

    def test_matches_rederived_trapezoid_weights(self):
        # a random causal response with a nonzero diagonal, so both end weights count
        n = self.grid.n_points
        rng = np.random.default_rng(4)
        response = KernelMatrix(self.grid, np.tril(rng.standard_normal((n, n))), "retarded")
        drive = sample_white(1.0, self.grid, seed=3, n_realizations=1).realizations[0]
        shift = accumulate_coherent_shift(self.grid, response, drive)
        dt = self.grid.dt
        expected = np.zeros(n)
        for i in range(1, n):
            w = np.full(i + 1, dt)
            w[0] = w[i] = 0.5 * dt
            expected[i] = np.sum(w * response.values[i, : i + 1] * drive[: i + 1])
        assert shift[0] == 0.0
        assert np.max(np.abs(shift - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_requires_retarded_kernel(self):
        params = UNIT
        hadamard = build_hadamard(params, self.grid)
        with pytest.raises(ValueError, match="retarded"):
            accumulate_coherent_shift(self.grid, hadamard,
                                      np.zeros(self.grid.n_points))

    def test_random_drive_mean_and_growing_variance(self):
        m = 800
        response = build_retarded(UNIT, self.grid)
        ens = sample_white(self.grid.dt, self.grid, seed=5, n_realizations=m)
        # per-point unit variance drives
        drives = ens.realizations
        shifts = np.array([
            accumulate_coherent_shift(self.grid, response, d) for d in drives
        ])
        dt = self.grid.dt
        vals = response.values
        n = self.grid.n_points
        analytic = np.zeros(n)
        for i in range(1, n):
            w = np.full(i + 1, dt)
            w[0] = w[i] = 0.5 * dt
            analytic[i] = float(np.sum((w * vals[i, : i + 1]) ** 2))
        checkpoints = [n // 4, n // 2, (3 * n) // 4, n - 1]
        for i in checkpoints:
            se_mean = math.sqrt(analytic[i] / m)
            assert abs(shifts[:, i].mean()) < 5.0 * se_mean
            sample_var = shifts[:, i].var()
            se_var = analytic[i] * math.sqrt(2.0 / m)
            assert abs(sample_var - analytic[i]) < 5.0 * se_var
        sampled = shifts.var(axis=0)[checkpoints]
        assert np.all(np.diff(sampled) > 0)
