import dataclasses
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ctpsim import scenarios
from ctpsim.core import NumericalError, make_grid
from ctpsim.kernels import DeSitterParams, squeezed_factor
from ctpsim.scenarios import (BECConfig, SSBConfig, kuiper_statistic,
                              recursion_probability, run_bec, run_inflation,
                              run_ssb, scenario_noise_kernel,
                              _integrate_gated, _sample_scenario_noise, _simulate)
from ctpsim.squeeze import SqueezeParams

from oracles import first_closed_step, gated_loop_oracle, recursion_loop_oracle

GRID = make_grid(0.0, 30.0, 1501)


def ssb_config(**overrides):
    defaults = dict(m2=-1.0, lam=0.6, grid=GRID, n_realizations=60,
                    master_seed=101)
    defaults.update(overrides)
    return SSBConfig(**defaults)


def bec_config(**overrides):
    defaults = dict(m2=-1.0, lam=0.6, grid=GRID, n_realizations=120,
                    master_seed=102)
    defaults.update(overrides)
    return BECConfig(**defaults)


class TestConfigs:
    def test_derived_radii(self):
        cfg = ssb_config()
        assert math.isclose(cfg.gate_threshold_sq, 2.0 / 0.6, rel_tol=1e-15)
        assert math.isclose(cfg.minimum_radius, math.sqrt(10.0), rel_tol=1e-15)
        assert math.isclose(cfg.leave_radius, 0.5 * math.sqrt(10.0), rel_tol=1e-15)

    def test_gate_threshold_override(self):
        cfg = ssb_config(gate_threshold=1.25)
        assert cfg.gate_threshold_sq == 1.25
        with pytest.raises(ValueError, match="gate_threshold"):
            ssb_config(gate_threshold=-1.0)

    def test_invariants_enforced(self):
        with pytest.raises(ValueError, match="negative"):
            ssb_config(m2=1.0)
        with pytest.raises(ValueError, match="positive"):
            ssb_config(lam=-0.1)
        with pytest.raises(ValueError, match="noise_kernel"):
            ssb_config(noise_kernel="bogus")

    def test_kernel_choice(self):
        free = scenario_noise_kernel(ssb_config(grid=make_grid(0.0, 1.0, 9)))
        composed = scenario_noise_kernel(
            ssb_config(grid=make_grid(0.0, 1.0, 9), noise_kernel="fluctuation",
                       coupling=0.5))
        v = free.values
        assert np.allclose(composed.values, 0.25 * (v + v**2 + v**3), rtol=1e-13)


class TestScenarioNoise:
    """The sampled noise matches its kernel on the grid the scenarios run on.

    On [0, 30] the growing mode outruns the decaying one by e^60, far past any
    eigenvalue clipping tolerance, so this is where a truncated factor shows.
    """

    GRID = make_grid(0.0, 30.0, 301)

    @pytest.mark.parametrize("noise_kernel,coupling",
                             [("hadamard", None), ("fluctuation", 0.5)])
    def test_factor_matches_dense_kernel(self, noise_kernel, coupling):
        cfg = ssb_config(grid=self.GRID, noise_kernel=noise_kernel, coupling=0.5)
        f = squeezed_factor(SqueezeParams(), self.GRID, coupling)
        assert np.allclose(f @ f.T, scenario_noise_kernel(cfg).values,
                           rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("noise_kernel", ["hadamard", "fluctuation"])
    def test_sample_covariance_in_onset_window(self, noise_kernel):
        m = 4000
        cfg = ssb_config(grid=self.GRID, noise_kernel=noise_kernel,
                         noise_amplitude=1.0, n_realizations=m, master_seed=303)
        idx = [0, 5, 10, 50]  # t = 0, 0.5, 1, 5
        assert np.array_equal(self.GRID.times()[idx], [0.0, 0.5, 1.0, 5.0])
        xi = _sample_scenario_noise(cfg, 1)[:, 0, idx]
        k = scenario_noise_kernel(cfg).values[np.ix_(idx, idx)]
        sample_cov = xi.T @ xi / m
        se = np.sqrt((np.outer(np.diag(k), np.diag(k)) + k**2) / m)
        assert np.max(np.abs(sample_cov - k) / se) < 5.0

    @pytest.mark.parametrize("n_components", [1, 2])
    def test_larger_ensemble_only_appends(self, n_components):
        cfg = ssb_config(grid=self.GRID, noise_kernel="fluctuation")
        small = _sample_scenario_noise(dataclasses.replace(cfg, n_realizations=5),
                                       n_components)
        big = _sample_scenario_noise(dataclasses.replace(cfg, n_realizations=12),
                                     n_components)
        assert big[:5].tobytes() == small.tobytes()


class TestSSB:
    def test_noise_off_stays_at_unstable_point(self):
        rep = run_ssb(ssb_config(noise_amplitude=0.0, n_realizations=3))
        assert np.all(rep.stats.mean == 0.0)
        assert np.all(rep.stats.variance == 0.0)
        assert np.all(rep.stats.per_run_finals == 0.0)
        assert rep.fraction_unsettled == 1.0
        assert rep.recursion == 0.0

    def test_settles_into_minima(self):
        rep = run_ssb(ssb_config())
        cfg = rep.config
        assert rep.fraction_unsettled == 0.0
        assert abs(rep.mean_abs_final - cfg.minimum_radius) / cfg.minimum_radius < 0.05
        assert rep.fraction_plus + rep.fraction_minus == 1.0

    def test_symmetry_in_ensemble_only(self):
        rep = run_ssb(ssb_config(n_realizations=100))
        m = rep.config.n_realizations
        assert rep.mean_max_z < 5.0
        finals = np.abs(rep.stats.per_run_finals)
        se = finals.std(ddof=1) / math.sqrt(m)
        assert finals.mean() > 10.0 * se

    def test_gate_latch_is_monotone(self):
        cfg = ssb_config(n_realizations=20)
        noise = _sample_scenario_noise(cfg, 1)
        _, ref_gates = gated_loop_oracle(cfg, noise)  # before the stepper overwrites noise
        _, close = _integrate_gated(cfg, noise)
        assert np.all(np.diff(ref_gates, axis=1) <= 0.0)
        assert (close > 0).all()
        assert close.tobytes() == first_closed_step(ref_gates).tobytes()

    @pytest.mark.parametrize("n_components", [1, 2])
    @pytest.mark.parametrize("overrides", [
        {}, {"gate": False, "grid": make_grid(0.0, 10.0, 501)},
        {"noise_kernel": "fluctuation"},
        {"gate_threshold": 0.5, "friction": 0.0, "noise_amplitude": 1.0}])
    def test_batched_stepper_matches_loop_oracle(self, n_components, overrides):
        cfg = ssb_config(n_realizations=37, **overrides)
        noise = _sample_scenario_noise(cfg, n_components)
        ref_paths, ref_gates = gated_loop_oracle(cfg, noise)  # before noise is overwritten
        paths, close = _integrate_gated(cfg, noise)
        assert paths is noise
        assert paths.tobytes() == ref_paths.tobytes()
        assert close.tobytes() == first_closed_step(ref_gates).tobytes()

    @settings(max_examples=10, deadline=None)
    @given(k=st.integers(1, 6), extra=st.integers(1, 6), n_components=st.integers(1, 2),
           seed=st.integers(0, 2**64 - 1))
    def test_larger_ensemble_only_appends_paths(self, k, extra, n_components, seed):
        cfg = ssb_config(grid=make_grid(0.0, 20.0, 1001), master_seed=seed)
        runs = []
        for m in (k, k + extra):
            sized = dataclasses.replace(cfg, n_realizations=m)
            runs.append(_integrate_gated(sized, _sample_scenario_noise(sized, n_components)))
        (small, small_close), (big, big_close) = runs
        assert big[:k].tobytes() == small.tobytes()
        assert big_close[:k].tobytes() == small_close.tobytes()

    def test_report_reproducible(self):
        a = run_ssb(ssb_config(n_realizations=25))
        b = run_ssb(ssb_config(n_realizations=25))
        assert json.dumps(a.to_dict()) == json.dumps(b.to_dict())
        assert np.array_equal(a.stats.per_run_finals, b.stats.per_run_finals)


class TestRecursionProbability:
    def test_periodic_crossings_count_as_recursion(self):
        grid = make_grid(0.0, 20.0, 401)
        paths = 2.5 * np.cos(grid.times())[None, :].repeat(3, axis=0)
        assert recursion_probability(paths, 2.0, 0.5) == 1.0

    def test_never_leaving_counts_zero(self):
        paths = 0.1 * np.ones((4, 401))
        assert recursion_probability(paths, 2.0, 0.5) == 0.0

    @settings(max_examples=100, deadline=None)
    @given(paths=hnp.arrays(float, hnp.array_shapes(min_dims=2, max_dims=2, min_side=2,
                                                    max_side=40),
                            elements=st.integers(-3000, 3000).map(lambda k: k / 1000)),
           damp=st.integers(0, 40), block_values=st.integers(1, 2000))
    def test_matches_row_loop_oracle(self, paths, damp, block_values):
        # small blocks split the rows into many blocks, down to one row a block
        paths = paths.copy()
        paths[:damp] *= 0.5  # rows that never leave |x| > 2
        before = paths.tobytes()
        with mock.patch.object(scenarios, "_AGGREGATE_BLOCK_VALUES", block_values):
            got = recursion_probability(paths, 2.0, 0.5)
        assert got == recursion_loop_oracle(paths, 2.0, 0.5)
        assert paths.tobytes() == before

    def test_radius_ordering_enforced(self):
        with pytest.raises(ValueError, match="leave_radius"):
            recursion_probability(np.zeros((2, 401)), 0.5, 2.0)

    def test_ssb_recursion_is_rare(self):
        rep = run_ssb(ssb_config(n_realizations=100))
        assert rep.recursion < 0.05


class TestKuiper:
    def test_uniform_sample_accepted(self):
        rng = np.random.default_rng(15)
        angles = rng.uniform(0.0, 2.0 * math.pi, size=500)
        _, scaled = kuiper_statistic(angles)
        assert scaled < 2.001

    def test_clustered_sample_rejected(self):
        rng = np.random.default_rng(16)
        angles = 0.05 * rng.standard_normal(500)
        _, scaled = kuiper_statistic(angles)
        assert scaled > 2.001

    def test_rotation_invariance(self):
        rng = np.random.default_rng(17)
        angles = rng.uniform(0.0, 2.0 * math.pi, size=200)
        v0, _ = kuiper_statistic(angles)
        v1, _ = kuiper_statistic(angles + 1.234)
        assert math.isclose(v0, v1, rel_tol=1e-12)


class TestBEC:
    def test_needs_two_realizations(self):
        with pytest.raises(ValueError, match="n_realizations"):
            bec_config(n_realizations=1)
        assert bec_config(n_realizations=2).n_realizations == 2

    @settings(max_examples=50, deadline=None)
    @given(paths=hnp.arrays(float, st.tuples(st.integers(1, 20), st.just(2),
                                             st.integers(1, 20)),
                            elements=st.one_of(st.just(-0.0),
                                               st.floats(-1e150, 1e150),
                                               st.floats(-1e-300, 1e-300))))
    def test_final_modulus_equals_modulus_path_at_the_end(self, paths):
        # the final slice alone gives the last column of the (M, n) modulus, bit for bit
        final_vec = paths[:, :, -1]
        final = np.sqrt(np.einsum("md,md->m", final_vec, final_vec))
        full = np.sqrt(np.einsum("mdn,mdn->mn", paths, paths))[:, -1]
        assert final.tobytes() == full.tobytes()

    def test_final_modulus_is_last_column_of_run_modulus(self):
        cfg = bec_config(n_realizations=20)
        paths, _ = _simulate(cfg, 2)
        full = np.sqrt(np.einsum("mdn,mdn->mn", paths, paths))[:, -1]
        assert run_bec(cfg).final_modulus.tobytes() == full.tobytes()

    def test_noise_off_stays_at_zero(self):
        rep = run_bec(bec_config(noise_amplitude=0.0, n_realizations=3))
        assert np.all(rep.final_modulus == 0.0)

    def test_condensate_forms_on_ring(self):
        rep = run_bec(bec_config())
        cfg = rep.config
        assert abs(rep.mean_modulus - cfg.minimum_radius) / cfg.minimum_radius < 0.05
        assert rep.odlro_fraction >= 0.9

    def test_phase_uniformity(self):
        rep = run_bec(bec_config(n_realizations=200, master_seed=7))
        assert rep.kuiper_scaled < 2.001

    def test_modulus_sharp_while_phase_spread(self):
        rep = run_bec(bec_config())
        spread = rep.final_modulus.std() / rep.final_modulus.mean()
        assert spread < 0.05
        assert rep.final_phase.std() > 1.0

    def test_report_reproducible(self):
        a = run_bec(bec_config(n_realizations=30))
        b = run_bec(bec_config(n_realizations=30))
        assert json.dumps(a.to_dict()) == json.dumps(b.to_dict())


class TestInflation:
    @staticmethod
    def modes(n_modes=10, decades=1.5, hubble=1.0, coupling=6.0, phi0=1.0,
              k_min=0.5):
        ks = k_min * 10.0 ** (decades * np.arange(n_modes) / (n_modes - 1))
        return [DeSitterParams(hubble=hubble, k=float(k), coupling=coupling,
                               background=phi0) for k in ks]

    def test_scale_invariant_slope(self):
        grid = make_grid(0.0, 30.0, 3001)
        est = run_inflation(self.modes(), grid, n_realizations=60, master_seed=50)
        assert abs(est.slope + 3.0) < 0.15

    def test_k_doubling_divides_variance_by_eight(self):
        grid = make_grid(0.0, 30.0, 3001)
        base = self.modes(n_modes=8, decades=math.log10(2.0) * 7)
        est = run_inflation(base, grid, n_realizations=80, master_seed=51)
        # neighbouring modes differ by factor 2 in k
        ratios = est.variances[:-1] / est.variances[1:]
        assert np.all(np.abs(ratios / 8.0 - 1.0) < 0.35)

    def test_hubble_doubling_factor(self):
        # OU oracle: variance = a amp^2 / 2 with a = lam phi0^2/(6H) and
        # amp^2 = H^2/k^3, so doubling H at fixed (k, lam, phi0) gives the
        # factor (1/2) * 4 = 2; the factor is fixed by the oracle, not assumed
        from ctpsim.kernels import desitter_hadamard
        from ctpsim.langevin import integrate_overdamped_mode
        from ctpsim.noise import sample_white

        grid = make_grid(0.0, 40.0, 4001)

        def stationary(hubble, seed):
            dp = DeSitterParams(hubble=hubble, k=1.0, coupling=6.0,
                                background=1.0)
            amp = math.sqrt(desitter_hadamard(dp, 0.0, 0.0))
            ens = sample_white(1.0, grid, seed, 150)
            tail = grid.n_points // 4
            acc = 0.0
            for xi in ens.realizations:
                traj = integrate_overdamped_mode(dp, amp, grid, xi, 0.0)
                acc += float(np.mean(traj.x[-tail:] ** 2))
            return acc / 150

        v1 = stationary(1.0, seed=60)
        v2 = stationary(2.0, seed=60)
        assert abs(v2 / v1 - 2.0) < 0.3

    def test_too_few_modes_rejected(self):
        grid = make_grid(0.0, 30.0, 301)
        with pytest.raises(ValueError, match="insufficient k span"):
            run_inflation(self.modes(n_modes=5), grid, 4, 1)

    def test_narrow_span_rejected(self):
        grid = make_grid(0.0, 30.0, 301)
        with pytest.raises(ValueError, match="insufficient k span"):
            run_inflation(self.modes(decades=0.5), grid, 4, 1)

    def test_non_stationary_tail_reported(self):
        grid = make_grid(0.0, 2.0, 201)  # only 1 relaxation time before tail
        with pytest.raises(NumericalError, match="non-stationary tail"):
            run_inflation(self.modes(), grid, 4, 1)

    def test_mixed_shared_parameters_rejected(self):
        grid = make_grid(0.0, 30.0, 301)
        modes = self.modes()
        modes[3] = DeSitterParams(hubble=2.0, k=modes[3].k, coupling=6.0,
                                  background=1.0)
        with pytest.raises(ValueError, match="share"):
            run_inflation(modes, grid, 4, 1)
