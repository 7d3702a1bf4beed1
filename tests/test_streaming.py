"""The streamed ensemble runners equal their whole-array references bit for bit.

Each runner draws, steps and reduces one block of grid columns at a time;
the references in ``whole_array`` draw the whole noise array, step it in
place and reduce the paths afterwards.  run_inflation, which steps two factor
columns per mode instead of M paths, equals its path reference to roundoff.  The sizes cross the block boundaries:
n = 257 and 513 end in a one-column block that joins the block before it,
n = 258 and 514 in a two-column one.
"""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import whole_array
from ctpsim import langevin, scenarios
from ctpsim.cli import main
from ctpsim.core import DivergenceError, make_grid
from ctpsim.kernels import DeSitterParams
from ctpsim.langevin import (PotentialSpec, SemiImplicitStepper, _time_blocks,
                             run_white_ensemble, stream_blocks)
from ctpsim.noise import draw_from_factor, factor_source, sample_white, white_source
from ctpsim.scenarios import BECConfig, SSBConfig, run_bec, run_inflation, run_ssb

REALIZATIONS = st.sampled_from([1, 2, 3, 200])
POINTS = st.sampled_from([2, 257, 258, 513, 514])
SEEDS = st.integers(0, 2**64 - 1)


def outcome(run):
    """(result, None), or (None, (message, step, realization)) if the run diverged."""
    try:
        return run(), None
    except DivergenceError as err:
        return None, (str(err), err.step, err.realization)


def same_bits(a, b) -> bool:
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def scenario(cls, m, n, t_end, seed, kernel, gate):
    return cls(m2=-1.0, lam=0.6, grid=make_grid(0.0, t_end, n), n_realizations=m,
               master_seed=seed, noise_kernel=kernel, gate=gate)


class TestRunnersEqualWholeArray:
    @settings(max_examples=30, deadline=None)
    @given(m=REALIZATIONS, n=POINTS, seed=SEEDS,
           pot=st.sampled_from([PotentialSpec.quadratic(1.0), PotentialSpec.inverted(1.0),
                                PotentialSpec.double_well(-1.0, 0.6)]),
           t_end=st.sampled_from([5.0, 200.0]), x0=st.floats(-2.0, 2.0),
           v0=st.floats(-2.0, 2.0))
    def test_langevin(self, m, n, seed, pot, t_end, x0, v0):
        # the inverted potential diverges on [0, 200] once dt is small enough
        grid = make_grid(0.0, t_end, n)
        got, got_err = outcome(lambda: run_white_ensemble(pot, 0.5, grid, 1.0, seed, m,
                                                          x0, v0))
        ref, ref_err = outcome(lambda: whole_array.langevin(pot, 0.5, grid, 1.0, seed, m,
                                                            x0, v0))
        assert got_err == ref_err
        if ref_err is None:
            (stats, first), (ref_stats, ref_x, ref_v) = got, ref
            assert same_bits(stats.mean, ref_stats.mean)
            assert same_bits(stats.variance, ref_stats.variance)
            assert same_bits(stats.per_run_finals, ref_stats.per_run_finals)
            assert same_bits(first.x, ref_x)
            assert same_bits(first.xdot, ref_v)

    @settings(max_examples=30, deadline=None)
    @given(m=REALIZATIONS, n=POINTS, seed=SEEDS,
           kernel=st.sampled_from(["hadamard", "fluctuation"]), gate=st.booleans(),
           t_end=st.sampled_from([10.0, 30.0]))
    def test_ssb(self, m, n, seed, kernel, gate, t_end):
        # ungated fluctuation-kernel runs on [0, 30] diverge
        cfg = scenario(SSBConfig, m, n, t_end, seed, kernel, gate)
        got, got_err = outcome(lambda: run_ssb(cfg))
        ref, ref_err = outcome(lambda: whole_array.ssb(cfg))
        assert got_err == ref_err
        if ref_err is None:
            ref_stats, ref_close, ref_recursion = ref
            assert same_bits(got.stats.mean, ref_stats.mean)
            assert same_bits(got.stats.variance, ref_stats.variance)
            assert same_bits(got.stats.per_run_finals, ref_stats.per_run_finals)
            assert same_bits(got.gate_close_times, ref_close)
            assert got.recursion == ref_recursion

    @settings(max_examples=30, deadline=None)
    @given(m=st.sampled_from([2, 3, 200]), n=POINTS, seed=SEEDS,
           kernel=st.sampled_from(["hadamard", "fluctuation"]), gate=st.booleans(),
           t_end=st.sampled_from([10.0, 30.0]))
    def test_bec(self, m, n, seed, kernel, gate, t_end):
        cfg = scenario(BECConfig, m, n, t_end, seed, kernel, gate)
        got, got_err = outcome(lambda: run_bec(cfg))
        ref, ref_err = outcome(lambda: whole_array.bec(cfg))
        assert got_err == ref_err
        if ref_err is None:
            final_vec, ref_close = ref
            modulus = np.sqrt(np.einsum("md,md->m", final_vec, final_vec))
            assert same_bits(got.final_modulus, modulus)
            assert same_bits(got.final_phase, np.arctan2(final_vec[:, 1], final_vec[:, 0]))
            assert same_bits(got.gate_close_times, ref_close)

    @settings(max_examples=15, deadline=None)
    @given(m=REALIZATIONS, n=st.sampled_from([257, 258, 513, 514]), seed=SEEDS,
           tail_fraction=st.sampled_from([0.3, 0.5, 0.8]))
    def test_inflation(self, m, n, seed, tail_fraction):
        modes = [DeSitterParams(hubble=1.0, k=float(k), coupling=6.0, background=1.0)
                 for k in 0.5 * 10.0 ** (1.5 * np.arange(8) / 7)]
        grid = make_grid(0.0, 30.0, n)
        # the tail mean square of path i is z_i^T G z_i exactly in real arithmetic
        got = run_inflation(modes, grid, m, seed, tail_fraction)
        ref = whole_array.inflation(modes, grid, m, seed, tail_fraction)
        assert np.all(np.abs(got.variances / ref.variances - 1.0) <= 1e-12)
        assert abs(got.slope - ref.slope) <= 1e-12


class TestNoiseBlocks:
    """Any time-major (w, M) blocks a noise source fills give the whole draw's bits."""

    @staticmethod
    def blocks(n, cuts):
        stops = sorted({c % n for c in cuts if c % n} | {n})
        return zip([0, *stops], stops)

    @settings(max_examples=30, deadline=None)
    @given(m=st.integers(1, 5), n=st.integers(2, 600), seed=SEEDS,
           cuts=st.lists(st.integers(1, 600), max_size=6))
    def test_white_source_splits_one_draw(self, m, n, seed, cuts):
        grid = make_grid(0.0, 3.0, n)
        fill = white_source(0.7, grid, seed, m)
        got = np.empty((m, n))
        for start, stop in self.blocks(n, cuts):
            rows = np.empty((stop - start, m))
            fill(rows, start)
            got[:, start:stop] = rows.T
        assert same_bits(got, sample_white(0.7, grid, seed, m).realizations)

    @settings(max_examples=30, deadline=None)
    @given(m=st.integers(1, 5), n=st.integers(2, 600), rank=st.integers(1, 7), seed=SEEDS,
           cuts=st.lists(st.integers(1, 600), max_size=6))
    def test_factor_source_splits_one_draw(self, m, n, rank, seed, cuts):
        factor = np.random.default_rng(seed % 2**32).standard_normal((n, rank))
        fill = factor_source(factor, seed, m)
        got = np.empty((m, n))
        for start, stop in self.blocks(n, cuts):
            rows = np.empty((stop - start, m))
            fill(rows, start)
            got[:, start:stop] = rows.T
        assert same_bits(got, draw_from_factor(factor, seed, m))


class TestFailureOrder:
    """A failure of the noise outranks a divergence, as when the noise is drawn whole."""

    def test_noise_failure_in_a_later_block_is_raised(self):
        grid = make_grid(0.0, 12.0, 1000)

        def fill(rows, start):
            rows[...] = 0.0
            if start >= 512:
                raise FloatingPointError("overflow encountered in multiply")

        # |x| grows as e^(40 t) from 1: the guard trips in the first block (t < 3)
        stepper = SemiImplicitStepper((2, 1, 1000), PotentialSpec.inverted(40.0), 0.0,
                                      grid, x0=1.0)
        with pytest.raises(FloatingPointError, match="overflow encountered in multiply"):
            stream_blocks(fill, stepper, lambda paths, cols: None)

    def test_scenario_noise_overflow_outranks_divergence(self):
        # amplitude 1e300: the run diverges at step 1, and the noise overflows
        # where e^t has grown, blocks later
        cfg = SSBConfig(m2=-1.0, lam=0.6, grid=make_grid(0.0, 30.0, 1501),
                        n_realizations=3, master_seed=5, noise_amplitude=1e300)
        errors = []
        for run in (run_ssb, whole_array.ssb):
            with np.errstate(over="raise", invalid="raise", divide="raise"), \
                    pytest.raises(FloatingPointError) as info:
                run(cfg)
            errors.append(str(info.value))
        assert errors[0] == errors[1]


class TestDrawnBlocks:
    """A gated run draws no noise once every gate has latched; an ungated run draws it all."""

    N = 3001

    @staticmethod
    def spy(monkeypatch, module):
        """Record the stepper module.stream_blocks runs and the start of each block it fills."""
        seen = {"starts": []}
        stream = module.stream_blocks

        def spying(fill, stepper, reduce):
            def recording(rows, start):
                seen["starts"].append(start)
                fill(rows, start)
            seen["stepper"] = stepper
            stream(recording, stepper, reduce)
        monkeypatch.setattr(module, "stream_blocks", spying)
        return seen

    def all_starts(self, values):
        """The first column of each block of a pipeline of M d = values."""
        return [cols.start for cols in _time_blocks(self.N, values)]

    def assert_drawn_to_the_last_latch(self, seen):
        stepper = seen["stepper"]
        m, d, _ = stepper.shape
        assert stepper.close.min() >= 0
        # column close - 1 holds the last noise that an open gate passes
        drawn = [start for start in self.all_starts(m * d) if start < stepper.close.max()]
        assert seen["starts"] == drawn
        assert len(drawn) < len(self.all_starts(m * d))

    def test_gated_ssb_draws_to_the_last_latch(self, monkeypatch):
        cfg = scenario(SSBConfig, 64, self.N, 30.0, 5, "hadamard", True)
        seen = self.spy(monkeypatch, scenarios)
        got = run_ssb(cfg)
        self.assert_drawn_to_the_last_latch(seen)
        ref_stats, ref_close, ref_recursion = whole_array.ssb(cfg)
        assert same_bits(got.stats.mean, ref_stats.mean)
        assert same_bits(got.stats.variance, ref_stats.variance)
        assert same_bits(got.stats.per_run_finals, ref_stats.per_run_finals)
        assert same_bits(got.gate_close_times, ref_close)
        assert got.recursion == ref_recursion

    def test_gated_bec_draws_to_the_last_latch(self, monkeypatch):
        cfg = scenario(BECConfig, 64, self.N, 30.0, 5, "hadamard", True)
        seen = self.spy(monkeypatch, scenarios)
        got = run_bec(cfg)
        self.assert_drawn_to_the_last_latch(seen)
        final_vec, ref_close = whole_array.bec(cfg)
        modulus = np.sqrt(np.einsum("md,md->m", final_vec, final_vec))
        assert same_bits(got.final_modulus, modulus)
        assert same_bits(got.final_phase, np.arctan2(final_vec[:, 1], final_vec[:, 0]))
        assert same_bits(got.gate_close_times, ref_close)

    @pytest.mark.parametrize("config, d", [(SSBConfig, 1), (BECConfig, 2)], ids=["ssb", "bec"])
    def test_noise_after_the_last_latch_is_not_read(self, config, d):
        # NaN noise in every block that starts after the last latch changes no bit
        cfg = scenario(config, 64, self.N, 30.0, 5, "hadamard", True)
        paths, close = whole_array.integrate_gated(cfg, whole_array.scenario_noise(cfg, d))
        start = min(s for s in self.all_starts(64 * d) if s >= close.max())
        noise = whole_array.scenario_noise(cfg, d)
        noise[..., start:] = np.nan
        got, got_close = whole_array.integrate_gated(cfg, noise)
        assert same_bits(got, paths)
        assert same_bits(got_close, close)

    def test_failure_after_the_last_latch_draws_the_skipped_blocks(self):
        grid = make_grid(0.0, 99.9, 1000)
        starts = []

        def fill(rows, start):
            starts.append(start)
            rows[...] = 0.0
            if start == 128:
                raise FloatingPointError("overflow encountered in multiply")

        # |x| grows as cosh t: both gates latch near t = 1.3 (block 0), the guard
        # trips near t = 28 (block 2), and blocks 1 and 2 were never drawn
        stepper = SemiImplicitStepper((2, 1, 1000), PotentialSpec.inverted(1.0), 0.0,
                                      grid, x0=1.0, gate_threshold=4.0)
        with pytest.raises(FloatingPointError, match="overflow encountered in multiply"):
            stream_blocks(fill, stepper, lambda paths, cols: None)
        assert starts == [0, 128]
        assert stepper.close.max() < 128

    def test_ungated_ssb_draws_every_block(self, monkeypatch):
        seen = self.spy(monkeypatch, scenarios)
        run_ssb(scenario(SSBConfig, 64, self.N, 10.0, 5, "hadamard", False))
        assert seen["starts"] == self.all_starts(64)

    def test_white_ensemble_draws_every_block(self, monkeypatch):
        seen = self.spy(monkeypatch, langevin)
        run_white_ensemble(PotentialSpec.quadratic(1.0), 0.5, make_grid(0.0, 30.0, self.N),
                           1.0, 5, 64)
        assert seen["starts"] == self.all_starts(64)


def perfbench_digest(out: Path) -> str:
    """perfbench's digest of every output under out, manifest.json without its wall time."""
    name = "perfbench_workloads"
    if name not in sys.modules:  # its dataclasses look their module up there
        path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location(name, path)
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name].digest_outputs(out)[0]


class TestBlockWidthOutputs:
    """Every output byte is the same under 128-step blocks as under the block rule."""

    # at M 400 the rule steps langevin and ssb 64 columns a block and bec 32
    @pytest.mark.parametrize("sub, d, steps", [("langevin", 1, 64), ("ssb", 1, 64),
                                               ("bec", 2, 32)])
    def test_cli_outputs_equal_under_128_step_blocks(self, tmp_path, monkeypatch, sub, d,
                                                     steps):
        m = 400
        assert langevin._block_steps(m * d) == steps
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"master_seed": 3, "n_realizations": m}))
        args = [sub, "--config", str(config), "--out"]
        assert main([*args, str(tmp_path / "rule")]) == 0
        monkeypatch.setattr(langevin, "_block_steps", lambda values: 128)
        assert main([*args, str(tmp_path / "fixed")]) == 0
        assert perfbench_digest(tmp_path / "rule") == perfbench_digest(tmp_path / "fixed")
