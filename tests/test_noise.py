import ast
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctpsim import noise
from ctpsim.core import ConfigError, NumericalError, derive_seed, make_grid
from ctpsim.kernels import (SYMMETRIC, KernelMatrix, build_hadamard, fluctuation_kernel,
                            squeezed_factor)
from ctpsim.langevin import _time_blocks
from ctpsim.noise import NoiseEnsemble, hs_moment_check, sample_colored, sample_white
from ctpsim.squeeze import SqueezeParams

from oracles import (factor_draw_oracle, hs_moment_oracle, hs_whole_draw_oracle,
                     standard_normals_oracle, white_normals_oracle)

UNIT = SqueezeParams()


class TestNoiseEnsemble:
    def test_takes_ownership_of_float64_array(self):
        grid = make_grid(0.0, 1.0, 5)
        arr = np.arange(15.0).reshape(3, 5)
        ens = NoiseEnsemble(grid, arr, seed=1, covariance_ref="test")
        assert np.shares_memory(ens.realizations, arr)
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0] = 1.0

    def test_converts_other_input(self):
        grid = make_grid(0.0, 1.0, 3)
        ens = NoiseEnsemble(grid, [[1, 2, 3]], seed=1, covariance_ref="test")
        assert ens.realizations.dtype == np.float64
        assert not ens.realizations.flags.writeable

    @pytest.mark.parametrize("shape", [(3, 4), (5,), (2, 5, 1)])
    def test_wrong_shape_rejected(self, shape):
        with pytest.raises(ValueError, match=r"realizations must be \(M, 5\)"):
            NoiseEnsemble(make_grid(0.0, 1.0, 5), np.zeros(shape), seed=1,
                          covariance_ref="test")

    def test_sample_white_holds_one_array(self):
        # the ensemble takes the sampled rows over: the peak is that one array
        grid = make_grid(0.0, 1.0, 2001)
        sample_white(1.0, grid, seed=3, n_realizations=50)
        tracemalloc.start()
        try:
            ens = sample_white(1.0, grid, seed=3, n_realizations=50)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * ens.realizations.nbytes


class TestStandardNormals:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), m=st.integers(1, 64),
           k=st.sampled_from([1, 2, 7, 8, 301]))
    def test_equals_one_generator_per_row(self, seed, m, k):
        # one generator per row group: every row of a one-group ensemble
        expected = standard_normals_oracle(seed, m, k)
        assert noise._standard_normals(seed, m, k).tobytes() == expected.tobytes()

    def test_crosses_seed_blocks(self):
        # groups 1 and 2 (rows 64-129, the last group padded) take the blocks after
        # group 0's from its generator; k 257 draws each block in two calls, and
        # k 0 draws nothing
        for m, k in ((130, 5), (130, 257), (3000, 7), (130, 0)):
            expected = standard_normals_oracle(5, m, k)
            assert noise._standard_normals(5, m, k).tobytes() == expected.tobytes()
            assert noise._standard_normals(5, 64, k).tobytes() == expected[:64].tobytes()

    @pytest.mark.parametrize("k", [1, 2, 7, 301])
    @pytest.mark.parametrize("m", [1, 63, 64, 65, 130, 1000])
    def test_growing_m_appends_rows(self, m, k):
        # row i depends only on (seed, i, k): a larger draw keeps every row of a
        # smaller one, also where k 301 draws each block in two calls
        small = noise._standard_normals(13, m, k).tobytes()
        for extra in (1, 64, 2400):
            assert noise._standard_normals(13, m + extra, k)[:m].tobytes() == small


class TestDrawFromFactor:
    @pytest.mark.parametrize("coupling", [None, 0.5])
    @pytest.mark.parametrize("n", [151, 1501])
    def test_refined_grid_shares_the_noise(self, n, coupling):
        # z does not depend on n, so the noise on the grid's points is the same on
        # its refinement to 2n - 1 points: rms differences between the two runs are
        # then the time step's error alone, free of sampling noise
        coarse, fine = make_grid(0.0, 30.0, n), make_grid(0.0, 30.0, 2 * n - 1)
        rows = noise.draw_from_factor(squeezed_factor(UNIT, coarse, coupling), 21, 130)
        refined = noise.draw_from_factor(squeezed_factor(UNIT, fine, coupling), 21, 130)
        assert rows.tobytes() == refined[:, ::2].tobytes()


def _names(node):
    """The names an ast node gives: identifiers, attributes, a.b pairs and imports."""
    if isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
        if isinstance(node.value, ast.Name):
            yield f"{node.value.id}.{node.attr}"
    elif isinstance(node, (ast.Import, ast.ImportFrom)):
        for alias in node.names:
            yield alias.name
            if isinstance(node, ast.ImportFrom):
                yield f"{node.module}.{alias.name}"


def test_only_the_noise_module_constructs_generators():
    # every normal of the package comes from noise's two draw rules: no other
    # module names a generator, a normal draw or numpy.random
    forbidden = {"default_rng", "Generator", "PCG64", "SeedSequence", "standard_normal",
                 "np.random", "numpy.random"}
    package = Path(noise.__file__).parent
    found = sorted(path.name for path in package.glob("*.py")
                   if any(name in forbidden or name.startswith("numpy.random.")
                          for node in ast.walk(ast.parse(path.read_text()))
                          for name in _names(node)))
    assert found == ["noise.py"]


class TestSampleWhite:
    def test_per_point_variance(self):
        grid = make_grid(0.0, 1.0, 11)  # dt = 0.1
        m = 10_000
        ens = sample_white(1.0, grid, seed=21, n_realizations=m)
        target = 1.0 / grid.dt
        se = target * math.sqrt(2.0 / m)  # chi-squared sampling error
        sample_var = ens.realizations.var(axis=0)
        assert np.all(np.abs(sample_var - target) < 5.0 * se)

    def test_zero_mean(self):
        grid = make_grid(0.0, 1.0, 11)
        m = 10_000
        ens = sample_white(1.0, grid, seed=22, n_realizations=m)
        se = math.sqrt(1.0 / grid.dt / m)
        assert np.all(np.abs(ens.realizations.mean(axis=0)) < 5.0 * se)

    def test_determinism(self):
        grid = make_grid(0.0, 1.0, 7)
        a = sample_white(2.0, grid, seed=5, n_realizations=12)
        b = sample_white(2.0, grid, seed=5, n_realizations=12)
        assert np.array_equal(a.realizations, b.realizations)

    def test_rows_depend_only_on_index(self):
        # parallel-safe seeding: a bigger ensemble extends, never reshuffles
        grid = make_grid(0.0, 1.0, 7)
        small = sample_white(1.0, grid, seed=5, n_realizations=4)
        big = sample_white(1.0, grid, seed=5, n_realizations=8)
        assert np.array_equal(big.realizations[:4], small.realizations)

    def test_row_is_its_own_generator_scaled(self):
        # the stream rule: row i = std * column i mod 64 of its group's (n, 64) draw
        grid = make_grid(0.0, 1.0, 9)
        ens = sample_white(2.0, grid, seed=77, n_realizations=70)
        std = np.sqrt(2.0 / grid.dt)
        for i in (0, 5, 63, 64, 69):
            draws = np.random.default_rng(derive_seed(77, i // 64)).standard_normal((9, 64))
            assert ens.realizations[i].tobytes() == (std * draws[:, i % 64]).tobytes()

    def test_rejects_bad_intensity(self):
        grid = make_grid(0.0, 1.0, 7)
        with pytest.raises(ValueError, match="sigma2"):
            sample_white(0.0, grid, seed=1, n_realizations=2)

    @pytest.mark.parametrize("draw", [sample_white, noise.white_source])
    def test_rejects_nan_intensity(self, draw):
        # NaN passes a bare sigma2 <= 0 check, and every row is then NaN
        with pytest.raises(ValueError, match="sigma2 must be positive"):
            draw(math.nan, make_grid(0.0, 1.0, 7), 1, 3)

    @pytest.mark.parametrize("n", [2, 257, 600])
    @pytest.mark.parametrize("m", [1, 63, 64, 65, 130])
    def test_equals_the_white_rule(self, m, n):
        # across row groups and across the 256-row draw calls of a group
        grid = make_grid(0.0, 1.0, n)
        ens = sample_white(0.7, grid, seed=19, n_realizations=m)
        expected = np.sqrt(0.7 / grid.dt) * white_normals_oracle(19, m, n)
        assert ens.realizations.tobytes() == expected.tobytes()


class TestSampleColored:
    def test_identity_kernel_is_unit_white(self):
        grid = make_grid(0.0, 1.0, 8)
        kernel = KernelMatrix(grid, np.eye(8), SYMMETRIC)
        m = 20_000
        ens = sample_colored(kernel, seed=31, n_realizations=m)
        sample_var = ens.realizations.var(axis=0)
        assert np.all(np.abs(sample_var - 1.0) < 5.0 * math.sqrt(2.0 / m))

    def test_rank_two_confinement(self):
        kernel = build_hadamard(UNIT, make_grid(0.0, 1.0, 16))
        ens = sample_colored(kernel, seed=32, n_realizations=200)
        w, vecs = np.linalg.eigh(kernel.values)
        basis = vecs[:, -2:]
        proj = ens.realizations @ basis @ basis.T
        norms = np.linalg.norm(ens.realizations, axis=1)
        resid = np.linalg.norm(ens.realizations - proj, axis=1)
        assert np.max(resid / norms) < 1e-8

    def test_covariance_convergence(self):
        kernel = build_hadamard(UNIT, make_grid(0.0, 1.0, 16))
        m = 5_000
        ens = sample_colored(kernel, seed=33, n_realizations=m)
        sample_cov = ens.realizations.T @ ens.realizations / m
        k = kernel.values
        se = np.sqrt((np.outer(np.diag(k), np.diag(k)) + k**2) / m)
        assert np.max(np.abs(sample_cov - k) / se) < 5.0
        mean_se = np.sqrt(np.diag(k) / m)
        assert np.all(np.abs(ens.realizations.mean(axis=0)) < 5.0 * mean_se)

    def test_covariance_convergence_composed_kernel(self):
        kernel = fluctuation_kernel(0.5, build_hadamard(UNIT, make_grid(0.0, 1.0, 8)))
        m = 5_000
        ens = sample_colored(kernel, seed=34, n_realizations=m)
        sample_cov = ens.realizations.T @ ens.realizations / m
        k = kernel.values
        se = np.sqrt((np.outer(np.diag(k), np.diag(k)) + k**2) / m)
        assert np.max(np.abs(sample_cov - k) / se) < 5.0

    def test_determinism_and_reference(self):
        kernel = build_hadamard(UNIT, make_grid(0.0, 1.0, 8))
        a = sample_colored(kernel, seed=3, n_realizations=6)
        b = sample_colored(kernel, seed=3, n_realizations=6)
        assert np.array_equal(a.realizations, b.realizations)
        assert a.covariance_ref == b.covariance_ref
        assert a.covariance_ref.startswith("symmetric[")

    def test_rejects_asymmetric_kernel(self):
        from ctpsim.kernels import build_retarded
        kernel = build_retarded(UNIT, make_grid(0.0, 1.0, 8))
        with pytest.raises(ValueError, match="symmetric"):
            sample_colored(kernel, seed=1, n_realizations=2)

    def test_reports_indefinite_kernel(self):
        grid = make_grid(0.0, 1.0, 4)
        vals = np.diag([1.0, 1.0, 1.0, -1e-3])
        kernel = KernelMatrix(grid, vals, SYMMETRIC)
        with pytest.raises(NumericalError, match="negative eigenvalue"):
            sample_colored(kernel, seed=1, n_realizations=2)


class TestFactorTiles:
    """factor_source's tiles: at most _DRAW_BLOCK_VALUES values, the k-ordered sum's bits."""

    @pytest.mark.parametrize("values", [5, 64, 257])
    def test_tiles_split_both_axes(self, monkeypatch, values):
        # 70 realizations of the pipeline's (w, M d) block and of draw_from_factor's
        # (600, 70) time-major rows: lines longer than some tiles, and blocks of
        # time rows split into several tiles by all three sizes
        m, n, rank = 70, 600, 3
        factor = np.random.default_rng(values).standard_normal((n, rank))
        expected = factor_draw_oracle(factor, noise._standard_normals(values, m, rank))
        drawn = noise.draw_from_factor(factor, values, m)
        assert drawn.flags.c_contiguous
        assert drawn.T.tobytes() == expected.tobytes()
        fill = noise.factor_source(factor, values, m)  # draws z at the package's size
        monkeypatch.setattr(noise, "_DRAW_BLOCK_VALUES", values)
        block, got = np.empty((257, m)), np.empty((n, m))
        for cols in _time_blocks(n):
            rows = block[:cols.stop - cols.start]
            fill(rows, cols.start)
            got[cols] = rows
        assert got.tobytes() == expected.tobytes()
        rows = np.empty((n, m))
        fill(rows)
        assert rows.tobytes() == expected.tobytes()

    # a (257, 800) block of the pipeline (bec at M 400) and draw_from_factor's
    # (8, 1e5) rows; beside its one tile, a fill holds only the two buffers of
    # np.getbufsize() values that numpy's ufunc iterator allocates for each
    # broadcast multiply of a tile (measured: 128 KB with numpy 2.4), never a
    # block-sized array
    @pytest.mark.parametrize("width, lines", [(257, 800), (8, 100_000)])
    def test_scratch_is_one_tile(self, width, lines):
        factor = np.random.default_rng(1).standard_normal((width, min(width, 8)))
        fill = noise.factor_source(factor, 1, lines)
        rows = np.empty((width, lines))
        fill(rows)
        tracemalloc.start()
        try:
            fill(rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * noise._DRAW_BLOCK_VALUES + 16 * np.getbufsize() + 4096


class TestHsMomentCheck:
    def test_zero_vector_is_exact(self):
        kernel = build_hadamard(UNIT, make_grid(0.0, 1.0, 8))
        mc, analytic = hs_moment_check(kernel, np.zeros(8), 100, seed=4)
        assert mc == 1.0 + 0.0j
        assert analytic == 1.0

    def test_identity_kernel_basis_vector(self):
        grid = make_grid(0.0, 1.0, 8)
        kernel = KernelMatrix(grid, np.eye(8), SYMMETRIC)
        m = 40_000
        v = np.zeros(8)
        v[0] = 1.0
        mc, analytic = hs_moment_check(kernel, v, m, seed=6)
        assert math.isclose(analytic, math.exp(-0.5), rel_tol=1e-12)
        assert abs(mc - analytic) < 5.0 / math.sqrt(m)

    def test_composed_kernel(self):
        grid = make_grid(0.0, 1.0, 8)
        kernel = fluctuation_kernel(0.5, build_hadamard(UNIT, grid))
        rng = np.random.default_rng(9)
        v = rng.standard_normal(8)
        v /= math.sqrt(float(v @ kernel.values @ v))  # v^T K v = 1
        m = 40_000
        mc, analytic = hs_moment_check(kernel, v, m, seed=7)
        assert abs(mc - analytic) < 5.0 / math.sqrt(m)

    def test_shape_mismatch_rejected(self):
        kernel = build_hadamard(UNIT, make_grid(0.0, 1.0, 8))
        with pytest.raises(ValueError, match="shape"):
            hs_moment_check(kernel, np.zeros(5), 10, seed=1)

    @pytest.mark.parametrize("m", [0, -3])
    def test_empty_ensemble_rejected(self, m):
        kernel = build_hadamard(UNIT, make_grid(0.0, 1.0, 8))
        with pytest.raises(ValueError, match="n_realizations"):
            hs_moment_check(kernel, np.zeros(8), m, seed=1)

    def test_beyond_physical_memory_refused_before_any_draw(self, physical_memory,
                                                            monkeypatch):
        # its phases and cos/sin buffer, 2 values a row, and one chunk of
        # max(4096, 64 r) normals at the factor's rank, 2 here
        kernel = build_hadamard(UNIT, make_grid(0.0, 1.0, 8))
        m = 1000
        need = 8 * (2 * m + 2 * 2048)
        physical_memory(need - 1)
        monkeypatch.setattr(noise, "_factor_normals",
                            lambda *args: pytest.fail("the check drew its normals"))
        with pytest.raises(ConfigError, match=f"need {need} bytes") as err:
            hs_moment_check(kernel, np.zeros(8), m, seed=1)
        assert err.value.params == ("n_realizations",)

    # rank r and span, the rows one draw call covers: 64 max(1, 4096 // (64 r));
    # the fluctuation kernel's closed-form rank 7 clips to 6 on this grid
    @pytest.mark.parametrize("case, rank, span", [
        ("hadamard", 2, 2048), ("fluctuation", 6, 640), ("identity", 16, 256)])
    @pytest.mark.parametrize("size", ["1", "63", "64", "65", "span-1", "span", "span+1",
                                      "100001"])
    def test_streamed_draw_equals_the_whole_draw(self, case, rank, span, size):
        # chunks of whole row groups give the whole draw's phases, and so its bits
        grid = make_grid(0.0, 1.0, 16 if case == "identity" else 8)
        kernel = {"hadamard": lambda: build_hadamard(UNIT, grid),
                  "fluctuation": lambda: fluctuation_kernel(0.5, build_hadamard(UNIT, grid)),
                  "identity": lambda: KernelMatrix(grid, np.eye(16), SYMMETRIC)}[case]()
        assert noise.psd_factor(kernel, noise.DEFAULT_CLIP_TOL).shape[1] == rank
        m = span + {"span-1": -1, "span": 0, "span+1": 1}[size] if "span" in size else int(size)
        v = np.linspace(0.2, -0.3, grid.n_points)
        seed = derive_seed(3, 97)
        assert hs_moment_check(kernel, v, m, seed) == hs_whole_draw_oracle(
            kernel, v, m, seed, noise.DEFAULT_CLIP_TOL)

    @pytest.mark.parametrize("case", ["hadamard", "identity"])
    def test_equals_the_explicit_draw(self, case):
        # the phases z_i . (F^T v) give the mean over the noise rows F z_i to roundoff
        if case == "hadamard":  # verify's kernel and vector
            kernel = build_hadamard(UNIT, make_grid(0.0, 1.0, 8))
            v = np.linspace(0.2, -0.3, 8)
        else:  # acceptance criterion 4's kernel, with every normal in the phase
            kernel = KernelMatrix(make_grid(0.0, 1.0, 16), np.eye(16), SYMMETRIC)
            v = np.linspace(0.3, -0.4, 16)
        v /= math.sqrt(float(v @ kernel.values @ v))
        m, seed = 10_000, derive_seed(3, 97)
        mc, analytic = hs_moment_check(kernel, v, m, seed)
        assert abs(mc - hs_moment_oracle(kernel, v, m, seed, noise.DEFAULT_CLIP_TOL)) <= 1e-12
        assert math.isclose(analytic, math.exp(-0.5), rel_tol=1e-12)
