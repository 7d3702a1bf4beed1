import math
import os

import numpy as np
import pytest

from ctpsim.core import ConfigError, derive_seed, make_grid, require_memory, trapezoid_history


class TestMakeGrid:
    def test_uniform_grid_arithmetic(self):
        grid = make_grid(0.0, 1.0, 11)
        assert grid.dt == 0.1
        assert grid.times()[5] == 0.5
        assert grid.times().shape == (11,)

    def test_minimal_grid(self):
        grid = make_grid(0.0, 1.0, 2)
        assert grid.dt == 1.0
        assert list(grid.times()) == [0.0, 1.0]

    def test_invalid_range_rejected(self):
        # a ConfigError, which is a ValueError, naming the fields at fault
        for t_end in (0.0, 1.0):
            with pytest.raises(ValueError, match="invalid range") as err:
                make_grid(1.0, t_end, 11)
            assert err.value.params == ("t_start", "t_end")

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError, match="too few points") as err:
            make_grid(0.0, 1.0, 1)
        assert err.value.params == ("n_points",)

    def test_reconstruction_is_bit_stable(self):
        a = make_grid(-2.5, 7.25, 313)
        b = make_grid(-2.5, 7.25, 313)
        assert a == b
        assert np.array_equal(a.times(), b.times())

    def test_points_follow_start_plus_index_dt(self):
        grid = make_grid(0.25, 3.25, 97)
        expected = grid.t_start + grid.dt * np.arange(97)
        assert np.array_equal(grid.times(), expected)


class TestTrapezoidHistory:
    def test_zero_length_prefix(self):
        assert trapezoid_history(np.ones(5), np.ones(5), 0, 0.1) == 0.0

    def test_constant_inputs_integrate_to_interval(self):
        # half weight on both end points: dt * (i + 1 - 1/2 - 1/2) = dt * i
        for i in (1, 2, 8, 63):
            assert trapezoid_history(np.ones(64), np.ones(64), i, 0.125) == 0.125 * i

    def test_only_the_prefix_counts(self):
        row = np.array([2.0, 4.0, 6.0, 1e300])
        x = np.array([1.0, 0.5, 1.0, 1e300])
        assert trapezoid_history(row, x, 2, 0.5) == 0.5 * (1.0 + 2.0 + 3.0)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, 0) == derive_seed(42, 0)

    def test_index_separation(self):
        assert derive_seed(42, 0) != derive_seed(42, 1)

    def test_master_separation(self):
        assert derive_seed(42, 0) != derive_seed(43, 0)

    def test_no_collisions_desk_scale(self):
        seeds = {derive_seed(42, k) for k in range(10_000)}
        assert len(seeds) == 10_000

    def test_output_fits_64_bits(self):
        for k in (0, 1, 999, 123456):
            s = derive_seed(2**64 - 1, k)
            assert 0 <= s < 2**64

    @pytest.mark.parametrize("master", [-1, 2**64])
    def test_master_seed_outside_64_bits_rejected(self, master):
        with pytest.raises(ConfigError, match="master_seed") as err:
            derive_seed(master, 0)
        assert err.value.params == ("master_seed",)

    @pytest.mark.parametrize("master", [1.5, 1.0, True, np.float64(2.0), math.nan, math.inf,
                                        -math.inf])
    def test_master_seed_not_an_integer_rejected(self, master):
        # a float is not truncated, nor a bool read as 0 or 1, into another seed's streams
        with pytest.raises(ConfigError, match="master_seed") as err:
            derive_seed(master, 0)
        assert err.value.params == ("master_seed",)

    def test_numpy_integer_master_seed_keeps_its_value(self):
        assert derive_seed(np.uint64(2**64 - 1), 0) == derive_seed(2**64 - 1, 0)
        assert derive_seed(np.int32(42), 3) == derive_seed(42, 3)

    def test_master_seed_range_ends_keep_their_values(self):
        # stream 0 of the range's two ends, as every artifact_version has derived it
        assert derive_seed(0, 0) == 0xE220A8397B1DCDAF
        assert derive_seed(2**64 - 1, 0) == 0xE4D971771B652C20

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            derive_seed(42, -1)

    def test_scalar_rule_is_splitmix64(self):
        # splitmix64 written out on Python integers; the values are those of every
        # artifact_version so far
        mask = 2**64 - 1
        for master, index in [(0, 0), (2**64 - 1, 5), (12345, 99_999)]:
            z = (master + (index + 1) * 0x9E3779B97F4A7C15) & mask
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
            assert derive_seed(master, index) == z ^ (z >> 31)


class TestRequireMemory:
    def test_reads_physical_memory(self):
        physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
        require_memory(physical, "arrays")
        with pytest.raises(ConfigError):
            require_memory(physical + 1, "arrays")

    def test_limit_is_inclusive(self, physical_memory):
        physical_memory(1000)
        require_memory(1000, "arrays")
        with pytest.raises(ConfigError, match=r"noise \(2, 3\) need 1001 bytes .*1000 bytes"):
            require_memory(1001, "noise (2, 3)")
