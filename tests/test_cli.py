import json
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from ctpsim.cli import ConfigError, load_config, main


def write_config(tmp_path: Path, payload) -> Path:
    path = tmp_path / "config.json"
    if isinstance(payload, str):
        path.write_text(payload)
    else:
        path.write_text(json.dumps(payload))
    return path


SSB_FAST = {
    "master_seed": 11,
    "n_realizations": 30,
    "ssb": {"t_end": 30.0, "n_points": 1201},
}


class TestLoadConfig:
    def test_missing_file_names_path(self):
        with pytest.raises(ConfigError, match="nope.json"):
            load_config("/definitely/nope.json", "ssb")

    def test_parse_error_carries_position(self, tmp_path):
        path = write_config(tmp_path, '{"master_seed": 1,\n  "bad"\n}')
        with pytest.raises(ConfigError, match=r"line \d+, column \d+"):
            load_config(path, "ssb")

    def test_duplicate_key_rejected(self, tmp_path):
        path = write_config(tmp_path, '{"master_seed": 1, "master_seed": 2}')
        with pytest.raises(ConfigError, match="duplicate key"):
            load_config(path, "ssb")

    def test_unknown_top_level_key_rejected(self, tmp_path):
        path = write_config(tmp_path, {"master_sead": 1})
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(path, "ssb")

    def test_unknown_section_key_rejected(self, tmp_path):
        path = write_config(tmp_path, {"ssb": {"lambdaa": 0.5}})
        with pytest.raises(ConfigError, match="ssb.*lambdaa"):
            load_config(path, "ssb")
        # the scenarios sample an exact factor: nothing to clip
        path = write_config(tmp_path, {"bec": {"clip_tol": 1e-10}})
        with pytest.raises(ConfigError, match="bec.*clip_tol"):
            load_config(path, "bec")

    def test_negative_coupling_rejected(self, tmp_path):
        path = write_config(tmp_path, {"ssb": {"lambda": -1.0}})
        with pytest.raises(ConfigError, match="lambda must be positive"):
            load_config(path, "ssb")

    def test_type_errors_rejected(self, tmp_path):
        path = write_config(tmp_path, {"ssb": {"n_points": 10.5}})
        with pytest.raises(ConfigError, match="integer"):
            load_config(path, "ssb")
        path = write_config(tmp_path, {"ssb": {"gate": 1}})
        with pytest.raises(ConfigError, match="boolean"):
            load_config(path, "ssb")

    def test_minimal_config_gets_defaults(self, tmp_path):
        path = write_config(tmp_path, {"ssb": {}})
        cfg = load_config(path, "ssb")
        assert cfg["master_seed"] == 0
        assert cfg["ssb"]["m2"] == -1.0
        assert cfg["ssb"]["noise_kernel"] == "hadamard"
        assert cfg["ssb"]["gate"] is True

    def test_threads_key_rejected(self, tmp_path, capsys):
        # ensembles are stepped as one batch: there is no thread count to set
        path = write_config(tmp_path, {"threads": 2, "ssb": {}})
        assert main(["ssb", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert "unknown key 'threads'" in capsys.readouterr().err
        assert main(["verify", "--threads", "2", "--out", str(tmp_path / "v")]) == 1
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
        assert not (tmp_path / "o").exists() and not (tmp_path / "v").exists()

    def test_other_sections_tolerated(self, tmp_path):
        path = write_config(tmp_path, {"ssb": {}, "bec": {}, "inflation": {}})
        cfg = load_config(path, "ssb")
        assert "bec" not in cfg


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["verify", "--bogus"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["ssb", "--config", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert "absent.json" in capsys.readouterr().err

    def test_config_required_for_scenarios(self, tmp_path, capsys):
        assert main(["ssb", "--out", str(tmp_path / "out")]) == 1

    def test_schema_violation_exit(self, tmp_path, capsys):
        path = write_config(tmp_path, {"ssb": {"lambda": -1.0}})
        code = main(["ssb", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "lambda must be positive" in capsys.readouterr().err

    def test_divergent_dt_is_numerical_failure(self, tmp_path, capsys):
        cfg = {"master_seed": 3, "n_realizations": 4,
               "ssb": {"t_end": 40.0, "n_points": 21, "noise_amplitude": 1.0}}
        path = write_config(tmp_path, cfg)
        code = main(["ssb", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "numerical failure" in err
        assert "realization" in err

    def test_rank_zero_noise_is_config_error(self, tmp_path, capsys):
        cfg = {"bec": {"noise_kernel": "fluctuation", "coupling": 0.0}}
        path = write_config(tmp_path, cfg)
        code = main(["bec", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "rank-0 noise" in capsys.readouterr().err

    @pytest.mark.parametrize("section", [{"kind": "fluctuation", "coupling": 0.0},
                                         {"kind": "hadamard", "clip_tol": 2.0}])
    def test_rank_zero_colored_noise_is_config_error(self, tmp_path, capsys, section):
        path = write_config(tmp_path, {"noise": section})
        out = tmp_path / "o"
        assert main(["noise", "--config", str(path), "--out", str(out)]) == 1
        assert "rank-0 noise" in capsys.readouterr().err
        assert not (out / "noise.csv").exists()

    def test_noise_factor_overflow_is_numerical_failure(self, tmp_path, capsys):
        cfg = {"ssb": {"noise_kernel": "fluctuation", "t_end": 300.0,
                       "n_points": 31}}
        path = write_config(tmp_path, cfg)
        code = main(["ssb", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "numerical failure" in err
        assert "overflows at t = 240" in err

    @pytest.mark.parametrize("kind,t_end", [("hadamard", 400.0), ("fluctuation", 300.0),
                                             ("memory", 300.0), ("retarded", 800.0)])
    def test_kernel_overflow_fails_without_warnings(self, tmp_path, capsys, kind, t_end):
        path = write_config(tmp_path, {"kernels": {"kind": kind, "t_end": t_end}})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["kernels", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "not finite" in err
        assert "RuntimeWarning" not in err
        assert [str(w.message) for w in caught] == []

    @pytest.mark.parametrize("sub, section, code, names", [
        ("squeeze", {"omega": 1e300}, 2, ["squeeze.omega", "squeeze.t_end"]),
        ("inflation", {"decades": 400.0}, 1, ["inflation.k_min", "inflation.decades"]),
        ("inflation", {"k_min": 1e-300}, 1, ["inflation.k_min", "inflation.decades"]),
        ("bec", {"n_points": 3}, 1, ["bec", "n_realizations"])])
    def test_out_of_range_config_names_its_key(self, tmp_path, capsys, sub, section, code,
                                               names):
        path = write_config(tmp_path, {"n_realizations": 1, sub: dict(section, n_points=3)})
        out = tmp_path / "o"
        assert main([sub, "--config", str(path), "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert all(name in err for name in names), err
        assert "Traceback" not in err
        assert not (out / "manifest.json").exists()

    def test_float64_failure_names_subcommand(self, tmp_path, capsys):
        # 2 m omega underflows to 0, so the vacuum variance hbar / (2 m omega) divides by 0
        path = write_config(tmp_path, {"squeeze": {"mass": 1e-300, "omega": 5e-324,
                                                   "n_points": 2}})
        assert main(["squeeze", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: squeeze: float64 arithmetic failed")

    def test_linalg_error_is_numerical_failure(self, tmp_path, monkeypatch, capsys):
        import ctpsim.cli as cli_mod

        def singular(cfg):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(cli_mod, "_verify_checks", singular)
        assert main(["verify", "--out", str(tmp_path / "v")]) == 2
        assert "numerical failure" in capsys.readouterr().err

    def test_changed_generator_seeding_is_numerical_failure(self, tmp_path, flipped_seed_words,
                                                            capsys):
        # vectorized seeding that disagrees with numpy's SeedSequence must not pass silently
        assert main(["verify", "--out", str(tmp_path / "v")]) == 2
        err = capsys.readouterr().err
        assert "numerical failure" in err
        assert f"numpy {np.__version__}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "v" / "verify.json").exists()

    @pytest.mark.parametrize("sub,section,key,literal", [
        ("squeeze", "squeeze", "phi", "NaN"),
        ("squeeze", "squeeze", "t_start", "-Infinity"),
        ("ssb", "ssb", "gate_threshold", "Infinity"),
        ("langevin", "langevin", "x0", "NaN"),
        pytest.param("langevin", "langevin", "v0", "1" + "0" * 400,
                     id="langevin-langevin-v0-int-beyond-float-range"),
    ])
    def test_non_finite_number_is_config_error(self, tmp_path, capsys, sub, section,
                                               key, literal):
        path = write_config(tmp_path, f'{{"{section}": {{"{key}": {literal}}}}}')
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([sub, "--config", str(path), "--out", str(out)]) == 1
        assert f"{section}.{key} must be finite" in capsys.readouterr().err
        assert list(out.glob("*.csv")) == []

    def test_out_of_memory_is_config_error(self, tmp_path, monkeypatch, capsys):
        import ctpsim.cli as cli_mod
        message = ("Unable to allocate 65.5 TiB for an array with shape "
                   "(3000000, 3000000) and data type float64")

        def too_large(params, grid):
            raise MemoryError(message)

        monkeypatch.setattr(cli_mod, "build_retarded", too_large)
        path = write_config(tmp_path, {"kernels": {"n_points": 8}})
        assert main(["kernels", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    def test_verify_passes(self, tmp_path):
        out = tmp_path / "verify"
        assert main(["verify", "--out", str(out)]) == 0
        report = json.loads((out / "verify.json").read_text())
        assert report["passed"] is True
        names = {c["name"] for c in report["checks"]}
        assert {"bogolubov_normalization", "keldysh_zero_block",
                "hs_moment_identity"} <= names

    def test_verify_failure_exits_three(self, tmp_path, monkeypatch):
        import ctpsim.cli as cli_mod
        monkeypatch.setattr(cli_mod, "_verify_checks", lambda cfg: [
            {"name": "forced", "value": 1.0, "bound": 0.5, "passed": False}])
        assert main(["verify", "--out", str(tmp_path / "v")]) == 3

    def test_double_well_requires_negative_m2(self, tmp_path, capsys):
        cfg = {"langevin": {"potential": "double_well", "m2": 1.0,
                            "t_end": 1.0, "n_points": 11}}
        path = write_config(tmp_path, cfg)
        assert main(["langevin", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 1
        assert "m2 must be negative" in capsys.readouterr().err


class TestOutputs:
    def test_table_values_are_float_reprs(self, tmp_path):
        from ctpsim.cli import _write_table
        values = [-0.0, 5e-324, 1e308, math.inf, 0.1 + 0.2]
        _write_table(tmp_path / "t.csv", "a,b", np.column_stack([values, values[::-1]]))
        lines = (tmp_path / "t.csv").read_text().splitlines()
        assert lines[0] == "a,b"
        assert lines[1:] == [f"{float(a)!r},{float(b)!r}"
                             for a, b in zip(values, values[::-1])]
        assert lines[1] == "-0.0,0.30000000000000004"
        _write_table(tmp_path / "m.txt", "1 0.5", np.array([values]), sep=" ")
        assert (tmp_path / "m.txt").read_text() == (
            "1 0.5\n" + " ".join(repr(float(v)) for v in values) + "\n")

    def test_failed_table_write_leaves_nothing(self, tmp_path):
        from ctpsim.cli import _write_table
        with pytest.raises(ValueError):
            _write_table(tmp_path / "t.csv", "a", [[1.0], [1.0, 2.0]])
        assert list(tmp_path.iterdir()) == []

    def test_squeeze_table(self, tmp_path):
        path = write_config(tmp_path, {"squeeze": {"t_end": 1.0, "n_points": 5}})
        out = tmp_path / "out"
        assert main(["squeeze", "--config", str(path), "--out", str(out)]) == 0
        lines = (out / "squeeze.csv").read_text().strip().splitlines()
        assert lines[0] == "t,particle_number,var_squeezed,var_antisqueezed"
        assert len(lines) == 6
        first = [float(v) for v in lines[1].split(",")]
        assert first[:2] == [0.0, 0.0]

    def test_kernel_matrix_format(self, tmp_path):
        path = write_config(tmp_path, {"kernels": {"kind": "hadamard",
                                                   "t_end": 1.0, "n_points": 4}})
        out = tmp_path / "out"
        assert main(["kernels", "--config", str(path), "--out", str(out)]) == 0
        lines = (out / "kernel.txt").read_text().strip().splitlines()
        n, dt = lines[0].split()
        assert int(n) == 4
        assert float(dt) == 1.0 / 3.0
        matrix = np.array([[float(v) for v in line.split()] for line in lines[1:]])
        assert matrix.shape == (4, 4)
        assert matrix[0, 0] == 1.0

    def test_noise_export_shapes(self, tmp_path):
        path = write_config(tmp_path, {"n_realizations": 6,
                                       "noise": {"kind": "hadamard",
                                                 "t_end": 1.0, "n_points": 8}})
        out = tmp_path / "out"
        assert main(["noise", "--config", str(path), "--out", str(out)]) == 0
        lines = (out / "noise.csv").read_text().strip().splitlines()
        assert len(lines) == 7
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_realizations"] == 6
        assert summary["covariance_ref"].startswith("symmetric[")

    def test_langevin_outputs(self, tmp_path):
        cfg = {"n_realizations": 5,
               "langevin": {"t_end": 5.0, "n_points": 501}}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["langevin", "--config", str(path), "--out", str(out)]) == 0
        for name in ("ensemble.csv", "trajectory0.csv", "summary.json",
                     "manifest.json"):
            assert (out / name).is_file()

    @pytest.mark.parametrize("potential", ["quadratic", "double_well"])
    def test_langevin_trajectory0_is_realization_zero(self, tmp_path, potential):
        from ctpsim.core import derive_seed, make_grid
        from ctpsim.langevin import PotentialSpec, integrate_white
        cfg = {"master_seed": 7, "n_realizations": 3,
               "langevin": {"potential": potential, "t_end": 5.0, "n_points": 301,
                            "x0": 0.5, "v0": -0.25}}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["langevin", "--config", str(path), "--out", str(out)]) == 0
        grid = make_grid(0.0, 5.0, 301)
        pot = (PotentialSpec.quadratic(1.0) if potential == "quadratic"
               else PotentialSpec.double_well(-1.0, 0.6))
        xi = (math.sqrt(1.0 / grid.dt)
              * np.random.default_rng(derive_seed(7, 0)).standard_normal(301))
        ref = integrate_white(pot, 0.5, grid, xi, 0.5, -0.25)
        table = np.loadtxt(out / "trajectory0.csv", delimiter=",", skiprows=1)
        assert table[:, 1].tobytes() == ref.x.tobytes()
        assert table[:, 2].tobytes() == ref.xdot.tobytes()

    def test_langevin_divergence_names_realization(self, tmp_path, capsys):
        cfg = {"n_realizations": 3,
               "langevin": {"potential": "inverted", "omega": 3.0, "t_end": 40.0,
                            "n_points": 401, "x0": 1.0}}
        path = write_config(tmp_path, cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["langevin", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "realization 0: trajectory diverged at step" in err

    def test_manifest_echoes_defaults(self, tmp_path):
        path = write_config(tmp_path, SSB_FAST)
        out = tmp_path / "out"
        assert main(["ssb", "--config", str(path), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "ssb"
        assert manifest["master_seed"] == 11
        assert manifest["config"]["ssb"]["lambda"] == 0.6
        assert manifest["config"]["ssb"]["friction"] == 1.0
        assert set(manifest["outputs"]) == {"report.json", "mean_trajectory.csv",
                                            "finals.csv"}
        assert manifest["wall_time_s"] > 0

    def test_seed_and_realizations_overrides(self, tmp_path):
        path = write_config(tmp_path, SSB_FAST)
        out = tmp_path / "out"
        code = main(["ssb", "--config", str(path), "--out", str(out),
                     "--seed", "99", "--realizations", "8"])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["master_seed"] == 99
        assert report["n_realizations"] == 8

    def test_reports_byte_identical_across_runs(self, tmp_path):
        path = write_config(tmp_path, SSB_FAST)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["ssb", "--config", str(path), "--out", str(out_a)]) == 0
        assert main(["ssb", "--config", str(path), "--out", str(out_b)]) == 0
        for name in ("report.json", "mean_trajectory.csv", "finals.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_no_temp_files_left_behind(self, tmp_path):
        path = write_config(tmp_path, SSB_FAST)
        out = tmp_path / "out"
        assert main(["ssb", "--config", str(path), "--out", str(out)]) == 0
        leftovers = [p for p in out.iterdir() if ".tmp" in p.name]
        assert leftovers == []

    @pytest.mark.parametrize("scenario", ["ssb", "bec"])
    def test_fluctuation_kernel_scenarios_run(self, tmp_path, scenario):
        # default [0, 30] grid; verdicts are statistical, so only the run is checked
        cfg = {"master_seed": 1, "n_realizations": 40,
               scenario: {"noise_kernel": "fluctuation"}}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main([scenario, "--config", str(path), "--out", str(out)]) == 0
        finals = np.loadtxt(out / "finals.csv", delimiter=",", skiprows=1)
        assert finals.size > 0 and np.all(np.isfinite(finals))
        report = json.loads((out / "report.json").read_text())
        assert report["noise_kernel"] == "fluctuation"

    def test_bec_and_inflation_pipelines(self, tmp_path):
        cfg = {"master_seed": 5, "n_realizations": 40,
               "bec": {"t_end": 30.0, "n_points": 1201},
               "inflation": {"n_points": 1501, "t_end": 30.0, "n_modes": 8}}
        path = write_config(tmp_path, cfg)
        out_bec = tmp_path / "bec"
        assert main(["bec", "--config", str(path), "--out", str(out_bec)]) == 0
        report = json.loads((out_bec / "report.json").read_text())
        assert report["kuiper_scaled"] < 2.001 or report["n_realizations"] < 100
        out_inf = tmp_path / "inf"
        assert main(["inflation", "--config", str(path), "--out", str(out_inf)]) == 0
        report = json.loads((out_inf / "report.json").read_text())
        assert abs(report["slope"] + 3.0) < 0.3


class TestMemory:
    M = 50

    def _args(self, tmp_path, sub, n, m=M):
        path = write_config(tmp_path, {"master_seed": 1, "n_realizations": m,
                                       sub: {"n_points": n}})
        return [sub, "--config", str(path), "--out", str(tmp_path / "out")]

    @pytest.mark.parametrize("sub, n, d, bound", [
        ("langevin", 4001, 1, 2.1), ("ssb", 2001, 1, 2.6),
        ("bec", 2001, 2, 1.9), ("inflation", 2001, 1, 1.8), ("noise", 4001, 1, 2.3)])
    def test_traced_peak_holds_each_array_once(self, tmp_path, sub, n, d, bound):
        assert self._traced_peak(self._args(tmp_path, sub, n)) <= bound * self.M * d * n * 8

    # at M 400 the paths outweigh the 1 MB blocks of the statistics and the
    # recursion count (measured: ssb 1.56, bec 1.50 arrays)
    @pytest.mark.parametrize("sub, d, bound", [("ssb", 1, 1.65), ("bec", 2, 1.6)])
    def test_traced_peak_of_scenario_is_its_paths(self, tmp_path, sub, d, bound):
        m, n = 400, 3001
        assert self._traced_peak(self._args(tmp_path, sub, n, m)) <= bound * m * d * n * 8

    @staticmethod
    def _traced_peak(args) -> int:
        """Traced peak bytes of one call after a warm-up call."""
        assert main(args) == 0
        tracemalloc.start()
        try:
            assert main(args) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # arrays: the peak in (M, n) float64 arrays, as the subcommand checks it
    @pytest.mark.parametrize("sub, arrays", [
        ("langevin", 1), ("ssb", 1), ("bec", 2), ("inflation", 1)])
    def test_run_beyond_physical_memory_exits_one(self, tmp_path, physical_memory, capsys,
                                                  sub, arrays):
        m, n = 4, 2001
        need = arrays * m * n * 8
        args = self._args(tmp_path, sub, n, m)
        physical_memory(need - 1)
        assert main(args) == 1
        err = capsys.readouterr().err
        assert f"need {need} bytes" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out" / "manifest.json").exists()
        physical_memory(need)
        assert main(args) == 0

    # the dense budget: 6 n x n float64 arrays; noise adds the (M, n) noise and the
    # deviations of its summary variance
    @pytest.mark.parametrize("sub, section, values", [
        ("kernels", {"kind": "retarded"}, lambda m, n: 6 * n * n),
        ("kernels", {"kind": "memory"}, lambda m, n: 6 * n * n),
        ("noise", {"kind": "hadamard"}, lambda m, n: 6 * n * n + 2 * m * n),
        ("noise", {"kind": "fluctuation"}, lambda m, n: 6 * n * n + 2 * m * n),
        ("noise", {"kind": "white"}, lambda m, n: 2 * m * n)])
    def test_dense_run_beyond_physical_memory_exits_one(self, tmp_path, physical_memory,
                                                        capsys, sub, section, values):
        m, n = 3, 40
        need = values(m, n) * 8
        path = write_config(tmp_path, {"master_seed": 1, "n_realizations": m,
                                       sub: dict(section, n_points=n)})
        args = [sub, "--config", str(path), "--out", str(tmp_path / "out")]
        physical_memory(need - 1)
        assert main(args) == 1
        err = capsys.readouterr().err
        assert f"need {need} bytes" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out" / "manifest.json").exists()
        physical_memory(need)
        assert main(args) == 0

    def test_verify_beyond_physical_memory_exits_one(self, tmp_path, physical_memory, capsys):
        # 17 float64 values per Hubbard-Stratonovich realization, checked before any draw
        m = 1000
        need = 17 * m * 8
        path = write_config(tmp_path, {"verify": {"hs_realizations": m}})
        args = ["verify", "--config", str(path), "--out", str(tmp_path / "out")]
        physical_memory(need - 1)
        assert main(args) == 1
        err = capsys.readouterr().err
        assert f"need {need} bytes" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out" / "verify.json").exists()
        physical_memory(need)
        assert main(args) == 0
