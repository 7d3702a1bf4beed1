import json
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from ctpsim import cli, langevin, scenarios
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
        path = write_config(tmp_path, {"noise": {"kind": "hadamard", "clip_tol": 1e-10}})
        with pytest.raises(ConfigError, match="noise.*clip_tol"):
            load_config(path, "noise")

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
        # without friction the dt = 2 step multiplies deviations from the origin and
        # from the minimum by up to 3 + sqrt(8) ~ 5.8 per step (eigenvalues 3 +- sqrt(8)
        # and -3 +- sqrt(8)), so every realization diverges whatever the draw
        for seed in (0, 3, 17, 2**63):
            cfg = {"master_seed": seed, "n_realizations": 4,
                   "ssb": {"t_end": 40.0, "n_points": 21, "friction": 0.0}}
            path = write_config(tmp_path, cfg)
            code = main(["ssb", "--config", str(path), "--out", str(tmp_path / "o")])
            assert code == 2
            err = capsys.readouterr().err
            assert "numerical failure" in err
            assert "realization" in err
            assert "(dt = 2 too coarse for the curvature |m2| = 1)" in err

    @pytest.mark.parametrize("sub", ["ssb", "bec"])
    def test_gate_off_divergence_names_the_gate(self, tmp_path, capsys, sub):
        # ungated, the noise grows as e^(sqrt(-m2) t): the default grid diverges
        # at t = 14.8, and so would a finer one, so dt is not the knob to name
        path = write_config(tmp_path, {sub: {"gate": False}})
        code = main([sub, "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "diverged" in err
        assert "gate" in err
        assert "too coarse" not in err

    # the inverted potential with omega 5 diverges at step 640, the ungated ssb run
    # at t = 14.8; the message ends with the keys set away from their defaults
    @pytest.mark.parametrize("sub, section, key", [
        ("langevin", {"potential": "inverted", "omega": 5.0}, "langevin.omega=5.0"),
        ("ssb", {"gate": False}, "ssb.gate=False")], ids=["langevin", "ssb"])
    def test_divergence_names_its_config_keys(self, tmp_path, capsys, sub, section, key):
        path = write_config(tmp_path, {sub: section})
        out = tmp_path / "o"
        assert main([sub, "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: realization ")
        assert "diverged" in err
        assert err.endswith(")\n")
        assert key in err[err.rindex("(non-default keys: "):]
        assert "Traceback" not in err
        assert not (out / "manifest.json").exists()

    def test_rank_zero_noise_is_config_error(self, tmp_path, capsys):
        cfg = {"bec": {"noise_kernel": "fluctuation", "coupling": 0.0}}
        path = write_config(tmp_path, cfg)
        code = main(["bec", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert "rank-0 noise" in err
        assert err.endswith("(config keys: bec.hbar=1.0, bec.mass=1.0, bec.m2=-1.0, "
                            "bec.coupling=0.0)\n")

    @pytest.mark.parametrize("section", [{"kind": "fluctuation", "coupling": 0.0}])
    def test_rank_zero_colored_noise_is_config_error(self, tmp_path, capsys, section):
        path = write_config(tmp_path, {"noise": section})
        out = tmp_path / "o"
        assert main(["noise", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "rank-0 noise" in err
        assert err.endswith("(config keys: noise.hbar=1.0, noise.mass=1.0, noise.omega=1.0, "
                            "noise.coupling=0.0)\n")
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
        assert err.endswith("(config keys: ssb.m2=-1.0, ssb.t_start=0.0, ssb.t_end=300.0, "
                            "ssb.n_points=31)\n")

    # hbar / (m w) overflows, a coefficient lambda^2 a^3 of the fluctuation kernel does,
    # or a power ** raises: the message names it, not the grid
    @pytest.mark.parametrize("section, what", [
        ({"mass": 5e-324}, "hbar / (m w) is inf"),
        ({"noise_kernel": "fluctuation", "hbar": 1e100, "coupling": 1e12},
         "the coefficient of e^(3 w (t + t')) is inf"),
        ({"noise_kernel": "fluctuation", "hbar": 1e300},
         "a power of the coupling or of hbar / (m w) is inf")],
        ids=["hbar_over_m_omega", "coupling_product", "power"])
    def test_infinite_noise_coefficient_is_named(self, tmp_path, capsys, section, what):
        path = write_config(tmp_path, {"n_realizations": 1, "ssb": dict(section, n_points=7)})
        assert main(["ssb", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"numerical failure: noise kernel overflows float64: {what} (config keys: " \
               f"ssb.hbar=" in err
        assert "grid" not in err and "ssb.n_points" not in err

    # a gate threshold that |x|^2 reaches only beyond the divergence guard keeps the
    # gate open: the run diverges where the ungated one does, at any dt
    @pytest.mark.parametrize("sub, section, step", [
        ("ssb", {"gate_threshold": 1e300}, 745),
        ("ssb", {"gate_threshold": 1e300, "n_points": 15001}, 10697),
        ("bec", {"gate_threshold": 1e30}, 740)])
    def test_gate_open_divergence_names_the_threshold(self, tmp_path, capsys, sub, section,
                                                      step):
        path = write_config(tmp_path, {"n_realizations": 4, sub: section})
        assert main([sub, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"diverged at step {step} " in err
        assert "too coarse" not in err
        threshold = section["gate_threshold"]
        assert f"(gate open: the gate threshold {threshold:g} lies beyond the divergence " \
               f"guard's |x|^2 = 1e+24, and the noise grows as exp(1 t), unchecked)" in err
        assert err.endswith(f"(config keys: {sub}.gate_threshold={threshold!r})\n")

    @pytest.mark.parametrize("sub", ["ssb", "bec"])
    def test_noise_after_the_last_latch_is_not_drawn(self, tmp_path, capsys, sub):
        # every gate latches early, and the noise times noise_amplitude overflows late
        # on the grid, where no open gate passes it, so that noise is never drawn
        path = write_config(tmp_path, {"n_realizations": 8, sub: {
            "t_end": 708.0, "n_points": 35401, "noise_amplitude": 10.0}})
        out = tmp_path / "o"
        assert main([sub, "--config", str(path), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        report = json.loads((out / "report.json").read_text())
        assert report["gate_close_time_median"] < 20.0

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
        keys = err[err.rindex("(config keys: "):]
        mode = ["kernels.hbar=1.0", "kernels.mass=1.0", "kernels.omega=1.0",
                f"kernels.t_end={t_end!r}"]
        assert all(key in keys for key in mode), err
        assert ("kernels.phi=" in keys) == (kind != "retarded"), err
        assert ("kernels.coupling=0.5" in keys) == (kind in ("fluctuation", "memory")), err

    @pytest.mark.parametrize("sub, section, code, names", [
        ("squeeze", {"omega": 1e300}, 2, ["squeeze.omega", "squeeze.t_end"]),
        ("inflation", {"decades": 400.0}, 1, ["inflation.k_min", "inflation.decades"]),
        ("inflation", {"k_min": 1e-300}, 1, ["inflation.k_min", "inflation.decades"]),
        ("bec", {"n_points": 3}, 1, ["n_realizations must be >= 2", "n_realizations=1"]),
        # 2 m omega underflows to 0, or to a subnormal that hbar / (2 m omega) overflows
        ("squeeze", {"mass": 1e-300, "omega": 5e-324}, 2,
         ["squeeze.hbar", "squeeze.mass", "squeeze.omega"]),
        ("squeeze", {"mass": 1e-160, "omega": 1e-160}, 2,
         ["squeeze.hbar", "squeeze.mass", "squeeze.omega"]),
        # 2 phi overflows, so cos(2 phi) of the hadamard kernel is undefined
        ("noise", {"kind": "hadamard", "phi": 1.7976931348623157e308}, 2, ["noise.phi"]),
        ("noise", {"kind": "fluctuation", "phi": -1e308}, 2, ["noise.phi"]),
        ("kernels", {"kind": "hadamard", "phi": 1.7976931348623157e308}, 2,
         ["kernels.phi"]),
        # inflation's run-time checks: too few modes, under a decade of k, and under
        # 5 relaxation times before the tail window
        ("inflation", {"n_modes": 5}, 1, ["inflation.n_modes"]),
        ("inflation", {"decades": 0.5}, 1, ["inflation.decades", "inflation.k_min"]),
        ("inflation", {"t_end": 3.0}, 2,
         ["inflation.t_end", "inflation.tail_fraction", "inflation.lambda", "inflation.phi0",
          "inflation.hubble"]),
        # k / H overflows, so no mode leaves the horizon; lambda phi0^2
        # underflows to a zero rate; the tail window holds no grid point
        ("inflation", {"hubble": 5e-324}, 2, ["inflation.hubble", "inflation.t_start"]),
        ("inflation", {"lambda": 1e-300, "phi0": 1e-100}, 1,
         ["inflation.lambda", "inflation.phi0", "inflation.hubble"]),
        ("inflation", {"tail_fraction": 1e-300}, 1,
         ["inflation.tail_fraction", "inflation.n_points"]),
        # a reversed or empty interval, in every subcommand that reads a grid
        *[(sub, {"t_start": 5.0, "t_end": t_end}, 1,
           ["invalid range", f"{sub}.t_start=5.0", f"{sub}.t_end={t_end!r}"])
          for sub in ("squeeze", "kernels", "noise", "langevin", "ssb", "bec", "inflation")
          for t_end in (2.0, 5.0)]])
    def test_out_of_range_config_names_its_key(self, tmp_path, capsys, sub, section, code,
                                               names):
        path = write_config(tmp_path, {"n_realizations": 1, sub: dict(section, n_points=3)})
        out = tmp_path / "o"
        assert main([sub, "--config", str(path), "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert all(name in err for name in names), err
        assert "Traceback" not in err
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("sub", ["ssb", "bec"])
    def test_return_radius_is_checked_before_the_run(self, tmp_path, capsys, monkeypatch,
                                                     sub):
        # the default leave radius is sqrt(-6 m2 / lambda) / 2 = 1.58; the config is
        # refused before any noise is drawn, naming the three keys it comes from
        monkeypatch.setattr(scenarios, "factor_source",
                            lambda *args: pytest.fail("the run drew its noise"))
        path = write_config(tmp_path, {"n_realizations": 4, sub: {"return_radius": 3.0}})
        out = tmp_path / "o"
        assert main([sub, "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "return_radius must be positive and below the leave radius" in err
        assert f"(config keys: {sub}.return_radius=3.0, {sub}.m2=-1.0, {sub}.lambda=0.6)" in err
        assert "Traceback" not in err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("sub", ["ssb", "bec"])
    def test_overflowing_minimum_radius_is_refused(self, tmp_path, capsys, sub):
        # -6 m2 / lambda overflows, which the report would write as Infinity (the
        # minimum and leave radii, the default gate threshold)
        path = write_config(tmp_path, {"n_realizations": 4, sub: {
            "lambda": 5e-324, "n_points": 6, "t_end": 0.3}})
        out = tmp_path / "o"
        assert main([sub, "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "the minimum radius sqrt(-6 m2 / lambda) overflows float64" in err
        assert err.endswith(f"(config keys: {sub}.m2=-1.0, {sub}.lambda=5e-324)\n")
        assert list(out.iterdir()) == []

    def test_divergence_at_an_overflowing_time_names_the_step(self, tmp_path, capsys):
        # t_end - t_start overflows, so dt and t_start + dt are inf: the first step
        # diverges, and the message gives its index without a time
        path = write_config(tmp_path, {"n_realizations": 2, "langevin": {
            "gamma": 0.0, "x0": 1.0, "t_start": -1e308, "t_end": 1e308, "n_points": 3}})
        out = tmp_path / "o"
        assert main(["langevin", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "realization 0: trajectory diverged at step 1: |x| exceeded" in err
        assert "inf" not in err
        assert not (out / "manifest.json").exists()

    def test_retarded_kernel_reads_no_phi(self, tmp_path):
        path = write_config(tmp_path, {"kernels": {"kind": "retarded", "n_points": 3,
                                                   "phi": 1.7976931348623157e308}})
        assert main(["kernels", "--config", str(path), "--out", str(tmp_path / "o")]) == 0

    def test_negative_squeeze_start_names_its_key(self, tmp_path, capsys):
        path = write_config(tmp_path, {"squeeze": {"t_start": -1.0, "n_points": 3}})
        out = tmp_path / "o"
        assert main(["squeeze", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "squeeze.t_start must be >= 0" in err
        assert "Traceback" not in err
        assert not (out / "manifest.json").exists()

    def test_failed_noise_summary_writes_nothing(self, tmp_path, capsys):
        # the summary's variance overflows after the noise is drawn
        path = write_config(tmp_path, {"n_realizations": 4, "noise": {
            "sigma2": 1.7976931348623157e308, "omega": 1e12,
            "hbar": 1.7976931348623157e308, "n_points": 7}})
        out = tmp_path / "o"
        assert main(["noise", "--config", str(path), "--out", str(out)]) == 2
        assert "numerical failure" in capsys.readouterr().err
        assert not (out / "noise.csv").exists()
        assert not (out / "manifest.json").exists()

    def test_infinite_dt_is_refused_not_written(self, tmp_path, capsys):
        # t_end - t_start overflows: the white noise is drawn (all 0, since
        # sqrt(sigma2 / dt) is 0), and summary.json would hold "dt": Infinity
        path = write_config(tmp_path, {"n_realizations": 4, "master_seed": 4, "noise": {
            "t_end": 1.7976931348623157e+308, "n_points": 4, "t_start": -1e+300,
            "sigma2": 1e-300, "omega": 5e-324}})
        out = tmp_path / "o"
        assert main(["noise", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == ("numerical failure: summary.json: dt is not finite (config keys: "
                       "noise.t_start=-1e+300, noise.t_end=1.7976931348623157e+308, "
                       "noise.n_points=4)\n")
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("sub", ["noise", "langevin", "inflation", "ssb", "bec"])
    def test_refused_json_leaves_no_table(self, tmp_path, monkeypatch, capsys, sub):
        # every subcommand that writes a JSON report writes it before its tables
        def refuse(path, obj):
            raise cli.NumericalError(f"{path.name}: x is not finite")
        monkeypatch.setattr(cli, "_write_json", refuse)
        path = write_config(tmp_path, {"n_realizations": 4, sub: {"n_points": 301}})
        out = tmp_path / "o"
        assert main([sub, "--config", str(path), "--out", str(out)]) == 2
        assert "x is not finite" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_json_names_its_first_non_finite_field(self, tmp_path):
        path = tmp_path / "report.json"
        with pytest.raises(cli.NumericalError, match=r"^report.json: checks.1.value is not "
                                                     r"finite$") as info:
            cli._write_json(path, {"n": 2, "checks": [{"value": 0.5},
                                                      {"name": "nan", "value": math.nan},
                                                      {"value": math.inf}]})
        assert info.value.params == ("value",)
        assert list(tmp_path.iterdir()) == []
        cli._write_json(path, {"value": 1e308, "values": [0.0, -0.0]})
        assert path.read_text() == ('{\n  "value": 1e+308,\n  "values": [\n    0.0,\n'
                                    '    -0.0\n  ]\n}\n')

    def test_inflation_mode_inside_the_horizon_is_refused(self, tmp_path, capsys):
        # hubble 1e-300: |k eta| = k / H ~ 1e301 on the whole grid, no mode leaves
        # the horizon, and the fitted slope came out -1.42 against -3
        path = write_config(tmp_path, {"n_realizations": 1, "inflation": {
            "hubble": 1e-300, "n_points": 3}})
        out = tmp_path / "o"
        assert main(["inflation", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "mode k = 15.8114 has not left the horizon by the tail window" in err
        assert err.endswith(
            "(config keys: inflation.hubble=1e-300, inflation.k_min=0.5, "
            "inflation.decades=1.5, inflation.t_start=0.0, inflation.t_end=30.0, "
            "inflation.n_points=3, inflation.tail_fraction=0.5)\n")
        assert list(out.iterdir()) == []

    def test_float64_failure_names_subcommand(self, tmp_path, capsys):
        # the noise times noise_amplitude overflows, which no step checks
        path = write_config(tmp_path, {"n_realizations": 2, "ssb": {"noise_amplitude": 1e300,
                                                                   "n_points": 40}})
        assert main(["ssb", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ssb: float64 arithmetic failed")
        assert err.endswith("(extreme values: ssb.noise_amplitude=1e+300)\n")

    def test_float64_failure_names_non_default_keys(self, tmp_path, monkeypatch, capsys):
        # no extreme value in the section: every key set away from its default
        import ctpsim.cli as cli_mod

        def overflow(cfg):
            raise FloatingPointError("overflow encountered in exp")

        monkeypatch.setattr(cli_mod, "_verify_checks", overflow)
        path = write_config(tmp_path, {"verify": {"hs_realizations": 50}})
        assert main(["verify", "--config", str(path), "--out", str(tmp_path / "v")]) == 2
        assert capsys.readouterr().err == (
            "numerical failure: verify: float64 arithmetic failed: overflow encountered in exp"
            " (non-default keys: verify.hs_realizations=50)\n")

    def test_linalg_error_is_numerical_failure(self, tmp_path, monkeypatch, capsys):
        import ctpsim.cli as cli_mod

        def singular(cfg):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(cli_mod, "_verify_checks", singular)
        assert main(["verify", "--out", str(tmp_path / "v")]) == 2
        assert "numerical failure" in capsys.readouterr().err

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


def test_every_parameter_maps_to_config_keys():
    from ctpsim.cli import _PARAM_KEYS, _SECTION_SCHEMAS, _TOP_SCHEMA
    assert set(_PARAM_KEYS) == set(_SECTION_SCHEMAS)
    for sub, table in _PARAM_KEYS.items():
        for param, keys in table.items():
            assert keys, (sub, param)
            for key in keys:
                assert key in _SECTION_SCHEMAS[sub] or key in _TOP_SCHEMA, (sub, param, key)


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
        # tables rendered in several chunks, against the row-wise rendering
        from ctpsim.cli import _TABLE_CHUNK
        special = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 1e-05]
        for shape, sep in [((_TABLE_CHUNK + 1, 1), ","),
                           ((3 * (_TABLE_CHUNK // 3) + 5, 3), ","),
                           ((3, _TABLE_CHUNK + 7), " "),
                           ((0, 3), ",")]:
            table = np.resize(special, shape)
            table[1::2] *= 0.1 + 0.2
            _write_table(tmp_path / "c.csv", "head", table, sep=sep)
            assert (tmp_path / "c.csv").read_text() == "head\n" + "".join(
                sep.join(map(repr, r)) + "\n" for r in table.tolist())

    def test_table_write_peak_does_not_grow_with_rows(self, tmp_path):
        # a whole-table .tolist() of (20001, 3) would trace about 2.4 MB
        from ctpsim.cli import _write_table

        def peak(rows):
            table = np.random.default_rng(0).standard_normal((rows, 3))
            tracemalloc.start()
            try:
                _write_table(tmp_path / "t.csv", "a,b,c", table)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        small, large = peak(20001), peak(40001)
        assert small < 0.5e6
        assert large < small + 0.05e6

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
        assert summary["covariance_ref"].startswith("hadamard[n=8,")
        assert ",rank=2," in summary["covariance_ref"]

    # the sample variance of column 0 over M rows lies within 5 standard errors,
    # K00 sqrt(2/M), of the kernel's K00; on these grids the growing modes outrun the
    # decaying ones by far more than 1e10, so noise that drops a decaying mode fails
    @pytest.mark.parametrize("kind, t_end, n, k00", [("hadamard", 30.0, 31, 1.0),
                                                     ("fluctuation", 10.0, 21, 0.75)])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_colored_noise_variance_matches_kernel(self, tmp_path, kind, t_end, n, k00, seed):
        m = 2000
        path = write_config(tmp_path, {"master_seed": seed, "n_realizations": m,
                                       "noise": {"kind": kind, "t_end": t_end,
                                                 "n_points": n}})
        out = tmp_path / "out"
        assert main(["noise", "--config", str(path), "--out", str(out)]) == 0
        xi = np.loadtxt(out / "noise.csv", delimiter=",", skiprows=1)
        assert xi.shape == (m, n)
        assert abs(xi[:, 0].var() - k00) <= 5 * k00 * math.sqrt(2 / m)

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
        # realization 0 is column 0 of row group 0's (n, 64) draw
        draws = np.random.default_rng(derive_seed(7, 0)).standard_normal((301, 64))
        xi = math.sqrt(1.0 / grid.dt) * draws[:, 0]
        ref = integrate_white(pot, 0.5, grid, xi, 0.5, -0.25)
        table = np.loadtxt(out / "trajectory0.csv", delimiter=",", skiprows=1)
        assert table[:, 1].tobytes() == ref.x.tobytes()
        assert table[:, 2].tobytes() == ref.xdot.tobytes()

    def test_langevin_divergence_names_realization(self, tmp_path, capsys):
        # negligible noise: every row diverges at the same step, and the tie names
        # the lowest realization whatever the draw
        cfg = {"n_realizations": 3,
               "langevin": {"potential": "inverted", "omega": 3.0, "t_end": 40.0,
                            "n_points": 401, "x0": 1.0, "sigma2": 1e-30}}
        path = write_config(tmp_path, cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["langevin", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err == ("numerical failure: realization 0: trajectory diverged at step 104 "
                       "(t = 10.4): |x| exceeded 1e+12 (non-default keys: "
                       "langevin.potential='inverted', langevin.omega=3.0, "
                       "langevin.t_end=40.0, langevin.n_points=401, langevin.x0=1.0, "
                       "langevin.sigma2=1e-30)\n")

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

    # in (M, d, n) arrays; the streamed runners' bounds sit about half an array above
    # their traced peaks (measured: langevin 0.279, ssb 0.646, bec 0.435), so one
    # more whole array, or for bec one (M, n) component of it, fails them
    @pytest.mark.parametrize("sub, n, d, bound", [
        ("langevin", 4001, 1, 0.8), ("ssb", 2001, 1, 1.2),
        ("bec", 2001, 2, 0.9), ("inflation", 2001, 1, 1.8), ("noise", 4001, 1, 2.3)])
    def test_traced_peak_holds_each_array_once(self, tmp_path, sub, n, d, bound):
        assert self._traced_peak(self._args(tmp_path, sub, n)) <= bound * self.M * d * n * 8

    # the streamed runners hold block buffers, not an (M, d, n) array: at M 400 the
    # budget they check covers the traced peak, which is below one array (measured:
    # langevin 0.202, ssb 0.222, bec 0.154 of a (M, d, 3001) array).  Each bound sits
    # below the peak of a pipeline of 256-column blocks (0.390, 0.399, 0.286)
    @pytest.mark.parametrize("sub, d, bound", [
        ("langevin", 1, 0.25), ("ssb", 1, 0.25), ("bec", 2, 0.18)])
    def test_traced_peak_is_block_buffers(self, tmp_path, sub, d, bound):
        m, n = 400, 3001
        peak = self._traced_peak(self._args(tmp_path, sub, n, m))
        assert peak <= self._budget(sub, m, d, n)
        assert peak <= bound * m * d * n * 8

    def test_inflation_holds_no_path(self, tmp_path):
        # each mode steps its two factor columns and forms M quadratic forms, so
        # the peak is O(n + M) (measured: 0.032 of a (400, 3001) array, where the
        # block pipeline with (M, 1500) tails held 0.708)
        m, n = 400, 3001
        peak = self._traced_peak(self._args(tmp_path, "inflation", n, m))
        assert peak <= self._budget("inflation", m, 1, n)
        assert peak <= 0.05 * m * n * 8

    # colored noise holds its (M, n) rows, the summary's deviations and an (n, r)
    # factor, never an n x n kernel (here 80 times the (M, n) rows)
    @pytest.mark.parametrize("kind", ["hadamard", "fluctuation"])
    def test_traced_peak_of_colored_noise(self, tmp_path, kind):
        n = 4001
        path = write_config(tmp_path, {"master_seed": 1, "n_realizations": self.M,
                                       "noise": {"kind": kind, "n_points": n}})
        args = ["noise", "--config", str(path), "--out", str(tmp_path / "out")]
        assert self._traced_peak(args) <= 2.3 * self.M * n * 8

    # at a few grid points the draw's normals (M, r) outweigh the noise (M, n): the
    # factor normals are drawn at most 16384 values a call, so the peak stays inside
    # the budget the run checks (measured: 0.834 at n 2, 0.782 at n 3), where one
    # whole-array draw of all (M / 64, r, 64) blocks held 2 M r values (1.27, 1.08).
    # At M 1e4 (measured: 0.915) a tile is one time row of the time-major draw;
    # tiles that ran along a time axis of 2 points held a 128 KB ufunc buffer
    # beside them (1.122)
    @pytest.mark.parametrize("n, m", [(2, 100_000), (3, 100_000), (2, 10_000)],
                             ids=["2", "3", "2-m10000"])
    def test_traced_peak_of_colored_noise_is_in_budget(self, tmp_path, n, m):
        r = 7
        path = write_config(tmp_path, {"master_seed": 1, "n_realizations": m,
                                       "noise": {"kind": "fluctuation", "n_points": n}})
        args = ["noise", "--config", str(path), "--out", str(tmp_path / "out")]
        peak = self._traced_peak(args)
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert f"rank={r}," in summary["covariance_ref"]
        assert peak <= (2 * m * n + (m + 2 * n) * r) * 8

    def test_traced_peak_of_verify_is_the_projected_draw(self, tmp_path):
        # the Hubbard-Stratonovich check holds two (M,) buffers and one chunk of its
        # normals (measured: 2.15 values a row), where holding the whole (M, r = 2)
        # normals peaked at 4.07 and drawing the (M, 8) noise and its complex
        # phases at 12.1
        m = 100_000
        path = write_config(tmp_path, {"verify": {"hs_realizations": m}})
        args = ["verify", "--config", str(path), "--out", str(tmp_path / "out")]
        assert self._traced_peak(args) <= 2.25 * m * 8

    @pytest.mark.parametrize("sub", ["langevin", "ssb", "bec", "inflation"])
    def test_traced_peak_does_not_grow_with_n(self, tmp_path, sub):
        # doubling n adds result columns of n values (measured: 4.0 to 5.6, and 12.1
        # for inflation's factor, columns and float lists), never an ensemble array,
        # which at M 400 would add 400 values per grid point
        m, n = 400, 1501
        small = self._traced_peak(self._args(tmp_path, sub, n, m))
        large = self._traced_peak(self._args(tmp_path, sub, 2 * n, m))
        assert large - small <= 16 * n * 8

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

    @staticmethod
    def _budget(sub, m, d, n) -> int:
        """The bytes a run checks against physical memory.

        A streamed run holds 6 (M, d, w) float64 slabs of block buffers, w the
        pipeline's block width (langevin._block_width), plus langevin 6 result
        columns of n and ssb its mean and variance.  The white-noise run also
        keeps a 1 KB generator per row group of 64 realizations and a (256, 64)
        draw buffer.
        inflation holds no block buffers: 14 values per grid point (its (n, 2)
        mode factor, two columns and two lists of Python floats at 5 values a
        point) and 6 per realization (z, its forms and their temporaries, and
        the last mode's z and forms).
        """
        if sub == "inflation":
            return (14 * n + 6 * m) * 8
        slabs = 6 * m * d * langevin._block_width(n) * 8
        draw = -(-m // 64) * 1024 + 256 * 64 * 8
        return slabs + {"langevin": 6 * n * 8 + draw, "ssb": 2 * n * 8, "bec": 0}[sub]

    # d: the components of the run's (M, d, n) ensemble
    @pytest.mark.parametrize("sub, d", [
        ("langevin", 1), ("ssb", 1), ("bec", 2), ("inflation", 1)])
    def test_run_beyond_physical_memory_exits_one(self, tmp_path, physical_memory, capsys,
                                                  sub, d):
        m, n = 4, 2001
        need = self._budget(sub, m, d, n)
        args = self._args(tmp_path, sub, n, m)
        physical_memory(need - 1)
        assert main(args) == 1
        err = capsys.readouterr().err
        assert f"need {need} bytes" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out" / "manifest.json").exists()
        physical_memory(need)
        assert main(args) == 0

    # kernels: 6 n x n float64 arrays; noise: the (M, n) noise and the deviations of
    # its summary variance, and for colored noise its (M, r) normals and two copies of
    # its (n, r) factor, rank r 2 (hadamard) or 7 (fluctuation)
    @pytest.mark.parametrize("sub, section, values", [
        ("kernels", {"kind": "retarded"}, lambda m, n: 6 * n * n),
        ("kernels", {"kind": "memory"}, lambda m, n: 6 * n * n),
        ("noise", {"kind": "hadamard"}, lambda m, n: 2 * m * n + (m + 2 * n) * 2),
        ("noise", {"kind": "fluctuation"}, lambda m, n: 2 * m * n + (m + 2 * n) * 7),
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
        # 2 float64 values per Hubbard-Stratonovich realization and one chunk of
        # max(4096, 64 r) = 4096 normals at r = 2, checked before any draw
        m = 1000
        need = 2 * m * 8 + 2 * 2048 * 8
        path = write_config(tmp_path, {"verify": {"hs_realizations": m}})
        args = ["verify", "--config", str(path), "--out", str(tmp_path / "out")]
        physical_memory(need - 1)
        assert main(args) == 1
        err = capsys.readouterr().err
        assert f"need {need} bytes" in err
        assert err.endswith(f"(config keys: verify.hs_realizations={m})\n")
        assert "Traceback" not in err
        assert not (tmp_path / "out" / "verify.json").exists()
        physical_memory(need)
        assert main(args) == 0
