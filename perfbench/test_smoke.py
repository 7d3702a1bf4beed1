"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import dataclasses
import json
from pathlib import Path

import pytest

import run
import tracing
from workloads import WORKLOADS, Ledger, run_pass, write_config

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

TINY = {
    "scenario_dense": {"n_realizations": 40, "n_points": 301},
    "ensembles": {"n_realizations": 20, "langevin_points": 2001, "inflation_points": 601,
                  "n_modes": 8, "hs_realizations": 1000},
}


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(WORKLOADS) == sorted(TINY)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_every_metric_is_printed_with_its_unit(workload, trace, capsys):
    rc = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                   "--trace", str(trace)], sizes=TINY[workload])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    printed = {line.split()[1]: line.split()[3] for line in lines if line.startswith("metric ")}
    for m in declared:
        assert printed[m["name"]] == m["unit"]
    assert printed["failed_frac"] == "ratio"


def test_traced_functions_exist_and_are_restored():
    import ctpsim.cli
    import ctpsim.scenarios
    original = ctpsim.scenarios.sample_colored
    with tracing.instrument(tracing.Recorder()):
        assert ctpsim.scenarios.sample_colored.__wrapped__ is original
        assert ctpsim.cli.ensemble_run.__wrapped__ is ctpsim.langevin.ensemble_run.__wrapped__
    assert ctpsim.scenarios.sample_colored is original


def test_forced_failures_count_in_failed_frac(tmp_path):
    import ctpsim.cli
    wl = dataclasses.replace(WORKLOADS["ensembles"], subcommands=("langevin",))
    sizes = TINY[wl.name]
    config = write_config(wl, 3, sizes, tmp_path / "config")
    ledger = Ledger()
    ledger.add(run_pass(ctpsim.cli.main, wl, config, tmp_path / "out", sizes))
    assert (ledger.attempted, ledger.failed) == (1, 0)

    def tampered_main(argv):  # same exit code, one output byte more
        rc = ctpsim.cli.main(argv)
        with open(Path(argv[argv.index("--out") + 1]) / "ensemble.csv", "a") as f:
            f.write("\n")
        return rc

    ledger.add(run_pass(tampered_main, wl, config, tmp_path / "out", sizes))
    assert (ledger.attempted, ledger.failed) == (2, 1)
    assert "differ from the first pass" in ledger.problems[-1]

    ledger.add(run_pass(lambda argv: ctpsim.cli.main(argv + ["--realizations", "0"]),
                        wl, config, tmp_path / "out", sizes))
    assert (ledger.attempted, ledger.failed) == (3, 2)
    assert any("exit 1" in p for p in ledger.problems[1:])

    ledger.add(run_pass(lambda argv: 1 / 0, wl, config, tmp_path / "out", sizes))
    assert (ledger.attempted, ledger.failed) == (4, 3)
    assert any("ZeroDivisionError" in p for p in ledger.problems)


def test_no_result_without_the_library(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "ensembles", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
