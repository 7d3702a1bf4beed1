"""The verdict-map script at tiny sizes: the shape of its output, not the levels."""

import re

import verdict_map

TINY = ["--seeds", "3", "--size", "n_realizations=20", "--size", "n_points=301"]
TINY_ENSEMBLES = ["--seeds", "3", "--size", "n_realizations=8", "--size", "langevin_points=2001",
                  "--size", "inflation_points=301", "--size", "n_modes=8",
                  "--size", "hs_realizations=100"]
VERDICT = re.compile(r"(\w+) (\w+): (\d+) failing(?:: (\d+(?: \d+)*))?")


def run(capsys, *args, sizes=TINY):
    assert verdict_map.main([*args, *sizes]) == 0
    return capsys.readouterr().out.splitlines()


def failing_by_subcommand(lines):
    """{subcommand: [verdict names]} of the verdict lines, checking each line's seeds."""
    verdicts = {}
    for line in lines:
        sub, name, count, seeds = VERDICT.fullmatch(line).groups()
        failing = [int(s) for s in seeds.split()] if seeds else []
        assert len(failing) == int(count)
        assert failing == sorted(set(failing)) and set(failing) <= {0, 1, 2}
        verdicts.setdefault(sub, []).append(name)
    return verdicts


def test_output_shape(capsys):
    lines = run(capsys, "--subcommands", "ssb,bec", "--kernel", "fluctuation")
    assert lines[0] == "ssb,bec: fluctuation kernel, seeds 0-2, M 20, n 301"
    assert lines[1] == "ssb: 3 of 3 exit 0"
    assert re.fullmatch(r"ssb mean recursion_probability: \d\.\d{4}", lines[6])
    assert lines[7] == "bec: 3 of 3 exit 0"
    assert re.fullmatch(r"digest: [0-9a-f]{64}", lines[-1])
    assert failing_by_subcommand(lines[2:6] + lines[8:-1]) == {
        "ssb": ["ensemble_mean_symmetric", "basins_balanced", "settled_at_minimum",
                "recursion_rare"],
        "bec": ["phase_uniform_1pct", "modulus_at_minimum", "odlro_band"]}


def test_ensembles_output_shape(capsys):
    # perfbench's gate for langevin and inflation, verify's checks by name
    lines = run(capsys, "--subcommands", "langevin,inflation,verify", sizes=TINY_ENSEMBLES)
    assert lines[0] == ("langevin,inflation,verify: seeds 0-2, n_realizations 8, "
                        "langevin_points 2001, inflation_points 301, n_modes 8, "
                        "hs_realizations 100")
    assert [lines[1], lines[3], lines[5]] == [
        "langevin: 3 of 3 exit 0", "inflation: 3 of 3 exit 0", "verify: 3 of 3 exit 0"]
    assert re.fullmatch(r"digest: [0-9a-f]{64}", lines[-1])
    assert failing_by_subcommand([lines[2], lines[4], *lines[6:-1]]) == {
        "langevin": ["tail_mean_x_sq"], "inflation": ["slope"],
        "verify": ["bogolubov_normalization", "keldysh_zero_block",
                   "keldysh_advanced_transpose", "keldysh_kernel_cross_check",
                   "hs_moment_identity"]}


def test_digest_is_deterministic_and_sees_the_kernel(capsys):
    first = run(capsys, "--subcommands", "bec")
    assert run(capsys, "--subcommands", "bec") == first
    assert run(capsys, "--subcommands", "bec", "--kernel", "fluctuation")[-1] != first[-1]


def test_failed_runs_are_listed_by_exit_code(capsys):
    # dt = 3 on [0, 30]: every bec run diverges
    assert verdict_map.main(["--subcommands", "bec", "--seeds", "2", "--size",
                             "n_realizations=4", "--size", "n_points=11"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:3] == ["bec: 0 of 2 exit 0", "bec exit 2: 2 seeds: 0 1"]
    assert lines[3].startswith("digest: ")
