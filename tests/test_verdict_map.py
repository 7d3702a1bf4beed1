"""The verdict-map script at tiny sizes: the shape of its output, not the levels."""

import re

import verdict_map

TINY = ["--seeds", "3", "--realizations", "20", "--points", "301"]
VERDICT = re.compile(r"(ssb|bec) (\w+): (\d+) failing(?:: (\d+(?: \d+)*))?")


def run(capsys, *args):
    assert verdict_map.main([*args, *TINY]) == 0
    return capsys.readouterr().out.splitlines()


def test_output_shape(capsys):
    lines = run(capsys, "--subcommands", "ssb,bec", "--kernel", "fluctuation")
    assert lines[0] == "ssb,bec: fluctuation kernel, seeds 0-2, M 20, n 301"
    assert lines[1] == "ssb: 3 of 3 exit 0"
    assert re.fullmatch(r"ssb mean recursion_probability: \d\.\d{4}", lines[6])
    assert lines[7] == "bec: 3 of 3 exit 0"
    assert re.fullmatch(r"digest: [0-9a-f]{64}", lines[-1])
    verdicts = {}
    for line in lines[2:6] + lines[8:-1]:
        sub, name, count, seeds = VERDICT.fullmatch(line).groups()
        failing = [int(s) for s in seeds.split()] if seeds else []
        assert len(failing) == int(count)
        assert failing == sorted(set(failing)) and set(failing) <= {0, 1, 2}
        verdicts.setdefault(sub, []).append(name)
    assert verdicts == {
        "ssb": ["ensemble_mean_symmetric", "basins_balanced", "settled_at_minimum",
                "recursion_rare"],
        "bec": ["phase_uniform_1pct", "modulus_at_minimum", "odlro_band"]}


def test_digest_is_deterministic_and_sees_the_kernel(capsys):
    first = run(capsys, "--subcommands", "bec")
    assert run(capsys, "--subcommands", "bec") == first
    assert run(capsys, "--subcommands", "bec", "--kernel", "fluctuation")[-1] != first[-1]


def test_failed_runs_are_listed_by_exit_code(capsys):
    # dt = 3 on [0, 30]: every bec run diverges
    assert verdict_map.main(["--subcommands", "bec", "--seeds", "2", "--realizations", "4",
                             "--points", "11"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:3] == ["bec: 0 of 2 exit 0", "bec exit 2: 2 seeds: 0 1"]
    assert lines[3].startswith("digest: ")
