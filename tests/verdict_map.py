"""Verdict map: which master seeds fail which verdict of each subcommand.

    PYTHONPATH=src python tests/verdict_map.py --subcommands ssb,bec \\
        --kernel {hadamard,fluctuation} --seeds N [--size KEY=VALUE ...]
    PYTHONPATH=src python tests/verdict_map.py \\
        --subcommands langevin,inflation,verify --seeds N [--size KEY=VALUE ...]

Runs each subcommand through ``ctpsim.cli.main`` at master seeds 0 to N - 1,
on the config of the perfbench workload that runs it: ``scenario_dense``
for ssb and bec, with the given noise kernel, and ``ensembles`` for
langevin, inflation and verify.  The sizes default to that workload's, read
from ``perfbench.workloads``; ``--size`` sets one of them.  It prints, per
subcommand, the seeds that exit non-zero and, per verdict, the count of
seeds that fail it and those seeds; then ssb's mean recursion probability;
last, one sha256 over every run's exit code, stderr and outputs
(perfbench's digest, which drops the manifest's wall time).  The verdicts
of ssb and bec are those of ``report.json``; those of langevin, inflation
and verify are perfbench's gate: the tail of ``<x^2>`` within
``langevin_tail_tolerance(M)`` of 1, the slope within 0.1 of -3, and each
check of ``verify.json``.  The output is deterministic, so two trees
compare by their digest lines, and a change to the random streams shows
which seeds move.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.workloads import (INFLATION_SLOPE, INFLATION_SLOPE_TOL, WORKLOADS,  # noqa: E402
                                 digest_outputs, langevin_tail_tolerance)

from ctpsim.cli import main as cli_main  # noqa: E402

#: the workload that runs each subcommand, by name
SUBCOMMANDS = {sub: wl.name for wl in WORKLOADS.values() for sub in wl.subcommands}
KERNEL_SUBCOMMANDS = WORKLOADS["scenario_dense"].subcommands


def verdicts(sub: str, out: Path, sizes: dict) -> dict[str, bool]:
    """Each verdict of one run that exited 0, by name: True where it holds."""
    if sub == "langevin":
        tail = json.loads((out / "summary.json").read_text())["tail_mean_x_sq"]
        return {"tail_mean_x_sq": abs(tail - 1.0) <= langevin_tail_tolerance(
            sizes["n_realizations"])}
    if sub == "inflation":
        slope = json.loads((out / "report.json").read_text())["slope"]
        return {"slope": abs(slope - INFLATION_SLOPE) <= INFLATION_SLOPE_TOL}
    if sub == "verify":
        checks = json.loads((out / "verify.json").read_text())["checks"]
        return {check["name"]: check["passed"] for check in checks}
    return json.loads((out / "report.json").read_text())["verdicts"]


def run_map(workload, subcommands, kernel: str, seeds: int, sizes: dict) -> list[str]:
    """The map's lines, one subcommand after the other, then the digest."""
    if workload.subcommands == KERNEL_SUBCOMMANDS:
        header = (f"{kernel} kernel, seeds 0-{seeds - 1}, "
                  f"M {sizes['n_realizations']}, n {sizes['n_points']}")
    else:
        header = f"seeds 0-{seeds - 1}, " + ", ".join(f"{k} {v}" for k, v in sizes.items())
    lines = [f"{','.join(subcommands)}: {header}"]
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "config.json", Path(tmp) / "out"
        for sub in subcommands:
            exits, failing, recursion = {}, {}, []
            for seed in range(seeds):
                doc = workload.make_config(seed, sizes)
                if sub in KERNEL_SUBCOMMANDS:
                    doc[sub]["noise_kernel"] = kernel
                config.write_text(json.dumps(doc))
                shutil.rmtree(out, ignore_errors=True)
                stderr = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(stderr):
                    rc = cli_main([sub, "--config", str(config), "--out", str(out)])
                outputs, _ = digest_outputs(out)
                digest.update(f"{sub} {seed} {rc}\0{stderr.getvalue()}\0{outputs}\0".encode())
                if rc != 0:
                    exits.setdefault(rc, []).append(seed)
                    # verify exits 3 when a check fails, and still writes verify.json
                    if not (sub == "verify" and rc == 3):
                        continue
                for name, ok in verdicts(sub, out, sizes).items():
                    failing.setdefault(name, [])
                    if not ok:
                        failing[name].append(seed)
                if sub == "ssb":
                    recursion.append(json.loads((out / "report.json").read_text())
                                     ["recursion_probability"])
            lines.append(f"{sub}: {seeds - sum(map(len, exits.values()))} of {seeds} exit 0")
            lines.extend(f"{sub} exit {rc}: {len(bad)} seeds: {' '.join(map(str, bad))}"
                         for rc, bad in sorted(exits.items()))
            lines.extend(f"{sub} {name}: {len(bad)} failing" + (": " if bad else "")
                         + " ".join(map(str, bad)) for name, bad in failing.items())
            if recursion:
                lines.append(f"{sub} mean recursion_probability: "
                             f"{sum(recursion) / len(recursion):.4f}")
    lines.append(f"digest: {digest.hexdigest()}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--subcommands", default=",".join(KERNEL_SUBCOMMANDS),
                        help="comma-separated, of one workload: " + "; ".join(
                            ", ".join(wl.subcommands) for wl in WORKLOADS.values()))
    parser.add_argument("--kernel", choices=("hadamard", "fluctuation"), default="hadamard",
                        help="noise kernel of ssb and bec")
    parser.add_argument("--seeds", type=int, default=200, help="master seeds 0 to N - 1")
    parser.add_argument("--size", action="append", default=[], metavar="KEY=VALUE",
                        help="an integer size of the workload, e.g. n_realizations=20")
    args = parser.parse_args(argv)
    subcommands = args.subcommands.split(",")
    workloads = {SUBCOMMANDS.get(sub) for sub in subcommands}
    if len(workloads) != 1 or None in workloads or args.seeds < 1:
        parser.error("--subcommands must name some subcommands of one workload "
                     "and --seeds must be >= 1")
    workload = WORKLOADS[workloads.pop()]
    sizes = dict(workload.sizes)
    for item in args.size:
        key, _, value = item.partition("=")
        if key not in sizes or not value.isdigit():
            parser.error(f"--size {item}: expected KEY=VALUE with KEY one of "
                         f"{', '.join(sizes)} and VALUE an integer")
        sizes[key] = int(value)
    print("\n".join(run_map(workload, subcommands, args.kernel, args.seeds, sizes)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
