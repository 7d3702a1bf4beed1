"""Verdict map: which master seeds fail which verdict of ssb and bec.

    PYTHONPATH=src python tests/verdict_map.py --subcommands ssb,bec \\
        --kernel {hadamard,fluctuation} --seeds N [--realizations M] [--points n]

Runs each subcommand through ``ctpsim.cli.main`` at master seeds 0 to N - 1,
on the config of perfbench's ``scenario_dense`` workload with the given
noise kernel.  The sizes default to that workload's, read from
``perfbench.workloads``.  It prints, per subcommand, the seeds that exit
non-zero and, per verdict of ``report.json``, the count of seeds that fail
it and those seeds; then ssb's mean recursion probability; last, one sha256
over every run's exit code, stderr and outputs (perfbench's digest, which
drops the manifest's wall time).  The output is deterministic, so two trees
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

from perfbench.workloads import WORKLOADS, digest_outputs  # noqa: E402

from ctpsim.cli import main as cli_main  # noqa: E402

WORKLOAD = WORKLOADS["scenario_dense"]
SUBCOMMANDS = WORKLOAD.subcommands


def run_map(subcommands, kernel: str, seeds: int, sizes: dict) -> list[str]:
    """The map's lines, one subcommand after the other, then the digest."""
    lines = [f"{','.join(subcommands)}: {kernel} kernel, seeds 0-{seeds - 1}, "
             f"M {sizes['n_realizations']}, n {sizes['n_points']}"]
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "config.json", Path(tmp) / "out"
        for sub in subcommands:
            exits, failing, recursion = {}, {}, []
            for seed in range(seeds):
                doc = WORKLOAD.make_config(seed, sizes)
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
                    continue
                report = json.loads((out / "report.json").read_text())
                for name, ok in report["verdicts"].items():
                    failing.setdefault(name, [])
                    if not ok:
                        failing[name].append(seed)
                if "recursion_probability" in report:
                    recursion.append(report["recursion_probability"])
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
    parser.add_argument("--subcommands", default=",".join(SUBCOMMANDS),
                        help="comma-separated, of " + ", ".join(SUBCOMMANDS))
    parser.add_argument("--kernel", choices=("hadamard", "fluctuation"), default="hadamard")
    parser.add_argument("--seeds", type=int, default=200, help="master seeds 0 to N - 1")
    parser.add_argument("--realizations", type=int, default=WORKLOAD.sizes["n_realizations"])
    parser.add_argument("--points", type=int, default=WORKLOAD.sizes["n_points"])
    args = parser.parse_args(argv)
    subcommands = args.subcommands.split(",")
    if not set(subcommands) <= set(SUBCOMMANDS) or args.seeds < 1:
        parser.error(f"--subcommands must name some of {', '.join(SUBCOMMANDS)} "
                     f"and --seeds must be >= 1")
    sizes = {"n_realizations": args.realizations, "n_points": args.points}
    print("\n".join(run_map(subcommands, args.kernel, args.seeds, sizes)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
