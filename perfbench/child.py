"""Fresh-interpreter set-up of a benchmark run, started by run.py.

    python3 perfbench/child.py <workload> <seed> <config_dir> <sizes-json>

imports ctpsim.cli and writes the workload's config; run.py times the process
from spawn to exit (setup_s).
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import ctpsim.cli  # noqa: E402,F401  the import every CLI invocation pays for

import json  # noqa: E402

import workloads  # noqa: E402


def main(argv: list[str]) -> int:
    name, seed, config_dir, sizes = argv[:4]
    workloads.write_config(workloads.WORKLOADS[name], int(seed), json.loads(sizes),
                           Path(config_dir))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
