"""Paired perfbench runs of two trees, alternating, summarised per end-to-end metric.

    python tests/perf_pairs.py PARENT CHANGE --workload scenario_dense \\
        --pairs 10 --seconds 50 --seed 4101

PARENT and CHANGE are two checkouts of the repository.  Pair i runs
``perfbench/run.py --workload W --seed SEED+i --seconds S`` in each tree,
one tree after the other; the parent goes first on even pairs and the change
on odd ones, so a drift of the host's speed within a pair favours neither.
For every end-to-end metric of CHANGE's ``BENCHMARK.json`` it prints

    name: median parent [Q1, Q3] -> median change unit (+x.x %), better in n/N

with the parent's quartiles (inclusive method) and the number of pairs in
which the change's value is strictly better, then the failed and attempted
CLI calls of each side.  Exit status 1, after the summary of the runs that
gave one, if any run printed no result line (the JSON object perfbench ends
with); 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def parse_result(stdout: str) -> dict | None:
    """The result object of one perfbench run's stdout, or None if its last line is not one."""
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) and "metrics" in result else None


def summarize(metrics: list[dict], parent: list[dict], change: list[dict]) -> list[str]:
    """Summary lines of paired results; pair i is (parent[i], change[i]).

    metrics are BENCHMARK.json's end-to-end entries (name, unit, better).
    """
    lines = []
    for metric in metrics:
        name, unit, lower = metric["name"], metric["unit"], metric["better"] == "lower"
        pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                 for p, c in zip(parent, change)
                 if name in p["metrics"] and name in c["metrics"]]
        if not pairs:
            lines.append(f"{name}: no pair reports it")
            continue
        before, after = zip(*pairs)
        q1, _, q3 = (statistics.quantiles(before, n=4, method="inclusive")
                     if len(before) > 1 else before * 3)
        old, new = statistics.median(before), statistics.median(after)
        better = sum(c < p if lower else c > p for p, c in pairs)
        lines.append(f"{name}: {old:.4g} [{q1:.4g}, {q3:.4g}] -> {new:.4g} {unit} "
                     f"({100.0 * (new - old) / old:+.1f} %), better in {better}/{len(pairs)}")
    for side, results in (("parent", parent), ("change", change)):
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        lines.append(f"{side}: {failed} of {attempted} calls failed")
    return lines


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict | None:
    """The result of one perfbench run in tree, or None if it printed none."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True, check=False)
    result = parse_result(proc.stdout)
    if result is None:
        print(f"no result from {tree} seed {seed} (exit {proc.returncode}): "
              f"{proc.stderr.strip()[-500:]}", file=sys.stderr)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--seed", type=int, default=0, help="seed of the first pair")
    args = parser.parse_args(argv)
    metrics = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    trees = (args.parent, args.change)
    parent, change, missing = [], [], 0
    for i in range(args.pairs):
        got = [None, None]
        for side in (0, 1) if i % 2 == 0 else (1, 0):
            got[side] = run_once(trees[side], args.workload, args.seed + i, args.seconds)
        if None in got:
            missing += 1
            continue
        parent.append(got[0])
        change.append(got[1])
    print(f"{args.workload}: {len(parent)} pairs, seeds {args.seed}-{args.seed + args.pairs - 1}")
    print("\n".join(summarize(metrics, parent, change)))
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
