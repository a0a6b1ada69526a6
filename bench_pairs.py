#!/usr/bin/env python3
"""Run order-balanced perfbench pairs of two trees, for ``bench_summary.py``.

A pair is one ``perfbench/run.py`` run in each checkout, one after the
other, with one seed. The parent runs first in even pairs (0, 2, ...) and the
change first in odd ones, so that each tree runs second equally often, whatever
running second gains or loses. Each pair's order goes into
``perfbench/out/order-<workload>-seed<seed>.json`` in the change's checkout,
next to its result records, where ``bench_summary.py`` reads it. From the
root of a checkout:

    python3 bench_pairs.py --parent ../parent --change . --workload decode_long \\
        --first-seed 101 --pairs 10
    python3 bench_summary.py --label split --parent ../parent --change .

A run lasts ``run_seconds`` from ``BENCHMARK.json`` next to this script. Its
output goes to its checkout's ``perfbench/out/run-<workload>-seed<seed>.log``.
The exit code is non-zero when any run's was.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SIDES = ("parent", "change")


def order(pair: int) -> tuple[str, str]:
    """The sides of pair ``pair`` in the order they run."""
    return SIDES if pair % 2 == 0 else SIDES[::-1]


def run(checkout: Path, workload: str, seed: int, seconds: float) -> int:
    """One untraced perfbench run in ``checkout``; its exit code."""
    out = checkout / "perfbench" / "out"
    out.mkdir(parents=True, exist_ok=True)
    with open(out / f"run-{workload}-seed{seed}.log", "w") as log:
        return subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                               "--seed", str(seed), "--seconds", f"{seconds:g}"],
                              cwd=checkout, stdout=log, stderr=subprocess.STDOUT,
                              check=False).returncode


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="the parent's checkout")
    parser.add_argument("--change", type=Path, required=True, help="the change's checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--first-seed", type=int, required=True,
                        help="pair i runs with seed first-seed + i")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    seconds = json.loads((HERE / "BENCHMARK.json").read_text())["run_seconds"]
    status = 0
    for pair in range(args.pairs):
        seed = args.first_seed + pair
        sides = order(pair)
        for side in sides:
            code = run(checkouts[side], args.workload, seed, seconds)
            print(f"{args.workload} seed {seed}: {side} exit {code}", flush=True)
            status = max(status, code)
        (checkouts["change"] / "perfbench" / "out" / f"order-{args.workload}-seed{seed}.json"
         ).write_text(json.dumps({"workload": args.workload, "seed": seed, "first": sides[0]}))
    return status


if __name__ == "__main__":
    sys.exit(main())
