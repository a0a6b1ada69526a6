#!/usr/bin/env python3
"""Summarise paired perfbench runs of two trees into one ``BENCH_<label>.json``.

Run ``perfbench/run.py`` in a checkout of the parent tree and in the changed
tree, alternating, with the same ``--seed`` for both runs of a pair, as
``bench_pairs.py`` does with the order balanced. Each run leaves
``perfbench/out/result-<workload>-seed<seed>-trace0.json`` in its own
checkout. Then, from the root of a checkout:

    python3 bench_summary.py --label pr7 --parent ../parent --change .

For every workload and end-to-end metric the summary gives each side's
median and quartiles over the seeds both sides ran, and the number of pairs
in which the change did better. It also records the pair count, the seeds,
which side ran first in each pair (``first``, as ``bench_pairs.py`` records
it in the change's checkout; null where no order was recorded), each side's
environment, git revision and failed operations. Metric
directions and bounds come from ``BENCHMARK.json`` next to this script
(lower is better, and no bound, when a metric is not listed there).

Each metric also gets a verdict against its bound:

* ``spread``: the larger of the two sides' interquartile range over its median;
* ``worse_by``: the change of the median in the worse direction, relative to
  the parent's (negative when the change is better);
* ``status``: ``worse`` when ``worse_by`` exceeds the bound, ``unresolved``
  when ``spread`` does, unless every change run beats every parent run, and
  ``ok`` otherwise;
* ``gain_met``: the change is better in at least nine pairs of ten and its
  median beats the parent's by more than the parent's interquartile range.

Its ``paired`` entry holds what running second cannot tilt when the order
is balanced: the median of the per-pair change/parent ratios over the pairs
the change ran first (``change_first``) and over those the parent ran first
(``change_second``), and the ``mean`` of the two; null where a group has no
pair, as where no order was recorded.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SIDES = ("parent", "change")


def records(checkout: Path) -> dict[tuple[str, int], dict]:
    """Untraced result records under ``checkout``, by (workload, seed)."""
    found = {}
    for path in sorted((checkout / "perfbench" / "out").glob("result-*-trace0.json")):
        record = json.loads(path.read_text())
        found[(record["workload"], record["env"]["seed"])] = record
    return found


def first_sides(checkout: Path) -> dict[tuple[str, int], str]:
    """The side that ran first in each pair, by (workload, seed), from the
    order files ``bench_pairs.py`` leaves under ``checkout``."""
    found = {}
    for path in sorted((checkout / "perfbench" / "out").glob("order-*.json")):
        entry = json.loads(path.read_text())
        found[(entry["workload"], entry["seed"])] = entry["first"]
    return found


def revision(checkout: Path) -> dict:
    """The checked-out git commit, and whether the tree differs from it."""
    def git(*args):
        out = subprocess.run(["git", "-C", str(checkout), *args], capture_output=True,
                             text=True, check=False)
        return out.stdout.strip() if out.returncode == 0 else None

    status = git("status", "--porcelain", "--untracked-files=no")
    return {"commit": git("rev-parse", "HEAD"),
            "dirty": None if status is None else bool(status)}


def declared() -> dict[str, dict]:
    """Each end-to-end metric's entry in ``BENCHMARK.json``, by name."""
    return {m["name"]: m for m in
            json.loads((HERE / "BENCHMARK.json").read_text())["end_to_end"]}


def quartiles(values) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def verdict(values: dict[str, list], sign: float, bound: float | None) -> dict:
    """Quartiles, spread, worsening, status and gain of paired runs; ``sign``
    is 1 when lower is better and -1 when higher is."""
    sides = {side: quartiles(values[side]) for side in SIDES}
    parent, change = sides["parent"], sides["change"]
    spread = max((q["q3"] - q["q1"]) / q["median"] for q in sides.values())
    worse_by = sign * (change["median"] - parent["median"]) / parent["median"]
    better = sum(sign * c < sign * p for p, c in zip(values["parent"], values["change"]))
    status = None
    if bound is not None:
        separated = (max(sign * v for v in values["change"])
                     < min(sign * v for v in values["parent"]))
        status = ("worse" if worse_by > bound else
                  "unresolved" if spread > bound and not separated else "ok")
    gain_met = (10 * better >= 9 * len(values["parent"]) and
                sign * (parent["median"] - change["median"]) > parent["q3"] - parent["q1"])
    return {**sides, "change_better_pairs": better, "bound": bound, "spread": spread,
            "worse_by": worse_by, "status": status, "gain_met": gain_met}


def paired(values: dict[str, list], first: list) -> dict:
    """The medians of the change/parent ratios of the pairs each side ran
    first in, by ``first``, and their mean; None for a group without pairs."""
    ratios = [c / p for p, c in zip(values["parent"], values["change"])]
    medians = {}
    for key, side in (("change_first", "change"), ("change_second", "parent")):
        group = [r for r, f in zip(ratios, first) if f == side]
        medians[key] = float(np.median(group)) if group else None
    known = [m for m in medians.values() if m is not None]
    return {**medians, "mean": float(np.mean(known)) if len(known) == 2 else None}


def summarise(label: str, checkouts: dict[str, Path]) -> dict:
    found = {side: records(path) for side, path in checkouts.items()}
    first = first_sides(checkouts["change"])
    entries = declared()
    workloads = {}
    for workload in sorted({w for w, _ in found["parent"]} | {w for w, _ in found["change"]}):
        seeds = sorted(s for w, s in found["parent"].keys() & found["change"].keys()
                       if w == workload)
        if not seeds:
            continue
        runs = {side: [found[side][(workload, s)] for s in seeds] for side in SIDES}
        order = [first.get((workload, s)) for s in seeds]
        metrics = {}
        for name in sorted(runs["parent"][0]["end_to_end"]):
            values = {side: [r["end_to_end"][name]["value"] for r in runs[side]]
                      for side in SIDES}
            entry = entries.get(name, {})
            sign = -1.0 if entry.get("better", "lower") == "higher" else 1.0
            metrics[name] = {
                "unit": runs["parent"][0]["end_to_end"][name]["unit"],
                "better": "higher" if sign < 0 else "lower",
                **verdict(values, sign, entry.get("bound")),
                "paired": paired(values, order),
            }
        workloads[workload] = {
            "pairs": len(seeds),
            "seeds": seeds,
            "first": order,
            "failed": {side: sum(r["failed"] for r in runs[side]) for side in SIDES},
            "metrics": metrics,
        }
    sides = {}
    for side, path in checkouts.items():
        env = next(iter(found[side].values()), {}).get("env", {})
        sides[side] = {**revision(path), "env": {k: v for k, v in env.items() if k != "seed"}}
    return {"label": label, "sides": sides, "workloads": workloads}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--parent", type=Path, required=True,
                        help="checkout whose perfbench/out holds the parent's runs")
    parser.add_argument("--change", type=Path, required=True,
                        help="checkout whose perfbench/out holds the change's runs")
    parser.add_argument("--out", type=Path, help="default: BENCH_<label>.json here")
    args = parser.parse_args(argv)
    summary = summarise(args.label, {"parent": args.parent, "change": args.change})
    if not summary["workloads"]:
        print("error: no workload has a seed run on both sides", file=sys.stderr)
        return 1
    out = args.out or HERE / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    for workload, entry in summary["workloads"].items():
        print(f"{workload}: {entry['pairs']} pairs, failed {entry['failed']}")
        for name, m in entry["metrics"].items():
            mean = m["paired"]["mean"]
            print(f"  {name:<18} parent {m['parent']['median']:>10.4g} "
                  f"[{m['parent']['q1']:.4g}, {m['parent']['q3']:.4g}]  "
                  f"change {m['change']['median']:>10.4g}  "
                  f"better in {m['change_better_pairs']}/{entry['pairs']}  "
                  f"worse by {m['worse_by']:+.1%}  spread {m['spread']:.1%}  "
                  f"bound {m['bound']}  {m['status']}  gain met {m['gain_met']}  "
                  f"paired mean {'-' if mean is None else f'{mean:.4f}'}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
