"""bench_summary.py: paired perfbench records into one summary file."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "bench_summary.py"


def load_script():
    spec = importlib.util.spec_from_file_location("bench_summary", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_record(checkout: Path, seed: int, tpot: float, rss: float, failed=0):
    out = checkout / "perfbench" / "out"
    out.mkdir(parents=True, exist_ok=True)
    record = {"workload": "decode_short", "env": {"seed": seed, "python": "3.x"},
              "failed": failed,
              "end_to_end": {"tpot_ms.rap": {"value": tpot, "unit": "ms"},
                             "peak_rss_mb": {"value": rss, "unit": "MiB"}}}
    (out / f"result-decode_short-seed{seed}-trace0.json").write_text(json.dumps(record))


def test_two_records_make_one_pair(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    write_record(parent, 7, tpot=9.0, rss=300.0)
    write_record(change, 7, tpot=5.5, rss=301.0)
    write_record(change, 8, tpot=5.0, rss=300.0)   # no parent run: not a pair
    out = tmp_path / "BENCH_t.json"
    assert load_script().main(["--label", "t", "--parent", str(parent),
                               "--change", str(change), "--out", str(out)]) == 0
    summary = json.loads(out.read_text())
    entry = summary["workloads"]["decode_short"]
    assert entry["pairs"] == 1 and entry["seeds"] == [7]
    assert entry["failed"] == {"parent": 0, "change": 0}
    tpot = entry["metrics"]["tpot_ms.rap"]
    assert tpot["parent"] == {"median": 9.0, "q1": 9.0, "q3": 9.0}
    assert tpot["change"]["median"] == 5.5 and tpot["unit"] == "ms"
    assert tpot["change_better_pairs"] == 1
    assert entry["metrics"]["peak_rss_mb"]["change_better_pairs"] == 0
    assert summary["sides"]["change"]["env"] == {"python": "3.x"}
    assert set(summary["sides"]["parent"]) == {"commit", "dirty", "env"}


def test_no_common_seed_exits_one(tmp_path):
    write_record(tmp_path / "parent", 1, tpot=9.0, rss=300.0)
    write_record(tmp_path / "change", 2, tpot=5.0, rss=300.0)
    assert load_script().main(["--label", "t", "--parent", str(tmp_path / "parent"),
                               "--change", str(tmp_path / "change"),
                               "--out", str(tmp_path / "o.json")]) == 1
    assert not (tmp_path / "o.json").exists()


def summarise_tpot(tmp_path, parent_values, change_values) -> dict:
    """The tpot_ms.rap entry of a summary of paired runs, one per value."""
    for seed, (p, c) in enumerate(zip(parent_values, change_values)):
        write_record(tmp_path / "parent", seed, tpot=p, rss=300.0)
        write_record(tmp_path / "change", seed, tpot=c, rss=300.0)
    out = tmp_path / "o.json"
    assert load_script().main(["--label", "t", "--parent", str(tmp_path / "parent"),
                               "--change", str(tmp_path / "change"),
                               "--out", str(out)]) == 0
    return json.loads(out.read_text())["workloads"]["decode_short"]["metrics"]["tpot_ms.rap"]


TIGHT = [10.0 + 0.01 * i for i in range(10)]     # spread 0.5%
WIDE = [5.0 + 1.0 * i for i in range(10)]        # spread 45%, above the 25% bound
STATUS_CASES = {
    # name: (parent runs, change runs, status, gain met)
    "ok, gain met": (TIGHT, [v - 1.0 for v in TIGHT], "ok", True),
    "ok, within the bound": (TIGHT, [v * 1.2 for v in TIGHT], "ok", False),
    "worse": (TIGHT, [v * 1.3 for v in TIGHT], "worse", False),
    "unresolved": (WIDE, WIDE[1:] + WIDE[:1], "unresolved", False),
    "wide but separated": ([v + 20.0 for v in WIDE], WIDE, "ok", True),
    "gain in 8 of 10 pairs": (TIGHT, [v - 1.0 for v in TIGHT[:8]] + TIGHT[8:],
                              "ok", False),
}


@pytest.mark.parametrize("case", STATUS_CASES)
def test_each_metric_states_its_verdict_against_its_bound(case, tmp_path):
    parent, change, status, gain_met = STATUS_CASES[case]
    m = summarise_tpot(tmp_path, parent, change)
    assert m["bound"] == 0.25     # tpot_ms.rap's bound in BENCHMARK.json
    assert m["status"] == status and m["gain_met"] is gain_met
    medians = m["parent"]["median"], m["change"]["median"]
    assert m["worse_by"] == pytest.approx((medians[1] - medians[0]) / medians[0])
    assert m["spread"] == pytest.approx(max(
        (q["q3"] - q["q1"]) / q["median"] for q in (m["parent"], m["change"])))


PAIRED_CASES = {
    # name: (the side that ran first in each pair, the expected paired entry)
    "balanced": (["change", "parent"] * 3,
                 {"change_first": 0.9, "change_second": 1.1, "mean": 1.0}),
    "change always first": (["change"] * 4,
                            {"change_first": 0.9, "change_second": None, "mean": None}),
    "no recorded order": ([None] * 4,
                          {"change_first": None, "change_second": None, "mean": None}),
}


@pytest.mark.parametrize("case", PAIRED_CASES)
def test_the_paired_ratio_is_taken_apart_by_which_side_ran_first(case, tmp_path):
    """Change-first pairs at 0.9 of the parent and change-second pairs at 1.1
    average to 1.0: the position bias cancels in the mean."""
    firsts, expected = PAIRED_CASES[case]
    out = tmp_path / "change" / "perfbench" / "out"
    for seed, first in enumerate(firsts):
        write_record(tmp_path / "parent", seed, tpot=10.0, rss=300.0)
        write_record(tmp_path / "change", seed, tpot=9.0 if first == "change" else 11.0,
                     rss=300.0)
        if first is not None:
            (out / f"order-decode_short-seed{seed}.json").write_text(json.dumps(
                {"workload": "decode_short", "seed": seed, "first": first}))
    summary = tmp_path / "o.json"
    assert load_script().main(["--label", "t", "--parent", str(tmp_path / "parent"),
                               "--change", str(tmp_path / "change"),
                               "--out", str(summary)]) == 0
    m = json.loads(summary.read_text())["workloads"]["decode_short"]["metrics"]["tpot_ms.rap"]
    assert m["paired"] == {key: pytest.approx(value) if value else None
                           for key, value in expected.items()}


PAIRS_SCRIPT = SCRIPT.parent / "bench_pairs.py"

# a stand-in for perfbench/run.py: notes its checkout in a shared log, then
# writes a result record whose tpot is the checkout's
STUB_RUN = """
import argparse, json, pathlib
parser = argparse.ArgumentParser()
for flag in ("--workload", "--seed", "--seconds"):
    parser.add_argument(flag)
args = parser.parse_args()
root = pathlib.Path.cwd()
with open(root.parent / "runs.log", "a") as log:
    log.write(f"{root.name} {args.seed} {args.seconds}\\n")
record = {"workload": args.workload, "env": {"seed": int(args.seed)}, "failed": 0,
          "end_to_end": {"tpot_ms.rap": {"value": 9.0 if root.name == "parent" else 5.0,
                                         "unit": "ms"}}}
out = root / "perfbench" / "out"
(out / f"result-{args.workload}-seed{args.seed}-trace0.json").write_text(json.dumps(record))
"""


def test_pairs_alternate_which_side_runs_first_and_the_summary_records_it(tmp_path):
    spec = importlib.util.spec_from_file_location("bench_pairs", PAIRS_SCRIPT)
    pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pairs)
    for side in ("parent", "change"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text(STUB_RUN)
    assert pairs.main(["--parent", str(tmp_path / "parent"), "--change",
                       str(tmp_path / "change"), "--workload", "decode_short",
                       "--first-seed", "40", "--pairs", "4"]) == 0
    assert (tmp_path / "runs.log").read_text().split("\n") == [
        "parent 40 20", "change 40 20", "change 41 20", "parent 41 20",
        "parent 42 20", "change 42 20", "change 43 20", "parent 43 20", ""]
    out = tmp_path / "o.json"
    assert load_script().main(["--label", "t", "--parent", str(tmp_path / "parent"),
                               "--change", str(tmp_path / "change"),
                               "--out", str(out)]) == 0
    entry = json.loads(out.read_text())["workloads"]["decode_short"]
    assert entry["seeds"] == [40, 41, 42, 43]
    assert entry["first"] == ["parent", "change", "parent", "change"]
    assert entry["metrics"]["tpot_ms.rap"]["change_better_pairs"] == 4


def test_pairs_run_without_bench_pairs_have_no_recorded_order(tmp_path):
    for side in ("parent", "change"):
        write_record(tmp_path / side, 3, tpot=9.0, rss=300.0)
    out = tmp_path / "o.json"
    assert load_script().main(["--label", "t", "--parent", str(tmp_path / "parent"),
                               "--change", str(tmp_path / "change"),
                               "--out", str(out)]) == 0
    assert json.loads(out.read_text())["workloads"]["decode_short"]["first"] == [None]
