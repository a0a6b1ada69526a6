#!/usr/bin/env python3
"""rapkit benchmark: decode latency per method at short and long context, and
the research pipeline, in every run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload decode_short --seed 1 --seconds 10
    python3 perfbench/run.py --workload all --trace 1

``--workload`` is one of decode_short, decode_long, or all (each workload
then runs in its own process, one after the other). Both workloads interleave
decode rounds with pipeline seeds. The timed loop runs for ``--seconds`` and
makes at least the workload's minimum numbers of rounds and seeds
(``workloads.MIN_ROUNDS``, ``workloads.MIN_SEEDS``). The run prints the
environment, every end-to-end metric as name, value, unit, statistic and
sample count, and the operations attempted, succeeded and failed. With
``--trace 1`` it then repeats one round, one seed and the bound check with
every traced function wrapped, prints the tracing overhead and the per-layer
metrics, and writes the spans to ``perfbench/out``, next to a result record
that keeps every timing's samples. The last line of stdout is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``; its metrics are
the end-to-end ones, or the per-layer ones with ``--trace 1``. The exit code
is non-zero when a correctness check failed or the sources are missing.

BLAS is pinned to one thread in this process's environment only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("decode_short", "decode_long")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment(np, seed: int) -> dict:
    """Interpreter, numpy, BLAS and CPU facts recorded with every result."""
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "seed": seed,
    }


def print_metrics(title: str, metrics: dict):
    print(title)
    for name, m in metrics.items():
        print(f"  {name:<40} {m.value:>14.6g} {m.unit:<6} {m.stat:<4} n={m.samples}")


def run_all(args) -> int:
    """Each workload in its own process; non-zero if any of them failed."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd, check=False).returncode)
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "rapkit" / "__init__.py").is_file():
        print(f"error: rapkit sources not found under {src}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    t0 = time.perf_counter()
    sys.path.insert(0, str(src))
    import numpy as np
    import workloads      # imports rapkit; the import time is part of set-up
    import_s = time.perf_counter() - t0

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    env = environment(np, args.seed)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    try:
        bench = workloads.Workload(args.workload, args.seed, workdir)
        workdir.mkdir(exist_ok=True)
        untraced = bench.run(import_s, args.seconds)
        print_metrics("end-to-end (tracing off)", untraced.metrics)
        outcomes = [untraced]
        record = {"workload": args.workload, "env": env,
                  "end_to_end": {k: vars(v) for k, v in untraced.metrics.items()},
                  "samples": untraced.samples}
        if args.trace:
            traced, rec = workloads.trace_pass(bench, import_s)
            outcomes.append(traced)
            # a round plus a seed, traced against the untraced means
            traced_s = sum(traced.round_s) + sum(traced.seed_s)
            untraced_s = np.mean(untraced.round_s) + np.mean(untraced.seed_s)
            overhead = traced_s / untraced_s - 1.0
            print(f"tracing overhead {overhead * 100:+.1f}% "
                  f"(a round and a seed: traced {traced_s:.3f} s, "
                  f"untraced {untraced_s:.3f} s)")
            print_metrics("per-layer (tracing on)", traced.metrics)
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.csv"
            spans_path.write_text(rec.to_csv())
            record["per_layer"] = {k: vars(v) for k, v in traced.metrics.items()}
            record["tracing_overhead"] = overhead
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(o.attempted for o in outcomes)
    failures = [f for o in outcomes for f in o.failures]
    for failure in failures:
        print(f"FAILED {failure}")
    print(f"operations attempted {attempted} succeeded {attempted - len(failures)} "
          f"failed {len(failures)}")
    record.update(attempted=attempted, failed=len(failures), failures=failures)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1, sort_keys=True))
    shown = outcomes[-1].metrics
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v.value, "unit": v.unit} for k, v in shown.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
