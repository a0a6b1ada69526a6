#!/usr/bin/env python3
"""Compare the CLI artifacts of two trees file by file.

For each tree, in a temporary directory and on that tree's ``src``, the
script runs these pipelines at seeds 7 and 42, each into its own ``--out``:

* ``rap``: score prune distill report sweep verify;
* ``baseline``, ``svd`` and ``palu``: prune distill, and distill alone (the
  student built by distill itself);
* ``magnitude`` (rap with magnitude scores): score prune report verify;
* ``half_split-rap``: score prune distill report sweep verify, and
  ``half_split-svd``: prune distill, both with a ``--config`` whose
  ``model.spec`` is the default desk spec with half-split pairs, seeded by the
  run's seed. These cover the rotation's real-arithmetic branch; the default
  spec pairs columns adjacently.

Last, a child process on that tree's ``src``, with BLAS pinned to one
thread, writes ``medium_logits.json``: the SHA-256 of each method's logits
on perfbench's medium model at rho 0.5 with the uniform plan, over a
768-token prefill and over 16 decode steps after it, one digest each. The
same model with half-split pairs gives a second digest of each, under
``half_split-<method>``, so that the check also covers a half-split rotation
of column halves joined in the caller.

The configs are written as ``half_split-seed<seed>.json`` next to the
pipelines' directories, and compared with them. Each command's exit code is
written to ``exit_codes.json`` in its pipeline's directory and compared with
the artifacts; a command that exits non-zero is also named on stderr. Every
file is listed as identical, different or missing on one side, and the
script exits 1 unless every file is identical. From the root of a checkout:

    python3 artifact_diff.py --parent ../parent --change .
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SEEDS = (7, 42)
# pipeline name -> the CLI commands it runs and the flags each command gets
PIPELINES = {
    "rap": [(cmd, ()) for cmd in ("score", "prune", "distill", "report", "sweep",
                                  "verify")],
    **{method: [(cmd, ("--method", method)) for cmd in ("prune", "distill")]
       for method in ("baseline", "svd", "palu")},
    **{f"{method}-distill": [("distill", ("--method", method))]
       for method in ("baseline", "svd", "palu")},
    "magnitude": [(cmd, ("--scoring", "magnitude"))
                  for cmd in ("score", "prune", "report", "verify")],
    "half_split-rap": [(cmd, ("--config", "{config}")) for cmd in ("score", "prune", "distill",
                                                                  "report", "sweep", "verify")],
    "half_split-svd": [(cmd, ("--config", "{config}", "--method", "svd"))
                       for cmd in ("prune", "distill")],
}


def half_split_config(seed: int) -> str:
    """A config whose model is the default desk spec with half-split pairs."""
    spec = {"layers": 2, "query_heads": 4, "kv_heads": 2, "head_dim": 8, "vocab": 64,
            "theta_base": 10000.0, "pairing": "half_split", "seed": seed}
    return json.dumps({"model": {"spec": spec}}, indent=1) + "\n"


# the file of medium logit digests, and the child that writes it to argv[1]
DIGEST = "medium_logits.json"
DIGEST_CHILD = """
import hashlib, json, sys
import numpy as np
from rapkit import budget, factorize, rope, scoring, toymodel
digests = {}
for pairing, prefix in (("adjacent", ""), ("half_split", "half_split-")):
    scheme = rope.PairingScheme(pairing, 64)
    spec = toymodel.ModelSpec(layers=4, query_heads=16, kv_heads=4, head_dim=64, vocab=512,
                              rope=rope.RopeConfig(10000.0, scheme), seed=42)
    base = toymodel.AttentionModel.build(spec)
    scores = scoring.magnitude_scores(base, scheme)
    plan = budget.uniform_plan(spec.head_dim // 2, spec.layers, 0.5)
    calibration = toymodel.markov_calibration(spec.vocab, count=1, window=784, seed=42)
    tokens = list(calibration.sequences[0])
    for method in toymodel.METHODS:
        model = factorize.build_compressed(base, method, 0.5, scores=scores, plan=plan)
        result = toymodel.forward_prefill(model, tokens[:768])
        steps = [toymodel.forward_decode(model, result.cache, tok)[0] for tok in tokens[768:]]
        digests[prefix + method] = {
            name: hashlib.sha256(np.ascontiguousarray(logits).tobytes()).hexdigest()
            for name, logits in (("prefill", result.logits), ("decode", np.vstack(steps)))}
with open(sys.argv[1], "w") as fh:
    json.dump(digests, fh, indent=1)
    fh.write("\\n")
"""
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS")


def run_pipelines(tree: Path, workdir: Path) -> None:
    """Every pipeline at every seed on ``tree``'s sources, into ``workdir``,
    then the medium logit digests."""
    env = {**os.environ, "PYTHONPATH": str(tree.resolve() / "src")}
    for seed in SEEDS:
        (workdir / f"half_split-seed{seed}.json").write_text(half_split_config(seed))
    for name, commands in PIPELINES.items():
        for seed in SEEDS:
            out = f"{name}-seed{seed}"
            codes = []
            for cmd, flags in commands:
                argv = [sys.executable, "-m", "rapkit", cmd, "--seed", str(seed),
                        "--out", out,
                        *(f.format(config=f"half_split-seed{seed}.json") for f in flags)]
                done = subprocess.run(argv, cwd=workdir, env=env, check=False,
                                      capture_output=True, text=True)
                codes.append([cmd, done.returncode])
                if done.returncode:
                    print(f"{tree}: {out}: {cmd} exited {done.returncode}", file=sys.stderr)
            (workdir / out).mkdir(exist_ok=True)
            (workdir / out / "exit_codes.json").write_text(json.dumps(codes) + "\n")
    done = subprocess.run([sys.executable, "-c", DIGEST_CHILD, DIGEST], cwd=workdir, check=False,
                          env={**env, **dict.fromkeys(BLAS_THREADS, "1")})
    if done.returncode:
        print(f"{tree}: {DIGEST} exited {done.returncode}", file=sys.stderr)


def compare(parent: Path, change: Path) -> dict[str, str]:
    """Each file under either directory, by relative path: ``identical``,
    ``different``, or ``missing in parent`` / ``missing in change``."""
    files = {side: {p.relative_to(root).as_posix(): p for p in root.rglob("*")
                    if p.is_file()}
             for side, root in (("parent", parent), ("change", change))}
    status = {}
    for name in sorted(files["parent"].keys() | files["change"].keys()):
        missing = [side for side in files if name not in files[side]]
        if missing:
            status[name] = f"missing in {missing[0]}"
        elif files["parent"][name].read_bytes() == files["change"][name].read_bytes():
            status[name] = "identical"
        else:
            status[name] = "different"
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="the parent's tree")
    parser.add_argument("--change", type=Path, required=True, help="the changed tree")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        dirs = {side: Path(tmp) / side for side in ("parent", "change")}
        for side, tree in (("parent", args.parent), ("change", args.change)):
            dirs[side].mkdir()
            run_pipelines(tree, dirs[side])
        status = compare(dirs["parent"], dirs["change"])
    for name, state in status.items():
        print(f"{state:<17} {name}")
    same = sum(state == "identical" for state in status.values())
    print(f"{same} of {len(status)} files identical")
    return 0 if status and same == len(status) else 1


if __name__ == "__main__":
    sys.exit(main())
