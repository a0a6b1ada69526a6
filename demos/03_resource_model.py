#!/usr/bin/env python3
"""Resource accounting: closed forms and instrumented counters.

Reproduces the published per-head per-token KV-projection FLOPs table at the
large-model head geometry (32 heads of dimension 128), then measures the toy
model with the tape's matmul counter and shows the measured numbers land on
the closed forms whenever the ratio is exactly representable in whole pairs.
"""

from rapkit.analyze import analytic_kv_projection, reports_to_csv, sweep
from rapkit.scoring import estimate_fisher, pair_scores
from rapkit.toymodel import AttentionModel, default_spec, markov_calibration

print("analytic KV-projection FLOPs per head per token (H=32, D=128):")
print(f"  {'rho':>5s} {'svd (M)':>9s} {'palu (M)':>9s} {'rap (M)':>9s}")
base = analytic_kv_projection("baseline", 1.0, 32, 128)["flops"]
print(f"  {'0.0':>5s} {'':>9s} {'':>9s} {base / 1e6:9.3f}  (baseline)")
for rho in (0.1, 0.2, 0.3, 0.4, 0.5):
    row = [analytic_kv_projection(m, 1 - rho, 32, 128)["flops"] / 1e6
           for m in ("svd", "palu", "rap")]
    print(f"  {rho:5.1f} {row[0]:9.3f} {row[1]:9.3f} {row[2]:9.3f}")

print("\nworst-case break-even (single-head attention): parameters shrink")
print("only once the compression clears the reconstruction overhead:")
for method, rho_star in (("svd", 0.5), ("palu", 1 / 3)):
    r = 1 - rho_star
    factor = analytic_kv_projection(method, r, 1, 128)["params"] / (2 * 128 ** 2)
    print(f"  {method:4s}: params factor at rho={rho_star:.3f} -> {factor:.12f}")

spec = default_spec(seed=42)
model = AttentionModel.build(spec)
calib = markov_calibration(spec.vocab, count=8, window=32, seed=42)
table = pair_scores(estimate_fisher(model, calib), spec.rope.scheme)
tokens = list(calib.sequences[0])

print("\nmeasured toy-model sweep (tape matmul counter, uniform budgets):")
reports = sweep(model, ["baseline", "svd", "palu", "rap"], [0.25, 0.5],
                tokens, scores=table)
print(reports_to_csv(reports))

rap_half = [r for r in reports if r.method == "rap" and r.rho == 0.5][0]
print("rho=0.5 keeps exactly 2 of 4 pairs, so measured == analytic:")
print(f"  measured {rap_half.flops_kvproj_measured:.1f} vs "
      f"analytic {rap_half.flops_kvproj_analytic:.1f} FLOPs/head/token")
print(f"  attention parameters: {rap_half.params_attn} "
      f"({rap_half.params_attn_rel:.1%} of baseline)")
