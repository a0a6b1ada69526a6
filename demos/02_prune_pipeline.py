#!/usr/bin/env python3
"""The full pipeline on a desk-scale model: score, budget, prune, recover.

Trains the toy LM on its synthetic calibration stream first so that pruning
actually hurts and distillation has something to recover, then walks through
Fisher scoring, adaptive budget allocation, hybrid compression (pair pruning
for keys, absorbed low-rank values), and adapter distillation.
"""

from rapkit.budget import allocate
from rapkit.factorize import build_compressed
from rapkit.recover import KdConfig, distill, merge_adapters, pretrain
from rapkit.scoring import estimate_fisher, pair_scores
from rapkit.toymodel import (AttentionModel, default_spec, markov_calibration,
                             mean_loss)

spec = default_spec(seed=42)
calib = markov_calibration(spec.vocab, count=16, window=64, seed=42)

print("training the toy teacher on its calibration stream ...")
teacher = pretrain(AttentionModel.build(spec), calib, steps=150, lr=0.1,
                   batch_size=4, momentum=0.9)
teacher_loss = mean_loss(teacher, calib)
print(f"  teacher calibration CE: {teacher_loss:.4f}")

print("\nscoring rotation pairs (empirical Fisher) ...")
table = pair_scores(estimate_fisher(teacher, calib), spec.rope.scheme)
for layer, side in table.groups():
    print(f"  group layer={layer} side={side}: total {table.group_total(layer, side):.4f}")

rho = 0.3
plan = allocate(table, rho, "adaptive")
print(f"\nadaptive budgets at global ratio {rho}:")
for (layer, side), ratio in sorted(plan.ratios.items()):
    kept = plan.pair_counts[(layer, side)]
    print(f"  layer {layer} {side}: ratio {ratio:.3f} -> keep {kept}/4 pairs")
print(f"  mean ratio {plan.mean_ratio:.3f}, after rounding "
      f"{plan.mean_effective_ratio:.3f} (residual {plan.rounding_error:+.3f})")

student = build_compressed(teacher, "rap", rho, scores=table, plan=plan)
pruned_loss = mean_loss(student, calib)
print(f"\npruned calibration CE: {pruned_loss:.4f} "
      f"(teacher {teacher_loss:.4f})")

print("\ndistilling adapters against the teacher ...")
trained, trace = distill(teacher, student, calib, KdConfig(steps=200))
recovered = merge_adapters(trained)
final_loss = mean_loss(recovered, calib)
print(f"  step   0: total {trace[0].total:.4f} (ce {trace[0].ce:.4f})")
print(f"  step {trace[-1].step:3d}: total {trace[-1].total:.4f} "
      f"(ce {trace[-1].ce:.4f})")
print(f"  recovered calibration CE: {final_loss:.4f}")

print("\nsummary (lower is better):")
for name, value in (("teacher", teacher_loss), ("pruned", pruned_loss),
                    ("recovered", final_loss)):
    bar = "#" * int(40 * value / max(teacher_loss, pruned_loss, final_loss))
    print(f"  {name:10s} {value:7.4f}  {bar}")
