"""Acceptance criteria, one test per criterion, one PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
print; a failed assertion marks the criterion red.
"""

import json
import time

import numpy as np
import pytest

from conftest import finite_difference, make_spec, tiny_spec
from rapkit.analyze import (analytic_kv_projection, baseline_attention_params,
                            measure_forward, method_factors)
from rapkit.budget import allocate, project_to_mean
from rapkit.cli import main as cli_main
from rapkit.factorize import build_compressed, reconstructed_reference
from rapkit.numcore import Tape, grad, gradients
from rapkit.recover import KdConfig, distill, merge_adapters
from rapkit.rope import PairingScheme, RetainedIndex, RopeConfig
from rapkit.scoring import estimate_fisher, pair_scores
from rapkit.toymodel import (AttentionModel, forward_prefill, loss_forward,
                             markov_calibration, mean_loss)
from rapkit.verify import (check_greedy_optimality, commutativity_deviation,
                           quadratic_bound_case, toy_bound_regime_check)

from test_budget import table_with_group_totals


def report(number, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number:02d}: {detail}")
    assert ok, detail


def default_scored_model(seed=42):
    spec = make_spec(seed=seed)
    model = AttentionModel.build(spec)
    calib = markov_calibration(spec.vocab, count=16, window=64, seed=seed)
    table = pair_scores(estimate_fisher(model, calib), spec.rope.scheme)
    return spec, model, calib, table


def test_criterion_01_commutativity_exactness():
    started = time.monotonic()
    rng = np.random.default_rng(1)
    worst = 0.0
    cases = 0
    for kind in ("adjacent", "half_split"):
        for d in (8, 16, 128):
            cfg = RopeConfig(10000.0, PairingScheme(kind, d))
            for _ in range(17):
                m = int(rng.integers(1, d // 2 + 1))
                pairs = tuple(sorted(rng.choice(d // 2, size=m,
                                                replace=False).tolist()))
                retained = RetainedIndex(pairs, cfg.scheme)
                weight = rng.normal(size=(2 * d, d))
                x = rng.normal(size=(6, 2 * d))
                positions = rng.integers(0, 4096, size=6).tolist()
                dev = commutativity_deviation(weight[:, retained.rap_index],
                                              retained, cfg, x, positions)
                worst = max(worst, dev)
                cases += 1
    elapsed = time.monotonic() - started
    report(1, worst <= 1e-12 and cases >= 100 and elapsed < 10.0,
           f"rope commutativity over {cases} factorizations: "
           f"max deviation {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_zero_compression_equivalence():
    spec, model, calib, table = default_scored_model()
    compressed = build_compressed(model, "rap", 0.0, scores=table)
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(32):
        tokens = rng.integers(0, spec.vocab, size=10).tolist()
        base = forward_prefill(model, tokens).logits
        got = forward_prefill(compressed, tokens).logits
        worst = max(worst, float(np.max(np.abs(got - base))))
    report(2, worst <= 1e-9,
           f"zero-compression logits match baseline: max |diff| {worst:.2e}")


def test_criterion_03_latent_path_equivalence():
    spec, model, calib, table = default_scored_model()
    rng = np.random.default_rng(3)
    worst = 0.0
    for rho in (0.1, 0.2, 0.3, 0.4, 0.5):
        plan = allocate(table, rho, "adaptive")
        compressed = build_compressed(model, "rap", rho,
                                      scores=table, plan=plan)
        reference = reconstructed_reference(model, "rap", rho,
                                            scores=table, plan=plan)
        tokens = rng.integers(0, spec.vocab, size=12).tolist()
        lat = forward_prefill(compressed, tokens).logits
        ref = forward_prefill(reference, tokens).logits
        worst = max(worst, float(np.max(np.abs(lat - ref))))
    report(3, worst <= 1e-9,
           f"latent forward equals reconstruct-then-attend: max |diff| {worst:.2e}")


def test_criterion_04_flops_table_reproduced():
    base = analytic_kv_projection("baseline", 1.0, 32, 128)["flops"]
    expected = {
        0.9: {"svd": 1.946, "palu": 1.917, "rap": 1.887},
        0.5: {"svd": 1.081, "palu": 1.065, "rap": 1.049},
    }
    ok = abs(base - 2_097_152.0) < 0.5
    worst = 0.0
    for r, row in expected.items():
        for method, millions in row.items():
            got = analytic_kv_projection(method, r, 32, 128)["flops"] / 1e6
            worst = max(worst, abs(got - millions))
            ok = ok and abs(got - millions) <= 0.001
    report(4, ok, f"published FLOPs table reproduced: baseline {base:.0f}, "
                  f"max row error {worst:.5f}M")


def test_criterion_05_rap_linear_scaling():
    spec, model, calib, table = default_scored_model()
    slack = 1.0 / (spec.head_dim // 2)
    base_params = baseline_attention_params(spec)
    base_flops = analytic_kv_projection("baseline", 1.0, spec.query_heads,
                                        spec.head_dim)["flops"]
    ok = True
    details = []
    for rho in (0.1, 0.2, 0.3, 0.4, 0.5):
        compressed = build_compressed(model, "rap", rho, scores=table)
        rep = measure_forward(compressed, list(range(16)))
        param_err = abs(rep.params_attn / base_params - (1 - rho))
        flops_err = abs(rep.flops_kvproj_measured / base_flops - (1 - rho))
        ok = ok and param_err <= slack + 1e-12 and flops_err <= slack + 1e-12
        details.append(f"{rho:.1f}:{param_err:.3f}/{flops_err:.3f}")
    report(5, ok, "rap params and kv-proj FLOPs scale linearly "
                  f"(err<= {slack:.2f} pair slack): " + " ".join(details))


def test_criterion_06_method_ordering_and_break_even():
    spec, model, calib, table = default_scored_model()
    tokens = list(range(12))
    ordered = True
    for rho in (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.7):
        flops = {m: measure_forward(build_compressed(model, m, rho, scores=table),
                                    tokens).flops_kvproj_total
                 for m in ("svd", "palu", "rap")}
        ordered = ordered and flops["rap"] < flops["palu"] < flops["svd"]
    svd_even = abs(method_factors("svd", 0.5, 1)["params"] - 1.0)
    palu_even = abs(method_factors("palu", 2.0 / 3.0, 1)["params"] - 1.0)
    ok = ordered and svd_even <= 1e-12 and palu_even <= 1e-12
    report(6, ok, f"measured rap<palu<svd at every rho; break-even residuals "
                  f"svd {svd_even:.1e} @ rho=0.5, palu {palu_even:.1e} @ rho=1/3")


def test_criterion_07_gradient_correctness():
    started = time.monotonic()
    rng = np.random.default_rng(7)
    worst = 0.0

    def fd_vs_tape(build, arrays):
        nonlocal worst

        def value(arrs):
            t = Tape()
            leaves = {k: t.leaf(v, k) for k, v in arrs.items()}
            return float(build(t, leaves).value[0, 0])

        t = Tape()
        leaves = {k: t.leaf(v, k) for k, v in arrays.items()}
        out = build(t, leaves)
        grads = gradients(t, out, list(leaves.values()))
        for (name, _), g in zip(arrays.items(), grads):
            fd = finite_difference(value, arrays, name)
            denom = np.maximum(np.abs(fd), 1e-4)
            worst = max(worst, float(np.max(np.abs(g - fd) / denom)))

    r_mm = rng.normal(size=(4, 4))
    fd_vs_tape(lambda t, lv: t.sum_all(t.mul(t.matmul(lv["a"], lv["b"]),
                                             t.constant(r_mm))),
               {"a": rng.normal(size=(4, 3)), "b": rng.normal(size=(3, 4))})
    r_soft = rng.normal(size=(4, 6))
    fd_vs_tape(lambda t, lv: t.sum_all(t.mul(t.row_softmax(lv["a"]),
                                             t.constant(r_soft))),
               {"a": rng.normal(size=(4, 6))})
    ang = rng.uniform(0, 6, size=(4, 3))
    r_rot = rng.normal(size=(4, 6))
    fd_vs_tape(lambda t, lv: t.sum_all(t.mul(
        t.rotate_pairs(lv["a"], np.cos(ang)[:, None], np.sin(ang)[:, None], False),
        t.constant(r_rot))),
        {"a": rng.normal(size=(4, 6))})
    fd_vs_tape(lambda t, lv: t.cross_entropy(lv["a"], [0, 3, 1, 2]),
               {"a": rng.normal(size=(4, 5))})

    # end-to-end: model CE gradient w.r.t. every attention projection
    spec = tiny_spec(seed=7)
    model = AttentionModel.build(spec)
    tokens = [1, 5, 2, 7]
    loss, tape = loss_forward(model, tokens)
    for role, attr in (("q", "proj_q"), ("k", "k_map"), ("v", "v_map"),
                       ("o", "proj_o")):
        arrays = {"w": getattr(model.layers[0], attr).weight.copy()}

        def value(arrs, attr=attr):
            original = getattr(model.layers[0], attr).weight
            getattr(model.layers[0], attr).weight = arrs["w"]
            out, _ = loss_forward(model, tokens)
            getattr(model.layers[0], attr).weight = original
            return float(out.value[0, 0])

        g = grad(tape, loss, tape.leaves[f"L0.{role}"])
        fd = finite_difference(value, arrays, "w")
        denom = np.maximum(np.abs(fd), 1e-4)
        worst = max(worst, float(np.max(np.abs(g - fd) / denom)))

    elapsed = time.monotonic() - started
    report(7, worst <= 1e-4 and elapsed < 30.0,
           f"autodiff vs central differences: worst rel err {worst:.2e}, "
           f"{elapsed:.1f}s")


def test_criterion_08_budget_properties():
    equal = table_with_group_totals({(0, "k"): 2.0, (0, "v"): 2.0,
                                     (1, "k"): 2.0, (1, "v"): 2.0})
    plan = allocate(equal, 0.3, "adaptive")
    symmetric = all(r == pytest.approx(0.3, abs=1e-12)
                    for r in plan.ratios.values())

    hand = allocate(table_with_group_totals({(0, "k"): 3.0, (0, "v"): 1.0}),
                    0.3, "adaptive")
    hand_ok = (hand.ratios[(0, "k")] == pytest.approx(0.15, abs=1e-12)
               and hand.ratios[(0, "v")] == pytest.approx(0.45, abs=1e-12))

    rng = np.random.default_rng(8)
    worst = 0.0
    clamped_cases = 0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        raw = rng.uniform(-0.4, 1.7, size=n)
        target = float(rng.uniform(0.05, 0.95))
        if raw.max() > 1.0 or raw.min() < 0.0:
            clamped_cases += 1
        projected = project_to_mean(raw, target)
        worst = max(worst, abs(projected.mean() - target))
    ok = symmetric and hand_ok and worst <= 1e-9 and clamped_cases > 30
    report(8, ok, f"budget rules: symmetry exact, hand case (0.15, 0.45), "
                  f"projection mean err {worst:.1e} over 100 tables "
                  f"({clamped_cases} with clamping)")


def test_criterion_09_corollary_enumeration():
    rng = np.random.default_rng(9)
    counterexamples = 0
    for trial in range(100):
        sigma = rng.random(8)
        m = int(rng.integers(1, 8))
        ok, witness = check_greedy_optimality(sigma, m)
        counterexamples += 0 if ok else 1
    report(9, counterexamples == 0,
           f"greedy selection vs exhaustive enumeration: "
           f"{counterexamples} counterexamples in 100 tables")


def test_criterion_10_bound_regimes():
    quad_worst = max(abs(quadratic_bound_case(seed).ratio - 1.0)
                     for seed in range(5))
    failures = []
    ratios = []
    for seed in range(20):
        rep = toy_bound_regime_check(seed, eps=0.05, slack=0.2)
        ratios.append(rep.ratio)
        if not rep.within_second_order:
            failures.append((seed, rep.ratio))
    ok = quad_worst <= 1e-9 and not failures
    report(10, ok,
           f"bound regimes: synthetic quadratic ratio err {quad_worst:.1e}; "
           f"toy-LM ratios max {max(ratios):+.3f}, failures {failures or 'none'}")


def test_criterion_11_kd_recovery():
    started = time.monotonic()
    wins = 0
    merge_worst = 0.0
    for seed in range(20):
        spec = make_spec(seed=500 + seed)
        model = AttentionModel.build(spec)
        calib = markov_calibration(spec.vocab, count=8, window=32, seed=seed)
        table = pair_scores(estimate_fisher(model, calib), spec.rope.scheme)
        student = build_compressed(model, "rap", 0.3, scores=table)
        before = mean_loss(student, calib)
        trained, _ = distill(model, student, calib,
                             KdConfig(steps=200, seed=seed))
        merged = merge_adapters(trained)
        after = mean_loss(merged, calib)
        wins += after < before
        tokens = list(calib.sequences[0][:10])
        gap = np.max(np.abs(forward_prefill(trained, tokens).logits
                            - forward_prefill(merged, tokens).logits))
        merge_worst = max(merge_worst, float(gap))
    elapsed = time.monotonic() - started
    ok = wins >= 19 and merge_worst <= 1e-10 and elapsed < 120.0
    report(11, ok, f"kd recovery: CE reduced in {wins}/20 runs, merge gap "
                   f"{merge_worst:.1e}, {elapsed:.0f}s")


def test_criterion_12_pipeline_determinism(tmp_path):
    artifacts = ("scores.json", "score_summary.json", "compressed.model",
                 "budget.json", "manifest.json", "recovered.model",
                 "adapters.json", "kd_trace.csv", "report.csv", "report.json",
                 "sweep.csv", "sweep.json", "verify.json")
    for out in (tmp_path / "run1", tmp_path / "run2"):
        config = tmp_path / f"{out.name}.json"
        config.write_text(json.dumps({
            "out": str(out), "seed": 42, "rho": 0.3,
            "kd": {"steps": 40},
            "calibration": {"count": 8, "window": 32}}))
        for command in ("score", "prune", "distill", "report", "sweep",
                        "verify"):
            assert cli_main([command, "--config", str(config)]) == 0
    identical = all((tmp_path / "run1" / name).read_bytes()
                    == (tmp_path / "run2" / name).read_bytes()
                    for name in artifacts)
    report(12, identical,
           f"two seed-42 pipeline runs byte-identical across "
           f"{len(artifacts)} artifacts")
