"""Distillation losses, adapter training, and merge equivalence."""

import numpy as np
import pytest

from conftest import make_spec
from rapkit.factorize import build_compressed
from rapkit.numcore import Tape, gradients
from rapkit.recover import (KdConfig, LoraLinear, TrainingDiverged,
                            attach_adapters, distill, kd_loss, kd_loss_parts,
                            merge_adapters, pretrain, trace_to_csv)
from rapkit.scoring import estimate_fisher, pair_scores
from rapkit.toymodel import (AttentionModel, forward_prefill, loss_forward,
                             markov_calibration, mean_loss)

CFG = KdConfig()


def pruned_student(seed=42, rho=0.3):
    spec = make_spec(seed=seed)
    model = AttentionModel.build(spec)
    calib = markov_calibration(spec.vocab, count=8, window=32, seed=seed)
    table = pair_scores(estimate_fisher(model, calib), spec.rope.scheme)
    student = build_compressed(model, "rap", rho, scores=table)
    return model, student, calib


# -- kd_loss -------------------------------------------------------------------


def test_identical_distributions_zero_kd_term(rng):
    logits = rng.normal(size=(5, 10))
    labels = rng.integers(0, 10, size=5).tolist()
    ce, kd = kd_loss_parts(logits, logits, labels, CFG)
    assert kd == pytest.approx(0.0, abs=1e-12)
    assert kd_loss(logits, logits, labels, CFG) == pytest.approx(
        CFG.alpha_ce * ce, abs=1e-12)


def test_one_hot_teacher_reduces_to_tempered_ce(rng):
    cfg = KdConfig(alpha_ce=0.0, alpha_kd=1.0, temperature=2.0)
    student = rng.normal(size=(4, 6))
    labels = [2, 0, 5, 1]
    teacher = np.zeros((4, 6))
    for i, lab in enumerate(labels):
        teacher[i, lab] = 1000.0  # one-hot after tempered softmax
    got = kd_loss(teacher, student, labels, cfg)
    z = student / cfg.temperature
    z = z - z.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    expected = -np.mean([logp[i, lab] for i, lab in enumerate(labels)])
    assert got == pytest.approx(expected, abs=1e-9)


def test_kd_matches_direct_kl_summation_oracle(rng):
    teacher = rng.normal(size=(6, 9))
    student = rng.normal(size=(6, 9))
    labels = rng.integers(0, 9, size=6).tolist()
    _, kd = kd_loss_parts(teacher, student, labels, CFG)
    t = CFG.temperature
    total = 0.0
    for i in range(6):
        pt = np.exp(teacher[i] / t) / np.exp(teacher[i] / t).sum()
        ps = np.exp(student[i] / t) / np.exp(student[i] / t).sum()
        total += float(np.sum(pt * (np.log(pt) - np.log(ps))))
    assert kd == pytest.approx(total / 6, abs=1e-10)


def test_kl_term_is_non_negative(rng):
    for _ in range(50):
        teacher = rng.normal(scale=3, size=(4, 7))
        student = rng.normal(scale=3, size=(4, 7))
        _, kd = kd_loss_parts(teacher, student, [0, 1, 2, 3], CFG)
        assert kd >= -1e-12


def test_shape_mismatch_rejected(rng):
    with pytest.raises(ValueError):
        kd_loss(rng.normal(size=(3, 4)), rng.normal(size=(4, 4)), [0, 1, 2], CFG)


def test_tape_loss_matches_numpy_loss(rng):
    from rapkit.recover import _kd_loss_node, _tempered_teacher
    teacher = rng.normal(size=(5, 8))
    student = rng.normal(size=(5, 8))
    labels = rng.integers(0, 8, size=5).tolist()
    t = Tape()
    node, ce, kd = _kd_loss_node(t, _tempered_teacher(teacher, CFG), t.leaf(student, "s"),
                                 labels, CFG)
    ce_np, kd_np = kd_loss_parts(teacher, student, labels, CFG)
    assert ce == pytest.approx(ce_np, abs=1e-12)
    assert kd == pytest.approx(kd_np, abs=1e-12)
    assert node.value[0, 0] == pytest.approx(kd_loss(teacher, student, labels, CFG),
                                             abs=1e-12)


# -- distillation ------------------------------------------------------------------


def test_zero_learning_rate_keeps_loss_trace_constant():
    teacher, student, calib = pruned_student()
    cfg = KdConfig(lr=0.0, steps=5, dropout=0.0, batch_size=calib.count)
    _, trace = distill(teacher, student, calib, cfg)
    totals = {f"{row.total:.15f}" for row in trace}
    assert len(totals) == 1


def test_teacher_copy_student_starts_at_zero_kd():
    spec = make_spec(seed=50)
    teacher = AttentionModel.build(spec)
    calib = markov_calibration(spec.vocab, count=4, window=16, seed=1)
    cfg = KdConfig(steps=1)
    _, trace = distill(teacher, build_compressed(teacher, "baseline", 0.0),
                       calib, cfg)
    assert trace[0].kd == pytest.approx(0.0, abs=1e-12)


def test_distillation_reduces_calibration_ce():
    teacher, student, calib = pruned_student()
    before = mean_loss(student, calib)
    trained, trace = distill(teacher, student, calib, KdConfig(steps=200))
    after = mean_loss(merge_adapters(trained), calib)
    assert after < before
    assert len(trace) == 200


@pytest.mark.filterwarnings("ignore:invalid value")
@pytest.mark.filterwarnings("ignore:overflow")
def test_divergence_aborts_with_trace():
    teacher, student, calib = pruned_student()
    cfg = KdConfig(lr=1e18, steps=50, dropout=0.0)
    with pytest.raises(TrainingDiverged) as err:
        distill(teacher, student, calib, cfg)
    assert len(err.value.trace) >= 1


def test_pretrain_divergence_names_step_and_weight():
    # the first step leaves finite weights near 1e308; the second overflows
    model = AttentionModel.build(make_spec(seed=3))
    calib = markov_calibration(model.spec.vocab, count=4, window=8, seed=3)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            TrainingDiverged, match=r"weight \S+ became non-finite at step 1"):
        pretrain(model, calib, steps=2, lr=1e308)


def _base_weights(model):
    """name -> the model's own array, for every weight pretrain trains."""
    weights = {"embedding": model.embedding}
    for i, layer in enumerate(model.layers):
        for short, attr in (("q", "proj_q"), ("k", "k_map"), ("v", "v_map"),
                            ("o", "proj_o")):
            weights[f"L{i}.{short}"] = getattr(layer, attr).weight
    return weights


def test_pretrain_matches_the_per_window_reference_loop():
    """One batched pass per step follows the per-window loop: window gradients
    summed, the norm clipped, heavy-ball momentum, up to summation order."""
    model = AttentionModel.build(make_spec(seed=8))
    calib = markov_calibration(model.spec.vocab, count=5, window=6, seed=8)
    steps, lr, b, clip, momentum = 4, 0.1, 3, 0.5, 0.9
    got = _base_weights(pretrain(model, calib, steps=steps, lr=lr, batch_size=b,
                                 clip_norm=clip, momentum=momentum))

    reference = pretrain(model, calib, steps=0)  # an untrained copy
    weights = _base_weights(reference)
    names = sorted(weights)
    velocity = {n: np.zeros_like(weights[n]) for n in names}
    clipped = 0
    for step in range(steps):
        acc = {n: np.zeros_like(weights[n]) for n in names}
        for j in range(b):
            seq = list(calib.sequences[(step * b + j) % calib.count])
            loss, tape = loss_forward(reference, seq)
            for n, g in zip(names, gradients(tape, loss, [tape.leaves[n] for n in names])):
                acc[n] += g
        norm = np.sqrt(sum(float(np.sum(acc[n] ** 2)) for n in names)) / b
        clipped += norm > clip
        scale = (lr / b) * min(1.0, clip / norm)
        for n in names:
            velocity[n] = momentum * velocity[n] + scale * acc[n]
            weights[n] -= velocity[n]
    assert clipped
    for n in names:
        assert not np.array_equal(weights[n], _base_weights(model)[n]), n
        gap = np.max(np.abs(got[n] - weights[n])) / np.max(np.abs(weights[n]))
        assert gap <= 1e-10, (n, gap)


def test_distill_steps_by_lr_over_batch_times_the_gradient_sum():
    """Bit for bit, each step subtracts (lr / b) * (g_1 + ... + g_b)."""
    from rapkit.recover import _adapters, _kd_loss_node, _tempered_teacher
    teacher, student, calib = pruned_student()
    cfg = KdConfig(steps=3, batch_size=2, dropout=0.0)
    trained, _ = distill(teacher, student, calib, cfg)

    reference = attach_adapters(student, cfg)
    params = {f"{n}.lora_{p}": getattr(m, p)
              for n, m in _adapters(reference) for p in ("down", "up")}
    names = sorted(params)
    for step in range(cfg.steps):
        sums = None
        for j in range(cfg.batch_size):
            seq = list(calib.sequences[(step * cfg.batch_size + j) % calib.count])
            tape = Tape()
            pred = tape.gather_rows(forward_prefill(reference, seq, tape=tape).logits_node,
                                    range(len(seq) - 1))
            loss, _, _ = _kd_loss_node(
                tape, _tempered_teacher(forward_prefill(teacher, seq).logits[:-1], cfg),
                pred, seq[1:], cfg)
            grads = gradients(tape, loss, [tape.leaves[n] for n in names])
            sums = grads if sums is None else [s + g for s, g in zip(sums, grads)]
        for n, g in zip(names, sums):
            params[n] -= (cfg.lr / cfg.batch_size) * g
    for (name, got), (_, want) in zip(_adapters(trained), _adapters(reference)):
        np.testing.assert_array_equal(got.down, want.down, err_msg=name)
        np.testing.assert_array_equal(got.up, want.up, err_msg=name)


def test_trace_csv_format():
    rows = trace_to_csv([__import__("rapkit.recover", fromlist=["TraceRow"])
                        .TraceRow(0, 1.0, 2.0, 3.0)])
    assert rows.splitlines()[0] == "step,ce,kd,total"
    assert rows.splitlines()[1].startswith("0,1.0000000000,2.0000000000")


# -- adapters and merging -----------------------------------------------------------


def test_fresh_adapters_do_not_change_logits():
    teacher, student, calib = pruned_student()
    adapted = attach_adapters(student, CFG)
    tokens = list(calib.sequences[0][:10])
    np.testing.assert_allclose(forward_prefill(adapted, tokens).logits,
                               forward_prefill(student, tokens).logits,
                               atol=1e-12)


def test_zero_up_merge_keeps_weights():
    teacher, student, calib = pruned_student()
    adapted = attach_adapters(student, CFG)
    merged = merge_adapters(adapted)
    for a, b in zip(student.layers, merged.layers):
        np.testing.assert_array_equal(a.k_map.merged_weight(), b.k_map.weight)


def test_rank_one_adapter_explicit_outer_product(rng):
    base = rng.normal(size=(4, 3))
    lin = LoraLinear(base, rank=1, scaling=2.0, dropout=0.0,
                     rng=np.random.default_rng(0))
    lin.down = rng.normal(size=(4, 1))
    lin.up = rng.normal(size=(1, 3))
    expected = base + 2.0 * np.outer(lin.down[:, 0], lin.up[0, :])
    np.testing.assert_allclose(lin.merged_weight(), expected, atol=1e-14)


def _unfused_apply(self, tape, x, name, tag=None, rotate=None):
    """An adapted projection composed of Tape primitives: ten nodes, and a
    rotation node for a rotated one."""
    base = tape.leaf(self.weight, name)
    out = tape.matmul(x, base, tag=tag)
    x_in = x
    if self.training and self.dropout > 0.0:
        keep = (self._mask_rng.random(x.value.shape) >= self.dropout)
        mask = keep.astype(np.float64) / (1.0 - self.dropout)
        x_in = tape.mul(x, tape.constant(mask))
    down = tape.leaf(self.down, f"{name}.lora_down")
    up = tape.leaf(self.up, f"{name}.lora_up")
    delta = tape.matmul(tape.matmul(x_in, down, tag=tag), up, tag=tag)
    out = tape.add(out, tape.scale(delta, self.scaling))
    if rotate is None:
        return out
    c, s, half_split = rotate   # the plain tables of pair_tables' form
    return tape.rotate_pairs(out, *((c, s) if half_split else (c[..., ::2], s.imag)), half_split)


@pytest.mark.parametrize("training", [True, False], ids=["dropout", "eval"])
def test_adapted_pass_equals_the_unfused_composition_bit_for_bit(training, monkeypatch):
    """Logits, loss, FLOPs and the gradient of every leaf (base weights,
    adapter factors and the embedding, which sums q, k and v's input
    gradients) of two windows on one tape, with dropout masks drawn alike."""
    from rapkit.recover import _adapters, set_training
    _, student, calib = pruned_student()

    def run():
        adapted = attach_adapters(student, KdConfig(dropout=0.3))
        for i, (_, m) in enumerate(_adapters(adapted)):
            m.up = np.random.default_rng(i).normal(size=m.up.shape)
        set_training(adapted, training)
        tape = Tape()
        logits = [forward_prefill(adapted, list(seq), tape=tape).logits_node
                  for seq in calib.sequences[:2]]
        loss = tape.add(*(tape.cross_entropy(tape.gather_rows(lg, range(31)), seq[1:])
                          for lg, seq in zip(logits, calib.sequences)))
        names = sorted(tape.leaves)
        return ([lg.value for lg in logits], loss.value, tape.flops_by_tag,
                dict(zip(names, gradients(tape, loss, [tape.leaves[n] for n in names]))))

    fused = run()
    monkeypatch.setattr(LoraLinear, "apply", _unfused_apply)
    unfused = run()
    for got, want in zip(fused[0], unfused[0]):
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(fused[1], unfused[1])
    assert fused[2] == unfused[2]
    assert fused[3].keys() == unfused[3].keys() and len(fused[3]) == 1 + 2 * 4 * 3
    for name, g in fused[3].items():
        np.testing.assert_array_equal(g, unfused[3][name], err_msg=name)


def test_one_adapted_projection_records_three_leaves_and_one_op(rng):
    lin = LoraLinear(rng.normal(size=(4, 3)), rank=1, scaling=2.0, dropout=0.1,
                     rng=np.random.default_rng(0))
    lin.training = True
    tape = Tape()
    x = tape.leaf(rng.normal(size=(5, 4)), "x")
    y = lin.apply(tape, x, "L0.q")
    assert len(tape.nodes) == 1 + 4 and len(tape.leaves) == 1 + 3
    assert tape.nodes[-1] is y and y.parents[0] is x


def test_merged_equals_adapter_model_on_random_inputs(rng):
    teacher, student, calib = pruned_student()
    trained, _ = distill(teacher, student, calib, KdConfig(steps=40))
    merged = merge_adapters(trained)
    for _ in range(32):
        tokens = rng.integers(0, teacher.spec.vocab, size=8).tolist()
        a = forward_prefill(trained, tokens).logits   # eval mode, dropout off
        b = forward_prefill(merged, tokens).logits
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-10)


def test_merge_is_idempotent():
    teacher, student, calib = pruned_student()
    trained, _ = distill(teacher, student, calib, KdConfig(steps=10))
    once = merge_adapters(trained)
    twice = merge_adapters(once)
    for a, b in zip(once.layers, twice.layers):
        np.testing.assert_array_equal(a.proj_q.weight, b.proj_q.weight)
        np.testing.assert_array_equal(a.v_map.weight, b.v_map.weight)


def test_adapter_share_below_five_percent_of_base_model():
    """Adapter budget vs the uncompressed model size (what the recipe budgets)."""
    teacher, student, calib = pruned_student()
    adapted = attach_adapters(student, KdConfig())
    maps = [getattr(layer, role) for layer in adapted.layers
            for role in ("proj_q", "k_map", "v_map", "proj_o")]
    assert all(isinstance(m, LoraLinear) for m in maps)
    ratio = sum(m.down.size + m.up.size for m in maps) / teacher.total_params()
    assert 0 < ratio < 0.05


def test_distill_steps_zero_is_identity():
    teacher, student, calib = pruned_student()
    trained, trace = distill(teacher, student, calib, KdConfig(steps=0))
    assert trace == []
    merged = merge_adapters(trained)
    tokens = list(calib.sequences[0][:8])
    np.testing.assert_allclose(forward_prefill(merged, tokens).logits,
                               forward_prefill(student, tokens).logits,
                               atol=1e-12)


def test_kd_config_validation():
    with pytest.raises(ValueError):
        KdConfig(temperature=0.0)
    with pytest.raises(ValueError):
        KdConfig(alpha_ce=-0.1)
    with pytest.raises(ValueError):
        KdConfig(dropout=1.0)
