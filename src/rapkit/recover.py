"""Post-pruning recovery: low-rank adapters trained by distillation.

Adapters attach to the four attention projections of every layer (whatever
their compressed shapes are), keep the base weights frozen, and train with
plain fixed-step SGD on a combined objective: cross entropy on the ground
truth plus KL(teacher || student) with both distributions tempered. The raw
KL at temperature T is used as-is, without the T^2 gradient compensation.

An adapted projection records one ``Tape.adapted_matmul`` node and its three
weight leaves: at desk scale a training pass costs its node count more than
its arithmetic.

Merging folds ``scale * down @ up`` into the base weight; a merged model is
indistinguishable from the adapter-attached one in eval mode.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .numcore import Node, Tape, gradients, log_softmax_rows, softmax_rows
from .rope import check
from .toymodel import (ROLES, SEED, AttentionModel, CalibrationSet, LinearMap,
                       forward_prefill, held, loss_forward)


@dataclass(frozen=True)
class KdConfig:
    """Distillation settings.

    Defaults are desk-scale: adapter rank 1 with scale alpha/rank = 2 keeps
    the adapter share of the tiny default model's parameters under 5%. The
    loss weights and temperature follow the recorded recipe (0.4 CE + 0.6 KD,
    T = 2).
    """

    alpha_ce: float = 0.4
    alpha_kd: float = 0.6
    temperature: float = 2.0
    lr: float = 0.05
    steps: int = 200
    batch_size: int = 2
    lora_rank: int = 1
    lora_alpha: float = 2.0
    dropout: float = 0.05
    seed: int = 42

    def __post_init__(self):
        check("kd", vars(self), KD_FIELDS)

    @property
    def scaling(self) -> float:
        return self.lora_alpha / self.lora_rank


# KdConfig's fields: a negative loss weight or learning rate, or a temperature
# that is not positive, would make every weight non-finite, or ascend the
# loss, at the first steps
KD_FIELDS = {"alpha_ce": (float, "[0, inf)"), "alpha_kd": (float, "[0, inf)"),
             "temperature": (float, "(0, inf)"), "lr": (float, "[0, inf)"),
             "steps": (int, "[0, inf)"), "batch_size": (int, "[1, inf)"),
             "lora_rank": (int, "[1, inf)"), "lora_alpha": float,
             "dropout": (float, "[0, 1)"), "seed": SEED}


class LoraLinear(LinearMap):
    """A frozen base projection plus a trainable low-rank delta."""

    def __init__(self, base, rank: int, scaling: float, dropout: float,
                 rng: np.random.Generator):
        super().__init__(base)
        d_in, d_out = self.weight.shape
        self.down = rng.normal(0.0, 1.0 / np.sqrt(d_in), size=(d_in, rank))
        self.up = np.zeros((rank, d_out))
        self.scaling = scaling
        self.dropout = dropout
        self.training = False
        self._mask_rng = rng

    def apply(self, tape: Tape, x: Node, name: str, tag: str | None = None,
              rotate: tuple | None = None) -> Node:
        mask = None
        if self.training and self.dropout > 0.0:
            keep = (self._mask_rng.random(x.value.shape) >= self.dropout)
            mask = keep.astype(np.float64) / (1.0 - self.dropout)
        return tape.adapted_matmul(x, tape.leaf(self.weight, name),
                                   tape.leaf(self.down, f"{name}.lora_down"),
                                   tape.leaf(self.up, f"{name}.lora_up"),
                                   self.scaling, mask, tag, rotate)

    def merged_weight(self):
        return self.weight + self.scaling * (self.down @ self.up)


def _replace_maps(model: AttentionModel, make) -> AttentionModel:
    """Copy of ``model`` whose four projections per layer are ``make(old map)``."""
    layers = [replace(layer, **{ROLES[r]: make(m) for r, m in held(layer)
                                if isinstance(m, LinearMap)})
              for layer in model.layers]
    return AttentionModel(model.spec, model.embedding, layers, model.manifest)


def attach_adapters(model: AttentionModel, cfg: KdConfig) -> AttentionModel:
    """Fresh model whose four projections per layer carry zero-initialized adapters."""
    rng = np.random.default_rng(cfg.seed)
    return _replace_maps(model, lambda m: LoraLinear(
        m.merged_weight(), cfg.lora_rank, cfg.scaling, cfg.dropout, rng))


def merge_adapters(model: AttentionModel) -> AttentionModel:
    """Fold every adapter into its base weight; plain maps pass through."""
    return _replace_maps(model, lambda m: LinearMap(m.merged_weight()))


def _adapters(model: AttentionModel):
    """(weight name, adapter) of every projection that carries one."""
    for i, layer in enumerate(model.layers):
        for role, m in held(layer):
            if isinstance(m, LoraLinear):
                yield f"L{i}.{role}", m


def set_training(model: AttentionModel, training: bool):
    for _, m in _adapters(model):
        m.training = training


# -- losses --------------------------------------------------------------------


def kd_loss_parts(teacher_logits, student_logits, labels,
                  cfg: KdConfig) -> tuple[float, float]:
    """(cross entropy, KL divergence) per the config's temperature."""
    teacher_logits = np.asarray(teacher_logits, dtype=np.float64)
    student_logits = np.asarray(student_logits, dtype=np.float64)
    if teacher_logits.shape != student_logits.shape:
        raise ValueError("teacher and student logits must have equal shapes")
    labels = np.asarray(labels, dtype=np.intp)
    n = student_logits.shape[0]
    if labels.shape[0] != n:
        raise ValueError("one label per row required")
    logp = log_softmax_rows(student_logits)
    ce = float(-np.sum(logp[np.arange(n), labels]) / n)
    t = cfg.temperature
    p_t = softmax_rows(teacher_logits / t)
    logp_t = log_softmax_rows(teacher_logits / t)
    logp_s = log_softmax_rows(student_logits / t)
    kd = float(np.sum(p_t * (logp_t - logp_s)) / n)
    return ce, kd


def kd_loss(teacher_logits, student_logits, labels, cfg: KdConfig) -> float:
    """alpha_ce * CE(student, labels) + alpha_kd * KL(teacher || student)."""
    ce, kd = kd_loss_parts(teacher_logits, student_logits, labels, cfg)
    return cfg.alpha_ce * ce + cfg.alpha_kd * kd


def _tempered_teacher(teacher_logits: np.ndarray, cfg: KdConfig) -> tuple[np.ndarray, float]:
    """The teacher's side of the KD term, fixed for a frozen teacher's window:
    its tempered distribution p_t and sum(p_t * log p_t) / rows."""
    t = cfg.temperature
    p_t = softmax_rows(teacher_logits / t)
    logp_t = log_softmax_rows(teacher_logits / t)
    return p_t, float(np.sum(p_t * logp_t) / teacher_logits.shape[0])


def _kd_loss_node(tape: Tape, teacher: tuple[np.ndarray, float], student_pred: Node,
                  labels, cfg: KdConfig) -> tuple[Node, float, float]:
    """Differentiable combined loss against a :func:`_tempered_teacher`;
    returns the node plus (ce, kd) values."""
    n = student_pred.value.shape[0]
    ce_node = tape.cross_entropy(student_pred, labels)
    p_t, entropy_term = teacher
    logp_s = tape.row_log_softmax(tape.scale(student_pred, 1.0 / cfg.temperature))
    cross_term = tape.scale(tape.sum_all(tape.mul(tape.constant(p_t), logp_s)),
                            -1.0 / n)
    kd_node = tape.add(tape.constant([[entropy_term]]), cross_term)
    total = tape.add(tape.scale(ce_node, cfg.alpha_ce),
                     tape.scale(kd_node, cfg.alpha_kd))
    return total, float(ce_node.value[0, 0]), float(kd_node.value[0, 0])


# -- training loop ---------------------------------------------------------------


@dataclass
class TraceRow:
    step: int
    ce: float
    kd: float
    total: float


class TrainingDiverged(FloatingPointError):
    """An update left a weight non-finite; distill adds its trace so far."""

    def __init__(self, step: int, name: str):
        super().__init__(f"weight {name} became non-finite at step {step}")
        self.step, self.name, self.trace = step, name, []


def trace_to_csv(trace: list[TraceRow]) -> str:
    lines = ["step,ce,kd,total"]
    for row in trace:
        lines.append(f"{row.step},{row.ce:.10f},{row.kd:.10f},{row.total:.10f}")
    return "\n".join(lines) + "\n"


def adapters_to_json(model: AttentionModel) -> str:
    """Serialize every attached adapter (for audit next to a checkpoint)."""
    payload = {name: {"down": m.down.tolist(), "up": m.up.tolist(),
                      "scaling": m.scaling, "dropout": m.dropout}
               for name, m in _adapters(model)}
    return json.dumps(payload, sort_keys=True, indent=1)


def _descend(weights: dict[str, np.ndarray], steps: int, batch_size: int,
             windows: int, lr: float, step_losses, clip_norm: float = np.inf,
             momentum: float = 0.0) -> None:
    """Fixed-step SGD on ``weights`` (name -> array), updated in place.

    Each step picks ``batch_size`` of the ``windows`` round-robin, sums the
    gradients of the (loss, tape) pairs ``step_losses(step, picks)`` returns
    and divides by their count, clips to the global norm ``clip_norm`` and
    applies heavy-ball ``momentum``. A non-finite weight raises
    :class:`TrainingDiverged`.
    """
    names = sorted(weights)
    velocity = {name: np.zeros_like(weights[name]) for name in names}
    for step in range(steps):
        picks = [(step * batch_size + j) % windows for j in range(batch_size)]
        grads = [gradients(tape, loss, [tape.leaves[n] for n in names])
                 for loss, tape in step_losses(step, picks)]
        sums = [sum(gs[1:], gs[0]) for gs in zip(*grads)]
        scale = lr / len(grads)
        if clip_norm < np.inf:
            norm = np.sqrt(sum(float(np.sum(g ** 2)) for g in sums)) / len(grads)
            scale *= min(1.0, clip_norm / max(norm, 1e-12))
        for name, g in zip(names, sums):
            velocity[name] = momentum * velocity[name] + scale * g
            weights[name] -= velocity[name]
            if not np.all(np.isfinite(weights[name])):
                raise TrainingDiverged(step, name)


def distill(teacher: AttentionModel, student: AttentionModel,
            calib: CalibrationSet, cfg: KdConfig) -> tuple[AttentionModel, list[TraceRow]]:
    """Train adapters on the student against the teacher's distribution.

    The student gets adapters attached here if it has none. Batches cycle
    round-robin through the calibration windows, one pass per window so the
    dropout masks draw in pick order, under plain fixed-step SGD. Returns
    the adapter-carrying student (train in eval mode afterwards or merge).
    """
    if not any(_adapters(student)):
        student = attach_adapters(student, cfg)
    # the teacher is frozen: one prefill, and one tempered distribution, per
    # window that a batch will pick
    teachers = [_tempered_teacher(forward_prefill(teacher, seq).logits[:-1, :], cfg)
                for seq in calib.sequences[:cfg.steps * cfg.batch_size]]
    trace: list[TraceRow] = []

    def step_losses(step: int, picks: list[int]) -> list[tuple[Node, Tape]]:
        pairs, row = [], TraceRow(step, 0.0, 0.0, 0.0)
        for i in picks:
            seq = list(calib.sequences[i])
            tape = Tape()
            pred = tape.rows(forward_prefill(student, seq, tape=tape).logits_node,
                             0, len(seq) - 1)
            loss, ce, kd = _kd_loss_node(tape, teachers[i], pred, seq[1:], cfg)
            row.ce, row.kd, row.total = (row.ce + ce, row.kd + kd,
                                         row.total + float(loss.value[0, 0]))
            pairs.append((loss, tape))
        b = len(picks)
        trace.append(TraceRow(step, row.ce / b, row.kd / b, row.total / b))
        return pairs

    weights = {f"{name}.lora_{part}": getattr(m, part)
               for name, m in _adapters(student) for part in ("down", "up")}
    set_training(student, True)
    try:
        _descend(weights, cfg.steps, cfg.batch_size, calib.count, cfg.lr, step_losses)
    except TrainingDiverged as exc:
        exc.trace = trace
        raise
    finally:
        set_training(student, False)
    return student, trace


def pretrain(model: AttentionModel, calib: CalibrationSet, steps: int = 150,
             lr: float = 0.2, batch_size: int = 4, clip_norm: float = 1.0,
             momentum: float = 0.0, only: list[str] | None = None) -> AttentionModel:
    """Gradient descent on the calibration stream over the base weights.

    Returns a new model (the input stays untouched); used to move the toy LM
    near a loss minimum before curvature-based analyses. A step's windows (of
    one length) run as one :func:`loss_forward` pass. Updates clip to a global
    gradient norm, with optional heavy-ball momentum; ``only`` restricts them
    to the named weights (e.g. ["L0.k"]).
    """
    trained = _replace_maps(model, lambda m: LinearMap(m.merged_weight().copy()))
    trained.embedding = model.embedding.copy()

    weights = {"embedding": trained.embedding}
    weights.update((f"L{i}.{role}", m.weight) for i, layer in enumerate(trained.layers)
                   for role, m in held(layer) if isinstance(m, LinearMap))

    names = sorted(weights) if only is None else sorted(only)
    if any(n not in weights for n in names):
        raise ValueError(f"unknown weight names in {names}")
    _descend({n: weights[n] for n in names}, steps, batch_size, calib.count, lr,
             lambda step, picks: [loss_forward(trained, [calib.sequences[i]
                                                         for i in picks])],
             clip_norm, momentum)
    return trained
