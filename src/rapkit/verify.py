"""Executable checks of the structural claims behind pair-aligned pruning.

Three families:

* commutativity: rotating a retained-pair latent and then expanding equals
  expanding and then rotating, exactly; a deliberately misaligned column
  selection (diagnostic only) breaks this by orders of magnitude;
* greedy optimality: keeping the top-m scores minimizes the residual score
  mass, confirmed by exhaustive subset enumeration at small pair counts;
* the second-order loss bound: pruning-induced loss change versus half the
  squared-perturbation-scaled residual score mass. On a synthetic quadratic
  whose curvature the score estimate matches by construction the ratio is
  exactly 1; on the toy LM it is an empirical regime check, never a hard
  guarantee.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from . import factorize
from .recover import pretrain
from .rope import PairingScheme, RetainedIndex, RopeConfig, rotate, rotate_indexed
from .scoring import estimate_fisher, pair_scores
from .toymodel import AttentionModel, CalibrationSet, LinearMap, ModelSpec, mean_loss


def commutativity_deviation(a_cols: np.ndarray, retained: RetainedIndex,
                            cfg: RopeConfig, x: np.ndarray,
                            positions, b: np.ndarray | None = None) -> float:
    """max |rotate_indexed(xA) B - rotate(xA B)|, B the expansion ``b`` or by
    default ``retained``'s dense one."""
    latent = x @ a_cols
    b = retained.expansion_matrix() if b is None else b
    lhs = rotate_indexed(latent, positions, cfg, retained) @ b
    rhs = rotate(latent @ b, positions, cfg)
    return float(np.max(np.abs(lhs - rhs)))


def check_commutativity(model: AttentionModel, trials: int = 8,
                        seed: int = 0) -> float:
    """Max deviation over every installed retained-pair key head."""
    rng = np.random.default_rng(seed)
    spec = model.spec
    rap = [layer for layer in model.layers if layer.k_retained is not None]
    if not rap:
        raise ValueError("model has no retained-pair key factorization")
    worst = 0.0
    for layer in rap:
        kw = layer.k_map.weight.shape[1] // spec.kv_heads
        for g, retained in enumerate(layer.k_retained):
            a_cols = layer.k_map.weight[:, g * kw:(g + 1) * kw]
            for _ in range(trials):
                x = rng.normal(size=(6, spec.model_dim))
                positions = rng.integers(0, 4096, size=6).tolist()
                worst = max(worst, commutativity_deviation(
                    a_cols, retained, spec.rope, x, positions))
    return worst


def misaligned_deviation(cfg: RopeConfig, rng: np.random.Generator) -> float:
    """Diagnostic: break one pair's alignment and measure the blow-up.

    Keeps m-1 whole pairs plus one half-pair column stolen from a pruned
    pair, while still claiming the original pair ids for the rotation. This
    reproduces the failure mode of non-pair-aligned column pruning; it is
    excluded from every normal pipeline.
    """
    d = cfg.head_dim
    n_pairs = d // 2
    if n_pairs < 3:
        raise ValueError("diagnostic needs at least 3 pairs")
    m = max(2, n_pairs // 2)
    pairs = sorted(rng.choice(n_pairs, size=m + 1, replace=False).tolist())
    kept, stolen_pair = tuple(pairs[:m]), pairs[m]
    retained = RetainedIndex(kept, cfg.scheme)
    index = list(retained.rap_index)
    # replace the last column with one from a pruned pair
    index[-1] = RetainedIndex((stolen_pair,), cfg.scheme).rap_index[0]
    weight = rng.normal(size=(2 * d, d))
    a_cols = weight[:, index]
    x = rng.normal(size=(8, 2 * d))
    positions = rng.integers(1, 4096, size=8).tolist()
    return commutativity_deviation(a_cols, retained, cfg, x, positions, b=np.eye(d)[index])


# -- greedy optimality ----------------------------------------------------------


def check_greedy_optimality(sigma, m: int) -> tuple[bool, tuple[int, ...] | None]:
    """Exhaustively confirm that :func:`factorize.top_pairs`, the selector
    every rap build uses, minimizes the residual score mass.

    Returns (ok, witness); the witness is any subset strictly better than the
    greedy choice. Feasible up to a dozen pairs.
    """
    sigma = np.asarray(sigma, dtype=np.float64)
    n = sigma.size
    if n > 12:
        raise ValueError("enumeration limited to 12 pairs")
    greedy = factorize.top_pairs(sigma, m)
    total = float(sigma.sum())
    greedy_residual = total - float(sigma[list(greedy)].sum())
    for subset in itertools.combinations(range(n), m):
        residual = total - float(sigma[list(subset)].sum())
        if residual < greedy_residual - 1e-12:
            return False, subset
    return True, None


# -- loss bound -----------------------------------------------------------------


@dataclass
class BoundReport:
    pruned_pairs: tuple[int, ...]
    delta_loss: float
    bound: float
    ratio: float
    within_second_order: bool

    @classmethod
    def from_values(cls, pruned, delta, bound, slack: float = 0.2):
        if bound == 0.0:
            ratio = 0.0 if delta == 0.0 else float("inf")
        else:
            ratio = delta / bound
        return cls(tuple(pruned), float(delta), float(bound), float(ratio),
                   bool(delta <= bound * (1.0 + slack)))


def _scaled_pair_removal(model: AttentionModel, layer: int, head: int,
                         pairs, eps: float) -> AttentionModel:
    """Copy of the model with the chosen pair columns scaled by (1 - eps)."""
    d = model.spec.head_dim
    scheme = model.spec.rope.scheme
    layers = list(model.layers)
    w_k = layers[layer].k_map.merged_weight().copy()
    cols = head * d + np.array(RetainedIndex(tuple(pairs), scheme).rap_index)
    w_k[:, cols] *= (1.0 - eps)
    layers[layer] = replace(layers[layer], k_map=LinearMap(w_k))
    return AttentionModel(model.spec, model.embedding, layers, model.manifest)


def check_loss_bound(model: AttentionModel, calib: CalibrationSet, layer: int,
                     head: int, pruned_pairs, eps: float = 1.0,
                     fisher=None, slack: float = 0.2) -> BoundReport:
    """Measure the loss change of scaled pair removal against the score bound.

    ``eps`` in (0, 1] shrinks the perturbation toward the quadratic regime;
    the bound scales with eps^2 (quadratic homogeneity of the score form).
    """
    if not 0.0 < eps <= 1.0:
        raise ValueError("eps must be in (0, 1]")
    pruned = tuple(sorted(set(int(p) for p in pruned_pairs)))
    if fisher is None:
        fisher = estimate_fisher(model, calib, targets=[(layer, "k")])
    sigma = pair_scores(fisher, model.spec.rope.scheme).get(layer, "k", head)
    bound = 0.5 * eps * eps * float(sigma[list(pruned)].sum()) if pruned else 0.0

    if pruned:
        perturbed = _scaled_pair_removal(model, layer, head, pruned, eps)
        delta = mean_loss(perturbed, calib) - mean_loss(model, calib)
    else:
        delta = 0.0
    if not np.isfinite(delta):
        raise FloatingPointError("loss became non-finite under perturbation")
    return BoundReport.from_values(pruned, delta, bound, slack)


def ambiguous_calibration(vocab: int, groups: int, seed: int) -> CalibrationSet:
    """Length-3 windows where EVERY next-token prediction is a 2-way conflict.

    Each group shares a first token with two continuations, and each
    continuation again branches twice, so no model can fit the data exactly.
    The empirical optimum then has finite logits everywhere: gradient descent
    actually reaches it, the mean gradient vanishes, and per-sample squared
    gradients estimate the curvature (information-matrix equality). That is
    the regime the second-order score bound presumes; saturating (memorized)
    positions would instead leak curvature the squared-gradient score cannot
    see.
    """
    rng = np.random.default_rng(seed)
    seqs = []
    for _ in range(groups):
        a = int(rng.integers(vocab))
        b1, b2 = rng.choice(vocab, size=2, replace=False)
        for b in (int(b1), int(b2)):
            c1, c2 = rng.choice(vocab, size=2, replace=False)
            seqs.append((a, b, int(c1)))
            seqs.append((a, b, int(c2)))
    return CalibrationSet(tuple(seqs), seed)


def toy_bound_regime_check(seed: int, eps: float = 0.05,
                           slack: float = 0.2) -> BoundReport:
    """The full bound check recipe on a trained single-layer toy LM.

    Trains the model on ambiguous calibration data (momentum phase, then a
    plain-descent polish of the key projection alone, since the bound's
    Taylor expansion holds the other parameters fixed), prunes the
    lowest-score pair at scale ``eps`` and reports loss change vs bound.
    """
    scheme = PairingScheme("adjacent", 4)
    spec = ModelSpec(layers=1, query_heads=2, kv_heads=1, head_dim=4, vocab=8,
                     rope=RopeConfig(theta_base=10000.0, scheme=scheme),
                     seed=300 + seed)
    model = AttentionModel.build(spec)
    calib = ambiguous_calibration(spec.vocab, groups=5, seed=seed)
    warm = pretrain(model, calib, steps=250, lr=0.05, batch_size=calib.count,
                    momentum=0.9, clip_norm=5.0)
    trained = pretrain(warm, calib, steps=250, lr=0.05,
                       batch_size=calib.count, only=["L0.k"])
    fisher = estimate_fisher(trained, calib, targets=[(0, "k")])
    sigma = pair_scores(fisher, scheme).get(0, "k", 0)
    lowest = int(np.argmin(sigma))
    return check_loss_bound(trained, calib, 0, 0, [lowest], eps=eps,
                            fisher=fisher, slack=slack)


def quadratic_bound_case(seed: int, pairing: str = "adjacent",
                         eps: float = 1.0) -> BoundReport:
    """Synthetic case where every approximation behind the bound is exact.

    The reference loss is 0.5 * ||G o (W - W0)||_F^2 evaluated from its
    minimum W0 (no first-order term), W a 6 x 8 weight of which two of the
    four pairs are pruned. Score samples are linear losses with
    Rademacher sign patterns, whose squared gradients equal the curvature
    G^2 exactly. W0 has unit-magnitude entries, so the score mass of a pair
    equals the curvature quadratic form of removing it: the ratio is 1.
    """
    rng = np.random.default_rng(seed)
    rows, head_dim, prune_count = 6, 8, 2
    scheme = PairingScheme(pairing, head_dim)
    curvature_root = rng.uniform(0.5, 2.0, size=(rows, head_dim))   # G
    w0 = rng.choice([-1.0, 1.0], size=(rows, head_dim))

    # empirical squared-gradient estimate from Rademacher linear losses
    samples = 8
    fisher = np.zeros_like(curvature_root)
    for _ in range(samples):
        signs = rng.choice([-1.0, 1.0], size=(rows, head_dim))
        grad = signs * curvature_root
        fisher += grad * grad
    fisher /= samples

    pairs = sorted(rng.choice(head_dim // 2, size=prune_count, replace=False).tolist())
    cols = RetainedIndex(tuple(pairs), scheme).rap_index
    sigma = np.array([fisher[:, [a, b]].sum() for a, b in zip(*scheme.column_arrays())])
    bound = 0.5 * eps * eps * float(sigma[pairs].sum())

    w = w0.copy()
    w[:, cols] *= (1.0 - eps)

    def quadratic_loss(mat):
        return 0.5 * float(np.sum((curvature_root * (mat - w0)) ** 2))

    delta = quadratic_loss(w) - quadratic_loss(w0)
    return BoundReport.from_values(pairs, delta, bound, slack=1e-9)
