"""Compressed weight construction and installation into the toy model.

Every compressed method factors each kv head's key and value projection
block as W ≈ A·B, one :class:`HeadFactor` per head and side. ``A`` holds the
latent columns the cache stores; the methods differ in ``B``:

* ``svd``: ``B`` is the dense second SVD factor of both keys and values, kept
  as a parameter and applied to the whole cache at every step.
* ``palu``: like ``svd`` for keys, but the value-side ``B`` is folded into the
  output projection, so values never get reconstructed.
* ``rap``: a key ``B`` is the 0/1 expansion of the retained rotation pairs,
  kept in index form; its transpose folds into the query projection as a
  column gather. Values go through the ``palu``-style absorbed SVD.

:func:`build_compressed` installs the factors latently and
:func:`reconstructed_reference` installs their dense products A·B; both read
the same factors. ``METHODS`` names these and ``baseline``, from the CLI flag
to manifests and checkpoints. Every rank comes from a budget plan (see
:func:`applied_plan`): a ratio converts to an integer pair count ``m`` per
(layer, side) and latent widths are ``2m`` for every method, which keeps the
measured FLOPs comparison across methods a pure reconstruction-overhead story.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .budget import BudgetPlan, uniform_plan
from .rope import RetainedIndex
from .scoring import PairScoreTable
from .toymodel import AttentionLayer, AttentionModel, LinearMap, ModelSpec

METHODS = ("baseline", "svd", "palu", "rap")
# the methods whose builds always take the uniform plan and read no scores
UNIFORM_METHODS = ("baseline", "svd", "palu")


@dataclass
class HeadFactor:
    """One kv head's W ≈ A·B: an SVD factor keeps ``b``, a rap one ``retained``."""

    a: np.ndarray                          # (model_dim, rank) latent columns
    b: np.ndarray | None = None            # (rank, head_dim), dense B
    retained: RetainedIndex | None = None  # B as retained pairs
    tail_energy: float = 0.0               # sum of squared discarded singular values

    @property
    def rank(self) -> int:
        return self.a.shape[1]

    def dense(self) -> np.ndarray:
        """A·B at full head width; a rap B is expanded only here."""
        b = self.b if self.retained is None else self.retained.expansion_matrix()
        return self.a @ b


def svd_factor(weight: np.ndarray, rank: int) -> HeadFactor:
    """Best Frobenius rank-``rank`` factorization, split as U*sqrt(S), sqrt(S)*V^T."""
    weight = np.asarray(weight, dtype=np.float64)
    max_rank = min(weight.shape)
    if not 1 <= rank <= max_rank:
        raise ValueError(f"rank must be in [1, {max_rank}], got {rank}")
    u, s, vt = np.linalg.svd(weight, full_matrices=False)
    root = np.sqrt(s[:rank])
    return HeadFactor(u[:, :rank] * root[None, :], root[:, None] * vt[:rank, :],
                      tail_energy=float(np.sum(s[rank:] ** 2)))


def top_pairs(sigma: np.ndarray, m: int) -> tuple[int, ...]:
    """Indices of the ``m`` highest-score pairs; ties keep the lower pair id."""
    sigma = np.asarray(sigma, dtype=np.float64)
    if not 1 <= m <= sigma.size:
        raise ValueError(f"retained pair count must be in [1, {sigma.size}]")
    order = np.argsort(-sigma, kind="stable")
    return tuple(sorted(int(i) for i in order[:m]))


def applied_plan(spec: ModelSpec, method: str, rho: float,
                 plan: BudgetPlan | None) -> BudgetPlan:
    """The plan a build of ``method`` follows.

    ``baseline`` retains every pair (the uniform plan at ratio 0). ``svd`` and
    ``palu`` always take the uniform plan at ``rho`` (no adaptive budget, no
    whitening), as does a build given no plan; otherwise the given plan stands.
    """
    if method in UNIFORM_METHODS or plan is None:
        return uniform_plan(spec.head_dim // 2, spec.layers,
                            0.0 if method == "baseline" else rho)
    return plan


def _head_factors(model: AttentionModel, method: str, rho: float,
                  scores: PairScoreTable | None, plan: BudgetPlan | None
                  ) -> tuple[BudgetPlan, list[tuple[list[HeadFactor], list[HeadFactor]]]]:
    """The plan applied and every layer's (key factors, value factors)."""
    spec = model.spec
    d = spec.head_dim
    plan = applied_plan(spec, method, rho, plan)
    if method == "rap" and scores is None:
        raise ValueError("rap needs pair scores to choose retained pairs")

    def heads(weight):
        return [weight[:, g * d:(g + 1) * d] for g in range(spec.kv_heads)]

    factors = []
    for i, layer in enumerate(model.layers):
        m_k, m_v = plan.retained_pairs(i, "k"), plan.retained_pairs(i, "v")
        k_blocks = heads(layer.k_map.merged_weight())
        if method == "rap":
            retained = [RetainedIndex(top_pairs(scores.get(i, "k", g), m_k),
                                      spec.rope.scheme) for g in range(spec.kv_heads)]
            keys = [HeadFactor(np.ascontiguousarray(block[:, r.rap_index]), retained=r)
                    for block, r in zip(k_blocks, retained)]
        else:
            keys = [svd_factor(block, 2 * m_k) for block in k_blocks]
        values = [svd_factor(block, 2 * m_v)
                  for block in heads(layer.v_map.merged_weight())]
        factors.append((keys, values))
    return plan, factors


def _stacked(blocks: list[np.ndarray], axis: int) -> LinearMap:
    return LinearMap(np.ascontiguousarray(np.concatenate(blocks, axis=axis)))


def build_compressed(model: AttentionModel, method: str, rho: float,
                     scores: PairScoreTable | None = None,
                     plan: BudgetPlan | None = None) -> AttentionModel:
    """Install a compression method into a fresh model at ratio ``rho``.

    ``rap`` follows the plan for both the key pair budget and the value rank,
    and needs scores to choose which pairs stay; ``svd`` and ``palu`` take
    the uniform plan (see :func:`applied_plan`).
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if not 0.0 <= rho < 1.0:
        raise ValueError(f"compression ratio must be in [0, 1), got {rho}")
    spec = model.spec
    if method == "baseline":
        layers = [AttentionLayer(layer.proj_q, layer.k_map, layer.v_map, layer.proj_o)
                  for layer in model.layers]
        return AttentionModel(spec, model.embedding, layers, method="baseline",
                              manifest={"method": "baseline", "rho": rho})

    plan, factors = _head_factors(model, method, rho, scores, plan)
    d = spec.head_dim
    query_heads = [(h, h // spec.group_size) for h in range(spec.query_heads)]
    layers, manifest_layers = [], []
    for layer, (keys, values) in zip(model.layers, factors):
        proj_q, proj_o = layer.proj_q, layer.proj_o
        k_recon = v_recon = k_retained = None
        if method == "rap":
            # B_k^T folds into W_q: each query head keeps its group's columns
            w_q = layer.proj_q.merged_weight()
            proj_q = _stacked([w_q[:, h * d:(h + 1) * d][:, keys[g].retained.rap_index]
                               for h, g in query_heads], axis=1)
            k_retained = [f.retained for f in keys]
            k_entry = {"mode": "rap",
                       "retained_pairs": [list(r.pairs) for r in k_retained],
                       "rap_index": [r.rap_index for r in k_retained]}
        else:
            k_recon = [f.b for f in keys]
            k_entry = {"mode": "svd", "rank": keys[0].rank}
        if method == "svd":
            v_recon = [f.b for f in values]
        else:
            # B_v folds into W_o: values flow latently into the output
            w_o = layer.proj_o.merged_weight()
            proj_o = _stacked([values[g].b @ w_o[h * d:(h + 1) * d, :]
                               for h, g in query_heads], axis=0)
        v_entry = {"mode": "svd" if method == "svd" else "svd_absorbed",
                   "rank": values[0].rank}
        layers.append(AttentionLayer(proj_q, _stacked([f.a for f in keys], axis=1),
                                     _stacked([f.a for f in values], axis=1), proj_o,
                                     k_recon=k_recon, v_recon=v_recon,
                                     k_retained=k_retained))
        manifest_layers.append({"k": k_entry, "v": v_entry})

    manifest = {"method": method, "rho": rho, "layers": manifest_layers}
    if method == "rap":
        manifest["retained_fraction_mean"] = float(np.mean(
            [len(f.retained) / (d // 2) for keys, _ in factors for f in keys]))
        manifest["plan"] = {
            "mode": plan.mode,
            "groups": [{"layer": l, "side": s, "ratio": plan.ratios[(l, s)],
                        "retained_pairs": plan.pair_counts[(l, s)]}
                       for l, s in plan.groups()],
        }
    return AttentionModel(spec, model.embedding, layers, method=method,
                          manifest=manifest)


def reconstructed_reference(model: AttentionModel, method: str, rho: float,
                            scores: PairScoreTable | None = None,
                            plan: BudgetPlan | None = None) -> AttentionModel:
    """Dense reconstruct-then-attend oracle for the same factorization.

    Builds the SAME factors as :func:`build_compressed` but installs them as
    plain full-width weights (A·B products, zeros at pruned columns) with
    the untouched query/output projections. Running the baseline forward on
    the result is the reference path every latent forward must match.
    """
    if method == "baseline":
        return build_compressed(model, "baseline", rho)
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    _, factors = _head_factors(model, method, rho, scores, plan)
    layers = [AttentionLayer(layer.proj_q, _stacked([f.dense() for f in keys], axis=1),
                             _stacked([f.dense() for f in values], axis=1), layer.proj_o)
              for layer, (keys, values) in zip(model.layers, factors)]
    return AttentionModel(model.spec, model.embedding, layers)
