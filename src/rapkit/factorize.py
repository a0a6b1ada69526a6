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
the same factors. Since the methods differ only in ``B``, builds from one base
model share the arrays they have in common: each (layer, side, rank) SVD runs
once while a model built from it lives. The memo holds only weak references,
so a factor dies with the last model that uses it, and its keys carry a
SHA-256 digest of the weights factored, so a weight changed in place is
factored again. ``METHODS`` names these and ``baseline``, from the CLI flag
to the manifest a build writes (``toymodel.model_manifest``) and its
checkpoint carries. Every rank comes from a budget plan (see
:func:`applied_plan`): a ratio converts to an integer pair count ``m`` per
(layer, side) and latent widths are ``2m`` for every method, which keeps the
measured FLOPs comparison across methods a pure reconstruction-overhead story.
"""

from __future__ import annotations

import hashlib
import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .budget import BudgetPlan, uniform_plan
from .rope import RetainedIndex, check
from .scoring import PairScoreTable
from .toymodel import (METHODS, RATIO, AttentionLayer, AttentionModel, LinearMap, ModelSpec,
                       model_manifest)


@dataclass
class HeadFactor:
    """One kv head's W ≈ A·B: an SVD factor keeps ``b``, a rap one ``retained``."""

    a: np.ndarray                          # (model_dim, rank) latent columns
    b: np.ndarray | None = None            # (rank, head_dim), dense B
    retained: RetainedIndex | None = None  # B as retained pairs

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
    return HeadFactor(u[:, :rank] * root[None, :], root[:, None] * vt[:rank, :])


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
    if method != "rap" or plan is None:
        return uniform_plan(spec.head_dim // 2, spec.layers,
                            0.0 if method == "baseline" else rho)
    return plan


def _heads(spec: ModelSpec, weight: np.ndarray) -> list[np.ndarray]:
    d = spec.head_dim
    return [weight[:, g * d:(g + 1) * d] for g in range(spec.kv_heads)]


def _rap_keys(spec: ModelSpec, i: int, weight: np.ndarray, scores: PairScoreTable,
              m: int) -> list[HeadFactor]:
    """Layer ``i``'s rap key factors: each kv head keeps its ``m`` top pairs."""
    keys = []
    for g, block in enumerate(_heads(spec, weight)):
        retained = RetainedIndex(top_pairs(scores.get(i, "k", g), m), spec.rope.scheme)
        keys.append(HeadFactor(np.ascontiguousarray(block[:, retained.rap_index]),
                               retained=retained))
    return keys


def _checked(model: AttentionModel, method: str, rho: float,
             scores: PairScoreTable | None, plan: BudgetPlan | None) -> BudgetPlan:
    """The plan a build of ``method`` applies, once its arguments are checked."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    check("rho", rho, (float, RATIO))
    if method == "rap" and scores is None:
        raise ValueError("rap needs pair scores to choose retained pairs")
    return applied_plan(model.spec, method, rho, plan)


def _stacked(blocks: list[np.ndarray], axis: int) -> LinearMap:
    return LinearMap(np.ascontiguousarray(np.concatenate(blocks, axis=axis)))


# base model -> what its builds made from its factors, both held weakly
_SHARED: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _digest(weight: np.ndarray) -> tuple:
    return weight.shape, hashlib.sha256(weight).digest()


class _Factored:
    """Layer ``i``'s SVD of one side at one rank, and what builds make of it.

    Each part is looked up first in the base model's memo, under a key that
    holds the digest of every weight it is made from; the SVD runs only when
    a part must be made anew.
    """

    def __init__(self, memo, spec: ModelSpec, i: int, side: str, weight: np.ndarray,
                 rank: int):
        self.memo, self.key = memo, (i, side, rank) + _digest(weight)
        self.blocks, self.rank = _heads(spec, weight), rank

    @cached_property
    def heads(self) -> list[HeadFactor]:
        return [svd_factor(block, self.rank) for block in self.blocks]

    def _shared(self, part: tuple, make):
        key = self.key + part
        value = self.memo.get(key)
        if value is None:
            value = self.memo[key] = make()
        return value

    def latent(self) -> LinearMap:
        """Every head's A side by side: the map into the cached latents."""
        return self._shared(("a",), lambda: _stacked([f.a for f in self.heads], axis=1))

    def b_stack(self) -> np.ndarray:
        """Every head's B as one (H_kv, rank, D) stack."""
        return self._shared(("b",), lambda: np.stack([f.b for f in self.heads]))

    def absorbed(self, w_o: np.ndarray, query_heads) -> LinearMap:
        """``w_o`` with each query head's rows premultiplied by its group's B."""
        def make():
            b = self.b_stack()
            d = b.shape[2]
            return _stacked([b[g] @ w_o[h * d:(h + 1) * d, :] for h, g in query_heads],
                            axis=0)
        return self._shared(("o",) + _digest(w_o), make)


def build_compressed(model: AttentionModel, method: str, rho: float,
                     scores: PairScoreTable | None = None,
                     plan: BudgetPlan | None = None) -> AttentionModel:
    """Install a compression method into a fresh model at ratio ``rho``.

    ``rap`` follows the plan for both the key pair budget and the value rank,
    and needs scores to choose which pairs stay; ``svd`` and ``palu`` take
    the uniform plan (see :func:`applied_plan`).

    Builds from one base model share what they have in common rather than
    copy it: svd and palu the key latent map and key B stack, all three the
    value latent map, palu and rap the absorbed output projection, as
    baseline, svd and palu share the base's untouched projections. Each
    layer side's SVD runs once while some sibling still holds its arrays.
    """
    plan = _checked(model, method, rho, scores, plan)
    spec = model.spec
    if method == "baseline":
        layers = [AttentionLayer(layer.proj_q, layer.k_map, layer.v_map, layer.proj_o)
                  for layer in model.layers]
        return AttentionModel(spec, model.embedding, layers,
                              model_manifest(spec, method, rho, layers))

    memo = _SHARED.setdefault(model, weakref.WeakValueDictionary())
    d = spec.head_dim
    query_heads = [(h, h // spec.group_size) for h in range(spec.query_heads)]
    layers = []
    for i, layer in enumerate(model.layers):
        m_k, m_v = plan.retained_pairs(i, "k"), plan.retained_pairs(i, "v")
        w_k, w_v = layer.k_map.merged_weight(), layer.v_map.merged_weight()
        values = _Factored(memo, spec, i, "v", w_v, 2 * m_v)
        v_map = values.latent()
        proj_q, proj_o = layer.proj_q, layer.proj_o
        k_recon = v_recon = k_retained = None
        if method == "rap":
            keys = _rap_keys(spec, i, w_k, scores, m_k)
            k_map = _stacked([f.a for f in keys], axis=1)
            # B_k^T folds into W_q: each query head keeps its group's columns
            w_q = layer.proj_q.merged_weight()
            proj_q = _stacked([w_q[:, h * d:(h + 1) * d][:, keys[g].retained.rap_index]
                               for h, g in query_heads], axis=1)
            k_retained = [f.retained for f in keys]
        else:
            keys = _Factored(memo, spec, i, "k", w_k, 2 * m_k)
            k_map, k_recon = keys.latent(), keys.b_stack()
        if method == "svd":
            v_recon = values.b_stack()
        else:
            # B_v folds into W_o: values flow latently into the output
            proj_o = values.absorbed(layer.proj_o.merged_weight(), query_heads)
        layers.append(AttentionLayer(proj_q, k_map, v_map, proj_o, k_recon=k_recon,
                                     v_recon=v_recon, k_retained=k_retained))

    return AttentionModel(spec, model.embedding, layers,
                          model_manifest(spec, method, rho, layers, plan.mode, plan.ratios))


def reconstructed_reference(model: AttentionModel, method: str, rho: float,
                            scores: PairScoreTable | None = None,
                            plan: BudgetPlan | None = None) -> AttentionModel:
    """Dense reconstruct-then-attend oracle for the same factorization.

    Builds the SAME factors as :func:`build_compressed` but installs them as
    plain full-width weights (A·B products, zeros at pruned columns) with
    the untouched query/output projections. Running the baseline forward on
    the result is the reference path every latent forward must match. It
    factors anew and shares nothing with the latent builds.
    """
    plan = _checked(model, method, rho, scores, plan)
    if method == "baseline":
        return build_compressed(model, "baseline", rho)
    spec = model.spec
    layers = []
    for i, layer in enumerate(model.layers):
        m_k, m_v = plan.retained_pairs(i, "k"), plan.retained_pairs(i, "v")
        w_k = layer.k_map.merged_weight()
        keys = (_rap_keys(spec, i, w_k, scores, m_k) if method == "rap"
                else [svd_factor(b, 2 * m_k) for b in _heads(spec, w_k)])
        values = [svd_factor(b, 2 * m_v)
                  for b in _heads(spec, layer.v_map.merged_weight())]
        layers.append(AttentionLayer(layer.proj_q, _stacked([f.dense() for f in keys], 1),
                                     _stacked([f.dense() for f in values], 1),
                                     layer.proj_o))
    return AttentionModel(spec, model.embedding, layers)
