"""Compressed weight construction and installation into the toy model.

Three compressed methods are built here, all per kv head:

* ``svd``: truncated SVD of both key and value projections; latents are cached
  and reconstructed to full width at every step (both reconstruction matrices
  stay as parameters).
* ``palu``: like ``svd`` for keys, but the value-side second factor is folded
  into the output projection, so values never get reconstructed.
* ``rap``: keys keep whole rotation pairs chosen by score (the second factor
  is a 0/1 expansion kept in index form and absorbed into the query
  projection); values go through the ``palu``-style absorbed SVD.

``METHODS`` names these and ``baseline``, from the CLI flag to manifests and
checkpoints. Every rank comes from a budget plan, uniform for ``svd`` and
``palu``: a ratio converts to an integer pair count ``m`` per (layer, side)
and latent widths are ``2m`` for every method, which keeps the measured FLOPs
comparison across methods a pure reconstruction-overhead story.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .budget import BudgetPlan, uniform_plan
from .rope import RetainedIndex
from .scoring import PairScoreTable
from .toymodel import AttentionLayer, AttentionModel, LinearMap, ModelSpec

METHODS = ("baseline", "svd", "palu", "rap")


@dataclass
class RapHeadFactorization:
    """Retained pairs and gathered columns for one kv head."""

    retained: RetainedIndex
    columns: np.ndarray          # A: (model_dim, 2m), original columns at rap_index

    @property
    def rap_index(self) -> list[int]:
        return self.retained.rap_index


@dataclass
class RapFactorization:
    """Per-layer, per-kv-head RAP pruning plus the absorbed query projections."""

    heads: list[list[RapHeadFactorization]]     # [layer][kv head]
    absorbed_q: list[np.ndarray]                # [layer], (model_dim, H_q * 2m)


@dataclass
class SvdFactorization:
    a: np.ndarray        # (rows, rank) = U sqrt(S)
    b: np.ndarray        # (rank, cols) = sqrt(S) V^T
    rank: int
    tail_energy: float   # sum of squared discarded singular values


def svd_factor(weight: np.ndarray, rank: int) -> SvdFactorization:
    """Best Frobenius rank-``rank`` factorization, split as U*sqrt(S), sqrt(S)*V^T."""
    weight = np.asarray(weight, dtype=np.float64)
    max_rank = min(weight.shape)
    if not 1 <= rank <= max_rank:
        raise ValueError(f"rank must be in [1, {max_rank}], got {rank}")
    u, s, vt = np.linalg.svd(weight, full_matrices=False)
    root = np.sqrt(s[:rank])
    a = u[:, :rank] * root[None, :]
    b = root[:, None] * vt[:rank, :]
    return SvdFactorization(a, b, rank, float(np.sum(s[rank:] ** 2)))


def top_pairs(sigma: np.ndarray, m: int) -> tuple[int, ...]:
    """Indices of the ``m`` highest-score pairs; ties keep the lower pair id."""
    sigma = np.asarray(sigma, dtype=np.float64)
    if not 1 <= m <= sigma.size:
        raise ValueError(f"retained pair count must be in [1, {sigma.size}]")
    order = np.argsort(-sigma, kind="stable")
    return tuple(sorted(int(i) for i in order[:m]))


def rap_prune(model: AttentionModel, scores: PairScoreTable,
              plan: BudgetPlan) -> RapFactorization:
    """Keep the highest-score rotation pairs of every key head per the plan."""
    spec = model.spec
    d = spec.head_dim
    heads: list[list[RapHeadFactorization]] = []
    absorbed: list[np.ndarray] = []
    for layer_idx, layer in enumerate(model.layers):
        m = plan.retained_pairs(layer_idx, "k")
        if m > d // 2:
            raise ValueError(f"cannot retain {m} of {d // 2} pairs")
        w_k = layer.k_map.merged_weight()
        per_head = []
        for g in range(spec.kv_heads):
            sigma = scores.get(layer_idx, "k", g)
            retained = RetainedIndex(top_pairs(sigma, m), spec.rope.scheme)
            block = w_k[:, g * d:(g + 1) * d]
            per_head.append(RapHeadFactorization(
                retained, np.ascontiguousarray(block[:, retained.rap_index])))
        heads.append(per_head)
        absorbed.append(absorb_into_query(layer.proj_q.merged_weight(),
                                          per_head, spec))
    return RapFactorization(heads, absorbed)


def absorb_into_query(w_q: np.ndarray, layer_heads: list[RapHeadFactorization],
                      spec: ModelSpec) -> np.ndarray:
    """Fold the expansion transpose into the query weights: a column gather.

    Every query head of a kv group keeps exactly the columns its group's
    retained pairs own, which equals the dense product W_q B_k^T.
    """
    d = spec.head_dim
    parts = []
    for h in range(spec.query_heads):
        fact = layer_heads[h // spec.group_size]
        block = w_q[:, h * d:(h + 1) * d]
        parts.append(block[:, fact.rap_index])
    return np.ascontiguousarray(np.concatenate(parts, axis=1))


@dataclass
class _LayerBuild:
    """The factors one layer's compression is assembled from."""

    k_rap: list[RapHeadFactorization] | None
    k_absorbed_q: np.ndarray | None
    k_svd: list[SvdFactorization] | None
    v_svd: list[SvdFactorization]
    v_absorbed: bool


def _plan_builds(model: AttentionModel, method: str, rho: float,
                 scores: PairScoreTable | None,
                 plan: BudgetPlan | None) -> tuple[BudgetPlan, list[_LayerBuild]]:
    spec = model.spec
    d = spec.head_dim
    if method != "rap" or plan is None:
        plan = uniform_plan(d // 2, spec.layers, rho)
    if method == "rap" and scores is None:
        raise ValueError("rap needs pair scores to choose retained pairs")
    rap = rap_prune(model, scores, plan) if method == "rap" else None

    builds = []
    for i, layer in enumerate(model.layers):
        w_k = layer.k_map.merged_weight()
        w_v = layer.v_map.merged_weight()
        if rap is not None:
            k_rap, k_q, k_svd = rap.heads[i], rap.absorbed_q[i], None
        else:
            k_rank = 2 * plan.retained_pairs(i, "k")
            k_rap, k_q = None, None
            k_svd = [svd_factor(w_k[:, g * d:(g + 1) * d], k_rank)
                     for g in range(spec.kv_heads)]
        v_rank = 2 * plan.retained_pairs(i, "v")
        v_svd = [svd_factor(w_v[:, g * d:(g + 1) * d], v_rank)
                 for g in range(spec.kv_heads)]
        builds.append(_LayerBuild(k_rap, k_q, k_svd, v_svd,
                                  v_absorbed=(method != "svd")))
    return plan, builds


def _absorb_output(w_o: np.ndarray, v_factors: list[SvdFactorization],
                   spec: ModelSpec) -> np.ndarray:
    """Stack B_v W_o head blocks: values then flow latently into the output."""
    d = spec.head_dim
    parts = []
    for h in range(spec.query_heads):
        b_v = v_factors[h // spec.group_size].b
        parts.append(b_v @ w_o[h * d:(h + 1) * d, :])
    return np.ascontiguousarray(np.concatenate(parts, axis=0))


def build_compressed(model: AttentionModel, method: str, rho: float,
                     scores: PairScoreTable | None = None,
                     plan: BudgetPlan | None = None) -> AttentionModel:
    """Install a compression method into a fresh model at ratio ``rho``.

    ``svd`` and ``palu`` use uniform pair-aligned ranks (no adaptive budget,
    no whitening); ``rap`` follows the plan for both the key pair
    budget and the value rank, and needs scores to choose which pairs stay.
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

    plan, builds = _plan_builds(model, method, rho, scores, plan)
    d = spec.head_dim
    layers = []
    manifest_layers = []
    for i, (layer, build) in enumerate(zip(model.layers, builds)):
        entry: dict = {}
        if build.k_rap is not None:
            k_map = LinearMap(np.concatenate([f.columns for f in build.k_rap], axis=1))
            k_recon = None
            k_retained = [f.retained for f in build.k_rap]
            proj_q = LinearMap(build.k_absorbed_q)
            entry["k"] = {
                "mode": "rap",
                "retained_pairs": [list(f.retained.pairs) for f in build.k_rap],
                "rap_index": [f.rap_index for f in build.k_rap],
            }
        else:
            k_map = LinearMap(np.concatenate([f.a for f in build.k_svd], axis=1))
            k_recon = [f.b for f in build.k_svd]
            k_retained = None
            proj_q = layer.proj_q
            entry["k"] = {"mode": "svd", "rank": build.k_svd[0].rank}

        v_map = LinearMap(np.concatenate([f.a for f in build.v_svd], axis=1))
        if build.v_absorbed:
            v_recon = None
            proj_o = LinearMap(_absorb_output(layer.proj_o.merged_weight(),
                                              build.v_svd, spec))
            entry["v"] = {"mode": "svd_absorbed", "rank": build.v_svd[0].rank}
        else:
            v_recon = [f.b for f in build.v_svd]
            proj_o = layer.proj_o
            entry["v"] = {"mode": "svd", "rank": build.v_svd[0].rank}

        layers.append(AttentionLayer(proj_q, k_map, v_map, proj_o,
                                     k_recon=k_recon, v_recon=v_recon,
                                     k_retained=k_retained))
        manifest_layers.append(entry)

    manifest = {"method": method, "rho": rho, "layers": manifest_layers}
    if method == "rap":
        manifest["retained_fraction_mean"] = float(np.mean(
            [len(b.retained) / (d // 2)
             for build in builds for b in build.k_rap]))
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
    plain full-width weights (A @ B products, zeros at pruned columns) with
    the untouched query/output projections. Running the baseline forward on
    the result is the reference path every latent forward must match.
    """
    if method == "baseline":
        return build_compressed(model, "baseline", rho)
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    spec = model.spec
    _, builds = _plan_builds(model, method, rho, scores, plan)
    layers = []
    for layer, build in zip(model.layers, builds):
        if build.k_rap is not None:
            w_k = np.concatenate(
                [f.columns @ f.retained.expansion_matrix() for f in build.k_rap],
                axis=1)
        else:
            w_k = np.concatenate([f.a @ f.b for f in build.k_svd], axis=1)
        w_v = np.concatenate([f.a @ f.b for f in build.v_svd], axis=1)
        layers.append(AttentionLayer(layer.proj_q, LinearMap(w_k),
                                     LinearMap(w_v), layer.proj_o))
    return AttentionModel(spec, model.embedding, layers)
