"""Analytical resource model and instrumented measurement.

The closed forms cover the cost of producing one kv head's cache entries with
the full model-dimension input (baseline: cache 2SD, params 2HD^2, FLOPs
4SHD^2) and the per-method multipliers:

=========  =========  ================  ================
method     kv cache   parameters        FLOPs
=========  =========  ================  ================
baseline   1          1                 1
svd        r          r + r/H           r + r/H
palu       r          r + r/(2H)        r + r/(2H)
rap        r          r                 r
=========  =========  ================  ================

Measured numbers come from the tape's matmul counter of an instrumented
prefill. KV-projection FLOPs normalize per kv head per token (totals divided
by S * kv_heads * layers, which matches the closed form with H = query_heads
since the input width is the model dimension); attention-block FLOPs
normalize per query head per token (totals divided by S * query_heads *
layers). Only matmuls count; softmax and rotations are free. Attention-block
FLOPs count only the causal query blocks that run (``toymodel.QUERY_BLOCK``
rows each, against the keys they can see), so for seq_len > 64 they fall
below the n² count of a full score matrix.

Methods are named as in ``factorize.METHODS`` throughout, and a report carries
the ``method`` of the model it measured.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

from .budget import allocate
from .factorize import build_compressed
from .toymodel import AttentionModel, ModelSpec, forward_prefill

CSV_COLUMNS = ("method", "rho", "kv_entries", "params_attn", "params_attn_rel",
               "params_total", "flops_kvproj_analytic", "flops_kvproj_measured",
               "flops_attn_measured")


def method_factors(method: str, r: float, heads: int) -> dict[str, float]:
    """Per-method multipliers applied to the baseline triple."""
    if not 0.0 < r <= 1.0:
        raise ValueError(f"retained ratio must be in (0, 1], got {r}")
    if method == "rap":
        return {"kv_cache": r, "params": r, "flops": r}
    if method == "svd":
        return {"kv_cache": r, "params": r + r / heads, "flops": r + r / heads}
    if method == "palu":
        return {"kv_cache": r, "params": r + r / (2 * heads),
                "flops": r + r / (2 * heads)}
    if method == "baseline":
        return {"kv_cache": 1.0, "params": 1.0, "flops": 1.0}
    raise ValueError(f"unknown method {method!r}")


def analytic_kv_projection(method: str, r: float, heads: int, head_dim: int,
                           seq_len: int = 1) -> dict[str, float]:
    """Closed-form cache entries, parameters and FLOPs for one kv head."""
    base = {
        "kv_cache": 2.0 * seq_len * head_dim,
        "params": 2.0 * heads * head_dim ** 2,
        "flops": 4.0 * seq_len * heads * head_dim ** 2,
    }
    factors = method_factors(method, r, heads)
    return {key: base[key] * factors[key] for key in base}


@dataclass
class ResourceReport:
    method: str
    rho: float
    r: float
    seq_len: int
    kv_entries: int
    kv_entries_analytic: float
    params_attn: int
    params_attn_analytic: float
    params_attn_rel: float
    params_total: int
    flops_kvproj_analytic: float
    flops_kvproj_measured: float
    flops_kvproj_total: int
    flops_attn_measured: float
    flops_attn_total: int


def baseline_attention_params(spec: ModelSpec) -> int:
    dim = spec.model_dim
    kv = spec.kv_heads * spec.head_dim
    return spec.layers * (2 * dim * dim + 2 * dim * kv)


def analytic_attention_params(method: str, r: float, spec: ModelSpec) -> float:
    """Closed-form attention parameter count of the installed factorizations.

    Mirrors exactly what gets built at ratio r: query/output projections stay
    full unless absorption shrinks them, key/value sides carry their latent
    (and, where applicable, reconstruction) factors. Uses exact r, so the
    measured count matches whenever r maps to whole pairs.
    """
    dim = spec.model_dim
    d = spec.head_dim
    kv_lat = spec.layers * spec.kv_heads * dim * (r * d)       # one latent side
    recon = spec.layers * spec.kv_heads * (r * d) * d          # one recon side
    q_full = o_full = spec.layers * dim * dim
    if method == "baseline":
        return float(2 * q_full + 2 * spec.layers * spec.kv_heads * dim * d)
    if method == "svd":
        return float(q_full + o_full + 2 * kv_lat + 2 * recon)
    if method == "palu":
        return float(q_full + r * o_full + 2 * kv_lat + recon)
    if method == "rap":
        return float(r * (q_full + o_full) + 2 * kv_lat)
    raise ValueError(f"unknown method {method!r}")


def baseline_kv_entries(spec: ModelSpec, seq_len: int) -> int:
    return spec.layers * spec.kv_heads * 2 * seq_len * spec.head_dim


ATTENTION_TAGS = ("attn_q", "kv_proj", "attn_score", "attn_value", "attn_o")


def measure_forward(model: AttentionModel, tokens) -> ResourceReport:
    """Instrumented prefill: counters, cache dims and parameter counts; the
    analytic columns take the compression ratio from the model's manifest."""
    spec = model.spec
    result = forward_prefill(model, tokens)
    s = len(list(tokens))
    tags = result.tape.flops_by_tag
    kvproj_total = tags.get("kv_proj", 0)
    attn_total = sum(tags.get(t, 0) for t in ATTENTION_TAGS)

    rho = float(model.manifest["rho"])
    r = 1.0 - rho
    analytic = analytic_kv_projection(model.method, r, heads=spec.query_heads,
                                      head_dim=spec.head_dim, seq_len=1)
    analytic_cache = analytic_kv_projection(model.method, r,
                                            heads=spec.query_heads,
                                            head_dim=spec.head_dim,
                                            seq_len=s)["kv_cache"]

    params_attn = model.attention_params()
    return ResourceReport(
        method=model.method,
        rho=rho,
        r=r,
        seq_len=s,
        kv_entries=result.cache.entries(),
        kv_entries_analytic=analytic_cache * spec.layers * spec.kv_heads,
        params_attn=params_attn,
        params_attn_analytic=analytic_attention_params(model.method, r, spec),
        params_attn_rel=params_attn / baseline_attention_params(spec),
        params_total=model.total_params(),
        flops_kvproj_analytic=analytic["flops"],
        flops_kvproj_measured=kvproj_total / (s * spec.kv_heads * spec.layers),
        flops_kvproj_total=kvproj_total,
        flops_attn_measured=attn_total / (s * spec.query_heads * spec.layers),
        flops_attn_total=attn_total,
    )


def report_row(report: ResourceReport) -> str:
    values = (getattr(report, name) for name in CSV_COLUMNS)
    return ",".join(f"{v:.6f}" if isinstance(v, float) else str(v) for v in values)


def reports_to_csv(reports) -> str:
    lines = [",".join(CSV_COLUMNS)]
    lines.extend(report_row(r) for r in reports)
    return "\n".join(lines) + "\n"


def reports_to_json(reports) -> str:
    return json.dumps([asdict(r) for r in reports], sort_keys=True, indent=1)


def sweep(model: AttentionModel, methods, ratios, tokens, scores=None,
          budget_mode: str = "uniform") -> list[ResourceReport]:
    """One measured+analytic report per (method, rho), rows in given order;
    with ``scores``, each ratio's plan is ``allocate(scores, rho, budget_mode)``."""
    plans = ({rho: allocate(scores, rho, budget_mode) for rho in ratios}
             if scores is not None else {})
    return [measure_forward(build_compressed(model, method, rho, scores=scores,
                                             plan=plans.get(rho)), tokens)
            for method in methods for rho in ratios]
