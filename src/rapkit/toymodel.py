"""A deterministic toy decoder attention LM with pluggable KV representations.

The model is a pure chain: token embedding -> L causal attention layers ->
tied output head. There are no MLP blocks, biases, layer norms or residual
streams; the compression machinery only touches attention projections, so
anything else would add noise without coverage.

Prefill and decode run the same per-layer step: it appends the n new rows at
positions [t, t+n) to the layer's cache and attends over the whole cache with
a causal mask offset by t. Prefill is n = S on an empty cache, decode is
n = 1, so decode reproduces the matching prefill row by construction.

A layer rotates all its query heads inside their projection's node, and
all its new keys inside theirs (svd keys rotate inside their rebuild's
node instead, every cached key at every step). All kv heads then attend,
each for its G query heads, in one :meth:`numcore.Tape.attention` node: the
queries stack as (H_kv, n·G, qw), the keys and values as (H_kv, T, width)
views of the cache, so a step records as many nodes whatever H_kv is. A long
prefill runs it kv head by kv head, on two threads where it can, a decode
step stacked. FLOPs count exactly what per-head matmuls would.

The n new rows attend in query blocks of at most ``QUERY_BLOCK`` (64) rows.
Block [i0, i1) scores only the keys it can see, [0, t+i1), so the masked
upper part of a long prefill is neither computed nor counted. In one window
every key before t+i0 is visible, so the mask is only the block's diagonal
tile, a slice of one causal tile; a batch of windows keeps the block's full
mask rows. A decode step, and any pass of at most 64 rows, is one block over
every key.

Each layer caches its keys in one row buffer and its values in another, the
kv heads side by side (H_kv·width columns), read as an (H_kv, T, width)
view. A pass appends its rows to each buffer in place, and one that needs
more rows than a buffer holds first grows it to the larger of the rows
needed and twice its capacity, copying the cached rows once; so a prefill of
S rows fills buffers of S rows exactly, the first decode step doubles them,
and T decode steps copy O(T) rows in total instead of O(T^2). The cache
keeps the rotation angles of its positions in two more row buffers, grown
alike and in the form the rotation kernel reads
(:func:`numcore.pair_tables`), so a pass builds the tables of its new rows
only, once for every layer, also for the svd layers that rotate every
cached key.

Without a caller tape, a forward pass runs on a non-recording tape: it counts
FLOPs and keeps no autodiff record. That is why weights are checked once,
when a model is built or loaded, and not at every pass.

Each layer can run with full-dimension keys/values or with latent (compressed)
ones, and the arrays it holds (``ROLES``) say which:

* full keys: cache stores rotated full-width keys;
* rap keys (``k_retained``): cache stores index-rotated retained-pair latents,
  queries go through the absorbed projection, no reconstruction ever happens;
* svd and palu keys (``k_recon``): cache stores unrotated latents, every
  attention step reconstructs all cached keys to full width (the matmul is
  counted) and rotates them, tile by tile, as they are rebuilt;
* values: latent values either get reconstructed per step (``v_recon``
  present) or flow straight into an absorbed output projection.

The mode strings ``rap``, ``svd`` and ``svd_absorbed`` live only in
:func:`layer_entry`'s manifest entries.

Attention scores always scale by 1/sqrt(D) with the ORIGINAL head dimension,
also after pruning; the latent paths then reproduce full-dimension references
exactly instead of approximately.

A ``rapkit-model-v2`` checkpoint carries the model's :func:`model_manifest`
and array list: ``load_model`` checks the header against ``HEADER_FIELDS``,
takes each layer's widths from its ``L{i}.k`` and ``L{i}.v`` shapes, holds
every shape to :func:`layer_shapes` and refuses a manifest the arrays do not give.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .numcore import Matrix, Node, Tape, as_matrix, pair_tables
from .rope import HALF_SPLIT, ROPE_FIELDS, PairingScheme, RetainedIndex, RopeConfig, check

# query rows a layer step attends at once (see the module docstring)
QUERY_BLOCK = 64


@dataclass(frozen=True)
class ModelSpec:
    """Dimensions and seeds of the toy LM.

    ``query_heads`` must be a multiple of ``kv_heads`` (grouped-query
    attention); the model dimension is ``query_heads * head_dim``.
    """

    layers: int
    query_heads: int
    kv_heads: int
    head_dim: int
    vocab: int
    rope: RopeConfig
    seed: int = 42

    def __post_init__(self):
        check("spec", spec_to_json(self), SPEC_FIELDS)
        if self.query_heads % self.kv_heads != 0:
            raise ValueError("query_heads must be divisible by kv_heads")
        if self.rope.scheme.head_dim != self.head_dim:
            raise ValueError("rope scheme head_dim must match model head_dim")

    @property
    def model_dim(self) -> int:
        return self.query_heads * self.head_dim

    @property
    def group_size(self) -> int:
        return self.query_heads // self.kv_heads


def default_spec(seed: int = 42, pairing: str = "adjacent") -> ModelSpec:
    """Desk-scale default: 2 layers, 4 query / 2 kv heads, head dim 8, vocab 64."""
    scheme = PairingScheme(pairing, 8)
    return ModelSpec(
        layers=2,
        query_heads=4,
        kv_heads=2,
        head_dim=8,
        vocab=64,
        rope=RopeConfig(theta_base=10000.0, scheme=scheme),
        seed=seed,
    )


class LinearMap:
    """Projection ``y = x @ w`` whose weight registers as a named tape leaf."""

    def __init__(self, weight):
        self.weight = as_matrix(weight)

    def apply(self, tape: Tape, x: Node, name: str, tag: str | None = None,
              rotate: tuple | None = None) -> Node:
        w = tape.leaf(self.weight, name)
        return tape.matmul(x, w, tag=tag, rotate=rotate)

    def merged_weight(self) -> Matrix:
        return self.weight


def _recon_stack(recon) -> np.ndarray | None:
    """A (H_kv, width, D) float64 stack; a ready one is kept, not copied."""
    if recon is None:
        return None
    stack = np.ascontiguousarray(recon, dtype=np.float64)
    if stack.ndim != 3 or not np.all(np.isfinite(stack)):
        raise ValueError("reconstruction factors must be finite (width, D) matrices")
    return stack


@dataclass
class AttentionLayer:
    """One attention layer; the mode of each side follows from what is set."""

    proj_q: LinearMap                 # dim x (H_q * q_width)
    k_map: LinearMap                  # dim x (H_kv * k_width)
    v_map: LinearMap                  # dim x (H_kv * v_width)
    proj_o: LinearMap                 # (H_q * o_width) x dim
    k_recon: np.ndarray | None = None   # (H_kv, k_width, D), or one matrix per kv head
    v_recon: np.ndarray | None = None   # (H_kv, v_width, D), or one matrix per kv head
    k_retained: list[RetainedIndex] | None = None  # per kv head, rap mode
    pair_ids: np.ndarray | None = field(init=False, default=None)  # rap: (H_kv, m)
    # rap: the columns of the kept pairs in a cache's cos table, (H_kv, 2m)
    # for adjacent pairs (both of each pair's columns), else pair_ids
    cos_ids: np.ndarray | None = field(init=False, default=None)

    def __post_init__(self):
        self.k_recon = _recon_stack(self.k_recon)
        self.v_recon = _recon_stack(self.v_recon)
        if self.k_retained is not None:
            self.pair_ids = ids = np.array([r.pairs for r in self.k_retained])
            self.cos_ids = (ids if self.k_retained[0].scheme.kind == HALF_SPLIT
                            else (2 * ids[..., None] + [0, 1]).reshape(len(ids), -1))


class AttentionModel:
    """Toy LM, and the container of compressed variants; a model given no
    ``manifest`` is a baseline that pruned nothing (rho 0)."""

    def __init__(self, spec: ModelSpec, embedding, layers, manifest: dict | None = None):
        self.spec = spec
        self.embedding = as_matrix(embedding, rows=spec.vocab, cols=spec.model_dim)
        self.layers = list(layers)
        self.manifest = manifest or {"method": "baseline", "rho": 0.0}
        self.method = self.manifest["method"]

    @classmethod
    def build(cls, spec: ModelSpec) -> "AttentionModel":
        rng = np.random.default_rng(spec.seed)
        std = 1.0 / np.sqrt(spec.model_dim)
        embedding = rng.normal(0.0, 1.0, size=(spec.vocab, spec.model_dim))
        shapes = layer_shapes(spec, "baseline", spec.head_dim, spec.head_dim)
        # drawn in checkpoint order: q, k, v, o
        return cls(spec, embedding, [
            AttentionLayer(**{f: LinearMap(rng.normal(0.0, std, size=shapes[r]))
                              for r, f in ROLES.items() if r in shapes})
            for _ in range(spec.layers)])

    # -- accounting ----------------------------------------------------------

    def total_params(self) -> int:
        """The float64s :func:`save_model` writes; adapters are merged to be listed."""
        return sum(int(a.size) for _, a in model_arrays(self))

    def attention_params(self) -> int:
        return self.total_params() - int(self.embedding.size)


def _grown(buf: np.ndarray, t: int, rows: int) -> np.ndarray:
    """``buf`` if it holds ``rows`` rows, else a buffer of its dtype and
    max(rows, twice its capacity) rows holding a copy of its first t rows."""
    if rows <= buf.shape[0]:
        return buf
    out = np.empty((max(rows, 2 * buf.shape[0]), buf.shape[1]), buf.dtype)
    out[:t] = buf[:t]
    return out


class KvCache:
    """One key and one value row buffer per layer, each holding the layer's
    kv heads side by side (H_kv·width columns), and the angle tables of every
    position; single-writer, grows on decode. Rows [0, length) are cached,
    and each pass computes the angles of its new rows only.

    ``cos`` and ``sin`` hold the angles in the form the rotation kernel reads
    (:func:`numcore.pair_tables`): for adjacent pairs cos over both columns
    of each pair and the complex −0 + i·sin, for half-split pairs the plain
    rows. A pass writes its positions' rows once, for every layer to read.
    """

    def __init__(self, model: AttentionModel):
        self.model = model
        self.k_bufs = [np.empty((0, layer.k_map.weight.shape[1])) for layer in model.layers]
        self.v_bufs = [np.empty((0, layer.v_map.weight.shape[1])) for layer in model.layers]
        empty = np.empty((0, model.spec.head_dim // 2))
        self.cos, self.sin, self.half_split = pair_tables(
            empty, empty, model.spec.rope.scheme.kind == HALF_SPLIT)
        self.length = 0

    def reserve(self, rows: int):
        """Make every buffer hold ``rows`` rows, doubling the ones that do not."""
        self.k_bufs = [_grown(b, self.length, rows) for b in self.k_bufs]
        self.v_bufs = [_grown(b, self.length, rows) for b in self.v_bufs]
        self.cos, self.sin = (_grown(b, self.length, rows) for b in (self.cos, self.sin))

    def entries(self) -> int:
        """Total cached scalars at the current length."""
        return self.length * sum(b.shape[1] for b in self.k_bufs + self.v_bufs)


@dataclass
class PrefillResult:
    logits: Matrix
    cache: KvCache
    tape: Tape
    logits_node: Node


def _causal_mask(n: int, windows: int = 1) -> np.ndarray:
    """Hides later rows from earlier ones among n new rows, and each of
    ``windows`` equal windows from the other windows."""
    rows, cols = np.arange(n)[:, None], np.arange(n)
    size = n // windows
    return np.where((cols > rows) | (cols // size < rows // size), -np.inf, 0.0)


def _query_blocks(n: int, windows: int) -> list[tuple[int, int, np.ndarray | None]]:
    """(i0, i1, mask) of each query block of n new rows: the mask covers the
    trailing columns of the block's scores, the (i1-i0)² diagonal tile in one
    window (a slice of one causal tile), all i1 columns for a batch of
    windows (which start at t = 0)."""
    if n == 1:
        return [(0, 1, None)]
    mask = _causal_mask(min(n, QUERY_BLOCK)) if windows == 1 else _causal_mask(n, windows)
    edges = [(i0, min(i0 + QUERY_BLOCK, n)) for i0 in range(0, n, QUERY_BLOCK)]
    return [(i0, i1, mask[:i1 - i0, :i1 - i0] if windows == 1 else mask[i0:i1, :i1])
            for i0, i1 in edges]


def _heads(tape: Tape, a: Node, kv_heads: int) -> Node:
    """rows x (H_kv·w) as the (H_kv, rows, w) view of each kv head's columns"""
    return tape.swapaxes(tape.reshape(a, a.value.shape[0], kv_heads, -1), 0, 1)


def _projections(model: AttentionModel, tape: Tape, x: Node, idx: int,
                 cos, sin, cache: KvCache) -> tuple[Node, Node, Node]:
    """Layer ``idx``'s queries of the n rows of ``x``, as an (H_kv, n·G, qw)
    stack whose row i·G + j of a kv head is token i, query head j of its
    group, and its keys and values, the cache's rows [0, t+n) once each
    side's new rows at positions [t, t+n) join its buffer in one append.
    The new rows take the last n rows of the angle tables ``cos``/``sin``.
    """
    spec, layer, t, n = model.spec, model.layers[idx], cache.length, x.value.shape[0]
    # one angle row per kv head (rap heads keep their own pairs), or one for
    # all heads; a group's query heads turn like its kv head's keys, and both
    # turn inside their projection
    turn = (cos[-n:, layer.cos_ids], sin[-n:, layer.pair_ids], cache.half_split)
    # a copy; no name holds the projection past it
    queries = tape.reshape(_heads(tape, layer.proj_q.apply(tape, x, f"L{idx}.q", tag="attn_q",
                                                           rotate=turn), spec.kv_heads),
                           spec.kv_heads, n * spec.group_size, -1)
    # svd latents are cached unrotated
    k_new = layer.k_map.apply(tape, x, f"L{idx}.k", tag="kv_proj",
                              rotate=None if layer.k_recon is not None else turn)
    v_new = layer.v_map.apply(tape, x, f"L{idx}.v", tag="kv_proj")
    return (queries, tape.append_rows(cache.k_bufs[idx], t, k_new),
            tape.append_rows(cache.v_bufs[idx], t, v_new))


def _layer_step(model: AttentionModel, tape: Tape, queries: Node, k_all: Node, v_all: Node,
                idx: int, cos, sin, blocks, cache: KvCache) -> Node:
    """Layer ``idx``'s output for its :func:`_projections`: attention over
    the whole cache.

    ``cos``/``sin`` are the cache's angle table rows [0, t+n), all of which
    svd layers read, as they rotate every cached key. ``blocks`` are the
    :func:`_query_blocks` of the n new rows, which one attention node runs.
    """
    spec = model.spec
    layer = model.layers[idx]
    kv_heads, n = spec.kv_heads, queries.value.shape[1] // spec.group_size

    keys, values = _heads(tape, k_all, kv_heads), _heads(tape, v_all, kv_heads)
    if layer.k_recon is not None:
        # every step rebuilds all keys and rotates them while fresh, in one node
        recon = tape.leaf(layer.k_recon, f"L{idx}.k_b")
        keys = tape.matmul(keys, recon, tag="kv_proj",
                           rotate=(cos[:, None], sin[:, None], cache.half_split))
    if layer.v_recon is not None:
        values = tape.matmul(values, tape.leaf(layer.v_recon, f"L{idx}.v_b"), tag="kv_proj")

    out = tape.attention(queries, keys, values, 1.0 / np.sqrt(spec.head_dim), blocks,
                         tags=("attn_score", "attn_value"))
    # (H_kv, n·G, vw) -> (n, H_q·vw): token rows, query heads side by side
    merged = tape.reshape(tape.swapaxes(tape.reshape(out, kv_heads, n, -1), 0, 1), n, -1)
    return layer.proj_o.apply(tape, merged, f"L{idx}.o", tag="attn_o")


def _check_tokens(spec: ModelSpec, tokens) -> list[int]:
    toks = [int(t) for t in tokens]
    if not toks:
        raise ValueError("token sequence must be non-empty")
    if any(t < 0 or t >= spec.vocab for t in toks):
        raise ValueError("token out of vocabulary")
    return toks


def _forward(model: AttentionModel, cache: KvCache, toks: list[int], tape: Tape,
             windows: int = 1) -> Node:
    """Logits node of ``toks`` appended to ``cache`` at positions [t, t+n);
    ``windows`` > 1 equal windows on an empty cache each start at position 0."""
    spec = model.spec
    t, n = cache.length, len(toks)
    cache.reserve(t + n)
    cache.cos[t:t + n], cache.sin[t:t + n], _ = pair_tables(*spec.rope.angle_tables(
        np.arange(t, t + n) % ((t + n) // windows)), cache.half_split)
    cos, sin = cache.cos[:t + n], cache.sin[:t + n]
    blocks = _query_blocks(n, windows)

    emb = tape.leaf(model.embedding, "embedding")
    x = tape.gather_rows(emb, toks)
    for idx in range(spec.layers):
        queries, keys, values = _projections(model, tape, x, idx, cos, sin, cache)
        del x   # only the projections read a layer's input
        x = _layer_step(model, tape, queries, keys, values, idx, cos, sin, blocks, cache)
    cache.length = t + n
    return tape.matmul(x, tape.transpose(emb), tag="lm_head")


def forward_prefill(model: AttentionModel, tokens, tape: Tape | None = None) -> PrefillResult:
    """Run causal attention over the whole sequence, filling a fresh cache.

    Without ``tape`` the pass runs on a non-recording tape: the result's
    ``tape`` carries the FLOP counts and no nodes.
    """
    toks = _check_tokens(model.spec, tokens)
    tape = tape if tape is not None else Tape(record=False)
    cache = KvCache(model)
    logits_node = _forward(model, cache, toks, tape)
    return PrefillResult(logits_node.value.copy(), cache, tape, logits_node)


def forward_decode(model: AttentionModel, cache: KvCache, token: int,
                   tape: Tape | None = None) -> tuple[Matrix, KvCache]:
    """Append one token to the cache and return the next-token logits; without
    ``tape`` the step runs on a non-recording tape."""
    if cache.model is not model:
        raise ValueError("cache was built for a different model")
    toks = _check_tokens(model.spec, [token])
    tape = tape if tape is not None else Tape(record=False)
    logits_node = _forward(model, cache, toks, tape)
    return logits_node.value.copy(), cache


def loss_forward(model: AttentionModel, windows,
                 tape: Tape | None = None) -> tuple[Node, Tape]:
    """Mean next-token cross entropy as a differentiable tape node.

    ``windows`` is one token sequence, or a list of B equal-length ones that
    run as one pass of B·S rows. The loss is the mean over every predicted
    row, which is the mean of the per-window losses.
    """
    if not len(windows) or np.ndim(windows[0]) == 0:
        windows = [windows]
    seqs = [_check_tokens(model.spec, w) for w in windows]
    sizes = sorted({len(w) for w in seqs})
    if len(sizes) > 1 or sizes[0] < 2:
        raise ValueError("a next-token loss needs windows of one length of at "
                         f"least 2 tokens, got lengths {sizes}")
    tape = tape if tape is not None else Tape()
    toks = [tok for w in seqs for tok in w]
    rows = [i for i in range(len(toks)) if (i + 1) % sizes[0]]  # not a window's last
    logits = _forward(model, KvCache(model), toks, tape, windows=len(seqs))
    loss = tape.cross_entropy(tape.gather_rows(logits, rows), [toks[i + 1] for i in rows])
    return loss, tape


def loss_ce(model: AttentionModel, tokens) -> float:
    loss, _ = loss_forward(model, tokens, Tape(record=False))
    return float(loss.value[0, 0])


def mean_loss(model: AttentionModel, sequences) -> float:
    """Mean of loss_ce over an iterable of sequences, in iteration order."""
    seqs = list(sequences)
    if not seqs:
        raise ValueError("no sequences given")
    return float(np.mean([loss_ce(model, s) for s in seqs]))


# -- calibration data ---------------------------------------------------------


@dataclass(frozen=True)
class CalibrationSet:
    """Seeded synthetic token windows used for scoring and distillation."""

    sequences: tuple[tuple[int, ...], ...]
    seed: int

    @property
    def count(self) -> int:
        return len(self.sequences)

    @property
    def window(self) -> int:
        return len(self.sequences[0]) if self.sequences else 0

    def __iter__(self):
        return iter(self.sequences)


# a seed, as numpy's generators take it
SEED = (int, "[0, inf)")
# a calibration set's settings, as markov_calibration takes them
CALIBRATION_FIELDS = {"count": (int, "[1, inf)"), "window": (int, "[2, inf)"), "seed": SEED}


def markov_calibration(vocab: int, count: int = 16, window: int = 64,
                       seed: int = 42) -> CalibrationSet:
    """Token streams from a fixed-order Markov chain; deterministic per seed.

    The transition rows are sparse-ish Dirichlet draws so the streams carry
    learnable structure (scores and distillation need non-degenerate signal).
    """
    check("calibration", {"count": count, "window": window, "seed": seed},
          CALIBRATION_FIELDS)
    rng = np.random.default_rng(seed)
    transitions = rng.dirichlet(np.full(vocab, 0.25), size=vocab)
    # the cumulative rows end to end; bisect reads a row's floats in place
    cumulative = memoryview(np.cumsum(transitions, axis=1).ravel())
    sequences = []
    for _ in range(count):
        state = int(rng.integers(vocab))
        seq = [state]
        # one draw of the window's uniforms gives the same doubles as one per step
        for u in rng.random(window - 1).tolist():
            start = state * vocab
            state = min(bisect_left(cumulative, u, start, start + vocab) - start, vocab - 1)
            seq.append(state)
        sequences.append(tuple(seq))
    return CalibrationSet(tuple(sequences), seed)


# -- serialization ------------------------------------------------------------


def spec_to_json(spec: ModelSpec) -> dict:
    return {
        "layers": spec.layers,
        "query_heads": spec.query_heads,
        "kv_heads": spec.kv_heads,
        "head_dim": spec.head_dim,
        "vocab": spec.vocab,
        "theta_base": spec.rope.theta_base,
        "pairing": spec.rope.scheme.kind,
        "seed": spec.seed,
    }


# the fields spec_to_json writes; ModelSpec checks itself through them
SPEC_FIELDS = {"layers": (int, "[1, inf)"), "query_heads": (int, "[1, inf)"),
               "kv_heads": (int, "[1, inf)"), "vocab": (int, "[2, inf)"), **ROPE_FIELDS,
               "seed?": SEED}


def spec_from_json(data: dict, name: str = "spec") -> ModelSpec:
    """The spec ``spec_to_json`` wrote; ``seed`` may be left out (42).

    A field that breaks ``SPEC_FIELDS``, or a spec that fails a check across
    its fields, raises a ValueError naming ``name``.
    """
    check(name, data, SPEC_FIELDS)
    try:
        return ModelSpec(
            layers=data["layers"],
            query_heads=data["query_heads"],
            kv_heads=data["kv_heads"],
            head_dim=data["head_dim"],
            vocab=data["vocab"],
            rope=RopeConfig(data["theta_base"],
                            PairingScheme(data["pairing"], data["head_dim"])),
            seed=data.get("seed", 42),
        )
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None


METHODS = ("baseline", "svd", "palu", "rap")
# the modes of a budget plan, as a rap manifest records them
BUDGET_MODES = ("adaptive", "uniform")
# a compression ratio, for rho and sweep ratios alike, as build_compressed takes it
RATIO = "[0, 1)"
# a plan group's ratio, which the budget projection clamps to [0, 1]
GROUP_RATIO = "[0, 1]"


def layer_entry(spec: ModelSpec, layer: AttentionLayer) -> dict:
    """A compressed layer's manifest entry, read off its arrays: each side's
    mode and width per kv head (``rank``), or a rap key's retained pairs."""
    if layer.k_retained is not None:
        k = {"mode": "rap", "retained_pairs": [list(r.pairs) for r in layer.k_retained],
             "rap_index": [r.rap_index for r in layer.k_retained]}
    else:
        k = {"mode": "svd", "rank": layer.k_map.weight.shape[1] // spec.kv_heads}
    return {"k": k, "v": {"mode": "svd" if layer.v_recon is not None else "svd_absorbed",
                          "rank": layer.v_map.weight.shape[1] // spec.kv_heads}}


def model_manifest(spec: ModelSpec, method: str, rho: float, layers, mode=None,
                   ratios=None) -> dict:
    """A ``method`` model's manifest: each compressed layer's :func:`layer_entry`
    and, for rap, the mean kept share of key pairs and the plan, whose ``mode``
    and per-(layer, side) ``ratios`` alone are not read off the layers."""
    manifest = {"method": method, "rho": rho}
    if method != "baseline":
        manifest["layers"] = [layer_entry(spec, layer) for layer in layers]
    if method == "rap":
        manifest["retained_fraction_mean"] = float(np.mean(
            [len(r) / (spec.head_dim // 2) for layer in layers for r in layer.k_retained]))
        manifest["plan"] = {"mode": mode, "groups": [
            {"layer": i, "side": s, "ratio": ratios.get((i, s)), "retained_pairs":
             len(e["k"]["retained_pairs"][0]) if s == "k" else e["v"]["rank"] // 2}
            for i, e in enumerate(manifest["layers"]) for s in "kv"]}
    return manifest


# each array of a layer by its role in weight names ("L0.k_b", "L0.q.lora_up"),
# in checkpoint order, and the AttentionLayer field that holds it: a LinearMap,
# or a reconstruction stack that only svd and palu keys and svd values hold
ROLES = {"q": "proj_q", "k": "k_map", "k_b": "k_recon", "v": "v_map", "v_b": "v_recon",
         "o": "proj_o"}


def held(layer: AttentionLayer) -> list[tuple[str, LinearMap | np.ndarray]]:
    """(role, field) of every array ``layer`` holds, in checkpoint order."""
    return [(r, getattr(layer, f)) for r, f in ROLES.items() if getattr(layer, f) is not None]


def model_arrays(model: AttentionModel) -> list[tuple[str, np.ndarray]]:
    """Every parameter array of ``model`` by name, in checkpoint order."""
    return [("embedding", model.embedding)] + [
        (f"L{i}.{r}", a.merged_weight() if isinstance(a, LinearMap) else a)
        for i, layer in enumerate(model.layers) for r, a in held(layer)]


def layer_shapes(spec: ModelSpec, method: str, k_width: int, v_width: int) -> dict:
    """The shape of each array of a ``method`` layer by role, its keys and
    values ``k_width`` and ``v_width`` wide per kv head (a baseline's are
    ``head_dim``); rap queries are as narrow as its keys, B being absorbed.
    The k and v shapes, which give a checkpoint's widths, come first."""
    d, kv, heads, dim = spec.head_dim, spec.kv_heads, spec.query_heads, spec.model_dim
    if method == "baseline":
        k_width = v_width = d
    shapes = {"k": (dim, kv * k_width), "v": (dim, kv * v_width),
              "q": (dim, heads * (k_width if method == "rap" else d))}
    if method in ("svd", "palu"):   # keys rebuilt to full width
        shapes["k_b"] = (kv, k_width, d)
    if method == "svd":   # values rebuilt too; the others' B_v is absorbed in o
        shapes["v_b"] = (kv, v_width, d)
    shapes["o"] = (heads * (d if method == "svd" else v_width), dim)
    return shapes


FORMAT = "rapkit-model-v2"

# the fields save_model writes. The loader takes every width from the
# arrays, reads a rap key's pair lists and the plan's mode and ratios, and
# compares the whole manifest with the model_manifest of the arrays it loaded.
PLAN_GROUP_FIELDS = {"layer": int, "side": str, "ratio": (float, GROUP_RATIO),
                     "retained_pairs": int}
LAYER_FIELDS = {"k": {"mode": str, "rank?": int, "retained_pairs?": [[int]],
                      "rap_index?": [[int]]},
                "v": {"mode": str, "rank": int}}
MANIFEST_FIELDS = {"method": (str, METHODS), "rho": (float, RATIO), "layers?": [LAYER_FIELDS],
                   "retained_fraction_mean?": float,
                   "plan?": {"mode": (str, BUDGET_MODES), "groups": [PLAN_GROUP_FIELDS]}}
# how the file is written, checked first: another format breaks the rest too
ENCODING_FIELDS = {"format": (str, (FORMAT,)), "byte_order": (str, ("little",)),
                   "dtype": (str, ("float64",))}
HEADER_FIELDS = {**ENCODING_FIELDS, "spec": SPEC_FIELDS, "manifest": MANIFEST_FIELDS,
                 "arrays": [{"name": str, "shape": [(int, "[0, inf)")]}]}


def save_model(model: AttentionModel, path) -> None:
    """One file: a JSON header line, then the little-endian float64 blob."""
    arrays = model_arrays(model)
    header = {"format": FORMAT, "byte_order": "little", "dtype": "float64",
              "spec": spec_to_json(model.spec), "manifest": model.manifest,
              "arrays": [{"name": n, "shape": list(a.shape)} for n, a in arrays]}
    blob = b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes() for _, a in arrays)
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        fh.write(blob)


def load_model(path) -> AttentionModel:
    """The model :func:`save_model` wrote, as its header's array list describes
    it: widths from each layer's ``L{i}.k`` and ``L{i}.v``, every shape by
    :func:`layer_shapes`. A bad header, a manifest other than the arrays'
    :func:`model_manifest` or a short blob raise a ValueError naming ``path``,
    the header's own refusals before the blob is split."""
    head, _, blob = Path(path).read_bytes().partition(b"\n")
    top = f"{path}: header"
    try:
        header = json.loads(head.decode("utf-8"))
    except ValueError as exc:   # not UTF-8, or not JSON
        raise ValueError(f"{top} is not a line of JSON: {exc}") from None
    check(top, header, dict)
    check(top, {key: header[key] for key in ENCODING_FIELDS.keys() & header.keys()},
          ENCODING_FIELDS)
    check(top, header, HEADER_FIELDS)
    spec = spec_from_json(header["spec"], f"{top}.spec")
    manifest, metas = header["manifest"], header["arrays"]
    method, entries = manifest["method"], manifest.get("layers")
    if 4 * spec.layers + 1 > len(metas):   # a layer has 4 arrays or more
        raise ValueError(f"{top}.spec.layers is {spec.layers}, more than the arrays hold")
    given = {meta["name"]: tuple(meta["shape"]) for meta in metas}
    if len(given) < len(metas):   # the later entry would win
        raise ValueError(f"{top}.arrays names an array more than once")
    count = None if entries is None else len(entries)
    if count != (None if method == "baseline" else spec.layers):
        raise ValueError(f"{top}.manifest.layers must hold the {spec.layers} layers of a "
                         f"compressed model only, got {count}")
    need = {"embedding": (spec.vocab, spec.model_dim)}
    for i in range(spec.layers):
        # the last dimension per kv head; 0 for a shape that is missing or empty
        widths = [(given.get(f"L{i}.{side}") or (0,))[-1] // spec.kv_heads for side in "kv"]
        for role, shape in layer_shapes(spec, method, *widths).items():
            need[f"L{i}.{role}"] = shape
    if need.keys() != given.keys():
        raise ValueError(f"{top}.arrays must name a {method} model's arrays: missing "
                         f"{sorted(need.keys() - given)}, unknown {sorted(given.keys() - need)}")
    for name, shape in need.items():
        if given[name] != shape:
            raise ValueError(f"{path}: array {name} has shape {given[name]}, "
                             f"a {method} model of this spec needs {shape}")
    retained = [None] * spec.layers
    for i in range(spec.layers if method == "rap" else 0):
        at = f"{top}.manifest.layers[{i}].k.retained_pairs"
        ids = entries[i]["k"].get("retained_pairs")
        width = given[f"L{i}.k"][1] // spec.kv_heads
        if ids is None or [2 * len(p) for p in ids] != [width] * spec.kv_heads:
            raise ValueError(f"{at} must hold {spec.kv_heads} lists, each of half the {width} "
                             f"columns of a kv head in L{i}.k, got {ids}")
        try:
            retained[i] = [RetainedIndex(tuple(p), spec.rope.scheme) for p in ids]
        except ValueError as exc:
            raise ValueError(f"{at}: {exc}") from None
    sizes = [np.prod(meta["shape"], dtype=object) for meta in metas]   # Python ints: int64 wraps
    if len(blob) != 8 * sum(sizes):
        raise ValueError(f"{path}: weight blob is {len(blob)} bytes, "
                         f"the header's arrays need {8 * sum(sizes)}")
    flat = np.frombuffer(blob, dtype="<f8").astype(np.float64)
    arrays = {meta["name"]: a.reshape(meta["shape"]) for meta, a in
              zip(metas, np.split(flat, np.cumsum(sizes)[:-1]))}
    layers = []
    for i in range(spec.layers):
        # a projection is one matrix, a reconstruction stack one per kv head
        found = {f: arrays.get(f"L{i}.{r}") for r, f in ROLES.items()}
        layers.append(AttentionLayer(**{f: a if a is None or a.ndim == 3 else LinearMap(a)
                                        for f, a in found.items()}, k_retained=retained[i]))
    # the arrays give every field but a rap plan's mode and ratios
    plan = manifest.get("plan", {"mode": None, "groups": []})
    want = model_manifest(spec, method, manifest["rho"], layers, plan["mode"],
                          {(g["layer"], g["side"]): g["ratio"] for g in plan["groups"]})
    fields = [(f"layers[{i}]", e, want["layers"][i]) for i, e in enumerate(entries or ())]
    fields += [(k, manifest.get(k), want.get(k)) for k in sorted(manifest.keys() | want.keys())]
    for key, got, expected in fields:   # each layer's entry first, then the whole
        if got != expected:
            raise ValueError(f"{top}.manifest.{key} is {got!r}, the arrays give {expected!r}")
    return AttentionModel(spec, arrays["embedding"], layers, manifest)
