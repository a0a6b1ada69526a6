"""Pair saliency: empirical Fisher scores and the magnitude ablation.

The Fisher estimate is the calibration-set mean of elementwise SQUARED
per-sample loss gradients (square first, then average). Pair scores sum the
Fisher mass of the two columns each rotation pair owns; value projections are
never rotated, but their columns are grouped into consecutive (2x, 2x+1)
pseudo-pairs so one score/budget pipeline serves both sides.
:func:`fisher_digest` names an estimate's inputs, so a stored table can be
told apart from a stale one without estimating again.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field

import numpy as np

from .numcore import gradients
from .rope import ADJACENT, ROPE_FIELDS, PairingScheme, check, within
from .toymodel import AttentionModel, CalibrationSet, loss_forward, model_arrays, spec_to_json

KEY_SIDE = "k"
VALUE_SIDE = "v"
SIDES = (KEY_SIDE, VALUE_SIDE)

# the fields to_json writes; from_json does not read the totals back
SCORES_FIELDS = {"head_dim": ROPE_FIELDS["head_dim"], "pairing": ROPE_FIELDS["pairing"],
                 "scores": dict, "group_totals?": dict, "grand_total?": float}
# a pair score, finite and non-negative
PAIR_SCORE = "[0, inf)"
# a key of ``scores``, only as to_json writes it: layer.side.head, the
# numbers in ASCII digits without leading zeros
_SCORE_KEY = re.compile(rf"(0|[1-9][0-9]*)\.({'|'.join(SIDES)})\.(0|[1-9][0-9]*)")


def default_targets(model: AttentionModel) -> list[tuple[int, str]]:
    """All (layer, side) projections the pruning pipeline scores."""
    return [(i, side) for i in range(model.spec.layers) for side in SIDES]


def estimate_fisher(model: AttentionModel, calib: CalibrationSet,
                    targets: list[tuple[int, str]] | None = None
                    ) -> dict[tuple[int, str], np.ndarray]:
    """Mean over calibration windows of squared CE-loss gradients, by
    (layer, side) target in sorted order.

    Windows are processed in index order with a private tape each, so the
    estimate does not depend on scheduling.
    """
    if calib.count == 0:
        raise ValueError("calibration set is empty")
    targets = default_targets(model) if targets is None else list(targets)
    sums: dict[tuple[int, str], np.ndarray] = {}
    for seq in calib:
        loss, tape = loss_forward(model, seq)
        leaf_nodes = [tape.leaves[f"L{layer}.{side}"] for layer, side in targets]
        grads = gradients(tape, loss, leaf_nodes)
        for key, g in zip(targets, grads):
            sq = g * g
            if key in sums:
                sums[key] += sq
            else:
                sums[key] = sq
    return {key: sums[key] / calib.count for key in sorted(sums)}


def fisher_digest(model: AttentionModel, calib: CalibrationSet,
                  targets: list[tuple[int, str]]) -> str:
    """SHA-256 hex digest of all that :func:`estimate_fisher` reads: the
    model's arrays in checkpoint order, its spec, the calibration windows and
    the targets. A JSON header of names and shapes frames the raw bytes."""
    arrays = model_arrays(model)
    header = {"arrays": [[name, *a.shape] for name, a in arrays],
              "spec": spec_to_json(model.spec), "targets": targets,
              "windows": [calib.count, calib.window]}
    digest = hashlib.sha256(json.dumps(header, sort_keys=True).encode("utf-8"))
    for _, a in arrays:
        digest.update(np.ascontiguousarray(a, dtype="<f8"))
    digest.update(np.asarray(calib.sequences, dtype="<i8"))
    return digest.hexdigest()


@dataclass
class PairScoreTable:
    """sigma_p per (layer, side, head, pair), plus group and grand totals."""

    head_dim: int
    pairing: str
    scores: dict[tuple[int, str, int], np.ndarray] = field(default_factory=dict)

    @property
    def num_pairs(self) -> int:
        return self.head_dim // 2

    def set(self, layer: int, side: str, head: int, values: np.ndarray):
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (self.num_pairs,):
            raise ValueError("one score per pair required")
        if not (within(values.min(), PAIR_SCORE) and within(values.max(), PAIR_SCORE)):
            raise ValueError(f"pair scores must be in {PAIR_SCORE}")
        self.scores[(layer, side, head)] = values

    def get(self, layer: int, side: str, head: int) -> np.ndarray:
        return self.scores[(layer, side, head)]

    def keys(self) -> list[tuple[int, str, int]]:
        return sorted(self.scores.keys())

    def groups(self) -> list[tuple[int, str]]:
        return sorted({(layer, side) for layer, side, _ in self.scores})

    def group_total(self, layer: int, side: str) -> float:
        total = 0.0
        for (l, s, _), v in sorted(self.scores.items()):
            if l == layer and s == side:
                total += float(np.sum(v))
        return total

    def grand_total(self) -> float:
        return float(sum(self.group_total(l, s) for l, s in self.groups()))

    def to_json(self) -> str:
        payload = {
            "head_dim": self.head_dim,
            "pairing": self.pairing,
            "scores": {f"{l}.{s}.{h}": v.tolist()
                       for (l, s, h), v in sorted(self.scores.items())},
            "group_totals": {f"{l}.{s}": self.group_total(l, s)
                             for l, s in self.groups()},
            "grand_total": self.grand_total(),
        }
        return json.dumps(payload, sort_keys=True, indent=1)

    @classmethod
    def from_json(cls, text: str) -> "PairScoreTable":
        """The table ``to_json`` wrote; a field that breaks ``SCORES_FIELDS``, a
        key ``to_json`` would not write or a row that breaks ``PAIR_SCORE``
        raises a ValueError naming it."""
        data = json.loads(text)
        check("scores", data, SCORES_FIELDS)
        table = cls(head_dim=data["head_dim"], pairing=data["pairing"])
        for key, values in data["scores"].items():
            name = f"scores.scores[{key!r}]"
            head = _SCORE_KEY.fullmatch(key)
            if head is None:
                raise ValueError(f"{name}: a key must be layer.side.head, as to_json "
                                 f"writes it with sides {SIDES}")
            check(name, values, [(float, PAIR_SCORE)])
            try:
                table.set(int(head[1]), head[2], int(head[3]),
                          np.asarray(values, dtype=np.float64))
            except ValueError as exc:   # a row of another length than num_pairs
                raise ValueError(f"{name}: {exc}") from None
        return table


def _scores_from_matrix_stat(stats, scheme: PairingScheme) -> PairScoreTable:
    """Per-head pair sums of each (layer, side)'s non-negative per-entry statistic."""
    table = PairScoreTable(head_dim=scheme.head_dim, pairing=scheme.kind)
    # value columns are not rotated: adjacent pseudo-pairs
    columns = {KEY_SIDE: scheme.column_arrays(),
               VALUE_SIDE: PairingScheme(ADJACENT, scheme.head_dim).column_arrays()}
    for (layer, side), stat in stats:
        if stat.shape[1] % scheme.head_dim != 0:
            raise ValueError("statistic does not split into heads")
        first, second = columns[side]
        col_sums = stat.sum(axis=0).reshape(-1, scheme.head_dim)
        for h, values in enumerate(col_sums[:, first] + col_sums[:, second]):
            table.set(layer, side, h, values)
    return table


def pair_scores(fisher: dict, scheme: PairingScheme) -> PairScoreTable:
    """Aggregate each (layer, side)'s Fisher mass over each pair's two columns
    (all rows)."""
    return _scores_from_matrix_stat(fisher.items(), scheme)


def magnitude_scores(model: AttentionModel, scheme: PairingScheme) -> PairScoreTable:
    """Ablation baseline: sigma_p = squared Frobenius mass of the pair columns."""
    return _scores_from_matrix_stat(
        (((i, side), w * w) for i, layer in enumerate(model.layers)
         for side, w in ((KEY_SIDE, layer.k_map.merged_weight()),
                         (VALUE_SIDE, layer.v_map.merged_weight()))), scheme)
