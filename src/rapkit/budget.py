"""Compression budget allocation across (layer, K/V) groups.

Adaptive mode assigns each group a raw ratio that decreases affinely in the
group's share of the total score, clamps to [0, 1], then projects back to the
requested mean by iteratively adding a uniform correction to the groups that
can still move (clip-and-rescale to a fixpoint). Uniform mode gives every
group the same ratio. Ratios convert to integer retained-pair counts with a
floor of one pair per head, identical across the heads of a group.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .rope import check
from .scoring import PairScoreTable
from .toymodel import BUDGET_MODES, PLAN_GROUP_FIELDS, RATIO

PROJECTION_TOL = 1e-9
ADAPTIVE, UNIFORM = BUDGET_MODES
# the fields to_json writes; from_json does not read the derived means back
PLAN_FIELDS = {"rho": (float, RATIO), "mode": (str, BUDGET_MODES), "num_pairs": int,
               "groups": [{**PLAN_GROUP_FIELDS, "raw_ratio": float}],
               "mean_ratio?": float, "mean_effective_ratio?": float, "rounding_error?": float}


class InfeasibleBudget(ValueError):
    """Raised when every group is pinned at a bound and the mean is still off."""


def round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def project_to_mean(values: np.ndarray, target_mean: float) -> np.ndarray:
    """Clamp to [0,1] and nudge free entries until the mean hits the target."""
    v = np.clip(np.asarray(values, dtype=np.float64), 0.0, 1.0)
    n = v.size
    for _ in range(10_000):
        err = target_mean - v.mean()
        if abs(err) <= PROJECTION_TOL:
            return v
        free = (v < 1.0) if err > 0 else (v > 0.0)
        count = int(free.sum())
        if count == 0:
            raise InfeasibleBudget(
                f"all {n} groups clamped; cannot reach mean {target_mean}")
        v[free] += err * n / count
        v = np.clip(v, 0.0, 1.0)
    raise InfeasibleBudget("projection did not converge")


@dataclass
class BudgetPlan:
    rho: float
    mode: str
    num_pairs: int                                  # D/2
    ratios: dict[tuple[int, str], float]            # post-projection rho per group
    raw_ratios: dict[tuple[int, str], float]        # pre-clamp values (audit)
    pair_counts: dict[tuple[int, str], int] = field(default_factory=dict)

    def __post_init__(self):
        if not self.pair_counts:
            self.pair_counts = {
                key: max(1, round_half_up((1.0 - r) * self.num_pairs))
                for key, r in self.ratios.items()
            }

    def groups(self) -> list[tuple[int, str]]:
        return sorted(self.ratios.keys())

    def retained_pairs(self, layer: int, side: str) -> int:
        return self.pair_counts[(layer, side)]

    @property
    def mean_ratio(self) -> float:
        return float(np.mean([self.ratios[g] for g in self.groups()]))

    @property
    def mean_effective_ratio(self) -> float:
        """Mean compression actually realized after integer rounding."""
        kept = [self.pair_counts[g] / self.num_pairs for g in self.groups()]
        return float(1.0 - np.mean(kept))

    @property
    def rounding_error(self) -> float:
        """Residual budget error from integer pair counts; reported, not hidden."""
        return self.mean_effective_ratio - self.mean_ratio

    def to_json(self) -> str:
        payload = {
            "rho": self.rho,
            "mode": self.mode,
            "num_pairs": self.num_pairs,
            "groups": [
                {
                    "layer": l, "side": s,
                    "ratio": self.ratios[(l, s)],
                    "raw_ratio": self.raw_ratios[(l, s)],
                    "retained_pairs": self.pair_counts[(l, s)],
                }
                for l, s in self.groups()
            ],
            "mean_ratio": self.mean_ratio,
            "mean_effective_ratio": self.mean_effective_ratio,
            "rounding_error": self.rounding_error,
        }
        return json.dumps(payload, sort_keys=True, indent=1)

    @classmethod
    def from_json(cls, text: str) -> "BudgetPlan":
        """The plan ``to_json`` wrote; a field that breaks ``PLAN_FIELDS`` raises
        a ValueError naming it."""
        data = json.loads(text)
        check("plan", data, PLAN_FIELDS)
        ratios, raw, counts = {}, {}, {}
        for i, g in enumerate(data["groups"]):
            key = (g["layer"], g["side"])
            if key in ratios:
                raise ValueError(f"plan.groups[{i}] repeats group {key[0]}.{key[1]}")
            ratios[key] = g["ratio"]
            raw[key] = g["raw_ratio"]
            counts[key] = g["retained_pairs"]
        return cls(rho=data["rho"], mode=data["mode"], num_pairs=data["num_pairs"],
                   ratios=ratios, raw_ratios=raw, pair_counts=counts)


def allocate(scores: PairScoreTable, rho: float, mode: str = ADAPTIVE) -> BudgetPlan:
    """Turn group scores and a global ratio into per-group ratios and counts."""
    check("rho", rho, (float, RATIO))
    groups = scores.groups()
    n = len(groups)
    if mode == UNIFORM:
        ratios = {g: rho for g in groups}
        return BudgetPlan(rho, mode, scores.num_pairs, dict(ratios), dict(ratios))
    if mode != ADAPTIVE:
        raise ValueError(f"unknown budget mode {mode!r}")
    if n == 1:
        raise ValueError(
            "adaptive allocation needs at least 2 groups (normalization divides "
            "by 1 - 1/N); fall back to uniform mode")
    total = scores.grand_total()
    if rho > 0 and total <= 0:
        raise ValueError("total score must be positive for adaptive allocation")

    raw = {}
    for g in groups:
        share = scores.group_total(*g) / total if total > 0 else 1.0 / n
        raw[g] = rho * (1.0 - share) / (1.0 - 1.0 / n)
    projected = project_to_mean(np.array([raw[g] for g in groups]), rho)
    ratios = {g: float(r) for g, r in zip(groups, projected)}
    return BudgetPlan(rho, mode, scores.num_pairs, ratios, raw)


def uniform_plan(num_pairs: int, layers: int, rho: float) -> BudgetPlan:
    """A plan with the same ratio everywhere, without needing a score table."""
    check("rho", rho, (float, RATIO))
    groups = [(l, s) for l in range(layers) for s in ("k", "v")]
    ratios = {g: rho for g in groups}
    return BudgetPlan(rho, UNIFORM, num_pairs, dict(ratios), dict(ratios))
