"""Budget allocation: hand-computed cases, projection fixpoint, plan JSON."""

import json

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import JSON_VALUES, damaged
from rapkit.budget import (BudgetPlan, InfeasibleBudget, allocate, project_to_mean,
                           round_half_up, uniform_plan)
from rapkit.scoring import PairScoreTable


def table_with_group_totals(totals: dict, head_dim=8, pairing="adjacent",
                            heads=1) -> PairScoreTable:
    """A score table whose (layer, side) totals equal the given values."""
    table = PairScoreTable(head_dim=head_dim, pairing=pairing)
    n = head_dim // 2
    for (layer, side), total in totals.items():
        per_head = total / heads
        for h in range(heads):
            values = np.full(n, per_head / n)
            table.set(layer, side, h, values)
    return table


def test_equal_group_scores_reduce_to_global_ratio():
    table = table_with_group_totals({(0, "k"): 5.0, (0, "v"): 5.0,
                                     (1, "k"): 5.0, (1, "v"): 5.0})
    plan = allocate(table, 0.3, "adaptive")
    for g in plan.groups():
        assert plan.ratios[g] == pytest.approx(0.3, abs=1e-12)
    uniform = allocate(table, 0.3, "uniform")
    assert uniform.ratios == pytest.approx(plan.ratios)
    assert uniform.pair_counts == plan.pair_counts


def test_hand_computed_two_group_case():
    # rho=0.3, N=2, sigma=(3,1): raw = 0.3*(1-share)/(1-1/2) -> (0.15, 0.45)
    table = table_with_group_totals({(0, "k"): 3.0, (0, "v"): 1.0})
    plan = allocate(table, 0.3, "adaptive")
    assert plan.ratios[(0, "k")] == pytest.approx(0.15, abs=1e-12)
    assert plan.ratios[(0, "v")] == pytest.approx(0.45, abs=1e-12)
    assert plan.mean_ratio == pytest.approx(0.3, abs=1e-12)


def test_three_group_skewed_case_needs_no_clamp():
    """rho=0.6, shares (0.98, 0.01, 0.01): direct evaluation of the raw rule.

    raw = 0.6*(1-share)/(1-1/3) = (0.018, 0.891, 0.891); all within [0,1], so
    the projection is a no-op and the mean is already 0.6.
    """
    raw = 0.6 * (1.0 - np.array([0.98, 0.01, 0.01])) / (1.0 - 1.0 / 3.0)
    np.testing.assert_allclose(raw, [0.018, 0.891, 0.891], atol=1e-15)
    projected = project_to_mean(raw, 0.6)
    np.testing.assert_allclose(projected, raw, atol=1e-15)
    assert projected.mean() == pytest.approx(0.6, abs=1e-12)


def test_clamped_case_redistributes_to_mean():
    # one-layer model: N=2 groups; extreme skew at a high ratio forces a clamp
    table = table_with_group_totals({(0, "k"): 99.0, (0, "v"): 1.0})
    plan = allocate(table, 0.8, "adaptive")
    raw = [plan.raw_ratios[(0, "k")], plan.raw_ratios[(0, "v")]]
    np.testing.assert_allclose(raw, [0.016, 1.584], atol=1e-12)
    assert plan.ratios[(0, "v")] == 1.0
    assert plan.ratios[(0, "k")] == pytest.approx(0.6, abs=1e-9)
    assert plan.mean_ratio == pytest.approx(0.8, abs=1e-9)


def test_projection_mean_on_random_tables_with_clamping(rng):
    for trial in range(100):
        n = int(rng.integers(2, 9))
        values = rng.uniform(-0.5, 1.8, size=n)  # many entries out of range
        target = float(rng.uniform(0.05, 0.9))
        feasible = 0.0 <= target <= 1.0
        try:
            projected = project_to_mean(values, target)
        except InfeasibleBudget:
            continue
        assert feasible
        assert projected.mean() == pytest.approx(target, abs=1e-9)
        assert np.all(projected >= 0.0) and np.all(projected <= 1.0)


def test_allocation_mean_on_random_score_tables(rng):
    for trial in range(100):
        layers = int(rng.integers(1, 4))
        totals = {(l, s): float(rng.uniform(0.01, 10.0))
                  for l in range(layers) for s in ("k", "v")}
        rho = float(rng.uniform(0.05, 0.95))
        plan = allocate(table_with_group_totals(totals), rho, "adaptive")
        assert plan.mean_ratio == pytest.approx(rho, abs=1e-9)


def test_raw_ratio_monotonicity(rng):
    totals = {(0, "k"): 8.0, (0, "v"): 4.0, (1, "k"): 2.0, (1, "v"): 1.0}
    plan = allocate(table_with_group_totals(totals), 0.3, "adaptive")
    ordered = sorted(totals, key=totals.get)  # ascending score
    raws = [plan.raw_ratios[g] for g in ordered]
    assert all(a > b for a, b in zip(raws, raws[1:]))  # higher score, lower ratio


def test_pair_count_rounding_and_floor():
    assert round_half_up(3.5) == 4
    assert round_half_up(2.5) == 3
    table = table_with_group_totals({(0, "k"): 1.0, (0, "v"): 1.0})
    plan = allocate(table, 0.3, "uniform")
    # (1-0.3)*4 = 2.8 -> 3 pairs
    assert plan.pair_counts[(0, "k")] == 3
    aggressive = allocate(table, 0.95, "uniform")
    assert aggressive.pair_counts[(0, "k")] == 1  # floor of one pair


def test_rounding_error_reported():
    table = table_with_group_totals({(0, "k"): 1.0, (0, "v"): 1.0})
    plan = allocate(table, 0.3, "uniform")
    # effective kept fraction 3/4 vs requested 0.7
    assert plan.mean_effective_ratio == pytest.approx(0.25, abs=1e-12)
    assert plan.rounding_error == pytest.approx(-0.05, abs=1e-12)


def test_invalid_inputs_rejected():
    table = table_with_group_totals({(0, "k"): 1.0, (0, "v"): 1.0})
    with pytest.raises(ValueError):
        allocate(table, 1.0, "adaptive")
    single = PairScoreTable(head_dim=8, pairing="adjacent")
    single.set(0, "k", 0, np.ones(4))
    with pytest.raises(ValueError, match="uniform"):
        allocate(single, 0.3, "adaptive")


def test_plan_json_roundtrip():
    table = table_with_group_totals({(0, "k"): 3.0, (0, "v"): 1.0})
    plan = allocate(table, 0.3, "adaptive")
    clone = BudgetPlan.from_json(plan.to_json())
    assert clone.ratios == plan.ratios
    assert clone.pair_counts == plan.pair_counts
    assert clone.to_json() == plan.to_json()


PLAN_DOCUMENT = json.loads(allocate(
    table_with_group_totals({(0, "k"): 3.0, (0, "v"): 1.0}), 0.3).to_json())


@settings(max_examples=300, deadline=None)
@given(document=JSON_VALUES | damaged(PLAN_DOCUMENT))
def test_plan_from_json_gives_a_plan_or_a_value_error(document):
    try:
        plan = BudgetPlan.from_json(json.dumps(document))
    except ValueError:
        return
    assert isinstance(plan, BudgetPlan)


def test_uniform_plan_helper():
    plan = uniform_plan(4, 2, 0.25)
    assert plan.mean_ratio == 0.25
    assert all(m == 3 for m in plan.pair_counts.values())
