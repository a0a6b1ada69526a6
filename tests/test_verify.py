"""Structural checks: commutativity, greedy enumeration, loss bound regimes."""

import itertools

import numpy as np
import pytest

from conftest import make_spec
from rapkit import factorize
from rapkit.factorize import build_compressed
from rapkit.rope import PairingScheme, RetainedIndex, RopeConfig
from rapkit.scoring import estimate_fisher, pair_scores
from rapkit.toymodel import AttentionModel, markov_calibration
from rapkit.verify import (BoundReport, check_commutativity,
                           check_greedy_optimality, check_loss_bound,
                           commutativity_deviation, misaligned_deviation,
                           quadratic_bound_case, toy_bound_regime_check)


def built_rap_model(seed=3, rho=0.3, pairing="adjacent"):
    spec = make_spec(seed=seed, pairing=pairing)
    model = AttentionModel.build(spec)
    calib = markov_calibration(spec.vocab, count=5, window=20, seed=seed)
    table = pair_scores(estimate_fisher(model, calib), spec.rope.scheme)
    return build_compressed(model, "rap", rho, scores=table), calib, table


# -- commutativity ----------------------------------------------------------------


def test_full_retention_deviation_is_zero(rng):
    cfg = RopeConfig(10000.0, PairingScheme("adjacent", 8))
    retained = RetainedIndex(tuple(range(4)), cfg.scheme)
    a = rng.normal(size=(12, 8))
    x = rng.normal(size=(5, 12))
    dev = commutativity_deviation(a, retained, cfg, x, [0, 3, 9, 2, 77])
    assert dev <= 1e-12


@pytest.mark.parametrize("pairing", ["adjacent", "half_split"])
def test_installed_factorization_commutes(pairing):
    model, _, _ = built_rap_model(pairing=pairing)
    assert check_commutativity(model, trials=5, seed=0) <= 1e-12


def test_commutativity_requires_rap_model():
    spec = make_spec()
    with pytest.raises(ValueError):
        check_commutativity(AttentionModel.build(spec))


def test_misaligned_selection_breaks_commutativity(rng):
    """The diagnostic failure mode: non-pair-aligned columns deviate hugely."""
    for kind in ("adjacent", "half_split"):
        cfg = RopeConfig(10000.0, PairingScheme(kind, 16))
        dev = misaligned_deviation(cfg, rng)
        assert dev > 1e-6


# -- greedy optimality ---------------------------------------------------------------


def test_equal_scores_every_subset_optimal():
    ok, witness = check_greedy_optimality(np.full(6, 2.5), 3)
    assert ok and witness is None


def test_hand_case_four_scores():
    sigma = np.array([4.0, 3.0, 2.0, 1.0])
    ok, witness = check_greedy_optimality(sigma, 2)
    assert ok and witness is None
    # the greedy choice is pairs {0, 1}; residual mass is 2 + 1 = 3
    from rapkit.factorize import top_pairs
    assert top_pairs(sigma, 2) == (0, 1)
    assert sigma.sum() - sigma[[0, 1]].sum() == pytest.approx(3.0)


def test_hundred_random_tables_no_counterexample(rng):
    for _ in range(100):
        sigma = rng.random(8)
        m = int(rng.integers(1, 8))
        ok, witness = check_greedy_optimality(sigma, m)
        assert ok, witness


def test_a_wrong_selector_patched_in_fails_the_check(monkeypatch):
    """The check enumerates against ``factorize.top_pairs``, the selector rap
    builds use, not a copy of it: one that keeps the lowest scores is caught."""
    sigma = np.array([4.0, 3.0, 2.0, 1.0])
    assert check_greedy_optimality(sigma, 2) == (True, None)
    monkeypatch.setattr(factorize, "top_pairs",
                        lambda s, m: tuple(sorted(np.argsort(s)[:m].tolist())))
    assert check_greedy_optimality(sigma, 2) == (False, (0, 1))


def test_enumeration_guard():
    with pytest.raises(ValueError):
        check_greedy_optimality(np.ones(13), 2)


def test_enumeration_actually_exhaustive():
    # the oracle itself: residuals over all subsets, computed independently
    sigma = np.array([0.9, 0.1, 0.5, 0.7])
    residuals = {s: sigma.sum() - sigma[list(s)].sum()
                 for s in itertools.combinations(range(4), 2)}
    assert min(residuals.values()) == pytest.approx(
        sigma.sum() - sigma[[0, 3]].sum())
    ok, _ = check_greedy_optimality(sigma, 2)
    assert ok


# -- loss bound ------------------------------------------------------------------------


def test_no_pruning_gives_zero_delta_and_bound():
    spec = make_spec(seed=3)
    model = AttentionModel.build(spec)
    calib = markov_calibration(spec.vocab, count=3, window=10, seed=0)
    report = check_loss_bound(model, calib, 0, 0, [], eps=0.5)
    assert report.delta_loss == 0.0
    assert report.bound == 0.0
    assert report.ratio == 0.0


def test_quadratic_synthetic_ratio_is_one():
    for seed in range(10):
        report = quadratic_bound_case(seed)
        assert report.ratio == pytest.approx(1.0, abs=1e-9)
        assert report.within_second_order


def test_quadratic_case_other_pairings_and_eps():
    report = quadratic_bound_case(3, pairing="half_split", eps=0.25)
    assert report.ratio == pytest.approx(1.0, abs=1e-9)


def test_bound_scales_quadratically_with_eps():
    spec = make_spec(seed=5)
    model = AttentionModel.build(spec)
    calib = markov_calibration(spec.vocab, count=3, window=12, seed=1)
    fisher = estimate_fisher(model, calib, targets=[(0, "k")])
    small = check_loss_bound(model, calib, 0, 0, [1], eps=0.1, fisher=fisher)
    large = check_loss_bound(model, calib, 0, 0, [1], eps=0.2, fisher=fisher)
    assert large.bound == pytest.approx(4.0 * small.bound, rel=1e-12)


def test_toy_regime_check_passes_on_sample_seeds():
    # the full 20-seed sweep runs in the acceptance suite
    for seed in (0, 7, 13):
        report = toy_bound_regime_check(seed)
        assert report.within_second_order, report


def test_eps_validation():
    spec = make_spec(seed=3)
    model = AttentionModel.build(spec)
    calib = markov_calibration(spec.vocab, count=2, window=8, seed=0)
    with pytest.raises(ValueError):
        check_loss_bound(model, calib, 0, 0, [0], eps=0.0)
    with pytest.raises(ValueError):
        check_loss_bound(model, calib, 0, 0, [0], eps=1.5)


def test_bound_report_flag():
    report = BoundReport.from_values((1,), delta=1.0, bound=1.0, slack=0.2)
    assert report.within_second_order
    report = BoundReport.from_values((1,), delta=1.21, bound=1.0, slack=0.2)
    assert not report.within_second_order
