"""Fisher estimation and pair aggregation against FD and brute-force oracles."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings

from conftest import (JSON_VALUES, damaged, finite_difference, make_spec, pair_columns,
                      scheme_pairs, tiny_spec)
from rapkit.numcore import gradients
from rapkit.rope import PairingScheme
from rapkit.scoring import PairScoreTable, estimate_fisher, magnitude_scores, pair_scores
from rapkit.toymodel import (AttentionModel, CalibrationSet, LinearMap,
                             loss_forward, markov_calibration)


def small_calib(vocab, count=4, window=10, seed=3):
    return markov_calibration(vocab, count=count, window=window, seed=seed)


def test_dead_query_pair_gives_zero_fisher_for_key_pair(rng):
    """Zeroing a query pair silences the matching key pair's gradient."""
    spec = make_spec(layers=1, seed=17)
    model = AttentionModel.build(spec)
    d = spec.head_dim
    dead_pair = 1
    a, b = pair_columns(spec.rope.scheme.kind, dead_pair, d)
    w_q = model.layers[0].proj_q.weight.copy()
    for h in range(spec.query_heads):
        w_q[:, h * d + a] = 0.0
        w_q[:, h * d + b] = 0.0
    model.layers[0].proj_q = LinearMap(w_q)

    fisher = estimate_fisher(model, small_calib(spec.vocab))
    stat = fisher[(0, "k")]
    for g in range(spec.kv_heads):
        assert np.all(stat[:, g * d + a] == 0.0)
        assert np.all(stat[:, g * d + b] == 0.0)
    # and some other column carries mass
    assert stat.sum() > 0


def test_duplicated_heads_get_equal_fisher(rng):
    spec = make_spec(layers=1, query_heads=2, kv_heads=2, seed=23)
    model = AttentionModel.build(spec)
    d = spec.head_dim
    for attr in ("proj_q", "k_map", "v_map"):
        w = getattr(model.layers[0], attr).weight.copy()
        w[:, d:2 * d] = w[:, :d]
        setattr(model.layers[0], attr, LinearMap(w))
    w_o = model.layers[0].proj_o.weight.copy()
    w_o[d:2 * d, :] = w_o[:d, :]
    model.layers[0].proj_o = LinearMap(w_o)

    fisher = estimate_fisher(model, small_calib(spec.vocab))
    stat = fisher[(0, "k")]
    np.testing.assert_array_equal(stat[:, :d], stat[:, d:2 * d])
    table = pair_scores(fisher, spec.rope.scheme)
    np.testing.assert_array_equal(table.get(0, "k", 0), table.get(0, "k", 1))


def test_fisher_matches_squared_fd_gradients(rng):
    """Per-entry Fisher vs squared central-difference per-sample gradients."""
    spec = tiny_spec(seed=5)
    model = AttentionModel.build(spec)
    calib = CalibrationSet(((1, 4, 2, 7), (3, 3, 0, 5), (6, 1, 2, 2)), seed=0)
    fisher = estimate_fisher(model, calib, targets=[(0, "k")])
    got = fisher[(0, "k")]

    arrays = {"wk": model.layers[0].k_map.weight.copy()}
    acc = np.zeros_like(arrays["wk"])
    for seq in calib:
        def value(arrs, seq=seq):
            model.layers[0].k_map.weight = arrs["wk"]
            loss, _ = loss_forward(model, list(seq))
            return float(loss.value[0, 0])

        fd = finite_difference(value, arrays, "wk")
        acc += fd * fd
    model.layers[0].k_map.weight = arrays["wk"]
    expected = acc / calib.count
    np.testing.assert_allclose(got, expected, rtol=1e-3, atol=1e-10)


def test_empty_calibration_rejected():
    model = AttentionModel.build(make_spec())
    with pytest.raises(ValueError):
        estimate_fisher(model, CalibrationSet((), seed=0))


# -- pair aggregation -------------------------------------------------------------


def manual_estimate(stat_by_target):
    return {key: np.asarray(v, dtype=float) for key, v in stat_by_target.items()}


def test_all_ones_fisher_gives_two_rowcount_per_pair():
    scheme = PairingScheme("adjacent", 8)
    dim = 16
    fisher = manual_estimate({(0, "k"): np.ones((dim, 16)),
                              (0, "v"): np.ones((dim, 16))})
    table = pair_scores(fisher, scheme)
    for side in ("k", "v"):
        for head in (0, 1):
            np.testing.assert_array_equal(table.get(0, side, head),
                                          np.full(4, 2.0 * dim))


def test_single_column_fisher_concentrates_in_one_pair(rng):
    scheme = PairingScheme("half_split", 8)
    stat = np.zeros((10, 8))
    stat[:, 6] = rng.random(10)  # half-split: column 6 belongs to pair 2
    table = pair_scores(manual_estimate({(0, "k"): stat}), scheme)
    sigma = table.get(0, "k", 0)
    assert sigma[2] == pytest.approx(stat[:, 6].sum(), abs=1e-12)
    assert np.all(sigma[[0, 1, 3]] == 0.0)


def test_pair_scores_match_double_loop_oracle(rng):
    scheme = PairingScheme("half_split", 8)
    stat_k = rng.random((12, 16))
    stat_v = rng.random((12, 16))
    table = pair_scores(manual_estimate({(1, "k"): stat_k, (1, "v"): stat_v}),
                        scheme)
    d = 8
    for head in range(2):
        for p in range(4):
            # key side uses the rotation pairing
            j, jp = pair_columns(scheme.kind, p, d)
            expected = 0.0
            for n in range(12):
                expected += stat_k[n, head * d + j] + stat_k[n, head * d + jp]
            assert table.get(1, "k", head)[p] == pytest.approx(expected, rel=1e-12)
            # value side always uses consecutive pseudo-pairs
            expected_v = 0.0
            for n in range(12):
                expected_v += stat_v[n, head * d + 2 * p] + stat_v[n, head * d + 2 * p + 1]
            assert table.get(1, "v", head)[p] == pytest.approx(expected_v, rel=1e-12)


def test_group_totals_conserve_fisher_mass(rng):
    spec = make_spec(seed=31)
    model = AttentionModel.build(spec)
    fisher = estimate_fisher(model, small_calib(spec.vocab))
    table = pair_scores(fisher, spec.rope.scheme)
    for layer in range(spec.layers):
        for side in ("k", "v"):
            total = table.group_total(layer, side)
            expected = fisher[(layer, side)].sum()
            assert total == pytest.approx(expected, rel=1e-12)
    assert table.grand_total() == pytest.approx(
        sum(fisher[(l, s)].sum() for l in range(spec.layers)
            for s in ("k", "v")), rel=1e-12)


def test_estimate_is_deterministic_and_order_insensitive():
    spec = make_spec(seed=7)
    model = AttentionModel.build(spec)
    calib = small_calib(spec.vocab, count=5)
    a = estimate_fisher(model, calib)
    b = estimate_fisher(model, calib)
    assert list(a) == list(b) == sorted(a)
    for key in a:
        np.testing.assert_array_equal(a[key], b[key])
    reordered = CalibrationSet(tuple(reversed(calib.sequences)), seed=calib.seed)
    c = estimate_fisher(model, reordered)
    for key in a:
        np.testing.assert_allclose(a[key], c[key], rtol=1e-12, atol=0)


def test_loss_scaling_squares_scores_and_keeps_argsort():
    """Scaling the loss by c multiplies every score by c^2."""
    spec = make_spec(layers=1, seed=9)
    model = AttentionModel.build(spec)
    calib = small_calib(spec.vocab, count=3)
    c = 3.0
    base_sq, scaled_sq = None, None
    for seq in calib:
        loss, tape = loss_forward(model, seq)
        leaf = tape.leaves["L0.k"]
        g_base = gradients(tape, loss, [leaf])[0]
        g_scaled = gradients(tape, tape.scale(loss, c), [leaf])[0]
        base_sq = g_base ** 2 if base_sq is None else base_sq + g_base ** 2
        scaled_sq = (g_scaled ** 2 if scaled_sq is None
                     else scaled_sq + g_scaled ** 2)
    scheme = spec.rope.scheme
    base = pair_scores(manual_estimate({(0, "k"): base_sq / 3}), scheme)
    scaled = pair_scores(manual_estimate({(0, "k"): scaled_sq / 3}), scheme)
    for head in range(spec.kv_heads):
        np.testing.assert_allclose(scaled.get(0, "k", head),
                                   c * c * base.get(0, "k", head), rtol=1e-12)
        assert (np.argsort(-scaled.get(0, "k", head)).tolist()
                == np.argsort(-base.get(0, "k", head)).tolist())


# -- magnitude ---------------------------------------------------------------------


def test_magnitude_zero_columns():
    spec = make_spec(layers=1, seed=2)
    model = AttentionModel.build(spec)
    dim = spec.model_dim
    model.layers[0].k_map = LinearMap(np.zeros((dim, spec.kv_heads * spec.head_dim)))
    table = magnitude_scores(model, spec.rope.scheme)
    for g in range(spec.kv_heads):
        assert np.all(table.get(0, "k", g) == 0.0)


def test_magnitude_unit_columns():
    spec = make_spec(layers=1, seed=2)
    model = AttentionModel.build(spec)
    dim = spec.model_dim
    signs = np.where(np.random.default_rng(0).random(
        (dim, spec.kv_heads * spec.head_dim)) < 0.5, -1.0, 1.0)
    model.layers[0].k_map = LinearMap(signs)
    table = magnitude_scores(model, spec.rope.scheme)
    for g in range(spec.kv_heads):
        np.testing.assert_array_equal(table.get(0, "k", g),
                                      np.full(spec.head_dim // 2, 2.0 * dim))


def test_magnitude_matches_frobenius_oracle(rng):
    spec = make_spec(seed=5, pairing="half_split")
    model = AttentionModel.build(spec)
    table = magnitude_scores(model, spec.rope.scheme)
    d = spec.head_dim
    w = model.layers[1].k_map.weight
    for g in range(spec.kv_heads):
        for p, (a, b) in enumerate(scheme_pairs(spec.rope.scheme)):
            expected = (np.linalg.norm(w[:, g * d + a]) ** 2
                        + np.linalg.norm(w[:, g * d + b]) ** 2)
            assert table.get(1, "k", g)[p] == pytest.approx(expected, rel=1e-12)


def test_score_table_json_roundtrip(rng):
    spec = make_spec(seed=5)
    model = AttentionModel.build(spec)
    table = magnitude_scores(model, spec.rope.scheme)
    clone = PairScoreTable.from_json(table.to_json())
    assert clone.keys() == table.keys()
    for key in table.keys():
        np.testing.assert_allclose(clone.get(*key), table.get(*key), rtol=1e-15)
    assert clone.to_json() == table.to_json()


SCORES_DOCUMENT = json.loads(magnitude_scores(
    AttentionModel.build(tiny_spec()), tiny_spec().rope.scheme).to_json())


@settings(max_examples=300, deadline=None)
@given(document=JSON_VALUES | damaged(SCORES_DOCUMENT))
# an integer beyond float range, which plain numpy conversion raises OverflowError on
@example(document={"head_dim": 2, "pairing": "adjacent", "scores": {"0.k.0": [10 ** 400]}})
def test_score_table_from_json_gives_a_table_or_a_value_error(document):
    try:
        table = PairScoreTable.from_json(json.dumps(document))
    except ValueError:
        return
    assert isinstance(table, PairScoreTable)
