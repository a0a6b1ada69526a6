"""Resource model: published table values, measured-vs-analytic agreement."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import RAP_CASE, make_spec
from rapkit.analyze import (CSV_COLUMNS, analytic_attention_params, analytic_kv_projection,
                            baseline_attention_params, baseline_kv_entries,
                            measure_forward, method_factors, reports_to_csv,
                            reports_to_json, sweep)
from rapkit.factorize import METHODS, build_compressed
from rapkit.scoring import estimate_fisher, magnitude_scores, pair_scores
from rapkit.toymodel import (AttentionModel, load_model, markov_calibration,
                             save_model)

# KV-projection-only per-head per-token FLOPs at H=32, D=128 (published table)
FLOPS_TABLE_M = {
    0.9: {"svd": 1.946, "palu": 1.917, "rap": 1.887},
    0.8: {"svd": 1.730, "palu": 1.704, "rap": 1.678},
    0.7: {"svd": 1.514, "palu": 1.491, "rap": 1.468},
    0.6: {"svd": 1.298, "palu": 1.278, "rap": 1.258},
    0.5: {"svd": 1.081, "palu": 1.065, "rap": 1.049},
}


def toy_setup(seed=42, rho=0.3, method="rap", budget="uniform"):
    spec = make_spec(seed=seed)
    model = AttentionModel.build(spec)
    calib = markov_calibration(spec.vocab, count=6, window=24, seed=seed)
    table = pair_scores(estimate_fisher(model, calib), spec.rope.scheme)
    compressed = build_compressed(model, method, rho, scores=table)
    return spec, model, table, compressed


def test_baseline_flops_formula():
    got = analytic_kv_projection("baseline", 1.0, heads=32, head_dim=128)
    assert got["flops"] == 2_097_152.0
    assert got["params"] == 2 * 32 * 128 ** 2
    assert got["kv_cache"] == 2 * 128


def test_published_flops_table_reproduced_to_table_rounding():
    for r, row in FLOPS_TABLE_M.items():
        for method, expected_m in row.items():
            got = analytic_kv_projection(method, r, heads=32, head_dim=128)
            assert abs(got["flops"] / 1e6 - expected_m) <= 0.001, (method, r)


def test_rap_at_half_ratio_is_exactly_half_baseline():
    got = analytic_kv_projection("rap", 0.5, heads=32, head_dim=128)
    assert got["flops"] == 2_097_152.0 / 2


def test_parameter_break_even_thresholds_single_head():
    # svd: params factor 2r crosses 1 exactly at rho = 50%
    assert abs(method_factors("svd", 0.5, 1)["params"] - 1.0) <= 1e-12
    assert method_factors("svd", 0.5 - 1e-6, 1)["params"] < 1.0
    assert method_factors("svd", 0.5 + 1e-6, 1)["params"] > 1.0
    # palu: 1.5r crosses 1 exactly at rho = 1/3
    r_even = 1.0 - 1.0 / 3.0
    assert abs(method_factors("palu", r_even, 1)["params"] - 1.0) <= 1e-12
    assert method_factors("palu", r_even - 1e-6, 1)["params"] < 1.0


def test_strict_method_ordering_in_closed_form():
    for heads in (1, 4, 32):
        for r in np.linspace(0.05, 0.999, 40):
            rap = method_factors("rap", r, heads)["flops"]
            palu = method_factors("palu", r, heads)["flops"]
            svd = method_factors("svd", r, heads)["flops"]
            assert rap < palu < svd


def test_invalid_ratio_rejected():
    with pytest.raises(ValueError):
        analytic_kv_projection("rap", 0.0, 32, 128)
    with pytest.raises(ValueError):
        analytic_kv_projection("rap", 1.5, 32, 128)
    with pytest.raises(ValueError):
        method_factors("palu2", 0.5, 1)


# -- measurement -----------------------------------------------------------------


def test_baseline_measured_equals_analytic_exactly():
    spec, model, _, _ = toy_setup()
    report = measure_forward(build_compressed(model, "baseline", 0.0),
                             list(range(10)))
    assert report.flops_kvproj_measured == report.flops_kvproj_analytic
    assert report.kv_entries == baseline_kv_entries(spec, 10)
    assert report.params_attn == baseline_attention_params(spec)
    assert report.params_attn_rel == 1.0


@pytest.mark.parametrize("method", ["svd", "palu", RAP_CASE])
def test_measured_equals_analytic_at_integral_pair_counts(method):
    # rho=0.5 on head_dim 8 gives m=2 of 4 pairs: exactly representable
    spec, model, table, compressed = toy_setup(rho=0.5, method=method)
    report = measure_forward(compressed, list(range(12)))
    assert report.flops_kvproj_measured == report.flops_kvproj_analytic


def test_rap_attention_params_scale_exactly_with_kept_fraction():
    for rho in (0.25, 0.5):   # both exactly representable on 4 pairs
        spec, model, table, compressed = toy_setup(rho=rho)
        report = measure_forward(compressed, list(range(8)))
        assert report.params_attn == (1 - rho) * baseline_attention_params(spec)
        assert report.kv_entries == (1 - rho) * baseline_kv_entries(spec, 8)


@pytest.mark.parametrize("method", ["baseline", "svd", "palu", RAP_CASE])
def test_analytic_params_match_measured_at_integral_ranks(method):
    spec, model, table, compressed = toy_setup(rho=0.5, method=method)
    report = measure_forward(compressed, list(range(8)))
    assert report.params_attn == report.params_attn_analytic


@settings(max_examples=100, deadline=None)
@given(layers=st.integers(1, 2), kv_heads=st.integers(1, 2), group=st.integers(1, 2),
       pairs=st.integers(1, 6), pairing=st.sampled_from(["adjacent", "half_split"]),
       method=st.sampled_from(METHODS), data=st.data())
def test_attention_params_equal_the_closed_form_at_whole_pair_counts(
        layers, kv_heads, group, pairs, pairing, method, data):
    """Over spec shapes, both pairings and every method, at every rho where
    (1 - rho) * D/2 is whole, the built model's attention parameter count is
    the closed form's at 1 - rho."""
    spec = make_spec(layers=layers, query_heads=kv_heads * group, kv_heads=kv_heads,
                     head_dim=2 * pairs, vocab=16, pairing=pairing)
    base = AttentionModel.build(spec)
    # two roundings of each kept fraction; those where (1 - rho) * D/2 is whole
    rhos = {rho for kept in range(1, pairs + 1)
            for rho in (1 - kept / pairs, (pairs - kept) / pairs)
            if ((1 - rho) * pairs).is_integer()}
    rho = data.draw(st.sampled_from(sorted(rhos)), label="rho")
    model = build_compressed(base, method, rho,
                             scores=magnitude_scores(base, spec.rope.scheme))
    assert model.attention_params() == analytic_attention_params(method, 1 - rho, spec)


@pytest.mark.parametrize("method", METHODS)
def test_the_parameter_count_is_what_the_checkpoint_writes(method, tmp_path):
    """The count report and sweep print is the number of float64s in the
    checkpoint's blob, and the attention count is that less the embedding."""
    base = AttentionModel.build(make_spec())
    model = build_compressed(base, method, 0.5,
                             scores=magnitude_scores(base, base.spec.rope.scheme))
    path = tmp_path / "m.model"
    save_model(model, path)
    data = path.read_bytes()
    assert len(data) - (data.index(b"\n") + 1) == 8 * model.total_params()
    assert model.attention_params() == model.total_params() - model.embedding.size


def test_rap_linear_scaling_within_one_pair_slack():
    spec = make_spec(seed=42)
    slack = 1.0 / (spec.head_dim // 2)  # one pair per head
    for rho in (0.1, 0.2, 0.3, 0.4, 0.5):
        _, model, table, compressed = toy_setup(rho=rho)
        report = measure_forward(compressed, list(range(8)))
        assert abs(report.params_attn_rel - (1 - rho)) <= slack + 1e-12
        base_flops = analytic_kv_projection("baseline", 1.0, spec.query_heads,
                                            spec.head_dim)["flops"]
        assert abs(report.flops_kvproj_measured / base_flops - (1 - rho)) <= slack + 1e-12


def test_svd_excess_flops_equal_reconstruction_terms():
    """svd minus rap at equal ranks is exactly the K and V reconstructions."""
    spec, model, table, rap = toy_setup(rho=0.5, method="rap")
    svd = build_compressed(model, "svd", 0.5)
    s = 12
    tokens = list(range(s))
    rap_flops = measure_forward(rap, tokens).flops_kvproj_total
    svd_flops = measure_forward(svd, tokens).flops_kvproj_total
    rank = svd.layers[0].k_recon[0].shape[0]
    recon = spec.layers * spec.kv_heads * 2 * (2 * s * rank * spec.head_dim)
    assert svd_flops - rap_flops == recon


def test_decode_reconstruction_cost_grows_with_context():
    """Per-step decode cost: flat for absorbed paths, growing when the cache
    must be reconstructed (keys and values for svd, keys for palu)."""
    from rapkit.numcore import Tape
    from rapkit.toymodel import forward_decode, forward_prefill

    spec, model, table, _ = toy_setup()

    def step_cost(compressed, context):
        result = forward_prefill(compressed, list(range(context)))
        tape = Tape()
        forward_decode(compressed, result.cache, 1, tape=tape)
        return tape.flops_by_tag["kv_proj"]

    for method, grows in (("svd", True), ("palu", True), ("rap", False)):
        compressed = build_compressed(model, method, 0.5, scores=table)
        short, long = step_cost(compressed, 4), step_cost(compressed, 16)
        if grows:
            assert long > short, method
        else:
            assert long == short, method


def test_measured_ordering_at_every_ratio():
    spec, model, table, _ = toy_setup()
    tokens = list(range(10))
    for rho in (0.1, 0.2, 0.3, 0.4, 0.5):
        flops = {}
        for method in ("svd", "palu", "rap"):
            compressed = build_compressed(model, method, rho, scores=table)
            flops[method] = measure_forward(compressed, tokens).flops_kvproj_total
        assert flops["rap"] < flops["palu"] < flops["svd"]


# -- sweep and serialization -------------------------------------------------------


def test_sweep_baseline_single_ratio_all_relative_one():
    spec, model, table, _ = toy_setup()
    reports = sweep(model, ["baseline"], [0.3], list(range(8)))
    assert len(reports) == 1
    assert reports[0].params_attn_rel == 1.0
    assert reports[0].flops_kvproj_measured == reports[0].flops_kvproj_analytic
    assert reports[0].kv_entries == reports[0].kv_entries_analytic


def test_sweep_rap_relative_params_track_kept_fraction():
    spec, model, table, _ = toy_setup()
    reports = sweep(model, ["rap"], [0.25, 0.5], list(range(8)), scores=table)
    for report, rho in zip(reports, (0.25, 0.5)):
        assert report.params_attn_rel == pytest.approx(1 - rho, abs=1e-12)


def test_csv_schema_and_formatting():
    spec, model, table, _ = toy_setup()
    reports = sweep(model, ["baseline", "rap"], [0.5], list(range(8)),
                    scores=table)
    csv = reports_to_csv(reports)
    lines = csv.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 3
    fields = lines[1].split(",")
    assert fields[0] == "baseline"
    assert fields[4] == "1.000000"          # fractions carry 6 decimals
    assert fields[2].isdigit() and fields[3].isdigit() and fields[5].isdigit()
    payload = json.loads(reports_to_json(reports))
    assert payload[0]["method"] == "baseline"
    assert payload[1]["method"] == "rap"


def test_analytic_table_to_three_decimals_via_report_units():
    """The sweep's analytic column reproduces the published numbers at the
    published head geometry."""
    for rho, row in ((0.1, FLOPS_TABLE_M[0.9]), (0.5, FLOPS_TABLE_M[0.5])):
        for method, expected in row.items():
            got = analytic_kv_projection(method, 1 - rho, 32, 128)["flops"] / 1e6
            assert got == pytest.approx(expected, abs=5e-4)


@pytest.mark.parametrize("method", METHODS)
def test_measure_forward_of_a_loaded_checkpoint_equals_the_in_memory_report(method,
                                                                            tmp_path):
    """A checkpoint carries its manifest, so a loaded model reports the rho and
    analytic columns of the model that was saved."""
    spec, model, table, _ = toy_setup()
    compressed = build_compressed(model, method, 0.3, scores=table)
    tokens = list(range(8))
    path = tmp_path / f"{method}.model"
    save_model(compressed, path)
    report = measure_forward(load_model(path), tokens)
    assert report == measure_forward(compressed, tokens) and report.rho == 0.3
