"""Command-line pipeline: determinism, artifacts, exit codes."""

import copy
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import make_spec
from rapkit import budget, cli, recover, scoring, toymodel
from rapkit.budget import allocate
from rapkit.cli import RunConfig, build_parser, main
from rapkit.factorize import build_compressed
from rapkit.scoring import magnitude_scores
from rapkit.toymodel import (AttentionModel, LinearMap, default_spec, forward_prefill,
                             load_model, model_arrays, save_model, spec_from_json,
                             spec_to_json)


def run(args):
    return main([str(a) for a in args])


def read_json(path):
    return json.loads(path.read_text())


def test_score_is_deterministic_and_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(["score", "--out", out1, "--seed", "42"]) == 0
    assert run(["score", "--out", out2, "--seed", "42"]) == 0
    assert (out1 / "scores.json").read_bytes() == (out2 / "scores.json").read_bytes()
    assert (out1 / "score_summary.json").read_bytes() == \
        (out2 / "score_summary.json").read_bytes()


def test_full_pipeline_determinism(tmp_path):
    for out in (tmp_path / "r1", tmp_path / "r2"):
        assert run(["score", "--out", out, "--seed", "42"]) == 0
        assert run(["prune", "--out", out, "--rho", "0.3", "--seed", "42"]) == 0
        assert run(["report", "--out", out, "--seed", "42"]) == 0
        assert run(["sweep", "--out", out, "--seed", "42"]) == 0
    for name in ("scores.json", "compressed.model", "budget.json",
                 "manifest.json", "report.csv", "report.json", "sweep.csv"):
        assert (tmp_path / "r1" / name).read_bytes() == \
            (tmp_path / "r2" / name).read_bytes(), name


def test_magnitude_scores_of_zero_weights_are_zero(tmp_path):
    spec = make_spec(seed=5)
    model = AttentionModel.build(spec)
    dim, kvw = spec.model_dim, spec.kv_heads * spec.head_dim
    for layer in model.layers:
        layer.k_map = LinearMap(np.zeros((dim, kvw)))
        layer.v_map = LinearMap(np.zeros((dim, kvw)))
    model_path = tmp_path / "zeros.model"
    save_model(model, model_path)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "model": {"path": str(model_path)}, "scoring": "magnitude",
        "out": str(tmp_path / "out")}))
    assert run(["score", "--config", config]) == 0
    scores = read_json(tmp_path / "out" / "scores.json")
    assert all(v == 0.0 for values in scores["scores"].values() for v in values)


def test_fisher_and_magnitude_argsorts_recorded_and_differ(tmp_path):
    assert run(["score", "--out", tmp_path / "f", "--scoring", "fisher"]) == 0
    assert run(["score", "--out", tmp_path / "m", "--scoring", "magnitude"]) == 0
    fisher = read_json(tmp_path / "f" / "score_summary.json")["argsort"]
    magnitude = read_json(tmp_path / "m" / "score_summary.json")["argsort"]
    assert fisher.keys() == magnitude.keys()
    assert any(fisher[k] != magnitude[k] for k in fisher)


def test_prune_zero_ratio_checkpoint_is_logit_equivalent(tmp_path):
    out = tmp_path / "out"
    assert run(["prune", "--out", out, "--rho", "0.0", "--seed", "42"]) == 0
    compressed = load_model(out / "compressed.model")
    baseline = AttentionModel.build(compressed.spec)
    tokens = [1, 2, 3, 4, 5, 6]
    np.testing.assert_allclose(forward_prefill(compressed, tokens).logits,
                               forward_prefill(baseline, tokens).logits,
                               rtol=0, atol=1e-9)


def test_manifest_audit_at_thirty_percent(tmp_path):
    out = tmp_path / "out"
    assert run(["prune", "--out", out, "--rho", "0.3", "--budget", "uniform"]) == 0
    manifest = read_json(out / "manifest.json")
    assert manifest["method"] == "rap"
    slack = 1.0 / 4  # one pair of four per head
    assert abs(manifest["retained_fraction_mean"] - 0.7) <= slack
    budget = read_json(out / "budget.json")
    assert budget["mode"] == "uniform"


def test_adaptive_prunes_keys_harder_than_values(tmp_path):
    out = tmp_path / "out"
    assert run(["prune", "--out", out, "--rho", "0.3", "--budget", "adaptive",
                "--seed", "42"]) == 0
    budget = read_json(out / "budget.json")
    k_ratios = [g["ratio"] for g in budget["groups"] if g["side"] == "k"]
    v_ratios = [g["ratio"] for g in budget["groups"] if g["side"] == "v"]
    assert np.mean(k_ratios) > np.mean(v_ratios)


def test_report_baseline_relative_columns_are_one(tmp_path):
    out = tmp_path / "out"
    assert run(["report", "--out", out, "--method", "baseline"]) == 0
    rows = (out / "report.csv").read_text().strip().split("\n")[1:]
    for row in rows:
        fields = row.split(",")
        assert fields[0] == "baseline"
        assert fields[4] == "1.000000"


def test_sweep_contains_every_method(tmp_path):
    out = tmp_path / "out"
    assert run(["sweep", "--out", out]) == 0
    rows = (out / "sweep.csv").read_text().strip().split("\n")[1:]
    methods = {row.split(",")[0] for row in rows}
    assert methods == {"baseline", "svd", "palu", "rap"}
    assert len(rows) == 4 * 5  # four methods, five default ratios


def test_verify_passes_on_freshly_pruned_model(tmp_path):
    out = tmp_path / "out"
    assert run(["verify", "--out", out, "--rho", "0.3"]) == 0
    payload = read_json(out / "verify.json")
    assert payload["passed"] is True
    assert payload["checks"]["commutativity"]["deviation"] <= 1e-12


def test_distill_zero_steps_checkpoint_unchanged(tmp_path):
    out = tmp_path / "out"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "out": str(out), "rho": 0.3, "kd": {"steps": 0},
        "calibration": {"count": 4, "window": 16}}))
    assert run(["prune", "--config", config]) == 0
    assert run(["distill", "--config", config]) == 0
    a = load_model(out / "compressed.model")
    b = load_model(out / "recovered.model")
    tokens = [3, 1, 4, 1, 5]
    np.testing.assert_array_equal(forward_prefill(a, tokens).logits,
                                  forward_prefill(b, tokens).logits)
    assert (out / "kd_trace.csv").read_text() == "step,ce,kd,total\n"


def test_distill_improves_calibration_loss(tmp_path):
    out = tmp_path / "out"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "out": str(out), "rho": 0.3,
        "kd": {"steps": 60, "lr": 0.05},
        "calibration": {"count": 8, "window": 24}}))
    assert run(["prune", "--config", config]) == 0
    assert run(["distill", "--config", config]) == 0
    trace = (out / "kd_trace.csv").read_text().strip().split("\n")
    assert trace[0] == "step,ce,kd,total"
    assert len(trace) == 61


# a prune and a distill of different configs in one --out, and what the
# refusal must name: the checkpoint's field, its value and the config's
MISMATCHED_CHECKPOINTS = {
    "method": (["--method", "svd"], ["--method", "rap", "--rho", "0.5"],
               ("method", "'svd'", "'rap'")),
    "seed": (["--seed", "7"], ["--seed", "42"], ("spec.seed", "7", "42")),
    "rho": ([], ["--rho", "0.5"], ("rho", "0.3", "0.5")),
}


@pytest.mark.parametrize("case", list(MISMATCHED_CHECKPOINTS))
def test_distill_refuses_a_checkpoint_of_another_config(case, tmp_path, capsys):
    prune_args, distill_args, named = MISMATCHED_CHECKPOINTS[case]
    out = tmp_path / "out"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"kd": {"steps": 2},
                                  "calibration": {"count": 4, "window": 16}}))
    assert run(["prune", "--config", config, "--out", out, "--rho", "0.3"] + prune_args) == 0
    capsys.readouterr()
    assert run(["distill", "--config", config, "--out", out] + distill_args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(out / "compressed.model") in err, err
    assert all(name in err for name in named), err
    assert not (out / "recovered.model").exists()


def test_divergent_distillation_exits_three(tmp_path, capsys):
    out = tmp_path / "out"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "out": str(out), "rho": 0.3,
        "kd": {"steps": 50, "lr": 1e18, "dropout": 0.0},
        "calibration": {"count": 4, "window": 16}}))
    assert run(["prune", "--config", config]) == 0
    capsys.readouterr()
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert run(["distill", "--config", config]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: distill: numeric divergence in training: weight "), err
    # the trace up to the divergence is still written
    assert (out / "kd_trace.csv").exists()


@pytest.mark.parametrize("args", [["prune", "--method", "foo"], ["prune", "--rho", "abc"],
                                  ["prune", "--bogus"], []],
                         ids=["method", "rho", "unknown", "no command"])
def test_a_flag_argparse_cannot_read_exits_one(args, tmp_path, capsys):
    out = tmp_path / "o"
    assert run(args + (["--out", out] if args else [])) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "usage:" not in err and "Traceback" not in err, err
    assert not out.exists()


def test_validation_failures_exit_one(tmp_path, capsys):
    assert run(["prune", "--out", tmp_path / "x", "--rho", "1.5"]) == 1
    assert run(["score", "--config", tmp_path / "missing.json"]) == 1
    # a directory given as the config file
    assert run(["report", "--config", tmp_path, "--out", tmp_path / "x"]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 3 and f"{tmp_path}'" in err and "Traceback" not in err, err
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"model": {"path": str(tmp_path / "nope.model")}}))
    assert run(["score", "--config", bad]) == 1
    # no partial artifacts were created
    assert not (tmp_path / "x").exists()


def test_malformed_input_artifacts_exit_one(tmp_path):
    broken = tmp_path / "scores.json"
    broken.write_text("{not json")
    assert run(["prune", "--out", tmp_path / "y", "--rho", "0.3",
                "--scores", broken]) == 1
    assert run(["prune", "--out", tmp_path / "y", "--rho", "0.3",
                "--scores", tmp_path / "absent.json"]) == 1


def test_flags_override_config(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"rho": 0.1, "out": str(tmp_path / "a")}))
    out = tmp_path / "b"
    assert run(["prune", "--config", config, "--rho", "0.5", "--out", out]) == 0
    manifest = read_json(out / "manifest.json")
    assert manifest["rho"] == 0.5


def test_prune_accepts_precomputed_scores(tmp_path):
    out = tmp_path / "out"
    assert run(["score", "--out", out]) == 0
    assert run(["prune", "--out", out, "--rho", "0.3",
                "--scores", out / "scores.json"]) == 0
    assert (out / "compressed.model").exists()


def test_prune_accepts_serialized_plan(tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    assert run(["prune", "--out", first, "--rho", "0.3", "--seed", "42"]) == 0
    assert run(["prune", "--out", second, "--rho", "0.3", "--seed", "42",
                "--plan", first / "budget.json"]) == 0
    assert (first / "compressed.model").read_bytes() == \
        (second / "compressed.model").read_bytes()


def test_distill_serializes_adapters(tmp_path):
    out = tmp_path / "out"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "out": str(out), "rho": 0.3, "kd": {"steps": 5},
        "calibration": {"count": 4, "window": 16}}))
    assert run(["prune", "--config", config]) == 0
    assert run(["distill", "--config", config]) == 0
    adapters = read_json(out / "adapters.json")
    assert set(adapters) == {f"L{i}.{r}" for i in range(2) for r in "qkvo"}
    assert all("down" in a and "up" in a for a in adapters.values())


def test_config_value_of_wrong_type_exits_one_naming_the_field(tmp_path, capsys):
    config = tmp_path / "c.json"
    for data, name in (({"rho": "0.3"}, "rho"), ({"seed": 4.5}, "seed"),
                       ({"seq_len": True}, "seq_len"), ({"ratios": 0.3}, "ratios"),
                       ({"ratios": [0.1, "0.2"]}, "ratios"),
                       ({"calibration": {"count": "8"}}, "calibration"),
                       ({"kd": {"steps": "3"}}, "kd"), ({"kd": {"bogus": 1}}, "kd"),
                       ({"model": []}, "model"), ([0.3], "config")):
        config.write_text(json.dumps(data))
        assert run(["report", "--config", config, "--out", tmp_path / "o"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and name in err, (data, err)
    assert not (tmp_path / "o").exists()


def test_sweep_ratios_share_the_rho_predicate():
    # build_compressed accepts [0, 1); validation must accept exactly that
    with pytest.raises(ValueError, match="ratios"):
        RunConfig(ratios=(0.5, 1.0)).validate()
    RunConfig(ratios=(0.0, 0.5)).validate()
    with pytest.raises(ValueError, match="rho"):
        RunConfig(rho=1.0).validate()


def test_compressed_checkpoint_is_rejected_as_base_model(tmp_path, capsys):
    assert run(["prune", "--out", tmp_path / "p", "--rho", "0.3"]) == 0
    compressed = tmp_path / "p" / "compressed.model"
    legacy = tmp_path / "legacy.model"
    legacy.write_bytes(compressed.read_bytes().replace(
        b'"method": "rap"', b'"method": "rap-hybrid"', 1))
    config = tmp_path / "c.json"
    # a method no build makes is refused when the checkpoint loads
    for path, method, named in ((compressed, "rap", "model.path"),
                                (legacy, "rap-hybrid", "manifest.method")):
        config.write_text(json.dumps({"model": {"path": str(path)},
                                      "out": str(tmp_path / "o"),
                                      "kd": {"steps": 0}}))
        for command in ("report", "prune", "verify", "distill"):
            assert run([command, "--config", config]) == 1
            err = capsys.readouterr().err
            assert named in err and repr(method) in err, (command, err)


def test_prune_rejects_scores_that_do_not_fit_the_model(tmp_path, capsys):
    small = AttentionModel.build(make_spec(head_dim=4))
    fitting = json.loads(magnitude_scores(
        AttentionModel.build(make_spec()), make_spec().rope.scheme).to_json())
    half_split, missing, extra = (json.loads(json.dumps(fitting)) for _ in range(3))
    half_split["pairing"] = "half_split"
    del missing["scores"]["1.v.1"]
    extra["scores"]["2.k.0"] = extra["scores"]["1.k.0"]
    cases = ((magnitude_scores(small, small.spec.rope.scheme).to_json(), "head_dim"),
             (json.dumps(half_split), "pairing"), (json.dumps(missing), "1.v.1"),
             (json.dumps(extra), "2.k.0"))
    scores = tmp_path / "scores.json"
    for text, name in cases:
        scores.write_text(text)
        assert run(["prune", "--out", tmp_path / "o", "--rho", "0.3",
                    "--scores", scores]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and name in err, (name, err)
    assert not (tmp_path / "o" / "compressed.model").exists()


DEFAULT_SPEC_JSON = {"layers": 2, "query_heads": 4, "kv_heads": 2, "head_dim": 8,
                     "vocab": 64, "theta_base": 10000.0, "pairing": "adjacent",
                     "seed": 42}


def test_model_spec_fields_are_checked_by_name(tmp_path, capsys):
    config = tmp_path / "c.json"
    for key, value, name in (("seed", "x", "spec.seed"), ("seed", -1, "spec.seed"),
                             ("pairing", None, "spec.pairing"),
                             ("layers", 2.0, "spec.layers"),
                             ("kv_heads", True, "spec.kv_heads"),
                             ("theta_base", "1e4", "spec.theta_base"),
                             ("heads", 4, "spec.heads")):
        spec = dict(DEFAULT_SPEC_JSON)
        if value is None:
            del spec[key]
        else:
            spec[key] = value
        config.write_text(json.dumps({"model": {"spec": spec}}))
        assert run(["report", "--config", config, "--out", tmp_path / "o"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and name in err, (key, err)
    assert not (tmp_path / "o").exists()
    spec = dict(DEFAULT_SPEC_JSON, theta_base=10000)
    del spec["seed"]
    assert spec_from_json(spec) == make_spec()


@pytest.mark.parametrize("theta_base", ["1e400", "1" + "0" * 400, "NaN"],
                         ids=["float-overflow", "int-overflow", "nan"])
def test_theta_base_beyond_float_range_or_nan_exits_one(theta_base, tmp_path, capsys):
    """JSON numbers that parse to inf, to an int no float holds, or to NaN."""
    config = tmp_path / "c.json"
    text = json.dumps({"model": {"spec": dict(DEFAULT_SPEC_JSON, theta_base=0.5)}})
    config.write_text(text.replace("0.5", theta_base))
    assert run(["report", "--config", config, "--out", tmp_path / "o"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "spec.theta_base" in err, err
    assert not (tmp_path / "o").exists()


def test_kd_enabled_and_unknown_calibration_keys_exit_one(tmp_path, capsys):
    """kd.steps 0 skips distillation; there is no separate kd.enabled switch."""
    config = tmp_path / "c.json"
    for data, names in (({"kd": {"enabled": False}}, ("kd.enabled",)),
                        ({"calibration": {"cnt": 4}}, ("calibration", "cnt"))):
        config.write_text(json.dumps(data))
        assert run(["report", "--config", config, "--out", tmp_path / "o"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and all(n in err for n in names), err
    assert not (tmp_path / "o").exists()
    RunConfig(calibration={"count": 4, "window": 8, "seed": 1}).validate()


# settings of the right kind whose values no run can use, and the name the
# error must give; each is caught before --out is created
BAD_VALUES = {
    "calibration_count_zero": ({"calibration": {"count": 0}}, [], "calibration.count"),
    "calibration_window_one": ({"calibration": {"window": 1}}, [], "calibration.window"),
    "calibration_seed_negative": ({"calibration": {"seed": -1}}, [], "calibration.seed"),
    "seed_flag_negative": ({}, ["--seed", "-3"], "seed"),
    "seed_negative": ({"seed": -1}, [], "seed"),
    "ratios_empty": ({"ratios": []}, [], "ratios"),
}


@pytest.mark.parametrize("command", ["score", "distill"])
@pytest.mark.parametrize("case", list(BAD_VALUES))
def test_bad_setting_values_exit_one_naming_the_field(case, command, tmp_path, capsys):
    data, flags, name = BAD_VALUES[case]
    config = tmp_path / "c.json"
    config.write_text(json.dumps(data))
    out = tmp_path / "o"
    assert run([command, "--config", config, "--out", out] + flags) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f" {name} " in err, err
    assert not out.exists()


@pytest.mark.parametrize("command", ["prune", "distill", "verify"])
def test_infeasible_budget_exits_two_and_writes_nothing(command, tmp_path, monkeypatch,
                                                         capsys):
    def infeasible(*args, **kwargs):
        raise budget.InfeasibleBudget("every group is pinned")

    monkeypatch.setattr(budget, "allocate", infeasible)
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"kd": {"steps": 2}, "scoring": "magnitude"}))
    out = tmp_path / "o"
    assert run([command, "--config", config, "--out", out, "--rho", "0.3"]) == 2
    assert "error: infeasible budget: every group is pinned" in capsys.readouterr().err
    assert not out.exists()


def test_readme_example_config_loads_as_documented(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("```json\n", 1)[1].split("```", 1)[0]
    config = tmp_path / "c.json"
    config.write_text(example)
    cfg = RunConfig.load(build_parser().parse_args(["report", "--config", str(config)]))
    for key, value in json.loads(example).items():
        assert getattr(cfg, key) == value, key


@pytest.mark.parametrize("kd", [{"batch_size": 0}, {"steps": -5},
                                {"lr": float("nan")}, {"lr": -0.05}, {"lr": float("inf")},
                                {"lr": 10 ** 400},
                                {"temperature": float("nan")},
                                {"alpha_ce": float("nan")}, {"alpha_kd": float("inf")},
                                {"lora_alpha": float("nan")}],
                         ids=["batch_size", "steps", "lr_nan", "lr_negative", "lr_inf",
                              "lr_beyond_float", "temperature_nan", "alpha_ce_nan",
                              "alpha_kd_inf", "lora_alpha_nan"])
def test_bad_kd_sizes_exit_one_naming_the_field(kd, tmp_path, capsys):
    """A zero batch would divide by zero in the SGD loop, and negative steps
    would distill nothing and exit 0 with an empty trace. A non-finite
    learning rate, temperature, loss weight or adapter alpha would make every
    adapter non-finite at the first step, and a negative learning rate would
    ascend the loss until it did. An integer beyond float range is no finite
    number either."""
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"kd": kd}))
    assert run(["distill", "--config", config, "--out", tmp_path / "o"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: kd.{next(iter(kd))} "), err
    assert not (tmp_path / "o").exists()


# one damage per malformed plan or score file, and a name the error must give
MALFORMED_INPUTS = {
    "plan_retained_pairs_string":
        ("--plan", lambda p: p["groups"][0].update(retained_pairs="x"), "retained_pairs"),
    "plan_num_pairs_off_the_model": ("--plan", lambda p: p.update(num_pairs=2), "num_pairs"),
    "plan_groups_missing": ("--plan", lambda p: p.update(groups=p["groups"][:2]), "1.k"),
    "plan_retains_too_many_pairs":
        ("--plan", lambda p: p["groups"][0].update(retained_pairs=5), "0.k"),
    # beyond float range, which writing budget.json's mean ratio would overflow on
    "plan_ratio_out_of_range":
        ("--plan", lambda p: p["groups"][0].update(ratio=10 ** 400), "ratio"),
    # both reached manifest.json and budget.json before the plan checked them
    "plan_mode_unknown": ("--plan", lambda p: p.update(mode="bogus"), "plan.mode"),
    "plan_rho_out_of_range": ("--plan", lambda p: p.update(rho=7.5), "plan.rho"),
    # json reads NaN and Infinity; both reached budget.json before the check
    "plan_raw_ratio_not_finite":
        ("--plan", lambda p: (p["groups"][0].update(raw_ratio=float("nan")),
                              p["groups"][1].update(raw_ratio=float("inf"))),
         "plan.groups[0].raw_ratio"),
    "scores_head_dim_string": ("--scores", lambda s: s.update(head_dim="8"), "head_dim"),
    "scores_not_an_object": ("--scores", lambda s: s.update(scores=[]), "scores.scores"),
    # keys to_json never writes, which were read as layer 1
    "scores_key_leading_zero":
        ("--scores", lambda s: s["scores"].update({"01.k.0": s["scores"].pop("1.k.0")}),
         "'01.k.0'"),
    "scores_key_arabic_indic_digit":
        ("--scores", lambda s: s["scores"].update({"\u0661.k.0": s["scores"].pop("1.k.0")}),
         "'\u0661.k.0'"),
}


@pytest.mark.parametrize("case", list(MALFORMED_INPUTS))
def test_malformed_plan_or_scores_exits_one_naming_the_field(case, tmp_path, capsys):
    model = AttentionModel.build(make_spec())
    table = magnitude_scores(model, model.spec.rope.scheme)
    documents = {"--plan": json.loads(allocate(table, 0.3).to_json()),
                 "--scores": json.loads(table.to_json())}
    flag, damage, name = MALFORMED_INPUTS[case]
    damage(documents[flag])
    path = tmp_path / "input.json"
    path.write_text(json.dumps(documents[flag]))
    assert run(["prune", "--out", tmp_path / "o", "--rho", "0.3", flag, path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and name in err and str(path) in err, err
    assert not (tmp_path / "o" / "compressed.model").exists()


@pytest.mark.parametrize("content", [b"{not json", b"\xff\xfe", b"[1]"],
                         ids=["not_json", "not_utf8", "not_an_object"])
@pytest.mark.parametrize("flag", ["--config", "--scores", "--plan"])
def test_an_input_file_that_cannot_be_read_exits_one_naming_it(flag, content, tmp_path,
                                                               capsys):
    path = tmp_path / "input.json"
    path.write_bytes(content)
    out = tmp_path / "o"
    assert run(["prune", "--out", out, flag, path]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    assert not out.exists()


# a value of another JSON kind for a field of each kind
WRONG_KIND = {str: 0, int: 0.5, float: "0", dict: [], list: {}}


def field_rules(name: str, rule, document, keys=()):
    """(path, keys into ``document``, rule) of every field ``rule`` holds below
    ``name``: each field of a table, present in ``document`` or not, and the
    first item of a list that ``document`` holds."""
    if isinstance(rule, dict):
        for key, field_rule in rule.items():
            field = key.rstrip("?")
            path = f"{name}.{field}" if name else field
            yield path, keys + (field,), field_rule
            if isinstance(document, dict) and field in document:
                yield from field_rules(path, field_rule, document[field], keys + (field,))
    elif isinstance(rule, list) and document:
        yield f"{name}[0]", keys + (0,), rule[0]
        yield from field_rules(f"{name}[0]", rule[0], document[0], keys + (0,))


def breaking_values(rule) -> list:
    """A value of the wrong JSON kind, and one just below the rule's lower
    bound or outside its choices where it has them; all small."""
    kind, allowed = (dict, None) if isinstance(rule, dict) else (
        (list, None) if isinstance(rule, list) else rule if isinstance(rule, tuple)
        else (rule, None))
    values = [WRONG_KIND[kind]]
    if isinstance(allowed, tuple):
        values.append("none of the choices")
    elif isinstance(allowed, str):
        lo = float(allowed[1:].split(",")[0])
        if allowed[0] == "(":
            values.append(int(lo) if kind is int else lo)
        else:
            values.append(int(lo) - 1 if kind is int else math.nextafter(lo, -math.inf))
    return values


def table_cases(tmp_path: Path) -> dict:
    """Per table: the name of its document, its rule, a document that obeys
    it and a function that reads a document as the program reads the file."""
    model = AttentionModel.build(make_spec())
    table = magnitude_scores(model, model.spec.rope.scheme)
    scores = json.loads(table.to_json())

    def load_config(document):
        config = tmp_path / "c.json"
        config.write_text(json.dumps(document))
        RunConfig.load(build_parser().parse_args(["report", "--config", str(config)]))

    def header_case(method):
        path = tmp_path / f"{method}.model"
        save_model(build_compressed(model, method, 0.5, scores=table), path)
        raw = path.read_bytes()
        newline = raw.index(b"\n")

        def load(header):
            path.write_bytes(json.dumps(header).encode() + raw[newline:])
            load_model(path)
        return f"{path}: header", toymodel.HEADER_FIELDS, json.loads(raw[:newline]), load

    config = {"method": "rap", "rho": 0.3, "scoring": "fisher", "budget": "adaptive",
              "seed": 1, "out": str(tmp_path / "o"), "seq_len": 8,
              "model": {"spec": spec_to_json(model.spec)},
              "calibration": {"count": 2, "window": 4, "seed": 3},
              "kd": {k: v for k, v in vars(recover.KdConfig()).items() if k != "seed"},
              "ratios": [0.1, 0.5]}
    return {
        "config": ("", cli.CONFIG_FIELDS, config, load_config),
        "kd": ("kd", recover.KD_FIELDS, vars(recover.KdConfig()),
               lambda document: recover.KdConfig(**document)),
        "calibration": ("calibration", toymodel.CALIBRATION_FIELDS,
                        {"count": 2, "window": 4, "seed": 3},
                        lambda document: toymodel.markov_calibration(8, **document)),
        "spec": ("spec", toymodel.SPEC_FIELDS, spec_to_json(model.spec), spec_from_json),
        "plan": ("plan", budget.PLAN_FIELDS, json.loads(allocate(table, 0.3).to_json()),
                 lambda document: budget.BudgetPlan.from_json(json.dumps(document))),
        "scores": ("scores", scoring.SCORES_FIELDS, scores,
                   lambda document: scoring.PairScoreTable.from_json(json.dumps(document))),
        "score_row": ("scores.scores['0.k.0']", [(float, scoring.PAIR_SCORE)],
                      scores["scores"]["0.k.0"],
                      lambda row: scoring.PairScoreTable.from_json(json.dumps(
                          {**scores, "scores": {**scores["scores"], "0.k.0": row}}))),
        "header_rap": header_case("rap"),
        "header_svd": header_case("svd"),
    }


@pytest.mark.parametrize("case", ["config", "kd", "calibration", "spec", "plan", "scores",
                                  "score_row", "header_rap", "header_svd"])
def test_every_field_of_every_table_refuses_a_bad_value_by_name(case, tmp_path):
    """Each field, at any depth, set to a value of another JSON kind, or just
    past its lower bound or outside its choices: the reader raises a
    ValueError naming the field's full path."""
    name, rule, document, read = table_cases(tmp_path)[case]
    read(copy.deepcopy(document))   # the document itself is read
    fields = list(field_rules(name, rule, document))
    assert fields
    for path, keys, field_rule in fields:
        for value in breaking_values(field_rule):
            damaged = copy.deepcopy(document)
            parent = damaged
            for key in keys[:-1]:
                parent = parent[key]
            parent[keys[-1]] = value
            with pytest.raises(ValueError) as caught:
                read(damaged)
            assert f"{path} must be" in str(caught.value), (path, value, str(caught.value))


@pytest.mark.parametrize("method", ["baseline", "svd", "palu"])
def test_prune_writes_the_uniform_plan_that_low_rank_methods_apply(method, tmp_path,
                                                                   capsys):
    out = tmp_path / "o"
    assert run(["prune", "--out", out, "--rho", "0.3", "--method", method]) == 0
    plan, manifest = read_json(out / "budget.json"), read_json(out / "manifest.json")
    assert plan["mode"] == "uniform"
    if method == "baseline":  # nothing is pruned: every pair of every group stays
        spec = default_spec()
        applied = {(i, side): spec.head_dim // 2 for i in range(spec.layers) for side in "kv"}
    else:
        applied = {(i, side): entry[side]["rank"] // 2
                   for i, entry in enumerate(manifest["layers"]) for side in "kv"}
    assert {(g["layer"], g["side"]): g["retained_pairs"] for g in plan["groups"]} == applied
    # a plan given to a method that ignores plans is refused
    assert run(["prune", "--out", tmp_path / "p", "--rho", "0.3", "--method", method,
                "--plan", out / "budget.json"]) == 1
    assert "--plan" in capsys.readouterr().err
    assert not (tmp_path / "p").exists()


def layer_side(h, side, layer=0) -> dict:
    """A rap checkpoint header's manifest entry of one layer side."""
    return h["manifest"]["layers"][layer][side]


# one damage per checkpoint header field of a rap checkpoint (rho 0.5: two of
# four pairs per kv head, value rank 4; arrays[3] is L0.v), and the names the
# error must give
DAMAGED_HEADERS = {
    "rows_a_string": (lambda h: h["arrays"][0]["shape"].__setitem__(0, "2"),
                      "arrays[0].shape[0]"),
    "retained_pairs_a_number": (lambda h: layer_side(h, "k").update(retained_pairs=5),
                                "manifest.layers[0].k.retained_pairs"),
    "arrays_of_numbers": (lambda h: h.update(arrays=[1, 2]), "arrays[0]"),
    "layer_count": (lambda h: h["manifest"]["layers"].pop(), "manifest.layers"),
    "rank_off_by_two": (lambda h: layer_side(h, "v", 1).update(rank=6),
                        ("manifest.layers[1] is", "'rank': 6")),
    "pair_list_dropped": (lambda h: layer_side(h, "k")["retained_pairs"].pop(),
                          "manifest.layers[0].k.retained_pairs"),
    "mode_renamed": (lambda h: layer_side(h, "v").update(mode="absorbed"),
                     ("manifest.layers[0] is", "'mode': 'absorbed'")),
    "rho_out_of_range": (lambda h: h["manifest"].update(rho=1.5), "manifest.rho"),
    "method_unknown": (lambda h: h["manifest"].update(method="foo"), "manifest.method"),
    "key_never_written": (lambda h: h["manifest"].update(bogus=1), "manifest.bogus"),
    "fraction_not_the_arrays": (lambda h: h["manifest"].update(retained_fraction_mean=0.9),
                                "manifest.retained_fraction_mean"),
    "plan_mode_unknown": (lambda h: h["manifest"]["plan"].update(mode="bogus"),
                          "manifest.plan.mode"),
    "plan_mode_a_number": (lambda h: h["manifest"]["plan"].update(mode=5),
                           "manifest.plan.mode"),
    "plan_group_dropped": (lambda h: h["manifest"]["plan"]["groups"].pop(),
                           "manifest.plan is"),
    "plan_ratio_out_of_range": (lambda h: h["manifest"]["plan"]["groups"][1].update(ratio=1.5),
                                "manifest.plan.groups[1].ratio"),
    "plan_pairs_not_the_layers": (
        lambda h: h["manifest"]["plan"]["groups"][0].update(retained_pairs=3),
        ("manifest.plan is", "'retained_pairs': 3")),
    "plan_dropped": (lambda h: h["manifest"].pop("plan"), "manifest.plan"),
    "spec_seed_negative": (lambda h: h["spec"].update(seed=-1), "header.spec.seed"),
    "array_listed_twice": (lambda h: h["arrays"].append(h["arrays"][1]), "header.arrays"),
    "array_renamed": (lambda h: h["arrays"][3].update(name="L0.x"),
                      ("header.arrays", "'L0.v'", "'L0.x'")),
    "dimension_negative": (lambda h: h["arrays"][3]["shape"].__setitem__(1, -8),
                           ("header.arrays[3].shape[1]", "-8")),
    "key_rebuild_added": (lambda h: h["arrays"].insert(3, {"name": "L0.k_b", "shape": [2, 4, 8]}),
                          ("header.arrays", "'L0.k_b'")),
}


@pytest.mark.parametrize("case", list(DAMAGED_HEADERS))
def test_damaged_checkpoint_header_exits_one_naming_the_field(case, tmp_path, capsys):
    path = tmp_path / "rap.model"
    base = AttentionModel.build(make_spec())
    save_model(build_compressed(base, "rap", 0.5,
                                scores=magnitude_scores(base, base.spec.rope.scheme)), path)
    raw = path.read_bytes()
    newline = raw.index(b"\n")
    header = json.loads(raw[:newline])
    damage, name = DAMAGED_HEADERS[case]
    damage(header)
    path.write_bytes(json.dumps(header).encode() + raw[newline:])
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"model": {"path": str(path)}}))
    assert run(["report", "--config", config, "--out", tmp_path / "o"]) == 1
    err = capsys.readouterr().err
    names = name if isinstance(name, tuple) else (name,)
    assert err.startswith("error:") and str(path) in err, err
    assert all(n in err for n in names), err


@pytest.mark.parametrize("layers", [10 ** 6, 10 ** 30])
def test_a_layer_count_the_arrays_cannot_hold_exits_one(layers, tmp_path, capsys):
    """Refused before any per-layer list is built: 10**30 overflowed the list
    of default layer entries, and 10**6 would build a million of them."""
    path = tmp_path / "baseline.model"
    save_model(AttentionModel.build(make_spec()), path)
    raw = path.read_bytes()
    newline = raw.index(b"\n")
    header = json.loads(raw[:newline])
    header["spec"]["layers"] = layers
    path.write_bytes(json.dumps(header).encode() + raw[newline:])
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"model": {"path": str(path)}}))
    assert run(["report", "--config", config, "--out", tmp_path / "o"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "header.spec.layers" in err, err
    assert "Traceback" not in err


def test_a_v1_checkpoint_exits_one_naming_its_format(tmp_path, capsys):
    """The earlier format: no manifest, 2-D arrays only, a top-level method."""
    model = AttentionModel.build(make_spec())
    arrays = model_arrays(model)
    header = {"format": "rapkit-model-v1", "byte_order": "little", "dtype": "float64",
              "method": "baseline", "spec": spec_to_json(model.spec),
              "arrays": [{"name": n, "rows": a.shape[0], "cols": a.shape[1]}
                         for n, a in arrays],
              "retained_pairs": [None] * model.spec.layers}
    path = tmp_path / "v1.model"
    path.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n"
                     + b"".join(a.astype("<f8").tobytes() for _, a in arrays))
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"model": {"path": str(path)}}))
    assert run(["report", "--config", config, "--out", tmp_path / "o"]) == 1
    err = capsys.readouterr().err
    assert str(path) in err and "'rapkit-model-v1'" in err, err
    # the format alone, not each field the later format renamed
    assert "; " not in err and err.count("\n") == 1, err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("method", ["baseline", "svd", "palu"])
def test_low_rank_methods_compute_no_scores(method, tmp_path, monkeypatch, capsys):
    expected = tmp_path / "expected"
    assert run(["prune", "--out", expected, "--rho", "0.3", "--method", method]) == 0
    model = AttentionModel.build(make_spec())
    scores = tmp_path / "scores.json"
    scores.write_text(magnitude_scores(model, model.spec.rope.scheme).to_json())
    config = tmp_path / "kd.json"
    config.write_text(json.dumps({"kd": {"steps": 2}}))

    def refuse(*args, **kwargs):
        raise AssertionError("scores computed for a method that reads none")

    monkeypatch.setattr(scoring, "estimate_fisher", refuse)
    monkeypatch.setattr(scoring, "magnitude_scores", refuse)
    out = tmp_path / "o"
    assert run(["prune", "--out", out, "--rho", "0.3", "--method", method]) == 0
    for name in ("compressed.model", "budget.json", "manifest.json"):
        assert (out / name).read_bytes() == (expected / name).read_bytes(), name
    # distill without a checkpoint builds the student itself
    assert run(["distill", "--config", config, "--out", tmp_path / "d",
                "--rho", "0.3", "--method", method]) == 0
    # a score table given to a method that ignores scores is refused
    assert run(["prune", "--out", tmp_path / "p", "--rho", "0.3", "--method", method,
                "--scores", scores]) == 1
    assert "--scores" in capsys.readouterr().err
    assert not (tmp_path / "p").exists()


def test_unknown_config_keys_exit_one_naming_the_key(tmp_path, capsys):
    config = tmp_path / "c.json"
    for data, names in (({"rh0": 0.9, "model": {"pth": "x"}}, ("rh0", "model.pth")),
                        ({"model": {"pth": "x"}}, ("model.pth",))):
        config.write_text(json.dumps(data))
        assert run(["report", "--config", config, "--out", tmp_path / "o"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and all(n in err for n in names), err
    assert not (tmp_path / "o").exists()
    config.write_text(json.dumps({"model": {"path": None, "spec": None}}))
    assert run(["report", "--config", config, "--out", tmp_path / "o"]) == 0


def test_model_path_and_spec_together_exit_one_naming_both(tmp_path, capsys):
    path = tmp_path / "base.model"
    save_model(AttentionModel.build(default_spec()), path)
    spec = {"layers": 3, "query_heads": 4, "kv_heads": 2, "head_dim": 16, "vocab": 64,
            "theta_base": 10000.0, "pairing": "half_split", "seed": 1}
    spec_from_json(spec)  # the spec alone is valid
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"model": {"path": str(path), "spec": spec}}))
    out = tmp_path / "o"
    assert run(["prune", "--config", config, "--out", out, "--rho", "0.3"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "model.path" in err and "model.spec" in err, err
    assert not out.exists()


# per command, a flag it never reads and the reason the refusal must give
UNREAD_FLAG_CASES = {
    "score-rho": ("score", ["--rho", "0.9"], "pair scores only"),
    "score-method": ("score", ["--method", "svd"], "pair scores only"),
    "score-budget": ("score", ["--budget", "uniform"], "pair scores only"),
    "report-rho": ("report", ["--rho", "0.9"], "ratios"),
    "sweep-rho": ("sweep", ["--rho", "0.9"], "ratios"),
    "sweep-method": ("sweep", ["--method", "svd"], "every method"),
    "verify-method": ("verify", ["--method", "svd"], "rap"),
}


@pytest.mark.parametrize("case", list(UNREAD_FLAG_CASES))
def test_flags_a_command_never_reads_exit_one(case, tmp_path, capsys):
    command, flag, reason = UNREAD_FLAG_CASES[case]
    out = tmp_path / "o"
    assert run([command, "--out", out] + flag) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag[0]} would be ignored:") and reason in err, err
    assert not out.exists()
    # a config file's key of the same name serves the whole pipeline
    config = tmp_path / "c.json"
    config.write_text(json.dumps({flag[0][2:]: json.loads(flag[1]) if flag[0] == "--rho"
                                  else flag[1], "ratios": [0.5],
                                  "scoring": "magnitude"}))
    assert run([command, "--config", config, "--out", out]) == 0


# -- the Fisher table score writes, read back under its key --------------------

SMALL_RUN = {"rho": 0.3, "calibration": {"count": 4, "window": 16}, "kd": {"steps": 2}}
# each command's artifacts
ARTIFACTS = {"score": ("scores.json", "score_summary.json", "scores_key.json"),
             "prune": ("compressed.model", "budget.json", "manifest.json"),
             "distill": ("recovered.model", "adapters.json", "kd_trace.csv"),
             "report": ("report.csv", "report.json"),
             "sweep": ("sweep.csv", "sweep.json"),
             "verify": ("verify.json",)}


def count_calls(monkeypatch, *names) -> list:
    """Patch each ``scoring`` function named to record its calls, by name, in
    the returned list."""
    calls = []

    def counted(name, original):
        def call(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return call

    for name in names:
        monkeypatch.setattr(scoring, name, counted(name, getattr(scoring, name)))
    return calls


def write_config(path: Path, settings: dict) -> Path:
    path.write_text(json.dumps(settings))
    return path


def assert_same_artifacts(command, got: Path, expected: Path):
    for name in ARTIFACTS[command]:
        assert (got / name).read_bytes() == (expected / name).read_bytes(), (command, name)


@pytest.mark.parametrize("seed", [7, 42])
def test_commands_after_score_read_its_table_back(seed, tmp_path, monkeypatch):
    config = write_config(tmp_path / "c.json", {**SMALL_RUN, "seed": seed})
    fresh = {}
    for command in ARTIFACTS:
        fresh[command] = tmp_path / f"fresh-{command}"
        assert run([command, "--config", config, "--out", fresh[command]]) == 0
    calls = count_calls(monkeypatch, "estimate_fisher")
    pipeline = tmp_path / "pipeline"
    for command in ARTIFACTS:
        assert run([command, "--config", config, "--out", pipeline]) == 0
        assert calls == ["estimate_fisher"], command  # score's estimate only
        assert_same_artifacts(command, pipeline, fresh[command])
    # a second score reads its own table back and writes the same bytes
    assert run(["score", "--config", config, "--out", pipeline]) == 0
    assert calls == ["estimate_fisher"]
    assert_same_artifacts("score", pipeline, fresh["score"])
    # distill builds its own student from the table when --out holds no checkpoint,
    # on the calibration set it trains on
    student = tmp_path / "student"
    assert run(["score", "--config", config, "--out", student]) == 0
    windows = []
    original = toymodel.markov_calibration
    monkeypatch.setattr(toymodel, "markov_calibration",
                        lambda *a, **k: windows.append(a) or original(*a, **k))
    assert run(["distill", "--config", config, "--out", student]) == 0
    assert len(calls) == 2 and len(windows) == 1
    assert_same_artifacts("distill", student, fresh["distill"])


def stale_settings(case: str, tmp_path: Path) -> tuple[dict, dict]:
    """The settings of score and of the command after it, differing in one input."""
    if case == "model.path":
        # two checkpoints of one spec: only the weights differ
        model, paths = AttentionModel.build(default_spec(seed=1)), []
        for scale in (1.0, 1.5):
            model.embedding = model.embedding * scale
            paths.append(str(tmp_path / f"base{scale}.model"))
            save_model(model, paths[-1])
        return ({**SMALL_RUN, "model": {"path": paths[0]}},
                {**SMALL_RUN, "model": {"path": paths[1]}})
    calibration = SMALL_RUN["calibration"]
    changed = {
        "calibration.count": {"calibration": {**calibration, "count": 3}},
        "calibration.window": {"calibration": {**calibration, "window": 12}},
        "calibration.seed": {"calibration": {**calibration, "seed": 9}},
        "seed": {"seed": 43},
        # the spec alone: theta_base changes no weight
        "model.spec": {"model": {"spec": {**DEFAULT_SPEC_JSON, "theta_base": 500.0}}},
        "scoring to magnitude": {"scoring": "magnitude"},
        "scoring to fisher": {},
    }[case]
    first = {**SMALL_RUN, "scoring": "magnitude"} if case == "scoring to fisher" else SMALL_RUN
    return first, {**SMALL_RUN, **changed}


def edit_a_score(out: Path):
    data = read_json(out / "scores.json")
    data["scores"]["0.k.0"][0] += 1.0
    (out / "scores.json").write_text(json.dumps(data, sort_keys=True, indent=1))


TAMPERED = {"edited score": edit_a_score,
            "deleted key": lambda out: (out / "scores_key.json").unlink(),
            "garbled key": lambda out: (out / "scores_key.json").write_text("{\"inputs\": ")}
STALE_CASES = ("calibration.count", "calibration.window", "calibration.seed", "seed",
               "model.spec", "model.path", "scoring to magnitude", "scoring to fisher")


@pytest.mark.parametrize("case", STALE_CASES + tuple(TAMPERED))
def test_a_stale_or_damaged_table_is_estimated_again(case, tmp_path, monkeypatch):
    if case in TAMPERED:
        first = second = SMALL_RUN
    else:
        first, second = stale_settings(case, tmp_path)
    fresh, out = tmp_path / "fresh", tmp_path / "out"
    second_config = write_config(tmp_path / "second.json", second)
    assert run(["prune", "--config", second_config, "--out", fresh]) == 0
    assert run(["score", "--config", write_config(tmp_path / "first.json", first),
                "--out", out]) == 0
    TAMPERED.get(case, lambda out: None)(out)
    listing = sorted(path.name for path in out.iterdir())
    scores_bytes = (out / "scores.json").read_bytes()
    calls = count_calls(monkeypatch, "estimate_fisher", "magnitude_scores")
    assert run(["prune", "--config", second_config, "--out", out]) == 0
    expected = "magnitude_scores" if second.get("scoring") == "magnitude" else \
        "estimate_fisher"
    assert calls == [expected]
    assert_same_artifacts("prune", out, fresh)
    # the estimate is not written back
    assert (out / "scores.json").read_bytes() == scores_bytes
    assert sorted(path.name for path in out.iterdir()) == sorted(
        listing + list(ARTIFACTS["prune"]))


def test_magnitude_scores_remove_the_key_of_a_fisher_table(tmp_path):
    assert run(["score", "--out", tmp_path]) == 0
    assert set(read_json(tmp_path / "scores_key.json")) == {"inputs", "scores"}
    assert run(["score", "--out", tmp_path, "--scoring", "magnitude"]) == 0
    assert not (tmp_path / "scores_key.json").exists()


@pytest.mark.parametrize("command, stage", [
    ("score", "scoring"), ("prune", "scoring"), ("verify", "scoring"),
    ("sweep", "scoring"), ("report", "measurement"), ("distill", "scoring")])
def test_numeric_divergence_exits_three_naming_command_and_stage(command, stage, tmp_path,
                                                                  capsys):
    # finite weights whose forward pass overflows
    model = AttentionModel.build(default_spec(seed=42))
    model.embedding = model.embedding * 1e155
    save_model(model, tmp_path / "big.model")
    config = write_config(tmp_path / "c.json", {**SMALL_RUN,
                                                "model": {"path": str(tmp_path / "big.model")}})
    out = tmp_path / "out"
    args = [command, "--config", config, "--out", out]
    if command == "report":
        args += ["--method", "baseline"]      # no scores: the forward pass overflows
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(args) == 3
    assert not caught, [str(w.message) for w in caught]
    err = capsys.readouterr().err
    assert err.startswith(f"error: {command}: numeric divergence in {stage}: "), err
    assert not any(out.glob("scores*.json")) and not any(out.glob("report.*"))
