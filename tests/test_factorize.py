"""Factorization construction, absorption identities, latent-path equivalence."""

import copy
import gc
import weakref

import numpy as np
import pytest

from conftest import RAP_CASE, make_spec
from rapkit import factorize
from rapkit.budget import allocate, uniform_plan
from rapkit.factorize import (build_compressed, reconstructed_reference,
                              svd_factor, top_pairs)
from rapkit.rope import PairingScheme, RetainedIndex, rotate, rotate_indexed
from rapkit.scoring import PairScoreTable, estimate_fisher, magnitude_scores, pair_scores
from rapkit.toymodel import (AttentionModel, forward_decode, forward_prefill,
                             load_model, markov_calibration, save_model)


def fisher_table(model, seed=3, count=6, window=24):
    calib = markov_calibration(model.spec.vocab, count=count, window=window,
                               seed=seed)
    return pair_scores(estimate_fisher(model, calib), model.spec.rope.scheme)


def uniform_scores(spec) -> PairScoreTable:
    table = PairScoreTable(head_dim=spec.head_dim, pairing=spec.rope.scheme.kind)
    for layer in range(spec.layers):
        for side in ("k", "v"):
            for h in range(spec.kv_heads):
                table.set(layer, side, h, np.arange(1, spec.head_dim // 2 + 1,
                                                    dtype=float))
    return table


def rap_build(model, table, plan):
    """A rap build plus, per layer, each kv head's (key columns, retained pairs)."""
    compressed = build_compressed(model, "rap", plan.rho, scores=table, plan=plan)
    heads = []
    for layer in compressed.layers:
        width = layer.k_map.weight.shape[1] // model.spec.kv_heads
        heads.append([(layer.k_map.weight[:, g * width:(g + 1) * width], retained)
                      for g, retained in enumerate(layer.k_retained)])
    return compressed, heads


# -- rap pair pruning ----------------------------------------------------------


def test_full_retention_reproduces_weights():
    spec = make_spec(seed=1)
    model = AttentionModel.build(spec)
    plan = uniform_plan(spec.head_dim // 2, spec.layers, 0.0)
    compressed, heads = rap_build(model, uniform_scores(spec), plan)
    for i, layer in enumerate(model.layers):
        np.testing.assert_array_equal(compressed.layers[i].k_map.weight,
                                      layer.k_map.weight)
        np.testing.assert_array_equal(compressed.layers[i].proj_q.weight,
                                      layer.proj_q.weight)
        for _, retained in heads[i]:
            np.testing.assert_array_equal(retained.expansion_matrix(),
                                          np.eye(spec.head_dim))


def test_hand_constructed_half_split_expansion():
    # D=4 half-split pairs {(0,2),(1,3)}; retaining pair 0 keeps columns 0 and 2
    scheme = PairingScheme("half_split", 4)
    retained = RetainedIndex((0,), scheme)
    assert retained.rap_index == [0, 2]
    np.testing.assert_array_equal(retained.expansion_matrix(),
                                  [[1.0, 0.0, 0.0, 0.0],
                                   [0.0, 0.0, 1.0, 0.0]])


def test_retained_set_matches_argmax_oracle(rng):
    for trial in range(30):
        sigma = rng.random(8)
        m = int(rng.integers(1, 9))
        got = top_pairs(sigma, m)
        ranked = sorted(range(8), key=lambda i: (-sigma[i], i))  # oracle
        assert got == tuple(sorted(ranked[:m]))


def test_ties_keep_lower_pair_index():
    sigma = np.array([1.0, 2.0, 2.0, 0.5])
    assert top_pairs(sigma, 2) == (1, 2)
    sigma = np.array([3.0, 3.0, 3.0, 3.0])
    assert top_pairs(sigma, 2) == (0, 1)


def test_pruned_product_places_columns_at_rap_index(rng):
    spec = make_spec(seed=6, pairing="half_split")
    model = AttentionModel.build(spec)
    table = fisher_table(model)
    plan = uniform_plan(spec.head_dim // 2, spec.layers, 0.5)
    _, heads = rap_build(model, table, plan)
    d = spec.head_dim
    for i, layer in enumerate(model.layers):
        for g, (columns, retained) in enumerate(heads[i]):
            dense = columns @ retained.expansion_matrix()
            block = layer.k_map.weight[:, g * d:(g + 1) * d]
            idx = retained.rap_index
            np.testing.assert_array_equal(dense[:, idx], block[:, idx])
            pruned_cols = [c for c in range(d) if c not in idx]
            assert np.all(dense[:, pruned_cols] == 0.0)
            # heads of one group share the retained count
            assert len(retained) == plan.retained_pairs(i, "k")


def test_absorption_equals_dense_product(rng):
    spec = make_spec(seed=14)
    model = AttentionModel.build(spec)
    plan = uniform_plan(spec.head_dim // 2, spec.layers, 0.3)
    compressed, heads = rap_build(model, fisher_table(model), plan)
    d = spec.head_dim
    for i, layer in enumerate(model.layers):
        w_q = layer.proj_q.weight
        m = plan.retained_pairs(i, "k")
        absorbed_q = compressed.layers[i].proj_q.weight
        parts = []
        for h in range(spec.query_heads):
            _, retained = heads[i][h // spec.group_size]
            b = retained.expansion_matrix()
            parts.append(w_q[:, h * d:(h + 1) * d] @ b.T)  # dense oracle
        np.testing.assert_array_equal(np.concatenate(parts, axis=1), absorbed_q)
        assert absorbed_q.shape == (spec.model_dim, spec.query_heads * 2 * m)


# -- svd_factor ---------------------------------------------------------------


def test_svd_full_rank_is_exact(rng):
    w = rng.normal(size=(8, 4))
    fact = svd_factor(w, 4)
    np.testing.assert_allclose(fact.a @ fact.b, w, atol=1e-9)


def test_svd_rank_one_outer_product_exact(rng):
    w = np.outer(rng.normal(size=6), rng.normal(size=4))
    fact = svd_factor(w, 1)
    np.testing.assert_allclose(fact.a @ fact.b, w, atol=1e-10)


def test_svd_error_matches_gram_matrix_oracle(rng):
    w = rng.normal(size=(8, 4))
    fact = svd_factor(w, 2)
    err = np.linalg.norm(w - fact.a @ fact.b, "fro") ** 2
    # independent oracle: eigenvalues of W^T W are squared singular values
    eigvals = np.sort(np.linalg.eigvalsh(w.T @ w))[::-1]
    expected = eigvals[2] + eigvals[3]
    assert err == pytest.approx(expected, abs=1e-8)


def test_svd_error_non_increasing_in_rank(rng):
    w = rng.normal(size=(10, 6))
    errors = [np.linalg.norm(w - (f := svd_factor(w, r)).a @ f.b, "fro")
              for r in range(1, 7)]
    assert all(a >= b - 1e-12 for a, b in zip(errors, errors[1:]))


def test_svd_rank_bounds():
    with pytest.raises(ValueError):
        svd_factor(np.ones((4, 3)), 0)
    with pytest.raises(ValueError):
        svd_factor(np.ones((4, 3)), 4)


# -- structural invariants -------------------------------------------------------


@pytest.mark.parametrize("pairing", ["adjacent", "half_split"])
def test_commutativity_with_dense_expansion(pairing, rng):
    """rotate_indexed(X A) B == rotate(X A B) for every produced head."""
    spec = make_spec(seed=3, pairing=pairing)
    model = AttentionModel.build(spec)
    plan = uniform_plan(spec.head_dim // 2, spec.layers, 0.5)
    _, heads = rap_build(model, fisher_table(model), plan)
    cfg = spec.rope
    for layer_heads in heads:
        for columns, retained in layer_heads:
            x = rng.normal(size=(5, spec.model_dim))
            positions = rng.integers(0, 1000, size=5).tolist()
            latent = x @ columns
            b = retained.expansion_matrix()
            lhs = rotate_indexed(latent, positions, cfg, retained) @ b
            rhs = rotate(latent @ b, positions, cfg)
            assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_attention_scores_equal_pruned_reference(rng):
    """Latent-score attention equals full-width scores of the pruned weights."""
    spec = make_spec(seed=9)
    model = AttentionModel.build(spec)
    table = fisher_table(model)
    plan = uniform_plan(spec.head_dim // 2, spec.layers, 0.5)
    compressed, heads = rap_build(model, table, plan)
    d = spec.head_dim
    layer = model.layers[0]
    x = rng.normal(size=(6, spec.model_dim))
    positions = list(range(6))
    for h in range(spec.query_heads):
        g = h // spec.group_size
        columns, retained = heads[0][g]
        b = retained.expansion_matrix()
        m2 = 2 * len(retained)
        q_tilde = x @ compressed.layers[0].proj_q.weight[:, h * m2:(h + 1) * m2]
        k_latent = x @ columns
        latent_scores = (rotate_indexed(q_tilde, positions, spec.rope, retained)
                         @ rotate_indexed(k_latent, positions, spec.rope,
                                          retained).T)
        w_q_h = layer.proj_q.weight[:, h * d:(h + 1) * d]
        w_k_pruned = layer.k_map.weight[:, g * d:(g + 1) * d] @ b.T @ b
        full_scores = (rotate(x @ w_q_h, positions, spec.rope)
                       @ rotate(x @ w_k_pruned, positions, spec.rope).T)
        np.testing.assert_allclose(latent_scores, full_scores, rtol=0, atol=1e-10)


def test_value_absorption_associativity(rng):
    """softmax(P) (X A_v) (B_v W_o) == softmax(P) (X A_v B_v) W_o."""
    rng = np.random.default_rng(0)
    x = rng.normal(size=(5, 16))
    w_v = rng.normal(size=(16, 8))
    w_o = rng.normal(size=(8, 16))
    fact = svd_factor(w_v, 4)
    scores = rng.normal(size=(5, 5))
    probs = np.exp(scores) / np.exp(scores).sum(axis=1, keepdims=True)
    latent = probs @ (x @ fact.a) @ (fact.b @ w_o)
    dense = probs @ (x @ fact.a @ fact.b) @ w_o
    np.testing.assert_allclose(latent, dense, rtol=0, atol=1e-10)


# -- build_compressed -------------------------------------------------------------


@pytest.mark.parametrize("method", ["baseline", "svd", "palu", RAP_CASE])
def test_zero_compression_reproduces_baseline_logits(method, rng):
    spec = make_spec(seed=10)
    model = AttentionModel.build(spec)
    table = fisher_table(model)
    compressed = build_compressed(model, method, 0.0, scores=table)
    tokens = rng.integers(0, spec.vocab, size=12).tolist()
    base = forward_prefill(model, tokens).logits
    got = forward_prefill(compressed, tokens).logits
    np.testing.assert_allclose(got, base, rtol=0, atol=1e-9)


@pytest.mark.parametrize("method", ["svd", "palu", RAP_CASE])
@pytest.mark.parametrize("rho", [0.1, 0.25, 0.5])
def test_latent_forward_equals_reconstructed_reference(method, rho, rng):
    spec = make_spec(seed=30, pairing="half_split")
    model = AttentionModel.build(spec)
    table = fisher_table(model)
    plan = allocate(table, rho, "adaptive")
    compressed = build_compressed(model, method, rho, scores=table, plan=plan)
    reference = reconstructed_reference(model, method, rho, scores=table, plan=plan)
    tokens = rng.integers(0, spec.vocab, size=10).tolist()
    lat = forward_prefill(compressed, tokens).logits
    ref = forward_prefill(reference, tokens).logits
    np.testing.assert_allclose(lat, ref, rtol=0, atol=1e-9)


@pytest.mark.parametrize("method", ["svd", "palu", RAP_CASE])
def test_decode_matches_prefill_for_latent_caches(method):
    spec = make_spec(seed=33)
    model = AttentionModel.build(spec)
    table = fisher_table(model)
    compressed = build_compressed(model, method, 0.3, scores=table)
    tokens = [4, 40, 11, 2, 59, 23, 8]
    full = forward_prefill(compressed, tokens)
    partial = forward_prefill(compressed, tokens[:4])
    cache = partial.cache
    logits = None
    for tok in tokens[4:]:
        logits, cache = forward_decode(compressed, cache, tok)
    np.testing.assert_allclose(logits[0], full.logits[-1], rtol=0, atol=1e-10)
    assert cache.entries() == full.cache.entries()


def test_svd_forward_flops_exceed_rap_at_equal_ratio():
    spec = make_spec(seed=12)
    model = AttentionModel.build(spec)
    table = fisher_table(model)
    tokens = list(range(16))
    flops = {}
    for method in ("svd", "palu", "rap"):
        compressed = build_compressed(model, method, 0.3, scores=table)
        flops[method] = forward_prefill(compressed, tokens).tape.flops_by_tag["kv_proj"]
    assert flops["rap"] < flops["palu"] < flops["svd"]


def test_cache_stores_latent_widths():
    spec = make_spec(seed=12)
    model = AttentionModel.build(spec)
    table = fisher_table(model)
    compressed = build_compressed(model, "rap", 0.5, scores=table)
    result = forward_prefill(compressed, list(range(8)))
    m = compressed.layers[0].k_retained[0]
    cache = result.cache
    assert cache.length == 8
    assert cache.k_bufs[0][:cache.length].shape == (8, spec.kv_heads * 2 * len(m))
    assert cache.v_bufs[0].shape[1] == compressed.layers[0].v_map.weight.shape[1]


def test_unknown_method_rejected():
    model = AttentionModel.build(make_spec())
    with pytest.raises(ValueError):
        build_compressed(model, "whitened-svd", 0.3)
    with pytest.raises(ValueError):
        build_compressed(model, "svd", 1.0)


def test_compressed_checkpoint_roundtrip(tmp_path):
    spec = make_spec(seed=44, pairing="half_split")
    model = AttentionModel.build(spec)
    table = magnitude_scores(model, spec.rope.scheme)
    compressed = build_compressed(model, "rap", 0.3, scores=table)
    path = tmp_path / "compressed.model"
    save_model(compressed, path)
    loaded = load_model(path)
    assert loaded.method == "rap"
    for a, b in zip(compressed.layers, loaded.layers):
        assert [r.pairs for r in a.k_retained] == [r.pairs for r in b.k_retained]
    tokens = [1, 2, 3, 4, 5]
    np.testing.assert_array_equal(forward_prefill(compressed, tokens).logits,
                                  forward_prefill(loaded, tokens).logits)


# -- factors shared between sibling builds ---------------------------------------

# (first method, second method, layer attribute) that builds from one base share
SHARED_PARTS = [("svd", "palu", "k_map"), ("svd", "palu", "k_recon"),
                ("svd", "palu", "v_map"), ("svd", "rap", "v_map"),
                ("palu", "rap", "proj_o")]


def built_arrays(model):
    """Every array of a build by name: the four maps and B stacks of each layer."""
    arrays = {}
    for i, layer in enumerate(model.layers):
        for role in ("proj_q", "k_map", "v_map", "proj_o", "k_recon", "v_recon"):
            value = getattr(layer, role)
            if value is not None:
                arrays[f"L{i}.{role}"] = getattr(value, "weight", value)
    return arrays


def siblings(base, budget="uniform", methods=("svd", "palu", "rap")):
    table = magnitude_scores(base, base.spec.rope.scheme)
    plan = allocate(table, 0.5, budget)
    return {m: build_compressed(base, m, 0.5, scores=table, plan=plan) for m in methods}


@pytest.mark.parametrize("pairing", ["adjacent", "half_split"])
def test_sibling_builds_share_their_factors(pairing):
    base = AttentionModel.build(make_spec(layers=3, seed=51, pairing=pairing))
    models = siblings(base)
    for first, second, role in SHARED_PARTS:
        for i in range(base.spec.layers):
            a = built_arrays(models[first])[f"L{i}.{role}"]
            b = built_arrays(models[second])[f"L{i}.{role}"]
            assert np.shares_memory(a, b), (first, second, role, i)
    # rap keeps its own keys and query projection
    for i in range(base.spec.layers):
        for role in ("k_map", "proj_q"):
            assert not np.shares_memory(built_arrays(models["rap"])[f"L{i}.{role}"],
                                        built_arrays(models["palu"])[f"L{i}.{role}"])


def test_siblings_run_each_layer_side_svd_once(monkeypatch):
    base = AttentionModel.build(make_spec(layers=3, seed=55))
    ranks = []
    real = factorize.svd_factor
    monkeypatch.setattr(factorize, "svd_factor",
                        lambda weight, rank: ranks.append(rank) or real(weight, rank))
    models = siblings(base)
    spec = base.spec
    assert len(ranks) == 2 * spec.layers * spec.kv_heads  # keys and values, once each
    # once its last sibling is gone, a side is factored again
    del models
    gc.collect()
    siblings(base, methods=["palu"])
    assert len(ranks) == 4 * spec.layers * spec.kv_heads


@pytest.mark.parametrize("budget", ["uniform", "adaptive"])
@pytest.mark.parametrize("pairing", ["adjacent", "half_split"])
def test_shared_builds_equal_isolated_builds(pairing, budget):
    """Each sibling against a build of its own from a fresh copy of the base."""
    base = AttentionModel.build(make_spec(seed=52, pairing=pairing))
    shared = siblings(base, budget=budget)
    tokens = [5, 17, 3, 60, 22, 9, 41, 12]
    for method, model in shared.items():
        alone = siblings(copy.deepcopy(base), budget, [method])[method]
        got, want = built_arrays(model), built_arrays(alone)
        assert got.keys() == want.keys()
        for name in want:
            np.testing.assert_array_equal(got[name], want[name], err_msg=name)
        assert model.manifest == alone.manifest
        runs = [forward_prefill(m, tokens[:6]) for m in (model, alone)]
        np.testing.assert_array_equal(runs[0].logits, runs[1].logits)
        assert runs[0].tape.flops_by_tag == runs[1].tape.flops_by_tag
        steps = [forward_decode(m, run.cache, tokens[6]) for m, run in zip((model, alone), runs)]
        np.testing.assert_array_equal(steps[0][0], steps[1][0])


def test_shared_factors_die_with_their_last_sibling():
    base = AttentionModel.build(make_spec(seed=53))
    models = siblings(base)
    refs = [weakref.ref(built_arrays(models[first])[f"L{i}.{role}"])
            for first, _, role in SHARED_PARTS for i in range(base.spec.layers)]
    del models
    gc.collect()
    assert all(ref() is None for ref in refs)


def test_a_base_weight_changed_in_place_is_factored_again():
    base = AttentionModel.build(make_spec(seed=54))
    first = siblings(base)
    base.layers[0].k_map.weight *= 1.5
    base.layers[1].v_map.weight[3, 2] += 0.25
    base.layers[1].proj_o.weight[0, :] = 0.0
    again = siblings(base)
    fresh = siblings(copy.deepcopy(base))
    for method, model in again.items():
        got, want = built_arrays(model), built_arrays(fresh[method])
        for name in want:
            np.testing.assert_array_equal(got[name], want[name], err_msg=name)
    # what the changes did not touch is still shared with the first builds
    old, new = built_arrays(first["svd"]), built_arrays(again["svd"])
    assert not np.shares_memory(old["L0.k_map"], new["L0.k_map"])
    assert np.shares_memory(old["L1.k_map"], new["L1.k_map"])
    assert not np.shares_memory(old["L1.v_map"], new["L1.v_map"])
    assert np.shares_memory(old["L0.v_map"], new["L0.v_map"])
    assert not np.shares_memory(built_arrays(first["rap"])["L1.proj_o"],
                                built_arrays(again["rap"])["L1.proj_o"])
    assert np.shares_memory(built_arrays(first["rap"])["L0.proj_o"],
                            built_arrays(again["rap"])["L0.proj_o"])
