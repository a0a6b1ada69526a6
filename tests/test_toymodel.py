"""Toy LM forward paths against a cache-free straight-line reimplementation."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import damaged, finite_difference, identity_model, make_spec
from rapkit import numcore, toymodel
from rapkit.analyze import baseline_kv_entries
from rapkit.factorize import METHODS, build_compressed, reconstructed_reference
from rapkit.numcore import Tape, gradients, pair_tables
from rapkit.rope import PairingScheme, RopeConfig, rotate, rotate_indexed
from rapkit.scoring import magnitude_scores
from rapkit.toymodel import (QUERY_BLOCK, AttentionLayer, AttentionModel, LinearMap,
                             forward_decode, forward_prefill, load_model,
                             loss_ce, loss_forward, markov_calibration, save_model,
                             spec_to_json)


def straight_line_logits(model: AttentionModel, tokens) -> np.ndarray:
    """Independent reference: plain numpy, no tape, no cache, no sharing."""
    spec = model.spec
    d = spec.head_dim
    s = len(tokens)
    positions = list(range(s))
    x = model.embedding[list(tokens), :]
    for layer in model.layers:
        q = x @ layer.proj_q.merged_weight()
        k = x @ layer.k_map.merged_weight()
        v = x @ layer.v_map.merged_weight()
        heads = []
        for h in range(spec.query_heads):
            g = h // spec.group_size
            q_h = rotate(q[:, h * d:(h + 1) * d], positions, spec.rope)
            k_g = rotate(k[:, g * d:(g + 1) * d], positions, spec.rope)
            scores = (q_h @ k_g.T) / np.sqrt(d)
            probs = np.zeros((s, s))
            for i in range(s):
                row = scores[i, : i + 1]
                e = np.exp(row - row.max())
                probs[i, : i + 1] = e / e.sum()
            heads.append(probs @ v[:, g * d:(g + 1) * d])
        x = np.concatenate(heads, axis=1) @ layer.proj_o.merged_weight()
    return x @ model.embedding.T


def test_identity_weights_single_token():
    model = identity_model()
    result = forward_prefill(model, [2])
    expected = model.embedding[2] @ model.embedding.T
    np.testing.assert_allclose(result.logits[0], expected, atol=1e-12)


def test_single_key_attention_output_is_value_row(rng):
    # with W_o = I the layer output at S=1 is exactly the value projection
    spec = make_spec(layers=1)
    model = AttentionModel.build(spec)
    model.layers[0].proj_o = LinearMap(np.eye(spec.model_dim))
    result = forward_prefill(model, [5])
    x0 = model.embedding[5]
    v_row = x0 @ model.layers[0].v_map.merged_weight()
    expected_x1 = np.concatenate([
        v_row[g * spec.head_dim:(g + 1) * spec.head_dim]
        for h in range(spec.query_heads)
        for g in [h // spec.group_size]])
    np.testing.assert_allclose(result.logits[0],
                               expected_x1 @ model.embedding.T, atol=1e-12)


def test_prefill_matches_straight_line_oracle(rng):
    spec = make_spec(seed=11)
    model = AttentionModel.build(spec)
    tokens = [3, 1, 60, 7, 7, 12]
    result = forward_prefill(model, tokens)
    np.testing.assert_allclose(result.logits, straight_line_logits(model, tokens),
                               rtol=0, atol=1e-11)


def test_prefill_gqa_half_split_matches_oracle(rng):
    spec = make_spec(seed=2, pairing="half_split", query_heads=4, kv_heads=1)
    model = AttentionModel.build(spec)
    tokens = [0, 9, 33, 5]
    result = forward_prefill(model, tokens)
    np.testing.assert_allclose(result.logits, straight_line_logits(model, tokens),
                               rtol=0, atol=1e-11)


def test_token_out_of_vocab_rejected():
    model = AttentionModel.build(make_spec())
    with pytest.raises(ValueError):
        forward_prefill(model, [0, 64])
    with pytest.raises(ValueError):
        forward_prefill(model, [])


def test_decode_after_empty_cache_equals_prefill_of_one():
    model = AttentionModel.build(make_spec(seed=8))
    from rapkit.toymodel import KvCache
    cache = KvCache(model)
    logits, cache = forward_decode(model, cache, 9)
    prefill = forward_prefill(model, [9])
    np.testing.assert_allclose(logits, prefill.logits, atol=1e-12)
    assert cache.length == 1


def test_prefill_vs_prefill_plus_decode():
    model = AttentionModel.build(make_spec(seed=4))
    tokens = [5, 2, 40, 11, 23, 8]
    full = forward_prefill(model, tokens)
    partial = forward_prefill(model, tokens[:-1])
    logits, _ = forward_decode(model, partial.cache, tokens[-1])
    np.testing.assert_allclose(logits[0], full.logits[-1], rtol=0, atol=1e-10)


def test_two_decodes_match_two_token_prefill_continuation():
    model = AttentionModel.build(make_spec(seed=4))
    base = [5, 2, 40, 11]
    extra = [23, 8]
    partial = forward_prefill(model, base)
    out = []
    cache = partial.cache
    for tok in extra:
        logits, cache = forward_decode(model, cache, tok)
        out.append(logits[0])
    full = forward_prefill(model, base + extra)
    np.testing.assert_allclose(out[0], full.logits[-2], rtol=0, atol=1e-10)
    np.testing.assert_allclose(out[1], full.logits[-1], rtol=0, atol=1e-10)


def test_decode_rejects_foreign_cache():
    m1 = AttentionModel.build(make_spec(seed=1))
    m2 = AttentionModel.build(make_spec(seed=2))
    cache = forward_prefill(m1, [1, 2]).cache
    with pytest.raises(ValueError):
        forward_decode(m2, cache, 3)


def captured_probs(model: AttentionModel, tokens) -> list[list[np.ndarray]]:
    """Each layer's attention probabilities of a prefill, one (n, n) matrix per
    query head in head order, read off the softmax of every query block in
    each layer's attention node, which runs its blocks' stacked calls in
    turn below the split size; the keys a block does not see stay 0."""
    spec, n, outs = model.spec, len(tokens), []
    softmax = numcore._softmax

    def capture(out, *args):
        softmax(out, *args)
        outs.append(out.copy())   # (H_kv, rows·G, keys) of one block

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(numcore, "_softmax", capture)
        patch.setattr(numcore, "SPLIT_SCORES", float("inf"))
        forward_prefill(model, tokens)
    per_layer, group = len(outs) // spec.layers, spec.group_size
    layers = []
    for idx in range(spec.layers):
        probs, i0 = np.zeros((spec.kv_heads, group, n, n)), 0
        for block in outs[idx * per_layer:(idx + 1) * per_layer]:
            rows, keys = block.shape[1] // group, block.shape[2]
            probs[:, :, i0:i0 + rows, :keys] = \
                block.reshape(spec.kv_heads, rows, group, keys).swapaxes(1, 2)
            i0 += rows
        layers.append(list(probs.reshape(spec.query_heads, n, n)))
    return layers


def test_attention_probability_rows_sum_to_one():
    model = AttentionModel.build(make_spec(seed=3))
    for layer_probs in captured_probs(model, [1, 2, 3, 4, 5]):
        for probs in layer_probs:
            np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=0, atol=1e-12)


def test_loss_uniform_logits_is_log_vocab():
    spec = make_spec(layers=1, seed=6)
    model = AttentionModel.build(spec)
    # zero output projection makes the final hidden state, hence logits, zero
    model.layers[0].proj_o = LinearMap(np.zeros((spec.model_dim, spec.model_dim)))
    assert loss_ce(model, [1, 2, 3]) == pytest.approx(np.log(spec.vocab), abs=1e-12)


def test_saturated_one_hot_cross_entropy_is_near_zero():
    from rapkit.numcore import Tape, gradients, pair_tables
    t = Tape()
    logits = np.full((3, 6), -100.0)
    labels = [2, 0, 5]
    for i, lab in enumerate(labels):
        logits[i, lab] = 100.0
    loss = t.cross_entropy(t.leaf(logits, "z"), labels)
    assert abs(loss.value[0, 0]) < 1e-12


def test_loss_matches_direct_log_softmax_oracle(rng):
    model = AttentionModel.build(make_spec(seed=13))
    tokens = [4, 9, 1, 17, 30, 2]
    logits = forward_prefill(model, tokens).logits
    total = 0.0
    for i in range(len(tokens) - 1):
        row = logits[i]
        log_probs = row - (row.max() + np.log(np.exp(row - row.max()).sum()))
        total -= log_probs[tokens[i + 1]]
    expected = total / (len(tokens) - 1)
    assert loss_ce(model, tokens) == pytest.approx(expected, abs=1e-12)


def test_loss_needs_two_tokens():
    model = AttentionModel.build(make_spec())
    with pytest.raises(ValueError):
        loss_ce(model, [1])


def test_markov_calibration_deterministic_and_in_vocab():
    a = markov_calibration(64, count=4, window=16, seed=9)
    b = markov_calibration(64, count=4, window=16, seed=9)
    c = markov_calibration(64, count=4, window=16, seed=10)
    assert a.sequences == b.sequences
    assert a.sequences != c.sequences
    assert all(0 <= t < 64 for seq in a for t in seq)
    assert a.count == 4 and a.window == 16


def _markov_oracle(vocab, count, window, seed):
    """The sampler's earlier loop: one uniform and one searchsorted per step."""
    rng = np.random.default_rng(seed)
    transitions = rng.dirichlet(np.full(vocab, 0.25), size=vocab)
    cumulative = np.cumsum(transitions, axis=1)
    sequences = []
    for _ in range(count):
        state = int(rng.integers(vocab))
        seq = [state]
        for _ in range(window - 1):
            state = min(int(np.searchsorted(cumulative[state], rng.random())), vocab - 1)
            seq.append(state)
        sequences.append(tuple(seq))
    return tuple(sequences)


@pytest.mark.parametrize("vocab,count,window,seed", [
    (64, 16, 64, 42), (64, 16, 64, 7), (512, 2, 784, 10301), (512, 8, 80, 3),
    (5, 3, 2, 0), (2, 4, 50, 11)])
def test_markov_calibration_matches_the_stepwise_sampler(vocab, count, window, seed):
    assert markov_calibration(vocab, count, window, seed).sequences == \
        _markov_oracle(vocab, count, window, seed)


def test_model_serialization_roundtrip(tmp_path):
    model = AttentionModel.build(make_spec(seed=21))
    path = tmp_path / "model.bin"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.spec == model.spec
    np.testing.assert_array_equal(loaded.embedding, model.embedding)
    for a, b in zip(model.layers, loaded.layers):
        np.testing.assert_array_equal(a.k_map.weight, b.k_map.weight)
        np.testing.assert_array_equal(a.proj_o.weight, b.proj_o.weight)
    tokens = [1, 2, 3, 4]
    np.testing.assert_array_equal(forward_prefill(model, tokens).logits,
                                  forward_prefill(loaded, tokens).logits)


def test_serialized_files_are_deterministic(tmp_path):
    model = AttentionModel.build(make_spec(seed=21))
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_model(model, p1)
    save_model(model, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_spec_validation():
    with pytest.raises(ValueError):
        make_spec(query_heads=3, kv_heads=2)
    with pytest.raises(ValueError):
        make_spec(head_dim=7)


def test_load_model_rejects_trailing_and_missing_bytes(tmp_path):
    model = AttentionModel.build(make_spec(seed=21))
    path = tmp_path / "model.bin"
    save_model(model, path)
    raw = path.read_bytes()
    expected = len(raw) - raw.index(b"\n") - 1
    for name, data in (("long.bin", raw + b"\0" * 8), ("short.bin", raw[:-8])):
        bad = tmp_path / name
        bad.write_bytes(data)
        actual = len(data) - raw.index(b"\n") - 1
        with pytest.raises(ValueError, match=rf"{name}.*{actual}.*{expected}"):
            load_model(bad)


def test_a_header_whose_sizes_overflow_64_bits_is_refused_by_name(tmp_path):
    """Every array of this spec holds 2**64 floats, which a 64-bit product
    wraps to 0, the size of an empty blob."""
    spec = make_spec(layers=1, query_heads=2 ** 16, kv_heads=2 ** 16, head_dim=2 ** 16,
                     vocab=2 ** 32)
    header = {"format": "rapkit-model-v2", "byte_order": "little", "dtype": "float64",
              "spec": spec_to_json(spec), "manifest": {"method": "baseline", "rho": 0.0},
              "arrays": [{"name": name, "shape": [2 ** 32, 2 ** 32]}
                         for name in ("embedding", "L0.q", "L0.k", "L0.v", "L0.o")]}
    path = tmp_path / "huge.model"
    path.write_bytes(json.dumps(header).encode() + b"\n")
    with pytest.raises(ValueError, match=rf"{path}: weight blob is 0 bytes"):
        load_model(path)


@pytest.mark.parametrize("data", [b"", b'{"format": "rapkit-model-v2"}', b"\xff\n"],
                         ids=["empty", "no_newline", "not_utf8"])
def test_a_file_without_a_json_header_line_is_refused_by_name(data, tmp_path):
    path = tmp_path / "model.bin"
    path.write_bytes(data)
    with pytest.raises(ValueError, match=rf"{path}: header"):
        load_model(path)


def _rewrite_header(path, target, edit):
    raw = path.read_bytes()
    newline = raw.index(b"\n")
    header = json.loads(raw[:newline])
    edit(header)
    target.write_bytes(json.dumps(header, sort_keys=True).encode() + raw[newline:])


def test_load_model_checks_the_header_against_the_spec(tmp_path):
    model = AttentionModel.build(make_spec(seed=21))
    compressed = build_compressed(model, "rap", 0.5,
                                  scores=magnitude_scores(model, model.spec.rope.scheme))
    path = tmp_path / "rap.model"
    save_model(compressed, path)

    def swap_shape(name):
        def edit(header):
            meta = next(m for m in header["arrays"] if m["name"] == name)
            meta["shape"].reverse()
        return edit

    def k_entry(header, layer):
        return header["manifest"]["layers"][layer]["k"]

    for name, edit, field in (
            ("layers.bin", lambda h: h["manifest"]["layers"].pop(), r"manifest\.layers"),
            ("heads.bin", lambda h: k_entry(h, 1)["retained_pairs"].pop(),
             r"layers\[1\]\.k\.retained_pairs"),
            ("order.bin", lambda h: k_entry(h, 0)["retained_pairs"][0].reverse(),
             r"layers\[0\]\.k\.retained_pairs"),
            ("index.bin", lambda h: k_entry(h, 0)["rap_index"][0].reverse(),
             r"layers\[0\] is .*rap_index"),
            ("extra.bin", lambda h: h["manifest"]["layers"][1].update(x=1),
             r"layers\[1\]\.x is unknown"),
            ("q.bin", swap_shape("L0.q"), "L0.q"),
            ("embedding.bin", swap_shape("embedding"), "embedding")):
        bad = tmp_path / name
        _rewrite_header(path, bad, edit)
        with pytest.raises(ValueError, match=rf"{name}.*{field}"):
            load_model(bad)
    for method in ("baseline", "svd", "palu"):
        save_model(build_compressed(model, method, 0.5), path)
        assert load_model(path).method == method


@pytest.fixture(scope="module")
def saved_checkpoints(tmp_path_factory) -> dict[str, bytes]:
    """The bytes of a small saved checkpoint of each method at rho 0.5."""
    base = AttentionModel.build(make_spec(layers=2, query_heads=2, kv_heads=1, head_dim=4,
                                          vocab=8, seed=5))
    scores = magnitude_scores(base, base.spec.rope.scheme)
    saved = {}
    for method in METHODS:
        path = tmp_path_factory.mktemp("saved") / f"{method}.model"
        save_model(build_compressed(base, method, 0.5, scores=scores), path)
        saved[method] = path.read_bytes()
    return saved


@settings(max_examples=400, deadline=None)
@given(data=st.data(), method=st.sampled_from(METHODS))
def test_a_header_with_one_damaged_field_gives_a_model_or_a_value_error(
        data, method, saved_checkpoints, tmp_path_factory):
    """Any single field of a saved header, at any depth, dropped or set to any
    JSON value: the loader returns a model or raises a ValueError naming the
    file, never another exception."""
    raw = saved_checkpoints[method]
    newline = raw.index(b"\n")
    header = data.draw(damaged(json.loads(raw[:newline])))
    path = tmp_path_factory.getbasetemp() / "damaged.model"
    path.write_bytes(json.dumps(header).encode() + raw[newline:])
    try:
        model = load_model(path)
    except ValueError as exc:
        assert str(path) in str(exc), exc
        return
    assert isinstance(model, AttentionModel)


@settings(max_examples=40, deadline=None)
@given(layers=st.integers(1, 2), kv_heads=st.integers(1, 2), group=st.integers(1, 2),
       pairs=st.integers(1, 6), pairing=st.sampled_from(["adjacent", "half_split"]),
       method=st.sampled_from(METHODS), rho=st.sampled_from([0.0, 0.2, 0.5, 0.75]),
       seed=st.integers(0, 2 ** 16))
def test_a_checkpoint_round_trip_keeps_manifest_and_logits(
        layers, kv_heads, group, pairs, pairing, method, rho, seed, tmp_path_factory):
    """Over spec shapes, methods, ratios and both pairings, a saved and loaded
    model has the same manifest, and bit for bit the same prefill and decode
    logits."""
    spec = make_spec(layers=layers, query_heads=kv_heads * group, kv_heads=kv_heads,
                     head_dim=2 * pairs, vocab=16, pairing=pairing, seed=seed)
    base = AttentionModel.build(spec)
    model = build_compressed(base, method, rho,
                             scores=magnitude_scores(base, spec.rope.scheme))
    path = tmp_path_factory.getbasetemp() / "roundtrip.model"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.manifest == model.manifest and loaded.method == method
    tokens = [int(t) for t in np.random.default_rng(seed).integers(0, spec.vocab, size=7)]
    runs = []
    for m in (model, loaded):
        start = forward_prefill(m, tokens[:4])
        logits, cache = [start.logits], start.cache
        for tok in tokens[4:]:
            step, cache = forward_decode(m, cache, tok)
            logits.append(step)
        runs.append(np.vstack(logits))
    np.testing.assert_array_equal(runs[0], runs[1])


@pytest.mark.parametrize("pairing", ["adjacent", "half_split"])
@pytest.mark.parametrize("method", METHODS)
def test_a_checkpoint_lists_each_layers_arrays_in_role_order(method, pairing, tmp_path):
    """The header names the embedding, then each layer's arrays of
    layer_shapes in the order q, k, k_b, v, v_b, o. The loader compares the
    names as a set, so a reordered role table would still load."""
    model = _compressed(method, pairing=pairing)
    spec = model.spec
    save_model(model, tmp_path / "m.model")
    header = json.loads((tmp_path / "m.model").read_bytes().partition(b"\n")[0])
    want = [("embedding", [spec.vocab, spec.model_dim])]
    for i, layer in enumerate(model.layers):
        widths = [m.weight.shape[1] // spec.kv_heads for m in (layer.k_map, layer.v_map)]
        shapes = toymodel.layer_shapes(spec, method, *widths)
        want += [(f"L{i}.{role}", list(shapes[role]))
                 for role in ("q", "k", "k_b", "v", "v_b", "o") if role in shapes]
    assert [(a["name"], a["shape"]) for a in header["arrays"]] == want


def _compressed(method, seed=33, pairing="adjacent"):
    model = AttentionModel.build(make_spec(seed=seed, pairing=pairing))
    if method == "baseline":
        return model
    return build_compressed(model, method, 0.5,
                            scores=magnitude_scores(model, model.spec.rope.scheme))


@pytest.mark.parametrize("method", METHODS)
def test_inference_without_a_tape_matches_a_recording_tape(method):
    """Same logits bit for bit and same FLOPs; the inference tape keeps nothing."""
    model = _compressed(method)
    tokens = [4, 40, 11, 2, 59, 23, 8, 17, 33, 1, 60]
    runs = []
    for tape in (None, Tape()):
        result = forward_prefill(model, tokens[:5], tape=tape)
        logits, cache = [result.logits], result.cache
        for tok in tokens[5:]:
            step, cache = forward_decode(model, cache, tok, tape=result.tape)
            logits.append(step)
        runs.append((logits, result.tape))
    (quiet_logits, quiet), (recorded_logits, recorded) = runs
    for a, b in zip(quiet_logits, recorded_logits):
        np.testing.assert_array_equal(a, b)
    assert quiet.flops_by_tag == recorded.flops_by_tag
    assert len(quiet.nodes) == 0 and not quiet.leaves
    assert len(recorded.nodes) > 0


@pytest.mark.parametrize("method", METHODS)
def test_decode_across_cache_doublings(method):
    """Buffers of 3 rows double to 24 over 10 decode steps without changing a
    logit; the cache still holds the closed-form number of entries."""
    model = _compressed(method)
    tokens = [4, 40, 11, 2, 59, 23, 8, 17, 33, 1, 60, 5, 9]
    grown = forward_prefill(model, tokens[:3]).cache
    reserved = forward_prefill(model, tokens[:3]).cache
    reserved.reserve(len(tokens))
    for tok in tokens[3:]:
        logits, grown = forward_decode(model, grown, tok)
        expected, reserved = forward_decode(model, reserved, tok)
    assert all(b.shape[0] == 24 for b in grown.k_bufs + grown.v_bufs)
    np.testing.assert_array_equal(logits, expected)
    full = forward_prefill(model, tokens)
    np.testing.assert_allclose(logits[0], full.logits[-1], rtol=0, atol=1e-10)
    retained = 1.0 if method == "baseline" else 0.5
    assert grown.entries() == baseline_kv_entries(model.spec, len(tokens)) * retained
    assert grown.entries() == full.cache.entries()


@pytest.mark.parametrize("method", METHODS)
def test_decode_steps_compute_the_angles_of_their_new_row_only(method, monkeypatch):
    """The cache keeps the angle tables of its positions in the rotation
    kernel's form, so svd and palu keys, which rotate at every step, need no
    table of every cached position. After 10 decode steps through doublings
    its rows are those of one table of all positions, bit for bit and of the
    same dtypes, for both pairings: adjacent pairs keep cos over both columns
    of each pair and −0 + i·sin."""
    angle_tables = RopeConfig.angle_tables
    for pairing in ("adjacent", "half_split"):
        asked = []

        def recording(self, positions):
            asked.append([int(p) for p in positions])
            return angle_tables(self, positions)

        model = _compressed(method, pairing=pairing)
        with monkeypatch.context() as patch:
            patch.setattr(RopeConfig, "angle_tables", recording)
            cache = forward_prefill(model, [4, 40, 11]).cache
            for tok in range(10):
                _, cache = forward_decode(model, cache, tok)
        assert asked == [[0, 1, 2]] + [[t] for t in range(3, 13)]
        cos, sin = angle_tables(model.spec.rope, np.arange(13))
        want = pair_tables(cos, sin, pairing == "half_split")[:2]
        for got, table in zip((cache.cos, cache.sin), want):
            assert got.shape == (24,) + table.shape[1:] and got.dtype == table.dtype
            assert got[:13].tobytes() == table.tobytes()
        if pairing == "adjacent":
            assert (cache.cos[:13, ::2] == cos).all() and (cache.cos[:13, 1::2] == cos).all()
            assert np.signbit(cache.sin[:13].real).all() and (cache.sin[:13].imag == sin).all()
        else:
            assert cache.cos[:13].tobytes() == cos.tobytes()


@pytest.mark.parametrize("method", METHODS)
def test_decode_steps_build_no_pair_columns_after_the_first(method, monkeypatch):
    """Rotations turn strided views and need no column index: once the model
    is built, no forward pass maps pair ids to columns, neither a prefill, 10
    medium decode steps nor a batched loss, for either pairing."""
    calls = []
    real = PairingScheme.column_arrays

    def counted(self):
        calls.append(self.kind)
        return real(self)

    for pairing in ("adjacent", "half_split"):
        spec = make_spec(layers=4, query_heads=16, kv_heads=4, head_dim=64,
                         vocab=512, pairing=pairing)
        base = AttentionModel.build(spec)
        model = build_compressed(base, method, 0.5,
                                 scores=magnitude_scores(base, spec.rope.scheme))
        with monkeypatch.context() as patch:
            patch.setattr(PairingScheme, "column_arrays", counted)
            cache = forward_prefill(model, list(range(8))).cache
            for step in range(10):
                _, cache = forward_decode(model, cache, 100 + step)
            loss_forward(model, [list(range(8)), list(range(8, 16))])
        assert cache.length == 18
        assert calls == []


def test_inference_prefill_holds_a_fraction_of_a_recorded_one():
    """Without a tape a prefill keeps no intermediate past its last use: its
    traced peak stays under a quarter of a recording prefill's."""
    model = AttentionModel.build(make_spec(layers=4, query_heads=16, kv_heads=4,
                                           head_dim=64, vocab=512))
    tokens = list(range(256))
    peaks = []
    for tape in (None, Tape()):
        tracemalloc.start()
        try:
            forward_prefill(model, tokens, tape=tape)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < peaks[1] / 4, peaks


def test_reconstruction_factors_are_checked_when_a_layer_is_built():
    eye = LinearMap(np.eye(4))
    with pytest.raises(ValueError, match="finite"):
        AttentionLayer(eye, eye, eye, eye, k_recon=[np.array([[np.nan, 1.0]])])
    with pytest.raises(ValueError):
        AttentionLayer(eye, eye, eye, eye, v_recon=[np.zeros((2, 2, 2))])


@pytest.mark.parametrize("pairing", ["adjacent", "half_split"])
@pytest.mark.parametrize("method", ["svd", "palu"])
def test_fd_loss_wrt_reconstruction_factor_stacks(method, pairing):
    """The loss gradient w.r.t. each layer's (H_kv, rank, D) factor stack, one
    tape leaf per layer and side, against central differences of the loss."""
    base = AttentionModel.build(make_spec(layers=1, query_heads=4, kv_heads=2,
                                          head_dim=4, vocab=16, seed=9, pairing=pairing))
    model = build_compressed(base, method, 0.5)
    layer = model.layers[0]
    stacks = {"L0.k_b": layer.k_recon}
    if method == "svd":
        stacks["L0.v_b"] = layer.v_recon
    tokens = [3, 14, 1, 5, 9, 2]
    loss, tape = loss_forward(model, tokens)
    names = sorted(stacks)
    grads = gradients(tape, loss, [tape.leaves[n] for n in names])

    def value(arrays):   # the arrays are the layer's own stacks, perturbed in place
        return float(loss_forward(model, tokens, Tape(record=False))[0].value[0, 0])

    for name, g in zip(names, grads):
        assert g.shape == (2, 2, 4) and tape.leaves[name].value is stacks[name]
        np.testing.assert_allclose(g, finite_difference(value, stacks, name),
                                   rtol=1e-5, atol=1e-9, err_msg=name)


@pytest.mark.parametrize("method", METHODS)
def test_decode_nodes_per_step_do_not_grow_with_kv_heads(method):
    """All kv heads of a layer attend in one step: a recorded decode step
    holds as many nodes with 1, 2 or 4 kv heads under 4 query heads."""
    counts = []
    for kv_heads in (1, 2, 4):
        base = AttentionModel.build(make_spec(kv_heads=kv_heads))
        model = base if method == "baseline" else build_compressed(
            base, method, 0.5, scores=magnitude_scores(base, base.spec.rope.scheme))
        cache = forward_prefill(model, [1, 2, 3]).cache
        tape = Tape()
        forward_decode(model, cache, 4, tape=tape)
        counts.append(len(tape.nodes))
    assert counts[0] == counts[1] == counts[2], counts


def test_single_window_blocks_mask_only_their_diagonal_tile():
    """In one window a block sees every key before its own rows, so its mask
    is the causal tile of its rows; windows keep each block's full mask rows."""
    assert QUERY_BLOCK == 64
    tiles = toymodel._query_blocks(130, 1)
    assert [(i0, i1, m.shape) for i0, i1, m in tiles] == [
        (0, 64, (64, 64)), (64, 128, (64, 64)), (128, 130, (2, 2))]
    full = toymodel._causal_mask(130)
    for i0, i1, mask in tiles:   # the tile, and nothing hidden left of it
        np.testing.assert_array_equal(mask, np.triu(np.full((i1 - i0,) * 2, -np.inf), k=1))
        np.testing.assert_array_equal(full[i0:i1, i0:i1], mask)
        assert np.all(full[i0:i1, :i0] == 0)
    windowed = toymodel._query_blocks(130, 2)
    full = toymodel._causal_mask(130, 2)
    for i0, i1, mask in windowed:
        np.testing.assert_array_equal(mask, full[i0:i1, :i1])
    assert np.any(windowed[1][2][:, :64] == -np.inf)
    assert toymodel._query_blocks(1, 1) == [(0, 1, None)]


def test_query_block_masks_are_the_full_masks_slices_bit_for_bit():
    """One window's masks come from one causal tile, sliced for every block,
    the short last one included; they equal the slices of the full n×n
    mask that the blocks took before, as do a batch's full mask rows."""
    for n, windows in ((2, 1), (63, 1), (64, 1), (65, 1), (130, 1), (768, 1),
                       (2, 2), (130, 2), (192, 3)):
        full = toymodel._causal_mask(n, windows)
        blocks = toymodel._query_blocks(n, windows)
        assert [(i0, i1) for i0, i1, _ in blocks] == \
            [(i0, min(i0 + QUERY_BLOCK, n)) for i0 in range(0, n, QUERY_BLOCK)]
        for i0, i1, mask in blocks:
            want = full[i0:i1, i0 if windows == 1 else 0:i1]
            assert mask.shape == want.shape
            assert mask.view(np.int64).tolist() == want.view(np.int64).tolist()


@pytest.mark.parametrize("pairing", ["adjacent", "half_split"])
@pytest.mark.parametrize("method", METHODS)
def test_batched_loss_and_gradients_are_the_window_means(method, pairing):
    """B windows in one pass give the mean of the per-window losses and
    gradients, for every key path: the block mask keeps the windows apart."""
    model = AttentionModel.build(make_spec(seed=17, pairing=pairing))
    if method != "baseline":
        model = build_compressed(model, method, 0.5,
                                 scores=magnitude_scores(model, model.spec.rope.scheme))
    windows = markov_calibration(model.spec.vocab, count=3, window=7, seed=5).sequences
    loss, tape = loss_forward(model, windows)
    names = sorted(tape.leaves)
    singles = [loss_forward(model, w) for w in windows]
    assert loss.value[0, 0] == pytest.approx(
        np.mean([one.value[0, 0] for one, _ in singles]), rel=0, abs=1e-12)
    batched = gradients(tape, loss, [tape.leaves[n] for n in names])
    per_window = [gradients(t, one, [t.leaves[n] for n in names]) for one, t in singles]
    for i, name in enumerate(names):
        mean = sum(grads[i] for grads in per_window) / len(windows)
        np.testing.assert_allclose(batched[i], mean, rtol=0, atol=1e-12, err_msg=name)


def test_batched_windows_restart_their_positions_at_zero(monkeypatch):
    """Scores see only position differences, so a shifted window would not
    move the loss; the angle tables show the positions themselves."""
    asked = []
    angle_tables = RopeConfig.angle_tables

    def recording(self, positions):
        asked.append([int(p) for p in positions])
        return angle_tables(self, positions)

    monkeypatch.setattr(RopeConfig, "angle_tables", recording)
    loss_forward(AttentionModel.build(make_spec()), [[1, 2, 3], [4, 5, 6]])
    assert asked == [[0, 1, 2, 0, 1, 2]]


def test_windows_of_unequal_length_are_rejected():
    model = AttentionModel.build(make_spec())
    with pytest.raises(ValueError, match="one length"):
        loss_forward(model, [[1, 2, 3], [4, 5]])


def per_head_probs(model: AttentionModel, tokens) -> list[list[np.ndarray]]:
    """Attention probabilities of every layer and query head, one head at a
    time in plain numpy, on the model's own key and value paths."""
    spec = model.spec
    positions = list(range(len(tokens)))
    mask = np.triu(np.full((len(tokens), len(tokens)), -np.inf), k=1)
    x = model.embedding[list(tokens), :]
    layers = []
    for layer in model.layers:
        q, k, v = (x @ m.merged_weight() for m in (layer.proj_q, layer.k_map, layer.v_map))
        qw, kw = q.shape[1] // spec.query_heads, k.shape[1] // spec.kv_heads
        vw = v.shape[1] // spec.kv_heads
        heads, probs = [], []
        for h in range(spec.query_heads):
            g = h // spec.group_size
            q_h, k_g = q[:, h * qw:(h + 1) * qw], k[:, g * kw:(g + 1) * kw]
            v_g = v[:, g * vw:(g + 1) * vw]
            if layer.k_retained is not None:
                retained = layer.k_retained[g]
                q_h = rotate_indexed(q_h, positions, spec.rope, retained)
                k_g = rotate_indexed(k_g, positions, spec.rope, retained)
            else:
                if layer.k_recon is not None:
                    k_g = k_g @ layer.k_recon[g]
                q_h, k_g = rotate(q_h, positions, spec.rope), rotate(k_g, positions, spec.rope)
            if layer.v_recon is not None:
                v_g = v_g @ layer.v_recon[g]
            scores = q_h @ k_g.T / np.sqrt(spec.head_dim) + mask
            e = np.exp(scores - scores.max(axis=1, keepdims=True))
            probs.append(e / e.sum(axis=1, keepdims=True))
            heads.append(probs[-1] @ v_g)
        layers.append(probs)
        x = np.concatenate(heads, axis=1) @ layer.proj_o.merged_weight()
    return layers


@settings(max_examples=150, deadline=None)
@given(layers=st.integers(1, 2), kv_heads=st.integers(1, 3), group=st.integers(1, 3),
       pairs=st.integers(1, 8), pairing=st.sampled_from(["adjacent", "half_split"]),
       method=st.sampled_from(METHODS), rho=st.sampled_from([0.0, 0.25, 0.5, 0.75]),
       seed=st.integers(0, 2 ** 16), block=st.integers(1, 4))
def test_grouped_attention_over_gqa_shapes(layers, kv_heads, group, pairs, pairing,
                                           method, rho, seed, block, tmp_path_factory):
    """Each kv head attends for its whole query group at once, in query
    blocks of ``block`` rows that span the 9-token window several times. Over
    GQA shapes and every method: the logits equal a single-block pass's, a
    decode chain across cache doublings equals the prefill rows, recording
    and non-recording tapes agree bit for bit, and the collected
    probabilities are each query head's own, in head order. The latent
    logits equal the dense reference's, and at rho 0 the uncompressed
    model's; a saved and loaded model gives the same logits bit for bit; the
    cache holds the closed-form entry count whenever (1 - rho)·D/2 is whole."""
    spec = make_spec(layers=layers, query_heads=kv_heads * group, kv_heads=kv_heads,
                     head_dim=2 * pairs, vocab=16, pairing=pairing, seed=seed)
    base = AttentionModel.build(spec)
    scores = magnitude_scores(base, spec.rope.scheme)
    model = base if method == "baseline" else build_compressed(base, method, rho,
                                                               scores=scores)
    tokens = list(np.random.default_rng(seed).integers(0, spec.vocab, size=9))
    one_block = forward_prefill(model, tokens).logits
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(toymodel, "QUERY_BLOCK", block)
        full = forward_prefill(model, tokens)
        np.testing.assert_allclose(full.logits, one_block, rtol=0, atol=1e-12)
        runs = []
        for tape in (None, Tape()):
            start = forward_prefill(model, tokens[:2], tape=tape)
            logits, cache = [start.logits], start.cache
            for tok in tokens[2:]:   # buffers grow 2 -> 4 -> 8 -> 16
                step, cache = forward_decode(model, cache, tok, tape=start.tape)
                logits.append(step)
            runs.append(np.vstack(logits))
        np.testing.assert_array_equal(runs[0], runs[1])
        np.testing.assert_allclose(runs[0], full.logits, rtol=0, atol=1e-10)
        reference, collected = per_head_probs(model, tokens), captured_probs(model, tokens)
        assert len(collected) == spec.layers
        for got, want in zip(collected, reference):
            assert len(got) == spec.query_heads
            for h, (p, ref) in enumerate(zip(got, want)):
                assert p.shape == (len(tokens), len(tokens))
                np.testing.assert_allclose(p, ref, rtol=0, atol=1e-12, err_msg=f"head {h}")

        dense = reconstructed_reference(base, method, rho, scores=scores)
        np.testing.assert_allclose(full.logits, forward_prefill(dense, tokens).logits,
                                   rtol=0, atol=1e-10)
        if rho == 0.0:
            np.testing.assert_allclose(full.logits, forward_prefill(base, tokens).logits,
                                       rtol=0, atol=1e-9)
        path = tmp_path_factory.getbasetemp() / "gqa.model"
        save_model(model, path)
        np.testing.assert_array_equal(forward_prefill(load_model(path), tokens).logits,
                                      full.logits)
    kept = 1.0 if method == "baseline" else 1.0 - rho
    if (kept * pairs).is_integer():
        assert full.cache.entries() == baseline_kv_entries(spec, len(tokens)) * kept


@pytest.mark.parametrize("pairing", ["adjacent", "half_split"])
@pytest.mark.parametrize("method", METHODS)
def test_query_blocks_straddling_windows_keep_loss_and_gradients(method, pairing,
                                                                 monkeypatch):
    """Three windows of 5 tokens in blocks of 2 rows: blocks cross window
    edges, and the loss and every leaf gradient equal a single-block pass's."""
    base = AttentionModel.build(make_spec(seed=33, pairing=pairing))
    model = base if method == "baseline" else build_compressed(
        base, method, 0.5, scores=magnitude_scores(base, base.spec.rope.scheme))
    windows = markov_calibration(model.spec.vocab, count=3, window=5, seed=8).sequences
    runs = []
    for block in (QUERY_BLOCK, 2):
        monkeypatch.setattr(toymodel, "QUERY_BLOCK", block)
        loss, tape = loss_forward(model, windows)
        names = sorted(tape.leaves)
        runs.append((loss.value[0, 0], names,
                     gradients(tape, loss, [tape.leaves[n] for n in names])))
    (one_loss, names, one_grads), (loss, blocked_names, grads) = runs
    assert blocked_names == names
    assert loss == pytest.approx(one_loss, rel=0, abs=1e-12)
    for name, want, got in zip(names, one_grads, grads):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12, err_msg=name)


# (query rows, visible keys) of each block of a prefill on an empty cache
BLOCKS = {9: [(9, 9)], 64: [(64, 64)], 130: [(64, 64), (64, 128), (2, 130)]}


@pytest.mark.parametrize("n", sorted(BLOCKS))
@pytest.mark.parametrize("method", METHODS)
def test_attention_flops_count_only_the_blocks_that_run(method, n):
    """A block of r query rows that sees k keys costs 2·r·G·k·w per kv head
    and layer, at the query width for scores and the value width for values;
    a prefill of at most 64 tokens is one n x n block."""
    assert QUERY_BLOCK == 64
    model = _compressed(method)
    spec = model.spec
    tape = forward_prefill(model, [i % spec.vocab for i in range(n)]).tape
    score = value = old_score = old_value = 0
    for layer in model.layers:
        qw = layer.proj_q.weight.shape[1] // spec.query_heads
        vw = (layer.v_recon[0].shape[1] if layer.v_recon is not None
              else layer.v_map.weight.shape[1] // spec.kv_heads)
        per_width = spec.kv_heads * sum(2 * rows * spec.group_size * keys
                                        for rows, keys in BLOCKS[n])
        score, value = score + per_width * qw, value + per_width * vw
        old_score += spec.kv_heads * 2 * n * spec.group_size * n * qw
        old_value += spec.kv_heads * 2 * n * spec.group_size * n * vw
    assert tape.flops_by_tag["attn_score"] == score
    assert tape.flops_by_tag["attn_value"] == value
    if n <= QUERY_BLOCK:
        assert (score, value) == (old_score, old_value)
    else:
        assert score < old_score and value < old_value
