"""Tape primitives against independent oracles (triple loops, central FD)."""

import numpy as np
import pytest

from conftest import finite_difference, tiny_spec
from rapkit.numcore import Tape, as_matrix, grad, gradients, softmax_rows
from rapkit.toymodel import AttentionModel, loss_forward


def test_matmul_identity():
    t = Tape()
    m = np.arange(12.0).reshape(3, 4)
    out = t.matmul(t.leaf(np.eye(3), "i"), t.leaf(m, "m"))
    np.testing.assert_array_equal(out.value, m)


def test_matmul_scalar_product():
    t = Tape()
    out = t.matmul(t.leaf([[2.0]], "a"), t.leaf([[3.0]], "b"))
    assert out.value[0, 0] == 6.0


def test_matmul_matches_triple_loop(rng):
    a = rng.normal(size=(4, 3))
    b = rng.normal(size=(3, 2))
    expected = np.zeros((4, 2))
    for i in range(4):
        for j in range(2):
            for k in range(3):
                expected[i, j] += a[i, k] * b[k, j]
    t = Tape()
    out = t.matmul(t.leaf(a, "a"), t.leaf(b, "b"))
    np.testing.assert_allclose(out.value, expected, rtol=0, atol=1e-14)


def test_matmul_dimension_mismatch():
    t = Tape()
    with pytest.raises(ValueError):
        t.matmul(t.leaf(np.ones((2, 3)), "a"), t.leaf(np.ones((2, 3)), "b"))


def test_grad_linear_map_outer_product_structure(rng):
    # scalar = sum(W @ x): every row of d/dW equals x^T
    w = rng.normal(size=(3, 3))
    x = rng.normal(size=(3, 1))
    t = Tape()
    wn = t.leaf(w, "w")
    s = t.sum_all(t.matmul(wn, t.constant(x)))
    g = grad(t, s, wn)
    np.testing.assert_allclose(g, np.tile(x.T, (3, 1)), atol=1e-14)


def test_grad_of_constant_is_zero(rng):
    t = Tape()
    leaf = t.leaf(rng.normal(size=(2, 2)), "w")
    untouched = t.sum_all(t.leaf(rng.normal(size=(2, 2)), "other"))
    assert np.array_equal(grad(t, untouched, leaf), np.zeros((2, 2)))


def test_gradients_rejects_foreign_leaf(rng):
    t1, t2 = Tape(), Tape()
    a = t1.leaf(rng.normal(size=(2, 2)), "a")
    b = t2.leaf(rng.normal(size=(2, 2)), "a")
    s = t1.sum_all(a)
    with pytest.raises(ValueError):
        gradients(t1, s, [b])


def test_non_recording_tape_counts_flops_and_keeps_nothing(rng):
    t = Tape(record=False)
    a = t.leaf(rng.normal(size=(2, 3)), "a")
    s = t.sum_all(t.matmul(a, t.leaf(rng.normal(size=(3, 2)), "b"), tag="x"))
    assert t.flops_by_tag == {"x": 2 * 2 * 2 * 3}
    assert t.nodes == [] and t.leaves == {}
    with pytest.raises(ValueError):
        gradients(t, s, [a])
    with pytest.raises(ValueError, match="non-recording"):
        t.backward_from(s)


def _fd_check(build, arrays, rtol=1e-4, atol=1e-8):
    """build(tape, leaves) -> scalar node; FD each array and compare."""
    def value(arrs):
        t = Tape()
        leaves = {k: t.leaf(v, k) for k, v in arrs.items()}
        return float(build(t, leaves).value[0, 0])

    t = Tape()
    leaves = {k: t.leaf(v, k) for k, v in arrays.items()}
    out = build(t, leaves)
    grads = gradients(t, out, list(leaves.values()))
    for (name, _), g in zip(arrays.items(), grads):
        fd = finite_difference(value, arrays, name)
        np.testing.assert_allclose(g, fd, rtol=rtol, atol=atol, err_msg=name)


def test_fd_matmul(rng):
    arrays = {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=(4, 2))}
    r = rng.normal(size=(3, 2))
    _fd_check(lambda t, lv: t.sum_all(t.mul(t.matmul(lv["a"], lv["b"]),
                                            t.constant(r))), arrays)


def test_fd_add_scale_mul_transpose(rng):
    arrays = {"a": rng.normal(size=(3, 3)), "b": rng.normal(size=(3, 3))}
    r = rng.normal(size=(3, 3))

    def build(t, lv):
        x = t.add(lv["a"], t.scale(lv["b"], -2.5))
        x = t.mul(x, t.transpose(lv["b"]))
        return t.sum_all(t.mul(x, t.constant(r)))

    _fd_check(build, arrays)


def test_transpose_is_a_view(rng):
    t = Tape()
    a = t.leaf(rng.normal(size=(3, 5)), "a")
    out = t.transpose(a)
    assert np.shares_memory(out.value, a.value)
    np.testing.assert_array_equal(out.value, a.value.T)


def test_fd_reshape(rng):
    """Row-major reshapes of a contiguous matrix (a view) and of a transposed
    one (a copy); the gradient flows back in the input's shape."""
    arrays = {"a": rng.normal(size=(3, 4))}
    r = rng.normal(size=(6, 2))

    def build(t, lv):
        x = t.reshape(lv["a"], 6, 2)
        y = t.reshape(t.transpose(lv["a"]), 6, 2)
        return t.sum_all(t.mul(t.add(x, t.scale(y, 0.5)), t.constant(r)))

    _fd_check(build, arrays)
    t = Tape()
    a = t.leaf(arrays["a"], "a")
    assert np.shares_memory(t.reshape(a, 6, 2).value, a.value)
    np.testing.assert_array_equal(t.reshape(t.transpose(a), 6, 2).value,
                                  arrays["a"].T.reshape(6, 2))


def test_fd_masked_softmax_over_stacked_rows(rng):
    """Two stacked rows per token (G=2) share their token's causal mask row;
    the scale is not 1, and the result overwrites the score matrix."""
    n, group, t_len, width = 3, 2, 5, 4
    arrays = {"q": rng.normal(size=(n * group, width)),
              "k": rng.normal(size=(width, t_len))}
    mask = np.where(np.arange(t_len)[None, :] > np.arange(2, 2 + n)[:, None],
                    -np.inf, 0.0)
    r = rng.normal(size=(n * group, t_len))
    scale = 0.37

    def build(t, lv):
        probs = t.masked_softmax(t.matmul(lv["q"], lv["k"]), scale, mask)
        return t.sum_all(t.mul(probs, t.constant(r)))

    _fd_check(build, arrays)
    t = Tape()
    scores = t.matmul(t.leaf(arrays["q"], "q"), t.leaf(arrays["k"], "k"))
    expected = softmax_rows(scores.value * scale + np.repeat(mask, group, axis=0))
    probs = t.masked_softmax(scores, scale, mask)
    np.testing.assert_array_equal(probs.value, expected)
    assert probs.value is scores.value
    assert np.all(probs.value[np.repeat(mask, group, axis=0) == -np.inf] == 0.0)
    raw = arrays["q"] @ arrays["k"]
    unmasked = t.masked_softmax(t.constant(raw.copy()), scale)
    np.testing.assert_array_equal(unmasked.value, softmax_rows(raw * scale))


def test_fd_gathers_with_repeats(rng):
    arrays = {"a": rng.normal(size=(4, 5))}
    r = rng.normal(size=(3, 5))

    def build(t, lv):
        x = t.gather_rows(lv["a"], [1, 1, 3])
        return t.sum_all(t.mul(x, t.constant(r)))

    _fd_check(build, arrays)


def test_fd_cols(rng):
    """Overlapping and empty column slices; the gradient of each lands in its
    own columns and the overlaps add up."""
    arrays = {"a": rng.normal(size=(3, 6))}
    r1, r2 = rng.normal(size=(3, 4)), rng.normal(size=(3, 3))

    def build(t, lv):
        x = t.mul(t.cols(lv["a"], 1, 5), t.constant(r1))
        y = t.mul(t.cols(lv["a"], 3, 6), t.constant(r2))
        empty = t.cols(lv["a"], 2, 2)
        return t.add(t.add(t.sum_all(x), t.sum_all(y)), t.sum_all(empty))

    _fd_check(build, arrays)


def test_cols_is_a_view_and_checks_its_range(rng):
    t = Tape()
    a = t.leaf(rng.normal(size=(3, 5)), "a")
    out = t.cols(a, 1, 4)
    assert np.shares_memory(out.value, a.value)
    np.testing.assert_array_equal(out.value, a.value[:, 1:4])
    assert t.cols(a, 0, 5).value.shape == (3, 5)
    for lo, hi in ((-1, 2), (2, 6), (3, 2)):
        with pytest.raises(ValueError, match="out of range"):
            t.cols(a, lo, hi)


def test_fd_concat_cols(rng):
    """Side by side (axis 1) and stacked (axis 0)."""
    arrays = {"a": rng.normal(size=(3, 2)), "b": rng.normal(size=(3, 4))}
    r = rng.normal(size=(3, 6))
    _fd_check(lambda t, lv: t.sum_all(t.mul(t.concat([lv["a"], lv["b"]], axis=1),
                                            t.constant(r))), arrays)
    arrays = {"a": rng.normal(size=(2, 3)), "b": rng.normal(size=(4, 3))}
    r = rng.normal(size=(6, 3))
    _fd_check(lambda t, lv: t.sum_all(t.mul(t.concat([lv["a"], lv["b"]], axis=0),
                                            t.constant(r))), arrays)


def test_fd_rows(rng):
    """Overlapping and empty row slices of a node whose first gradient is
    shared with another leaf: writing a slice into it must not touch that
    leaf's gradient."""
    arrays = {"a": rng.normal(size=(6, 3)), "b": rng.normal(size=(6, 3))}
    r1, r2, r3 = (rng.normal(size=(k, 3)) for k in (4, 3, 6))

    def build(t, lv):
        x = t.sum_all(t.mul(t.rows(lv["a"], 1, 5), t.constant(r1)))
        y = t.sum_all(t.mul(t.rows(lv["a"], 3, 6), t.constant(r2)))
        empty = t.sum_all(t.rows(lv["a"], 2, 2))
        # recorded last, so its backward runs first: a and b get the same array
        z = t.sum_all(t.mul(t.add(lv["a"], lv["b"]), t.constant(r3)))
        return t.add(t.add(t.add(x, y), empty), z)

    _fd_check(build, arrays)


def test_rows_is_a_view_and_checks_its_range(rng):
    t = Tape()
    a = t.leaf(rng.normal(size=(5, 3)), "a")
    out = t.rows(a, 1, 4)
    assert np.shares_memory(out.value, a.value)
    np.testing.assert_array_equal(out.value, a.value[1:4])
    assert t.rows(a, 0, 5).value.shape == (5, 3)
    for lo, hi in ((-1, 2), (2, 6), (3, 2)):
        with pytest.raises(ValueError, match="rows .* out of range"):
            t.rows(a, lo, hi)


def test_fd_row_softmax_and_log_softmax(rng):
    arrays = {"a": rng.normal(size=(4, 6))}
    r = rng.normal(size=(4, 6))
    _fd_check(lambda t, lv: t.sum_all(t.mul(t.row_softmax(lv["a"]),
                                            t.constant(r))), arrays)
    _fd_check(lambda t, lv: t.sum_all(t.mul(t.row_log_softmax(lv["a"]),
                                            t.constant(r))), arrays)


def test_fd_rotate_pairs(rng):
    # both layouts, K=2 groups of 2 heads of 2 pairs: a group's heads share
    # its angle row
    for half_split in (False, True):
        arrays = {"a": rng.normal(size=(3, 16))}
        r = rng.normal(size=(3, 16))
        ang = rng.uniform(0, 7, size=(3, 2, 2))
        cos, sin = np.cos(ang), np.sin(ang)
        _fd_check(lambda t, lv: t.sum_all(t.mul(
            t.rotate_pairs(lv["a"], cos, sin, half_split), t.constant(r))), arrays)


def test_fd_append_rows(rng):
    # the cached rows are constants; only the appended rows get a gradient
    past = rng.normal(size=(4, 3))
    buffer = np.full((8, 3), np.nan)   # spare rows must never be read
    buffer[:4] = past
    arrays = {"a": rng.normal(size=(2, 3))}
    r = rng.normal(size=(6, 3))
    _fd_check(lambda t, lv: t.sum_all(t.mul(t.append_rows(buffer, 4, lv["a"]),
                                            t.constant(r))), arrays)
    t = Tape()
    stacked = t.append_rows(buffer, 4, t.leaf(arrays["a"], "a"))
    np.testing.assert_array_equal(stacked.value, np.vstack([past, arrays["a"]]))
    assert np.shares_memory(stacked.value, buffer)
    with pytest.raises(ValueError):
        t.append_rows(buffer, 7, t.leaf(arrays["a"], "a"))


def test_fd_cross_entropy_and_means(rng):
    arrays = {"a": rng.normal(size=(4, 5))}
    labels = [0, 3, 1, 4]
    _fd_check(lambda t, lv: t.cross_entropy(lv["a"], labels), arrays)
    _fd_check(lambda t, lv: t.mean_all(lv["a"]), arrays)


def test_fd_toy_attention_ce_loss_wrt_wk(rng):
    """End to end: the model CE gradient w.r.t. the key projection vs FD."""
    spec = tiny_spec(seed=5)
    model = AttentionModel.build(spec)
    tokens = [1, 4, 2, 7, 3]
    arrays = {"wk": model.layers[0].k_map.weight.copy()}

    def value(arrs):
        model.layers[0].k_map.weight = arrs["wk"]
        loss, _ = loss_forward(model, tokens)
        return float(loss.value[0, 0])

    model.layers[0].k_map.weight = arrays["wk"]
    loss, tape = loss_forward(model, tokens)
    g = grad(tape, loss, tape.leaves["L0.k"])
    fd = finite_difference(value, arrays, "wk")
    np.testing.assert_allclose(g, fd, rtol=1e-4, atol=1e-8)


def test_row_softmax_rows_sum_to_one(rng):
    t = Tape()
    out = t.row_softmax(t.leaf(rng.normal(scale=5, size=(20, 9)), "a"))
    np.testing.assert_allclose(out.value.sum(axis=1), 1.0, rtol=0, atol=1e-12)


def test_softmax_with_causal_minus_inf_mask(rng):
    t = Tape()
    scores = rng.normal(size=(4, 4))
    mask = np.zeros((4, 4))
    mask[np.triu_indices(4, k=1)] = -np.inf
    out = t.row_softmax(t.add(t.leaf(scores, "s"), t.constant(mask)))
    assert np.all(np.isfinite(out.value))
    assert np.all(out.value[np.triu_indices(4, k=1)] == 0.0)
    np.testing.assert_allclose(out.value.sum(axis=1), 1.0, atol=1e-12)


def test_flops_counter_matches_closed_form(rng):
    t = Tape()
    a = t.leaf(rng.normal(size=(5, 7)), "a")
    b = t.leaf(rng.normal(size=(7, 3)), "b")
    c = t.leaf(rng.normal(size=(3, 11)), "c")
    t.matmul(t.matmul(a, b, tag="x"), c, tag="y")
    expected = 2 * 5 * 3 * 7 + 2 * 5 * 11 * 3
    assert t.flops == expected
    assert t.flops_by_tag == {"x": 2 * 5 * 3 * 7, "y": 2 * 5 * 11 * 3}


def test_forward_pass_flops_closed_form():
    """The toy prefill counter equals the sum of 2MNK over its matmuls."""
    from conftest import make_spec
    from rapkit.toymodel import forward_prefill

    spec = make_spec()
    model = AttentionModel.build(spec)
    s = 6
    result = forward_prefill(model, list(range(s)))
    dim, d = spec.model_dim, spec.head_dim
    kv_width = spec.kv_heads * d
    per_layer = (2 * s * dim * dim          # q
                 + 2 * 2 * s * dim * kv_width   # k and v
                 + spec.query_heads * (2 * s * s * d + 2 * s * d * s)  # scores, values
                 + 2 * s * dim * dim)       # output
    expected = spec.layers * per_layer + 2 * s * spec.vocab * dim  # lm head
    assert result.tape.flops == expected


def test_as_matrix_rejects_non_finite():
    with pytest.raises(ValueError):
        as_matrix([[np.inf, 1.0]])


def test_leaf_dedup_by_name(rng):
    t = Tape()
    w = rng.normal(size=(2, 2))
    a = t.leaf(w, "w")
    b = t.leaf(w, "w")
    assert a is b
    with pytest.raises(ValueError):
        t.leaf(rng.normal(size=(2, 2)), "w")
