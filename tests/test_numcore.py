"""Tape primitives against independent oracles (triple loops, central FD)."""

import os
import sys
import threading
import time
import warnings

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import RAP_CASE, finite_difference, make_spec, pair_columns, tiny_spec
from rapkit import numcore, toymodel
from rapkit.factorize import build_compressed
from rapkit.numcore import (ROTATE_ROWS, Node, Tape, as_matrix, grad, gradients, pair_tables,
                            rotate_pairs, softmax_rows, turn_pairs)
from rapkit.rope import PairingScheme, RopeConfig
from rapkit.scoring import magnitude_scores
from rapkit.toymodel import (AttentionModel, _query_blocks, forward_decode, forward_prefill,
                             loss_forward)


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


@pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
def test_fd_adapted_matmul(rng, masked):
    """Gradients of x, the base weight and both adapter factors, with and
    without a dropout-like mask on x's adapter path."""
    arrays = {"x": rng.normal(size=(3, 4)), "w": rng.normal(size=(4, 5)),
              "down": rng.normal(size=(4, 2)), "up": rng.normal(size=(2, 5))}
    mask = (rng.random((3, 4)) >= 0.3) / 0.7 if masked else None
    r = rng.normal(size=(3, 5))

    def build(t, lv):
        y = t.adapted_matmul(lv["x"], lv["w"], lv["down"], lv["up"], 1.5, mask)
        return t.sum_all(t.mul(y, t.constant(r)))

    _fd_check(build, arrays)
    x, w, down, up = arrays.values()
    y = Tape().adapted_matmul(*(Tape().constant(a) for a in arrays.values()), 1.5, mask)
    x_in = x if mask is None else x * mask
    np.testing.assert_array_equal(y.value, x @ w + ((x_in @ down) @ up) * 1.5)


def test_adapted_matmul_counts_its_three_matmuls(rng):
    x, w, down, up = (rng.normal(size=s) for s in ((3, 4), (4, 5), (4, 2), (2, 5)))
    for record in (True, False):
        fused, plain = Tape(record), Tape(record)
        fused.adapted_matmul(*(fused.constant(a) for a in (x, w, down, up)), 2.0,
                             tag="attn_q")
        for a, b in ((x, w), (x, down), (x @ down, up)):
            plain.matmul(plain.constant(a), plain.constant(b), tag="attn_q")
        assert fused.flops == plain.flops == 2 * 3 * (4 * 5 + 4 * 2 + 2 * 5)
        assert fused.flops_by_tag == plain.flops_by_tag
    t = Tape()
    with pytest.raises(ValueError, match="dimension mismatch"):
        t.adapted_matmul(*(t.constant(a) for a in (x, w, up, down)), 2.0)
    with pytest.raises(ValueError, match="mask shape"):
        t.adapted_matmul(*(t.constant(a) for a in (x, w, down, up)), 2.0, np.ones((3, 5)))


def test_transpose_is_a_view(rng):
    t = Tape()
    a = t.leaf(rng.normal(size=(3, 5)), "a")
    out = t.transpose(a)
    assert np.shares_memory(out.value, a.value)
    np.testing.assert_array_equal(out.value, a.value.T)


def test_fd_reshape(rng):
    """Row-major reshapes of a contiguous matrix (a view) and of a transposed
    one (a copy), to 2-D and to a 3-D stack with an inferred axis; the
    gradient flows back in the input's shape."""
    arrays = {"a": rng.normal(size=(3, 4))}
    r = rng.normal(size=(6, 2))

    def build(t, lv):
        x = t.reshape(lv["a"], 6, 2)
        y = t.reshape(t.transpose(lv["a"]), 6, 2)
        z = t.reshape(t.reshape(lv["a"], 2, -1, 2), 6, 2)
        return t.sum_all(t.mul(t.add(t.add(x, t.scale(y, 0.5)), z), t.constant(r)))

    _fd_check(build, arrays)
    t = Tape()
    a = t.leaf(arrays["a"], "a")
    assert np.shares_memory(t.reshape(a, 6, 2).value, a.value)
    np.testing.assert_array_equal(t.reshape(t.transpose(a), 6, 2).value,
                                  arrays["a"].T.reshape(6, 2))
    stack = t.reshape(a, 2, -1, 2)
    assert stack.value.shape == (2, 3, 2) and np.shares_memory(stack.value, a.value)


def _attention_reference(q, k, v, scale, blocks):
    """Each block's softmax(scale * q k^T + mask) v, head by head, with
    :func:`softmax_rows` over the full mask rows of the keys it sees."""
    n = blocks[-1][1]
    group, t = q.shape[1] // n, k.shape[1] - n
    out = np.zeros(q.shape[:-1] + v.shape[-1:])
    for i0, i1, mask in blocks:
        rows, keys = slice(i0 * group, i1 * group), t + i1
        full = np.zeros((i1 - i0, keys))
        if mask is not None:
            full[:, keys - mask.shape[1]:] = mask
        for h in range(q.shape[0]):
            z = q[h, rows] @ k[h, :keys].T * scale + np.repeat(full, group, axis=0)
            out[h, rows] = softmax_rows(z) @ v[h, :keys]
    return out


def test_fd_attention_over_stacked_rows(rng):
    """One block of 3 new rows after 2 cached keys: two stacked rows per
    token (G=2) share their token's causal mask row over the trailing
    columns, and the scale is not 1."""
    n, group, t_len, width = 3, 2, 5, 4
    arrays = {"q": rng.normal(size=(2, n * group, width)),
              "k": rng.normal(size=(2, t_len, width)), "v": rng.normal(size=(2, t_len, 3))}
    mask = np.where(np.arange(n)[None, :] > np.arange(n)[:, None], -np.inf, 0.0)
    r = rng.normal(size=(2, n * group, 3))
    scale, blocks = 0.37, [(0, n, mask)]

    def build(t, lv):
        out = t.attention(lv["q"], lv["k"], lv["v"], scale, blocks)
        return t.sum_all(t.mul(out, t.constant(r)))

    _fd_check(build, arrays)
    t = Tape()
    out = t.attention(*(t.leaf(arrays[x], x) for x in "qkv"), scale, blocks)
    np.testing.assert_allclose(out.value, _attention_reference(
        arrays["q"], arrays["k"], arrays["v"], scale, blocks), rtol=0, atol=1e-15)
    unmasked = t.attention(*(t.leaf(arrays[x], x) for x in "qkv"), scale, [(0, n, None)])
    np.testing.assert_allclose(unmasked.value, _attention_reference(
        arrays["q"], arrays["k"], arrays["v"], scale, [(0, n, None)]), rtol=0, atol=1e-15)


def test_fd_gathers_with_repeats(rng):
    arrays = {"a": rng.normal(size=(4, 5))}
    r = rng.normal(size=(3, 5))

    def build(t, lv):
        x = t.gather_rows(lv["a"], [1, 1, 3])
        return t.sum_all(t.mul(x, t.constant(r)))

    _fd_check(build, arrays)


def test_fd_swapaxes_column_slices(rng):
    """Overlapping and empty column slices, taken as row slices of the
    swapped view; the gradient of each lands in its own columns and the
    overlaps add up. A 3-D stack swaps its outer axes too."""
    arrays = {"a": rng.normal(size=(3, 6)), "s": rng.normal(size=(2, 3, 4))}
    r1, r2, r3 = rng.normal(size=(3, 4)), rng.normal(size=(3, 3)), rng.normal(size=(3, 2, 4))

    def columns(t, a, lo, hi):
        return t.swapaxes(t.rows(t.swapaxes(a, 0, 1), lo, hi), 0, 1)

    def build(t, lv):
        x = t.mul(columns(t, lv["a"], 1, 5), t.constant(r1))
        y = t.mul(columns(t, lv["a"], 3, 6), t.constant(r2))
        empty = columns(t, lv["a"], 2, 2)
        z = t.mul(t.swapaxes(lv["s"], 0, 1), t.constant(r3))
        return t.add(t.add(t.add(t.sum_all(x), t.sum_all(y)), t.sum_all(empty)),
                     t.sum_all(z))

    _fd_check(build, arrays)


def test_swapaxes_is_a_view_and_rows_slice_every_matrix(rng):
    """Row slices of a stack cut axis -2 of every matrix, as views, and
    check their range against that axis."""
    t = Tape()
    a = t.leaf(rng.normal(size=(2, 5, 3)), "a")
    swapped = t.swapaxes(a, 0, 2)
    assert np.shares_memory(swapped.value, a.value)
    np.testing.assert_array_equal(swapped.value, a.value.swapaxes(0, 2))
    out = t.rows(a, 1, 4)
    assert np.shares_memory(out.value, a.value)
    np.testing.assert_array_equal(out.value, a.value[:, 1:4])
    assert t.rows(a, 0, 5).value.shape == (2, 5, 3)
    for lo, hi in ((-1, 2), (2, 6), (3, 2)):
        with pytest.raises(ValueError, match="rows .* out of range"):
            t.rows(a, lo, hi)


def test_fd_attention_over_query_blocks(rng):
    """Three query blocks of one pass, their rows joined: diagonal tiles of
    one window after a cached key, and the full mask rows of two windows."""
    group, width = 2, 3
    for n, windows, t_len in ((5, 1, 6), (6, 2, 6)):
        arrays = {"q": rng.normal(size=(2, n * group, width)),
                  "k": rng.normal(size=(2, t_len, width)), "v": rng.normal(size=(2, t_len, 2))}
        r = rng.normal(size=(2, n * group, 2))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(toymodel, "QUERY_BLOCK", 2)
            blocks = _query_blocks(n, windows)
        assert len(blocks) == 3

        def build(t, lv):
            out = t.attention(lv["q"], lv["k"], lv["v"], 0.6, blocks)
            return t.sum_all(t.mul(out, t.constant(r)))

        _fd_check(build, arrays)
        t = Tape()
        out = t.attention(*(t.leaf(arrays[x], x) for x in "qkv"), 0.6, blocks)
        np.testing.assert_allclose(out.value, _attention_reference(
            arrays["q"], arrays["k"], arrays["v"], 0.6, blocks), rtol=0, atol=1e-15)


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
    # its angle row; a 2-stack of such matrices turns each by the same angles
    for half_split, shape in ((False, (3, 16)), (True, (3, 16)), (False, (2, 3, 16)),
                              (True, (2, 3, 16))):
        arrays = {"a": rng.normal(size=shape)}
        r = rng.normal(size=shape)
        ang = rng.uniform(0, 7, size=(3, 2, 2))
        cos, sin = np.cos(ang), np.sin(ang)
        _fd_check(lambda t, lv: t.sum_all(t.mul(
            t.rotate_pairs(lv["a"], cos, sin, half_split), t.constant(r))), arrays)


def test_primitives_over_stacks_match_each_matrix_bit_for_bit(rng):
    """A stack runs rows, attention and rotation on each of its matrices as
    a stack of one would, to the same bits, and its attention FLOPs are the
    sum over the stack."""
    h, n, group, t_len, width = 3, 4, 2, 6, 8
    q, k = rng.normal(size=(h, n * group, width)), rng.normal(size=(h, t_len, width))
    mask = np.where(np.arange(2)[None, :] > np.arange(2)[:, None], -np.inf, 0.0)
    ang = rng.uniform(0, 7, size=(n * group, 2, 2))
    cos, sin = np.cos(ang), np.sin(ang)

    def attend(t, qn, kn):
        rows = t.rows(qn, 2 * group, 4 * group)
        out = t.attention(rows, kn, kn, 0.3, [(0, 2, mask)], tags=("s", "v"))
        return out, t.rotate_pairs(qn, cos, sin, True)

    t = Tape()
    stacked = attend(t, t.leaf(q, "q"), t.leaf(k, "k"))
    flops = dict(t.flops_by_tag)
    for i in range(h):
        t = Tape()
        for got, want in zip(stacked, attend(t, t.leaf(q[i:i + 1], "q"), t.leaf(k[i:i + 1], "k"))):
            np.testing.assert_array_equal(got.value[i], want.value[0])
        assert {tag: h * f for tag, f in t.flops_by_tag.items()} == flops
    assert flops == {"s": 2 * h * 2 * group * t_len * width,
                     "v": 2 * h * 2 * group * width * t_len}


def test_fd_primitives_over_stacks(rng):
    """Gradients through stacked swapaxes, reshape, rows, attention (a mask
    over the trailing columns only, keys that are also the values) and
    rotation, vs FD; values of the identity read off the probabilities."""
    h, n, group, t_len, width = 2, 3, 2, 5, 4
    arrays = {"q": rng.normal(size=(h, n, group * width)),
              "k": rng.normal(size=(h, t_len, width))}
    # the last 2 query rows see the last 2 keys causally, all earlier keys
    mask = np.where(np.arange(2)[None, :] > np.arange(2)[:, None], -np.inf, 0.0)
    ang = rng.uniform(0, 7, size=(n * group, 1, 2))
    cos, sin = np.cos(ang), np.sin(ang)
    r = rng.normal(size=(n - 1, h, group * width))

    def build(t, lv):
        q = t.reshape(lv["q"], h, n * group, width)
        q = t.rotate_pairs(q, cos, sin, False)
        q = t.rows(q, group, n * group)
        out = t.reshape(t.attention(q, lv["k"], lv["k"], 0.7, [(0, n - 1, mask)]), h, n - 1, -1)
        return t.sum_all(t.mul(t.swapaxes(out, 0, 1), t.constant(r)))

    _fd_check(build, arrays)
    q = arrays["q"].reshape(h, n * group, width)[:, group:]
    t = Tape()
    out = t.attention(t.constant(q), t.constant(arrays["k"]), t.constant(np.eye(t_len)[None]
                                                                        .repeat(h, 0)),
                      0.7, [(0, n - 1, mask)])
    full = np.zeros((n - 1, t_len))
    full[:, -2:] = mask
    want = np.exp(q @ arrays["k"].swapaxes(1, 2) * 0.7 + np.repeat(full, group, axis=0))
    np.testing.assert_allclose(out.value, want / want.sum(axis=-1, keepdims=True),
                               rtol=0, atol=1e-15)
    assert np.all(out.value[:, :group, -1] == 0) and np.all(out.value[:, group:, -1] > 0)


def test_matmul_over_stacks_checks_the_batch_shape(rng):
    t = Tape()
    with pytest.raises(ValueError, match="mismatch"):
        t.matmul(t.leaf(np.ones((2, 3, 4)), "a"), t.leaf(np.ones((3, 4, 2)), "b"))
    with pytest.raises(ValueError, match="mismatch"):
        t.matmul(t.leaf(np.ones((2, 3, 4)), "c"), t.leaf(np.ones((4, 2)), "d"))


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


def test_leaf_takes_float64_arrays_as_they_are(rng):
    """A float64 array of any shape is the leaf's value, uncopied and
    unchecked; anything else is coerced to a checked matrix."""
    t = Tape()
    stack = rng.normal(size=(2, 3, 4))
    assert t.leaf(stack, "s").value is stack
    assert t.leaf([1, 2], "v").value.shape == (1, 2)
    with pytest.raises(ValueError, match="finite"):
        t.leaf([[np.inf]], "bad")


def test_leaf_dedup_by_name(rng):
    t = Tape()
    w = rng.normal(size=(2, 2))
    a = t.leaf(w, "w")
    b = t.leaf(w, "w")
    assert a is b
    with pytest.raises(ValueError):
        t.leaf(rng.normal(size=(2, 2)), "w")


def plain_rotation(x, cos, sin, kind):
    """(a·cos − b·sin, a·sin + b·cos) for every pair (a, b) of every head,
    one column pair at a time in plain numpy; head h of K groups turns by
    its group's angles."""
    out = np.empty(x.shape)
    rows, groups, pairs = cos.shape
    heads = x.shape[-1] // (2 * pairs)
    for h in range(heads):
        k = h // (heads // groups)
        for j in range(pairs):
            a, b = (h * 2 * pairs + c for c in pair_columns(kind, j, 2 * pairs))
            out[..., a] = x[..., a] * cos[:, k, j] - x[..., b] * sin[:, k, j]
            out[..., b] = x[..., a] * sin[:, k, j] + x[..., b] * cos[:, k, j]
    return out


# entries with no -0 and no product that underflows to zero: a tiny entry is 0
ENTRIES = st.floats(-1e6, 1e6).map(lambda v: v if abs(v) > 1e-100 else 0.0)


@settings(max_examples=150, deadline=None)
@given(stack=st.sampled_from([(), (2,), (2, 3)]), groups=st.integers(1, 3),
       heads=st.integers(1, 2), pairs=st.integers(1, 4),
       kind=st.sampled_from(["adjacent", "half_split"]),
       layout=st.sampled_from(["contiguous", "fortran", "strided"]),
       negate=st.booleans(), data=st.data())
def test_rotate_pairs_is_the_plain_formula_bit_for_bit(stack, groups, heads, pairs, kind,
                                                       layout, negate, data):
    """Over stacks, group counts, both pairings and non-contiguous inputs,
    with rows at position 0 (sin exactly 0), all-zero rows and negated
    angles (the backward pass's), the kernel's bits are the plain formula's;
    turned over a fresh copy by prebuilt tables too."""
    rows = data.draw(st.integers(1, 4), label="rows")
    width = groups * heads * 2 * pairs
    x = data.draw(hnp.arrays(np.float64, stack + (rows, width), elements=ENTRIES), label="x")
    x[..., data.draw(st.integers(0, rows - 1), label="zero row"), :] = 0.0
    positions = data.draw(st.lists(st.integers(0, 5000), min_size=rows * groups,
                                   max_size=rows * groups), label="positions")
    positions[0] = 0
    cfg = RopeConfig(10000.0, PairingScheme(kind, 2 * pairs))
    cos, sin = (t.reshape(rows, groups, pairs) for t in cfg.angle_tables(positions))
    sin = -sin if negate else sin
    if layout == "fortran":
        x = np.asfortranarray(x)
    elif layout == "strided":
        x = np.repeat(x, 2, axis=-2)[..., ::2, :]
    want = plain_rotation(x, cos, sin, kind)
    got = rotate_pairs(x, cos, sin, kind == "half_split")
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
    fresh = np.array(x, order="C")
    got = turn_pairs(fresh, pair_tables(cos, sin, kind == "half_split"), overwrite=True)
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
    assert got is fresh


def test_rotate_pairs_may_flip_the_sign_of_an_exact_zero():
    """With a -0 entry or a product that underflows to zero, an exactly zero
    result may take the other sign; every value still equals the formula's."""
    # a -0 at position 0, and b·cos = -5e-324·0.43 underflowing to -0
    cos, sin = np.array([[[1.0]], [[0.43]]]), np.array([[[0.0]], [[-0.9]]])
    x = np.array([[-0.0, 1.0], [0.0, -5e-324]])
    got, want = rotate_pairs(x, cos, sin, False), plain_rotation(x, cos, sin, "adjacent")
    np.testing.assert_array_equal(got, want)
    assert (np.signbit(got) != np.signbit(want)).tolist() == [[True, False], [False, True]]


@pytest.mark.parametrize("half_split", [False, True])
def test_a_rotated_matmul_is_the_matmul_then_rotation_bit_for_bit(half_split, rng):
    """``matmul(..., rotate=...)``'s value, FLOPs and both gradients are
    those of ``matmul`` followed by ``rotate_pairs``, bit for bit, in one node
    instead of two: for stacks of rebuilt keys and for 2-D projections of two
    groups, of one row, one row tile, and two tiles and three rows. A
    non-recording tape gives the same value and FLOPs."""
    rank, width = 3, 8
    for t_len in (1, ROTATE_ROWS, 2 * ROTATE_ROWS + 3):
        for stack, groups in (((2,), 1), ((), 2)):
            arrays = {"a": rng.normal(size=stack + (t_len, rank)),
                      "b": rng.normal(size=stack + (rank, groups * width))}
            ang = rng.uniform(0, 50, size=(t_len, groups, width // 2))
            cos, sin = np.cos(ang), np.sin(ang)
            r = rng.normal(size=stack + (t_len, groups * width))

            results = []
            for fused, record in ((False, True), (True, True), (True, False)):
                t = Tape(record)
                a, b = t.leaf(arrays["a"], "a"), t.leaf(arrays["b"], "b")
                if fused:
                    keys = t.matmul(a, b, tag="kv", rotate=pair_tables(cos, sin, half_split))
                else:
                    keys = t.rotate_pairs(t.matmul(a, b, tag="kv"), cos, sin, half_split)
                grads = gradients(t, t.sum_all(t.mul(keys, t.constant(r))), [a, b]) if record \
                    else []
                results.append(([keys.value, *grads], dict(t.flops_by_tag), len(t.nodes)))
            (composed, flops, nodes), (fused, fused_flops, fused_nodes), (quiet, quiet_flops, _) \
                = results
            for want, got in zip(composed, fused):
                assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
            assert quiet[0].view(np.int64).tolist() == composed[0].view(np.int64).tolist()
            assert fused_flops == quiet_flops == flops == {"kv": 2 * r.size * rank}
            assert fused_nodes == nodes - 1


@pytest.mark.parametrize("half_split", [False, True])
def test_a_rotated_adapted_matmul_is_the_adapted_matmul_then_rotation(half_split, rng):
    """``adapted_matmul(..., rotate=...)``: the value and the four gradients
    of ``adapted_matmul`` followed by ``rotate_pairs``, bit for bit."""
    arrays = {"x": rng.normal(size=(5, 4)), "w": rng.normal(size=(4, 8)),
              "down": rng.normal(size=(4, 2)), "up": rng.normal(size=(2, 8))}
    ang = rng.uniform(0, 50, size=(5, 2, 2))
    cos, sin = np.cos(ang), np.sin(ang)
    r = rng.normal(size=(5, 8))
    results = []
    for fused in (False, True):
        t = Tape()
        lv = [t.leaf(a, name) for name, a in arrays.items()]
        if fused:
            y = t.adapted_matmul(*lv, 1.5, rotate=pair_tables(cos, sin, half_split))
        else:
            y = t.rotate_pairs(t.adapted_matmul(*lv, 1.5), cos, sin, half_split)
        results.append([y.value, *gradients(t, t.sum_all(t.mul(y, t.constant(r))), lv)])
    for want, got in zip(*results):
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


def _tables(rng, rows, groups, pairs, half_split):
    ang = rng.uniform(0, 50, size=(rows, groups, pairs))
    return pair_tables(np.cos(ang), np.sin(ang), half_split)


def _heads(rng, rows, width=64, kv_heads=4):
    """(kv_heads, rows, width) view of a cache buffer, as a layer reads it."""
    return rng.normal(size=(rows, kv_heads * width)).reshape(rows, kv_heads, -1).swapaxes(0, 1)


# the medium prefill's products above the split size (4 kv heads of 4 query
# heads, head_dim 64, model dim 1024), and an svd key rebuild at 1100 keys:
# name -> (a, b, rotate) of (rng, half_split)
SPLIT_PRODUCTS = {
    "o projection": lambda rng, hs: (rng.normal(size=(768, 1024)),
                                     rng.normal(size=(1024, 1024)), None),
    "lm head": lambda rng, hs: (rng.normal(size=(768, 1024)),
                                rng.normal(size=(512, 1024)).T, None),
    "q projection, three tiles": lambda rng, hs: (rng.normal(size=(768, 1024)),
                                                  rng.normal(size=(1024, 1024)),
                                                  _tables(rng, 768, 1, 32, hs)),
    "rap q projection, three tiles": lambda rng, hs: (rng.normal(size=(768, 1024)),
                                                      rng.normal(size=(1024, 512)),
                                                      _tables(rng, 768, 4, 16, hs)),
    "k projection, one tile": lambda rng, hs: (rng.normal(size=(200, 1024)),
                                               rng.normal(size=(1024, 256)),
                                               _tables(rng, 200, 1, 32, hs)),
    "scores": lambda rng, hs: (rng.normal(size=(4, 256, 64)),
                               _heads(rng, 768).swapaxes(1, 2), None),
    "values": lambda rng, hs: (rng.uniform(size=(4, 256, 768)), _heads(rng, 768), None),
    "svd key rebuild": lambda rng, hs: (_heads(rng, 1100, width=32),
                                        rng.normal(size=(4, 32, 64)),
                                        _tables(rng, 1100, 1, 32, hs)),
}


def split_and_serial(monkeypatch, run) -> list:
    """``run()`` with its large primitives split between two threads, then
    serial (split sizes of infinity); checks that the first run split."""
    parts = []
    real = numcore._in_parts

    def counted(work, pieces):
        parts.append(len(pieces))
        real(work, pieces)

    results = []
    with monkeypatch.context() as patch:
        patch.setattr(numcore, "_cpus", lambda: 2)
        patch.setattr(numcore, "_in_parts", counted)
        results.append(run())
        assert 2 in parts
        patch.setattr(numcore, "SPLIT_MADDS", float("inf"))
        patch.setattr(numcore, "SPLIT_SCORES", float("inf"))
        parts.clear()
        results.append(run())
        assert 2 not in parts
    return results


@pytest.mark.parametrize("case", SPLIT_PRODUCTS)
def test_a_split_product_is_the_serial_one_bit_for_bit(case, monkeypatch):
    """A product above the split size gives the serial path's value, FLOPs
    and nodes, bit for bit, for both pairings."""
    for half_split in (False, True):
        a, b, rotate = SPLIT_PRODUCTS[case](np.random.default_rng(27), half_split)

        def run():
            t = Tape()
            out = t.matmul(t.leaf(a, "a"), t.leaf(b, "b"), tag="p", rotate=rotate)
            return out.value, dict(t.flops_by_tag), len(t.nodes)

        (split, flops, nodes), (serial, serial_flops, serial_nodes) = \
            split_and_serial(monkeypatch, run)
        assert split.view(np.int64).tolist() == serial.view(np.int64).tolist()
        assert flops == serial_flops == {"p": 2 * split.size * a.shape[-1]}
        assert nodes == serial_nodes == 3


def test_a_product_of_fewer_than_four_rows_stays_whole(monkeypatch):
    """A one-row half would run as a matrix-vector product, whose bits differ."""
    monkeypatch.setattr(numcore, "_cpus", lambda: 2)
    b = np.ones((1024, 4096))
    for rows, parts in ((2, 1), (3, 1), (4, 2)):
        a = np.ones((rows, 1024))
        assert len(numcore._product_parts(a, b, np.empty((rows, 4096)), None)) == parts


def test_a_rotated_product_of_small_tiles_stays_whole(monkeypatch):
    """Row halves would move the boundaries of tiles of 256 x 128 x 32
    multiply-adds, near the small-matrix kernel's sizes; one tile splits."""
    monkeypatch.setattr(numcore, "_cpus", lambda: 2)
    rng = np.random.default_rng(27)
    for rows, cols, inner, parts in ((2048, 128, 32, 1), (1024, 256, 32, 1),
                                     (511, 512, 64, 2), (768, 1024, 1024, 2)):
        a, b = np.empty((rows, inner)), np.empty((inner, cols))
        rotate = _tables(rng, rows, 1, cols // 2, False)
        assert len(numcore._product_parts(a, b, np.empty((rows, cols)), rotate)) == parts


def _kv_stack(t: Tape, buffer: Node, heads: int) -> Node:
    """A (T, H_kv·w) row buffer leaf as the (H_kv, T, w) view a layer reads."""
    return t.swapaxes(t.reshape(buffer, buffer.value.shape[0], heads, -1), 0, 1)


def _attention_pass(arrays, heads, scale, blocks, r, attend):
    """``attend(t, q, k, v)`` of a (H_kv, n·G, w) query stack and (T, H_kv·w)
    key and value buffers on a recording tape, and the loss sum(out * r).
    Gives the output, the FLOPs by tag, and the int64 views and the strides
    of the gradients of the queries and of the key and value views."""
    t = Tape()
    q = t.leaf(arrays["q"], "q")
    k, v = (_kv_stack(t, t.leaf(arrays[x], x), heads) for x in "kv")
    out = attend(t, q, k, v, scale, blocks)
    table = t.backward_from(t.sum_all(t.mul(out, t.constant(r))))
    grads = [(np.ascontiguousarray(table[node.idx]).view(np.int64), table[node.idx].strides)
             for node in (q, k, v)]
    return out.value.view(np.int64).copy(), dict(t.flops_by_tag), grads


def _composite_attention(t, q, k, v, scale, blocks):
    """The per-block composition the attention node stands for: row slices
    (with several blocks), a transpose, a score matmul, a masked softmax
    node written over the scores, a value matmul, and the blocks' rows
    joined."""
    n = blocks[-1][1]
    group, t0 = q.value.shape[1] // n, k.value.shape[1] - n

    def masked_softmax(scores, mask):
        out = scores.value
        np.multiply(out, scale, out=out)
        if mask is not None:
            stacked = out.reshape(out.shape[:-2] + (mask.shape[0], -1, out.shape[-1]))
            stacked[..., out.shape[-1] - mask.shape[1]:] += mask[:, None, :]
        out -= np.max(out, axis=-1, keepdims=True)
        np.exp(out, out=out)
        out /= np.sum(out, axis=-1, keepdims=True)

        def backward(g, acc):
            dot = np.sum(g * out, axis=-1, keepdims=True)
            acc(scores, out * (g - dot) * scale)

        return t._record(out, (scores,), backward)

    parts = []
    for i0, i1, mask in blocks:
        q_b, k_b, v_b = q, k, v
        if len(blocks) > 1:
            q_b = t.rows(q, i0 * group, i1 * group)
            k_b, v_b = t.rows(k, 0, t0 + i1), t.rows(v, 0, t0 + i1)
        probs = masked_softmax(t.matmul(q_b, t.transpose(k_b), tag="s"), mask)
        parts.append(t.matmul(probs, v_b, tag="v"))
    if len(parts) == 1:
        return parts[0]
    out = np.concatenate([p.value for p in parts], axis=1)
    edges = np.cumsum([p.value.shape[1] for p in parts])[:-1]

    def backward(g, acc):
        for p, part in zip(parts, np.split(g, edges, axis=1)):
            acc(p, part)

    return t._record(out, tuple(parts), backward)


def _node_attention(t, q, k, v, scale, blocks):
    return t.attention(q, k, v, scale, blocks, tags=("s", "v"))


ATTENTION_CASES = {   # n new rows, windows, cached keys t
    "one block": (40, 1, 0),
    "three diagonal tiles": (130, 1, 0),
    "batch of two windows": (130, 2, 0),
    "decode row": (1, 1, 37),
}


@pytest.mark.parametrize("heads", [1, 2, 4])
@pytest.mark.parametrize("case", ATTENTION_CASES)
def test_the_attention_node_is_its_per_block_composition_bit_for_bit(case, heads, monkeypatch):
    """The node's value, FLOPs and the gradients of its queries, keys and
    values are those of the composition it replaces, bit for bit: split
    between two threads by kv heads, per kv head on one thread, and as the
    stacked calls below the split size. Each gradient has the composition's
    layout: with one block its matmul's own array (the keys' a swapped
    view), with several a buffer summed from zeros."""
    n, windows, t0 = ATTENTION_CASES[case]
    group, width, v_width = 2, 8, 6
    rng = np.random.default_rng(30 + n + heads)
    arrays = {"q": rng.normal(size=(heads, n * group, width)),
              "k": rng.normal(size=(t0 + n, heads * width)),
              "v": rng.normal(size=(t0 + n, heads * v_width))}
    r = rng.normal(size=(heads, n * group, v_width))
    blocks = _query_blocks(n, windows)
    want = _attention_pass(arrays, heads, 0.35, blocks, r, _composite_attention)
    assert want[2][1][1][-2:] == ((8, 8 * (t0 + n)) if len(blocks) == 1 else (8 * width, 8))
    real, counted = numcore._in_parts, []

    def in_parts(work, pieces):
        counted.append([piece[-1] for piece in pieces])
        real(work, pieces)

    monkeypatch.setattr(numcore, "_in_parts", in_parts)
    one = [np.s_[i:i + 1] for i in range(heads)]
    for cpus, split_at, heads_by_part in (
            (2, 1, [one[:heads // 2], one[heads // 2:]] if heads > 1 else [[np.s_[:]]]),
            (1, 1, [one] if heads > 1 else [[np.s_[:]]]),
            (2, float("inf"), [[np.s_[:]]])):
        monkeypatch.setattr(numcore, "_cpus", lambda cpus=cpus: cpus)
        monkeypatch.setattr(numcore, "SPLIT_SCORES", split_at)
        counted.clear()
        got = _attention_pass(arrays, heads, 0.35, blocks, r, _node_attention)
        assert counted == [heads_by_part]
        assert got[0].tolist() == want[0].tolist()
        assert got[1] == want[1]
        for (g, strides), (w, want_strides) in zip(got[2], want[2]):
            assert g.tolist() == w.tolist() and strides == want_strides


@pytest.mark.parametrize("n, windows", [(768, 1), (256, 2)],
                         ids=["diagonal tiles", "batch of windows"])
def test_a_split_attention_is_the_serial_one_bit_for_bit(n, windows, monkeypatch):
    """A medium rap layer's attention over a 768-token prefill (the last
    block 64 rows of 4 query heads of 4 kv heads over 768 keys, 32 wide)
    and over a batch of two windows, split by kv heads between two threads,
    against the stacked calls on one: value, FLOPs, nodes, and the gradients
    of queries, keys and values."""
    rng = np.random.default_rng(27)
    arrays = {"q": rng.normal(size=(4, 4 * n, 32)), "k": rng.normal(size=(n, 4 * 32)),
              "v": rng.normal(size=(n, 4 * 32))}
    r, blocks = rng.normal(size=(4, 4 * n, 32)), _query_blocks(n, windows)

    def run():
        return _attention_pass(arrays, 4, 0.125, blocks, r, _node_attention)

    (split, flops, grads), (serial, serial_flops, serial_grads) = \
        split_and_serial(monkeypatch, run)
    assert split.tolist() == serial.tolist()
    scores = 4 * 4 * sum((i1 - i0) * i1 for i0, i1, _ in blocks)
    assert flops == serial_flops == {"s": 2 * scores * 32, "v": 2 * scores * 32}
    for (g, _), (w, _) in zip(grads, serial_grads):
        assert g.tolist() == w.tolist()


@pytest.mark.parametrize("mode", ["raise", "ignore"])
def test_the_worker_half_of_a_split_product_keeps_the_callers_error_state(mode,
                                                                          monkeypatch):
    """numpy's error state is a context variable: an overflow in the worker's
    half raises under ``"raise"`` and stays silent under ``"ignore"``."""
    monkeypatch.setattr(numcore, "_cpus", lambda: 2)
    a, b = np.ones((8, 1024)), np.full((1024, 1024), 1e10)
    a[7] = 1e300
    parts = numcore._product_parts(a, b, np.empty((8, 1024)), None)
    assert [p[0].shape[0] for p in parts] == [4, 4] and parts[1][0][3, 0] == 1e300
    t = Tape(record=False)
    with np.errstate(over=mode), warnings.catch_warnings():
        warnings.simplefilter("error")
        if mode == "raise":
            with pytest.raises(FloatingPointError, match="overflow"):
                t.matmul(t.constant(a), t.constant(b))
        else:
            out = t.matmul(t.constant(a), t.constant(b)).value
            assert np.isinf(out[7]).all() and np.isfinite(out[:7]).all()


def test_a_split_raises_the_callers_error_only_once_the_worker_is_done():
    done = []

    def run(which):
        if which == "mine":
            raise ValueError("mine")
        time.sleep(0.05)
        done.append(which)

    with pytest.raises(ValueError, match="mine"):
        numcore._in_parts(run, [("mine",), ("theirs",)])
    assert done == ["theirs"]


def test_threads_splitting_at_once_share_one_worker_and_keep_the_bits(monkeypatch):
    """Four threads split products at once, with a short switch interval,
    on one worker: every product has its bits."""
    monkeypatch.setattr(numcore, "_cpus", lambda: 2)
    rng = np.random.default_rng(27)
    a, b = rng.normal(size=(64, 1024)), rng.normal(size=(1024, 512))
    want = (a @ b).view(np.int64).tolist()
    barrier = threading.Barrier(4)
    results = [[] for _ in range(4)]

    def work(got):
        barrier.wait(timeout=10)
        t = Tape(record=False)
        for _ in range(10):
            got.append(t.matmul(t.constant(a), t.constant(b)).value)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(got,)) for got in results]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(len(got) == 10 for got in results)
    assert all(out.view(np.int64).tolist() == want for got in results for out in got)




def _medium(method: str, pairing: str = "adjacent") -> AttentionModel:
    base = AttentionModel.build(make_spec(layers=4, query_heads=16, kv_heads=4, head_dim=64,
                                          vocab=512, pairing=pairing))
    return base if method == "baseline" else build_compressed(
        base, method, 0.5, scores=magnitude_scores(base, base.spec.rope.scheme))


def test_one_cpu_starts_no_thread_and_gives_the_same_logits(monkeypatch):
    """A 768-token medium prefill and 16 decode steps on one CPU start no
    thread and split nothing, and on two they start the worker and split, to
    the same logits."""
    model = _medium("baseline")
    tokens = np.random.default_rng(27).integers(0, 512, size=784).tolist()
    pool = numcore.futures.ThreadPoolExecutor(max_workers=1)   # no thread yet
    monkeypatch.setattr(numcore, "_pool", pool)
    real = numcore._in_parts
    parts = []

    def counted(work, pieces):
        parts.append(len(pieces))
        real(work, pieces)

    monkeypatch.setattr(numcore, "_in_parts", counted)
    logits = []
    for cpus in ({0}, {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus,
                            raising=False)
        threads = threading.active_count()
        parts.clear()
        result = forward_prefill(model, tokens[:768])
        logits.append([result.logits])
        logits[-1] += [forward_decode(model, result.cache, tok)[0] for tok in tokens[768:]]
        assert threading.active_count() == threads + (len(cpus) == 2)
        assert (2 in parts) == (len(cpus) == 2)
    pool.shutdown()
    assert [x.view(np.int64).tolist() for x in logits[0]] == \
        [x.view(np.int64).tolist() for x in logits[1]]


def _decode_products(model: AttentionModel, cache, monkeypatch) -> list[list]:
    """[weight name, parts, a, b, rotate] of each matmul of one decode step
    on two CPUs (``a`` a copy of the left operand's value, ``b`` the right
    one's value as it is), and ["attention", parts, None, None, None] of
    each layer's attention node."""
    steps = []
    real_matmul, real_parts = Tape.matmul, numcore._in_parts

    def matmul(tape, a, b, tag=None, rotate=None):
        steps.append([b.name, 1, a.value.copy(), b.value, rotate])
        return real_matmul(tape, a, b, tag, rotate)

    def in_parts(work, pieces):
        if work is numcore._attend:
            steps.append(["attention", 1, None, None, None])
        steps[-1][1] = len(pieces)
        real_parts(work, pieces)

    with monkeypatch.context() as patch:
        patch.setattr(numcore, "_cpus", lambda: 2)
        patch.setattr(Tape, "matmul", matmul)
        patch.setattr(numcore, "_in_parts", in_parts)
        forward_decode(model, cache, 7)
    return steps


def _one_row_product(a, b, rotate):
    """Value, FLOPs and node count of ``a @ b`` on a recording tape."""
    t = Tape()
    out = t.matmul(t.leaf(a, "a"), t.leaf(b, "b"), tag="p", rotate=rotate)
    return out.value, dict(t.flops_by_tag), len(t.nodes)


@pytest.mark.parametrize("pairing", ["adjacent", "half_split"])
@pytest.mark.parametrize("method", ["baseline", "svd", "palu", RAP_CASE])
def test_each_one_row_decode_product_splits_by_columns_to_the_serial_bits(method, pairing,
                                                                         monkeypatch):
    """Each one-row product of a medium decode step, and one over a
    transposed view of a 1024 x 1024 weight, gives the serial path's value,
    FLOPs and nodes on a recording tape, bit for bit. Those over 8 MiB
    weights split into two column halves at a multiple of 8: the rotated q
    and the o projections of baseline and svd and the q projection of palu.
    rap's 4 MiB q and o weights and the lm heads stay whole."""
    model = _medium(method, pairing)
    steps = _decode_products(model, forward_prefill(model, list(range(16))).cache, monkeypatch)
    gemvs = [(name, a, b, rotate) for name, _, a, b, rotate in steps
             if a is not None and a.ndim == 2 and a.shape[0] == 1]
    assert len(gemvs) == 4 * 4 + 1   # q, k, v and o of each layer, the lm head
    rng = np.random.default_rng(29)
    gemvs.append(("transposed", rng.normal(size=(1, 1024)), rng.normal(size=(1024, 1024)).T,
                  None))
    real, widths, split_names = numcore._in_parts, [], []

    def counted(work, pieces):
        widths.append([piece[2].shape[1] for piece in pieces])
        real(work, pieces)

    for name, a, b, rotate in gemvs:
        widths.clear()
        with monkeypatch.context() as patch:
            patch.setattr(numcore, "_in_parts", counted)
            patch.setattr(numcore, "_cpus", lambda: 2)
            split, flops, nodes = _one_row_product(a, b, rotate)
            patch.setattr(numcore, "_cpus", lambda: 1)
            patch.setattr(numcore, "SPLIT_WEIGHTS", float("inf"))
            serial, serial_flops, serial_nodes = _one_row_product(a, b, rotate)
        if widths and len(widths[0]) == 2:
            split_names.append(name)
            assert widths[0][0] % 8 == 0 and sum(widths[0]) == b.shape[1]
        assert split.view(np.int64).tolist() == serial.view(np.int64).tolist()
        assert flops == serial_flops == {"p": 2 * b.size}
        assert nodes == serial_nodes == 3
    roles = {"baseline": "qo", "svd": "qo", "palu": "q", "rap": ""}[method]
    assert split_names == [f"L{i}.{r}" for i in range(4) for r in roles] + ["transposed"]


@pytest.mark.parametrize("method", ["baseline", "svd", "palu", RAP_CASE])
def test_a_decode_step_at_785_keys_splits_only_its_8_mib_gemvs(method, monkeypatch):
    """A medium decode step at 785 keys splits the q and o projections of
    baseline and svd and the q projection of palu, each into two parts. The
    svd and palu key and value rebuilds stay whole (split, they made a step
    slower), and so does every product of rap, whose weights are 4 MiB.
    Each layer's attention node runs its one block stacked, in one part, and
    a recorded step holds the benchmark's decode node count."""
    model = _medium(method)
    cache = forward_prefill(model, list(range(512)) + list(range(272))).cache
    steps = [(name, parts) for name, parts, *_ in _decode_products(model, cache, monkeypatch)]
    roles = {"baseline": "qo", "svd": "qo", "palu": "q", "rap": ""}[method]
    assert sorted(name for name, parts in steps if parts != 1) == \
        sorted(f"L{i}.{r}" for i in range(4) for r in roles)
    assert {parts for _, parts in steps} <= {1, 2}
    assert [parts for name, parts in steps if name == "attention"] == [1] * 4
    rebuilds = [parts for name, parts in steps if name and name.endswith(("k_b", "v_b"))]
    assert rebuilds == [1] * {"baseline": 0, "svd": 8, "palu": 4, "rap": 0}[method]
    tape = Tape()
    forward_decode(model, cache, 7, tape=tape)
    assert len(tape.nodes) == {"baseline": 88, "svd": 104, "palu": 96, "rap": 88}[method]
