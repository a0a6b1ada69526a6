"""Rotation math against log-space, complex-arithmetic and gather oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import pair_columns, scheme_pairs
from rapkit.numcore import rotate_pairs
from rapkit.rope import (ADJACENT, HALF_SPLIT, PairingScheme, RetainedIndex,
                         RopeConfig, rotate, rotate_indexed)


def cfg_for(kind: str, head_dim: int, base: float = 10000.0) -> RopeConfig:
    return RopeConfig(theta_base=base, scheme=PairingScheme(kind, head_dim))


# -- frequencies ---------------------------------------------------------------


def test_frequency_zero_exponent():
    for base in (2.0, 500.0, 10000.0):
        assert cfg_for(ADJACENT, 8, base).frequencies()[0] == 1.0


def test_frequency_known_value():
    # 10000 ** (-2/4) = 0.01
    freqs = cfg_for(ADJACENT, 4).frequencies()
    assert freqs[1] == pytest.approx(0.01, abs=1e-15)


def test_frequencies_match_log_space_oracle():
    cfg = cfg_for(HALF_SPLIT, 128)
    got = cfg.frequencies()
    expected = np.array([np.exp(-2.0 * j * np.log(10000.0) / 128)
                         for j in range(64)])
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)
    assert np.all(np.diff(got) < 0)  # strictly decreasing for base > 1


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([ADJACENT, HALF_SPLIT]), st.integers(1, 64))
def test_column_arrays_match_pair_columns(kind, half_dim):
    scheme = PairingScheme(kind, 2 * half_dim)
    first, second = scheme.column_arrays()
    expected = [pair_columns(kind, p, 2 * half_dim) for p in range(half_dim)]
    assert first.dtype == second.dtype == np.intp
    assert list(zip(first.tolist(), second.tolist())) == expected


def test_odd_head_dim_rejected():
    with pytest.raises(ValueError):
        PairingScheme(ADJACENT, 7)


# -- full rotation --------------------------------------------------------------


def test_rotation_at_position_zero_is_identity(rng):
    x = rng.normal(size=(4, 8))
    for kind in (ADJACENT, HALF_SPLIT):
        np.testing.assert_array_equal(rotate(x, [0] * 4, cfg_for(kind, 8)), x)


def test_unit_vector_rotation():
    # pair value (1, 0) at position i maps to (cos(i theta), sin(i theta))
    cfg = cfg_for(ADJACENT, 4)
    x = np.array([[1.0, 0.0, 0.0, 0.0]])
    for pos in (1, 3, 17):
        out = rotate(x, [pos], cfg)
        theta = cfg.frequencies()[0]
        assert out[0, 0] == pytest.approx(np.cos(pos * theta), abs=1e-15)
        assert out[0, 1] == pytest.approx(np.sin(pos * theta), abs=1e-15)


@pytest.mark.parametrize("kind", [ADJACENT, HALF_SPLIT])
def test_rotation_matches_complex_multiplication_oracle(kind, rng):
    """Treat each pair as a complex number and multiply by exp(i pos theta)."""
    d = 12
    cfg = cfg_for(kind, d)
    x = rng.normal(size=(5, d))
    positions = [0, 1, 2, 9, 100]
    got = rotate(x, positions, cfg)
    freqs = cfg.frequencies()
    expected = np.empty_like(x)
    for row, pos in enumerate(positions):
        for p, (a, b) in enumerate(scheme_pairs(cfg.scheme)):
            z = complex(x[row, a], x[row, b]) * np.exp(1j * pos * freqs[p])
            expected[row, a] = z.real
            expected[row, b] = z.imag
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)


def test_rotation_dimension_mismatch():
    with pytest.raises(ValueError):
        rotate(np.ones((2, 6)), [0, 1], cfg_for(ADJACENT, 8))


# -- indexed rotation -----------------------------------------------------------


@pytest.mark.parametrize("kind", [ADJACENT, HALF_SPLIT])
def test_full_retention_equals_plain_rotation(kind, rng):
    d = 8
    cfg = cfg_for(kind, d)
    retained = RetainedIndex(tuple(range(d // 2)), cfg.scheme)
    assert retained.rap_index == list(range(d))
    x = rng.normal(size=(4, d))
    positions = [3, 1, 4, 1]
    np.testing.assert_array_equal(rotate_indexed(x, positions, cfg, retained),
                                  rotate(x, positions, cfg))


def test_single_retained_pair_rotates_with_original_frequency(rng):
    cfg = cfg_for(ADJACENT, 8)
    retained = RetainedIndex((2,), cfg.scheme)
    x = rng.normal(size=(3, 2))
    positions = [5, 0, 2]
    theta = cfg.frequencies()[2]
    got = rotate_indexed(x, positions, cfg, retained)
    for row, pos in enumerate(positions):
        c, s = np.cos(pos * theta), np.sin(pos * theta)
        expected = [x[row, 0] * c - x[row, 1] * s,
                    x[row, 0] * s + x[row, 1] * c]
        np.testing.assert_allclose(got[row], expected, atol=1e-14)


@pytest.mark.parametrize("kind", [ADJACENT, HALF_SPLIT])
def test_expand_rotate_gather_oracle(kind, rng):
    """rotate_indexed(x) == gather(rotate(expand(x)), rap_index)."""
    d = 16
    cfg = cfg_for(kind, d)
    for trial in range(10):
        m = int(rng.integers(1, d // 2 + 1))
        pairs = tuple(sorted(rng.choice(d // 2, size=m, replace=False).tolist()))
        retained = RetainedIndex(pairs, cfg.scheme)
        x = rng.normal(size=(4, 2 * m))
        positions = rng.integers(0, 2048, size=4).tolist()
        expanded = np.zeros((4, d))
        expanded[:, retained.rap_index] = x
        expected = rotate(expanded, positions, cfg)[:, retained.rap_index]
        got = rotate_indexed(x, positions, cfg, retained)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("kind", [ADJACENT, HALF_SPLIT])
def test_side_by_side_heads_rotate_in_one_call(kind, rng):
    """One rotation over heads laid side by side equals rotating each head on
    its own, bit for bit, for full heads and for retained-pair heads, whether
    each head has its own angle row or a group of heads shares one."""
    cfg = cfg_for(kind, 8)
    half_split = kind == HALF_SPLIT
    positions = [7, 0, 3]
    cos, sin = cfg.angle_tables(positions)
    x = rng.normal(size=(3, 3 * 8))
    heads = [x[:, h * 8:(h + 1) * 8] for h in range(3)]
    expected = np.hstack([rotate(h, positions, cfg) for h in heads])
    # one angle row for all heads, and one per head from the cached full index
    # and from an equal one built by hand
    np.testing.assert_array_equal(
        rotate_pairs(x, cos[:, None], sin[:, None], half_split), expected)
    for full in (cfg.scheme.full, RetainedIndex(tuple(range(4)), cfg.scheme)):
        ids = np.array([full.pairs] * 3)
        np.testing.assert_array_equal(
            rotate_pairs(x, cos[:, ids], sin[:, ids], half_split), expected)
    # and the closed form: head h's pair p turns columns h*8 + (a, b) by angle p
    oracle = x.copy()
    for h in range(3):
        for p, (a, b) in enumerate(scheme_pairs(cfg.scheme)):
            xa, xb = x[:, h * 8 + a], x[:, h * 8 + b]
            oracle[:, h * 8 + a] = xa * cos[:, p] - xb * sin[:, p]
            oracle[:, h * 8 + b] = xa * sin[:, p] + xb * cos[:, p]
    np.testing.assert_array_equal(expected, oracle)
    # retained heads: K groups of G heads, a group's heads turn by its pairs
    retained = [RetainedIndex(p, cfg.scheme) for p in ((0, 3), (1, 2), (0, 3))]
    ids = np.array([r.pairs for r in retained])
    for group in (1, 2):
        x = rng.normal(size=(3, 3 * group * 4))
        heads = [x[:, h * 4:(h + 1) * 4] for h in range(3 * group)]
        np.testing.assert_array_equal(
            rotate_pairs(x, cos[:, ids], sin[:, ids], half_split),
            np.hstack([rotate_indexed(h, positions, cfg, retained[i // group])
                       for i, h in enumerate(heads)]))
    # a width that is not K groups of whole heads, or a row count that is not
    # the angle table's, is refused
    for width, angles in ((14, ids), (10, None), (12, ids[:2])):
        with pytest.raises(ValueError, match="cannot rotate"):
            rotate_pairs(np.ones((3, width)), cos[:, angles], sin[:, angles], half_split)
    with pytest.raises(ValueError, match="cannot rotate"):
        rotate_pairs(np.ones((2, 12)), cos[:, ids], sin[:, ids], half_split)


def test_rotation_args_hashes_no_pair_tuple():
    """Indices hash and compare by their pairs and scheme, as the frozen
    dataclass defines it."""
    cfg = cfg_for(ADJACENT, 8)
    retained = RetainedIndex((0, 2), cfg.scheme)
    assert retained == RetainedIndex((0, 2), cfg.scheme)
    assert hash(retained) == hash(RetainedIndex((0, 2), cfg.scheme))
    assert retained != RetainedIndex((0, 3), cfg.scheme)


def test_retained_out_of_range():
    cfg = cfg_for(ADJACENT, 8)
    with pytest.raises(ValueError):
        RetainedIndex((0, 4), cfg.scheme)
    retained = RetainedIndex((0, 1), cfg.scheme)
    with pytest.raises(ValueError):
        rotate_indexed(np.ones((2, 6)), [0, 1], cfg, retained)


# -- properties ------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 8), st.sampled_from([ADJACENT, HALF_SPLIT]),
       st.integers(0, 5000), st.integers(0, 10 ** 6))
def test_norm_preservation(half_pairs, kind, position, seed):
    d = 2 * half_pairs
    cfg = cfg_for(kind, d)
    x = np.random.default_rng(seed).normal(size=(3, d))
    out = rotate(x, [position] * 3, cfg)
    np.testing.assert_allclose(np.linalg.norm(out, axis=1),
                               np.linalg.norm(x, axis=1), rtol=0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([ADJACENT, HALF_SPLIT]), st.integers(0, 10 ** 6),
       st.integers(1, 8))
def test_selection_commutes_with_rotation(kind, seed, m_raw):
    """gather(rotate(x)) == rotate_indexed(gather(x)) for any retained set."""
    d = 16
    cfg = cfg_for(kind, d)
    rng = np.random.default_rng(seed)
    m = min(m_raw, d // 2)
    pairs = tuple(sorted(rng.choice(d // 2, size=m, replace=False).tolist()))
    retained = RetainedIndex(pairs, cfg.scheme)
    x = rng.normal(size=(4, d))
    positions = rng.integers(0, 4096, size=4).tolist()
    lhs = rotate(x, positions, cfg)[:, retained.rap_index]
    rhs = rotate_indexed(x[:, retained.rap_index], positions, cfg, retained)
    np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([ADJACENT, HALF_SPLIT]), st.integers(0, 2000),
       st.integers(0, 2000), st.integers(0, 10 ** 6))
def test_rotation_composition(kind, pos_a, pos_b, seed):
    cfg = cfg_for(kind, 8)
    x = np.random.default_rng(seed).normal(size=(2, 8))
    two_step = rotate(rotate(x, [pos_a] * 2, cfg), [pos_b] * 2, cfg)
    one_step = rotate(x, [pos_a + pos_b] * 2, cfg)
    np.testing.assert_allclose(two_step, one_step, rtol=0, atol=1e-12)
