import json

import numpy as np
import pytest
from hypothesis import strategies as st

from rapkit.rope import PairingScheme, RopeConfig
from rapkit.toymodel import AttentionLayer, AttentionModel, LinearMap, ModelSpec

# The rap method as a parametrize case. Its test id stays "rap-hybrid", the
# method's earlier name, so every parametrized test keeps the id it is tracked
# under.
RAP_CASE = pytest.param("rap", id="rap-hybrid")


def make_spec(layers=2, query_heads=4, kv_heads=2, head_dim=8, vocab=64,
              pairing="adjacent", theta_base=10000.0, seed=42) -> ModelSpec:
    scheme = PairingScheme(pairing, head_dim)
    return ModelSpec(layers=layers, query_heads=query_heads, kv_heads=kv_heads,
                     head_dim=head_dim, vocab=vocab,
                     rope=RopeConfig(theta_base=theta_base, scheme=scheme),
                     seed=seed)


def tiny_spec(seed=0, pairing="adjacent") -> ModelSpec:
    """Smallest interesting model: dim 4, one layer, 2 heads of dim 2."""
    return make_spec(layers=1, query_heads=2, kv_heads=1, head_dim=2, vocab=8,
                     pairing=pairing, seed=seed)


def identity_model(head_dim=4, vocab=6, seed=3) -> AttentionModel:
    """Single head, single layer, all four projections equal to the identity."""
    spec = make_spec(layers=1, query_heads=1, kv_heads=1, head_dim=head_dim,
                     vocab=vocab, seed=seed)
    eye = np.eye(spec.model_dim)
    rng = np.random.default_rng(seed)
    embedding = rng.normal(size=(vocab, spec.model_dim))
    layer = AttentionLayer(LinearMap(eye), LinearMap(eye), LinearMap(eye),
                           LinearMap(eye))
    return AttentionModel(spec, embedding, [layer])


def pair_columns(kind: str, pair: int, width: int) -> tuple[int, int]:
    """The two columns rotation pair ``pair`` couples at an even ``width``.

    The closed form of the rope module docstring, written out independently of
    ``PairingScheme.column_arrays``: adjacent (2p, 2p+1), half_split
    (p, p + width/2).
    """
    return (2 * pair, 2 * pair + 1) if kind == "adjacent" else (pair, pair + width // 2)


def scheme_pairs(scheme: PairingScheme) -> list[tuple[int, int]]:
    """``pair_columns`` of every pair of a full-width head, in pair order."""
    return [pair_columns(scheme.kind, p, scheme.head_dim) for p in range(scheme.num_pairs)]


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def finite_difference(f, arrays: dict, wrt: str, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of ``f(arrays) -> float`` w.r.t. one array.

    This is the independent gradient oracle: it only ever calls the scalar
    function, never the tape's backward pass.
    """
    x = arrays[wrt]
    g = np.zeros_like(x)
    for idx in np.ndindex(*x.shape):
        orig = x[idx]
        x[idx] = orig + h
        fp = f(arrays)
        x[idx] = orig - h
        fm = f(arrays)
        x[idx] = orig
        g[idx] = (fp - fm) / (2.0 * h)
    return g


# any value json.loads can return, NaN and the infinities included
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=12)


def _paths(node, prefix=()):
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


# integers a count field must refuse: beyond a float, beyond a C long, and negative
EXTREME_INTEGERS = st.sampled_from([10 ** 30, 2 ** 63]) | st.integers(max_value=-1)


@st.composite
def damaged(draw, document):
    """``document`` with one field, at any depth, dropped or set to any JSON
    value; an integer field gets an :data:`EXTREME_INTEGERS` value about half
    the time."""
    document = json.loads(json.dumps(document))
    path = draw(st.sampled_from(list(_paths(document))))
    parent = document
    for key in path[:-1]:
        parent = parent[key]
    old = parent[path[-1]]
    if isinstance(parent, dict) and draw(st.booleans()):
        del parent[path[-1]]
    elif isinstance(old, int) and not isinstance(old, bool):
        parent[path[-1]] = draw(EXTREME_INTEGERS | JSON_VALUES)
    else:
        parent[path[-1]] = draw(JSON_VALUES)
    return document
