"""Rotary position embeddings with pair bookkeeping for pruned heads.

Two pairing conventions are supported: ``adjacent`` couples columns
(2x, 2x+1) and ``half_split`` couples (x, x + D/2), both 0-based. Pair ``j``
rotates by angle ``position * theta_base ** (-2j / D)``.

For a compressed representation that keeps a subset of pairs, the retained
columns appear in original column order, which preserves the pairing layout at
the smaller width. ``rotate_indexed`` rotates such a representation using the
frequencies of the ORIGINAL pair indices, which is what makes pair-aligned
pruning commute with the rotation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numcore import rotate_pairs

ADJACENT = "adjacent"
HALF_SPLIT = "half_split"


@dataclass(frozen=True)
class PairingScheme:
    """How the columns of a head are grouped into rotation pairs."""

    kind: str
    head_dim: int

    def __post_init__(self):
        if self.kind not in (ADJACENT, HALF_SPLIT):
            raise ValueError(f"unknown pairing kind {self.kind!r}")
        if self.head_dim <= 0 or self.head_dim % 2 != 0:
            raise ValueError("head_dim must be a positive even number")

    @property
    def num_pairs(self) -> int:
        return self.head_dim // 2

    def pair_columns(self, pair: int, width: int | None = None) -> tuple[int, int]:
        """Columns coupled by rotation block ``pair`` at the given width.

        ``width`` defaults to the full head dimension; a smaller even width
        describes the layout of a compressed (retained-columns) matrix.
        """
        width = self.head_dim if width is None else width
        if width % 2 != 0:
            raise ValueError("pair layout requires an even width")
        n = width // 2
        if not 0 <= pair < n:
            raise ValueError(f"pair {pair} out of range for width {width}")
        if self.kind == ADJACENT:
            return 2 * pair, 2 * pair + 1
        return pair, pair + n

    def column_arrays(self, width: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """(first, second) column index arrays for all pairs at ``width``."""
        width = self.head_dim if width is None else width
        if width % 2 != 0:
            raise ValueError("pair layout requires an even width")
        if self.kind == ADJACENT:
            return (np.arange(0, width, 2, dtype=np.intp),
                    np.arange(1, width, 2, dtype=np.intp))
        first = np.arange(width // 2, dtype=np.intp)
        return first, first + width // 2

    def pairs(self) -> list[tuple[int, int]]:
        return [self.pair_columns(p) for p in range(self.num_pairs)]


@dataclass(frozen=True)
class RopeConfig:
    """Rotation frequencies for one head dimension."""

    theta_base: float
    scheme: PairingScheme

    def __post_init__(self):
        try:
            theta = float(self.theta_base)
        except OverflowError:  # an integer beyond float range
            theta = math.inf
        if not 0 < theta < math.inf:
            raise ValueError(f"theta_base must be finite and positive, got {theta!r}")

    @property
    def head_dim(self) -> int:
        return self.scheme.head_dim

    def frequencies(self) -> np.ndarray:
        """theta_j = theta_base ** (-2j / D) for pair index j in [0, D/2)."""
        d = self.scheme.head_dim
        j = np.arange(d // 2, dtype=np.float64)
        return np.power(self.theta_base, -2.0 * j / d)

    def angle_tables(self, positions) -> tuple[np.ndarray, np.ndarray]:
        """cos/sin tables of shape (len(positions), D/2), one column per pair."""
        pos = np.asarray(positions, dtype=np.float64).reshape(-1, 1)
        ang = pos * self.frequencies()[None, :]
        return np.cos(ang), np.sin(ang)


@dataclass(frozen=True)
class RetainedIndex:
    """Strictly increasing original pair ids kept for one head."""

    pairs: tuple[int, ...]
    scheme: PairingScheme

    def __post_init__(self):
        ps = self.pairs
        if len(ps) == 0:
            raise ValueError("at least one retained pair is required")
        if any(b <= a for a, b in zip(ps, ps[1:])):
            raise ValueError("retained pair ids must be strictly increasing")
        if ps[0] < 0 or ps[-1] >= self.scheme.num_pairs:
            raise ValueError("retained pair id out of range")

    def __len__(self) -> int:
        return len(self.pairs)

    @property
    def rap_index(self) -> list[int]:
        """Original column indices of the retained columns, in original order."""
        cols = []
        for p in self.pairs:
            cols.extend(self.scheme.pair_columns(p))
        return sorted(cols)

    def expansion_matrix(self) -> np.ndarray:
        """Dense 0/1 expansion B (2m x D): B[i, rap_index[i]] = 1.

        Only meant for tests and verification; pipelines keep the index form.
        """
        idx = self.rap_index
        b = np.zeros((len(idx), self.scheme.head_dim))
        b[np.arange(len(idx)), idx] = 1.0
        return b


def rotation_args(cfg: RopeConfig, cos: np.ndarray, sin: np.ndarray,
                  heads: int | list[RetainedIndex]) -> tuple:
    """``(cos, sin, first, second)`` for :func:`numcore.rotate_pairs` over
    heads laid side by side.

    ``cos``/``sin`` hold one column per original pair. ``heads`` is a count
    of full heads, or one :class:`RetainedIndex` per head: such a head holds
    only its pairs (width 2m, original column order), and each keeps the
    angle column of its ORIGINAL pair id. Retained heads keep equal counts.
    """
    if isinstance(heads, int):
        if heads == 1:
            return (cos, sin) + cfg.scheme.column_arrays()
        keep, count = np.tile(np.arange(cfg.scheme.num_pairs), heads), heads
    else:
        if len({len(r) for r in heads}) != 1:
            raise ValueError("retained heads must keep equal pair counts")
        keep, count = np.concatenate([r.pairs for r in heads]), len(heads)
    width = 2 * keep.size // count
    first, second = cfg.scheme.column_arrays(width)
    offsets = width * np.arange(count)[:, None]
    return (cos[:, keep], sin[:, keep], (first + offsets).ravel(),
            (second + offsets).ravel())


def _rotate(x, positions, cfg: RopeConfig, retained: RetainedIndex | None) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    width = cfg.head_dim if retained is None else 2 * len(retained)
    if x.shape[1] != width:
        raise ValueError(f"expected {width} columns, got {x.shape[1]}")
    if len(positions) != x.shape[0]:
        raise ValueError("one position per row required")
    cos, sin = cfg.angle_tables(positions)
    heads = 1 if retained is None else [retained]
    return rotate_pairs(x, *rotation_args(cfg, cos, sin, heads))


def rotate(x, positions, cfg: RopeConfig) -> np.ndarray:
    """Rotate every pair of each row by its position-dependent angle."""
    return _rotate(x, positions, cfg, None)


def rotate_indexed(x, positions, cfg: RopeConfig, retained: RetainedIndex) -> np.ndarray:
    """Rotate a retained-pairs representation with its original frequencies."""
    return _rotate(x, positions, cfg, retained)
