"""Rotary position embeddings with pair bookkeeping for pruned heads.

Two pairing conventions are supported: at an even width W, ``adjacent``
couples columns (2x, 2x+1) and ``half_split`` couples (x, x + W/2), both
0-based. Pair ``j`` rotates by angle ``position * theta_base ** (-2j / D)``.

A head is described by a :class:`RetainedIndex`, the original pair ids it
keeps (:attr:`PairingScheme.full` keeps them all). Its columns appear in
original column order, which preserves the pairing layout at the smaller
width 2m. So a rotation needs no column index: :func:`numcore.rotate_pairs`
turns the columns (2x, 2x+1) of adjacent pairs as one complex number, with
the real formula's roundings, and half-split pairs as strided views of one
reshape, with the angle columns of each head's ORIGINAL pair ids, which is
what makes pair-aligned pruning commute with the rotation. ``rotate_indexed``
does this for one head. :meth:`PairingScheme.column_arrays` is the only code that turns
pair ids into columns, for ``RetainedIndex.rap_index`` and pair scores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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

    def column_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(first, second) column index arrays of every pair of a full head."""
        if self.kind == ADJACENT:
            return (np.arange(0, self.head_dim, 2, dtype=np.intp),
                    np.arange(1, self.head_dim, 2, dtype=np.intp))
        first = np.arange(self.num_pairs, dtype=np.intp)
        return first, first + self.num_pairs

    @cached_property
    def full(self) -> "RetainedIndex":
        """The index of a head that keeps every pair."""
        return RetainedIndex(tuple(range(self.num_pairs)), self)


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
        first, second = self.scheme.column_arrays()
        ids = list(self.pairs)
        return sorted(first[ids].tolist() + second[ids].tolist())

    def expansion_matrix(self) -> np.ndarray:
        """Dense 0/1 expansion B (2m x D): B[i, rap_index[i]] = 1.

        Only meant for tests and verification; pipelines keep the index form.
        """
        idx = self.rap_index
        b = np.zeros((len(idx), self.scheme.head_dim))
        b[np.arange(len(idx)), idx] = 1.0
        return b


def rotate_indexed(x, positions, cfg: RopeConfig, retained: RetainedIndex) -> np.ndarray:
    """Rotate a retained-pairs representation with its original frequencies."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[1] != 2 * len(retained):
        raise ValueError(f"expected {2 * len(retained)} columns, got {x.shape[1]}")
    if len(positions) != x.shape[0]:
        raise ValueError("one position per row required")
    cos, sin = cfg.angle_tables(positions)
    ids = list(retained.pairs)
    return rotate_pairs(x, cos[:, None, ids], sin[:, None, ids],
                        cfg.scheme.kind == HALF_SPLIT)


def rotate(x, positions, cfg: RopeConfig) -> np.ndarray:
    """Rotate every pair of each row by its position-dependent angle."""
    return rotate_indexed(x, positions, cfg, cfg.scheme.full)
