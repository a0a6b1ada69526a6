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

Every input file is checked by :func:`check` against a table of its
fields beside the code that writes it. The checker sits here, in the lowest
module whose classes hold file fields (``ROPE_FIELDS``).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .numcore import rotate_pairs

ADJACENT = "adjacent"
HALF_SPLIT = "half_split"


# -- input fields ----------------------------------------------------------------


def within(x, interval: str) -> bool:
    """Whether ``x`` lies in ``interval``, written like "[0, 1)": a round
    bracket leaves its end out, and an end may be inf."""
    lo, hi = map(float, interval[1:-1].split(","))
    return ((lo < x if interval[0] == "(" else lo <= x)
            and (x < hi if interval[-1] == ")" else x <= hi))


# each JSON kind by the type a rule names it with; a number is finite, an int
# counts as one and a bool only as a boolean
_JSON_KINDS = {str: ("a string", str), int: ("an integer", int),
               float: ("a finite number", (int, float)), dict: ("an object", dict),
               list: ("a list", (list, tuple)), bool: ("a boolean", bool)}


def _collect(name: str, value, rule, errors: list) -> None:
    """Append to ``errors`` a message for each field of ``value`` that breaks
    ``rule``, named by its path from ``name``. A rule is a JSON kind, a pair
    (kind, range) whose range is an interval (see :func:`within`) or a tuple
    of choices, a list ``[rule]`` of items of one rule, or a table: a dict of
    field -> rule for an object that holds each of its fields, unless the
    name ends in ``?``, and no other."""
    kind, allowed = ((dict, rule) if isinstance(rule, dict) else
                     (list, rule[0]) if isinstance(rule, list) else
                     rule if isinstance(rule, tuple) else (rule, None))
    label, accepted = _JSON_KINDS[kind]
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted) or (
            kind is float and not abs(value) <= sys.float_info.max):
        errors.append(f"{name} must be {label}, got {value!r}")
    elif kind is dict and allowed is not None:
        prefix = f"{name}." if name else ""
        keys = {key.rstrip("?"): key for key in allowed}
        for field, key in keys.items():
            if field in value:
                _collect(prefix + field, value[field], allowed[key], errors)
            elif not key.endswith("?"):
                errors.append(f"{prefix}{field} is missing")
        for field in value:
            if field not in keys:
                errors.append(f"{prefix}{field} is unknown")
    elif kind is list and allowed is not None:
        for i, item in enumerate(value):
            _collect(f"{name}[{i}]", item, allowed, errors)
    elif isinstance(allowed, str) and not within(value, allowed):
        errors.append(f"{name} must be in {allowed}, got {value!r}")
    elif isinstance(allowed, tuple) and value not in allowed:
        errors.append(f"{name} must be one of {allowed}, got {value!r}")


def check(name: str, value, rule) -> None:
    """Raise a ValueError naming each field of ``value`` that breaks ``rule``."""
    errors = []
    _collect(name, value, rule, errors)
    if errors:
        raise ValueError("; ".join(errors))


# the fields of a model spec that a pairing scheme and a rotation config hold
ROPE_FIELDS = {"head_dim": (int, "[2, inf)"), "theta_base": (float, "(0, inf)"),
               "pairing": (str, (ADJACENT, HALF_SPLIT))}


@dataclass(frozen=True)
class PairingScheme:
    """How the columns of a head are grouped into rotation pairs."""

    kind: str
    head_dim: int

    def __post_init__(self):
        check("pairing", self.kind, ROPE_FIELDS["pairing"])
        check("head_dim", self.head_dim, ROPE_FIELDS["head_dim"])
        if self.head_dim % 2 != 0:
            raise ValueError(f"head_dim must be even, got {self.head_dim}")

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
        check("theta_base", self.theta_base, ROPE_FIELDS["theta_base"])

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
        ids = f"[0, {self.scheme.num_pairs})"
        if not ps or any(b <= a for a, b in zip(ps, ps[1:])) or not (
                within(ps[0], ids) and within(ps[-1], ids)):
            raise ValueError("retained pair ids must be one or more, strictly increasing, "
                             f"in {ids}, got {list(ps)}")

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
