"""Dense float64 arrays and a small tape-based reverse-mode autodiff core.

Values are ``numpy.float64`` matrices, or stacks of matrices with leading
batch axes: a primitive works on the last two axes and broadcasts over the
rest. A :class:`Tape` records a fixed set of primitives so that the gradient
of any recorded scalar with respect to any registered leaf can be replayed:
matmul, a low-rank adapted matmul, add, scale, elementwise multiply,
transpose, swapaxes, reshape, row slices, row gathers, row softmax and
log-softmax, attention in query blocks, paired rotation, row appends, cross
entropy and sum. Every matmul run on a tape adds
``2 * batch * rows * cols * inner`` to the tape's FLOPs counter, broken down
by an optional tag, so the counter holds only the matmuls that ran; the one
node of an adapted matmul counts its three, an attention node its score and
value matmuls.

Most primitives return a fresh C-contiguous array. The exceptions are views:
a transpose swaps the last two axes (so a matmul hands BLAS the transpose
flag instead of copying), and so does a swapaxes of any two; a row slice (a
view BLAS reads in place), a reshape where numpy can make one, and a row
append (the cached rows of a buffer). An attention node writes each
block's softmax over its scores, and a matmul, adapted or not, can rotate
its product over itself in the same node; a plain one forms and turns it in
row tiles of ``ROTATE_ROWS`` rows, each turned while it is still in cache.

The rotation kernel :func:`turn_pairs` gathers no column and builds no
table: it reads angle tables in the form :func:`pair_tables` gives, which a
caller such as a KV cache builds once per position. Adjacent pairs turn as
complex numbers with the real formula's bits, half-split pairs as strided
views of one reshape. :func:`rotate_pairs` and :meth:`Tape.rotate_pairs`
take plain cos/sin tables and build that form for their one call.

In the backward pass a row slice adds its gradient into its part of one zero
buffer per sliced node, which the pass owns; it does not build a full-size
gradient for every slice.

A non-recording tape (``Tape(record=False)``) runs the same primitives to the
same values bit for bit and counts the same FLOPs, but keeps nothing: no
node, no parent, no backward closure. Inference runs on it, so a forward pass
that needs no gradient holds no intermediate past its last use.

Where the process may run on two CPUs, a large forward matmul
(:data:`SPLIT_MADDS`), a one-row matmul over a large weight
(:data:`SPLIT_WEIGHTS`) and an attention over many scores
(:data:`SPLIT_SCORES`) split between the calling thread and one worker
thread, started on first use. Each half (a stack's batch half, a matrix's
row half, a row's column half, half of the kv heads) writes its own slice of
one output, the worker's in a copy of the caller's context, where numpy's
error state lives. The caller returns, or raises, only once both halves are
done, and only the caller records; a row split by columns turns, if it
rotates, in the caller once joined.

All reductions run in numpy's deterministic single-threaded order. Each half
of a split primitive still runs single-threaded, in the same order, so
repeated runs over the same inputs, split or not, are bitwise reproducible.
"""

from __future__ import annotations

import contextvars
import os
from concurrent import futures
from typing import Callable, Iterable, Sequence

import numpy as np

Matrix = np.ndarray


def as_matrix(values, rows: int | None = None, cols: int | None = None) -> Matrix:
    """Coerce ``values`` to a 2-D float64 matrix, optionally checking its shape."""
    m = np.ascontiguousarray(np.asarray(values, dtype=np.float64))
    if m.ndim == 1:
        m = m.reshape(1, -1)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if rows is not None and m.shape[0] != rows:
        raise ValueError(f"expected {rows} rows, got {m.shape[0]}")
    if cols is not None and m.shape[1] != cols:
        raise ValueError(f"expected {cols} cols, got {m.shape[1]}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def softmax_rows(z: Matrix) -> Matrix:
    e = np.exp(z - np.max(z, axis=1, keepdims=True))
    return e / np.sum(e, axis=1, keepdims=True)


def log_softmax_rows(z: Matrix) -> Matrix:
    z = z - np.max(z, axis=1, keepdims=True)
    return z - np.log(np.sum(np.exp(z), axis=1, keepdims=True))


# rows of a rotated product that one tile forms and turns: a (4, 256, 64)
# tile of rebuilt keys and its complex temporary take 1 MiB, so the tile is
# still in a 2 MiB L2 when it turns
ROTATE_ROWS = 256

# multiply-adds (out.size * inner) from which a product splits between two
# threads. A half then takes at least 0.4 * 2**23, well above the ~10**6
# under which OpenBLAS runs its small-matrix kernel, which rounds differently
# (a (256, 768) @ (768, 32) value product in 32-row parts changed 7565 of its
# 8192 entries, in 64-row parts none). An empty hand-off to the worker costs
# 44-60 µs back to back and 110-115 µs after 1 ms idle (medians of 2000),
# and more from a decode step: split at 2**22, the svd and palu
# rebuilds of 785 cached keys and values (4 * 785 * 64 * 32 multiply-adds)
# made those steps 6-8% slower, so they stay whole
SPLIT_MADDS = 2 ** 23
# float64s (8 MiB) of the weight of a one-row product, a decode step's
# matrix-vector product, from which it splits into two column halves. Such a
# product streams its weight once, and its hand-off does not pay below 8 MiB:
# over 12 weights 1024 deep in turn (1 BLAS thread, medians of 360 calls),
# 8 MiB split took 0.71-0.87 of its whole time, 4 MiB 1.7-1.9 times it
SPLIT_WEIGHTS = 2 ** 20
# scores of an attention from which each kv head runs its blocks in turn,
# a block's scores (at most 1.5 MiB) still in a 2 MiB L2 for its softmax and
# value matmul, the kv heads in halves on two threads: a 768-token medium rap
# layer took 20-25 ms, not 30-37 ms in 6 MiB stacked blocks (medians of 30,
# 1 BLAS thread; 26-32 and 39-46 ms 64 wide, 39-43 and 45-57 ms on one CPU).
# Decode steps (4 * 4 * 785 scores) and desk passes run each block stacked
SPLIT_SCORES = 2 ** 16

# the worker: ThreadPoolExecutor starts its thread on the first submit, so
# a process that never splits starts none
_pool = futures.ThreadPoolExecutor(max_workers=1, thread_name_prefix="numcore")


def _cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _in_parts(run: Callable, parts: list[tuple]) -> None:
    """``run(*part)`` for each of one or two parts: the first here, the
    second on the worker thread, in a copy of this thread's context, which
    holds numpy's error state (a context variable from numpy 2.0 on).

    Returns once both have run. An error of this thread's part is raised
    after the worker's part is done, and else the worker's error.
    """
    if len(parts) == 1:
        run(*parts[0])
        return
    theirs = _pool.submit(contextvars.copy_context().run, run, *parts[1])
    try:
        run(*parts[0])
    finally:
        futures.wait((theirs,))
    theirs.result()


def _product(a: Matrix, b: Matrix, out: Matrix, rotate: tuple | None) -> None:
    """``out[...] = a @ b``, turned by ``rotate`` in row tiles of
    ``ROTATE_ROWS`` rows, the last tile taking the rest."""
    if rotate is None:
        np.matmul(a, b, out=out)
        return
    c, s, half_split = rotate
    rows = out.shape[-2]
    starts = range(0, max(rows - ROTATE_ROWS, 0) + 1, ROTATE_ROWS)
    for r0, r1 in zip(starts, [*starts[1:], rows]):
        tile = out[..., r0:r1, :]
        np.matmul(a[..., r0:r1, :], b, out=tile)
        turn_pairs(tile, (c[r0:r1], s[r0:r1], half_split), overwrite=True)


def _product_parts(a: Matrix, b: Matrix, out: Matrix, rotate: tuple | None) -> list[tuple]:
    """The arguments of :func:`_product` for ``out``, whole or in two halves.

    A product of at least ``SPLIT_MADDS`` multiply-adds splits on two CPUs.
    A stack splits its leading batch axis: numpy calls BLAS once per matrix
    either way, so every call stays as it is. A matrix splits its rows in
    half, each half at least 2 rows (numpy and OpenBLAS run a one-row product
    as a matrix-vector one), with the angle rows of a ``rotate``. A half
    tiles its own rows, so tiles may move; a rotated product whose tiles are
    under half the split size, near enough the small-matrix kernel's sizes,
    stays whole, so that every tile stays as it is.

    A one-row matrix product whose weight holds at least ``SPLIT_WEIGHTS``
    floats splits its columns instead, at a multiple of 8, and its halves
    carry no ``rotate``: the caller turns the joined row. A split at a column
    that is not a multiple of 4 changed the bits of up to 4 of 1024 outputs.
    """
    whole = [(a, b, out, rotate)]
    rows, inner = out.shape[0], a.shape[-1]
    if out.ndim == 2 and rows == 1:
        if b.size < SPLIT_WEIGHTS or _cpus() < 2:
            return whole
        h = out.shape[1] // 16 * 8
        return [(a, b[:, p], out[:, p], None) for p in (np.s_[:h], np.s_[h:])]
    if out.size * inner < SPLIT_MADDS or rows < 2 or _cpus() < 2:
        return whole
    h = rows // 2
    if out.ndim > 2:
        return [(a[p], b[p], out[p], rotate) for p in (np.s_[:h], np.s_[h:])]
    if rows < 4 or (rotate is not None and ROTATE_ROWS * out.shape[1] * inner < SPLIT_MADDS // 2):
        return whole   # a product of such tiles has at least two
    return [(a[p], b, out[p], None if rotate is None else (rotate[0][p], rotate[1][p], rotate[2]))
            for p in (np.s_[:h], np.s_[h:])]


def _softmax(out: Matrix, scale: float, mask: np.ndarray | None) -> None:
    """``out`` becomes the softmax over its last axis of ``scale * out + mask``:
    (n, c) mask row i covers rows [i·G, (i+1)·G) and their last c columns."""
    np.multiply(out, scale, out=out)
    if mask is not None:
        n, c = mask.shape
        stacked = out.reshape(out.shape[:-2] + (n, -1, out.shape[-1]))  # a view
        stacked[..., out.shape[-1] - c:] += mask[:, None, :]
    out -= np.max(out, axis=-1, keepdims=True)
    np.exp(out, out=out)
    out /= np.sum(out, axis=-1, keepdims=True)


def _attend(q: Matrix, k: Matrix, v: Matrix, out: Matrix, probs: list | None, scale: float,
            spans: list[tuple], heads: list[slice]) -> None:
    """Each block's scores, softmax (into ``probs`` if given) and value
    product into ``out``, for each slice of kv heads in ``heads`` in turn."""
    for h in heads:
        for b, (rows, keys, mask) in enumerate(spans):
            s = np.matmul(q[h][rows], k[h, :keys].swapaxes(-1, -2),
                          out=None if probs is None else probs[b][h])
            _softmax(s, scale, mask)
            np.matmul(s, v[h, :keys], out=out[h][rows])


def pair_tables(cos: np.ndarray, sin: np.ndarray, half_split: bool) -> tuple:
    """``(c, s, half_split)``: (rows, K, m) angle tables in the form
    :func:`turn_pairs` reads, the ``rotate`` of :meth:`Tape.matmul`.

    Half-split pairs keep ``cos`` and ``sin``. Adjacent pairs get ``cos``
    over both columns of each pair, (rows, K, 2m), and the complex
    −0 + i·``sin``. Tables sliced or gathered by rows stay in this form, so a
    cache writes each position's row once.
    """
    if half_split:
        return cos, sin, True
    turn = np.empty(sin.shape, np.complex128)
    turn.real, turn.imag = -0.0, sin
    return np.repeat(cos, 2, axis=-1), turn, False


def _reversed(rotate: tuple) -> tuple:
    """The :func:`pair_tables` of the negated angles, which turn a gradient back."""
    c, s, half_split = rotate
    return c, -s if half_split else np.conj(s), half_split


def turn_pairs(x: Matrix, rotate: tuple, overwrite: bool = False) -> Matrix:
    """Apply independent 2x2 rotations to the column pairs of each row.

    ``x`` is (..., rows, width) and ``rotate`` is the :func:`pair_tables` of
    (rows, K, m) angle tables. The columns of ``x`` are K equal groups of
    heads, each head m pairs wide, and every head of group k turns its pair
    j by the angle of ``cos[:, k, j]``: pair (a, b) becomes
    (a·cos − b·sin, a·sin + b·cos).

    Half-split pairs (j, j+m) turn on strided views of one reshape. Adjacent
    pairs (2j, 2j+1) turn as complex numbers z = a + ib: ``x * cos`` (each
    angle over both columns of its pair) plus ``z * (−0 + i·sin)``, two
    contiguous passes and an add for six strided ones. That product's parts
    a·(−0) − b·sin and a·sin + b·(−0) are −(b·sin) and a·sin rounded once,
    since a zero added to a nonzero product leaves it as it is, and the add
    rounds once more, as the real formula does. For finite inputs the bits
    are the formula's, except that an exact zero can take the other sign
    when an input is −0 or a product underflows. (One multiply by
    cos + i·sin rounds its cross terms: it differs by up to 8.9e-16.)

    Without ``overwrite`` the result is a fresh C-contiguous array. With it,
    the pairs turn over ``x``, a float64 array with contiguous rows that
    nothing else reads, such as a tile of a matmul's fresh output.
    """
    c, s, half_split = rotate
    n, groups, pairs = s.shape
    if x.shape[-2] != n or x.shape[-1] % (2 * groups * pairs):
        raise ValueError(f"cannot rotate {x.shape} as {groups} groups of heads "
                         f"with {pairs} pairs for {n} rows")
    if not overwrite:
        x = np.array(x, dtype=np.float64, order="C")
    c, s = c[:, :, None], s[:, :, None]   # broadcast over a group's heads
    if half_split:
        # x as (..., rows, K, heads, 2, m): [..., 0, :] and [..., 1, :] pick
        # each pair's first and second column
        xs = x.reshape(x.shape[:-1] + (groups, -1, 2, pairs))
        a, b = xs[..., 0, :], xs[..., 1, :]
        first = a * c - b * s
        np.add(a * s, b * c, out=b)
        a[...] = first
        return x
    xs = x.reshape(x.shape[:-1] + (groups, -1, 2 * pairs))   # (..., rows, K, heads, 2m)
    turned = xs.view(np.complex128) * s
    xs *= c
    z = xs.view(np.complex128)
    z += turned
    return x


def rotate_pairs(x: Matrix, cos: np.ndarray, sin: np.ndarray, half_split: bool) -> Matrix:
    """:func:`turn_pairs` of a fresh copy of ``x`` by plain (rows, K, m)
    cos/sin tables, whose kernel form it builds for this one call."""
    return turn_pairs(x, pair_tables(cos, sin, half_split))


class Node:
    """One recorded value on a tape."""

    __slots__ = ("idx", "value", "parents", "backward", "grad_enabled", "name")

    def __init__(self, idx, value, parents=(), backward=None, grad_enabled=True, name=None):
        self.idx = idx
        self.value = value
        self.parents = parents
        self.backward = backward
        self.grad_enabled = grad_enabled
        self.name = name

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Node(idx={self.idx}, shape={self.value.shape}, name={self.name})"


class Tape:
    """Single-writer record of primitive operations.

    Leaves registered through :meth:`leaf` are deduplicated by name, so a
    weight used twice in one pass (e.g. a tied embedding) accumulates gradient
    from both uses into a single node.

    With ``record=False`` the tape only counts FLOPs: ``nodes`` and ``leaves``
    stay empty and every primitive returns an unrecorded node (``idx`` -1).
    :meth:`leaf` takes a float64 array of any shape as it is and coerces
    anything else with :func:`as_matrix`: model weights are checked when a
    model is built or loaded, and training checks every update.
    """

    def __init__(self, record: bool = True):
        self.record = record
        self.nodes: list[Node] = []
        self.leaves: dict[str, Node] = {}
        self.flops: int = 0
        self.flops_by_tag: dict[str, int] = {}

    # -- node creation -----------------------------------------------------

    def _record(self, value, parents=(), backward=None, grad_enabled=True, name=None) -> Node:
        if not self.record:
            return Node(-1, value, name=name)
        node = Node(len(self.nodes), value, tuple(parents), backward, grad_enabled, name)
        self.nodes.append(node)
        return node

    def leaf(self, value, name: str) -> Node:
        """Register (or fetch) a differentiable input by name."""
        if not self.record:
            return Node(-1, value, name=name)
        if name in self.leaves:
            existing = self.leaves[name]
            if existing.value is not value and not np.array_equal(existing.value, value):
                raise ValueError(f"leaf {name!r} re-registered with different values")
            return existing
        if not (isinstance(value, np.ndarray) and value.dtype == np.float64):
            value = as_matrix(value)
        node = self._record(value, name=name)
        self.leaves[name] = node
        return node

    def constant(self, value) -> Node:
        """A non-differentiable value (masks, cached rows, teacher logits)."""
        m = np.asarray(value, dtype=np.float64)
        if m.ndim == 1:
            m = m.reshape(1, -1)
        return self._record(m, grad_enabled=False)

    def _count(self, flops: int, tag: str | None):
        self.flops += flops
        if tag is not None:
            self.flops_by_tag[tag] = self.flops_by_tag.get(tag, 0) + flops

    # -- primitives ----------------------------------------------------------

    def matmul(self, a: Node, b: Node, tag: str | None = None,
               rotate: tuple | None = None) -> Node:
        """``a @ b`` for two matrices, or for two stacks of one batch shape.

        ``rotate``, a :func:`pair_tables`, turns the fresh product over itself
        with :func:`turn_pairs`: one node with the value and the gradients of
        :meth:`rotate_pairs` after :meth:`matmul`, bit for bit. The product
        forms and turns in row tiles of ``ROTATE_ROWS`` rows, each turned
        while it is still in cache. The last tile takes the rest of the
        rows: OpenBLAS runs a tile of a few rows through another kernel
        (gemv for one row), whose roundings can differ from the whole
        product's, as they did for a tail of one row, and of 2 or 3 rows of
        a 1024-deep product 256 columns wide.

        A large product, or a one-row product over a large weight, splits
        between two threads (:func:`_product_parts`) to the same bits.
        """
        if a.value.shape[:-2] != b.value.shape[:-2] or a.value.shape[-1] != b.value.shape[-2]:
            raise ValueError(
                f"matmul dimension mismatch: {a.value.shape} @ {b.value.shape}"
            )
        # a one-row product's multiply-adds are its weight's size
        gemv = a.value.ndim == 2 and a.value.shape[0] == 1
        madds = a.value.size * b.value.shape[-1]
        if rotate is None and madds < (SPLIT_WEIGHTS if gemv else SPLIT_MADDS):
            out = np.matmul(a.value, b.value)   # no call around a small product
        else:
            out = np.empty(a.value.shape[:-1] + b.value.shape[-1:])
            parts = _product_parts(a.value, b.value, out, rotate)
            _in_parts(_product, parts)
            if gemv and len(parts) == 2 and rotate is not None:   # column halves, joined
                turn_pairs(out, rotate, overwrite=True)
        self._count(2 * out.size * a.value.shape[-1], tag)

        def backward(g, acc):
            if rotate is not None:
                g = turn_pairs(g, _reversed(rotate))
            acc(a, np.matmul(g, b.value.swapaxes(-1, -2)))
            acc(b, np.matmul(a.value.swapaxes(-1, -2), g))

        return self._record(out, (a, b), backward)

    def adapted_matmul(self, x: Node, w: Node, down: Node, up: Node, scaling: float,
                       mask: np.ndarray | None = None, tag: str | None = None,
                       rotate: tuple | None = None) -> Node:
        """``x @ w + (((x * mask) @ down) @ up) * scaling``: a projection with a
        low-rank adapter, one node for what would be ten.

        Its value, its three matmuls' FLOPs (counted under ``tag``) and every
        gradient are bitwise those of the composition of :meth:`matmul`,
        :meth:`mul`, :meth:`scale` and :meth:`add`: ``x`` gets the adapter
        path's gradient first, then the base one, as that graph's reverse
        order adds them. A ``mask`` (say, a dropout mask) is a constant of
        ``x``'s shape. ``rotate`` turns the sum over itself, as in
        :meth:`matmul`, in one tile.
        """
        if (x.value.shape[-1] != w.value.shape[0] or w.value.shape[0] != down.value.shape[0]
                or down.value.shape[1] != up.value.shape[0]
                or up.value.shape[1] != w.value.shape[1]):
            raise ValueError(f"adapted matmul dimension mismatch: {x.value.shape} @ "
                             f"{w.value.shape} + {down.value.shape} @ {up.value.shape}")
        if mask is not None and mask.shape != x.value.shape:
            raise ValueError(f"mask shape {mask.shape} differs from {x.value.shape}")
        x_in = x.value if mask is None else x.value * mask
        h = np.matmul(x_in, down.value)
        delta = np.matmul(h, up.value)
        delta *= scaling
        out = np.matmul(x.value, w.value)
        out += delta
        if rotate is not None:
            turn_pairs(out, rotate, overwrite=True)
        self._count(2 * (out.size + h.size) * x.value.shape[-1] + 2 * delta.size * h.shape[-1],
                    tag)

        def backward(g, acc):
            if rotate is not None:
                g = turn_pairs(g, _reversed(rotate))
            g_delta = g * scaling
            g_h = np.matmul(g_delta, up.value.swapaxes(-1, -2))
            acc(up, np.matmul(h.swapaxes(-1, -2), g_delta))
            g_in = np.matmul(g_h, down.value.swapaxes(-1, -2))
            acc(down, np.matmul(x_in.swapaxes(-1, -2), g_h))
            acc(x, g_in if mask is None else g_in * mask)
            acc(x, np.matmul(g, w.value.swapaxes(-1, -2)))
            acc(w, np.matmul(x.value.swapaxes(-1, -2), g))

        return self._record(out, (x, w, down, up), backward)

    def add(self, a: Node, b: Node) -> Node:
        if a.value.shape != b.value.shape:
            raise ValueError(f"add shape mismatch: {a.value.shape} vs {b.value.shape}")
        out = a.value + b.value

        def backward(g, acc):
            acc(a, g)
            acc(b, g)

        return self._record(out, (a, b), backward)

    def scale(self, a: Node, c: float) -> Node:
        out = a.value * c

        def backward(g, acc):
            acc(a, g * c)

        return self._record(out, (a,), backward)

    def mul(self, a: Node, b: Node) -> Node:
        if a.value.shape != b.value.shape:
            raise ValueError(f"mul shape mismatch: {a.value.shape} vs {b.value.shape}")
        out = a.value * b.value

        def backward(g, acc):
            acc(a, g * b.value)
            acc(b, g * a.value)

        return self._record(out, (a, b), backward)

    def transpose(self, a: Node) -> Node:
        """The last two axes swapped, a view: a matmul hands BLAS the
        transpose flag instead of copying."""
        return self.swapaxes(a, -1, -2)

    def swapaxes(self, a: Node, i: int, j: int) -> Node:
        """The view ``a.value.swapaxes(i, j)``."""
        def backward(g, acc):
            acc(a, g.swapaxes(i, j))

        return self._record(a.value.swapaxes(i, j), (a,), backward)

    def reshape(self, a: Node, *shape: int) -> Node:
        """``a`` read row-major in ``shape``: a view where numpy can make one,
        else a copy."""
        def backward(g, acc):
            acc(a, g.reshape(a.value.shape))

        return self._record(a.value.reshape(shape), (a,), backward)

    def rows(self, a: Node, lo: int, hi: int) -> Node:
        """The view ``a.value[..., lo:hi, :]`` of rows [lo, hi) of every matrix."""
        if not 0 <= lo <= hi <= a.value.shape[-2]:
            raise ValueError(f"rows [{lo}, {hi}) out of range for {a.value.shape[-2]} rows")
        part = np.s_[..., lo:hi, :]

        def backward(g, acc):
            acc(a, g, part)

        return self._record(a.value[part], (a,), backward)

    def gather_rows(self, a: Node, idx: Sequence[int]) -> Node:
        idx = np.asarray(idx, dtype=np.intp)
        if idx.size and (idx.min() < 0 or idx.max() >= a.value.shape[0]):
            raise ValueError("gather_rows index out of range")
        out = np.ascontiguousarray(a.value[idx, :])

        def backward(g, acc):
            ga = np.zeros_like(a.value)
            np.add.at(ga, (idx, slice(None)), g)
            acc(a, ga)

        return self._record(out, (a,), backward)

    def row_softmax(self, a: Node) -> Node:
        out = softmax_rows(a.value)

        def backward(g, acc):
            dot = np.sum(g * out, axis=1, keepdims=True)
            acc(a, out * (g - dot))

        return self._record(out, (a,), backward)

    def attention(self, queries: Node, keys: Node, values: Node, scale: float,
                  blocks: Sequence[tuple], tags: tuple = (None, None)) -> Node:
        """Softmax attention in query blocks, one node: ``queries`` is
        (H_kv, n·G, qw), ``keys`` and ``values`` (H_kv, t+n, w). Block
        ``(i0, i1, mask)`` scores query rows [i0·G, i1·G) against keys
        [0, t+i1), writes their :func:`_softmax` over them and their product
        with values [0, t+i1) into its rows of the (H_kv, n·G, vw) output.
        Score and value FLOPs count under ``tags``.

        From ``SPLIT_SCORES`` scores in all, each kv head runs its blocks in
        turn, the kv heads in halves on two threads on two CPUs; below, each
        block makes three calls stacked over the heads. numpy calls BLAS once
        per matrix either way, to the same bits. Value and gradients are those
        of row slices, transposes, matmuls and a softmax per block joined by
        rows, bit for bit if the queries are not the keys or values: with
        several blocks a gradient adds up from zeros in reverse block order,
        with one it is kept as it is.
        """
        q, k, v, n = queries.value, keys.value, values.value, blocks[-1][1]
        heads, group, t = k.shape[-3], q.shape[-2] // n, k.shape[-2] - n
        spans = [(np.s_[..., i0 * group:i1 * group, :], t + i1, mask) for i0, i1, mask in blocks]
        sizes = [(heads, (i1 - i0) * group, t + i1) for i0, i1, _ in blocks]
        probs = [np.empty(size) for size in sizes] if self.record else None
        out = np.empty(q.shape[:-1] + v.shape[-1:])
        scores = sum(b * r * c for b, r, c in sizes)
        parts = [(q, k, v, out, probs, scale, spans, [np.s_[:]])]
        if heads > 1 and scores >= SPLIT_SCORES:
            h = heads // 2 if _cpus() > 1 else heads
            parts = [(*parts[0][:-1], [np.s_[i:i + 1] for i in part])
                     for part in (range(h), range(h, heads)) if part]
        _in_parts(_attend, parts)
        self._count(2 * scores * q.shape[-1], tags[0])
        self._count(2 * scores * v.shape[-1], tags[1])

        def backward(g, acc):
            whole = len(spans) == 1   # no row slice: the first gradient kept
            for (rows, keys_seen, _), p in zip(reversed(spans), reversed(probs)):
                g_b, k_b, v_b = g[rows], k[..., :keys_seen, :], v[..., :keys_seen, :]
                seen = None if whole else np.s_[..., :keys_seen, :]
                g_p = np.matmul(g_b, v_b.swapaxes(-1, -2))
                acc(values, np.matmul(p.swapaxes(-1, -2), g_b), seen)
                g_s = p * (g_p - np.sum(g_p * p, axis=-1, keepdims=True)) * scale
                acc(keys, np.matmul(q[rows].swapaxes(-1, -2), g_s).swapaxes(-1, -2), seen)
                acc(queries, np.matmul(g_s, k_b), None if whole else rows)

        return self._record(out, (queries, keys, values), backward)

    def row_log_softmax(self, a: Node) -> Node:
        out = log_softmax_rows(a.value)
        soft = np.exp(out)

        def backward(g, acc):
            acc(a, g - soft * np.sum(g, axis=1, keepdims=True))

        return self._record(out, (a,), backward)

    def rotate_pairs(self, a: Node, cos: np.ndarray, sin: np.ndarray,
                     half_split: bool) -> Node:
        """Record :func:`rotate_pairs`.

        The rotation is orthogonal, so the backward pass rotates the incoming
        gradient by the negated angles.
        """
        out = rotate_pairs(a.value, cos, sin, half_split)

        def backward(g, acc):
            acc(a, rotate_pairs(g, cos, -sin, half_split))

        return self._record(out, (a,), backward)

    def append_rows(self, buffer: np.ndarray, t: int, new: Node) -> Node:
        """Write ``new`` into rows [t, t+n) of ``buffer``; the result is rows
        [0, t+n), a view of ``buffer`` (a growing cache written in place).

        Only the appended rows are differentiable; rows [0, t) were written
        earlier, on this tape or another. ``buffer`` must hold t+n rows.
        """
        n = new.value.shape[0]
        if t + n > buffer.shape[0]:
            raise ValueError(f"append_rows: rows [{t}, {t + n}) do not fit "
                             f"a buffer of {buffer.shape[0]}")
        buffer[t:t + n] = new.value

        def backward(g, acc):
            acc(new, g[t:])

        return self._record(buffer[:t + n], (new,), backward)

    def cross_entropy(self, logits: Node, labels: Sequence[int]) -> Node:
        """Mean next-token cross entropy: one row of logits per label."""
        labels = np.asarray(labels, dtype=np.intp)
        if labels.shape[0] != logits.value.shape[0]:
            raise ValueError("one label per logits row required")
        logp = log_softmax_rows(logits.value)
        n = labels.shape[0]
        loss = -np.sum(logp[np.arange(n), labels]) / n
        soft = np.exp(logp)

        def backward(g, acc):
            grad = soft.copy()
            grad[np.arange(n), labels] -= 1.0
            acc(logits, grad * (g[0, 0] / n))

        return self._record(np.array([[loss]]), (logits,), backward)

    def sum_all(self, a: Node) -> Node:
        def backward(g, acc):
            acc(a, np.full_like(a.value, g[0, 0]))

        return self._record(np.array([[a.value.sum()]]), (a,), backward)

    # -- differentiation -----------------------------------------------------

    def backward_from(self, output: Node) -> dict[int, np.ndarray]:
        """Gradients of a recorded 1x1 scalar w.r.t. every reachable node."""
        if not self.record:
            raise ValueError("a non-recording tape keeps no nodes to differentiate")
        if output.value.shape != (1, 1):
            raise ValueError("backward_from expects a scalar (1x1) output node")
        grads: dict[int, np.ndarray] = {output.idx: np.ones((1, 1))}
        owned: set[int] = set()   # nodes whose gradient is a buffer of this pass

        def acc(node: Node, g: np.ndarray, index=None):
            """Add ``g`` to the gradient of ``node``, or to its ``index`` part.

            A first whole gradient is kept as it is, possibly a view of
            another node's. Any later write goes into a buffer the pass owns:
            zeros at an indexed first write, else a copy of what is there.
            """
            if not node.grad_enabled:
                return
            i = node.idx
            if i not in grads and index is None:
                grads[i] = g
                return
            if i not in owned:
                grads[i] = np.array(grads[i]) if i in grads else np.zeros(node.value.shape)
                owned.add(i)
            if index is None:
                grads[i] += g
            else:
                grads[i][index] += g

        for node in reversed(self.nodes[: output.idx + 1]):
            if node.backward is None or node.idx not in grads:
                continue
            node.backward(grads[node.idx], acc)
        return grads


def grad(tape: Tape, output: Node, leaf: Node) -> Matrix:
    """Gradient of ``output`` (a recorded scalar) w.r.t. one tape leaf."""
    return gradients(tape, output, [leaf])[0]


def gradients(tape: Tape, output: Node, leaves: Iterable[Node]) -> list[Matrix]:
    leaves = list(leaves)
    for leaf in leaves:
        if not 0 <= leaf.idx < len(tape.nodes) or tape.nodes[leaf.idx] is not leaf:
            raise ValueError("leaf is not a node of this tape")
    table = tape.backward_from(output)
    return [table[leaf.idx] if leaf.idx in table else np.zeros_like(leaf.value)
            for leaf in leaves]
