"""Dense float64 tensors with reverse-mode automatic differentiation.

Just enough operations to express the model: matmul (2-D and batched 3-D)
and a block-diagonal constant product (block_matmul), elementwise
add/mul, sigmoid, relu, masked softmax, layer normalization, dropout,
embedding/gather lookups and a tied output projection, scaled dot-product
attention with relative-position terms as one op (attention),
cross-entropy, and a few shape utilities.

An op's rows are segments, one per example of a graph: rows offsets[e]
to offsets[e + 1] are example e's, end to end with no padding, and
offsets None is one segment of all the rows (see _segments). Each op has
one code path for any number of segments. Row-wise work runs once over
all the rows; every product, every sum over rows and every attention runs
once per segment, on slices of the stacked arrays, and a parameter's
gradient is added one segment at a time, in order. A product on a slice
has the bits of the example's own array, while one product over stacked
rows does not, so each example's outputs and gradients, and every
parameter's sum of them, are the bits of one graph per example.

Every operation records its parents and a backward closure on the output
tensor; the closure is handed the output's gradient and holds no reference
to the output. backward() walks that implicit graph in reverse topological
order, which doubles as the computation tape, and consumes it: each node
drops its closure and parent links, so a finished graph is freed by
reference counting, not the cycle collector. Constants (no requires_grad,
not an op output) receive no gradient. All math is double precision, so a
fixed seed gives bit-identical results across runs.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, NumericsError, ShapeError, StateError

NEG_INF = -1e9
LAYERNORM_EPS = 1e-5

_state = threading.local()


def _grad_enabled() -> bool:
    return getattr(_state, "grad_enabled", True)


class no_grad:
    """Context manager that disables graph recording (evaluation mode)."""

    def __enter__(self):
        self.prev = _grad_enabled()
        _state.grad_enabled = False
        return self

    def __exit__(self, *exc):
        _state.grad_enabled = self.prev
        return False


class Tensor:
    """A float64 array plus optional gradient buffer and graph linkage."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_consumed")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None
        self._consumed = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    @property
    def needs_grad(self) -> bool:
        """A parameter or a recorded op output; constants get no gradient."""
        return self.requires_grad or self._backward is not None

    def accumulate(self, g: np.ndarray) -> None:
        if not self.needs_grad:
            return
        if self.grad is None:
            # a copy in self.data's memory layout, not g's: later matmuls
            # then take the same BLAS path as with a zero-filled buffer
            self.grad = np.empty_like(self.data)
            np.copyto(self.grad, g)
        else:
            self.grad += g


def _make(data: np.ndarray, parents: tuple[Tensor, ...], backward: Callable[[np.ndarray], None]) -> Tensor:
    out = Tensor.__new__(Tensor)  # data is a float64 array already: no conversion
    out.data, out.requires_grad, out.grad, out._consumed = data, False, None, False
    out._parents, out._backward = (parents, backward) if _grad_enabled() else ((), None)
    return out


def backward(loss: Tensor) -> None:
    """Populate grads of everything the scalar loss depends on.

    Walks the recorded graph in reverse topological order and consumes it:
    each recorded node hands its gradient to its closure, then drops the
    closure and its parent links. Running backward again through any tensor
    of a consumed graph raises StateError before any gradient moves; leaves
    (parameters and tensors made under no_grad) are never consumed.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward requires a scalar loss, got shape {loss.shape}")
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        if node._consumed:
            raise StateError("backward already ran through this graph; rebuild it first")
        visited.add(id(node))
        stack.append((node, True))
        stack.extend((parent, False) for parent in node._parents)
    loss.grad = np.ones_like(loss.data)
    # popping releases each node once its gradient has been passed on
    while topo:
        node = topo.pop()
        if node._backward is not None:
            node._backward(node.grad)
            node._backward, node._parents, node._consumed = None, (), True


# -- segments --------------------------------------------------------------


def _segments(offsets: Sequence[int] | None, rows: int) -> tuple[slice, ...]:
    """The row slices of the segments that offsets mark out of rows rows:
    segment e is rows offsets[e] to offsets[e + 1]. None is one segment of
    all the rows. An argument that an op takes per segment is then a
    sequence with one entry per segment; with offsets None it is the one
    entry (see _per_segment)."""
    return _split((0, rows) if offsets is None else tuple(offsets), rows)


@functools.lru_cache(maxsize=1024)  # every op of a graph checks the same offsets
def _split(offsets: tuple, rows: int) -> tuple[slice, ...]:
    if len(offsets) < 2 or offsets[0] != 0 or offsets[-1] != rows or any(a > b for a, b in zip(offsets, offsets[1:])):
        raise ShapeError(f"segment offsets {[int(o) for o in offsets]} do not split {rows} rows")
    return tuple(slice(int(lo), int(hi)) for lo, hi in zip(offsets, offsets[1:]))


def _per_segment(value, offsets: Sequence[int] | None, count: int, what: str) -> list:
    """A per-segment argument as a list of count entries (see _segments)."""
    if offsets is None:
        return [value]
    if value is None:
        return [None] * count
    value = list(value)
    if len(value) != count:
        raise ShapeError(f"{len(value)} {what} for {count} segments")
    return value


def _joined(parts: list[np.ndarray]) -> np.ndarray:
    """Per-segment arrays end to end; a lone part as it is."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _row_products(x: np.ndarray, w: np.ndarray, segs: Sequence[slice]) -> np.ndarray:
    """x @ w, each segment's rows of x multiplied on their own, into one
    array; a lone segment is the plain product (of any rank)."""
    if len(segs) == 1:
        return x @ w
    out = np.empty((x.shape[0], w.shape[1]))
    for s in segs:
        np.matmul(x[s], w, out=out[s])
    return out


# -- primitives ----------------------------------------------------------


def matmul(a: Tensor, b: Tensor, offsets: Sequence[int] | None = None) -> Tensor:
    """Matrix product; both 2-D, or both 3-D with equal leading dim. With
    offsets, a's rows are segments (2-D only), each multiplied by b on its
    own, and b's gradient is added one segment at a time."""
    if a.data.ndim == b.data.ndim == 2:
        if a.shape[1] != b.shape[0]:
            raise ShapeError(f"matmul inner dims differ: {a.shape} @ {b.shape}")
    elif a.data.ndim == b.data.ndim == 3:
        if a.shape[0] != b.shape[0] or a.shape[2] != b.shape[1]:
            raise ShapeError(f"batched matmul shapes differ: {a.shape} @ {b.shape}")
    else:
        raise ShapeError(f"matmul requires matching 2-D or 3-D operands: {a.shape} @ {b.shape}")
    segs = _segments(offsets, a.shape[0])
    if a.data.ndim == 3 and len(segs) > 1:
        raise ShapeError("a batched matmul takes one segment")
    out_data = _row_products(a.data, b.data, segs)

    def backward_fn(g):
        if a.needs_grad:
            a.accumulate(_row_products(g, np.swapaxes(b.data, -1, -2), segs))
        if b.needs_grad:
            for s in segs:
                b.accumulate(np.swapaxes(a.data[s], -1, -2) @ g[s])

    return _make(out_data, (a, b), backward_fn)


def block_matmul(blocks: Sequence[np.ndarray], x: Tensor, offsets: Sequence[int] | None = None) -> Tensor:
    """A block-diagonal constant matrix times x: segment e's rows of x are
    multiplied by blocks[e], an (n_e, n_e) array."""
    segs = _segments(offsets, x.shape[0])
    blocks = [np.asarray(m, dtype=np.float64) for m in _per_segment(blocks, offsets, len(segs), "blocks")]
    for m, s in zip(blocks, segs):
        if x.data.ndim != 2 or m.shape != (x.data[s].shape[0],) * 2:
            raise ShapeError(f"block {m.shape} does not fit its {x.data[s].shape[0]} rows of {x.shape}")
    out_data = _joined([m @ x.data[s] for m, s in zip(blocks, segs)])

    def backward_fn(g):
        x.accumulate(_joined([m.T @ g[s] for m, s in zip(blocks, segs)]))

    return _make(out_data, (x,), backward_fn)


def add(a: Tensor, b: Tensor, offsets: Sequence[int] | None = None) -> Tensor:
    """Elementwise sum; b may also be a vector broadcast over the last axis,
    and then, with offsets, its gradient sums each segment's rows on their
    own and is added one segment at a time."""
    if a.shape == b.shape:
        pass
    elif b.data.ndim == 1 and a.shape[-1:] == b.shape:
        pass
    else:
        raise ShapeError(f"add shapes incompatible: {a.shape} + {b.shape}")
    out_data = a.data + b.data

    def backward_fn(g):
        a.accumulate(g)
        if b.shape == a.shape:
            b.accumulate(g)
        else:
            for s in _segments(offsets, a.shape[0]):
                b.accumulate(g[s].reshape(-1, b.shape[0]).sum(axis=0))

    return _make(out_data, (a, b), backward_fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of equal-shape tensors."""
    if a.shape != b.shape:
        raise ShapeError(f"mul shapes differ: {a.shape} * {b.shape}")
    out_data = a.data * b.data

    def backward_fn(g):
        a.accumulate(g * b.data)
        b.accumulate(g * a.data)

    return _make(out_data, (a, b), backward_fn)


def scale(a: Tensor, c: float) -> Tensor:
    """Multiply by a python scalar constant."""
    c = float(c)
    out_data = a.data * c

    def backward_fn(g):
        a.accumulate(g * c)

    return _make(out_data, (a,), backward_fn)


def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    e = np.exp(-np.abs(x))  # never overflows
    denom = 1.0 + e
    s = np.where(x >= 0, 1.0 / denom, e / denom)

    def backward_fn(g):
        a.accumulate(g * s * (1.0 - s))

    return _make(s, (a,), backward_fn)


def relu(a: Tensor) -> Tensor:
    out_data = np.maximum(a.data, 0.0)

    def backward_fn(g):
        a.accumulate(g * (a.data > 0))

    return _make(out_data, (a,), backward_fn)


def softmax_masked(
    logits: Tensor,
    additive_mask: np.ndarray | None = None,
    scale_matrix: np.ndarray | None = None,
) -> Tensor:
    """Softmax over the last axis of (rows, cols) or (heads, rows, cols)
    logits, with optional multiplicative and additive masking.

    scale_matrix multiplies the logits elementwise first (relation-gated
    attention); additive_mask is then added (NEG_INF entries drop keys).
    Both are (rows, cols) and shared by every head of a 3-D input. Raises
    NumericsError when an additive mask removes an entire row.
    """
    if logits.data.ndim not in (2, 3):
        raise ShapeError(f"softmax expects a 2-D or 3-D tensor, got {logits.shape}")
    if additive_mask is not None and additive_mask.shape != logits.shape[-2:]:
        raise ShapeError(f"additive mask {additive_mask.shape} != logits rows/cols {logits.shape[-2:]}")
    s = _masked_softmax(logits.data.copy(), additive_mask, scale_matrix)

    def backward_fn(g):
        logits.accumulate(_masked_softmax_grad(g.copy(), s, scale_matrix))

    return _make(s, (logits,), backward_fn)


def _masked_softmax(z: np.ndarray, additive_mask: np.ndarray | None, scale_matrix: np.ndarray | None) -> np.ndarray:
    """softmax_masked's forward, computed in z itself, which is returned;
    z's last two axes are (rows, cols), and additive_mask may also be z's
    own shape, one mask per head."""
    rows_cols = z.shape[-2:]
    if scale_matrix is not None and scale_matrix.shape != rows_cols:
        raise ShapeError(f"scale matrix {scale_matrix.shape} != logits rows/cols {rows_cols}")
    if additive_mask is not None:
        if additive_mask.shape not in (rows_cols, z.shape):
            raise ShapeError(f"additive mask {additive_mask.shape} != logits rows/cols {rows_cols} or {z.shape}")
        if np.any(np.all(additive_mask <= NEG_INF, axis=-1)):
            raise NumericsError("softmax row is fully masked")
    if scale_matrix is not None:
        z *= scale_matrix
    if additive_mask is not None:
        z += additive_mask
    z -= z.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def _masked_softmax_grad(
    g: np.ndarray, s: np.ndarray, scale_matrix: np.ndarray | None, scratch: np.ndarray | None = None
) -> np.ndarray:
    """Gradient of the logits given the gradient g of softmax weights s,
    computed in g itself, which is returned; g * s goes to scratch if
    given, an array of g's shape."""
    g -= np.multiply(g, s, out=scratch).sum(axis=-1, keepdims=True)
    g *= s
    if scale_matrix is not None:
        g *= scale_matrix
    return g


def layernorm(
    x: Tensor, gain: Tensor, bias: Tensor, eps: float = LAYERNORM_EPS, offsets: Sequence[int] | None = None
) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine.
    With offsets, the gain's and bias's gradients sum each segment's rows
    on their own and are added one segment at a time."""
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"layernorm affine shapes {gain.shape}/{bias.shape} != ({d},)")
    segs = _segments(offsets, x.shape[0])
    out_data, xhat, inv = _layernorm_rows(x.data, gain.data, bias.data, eps)

    def backward_fn(g):
        g_xhat = g * xhat
        for s in segs:
            gain.accumulate(g_xhat[s].reshape(-1, d).sum(axis=0))
            bias.accumulate(g[s].reshape(-1, d).sum(axis=0))
        gx = g * gain.data
        term = gx - gx.sum(axis=-1, keepdims=True) / d - xhat * ((gx * xhat).sum(axis=-1, keepdims=True) / d)
        x.accumulate(term * inv)

    return _make(out_data, (x, gain, bias), backward_fn)


def _layernorm_rows(
    x: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """layernorm's forward on arrays: the output, the normalized rows xhat
    and 1 / sqrt(variance + eps), which the backward reuses."""
    d = x.shape[-1]
    # a sum divided by d is np.mean's arithmetic, and the mean of the squared
    # centred values is np.var's, so the result is bit-identical to theirs
    centred = x - x.sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt((centred * centred).sum(axis=-1, keepdims=True) / d + eps)
    xhat = centred * inv
    return xhat * gain + bias, xhat, inv


def dropout(
    x: Tensor, p: float, rng, training: bool, offsets: Sequence[int] | None = None
) -> Tensor:
    """Inverted dropout; identity in eval mode or at p=0. rng is a
    generator, or with offsets one per segment, which draws that
    segment's mask."""
    keep = _dropout_keep(x.shape, p, rng, training, offsets)
    if keep is None:
        return x
    out_data = x.data * keep

    def backward_fn(g):
        x.accumulate(g * keep)

    return _make(out_data, (x,), backward_fn)


def _dropout_keep(shape, p: float, rng, training: bool, offsets: Sequence[int] | None = None) -> np.ndarray | None:
    """Inverted-dropout multipliers of the given shape, or None when dropout
    is the identity (eval mode or p=0); with offsets, rng holds one
    generator per segment of the leading axis."""
    if not 0.0 <= p < 1.0:
        raise ConfigError(f"dropout probability must be in [0, 1), got {p!r}")
    if not training or p == 0.0:
        return None
    segs = _segments(offsets, shape[0])
    rngs = _per_segment(rng, offsets, len(segs), "random generators")
    if any(r is None for r in rngs):
        raise ConfigError("dropout in training mode requires a random generator")
    return _joined([r.random((s.stop - s.start, *shape[1:])) >= p for r, s in zip(rngs, segs)]) / (1.0 - p)


def _check_ids(ids, rows: int, what: str) -> np.ndarray:
    """ids as an integer array, every entry a row of a table of rows rows."""
    ids = np.asarray(ids)
    if ids.dtype.kind not in "iu":
        raise ShapeError(f"{what} ids must be integers")
    if ids.size and (ids.min() < 0 or ids.max() >= rows):
        raise ShapeError(f"{what} id out of range [0, {rows}): min {ids.min()}, max {ids.max()}")
    return ids


def embed(table: Tensor, ids: np.ndarray, offsets: Sequence[int] | None = None) -> Tensor:
    """Row lookup: (vocab, d) table indexed by integer ids of any shape.
    With offsets, each segment of ids' leading axis adds its own dense
    table gradient, one segment at a time."""
    return tied_embedding(table, ids, offsets)[0]


def tied_embedding(
    table: Tensor, ids: np.ndarray, offsets: Sequence[int] | None = None
) -> tuple[Tensor, Callable[[Tensor], Tensor]]:
    """embed(table, ids, offsets), and a function that projects rows y
    computed from these embeddings, in the same segments, to y @ table.T:
    an output projection tied to the input embedding.

    One example's graph adds its embedding's table gradient E, then its
    projection's T, since backward reaches the projection first and holds
    it. A graph of several examples must keep that order, E1, T1, E2, T2:
    the projection's backward keeps each segment's rows and gradient, and
    the embedding's adds each segment's E and then its T."""
    ids = _check_ids(ids, table.shape[0], "embedding")
    segs = _segments(offsets, ids.shape[0])
    projected: list[tuple[np.ndarray, np.ndarray]] = []  # each segment's (y, gradient)

    def backward_fn(g):
        for e, s in enumerate(segs):
            g_table = np.zeros_like(table.data)
            np.add.at(g_table, ids[s], g[s])
            table.accumulate(g_table)
            if projected:
                y_rows, g_rows = projected[e]
                table.accumulate((y_rows.T @ g_rows).T)
        projected.clear()

    rows = _make(table.data[ids], (table,), backward_fn)

    def project(y: Tensor) -> Tensor:
        if y.data.ndim != 2 or y.shape[1] != table.shape[1]:
            raise ShapeError(f"tied projection needs (rows, {table.shape[1]}) rows, got {y.shape}")
        y_segs = _segments(offsets, y.shape[0])
        out_data = _row_products(y.data, table.data.T, y_segs)

        def project_backward(g):
            if y.needs_grad:
                y.accumulate(_row_products(g, table.data, y_segs))
            projected.extend((y.data[s], g[s]) for s in y_segs)

        return _make(out_data, (y, table), project_backward)

    return rows, project


def gather(table: Tensor, idx: np.ndarray) -> Tensor:
    """Alias of embed for pairwise index matrices: (n, m) ids -> (n, m, d)."""
    return embed(table, idx)


# -- attention -------------------------------------------------------------
# A relative-position table has 9 to 65 rows, and an (n_q, n_k) index picks
# one per query-key pair. The table terms work on (n_q * groups, rows)
# arrays, row i * groups + h, instead of gathering (n_q, n_k, d) copies of
# the rows; _row_sums and _pick are each other's adjoint, and both address
# a table's picks through one flat index, built once per attention call.
#
# The (groups, n_q, n_k) scores are the only large arrays: 5 MiB at the
# 400-token input cap, where each fresh array costs a page fault per 4 KiB
# page. So attention runs every elementwise pass over them in place, in
# forward and backward, and allocates each score-sized array at most once
# per call: the scores, which become the softmax weights; one scratch array
# that holds each table's picked scores and then, viewed as int64, each
# table's bincount keys; and in backward the weights' gradient. The keys are
# rewritten into the scratch for each use rather than kept per table:
# keeping them raised a call's peak from under 3 to over 4 score arrays, and
# the page faults with it. An in-place operation rounds as its out-of-place
# form does, and bincount adds each row's weights in increasing j, as the
# composed ops do, so outputs and gradients are the same bits either way.


def _flat_index(idx: np.ndarray, rows: int) -> np.ndarray:
    """(n_q * n_k,) positions of idx's picks in a row of n_q tables of rows
    rows each: query i's pick idx[i, j] sits at i * rows + idx[i, j]."""
    return (idx + (np.arange(idx.shape[0]) * rows)[:, None]).ravel()


def _row_sums(w: np.ndarray, flat: np.ndarray, rows: int, scratch: np.ndarray) -> np.ndarray:
    """(groups, n_q, n_k) weights summed per table row: row i * groups + h,
    column r sums w[h, i, j] over the keys j with idx[i, j] == r, in
    increasing j. bincount's keys are written over the C-contiguous
    float64 scratch, an array of w's shape."""
    groups, n_q, _ = w.shape
    keys = scratch.view(np.int64)
    np.add(flat, (np.arange(groups) * (n_q * rows))[:, None], out=keys.reshape(groups, -1))
    sums = np.bincount(keys.ravel(), weights=w.ravel(), minlength=groups * n_q * rows)
    return sums.reshape(groups, n_q, rows).transpose(1, 0, 2).reshape(-1, rows)


def _pick(m: np.ndarray, flat: np.ndarray, out: np.ndarray) -> np.ndarray:
    """(n_q * groups, rows) picked by idx into the C-contiguous (groups,
    n_q, n_k) out, which is returned: out[h, i, j] = m[i * groups + h,
    idx[i, j]]."""
    groups, n_q, _ = out.shape
    by_group = np.ascontiguousarray(m.reshape(n_q, groups, -1).transpose(1, 0, 2)).reshape(groups, -1)
    # flat is in range; mode="raise" would write through a buffered copy of out
    np.take(by_group, flat, axis=1, out=out.reshape(groups, -1), mode="clip")
    return out


def attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    tables: Sequence[tuple[Tensor, Tensor, np.ndarray]] = (),
    *,
    additive_mask: np.ndarray | None = None,
    scale_matrix: np.ndarray | None = None,
    dropout_p: float = 0.0,
    rng: np.random.Generator | None = None,
    training: bool = False,
    capture: list | None = None,
    offsets: Sequence[int] | None = None,
    kv_offsets: Sequence[int] | None = None,
) -> Tensor:
    """Scaled dot-product attention with relative-position terms, one op.

    q is (n_q, groups, d), k and v (n_k, groups, d); each group attends
    over its own keys. Each (table_k, table_v, idx) of tables holds two
    (rows, d) tables and (n_q, n_k) ids in [0, rows): query i's score for
    key j gains q_i . table_k[idx[i, j]], and its output gains
    alpha_ij table_v[idx[i, j]]. Per group:

        e = (q k^T + table scores) / sqrt(d)
        alpha = dropout(softmax_masked(e, additive_mask, scale_matrix))
        out = alpha v + table values

    returned as (n_q, groups, d). The table scores pick from q times the
    table; the table values sum alpha per table row, then multiply by the
    table. additive_mask is (n_q, n_k), shared by the groups, or
    (groups, n_q, n_k), one per group; scale_matrix is (n_q, n_k). capture,
    if given, receives each group's (n_q, n_k) softmax weights, before
    dropout.

    With offsets, q's rows are segments, and k's and v's are the segments
    that kv_offsets marks (offsets when None). Segment e's queries attend
    over segment e's keys only, as a call of their own would: each
    table's ids, additive_mask, scale_matrix and rng then hold one entry
    per segment, and the tables' gradients are added one segment at a time.

    Every elementwise pass over the (groups, n_q, n_k) scores runs in
    place (see the note above _flat_index): the scores become the softmax
    weights, one scratch array serves every table's picks and bincount
    keys in forward and backward, and each table's flat index is built
    once per call. The inputs, masks and tables are only read.

    Gradients are bit-identical to composing one op per step: each partial
    gradient is that op's expression, summed in that graph's order (into
    alpha the alpha v term, then each table's; into q the q k^T term, then
    each table's), and the parents are ordered so that backward() reaches
    q, k and v in that graph's order too.
    """
    if q.data.ndim != 3 or k.data.ndim != 3 or k.shape != v.shape or q.shape[1:] != k.shape[1:]:
        raise ShapeError(f"attention needs (n_q, groups, d) queries and equal (n_k, groups, d) keys and values: "
                         f"{q.shape}, {k.shape}, {v.shape}")
    q_segs = _segments(offsets, q.shape[0])
    k_segs = _segments(offsets if kv_offsets is None else kv_offsets, k.shape[0])
    count = len(q_segs)
    if len(k_segs) != count:
        raise ShapeError(f"{count} query segments but {len(k_segs)} key segments")
    masks = _per_segment(additive_mask, offsets, count, "additive masks")
    scales = _per_segment(scale_matrix, offsets, count, "scale matrices")
    rngs = _per_segment(rng, offsets, count, "random generators")
    table_ids = [_per_segment(idx, offsets, count, "relative indexes") for _, _, idx in tables]
    parts = [
        _attend(q.data[qs], k.data[ks], v.data[ks],
                [(table_k, table_v, ids[e]) for (table_k, table_v, _), ids in zip(tables, table_ids)],
                masks[e], scales[e], dropout_p, rngs[e], training, capture)
        for e, (qs, ks) in enumerate(zip(q_segs, k_segs))
    ]
    out_data, backs = _joined([out for out, _ in parts]), [back for _, back in parts]

    def backward_fn(g):
        grads = [back(g[qs]) for back, qs in zip(backs, q_segs)]
        g_q, g_k, g_v = (_joined([part[i] for part in grads]) for i in range(3))
        v.accumulate(g_v)
        k.accumulate(g_k)
        q.accumulate(g_q)

    table_parents = tuple(t for table_k, table_v, _ in tables for t in (table_k, table_v))
    return _make(out_data, table_parents + ((v, k, q) if tables else (q, k, v)), backward_fn)


def _attend(q, k, v, tables, additive_mask, scale_matrix, dropout_p, rng, training, capture):
    """One segment of attention, on q's, k's and v's arrays: its output,
    and a function that takes the output's gradient, adds each table's
    gradients and returns the gradients of q, k and v."""
    n_q, groups, d = q.shape
    n_k = k.shape[0]
    checked = []
    for table_k, table_v, idx in tables:
        if table_k.data.ndim != 2 or table_k.shape[1] != d or table_v.shape != table_k.shape:
            raise ShapeError(f"relative tables {table_k.shape}, {table_v.shape} are not (rows, {d})")
        idx = _check_ids(idx, table_k.shape[0], "relative-position")
        if idx.shape != (n_q, n_k):
            raise ShapeError(f"relative index {idx.shape} != scores' ({n_q}, {n_k})")
        checked.append((table_k, table_v, _flat_index(idx, table_k.shape[0])))
    tables = checked
    q_rows = q.reshape(-1, d)
    q_t = q.transpose(1, 0, 2)
    e = q_t @ k.transpose(1, 2, 0)  # (groups, n_q, n_k)
    scratch = np.empty_like(e) if tables else None
    for table_k, _, flat in tables:
        e += _pick(q_rows @ table_k.data.T, flat, scratch)
    c = 1.0 / math.sqrt(d)
    e *= c
    s = _masked_softmax(e, additive_mask, scale_matrix)  # e itself
    if capture is not None:
        capture.extend(head.copy() for head in s)
    keep = _dropout_keep(s.shape, dropout_p, rng, training)
    alpha = s if keep is None else s * keep
    out = (alpha @ v.transpose(1, 0, 2)).transpose(1, 0, 2)
    sums = [_row_sums(alpha, flat, table_v.shape[0], scratch) for _, table_v, flat in tables]
    for (_, table_v, _), rows in zip(tables, sums):
        out = out + (rows @ table_v.data).reshape(n_q, groups, d)

    def backward(g):
        g_rows = g.reshape(-1, d)
        g_av = np.ascontiguousarray(g.transpose(1, 0, 2))
        g_alpha = g_av @ v.transpose(1, 2, 0)
        g_v = (alpha.swapaxes(-1, -2) @ g_av).transpose(1, 0, 2)
        for (_, table_v, flat), rows in zip(tables, sums):
            g_alpha += _pick(g_rows @ table_v.data.T, flat, scratch)
            table_v.accumulate(rows.T @ g_rows)
        if keep is not None:
            g_alpha *= keep
        g_e = _masked_softmax_grad(g_alpha, s, scale_matrix, scratch)  # g_alpha itself
        g_e *= c
        g_q = (g_e @ k.transpose(1, 0, 2)).transpose(1, 0, 2)
        g_k = (q_t.swapaxes(-1, -2) @ g_e).transpose(2, 0, 1)
        for table_k, _, flat in tables:
            rows = _row_sums(g_e, flat, table_k.shape[0], scratch)
            g_q = g_q + (rows @ table_k.data).reshape(q.shape)
            table_k.accumulate(rows.T @ q_rows)
        return g_q, g_k, g_v

    return out, backward


def cross_entropy(logits: Tensor, targets: np.ndarray, offsets: Sequence[int] | None = None) -> Tensor:
    """Mean negative log-likelihood of integer targets, (n, V) logits. With
    offsets, one mean per segment of rows, (segments,)."""
    if logits.data.ndim != 2:
        raise ShapeError(f"cross_entropy expects (n, vocab) logits, got {logits.shape}")
    targets = np.asarray(targets)
    if targets.shape != (logits.shape[0],):
        raise ShapeError(f"targets shape {targets.shape} != ({logits.shape[0]},)")
    if not np.issubdtype(targets.dtype, np.integer):
        raise ShapeError("targets must be integers")
    if targets.size and (targets.min() < 0 or targets.max() >= logits.shape[1]):
        raise ShapeError("target id out of vocabulary range")
    n = logits.shape[0]
    segs = _segments(offsets, n)
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(z).sum(axis=1, keepdims=True))
    logp = z - logsumexp
    picked = logp[np.arange(n), targets]
    means = np.array([-picked[s].sum() / picked[s].shape[0] for s in segs])
    out_data = means.reshape(-1 if np.ndim(offsets) else ())  # offsets None: the one mean, 0-d

    def backward_fn(g):
        soft = np.exp(logp)
        soft[np.arange(n), targets] -= 1.0
        g = g.reshape(-1)
        for e, s in enumerate(segs):
            soft[s] /= soft[s].shape[0]
            soft[s] *= float(g[e])
        logits.accumulate(soft)

    return _make(out_data, (logits,), backward_fn)


# -- shape utilities -----------------------------------------------------


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    out_data = a.data.reshape(shape)

    def backward_fn(g):
        a.accumulate(g.reshape(a.shape))

    return _make(out_data, (a,), backward_fn)


def transpose(a: Tensor, axes: tuple[int, ...]) -> Tensor:
    out_data = np.transpose(a.data, axes)

    def backward_fn(g):
        a.accumulate(np.transpose(g, tuple(np.argsort(axes))))

    return _make(out_data, (a,), backward_fn)


def concat(parts: Sequence[Tensor], axis: int) -> Tensor:
    if not parts:
        raise ShapeError("concat of zero tensors")
    out_data = np.concatenate([p.data for p in parts], axis=axis)

    def backward_fn(g):
        offsets = np.cumsum([0] + [p.shape[axis] for p in parts])
        for part, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            part.accumulate(g[tuple(sl)])

    return _make(out_data, tuple(parts), backward_fn)


def sum_all(a: Tensor) -> Tensor:
    out_data = np.asarray(a.data.sum())

    def backward_fn(g):
        a.accumulate(np.full_like(a.data, float(g)))

    return _make(out_data, (a,), backward_fn)


def mean_all(a: Tensor) -> Tensor:
    return scale(sum_all(a), 1.0 / a.data.size)


# -- gradient verification -----------------------------------------------


@dataclass(frozen=True)
class GradCheckReport:
    """Outcome of comparing autodiff gradients to central differences."""

    max_rel_error: float
    tolerance: float
    passed: bool


def grad_check(
    f: Callable[..., Tensor],
    points: Tensor | Sequence[Tensor],
    tolerance: float = 1e-4,
    epsilon: float = 1e-5,
) -> GradCheckReport:
    """Compare df/dpoint from backward() against central finite differences.

    Relative error per element is |a - fd| / max(|a|, |fd|), taken as 0 when
    both magnitudes are below 1e-6; the report carries the max over all
    elements of all checked tensors.
    """
    pts = [points] if isinstance(points, Tensor) else list(points)
    for p in pts:
        p.requires_grad = True
        p.grad = None
    loss = f(*pts)
    backward(loss)
    grads = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in pts]
    max_rel = 0.0
    with no_grad():
        for p, g in zip(pts, grads):
            for idx in np.ndindex(*p.data.shape):
                orig = p.data[idx]
                p.data[idx] = orig + epsilon
                f_plus = float(f(*pts).data)
                p.data[idx] = orig - epsilon
                f_minus = float(f(*pts).data)
                p.data[idx] = orig
                fd = (f_plus - f_minus) / (2.0 * epsilon)
                denom = max(abs(g[idx]), abs(fd))
                rel = 0.0 if denom < 1e-6 else abs(g[idx] - fd) / denom
                if rel > max_rel:
                    max_rel = rel
    return GradCheckReport(max_rel_error=max_rel, tolerance=tolerance, passed=max_rel <= tolerance)
