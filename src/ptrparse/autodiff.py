"""Dense float64 tensors with reverse-mode automatic differentiation.

The graph is built define-by-run: every differentiable operation records
its inputs and a backward closure on the output tensor.  ``backward`` on a
scalar loss walks the graph once in reverse topological order and
accumulates gradients into every reachable tensor that requires them.
Gradients accumulate across repeated ``backward`` calls until cleared.

Graph recording can be suspended with ``no_grad()`` for inference paths.

The op set is what the parsers call, and no more:

- arithmetic: ``add``, ``mul`` (both broadcasting), ``matmul``,
  ``matvec_rows`` and ``elu``;
- structure: ``hconcat``, ``stack``, ``row``, ``rows``, ``narrow``,
  ``reshape``, ``transpose``, ``gather``, ``gather_sum`` and
  ``segment_max``;
- fused layers: ``lstm_step``, ``gru_step``, ``lstm_seq``, ``gru_seq``,
  ``fuse_state`` and ``hier_seq``;
- heads and losses: ``softmax`` (masked, over the last axis of a vector
  or of every row of a matrix), ``dropout``, ``cross_entropy`` and
  ``sum_terms``.

The sequence ops take a batch: ``lstm_seq`` and ``gru_seq`` run many
sequences of one encoder direction, and ``hier_seq`` the teacher-forced
decoder passes of many sentences, each sequence or sentence from its own
zero state.  Step t of every sequence still running advances together,
with stacked products ``(B, 1, h) @ Wᵀ``: each row has the bits of the
one-sequence product ``W @ h``, so a sequence's outputs do not depend on
its batch, and a batch of one is the one-sequence op.  The backward pass
forms every weight's gradient as one product over all rows of the batch.

The hierarchical decoder has two forms.  Decoding advances it one step at
a time, one ``fuse_state`` over the block of all state components and one
``lstm_step`` or ``gru_step`` per layer, because each step's input
depends on the last decision.  Teacher forcing knows every step in
advance, so the whole decoder pass of a batch is one ``hier_seq`` op over
schedules of bank rows, for either cell kind: only the per-layer cell
arithmetic differs between LSTM and GRU, and the op shares the rest.
Both forms call the same numpy kernels (``_fuse``, ``_lstm_cell``,
``_gru_cell`` and their backward halves), so the gate math exists once.
The two forms stack the fusion's products differently: decoding by state
component (``(C, k, h) @ Wᵀ``, each component with the bits of its own
vector or row product), ``hier_seq`` by sentence (``(B, C, h) @ Wᵀ``).

Each loss term is one node: ``cross_entropy`` picks ``-log p[target]``
in a single op, or sums the picks of every row of a matrix, and
``sum_terms`` adds terms in one n-ary op.
"""

from __future__ import annotations

import contextlib
import threading
from operator import itemgetter

import numpy as np

from .errors import ConfigError, MaskError, ShapeError

# Graph recording is per-thread so concurrent no-grad decodes can't race.
_state = threading.local()


@contextlib.contextmanager
def no_grad():
    """Suspend graph recording inside the ``with`` block."""
    previous = getattr(_state, "enabled", True)
    _state.enabled = False
    try:
        yield
    finally:
        _state.enabled = previous


def grad_enabled() -> bool:
    return getattr(_state, "enabled", True)


class Tensor:
    """N-dimensional float64 value participating in the autodiff graph."""

    __slots__ = ("data", "requires_grad", "_grad", "_parents", "_bwd")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self._grad = None
        self._parents = ()
        self._bwd = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def grad(self) -> np.ndarray:
        """Gradient buffer; all zeros until backward reaches this tensor."""
        if self._grad is None:
            self._grad = np.zeros_like(self.data)
        return self._grad

    @grad.setter
    def grad(self, value):
        self._grad = None if value is None else np.asarray(value, dtype=np.float64)

    def zero_grad(self):
        self._grad = None

    def item(self) -> float:
        return float(self.data)

    def _accum(self, g: np.ndarray):
        if self._grad is None:
            # C order even when g is a transposed view, so optimizer and
            # clipping arithmetic on the buffer stays contiguous.
            self._grad = np.array(g, dtype=np.float64, order="C")
        else:
            self._grad += g

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"



def _node(data: np.ndarray, parents: tuple, bwd) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.requires_grad = True
    out._grad = None
    out._parents = parents
    out._bwd = bwd
    return out


def _const(data: np.ndarray) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.requires_grad = False
    out._grad = None
    out._parents = ()
    out._bwd = None
    return out


def _tracked(*tensors) -> bool:
    return getattr(_state, "enabled", True) and any(t.requires_grad for t in tensors)


def _check_broadcast(a: Tensor, b: Tensor):
    for da, db in zip(reversed(a.data.shape), reversed(b.data.shape)):
        if da != db and da != 1 and db != 1:
            raise ShapeError(f"cannot broadcast shapes {a.data.shape} and {b.data.shape}")


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b)
    data = a.data + b.data
    if not _tracked(a, b):
        return _const(data)

    def bwd(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(g, b.data.shape))

    return _node(data, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b)
    data = a.data * b.data
    if not _tracked(a, b):
        return _const(data)

    def bwd(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(g * a.data, b.data.shape))

    return _node(data, (a, b), bwd)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix/vector product following numpy ``@`` semantics for 1-D/2-D."""
    if a.data.ndim not in (1, 2) or b.data.ndim not in (1, 2):
        raise ShapeError(f"matmul supports 1-D and 2-D operands, got {a.data.shape} @ {b.data.shape}")
    if a.data.shape[-1] != b.data.shape[0]:
        raise ShapeError(f"matmul inner dimensions differ: {a.data.shape} @ {b.data.shape}")
    data = a.data @ b.data
    if not _tracked(a, b):
        return _const(data)

    def bwd(g):
        if a.data.ndim == 2 and b.data.ndim == 2:
            ga, gb = g @ b.data.T, a.data.T @ g
        elif a.data.ndim == 2 and b.data.ndim == 1:
            ga, gb = _outer(g, b.data), a.data.T @ g
        elif a.data.ndim == 1 and b.data.ndim == 2:
            ga, gb = b.data @ g, _outer(a.data, g)
        else:
            ga, gb = g * b.data, g * a.data
        if a.requires_grad:
            a._accum(ga)
        if b.requires_grad:
            b._accum(gb)

    return _node(data, (a, b), bwd)


def elu(a: Tensor, alpha: float = 1.0) -> Tensor:
    positive = a.data > 0
    expm1 = alpha * np.expm1(np.minimum(a.data, 0.0))
    data = np.where(positive, a.data, expm1)
    if not _tracked(a):
        return _const(data)

    def bwd(g):
        a._accum(g * np.where(positive, 1.0, expm1 + alpha))

    return _node(data, (a,), bwd)


def sum_terms(terms) -> Tensor:
    """Sum of equally shaped tensors as one op, added left to right.

    A constant zero when ``terms`` is empty and the term itself when there
    is one.  Every term receives the upstream gradient unchanged.
    """
    if not terms:
        return Tensor(0.0)
    if len(terms) == 1:
        return terms[0]
    terms = tuple(terms)
    data = terms[0].data
    for t in terms[1:]:
        if t.data.shape != data.shape:
            raise ShapeError(f"sum_terms needs equal shapes, got {[u.data.shape for u in terms]}")
        data = data + t.data
    if not _tracked(*terms):
        return _const(data)

    def bwd(g):
        for t in terms:
            if t.requires_grad:
                t._accum(g)

    return _node(data, terms, bwd)


def hconcat(parts: list) -> Tensor:
    """Concatenate tensors of equal rank along their last axis (columns)."""
    ndim = parts[0].data.ndim
    for p in parts:
        if p.data.ndim != ndim or p.data.shape[:-1] != parts[0].data.shape[:-1]:
            raise ShapeError(f"hconcat needs matching leading shapes, got "
                             f"{[q.data.shape for q in parts]}")
    data = np.concatenate([p.data for p in parts], axis=-1)
    if not _tracked(*parts):
        return _const(data)
    sizes = [p.data.shape[-1] for p in parts]

    def bwd(g):
        offset = 0
        for p, size in zip(parts, sizes):
            if p.requires_grad:
                p._accum(g[..., offset : offset + size])
            offset += size

    return _node(data, tuple(parts), bwd)


def stack(rows: list) -> Tensor:
    """Stack 1-D tensors into a 2-D matrix, one tensor per row."""
    for r in rows:
        if r.data.ndim != 1:
            raise ShapeError(f"stack expects 1-D tensors, got shape {r.data.shape}")
    data = np.stack([r.data for r in rows])
    if not _tracked(*rows):
        return _const(data)

    def bwd(g):
        for i, r in enumerate(rows):
            if r.requires_grad:
                r._accum(g[i])

    return _node(data, tuple(rows), bwd)


def row(a: Tensor, index: int) -> Tensor:
    """Select one row of a 2-D tensor, or row ``index`` of every matrix of
    a 3-D stack."""
    if a.data.ndim not in (2, 3):
        raise ShapeError(f"row expects a 2-D or 3-D tensor, got shape {a.data.shape}")
    if index < 0:
        raise IndexError(f"negative row index {index}")
    data = a.data[..., index, :]
    if not _tracked(a):
        return _const(data)

    def bwd(g):
        if a._grad is None:
            a._grad = np.zeros_like(a.data)
        a._grad[..., index, :] += g

    return _node(data, (a,), bwd)


def rows(a: Tensor, start: int, stop: int) -> Tensor:
    """Select a contiguous row slice of a 2-D tensor."""
    if a.data.ndim != 2:
        raise ShapeError(f"rows expects a 2-D tensor, got shape {a.data.shape}")
    data = a.data[start:stop]
    if not _tracked(a):
        return _const(data)

    def bwd(g):
        if a._grad is None:
            a._grad = np.zeros_like(a.data)
        a._grad[start:stop] += g

    return _node(data, (a,), bwd)


def narrow(a: Tensor, start: int, stop: int) -> Tensor:
    """Slice of the last axis: of a vector, or of every row of a matrix."""
    if a.data.ndim not in (1, 2):
        raise ShapeError(f"narrow expects a 1-D or 2-D tensor, got shape {a.data.shape}")
    data = a.data[..., start:stop]
    if not _tracked(a):
        return _const(data)

    def bwd(g):
        if a._grad is None:
            a._grad = np.zeros_like(a.data)
        a._grad[..., start:stop] += g

    return _node(data, (a,), bwd)


def reshape(a: Tensor, shape: tuple) -> Tensor:
    data = a.data.reshape(shape)
    if not _tracked(a):
        return _const(data)

    def bwd(g):
        a._accum(g.reshape(a.data.shape))

    return _node(data, (a,), bwd)


def transpose(a: Tensor) -> Tensor:
    """Transpose of a 2-D tensor."""
    if a.data.ndim != 2:
        raise ShapeError(f"transpose expects a 2-D tensor, got shape {a.data.shape}")
    data = a.data.T
    if not _tracked(a):
        return _const(data)

    def bwd(g):
        a._accum(g.T)

    return _node(data, (a,), bwd)


def gather(a: Tensor, indices) -> Tensor:
    """Rows ``a[indices]`` of a 2-D tensor; repeated indices accumulate gradient."""
    if a.data.ndim != 2:
        raise ShapeError(f"gather expects a 2-D tensor, got shape {a.data.shape}")
    indices = np.asarray(indices, dtype=np.intp)
    if indices.ndim != 1:
        raise ShapeError(f"gather expects a 1-D index array, got shape {indices.shape}")
    if indices.size and (indices.min() < 0 or indices.max() >= a.data.shape[0]):
        raise IndexError(f"gather index out of range for {a.data.shape[0]} rows")
    data = a.data[indices]
    if not _tracked(a):
        return _const(data)

    def bwd(g):
        if a._grad is None:
            a._grad = np.zeros_like(a.data)
        np.add.at(a._grad, indices, g)

    return _node(data, (a,), bwd)


def gather_sum(a: Tensor, index) -> Tensor:
    """Sums of picked rows of a 2-D tensor; a negative index is absent.

    A tuple of row indices gives one vector, the sum of ``a[i]`` over its
    entries ``i >= 0`` added left to right (zeros when none is present).  A
    (k, c) index array gives k such sums, one row per index row.  Backward
    adds the upstream gradient into every picked row.
    """
    if a.data.ndim != 2:
        raise ShapeError(f"gather_sum expects a 2-D tensor, got shape {a.data.shape}")
    size = a.data.shape[0]
    if isinstance(index, tuple):
        data = None
        for i in index:
            if i >= 0:
                if i >= size:
                    raise IndexError(f"gather_sum index out of range for {size} rows: {index}")
                data = a.data[i] if data is None else data + a.data[i]
        if data is None:
            return _const(np.zeros(a.data.shape[1]))
        if not _tracked(a):
            return _const(data)

        def bwd(g):
            if a._grad is None:
                a._grad = np.zeros_like(a.data)
            for i in index:
                if i >= 0:
                    a._grad[i] += g

        return _node(data, (a,), bwd)

    index = np.asarray(index, dtype=np.intp)
    if index.ndim != 2 or index.shape[1] == 0:
        raise ShapeError(f"gather_sum expects a tuple or a (k, c) index array, got shape "
                         f"{index.shape}")
    if index.size and index.max() >= size:
        raise IndexError(f"gather_sum index out of range for {size} rows")
    present = index >= 0
    picked = a.data[np.maximum(index, 0)]
    data = np.where(present[:, :1], picked[:, 0], 0.0)
    for column in range(1, index.shape[1]):
        data = np.where(present[:, column, None], data + picked[:, column], data)
    if not _tracked(a):
        return _const(data)
    pick_rows = np.nonzero(present)[0]

    def bwd(g):
        if a._grad is None:
            a._grad = np.zeros_like(a.data)
        np.add.at(a._grad, index[present], g[pick_rows])

    return _node(data, (a,), bwd)


def segment_max(a: Tensor, starts) -> Tensor:
    """Column-wise maximum over consecutive row segments of a 2-D tensor.

    Segment k spans rows ``starts[k]`` up to the next start (or the end);
    the result has one row per segment.  One ``argmax`` runs over the
    segments padded with ``-inf`` rows to the longest.  Gradient flows to
    each segment's argmax row, the first one on ties.
    """
    if a.data.ndim != 2:
        raise ShapeError(f"segment_max expects a 2-D tensor, got shape {a.data.shape}")
    starts = np.asarray(starts, dtype=np.intp)
    lengths = np.append(starts[1:], a.data.shape[0]) - starts
    if starts.size == 0 or starts[0] != 0 or np.any(lengths <= 0):
        raise ShapeError(f"segments must start at row 0 and be non-empty, got starts {starts}")
    offsets = np.arange(lengths.max())
    index = np.where(offsets < lengths[:, None], starts[:, None] + offsets, -1)  # -1: the pad
    padded = np.vstack([a.data, np.full(a.data.shape[1], -np.inf)])[index]
    arg = starts[:, None] + np.argmax(padded, axis=1)
    cols = np.arange(a.data.shape[1])
    data = a.data[arg, cols]
    if not _tracked(a):
        return _const(data)

    def bwd(g):
        if a._grad is None:
            a._grad = np.zeros_like(a.data)
        a._grad[arg, cols] += g

    return _node(data, (a,), bwd)


def _sig(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


# Numpy kernels shared by the fused ops below.  Each takes one vector or a
# matrix with one row per state; ``_linear`` is ``w·x`` for a vector and
# ``x·wᵀ`` for rows, as ``nn.linear`` computes it on tensors.

def _linear(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    return w @ x if x.ndim == 1 else x @ w.T


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.outer`` of two vectors, without its argument handling."""
    return a[:, None] * b


def _weight_grad(d: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Gradient of ``w`` in ``_linear(w, x)`` for upstream ``d``: one
    product over every row of a stack."""
    if d.ndim == 1:
        return _outer(d, x)
    if d.ndim > 2:
        d, x = d.reshape(-1, d.shape[-1]), x.reshape(-1, x.shape[-1])
    return d.T @ x


def _input_grad(w: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Gradient of ``x`` in ``_linear(w, x)`` for upstream ``d``."""
    return w.T @ d if d.ndim == 1 else d @ w


def _lstm_cell(xw, w_h, h, c, mask):
    """LSTM cell on arrays: ``(h_new, c_new, saved)``; ``saved`` holds
    what ``_lstm_cell_back`` needs, with the masked ``h`` first."""
    n = h.shape[-1]
    hm = h if mask is None else h * mask
    pre = xw + _linear(w_h, hm)
    # One logistic pass over all four gates (g's slice goes unused): an
    # elementwise result does not depend on the slice it is computed in.
    # Contiguous gate copies keep the elementwise passes here and in
    # ``_lstm_cell_back`` as fast as on the per-gate results.
    gates = _sig(pre)
    i = np.ascontiguousarray(gates[..., :n])
    f = np.ascontiguousarray(gates[..., n : 2 * n])
    o = np.ascontiguousarray(gates[..., 3 * n :])
    g = np.tanh(pre[..., 2 * n : 3 * n])
    c_new = f * c + i * g
    tc = np.tanh(c_new)
    return o * tc, c_new, (hm, c, i, f, g, o, tc)


def _lstm_cell_back(gh, gc_new, saved):
    """Backward of ``_lstm_cell`` for the gradients of ``h_new`` and
    ``c_new``: (for the pre-activation ``xw + w_h·hm``, for ``c``)."""
    hm, c, i, f, g, o, tc = saved
    gc = gc_new + gh * o * (1.0 - tc * tc)
    dpre = np.concatenate([gc * g * i * (1.0 - i), gc * c * f * (1.0 - f),
                           gc * i * (1.0 - g * g), gh * tc * o * (1.0 - o)], axis=-1)
    return dpre, gc * f


def _gru_cell(x_rz, x_n, u_rz, u_n, h, mask):
    """GRU cell on arrays: ``(h_new, saved)`` for ``_gru_cell_back``."""
    n = h.shape[-1]
    hm = h if mask is None else h * mask
    rz = _sig(x_rz + _linear(u_rz, hm))
    z = rz[..., n:]
    rh = rz[..., :n] * hm
    cand = np.tanh(x_n + _linear(u_n, rh))
    return z * h + (1.0 - z) * cand, (h, hm, rz, rh, cand)


def _gru_cell_back(grad, u_rz, u_n, saved, mask):
    """Backward of ``_gru_cell`` for the gradient of ``h_new``: (for
    ``x_rz``, for ``x_n``, for ``h``).  The recurrent weight gradients are
    ``drz``ᵀ·``hm`` and ``dn``ᵀ·``rh``, formed by the caller."""
    h, hm, rz, rh, cand = saved
    n = h.shape[-1]
    r, z = rz[..., :n], rz[..., n:]
    dn = grad * (1.0 - z) * (1.0 - cand * cand)
    drh = _input_grad(u_n, dn)
    drz = np.concatenate([drh * hm, grad * (h - cand)], axis=-1) * rz * (1.0 - rz)
    dhm = drh * r + _input_grad(u_rz, drz)
    return drz, dn, grad * z + (dhm if mask is None else dhm * mask)


def lstm_step(xw: Tensor, w_h: Tensor, h: Tensor, c: Tensor, mask=None) -> Tensor:
    """One fused LSTM step; returns the vector ``[h_new; c_new]``.

    ``xw`` is the input projection plus bias (gate order i, f, g, o), so
    only the recurrent product is computed here.  ``mask``, a constant
    array, scales ``h`` inside that product only: recurrent dropout leaves
    the cell state update a bounded combination of unscaled values.

    Row form: with ``xw``, ``h`` and ``c`` holding one row per state, every
    row steps independently and the result is one ``[h_new; c_new]`` row
    per state.
    """
    n, lead = h.data.shape[-1], h.data.shape[:-1]
    if (h.data.ndim > 2 or xw.data.shape != lead + (4 * n,) or w_h.data.shape != (4 * n, n)
            or c.data.shape != h.data.shape):
        raise ShapeError(f"lstm_step shapes disagree: xw {xw.data.shape}, w_h {w_h.data.shape}, "
                         f"h {h.data.shape}, c {c.data.shape}")
    h_new, c_new, saved = _lstm_cell(xw.data, w_h.data, h.data, c.data, mask)
    data = np.concatenate([h_new, c_new], axis=-1)
    if not _tracked(xw, w_h, h, c):
        return _const(data)

    def bwd(grad):
        dpre, dc = _lstm_cell_back(grad[..., :n], grad[..., n:], saved)
        if xw.requires_grad:
            xw._accum(dpre)
        if w_h.requires_grad:
            w_h._accum(_weight_grad(dpre, saved[0]))
        if h.requires_grad:
            dh = _input_grad(w_h.data, dpre)
            h._accum(dh if mask is None else dh * mask)
        if c.requires_grad:
            c._accum(dc)

    return _node(data, (xw, w_h, h, c), bwd)


def gru_step(x_rz: Tensor, x_n: Tensor, u_rz: Tensor, u_n: Tensor, h: Tensor, mask=None) -> Tensor:
    """One fused GRU step; returns the new hidden state.

    ``x_rz`` and ``x_n`` are the input projections plus biases of the
    reset/update gates and of the candidate.  ``mask``, a constant array,
    scales ``h`` inside the recurrent products only; the convex update
    keeps the raw ``h`` so the state does not grow by the keep-scale.

    Row form: with ``x_rz``, ``x_n`` and ``h`` holding one row per state,
    every row steps independently.
    """
    n, lead = h.data.shape[-1], h.data.shape[:-1]
    if (h.data.ndim > 2 or x_rz.data.shape != lead + (2 * n,) or x_n.data.shape != h.data.shape
            or u_rz.data.shape != (2 * n, n) or u_n.data.shape != (n, n)):
        raise ShapeError(f"gru_step shapes disagree: x_rz {x_rz.data.shape}, x_n {x_n.data.shape}, "
                         f"u_rz {u_rz.data.shape}, u_n {u_n.data.shape}, h {h.data.shape}")
    data, saved = _gru_cell(x_rz.data, x_n.data, u_rz.data, u_n.data, h.data, mask)
    if not _tracked(x_rz, x_n, u_rz, u_n, h):
        return _const(data)

    def bwd(grad):
        drz, dn, dh = _gru_cell_back(grad, u_rz.data, u_n.data, saved, mask)
        if x_rz.requires_grad:
            x_rz._accum(drz)
        if x_n.requires_grad:
            x_n._accum(dn)
        if u_rz.requires_grad:
            u_rz._accum(_weight_grad(drz, saved[1]))
        if u_n.requires_grad:
            u_n._accum(_weight_grad(dn, saved[3]))
        if h.requires_grad:
            h._accum(dh)

    return _node(data, (x_rz, x_n, u_rz, u_n, h), bwd)


class _Sequences:
    """The sequences of a sequence op, in the order their steps run.

    ``order`` is one visiting order (a permutation of 0..steps-1) or a list
    of B orders that together visit each row once.  The sequences are
    ranked longest first, ties in their given order (``rank``).  Step t of
    every sequence still running forms one wave.  ``waves`` holds, per
    wave, where its rows sit in ``to_steps``'s layout and how many leading
    state rows it advances.  A batch steps on (k, 1, n) stacks of rows, its
    waves' rows listed wave by wave in rank order, so that each row's
    products are stacked ones; a single sequence steps on plain vectors,
    whose products have the same bits, straight from its rows.
    """

    def __init__(self, order, steps: int, op: str):
        batch = len(order) > 0 and not isinstance(order[0], (int, np.integer))
        orders = [np.asarray(o, dtype=np.intp) for o in (order if batch else [order])]
        if sorted(np.concatenate(orders).tolist()) != list(range(steps)):
            raise ShapeError(f"{op} orders must visit each of the {steps} rows once, got {order}")
        self.single = len(orders) == 1
        if self.single:
            self.rank, self.waves = [0], [(row, None) for row in orders[0].tolist()]
            return
        lengths = [len(o) for o in orders]
        self.rank = sorted(range(len(orders)), key=lambda b: -lengths[b])
        index = np.full((max(lengths), len(orders)), -1, dtype=np.intp)
        for j, b in enumerate(self.rank):
            index[: lengths[b], j] = orders[b]
        self.rows = index[index >= 0]
        ends = np.cumsum(np.count_nonzero(index >= 0, axis=1)).tolist()
        self.waves = [(slice(a, b), b - a) for a, b in zip([0] + ends[:-1], ends)]

    def zeros(self, n: int) -> np.ndarray:
        """The zero state of every sequence."""
        return np.zeros(n) if self.single else np.zeros((len(self.rank), 1, n))

    def masks(self, mask, n: int):
        """Recurrent dropout masks laid out like ``zeros``: ``mask`` is one
        (n,) mask for every sequence, one row per sequence (B, n), or None."""
        if mask is None:
            return None
        mask = np.asarray(mask, dtype=np.float64)
        if mask.shape not in ((n,), (len(self.rank), n)):
            raise ShapeError(f"recurrent mask of shape {mask.shape} for {len(self.rank)} "
                             f"sequences of width {n}")
        if self.single:
            return mask.reshape(n)
        return np.broadcast_to(mask, (len(self.rank), n))[self.rank][:, None, :]

    def to_steps(self, a: np.ndarray) -> np.ndarray:
        """Rows of ``a`` laid out for the waves: ``a`` itself for a single
        sequence, its rows in wave order as (T, 1, width) for a batch."""
        return a if self.single else a[self.rows][:, None, :]

    def to_rows(self, stepped: np.ndarray) -> np.ndarray:
        """The inverse of ``to_steps``."""
        if self.single:
            return stepped
        out = np.empty((len(self.rows), stepped.shape[-1]))
        out[self.rows] = stepped[:, 0]
        return out


def lstm_seq(xw: Tensor, w_h: Tensor, order, mask=None) -> Tensor:
    """LSTM directions over whole sequences as one op; returns the (T, n)
    hidden states.

    ``xw`` holds the input projections plus bias of T timesteps, one row
    each.  ``order`` is one sequence's visiting order, a permutation of
    0..T-1 (reversed for a backward direction), or a list of B such orders
    that together visit every row once, one per sequence of a batch.  Each
    sequence starts from a zero state; row t of the result is the hidden
    state after the step on row t.  ``mask`` scales ``h`` inside the
    recurrent product, as in ``lstm_step``: one (n,) mask, one (B, n) row
    per sequence, or None.

    Step t of every sequence still running advances together, its
    recurrent product a stacked ``(B, 1, n) @ w_hᵀ``, so each row of the
    result is bit-equal to the same sequence run alone and to ``lstm_step``
    on it.  The backward pass runs backpropagation through time in one
    call, and forms the ``w_h`` gradient as one product of the gate
    gradients of every row with the masked states: a sum over the whole
    batch.
    """
    n = w_h.data.shape[-1]
    if xw.data.ndim != 2 or xw.data.shape[1] != 4 * n or w_h.data.shape != (4 * n, n):
        raise ShapeError(f"lstm_seq shapes disagree: xw {xw.data.shape}, w_h {w_h.data.shape}")
    steps = xw.data.shape[0]
    seqs = _Sequences(order, steps, "lstm_seq")
    masks = seqs.masks(mask, n)
    tracked = _tracked(xw, w_h)
    xs = seqs.to_steps(xw.data)
    lead = xs.shape[:-1]
    hs = np.empty(lead + (n,))
    saved = []
    h = c = seqs.zeros(n)
    for at, k in seqs.waves:
        h, c, cell = _lstm_cell(xs[at], w_h.data, h[:k], c[:k],
                                None if masks is None else masks[:k])
        hs[at] = h
        if tracked:
            saved.append(cell)
    data = seqs.to_rows(hs)
    if not tracked:
        return _const(data)

    def bwd(grad):
        gs = seqs.to_steps(grad)
        dpres, hms = np.empty(lead + (4 * n,)), np.empty(lead + (n,))
        dh, dc = seqs.zeros(n), seqs.zeros(n)
        for (at, k), cell in zip(reversed(seqs.waves), reversed(saved)):
            dpres[at], dc[:k] = _lstm_cell_back(gs[at] + dh[:k], dc[:k], cell)
            hms[at] = cell[0]
            dh[:k] = _input_grad(w_h.data, dpres[at])
            if masks is not None:
                dh[:k] *= masks[:k]
        dpre = seqs.to_rows(dpres)
        if xw.requires_grad:
            xw._accum(dpre)
        if w_h.requires_grad:
            w_h._accum(dpre.T @ seqs.to_rows(hms))

    return _node(data, (xw, w_h), bwd)


def gru_seq(x_rz: Tensor, x_n: Tensor, u_rz: Tensor, u_n: Tensor, order, mask=None) -> Tensor:
    """GRU directions over whole sequences as one op; returns the (T, n)
    hidden states.

    ``x_rz`` and ``x_n`` hold the gate and candidate input projections plus
    biases of T timesteps, one row each.  Runs like ``lstm_seq``: ``order``
    names one sequence or a batch, each starts from a zero state, each step
    does the arithmetic of ``gru_step`` with stacked recurrent products, and
    the backward pass forms one product per recurrent weight over every row.
    """
    steps, n = len(x_n.data), u_n.data.shape[-1]
    if (x_rz.data.shape != (steps, 2 * n) or x_n.data.shape != (steps, n)
            or u_rz.data.shape != (2 * n, n) or u_n.data.shape != (n, n)):
        raise ShapeError(f"gru_seq shapes disagree: x_rz {x_rz.data.shape}, x_n {x_n.data.shape}, "
                         f"u_rz {u_rz.data.shape}, u_n {u_n.data.shape}")
    seqs = _Sequences(order, steps, "gru_seq")
    masks = seqs.masks(mask, n)
    tracked = _tracked(x_rz, x_n, u_rz, u_n)
    xs_rz, xs_n = seqs.to_steps(x_rz.data), seqs.to_steps(x_n.data)
    lead = xs_n.shape[:-1]
    hs = np.empty(lead + (n,))
    saved = []
    h = seqs.zeros(n)
    for at, k in seqs.waves:
        h, cell = _gru_cell(xs_rz[at], xs_n[at], u_rz.data, u_n.data, h[:k],
                            None if masks is None else masks[:k])
        hs[at] = h
        if tracked:
            saved.append(cell)
    data = seqs.to_rows(hs)
    if not tracked:
        return _const(data)

    def bwd(grad):
        gs = seqs.to_steps(grad)
        drzs = np.empty(lead + (2 * n,))
        dns, hms, rhs = np.empty(lead + (n,)), np.empty(lead + (n,)), np.empty(lead + (n,))
        dh = seqs.zeros(n)
        for (at, k), cell in zip(reversed(seqs.waves), reversed(saved)):
            drzs[at], dns[at], dh[:k] = _gru_cell_back(
                gs[at] + dh[:k], u_rz.data, u_n.data, cell, None if masks is None else masks[:k])
            hms[at], rhs[at] = cell[1], cell[3]
        drz, dn = seqs.to_rows(drzs), seqs.to_rows(dns)
        if x_rz.requires_grad:
            x_rz._accum(drz)
        if x_n.requires_grad:
            x_n._accum(dn)
        if u_rz.requires_grad:
            u_rz._accum(drz.T @ seqs.to_rows(hms))
        if u_n.requires_grad:
            u_n._accum(dn.T @ seqs.to_rows(rhs))

    return _node(data, (x_rz, x_n, u_rz, u_n), bwd)


def _fuse(p, q, s, w, fusion: str):
    """Hierarchical fusion on arrays: ``(fused, saved)`` for ``_fuse_back``.

    ``w`` holds the arrays ``(w_d, w_p, w_s, w_gd, w_gp, w_gs, b_g)``; ``p``,
    ``q`` and ``s`` are the temporal, parent and sibling states, each a
    vector or a stack of rows, broadcasting against each other.
    ``fuse_state`` documents the arithmetic.
    """
    w_d, w_p, w_s, w_gd, w_gp, w_gs, b_g = w
    combined = np.tanh(_linear(w_d, p) + _linear(w_p, q) + _linear(w_s, s))
    if fusion == "plain":
        return combined, (combined, None, None, None)
    pq = ps = None
    if fusion == "gate":
        raw = _linear(w_gd, p) + _linear(w_gp, q) + _linear(w_gs, s)
    else:
        pq, ps = p * q, p * s
        raw = _linear(w_gp, pq) + _linear(w_gs, ps)
    gate = _sig(raw + b_g)
    return gate * combined, (combined, gate, pq, ps)


def _fuse_back(grad, p, q, s, w, fusion: str, saved):
    """Backward of ``_fuse`` for the gradient of its output.

    Returns ``(d_prev, d_parent, d_sibling, pairs, d_gate)``: the input
    gradients, the ``(weight index, input, upstream)`` triples whose
    ``_weight_grad`` is each weight's gradient (a weight in two triples sums
    both), and the gate bias's upstream gradient (None under "plain").  An
    input broadcast against the others has its upstream summed back to its
    own shape.
    """
    combined, gate, pq, ps = saved
    if fusion == "plain":
        d_comb, d_gate = grad * (1.0 - combined * combined), None
    else:
        d_comb = grad * gate * (1.0 - combined * combined)
        d_gate = grad * combined * gate * (1.0 - gate)
    pairs = [(0, p, d_comb), (1, q, d_comb), (2, s, d_comb)]
    if fusion == "gate":
        pairs += [(3, p, d_gate), (4, q, d_gate), (5, s, d_gate)]
    elif fusion == "sgate":
        pairs += [(4, pq, d_gate), (5, ps, d_gate)]
    pairs = [(i, x, _unbroadcast(d, x.shape)) for i, x, d in pairs]
    dx = [_input_grad(w[i], d) for i, _, d in pairs]
    d_prev, d_parent, d_sibling = dx[:3]
    if fusion == "gate":
        d_prev, d_parent, d_sibling = d_prev + dx[3], d_parent + dx[4], d_sibling + dx[5]
    elif fusion == "sgate":
        d_prev = (d_prev + _unbroadcast(dx[3] * q, p.shape)
                  + _unbroadcast(dx[4] * s, p.shape))
        d_parent = d_parent + _unbroadcast(dx[3] * p, q.shape)
        d_sibling = d_sibling + _unbroadcast(dx[4] * p, s.shape)
    return d_prev, d_parent, d_sibling, pairs, d_gate


# The weights each fusion mode reads, picked from
# ``(w_d, w_p, w_s, w_gd, w_gp, w_gs, b_g)``.
_FUSION_WEIGHTS = {"plain": itemgetter(0, 1, 2), "gate": itemgetter(0, 1, 2, 3, 4, 5, 6),
                   "sgate": itemgetter(0, 1, 2, 4, 5, 6)}


def _fusion_weights(fusion: str, weights: tuple) -> tuple:
    """The weight tensors ``fusion`` reads; checks the mode and the shapes.

    Every decoding step calls this through ``fuse_state``, so the checks
    are spelled out rather than looped.
    """
    used = _FUSION_WEIGHTS.get(fusion)
    if used is None:
        raise ConfigError(f"unknown fusion mode {fusion!r}")
    w_d, w_p, w_s, w_gd, w_gp, w_gs, b_g = weights
    square = (w_d.data.shape[0],) * 2
    if (w_d.data.shape != square or w_p.data.shape != square or w_s.data.shape != square
            or w_gd.data.shape != square or w_gp.data.shape != square
            or w_gs.data.shape != square or b_g.data.shape != square[:1]):
        raise ShapeError(f"fusion weights disagree: {[w.data.shape for w in weights]}")
    return used(weights)


def _by_component(block: np.ndarray) -> np.ndarray:
    """A (C, h) or (k, C, h) state block as the (C, 1, h) or (C, k, h) view
    with the components on the leading axis."""
    return block[:, None] if block.ndim == 2 else block.swapaxes(0, 1)


def _by_state(stacked: np.ndarray, ndim: int) -> np.ndarray:
    """Inverse of ``_by_component`` for a block of ``ndim`` axes."""
    return stacked[:, 0] if ndim == 2 else stacked.swapaxes(0, 1)


def fuse_state(prev: Tensor, parent: Tensor, sibling: Tensor, w_d: Tensor, w_p: Tensor,
               w_s: Tensor, w_gd: Tensor, w_gp: Tensor, w_gs: Tensor, b_g: Tensor,
               fusion: str) -> Tensor:
    """Hierarchical fusion of decoder state blocks as one op.

    The combined state is ``tanh(W_d·prev + W_p·parent + W_s·sibling)``.
    Fusion "plain" returns it as is; "gate" multiplies it by
    ``σ(W_gd·prev + W_gp·parent + W_gs·sibling + b_g)`` and "sgate" by
    ``σ(W_gp·(prev∘parent) + W_gs·(prev∘sibling) + b_g)``.  ``w_gd`` is
    unused except under "gate", and no gate weight under "plain".

    Each of ``prev``, ``parent`` and ``sibling`` is a block of the C
    components of a decoder state: (C, h) for one state, or (k, C, h) for
    k states, one per row.  Every component goes through the same weights.
    A one-state block, such as the zero state, broadcasts against the rows
    of the others.  The products run on the blocks with their components
    stacked on a leading axis, ``(C, 1, h) @ Wᵀ`` for one state and
    ``(C, k, h) @ Wᵀ`` for k, so each component has the bits of its own
    product: the vector product ``W·x`` for one state, the row product
    ``X·Wᵀ`` of its k rows for k states.  The result is a block of the
    broadcast shape.
    """
    all_weights = (w_d, w_p, w_s, w_gd, w_gp, w_gs, b_g)
    weights = _fusion_weights(fusion, all_weights)
    h = w_d.data.shape[0]
    inputs = (prev, parent, sibling)
    p, q, s = prev.data, parent.data, sibling.data
    # Three equal well-formed shapes, as decoding passes, skip the full check.
    if ((p.shape != q.shape or q.shape != s.shape or p.ndim not in (2, 3) or p.shape[-1] != h)
            and (any(x.ndim not in (2, 3) or x.shape[-2:] != p.shape[-2:] for x in (p, q, s))
                 or p.shape[-1] != h or len({x.shape[0] for x in (p, q, s) if x.ndim == 3}) > 1)):
        raise ShapeError(f"fuse_state shapes disagree: states {[x.data.shape for x in inputs]}, "
                         f"weights {[w.data.shape for w in weights]}")
    ndim = max(p.ndim, q.ndim, s.ndim)
    w = (w_d.data, w_p.data, w_s.data, w_gd.data, w_gp.data, w_gs.data, b_g.data)
    p, q, s = _by_component(p), _by_component(q), _by_component(s)
    data, saved = _fuse(p, q, s, w, fusion)
    data = _by_state(data, ndim)
    if not _tracked(*inputs, *weights):
        return _const(data)

    def bwd(grad):
        *dx, pairs, d_gate = _fuse_back(_by_component(grad), p, q, s, w, fusion, saved)
        for i, x, d in pairs:
            if all_weights[i].requires_grad:
                all_weights[i]._accum(_weight_grad(d, x))
        if d_gate is not None and b_g.requires_grad:
            b_g._accum(_unbroadcast(d_gate, b_g.data.shape))
        for x, d in zip(inputs, dx):
            if x.requires_grad:
                x._accum(_by_state(d, x.data.ndim))

    return _node(data, inputs + weights, bwd)


def _lstm_layer(xp, rec, state):
    """An LSTM layer of ``hier_seq`` on arrays: its new (k, 2, h) block of
    (h, c) from the (k, 1, 4h) input projections ``xp``, ``rec`` = (w_h,)
    and the fused (k, 2, h) block."""
    h, c, saved = _lstm_cell(xp, rec[0], state[:, :1], state[:, 1:], None)
    return np.concatenate([h, c], axis=1), saved


def _lstm_layer_back(d_state, rec, saved):
    """Backward of ``_lstm_layer`` for its block's gradient: (for ``xp``,
    for the fused block)."""
    dpre, dc = _lstm_cell_back(d_state[:, :1], d_state[:, 1:], saved)
    return dpre, np.concatenate([_input_grad(rec[0], dpre), dc], axis=1)


def _gru_layer(xp, rec, state):
    """A GRU layer of ``hier_seq`` on arrays: its new (k, 1, h) block from
    the input projections ``xp`` = [x_rz; x_n], ``rec`` = (u_rz, u_n) and
    the fused block."""
    n = state.shape[-1]
    return _gru_cell(xp[..., : 2 * n], xp[..., 2 * n :], rec[0], rec[1], state, None)


def _gru_layer_back(d_state, rec, saved):
    """Backward of ``_gru_layer``: (for ``xp``, for the fused block)."""
    drz, dn, dh = _gru_cell_back(d_state, rec[0], rec[1], saved, None)
    return np.concatenate([drz, dn], axis=-1), dh


# What ``hier_seq`` varies by cell kind: a layer's weight sizes as multiples
# of the hidden size (one input weight, one bias and one recurrent weight
# each: LSTM (w_x, bias, w_h), GRU (w_rz, w_n, b_rz, b_n, u_rz, u_n)), the
# state components per layer, the layer's step and backward on arrays, and
# where in a step's saved cell the input of the second recurrent weight
# sits (GRU's r∘h; the first one's input is the fused h).
_SEQ_CELLS = {
    "lstm": ((4,), 2, _lstm_layer, _lstm_layer_back, None),
    "gru": ((2, 1), 1, _gru_layer, _gru_layer_back, 3),
}


def _project(ws, bs, x):
    """``x`` through each input weight of ``ws`` plus its bias, the results
    joined along the last axis."""
    if len(ws) == 1:
        return _linear(ws[0], x) + bs[0]
    return np.concatenate([_linear(w, x) + b for w, b in zip(ws, bs)], axis=-1)


def _project_back(ws, d):
    """Gradient of ``x`` in ``_project(ws, bs, x)`` for upstream ``d``."""
    grad, start = None, 0
    for w in ws:
        part = _input_grad(w, d[..., start : start + len(w)])
        grad = part if grad is None else grad + part
        start += len(w)
    return grad


def hier_seq(x: Tensor, cell: str, layers, fusion_weights, fusion: str, rows,
             keep=None, lengths=None) -> Tensor:
    """Teacher-forced hierarchical decoder passes as one op.

    Step t reads three rows of a state bank: its temporal predecessor, its
    parent and its sibling, ``rows[t]``.  Bank row 0 is the zero state and
    step t writes row t + 1, so ``rows[t]`` may name rows 0 to t only.  Each
    step fuses the three states by ``fuse_state``'s arithmetic, all C state
    components of a step as one (C, h) block, scales the result by
    ``keep[t]`` (row t of an (S, C, h) state dropout mask, or None), and runs
    the cell stack on it: by ``lstm_step``'s arithmetic for ``cell`` "lstm",
    where layer l takes components 2l and 2l+1 as its (h, c), or by
    ``gru_step``'s for "gru", where layer l takes component l as its h.
    ``x`` holds the S decoder inputs, one row per step.  ``layers`` lists
    each layer's weights, ``(w_x, bias, w_h)`` for an LSTM layer and
    ``(w_rz, w_n, b_rz, b_n, u_rz, u_n)`` for a GRU layer; every layer
    projects its input (``x`` for the first, the new h of the layer below
    for the others) inside the op.  ``fusion_weights`` is ``(w_d, w_p, w_s,
    w_gd, w_gp, w_gs, b_g)``.

    Batch form: ``lengths`` splits the S steps into B consecutive
    schedules, each numbering its own bank rows as above; their rows are
    offset into one bank whose row 0, the zero state, they share.  The op
    runs them as a wavefront: step t of every schedule still running
    advances together.  Its products are stacked per schedule (``(B, C, h)
    @ Wᵀ`` for the fusion, ``(B, 1, h) @ Wᵀ`` in the cells) and the first
    layer projects each schedule's inputs on their own, so every row of
    the result is bit-equal to its schedule run alone.

    Returns the (S, h) top hidden states, one row per step.  The backward
    pass runs backpropagation through the trees in one call, from the last
    wave back, and forms each weight's gradient as one product of stacked
    rows of every step at the end, as ``lstm_seq`` does through chains.
    """
    kind = _SEQ_CELLS.get(cell)
    if kind is None:
        raise ConfigError(f"unknown decoder cell {cell!r}")
    multiples, width, layer_step, layer_back, extra = kind
    parts = len(multiples)
    used = _fusion_weights(fusion, tuple(fusion_weights))
    fw = tuple(t.data for t in fusion_weights)
    depth, h = len(layers), fw[0].shape[0]
    sizes = [k * h for k in multiples]
    rows = np.asarray(rows, dtype=np.intp)
    steps, components = len(rows), width * depth
    lengths = np.array([steps] if lengths is None else lengths, dtype=np.intp)
    if (depth < 1 or x.data.ndim != 2 or x.data.shape[0] != steps or rows.shape != (steps, 3)
            or any([t.data.shape for t in layer]
                   != [(s, h if l else x.data.shape[1]) for s in sizes]
                   + [(s,) for s in sizes] + [(s, h) for s in sizes]
                   for l, layer in enumerate(layers))
            or (keep is not None and keep.shape != (steps, components, h))
            or lengths.ndim != 1 or lengths.sum() != steps or np.any(lengths < 0)):
        raise ShapeError(f"hier_seq shapes disagree: x {x.data.shape}, rows {rows.shape}, "
                         f"{cell} layers {[[t.data.shape for t in layer] for layer in layers]}, "
                         f"keep {None if keep is None else keep.shape}, lengths {lengths}")
    starts = np.cumsum(lengths) - lengths
    offset = np.repeat(starts, lengths)
    if steps and (rows.min() < 0 or np.any(rows.max(axis=1) > np.arange(steps) - offset)):
        raise IndexError("hier_seq rows must name the zero row or an earlier step")
    bank_rows = np.where(rows > 0, rows + offset[:, None], 0)
    ranked = starts[np.argsort(-lengths, kind="stable")]
    waves = [ranked[: np.count_nonzero(lengths > t)] + t for t in range(lengths.max(initial=0))]
    tensors = [x] + [t for layer in layers for t in layer] + list(used)
    tracked = _tracked(*tensors)
    # Per layer: the input weights, the biases and the recurrent weights.
    arrays = [tuple(tuple(t.data for t in layer[i * parts : (i + 1) * parts]) for i in range(3))
              for layer in layers]
    xp = np.concatenate([_project(*arrays[0][:2], x.data[a : a + n])
                         for a, n in zip(starts, lengths) if n]
                        or [np.empty((0, sum(sizes)))])
    bank = np.zeros((steps + 1, components, h))
    fused = np.empty((steps, components, h))  # each step's cell states after dropout
    extras = np.empty((depth, steps, h)) if extra is not None and tracked else None
    saved = []
    for wave in waves:
        p, q, s = (bank[bank_rows[wave, col]] for col in range(3))
        block_in, fuse_saved = _fuse(p, q, s, fw, fusion)
        if keep is not None:
            block_in = block_in * keep[wave]
        fused[wave] = block_in
        inp, cell_saved = xp[wave][:, None, :], []
        for l, (w_in, b_in, rec) in enumerate(arrays):
            if l:
                inp = _project(w_in, b_in, inp)
            block = slice(width * l, width * (l + 1))
            state, saved_cell = layer_step(inp, rec, block_in[:, block])
            bank[wave + 1, block] = state
            inp = state[:, :1]
            cell_saved.append(saved_cell)
            if extras is not None:
                extras[l, wave] = saved_cell[extra][:, 0]
        if tracked:
            saved.append((p, q, s, fuse_saved, cell_saved))
    data = bank[1:, components - width].copy()
    if not tracked:
        return _const(data)

    def bwd(grad):
        d_bank = np.zeros_like(bank)
        d_bank[1:, components - width] = grad
        dproj = np.empty((depth, steps, sum(sizes)))
        pairs = {}
        d_gates = []
        for wave, (p, q, s, fuse_saved, cell_saved) in zip(reversed(waves), reversed(saved)):
            d_state = d_bank[wave + 1]
            d_fused = np.empty_like(d_state)
            d_below = 0.0
            for l in reversed(range(depth)):
                block = slice(width * l, width * (l + 1))
                d_state[:, width * l : width * l + 1] += d_below
                dp, d_fused[:, block] = layer_back(d_state[:, block], arrays[l][2], cell_saved[l])
                dproj[l, wave] = dp[:, 0]
                if l:
                    d_below = _project_back(arrays[l][0], dp)
            if keep is not None:
                d_fused *= keep[wave]
            d_prev, d_parent, d_sibling, step_pairs, d_gate = _fuse_back(
                d_fused, p, q, s, fw, fusion, fuse_saved)
            # Schedules share only row 0, whose gradient is never read.
            for col, d in enumerate((d_prev, d_parent, d_sibling)):
                d_bank[bank_rows[wave, col]] += d
            for i, inp, d in step_pairs:
                pairs.setdefault(i, []).append((inp.reshape(-1, h), d.reshape(-1, h)))
            if d_gate is not None:
                d_gates.append(d_gate.reshape(-1, h))
        for i, terms in pairs.items():
            if fusion_weights[i].requires_grad:
                inputs = np.concatenate([inp for inp, _ in terms])
                fusion_weights[i]._accum(np.concatenate([d for _, d in terms]).T @ inputs)
        if d_gates and fusion_weights[6].requires_grad:
            fusion_weights[6]._accum(np.concatenate(d_gates).sum(axis=0))
        bounds = [sum(sizes[:k]) for k in range(1, parts)]
        for l, layer in enumerate(layers):
            below = x.data if l == 0 else bank[1:, width * (l - 1)]
            recurrent = (fused[:, width * l],) + (() if extras is None else (extras[l],))
            for k, d in enumerate(np.split(dproj[l], bounds, axis=1)):
                w_in, b_in, w_rec = layer[k], layer[parts + k], layer[2 * parts + k]
                if w_in.requires_grad:
                    w_in._accum(d.T @ below)
                if b_in.requires_grad:
                    b_in._accum(d.sum(axis=0))
                if w_rec.requires_grad:
                    w_rec._accum(d.T @ recurrent[k])
        if x.requires_grad:
            x._accum(_project_back(arrays[0][0], dproj[0]))

    return _node(data, tuple(tensors), bwd)


def softmax(a: Tensor, mask=None) -> Tensor:
    """Masked, max-stabilized softmax over the last axis of a 1-D or 2-D
    tensor; a matrix is normalized row by row, each row under its own mask
    row.  Masked scores count as -inf, so they come out exactly zero; the
    remaining entries of each row sum to 1.
    """
    if a.data.ndim not in (1, 2):
        raise ShapeError(f"softmax expects a 1-D or 2-D tensor, got shape {a.data.shape}")
    scores = a.data
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != scores.shape:
            raise ShapeError(f"mask shape {mask.shape} does not match scores {scores.shape}")
        if not mask.any(axis=-1).all():
            raise MaskError("softmax mask excludes every position")
        scores = np.where(mask, scores, -np.inf)
    expd = np.exp(scores - scores.max(axis=-1, keepdims=True))
    data = expd / expd.sum(axis=-1, keepdims=True)
    if not _tracked(a):
        return _const(data)

    def bwd(g):
        if data.ndim == 1:
            inner = np.dot(g, data)
        else:
            inner = np.einsum("ij,ij->i", g, data)[:, None]
        a._accum(data * (g - inner))

    return _node(data, (a,), bwd)


def matvec_rows(a: Tensor, b: Tensor) -> Tensor:
    """Row-wise matrix-vector products: ``out[i] = a[i] @ b[i]`` for a
    (k, m, n) stack of matrices and a (k, n) matrix of vectors."""
    if a.data.ndim != 3 or b.data.ndim != 2 or a.data.shape[::2] != b.data.shape:
        raise ShapeError(f"matvec_rows needs (k, m, n) and (k, n), got {a.data.shape} "
                         f"and {b.data.shape}")
    data = np.matmul(a.data, b.data[:, :, None])[:, :, 0]
    if not _tracked(a, b):
        return _const(data)

    def bwd(g):
        if a.requires_grad:
            a._accum(g[:, :, None] * b.data[:, None, :])
        if b.requires_grad:
            b._accum(np.matmul(g[:, None, :], a.data)[:, 0, :])

    return _node(data, (a, b), bwd)


def cross_entropy(probabilities: Tensor, target) -> Tensor:
    """Negative log-probability ``-log p[target]`` of a distribution
    vector, as one op; the gradient reaches the target entry only.

    Row form: a (k, m) matrix of k distributions with a sequence of k
    targets, one per row, gives one node, the k row terms added left to
    right as ``sum_terms`` adds them.
    """
    p = probabilities.data
    if p.ndim == 1:
        if not 0 <= target < p.shape[0]:
            raise IndexError(f"target {target} out of range for length {p.shape[0]}")
        index = target
        data = np.asarray(-np.log(p[target]))
    elif p.ndim == 2:
        target = np.asarray(target, dtype=np.intp)
        if target.shape != (p.shape[0],) or not p.shape[0]:
            raise ShapeError(f"cross_entropy needs one target per row of {p.shape}, got "
                             f"shape {target.shape}")
        if target.min() < 0 or target.max() >= p.shape[1]:
            raise IndexError(f"targets out of range for rows of length {p.shape[1]}")
        index = (np.arange(p.shape[0]), target)
        data = np.asarray(np.cumsum(-np.log(p[index]))[-1])
    else:
        raise ShapeError(f"cross_entropy expects a 1-D or 2-D tensor, got shape {p.shape}")
    if not _tracked(probabilities):
        return _const(data)

    def bwd(g):
        if probabilities._grad is None:
            probabilities._grad = np.zeros_like(p)
        probabilities._grad[index] += -g / p[index]

    return _node(data, (probabilities,), bwd)


def keep_mask(shape, rate: float, rng) -> np.ndarray:
    """An inverted-dropout mask: 0 with probability ``rate``, else 1/(1-rate)."""
    return (rng.random(shape) >= rate) / (1.0 - rate)


def dropout(a: Tensor, rate: float, training: bool, rng) -> Tensor:
    """Inverted dropout: zero with probability ``rate``, scale survivors.

    Identity at inference or rate 0, so no rescaling is ever needed at
    prediction time.  Otherwise one ``keep_mask`` of ``a``'s shape is drawn
    from ``rng`` for the whole array, rows of a batch included.
    """
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return a
    keep = keep_mask(a.data.shape, rate, rng)
    data = a.data * keep
    if not _tracked(a):
        return _const(data)

    def bwd(g):
        a._accum(g * keep)

    return _node(data, (a,), bwd)


def backward(loss: Tensor):
    """Populate gradients of every tensor reachable from a scalar loss.

    Leaf gradients accumulate across calls.  An intermediate node's
    gradient lives only while the pass needs it: it starts empty and is
    released once the node's backward has run, so a batch's tape holds one
    gradient buffer per node only along the pass's frontier.
    """
    if loss.data.shape != ():
        raise ShapeError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    if not loss.requires_grad:
        return

    topo = []
    visited = set()
    work = [(loss, False)]
    while work:
        node, expanded = work.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        work.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in visited:
                work.append((parent, False))

    for node in topo:
        if node._bwd is not None:
            node._grad = None
    loss._accum(np.ones((), dtype=np.float64))
    for node in reversed(topo):
        if node._bwd is not None:
            node._bwd(node._grad)
            node._grad = None
