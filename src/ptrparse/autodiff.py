"""Dense float64 tensors with reverse-mode automatic differentiation.

The graph is built define-by-run: every differentiable operation records
its inputs and a backward closure on the output tensor.  ``backward`` on a
scalar loss walks the graph once in reverse topological order and
accumulates gradients into every reachable tensor that requires them.
Gradients accumulate across repeated ``backward`` calls until cleared.

Graph recording can be suspended with ``no_grad()`` for inference paths.
"""

from __future__ import annotations

import contextlib
import threading

import numpy as np

from .errors import MaskError, ShapeError

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

    # Arithmetic sugar; accepts plain numbers on either side.
    def __add__(self, other):
        return add(self, _wrap(other))

    def __radd__(self, other):
        return add(_wrap(other), self)

    def __sub__(self, other):
        return sub(self, _wrap(other))

    def __rsub__(self, other):
        return sub(_wrap(other), self)

    def __mul__(self, other):
        return mul(self, _wrap(other))

    def __rmul__(self, other):
        return mul(_wrap(other), self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


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


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b)
    data = a.data - b.data
    if not _tracked(a, b):
        return _const(data)

    def bwd(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accum(-_unbroadcast(g, b.data.shape))

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


def neg(a: Tensor) -> Tensor:
    data = -a.data
    if not _tracked(a):
        return _const(data)

    def bwd(g):
        a._accum(-g)

    return _node(data, (a,), bwd)


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
            ga, gb = np.outer(g, b.data), a.data.T @ g
        elif a.data.ndim == 1 and b.data.ndim == 2:
            ga, gb = b.data @ g, np.outer(a.data, g)
        else:
            ga, gb = g * b.data, g * a.data
        if a.requires_grad:
            a._accum(ga)
        if b.requires_grad:
            b._accum(gb)

    return _node(data, (a, b), bwd)


def tanh(a: Tensor) -> Tensor:
    data = np.tanh(a.data)
    if not _tracked(a):
        return _const(data)

    def bwd(g):
        a._accum(g * (1.0 - data * data))

    return _node(data, (a,), bwd)


def sigmoid(a: Tensor) -> Tensor:
    data = 1.0 / (1.0 + np.exp(-a.data))
    if not _tracked(a):
        return _const(data)

    def bwd(g):
        a._accum(g * data * (1.0 - data))

    return _node(data, (a,), bwd)


def elu(a: Tensor, alpha: float = 1.0) -> Tensor:
    positive = a.data > 0
    expm1 = alpha * np.expm1(np.minimum(a.data, 0.0))
    data = np.where(positive, a.data, expm1)
    if not _tracked(a):
        return _const(data)

    def bwd(g):
        a._accum(g * np.where(positive, 1.0, expm1 + alpha))

    return _node(data, (a,), bwd)


def exp(a: Tensor) -> Tensor:
    data = np.exp(a.data)
    if not _tracked(a):
        return _const(data)

    def bwd(g):
        a._accum(g * data)

    return _node(data, (a,), bwd)


def log(a: Tensor) -> Tensor:
    data = np.log(a.data)
    if not _tracked(a):
        return _const(data)

    def bwd(g):
        a._accum(g / a.data)

    return _node(data, (a,), bwd)


def tsum(a: Tensor) -> Tensor:
    """Sum of all elements, as a scalar tensor."""
    data = np.asarray(a.data.sum())
    if not _tracked(a):
        return _const(data)

    def bwd(g):
        a._accum(np.broadcast_to(g, a.data.shape))

    return _node(data, (a,), bwd)


def sum_terms(terms) -> Tensor:
    """Left-to-right sum of a list of tensors; a constant zero when empty."""
    if not terms:
        return Tensor(0.0)
    acc = terms[0]
    for t in terms[1:]:
        acc = add(acc, t)
    return acc


def concat(parts: list) -> Tensor:
    """Concatenate 1-D tensors into one vector."""
    for p in parts:
        if p.data.ndim != 1:
            raise ShapeError(f"concat expects 1-D tensors, got shape {p.data.shape}")
    return hconcat(parts)


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
    """Select one row of a 2-D tensor."""
    if a.data.ndim != 2:
        raise ShapeError(f"row expects a 2-D tensor, got shape {a.data.shape}")
    if index < 0:
        raise IndexError(f"negative row index {index}")
    data = a.data[index]
    if not _tracked(a):
        return _const(data)

    def bwd(g):
        if a._grad is None:
            a._grad = np.zeros_like(a.data)
        a._grad[index] += g

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


def pick(a: Tensor, index: int) -> Tensor:
    """Select one element of a 1-D tensor as a scalar."""
    if a.data.ndim != 1:
        raise ShapeError(f"pick expects a 1-D tensor, got shape {a.data.shape}")
    if not 0 <= index < a.data.shape[0]:
        raise IndexError(f"index {index} out of range for length {a.data.shape[0]}")
    data = np.asarray(a.data[index])
    if not _tracked(a):
        return _const(data)

    def bwd(g):
        if a._grad is None:
            a._grad = np.zeros_like(a.data)
        a._grad[index] += g

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


def _segment_max(a: Tensor, starts, shape: tuple) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError(f"segment max expects a 2-D tensor, got shape {a.data.shape}")
    starts = np.asarray(starts, dtype=np.intp)
    stops = np.append(starts[1:], a.data.shape[0])
    if starts.size == 0 or starts[0] != 0 or np.any(stops <= starts):
        raise ShapeError(f"segments must start at row 0 and be non-empty, got starts {starts}")
    arg = np.stack([starts[k] + np.argmax(a.data[starts[k] : stops[k]], axis=0)
                    for k in range(starts.size)])
    cols = np.arange(a.data.shape[1])
    data = a.data[arg, cols].reshape(shape)
    if not _tracked(a):
        return _const(data)

    def bwd(g):
        if a._grad is None:
            a._grad = np.zeros_like(a.data)
        a._grad[arg, cols] += g.reshape(arg.shape)

    return _node(data, (a,), bwd)


def segment_max(a: Tensor, starts) -> Tensor:
    """Column-wise maximum over consecutive row segments of a 2-D tensor.

    Segment k spans rows ``starts[k]`` up to the next start (or the end);
    the result has one row per segment.  Gradient flows to each segment's
    argmax row, the first one on ties.
    """
    return _segment_max(a, starts, (len(starts), a.data.shape[-1]))


def max_over_rows(a: Tensor) -> Tensor:
    """Column-wise maximum of a 2-D tensor: ``segment_max`` with one segment."""
    return _segment_max(a, [0], (a.data.shape[-1],))


def _sig(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def _recur_grads(w: Tensor, d: np.ndarray, hm: np.ndarray):
    """Gradients of the recurrent product ``w·h`` (one state) or ``H·wᵀ``
    (a row per state) for upstream ``d``: (for w, for hm)."""
    if d.ndim == 1:
        return np.outer(d, hm), w.data.T @ d
    return d.T @ hm, d @ w.data


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
    hm = h.data if mask is None else h.data * mask
    pre = xw.data + (w_h.data @ hm if hm.ndim == 1 else hm @ w_h.data.T)
    i, f, o = _sig(pre[..., :n]), _sig(pre[..., n : 2 * n]), _sig(pre[..., 3 * n :])
    g = np.tanh(pre[..., 2 * n : 3 * n])
    c_new = f * c.data + i * g
    tc = np.tanh(c_new)
    data = np.concatenate([o * tc, c_new], axis=-1)
    if not _tracked(xw, w_h, h, c):
        return _const(data)

    def bwd(grad):
        gh = grad[..., :n]
        gc = grad[..., n:] + gh * o * (1.0 - tc * tc)
        dpre = np.concatenate([gc * g * i * (1.0 - i), gc * c.data * f * (1.0 - f),
                               gc * i * (1.0 - g * g), gh * tc * o * (1.0 - o)], axis=-1)
        gw, dh = _recur_grads(w_h, dpre, hm)
        if xw.requires_grad:
            xw._accum(dpre)
        if w_h.requires_grad:
            w_h._accum(gw)
        if h.requires_grad:
            h._accum(dh if mask is None else dh * mask)
        if c.requires_grad:
            c._accum(gc * f)

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
    hm = h.data if mask is None else h.data * mask
    rz = _sig(x_rz.data + (u_rz.data @ hm if hm.ndim == 1 else hm @ u_rz.data.T))
    r, z = rz[..., :n], rz[..., n:]
    rh = r * hm
    cand = np.tanh(x_n.data + (u_n.data @ rh if rh.ndim == 1 else rh @ u_n.data.T))
    data = z * h.data + (1.0 - z) * cand
    if not _tracked(x_rz, x_n, u_rz, u_n, h):
        return _const(data)

    def bwd(grad):
        dn = grad * (1.0 - z) * (1.0 - cand * cand)
        gu_n, drh = _recur_grads(u_n, dn, rh)
        drz = np.concatenate([drh * hm, grad * (h.data - cand)], axis=-1) * rz * (1.0 - rz)
        gu_rz, dh_rz = _recur_grads(u_rz, drz, hm)
        if x_rz.requires_grad:
            x_rz._accum(drz)
        if x_n.requires_grad:
            x_n._accum(dn)
        if u_rz.requires_grad:
            u_rz._accum(gu_rz)
        if u_n.requires_grad:
            u_n._accum(gu_n)
        if h.requires_grad:
            dhm = drh * r + dh_rz
            h._accum(grad * z + (dhm if mask is None else dhm * mask))

    return _node(data, (x_rz, x_n, u_rz, u_n, h), bwd)


def _softmax(a: Tensor, mask) -> Tensor:
    """Masked, max-stabilized softmax over the last axis; masked scores
    count as -inf, so they come out exactly zero."""
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


def softmax(a: Tensor, mask=None) -> Tensor:
    """Masked, max-stabilized softmax over a 1-D tensor.

    Masked positions come out exactly zero; the remaining entries sum to 1.
    """
    if a.data.ndim != 1:
        raise ShapeError(f"softmax expects a 1-D tensor, got shape {a.data.shape}")
    return _softmax(a, mask)


def softmax_rows(a: Tensor, mask=None) -> Tensor:
    """``softmax`` of every row of a 2-D tensor, each row under its own mask row."""
    if a.data.ndim != 2:
        raise ShapeError(f"softmax_rows expects a 2-D tensor, got shape {a.data.shape}")
    return _softmax(a, mask)


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


def cross_entropy(probabilities: Tensor, target: int) -> Tensor:
    """Negative log-probability of ``target`` under a distribution vector."""
    return neg(log(pick(probabilities, target)))


def dropout(a: Tensor, rate: float, training: bool, rng) -> Tensor:
    """Inverted dropout: zero with probability ``rate``, scale survivors.

    Identity at inference or rate 0, so no rescaling is ever needed at
    prediction time.
    """
    from .errors import ConfigError

    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return a
    keep = (rng.random(a.data.shape) >= rate) / (1.0 - rate)
    data = a.data * keep
    if not _tracked(a):
        return _const(data)

    def bwd(g):
        a._accum(g * keep)

    return _node(data, (a,), bwd)


def backward(loss: Tensor):
    """Populate gradients of every tensor reachable from a scalar loss.

    Leaf gradients accumulate across calls; intermediate node gradients are
    reset per call so repeated backward passes stay consistent.
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
