"""Neural building blocks: embeddings, char CNN, recurrent cells, MLPs, biaffines.

Everything is built from the autodiff ops and threads randomness through
explicit ``numpy.random.Generator`` arguments.  Layers work on one
sentence at a time: a single vector, or one row matrix holding every token
of the sentence (char CNN words, encoder timesteps, pointer candidates).
The recurrent cells, MLPs and biaffines also take a matrix with one row
per beam hypothesis, in place of a single decoder state, and treat each
row as that vector.  There is no batch dimension across sentences.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError


def glorot(rng, fan_in: int, fan_out: int, shape) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


class Module:
    """Base with recursive named-parameter discovery in attribute order."""

    def parameters(self):
        """Yield (name, tensor) pairs for all trainable tensors, depth-first."""
        for key, value in vars(self).items():
            yield from _walk(key, value)

    def snapshot(self) -> dict:
        """Copies of every parameter array, keyed by parameter name."""
        return {name: p.data.copy() for name, p in self.parameters()}

    def restore(self, snapshot: dict):
        """Write a ``snapshot`` back into the parameters in place."""
        for name, p in self.parameters():
            p.data[...] = snapshot[name]


def _walk(prefix, value):
    if isinstance(value, Tensor):
        if value.requires_grad:
            yield prefix, value
    elif isinstance(value, Module):
        for name, p in value.parameters():
            yield f"{prefix}.{name}", p
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            yield from _walk(f"{prefix}.{i}", item)


class Embedding(Module):
    """Lookup table of trainable row vectors."""

    def __init__(self, size: int, dim: int, rng, frozen: bool = False, unk_index=None):
        if size < 1 or dim < 1:
            raise ConfigError(f"embedding needs positive size and dim, got {size}x{dim}")
        self.weight = Tensor(rng.uniform(-0.1, 0.1, size=(size, dim)), requires_grad=not frozen)
        self.unk_index = unk_index

    @property
    def size(self):
        return self.weight.data.shape[0]

    @property
    def dim(self):
        return self.weight.data.shape[1]

    def _resolve(self, indices) -> np.ndarray:
        """Map indices past the table to the unknown row when there is one;
        the row ops reject whatever stays out of range."""
        indices = np.asarray(indices, dtype=np.intp)
        if self.unk_index is not None:
            indices = np.where(indices >= self.size, self.unk_index, indices)
        return indices

    def lookup(self, index: int) -> Tensor:
        return ad.row(self.weight, int(self._resolve(index)))

    def rows(self, indices) -> Tensor:
        """Look up many indices at once as a (len(indices), dim) matrix."""
        return ad.gather(self.weight, self._resolve(indices))


class CharCnn(Module):
    """Character convolution with max-over-time pooling.

    One pad symbol is added on each side, so with a window of at most three
    a word of any length yields at least one window.  No activation follows the convolution; pooling is
    applied directly to the affine filter responses.  All words of a
    sentence share one gather, one matmul and one segmented max.
    """

    def __init__(self, char_vocab_size: int, char_dim: int, filters: int, window: int,
                 pad_index: int, rng, unk_index=None):
        if window < 1:
            raise ConfigError(f"window must be positive, got {window}")
        self.embedding = Embedding(char_vocab_size, char_dim, rng, unk_index=unk_index)
        self.filters = Tensor(glorot(rng, window * char_dim, filters, (window * char_dim, filters)),
                              requires_grad=True)
        self.bias = Tensor(np.zeros(filters), requires_grad=True)
        self.window = window
        self.pad_index = pad_index

    @property
    def out_dim(self):
        return self.filters.data.shape[1]

    def __call__(self, char_ids) -> Tensor:
        """Pool one word (a sequence of char ids) into a vector, or a list of
        such words into a matrix with one row per word."""
        batched = len(char_ids) > 0 and not np.isscalar(char_ids[0])
        words = char_ids if batched else [char_ids]
        windows = []
        starts = []
        for word in words:
            padded = [self.pad_index] + list(word) + [self.pad_index]
            if len(padded) < self.window:
                raise ConfigError(f"a word of {len(padded) - 2} chars is too short for "
                                  f"window {self.window}")
            starts.append(len(windows))
            windows.extend(padded[i : i + self.window]
                           for i in range(len(padded) - self.window + 1))
        table = self.embedding.rows(np.concatenate(windows))
        flat = ad.reshape(table, (len(windows), self.window * self.embedding.dim))
        responses = ad.add(ad.matmul(flat, self.filters), self.bias)
        if batched:
            return ad.segment_max(responses, starts)
        return ad.max_over_rows(responses)


def linear(w: Tensor, x: Tensor) -> Tensor:
    """``w·x`` for a vector ``x``, or ``x·wᵀ`` for every row of a matrix."""
    return ad.matmul(w, x) if x.data.ndim == 1 else ad.matmul(x, ad.transpose(w))


def _project(w: Tensor, x: Tensor, b: Tensor) -> Tensor:
    """``w·x + b`` for a vector ``x``, or ``x·wᵀ + b`` for every row of a matrix."""
    return ad.add(linear(w, x), b)


class LstmCell(Module):
    """Single LSTM cell; gate order i, f, g, o; forget bias initialized to 1.

    A step is split in two: ``project`` applies the input weights and bias
    (to one vector, or to all timesteps of a sequence at once), and
    ``recur`` runs the fused ``lstm_step`` op on one projected row, or on
    one row per state.  The state is the pair ``(h, c)``.
    """

    state_size = 2

    def __init__(self, input_dim: int, hidden_dim: int, rng):
        h = hidden_dim
        self.w_x = Tensor(glorot(rng, input_dim, 4 * h, (4 * h, input_dim)), requires_grad=True)
        self.w_h = Tensor(glorot(rng, h, 4 * h, (4 * h, h)), requires_grad=True)
        bias = np.zeros(4 * h)
        bias[h : 2 * h] = 1.0
        self.bias = Tensor(bias, requires_grad=True)
        self.hidden_dim = h

    def project(self, x: Tensor) -> tuple:
        return (_project(self.w_x, x, self.bias),)

    def recur(self, projected: tuple, state: tuple, mask=None) -> tuple:
        n = self.hidden_dim
        hc = ad.lstm_step(projected[0], self.w_h, state[0], state[1], mask)
        return ad.narrow(hc, 0, n), ad.narrow(hc, n, 2 * n)

    def step(self, x: Tensor, h: Tensor, c: Tensor):
        """One step from input vector ``x``; returns ``(h_new, c_new)``.  With a
        row matrix ``x`` and states, each row is one independent step."""
        return self.recur(self.project(x), (h, c))


class GruCell(Module):
    """Single GRU cell; update gate z keeps the previous hidden state at z=1.

    Split like ``LstmCell``: ``project`` yields the gate and candidate
    input projections, ``recur`` runs the fused ``gru_step`` op.  The state
    is the 1-tuple ``(h,)``.
    """

    state_size = 1

    def __init__(self, input_dim: int, hidden_dim: int, rng):
        h = hidden_dim
        self.w_rz = Tensor(glorot(rng, input_dim, 2 * h, (2 * h, input_dim)), requires_grad=True)
        self.u_rz = Tensor(glorot(rng, h, 2 * h, (2 * h, h)), requires_grad=True)
        self.b_rz = Tensor(np.zeros(2 * h), requires_grad=True)
        self.w_n = Tensor(glorot(rng, input_dim, h, (h, input_dim)), requires_grad=True)
        self.u_n = Tensor(glorot(rng, h, h, (h, h)), requires_grad=True)
        self.b_n = Tensor(np.zeros(h), requires_grad=True)
        self.hidden_dim = h

    def project(self, x: Tensor) -> tuple:
        return _project(self.w_rz, x, self.b_rz), _project(self.w_n, x, self.b_n)

    def recur(self, projected: tuple, state: tuple, mask=None) -> tuple:
        return (ad.gru_step(projected[0], projected[1], self.u_rz, self.u_n, state[0], mask),)

    def step(self, x: Tensor, h: Tensor) -> Tensor:
        """One step from input vector ``x``; returns the new hidden state.  With a
        row matrix ``x`` and state, each row is one independent step."""
        return self.recur(self.project(x), (h,))[0]


def _keep_mask(dim: int, rate: float, rng) -> np.ndarray:
    return (rng.random(dim) >= rate) / (1.0 - rate)


class BiRecurrentEncoder(Module):
    """Stacked bidirectional recurrent encoder (LSTM or GRU cells).

    Dropout is variational: one mask per sequence for each recurrent
    connection, and one mask per sequence between layers.  Each direction
    projects all its inputs in one matmul before the recurrence starts.
    """

    def __init__(self, cell: str, layers: int, input_dim: int, hidden_dim: int, rng,
                 recurrent_dropout: float = 0.0, layer_dropout: float = 0.0):
        if cell not in ("lstm", "gru"):
            raise ConfigError(f"unknown encoder cell {cell!r}")
        if layers < 1:
            raise ConfigError(f"encoder needs at least one layer, got {layers}")
        make = LstmCell if cell == "lstm" else GruCell
        self.forward_cells = []
        self.backward_cells = []
        for layer in range(layers):
            in_dim = input_dim if layer == 0 else 2 * hidden_dim
            self.forward_cells.append(make(in_dim, hidden_dim, rng))
            self.backward_cells.append(make(in_dim, hidden_dim, rng))
        self.cell = cell
        self.hidden_dim = hidden_dim
        self.recurrent_dropout = recurrent_dropout
        self.layer_dropout = layer_dropout

    @property
    def out_dim(self):
        return 2 * self.hidden_dim

    def _run_direction(self, cell, inputs, order, training, rng):
        mask = None
        if training and self.recurrent_dropout > 0.0:
            mask = _keep_mask(self.hidden_dim, self.recurrent_dropout, rng)
        projected = cell.project(inputs)
        state = (Tensor(np.zeros(self.hidden_dim)),) * cell.state_size
        outputs = [None] * inputs.data.shape[0]
        for t in order:
            state = cell.recur(tuple(ad.row(p, t) for p in projected), state, mask)
            outputs[t] = state[0]
        return ad.stack(outputs)

    def encode(self, inputs, training: bool = False, rng=None):
        """Map a (T, input_dim) matrix, or a list of T input vectors, to a
        list of T state vectors of size 2*hidden_dim."""
        seq = inputs if isinstance(inputs, Tensor) else ad.stack(list(inputs))
        steps = seq.data.shape[0]
        for layer, (fw, bw) in enumerate(zip(self.forward_cells, self.backward_cells)):
            if layer > 0 and training and self.layer_dropout > 0.0:
                seq = ad.mul(seq, Tensor(_keep_mask(seq.data.shape[1], self.layer_dropout, rng)))
            left = self._run_direction(fw, seq, range(steps), training, rng)
            right = self._run_direction(bw, seq, range(steps - 1, -1, -1), training, rng)
            seq = ad.hconcat([left, right])
        return [ad.row(seq, t) for t in range(steps)]


class MlpElu(Module):
    """Single dense layer with ELU activation; accepts vectors or row matrices."""

    def __init__(self, input_dim: int, output_dim: int, rng):
        self.weight = Tensor(glorot(rng, input_dim, output_dim, (input_dim, output_dim)),
                             requires_grad=True)
        self.bias = Tensor(np.zeros(output_dim), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return ad.elu(ad.add(ad.matmul(x, self.weight), self.bias))


class Biaffine(Module):
    """Bilinear-plus-linear scorer over a pair of vectors.

    score(a, b) = a' W b  +  U . a  +  V . b  +  bias.
    """

    def __init__(self, left_dim: int, right_dim: int, rng):
        self.w = Tensor(glorot(rng, left_dim, right_dim, (left_dim, right_dim)), requires_grad=True)
        self.u = Tensor(np.zeros(left_dim), requires_grad=True)
        self.v = Tensor(np.zeros(right_dim), requires_grad=True)
        self.b = Tensor(np.zeros(()), requires_grad=True)

    def score(self, a: Tensor, b: Tensor) -> Tensor:
        bilinear = ad.matmul(ad.matmul(a, self.w), b)
        return ad.add(ad.add(ad.add(bilinear, ad.matmul(self.u, a)), ad.matmul(self.v, b)), self.b)

    def score_rows(self, a: Tensor, rows_matrix: Tensor) -> Tensor:
        """Score ``a`` against every row of a matrix at once; returns a vector.

        Row form: a matrix ``a`` of k left vectors gives a (k, rows) matrix,
        one row of scores per left vector.
        """
        left = ad.matmul(a, self.w)
        if a.data.ndim == 1:
            bilinear = ad.matmul(rows_matrix, left)
            own = ad.matmul(self.u, a)
        else:
            bilinear = ad.matmul(left, ad.transpose(rows_matrix))
            own = ad.reshape(ad.matmul(a, self.u), (-1, 1))
        linear_terms = ad.add(own, ad.matmul(rows_matrix, self.v))
        return ad.add(ad.add(bilinear, linear_terms), self.b)


class BiaffineLabeler(Module):
    """Per-label biaffine scores for a vector pair; returns one score per label.

    Row form: row i of ``a`` pairs with row i of ``b``, giving one row of
    label scores per pair.
    """

    def __init__(self, left_dim: int, right_dim: int, labels: int, rng):
        self.w = Tensor(glorot(rng, left_dim, labels * right_dim, (left_dim, labels * right_dim)),
                        requires_grad=True)
        self.u = Tensor(np.zeros((labels, left_dim)), requires_grad=True)
        self.v = Tensor(np.zeros((labels, right_dim)), requires_grad=True)
        self.b = Tensor(np.zeros(labels), requires_grad=True)
        self.labels = labels
        self.right_dim = right_dim

    def scores(self, a: Tensor, b: Tensor) -> Tensor:
        left = ad.matmul(a, self.w)
        if a.data.ndim == 1:
            bilinear = ad.matmul(ad.reshape(left, (self.labels, self.right_dim)), b)
        else:
            bilinear = ad.matvec_rows(ad.reshape(left, (-1, self.labels, self.right_dim)), b)
        linear_terms = ad.add(linear(self.u, a), linear(self.v, b))
        return ad.add(ad.add(bilinear, linear_terms), self.b)
