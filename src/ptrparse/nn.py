"""Neural building blocks: embeddings, char CNN, recurrent cells, MLPs, biaffines.

Everything is built from the autodiff ops and threads randomness through
explicit ``numpy.random.Generator`` arguments.  Layers take a single
vector, or one row matrix holding many of them: every token of a sentence
(char CNN words, encoder timesteps, pointer candidates), one decoder state
per beam hypothesis, or the tokens of every sentence of a training batch,
one sentence after another.  Each direction of an encoder layer is one
sequence-level tape op over all timesteps; given the sentences' lengths,
it runs every sentence of a batch in the same op, each from its own zero
state.  The encoder hands on its output as one state matrix.
"""

from __future__ import annotations

from itertools import chain

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
    every non-empty word yields a window (a shorter one is a ``ConfigError``).
    No activation follows the convolution; pooling is applied directly to
    the affine filter responses.  One word is a batch of one, and all words
    of a call share one window index array, one gather, one matmul and one
    ``segment_max``.
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
        such words into a matrix with one row per word.  The padded words
        lie end to end in one id array, from which one index array picks
        every window, word by word and left to right."""
        batched = len(char_ids) > 0 and not np.isscalar(char_ids[0])
        words = char_ids if batched else [char_ids]
        sizes = np.fromiter(map(len, words), dtype=np.intp, count=len(words)) + 2
        counts = sizes - self.window + 1
        if counts.min() < 1:
            raise ConfigError(f"a word of {sizes[counts < 1][0] - 2} chars is too short for "
                              f"window {self.window}")
        pad = self.pad_index
        ids = np.fromiter(chain.from_iterable((pad, *word, pad) for word in words),
                          dtype=np.intp, count=sizes.sum())
        starts = np.cumsum(counts) - counts
        shift = np.repeat(np.cumsum(sizes) - sizes - starts, counts)
        windows = ids[(shift + np.arange(counts.sum()))[:, None] + np.arange(self.window)]
        flat = ad.reshape(self.embedding.rows(windows.ravel()), (len(windows), -1))
        pooled = ad.segment_max(ad.add(ad.matmul(flat, self.filters), self.bias), starts)
        return pooled if batched else ad.reshape(pooled, (self.out_dim,))


def linear(w: Tensor, x: Tensor) -> Tensor:
    """``w·x`` for a vector ``x``, or ``x·wᵀ`` for every row of a matrix."""
    return ad.matmul(w, x) if x.data.ndim == 1 else ad.matmul(x, ad.transpose(w))


def _project(w: Tensor, x: Tensor, b: Tensor) -> Tensor:
    """``w·x + b`` for a vector ``x``, or ``x·wᵀ + b`` for every row of a matrix."""
    return ad.add(linear(w, x), b)


class LstmCell(Module):
    """Single LSTM cell; gate order i, f, g, o; forget bias initialized to 1.

    ``project`` applies the input weights and bias to one vector, or to all
    timesteps at once.  ``step`` runs one fused ``lstm_step`` on a state
    ``(h, c)`` (or on one state per row); ``run`` runs whole sequences of
    projected timesteps as one ``lstm_seq`` op.
    """

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

    def run(self, projected: tuple, order, mask=None) -> Tensor:
        """Hidden states of projected (T, 4h) timesteps visited in ``order``,
        one sequence or a batch of them (see ``autodiff.lstm_seq``)."""
        return ad.lstm_seq(projected[0], self.w_h, order, mask)

    def step(self, x: Tensor, h: Tensor, c: Tensor):
        """One step from input vector ``x``; returns ``(h_new, c_new)``.  With a
        row matrix ``x`` and states, each row is one independent step."""
        n = self.hidden_dim
        hc = ad.lstm_step(self.project(x)[0], self.w_h, h, c)
        return ad.narrow(hc, 0, n), ad.narrow(hc, n, 2 * n)


class GruCell(Module):
    """Single GRU cell; update gate z keeps the previous hidden state at z=1.

    Split like ``LstmCell``: ``project`` yields the gate and candidate
    input projections, ``step`` runs one fused ``gru_step`` and ``run``
    whole projected sequences as one ``gru_seq`` op.
    """

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

    def run(self, projected: tuple, order, mask=None) -> Tensor:
        """Hidden states of projected timesteps visited in ``order``, one
        sequence or a batch of them (see ``autodiff.gru_seq``)."""
        return ad.gru_seq(projected[0], projected[1], self.u_rz, self.u_n, order, mask)

    def step(self, x: Tensor, h: Tensor) -> Tensor:
        """One step from input vector ``x``; returns the new hidden state.  With a
        row matrix ``x`` and state, each row is one independent step."""
        x_rz, x_n = self.project(x)
        return ad.gru_step(x_rz, x_n, self.u_rz, self.u_n, h)


class BiRecurrentEncoder(Module):
    """Stacked bidirectional recurrent encoder (LSTM or GRU cells).

    Dropout is variational: one mask per sequence for each recurrent
    connection, and one mask per sequence between layers.  Each direction
    of a layer projects all its inputs in one matmul and then runs the
    whole recurrence of every sequence as one sequence-level tape op
    (``lstm_seq`` or ``gru_seq``), so the tape grows neither with the
    sentence length nor with the batch size.  The output is the last
    layer's (T, 2*hidden_dim) state matrix.
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

    def draw_keep(self, training, rng):
        """One sequence's dropout masks in the order ``encode`` applies them:
        per layer, the layer mask (None on the first layer), then the
        forward and backward recurrent masks; None when not training."""
        if not training:
            return None

        def draw(size, rate):
            return ad.keep_mask(size, rate, rng) if rate > 0.0 else None

        h = self.hidden_dim
        return [(draw(2 * h, self.layer_dropout) if layer else None,
                 draw(h, self.recurrent_dropout), draw(h, self.recurrent_dropout))
                for layer in range(len(self.forward_cells))]

    def encode(self, inputs, training: bool = False, rng=None, lengths=None, keep=None):
        """Map a (T, input_dim) matrix, or a list of T input vectors, to a
        (T, 2*hidden_dim) matrix with one state row per timestep.

        Batch form: ``lengths`` splits the T rows into consecutive
        sequences, each encoded on its own, and every direction of a layer
        runs them all as one sequence op.  ``keep`` holds one ``draw_keep``
        result per sequence, drawn beforehand; without it they are drawn
        sequence by sequence.
        """
        seq = inputs if isinstance(inputs, Tensor) else ad.stack(list(inputs))
        lengths = [seq.data.shape[0]] if lengths is None else list(lengths)
        if keep is None:
            keep = [self.draw_keep(training, rng) for _ in lengths]
        starts = np.cumsum(lengths) - lengths
        forward = [range(a, a + n) for a, n in zip(starts, lengths)]
        backward = [range(a + n - 1, a - 1, -1) for a, n in zip(starts, lengths)]
        for layer, (fw, bw) in enumerate(zip(self.forward_cells, self.backward_cells)):
            layer_mask, fw_mask, bw_mask = (
                None if keep[0] is None or keep[0][layer][i] is None
                else np.stack([masks[layer][i] for masks in keep]) for i in range(3))
            if layer_mask is not None:
                seq = ad.mul(seq, Tensor(np.repeat(layer_mask, lengths, axis=0)))
            left = fw.run(fw.project(seq), forward, fw_mask)
            right = bw.run(bw.project(seq), backward, bw_mask)
            seq = ad.hconcat([left, right])
        return seq


class MlpElu(Module):
    """Single dense layer with ELU activation; accepts vectors or row matrices."""

    def __init__(self, input_dim: int, output_dim: int, rng):
        self.weight = Tensor(glorot(rng, input_dim, output_dim, (input_dim, output_dim)),
                             requires_grad=True)
        self.bias = Tensor(np.zeros(output_dim), requires_grad=True)

    @property
    def output_dim(self) -> int:
        return self.bias.data.shape[0]

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
        one row of scores per left vector.  With a (k, c, dim) stack of
        rows, left vector i is scored against the c rows of stack entry i.
        """
        left = ad.matmul(a, self.w)
        if a.data.ndim == 1:
            bilinear = ad.matmul(rows_matrix, left)
            own = ad.matmul(self.u, a)
            theirs = ad.matmul(rows_matrix, self.v)
        else:
            own = ad.reshape(ad.matmul(a, self.u), (-1, 1))
            if rows_matrix.data.ndim == 2:
                bilinear = ad.matmul(left, ad.transpose(rows_matrix))
                theirs = ad.matmul(rows_matrix, self.v)
            else:
                bilinear = ad.matvec_rows(rows_matrix, left)
                flat = ad.reshape(rows_matrix, (-1, rows_matrix.data.shape[-1]))
                theirs = ad.reshape(ad.matmul(flat, self.v), rows_matrix.data.shape[:2])
        return ad.add(ad.add(bilinear, ad.add(own, theirs)), self.b)


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
