"""Hierarchical decoder: stack frames, state fusion, and the recurrent step.

Every decode or teacher-forced pass walks a stack of frames.  A frame is
a plain tuple ``(element, parent, sibling, parent_row, sibling_row)``:
the element to expand (a word index for dependencies, an EDU span for
discourse), the encoder indices of its parent and of its nearest
generated sibling (-1 when absent), and the rows of a state bank that
hold the decoder states produced when that parent and that sibling were
generated.  The bank is one float array of shape (rows, C, hidden)
holding a sentence's decoder states in step order, C state components
each; row 0 is the zero state, which stands for an absent parent or
sibling, and each step writes its own state to the next row.  A frame's
decoder input is ``autodiff.gather_sum`` of the encoder matrix at
(element, parent, sibling).  ``dep._rounds``, which runs beam search and
batched decoding, keeps the five fields as integer columns, one row per
hypothesis of each sentence, so one ``gather_sum`` serves all its rows.

Before every step, the parent and sibling states and the temporal
predecessor (the bank's latest row) are fused into the hidden state that
drives the recurrent cell.  Structural variants drop components by
zeroing them, so all variants share one code path:

  - "p"   keeps the parent state only,
  - "ps"  keeps parent and sibling,
  - "pst" keeps parent, sibling, and the temporal predecessor.

Fusion modes: "plain" uses the combined state as is, "gate" multiplies it
by a sigmoid gate over the three raw states, "sgate" gates with products
of the temporal state with the parent and sibling states.

The decoder runs in two forms over the same weights and numpy kernels.
Decoding calls ``fuse`` and ``step`` once per decision round, because
each step's frame depends on the decision before it.  They take state
blocks read straight from the bank, one state (C, hidden) or k states
(k, C, hidden), one per hypothesis of each sentence of a batched or beam
decode, and advance each row on its own: ``fuse`` runs one
``autodiff.fuse_state`` op over all C components, and ``step`` returns
the new state as a block to be written back, with its top hidden
``d``, the vector the pointer reads.  ``d`` is bit for bit component
``HierDecoder.top`` of that block (the top layer's h), so once the bank
holds a step's state it also holds its ``d``: dependency decoding labels
a finished tree from the bank rows of its attach steps, in one labeler
call, instead of labeling inside the round loop.  Teacher forcing knows
every frame before the decoder runs, so ``run_schedule`` takes the
frames of every step at once (2n+1 for a dependency sentence, one per
pointed span for a discourse sentence), for one sentence or for every
sentence of a training batch, and runs the whole pass as one
``autodiff.hier_seq`` op, for LSTM and GRU cells alike.
In a batch each sentence keeps its own bank rows; the op offsets them into
one bank whose zero row all sentences share, and advances step t of every
sentence together.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError
from .nn import GruCell, LstmCell, Module, glorot

VARIANTS = ("p", "ps", "pst")
FUSIONS = ("gate", "sgate", "plain")


class HierDecoder(Module):
    """Stacked recurrent decoder cell with hierarchical state fusion.

    A decoder state has C components: (h, c) per layer for LSTM cells, h
    per layer for GRU cells.  ``fuse`` and ``step`` take and return a
    state as a block, (C, hidden) for one state or (k, C, hidden) for k
    states, one per row.  Fusion applies one shared set of weights to
    every component, as one ``fuse_state`` tape op over the block.  The
    tuple form, a tuple of C component tensors, is a thin adapter onto the
    block form.
    """

    def __init__(self, cell: str, layers: int, input_dim: int, hidden_dim: int,
                 variant: str, fusion: str, rng, state_dropout: float = 0.0):
        if variant not in VARIANTS:
            raise ConfigError(f"unknown decoder variant {variant!r}, expected one of {VARIANTS}")
        if fusion not in FUSIONS:
            raise ConfigError(f"unknown fusion mode {fusion!r}, expected one of {FUSIONS}")
        if cell not in ("lstm", "gru"):
            raise ConfigError(f"unknown decoder cell {cell!r}")
        if layers < 1:
            raise ConfigError(f"decoder needs at least one layer, got {layers}")
        make = LstmCell if cell == "lstm" else GruCell
        self.cells = []
        for layer in range(layers):
            in_dim = input_dim if layer == 0 else hidden_dim
            self.cells.append(make(in_dim, hidden_dim, rng))
        h = hidden_dim
        self.w_d = Tensor(glorot(rng, h, h, (h, h)), requires_grad=True)
        self.w_p = Tensor(glorot(rng, h, h, (h, h)), requires_grad=True)
        self.w_s = Tensor(glorot(rng, h, h, (h, h)), requires_grad=True)
        self.w_gd = Tensor(glorot(rng, h, h, (h, h)), requires_grad=True)
        self.w_gp = Tensor(glorot(rng, h, h, (h, h)), requires_grad=True)
        self.w_gs = Tensor(glorot(rng, h, h, (h, h)), requires_grad=True)
        self.b_g = Tensor(np.zeros(h), requires_grad=True)
        self.cell = cell
        self.layers = layers
        self.hidden_dim = hidden_dim
        self.variant = variant
        self.fusion = fusion
        self.state_dropout = state_dropout
        self._zero = Tensor(np.zeros((self.components, h)))

    @property
    def components(self) -> int:
        return self.layers * (2 if self.cell == "lstm" else 1)

    @property
    def top(self) -> int:
        """The component holding the top layer's h: a state block's
        ``[..., top, :]`` is bit for bit the top hidden ``step`` returns."""
        return self.components - (2 if self.cell == "lstm" else 1)

    def zero_state(self) -> tuple:
        """The zero state in tuple form (see ``fuse``)."""
        return tuple(ad.row(self._zero, i) for i in range(self.components))

    def fuse(self, prev, parent, sibling, training=False, rng=None):
        """Combine temporal, parent, and sibling states per the active variant.

        Each state is a block: (components, hidden) for one state, or
        (k, components, hidden) for k states, one per row, as read from a
        state bank.  An absent parent or sibling (None) counts as the zero
        state.  All components are fused by one ``autodiff.fuse_state`` op
        and then go through state dropout.  Row i of the result fuses row i
        of each input; a one-state block, such as the zero state, serves
        every row.

        Tuple form: states given as tuples of component vectors (or of
        (k, hidden) matrices) are joined into blocks, and the fused block
        is split back into such a tuple.
        """
        if isinstance(prev, tuple):
            blocks = (None if state is None else self._block(state)
                      for state in (prev, parent, sibling))
            return self._split(self.fuse(*blocks, training, rng))
        zero = self._zero
        prev = prev if self.variant == "pst" else zero
        parent = zero if parent is None else parent
        sibling = zero if self.variant == "p" or sibling is None else sibling
        fused = ad.fuse_state(prev, parent, sibling, self.w_d, self.w_p, self.w_s,
                              self.w_gd, self.w_gp, self.w_gs, self.b_g, self.fusion)
        keep = self.draw_keep(training, rng, fused.data.shape[:-2])
        return fused if keep is None else ad.dropout(fused, self.state_dropout, training, rng, keep)

    def draw_keep(self, training, rng, rows=()):
        """The state dropout mask ``fuse`` applies, (components, hidden) for
        one state or (*rows, components, hidden) for ``rows`` states; None
        when no dropout applies."""
        if not training or self.state_dropout == 0.0:
            return None
        return ad.keep_mask((*rows, self.components, self.hidden_dim), self.state_dropout, rng)

    def run_schedule(self, x: Tensor, frames: np.ndarray, keep=None, lengths=None) -> Tensor:
        """Every step of a teacher-forced pass as one op; returns the (S,
        hidden) top hidden states, one row per step.

        ``frames`` holds the S frame tuples in step order, one row each,
        and ``x`` their decoder inputs.  Step t reads bank row t as its
        temporal predecessor and writes row t + 1, so the bank rows named in
        the frames are the rows ``fuse`` would be handed.  ``keep`` stacks
        one ``draw_keep`` mask per step, (S, components, hidden), or is None
        for no dropout.  ``lengths`` splits the steps into the consecutive
        passes of a batch, each with its own bank rows, and runs them as
        one wavefront (``autodiff.hier_seq``).  LSTM and GRU cells run
        through the same op.
        """
        steps = len(frames)
        lengths = [steps] if lengths is None else lengths
        absent = np.zeros(steps, dtype=np.intp)
        prev = (np.concatenate([np.arange(n) for n in lengths]) if self.variant == "pst"
                else absent)
        sibling = absent if self.variant == "p" else frames[:, 4]
        if self.cell == "lstm":
            layers = [(c.w_x, c.bias, c.w_h) for c in self.cells]
        else:
            layers = [(c.w_rz, c.w_n, c.b_rz, c.b_n, c.u_rz, c.u_n) for c in self.cells]
        weights = (self.w_d, self.w_p, self.w_s, self.w_gd, self.w_gp, self.w_gs, self.b_g)
        return ad.hier_seq(x, self.cell, layers, weights, self.fusion,
                           np.stack([prev, frames[:, 3], sibling], axis=1), keep, lengths)

    def step(self, x: Tensor, fused):
        """Run the cell stack from a fused state block; returns (new_state,
        top_hidden).

        ``x`` is a vector for a one-state block, or a (k, input) matrix for
        k rows, each row stepping on its own.  The new state is a block of
        the fused block's shape, the layers' outputs side by side: (h, c)
        per layer for LSTM cells, h per layer for GRU cells.  Tuple form: a
        fused tuple (see ``fuse``) gives the new state as a tuple.
        """
        if isinstance(fused, tuple):
            state, top = self.step(x, self._block(fused))
            return self._split(state), top
        outputs, inp = [], x
        for layer, cell in enumerate(self.cells):
            if self.cell == "lstm":
                out = ad.lstm_step(cell.project(inp)[0], cell.w_h, ad.row(fused, 2 * layer),
                                   ad.row(fused, 2 * layer + 1))
                inp = ad.narrow(out, 0, self.hidden_dim)
            else:
                out = inp = cell.step(inp, ad.row(fused, layer))
            outputs.append(out)
        joined = outputs[0] if len(outputs) == 1 else ad.hconcat(outputs)
        return ad.reshape(joined, fused.data.shape), inp

    def _block(self, state: tuple) -> Tensor:
        """A tuple of components as one block."""
        lead = state[0].data.shape[:-1]
        return ad.reshape(ad.hconcat(list(state)), (*lead, self.components, self.hidden_dim))

    def _split(self, block: Tensor) -> tuple:
        """A block as a tuple of components."""
        return tuple(ad.row(block, i) for i in range(self.components))
