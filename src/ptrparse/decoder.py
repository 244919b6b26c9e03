"""Hierarchical decoder: stack frames, state fusion, and the recurrent step.

Each stack frame tracks where its element's parent and immediate sibling
were generated in decoder time.  Before every step, those two states and
the temporal predecessor are fused into the hidden state that drives the
recurrent cell.  Structural variants drop components by zeroing them, so
all variants share one code path:

  - "p"   keeps the parent state only,
  - "ps"  keeps parent and sibling,
  - "pst" keeps parent, sibling, and the temporal predecessor.

Fusion modes: "plain" uses the combined state as is, "gate" multiplies it
by a sigmoid gate over the three raw states, "sgate" gates with products
of the temporal state with the parent and sibling states.

``fuse`` and ``step`` take one decoder state, or k states stacked as rows
(one per beam hypothesis) and advance each row on its own.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError
from .nn import GruCell, LstmCell, Module, glorot, linear

VARIANTS = ("p", "ps", "pst")
FUSIONS = ("gate", "sgate", "plain")


@dataclass(frozen=True)
class DecoderFrame:
    """One pending element on the decode stack.

    ``element`` is a word index or an EDU span (start, end).  The three
    index fields point into the encoder representation list used for the
    decoder input; ``parent_state``/``sibling_state`` are decoder states
    (tuples of component vectors, or None when absent) captured when the
    parent and the immediate sibling were generated.
    ``fills_sibling_below`` marks a frame whose expansion state must be
    written into the frame directly beneath it (its right sibling).

    Greedy decoding and teacher forcing keep these frames; the batched beam
    search in ``dep.decode_beam`` keeps the same fields in arrays, with
    states as row indices into a bank of decoder states.
    """

    element: object
    head_index: int
    parent_index: int = None
    sibling_index: int = None
    parent_state: tuple = None
    sibling_state: tuple = None
    fills_sibling_below: bool = False

    def with_sibling(self, state, index=None):
        if index is None:
            return replace(self, sibling_state=state)
        return replace(self, sibling_state=state, sibling_index=index)


def init_dep_stack(n: int):
    """Initial decode stack for a dependency sentence: the root frame alone."""
    if n < 1:
        raise ConfigError(f"sentence must have at least one word, got {n}")
    return [DecoderFrame(element=0, head_index=0)]


def partial_tree_features(frame: DecoderFrame, reps) -> Tensor:
    """Decoder input for a frame: its own encoder vector plus the parent's
    and the nearest generated sibling's, when those exist."""
    x = reps[frame.head_index]
    if frame.parent_index is not None:
        x = ad.add(x, reps[frame.parent_index])
    if frame.sibling_index is not None:
        x = ad.add(x, reps[frame.sibling_index])
    return x


class HierDecoder(Module):
    """Stacked recurrent decoder cell with hierarchical state fusion.

    The decoder state is a flat tuple of vectors: (h, c) per layer for LSTM
    cells, (h,) per layer for GRU cells.  Fusion is applied to every
    component with one shared set of weights.  In the row form each
    component is a (k, hidden) matrix holding k states, one per row.
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
        self._zero = Tensor(np.zeros(h))

    @property
    def components(self) -> int:
        return self.layers * (2 if self.cell == "lstm" else 1)

    def zero_state(self) -> tuple:
        return (self._zero,) * self.components

    def _fuse_component(self, prev: Tensor, parent: Tensor, sibling: Tensor) -> Tensor:
        combined = ad.tanh(ad.add(ad.add(linear(self.w_d, prev), linear(self.w_p, parent)),
                                  linear(self.w_s, sibling)))
        if self.fusion == "plain":
            return combined
        if self.fusion == "gate":
            raw = ad.add(ad.add(linear(self.w_gd, prev), linear(self.w_gp, parent)),
                         linear(self.w_gs, sibling))
        else:
            raw = ad.add(linear(self.w_gp, ad.mul(prev, parent)),
                         linear(self.w_gs, ad.mul(prev, sibling)))
        gate = ad.sigmoid(ad.add(raw, self.b_g))
        return ad.mul(gate, combined)

    def fuse(self, prev_state, parent_state, sibling_state, training=False, rng=None) -> tuple:
        """Combine temporal, parent, and sibling states per the active variant.

        Each state is a tuple of component vectors; an absent parent or
        sibling (None) counts as the zero state.  Row form: components are
        (k, hidden) matrices and row i of the result fuses row i of each
        input; a zero row stands for an absent state.
        """
        zeros = self.zero_state()
        prev = prev_state if self.variant == "pst" else zeros
        parent = parent_state if parent_state is not None else zeros
        if self.variant == "p" or sibling_state is None:
            sibling = zeros
        else:
            sibling = sibling_state
        fused = []
        for i in range(self.components):
            component = self._fuse_component(prev[i], parent[i], sibling[i])
            fused.append(ad.dropout(component, self.state_dropout, training, rng))
        return tuple(fused)

    def step(self, x: Tensor, fused_state: tuple):
        """Run the cell stack from a fused state; returns (new_state, top_hidden).

        Row form: a (k, input) matrix ``x`` with a row-form fused state
        steps k states at once; the new state and the top hidden state
        then hold one row per state.
        """
        new_state = []
        inp = x
        if self.cell == "lstm":
            for layer, cell in enumerate(self.cells):
                h, c = cell.step(inp, fused_state[2 * layer], fused_state[2 * layer + 1])
                new_state.extend((h, c))
                inp = h
        else:
            for layer, cell in enumerate(self.cells):
                h = cell.step(inp, fused_state[layer])
                new_state.append(h)
                inp = h
        return tuple(new_state), inp
