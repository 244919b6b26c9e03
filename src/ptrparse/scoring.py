"""Pointer scoring and label classification heads.

The dependency pointer is a biaffine scorer between the decoder state and
every encoder state; the discourse pointer is a plain dot product between
the decoder state and candidate split representations.  Label classifiers
are per-label biaffines over the same kind of vector pair.

The dependency pointer and the labelers also take a matrix with one row
per beam hypothesis and answer with one row of scores or probabilities per
hypothesis, through the same weights and ops.
"""

from __future__ import annotations

import hashlib

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import DataError
from .nn import Biaffine, BiaffineLabeler, MlpElu, Module


class LabelSet:
    """Ordered label inventory with a content hash for checkpoint integrity."""

    def __init__(self, names):
        self.names = tuple(names)
        if len(set(self.names)) != len(self.names):
            raise DataError("label inventory contains duplicates")
        if not self.names:
            raise DataError("label inventory is empty")
        self.index = {name: i for i, name in enumerate(self.names)}

    @property
    def hash(self) -> str:
        digest = hashlib.sha256("\n".join(self.names).encode("utf-8"))
        return digest.hexdigest()

    @classmethod
    def from_file(cls, path):
        with open(path, encoding="utf-8") as handle:
            names = [line.strip() for line in handle if line.strip()]
        return cls(names)

    def to_file(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for name in self.names:
                handle.write(name + "\n")

    def __len__(self):
        return len(self.names)

    def __getitem__(self, name) -> int:
        hit = self.index.get(name)
        if hit is None:
            raise DataError(f"label {name!r} not in inventory")
        return hit

    def name(self, index: int) -> str:
        return self.names[index]


class AttentionResult:
    """Scores and masked probabilities over a contiguous range of positions.

    ``offset`` maps local vector indices to caller positions (word index or
    split point).  Masked positions carry probability exactly zero.  When
    the pointer attends from k decoder states at once, ``scores``,
    ``probs`` and ``mask`` hold one row per state; ``best``, ``prob`` and
    ``nll`` are for the single-state form.
    """

    def __init__(self, scores: Tensor, probs: Tensor, offset: int = 0, mask=None):
        self.scores = scores
        self.probs = probs
        self.offset = offset
        self.mask = mask

    def __len__(self):
        return self.probs.data.shape[0]

    def best(self) -> int:
        """Highest-probability position; ties break toward the lowest position."""
        return self.offset + int(np.argmax(self.probs.data))

    def prob(self, position: int) -> float:
        return float(self.probs.data[position - self.offset])

    def nll(self, position: int) -> Tensor:
        """Negative log-probability of choosing ``position``."""
        return ad.cross_entropy(self.probs, position - self.offset)


class BiaffinePointer(Module):
    """Biaffine attention over encoder states, with input-side ELU MLPs."""

    def __init__(self, state_dim: int, enc_dim: int, mlp_dim: int, rng, dropout: float = 0.33):
        self.g1 = MlpElu(state_dim, mlp_dim, rng)
        self.g2 = MlpElu(enc_dim, mlp_dim, rng)
        self.biaffine = Biaffine(mlp_dim, mlp_dim, rng)
        self.dropout = dropout

    def prepare(self, matrix: Tensor, training=False, rng=None) -> Tensor:
        """Precompute the encoder-side MLP for all positions of one sentence."""
        return ad.dropout(self.g2(matrix), self.dropout, training, rng)

    def attend(self, d: Tensor, prepared: Tensor, mask, training=False, rng=None) -> AttentionResult:
        """Attention from decoder state ``d`` over the prepared positions.

        Row form: a (k, state) matrix ``d`` with a (k, positions) ``mask``
        attends from each row under its own mask row.
        """
        g1 = ad.dropout(self.g1(d), self.dropout, training, rng)
        scores = self.biaffine.score_rows(g1, prepared)
        probs = _probabilities(scores, mask)
        return AttentionResult(scores, probs, offset=0, mask=mask)

    def score_pair(self, d: Tensor, h: Tensor) -> Tensor:
        """Raw biaffine score for one decoder-state / encoder-state pair."""
        return self.biaffine.score(self.g1(d), self.g2(h))


def dot_attend(matrix: Tensor, d: Tensor, row_start: int, row_stop: int,
               position_offset: int) -> AttentionResult:
    """Dot-product attention of ``d`` against rows [row_start, row_stop)."""
    candidates = ad.rows(matrix, row_start, row_stop)
    scores = ad.matmul(candidates, d)
    probs = ad.softmax(scores)
    return AttentionResult(scores, probs, offset=position_offset)


class PairLabeler(Module):
    """Distribution over labels for a vector pair, via per-label biaffines."""

    def __init__(self, left_dim: int, right_dim: int, mlp_dim: int, labels: int, rng,
                 dropout: float = 0.33):
        self.g1 = MlpElu(left_dim, mlp_dim, rng)
        self.g2 = MlpElu(right_dim, mlp_dim, rng)
        self.labeler = BiaffineLabeler(mlp_dim, mlp_dim, labels, rng)
        self.dropout = dropout

    def distribution(self, left: Tensor, right: Tensor, training=False, rng=None) -> Tensor:
        """Label probabilities for one pair, or one row per pair when
        ``left`` and ``right`` are matrices with a row per pair."""
        a = ad.dropout(self.g1(left), self.dropout, training, rng)
        b = ad.dropout(self.g2(right), self.dropout, training, rng)
        return _probabilities(self.labeler.scores(a, b))


def _probabilities(scores: Tensor, mask=None) -> Tensor:
    """Softmax of a score vector, or of every row of a score matrix."""
    if scores.data.ndim == 1:
        return ad.softmax(scores, mask)
    return ad.softmax_rows(scores, mask)
