"""Pointer scoring and label classification heads.

The dependency pointer is a biaffine scorer between the decoder state and
every encoder state; the discourse pointer is a plain dot product between
the decoder state and candidate split representations.  Label classifiers
are per-label biaffines over the same kind of vector pair.

Both pointers and the labelers also take a matrix with one row per decoder
state (a beam hypothesis, or a teacher-forced step) and answer with one row
of scores or probabilities per state, through the same weights and ops.
"""

from __future__ import annotations

import hashlib

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corpus import open_text
from .errors import DataError, ShapeError
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
        with open_text(path) as handle:
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
    ``probs`` and ``mask`` hold one row per state; ``len``, ``best``,
    ``prob`` and ``nll`` answer for a single state only and raise
    ``ShapeError`` on such a row-form result.
    """

    def __init__(self, scores: Tensor, probs: Tensor, offset: int = 0, mask=None):
        self.scores = scores
        self.probs = probs
        self.offset = offset
        self.mask = mask

    def _single(self, what: str) -> np.ndarray:
        if self.probs.data.ndim != 1:
            raise ShapeError(f"{what} needs a single-state attention result, got probabilities "
                             f"of shape {self.probs.data.shape}")
        return self.probs.data

    def __len__(self):
        return self._single("len").shape[0]

    def best(self) -> int:
        """Highest-probability position; ties break toward the lowest position."""
        return self.offset + int(np.argmax(self._single("best")))

    def prob(self, position: int) -> float:
        return float(self._single("prob")[position - self.offset])

    def nll(self, position: int) -> Tensor:
        """Negative log-probability of choosing ``position``."""
        self._single("nll")
        return ad.cross_entropy(self.probs, position - self.offset)


class BiaffinePointer(Module):
    """Biaffine attention over encoder states, with input-side ELU MLPs."""

    def __init__(self, state_dim: int, enc_dim: int, mlp_dim: int, rng, dropout: float = 0.33):
        self.g1 = MlpElu(state_dim, mlp_dim, rng)
        self.g2 = MlpElu(enc_dim, mlp_dim, rng)
        self.biaffine = Biaffine(mlp_dim, mlp_dim, rng)
        self.dropout = dropout

    def prepare(self, matrix: Tensor, training=False, rng=None, keep=None) -> Tensor:
        """Precompute the encoder-side MLP for all positions of a sentence,
        or of every sentence of a batch.  ``keep``, a mask from
        ``draw_keep`` with one row per position, replaces the draw."""
        return ad.dropout(self.g2(matrix), self.dropout, training, rng, keep)

    def draw_keep(self, training, rng, rows=()):
        """The dropout mask ``attend`` applies to ``g1``'s output for one
        decoder state, or for ``rows`` states (``prepare``'s for ``rows``
        positions); None when no dropout applies."""
        if not training or self.dropout == 0.0:
            return None
        return ad.keep_mask((*rows, self.g1.output_dim), self.dropout, rng)

    def attend(self, d: Tensor, prepared: Tensor, mask, training=False, rng=None,
               keep=None, index=None) -> AttentionResult:
        """Attention from decoder state ``d`` over the prepared positions.

        Row form: a (k, state) matrix ``d`` with a (k, positions) ``mask``
        attends from each row under its own mask row.  ``index``, a (k, c)
        array of prepared rows, gives each row its own c candidates (its
        sentence's positions within a batch, padded), and ``mask`` is then
        (k, c) over them.  ``keep``, masks from ``draw_keep`` drawn
        beforehand, replaces the draw.
        """
        if keep is None:
            keep = self.draw_keep(training, rng, d.data.shape[:-1])
        g1 = ad.dropout(self.g1(d), self.dropout, training, rng, keep)
        scores = self.biaffine.score_rows(g1, _candidates(prepared, index))
        probs = ad.softmax(scores, mask)
        return AttentionResult(scores, probs, offset=0, mask=mask)


def _candidates(matrix: Tensor, index) -> Tensor:
    """``matrix`` itself, or its rows at a (k, c) ``index`` as a (k, c, dim) stack."""
    if index is None:
        return matrix
    index = np.asarray(index, dtype=np.intp)
    return ad.reshape(ad.gather(matrix, index.ravel()), index.shape + (-1,))


def dot_attend(matrix: Tensor, d: Tensor, row_start: int = 0, row_stop: int = None,
               position_offset: int = 0, mask=None, index=None) -> AttentionResult:
    """Dot-product attention of ``d`` against rows [row_start, row_stop) of
    ``matrix`` (all rows when ``row_stop`` is None).

    Row form: an (S, dim) matrix ``d`` of decoder states with an (S, c)
    array ``index`` of rows of ``matrix`` scores each state against its own
    c rows (its sentence's EDUs within a batch, padded), and normalizes
    each row under its own (S, c) ``mask`` row.
    """
    if index is not None:
        scores = ad.matvec_rows(_candidates(matrix, index), d)
    else:
        if row_stop is not None:
            matrix = ad.rows(matrix, row_start, row_stop)
        scores = ad.matmul(matrix, d)
    probs = ad.softmax(scores, mask)
    return AttentionResult(scores, probs, offset=position_offset, mask=mask)


class PairLabeler(Module):
    """Distribution over labels for a vector pair, via per-label biaffines."""

    def __init__(self, left_dim: int, right_dim: int, mlp_dim: int, labels: int, rng,
                 dropout: float = 0.33):
        self.g1 = MlpElu(left_dim, mlp_dim, rng)
        self.g2 = MlpElu(right_dim, mlp_dim, rng)
        self.labeler = BiaffineLabeler(mlp_dim, mlp_dim, labels, rng)
        self.dropout = dropout

    def draw_keep(self, training, rng, rows=()):
        """The dropout masks ``distribution`` applies to ``g1``'s and then
        ``g2``'s output for one pair, or for ``rows`` pairs; (None, None)
        when no dropout applies."""
        if not training or self.dropout == 0.0:
            return None, None
        return tuple(ad.keep_mask((*rows, g.output_dim), self.dropout, rng)
                     for g in (self.g1, self.g2))

    def distribution(self, left: Tensor, right: Tensor, training=False, rng=None,
                     keep=None) -> Tensor:
        """Label probabilities for one pair, or one row per pair when
        ``left`` and ``right`` are matrices with a row per pair.  ``keep``,
        a pair of masks from ``draw_keep`` drawn beforehand, replaces the
        draw."""
        if keep is None:
            keep = self.draw_keep(training, rng, left.data.shape[:-1])
        a = ad.dropout(self.g1(left), self.dropout, training, rng, keep[0])
        b = ad.dropout(self.g2(right), self.dropout, training, rng, keep[1])
        return ad.softmax(self.labeler.scores(a, b))
