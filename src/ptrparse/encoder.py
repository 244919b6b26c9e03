"""Vocabularies and sentence encoders for both parsing tasks.

Both encoders return one state matrix.  The dependency encoder prepends an
artificial root symbol, so its (n+1, 2h) output has rows 0..n with row 0
the root.  The discourse encoder runs over tokens and returns one row per
EDU: the encoder state at the EDU's last token, picked by one ``gather``.
In training an encoder draws its dropout masks for a whole batch as it
runs: the embedding rows of every sentence, then the recurrent encoder's.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .errors import DataError, SegmentationError
from .nn import BiRecurrentEncoder, CharCnn, Embedding, Module

UNK = "<unk>"
ROOT = "<root>"
PAD = "<pad>"


class Vocab:
    """Immutable string-to-index mapping with optional unknown fallback."""

    def __init__(self, tokens):
        self.tokens = list(tokens)
        self.index = {t: i for i, t in enumerate(self.tokens)}
        if len(self.index) != len(self.tokens):
            raise DataError("vocabulary contains duplicate entries")
        self.unk_index = self.index.get(UNK)

    @classmethod
    def build(cls, items, specials=(UNK,)):
        seen = sorted(set(items) - set(specials))
        return cls(list(specials) + seen)

    def __len__(self):
        return len(self.tokens)

    def __contains__(self, token):
        return token in self.index

    def __getitem__(self, token) -> int:
        hit = self.index.get(token)
        if hit is not None:
            return hit
        if self.unk_index is None:
            raise KeyError(f"{token!r} not in vocabulary and no unknown entry exists")
        return self.unk_index


class DepEncoder(Module):
    """Char-CNN + word + POS embeddings feeding a bidirectional LSTM stack."""

    def __init__(self, word_vocab: Vocab, pos_vocab: Vocab, char_vocab: Vocab, rng,
                 word_dim=100, pos_dim=100, char_dim=100, char_filters=50, char_window=3,
                 hidden_dim=512, layers=3, embed_dropout=0.33, recurrent_dropout=0.33,
                 layer_dropout=0.33):
        self.word_vocab = word_vocab
        self.pos_vocab = pos_vocab
        self.char_vocab = char_vocab
        self.word_emb = Embedding(len(word_vocab), word_dim, rng, unk_index=word_vocab.unk_index)
        self.pos_emb = Embedding(len(pos_vocab), pos_dim, rng, unk_index=pos_vocab.unk_index)
        self.char_cnn = CharCnn(len(char_vocab), char_dim, char_filters, char_window,
                                pad_index=char_vocab.index[PAD], rng=rng,
                                unk_index=char_vocab.unk_index)
        input_dim = word_dim + pos_dim + char_filters
        self.encoder = BiRecurrentEncoder("lstm", layers, input_dim, hidden_dim, rng,
                                          recurrent_dropout=recurrent_dropout,
                                          layer_dropout=layer_dropout)
        self.embed_dropout = embed_dropout

    @property
    def out_dim(self):
        return self.encoder.out_dim

    def encode(self, tokens, training=False, rng=None) -> ad.Tensor:
        """The (n+1, out_dim) state matrix of a sentence of n tokens; row 0 is the root.

        Batch form: a list of sentences gives one matrix holding each
        sentence's n+1 rows in turn, from one char CNN call, one embedding
        lookup per table and one recurrent encoder call.  In training the
        embedding dropout mask covers every input row of the batch at once,
        and the recurrent encoder then draws its masks (see
        ``BiRecurrentEncoder.encode``).
        """
        batch = len(tokens) > 0 and isinstance(tokens[0], (list, tuple))
        sentences = tokens if batch else [tokens]
        forms, tags, chars = [], [], []
        for sentence in sentences:
            if not sentence:
                raise DataError("cannot encode an empty sentence")
            words = [ROOT] + [token.form for token in sentence]
            if "" in words:
                raise DataError(f"token {words.index('')} has an empty FORM")
            forms += words
            tags += [ROOT] + [token.upos for token in sentence]
            chars += [(ROOT,)] + [token.chars for token in sentence]
        inputs = ad.hconcat([
            self.char_cnn([[self.char_vocab[c] for c in word] for word in chars]),
            self.word_emb.rows([self.word_vocab[f] for f in forms]),
            self.pos_emb.rows([self.pos_vocab[t] for t in tags])])
        inputs = ad.dropout(inputs, self.embed_dropout, training, rng)
        return self.encoder.encode(inputs, training=training, rng=rng,
                                   lengths=[len(sentence) + 1 for sentence in sentences])


def check_segmentation(n_tokens: int, ends) -> list:
    """Validate EDU end positions: a list, tuple or array of integers (not
    ``bool``), strictly increasing, covering all tokens."""
    if not isinstance(ends, (list, tuple, np.ndarray)) or any(
            isinstance(e, bool) or not isinstance(e, (int, np.integer)) for e in ends):
        raise SegmentationError(f"EDU ends must be a sequence of integers, got {ends!r}")
    ends = [int(e) for e in ends]
    if not ends:
        raise SegmentationError("sentence has no EDUs")
    previous = 0
    for e in ends:
        if e <= previous:
            raise SegmentationError(f"EDU boundaries must be strictly increasing, got {ends}")
        previous = e
    if ends[-1] != n_tokens:
        raise SegmentationError(f"last EDU ends at token {ends[-1]} but sentence has {n_tokens} tokens")
    return ends


class RstEncoder(Module):
    """Word embeddings feeding a bidirectional GRU stack; an EDU is the state
    at its last token."""

    def __init__(self, word_vocab: Vocab, rng, word_dim=1024, hidden_dim=64, layers=5,
                 embed_dropout=0.5, encoder_dropout=0.4):
        self.word_vocab = word_vocab
        self.word_emb = Embedding(len(word_vocab), word_dim, rng, unk_index=word_vocab.unk_index)
        self.encoder = BiRecurrentEncoder("gru", layers, word_dim, hidden_dim, rng,
                                          recurrent_dropout=encoder_dropout,
                                          layer_dropout=encoder_dropout)
        self.embed_dropout = embed_dropout

    @property
    def out_dim(self):
        return self.encoder.out_dim

    def encode(self, words, ends, training=False, rng=None) -> ad.Tensor:
        """The (m, out_dim) matrix of m EDUs: row e is token state ``ends[e]-1``.

        Batch form: lists of word lists and of end lists give one matrix
        holding each sentence's EDU rows in turn, from one embedding lookup
        and one recurrent encoder call.  In training the embedding dropout
        mask covers every word of the batch at once, and the recurrent
        encoder then draws its masks (see ``BiRecurrentEncoder.encode``).
        """
        batch = len(words) > 0 and isinstance(words[0], (list, tuple))
        sentences, segmentations = (words, ends) if batch else ([words], [ends])
        rows, start = [], 0
        for sentence, sentence_ends in zip(sentences, segmentations):
            if not sentence:
                raise DataError("cannot encode an empty sentence")
            rows += [start + e - 1 for e in check_segmentation(len(sentence), sentence_ends)]
            start += len(sentence)
        inputs = ad.dropout(self.word_emb.rows([self.word_vocab[w] for s in sentences for w in s]),
                            self.embed_dropout, training, rng)
        states = self.encoder.encode(inputs, training=training, rng=rng,
                                     lengths=[len(sentence) for sentence in sentences])
        return ad.gather(states, rows)
