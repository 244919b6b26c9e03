"""Vocabularies and sentence encoders for both parsing tasks.

The dependency encoder prepends an artificial root symbol, so its output
states are indexed 0..n with 0 the root.  The discourse encoder runs over
tokens and exposes each EDU through the encoder state at the EDU's last
token; the EDU vector is that state object itself, not a copy.
"""

from __future__ import annotations

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


class EncodedSentence:
    """Encoder output for a dependency sentence; index 0 is the root state."""

    def __init__(self, states, n):
        self.states = states
        self.n = n
        self._matrix = None

    def matrix(self):
        if self._matrix is None:
            self._matrix = ad.stack(self.states)
        return self._matrix


class EncodedEdus:
    """Encoder output for a segmented sentence; EDU k is token_states[ends[k]-1]."""

    def __init__(self, token_states, edu_states, ends):
        self.token_states = token_states
        self.edu_states = edu_states
        self.ends = ends
        self.m = len(edu_states)
        self._matrix = None

    def matrix(self):
        if self._matrix is None:
            self._matrix = ad.stack(self.edu_states)
        return self._matrix


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

    def encode(self, tokens, training=False, rng=None) -> EncodedSentence:
        if not tokens:
            raise DataError("cannot encode an empty sentence")
        forms = [ROOT] + [token.form for token in tokens]
        tags = [ROOT] + [token.upos for token in tokens]
        chars = [(ROOT,)] + [token.chars for token in tokens]
        inputs = ad.hconcat([
            self.char_cnn([[self.char_vocab[c] for c in word] for word in chars]),
            self.word_emb.rows([self.word_vocab[f] for f in forms]),
            self.pos_emb.rows([self.pos_vocab[t] for t in tags])])
        inputs = ad.dropout(inputs, self.embed_dropout, training, rng)
        states = self.encoder.encode(inputs, training=training, rng=rng)
        return EncodedSentence(states, len(tokens))


def check_segmentation(n_tokens: int, ends) -> list:
    """Validate EDU end positions: strictly increasing, covering all tokens."""
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
    """Word embeddings feeding a bidirectional GRU stack; EDUs alias token states."""

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

    def encode(self, words, ends, training=False, rng=None) -> EncodedEdus:
        if not words:
            raise DataError("cannot encode an empty sentence")
        ends = check_segmentation(len(words), ends)
        inputs = ad.dropout(self.word_emb.rows([self.word_vocab[w] for w in words]),
                            self.embed_dropout, training, rng)
        states = self.encoder.encode(inputs, training=training, rng=rng)
        edu_states = [states[e - 1] for e in ends]
        return EncodedEdus(states, edu_states, ends)
