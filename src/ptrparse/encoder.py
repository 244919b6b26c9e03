"""Vocabularies and sentence encoders for both parsing tasks.

Both encoders return one state matrix.  The dependency encoder prepends an
artificial root symbol, so its (n+1, 2h) output has rows 0..n with row 0
the root.  The discourse encoder runs over tokens and returns one row per
EDU: the encoder state at the EDU's last token, picked by one ``gather``.
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
        """The (n+1, out_dim) state matrix of a sentence of n tokens; row 0 is the root."""
        if not tokens:
            raise DataError("cannot encode an empty sentence")
        forms = [ROOT] + [token.form for token in tokens]
        if "" in forms:
            raise DataError(f"token {forms.index('')} has an empty FORM")
        tags = [ROOT] + [token.upos for token in tokens]
        chars = [(ROOT,)] + [token.chars for token in tokens]
        inputs = ad.hconcat([
            self.char_cnn([[self.char_vocab[c] for c in word] for word in chars]),
            self.word_emb.rows([self.word_vocab[f] for f in forms]),
            self.pos_emb.rows([self.pos_vocab[t] for t in tags])])
        inputs = ad.dropout(inputs, self.embed_dropout, training, rng)
        return self.encoder.encode(inputs, training=training, rng=rng)


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
        """The (m, out_dim) matrix of m EDUs: row e is token state ``ends[e]-1``."""
        if not words:
            raise DataError("cannot encode an empty sentence")
        ends = check_segmentation(len(words), ends)
        inputs = ad.dropout(self.word_emb.rows([self.word_vocab[w] for w in words]),
                            self.embed_dropout, training, rng)
        states = self.encoder.encode(inputs, training=training, rng=rng)
        return ad.gather(states, [e - 1 for e in ends])
