"""Sentence and EDU encoder tests: vocabulary behavior, the prepended root
pseudo-token, segmentation checks, and EDU rows picked from token states."""

import numpy as np
import pytest

from ptrparse.encoder import (PAD, ROOT, UNK, DepEncoder, RstEncoder, Vocab,
                              check_segmentation)
from ptrparse.errors import DataError, SegmentationError
from ptrparse.trees import Token


def small_dep_encoder():
    words = Vocab([UNK, ROOT, "the", "cat", "sat"])
    poses = Vocab([UNK, ROOT, "DET", "NOUN", "VERB"])
    chars = Vocab([PAD, UNK, ROOT, "a", "c", "e", "h", "s", "t"])
    return DepEncoder(words, poses, chars, np.random.default_rng(0),
                      word_dim=4, pos_dim=3, char_dim=3, char_filters=5,
                      char_window=3, hidden_dim=6, layers=2,
                      embed_dropout=0.0, recurrent_dropout=0.0, layer_dropout=0.0)


def test_vocab_build_sorted_with_specials():
    v = Vocab.build(["b", "a", "c", "a"])
    assert list(v.tokens) == [UNK, "a", "b", "c"]
    assert v[UNK] == 0
    assert v["b"] == 2


def test_vocab_unknown_falls_back_to_unk():
    v = Vocab.build(["x"])
    assert v["never-seen"] == v.unk_index == 0
    assert "x" in v and "y" not in v
    assert len(v) == 2


def test_vocab_without_unk_raises():
    v = Vocab(["a", "b"])
    assert v["a"] == 0
    with pytest.raises(KeyError):
        v["z"]


def test_vocab_rejects_duplicates():
    with pytest.raises(DataError):
        Vocab(["a", "a"])


def test_dep_encoder_prepends_root():
    enc = small_dep_encoder()
    tokens = [Token("the", "DET"), Token("cat", "NOUN")]
    sent = enc.encode(tokens)
    assert sent.shape == (3, 12)  # root + 2 words


def test_dep_encoder_root_state_differs_from_words():
    enc = small_dep_encoder()
    sent = enc.encode([Token("cat", "NOUN")])
    assert not np.allclose(sent.data[0], sent.data[1])


def test_dep_encoder_deterministic_at_inference():
    enc = small_dep_encoder()
    tokens = [Token("the", "DET"), Token("sat", "VERB")]
    a = enc.encode(tokens).data
    b = enc.encode(tokens).data
    assert np.array_equal(a, b)


def test_dep_encoder_unknown_word_uses_unk_embedding():
    enc = small_dep_encoder()
    known = enc.encode([Token("zzz", "NOUN")]).data
    again = enc.encode([Token("qqq", "NOUN")]).data
    # Both map to <unk> for word and chars, so states agree except via chars.
    assert known.shape == again.shape


def test_dep_encoder_rejects_empty():
    enc = small_dep_encoder()
    with pytest.raises(DataError):
        enc.encode([])


def test_dep_encoder_rejects_empty_form():
    enc = small_dep_encoder()
    with pytest.raises(DataError, match="token 2 has an empty FORM"):
        enc.encode([Token("the", "DET"), Token("", "NOUN"), Token("sat", "VERB")])


def test_check_segmentation_valid():
    assert check_segmentation(5, [2, 4, 5]) == [2, 4, 5]
    assert check_segmentation(1, [1]) == [1]


def test_check_segmentation_errors():
    with pytest.raises(SegmentationError):
        check_segmentation(5, [])
    with pytest.raises(SegmentationError):
        check_segmentation(5, [2, 2, 5])
    with pytest.raises(SegmentationError):
        check_segmentation(5, [3, 2, 5])
    with pytest.raises(SegmentationError):
        check_segmentation(5, [2, 4])
    with pytest.raises(SegmentationError):
        check_segmentation(5, [0, 5])
    with pytest.raises(SegmentationError):
        check_segmentation(5, [2, 6])


def test_rst_encoder_edu_rows_are_last_token_rows():
    vocab = Vocab.build(["a", "b", "c", "d"])
    enc = RstEncoder(vocab, np.random.default_rng(1), word_dim=5, hidden_dim=4,
                     layers=2, embed_dropout=0.0, encoder_dropout=0.0)
    words = ["a", "b", "c", "d"]
    edus = enc.encode(words, [2, 4])
    tokens = enc.encoder.encode(enc.word_emb.rows([vocab[w] for w in words]))
    assert tokens.shape == (4, 8)
    # EDU row e is the token state at the EDU's final token, ends[e] - 1.
    assert edus.shape == (2, 8)
    assert np.array_equal(edus.data[0], tokens.data[1])
    assert np.array_equal(edus.data[1], tokens.data[3])


def test_rst_encoder_rejects_bad_segmentation():
    vocab = Vocab.build(["a", "b"])
    enc = RstEncoder(vocab, np.random.default_rng(1), word_dim=5, hidden_dim=4,
                     layers=1, embed_dropout=0.0, encoder_dropout=0.0)
    with pytest.raises(SegmentationError):
        enc.encode(["a", "b"], [1, 1])
    with pytest.raises(SegmentationError):
        enc.encode(["a", "b"], [1])


def test_rst_encoder_single_edu():
    vocab = Vocab.build(["a", "b"])
    enc = RstEncoder(vocab, np.random.default_rng(2), word_dim=5, hidden_dim=4,
                     layers=1, embed_dropout=0.0, encoder_dropout=0.0)
    assert enc.encode(["a", "b"], [2]).shape == (1, 8)
