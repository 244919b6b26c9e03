"""Layer tests: initialization ranges, forward oracles written in plain
numpy, parameter discovery, and gradient checks through each layer."""

import numpy as np
import pytest

from ptrparse import autodiff as ad
from ptrparse.autodiff import Tensor
from ptrparse.errors import ConfigError
from ptrparse.nn import (Biaffine, BiaffineLabeler, BiRecurrentEncoder, CharCnn,
                         Embedding, GruCell, LstmCell, MlpElu, glorot)

from helpers import check_gradients, segment_max_per_segment, weighted

RNG = np.random.default_rng(20240812)


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def test_glorot_bounds_and_shape():
    w = glorot(np.random.default_rng(0), 30, 50, (30, 50))
    limit = np.sqrt(6.0 / 80.0)
    assert w.shape == (30, 50)
    assert np.abs(w).max() <= limit
    assert np.abs(w).max() > 0.5 * limit  # actually fills the range
    assert abs(w.mean()) < 0.02


def test_parameters_walk_names_and_shared_filtering():
    emb = Embedding(5, 3, np.random.default_rng(0))
    named = dict(emb.parameters())
    assert set(named) == {"weight"}
    frozen = Embedding(5, 3, np.random.default_rng(0), frozen=True)
    assert dict(frozen.parameters()) == {}

    enc = BiRecurrentEncoder("lstm", 2, 4, 3, np.random.default_rng(1))
    names = [name for name, _ in enc.parameters()]
    assert "forward_cells.0.w_x" in names
    assert "backward_cells.1.bias" in names
    assert len(names) == len(set(names))


def test_embedding_lookup_and_unk():
    emb = Embedding(4, 2, np.random.default_rng(0), unk_index=1)
    assert np.array_equal(emb.lookup(2).data, emb.weight.data[2])
    assert np.array_equal(emb.lookup(99).data, emb.weight.data[1])
    with pytest.raises(IndexError):
        emb.lookup(-1)
    plain = Embedding(4, 2, np.random.default_rng(0))
    with pytest.raises(IndexError):
        plain.lookup(4)
    assert np.abs(emb.weight.data).max() <= 0.1


def test_charcnn_hand_oracle():
    # window 1, one filter: response at each padded position is
    # filter . char_embedding + bias, pooled by max.
    cnn = CharCnn(3, 2, 1, 1, pad_index=0, rng=np.random.default_rng(0))
    cnn.embedding.weight.data[:] = np.array([[0.0, 0.0], [1.0, 2.0], [-1.0, 3.0]])
    cnn.filters.data[:] = np.array([[2.0], [1.0]])
    cnn.bias.data[:] = np.array([0.5])
    out = cnn([1, 2])
    # responses: pad 0.5, char1 2+2+0.5=4.5, char2 -2+3+0.5=1.5, pad 0.5
    assert out.data[0] == pytest.approx(4.5, abs=1e-15)


def test_charcnn_zero_filters_give_bias():
    cnn = CharCnn(5, 3, 4, 3, pad_index=0, rng=np.random.default_rng(1))
    cnn.filters.data[:] = 0.0
    cnn.bias.data[:] = np.array([1.0, -2.0, 0.0, 3.0])
    assert np.array_equal(cnn([1, 2, 3]).data, [1.0, -2.0, 0.0, 3.0])


def test_charcnn_short_word_padding():
    # A one-char word still yields window-3 responses thanks to padding.
    cnn = CharCnn(5, 3, 2, 3, pad_index=0, rng=np.random.default_rng(2))
    out = cnn([4])
    assert out.shape == (2,)


def test_charcnn_window_validation():
    with pytest.raises(ConfigError):
        CharCnn(5, 3, 2, 0, pad_index=0, rng=np.random.default_rng(0))


def test_charcnn_gradients():
    for chars in ([1, 2], [3], [1, 2, 3, 4]):
        cnn = CharCnn(5, 3, 4, 3, pad_index=0, rng=np.random.default_rng(7))
        tensors = [p for _, p in cnn.parameters()]
        check_gradients(lambda: weighted(cnn(chars)), tensors)


def test_lstm_cell_matches_numpy():
    cell = LstmCell(3, 2, np.random.default_rng(3))
    x = RNG.standard_normal(3)
    h0 = RNG.standard_normal(2)
    c0 = RNG.standard_normal(2)
    h1, c1 = cell.step(Tensor(x), Tensor(h0), Tensor(c0))

    pre = cell.w_x.data @ x + cell.w_h.data @ h0 + cell.bias.data
    i, f, g, o = pre[0:2], pre[2:4], pre[4:6], pre[6:8]
    c_ref = sigmoid(f) * c0 + sigmoid(i) * np.tanh(g)
    h_ref = sigmoid(o) * np.tanh(c_ref)
    assert np.allclose(c1.data, c_ref, atol=1e-14)
    assert np.allclose(h1.data, h_ref, atol=1e-14)


def test_lstm_forget_bias_is_one():
    cell = LstmCell(3, 4, np.random.default_rng(0))
    assert np.array_equal(cell.bias.data[4:8], np.ones(4))
    assert np.array_equal(cell.bias.data[0:4], np.zeros(4))
    assert np.array_equal(cell.bias.data[8:], np.zeros(8))


def test_gru_cell_matches_numpy():
    cell = GruCell(3, 2, np.random.default_rng(4))
    x = RNG.standard_normal(3)
    h0 = RNG.standard_normal(2)
    h1 = cell.step(Tensor(x), Tensor(h0))

    rz = sigmoid(cell.w_rz.data @ x + cell.u_rz.data @ h0 + cell.b_rz.data)
    r, z = rz[0:2], rz[2:4]
    cand = np.tanh(cell.w_n.data @ x + cell.u_n.data @ (r * h0) + cell.b_n.data)
    h_ref = z * h0 + (1.0 - z) * cand
    assert np.allclose(h1.data, h_ref, atol=1e-14)


def test_cell_gradients():
    for in_dim, hid in ((3, 2), (1, 4), (5, 3)):
        cell = LstmCell(in_dim, hid, np.random.default_rng(8))
        x = Tensor(RNG.standard_normal(in_dim), requires_grad=True)
        h = Tensor(RNG.standard_normal(hid), requires_grad=True)
        c = Tensor(RNG.standard_normal(hid), requires_grad=True)
        tensors = [p for _, p in cell.parameters()] + [x, h, c]

        def loss():
            h1, c1 = cell.step(x, h, c)
            return weighted(ad.hconcat([h1, c1]))

        check_gradients(loss, tensors)

        gru = GruCell(in_dim, hid, np.random.default_rng(9))
        gx = Tensor(RNG.standard_normal(in_dim), requires_grad=True)
        gh = Tensor(RNG.standard_normal(hid), requires_grad=True)
        gtensors = [p for _, p in gru.parameters()] + [gx, gh]
        check_gradients(lambda: weighted(gru.step(gx, gh)), gtensors)


def numpy_bilstm_layer(fw, bw, xs):
    """Reference single BiLSTM layer on raw arrays."""
    def run(cell, seq):
        h = np.zeros(cell.hidden_dim)
        c = np.zeros(cell.hidden_dim)
        out = []
        for x in seq:
            pre = cell.w_x.data @ x + cell.w_h.data @ h + cell.bias.data
            n = cell.hidden_dim
            i, f = sigmoid(pre[:n]), sigmoid(pre[n:2 * n])
            g, o = np.tanh(pre[2 * n:3 * n]), sigmoid(pre[3 * n:])
            c = f * c + i * g
            h = o * np.tanh(c)
            out.append(h)
        return out

    left = run(fw, xs)
    right = run(bw, list(reversed(xs)))
    right.reverse()
    return [np.concatenate([l, r]) for l, r in zip(left, right)]


def test_birecurrent_encoder_single_layer_matches_reference():
    enc = BiRecurrentEncoder("lstm", 1, 3, 2, np.random.default_rng(5))
    xs = [RNG.standard_normal(3) for _ in range(4)]
    got = enc.encode([Tensor(x) for x in xs])
    want = numpy_bilstm_layer(enc.forward_cells[0], enc.backward_cells[0], xs)
    assert got.shape == (4, 4)
    for g, w in zip(got.data, want):
        assert np.allclose(g, w, atol=1e-14)


def test_birecurrent_encoder_stacking_and_gru():
    for cell in ("lstm", "gru"):
        enc = BiRecurrentEncoder(cell, 3, 5, 2, np.random.default_rng(6))
        out = enc.encode([Tensor(RNG.standard_normal(5)) for _ in range(3)])
        assert out.shape == (3, 4)
    with pytest.raises(ConfigError):
        BiRecurrentEncoder("rnn", 1, 3, 2, np.random.default_rng(0))
    with pytest.raises(ConfigError):
        BiRecurrentEncoder("lstm", 0, 3, 2, np.random.default_rng(0))


def test_birecurrent_encoder_backward_direction_actually_reversed():
    # Perturbing the last input must change the backward half at position 0
    # and leave the forward half there untouched.
    enc = BiRecurrentEncoder("lstm", 1, 2, 3, np.random.default_rng(7))
    xs = [RNG.standard_normal(2) for _ in range(3)]
    base = enc.encode([Tensor(x) for x in xs])
    bumped = list(xs)
    bumped[2] = bumped[2] + 1.0
    moved = enc.encode([Tensor(x) for x in bumped])
    assert np.array_equal(base.data[0, :3], moved.data[0, :3])
    assert not np.allclose(base.data[0, 3:], moved.data[0, 3:])


def test_birecurrent_encoder_dropout_only_in_training():
    enc = BiRecurrentEncoder("lstm", 2, 3, 2, np.random.default_rng(8),
                             recurrent_dropout=0.5, layer_dropout=0.5)
    xs = [Tensor(RNG.standard_normal(3)) for _ in range(3)]
    a = enc.encode(xs)
    b = enc.encode(xs)
    assert np.array_equal(a.data, b.data)
    c = enc.encode(xs, training=True, rng=np.random.default_rng(1))
    d = enc.encode(xs, training=True, rng=np.random.default_rng(2))
    assert not np.array_equal(c.data, d.data)


def test_birecurrent_encoder_gradients():
    for cell, layers, length, rate in (("lstm", 1, 3, 0.0), ("lstm", 2, 2, 0.0), ("lstm", 1, 1, 0.0),
                                       ("lstm", 2, 3, 0.4), ("gru", 2, 3, 0.4)):
        enc = BiRecurrentEncoder(cell, layers, 2, 2, np.random.default_rng(10),
                                 recurrent_dropout=rate, layer_dropout=rate)
        xs = [Tensor(RNG.standard_normal(2), requires_grad=True) for _ in range(length)]
        tensors = [p for _, p in enc.parameters()] + xs
        check_gradients(lambda: weighted(enc.encode(xs, training=True,
                                                    rng=np.random.default_rng(5))),
                        tensors, tol=2e-4)


def test_mlp_elu_vector_and_matrix():
    mlp = MlpElu(3, 2, np.random.default_rng(11))
    x = RNG.standard_normal(3)
    want = x @ mlp.weight.data + mlp.bias.data
    want = np.where(want > 0, want, np.expm1(want))
    assert np.allclose(mlp(Tensor(x)).data, want, atol=1e-14)

    m = RNG.standard_normal((4, 3))
    got = mlp(Tensor(m)).data
    for i in range(4):
        assert np.allclose(got[i], mlp(Tensor(m[i])).data, atol=1e-14)


def test_mlp_elu_gradients():
    for in_dim, out_dim in ((3, 2), (1, 5), (4, 1)):
        mlp = MlpElu(in_dim, out_dim, np.random.default_rng(12))
        x = Tensor(RNG.standard_normal(in_dim) + 0.3, requires_grad=True)
        tensors = [p for _, p in mlp.parameters()] + [x]
        check_gradients(lambda: weighted(mlp(x)), tensors)


def test_biaffine_score_matches_loops():
    bi = Biaffine(3, 2, np.random.default_rng(13))
    bi.u.data[:] = RNG.standard_normal(3)
    bi.v.data[:] = RNG.standard_normal(2)
    bi.b.data[()] = 0.7
    a = RNG.standard_normal(3)
    b = RNG.standard_normal(2)
    want = 0.7 + bi.u.data @ a + bi.v.data @ b
    for i in range(3):
        for j in range(2):
            want += a[i] * bi.w.data[i, j] * b[j]
    assert bi.score(Tensor(a), Tensor(b)).item() == pytest.approx(want, abs=1e-12)


def test_biaffine_score_rows_matches_pointwise():
    bi = Biaffine(3, 2, np.random.default_rng(14))
    bi.u.data[:] = RNG.standard_normal(3)
    bi.v.data[:] = RNG.standard_normal(2)
    bi.b.data[()] = -0.2
    a = Tensor(RNG.standard_normal(3))
    rows = RNG.standard_normal((5, 2))
    vec = bi.score_rows(a, Tensor(rows)).data
    assert vec.shape == (5,)
    for k in range(5):
        assert vec[k] == pytest.approx(bi.score(a, Tensor(rows[k])).item(), abs=1e-12)


def test_biaffine_gradients():
    for left, right, count in ((3, 2, 4), (2, 2, 1), (4, 3, 6)):
        bi = Biaffine(left, right, np.random.default_rng(15))
        a = Tensor(RNG.standard_normal(left), requires_grad=True)
        rows = Tensor(RNG.standard_normal((count, right)), requires_grad=True)
        tensors = [p for _, p in bi.parameters()] + [a, rows]
        check_gradients(lambda: weighted(bi.score_rows(a, rows)), tensors)


def test_biaffine_labeler_matches_loops():
    lab = BiaffineLabeler(3, 2, 4, np.random.default_rng(16))
    lab.u.data[:] = RNG.standard_normal((4, 3))
    lab.v.data[:] = RNG.standard_normal((4, 2))
    lab.b.data[:] = RNG.standard_normal(4)
    a = RNG.standard_normal(3)
    b = RNG.standard_normal(2)
    got = lab.scores(Tensor(a), Tensor(b)).data
    w = lab.w.data.reshape(3, 4, 2)
    for l in range(4):
        want = lab.b.data[l] + lab.u.data[l] @ a + lab.v.data[l] @ b
        want += a @ w[:, l, :] @ b
        assert got[l] == pytest.approx(want, abs=1e-12)


def test_biaffine_labeler_gradients():
    for left, right, labels in ((3, 2, 4), (2, 3, 2), (4, 4, 5)):
        lab = BiaffineLabeler(left, right, labels, np.random.default_rng(17))
        a = Tensor(RNG.standard_normal(left), requires_grad=True)
        b = Tensor(RNG.standard_normal(right), requires_grad=True)
        tensors = [p for _, p in lab.parameters()] + [a, b]
        check_gradients(lambda: weighted(lab.scores(a, b)), tensors)


def test_charcnn_batch_rows_equal_single_words():
    cnn = CharCnn(7, 3, 4, 3, pad_index=0, rng=np.random.default_rng(12))
    words = [[1], [2, 3, 4, 5], [6, 6], [9, 1, 2]]  # 9 is out of range: unknown
    cnn.embedding.unk_index = 1
    batch = cnn(words)
    assert batch.shape == (4, 4)
    for i, word in enumerate(words):
        assert np.allclose(batch.data[i], cnn(word).data, rtol=0.0, atol=1e-14)
    single = cnn([[2, 3]])
    assert single.shape == (1, 4)
    with pytest.raises(ConfigError):
        CharCnn(5, 3, 2, 4, pad_index=0, rng=np.random.default_rng(0))([[1], [1]])


def test_charcnn_equals_per_word_windows_and_pooling():
    # The array path builds the windows of the per-word loop it replaced, in
    # the same order, so responses and pooled rows agree bit for bit; coarse
    # weights make ties common.  One word is the batch of one's only row.
    cnn = CharCnn(6, 2, 3, 3, pad_index=0, rng=np.random.default_rng(15))
    cnn.embedding.weight.data[:] = np.round(cnn.embedding.weight.data * 20.0)
    cnn.filters.data[:] = np.round(cnn.filters.data * 2.0)
    words = [[1], [2, 3, 4, 5], [5, 5], [3, 1, 2], [4, 4, 4, 4, 4, 4]]
    windows, starts = [], []
    for word in words:
        padded = [0] + word + [0]
        starts.append(len(windows))
        windows += [padded[i : i + 3] for i in range(len(padded) - 2)]
    table = cnn.embedding.weight.data[np.concatenate(windows)].reshape(len(windows), 6)
    want, _ = segment_max_per_segment(table @ cnn.filters.data + cnn.bias.data, starts)
    assert cnn(words).data.tobytes() == want.tobytes()
    for word, row in zip(words, want):
        assert cnn(word).data.tobytes() == row.tobytes()


def test_charcnn_batch_gradients():
    cnn = CharCnn(5, 3, 4, 3, pad_index=0, rng=np.random.default_rng(13))
    weights = RNG.standard_normal((3, 4))
    tensors = [p for _, p in cnn.parameters()]
    check_gradients(lambda: weighted(cnn([[1, 2], [3], [1, 2, 3, 4]]), weights), tensors)


def test_birecurrent_encoder_matrix_equals_list():
    for cell in ("lstm", "gru"):
        enc = BiRecurrentEncoder(cell, 2, 3, 2, np.random.default_rng(14),
                                 recurrent_dropout=0.3, layer_dropout=0.3)
        xs = RNG.standard_normal((5, 3))
        for training in (False, True):
            from_list = enc.encode([Tensor(x) for x in xs], training=training,
                                   rng=np.random.default_rng(3))
            from_matrix = enc.encode(Tensor(xs), training=training, rng=np.random.default_rng(3))
            assert from_matrix.shape == (5, 4)
            assert np.array_equal(from_list.data, from_matrix.data)


def test_birecurrent_encoder_gru_matches_reference():
    enc = BiRecurrentEncoder("gru", 1, 3, 2, np.random.default_rng(15))
    xs = [RNG.standard_normal(3) for _ in range(4)]

    def run(cell, seq):
        h, out = np.zeros(2), []
        for x in seq:
            rz = sigmoid(cell.w_rz.data @ x + cell.u_rz.data @ h + cell.b_rz.data)
            r, z = rz[:2], rz[2:]
            cand = np.tanh(cell.w_n.data @ x + cell.u_n.data @ (r * h) + cell.b_n.data)
            h = z * h + (1.0 - z) * cand
            out.append(h)
        return out

    left = run(enc.forward_cells[0], xs)
    right = run(enc.backward_cells[0], xs[::-1])[::-1]
    got = enc.encode([Tensor(x) for x in xs])
    assert got.shape == (4, 4)
    for g, l, r in zip(got.data, left, right):
        assert np.allclose(g, np.concatenate([l, r]), rtol=0.0, atol=1e-14)

