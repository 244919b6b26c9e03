"""Tensor and operator tests: forward values against numpy, backward against
central finite differences, and graph bookkeeping rules."""

import threading

import numpy as np
import pytest

from ptrparse import autodiff as ad
from ptrparse.autodiff import Tensor, no_grad
from ptrparse.errors import ConfigError, MaskError, ShapeError

from helpers import check_gradients

RNG = np.random.default_rng(20240811)


def leaf(shape, scale=1.0, offset=0.0):
    return Tensor(RNG.standard_normal(shape) * scale + offset, requires_grad=True)


def test_tensor_basics():
    t = Tensor([1.0, 2.0])
    assert t.shape == (2,)
    assert not t.requires_grad
    assert np.array_equal(t.grad, np.zeros(2))
    s = Tensor(3.5)
    assert s.item() == 3.5


def test_operator_sugar_matches_functions():
    a = Tensor([1.0, -2.0])
    b = Tensor([0.5, 4.0])
    assert np.array_equal((a + b).data, [1.5, 2.0])
    assert np.array_equal((a - b).data, [0.5, -6.0])
    assert np.array_equal((a * b).data, [0.5, -8.0])
    assert np.array_equal((-a).data, [-1.0, 2.0])
    assert np.array_equal((a + 1.0).data, [2.0, -1.0])
    assert np.array_equal((2.0 * a).data, [2.0, -4.0])
    assert np.array_equal((1.0 - a).data, [0.0, 3.0])


def test_forward_values_match_numpy():
    x = np.array([[1.0, -2.0], [0.5, 3.0]])
    y = np.array([[2.0, 0.0], [1.0, -1.0]])
    assert np.array_equal(ad.add(Tensor(x), Tensor(y)).data, x + y)
    assert np.array_equal(ad.mul(Tensor(x), Tensor(y)).data, x * y)
    assert np.array_equal(ad.matmul(Tensor(x), Tensor(y)).data, x @ y)
    assert np.array_equal(ad.tanh(Tensor(x)).data, np.tanh(x))
    assert np.array_equal(ad.sigmoid(Tensor(x)).data, 1.0 / (1.0 + np.exp(-x)))
    assert np.array_equal(ad.exp(Tensor(x)).data, np.exp(x))
    assert np.array_equal(ad.tsum(Tensor(x)).data, x.sum())
    positive = np.abs(x) + 0.5
    assert np.array_equal(ad.log(Tensor(positive)).data, np.log(positive))


def test_elu_forward():
    x = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
    got = ad.elu(Tensor(x)).data
    want = np.where(x > 0, x, np.expm1(x))
    assert np.allclose(got, want, atol=1e-15)


def test_matmul_all_rank_combinations():
    a2 = RNG.standard_normal((3, 4))
    b2 = RNG.standard_normal((4, 2))
    v4 = RNG.standard_normal(4)
    v3 = RNG.standard_normal(3)
    assert np.allclose(ad.matmul(Tensor(a2), Tensor(b2)).data, a2 @ b2)
    assert np.allclose(ad.matmul(Tensor(a2), Tensor(v4)).data, a2 @ v4)
    assert np.allclose(ad.matmul(Tensor(v3), Tensor(a2)).data, v3 @ a2)
    assert np.allclose(ad.matmul(Tensor(v4), Tensor(v4)).data, v4 @ v4)


def test_matmul_shape_errors():
    with pytest.raises(ShapeError):
        ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
    with pytest.raises(ShapeError):
        ad.matmul(Tensor(np.zeros((2, 2, 2))), Tensor(np.zeros(2)))


def test_broadcast_rejected_when_incompatible():
    with pytest.raises(ShapeError):
        ad.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))))


def test_softmax_forward_and_mask():
    scores = Tensor(np.array([1.0, 2.0, 3.0, 4.0]))
    p = ad.softmax(scores).data
    want = np.exp(scores.data - 4.0)
    want = want / want.sum()
    assert np.allclose(p, want, atol=1e-15)

    mask = np.array([True, False, True, False])
    pm = ad.softmax(scores, mask).data
    assert pm[1] == 0.0 and pm[3] == 0.0
    assert pm.sum() == pytest.approx(1.0, abs=1e-12)
    want = np.exp(np.array([1.0, 3.0]) - 3.0)
    want = want / want.sum()
    assert np.allclose(pm[[0, 2]], want, atol=1e-15)


def test_softmax_mask_errors():
    scores = Tensor(np.array([1.0, 2.0]))
    with pytest.raises(MaskError):
        ad.softmax(scores, np.array([False, False]))
    with pytest.raises(ShapeError):
        ad.softmax(scores, np.array([True, False, True]))
    with pytest.raises(ShapeError):
        ad.softmax(Tensor(np.zeros((2, 2))))


def test_softmax_mask_survives_extreme_scores():
    scores = Tensor(np.array([1000.0, -1000.0, 999.0]))
    p = ad.softmax(scores, np.array([True, True, True])).data
    assert np.isfinite(p).all()
    p2 = ad.softmax(scores, np.array([False, True, True])).data
    assert p2[0] == 0.0 and np.isfinite(p2).all() and p2.sum() == pytest.approx(1.0)


def test_cross_entropy_value():
    probs = Tensor(np.array([0.1, 0.7, 0.2]), requires_grad=True)
    loss = ad.cross_entropy(probs, 1)
    assert loss.item() == pytest.approx(-np.log(0.7), abs=1e-15)


def test_pick_row_narrow_bounds():
    m = Tensor(np.arange(6.0).reshape(2, 3))
    v = Tensor(np.arange(4.0))
    assert np.array_equal(ad.row(m, 1).data, [3.0, 4.0, 5.0])
    assert np.array_equal(ad.rows(m, 0, 1).data, [[0.0, 1.0, 2.0]])
    assert np.array_equal(ad.narrow(v, 1, 3).data, [1.0, 2.0])
    assert ad.pick(v, 2).item() == 2.0
    with pytest.raises(IndexError):
        ad.pick(v, 4)
    with pytest.raises(IndexError):
        ad.row(m, -1)
    with pytest.raises(ShapeError):
        ad.row(v, 0)
    with pytest.raises(ShapeError):
        ad.pick(m, 0)


def test_concat_stack_shapes():
    a, b = Tensor(np.ones(2)), Tensor(np.zeros(3))
    assert np.array_equal(ad.concat([a, b]).data, [1.0, 1.0, 0.0, 0.0, 0.0])
    rows = [Tensor(np.full(3, float(i))) for i in range(2)]
    assert np.array_equal(ad.stack(rows).data, [[0.0] * 3, [1.0] * 3])
    with pytest.raises(ShapeError):
        ad.concat([Tensor(np.zeros((2, 2)))])
    with pytest.raises(ShapeError):
        ad.stack([Tensor(np.zeros((2, 2)))])


def test_max_over_rows_forward_and_grad_target():
    m = Tensor(np.array([[1.0, 5.0], [3.0, 2.0]]), requires_grad=True)
    out = ad.max_over_rows(m)
    assert np.array_equal(out.data, [3.0, 5.0])
    ad.backward(ad.tsum(out))
    assert np.array_equal(m.grad, [[0.0, 1.0], [1.0, 0.0]])


def test_dropout_semantics():
    x = Tensor(np.ones(1000), requires_grad=True)
    assert ad.dropout(x, 0.0, True, None) is x
    assert ad.dropout(x, 0.5, False, None) is x
    out = ad.dropout(x, 0.4, True, np.random.default_rng(3))
    kept = out.data != 0.0
    assert 0.45 < kept.mean() < 0.75
    assert np.allclose(out.data[kept], 1.0 / 0.6)
    with pytest.raises(ConfigError):
        ad.dropout(x, 1.0, True, np.random.default_rng(3))
    with pytest.raises(ConfigError):
        ad.dropout(x, -0.1, True, np.random.default_rng(3))


def test_backward_requires_scalar():
    t = Tensor(np.zeros(3), requires_grad=True)
    with pytest.raises(ShapeError):
        ad.backward(ad.add(t, t))


def test_leaf_gradients_accumulate_across_backward_calls():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    ad.backward(ad.tsum(ad.mul(x, x)))
    first = x.grad.copy()
    ad.backward(ad.tsum(ad.mul(x, x)))
    assert np.array_equal(x.grad, 2.0 * first)
    x.zero_grad()
    ad.backward(ad.tsum(ad.mul(x, x)))
    assert np.array_equal(x.grad, first)


def test_shared_subexpression_gradient():
    # y = s + s with s = sum(x): dy/dx = 2 exactly.
    x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    s = ad.tsum(x)
    ad.backward(ad.add(s, s))
    assert np.array_equal(x.grad, np.full(3, 2.0))


def test_repeated_backward_through_shared_graph_is_consistent():
    x = Tensor(np.array([2.0]), requires_grad=True)
    s = ad.tsum(x)
    y = ad.add(s, s)
    ad.backward(y)
    ad.backward(y)
    # Each full pass contributes 2; intermediate grads must not leak across passes.
    assert np.array_equal(x.grad, np.array([4.0]))


def test_no_grad_suppresses_graph():
    x = Tensor(np.ones(2), requires_grad=True)
    with no_grad():
        out = ad.mul(x, x)
        assert not out.requires_grad
        assert not ad.grad_enabled()
    assert ad.grad_enabled()
    assert ad.mul(x, x).requires_grad


def test_no_grad_nests():
    with no_grad():
        with no_grad():
            assert not ad.grad_enabled()
        assert not ad.grad_enabled()
    assert ad.grad_enabled()


def test_grad_mode_is_thread_local():
    seen = {}

    def probe():
        seen["other"] = ad.grad_enabled()

    with no_grad():
        worker = threading.Thread(target=probe)
        worker.start()
        worker.join()
    assert seen["other"] is True


def test_untracked_graph_costs_nothing():
    a = Tensor(np.ones(3))
    out = ad.add(a, a)
    assert not out.requires_grad
    ad.backward(ad.tsum(ad.mul(a, a)))  # no-op, nothing requires grad


# Gradient checks: each op over several shapes, reduced to a scalar via tsum.

def test_grad_add_sub_mul_broadcast():
    for shape_a, shape_b in (((3,), (3,)), ((2, 3), (2, 3)), ((2, 3), (3,)),
                             ((2, 3), ()), ((4, 1), (1, 5))):
        a, b = leaf(shape_a), leaf(shape_b)
        check_gradients(lambda: ad.tsum(ad.add(a, b)), [a, b])
        check_gradients(lambda: ad.tsum(ad.sub(a, b)), [a, b])
        check_gradients(lambda: ad.tsum(ad.mul(a, b)), [a, b])


def test_grad_matmul():
    for shape_a, shape_b in (((3, 4), (4, 2)), ((3, 4), (4,)), ((3,), (3, 2)),
                             ((5,), (5,))):
        a, b = leaf(shape_a), leaf(shape_b)
        check_gradients(lambda: ad.tsum(ad.matmul(a, b)), [a, b])


def test_grad_elementwise_unary():
    for shape in ((4,), (3, 2), ()):
        x = leaf(shape)
        check_gradients(lambda: ad.tsum(ad.tanh(x)), [x])
        check_gradients(lambda: ad.tsum(ad.sigmoid(x)), [x])
        check_gradients(lambda: ad.tsum(ad.exp(x)), [x])
        check_gradients(lambda: ad.tsum(ad.neg(x)), [x])
        shifted = Tensor(np.abs(x.data) + 0.5, requires_grad=True)
        check_gradients(lambda: ad.tsum(ad.log(shifted)), [shifted])
        away = Tensor(x.data + np.where(x.data >= 0, 0.3, -0.3), requires_grad=True)
        check_gradients(lambda: ad.tsum(ad.elu(away)), [away])


def test_grad_structure_ops():
    for shapes in (((2,), (3,)), ((1,), (4,)), ((5,), (2,))):
        parts = [leaf(s) for s in shapes]
        check_gradients(lambda: ad.tsum(ad.concat(parts)), parts)
    for n, d in ((2, 3), (1, 4), (3, 2)):
        rows_ = [leaf((d,)) for _ in range(n)]
        check_gradients(lambda: ad.tsum(ad.stack(rows_)), rows_)
    for shape, index in (((3, 4), 0), ((2, 2), 1), ((5, 1), 4)):
        m = leaf(shape)
        check_gradients(lambda: ad.tsum(ad.row(m, index)), [m])
    for shape, (lo, hi) in (((4, 3), (1, 3)), ((5, 2), (0, 5)), ((3, 3), (2, 3))):
        m = leaf(shape)
        check_gradients(lambda: ad.tsum(ad.rows(m, lo, hi)), [m])
    for size, index in ((3, 0), (5, 4), (2, 1)):
        v = leaf((size,))
        check_gradients(lambda: ad.pick(v, index), [v])
    for size, (lo, hi) in ((4, (1, 3)), (6, (0, 6)), (3, (2, 3))):
        v = leaf((size,))
        check_gradients(lambda: ad.tsum(ad.narrow(v, lo, hi)), [v])
    for shape, new in (((2, 3), (6,)), ((4,), (2, 2)), ((2, 2), (4,))):
        x = leaf(shape)
        check_gradients(lambda: ad.tsum(ad.reshape(x, new)), [x])


def test_grad_reductions_and_softmax():
    for shape in ((3,), (2, 4), (5, 1)):
        x = leaf(shape)
        check_gradients(lambda: ad.tsum(x), [x])
    for shape in ((2, 3), (4, 2), (3, 3)):
        # Spread the entries so the argmax is stable under nudging.
        m = Tensor(RNG.permutation(np.linspace(-2.0, 2.0, int(np.prod(shape)))).reshape(shape),
                   requires_grad=True)
        check_gradients(lambda: ad.tsum(ad.max_over_rows(m)), [m])
    for size in (2, 4, 7):
        x = leaf((size,))
        weights = Tensor(RNG.standard_normal(size))
        check_gradients(lambda: ad.tsum(ad.mul(ad.softmax(x), weights)), [x])
        mask = np.ones(size, dtype=bool)
        mask[0] = False
        check_gradients(lambda: ad.tsum(ad.mul(ad.softmax(x, mask), weights)), [x])


def test_grad_cross_entropy_and_dropout():
    for size, target in ((3, 0), (4, 2), (6, 5)):
        x = leaf((size,))
        check_gradients(lambda: ad.cross_entropy(ad.softmax(x), target), [x])
    for shape in ((8,), (3, 5), (20,)):
        x = leaf(shape)
        check_gradients(
            lambda: ad.tsum(ad.dropout(x, 0.4, True, np.random.default_rng(11))), [x])


# Fused recurrent steps and batching helpers.  Losses weight the outputs with
# fixed random constants so every output entry gets a distinct gradient.

def weighted(out):
    weights = Tensor(np.random.default_rng(out.data.size).standard_normal(out.data.shape))
    return ad.tsum(ad.mul(out, weights))


def keep_mask(size):
    return (np.random.default_rng(size).random(size) >= 0.4) / 0.6


def test_grad_lstm_step():
    for n in (1, 2, 4):
        xw, w_h = leaf((4 * n,)), leaf((4 * n, n))
        h, c = leaf((n,)), leaf((n,))
        for mask in (None, keep_mask(n)):
            check_gradients(lambda: weighted(ad.lstm_step(xw, w_h, h, c, mask)), [xw, w_h, h, c])


def test_grad_gru_step():
    for n in (1, 2, 4):
        x_rz, x_n = leaf((2 * n,)), leaf((n,))
        u_rz, u_n, h = leaf((2 * n, n)), leaf((n, n)), leaf((n,))
        for mask in (None, keep_mask(n)):
            check_gradients(lambda: weighted(ad.gru_step(x_rz, x_n, u_rz, u_n, h, mask)),
                            [x_rz, x_n, u_rz, u_n, h])


def test_lstm_step_matches_per_gate_ops():
    n = 3
    xw, w_h, h, c = leaf((4 * n,)), leaf((4 * n, n)), leaf((n,)), leaf((n,))
    mask = keep_mask(n)
    pre = ad.add(xw, ad.matmul(w_h, ad.mul(h, Tensor(mask))))
    i, f = ad.sigmoid(ad.narrow(pre, 0, n)), ad.sigmoid(ad.narrow(pre, n, 2 * n))
    g, o = ad.tanh(ad.narrow(pre, 2 * n, 3 * n)), ad.sigmoid(ad.narrow(pre, 3 * n, 4 * n))
    c_new = ad.add(ad.mul(f, c), ad.mul(i, g))
    h_new = ad.mul(o, ad.tanh(c_new))
    fused = ad.lstm_step(xw, w_h, h, c, mask)
    assert np.allclose(fused.data, np.concatenate([h_new.data, c_new.data]), rtol=0.0, atol=1e-15)


def test_gru_step_matches_per_gate_ops():
    n = 3
    x_rz, x_n, u_rz, u_n, h = leaf((2 * n,)), leaf((n,)), leaf((2 * n, n)), leaf((n, n)), leaf((n,))
    mask = keep_mask(n)
    hm = ad.mul(h, Tensor(mask))
    rz = ad.sigmoid(ad.add(x_rz, ad.matmul(u_rz, hm)))
    r, z = ad.narrow(rz, 0, n), ad.narrow(rz, n, 2 * n)
    cand = ad.tanh(ad.add(x_n, ad.matmul(u_n, ad.mul(r, hm))))
    want = ad.add(ad.mul(z, h), ad.mul(ad.sub(Tensor(np.ones(n)), z), cand))
    got = ad.gru_step(x_rz, x_n, u_rz, u_n, h, mask)
    assert np.allclose(got.data, want.data, rtol=0.0, atol=1e-15)


def test_fused_step_shape_checks():
    with pytest.raises(ShapeError):
        ad.lstm_step(leaf((7,)), leaf((8, 2)), leaf((2,)), leaf((2,)))
    with pytest.raises(ShapeError):
        ad.gru_step(leaf((4,)), leaf((3,)), leaf((4, 2)), leaf((2, 2)), leaf((2,)))


def test_grad_gather_repeated_indices():
    m = leaf((4, 3))
    idx = [2, 0, 2, 2, 3]
    out = ad.gather(m, idx)
    assert np.array_equal(out.data, m.data[idx])
    check_gradients(lambda: weighted(ad.gather(m, idx)), [m])
    m.zero_grad()
    ad.backward(ad.tsum(ad.gather(m, idx)))
    assert np.array_equal(m.grad[:, 0], [1.0, 0.0, 3.0, 1.0])
    with pytest.raises(IndexError):
        ad.gather(m, [4])
    with pytest.raises(IndexError):
        ad.gather(m, [-1])


def test_grad_hconcat():
    for shapes in (((2, 3), (2, 1), (2, 4)), ((1, 2), (1, 2)), ((3,), (2,))):
        parts = [leaf(s) for s in shapes]
        out = ad.hconcat(parts)
        assert np.array_equal(out.data, np.concatenate([p.data for p in parts], axis=-1))
        check_gradients(lambda: weighted(ad.hconcat(parts)), parts)
    with pytest.raises(ShapeError):
        ad.hconcat([leaf((2, 3)), leaf((3, 3))])


def test_grad_transpose():
    for shape in ((2, 3), (1, 4), (3, 3)):
        m = leaf(shape)
        assert np.array_equal(ad.transpose(m).data, m.data.T)
        check_gradients(lambda: weighted(ad.transpose(m)), [m])
        m.zero_grad()
        ad.backward(weighted(ad.transpose(m)))
        assert m.grad.flags.c_contiguous  # the optimizer works on it in place
    with pytest.raises(ShapeError):
        ad.transpose(leaf((3,)))


def test_grad_segment_max():
    for rows_, starts in ((5, [0, 2, 3]), (4, [0]), (6, [0, 1, 2, 3, 4, 5])):
        m = Tensor(RNG.permutation(np.linspace(-2.0, 2.0, rows_ * 3)).reshape(rows_, 3),
                   requires_grad=True)
        out = ad.segment_max(m, starts)
        stops = starts[1:] + [rows_]
        want = np.stack([m.data[a:b].max(axis=0) for a, b in zip(starts, stops)])
        assert np.array_equal(out.data, want)
        check_gradients(lambda: weighted(ad.segment_max(m, starts)), [m])
    with pytest.raises(ShapeError):
        ad.segment_max(leaf((3, 2)), [0, 3])
    with pytest.raises(ShapeError):
        ad.segment_max(leaf((3, 2)), [1])


def test_segment_max_tie_routes_gradient_to_first_row():
    m = Tensor(np.array([[1.0, 2.0], [4.0, 2.0], [4.0, 0.0], [7.0, 7.0], [7.0, 7.0]]),
               requires_grad=True)
    out = ad.segment_max(m, [0, 3])
    assert np.array_equal(out.data, [[4.0, 2.0], [7.0, 7.0]])
    ad.backward(ad.tsum(out))
    assert np.array_equal(m.grad, [[0.0, 1.0], [1.0, 0.0], [0.0, 0.0], [1.0, 1.0], [0.0, 0.0]])
    assert np.array_equal(ad.max_over_rows(m).data, [7.0, 7.0])


# Row forms: k states stepped, scored or normalized at once, one per row.

def test_grad_lstm_step_rows():
    for k, n in ((1, 2), (3, 2), (2, 3)):
        xw, w_h = leaf((k, 4 * n)), leaf((4 * n, n))
        h, c = leaf((k, n)), leaf((k, n))
        for mask in (None, keep_mask(n)):
            check_gradients(lambda: weighted(ad.lstm_step(xw, w_h, h, c, mask)), [xw, w_h, h, c])
            rows_ = ad.lstm_step(xw, w_h, h, c, mask).data
            for i in range(k):
                one = ad.lstm_step(Tensor(xw.data[i]), w_h, Tensor(h.data[i]), Tensor(c.data[i]),
                                   mask).data
                assert np.allclose(rows_[i], one, rtol=0.0, atol=1e-12)
    with pytest.raises(ShapeError):
        ad.lstm_step(leaf((3, 8)), leaf((8, 2)), leaf((2, 2)), leaf((3, 2)))


def test_grad_gru_step_rows():
    for k, n in ((1, 2), (3, 2), (2, 3)):
        x_rz, x_n = leaf((k, 2 * n)), leaf((k, n))
        u_rz, u_n, h = leaf((2 * n, n)), leaf((n, n)), leaf((k, n))
        for mask in (None, keep_mask(n)):
            check_gradients(lambda: weighted(ad.gru_step(x_rz, x_n, u_rz, u_n, h, mask)),
                            [x_rz, x_n, u_rz, u_n, h])
            rows_ = ad.gru_step(x_rz, x_n, u_rz, u_n, h, mask).data
            for i in range(k):
                one = ad.gru_step(Tensor(x_rz.data[i]), Tensor(x_n.data[i]), u_rz, u_n,
                                  Tensor(h.data[i]), mask).data
                assert np.allclose(rows_[i], one, rtol=0.0, atol=1e-12)
    with pytest.raises(ShapeError):
        ad.gru_step(leaf((3, 4)), leaf((2, 2)), leaf((4, 2)), leaf((2, 2)), leaf((3, 2)))


def test_grad_softmax_rows():
    for shape in ((1, 3), (3, 4), (2, 6)):
        x = leaf(shape)
        weights = Tensor(RNG.standard_normal(shape))
        check_gradients(lambda: ad.tsum(ad.mul(ad.softmax_rows(x), weights)), [x])
        mask = RNG.random(shape) < 0.6
        mask[:, -1] = True
        check_gradients(lambda: ad.tsum(ad.mul(ad.softmax_rows(x, mask), weights)), [x])
        got = ad.softmax_rows(x, mask).data
        for i in range(shape[0]):
            assert np.array_equal(got[i], ad.softmax(Tensor(x.data[i]), mask[i]).data)
        assert np.array_equal(got[~mask], np.zeros(int((~mask).sum())))


def test_softmax_rows_errors():
    with pytest.raises(ShapeError):
        ad.softmax_rows(Tensor(np.zeros(3)))
    with pytest.raises(ShapeError):
        ad.softmax_rows(Tensor(np.zeros((2, 3))), np.ones((3, 2), dtype=bool))
    with pytest.raises(MaskError):
        ad.softmax_rows(Tensor(np.zeros((2, 3))), np.array([[True, False, False], [False] * 3]))


def test_grad_matvec_rows():
    for k, m, n in ((1, 3, 2), (3, 2, 4), (2, 5, 1)):
        a, b = leaf((k, m, n)), leaf((k, n))
        out = ad.matvec_rows(a, b)
        for i in range(k):
            assert np.array_equal(out.data[i], a.data[i] @ b.data[i])
        check_gradients(lambda: weighted(ad.matvec_rows(a, b)), [a, b])
    with pytest.raises(ShapeError):
        ad.matvec_rows(leaf((2, 3, 4)), leaf((3, 4)))


def test_grad_narrow_rows():
    for shape, (lo, hi) in (((2, 4), (1, 3)), ((3, 5), (0, 5)), ((1, 3), (2, 3))):
        m = leaf(shape)
        assert np.array_equal(ad.narrow(m, lo, hi).data, m.data[:, lo:hi])
        check_gradients(lambda: weighted(ad.narrow(m, lo, hi)), [m])
