"""Tensor and operator tests: forward values against numpy, backward against
central finite differences, and graph bookkeeping rules."""

import threading

import numpy as np
import pytest

from ptrparse import autodiff as ad
from ptrparse.autodiff import Tensor, no_grad
from ptrparse.errors import ConfigError, MaskError, ShapeError
from ptrparse.nn import linear

from helpers import (check_gradients, lstm_cell_three_logistics, relative_error,
                     segment_max_per_segment, total, weighted)

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


def test_forward_values_match_numpy():
    x = np.array([[1.0, -2.0], [0.5, 3.0]])
    y = np.array([[2.0, 0.0], [1.0, -1.0]])
    assert np.array_equal(ad.add(Tensor(x), Tensor(y)).data, x + y)
    assert np.array_equal(ad.mul(Tensor(x), Tensor(y)).data, x * y)
    assert np.array_equal(ad.matmul(Tensor(x), Tensor(y)).data, x @ y)
    assert np.array_equal(ad.sum_terms([Tensor(x), Tensor(y), Tensor(x)]).data, (x + y) + x)


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
        ad.softmax(Tensor(np.zeros((2, 2, 2))))


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


def test_cross_entropy_checks():
    probs = Tensor(np.array([0.25, 0.0, 0.75]))
    assert ad.cross_entropy(probs, 2).item() == -np.log(0.75)
    for target in (3, -1):
        with pytest.raises(IndexError):
            ad.cross_entropy(probs, target)
    with pytest.raises(ShapeError):
        ad.cross_entropy(Tensor(np.full((2, 2), 0.5)), 0)
    with no_grad():
        assert not ad.cross_entropy(Tensor(probs.data, requires_grad=True), 0).requires_grad


def test_row_narrow_bounds():
    m = Tensor(np.arange(6.0).reshape(2, 3))
    v = Tensor(np.arange(4.0))
    assert np.array_equal(ad.row(m, 1).data, [3.0, 4.0, 5.0])
    assert np.array_equal(ad.rows(m, 0, 1).data, [[0.0, 1.0, 2.0]])
    assert np.array_equal(ad.narrow(v, 1, 3).data, [1.0, 2.0])
    with pytest.raises(IndexError):
        ad.row(m, -1)
    with pytest.raises(ShapeError):
        ad.row(v, 0)


def test_stack_shapes():
    rows = [Tensor(np.full(3, float(i))) for i in range(2)]
    assert np.array_equal(ad.stack(rows).data, [[0.0] * 3, [1.0] * 3])
    with pytest.raises(ShapeError):
        ad.stack([Tensor(np.zeros((2, 2)))])


def test_segment_max_one_segment_forward_and_grad_target():
    m = Tensor(np.array([[1.0, 5.0], [3.0, 2.0]]), requires_grad=True)
    out = ad.segment_max(m, [0])
    assert np.array_equal(out.data, [[3.0, 5.0]])
    ad.backward(total(out))
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
    ad.backward(total(ad.mul(x, x)))
    first = x.grad.copy()
    ad.backward(total(ad.mul(x, x)))
    assert np.array_equal(x.grad, 2.0 * first)
    x.zero_grad()
    ad.backward(total(ad.mul(x, x)))
    assert np.array_equal(x.grad, first)


def test_shared_subexpression_gradient():
    # y = s + s with s = sum(x): dy/dx = 2 exactly.
    x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    s = total(x)
    ad.backward(ad.add(s, s))
    assert np.array_equal(x.grad, np.full(3, 2.0))


def test_repeated_backward_through_shared_graph_is_consistent():
    x = Tensor(np.array([2.0]), requires_grad=True)
    s = total(x)
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
    ad.backward(total(ad.mul(a, a)))  # no-op, nothing requires grad


# Gradient checks: each op over several shapes, reduced to a scalar by
# ``weighted``, a fixed random-weight dot product of every output entry.

def test_grad_add_mul_broadcast():
    for shape_a, shape_b in (((3,), (3,)), ((2, 3), (2, 3)), ((2, 3), (3,)),
                             ((2, 3), ()), ((4, 1), (1, 5))):
        a, b = leaf(shape_a), leaf(shape_b)
        check_gradients(lambda: weighted(ad.add(a, b)), [a, b])
        check_gradients(lambda: weighted(ad.mul(a, b)), [a, b])


def test_grad_matmul():
    for shape_a, shape_b in (((3, 4), (4, 2)), ((3, 4), (4,)), ((3,), (3, 2)),
                             ((5,), (5,))):
        a, b = leaf(shape_a), leaf(shape_b)
        check_gradients(lambda: weighted(ad.matmul(a, b)), [a, b])


def test_grad_elementwise_unary():
    for shape in ((4,), (3, 2), ()):
        x = leaf(shape)
        away = Tensor(x.data + np.where(x.data >= 0, 0.3, -0.3), requires_grad=True)
        check_gradients(lambda: weighted(ad.elu(away)), [away])


def test_grad_structure_ops():
    for n, d in ((2, 3), (1, 4), (3, 2)):
        rows_ = [leaf((d,)) for _ in range(n)]
        check_gradients(lambda: weighted(ad.stack(rows_)), rows_)
    for shape, index in (((3, 4), 0), ((2, 2), 1), ((5, 1), 4)):
        m = leaf(shape)
        check_gradients(lambda: weighted(ad.row(m, index)), [m])
    for shape, (lo, hi) in (((4, 3), (1, 3)), ((5, 2), (0, 5)), ((3, 3), (2, 3))):
        m = leaf(shape)
        check_gradients(lambda: weighted(ad.rows(m, lo, hi)), [m])
    for size, (lo, hi) in ((4, (1, 3)), (6, (0, 6)), (3, (2, 3))):
        v = leaf((size,))
        check_gradients(lambda: weighted(ad.narrow(v, lo, hi)), [v])
    for shape, new in (((2, 3), (6,)), ((4,), (2, 2)), ((2, 2), (4,))):
        x = leaf(shape)
        check_gradients(lambda: weighted(ad.reshape(x, new)), [x])


def test_grad_reductions_and_softmax():
    for shape in ((2, 3), (4, 2), (3, 3)):
        # Spread the entries so the argmax is stable under nudging.
        m = Tensor(RNG.permutation(np.linspace(-2.0, 2.0, int(np.prod(shape)))).reshape(shape),
                   requires_grad=True)
        check_gradients(lambda: weighted(ad.segment_max(m, [0])), [m])
    for size in (2, 4, 7):
        x = leaf((size,))
        weights = RNG.standard_normal(size)
        check_gradients(lambda: weighted(ad.softmax(x), weights), [x])
        mask = np.ones(size, dtype=bool)
        mask[0] = False
        check_gradients(lambda: weighted(ad.softmax(x, mask), weights), [x])


def test_grad_cross_entropy_and_dropout():
    for size, target in ((3, 0), (4, 2), (6, 5)):
        x = leaf((size,))
        check_gradients(lambda: ad.cross_entropy(ad.softmax(x), target), [x])
    for shape in ((8,), (3, 5), (20,)):
        x = leaf(shape)
        check_gradients(
            lambda: weighted(ad.dropout(x, 0.4, True, np.random.default_rng(11))), [x])


def test_grad_cross_entropy_on_probabilities():
    # Directly on a probability vector, masked (zero) entries included: the
    # gradient is -1/p at the target and exactly zero everywhere else.
    for probs, target in (([0.2, 0.0, 0.5, 0.0, 0.3], 2), ([1.0], 0), ([0.0, 0.6, 0.4], 1)):
        p = Tensor(np.array(probs), requires_grad=True)
        check_gradients(lambda: ad.cross_entropy(p, target), [p])
        want = np.zeros(len(probs))
        want[target] = -1.0 / probs[target]
        assert np.array_equal(p.grad, want)
    for size, target in ((4, 3), (6, 1)):
        x = leaf((size,))
        mask = np.arange(size) % 2 == target % 2
        check_gradients(lambda: ad.cross_entropy(ad.softmax(x, mask), target), [x])
        assert np.array_equal(x.grad[~mask], np.zeros(int((~mask).sum())))


def test_sum_terms_one_op():
    assert ad.sum_terms([]).item() == 0.0 and not ad.sum_terms([]).requires_grad
    one = leaf(())
    assert ad.sum_terms([one]) is one
    check_gradients(lambda: ad.sum_terms([ad.mul(one, one)]), [one])
    terms = [leaf(()) for _ in range(6)]
    out = ad.sum_terms(terms)
    want = terms[0].data
    for t in terms[1:]:
        want = want + t.data
    assert out.data == want and out._parents == tuple(terms)
    check_gradients(lambda: ad.sum_terms(terms), terms)
    vectors = [leaf((3,)), Tensor(np.ones(3)), leaf((3,))]
    check_gradients(lambda: weighted(ad.sum_terms(vectors)), [vectors[0], vectors[2]])
    with pytest.raises(ShapeError):
        ad.sum_terms([leaf((3,)), leaf((2,))])


# Fused recurrent steps and batching helpers, checked against finite
# differences and against a numpy reference of their gates.

def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


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
    pre = xw.data + w_h.data @ (h.data * mask)
    i, f = sigmoid(pre[:n]), sigmoid(pre[n:2 * n])
    g, o = np.tanh(pre[2 * n:3 * n]), sigmoid(pre[3 * n:])
    c_new = f * c.data + i * g
    h_new = o * np.tanh(c_new)
    fused = ad.lstm_step(xw, w_h, h, c, mask)
    assert np.allclose(fused.data, np.concatenate([h_new, c_new]), rtol=0.0, atol=1e-15)


def test_gru_step_matches_per_gate_ops():
    n = 3
    x_rz, x_n, u_rz, u_n, h = leaf((2 * n,)), leaf((n,)), leaf((2 * n, n)), leaf((n, n)), leaf((n,))
    mask = keep_mask(n)
    hm = h.data * mask
    rz = sigmoid(x_rz.data + u_rz.data @ hm)
    r, z = rz[:n], rz[n:]
    cand = np.tanh(x_n.data + u_n.data @ (r * hm))
    want = z * h.data + (1.0 - z) * cand
    got = ad.gru_step(x_rz, x_n, u_rz, u_n, h, mask)
    assert np.allclose(got.data, want, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("lead", [(), (4,), (4, 1)])
def test_lstm_cell_one_logistic_matches_three(lead):
    # One logistic pass over all four gates gives the bits of one per gate
    # slice, for a vector, rows, and the (k, 1, h) stacks of the batch ops.
    rng = np.random.default_rng(len(lead))
    for n in (1, 3, 8, 64):
        xw, h, c = (rng.standard_normal(lead + (width,)) * 4 for width in (4 * n, n, n))
        w_h = rng.standard_normal((4 * n, n))
        for mask in (None, (rng.random(n) >= 0.25) / 0.75):
            got = ad._lstm_cell(xw, w_h, h, c, mask)
            want = lstm_cell_three_logistics(xw, w_h, h, c, mask)
            assert all(np.array_equal(a, b) for a, b in zip(got[:2] + got[2], want[:2] + want[2]))


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
    ad.backward(total(ad.gather(m, idx)))
    assert np.array_equal(m.grad[:, 0], [1.0, 0.0, 3.0, 1.0])
    with pytest.raises(IndexError):
        ad.gather(m, [4])
    with pytest.raises(IndexError):
        ad.gather(m, [-1])


def frame_input_sum(reps, own, parent, sibling):
    """The decoder input as the parsers summed it before ``gather_sum``:
    the element's row, plus the parent's, plus the sibling's, when present."""
    x = reps[own]
    if parent >= 0:
        x = x + reps[parent]
    if sibling >= 0:
        x = x + reps[sibling]
    return x


def test_gather_sum_matches_frame_input_order():
    # Rows 0-2 cancel: 1 + 1e-16 - 1 is 0 left to right but 1e-16 in
    # other orders, so any reordering of the adds changes the result.
    m = Tensor(np.vstack([[1.0, 1e-16, -1.0, 3.0], [1e-16, -1.0, 1.0, 1e-16],
                          [-1.0, 1.0, 1e-16, -3.0], RNG.standard_normal((2, 4))]),
               requires_grad=True)
    frames = [(1, -1, -1), (2, 0, -1), (0, 1, 2), (2, 1, 0), (1, 2, 0), (0, -1, 2),
              (3, 1, 2), (4, 0, 1)]
    for frame in frames:
        assert np.array_equal(ad.gather_sum(m, frame).data, frame_input_sum(m.data, *frame))
    want = np.stack([frame_input_sum(m.data, *frame) for frame in frames])
    assert np.array_equal(ad.gather_sum(m, np.array(frames)).data, want)
    with no_grad():
        assert np.array_equal(ad.gather_sum(m, np.array(frames)).data, want)


def test_grad_gather_sum_vector_and_rows():
    m = leaf((5, 3))
    for frame in [(1, -1, -1), (3, 1, 2), (0, -1, 4), (2, 2, -1)]:
        check_gradients(lambda: weighted(ad.gather_sum(m, frame)), [m])
    # Rows 1 and 3 are picked in several index rows; -1 entries are absent.
    index = np.array([[1, -1, -1], [3, 1, 2], [3, 1, -1], [0, -1, 4]])
    check_gradients(lambda: weighted(ad.gather_sum(m, index)), [m])
    m.zero_grad()
    ad.backward(total(ad.gather_sum(m, index)))
    assert np.array_equal(m.grad[:, 0], [1.0, 3.0, 1.0, 2.0, 1.0])


def test_gather_sum_checks():
    m = leaf((3, 2))
    assert np.array_equal(ad.gather_sum(m, (-1, -1)).data, [0.0, 0.0])
    assert np.array_equal(ad.gather_sum(m, np.array([[-1, 1]])).data, m.data[[1]])
    with pytest.raises(ShapeError):
        ad.gather_sum(leaf((3,)), (0,))
    with pytest.raises(ShapeError):
        ad.gather_sum(m, np.array([0, 1]))
    with pytest.raises(ShapeError):
        ad.gather_sum(m, np.zeros((2, 0), dtype=int))
    with pytest.raises(IndexError):
        ad.gather_sum(m, (0, 3))
    with pytest.raises(IndexError):
        ad.gather_sum(m, np.array([[0, -1], [3, 1]]))


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
    ad.backward(total(out))
    assert np.array_equal(m.grad, [[0.0, 1.0], [1.0, 0.0], [0.0, 0.0], [1.0, 1.0], [0.0, 0.0]])
    assert np.array_equal(ad.segment_max(m, [0]).data, [[7.0, 7.0]])


def test_segment_max_matches_the_per_segment_loop_bit_for_bit():
    # Values and the gradient's target rows equal one argmax per segment,
    # ties to the first row included: ragged segments on a coarse grid of
    # values (so ties are common), one-row segments, and a single segment.
    rng = np.random.default_rng(41)
    cases = [(np.round(rng.standard_normal((rows_, 5)) * 2.0) / 2.0,
              [0] + sorted(rng.choice(np.arange(1, rows_), size=cut, replace=False).tolist()))
             for rows_, cut in ((12, 4), (9, 8), (30, 6), (7, 2))]
    cases += [(rng.standard_normal((6, 3)), [0, 1, 2, 3, 4, 5]),
              (rng.standard_normal((1, 4)), [0]),
              (np.round(rng.standard_normal((8, 4))), [0]),
              (np.array([[2.0, -1.0], [2.0, 3.0], [-np.inf, 3.0], [-np.inf, -np.inf]]), [0, 2])]
    for data, starts in cases:
        want, arg = segment_max_per_segment(data, starts)
        m = Tensor(data.copy(), requires_grad=True)
        out = ad.segment_max(m, starts)
        assert out.data.tobytes() == want.tobytes()
        g = rng.standard_normal(out.data.shape)
        ad.backward(ad.matmul(ad.reshape(out, (-1,)), Tensor(g.ravel())))
        target = np.zeros_like(data)
        target[arg, np.arange(data.shape[1])] = g
        assert m.grad.tobytes() == target.tobytes()


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
        weights = RNG.standard_normal(shape)
        check_gradients(lambda: weighted(ad.softmax(x), weights), [x])
        mask = RNG.random(shape) < 0.6
        mask[:, -1] = True
        check_gradients(lambda: weighted(ad.softmax(x, mask), weights), [x])
        got = ad.softmax(x, mask).data
        for i in range(shape[0]):
            assert np.array_equal(got[i], ad.softmax(Tensor(x.data[i]), mask[i]).data)
        assert np.array_equal(got[~mask], np.zeros(int((~mask).sum())))


def test_softmax_rows_errors():
    with pytest.raises(ShapeError):
        ad.softmax(Tensor(np.zeros((2, 3))), np.ones(3, dtype=bool))
    with pytest.raises(ShapeError):
        ad.softmax(Tensor(np.zeros((2, 3))), np.ones((3, 2), dtype=bool))
    with pytest.raises(MaskError):
        ad.softmax(Tensor(np.zeros((2, 3))), np.array([[True, False, False], [False] * 3]))


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


# Sequence-level recurrences and the fused decoder state fusion.  Each is
# checked against finite differences and against the per-step or per-op
# graph it replaces: forward values bit for bit, gradients within 1e-10.

def grads_of(make, tensors, weights=None):
    for t in tensors:
        t.zero_grad()
    ad.backward(weighted(make(), weights))
    return [t.grad.copy() for t in tensors]


def assert_same_values_and_grads(make, reference, tensors):
    assert np.array_equal(make().data, reference().data)
    for got, want in zip(grads_of(make, tensors), grads_of(reference, tensors)):
        assert np.abs(got - want).max(initial=0.0) <= 1e-10


def step_loop(step, steps, n, order):
    """Hidden states of a per-step loop, one row per timestep."""
    state = (Tensor(np.zeros(n)), Tensor(np.zeros(n)))
    out = [None] * steps
    for t in order:
        state = step(t, state)
        out[t] = state[0]
    return ad.stack(out)


def lstm_loop(xw, w_h, order, mask):
    n = w_h.data.shape[1]

    def step(t, state):
        hc = ad.lstm_step(ad.row(xw, t), w_h, state[0], state[1], mask)
        return ad.narrow(hc, 0, n), ad.narrow(hc, n, 2 * n)

    return step_loop(step, xw.data.shape[0], n, order)


def gru_loop(x_rz, x_n, u_rz, u_n, order, mask):
    def step(t, state):
        return ad.gru_step(ad.row(x_rz, t), ad.row(x_n, t), u_rz, u_n, state[0], mask), None

    return step_loop(step, x_n.data.shape[0], u_n.data.shape[0], order)


def orders(steps):
    return range(steps), range(steps - 1, -1, -1)


@pytest.mark.parametrize("steps", [1, 5])
def test_grad_lstm_seq(steps):
    n = 3
    xw, w_h = leaf((steps, 4 * n)), leaf((4 * n, n))
    for mask in (None, keep_mask(n)):
        for order in orders(steps):
            check_gradients(lambda: weighted(ad.lstm_seq(xw, w_h, order, mask)), [xw, w_h])
            assert_same_values_and_grads(lambda: ad.lstm_seq(xw, w_h, order, mask),
                                         lambda: lstm_loop(xw, w_h, order, mask), [xw, w_h])


@pytest.mark.parametrize("steps", [1, 5])
def test_grad_gru_seq(steps):
    n = 3
    x_rz, x_n = leaf((steps, 2 * n)), leaf((steps, n))
    u_rz, u_n = leaf((2 * n, n)), leaf((n, n))
    tensors = [x_rz, x_n, u_rz, u_n]
    for mask in (None, keep_mask(n)):
        for order in orders(steps):
            check_gradients(lambda: weighted(ad.gru_seq(*tensors, order, mask)), tensors)
            assert_same_values_and_grads(lambda: ad.gru_seq(*tensors, order, mask),
                                         lambda: gru_loop(*tensors, order, mask), tensors)


def test_seq_ops_keep_no_graph_without_grad():
    xw, w_h = leaf((4, 8)), leaf((8, 2))
    with no_grad():
        out = ad.lstm_seq(xw, w_h, [2, 0, 3, 1])
    assert out._bwd is None and out._parents == ()
    assert np.array_equal(out.data, lstm_loop(xw, w_h, [2, 0, 3, 1], None).data)


def test_seq_op_shape_and_order_checks():
    with pytest.raises(ShapeError):
        ad.lstm_seq(leaf((3, 7)), leaf((8, 2)), range(3))
    with pytest.raises(ShapeError):
        ad.lstm_seq(leaf((3, 8)), leaf((8, 2)), [0, 1, 1])
    with pytest.raises(ShapeError):
        ad.gru_seq(leaf((3, 4)), leaf((2, 2)), leaf((4, 2)), leaf((2, 2)), range(3))
    with pytest.raises(ShapeError):
        ad.gru_seq(leaf((3, 4)), leaf((3, 2)), leaf((4, 2)), leaf((2, 2)), range(2))
    # A batch's orders visit every row once between them, and a mask is
    # one row for all sequences or one row per sequence.
    xw, w_h = leaf((4, 8)), leaf((8, 2))
    ad.lstm_seq(xw, w_h, [[0, 1], [3, 2]], np.ones((2, 2)))
    for order in ([[0, 1], [1, 2, 3]], [[0, 1], [2]], [[0, 1], [2, 4]]):
        with pytest.raises(ShapeError):
            ad.lstm_seq(xw, w_h, order)
    for mask in (np.ones(3), np.ones((3, 2))):
        with pytest.raises(ShapeError):
            ad.lstm_seq(xw, w_h, [[0, 1], [3, 2]], mask)


# The batch axis of the sequence ops.  A batch names one visiting order per
# sequence; the references below are the one-sequence ops as they were
# before it, on arrays, so a batch of one is held to them bit for bit.

def lstm_seq_reference(xw, w_h, order, mask, grad):
    """One LSTM direction step by step on vectors, then backpropagation
    through time: (states, gradient of xw, gradient of w_h) for ``grad``."""
    steps, n = xw.shape[0], w_h.shape[1]
    out, saved = np.empty((steps, n)), [None] * steps
    h = c = np.zeros(n)
    for t in order:
        h, c, saved[t] = ad._lstm_cell(xw[t], w_h, h, c, mask)
        out[t] = h
    dpre, dh, dc = np.empty((steps, 4 * n)), np.zeros(n), np.zeros(n)
    for t in reversed(order):
        dpre[t], dc = ad._lstm_cell_back(grad[t] + dh, dc, saved[t])
        dh = w_h.T @ dpre[t]
        if mask is not None:
            dh = dh * mask
    return out, dpre, dpre.T @ np.stack([cell[0] for cell in saved])


def gru_seq_reference(x_rz, x_n, u_rz, u_n, order, mask, grad):
    """One GRU direction step by step on vectors, then backpropagation
    through time: (states, gradients of x_rz, x_n, u_rz, u_n)."""
    steps, n = x_n.shape
    out, saved = np.empty((steps, n)), [None] * steps
    h = np.zeros(n)
    for t in order:
        h, saved[t] = ad._gru_cell(x_rz[t], x_n[t], u_rz, u_n, h, mask)
        out[t] = h
    drz, dn, dh = np.empty((steps, 2 * n)), np.empty((steps, n)), np.zeros(n)
    for t in reversed(order):
        drz[t], dn[t], dh = ad._gru_cell_back(grad[t] + dh, u_rz, u_n, saved[t], mask)
    return (out, drz, dn, drz.T @ np.stack([cell[1] for cell in saved]),
            dn.T @ np.stack([cell[3] for cell in saved]))


# Sequence lengths of a batch: the longest is not first, one has length 1.
LENGTHS = [3, 1, 5, 2]


def batch_orders(lengths, reverse=False):
    """One visiting order per sequence over consecutive rows."""
    starts = np.cumsum(lengths) - lengths
    return [range(a + n - 1, a - 1, -1) if reverse else range(a, a + n)
            for a, n in zip(starts, lengths)]


def batch_masks(lengths, n):
    rng = np.random.default_rng(len(lengths))
    return (rng.random((len(lengths), n)) >= 0.4) / 0.6


def seq_cases(n):
    """(order, mask) pairs: forward, reversed and scrambled orders of a
    batch, each without masks and with one mask row per sequence."""
    scrambled = [[2, 0, 1], [3], [8, 4, 6, 5, 7], [10, 9]]
    return [(order, mask) for order in (batch_orders(LENGTHS), batch_orders(LENGTHS, True),
                                        scrambled)
            for mask in (None, batch_masks(LENGTHS, n))]


def test_grad_seq_ops_batch():
    n, steps = 3, sum(LENGTHS)
    xw, w_h = leaf((steps, 4 * n)), leaf((4 * n, n))
    x_rz, x_n, u_rz, u_n = leaf((steps, 2 * n)), leaf((steps, n)), leaf((2 * n, n)), leaf((n, n))
    for order, mask in seq_cases(n):
        check_gradients(lambda: weighted(ad.lstm_seq(xw, w_h, order, mask)), [xw, w_h])
        check_gradients(lambda: weighted(ad.gru_seq(x_rz, x_n, u_rz, u_n, order, mask)),
                        [x_rz, x_n, u_rz, u_n])


@pytest.mark.parametrize("steps", [1, 5])
def test_seq_ops_one_sequence_match_reference_bitwise(steps):
    # A batch of one, given as one order or as a list of one, gives the
    # pre-batch op's states and gradients bit for bit.
    n = 3
    grad = RNG.standard_normal((steps, n))
    xw, w_h = leaf((steps, 4 * n)), leaf((4 * n, n))
    x_rz, x_n, u_rz, u_n = leaf((steps, 2 * n)), leaf((steps, n)), leaf((2 * n, n)), leaf((n, n))
    gru = [x_rz, x_n, u_rz, u_n]
    for mask in (None, keep_mask(n)):
        for order in orders(steps):
            for given in (order, [order]):
                want = lstm_seq_reference(xw.data, w_h.data, list(order), mask, grad)
                out = ad.lstm_seq(xw, w_h, given, mask)
                got = [out.data] + grads_of(lambda: out, [xw, w_h], grad)
                assert all(np.array_equal(g, w) for g, w in zip(got, want))
                want = gru_seq_reference(*[t.data for t in gru], list(order), mask, grad)
                out = ad.gru_seq(*gru, given, mask)
                got = [out.data] + grads_of(lambda: out, gru, grad)
                assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_seq_ops_batch_invariance():
    # The bit policy: step t of every sequence is one stacked product, so
    # each sequence's states in a batch are bit-equal to its run alone.
    # Gradients are sums over the batch's rows and agree within rounding.
    n, steps = 3, sum(LENGTHS)
    starts = np.cumsum(LENGTHS) - LENGTHS
    grad = RNG.standard_normal((steps, n))
    xw, w_h = leaf((steps, 4 * n)), leaf((4 * n, n))
    x_rz, x_n, u_rz, u_n = leaf((steps, 2 * n)), leaf((steps, n)), leaf((2 * n, n)), leaf((n, n))
    ops = [(lambda x, order, mask: ad.lstm_seq(*x, w_h, order, mask), [xw], [w_h]),
           (lambda x, order, mask: ad.gru_seq(*x, u_rz, u_n, order, mask), [x_rz, x_n],
            [u_rz, u_n])]
    for op, inputs, weights in ops:
        for order, mask in seq_cases(n):
            out = op(inputs, order, mask)
            got = grads_of(lambda: out, inputs + weights, grad)
            want = [np.zeros_like(t.data) for t in inputs + weights]
            for b, (a, length) in enumerate(zip(starts, LENGTHS)):
                rows = slice(a, a + length)
                alone = [Tensor(t.data[rows], requires_grad=True) for t in inputs]
                one = op(alone, [np.asarray(order[b]) - a], None if mask is None else mask[b])
                assert np.array_equal(out.data[rows], one.data)
                grads = grads_of(lambda: one, alone + weights, grad[rows])
                for w, g in zip(want, grads[: len(inputs)]):
                    w[rows] = g
                for w, g in zip(want[len(inputs) :], grads[len(inputs) :]):
                    w += g
            for g, w in zip(got, want):
                assert relative_error(g, w) <= 1e-12


def fusion_weights(h):
    """w_d, w_p, w_s, w_gd, w_gp, w_gs and b_g."""
    return [leaf((h, h)) for _ in range(6)] + [leaf((h,))]


def tanh_op(x):
    """Reference tanh node, for the per-op fusion graph below."""
    data = np.tanh(x.data)
    return ad._node(data, (x,), lambda g: x._accum(g * (1.0 - data * data)))


def sigmoid_op(x):
    """Reference logistic node, for the per-op fusion graph below."""
    data = sigmoid(x.data)
    return ad._node(data, (x,), lambda g: x._accum(g * data * (1.0 - data)))


def fuse_chain(prev, parent, sibling, weights, fusion):
    """The decoder's former fusion of one state component, one op at a time."""
    w_d, w_p, w_s, w_gd, w_gp, w_gs, b_g = weights
    combined = tanh_op(ad.add(ad.add(linear(w_d, prev), linear(w_p, parent)),
                           linear(w_s, sibling)))
    if fusion == "plain":
        return combined
    if fusion == "gate":
        raw = ad.add(ad.add(linear(w_gd, prev), linear(w_gp, parent)), linear(w_gs, sibling))
    else:
        raw = ad.add(linear(w_gp, ad.mul(prev, parent)), linear(w_gs, ad.mul(prev, sibling)))
    return ad.mul(sigmoid_op(ad.add(raw, b_g)), combined)


def fusion_inputs(h, components=2):
    """(prev, parent, sibling) block triples: one state (C, h) and two
    states as rows (2, C, h), with the zero block standing in for absent
    states, also against rows, and one state broadcast against rows."""
    zero = Tensor(np.zeros((components, h)))
    one = [leaf((components, h)) for _ in range(3)]
    two = [leaf((2, components, h)) for _ in range(3)]
    return [tuple(one), (one[0], zero, zero), (zero, one[1], zero),
            tuple(two), (two[0], zero, zero), (zero, two[1], two[2]), (two[0], two[1], zero),
            (one[0], two[1], two[2])]


def fuse_by_component(states, weights, fusion):
    """``fuse_chain`` on each state component on its own, joined back into
    a block: the decoder's fusion before it took blocks."""
    components, h = states[0].data.shape[-2:]
    fused = [fuse_chain(*(ad.row(x, i) for x in states), weights, fusion)
             for i in range(components)]
    return ad.reshape(ad.hconcat(fused), fused[0].data.shape[:-1] + (components, h))


@pytest.mark.parametrize("fusion", ["plain", "gate", "sgate"])
def test_grad_fuse_state(fusion):
    # Block form: each component fused by one op over all of them has the
    # bits of the per-component chain, vector products for one state and
    # row products for several.
    h = 3
    weights = fusion_weights(h)
    for states in fusion_inputs(h):
        tensors = [x for x in states if x.requires_grad] + weights
        make = lambda: ad.fuse_state(*states, *weights, fusion)
        check_gradients(lambda: weighted(make()), tensors)
        assert_same_values_and_grads(make, lambda: fuse_by_component(states, weights, fusion),
                                     tensors)


def test_fuse_state_checks():
    weights = fusion_weights(3)
    with pytest.raises(ConfigError):
        ad.fuse_state(leaf((3,)), leaf((3,)), leaf((3,)), *weights, "max")
    with pytest.raises(ShapeError):
        ad.fuse_state(leaf((2, 3)), leaf((4, 3)), leaf((3,)), *weights, "gate")
    with pytest.raises(ShapeError):
        ad.fuse_state(leaf((4,)), leaf((4,)), leaf((4,)), *weights, "plain")
    with pytest.raises(ShapeError):  # a vector is not a block
        ad.fuse_state(leaf((3,)), leaf((3,)), leaf((3,)), *weights, "plain")
    with pytest.raises(ShapeError):  # two and three rows
        ad.fuse_state(leaf((2, 2, 3)), leaf((3, 2, 3)), leaf((2, 3)), *weights, "plain")


# The teacher-forced decoder pass as one op, against the per-step graph of
# ``fuse_state``, ``dropout`` and ``lstm_step`` or ``gru_step`` it replaces.

# Bank rows (prev, parent, sibling) of a 6-step schedule: step t writes row
# t + 1, row 0 is the zero state, and a row may serve twice in one step.
SCHEDULE = np.array([[0, 0, 0], [1, 1, 0], [2, 2, 0], [3, 2, 3], [4, 1, 2], [5, 0, 4]])


def decoder_cells(layers, n, in_dim, cell="lstm"):
    """Each layer's weights in ``hier_seq``'s order for ``cell``."""
    def sizes(l):
        width = in_dim if l == 0 else n
        if cell == "lstm":
            return [(4 * n, width), (4 * n,), (4 * n, n)]
        return [(2 * n, width), (n, width), (2 * n,), (n,), (2 * n, n), (n, n)]
    return [tuple(leaf(shape) for shape in sizes(l)) for l in range(layers)]


def hier_loop(x, cell, cells, weights, fusion, rows, keep):
    """The per-step decoder: one ``fuse_state`` and keep product per step
    on the (C, h) block of state components, then one ``lstm_step`` or
    ``gru_step`` per layer; the top states as rows."""
    n = weights[0].data.shape[0]
    width = 2 if cell == "lstm" else 1
    components = width * len(cells)
    bank = [(Tensor(np.zeros(n)),) * components]
    top = []
    for t, (prev, parent, sibling) in enumerate(rows):
        block = ad.fuse_state(*(ad.stack(list(bank[r])) for r in (prev, parent, sibling)),
                              *weights, fusion)
        if keep is not None:
            block = ad.mul(block, Tensor(keep[t]))
        fused = [ad.row(block, i) for i in range(components)]
        inp, state = ad.row(x, t), []
        for l, layer in enumerate(cells):
            if cell == "lstm":
                w_x, b, w_h = layer
                hc = ad.lstm_step(ad.add(linear(w_x, inp), b), w_h, fused[2 * l], fused[2 * l + 1])
                inp = ad.narrow(hc, 0, n)
                state += [inp, ad.narrow(hc, n, 2 * n)]
            else:
                w_rz, w_n, b_rz, b_n, u_rz, u_n = layer
                inp = ad.gru_step(ad.add(linear(w_rz, inp), b_rz), ad.add(linear(w_n, inp), b_n),
                                  u_rz, u_n, fused[l])
                state.append(inp)
        bank.append(tuple(state))
        top.append(inp)
    return ad.stack(top)


# LSTM cases keep the ids they had before the op took GRU cells too.
HIER_CASES = [pytest.param(cell, fusion, layers,
                           id=f"{fusion}-{layers}" + ("" if cell == "lstm" else "-gru"))
              for cell in ("lstm", "gru") for layers in (1, 2)
              for fusion in ("plain", "gate", "sgate")]


@pytest.mark.parametrize("cell, fusion, layers", HIER_CASES)
def test_grad_hier_lstm_seq(cell, fusion, layers):
    n, in_dim = 3, 4
    width = 2 if cell == "lstm" else 1
    x = leaf((len(SCHEDULE), in_dim))
    cells = decoder_cells(layers, n, in_dim, cell)
    weights = fusion_weights(n)
    used = list(ad._FUSION_WEIGHTS[fusion](weights))
    tensors = [x] + [t for layer in cells for t in layer] + used
    masks = np.random.default_rng(5).random((len(SCHEDULE), width * layers, n))
    reference = lambda: hier_loop(x, cell, cells, weights, fusion, SCHEDULE, keep)
    for keep in (None, (masks >= 0.3) / 0.7):
        make = lambda: ad.hier_seq(x, cell, cells, weights, fusion, SCHEDULE, keep)
        check_gradients(lambda: weighted(make()), tensors)
        assert np.abs(make().data - reference().data).max() <= 1e-12
        for g, w in zip(grads_of(make, tensors), grads_of(reference, tensors)):
            assert np.abs(g - w).max(initial=0.0) <= 1e-10


def test_hier_lstm_seq_checks():
    n = 3
    rows = SCHEDULE[:3]
    weights = fusion_weights(n)
    for cell, components in (("lstm", 4), ("gru", 2)):
        x, cells = leaf((3, 4)), decoder_cells(2, n, 4, cell)
        with no_grad():
            out = ad.hier_seq(x, cell, cells, weights, "gate", rows)
        assert out._bwd is None and out._parents == () and out.data.shape == (3, n)
        assert np.array_equal(out.data, ad.hier_seq(x, cell, cells, weights, "gate", rows).data)
        with pytest.raises(ConfigError):
            ad.hier_seq(x, cell, cells, weights, "max", rows)
        with pytest.raises(IndexError):  # step 1 may not read row 2, its own output
            ad.hier_seq(x, cell, cells, weights, "gate", [[0, 0, 0], [2, 0, 0], [0, 0, 0]])
        with pytest.raises(ShapeError):
            ad.hier_seq(leaf((3, 5)), cell, cells, weights, "gate", rows)
        with pytest.raises(ShapeError):
            ad.hier_seq(x, cell, cells, weights, "gate", rows, keep=np.ones((3, components - 1, n)))
        ad.hier_seq(x, cell, cells, weights, "gate", rows, keep=np.ones((3, components, n)))
    with pytest.raises(ConfigError):
        ad.hier_seq(x, "rnn", cells, weights, "gate", rows)
    # In a batch each schedule names its own rows: the second schedule's
    # first step may read only the zero row, and lengths must cover the steps.
    x, cells = leaf((4, 4)), decoder_cells(1, n, 4)
    batch = [[0, 0, 0], [1, 1, 0], [0, 0, 0], [1, 0, 0]]
    ad.hier_seq(x, "lstm", cells, weights, "gate", batch, lengths=[2, 2])
    with pytest.raises(IndexError):
        ad.hier_seq(x, "lstm", cells, weights, "gate", batch[:2] + [[1, 0, 0]] * 2, lengths=[2, 2])
    for lengths in ([2, 1], [5, -1], [[4]]):
        with pytest.raises(ShapeError):
            ad.hier_seq(x, "lstm", cells, weights, "gate", batch, lengths=lengths)
    with pytest.raises(ShapeError):  # GRU layers handed to the LSTM form
        ad.hier_seq(x, "lstm", cells, weights, "gate", rows)


def hier_seq_reference(x, cell, cells, weights, fusion, rows, keep, grad):
    """``hier_seq`` for one schedule as it was before the batch axis, on
    arrays: each step fuses one (C, h) block and runs the layers on
    vectors, then backpropagation through the tree.  Returns the top
    states and the gradients of ``x``, of every layer weight and of every
    fusion weight, for upstream ``grad``."""
    fw = tuple(t.data for t in weights)
    h, depth = fw[0].shape[0], len(cells)
    width, parts = (2, 1) if cell == "lstm" else (1, 2)
    components = width * depth
    arrays = [[t.data for t in layer] for layer in cells]
    steps = len(rows)

    def project(l, inp):
        return ad._project(arrays[l][:parts], arrays[l][parts : 2 * parts], inp)

    xp = project(0, x.data)
    bank, fused = np.zeros((steps + 1, components, h)), np.empty((steps, components, h))
    saved, extra = [], [[None] * steps for _ in cells]
    for t in range(steps):
        p, q, s = bank[rows[t]]
        fused[t], fuse_saved = ad._fuse(p, q, s, fw, fusion)
        if keep is not None:
            fused[t] *= keep[t]
        inp, cell_saved = xp[t], []
        for l in range(depth):
            if l:
                inp = project(l, inp)
            if cell == "lstm":
                hn, cn, kept = ad._lstm_cell(inp, arrays[l][2], fused[t, 2 * l],
                                             fused[t, 2 * l + 1], None)
                bank[t + 1, 2 * l], bank[t + 1, 2 * l + 1] = hn, cn
            else:
                hn, kept = ad._gru_cell(inp[: 2 * h], inp[2 * h :], arrays[l][4], arrays[l][5],
                                        fused[t, l], None)
                bank[t + 1, l], extra[l][t] = hn, kept[3]
            inp = hn
            cell_saved.append(kept)
        saved.append((p, q, s, fuse_saved, cell_saved))

    d_bank = np.zeros_like(bank)
    d_bank[1:, components - width] = grad
    dproj = np.empty((depth, steps, (4 if cell == "lstm" else 3) * h))
    pairs, d_gates = {}, []
    for t in reversed(range(steps)):
        p, q, s, fuse_saved, cell_saved = saved[t]
        d_fused, d_below = np.empty((components, h)), 0.0
        for l in reversed(range(depth)):
            first = width * l
            d_h = d_bank[t + 1, first] + d_below
            if cell == "lstm":
                dproj[l, t], dc = ad._lstm_cell_back(d_h, d_bank[t + 1, first + 1], cell_saved[l])
                d_fused[first] = ad._input_grad(arrays[l][2], dproj[l, t])
                d_fused[first + 1] = dc
            else:
                drz, dn, d_fused[first] = ad._gru_cell_back(d_h, arrays[l][4], arrays[l][5],
                                                            cell_saved[l], None)
                dproj[l, t] = np.concatenate([drz, dn])
            if l:
                d_below = ad._project_back(arrays[l][:parts], dproj[l, t])
        if keep is not None:
            d_fused *= keep[t]
        *dx, step_pairs, d_gate = ad._fuse_back(d_fused, p, q, s, fw, fusion, fuse_saved)
        for row, d in zip(rows[t], dx):
            d_bank[row] += d
        for i, inp, d in step_pairs:
            pairs.setdefault(i, []).append((inp, d))
        if d_gate is not None:
            d_gates.append(d_gate)
    grads = {id(weights[i]): np.concatenate([d for _, d in terms]).T
             @ np.concatenate([inp for inp, _ in terms]) for i, terms in pairs.items()}
    if d_gates:
        grads[id(weights[6])] = np.concatenate(d_gates).sum(axis=0)
    for l, layer in enumerate(cells):
        below = x.data if l == 0 else bank[1:, width * (l - 1)]
        recurrent = [fused[:, width * l]] + ([] if cell == "lstm" else [np.stack(extra[l])])
        bounds = [2 * h] if cell == "gru" else []
        for k, d in enumerate(np.split(dproj[l], bounds, axis=1)):
            grads[id(layer[k])] = d.T @ below
            grads[id(layer[parts + k])] = d.sum(axis=0)
            grads[id(layer[2 * parts + k])] = d.T @ recurrent[k]
    grads[id(x)] = ad._project_back(arrays[0][:parts], dproj[0])
    return bank[1:, components - width].copy(), grads


# Schedules of a batch, in their own bank rows: 3 steps, 1 step and the
# 6-step SCHEDULE, so the longest is not first and one has length 1.
SCHEDULES = [np.array([[0, 0, 0], [1, 1, 0], [2, 1, 2]]), np.array([[0, 0, 0]]), SCHEDULE]


def hier_batch(cell, fusion, layers, with_keep):
    """Inputs, weights and keep masks of a hier_seq batch over SCHEDULES."""
    n, in_dim = 3, 4
    steps = sum(len(s) for s in SCHEDULES)
    width = 2 if cell == "lstm" else 1
    x = leaf((steps, in_dim))
    cells = decoder_cells(layers, n, in_dim, cell)
    weights = fusion_weights(n)
    masks = np.random.default_rng(6).random((steps, width * layers, n))
    keep = (masks >= 0.3) / 0.7 if with_keep else None
    tensors = [x] + [t for layer in cells for t in layer] + list(ad._FUSION_WEIGHTS[fusion](weights))
    return x, cells, weights, keep, tensors


@pytest.mark.parametrize("with_keep", [False, True])
@pytest.mark.parametrize("cell, fusion, layers", HIER_CASES)
def test_grad_hier_seq_batch(cell, fusion, layers, with_keep):
    x, cells, weights, keep, tensors = hier_batch(cell, fusion, layers, with_keep)
    rows, lengths = np.concatenate(SCHEDULES), [len(s) for s in SCHEDULES]
    check_gradients(lambda: weighted(ad.hier_seq(x, cell, cells, weights, fusion, rows, keep,
                                                 lengths)), tensors)


@pytest.mark.parametrize("cell, fusion, layers", HIER_CASES)
def test_hier_seq_one_schedule_matches_reference_bitwise(cell, fusion, layers):
    # A batch of one, with or without ``lengths``, gives the pre-batch op's
    # states and gradients bit for bit.
    for with_keep in (False, True):
        x, cells, weights, keep, tensors = hier_batch(cell, fusion, layers, with_keep)
        rows, steps = SCHEDULE, len(SCHEDULE)
        x = Tensor(x.data[:steps], requires_grad=True)
        keep = None if keep is None else keep[:steps]
        tensors = [x] + tensors[1:]
        grad = RNG.standard_normal((steps, 3))
        want, want_grads = hier_seq_reference(x, cell, cells, weights, fusion, rows, keep, grad)
        for lengths in (None, [steps]):
            out = ad.hier_seq(x, cell, cells, weights, fusion, rows, keep, lengths)
            assert np.array_equal(out.data, want)
            for t, g in zip(tensors, grads_of(lambda: out, tensors, grad)):
                assert np.array_equal(g, want_grads[id(t)])


@pytest.mark.parametrize("cell, fusion, layers", HIER_CASES)
def test_hier_seq_batch_invariance(cell, fusion, layers):
    # Each schedule's states in a batch are bit-equal to its run alone (the
    # bit policy); gradients are sums over the batch and agree within
    # rounding with the sums of the runs alone.
    x, cells, weights, keep, tensors = hier_batch(cell, fusion, layers, True)
    rows, lengths = np.concatenate(SCHEDULES), [len(s) for s in SCHEDULES]
    grad = RNG.standard_normal((len(rows), 3))
    out = ad.hier_seq(x, cell, cells, weights, fusion, rows, keep, lengths)
    got = grads_of(lambda: out, tensors, grad)
    want = [np.zeros_like(t.data) for t in tensors]
    start = 0
    for schedule in SCHEDULES:
        part = slice(start, start + len(schedule))
        alone = Tensor(x.data[part], requires_grad=True)
        one = ad.hier_seq(alone, cell, cells, weights, fusion, schedule, keep[part])
        assert np.array_equal(out.data[part], one.data)
        grads = grads_of(lambda: one, [alone] + tensors[1:], grad[part])
        want[0][part] = grads[0]
        for w, g in zip(want[1:], grads[1:]):
            w += g
        start += len(schedule)
    for g, w in zip(got, want):
        assert relative_error(g, w) <= 1e-12


def test_grad_cross_entropy_rows():
    # Row form: one node whose value is the row terms added left to right,
    # as ``sum_terms`` of the vector-form terms adds them.
    for k, m in ((1, 3), (4, 5), (9, 2)):
        x = leaf((k, m))
        targets = RNG.integers(0, m, size=k)
        check_gradients(lambda: ad.cross_entropy(ad.softmax(x), targets), [x])
        probs = ad.softmax(x)
        terms = [ad.cross_entropy(Tensor(probs.data[i]), int(t)) for i, t in enumerate(targets)]
        assert ad.cross_entropy(probs, targets).item() == ad.sum_terms(terms).item()
    p = Tensor(np.array([[0.25, 0.0, 0.75], [0.5, 0.5, 0.0]]), requires_grad=True)
    ad.backward(ad.cross_entropy(p, [2, 0]))
    assert np.array_equal(p.grad, [[0.0, 0.0, -1 / 0.75], [-2.0, 0.0, 0.0]])
    for targets in ([3, 0], [0, -1]):
        with pytest.raises(IndexError):
            ad.cross_entropy(p, targets)
    for targets in ([0], [0, 1, 2], [[0, 1]]):
        with pytest.raises(ShapeError):
            ad.cross_entropy(p, targets)


def test_gather_sum_tuple_fast_path():
    # A tuple index sums its present rows in one pass with no index list;
    # under no_grad a one-entry frame hands back the stored row, and every
    # result is bit for bit the left-to-right sum, with the same errors.
    m = leaf((4, 3))
    with no_grad():
        for i in range(4):
            one = ad.gather_sum(m, (i, -1, -1))
            assert np.array_equal(one.data, m.data[i]) and not one.requires_grad
        for frame in [(0, 1, 2), (3, -1, 1), (2, 0, -1)]:
            assert np.array_equal(ad.gather_sum(m, frame).data, frame_input_sum(m.data, *frame))
        assert np.array_equal(ad.gather_sum(m, (-1, -1, -1)).data, np.zeros(3))
        for frame in [(4, -1, -1), (0, -1, 4), (1, 9, 0)]:
            with pytest.raises(IndexError):
                ad.gather_sum(m, frame)
