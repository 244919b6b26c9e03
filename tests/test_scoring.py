"""Pointer and labeler tests: label inventory behavior, attention results,
masked biaffine attention, and the dot-product split scorer."""

import numpy as np
import pytest

from ptrparse import autodiff as ad
from ptrparse.autodiff import Tensor
from ptrparse.errors import DataError, ShapeError
from ptrparse.scoring import (AttentionResult, BiaffinePointer, LabelSet,
                              PairLabeler, dot_attend)

from helpers import check_gradients

RNG = np.random.default_rng(20240814)


def test_labelset_basics():
    labels = LabelSet(["amod", "nsubj", "root"])
    assert len(labels) == 3
    assert labels["nsubj"] == 1
    assert labels.name(2) == "root"
    with pytest.raises(DataError):
        labels["det"]
    with pytest.raises(DataError):
        LabelSet(["a", "a"])
    with pytest.raises(DataError):
        LabelSet([])


def test_labelset_hash_tracks_content_and_order():
    a = LabelSet(["x", "y"])
    b = LabelSet(["x", "y"])
    c = LabelSet(["y", "x"])
    assert a.hash == b.hash
    assert a.hash != c.hash


def test_labelset_file_roundtrip(tmp_path):
    path = tmp_path / "labels.txt"
    original = LabelSet(["NS-Cause", "SN-Contrast", "NN-Joint"])
    original.to_file(path)
    again = LabelSet.from_file(path)
    assert again.names == original.names
    assert again.hash == original.hash


def test_attention_result_best_and_prob():
    probs = Tensor(np.array([0.2, 0.5, 0.3]))
    res = AttentionResult(Tensor(np.zeros(3)), probs, offset=4)
    assert len(res) == 3
    assert res.best() == 5
    assert res.prob(6) == pytest.approx(0.3)
    assert res.nll(5).item() == pytest.approx(-np.log(0.5))


def test_attention_result_tie_breaks_low():
    probs = Tensor(np.array([0.4, 0.4, 0.2]))
    res = AttentionResult(Tensor(np.zeros(3)), probs, offset=0)
    assert res.best() == 0


def test_row_form_attention_result_rejects_single_state_accessors():
    pointer = BiaffinePointer(4, 6, 5, np.random.default_rng(2), dropout=0.0)
    prepared = pointer.prepare(Tensor(RNG.standard_normal((5, 6))))
    mask = np.array([[True, False, True, True, False], [False, True, True, False, True]])
    res = pointer.attend(Tensor(RNG.standard_normal((2, 4))), prepared, mask)
    assert res.probs.data.shape == (2, 5)
    for access in (len, AttentionResult.best, lambda r: r.prob(1), lambda r: r.nll(1)):
        with pytest.raises(ShapeError):
            access(res)


def test_biaffine_pointer_masked_attention():
    pointer = BiaffinePointer(4, 6, 5, np.random.default_rng(0), dropout=0.0)
    matrix = Tensor(RNG.standard_normal((5, 6)))
    prepared = pointer.prepare(matrix)
    d = Tensor(RNG.standard_normal(4))
    mask = np.array([True, False, True, True, False])
    res = pointer.attend(d, prepared, mask)
    assert res.probs.data[1] == 0.0 and res.probs.data[4] == 0.0
    assert res.probs.data.sum() == pytest.approx(1.0)
    assert res.best() in (0, 2, 3)


def test_biaffine_pointer_scores_match_score_pair():
    pointer = BiaffinePointer(4, 6, 5, np.random.default_rng(1), dropout=0.0)
    matrix = Tensor(RNG.standard_normal((3, 6)))
    prepared = pointer.prepare(matrix)
    d = Tensor(RNG.standard_normal(4))
    res = pointer.attend(d, prepared, np.ones(3, dtype=bool))
    for k in range(3):
        pair = pointer.biaffine.score(pointer.g1(d), pointer.g2(Tensor(matrix.data[k])))
        assert res.scores.data[k] == pytest.approx(pair.item(), abs=1e-12)


def test_dot_attend_matches_numpy():
    matrix = Tensor(RNG.standard_normal((6, 3)))
    d = Tensor(RNG.standard_normal(3))
    res = dot_attend(matrix, d, 1, 4, position_offset=2)
    scores = matrix.data[1:4] @ d.data
    want = np.exp(scores - scores.max())
    want /= want.sum()
    assert np.allclose(res.probs.data, want, atol=1e-14)
    assert res.best() == 2 + int(np.argmax(scores))
    assert len(res) == 3


def test_dot_attend_zero_state_is_uniform():
    matrix = Tensor(RNG.standard_normal((4, 3)))
    res = dot_attend(matrix, Tensor(np.zeros(3)), 0, 4, position_offset=0)
    assert np.allclose(res.probs.data, 0.25, atol=1e-15)


def test_dot_attend_row_form_matches_vector_form():
    # A matrix of S decoder states, each with its own candidate rows of the
    # matrix (here the first rows of one sentence and a second sentence's
    # rows 3-5, padded with a repeated row); row i under its mask row gives
    # the vector form's probabilities over its candidate range, masked
    # positions and pads exactly zero, and the result carries the mask.
    matrix = Tensor(RNG.standard_normal((6, 3)))
    d = RNG.standard_normal((3, 3))
    index = np.array([[0, 1, 2, 2], [0, 1, 2, 2], [3, 4, 5, 5]])
    ranges = [(0, 3), (1, 3), (3, 5)]
    mask = np.zeros((3, 4), dtype=bool)
    for i, (start, stop) in enumerate(ranges):
        mask[i, start - index[i, 0] : stop - index[i, 0]] = True
    res = dot_attend(matrix, Tensor(d), mask=mask, index=index)
    assert res.mask is mask and res.probs.shape == (3, 4)
    with pytest.raises(ShapeError):
        len(res)
    for i, (start, stop) in enumerate(ranges):
        one = dot_attend(matrix, Tensor(d[i]), start, stop, position_offset=start + 1)
        got = res.probs.data[i, start - index[i, 0] : stop - index[i, 0]]
        assert np.abs(got - one.probs.data).max() <= 1e-15
        assert not res.probs.data[i, ~mask[i]].any()


def test_grad_dot_attend_row_form():
    matrix = Tensor(RNG.standard_normal((5, 3)), requires_grad=True)
    d = Tensor(RNG.standard_normal((4, 3)), requires_grad=True)
    mask = RNG.random((4, 5)) < 0.6
    mask[:, 1] = True
    targets = [int(np.flatnonzero(row)[-1]) for row in mask]
    index = np.array([[0, 1, 2, 3, 4], [4, 3, 2, 1, 0], [1, 1, 2, 3, 4], [0, 2, 2, 3, 4]])
    check_gradients(lambda: ad.cross_entropy(
        dot_attend(matrix, d, mask=mask, index=index).probs, targets), [matrix, d])


def test_grad_biaffine_pointer_index_form():
    # Each decoder state scores only its own candidate rows of the prepared
    # matrix (its sentence's positions within a batch, padded): the same
    # probabilities as the vector form over those rows, and gradients that
    # match finite differences.
    pointer = BiaffinePointer(4, 6, 5, np.random.default_rng(6), dropout=0.0)
    for p in (pointer.biaffine.u, pointer.biaffine.v, pointer.biaffine.b):
        p.data[...] = RNG.standard_normal(p.data.shape)
    matrix = Tensor(RNG.standard_normal((7, 6)), requires_grad=True)
    d = Tensor(RNG.standard_normal((3, 4)), requires_grad=True)
    index = np.array([[0, 1, 2, 2], [0, 1, 2, 2], [3, 4, 5, 6]])
    mask = np.array([[True, True, True, False], [False, True, True, False], [True] * 4])
    res = pointer.attend(d, pointer.prepare(matrix), mask, index=index)
    for i in range(3):
        one = pointer.attend(Tensor(d.data[i]), pointer.prepare(Tensor(matrix.data[index[i]])),
                             mask[i])
        assert np.abs(res.probs.data[i] - one.probs.data).max() <= 1e-15
    biaffine = pointer.biaffine
    check_gradients(lambda: ad.cross_entropy(
        pointer.attend(d, pointer.prepare(matrix), mask, index=index).probs, [2, 1, 3]),
        [d, matrix, biaffine.w, biaffine.u, biaffine.v, biaffine.b])


def test_pair_labeler_distribution():
    labeler = PairLabeler(4, 4, 3, 5, np.random.default_rng(2), dropout=0.0)
    left = Tensor(RNG.standard_normal(4))
    right = Tensor(RNG.standard_normal(4))
    dist = labeler.distribution(left, right)
    assert dist.shape == (5,)
    assert dist.data.sum() == pytest.approx(1.0)
    assert (dist.data > 0).all()


def test_pair_labeler_deterministic_without_dropout():
    labeler = PairLabeler(4, 4, 3, 5, np.random.default_rng(3), dropout=0.0)
    left = Tensor(RNG.standard_normal(4))
    right = Tensor(RNG.standard_normal(4))
    a = labeler.distribution(left, right).data
    b = labeler.distribution(left, right).data
    assert np.array_equal(a, b)


def test_attend_and_distribution_row_form_match_vector_form():
    # A matrix of k decoder states attends (and labels) row by row exactly
    # as k single-state calls do: bit for bit with one row, to rounding
    # with several.  Each row keeps its own mask.
    pointer = BiaffinePointer(4, 6, 5, np.random.default_rng(4), dropout=0.0)
    labeler = PairLabeler(4, 6, 3, 5, np.random.default_rng(5), dropout=0.0)
    for module in (pointer.biaffine, labeler.labeler):
        for p in (module.u, module.v, module.b):  # zero at init; make every term count
            p.data[...] = RNG.standard_normal(p.data.shape)
    matrix = Tensor(RNG.standard_normal((5, 6)))
    prepared = pointer.prepare(matrix)
    for k in (1, 3):
        d = RNG.standard_normal((k, 4))
        right = RNG.standard_normal((k, 6))
        mask = RNG.random((k, 5)) < 0.5
        mask[:, 2] = True
        res = pointer.attend(Tensor(d), prepared, mask)
        dist = labeler.distribution(Tensor(d), Tensor(right))
        assert res.probs.shape == res.scores.shape == (k, 5) and dist.shape == (k, 5)
        for i in range(k):
            one = pointer.attend(Tensor(d[i]), prepared, mask[i])
            one_dist = labeler.distribution(Tensor(d[i]), Tensor(right[i]))
            pairs = [(res.scores.data[i], one.scores.data), (res.probs.data[i], one.probs.data),
                     (dist.data[i], one_dist.data)]
            for got, want in pairs:
                if k == 1:
                    assert np.array_equal(got, want)
                else:
                    assert np.abs(got - want).max() <= 1e-12
