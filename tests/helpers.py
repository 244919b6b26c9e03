"""Shared test utilities: finite-difference gradient checking, a scalar
reduction of any tensor for it, the training loop's divergence check,
held-out decoding corpora, and the references the array paths replaced:
per-step vector-form labeling, the reference for the decoders' one labeler
call per tree, and the per-segment pooling loop of ``segment_max``."""

import numpy as np
import pytest

from ptrparse import autodiff as ad
from ptrparse.autodiff import Tensor, no_grad
from ptrparse.corpus import gen_synthetic_dep, gen_synthetic_rst, segmented_from_texts
from ptrparse.dep import decode_greedy


def numeric_gradient(fn, tensor, h=1e-5):
    """Central-difference gradient of scalar ``fn()`` w.r.t. one tensor.

    ``fn`` must rebuild its graph on every call and read ``tensor.data``
    in place, so nudging entries changes the output.
    """
    grad = np.zeros_like(tensor.data)
    flat_data = tensor.data.reshape(-1)
    flat_grad = grad.reshape(-1)
    for i in range(flat_data.size):
        keep = flat_data[i]
        flat_data[i] = keep + h
        up = fn().item()
        flat_data[i] = keep - h
        down = fn().item()
        flat_data[i] = keep
        flat_grad[i] = (up - down) / (2.0 * h)
    return grad


def relative_error(got, want):
    """Max elementwise difference over the larger gradient's scale."""
    diff = np.abs(got - want).max(initial=0.0)
    scale = max(np.abs(got).max(initial=0.0), np.abs(want).max(initial=0.0), 1.0)
    return diff / scale


def check_gradients(fn, tensors, h=1e-5, tol=1e-4):
    """Assert reverse-mode gradients match central differences for all tensors."""
    for t in tensors:
        t.zero_grad()
    ad.backward(fn())
    worst = 0.0
    for t in tensors:
        worst = max(worst, relative_error(t.grad, numeric_gradient(fn, t, h=h)))
    assert worst < tol, f"worst relative gradient error {worst:.3e} >= {tol}"
    return worst


def weighted(out, weights=None):
    """Scalar ``Σ out·weights`` over every entry, built from ``reshape`` and
    ``matmul``.  The weights default to fixed random constants seeded by
    the size, so every output entry gets a distinct gradient."""
    if weights is None:
        weights = np.random.default_rng(out.data.size).standard_normal(out.data.size)
    return ad.matmul(ad.reshape(out, (-1,)), Tensor(np.ravel(weights)))


def total(out):
    """Sum of every entry of ``out``: ``weighted`` with unit weights."""
    return weighted(out, np.ones(out.data.size))


def assert_divergence_moves_nothing(monkeypatch, train):
    """Run ``train(init_hook)``, which must raise ``TrainingError`` for a
    non-finite loss, and check that the failing batch moved no parameter:
    the model is as the last Adam step left it (as built, when none ran)."""
    from ptrparse.errors import TrainingError
    from ptrparse.optim import Adam

    models, states = [], []
    step = Adam.step

    def recording_step(self):
        step(self)
        states.append(models[0].snapshot())

    def hook(model):
        models.append(model)
        states.append(model.snapshot())

    monkeypatch.setattr(Adam, "step", recording_step)
    with np.errstate(all="ignore"), pytest.raises(TrainingError, match="loss is not finite"):
        train(hook)
    assert len(states) > 1  # a step ran before the loss diverged
    for name, value in models[0].snapshot().items():
        assert np.array_equal(value, states[-1][name], equal_nan=True), name


def lstm_cell_three_logistics(xw, w_h, h, c, mask=None):
    """``autodiff._lstm_cell`` as it was, with one logistic call per gate
    slice: ``(h_new, c_new, saved)``."""
    n = h.shape[-1]
    hm = h if mask is None else h * mask
    pre = xw + ad._linear(w_h, hm)
    i = 1.0 / (1.0 + np.exp(-pre[..., :n]))
    f = 1.0 / (1.0 + np.exp(-pre[..., n : 2 * n]))
    o = 1.0 / (1.0 + np.exp(-pre[..., 3 * n :]))
    g = np.tanh(pre[..., 2 * n : 3 * n])
    c_new = f * c + i * g
    tc = np.tanh(c_new)
    return o * tc, c_new, (hm, c, i, f, g, o, tc)


def segment_max_per_segment(data, starts):
    """``autodiff.segment_max`` as it was, one ``argmax`` per segment:
    ``(values, argmax rows)``, each with one row per segment."""
    stops = list(starts[1:]) + [data.shape[0]]
    arg = np.stack([start + np.argmax(data[start:stop], axis=0)
                    for start, stop in zip(starts, stops)])
    return data[arg, np.arange(data.shape[1])], arg


def dep_held_out():
    """128 held-out sentences of 1 to 40 words."""
    sentences = [tokens for tokens, _ in gen_synthetic_dep(11, 128, max_len=40, vocab_size=200,
                                                           label_count=8)]
    assert min(map(len, sentences)) == 1 and max(map(len, sentences)) == 40
    return sentences


def rst_held_out():
    """64 held-out segmented sentences of 1 to 16 EDUs."""
    items = [segmented_from_texts(texts)
             for texts, _ in gen_synthetic_rst(11, 64, max_edus=16, label_count=8)]
    assert min(len(ends) for _, ends in items) == 1
    assert max(len(ends) for _, ends in items) == 16
    return items


def per_step_dep_labels(model, tokens, monkeypatch):
    """Greedy decoding's labels as the per-step decoder gave them: each
    attach step labels its child in vector form, from the top hidden ``d``
    of its own decoder step.  Returns (labels, the ``decode_greedy`` tree,
    its trace); the structure does not depend on the labels."""
    ds = []
    step = model.decoder.step

    def recording(x, fused):
        state, d = step(x, fused)
        ds.append(d)
        return state, d

    with monkeypatch.context() as patch:
        patch.setattr(model.decoder, "step", recording)
        tree, trace = decode_greedy(model, tokens, want_trace=True)
    labels = [None] * len(tokens)
    with no_grad():
        encoded = model.encoder.encode(tokens)
        for s in trace:
            if s.head != s.target:
                dist = model.labeler.distribution(ds[s.step - 1], ad.row(encoded, s.target))
                labels[s.target - 1] = model.labels.name(int(np.argmax(dist.data)))
    return labels, tree, trace


def per_split_rst_labels(model, words, ends, tree) -> dict:
    """The label of each split of ``tree`` as the per-split decoder gave it,
    by span: one vector-form labeler call on the EDU pair (k-1, j-1)."""
    labels = {}
    with no_grad():
        edus = model.encoder.encode(words, ends)
        for node in tree.internal_nodes():
            dist = model.labeler.distribution(ad.row(edus, node.left.end - 1),
                                              ad.row(edus, node.end - 1))
            labels[node.start, node.end] = model.labels.name(int(np.argmax(dist.data)))
    return labels
