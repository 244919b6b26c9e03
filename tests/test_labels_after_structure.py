"""Decoders label a tree after its structure: one ``labeler.distribution``
call per decoded sentence (per chunk for the batched decoders), reading
the top hidden of each attach step from the state bank; the labels are
those of per-step vector-form labeling."""

from functools import partial

import numpy as np
import pytest

from ptrparse import dep, rst
from ptrparse.corpus import gen_synthetic_dep
from ptrparse.dep import DepConfig, DepModel, build_dep_vocabs

from helpers import dep_held_out, per_split_rst_labels, per_step_dep_labels, rst_held_out


def count_labeler_calls(model, monkeypatch) -> dict:
    """Counts of the calls made to ``model.labeler.distribution`` through
    the instance, where a tracer wraps it."""
    calls = {"labeler": 0}
    original = model.labeler.distribution

    def counted(*args, **kwargs):
        calls["labeler"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(model.labeler, "distribution", counted)
    return calls


def rst_pairs(items):
    return [(words, ends) for words, ends, _ in items] + rst_held_out()


def test_one_sentence_decoders_label_once_per_sentence(dep_trained, rst_trained, monkeypatch):
    """Every dependency sentence has an attachment, so ``decode_greedy`` and
    ``decode_beam`` (beam 1 and 10) make one labeler call per sentence;
    ``decode_rst`` makes one per sentence with a split and none for a
    one-EDU sentence.  A labeler call per round fails here."""
    model, items = dep_trained
    calls = count_labeler_calls(model, monkeypatch)
    sentences = [tokens for tokens, _ in items[:8]] + dep_held_out()[:8]
    for decode in (dep.decode_greedy, partial(dep.decode_beam, beam_size=1),
                   partial(dep.decode_beam, beam_size=10)):
        for tokens in sentences:
            calls["labeler"] = 0
            decode(model, tokens)
            assert calls["labeler"] == 1, (decode, len(tokens))
    model, items = rst_trained
    calls = count_labeler_calls(model, monkeypatch)
    pairs = rst_pairs(items[:8])
    assert {len(ends) for _, ends in pairs} >= {1, 2, 3}
    for words, ends in pairs:
        calls["labeler"] = 0
        rst.decode_rst(model, words, ends)
        assert calls["labeler"] == (len(ends) > 1)


@pytest.mark.parametrize("limit", [None, 60])
def test_batched_decoders_label_once_per_chunk(limit, dep_trained, rst_trained, monkeypatch):
    """``decode_batch`` (greedy and beam) and ``decode_rst_batch`` make one
    labeler call per chunk; a chunk of one-EDU sentences only makes none."""
    if limit is not None:
        monkeypatch.setattr(dep, "BATCH_ROWS", limit)
    model, items = dep_trained
    calls = count_labeler_calls(model, monkeypatch)
    sentences = [tokens for tokens, _ in items[:24]]
    for beam_size in (1, 4):
        calls["labeler"] = 0
        dep.decode_batch(model, sentences, beam_size=beam_size)
        chunks = dep._chunks([(len(tokens) + 1) * beam_size for tokens in sentences])
        assert calls["labeler"] == len(chunks) and (limit is None) == (len(chunks) == 1)
    model, items = rst_trained
    calls = count_labeler_calls(model, monkeypatch)
    pairs = rst_pairs(items[:24])
    rst.decode_rst_batch(model, pairs)
    chunks = dep._chunks([len(words) for words, _ in pairs])
    assert calls["labeler"] == sum(any(len(pairs[i][1]) > 1 for i in chunk) for chunk in chunks)
    assert (limit is None) == (len(chunks) == 1)
    calls["labeler"] = 0
    rst.decode_rst_batch(model, [pair for pair in pairs if len(pair[1]) == 1][:3])
    assert calls["labeler"] == 0


def test_dep_labels_match_per_step_labeling(dep_trained, monkeypatch):
    """On the criterion-3 corpus and 128 held-out sentences of 1-40 words,
    ``decode_greedy`` and ``decode_batch`` give the labels of per-step
    vector-form labeling, and the trace carries each attach step's label
    (None on a self-point)."""
    model, items = dep_trained
    sentences = [tokens for tokens, _ in items] + dep_held_out()
    per_step = []
    for tokens in sentences:
        labels, tree, trace = per_step_dep_labels(model, tokens, monkeypatch)
        assert tree.labels == labels and None not in labels
        assert [s.label for s in trace] == [None if s.head == s.target else labels[s.target - 1]
                                            for s in trace]
        per_step.append(labels)
    assert [t.labels for t in dep.decode_batch(model, sentences, beam_size=1)] == per_step


def test_rst_labels_match_per_split_labeling(rst_trained):
    """On the criterion-4 corpus and 64 held-out sentences of 1-16 EDUs,
    ``decode_rst`` and ``decode_rst_batch`` give the labels of per-split
    vector-form labeling."""
    model, items = rst_trained
    pairs = rst_pairs(items)
    for tree, (words, ends) in zip(rst.decode_rst_batch(model, pairs), pairs):
        want = per_split_rst_labels(model, words, ends, tree)
        for got in (tree, rst.decode_rst(model, words, ends)):
            assert {(n.start, n.end): n.label for n in got.internal_nodes()} == want


def test_step_top_hidden_is_the_bank_top_component(dep_trained, rst_trained, monkeypatch):
    """The ``d`` that ``decoder.step`` returns is bit for bit component
    ``decoder.top`` of the state block it returns (and the bank stores),
    for one- and two-layer LSTM decoders and the two-layer GRU decoder, in
    every decoder."""
    items = gen_synthetic_dep(7, 16, max_len=8, vocab_size=50, label_count=4)
    config = DepConfig(variant="pst", fusion="sgate", encoder_hidden=8, decoder_hidden=8,
                       decoder_layers=2, arc_mlp=8, label_mlp=4, seed=7).validate()
    deep = DepModel(config, *build_dep_vocabs(items), np.random.default_rng(7))
    sentences = [tokens for tokens, _ in items[:6]]
    for model in (dep_trained[0], deep):
        checked = check_top_hidden(model, monkeypatch)
        for tokens in sentences:
            dep.decode_greedy(model, tokens)
            dep.decode_beam(model, tokens, beam_size=4)
        dep.decode_batch(model, sentences, beam_size=1)
        assert checked["steps"] > 0
    model, items = rst_trained
    assert model.decoder.cell == "gru" and model.decoder.top == 1
    checked = check_top_hidden(model, monkeypatch)
    pairs = [(words, ends) for words, ends, _ in items[:8]]
    for words, ends in pairs:
        rst.decode_rst(model, words, ends)
    rst.decode_rst_batch(model, pairs)
    assert checked["steps"] > 0
    assert (dep_trained[0].decoder.top, deep.decoder.top) == (0, 2)


def check_top_hidden(model, monkeypatch) -> dict:
    """Wrap ``model.decoder.step`` to assert that each returned ``d`` is
    the top component of the returned state; counts the checked calls."""
    checked = {"steps": 0}
    step, top = model.decoder.step, model.decoder.top

    def checking(x, fused):
        state, d = step(x, fused)
        assert np.array_equal(d.data, state.data[..., top, :])
        checked["steps"] += 1
        return state, d

    monkeypatch.setattr(model.decoder, "step", checking)
    return checked
