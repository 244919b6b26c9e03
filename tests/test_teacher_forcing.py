"""Teacher forcing from a schedule against the per-step decoder loop, and
a batch against batches of one.

``dep.run_transition`` and ``rst.run_splits`` with a gold tree are batches
of one of ``batch_losses``: the whole decoder pass is one ``hier_seq`` op
and each head runs once over stacked rows.  The reference here is the
per-step loop that the schedule replaced: ``fuse``, ``step``, the pointer
(``attend`` or ``dot_attend``) and ``distribution`` once per decoder step
or split, from the same random stream.  Both must give the same losses,
parameter gradients and random-generator state.
"""

import numpy as np
import pytest

from ptrparse import autodiff as ad
from ptrparse import dep, rst
from ptrparse.corpus import gen_synthetic_dep, gen_synthetic_rst, segmented_from_texts
from ptrparse.dep import (DepConfig, DepModel, _candidate_mask, build_dep_vocabs,
                          oracle_order, run_transition)
from ptrparse.rst import (RstConfig, RstModel, build_rst_vocab, corpus_label_set,
                          oracle_splits, run_splits)
from ptrparse.scoring import dot_attend

from helpers import relative_error


def reference_losses(model, tokens, gold, rng, counts=None):
    """The per-step teacher-forced loop: one decoder step and one head call
    at a time, drawing every dropout mask as it goes.  ``counts``, a list,
    gets the candidate count of each step the pointer scores."""
    config = model.config
    events = iter(oracle_order(gold))
    encoded = model.encoder.encode(tokens, training=True, rng=rng)
    prepared = model.pointer.prepare(encoded, training=True, rng=rng)
    stack = [(0, -1, -1, 0, 0)]
    bank = [model.decoder.zero_state()]
    attached = np.zeros(len(tokens) + 1, dtype=bool)
    attached[0] = True
    structure_terms, label_terms = [], []
    while stack:
        element, parent, sibling, parent_row, sibling_row = stack.pop()
        x = ad.gather_sum(encoded, (element, parent, sibling))
        fused = model.decoder.fuse(bank[-1], bank[parent_row], bank[sibling_row],
                                   training=True, rng=rng)
        state, d = model.decoder.step(x, fused)
        bank.append(state)
        step = len(bank) - 1
        mask = _candidate_mask(element, attached)
        _, choice = next(events)
        if mask.sum() > 1:
            result = model.pointer.attend(d, prepared, mask, training=True, rng=rng)
            if config.selfpoint_loss or choice != element:
                structure_terms.append(result.nll(choice))
            if counts is not None:
                counts.append(int(mask.sum()))
        if choice != element:
            attached[choice] = True
            dist = model.labeler.distribution(d, ad.row(encoded, choice), training=True, rng=rng)
            label = model.labels[gold.labels[choice - 1]]
            label_terms.append(ad.cross_entropy(dist, label))
            stack.append((element, parent, choice, parent_row, step))
            stack.append((choice, element, -1, step, 0))
    return ad.sum_terms(structure_terms), ad.sum_terms(label_terms)


def losses_and_grads(model, run):
    for _, p in model.parameters():
        p.zero_grad()
    structure, label = run()
    ad.backward(ad.add(structure, label))
    return structure.item(), label.item(), {name: p.grad.copy() for name, p in model.parameters()}


@pytest.mark.parametrize("selfpoint_loss", [True, False])
@pytest.mark.parametrize("layers", [1, 2])
@pytest.mark.parametrize("fusion", ["gate", "sgate", "plain"])
@pytest.mark.parametrize("variant", ["p", "ps", "pst"])
def test_schedule_matches_per_step_loop(variant, fusion, layers, selfpoint_loss):
    items = gen_synthetic_dep(5, 6, max_len=7, vocab_size=30, label_count=4)
    config = DepConfig(word_dim=6, pos_dim=4, char_dim=4, char_filters=4, encoder_layers=1,
                       encoder_hidden=5, decoder_layers=layers, decoder_hidden=6, arc_mlp=5,
                       label_mlp=4, variant=variant, fusion=fusion, embed_dropout=0.3,
                       recurrent_dropout=0.3, layer_dropout=0.3, state_dropout=0.3,
                       mlp_dropout=0.3, selfpoint_loss=selfpoint_loss, seed=3).validate()
    model = DepModel(config, *build_dep_vocabs(items), np.random.default_rng(3))
    for tokens, gold in items[:4]:
        ref_rng, rng = np.random.default_rng(9), np.random.default_rng(9)
        counts = []
        want = losses_and_grads(model, lambda: reference_losses(model, tokens, gold, ref_rng,
                                                                counts))
        result = None

        def forced():
            nonlocal result
            result = run_transition(model, tokens, gold=gold, training=True, rng=rng)
            return result.structure_loss, result.label_loss

        got = losses_and_grads(model, forced)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert abs(got[0] - want[0]) <= 1e-12 and abs(got[1] - want[1]) <= 1e-12
        for name, grad in want[2].items():
            assert np.abs(got[2][name] - grad).max(initial=0.0) <= 1e-12, name
        assert result.heads == list(gold.heads) and result.labels == list(gold.labels)
        assert result.pointer_calls == len(counts)
        assert result.score_evaluations == sum(counts)


def reference_rst_losses(model, words, ends, gold, rng):
    """The per-step discourse loop: one decoder step and one ``dot_attend``
    per pointed span, one labeler call per split, drawing every dropout
    mask as it goes.  Also returns the pointer calls and score evaluations."""
    events = iter(oracle_splits(gold))
    edus = model.encoder.encode(words, ends, training=True, rng=rng)
    m = edus.data.shape[0]
    bank = [model.decoder.zero_state()]
    stack = [((1, m), -1, -1, 0, 0)] if m >= 2 else []
    structure_terms, label_terms, calls, evaluations = [], [], 0, 0
    while stack:
        (i, j), parent, sibling, parent_row, sibling_row = stack.pop()
        _, k, label, pointed = next(events)
        if pointed:
            x = ad.gather_sum(edus, (j - 1, parent, sibling))
            fused = model.decoder.fuse(bank[-1], bank[parent_row], bank[sibling_row],
                                       training=True, rng=rng)
            state, d = model.decoder.step(x, fused)
            bank.append(state)
            structure_terms.append(dot_attend(edus, d, i - 1, j - 1, position_offset=i).nll(k))
            calls += 1
            evaluations += j - i
        dist = model.labeler.distribution(ad.row(edus, k - 1), ad.row(edus, j - 1),
                                          training=True, rng=rng)
        label_terms.append(ad.cross_entropy(dist, model.labels[label]))
        row = len(bank) - 1
        if j - k >= 2:
            both = k - i + 1 >= 3 and j - k >= 3
            stack.append(((k + 1, j), j - 1, k - 1 if both else -1, row, row + 1 if both else 0))
        if k - i + 1 >= 2:
            stack.append(((i, k), j - 1, -1, row, 0))
    return ad.sum_terms(structure_terms), ad.sum_terms(label_terms), calls, evaluations


@pytest.mark.parametrize("layers", [1, 2])
@pytest.mark.parametrize("fusion", ["gate", "sgate", "plain"])
@pytest.mark.parametrize("variant", ["p", "ps", "pst"])
def test_rst_schedule_matches_per_step_loop(variant, fusion, layers):
    items = [segmented_from_texts(texts) + (tree,)
             for texts, tree in gen_synthetic_rst(11, 6, max_edus=8, label_count=4)]
    # The corpus has a split whose children both point, so a sibling row is read.
    assert any(k - i + 1 >= 3 and j - k >= 3
               for *_, tree in items for (i, j), k, _, _ in oracle_splits(tree))
    config = RstConfig(word_dim=6, encoder_hidden=3, encoder_layers=1, decoder_layers=layers,
                       rel_mlp=5, variant=variant, fusion=fusion, embed_dropout=0.3,
                       encoder_dropout=0.3, decoder_dropout=0.3, classifier_dropout=0.3,
                       seed=3).validate()
    model = RstModel(config, build_rst_vocab(items), corpus_label_set(items),
                     np.random.default_rng(3))
    for words, ends, gold in items:
        ref_rng, rng = np.random.default_rng(9), np.random.default_rng(9)
        counts = []

        def reference():
            structure, label, *rest = reference_rst_losses(model, words, ends, gold, ref_rng)
            counts.extend(rest)
            return structure, label

        want = losses_and_grads(model, reference)
        result = None

        def forced():
            nonlocal result
            result = run_splits(model, words, ends, gold=gold, training=True, rng=rng)
            return result.structure_loss, result.label_loss

        got = losses_and_grads(model, forced)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert abs(got[0] - want[0]) <= 1e-12 and abs(got[1] - want[1]) <= 1e-12
        for name, grad in want[2].items():
            assert np.abs(got[2][name] - grad).max(initial=0.0) <= 1e-12, name
        assert result.tree == gold
        assert [result.pointer_calls, result.score_evaluations] == counts


# One tape per batch.  ``batch_losses`` runs a batch of examples as one
# teacher-forced pass; the reference is the same examples as batches of
# one, one after another from the same seed.  Every sentence's masks are
# drawn in the same order, so the random generator ends in the same state;
# losses agree within 1e-12 and the summed parameter gradients within
# 1e-12 relative (the dense layers around the sequence ops run one product
# over all rows of a batch, and BLAS rounds it by the matrix size).

def batch_against_one_at_a_time(model, batch_losses, example_losses, batch):
    rng, ref_rng = np.random.default_rng(4), np.random.default_rng(4)
    for _, p in model.parameters():
        p.zero_grad()
    structure, label, losses = batch_losses(model, batch, training=True, rng=rng)
    ad.backward(ad.add(structure, label))
    got = {name: p.grad.copy() for name, p in model.parameters()}
    for _, p in model.parameters():
        p.zero_grad()
    want = []
    for example in batch:
        s, l = example_losses(model, *example, training=True, rng=ref_rng)
        want.append((s.item(), l.item()))
        ad.backward(ad.add(s, l))
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert len(losses) == len(batch)
    for (s, l), (ref_s, ref_l) in zip(losses, want):
        assert abs(s - ref_s) <= 1e-12 and abs(l - ref_l) <= 1e-12
    assert abs(structure.item() - sum(s for s, _ in want)) <= 1e-12
    assert abs(label.item() - sum(l for _, l in want)) <= 1e-12
    for name, p in model.parameters():
        assert relative_error(got[name], p.grad) <= 1e-12, name


def test_dep_batch_matches_batches_of_one():
    items = gen_synthetic_dep(7, 64, max_len=12, vocab_size=200, label_count=8)
    batch = items[1:9]
    # Mixed lengths, the longest sentence not first.
    assert len({len(tokens) for tokens, _ in batch}) > 3
    assert len(batch[0][0]) < max(len(tokens) for tokens, _ in batch)
    config = DepConfig(word_dim=12, pos_dim=6, char_dim=6, char_filters=8, encoder_layers=2,
                       encoder_hidden=16, decoder_layers=2, decoder_hidden=16, arc_mlp=16,
                       label_mlp=8, variant="pst", fusion="sgate", embed_dropout=0.3,
                       recurrent_dropout=0.3, layer_dropout=0.3, state_dropout=0.3,
                       mlp_dropout=0.3, selfpoint_loss=False, seed=7).validate()
    model = DepModel(config, *build_dep_vocabs(items), np.random.default_rng(7))
    batch_against_one_at_a_time(model, dep.batch_losses, dep.example_losses, batch)


def test_rst_batch_matches_batches_of_one():
    items = [segmented_from_texts(texts) + (tree,)
             for texts, tree in gen_synthetic_rst(7, 64, max_edus=8, label_count=8)]
    batch = items[1:9]
    # Mixed sizes, the largest tree not first, a tree with no pointed span
    # and one with no split at all.
    assert {1, 2} <= {len(ends) for _, ends, _ in batch}
    assert len(batch[0][1]) < max(len(ends) for _, ends, _ in batch)
    config = RstConfig(word_dim=12, encoder_hidden=8, encoder_layers=2, decoder_layers=2,
                       rel_mlp=8, variant="pst", fusion="gate", embed_dropout=0.3,
                       encoder_dropout=0.3, decoder_dropout=0.3, classifier_dropout=0.3,
                       seed=7).validate()
    model = RstModel(config, build_rst_vocab(items), corpus_label_set(items),
                     np.random.default_rng(7))
    batch_against_one_at_a_time(model, rst.batch_losses, rst.example_losses, batch)
