"""Teacher forcing from a schedule against the per-step decoder loop, and
a batch against batches of one.

``dep.run_transition`` and ``rst.run_splits`` with a gold tree are batches
of one of ``batch_losses``: the whole decoder pass is one ``hier_seq`` op
and each head runs once over stacked rows.  The reference here is the
per-step loop that the schedule replaced: ``fuse``, ``step``, the pointer
(``attend`` or ``dot_attend``) and ``distribution`` once per decoder step
or split.  Both must give the same losses and parameter gradients.

Under dropout every site of a teacher-forced batch draws one mask for the
whole batch as it runs: the encoder (embedding rows, then per layer the
layer, forward and backward masks, one row per sentence), dep's
``pointer.prepare``, the decoder's (S, C, h) state mask in
``run_schedule``, the pointer's row mask in ``attend`` and the labeler's
pair in ``distribution``.  The schedule and batch-of-one comparisons run
with every dropout rate at 0; the dropout tests record a batch's draws and
feed them to the per-step reference row by row.
"""

import contextlib

import numpy as np
import pytest

from ptrparse import autodiff as ad
from ptrparse import dep, rst
from ptrparse.autodiff import Tensor
from ptrparse.corpus import gen_synthetic_dep, gen_synthetic_rst, segmented_from_texts
from ptrparse.dep import (DepConfig, DepModel, _candidate_mask, build_dep_vocabs,
                          oracle_order, run_transition)
from ptrparse.rst import (RstConfig, RstModel, build_rst_vocab, corpus_label_set,
                          oracle_splits, run_splits)
from ptrparse.scoring import dot_attend

from helpers import relative_error

RATE = 0.3
NO_DEP_DROPOUT = dict(embed_dropout=0.0, recurrent_dropout=0.0, layer_dropout=0.0,
                      state_dropout=0.0, mlp_dropout=0.0)
NO_RST_DROPOUT = dict(embed_dropout=0.0, encoder_dropout=0.0, decoder_dropout=0.0,
                      classifier_dropout=0.0)


def recurrent_states(encoder, seq, masks):
    """``BiRecurrentEncoder.encode`` of one sequence with its masks given,
    per layer (layer mask or None on the first layer, forward, backward),
    each of one row."""
    n = seq.data.shape[0]
    for layer, (fw, bw) in enumerate(zip(encoder.forward_cells, encoder.backward_cells)):
        layer_mask, fw_mask, bw_mask = masks[layer]
        if layer_mask is not None:
            seq = ad.mul(seq, Tensor(np.repeat(layer_mask, n, axis=0)))
        left = fw.run(fw.project(seq), [range(n)], fw_mask)
        right = bw.run(bw.project(seq), [range(n - 1, -1, -1)], bw_mask)
        seq = ad.hconcat([left, right])
    return seq


class Feed:
    """A teacher-forced batch's dropout masks, taken apart by site in the
    order the batch drew them (see the module docstring) and applied by the
    per-step reference, which runs every layer with ``training`` off: the
    encoder's and ``prepare``'s masks sentence by sentence (rows
    ``sizes[b]`` of a row mask, row b of a per-sequence one), the state,
    pointer and labeler masks row by row, every sentence's rows in turn.
    Without draws it feeds a pass without dropout.
    """

    def __init__(self, draws=(), sizes=(), layers=1, pointer=False):
        queue = iter(draws)
        self.dropout, self.sentence = bool(draws), -1
        self.starts, self.sizes = np.cumsum(sizes) - sizes, list(sizes)
        self.embed = next(queue, None)
        self.layers = [[next(queue) if layer else None, next(queue), next(queue)]
                       for layer in range(layers if draws else 0)]
        self.prepare = next(queue) if draws and pointer else None
        sites = ["state", "pointer", "left", "right"] if pointer else ["state", "left", "right"]
        self.rows = {site: iter(next(queue) if draws else ()) for site in sites}
        assert next(queue, None) is None

    def _rows(self, mask):
        b = self.sentence
        return mask[self.starts[b] : self.starts[b] + self.sizes[b]]

    @contextlib.contextmanager
    def encoder(self, encoder):
        """Context for the next sentence's encoder call: the recurrent
        encoder takes the embedding rows scaled by their mask and runs with
        the sentence's layer masks."""
        self.sentence += 1
        b, recurrent = self.sentence, encoder.encoder
        masks = [[None if m is None else m[b : b + 1] for m in layer] for layer in self.layers]

        def encode(inputs, training=False, rng=None, lengths=None):
            return recurrent_states(recurrent, ad.mul(inputs, Tensor(self._rows(self.embed))),
                                    masks)

        with pytest.MonkeyPatch.context() as patch:
            if self.dropout:
                patch.setattr(recurrent, "encode", encode)
            yield

    @contextlib.contextmanager
    def scaled(self, module, name, site):
        """Context in which ``module.<name>``'s output is scaled by the
        sentence's rows of ``prepare``'s mask, or by the next row of
        ``site``'s."""
        with pytest.MonkeyPatch.context() as patch:
            if self.dropout:
                mask = self._rows(self.prepare) if site == "prepare" else next(self.rows[site])
                layer = getattr(module, name)
                patch.setattr(module, name, lambda x: ad.mul(layer(x), Tensor(mask)))
            yield

    def drop_state(self, fused: tuple) -> tuple:
        """The fused state of the next step, scaled by its state mask row."""
        if not self.dropout:
            return fused
        mask = next(self.rows["state"])
        return tuple(ad.mul(part, Tensor(row)) for part, row in zip(fused, mask))

    def assert_used(self):
        assert self.sentence == len(self.sizes) - 1
        for rows in self.rows.values():
            assert next(rows, None) is None


def reference_losses(model, tokens, gold, feed, counts=None):
    """The per-step teacher-forced loop: one decoder step and one head call
    at a time, every dropout mask applied from ``feed``.  ``counts``, a
    list, gets the candidate count of each step the pointer scores."""
    config = model.config
    pointer, labeler = model.pointer, model.labeler
    events = iter(oracle_order(gold))
    with feed.encoder(model.encoder):
        encoded = model.encoder.encode(tokens)
    with feed.scaled(pointer, "g2", "prepare"):
        prepared = pointer.prepare(encoded)
    stack = [(0, -1, -1, 0, 0)]
    bank = [model.decoder.zero_state()]
    attached = np.zeros(len(tokens) + 1, dtype=bool)
    attached[0] = True
    structure_terms, label_terms = [], []
    while stack:
        element, parent, sibling, parent_row, sibling_row = stack.pop()
        x = ad.gather_sum(encoded, (element, parent, sibling))
        fused = feed.drop_state(model.decoder.fuse(bank[-1], bank[parent_row], bank[sibling_row]))
        state, d = model.decoder.step(x, fused)
        bank.append(state)
        step = len(bank) - 1
        mask = _candidate_mask(element, attached)
        _, choice = next(events)
        if mask.sum() > 1:
            with feed.scaled(pointer, "g1", "pointer"):
                result = pointer.attend(d, prepared, mask)
            if config.selfpoint_loss or choice != element:
                structure_terms.append(result.nll(choice))
            if counts is not None:
                counts.append(int(mask.sum()))
        if choice != element:
            attached[choice] = True
            with feed.scaled(labeler, "g1", "left"), feed.scaled(labeler, "g2", "right"):
                dist = labeler.distribution(d, ad.row(encoded, choice))
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
                       label_mlp=4, variant=variant, fusion=fusion, **NO_DEP_DROPOUT,
                       selfpoint_loss=selfpoint_loss, seed=3).validate()
    model = DepModel(config, *build_dep_vocabs(items), np.random.default_rng(3))
    for tokens, gold in items[:4]:
        rng = np.random.default_rng(9)
        counts = []
        want = losses_and_grads(model, lambda: reference_losses(model, tokens, gold, Feed(),
                                                                counts))
        result = None

        def forced():
            nonlocal result
            result = run_transition(model, tokens, gold=gold, training=True, rng=rng)
            return result.structure_loss, result.label_loss

        got = losses_and_grads(model, forced)
        assert rng.bit_generator.state == np.random.default_rng(9).bit_generator.state
        assert abs(got[0] - want[0]) <= 1e-12 and abs(got[1] - want[1]) <= 1e-12
        for name, grad in want[2].items():
            assert np.abs(got[2][name] - grad).max(initial=0.0) <= 1e-12, name
        assert result.heads == list(gold.heads) and result.labels == list(gold.labels)
        assert result.pointer_calls == len(counts)
        assert result.score_evaluations == sum(counts)


def reference_rst_losses(model, words, ends, gold, feed):
    """The per-step discourse loop: one decoder step and one ``dot_attend``
    per pointed span, one labeler call per split, every dropout mask applied
    from ``feed``.  Also returns the pointer calls and score evaluations."""
    events = iter(oracle_splits(gold))
    labeler = model.labeler
    with feed.encoder(model.encoder):
        edus = model.encoder.encode(words, ends)
    m = edus.data.shape[0]
    bank = [model.decoder.zero_state()]
    stack = [((1, m), -1, -1, 0, 0)] if m >= 2 else []
    structure_terms, label_terms, calls, evaluations = [], [], 0, 0
    while stack:
        (i, j), parent, sibling, parent_row, sibling_row = stack.pop()
        _, k, label, pointed = next(events)
        if pointed:
            x = ad.gather_sum(edus, (j - 1, parent, sibling))
            fused = feed.drop_state(model.decoder.fuse(bank[-1], bank[parent_row],
                                                       bank[sibling_row]))
            state, d = model.decoder.step(x, fused)
            bank.append(state)
            structure_terms.append(dot_attend(edus, d, i - 1, j - 1, position_offset=i).nll(k))
            calls += 1
            evaluations += j - i
        with feed.scaled(labeler, "g1", "left"), feed.scaled(labeler, "g2", "right"):
            dist = labeler.distribution(ad.row(edus, k - 1), ad.row(edus, j - 1))
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
                       rel_mlp=5, variant=variant, fusion=fusion, **NO_RST_DROPOUT,
                       seed=3).validate()
    model = RstModel(config, build_rst_vocab(items), corpus_label_set(items),
                     np.random.default_rng(3))
    for words, ends, gold in items:
        rng = np.random.default_rng(9)
        counts = []

        def reference():
            structure, label, *rest = reference_rst_losses(model, words, ends, gold, Feed())
            counts.extend(rest)
            return structure, label

        want = losses_and_grads(model, reference)
        result = None

        def forced():
            nonlocal result
            result = run_splits(model, words, ends, gold=gold, training=True, rng=rng)
            return result.structure_loss, result.label_loss

        got = losses_and_grads(model, forced)
        assert rng.bit_generator.state == np.random.default_rng(9).bit_generator.state
        assert abs(got[0] - want[0]) <= 1e-12 and abs(got[1] - want[1]) <= 1e-12
        for name, grad in want[2].items():
            assert np.abs(got[2][name] - grad).max(initial=0.0) <= 1e-12, name
        assert result.tree == gold
        assert [result.pointer_calls, result.score_evaluations] == counts


# One tape per batch.  ``batch_losses`` runs a batch of examples as one
# teacher-forced pass; the reference is the same examples as batches of
# one, one after another.  Losses agree within 1e-12 and the summed
# parameter gradients within 1e-12 relative (the dense layers around the
# sequence ops run one product over all rows of a batch, and BLAS rounds
# it by the matrix size).

def assert_close(losses, structure, label, want, model, got):
    """Per-example and summed losses within 1e-12 of ``want``'s (structure,
    label) pairs, and the gradients ``got`` within 1e-12 relative of the
    parameters' current ones."""
    assert len(losses) == len(want)
    for (s, l), (ref_s, ref_l) in zip(losses, want):
        assert abs(s - ref_s) <= 1e-12 and abs(l - ref_l) <= 1e-12
    assert abs(structure.item() - sum(s for s, _ in want)) <= 1e-12
    assert abs(label.item() - sum(l for _, l in want)) <= 1e-12
    for name, p in model.parameters():
        assert relative_error(got[name], p.grad) <= 1e-12, name


def batch_against_one_at_a_time(model, batch_losses, example_losses, batch):
    rng = np.random.default_rng(4)
    for _, p in model.parameters():
        p.zero_grad()
    structure, label, losses = batch_losses(model, batch, training=True, rng=rng)
    ad.backward(ad.add(structure, label))
    got = {name: p.grad.copy() for name, p in model.parameters()}
    for _, p in model.parameters():
        p.zero_grad()
    want = []
    for example in batch:
        s, l = example_losses(model, *example, training=True, rng=rng)
        want.append((s.item(), l.item()))
        ad.backward(ad.add(s, l))
    assert rng.bit_generator.state == np.random.default_rng(4).bit_generator.state
    assert_close(losses, structure, label, want, model, got)


def dep_batch_model(items, **dropout):
    config = DepConfig(word_dim=12, pos_dim=6, char_dim=6, char_filters=8, encoder_layers=2,
                       encoder_hidden=16, decoder_layers=2, decoder_hidden=16, arc_mlp=16,
                       label_mlp=8, variant="pst", fusion="sgate", **dropout,
                       selfpoint_loss=False, seed=7).validate()
    return DepModel(config, *build_dep_vocabs(items), np.random.default_rng(7))


def dep_batch():
    items = gen_synthetic_dep(7, 64, max_len=12, vocab_size=200, label_count=8)
    batch = items[1:9]
    # Mixed lengths, the longest sentence not first.
    assert len({len(tokens) for tokens, _ in batch}) > 3
    assert len(batch[0][0]) < max(len(tokens) for tokens, _ in batch)
    return items, batch


def test_dep_batch_matches_batches_of_one():
    items, batch = dep_batch()
    model = dep_batch_model(items, **NO_DEP_DROPOUT)
    batch_against_one_at_a_time(model, dep.batch_losses, dep.example_losses, batch)


def rst_batch_model(items, **dropout):
    config = RstConfig(word_dim=12, encoder_hidden=8, encoder_layers=2, decoder_layers=2,
                       rel_mlp=8, variant="pst", fusion="gate", **dropout, seed=7).validate()
    return RstModel(config, build_rst_vocab(items), corpus_label_set(items),
                    np.random.default_rng(7))


def rst_batch():
    items = [segmented_from_texts(texts) + (tree,)
             for texts, tree in gen_synthetic_rst(7, 64, max_edus=8, label_count=8)]
    batch = items[1:9]
    # Mixed sizes, the largest tree not first, a tree with no pointed span
    # and one with no split at all.
    assert {1, 2} <= {len(ends) for _, ends, _ in batch}
    assert len(batch[0][1]) < max(len(ends) for _, ends, _ in batch)
    return items, batch


def test_rst_batch_matches_batches_of_one():
    items, batch = rst_batch()
    model = rst_batch_model(items, **NO_RST_DROPOUT)
    batch_against_one_at_a_time(model, rst.batch_losses, rst.example_losses, batch)


# A batch under dropout against the per-step reference fed its masks.

def recorded_batch(model, batch_losses, batch, seed):
    """A training batch's losses and gradients, with every mask its
    dropout sites drew, in order."""
    draws = []
    draw = ad.keep_mask

    def recording(shape, rate, rng):
        draws.append(draw(shape, rate, rng))
        return draws[-1]

    rng = np.random.default_rng(seed)
    for _, p in model.parameters():
        p.zero_grad()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ad, "keep_mask", recording)
        structure, label, losses = batch_losses(model, batch, training=True, rng=rng)
    ad.backward(ad.add(structure, label))
    got = {name: p.grad.copy() for name, p in model.parameters()}
    return structure, label, losses, got, draws, rng


def assert_drawn_in_order(draws, shapes, seed, rng):
    """The draws have ``shapes``, in order, and are exactly the masks a
    generator seeded with ``seed`` gives, leaving ``rng`` in its state."""
    assert [mask.shape for mask in draws] == shapes
    check = np.random.default_rng(seed)
    for mask in draws:
        assert np.array_equal(mask, ad.keep_mask(mask.shape, RATE, check))
    assert rng.bit_generator.state == check.bit_generator.state


def encoder_shapes(rows, width, sequences, hidden, layers):
    """The encoder's draws: embedding rows, then per layer the layer mask
    (not on the first), forward and backward masks, one row per sequence."""
    shapes = [(rows, width)]
    for layer in range(layers):
        shapes += [(sequences, 2 * hidden)] if layer else []
        shapes += [(sequences, hidden)] * 2
    return shapes


def reference_grads(model, run):
    """Run the per-example reference losses of ``run()`` and backpropagate
    each; returns their (structure, label) values."""
    for _, p in model.parameters():
        p.zero_grad()
    want = []
    for s, l in run():
        want.append((s.item(), l.item()))
        ad.backward(ad.add(s, l))
    return want


def test_dep_batch_under_dropout_matches_per_step_loop():
    items, batch = dep_batch()
    model = dep_batch_model(items, embed_dropout=RATE, recurrent_dropout=RATE,
                            layer_dropout=RATE, state_dropout=RATE, mlp_dropout=RATE)
    config = model.config
    structure, label, losses, got, draws, rng = recorded_batch(model, dep.batch_losses, batch, 5)
    sizes = [len(tokens) + 1 for tokens, _ in batch]
    feed = Feed(draws, sizes, config.encoder_layers, pointer=True)
    counts = []
    want = reference_grads(model, lambda: [reference_losses(model, tokens, gold, feed, counts)
                                           for tokens, gold in batch])
    feed.assert_used()
    width = config.word_dim + config.pos_dim + config.char_filters
    steps = sum(2 * n - 1 for n in sizes)
    labeled = sum(n - 1 for n in sizes)
    assert_drawn_in_order(draws, encoder_shapes(sum(sizes), width, len(batch),
                                                config.encoder_hidden, config.encoder_layers)
                          + [(sum(sizes), config.arc_mlp),
                             (steps, model.decoder.components, config.decoder_hidden),
                             (len(counts), config.arc_mlp), (labeled, config.label_mlp),
                             (labeled, config.label_mlp)], 5, rng)
    assert_close(losses, structure, label, want, model, got)


def test_rst_batch_under_dropout_matches_per_step_loop():
    items, batch = rst_batch()
    model = rst_batch_model(items, embed_dropout=RATE, encoder_dropout=RATE,
                            decoder_dropout=RATE, classifier_dropout=RATE)
    config = model.config
    structure, label, losses, got, draws, rng = recorded_batch(model, rst.batch_losses, batch, 5)
    sizes = [len(words) for words, _, _ in batch]
    feed = Feed(draws, sizes, config.encoder_layers)
    calls = []

    def run():
        for words, ends, gold in batch:
            s, l, pointer_calls, _ = reference_rst_losses(model, words, ends, gold, feed)
            calls.append(pointer_calls)
            yield s, l

    want = reference_grads(model, run)
    feed.assert_used()
    splits = sum(len(ends) - 1 for _, ends, _ in batch)
    assert_drawn_in_order(draws, encoder_shapes(sum(sizes), config.word_dim, len(batch),
                                                config.encoder_hidden, config.encoder_layers)
                          + [(sum(calls), model.decoder.components, 2 * config.encoder_hidden),
                             (splits, config.rel_mlp), (splits, config.rel_mlp)], 5, rng)
    assert_close(losses, structure, label, want, model, got)
