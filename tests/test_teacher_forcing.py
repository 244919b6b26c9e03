"""Teacher forcing from a schedule against the per-step decoder loop.

``dep.run_transition`` with a gold tree runs the whole decoder pass as one
``hier_lstm_seq`` op and each head once over stacked rows.  The reference
here is the per-step loop that the schedule replaced: ``fuse``, ``step``,
``attend`` and ``distribution`` once per decoder step, from the same
random stream.  Both must give the same losses, parameter gradients and
random-generator state.
"""

import numpy as np
import pytest

from ptrparse import autodiff as ad
from ptrparse.corpus import gen_synthetic_dep
from ptrparse.dep import (DepConfig, DepModel, _candidate_mask, build_dep_vocabs,
                          oracle_order, run_transition)


def reference_losses(model, tokens, gold, rng, trace=None):
    """The per-step teacher-forced loop: one decoder step and one head call
    at a time, drawing every dropout mask as it goes.  ``trace``, a list,
    gets each step's (log-probability, candidates, probabilities)."""
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
        log_prob, probs = 0.0, None
        if mask.sum() > 1:
            result = model.pointer.attend(d, prepared, mask, training=True, rng=rng)
            probs = result.probs.data
            if config.selfpoint_loss or choice != element:
                structure_terms.append(result.nll(choice))
                log_prob = -structure_terms[-1].item()
        if trace is not None:
            trace.append((log_prob, int(mask.sum()), probs))
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
        steps = []
        want = losses_and_grads(model, lambda: reference_losses(model, tokens, gold, ref_rng,
                                                                steps))
        result = None

        def forced():
            nonlocal result
            result = run_transition(model, tokens, gold=gold, training=True, rng=rng,
                                    want_trace=True)
            return result.structure_loss, result.label_loss

        got = losses_and_grads(model, forced)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert abs(got[0] - want[0]) <= 1e-12 and abs(got[1] - want[1]) <= 1e-12
        for name, grad in want[2].items():
            assert np.abs(got[2][name] - grad).max(initial=0.0) <= 1e-12, name
        assert result.heads == list(gold.heads) and result.labels == list(gold.labels)
        assert result.pointer_calls == sum(probs is not None for *_, probs in steps)
        assert result.score_evaluations == sum(n for _, n, probs in steps if probs is not None)
        assert [(s.head, s.target) for s in result.trace] == oracle_order(gold)
        for got, (log_prob, candidates, probs) in zip(result.trace, steps):
            assert got.candidates == candidates and abs(got.log_prob - log_prob) <= 1e-12
            assert (got.probabilities is None) == (probs is None)
            if probs is not None:
                assert np.abs(got.probabilities - probs).max() <= 1e-12
