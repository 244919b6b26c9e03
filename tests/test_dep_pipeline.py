"""Dependency pipeline tests: oracle ordering, candidate masks, losses
against exact closed forms, decode validity, beam behavior, and training."""

import numpy as np
import pytest

from ptrparse import autodiff as ad
from ptrparse.corpus import gen_synthetic_dep
from ptrparse.decoder import FUSIONS, VARIANTS, DecoderFrame, partial_tree_features
from ptrparse.dep import (DepConfig, DepModel, _candidate_mask, build_dep_vocabs,
                          config_from_dict, config_to_dict, decode_beam,
                          decode_greedy, example_losses, forced_decode,
                          format_trace, oracle_order, replay_events,
                          run_transition, train_dep)
from ptrparse.errors import ConfigError, TrainingError, TreeError
from ptrparse.metrics import score_dep_corpus
from ptrparse.trees import DepTree, Token


def tiny_config(**kw):
    base = dict(word_dim=6, pos_dim=4, char_dim=4, char_filters=5, char_window=3,
                encoder_layers=1, encoder_hidden=8, decoder_layers=1, decoder_hidden=8,
                arc_mlp=8, label_mlp=6, embed_dropout=0.0, recurrent_dropout=0.0,
                layer_dropout=0.0, state_dropout=0.0, mlp_dropout=0.0,
                batch_size=4, epochs=3, seed=3)
    base.update(kw)
    return DepConfig(**base)


def tiny_model(items, **kw):
    config = tiny_config(**kw)
    vocabs = build_dep_vocabs(items)
    return DepModel(config, *vocabs, np.random.default_rng(config.seed)), config


def sentence(n):
    return [Token(f"w{i}", "NOUN") for i in range(n)]


def items_for(heads_list):
    items = []
    for heads in heads_list:
        labels = [f"dep{i % 3}" for i in range(len(heads))]
        items.append((sentence(len(heads)), DepTree(heads, labels)))
    return items


def test_oracle_order_frozen_examples():
    # Root -> 1, 1 -> 2 (left-ish ordering by nearest-first on each side).
    assert oracle_order(DepTree([0, 1, 1], ["a", "b", "c"])) == [
        (0, 1), (1, 2), (2, 2), (1, 3), (3, 3), (1, 1), (0, 0)]
    assert oracle_order(DepTree([2, 0], ["a", "b"])) == [
        (0, 2), (2, 1), (1, 1), (2, 2), (0, 0)]
    assert oracle_order(DepTree([0], ["root"])) == [(0, 1), (1, 1), (0, 0)]


def test_oracle_order_left_children_nearest_first():
    # Head 4 with left children 1, 2, 3: nearest (3) comes first.
    tree = DepTree([4, 4, 4, 0], ["a", "b", "c", "d"])
    events = oracle_order(tree)
    attach_order = [t for h, t in events if h == 4 and t != 4]
    assert attach_order == [3, 2, 1]


def test_oracle_order_right_children_nearest_first():
    tree = DepTree([0, 1, 1, 1], ["a", "b", "c", "d"])
    events = oracle_order(tree)
    attach_order = [t for h, t in events if h == 1 and t != 1]
    assert attach_order == [2, 3, 4]


def test_oracle_order_event_count():
    for heads in ([0], [2, 0], [0, 1, 1, 2, 2]):
        tree = DepTree(heads, ["x"] * len(heads))
        events = oracle_order(tree)
        n = len(heads)
        assert len(events) == 2 * n + 1
        assert sum(1 for h, t in events if h == t) == n + 1
        assert events[-1] == (0, 0)


def test_replay_events_roundtrip():
    for heads in ([0], [2, 0], [0, 1, 1], [2, 0, 2, 3]):
        tree = DepTree(heads, ["_"] * len(heads))
        assert replay_events(oracle_order(tree), len(heads)).heads == tuple(heads) or \
            replay_events(oracle_order(tree), len(heads)).heads == heads


def test_replay_events_requires_full_attachment():
    with pytest.raises(TreeError):
        replay_events([(0, 1), (1, 1)], 2)


def test_candidate_mask_rules():
    attached = np.array([False, False, True, False])
    mask = _candidate_mask(1, attached)
    # Word 1: targets are unattached words (1, 3) including itself; never 0.
    assert list(mask) == [False, True, False, True]
    # Root with unattached words left cannot self-point.
    root_mask = _candidate_mask(0, attached)
    assert list(root_mask) == [False, True, False, True]
    # Root with everything attached may only self-point.
    done = np.array([False, True, True, True])
    assert list(_candidate_mask(0, done)) == [True, False, False, False]


def test_run_transition_teacher_forcing_matches_oracle():
    items = items_for([[0, 1, 1], [2, 0]])
    model, _ = tiny_model(items)
    tokens, gold = items[0]
    result = run_transition(model, tokens, gold=gold, want_trace=True)
    assert result.heads == list(gold.heads)
    assert result.labels == list(gold.labels)
    got_events = [(s.head, s.target) for s in result.trace]
    want_events = oracle_order(gold)
    # The trace records pointer decisions only; forced steps are skipped.
    assert got_events == [e for e in want_events if e in got_events]
    assert result.pointer_calls <= 2 * gold.n


def test_zero_params_uniform_loss_closed_form():
    # All-zero parameters give uniform attention and uniform labels, so the
    # losses equal sums of ln(candidate counts) exactly.
    items = items_for([[0, 1, 1, 2]])
    model, _ = tiny_model(items)
    for _, p in model.parameters():
        p.data[...] = 0.0
    tokens, gold = items[0]
    s, l = example_losses(model, tokens, gold)

    n = gold.n
    attached = np.zeros(n + 1, dtype=bool)
    want_structure = 0.0
    for head, target in oracle_order(gold):
        mask = _candidate_mask(head, attached)
        count = int(mask.sum())
        if count > 1:
            want_structure += np.log(count)
        if head != target:
            attached[target] = True
    label_count = len(model.labels)
    want_label = n * np.log(label_count)
    assert s.item() == pytest.approx(want_structure, abs=1e-12)
    assert l.item() == pytest.approx(want_label, abs=1e-12)


def test_forced_decode_equals_negated_structure_loss():
    items = items_for([[0, 1, 1], [2, 0, 2]])
    model, _ = tiny_model(items)
    for tokens, gold in items:
        s, _ = example_losses(model, tokens, gold)
        assert forced_decode(model, tokens, gold) == -s.item()


def test_training_reduces_loss():
    items = items_for([[0, 1, 1], [2, 0]])
    model, _ = tiny_model(items)
    params = list(model.parameters())
    from ptrparse.optim import Adam
    opt = Adam(params, lr=0.05, betas=(0.9, 0.99))
    tokens, gold = items[0]

    def total():
        s, l = example_losses(model, tokens, gold)
        return ad.add(s, l)

    first = total().item()
    for _ in range(15):
        opt.zero_grad()
        ad.backward(total())
        opt.step()
    assert total().item() < first * 0.7


def test_decode_greedy_valid_and_deterministic():
    items = items_for([[0, 1, 1, 2, 2]])
    model, _ = tiny_model(items)
    tokens, _ = items[0]
    tree = decode_greedy(model, tokens)
    tree.validate()
    assert tree.n == 5
    again = decode_greedy(model, tokens)
    assert tree == again


def test_decode_greedy_single_word():
    items = items_for([[0]])
    model, _ = tiny_model(items)
    tree = decode_greedy(model, sentence(1))
    assert list(tree.heads) == [0]


def test_decode_greedy_trace():
    items = items_for([[0, 1]])
    model, _ = tiny_model(items)
    tree, trace = decode_greedy(model, sentence(2), want_trace=True)
    tree.validate()
    text = format_trace(trace)
    assert "step=" in text and "action=" in text and "logp=" in text


def test_decode_beam_one_matches_greedy_bitwise():
    # Same tree, and the beam's log-probability equals the greedy path's
    # own accumulated structure score exactly.  forced_decode would replay
    # the canonical order, which is a different path through the same tree.
    items = items_for([[0, 1, 1], [2, 0], [0, 1, 1, 2, 2, 4]])
    model, _ = tiny_model(items)
    for n in (1, 2, 3, 5, 6):
        tokens = sentence(n)
        greedy_run = run_transition(model, tokens)
        beamed, log_prob = decode_beam(model, tokens, beam_size=1)
        assert DepTree(greedy_run.heads, greedy_run.labels) == beamed
        assert log_prob == -greedy_run.structure_loss.item()


def test_decode_beam_logp_at_least_greedy():
    items = items_for([[0, 1, 1, 2]])
    model, _ = tiny_model(items)
    for n in (2, 4, 6, 7):
        tokens = sentence(n)
        greedy_tree = decode_greedy(model, tokens)
        greedy_logp = forced_decode(model, tokens, greedy_tree)
        _, beam_logp = decode_beam(model, tokens, beam_size=4)
        assert beam_logp >= greedy_logp - 1e-12


def test_decode_beam_rejects_bad_size():
    items = items_for([[0]])
    model, _ = tiny_model(items)
    with pytest.raises(ConfigError):
        decode_beam(model, sentence(1), beam_size=0)


def test_run_transition_pointer_budget():
    # At most 2n pointer invocations: n+1 self-points plus n attachments,
    # minus at least one forced single-candidate step.
    items = items_for([[0, 1, 1]])
    model, _ = tiny_model(items)
    for n in (1, 2, 5, 9):
        result = run_transition(model, sentence(n))
        assert result.pointer_calls <= 2 * n
        DepTree(result.heads, result.labels).validate()


def test_score_evaluations_counted():
    items = items_for([[0, 1, 1]])
    model, _ = tiny_model(items)
    r5 = run_transition(model, sentence(5))
    r10 = run_transition(model, sentence(10))
    assert r10.score_evaluations > r5.score_evaluations > 0


def test_build_dep_vocabs_sorted_and_special():
    items = items_for([[0, 1]])
    items[0][0][0] = Token("zebra", "X")
    word_vocab, pos_vocab, char_vocab, labels = build_dep_vocabs(items)
    assert word_vocab.tokens[0] == "<unk>"
    assert word_vocab.tokens[1] == "<root>"
    body = list(word_vocab.tokens[2:])
    assert body == sorted(body)
    assert char_vocab.tokens[0] == "<pad>"
    assert list(labels.names) == sorted(labels.names)


def test_config_validation():
    tiny_config().validate()
    for bad in (dict(variant="xx"), dict(fusion="xx"), dict(encoder_hidden=0),
                dict(embed_dropout=1.0), dict(lr=0.0), dict(beta2=1.0),
                dict(decay=0.0), dict(epochs=True)):
        with pytest.raises(ConfigError):
            tiny_config(**bad).validate()


def test_config_dict_roundtrip_and_coercion():
    config = tiny_config(variant="pst", fusion="plain", beam_size=7)
    data = config_to_dict(config)
    assert data["variant"] == "pst" and data["beam_size"] == 7
    # String values coerce back to typed fields.
    text = {k: str(v) for k, v in data.items()}
    again = config_from_dict(DepConfig, text)
    assert config_to_dict(again) == data
    with pytest.raises(ConfigError):
        config_from_dict(DepConfig, {"no_such_key": "1"})
    with pytest.raises(ConfigError):
        config_from_dict(DepConfig, {"epochs": "many"})


def test_train_dep_history_and_early_stop():
    items = items_for([[0, 1], [0, 1, 1]])
    config = tiny_config(epochs=2, target_uas=None)
    model, history = train_dep(items, config)
    assert len(history) == 2
    assert {"epoch", "loss", "uas", "las", "lr"} <= set(history[0])
    # A target of zero stops after the first epoch.
    stopped_model, stopped = train_dep(items, tiny_config(epochs=50, target_uas=0.0,
                                                          target_las=0.0))
    assert len(stopped) == 1


def test_train_dep_rejects_empty_and_invalid():
    with pytest.raises(ConfigError):
        train_dep([], tiny_config())
    bad = [(sentence(2), DepTree([2, 1], ["a", "b"]))]
    with pytest.raises(TreeError):
        train_dep(bad, tiny_config())


def test_train_dep_keeps_lr_without_dev_set():
    items = items_for([[0, 1], [0, 1, 1]])
    _, history = train_dep(items, tiny_config(epochs=3))
    assert all(row["lr"] == history[0]["lr"] for row in history)


def test_train_dep_decays_lr_on_dev_plateau():
    items = items_for([[0, 1], [0, 1, 1]])
    _, history = train_dep(items, tiny_config(epochs=4, decay=0.5), dev_items=items)
    # With a tiny random model dev scores plateau fast; decay must appear.
    assert history[-1]["lr"] < history[0]["lr"]


def test_train_dep_returns_the_selected_weights():
    items = gen_synthetic_dep(2, 6, max_len=6, vocab_size=20, label_count=3)
    dev = gen_synthetic_dep(102, 4, max_len=6, vocab_size=20, label_count=3)
    model, history = train_dep(items, tiny_config(epochs=6), dev_items=dev)
    keys = [(row["uas"], row["las"]) for row in history]
    assert max(keys) != keys[-1]  # the selected epoch is not simply the last one
    agg = score_dep_corpus([(tokens, gold, decode_greedy(model, tokens))
                            for tokens, gold in dev])
    assert (agg.uas, agg.las) == max(keys)


def test_train_dep_raises_on_divergence():
    items = items_for([[0, 1], [0, 1, 1]])
    with np.errstate(all="ignore"), pytest.raises(TrainingError, match="loss is not finite"):
        train_dep(items, tiny_config(lr=1e100))


def test_gold_heads_recovered_after_overfitting_one_sentence():
    items = items_for([[2, 0, 2]])
    model, _ = tiny_model(items, seed=11)
    from ptrparse.optim import Adam
    opt = Adam(list(model.parameters()), lr=0.05, betas=(0.9, 0.99))
    tokens, gold = items[0]
    for _ in range(60):
        opt.zero_grad()
        s, l = example_losses(model, tokens, gold)
        ad.backward(ad.add(s, l))
        opt.step()
    decoded = decode_greedy(model, tokens)
    assert decoded == gold


def test_teacher_forced_graph_size_per_token():
    # Tape ops reachable from the teacher-forced loss under the criterion-3
    # config.  Fused recurrent steps, hoisted input projections and the
    # sentence-batched char CNN bring this to about 129 per token; the
    # per-gate graph had about 264.  The count is exact, so a change that
    # unfuses a layer fails here rather than only in wall time.
    items = gen_synthetic_dep(7, 64, max_len=12, vocab_size=200, label_count=8)[:16]
    config = DepConfig(variant="pst", fusion="sgate", encoder_hidden=64, decoder_hidden=64,
                       arc_mlp=64, label_mlp=16, batch_size=8, seed=7).validate()
    model = DepModel(config, *build_dep_vocabs(items), np.random.default_rng(7))
    rng = np.random.default_rng(8)
    work = [ad.add(*example_losses(model, tokens, tree, training=True, rng=rng))
            for tokens, tree in items]
    seen = {}
    while work:
        node = work.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            work.extend(node._parents)
    ops = sum(1 for node in seen.values() if node._bwd is not None)
    tokens = sum(len(tokens) for tokens, _ in items)
    assert ops / tokens <= 150, f"{ops / tokens:.1f} tape ops per token"


def test_max_len_enforced_by_greedy_and_beam():
    items = items_for([[0, 1, 1]])
    model, _ = tiny_model(items, max_len=4)
    decode_greedy(model, sentence(4))
    decode_beam(model, sentence(4), beam_size=2)
    with pytest.raises(ConfigError):
        decode_greedy(model, sentence(5))
    with pytest.raises(ConfigError):
        decode_beam(model, sentence(5), beam_size=2)
    with pytest.raises(ConfigError):
        decode_beam(model, sentence(5), beam_size=1)


def reference_beam(model, tokens, beam_size):
    """Per-hypothesis beam search: every live hypothesis runs its own fuse,
    step, pointer and labeler call, and the pool is sorted stably by score."""
    n = len(tokens)
    with ad.no_grad():
        encoded = model.encoder.encode(tokens)
        prepared = model.pointer.prepare(encoded.matrix())
        # (log_prob, frames, attached, heads, labels, prev_state)
        beam = [(0.0, (DecoderFrame(element=0, head_index=0),), (True,) + (False,) * n,
                 {}, {}, model.decoder.zero_state())]
        for _ in range(2 * n + 1):
            pool = []
            for hyp in beam:
                log_prob, frames, attached = hyp[:3]
                frame = frames[-1]
                fused = model.decoder.fuse(hyp[5], frame.parent_state, frame.sibling_state)
                state, d = model.decoder.step(partial_tree_features(frame, encoded.states), fused)
                mask = _candidate_mask(frame.element, np.array(attached))
                candidates = np.flatnonzero(mask)
                probs = None
                if len(candidates) > 1:
                    probs = model.pointer.attend(d, prepared, mask).probs.data
                for c in candidates:
                    score = log_prob if probs is None else log_prob + float(np.log(probs[c]))
                    pool.append((score, hyp, state, d, int(c)))
            pool.sort(key=lambda item: -item[0])
            beam = []
            for score, (_, frames, attached, heads, labels, _), state, d, c in pool[:beam_size]:
                frame, frames = frames[-1], frames[:-1]
                if c != frame.element:
                    dist = model.labeler.distribution(d, encoded.states[c])
                    heads = {**heads, c: frame.element}
                    labels = {**labels, c: model.labels.name(int(np.argmax(dist.data)))}
                    attached = attached[:c] + (True,) + attached[c + 1:]
                    frames += (frame.with_sibling(state, c),
                               DecoderFrame(element=c, head_index=c, parent_index=frame.element,
                                            parent_state=state))
                beam.append((score, frames, attached, heads, labels, state))
    score, _, _, heads, labels, _ = beam[0]
    return DepTree([heads[i] for i in range(1, n + 1)],
                   [labels[i] for i in range(1, n + 1)]), score


@pytest.mark.parametrize("layers", [1, 2])
@pytest.mark.parametrize("fusion", FUSIONS)
@pytest.mark.parametrize("variant", VARIANTS)
def test_decode_beam_matches_per_hypothesis_reference(variant, fusion, layers):
    # The batched beam gives the per-hypothesis search's tree and score on
    # every fusion path, also when the beam is wider than the sentence (its
    # state bank then grows); beam 1 is the greedy pass bit for bit.
    items = gen_synthetic_dep(31, 12, max_len=8, vocab_size=30, label_count=4)
    model, _ = tiny_model(items, variant=variant, fusion=fusion, decoder_layers=layers)
    for tokens, _ in items[:6] + [(sentence(1), None)]:
        for beam_size in (4, 3 * len(tokens)):
            got_tree, got_lp = decode_beam(model, tokens, beam_size=beam_size)
            want_tree, want_lp = reference_beam(model, tokens, beam_size)
            assert got_tree == want_tree
            assert abs(got_lp - want_lp) <= 1e-12
        greedy = run_transition(model, tokens)
        beamed, log_prob = decode_beam(model, tokens, beam_size=1)
        assert beamed == DepTree(greedy.heads, greedy.labels)
        assert log_prob == -greedy.structure_loss.item()


def test_decode_beam_breaks_ties_like_the_reference():
    # All-zero parameters make every choice a tie; the stable ranking keeps
    # hypothesis order, then candidate order, as the per-hypothesis pool did.
    items = gen_synthetic_dep(31, 12, max_len=8, vocab_size=30, label_count=4)
    model, _ = tiny_model(items)
    for _, p in model.parameters():
        p.data[...] = 0.0
    for n in (3, 6, 8):
        assert decode_beam(model, sentence(n), beam_size=5) == reference_beam(model, sentence(n), 5)


def count_nograd_ops(monkeypatch, fn):
    """Tape ops recorded without a graph while ``fn`` runs."""
    make_const = ad._const
    count = 0

    def counting(data):
        nonlocal count
        count += 1
        return make_const(data)

    with monkeypatch.context() as patch:
        patch.setattr(ad, "_const", counting)
        fn()
    return count


def test_beam_ops_per_round_do_not_grow_with_beam(monkeypatch):
    # One k-row decoder, pointer and labeler pass per round: the op count of
    # beam 10 stays near beam 1's (about ten times it when every hypothesis
    # ran its own pass), so a layer that quietly un-batches fails here.
    items = gen_synthetic_dep(7, 64, max_len=12, vocab_size=200, label_count=8)
    tokens = next(tokens for tokens, _ in items if len(tokens) == 12)
    config = DepConfig(variant="pst", fusion="sgate", encoder_hidden=64, decoder_hidden=64,
                       arc_mlp=64, label_mlp=16, batch_size=8, seed=7).validate()
    model = DepModel(config, *build_dep_vocabs(items), np.random.default_rng(7))
    one = count_nograd_ops(monkeypatch, lambda: decode_beam(model, tokens, beam_size=1))
    ten = count_nograd_ops(monkeypatch, lambda: decode_beam(model, tokens, beam_size=10))
    assert ten <= 2 * one, f"beam 10 ran {ten} ops, beam 1 {one}"
