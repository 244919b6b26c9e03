"""Dependency pipeline tests: oracle ordering, candidate masks, losses
against exact closed forms, decode validity, beam behavior, and training."""

from collections import Counter
from dataclasses import fields

import numpy as np
import pytest

from ptrparse import autodiff as ad
from ptrparse.corpus import gen_synthetic_dep
from ptrparse.decoder import FUSIONS, VARIANTS
from ptrparse.dep import (DepConfig, DepModel, _candidate_mask, batch_losses, build_dep_vocabs,
                          config_from_dict, config_to_dict, decode_beam,
                          decode_greedy, example_losses, forced_decode,
                          format_trace, oracle_order, replay_events,
                          run_transition, train_dep)
from ptrparse.encoder import Vocab
from ptrparse.errors import ConfigError, DataError, TreeError
from ptrparse.metrics import score_dep_corpus
from ptrparse.rst import RstConfig, RstModel, decode_rst
from ptrparse.scoring import LabelSet
from ptrparse.trees import DepTree, Token

from helpers import assert_divergence_moves_nothing


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
    result = run_transition(model, tokens, gold=gold)
    assert result.heads == list(gold.heads)
    assert result.labels == list(gold.labels)
    assert result.trace == []
    assert result.pointer_calls <= 2 * gold.n
    # A trace records greedy decoding only, and training needs a gold tree.
    with pytest.raises(ConfigError, match="want_trace"):
        run_transition(model, tokens, gold=gold, want_trace=True)
    with pytest.raises(ConfigError, match="gold tree"):
        run_transition(model, tokens, training=True, rng=np.random.default_rng(0))


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


def range_checked_fields():
    """(config class, field, bad value): 0 for every int field but the seed,
    1.0 for every dropout rate, over both configs."""
    for cls in (DepConfig, RstConfig):
        for f in fields(cls):
            if f.type == "int" and f.name != "seed":
                yield pytest.param(cls, f.name, 0, id=f"{cls.__name__}.{f.name}")
            elif f.name.endswith("_dropout"):
                yield pytest.param(cls, f.name, 1.0, id=f"{cls.__name__}.{f.name}")


@pytest.mark.parametrize("cls, name, value", list(range_checked_fields()))
def test_config_rejects_every_out_of_range_field(cls, name, value):
    with pytest.raises(ConfigError, match=f"^{name} must be"):
        cls(**{name: value}).validate()


@pytest.mark.parametrize("task, name, value", [
    ("dep", "seed", -1), ("dep", "seed", 1.5), ("dep", "seed", True), ("rst", "seed", -1),
    ("dep", "lr", float("inf")), ("dep", "lr", float("nan")), ("rst", "lr", float("inf")),
    ("dep", "eps", float("inf")), ("dep", "clip", float("inf")), ("rst", "clip", float("nan")),
    ("dep", "target_uas", "x"), ("dep", "target_las", float("inf")),
    ("rst", "target_span", "x"), ("rst", "target_relation", float("nan")),
    ("rst", "l2", float("inf")), ("rst", "l2", float("nan")), ("dep", "embed_dropout", "x"),
    ("rst", "decoder_dropout", "x"), ("dep", "beta2", "x"), ("dep", "decay", "x"),
])
def test_config_rejects_values_that_fail_later(task, name, value):
    # Each of these once passed validation and then failed later with a raw
    # numpy or type error or in NaN training, or broke the validator itself
    # with a raw type error.
    config = tiny_config() if task == "dep" else RstConfig()
    setattr(config, name, value)
    with pytest.raises(ConfigError, match=name):
        config.validate()


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


def test_train_dep_logs_grad_norm_and_clip_scale():
    # Every log line carries the epoch's largest pre-clip global gradient
    # norm and its smallest clip factor, before lr; a clip far below the
    # norm scales every batch.  History rows keep their keys.
    items = items_for([[0, 1], [0, 1, 1]])

    def logged(**overrides):
        lines = []
        _, history = train_dep(items, tiny_config(epochs=2, **overrides), log=lines.append)
        assert set(history[0]) == {"epoch", "loss", "uas", "las", "lr"}
        words = [line.split() for line in lines]
        assert all(w[w.index("clip_scale") + 2] == "lr" for w in words)
        return [(float(w[w.index("grad_norm") + 1]), float(w[w.index("clip_scale") + 1]))
                for w in words]

    assert all(norm > 0.0 and scale == 1.0 for norm, scale in logged())
    for norm, scale in logged(clip=1e-3):
        assert 0.0 < scale < 1.0
        assert scale == pytest.approx(1e-3 / norm, rel=1.0)


def test_train_dep_rejects_empty_and_invalid():
    with pytest.raises(ConfigError):
        train_dep([], tiny_config())
    bad = [(sentence(2), DepTree([2, 1], ["a", "b"]))]
    with pytest.raises(TreeError):
        train_dep(bad, tiny_config())
    for heads in ([0], [0, 1, 2]):  # a gold tree longer or shorter than its sentence
        with pytest.raises(TreeError):
            train_dep([(sentence(2), DepTree(heads, ["a"] * len(heads)))], tiny_config())


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


def test_train_dep_raises_on_divergence(monkeypatch):
    # The non-finite check runs on the batch before its backward pass, so
    # the failing batch leaves every parameter where the last step put it.
    items = items_for([[0, 1], [0, 1, 1]])
    assert_divergence_moves_nothing(
        monkeypatch, lambda hook: train_dep(items, tiny_config(lr=1e100), init_hook=hook))


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
    # config.  Teacher forcing from a schedule (one decoder sequence op and
    # one row-form call per head) brings this to about 10.8 per token; one
    # decoder step and head call at a time with one gather of summed
    # encoder rows per decoder input had about 57.9, a chain of adds over
    # one row per encoder state 58.5, a pick, log and neg per loss term
    # 65.3, fused single steps about 129 and the per-gate graph about 264.
    # The count is exact, so a change that unfuses a layer or splits a loss
    # term fails here rather than only in wall time, and the message names
    # the ops per token by op name.
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
    by_name = Counter(node._bwd.__qualname__.split(".")[0] for node in seen.values()
                      if node._bwd is not None)
    ops = sum(by_name.values())
    tokens = sum(len(tokens) for tokens, _ in items)
    per_op = ", ".join(f"{name} {count / tokens:.2f}" for name, count in by_name.most_common())
    assert ops / tokens <= 12, f"{ops / tokens:.2f} tape ops per token: {per_op}"


def test_teacher_forced_batch_graph_size_per_token():
    # One tape per batch: the eight criterion-3 sentences of a batch share
    # one encoder call, one decoder sequence op and one call per head, so
    # the reachable tape ops per token fall from about 10.4 for a sentence
    # alone to under 2.  The message names the ops per token by op name.
    items = gen_synthetic_dep(7, 64, max_len=12, vocab_size=200, label_count=8)[:8]
    config = DepConfig(variant="pst", fusion="sgate", encoder_hidden=64, decoder_hidden=64,
                       arc_mlp=64, label_mlp=16, batch_size=8, seed=7).validate()
    model = DepModel(config, *build_dep_vocabs(items), np.random.default_rng(7))
    structure, label, _ = batch_losses(model, items, training=True,
                                       rng=np.random.default_rng(8))
    work, seen = [ad.add(structure, label)], {}
    while work:
        node = work.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            work.extend(node._parents)
    by_name = Counter(node._bwd.__qualname__.split(".")[0] for node in seen.values()
                      if node._bwd is not None)
    ops = sum(by_name.values())
    tokens = sum(len(tokens) for tokens, _ in items)
    per_op = ", ".join(f"{name} {count / tokens:.2f}" for name, count in by_name.most_common())
    assert ops / tokens <= 2, f"{ops / tokens:.2f} tape ops per token: {per_op}"


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


@pytest.mark.parametrize("beam_size", [0, -3, 2.5, "3", True])
def test_decode_beam_rejects_bad_beam_sizes(beam_size):
    items = items_for([[0, 1]])
    model, _ = tiny_model(items)
    with pytest.raises(ConfigError, match="beam size"):
        decode_beam(model, sentence(2), beam_size=beam_size)


def test_empty_sentence_is_a_data_error():
    # No entry point builds a decoder frame for an empty sentence: the
    # encoder rejects it when decoding, the oracle an empty gold tree.
    model, _ = tiny_model(items_for([[0, 1]]))
    rst = RstModel(RstConfig(word_dim=4, encoder_hidden=2, encoder_layers=1, decoder_layers=1,
                             rel_mlp=4), Vocab.build(["a"]), LabelSet(["NS-elab"]),
                   np.random.default_rng(0))
    for decode in (lambda: decode_greedy(model, []),
                   lambda: decode_beam(model, [], beam_size=3),
                   lambda: run_transition(model, [], gold=DepTree([], []), training=True,
                                          rng=np.random.default_rng(0)),
                   lambda: decode_rst(rst, [], [])):
        with pytest.raises(DataError):
            decode()


def reference_beam(model, tokens, beam_size):
    """Per-hypothesis beam search: every live hypothesis runs its own fuse,
    step, pointer and labeler call, and the pool is sorted stably by score.
    A frame is (element, parent word, sibling word, parent state, sibling
    state), with None for an absent word or state."""
    n = len(tokens)
    with ad.no_grad():
        encoded = model.encoder.encode(tokens)
        reps = [ad.row(encoded, i) for i in range(n + 1)]
        prepared = model.pointer.prepare(encoded)
        # (log_prob, frames, attached, heads, labels, prev_state)
        beam = [(0.0, ((0, None, None, None, None),), (True,) + (False,) * n,
                 {}, {}, model.decoder.zero_state())]
        for _ in range(2 * n + 1):
            pool = []
            for hyp in beam:
                log_prob, frames, attached = hyp[:3]
                element, parent, sibling, parent_state, sibling_state = frames[-1]
                x = reps[element]
                for word in (parent, sibling):
                    if word is not None:
                        x = ad.add(x, reps[word])
                fused = model.decoder.fuse(hyp[5], parent_state, sibling_state)
                state, d = model.decoder.step(x, fused)
                mask = _candidate_mask(element, np.array(attached))
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
                (element, parent, _, parent_state, _), frames = frames[-1], frames[:-1]
                if c != element:
                    dist = model.labeler.distribution(d, reps[c])
                    heads = {**heads, c: element}
                    labels = {**labels, c: model.labels.name(int(np.argmax(dist.data)))}
                    attached = attached[:c] + (True,) + attached[c + 1:]
                    frames += ((element, parent, c, parent_state, state),
                               (c, element, None, state, None))
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


def test_decode_beam_grows_its_state_bank():
    # A beam far wider than any round's hypotheses allocates only the rows
    # its rounds write, growing the state bank as they come.
    items = gen_synthetic_dep(31, 12, max_len=8, vocab_size=30, label_count=4)
    model, _ = tiny_model(items)
    assert decode_beam(model, sentence(3), beam_size=10**13) == reference_beam(
        model, sentence(3), 10**13)


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


def count_graph_ops(monkeypatch, fn):
    """Tape ops recorded with a graph while ``fn`` runs, by op name."""
    make_node = ad._node
    counts = Counter()

    def counting(data, parents, bwd):
        counts[bwd.__qualname__.split(".")[0]] += 1
        return make_node(data, parents, bwd)

    with monkeypatch.context() as patch:
        patch.setattr(ad, "_node", counting)
        fn()
    return counts


def test_encoder_tape_does_not_grow_with_length(monkeypatch):
    # Each encoder direction is one sequence op and the state matrix is
    # handed on whole, so a 12-word sentence records exactly the ops of a
    # 3-word one; a per-step loop or a split into rows fails here.
    items = items_for([[0, 1, 1]])
    model, _ = tiny_model(items, encoder_layers=2, embed_dropout=0.3, recurrent_dropout=0.3,
                          layer_dropout=0.3)
    counts = {}
    for n in (3, 12):
        ops = count_graph_ops(monkeypatch, lambda: model.encoder.encode(
            sentence(n), training=True, rng=np.random.default_rng(8)))
        counts[n] = ops
    assert counts[3] == counts[12]


def test_teacher_forced_tape_does_not_grow_with_length(monkeypatch):
    # Teacher forcing records one decoder op and one call per head for the
    # whole sentence, so a 12-word sentence records exactly the ops of a
    # 3-word one, dropout included; a per-step loop fails here.
    items = items_for([[0, 1, 1]])
    model, _ = tiny_model(items, encoder_layers=2, decoder_layers=2, embed_dropout=0.3,
                          recurrent_dropout=0.3, layer_dropout=0.3, state_dropout=0.3,
                          mlp_dropout=0.3)
    counts = {}
    for n in (3, 12):
        gold = DepTree([0] + list(range(1, n)), ["dep0"] * n)
        counts[n] = count_graph_ops(monkeypatch, lambda: run_transition(
            model, sentence(n), gold=gold, training=True, rng=np.random.default_rng(8)))
    assert counts[3] == counts[12], counts
