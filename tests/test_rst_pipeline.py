"""Discourse pipeline tests: oracle split events, exact uniform-loss
closed forms, forced and greedy decoding, sibling handoff, the teacher-forced
tape size, and training."""

from collections import Counter

import numpy as np
import pytest

from ptrparse import autodiff as ad
from ptrparse.corpus import gen_synthetic_rst, segmented_from_texts
from ptrparse.rst import (RstConfig, RstModel, RstTrainResult, build_rst_vocab,
                          corpus_label_set, decode_rst, decode_rst_batch, example_losses,
                          forced_decode, oracle_splits, run_splits, train_rst)
from ptrparse.errors import ConfigError, SegmentationError, TreeError
from ptrparse.scoring import LabelSet
from ptrparse.trees import DiscTree, internal, leaf

from helpers import assert_divergence_moves_nothing


def tiny_config(**kw):
    base = dict(word_dim=6, encoder_hidden=4, encoder_layers=1, decoder_layers=1,
                rel_mlp=6, embed_dropout=0.0, encoder_dropout=0.0, decoder_dropout=0.0,
                classifier_dropout=0.0, batch_size=4, epochs=3, seed=5, l2=0.0)
    base.update(kw)
    return RstConfig(**base)


def chain_tree(m, nuc="NS", rel="Cause"):
    """Right-branching tree over m EDUs: (1,m) splits at 1, then (2,m) at 2, ...."""
    def build(i, j):
        if i == j:
            return leaf(i)
        return internal(leaf(i), build(i + 1, j), nuc, rel)
    return DiscTree(build(1, m))


def edus_for(m):
    words = []
    ends = []
    for e in range(m):
        words.extend([f"w{e}a", f"w{e}b"])
        ends.append(len(words))
    return words, ends


def model_for(m_labels=("NS-Cause", "NN-Joint", "SN-Contrast"), words=None, **kw):
    config = tiny_config(**kw)
    vocab = build_rst_vocab([(words or ["w0a", "w0b"], None, None)])
    labels = LabelSet(sorted(m_labels))
    return RstModel(config, vocab, labels, np.random.default_rng(config.seed)), config


def test_oracle_splits_chain():
    events = oracle_splits(chain_tree(4))
    assert events == [((1, 4), 1, "NS-Cause", True),
                      ((2, 4), 2, "NS-Cause", True),
                      ((3, 4), 3, "NS-Cause", False)]


def test_oracle_splits_balanced():
    # ((1 2) (3 4)): root splits at 2; both children are forced two-EDU spans.
    tree = DiscTree(internal(internal(leaf(1), leaf(2), "NS", "a"),
                             internal(leaf(3), leaf(4), "NN", "b"), "SN", "c"))
    events = oracle_splits(tree)
    assert events == [((1, 4), 2, "SN-c", True),
                      ((1, 2), 1, "NS-a", False),
                      ((3, 4), 3, "NN-b", False)]


def test_oracle_splits_single_edu_empty():
    assert oracle_splits(DiscTree(leaf(1))) == []


def test_oracle_splits_preorder_left_before_right():
    # ((1 (2 3)) ((4 5) 6)): preorder lists the left subtree's events first.
    left = internal(leaf(1), internal(leaf(2), leaf(3), "NS", "x"), "NS", "y")
    right = internal(internal(leaf(4), leaf(5), "SN", "z"), leaf(6), "NN", "w")
    tree = DiscTree(internal(left, right, "NN", "top"))
    spans = [span for span, _, _, _ in oracle_splits(tree)]
    assert spans == [(1, 6), (1, 3), (2, 3), (4, 6), (4, 5)]


def test_run_splits_teacher_forcing_reproduces_gold():
    model, _ = model_for()
    words, ends = edus_for(5)
    gold = chain_tree(5)
    result = run_splits(model, words, ends, gold=gold)
    assert result.tree == gold
    assert result.pointer_calls == sum(1 for _, _, _, p in oracle_splits(gold) if p)


def test_teacher_forcing_returns_the_gold_tree_itself():
    model, _ = model_for()
    for m in (1, 2, 5):
        words, ends = edus_for(m)
        gold = chain_tree(m)
        assert run_splits(model, words, ends, gold=gold).tree is gold


@pytest.mark.parametrize("end", [2.5, True, "2", "x"])
def test_malformed_edu_ends_raise_segmentation_error(end):
    # A float, a bool or a string is never coerced to an end position.
    model, _ = model_for()
    words, _ = edus_for(2)
    with pytest.raises(SegmentationError, match="integers"):
        decode_rst(model, words, [end, 4])
    with pytest.raises(SegmentationError, match="integers"):
        decode_rst_batch(model, [(words, [1, 4]), (words, [end, 4])])
    assert decode_rst(model, words, [np.int64(2), 4]).m == 2
    assert decode_rst(model, words, np.array([2, 4])).m == 2
    with pytest.raises(SegmentationError, match="integers"):
        decode_rst(model, words, 4)


def test_two_edu_span_never_touches_decoder():
    # For m = 2 the only split is forced, so no pointer call happens and the
    # structure loss is the exact zero constant.
    model, _ = model_for()
    words, ends = edus_for(2)
    gold = chain_tree(2)
    result = run_splits(model, words, ends, gold=gold)
    assert result.pointer_calls == 0
    assert result.structure_loss.item() == 0.0
    assert result.label_loss.item() > 0.0


def test_single_edu_tree_trivial():
    model, _ = model_for()
    words, ends = edus_for(1)
    result = run_splits(model, words, ends)
    assert result.tree == DiscTree(leaf(1))
    assert result.pointer_calls == 0


def test_training_needs_a_gold_tree():
    model, _ = model_for()
    words, ends = edus_for(3)
    with pytest.raises(ConfigError, match="gold tree"):
        run_splits(model, words, ends, training=True, rng=np.random.default_rng(0))


def test_zero_params_uniform_loss_closed_form():
    # Zero GRU weights keep every decoder state at zero, so dot-product
    # scores vanish and each pointed span is uniform over its j - i splits.
    model, _ = model_for()
    for _, p in model.parameters():
        p.data[...] = 0.0
    words, ends = edus_for(5)
    gold = chain_tree(5)
    s, l = example_losses(model, words, ends, gold)
    events = oracle_splits(gold)
    want_structure = sum(np.log(j - i) for (i, j), _, _, pointed in events if pointed)
    want_label = len(events) * np.log(len(model.labels))
    assert s.item() == pytest.approx(want_structure, abs=1e-12)
    assert l.item() == pytest.approx(want_label, abs=1e-12)


def test_forced_decode_equals_negated_structure_loss():
    model, _ = model_for()
    words, ends = edus_for(6)
    for gold in (chain_tree(6), chain_tree(6, "NN", "Joint")):
        s, _ = example_losses(model, words, ends, gold)
        assert forced_decode(model, words, ends, gold) == -s.item()


def test_gold_size_mismatch_raises():
    model, _ = model_for()
    words, ends = edus_for(3)
    with pytest.raises(TreeError):
        run_splits(model, words, ends, gold=chain_tree(4))


def test_decode_rst_valid_trees():
    model, _ = model_for()
    for m in (1, 2, 3, 5, 8):
        words, ends = edus_for(m)
        tree = decode_rst(model, words, ends)
        tree.validate()
        assert tree.m == m


def test_decode_rst_deterministic():
    model, _ = model_for()
    words, ends = edus_for(6)
    assert decode_rst(model, words, ends) == decode_rst(model, words, ends)


def test_decode_labels_come_from_inventory():
    model, _ = model_for()
    words, ends = edus_for(4)
    tree = decode_rst(model, words, ends)
    for node in tree.internal_nodes():
        assert node.label in model.labels.names


def test_sibling_state_only_when_both_children_pointed():
    # Split (1,6) at 3: left (1,3) and right (4,6) both have >= 3 EDUs...
    # here left has 3, right has 3, so the right child receives the left
    # child's expansion state as its sibling.  A chain tree never qualifies.
    model, _ = model_for(m_labels=("NS-a", "NS-b", "NN-c"))
    events = oracle_splits(chain_tree(6))
    assert all(not (k - i + 1 >= 3 and j - k >= 3) for (i, j), k, _, _ in events)

    balanced = DiscTree(internal(
        internal(leaf(1), internal(leaf(2), leaf(3), "NS", "a"), "NS", "b"),
        internal(leaf(4), internal(leaf(5), leaf(6), "NS", "a"), "NS", "b"),
        "NN", "c"))
    found = [(k - i + 1 >= 3 and j - k >= 3) for (i, j), k, _, _ in oracle_splits(balanced)]
    assert any(found)
    words, ends = edus_for(6)
    result = run_splits(model, words, ends, gold=balanced)
    assert result.tree == balanced


def test_variant_ps_equals_p_without_sibling_events():
    # On trees where no split pushes two pointed children, PS never sees a
    # sibling state, so PS and P decode identically under shared weights.
    model_p, _ = model_for(variant="p")
    model_ps, _ = model_for(variant="ps")
    model_ps.restore(model_p.snapshot())
    words, ends = edus_for(6)
    tree_p = decode_rst(model_p, words, ends)
    tree_ps = decode_rst(model_ps, words, ends)
    if all(not (k - i + 1 >= 3 and j - k >= 3)
           for (i, j), k, _, _ in oracle_splits(tree_p)):
        assert tree_p == tree_ps


def test_run_splits_counts_score_evaluations():
    model, _ = model_for()
    words, ends = edus_for(7)
    result = run_splits(model, words, ends)
    assert result.score_evaluations >= result.pointer_calls
    assert result.score_evaluations == sum(
        j - i for (i, j), _, _, pointed in oracle_splits(result.tree) if pointed)


def test_build_rst_vocab_and_label_set():
    items = [(["b", "a"], [2], chain_tree(1)), (["c"], [1], chain_tree(1))]
    vocab = build_rst_vocab(items)
    assert vocab.tokens[0] == "<unk>"
    assert list(vocab.tokens[1:]) == ["a", "b", "c"]
    rst_items = [(["x"], [1], chain_tree(3, "NS", "Cause")),
                 (["y"], [1], chain_tree(2, "NN", "Joint"))]
    labels = corpus_label_set(rst_items)
    assert list(labels.names) == ["NN-Joint", "NS-Cause"]


def test_rst_config_validation():
    tiny_config().validate()
    for bad in (dict(variant="q"), dict(fusion="q"), dict(encoder_hidden=0),
                dict(embed_dropout=1.5), dict(l2=-1.0), dict(lr=0.0)):
        with pytest.raises(ConfigError):
            tiny_config(**bad).validate()


def test_decoder_hidden_is_twice_encoder():
    assert tiny_config(encoder_hidden=16).decoder_hidden == 32


def test_train_rst_history_and_selection():
    raw = gen_synthetic_rst(3, 6, max_edus=5, label_count=3)
    items = [segmented_from_texts(texts) + (tree,) for texts, tree in raw]
    config = tiny_config(epochs=2)
    result = train_rst(items, config)
    assert isinstance(result, RstTrainResult)
    assert len(result.history) == 2
    assert {"epoch", "loss", "span", "nuclearity", "relation", "lr"} <= set(result.history[0])
    assert result.best_span_state is not None
    assert result.best_relation_state is not None


def test_train_rst_early_stop_on_targets():
    raw = gen_synthetic_rst(3, 4, max_edus=4, label_count=3)
    items = [segmented_from_texts(texts) + (tree,) for texts, tree in raw]
    config = tiny_config(epochs=50, target_span=0.0, target_relation=0.0)
    result = train_rst(items, config)
    assert len(result.history) == 1


def test_train_rst_rejects_empty():
    with pytest.raises(ConfigError):
        train_rst([], tiny_config())


def test_train_rst_keeps_lr_without_dev_set():
    raw = gen_synthetic_rst(4, 4, max_edus=4, label_count=3)
    items = [segmented_from_texts(texts) + (tree,) for texts, tree in raw]
    result = train_rst(items, tiny_config(epochs=3))
    assert all(row["lr"] == result.history[0]["lr"] for row in result.history)


def test_train_rst_decays_lr_on_dev_plateau():
    raw = gen_synthetic_rst(4, 4, max_edus=4, label_count=3)
    items = [segmented_from_texts(texts) + (tree,) for texts, tree in raw]
    result = train_rst(items, tiny_config(epochs=4, decay=0.5), dev_items=items)
    # With a tiny random model dev scores plateau fast; decay must appear.
    assert result.history[-1]["lr"] < result.history[0]["lr"]


def test_train_rst_raises_on_divergence(monkeypatch):
    # The failing batch is checked before its backward pass and moves nothing.
    raw = gen_synthetic_rst(4, 4, max_edus=4, label_count=3)
    items = [segmented_from_texts(texts) + (tree,) for texts, tree in raw]
    assert_divergence_moves_nothing(
        monkeypatch,
        lambda hook: train_rst(items, tiny_config(lr=1e100, batch_size=2), init_hook=hook))


def reachable_ops(losses):
    """Tape ops reachable from the given loss tensors, by op name."""
    work, seen = list(losses), {}
    while work:
        node = work.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            work.extend(node._parents)
    return Counter(node._bwd.__qualname__.split(".")[0] for node in seen.values()
                   if node._bwd is not None)


def test_teacher_forced_graph_size_per_word():
    # Tape ops reachable from the teacher-forced losses of the first 16
    # criterion-4 trees.  Teacher forcing from a schedule (one decoder
    # sequence op, one row-form dot pointer and one labeler call per tree)
    # brings this to about 4.1 per word; one decoder step, pointer call and
    # labeler call per split had about 11.1.  The message names the ops per
    # word by op name.
    items = [segmented_from_texts(texts) + (tree,)
             for texts, tree in gen_synthetic_rst(7, 64, max_edus=8, label_count=8)][:16]
    config = RstConfig(word_dim=64, encoder_hidden=64, encoder_layers=2, decoder_layers=2,
                       rel_mlp=64, fusion="plain", embed_dropout=0.0, encoder_dropout=0.0,
                       decoder_dropout=0.0, classifier_dropout=0.0, l2=0.0, batch_size=8,
                       seed=7).validate()
    model = RstModel(config, build_rst_vocab(items), corpus_label_set(items),
                     np.random.default_rng(7))
    rng = np.random.default_rng(8)
    by_name = reachable_ops(ad.add(*example_losses(model, words, ends, tree, training=True,
                                                   rng=rng))
                            for words, ends, tree in items)
    words = sum(len(words) for words, _, _ in items)
    per_op = ", ".join(f"{name} {count / words:.2f}" for name, count in by_name.most_common())
    ops = sum(by_name.values())
    assert ops / words <= 5, f"{ops / words:.2f} tape ops per word: {per_op}"


def test_teacher_forced_tape_does_not_grow_with_edus():
    # One decoder op, one pointer call and one labeler call per tree, so an
    # 8-EDU tree records exactly the ops of a 3-EDU one, dropout included;
    # a per-split loop fails here.
    model, _ = model_for(m_labels=("NS-a", "NS-b", "NN-c"), encoder_layers=2,
                         decoder_layers=2, embed_dropout=0.3,
                         encoder_dropout=0.3, decoder_dropout=0.3, classifier_dropout=0.3)
    balanced = DiscTree(internal(
        internal(internal(leaf(1), leaf(2), "NS", "a"), internal(leaf(3), leaf(4), "NS", "b"),
                 "NN", "c"),
        internal(internal(leaf(5), leaf(6), "NS", "a"), internal(leaf(7), leaf(8), "NS", "b"),
                 "NN", "c"),
        "NS", "a"))
    counts = {}
    for tree in (chain_tree(3, "NS", "a"), balanced):
        words, ends = edus_for(tree.m)
        counts[tree.m] = reachable_ops(example_losses(model, words, ends, tree, training=True,
                                                      rng=np.random.default_rng(8)))
    assert counts[3] == counts[8], counts
