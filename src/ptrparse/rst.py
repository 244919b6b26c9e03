"""Sentence-level discourse parsing: span splitting with joint labeling.

Decoding walks a stack of EDU spans.  A span of three or more EDUs gets
one decoder step and one dot-product pointer call choosing its split; a
two-EDU span splits without any decoder involvement (its only freedom is
the label); single EDUs are leaves.  Each split is labeled by a biaffine
classifier over the last-EDU representations of the two child spans.

Frames are popped in preorder, so the gold event sequence from
``oracle_splits`` lines up with the stack discipline exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, no_grad
from .decoder import DecoderFrame, FUSIONS, HierDecoder, VARIANTS, partial_tree_features
from .dep import _check_common, fit_loop
from .encoder import RstEncoder, UNK, Vocab
from .errors import ConfigError, TreeError
from .metrics import score_parseval_corpus
from .nn import Module
# Not called here (``fit_loop`` clips), but kept as a module attribute that
# the benchmark's tracer swaps by name.
from .optim import clip_by_global_norm  # noqa: F401
from .scoring import LabelSet, PairLabeler, dot_attend
from .trees import DiscTree, internal, leaf, split_label


@dataclass
class RstConfig:
    """Discourse hyperparameters; defaults follow the full-scale recipe.

    The decoder hidden size is tied to twice the encoder hidden size so
    that decoder states and EDU representations share the space required
    by dot-product pointing.
    """

    word_dim: int = 1024
    encoder_hidden: int = 64
    encoder_layers: int = 5
    decoder_layers: int = 5
    rel_mlp: int = 64
    variant: str = "pst"
    fusion: str = "plain"
    embed_dropout: float = 0.5
    encoder_dropout: float = 0.4
    decoder_dropout: float = 0.6
    classifier_dropout: float = 0.5
    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.95
    eps: float = 1e-8
    l2: float = 0.0005
    decay: float = 0.75
    clip: float = 5.0
    batch_size: int = 64
    epochs: int = 100
    seed: int = 1
    include_root: bool = True
    max_len: int = 512
    target_span: float = None
    target_relation: float = None

    _INT_FIELDS = ("word_dim", "encoder_hidden", "encoder_layers", "decoder_layers",
                   "rel_mlp", "batch_size", "epochs", "max_len")
    _DROPOUT_FIELDS = ("embed_dropout", "encoder_dropout", "decoder_dropout",
                       "classifier_dropout")

    @property
    def decoder_hidden(self) -> int:
        return 2 * self.encoder_hidden

    def validate(self):
        _check_common(self, VARIANTS, FUSIONS)
        if self.l2 < 0:
            raise ConfigError(f"l2 must be non-negative, got {self.l2!r}")
        return self


class RstModel(Module):
    """GRU encoder, hierarchical GRU decoder, dot pointer, relation classifier."""

    def __init__(self, config: RstConfig, word_vocab: Vocab, labels: LabelSet, rng):
        self.encoder = RstEncoder(word_vocab, rng, word_dim=config.word_dim,
                                  hidden_dim=config.encoder_hidden,
                                  layers=config.encoder_layers,
                                  embed_dropout=config.embed_dropout,
                                  encoder_dropout=config.encoder_dropout)
        enc_dim = self.encoder.out_dim
        self.decoder = HierDecoder("gru", config.decoder_layers, enc_dim,
                                   config.decoder_hidden, config.variant, config.fusion,
                                   rng, state_dropout=config.decoder_dropout)
        self.labeler = PairLabeler(enc_dim, enc_dim, config.rel_mlp, len(labels), rng,
                                   dropout=config.classifier_dropout)
        self.config = config
        self.labels = labels


def oracle_splits(tree: DiscTree):
    """Preorder split events: ((i, j), k, label, pointed).

    ``pointed`` is True exactly for spans of three or more EDUs; two-EDU
    spans are forced splits that carry only a label decision.
    """
    tree.validate()
    events = []

    def visit(node):
        if node.is_leaf:
            return
        events.append(((node.start, node.end), node.left.end, node.label,
                       node.end - node.start >= 2))
        visit(node.left)
        visit(node.right)

    visit(tree.root)
    return events


def _assemble(splits, i: int, j: int):
    if i == j:
        return leaf(i)
    k, nuc, rel = splits[(i, j)]
    return internal(_assemble(splits, i, k), _assemble(splits, k + 1, j), nuc, rel)


@dataclass
class RstRunResult:
    """Outcome of one decode or teacher-forced pass over a segmented sentence."""

    tree: DiscTree
    structure_loss: Tensor
    label_loss: Tensor
    pointer_calls: int
    score_evaluations: int


def run_splits(model: RstModel, words, ends, gold: DiscTree = None, training: bool = False,
               rng=None) -> RstRunResult:
    """Shared stepper for teacher forcing (gold given) and greedy decoding.

    Two-EDU frames are carried on the same stack to keep preorder, but they
    never touch the decoder: no step, no temporal-state advance, and no
    sibling-state handoff, matching the push rule that only spans larger
    than two are processed by the pointer.
    """
    config = model.config
    if len(words) > config.max_len:
        raise ConfigError(f"sentence length {len(words)} exceeds max_len {config.max_len}")
    encoded = model.encoder.encode(words, ends, training=training, rng=rng)
    m = encoded.m
    if gold is not None and gold.m != m:
        raise TreeError(f"gold tree spans {gold.m} EDUs but segmentation has {m}")
    events = iter(oracle_splits(gold)) if gold is not None else None
    matrix = encoded.matrix()
    reps = encoded.edu_states

    splits = {}
    structure_terms = []
    label_terms = []
    pointer_calls = 0
    score_evaluations = 0
    prev_state = model.decoder.zero_state()

    stack = []
    if m >= 2:
        stack.append(DecoderFrame(element=(1, m), head_index=m - 1))

    while stack:
        frame = stack.pop()
        i, j = frame.element

        if j - i == 1:
            k = i
            dist = model.labeler.distribution(reps[k - 1], reps[j - 1],
                                              training=training, rng=rng)
            nuc, rel = _pick_label(model, dist, events, (i, j), k, expect_pointed=False,
                                   label_terms=label_terms)
            splits[(i, j)] = (k, nuc, rel)
            continue

        x = partial_tree_features(frame, reps)
        fused = model.decoder.fuse(prev_state, frame.parent_state, frame.sibling_state,
                                   training=training, rng=rng)
        state, d = model.decoder.step(x, fused)
        prev_state = state
        if frame.fills_sibling_below and stack:
            stack[-1] = stack[-1].with_sibling(state)

        result = dot_attend(matrix, d, i - 1, j - 1, position_offset=i)
        pointer_calls += 1
        score_evaluations += j - i
        if events is not None:
            span, k, label, pointed = _next_event(events, (i, j), expect_pointed=True)
            structure_terms.append(result.nll(k))
        else:
            k = result.best()

        dist = model.labeler.distribution(reps[k - 1], reps[j - 1],
                                          training=training, rng=rng)
        if events is not None:
            label_terms.append(ad.cross_entropy(dist, model.labels[label]))
            nuc, rel = split_label(label)
        else:
            nuc, rel = split_label(model.labels.name(int(np.argmax(dist.data))))
        splits[(i, j)] = (k, nuc, rel)

        left_len = k - i + 1
        right_len = j - k
        both_pushed = left_len >= 3 and right_len >= 3
        if right_len >= 2:
            sibling_index = k - 1 if both_pushed else None
            stack.append(DecoderFrame(element=(k + 1, j), head_index=j - 1,
                                      parent_index=j - 1, parent_state=state,
                                      sibling_index=sibling_index))
        if left_len >= 2:
            stack.append(DecoderFrame(element=(i, k), head_index=k - 1,
                                      parent_index=j - 1, parent_state=state,
                                      fills_sibling_below=both_pushed))

    if events is not None and next(events, None) is not None:
        raise TreeError("gold events remain after decoding finished")

    tree = DiscTree(_assemble(splits, 1, m))
    return RstRunResult(tree=tree, structure_loss=ad.sum_terms(structure_terms),
                        label_loss=ad.sum_terms(label_terms), pointer_calls=pointer_calls,
                        score_evaluations=score_evaluations)


def _next_event(events, span, expect_pointed):
    event = next(events, None)
    if event is None or event[0] != span or event[3] != expect_pointed:
        raise TreeError(f"gold events out of step at span {span}")
    return event


def _pick_label(model, dist, events, span, k, expect_pointed, label_terms):
    if events is not None:
        _, gold_k, label, _ = _next_event(events, span, expect_pointed)
        if gold_k != k:
            raise TreeError(f"forced split at {span} disagrees with gold position {gold_k}")
        label_terms.append(ad.cross_entropy(dist, model.labels[label]))
        return split_label(label)
    return split_label(model.labels.name(int(np.argmax(dist.data))))


def example_losses(model: RstModel, words, ends, gold: DiscTree, training: bool = False,
                   rng=None):
    """Teacher-forced (structure, label) loss tensors for one example."""
    result = run_splits(model, words, ends, gold=gold, training=training, rng=rng)
    return result.structure_loss, result.label_loss


def forced_decode(model: RstModel, words, ends, gold: DiscTree) -> float:
    """Log-probability of the gold split sequence (negative structure loss)."""
    with no_grad():
        result = run_splits(model, words, ends, gold=gold)
    return -result.structure_loss.item()


def decode_rst(model: RstModel, words, ends) -> DiscTree:
    """Greedy decode of a segmented sentence into a discourse tree."""
    with no_grad():
        result = run_splits(model, words, ends)
    return result.tree


def build_rst_vocab(items) -> Vocab:
    words = set()
    for tokens, _, _ in items:
        words.update(tokens)
    return Vocab.build(words, specials=(UNK,))


def corpus_label_set(items) -> LabelSet:
    labels = set()
    for _, _, tree in items:
        for node in tree.internal_nodes():
            labels.add(node.label)
    return LabelSet(sorted(labels))


@dataclass
class RstTrainResult:
    """Trained model plus the two selection snapshots and the epoch history."""

    model: RstModel
    history: list
    best_span_state: dict
    best_relation_state: dict


def train_rst(items, config: RstConfig, dev_items=None, label_set: LabelSet = None,
              log=None, init_hook=None) -> RstTrainResult:
    """Teacher-forced training, joint split and label loss plus L2 decay, via ``fit_loop``.

    Tracks two selections in one run: the best-Span model and the
    best-Relation model.  The returned model holds the best-Span weights.
    The learning rate decays on Span plateau only when a dev set exists.
    ``init_hook(model)`` runs once after initialization, before training.
    """
    config.validate()
    if not items:
        raise ConfigError("training corpus is empty")
    for _, _, tree in items:
        tree.validate()

    labels = label_set if label_set is not None else corpus_label_set(items)
    model = RstModel(config, build_rst_vocab(items), labels,
                     np.random.default_rng(config.seed))
    history, snapshots = fit_loop(
        model, items, config, example_losses, _evaluate_rst,
        {"span": ("span", "relation"), "relation": ("relation", "span")},
        [("span", config.target_span), ("relation", config.target_relation)],
        dev_items=dev_items, log=log, init_hook=init_hook, weight_decay=config.l2)
    model.restore(snapshots["span"])
    return RstTrainResult(model=model, history=history, best_span_state=snapshots["span"],
                          best_relation_state=snapshots["relation"])


def _evaluate_rst(model, items):
    pairs = [(tree, decode_rst(model, words, ends)) for words, ends, tree in items]
    agg = score_parseval_corpus(pairs, include_root=model.config.include_root)
    return {"span": agg.span_f1, "nuclearity": agg.nuclearity_f1,
            "relation": agg.relation_f1}
