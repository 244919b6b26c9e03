"""Sentence-level discourse parsing: span splitting with joint labeling.

Decoding walks a stack of EDU spans.  A span of three or more EDUs gets
one decoder step and one dot-product pointer call choosing its split; a
two-EDU span splits without any decoder involvement (its only freedom is
the label); single EDUs are leaves.  Each split is labeled by a biaffine
classifier over the last-EDU representations of the two child spans.
That pair needs no decoder state and no later decision reads a label, so
decoding labels a tree once its structure is fixed.

``decode_rst`` decodes one sentence span by span; ``decode_rst_batch``
decodes many as the rows of one pass, one popped span per sentence per
round, with one decoder step and one row-form pointer call per round.
Either way one row-form labeler call then labels every split of the
sentence, or of the chunk.

Frames are popped in preorder, so the gold event sequence from
``oracle_splits`` lines up with the stack discipline exactly.  Teacher
forcing uses that to build the whole pass before the decoder runs: one
walk of the gold events gives every pointed span's frame, candidate range
and target and every split's labeler pair, and a batch of sentences
records one tape: one encoder call, one decoder sequence op, one
row-form dot pointer and one labeler call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, no_grad
from .decoder import FUSIONS, HierDecoder, VARIANTS
from .dep import (_Batch, _Walk, _check_common, _check_length, _chunks, _finite, _head_loss,
                  fit_loop)
from .encoder import RstEncoder, UNK, Vocab, check_segmentation
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

    @property
    def decoder_hidden(self) -> int:
        return 2 * self.encoder_hidden

    def validate(self):
        _check_common(self, VARIANTS, FUSIONS)
        if not (_finite(self.l2) and self.l2 >= 0):
            raise ConfigError(f"l2 must be non-negative and finite, got {self.l2!r}")
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
    """Greedy decoding, or teacher forcing when ``gold`` is given.

    Frames and the state bank are those of ``decoder``'s module docstring,
    with a span (i, j) as the element and the last EDU of a span as its
    encoder index.  Two-EDU frames are carried on the same stack to keep
    preorder, but they never touch the decoder: no step and no bank row,
    matching the push rule that only spans larger than two are processed
    by the pointer.  Every split, forced or pointed, is labeled the same
    way.  When both children of a split will step, the left one is popped
    next, so the right one's sibling state is the next bank row.

    Greedy decoding steps the decoder and the dot pointer one span at a
    time, because each split decides the frames after it.  Once the splits
    are fixed, one row-form ``labeler.distribution`` call labels them all
    (``_label_splits``), as teacher forcing does; that is one 2-D product
    over the sentence's splits, so a label can differ from the per-split
    vector form only on a last-bit tie.  A one-EDU sentence makes no
    labeler call.  With a gold tree every frame is known in advance, and
    the pass is a batch of one of ``batch_losses`` (a fixed number of tape
    ops) whose dropout ``training``/``rng`` set; the result's tree is
    ``gold`` itself.  Training without a gold tree is a ``ConfigError``.
    """
    _check_length(model.config, len(words))
    if training and gold is None:
        raise ConfigError("training runs teacher forcing only and needs a gold tree")
    if gold is not None:
        structure, label, _, (walk,) = _teacher_forced(model, [(words, ends, gold)], training,
                                                       rng)
        return RstRunResult(tree=gold, structure_loss=structure, label_loss=label,
                            pointer_calls=len(walk.pointed),
                            score_evaluations=walk.evaluations)

    edus = model.encoder.encode(words, ends)
    m = edus.data.shape[0]
    splits = {}  # (i, j) -> k, then -> (k, nuclearity, relation)
    pointer_calls = 0
    score_evaluations = 0
    decoder = model.decoder
    bank = np.zeros((max(m, 1), decoder.components, decoder.hidden_dim))
    step = 0
    stack = [((1, m), -1, -1, 0, 0)] if m >= 2 else []
    while stack:
        (i, j), parent, sibling, parent_row, sibling_row = stack.pop()
        k = i
        if j - i >= 2:
            x = ad.gather_sum(edus, (j - 1, parent, sibling))
            fused = decoder.fuse(Tensor(bank[step]), Tensor(bank[parent_row]),
                                 Tensor(bank[sibling_row]))
            state, d = decoder.step(x, fused)
            step += 1
            bank[step] = state.data
            k = dot_attend(edus, d, i - 1, j - 1, position_offset=i).best()
            pointer_calls += 1
            score_evaluations += j - i
        splits[(i, j)] = k
        _push_children(stack, i, j, k, step)
    _label_splits(model, edus, [splits], [0])

    return RstRunResult(tree=DiscTree(_assemble(splits, 1, m)), structure_loss=Tensor(0.0),
                        label_loss=Tensor(0.0), pointer_calls=pointer_calls,
                        score_evaluations=score_evaluations)


def _label_splits(model: RstModel, edus: Tensor, tables, row0):
    """Label every split of the sentences' split tables in place, with one
    row-form ``labeler.distribution`` call (none when no sentence has a
    split).

    ``tables[b]`` maps sentence b's spans (i, j) to their split points k,
    and becomes (k, nuclearity, relation); sentence b's EDU e is row
    ``row0[b] + e - 1`` of ``edus``.  A split's pair is its EDU rows
    (k-1, j-1), and it takes the argmax label.
    """
    pairs = [(b, span, k) for b, table in enumerate(tables) for span, k in table.items()]
    if not pairs:
        return
    left, right = (np.array(column, dtype=np.intp) for column in zip(
        *[(row0[b] + k - 1, row0[b] + j - 1) for b, (_, j), k in pairs]))
    dist = model.labeler.distribution(ad.gather(edus, left), ad.gather(edus, right))
    for (b, span, k), label in zip(pairs, np.argmax(dist.data, axis=1).tolist()):
        tables[b][span] = (k, *split_label(model.labels.name(label)))


def _push_children(stack, i: int, j: int, k: int, state_row: int):
    """Push the child spans of split (i, j) at k that still need a decision,
    left on top; ``state_row`` is the bank row of the latest decoder state."""
    left_len = k - i + 1
    right_len = j - k
    if right_len >= 2:
        if left_len >= 3 and right_len >= 3:
            stack.append(((k + 1, j), j - 1, k - 1, state_row, state_row + 1))
        else:
            stack.append(((k + 1, j), j - 1, -1, state_row, 0))
    if left_len >= 2:
        stack.append(((i, k), j - 1, -1, state_row, 0))


def _walk(model: RstModel, words, ends, gold: DiscTree, training, rng) -> _Walk:
    """One segmented sentence's teacher-forced pass as a ``_Walk``.

    One integer walk of ``oracle_splits``, in the stack order of decoding,
    builds each pointed span's frame, its candidate mask over the EDU rows
    [i-1, j-1) and its gold row k-1; pointed step t writes bank row t + 1.
    Every split, forced two-EDU splits included, adds its labeler pair
    rows (k-1, j-1) and its label id.  The random stream is drawn in the
    order of a per-step pass: the encoder's masks, then the decoder's on a
    pointed span and the labeler's on every split.
    """
    m = gold.m
    if len(ends) != m:
        raise TreeError(f"gold tree spans {gold.m} EDUs but segmentation has {len(ends)}")
    events = iter(oracle_splits(gold))
    decoder, labeler = model.decoder, model.labeler
    walk = _Walk(m, model.encoder.draw_keep(len(words), training, rng))
    stack = [((1, m), -1, -1, 0, 0)] if m >= 2 else []
    while stack:
        (i, j), parent, sibling, parent_row, sibling_row = stack.pop()
        pointed = j - i >= 2
        _, k, label, _ = _next_event(events, (i, j), expect_pointed=pointed)
        if pointed:
            mask = np.zeros(m, dtype=bool)
            mask[i - 1 : j - 1] = True
            walk.pointed.append((len(walk.frames), mask, k - 1, True))
            walk.frames.append((j - 1, parent, sibling, parent_row, sibling_row))
            walk.state_keep.append(decoder.draw_keep(training, rng))
        elif k != i:
            raise TreeError(f"forced split at {(i, j)} disagrees with gold position {k}")
        walk.labeled.append((k - 1, j - 1, model.labels[label]))
        walk.label_keep.append(labeler.draw_keep(training, rng))
        _push_children(stack, i, j, k, len(walk.frames))
    if next(events, None) is not None:
        raise TreeError("gold events remain after decoding finished")
    return walk


def _teacher_forced(model: RstModel, examples, training, rng):
    """Teacher forcing for a batch of (words, ends, gold) examples as one pass.

    ``_walk`` builds each example's schedule in turn, so the random stream
    is drawn example by example in the per-step order.  The tape then
    records one ``encoder.encode`` over every sentence, one ``gather_sum``
    of decoder inputs, one ``decoder.run_schedule`` running the sentences'
    pointed spans as a wavefront, one row-form ``dot_attend`` in which each
    row scores only its own sentence's EDUs, one ``labeler.distribution``
    over every split, and one row-form ``cross_entropy`` per head.  A head
    with no rows in the batch gives the zero constant.  Returns the
    (structure, label) loss tensors summed over the batch, each example's
    (structure, label) loss values, and the walks.
    """
    walks = [_walk(model, words, ends, gold, training, rng) for words, ends, gold in examples]
    batch = _Batch(walks, label_steps=False)
    edus = model.encoder.encode([words for words, _, _ in examples],
                                [ends for _, ends, _ in examples], training=training, rng=rng,
                                keep=[w.encoder_keep for w in walks])
    structure, structure_values = Tensor(0.0), [0.0] * len(walks)
    if len(batch.frames):
        top = model.decoder.run_schedule(ad.gather_sum(edus, batch.frames[:, :3]), batch.frames,
                                         batch.state_keep, batch.lengths)
        result = dot_attend(edus, top, mask=batch.masks, index=batch.index)
        structure, structure_values = _head_loss(result.probs, batch.targets,
                                                 batch.scored_counts)
    label, label_values = Tensor(0.0), [0.0] * len(walks)
    if len(batch.label_ids):
        dist = model.labeler.distribution(ad.gather(edus, batch.label_left),
                                          ad.gather(edus, batch.label_right),
                                          training=training, rng=rng, keep=batch.label_keep)
        label, label_values = _head_loss(dist, batch.label_ids, batch.label_counts)
    return structure, label, list(zip(structure_values, label_values)), walks


def _next_event(events, span, expect_pointed):
    event = next(events, None)
    if event is None or event[0] != span or event[3] != expect_pointed:
        raise TreeError(f"gold events out of step at span {span}")
    return event


def batch_losses(model: RstModel, examples, training: bool = False, rng=None):
    """Teacher-forced losses of a batch of (words, ends, gold) examples on
    one tape: the (structure, label) tensors summed over the batch and each
    example's (structure, label) loss values."""
    return _teacher_forced(model, examples, training, rng)[:3]


def example_losses(model: RstModel, words, ends, gold: DiscTree, training: bool = False,
                   rng=None):
    """Teacher-forced (structure, label) loss tensors for one example, a
    batch of one."""
    return batch_losses(model, [(words, ends, gold)], training, rng)[:2]


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


def decode_rst_batch(model: RstModel, items) -> list:
    """Greedy decode of many (words, ends) sentences; returns their
    DiscTrees in input order.

    Every sentence is checked first (``max_len``, emptiness, then its
    segmentation), so a bad one raises the one-sentence path's error before
    anything is decoded.  The sentences then go in consecutive chunks of at
    most ``dep.BATCH_ROWS`` words; a chunk of one sentence goes to
    ``decode_rst``, and a larger one to ``_split_rounds``.  On the tested
    corpora the trees equal ``decode_rst``'s sentence by sentence.
    """
    for words, ends in items:
        _check_length(model.config, len(words))
        check_segmentation(len(words), ends)
    trees = []
    for chunk in _chunks([len(words) for words, _ in items]):
        batch = [items[i] for i in chunk]
        trees += [decode_rst(model, *batch[0])] if len(batch) == 1 else _split_rounds(model, batch)
    return trees


def _split_rounds(model: RstModel, items) -> list:
    """Greedy decoding of several segmented sentences as the rows of one pass.

    One batch-form ``encoder.encode`` covers every sentence.  Each sentence
    keeps its own stack of ``run_splits`` frames, whose bank rows stay its
    own: sentence b's m EDUs give it a block of m bank rows from
    ``base[b]``, and its local row r > 0 is bank row ``base[b] + r - 1``.
    Round after round, every sentence with frames left pops one; the
    popped spans of three or more EDUs run as one k-row ``fuse`` and
    ``step`` and one row-form ``dot_attend`` (each row scoring its own
    span's split points through ``index``, masked past ``j - i``).  When
    every stack is empty, one ``labeler.distribution`` call labels every
    split of the chunk (``_label_splits``); each label then comes from one
    2-D product over the chunk's splits, and can differ from the
    per-split vector form only on a last-bit tie.
    """
    decoder = model.decoder
    sizes = np.array([len(ends) for _, ends in items])
    row0 = np.cumsum(sizes) - sizes
    base = 1 + row0
    stacks = [[((1, m), -1, -1, 0, 0)] if m >= 2 else [] for m in sizes]
    steps = np.zeros(len(items), dtype=np.intp)  # each sentence's latest local bank row
    splits = [{} for _ in items]
    with no_grad():
        edus = model.encoder.encode([words for words, _ in items], [ends for _, ends in items])
        bank = np.zeros((1 + sizes.sum(), decoder.components, decoder.hidden_dim))

        while True:
            live = np.array([b for b, stack in enumerate(stacks) if stack], dtype=np.intp)
            if not live.size:
                break
            frames = [stacks[b].pop() for b in live]
            spans, parent, sibling, parent_row, sibling_row = (
                np.array(column, dtype=np.intp) for column in zip(*frames))
            i, j = spans.T
            k = i.copy()
            pointed = np.flatnonzero(j - i >= 2)
            if pointed.size:
                b = live[pointed]
                inputs = np.stack([j[pointed] - 1, parent[pointed], sibling[pointed]], axis=1)
                local = np.stack([steps[b], parent_row[pointed], sibling_row[pointed]])
                blocks = bank[np.where(local > 0, base[b] + local - 1, 0)]
                fused = decoder.fuse(*map(Tensor, blocks))
                state, d = decoder.step(
                    ad.gather_sum(edus, np.where(inputs >= 0, inputs + row0[b, None], -1)), fused)
                bank[base[b] + steps[b]] = state.data
                steps[b] += 1
                span = (j - i)[pointed, None]
                cols = np.arange(span.max())
                index = row0[b, None] + i[pointed, None] - 1 + np.minimum(cols, span - 1)
                probs = dot_attend(edus, d, mask=cols < span, index=index).probs.data
                k[pointed] = i[pointed] + np.argmax(probs, axis=1)
            for s, i_, j_, k_ in zip(live.tolist(), i.tolist(), j.tolist(), k.tolist()):
                splits[s][(i_, j_)] = k_
                _push_children(stacks[s], i_, j_, k_, int(steps[s]))
        _label_splits(model, edus, splits, row0)

    return [DiscTree(_assemble(table, 1, m)) for table, m in zip(splits, sizes.tolist())]


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
        model, items, config, batch_losses, _evaluate_rst,
        {"span": ("span", "relation"), "relation": ("relation", "span")},
        [("span", config.target_span), ("relation", config.target_relation)],
        dev_items=dev_items, log=log, init_hook=init_hook, weight_decay=config.l2)
    model.restore(snapshots["span"])
    return RstTrainResult(model=model, history=history, best_span_state=snapshots["span"],
                          best_relation_state=snapshots["relation"])


def _evaluate_rst(model, items):
    trees = decode_rst_batch(model, [(words, ends) for words, ends, _ in items])
    pairs = [(gold, tree) for (_, _, gold), tree in zip(items, trees)]
    agg = score_parseval_corpus(pairs, include_root=model.config.include_root)
    return {"span": agg.span_f1, "nuclearity": agg.nuclearity_f1,
            "relation": agg.relation_f1}
