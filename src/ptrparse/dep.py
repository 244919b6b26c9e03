"""Dependency parsing pipeline: model, oracle, training, and decoding.

Decoding is transition-based and top-down.  A stack of frames starts with
the artificial root; popping a frame runs one decoder step whose attention
either attaches an unattached word (pushed as a new frame) or points at the
frame's own word, which signals completion.  Already-attached words are
masked out, so any parameter setting yields a complete acyclic tree, and
the root frame may not self-point while unattached words remain.

Every complete decode makes exactly 2n+1 decisions: n attachments and one
completion per head (including root).  Decisions with a single legal
candidate are forced without invoking the pointer, which keeps pointer
invocations at 2n or fewer per sentence.

The decoder runs in two forms.  Decoding steps it once per decision round
through ``HierDecoder.fuse`` and ``step``, since each frame depends on the
decision before it: ``run_transition`` (and so ``decode_greedy``) steps
one sentence's state, and ``_rounds`` (``decode_beam`` and
``decode_batch``) one row per live hypothesis of every sentence of a
batch, both reading and writing state blocks of one array bank.  No
decision reads a label, so both label a tree only once its structure is
fixed: each attachment remembers the bank row of its step, and one
row-form labeler call per decoded sentence (per chunk in ``_rounds``)
reads the top hidden of those rows against the children's encoder rows.
Training is teacher-forced: the gold tree's oracle order fixes
every frame, target and label before the decoder runs, so one integer
walk per sentence builds the schedule, and a batch of sentences records
one tape: one encoder call, one decoder sequence op
(``HierDecoder.run_schedule``) and one row-form call per head for every
sentence of the batch.  Each dropout site draws one mask for the whole
batch as the pass reaches it.  ``fit_loop``, the training loop of both
tasks, lives here too.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, no_grad
from .decoder import FUSIONS, HierDecoder, VARIANTS
from .encoder import DepEncoder, PAD, ROOT, UNK, Vocab
from .errors import ConfigError, DataError, TrainingError, TreeError
from .metrics import score_dep_corpus
from .nn import Module
from .optim import Adam, clip_by_global_norm
from .scoring import BiaffinePointer, LabelSet, PairLabeler
from .trees import DepTree


@dataclass
class DepConfig:
    """Dependency hyperparameters; defaults follow the full-scale recipe."""

    word_dim: int = 100
    pos_dim: int = 100
    char_dim: int = 100
    char_filters: int = 50
    char_window: int = 3
    encoder_layers: int = 3
    encoder_hidden: int = 512
    decoder_layers: int = 1
    decoder_hidden: int = 512
    arc_mlp: int = 512
    label_mlp: int = 128
    variant: str = "ps"
    fusion: str = "gate"
    embed_dropout: float = 0.33
    recurrent_dropout: float = 0.33
    layer_dropout: float = 0.33
    state_dropout: float = 0.33
    mlp_dropout: float = 0.33
    lr: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.9
    eps: float = 1e-8
    decay: float = 0.75
    clip: float = 5.0
    batch_size: int = 32
    epochs: int = 100
    beam_size: int = 10
    seed: int = 1
    selfpoint_loss: bool = True
    single_root: bool = False
    max_len: int = 512
    target_uas: float = None
    target_las: float = None

    def validate(self):
        _check_common(self, VARIANTS, FUSIONS)
        return self


def _check_common(config, variants, fusions):
    """Reject out-of-range hyperparameters before any compute starts; every
    ``int`` field but ``seed`` must be positive, every ``*_dropout`` in [0, 1)."""
    if config.variant not in variants:
        raise ConfigError(f"unknown variant {config.variant!r}; expected one of "
                          + ", ".join(variants))
    if config.fusion not in fusions:
        raise ConfigError(f"unknown fusion {config.fusion!r}; expected one of "
                          + ", ".join(fusions))
    names = [f.name for f in fields(config)]
    for name in [f.name for f in fields(config) if f.type == "int" and f.name != "seed"]:
        value = getattr(config, name)
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise ConfigError(f"{name} must be a positive integer, got {value!r}")
    for name in [n for n in names if n.endswith("_dropout")] + ["beta1", "beta2"]:
        value = getattr(config, name)
        if not (_finite(value) and 0.0 <= value < 1.0):
            raise ConfigError(f"{name} must be in [0, 1), got {value!r}")
    seed = config.seed
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")
    for name in ("lr", "eps", "clip"):
        value = getattr(config, name)
        if not (_finite(value) and value > 0):
            raise ConfigError(f"{name} must be positive and finite, got {value!r}")
    if not (_finite(config.decay) and 0.0 < config.decay <= 1.0):
        raise ConfigError(f"decay must be in (0, 1], got {config.decay!r}")
    for name in [n for n in names if n.startswith("target_")]:
        value = getattr(config, name)
        if not (value is None or _finite(value)):
            raise ConfigError(f"{name} must be None or a finite number, got {value!r}")


def _finite(value) -> bool:
    """A real number, not a bool, that is neither infinite nor NaN."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


def fit_loop(model, items, config, batch_losses, evaluate, selections, targets,
             dev_items=None, log=None, init_hook=None, weight_decay=0.0):
    """Teacher-forced Adam training shared by both tasks; returns (history, snapshots).

    Each epoch visits ``items`` in a fresh random order in batches of
    ``config.batch_size``.  ``batch_losses(model, batch, training=True,
    rng=...)`` runs a batch as one teacher-forced pass on one tape and
    returns its (structure, label) loss tensors, summed over the batch,
    with each example's pair of loss values.  A non-finite loss raises
    ``TrainingError`` before the batch's backward pass, so no gradient from
    it is applied.  Otherwise the summed loss, scaled by one over the batch
    size, is backpropagated once, and the batch ends with global-norm
    clipping and one Adam step.  The epoch loss adds each example's
    structure + label value in example order.

    After each epoch ``evaluate(model, eval_items)`` (dev when given, else
    the training data) returns the named metrics for the history row
    ``{epoch, loss, <metrics>, lr}``, and ``log`` gets the same row as one
    line, with ``grad_norm`` (the epoch's largest pre-clip global gradient
    norm) and ``clip_scale`` (its smallest clip factor, 1.0 when no batch
    was clipped) before ``lr``.  ``selections`` maps a name to
    the metric names whose tuple ranks epochs; the best epoch of each is
    kept as a parameter snapshot, and a non-improving epoch of the first
    one decays the learning rate when a dev set exists.  ``targets`` lists
    (metric, threshold) pairs: training stops once the first threshold is
    set and every set one is reached.  ``init_hook(model)`` runs once
    before training.

    One generator, seeded by ``config.seed + 1``, draws every epoch's order
    and every dropout mask.  The masks' shapes follow the batches'
    sentences and gold trees, so its draws never depend on the weights.
    """
    if init_hook is not None:
        init_hook(model)
    train_rng = np.random.default_rng(config.seed + 1)
    optimizer = Adam(model.parameters(), lr=config.lr, betas=(config.beta1, config.beta2),
                     eps=config.eps, weight_decay=weight_decay, decay=config.decay)
    eval_items = dev_items if dev_items is not None else items

    history = []
    best_keys = {}
    snapshots = {}
    step = 0
    for epoch in range(1, config.epochs + 1):
        order = train_rng.permutation(len(items))
        epoch_loss, grad_norm, clip_scale = 0.0, 0.0, 1.0
        for lo in range(0, len(order), config.batch_size):
            batch = [items[int(idx)] for idx in order[lo : lo + config.batch_size]]
            optimizer.zero_grad()
            for total in _backward_batch(model, batch, batch_losses, train_rng, step):
                epoch_loss += total
            scale, norm = clip_by_global_norm(optimizer.params, config.clip)
            grad_norm, clip_scale = max(grad_norm, norm), min(clip_scale, scale)
            optimizer.step()
            step += 1

        metrics = evaluate(model, eval_items)
        row = {"epoch": epoch, "loss": epoch_loss / len(items), **metrics, "lr": optimizer.lr}
        history.append(row)
        if log is not None:
            scores = "".join(f"{name} {value:.2f} " for name, value in metrics.items())
            log(f"epoch {epoch} loss {row['loss']:.6f} {scores}grad_norm {grad_norm:.6g} "
                f"clip_scale {clip_scale:.6g} lr {row['lr']:.6g}")
        for rank, (name, key_names) in enumerate(selections.items()):
            key = tuple(row[k] for k in key_names)
            if name not in best_keys or key > best_keys[name]:
                best_keys[name] = key
                snapshots[name] = model.snapshot()
            elif rank == 0 and dev_items is not None:
                optimizer.decay_lr()
        if targets[0][1] is not None and all(
                threshold is None or row[name] >= threshold for name, threshold in targets):
            break
    return history, snapshots


def _backward_batch(model, batch, batch_losses, rng, step) -> list:
    """One batch's teacher-forced pass and its one backward; returns each
    example's structure + label loss value.  The batch's tape is released
    on return, before the next batch records its own."""
    structure, label, losses = batch_losses(model, batch, training=True, rng=rng)
    totals = [s + l for s, l in losses]
    loss = ad.add(structure, label)
    if not (np.isfinite(loss.data) and all(math.isfinite(t) for t in totals)):
        raise TrainingError("loss is not finite", step=step)
    ad.backward(ad.mul(loss, Tensor(1.0 / len(batch))))
    return totals


class DepModel(Module):
    """Encoder, hierarchical decoder, biaffine pointer, and label classifier."""

    def __init__(self, config: DepConfig, word_vocab: Vocab, pos_vocab: Vocab,
                 char_vocab: Vocab, labels: LabelSet, rng):
        self.encoder = DepEncoder(
            word_vocab, pos_vocab, char_vocab, rng,
            word_dim=config.word_dim, pos_dim=config.pos_dim, char_dim=config.char_dim,
            char_filters=config.char_filters, char_window=config.char_window,
            hidden_dim=config.encoder_hidden, layers=config.encoder_layers,
            embed_dropout=config.embed_dropout, recurrent_dropout=config.recurrent_dropout,
            layer_dropout=config.layer_dropout)
        enc_dim = self.encoder.out_dim
        self.decoder = HierDecoder("lstm", config.decoder_layers, enc_dim,
                                   config.decoder_hidden, config.variant, config.fusion,
                                   rng, state_dropout=config.state_dropout)
        self.pointer = BiaffinePointer(config.decoder_hidden, enc_dim, config.arc_mlp,
                                       rng, dropout=config.mlp_dropout)
        self.labeler = PairLabeler(config.decoder_hidden, enc_dim, config.label_mlp,
                                   len(labels), rng, dropout=config.mlp_dropout)
        self.config = config
        self.labels = labels


def oracle_order(tree: DepTree):
    """Canonical decode order for a gold tree, as (head, target) events.

    Depth-first from the root; each head generates its left children
    nearest-first, then its right children nearest-first, then points at
    itself.  An event with head == target is a completion step.
    """
    tree.validate()
    events = []

    def expand(head):
        children = tree.children(head)
        ordered = sorted([c for c in children if c < head], reverse=True) \
            + sorted([c for c in children if c > head])
        for child in ordered:
            events.append((head, child))
            expand(child)
        events.append((head, head))

    expand(0)
    return events


def replay_events(events, n: int) -> DepTree:
    """Rebuild the tree produced by a sequence of (head, target) events."""
    heads = [None] * n
    for head, target in events:
        if head != target:
            heads[target - 1] = head
    if any(h is None for h in heads):
        raise TreeError("event sequence leaves tokens unattached")
    return DepTree(heads, ["_"] * n)


@dataclass
class TraceStep:
    """One pointing decision: who pointed, where, and with what probability."""

    step: int
    head: int
    target: int
    log_prob: float
    candidates: int
    label: str = None
    probabilities: np.ndarray = None


def format_trace(steps) -> str:
    """Line-oriented rendering of a decode trace."""
    lines = []
    for s in steps:
        kind = "self" if s.head == s.target else "attach"
        parts = [f"step={s.step}", f"head={s.head}", f"action={kind}", f"target={s.target}",
                 f"logp={s.log_prob:.6f}", f"candidates={s.candidates}"]
        if s.label is not None:
            parts.append(f"label={s.label}")
        if s.probabilities is not None:
            dist = " ".join(f"{i}:{p:.4f}" for i, p in enumerate(s.probabilities) if p > 0)
            parts.append(f"probs={dist}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


@dataclass
class RunResult:
    """Outcome of one decode or teacher-forced pass over a sentence."""

    heads: list
    labels: list
    structure_loss: Tensor
    label_loss: Tensor
    trace: list
    pointer_calls: int
    score_evaluations: int


def _candidate_mask(element, attached: np.ndarray) -> np.ndarray:
    """Legal pointer targets: unattached words, plus the element itself.

    The root may self-point only once every word is attached, which forces
    termination with a fully attached tree.  Row form: an array of k
    elements with a (k, n+1) attachment matrix gives one mask row each.
    """
    mask = ~attached
    mask[..., 0] = False
    if mask.ndim == 1:
        mask[element] = True
        root = element == 0
    else:
        mask[np.arange(len(mask)), element] = True
        root = (element == 0).any()
    if root:
        mask[..., 0] &= ~mask[..., 1:].any(axis=-1)
    return mask


def _check_length(config: DepConfig, n: int):
    """Reject an empty sentence, or one longer than ``max_len``."""
    if n == 0:
        raise DataError("cannot encode an empty sentence")
    if n > config.max_len:
        raise ConfigError(f"sentence length {n} exceeds max_len {config.max_len}")


def run_transition(model: DepModel, tokens, gold: DepTree = None, training: bool = False,
                   rng=None, want_trace: bool = False) -> RunResult:
    """One pass over a sentence: teacher forcing when ``gold`` is given,
    greedy decoding otherwise.

    Frames and the state bank are those of ``decoder``'s module docstring:
    step t writes its state to bank row t, and attaching a word pushes
    the popped frame back with that word as its sibling, then the word's
    own frame with step t's state as its parent.  The same candidate
    masking applies in both forms, so a forced pass scores exactly the
    probabilities the decoder would see.

    Greedy decoding runs the decoder one step at a time (``fuse`` and
    ``step``), because each frame depends on the decision before it, and
    follows the pointer argmax; an attach step records its bank row.  No
    later decision reads a label, so the labels come after the tree: one
    row-form ``labeler.distribution`` call pairs the top hidden of each
    attach step's bank row (``HierDecoder.top``, bit for bit the ``d``
    the step pointed from) with its child's encoder row, and takes each
    row's argmax.  That is one 2-D product over the sentence's
    attachments, so a label can differ from the per-step vector form only
    on a last-bit tie.  ``want_trace`` records the steps, with their
    labels filled in after that call.  With a gold tree the pass is a
    batch of one of ``batch_losses``, a fixed number of tape ops, and
    ``training``/``rng`` set its dropout; a trace with a gold tree, or
    training without one, is a ``ConfigError``.
    """
    n = len(tokens)
    _check_length(model.config, n)
    if training and gold is None:
        raise ConfigError("training runs teacher forcing only and needs a gold tree")
    if gold is not None:
        if want_trace:
            raise ConfigError("want_trace records greedy decoding only, not teacher forcing")
        structure, label, _, (walk,) = _teacher_forced(model, [(tokens, gold)], training, rng)
        return RunResult(heads=list(gold.heads), labels=list(gold.labels),
                         structure_loss=structure, label_loss=label, trace=[],
                         pointer_calls=len(walk.pointed), score_evaluations=walk.evaluations)

    encoded = model.encoder.encode(tokens)
    prepared = model.pointer.prepare(encoded)

    decoder = model.decoder
    stack = [(0, -1, -1, 0, 0)]
    bank = np.zeros((2 * n + 2, decoder.components, decoder.hidden_dim))
    step = 0
    attached = np.zeros(n + 1, dtype=bool)
    attached[0] = True
    heads = [None] * n
    attaches = []  # (bank row, child) of each attach step
    structure_terms = []
    trace = []
    pointer_calls = 0
    score_evaluations = 0

    while stack:
        element, parent, sibling, parent_row, sibling_row = stack.pop()
        x = ad.gather_sum(encoded, (element, parent, sibling))
        fused = decoder.fuse(Tensor(bank[step]), Tensor(bank[parent_row]),
                             Tensor(bank[sibling_row]))
        state, d = decoder.step(x, fused)
        step += 1
        bank[step] = state.data

        mask = _candidate_mask(element, attached)
        n_candidates = int(mask.sum())
        result = None
        log_prob = 0.0
        if n_candidates > 1:
            result = model.pointer.attend(d, prepared, mask)
            pointer_calls += 1
            score_evaluations += n_candidates
            choice = result.best()
            nll = result.nll(choice)
            structure_terms.append(nll)
            log_prob = -nll.item()
        else:
            choice = int(np.flatnonzero(mask)[0])

        if choice != element:
            attached[choice] = True
            heads[choice - 1] = element
            attaches.append((step, choice))
            stack.append((element, parent, choice, parent_row, step))
            stack.append((choice, element, -1, step, 0))

        if want_trace:
            trace.append(TraceStep(step=step, head=element, target=choice, log_prob=log_prob,
                                   candidates=n_candidates,
                                   probabilities=result.probs.data.copy() if result else None))

    rows, children = np.array(attaches, dtype=np.intp).T
    labels = [None] * n
    for child, name in zip(children.tolist(), _label_names(model, bank, rows, encoded, children)):
        labels[child - 1] = name
    for s in trace:
        if s.head != s.target:
            s.label = labels[s.target - 1]

    return RunResult(heads=heads, labels=labels,
                     structure_loss=ad.sum_terms(structure_terms),
                     label_loss=Tensor(0.0),
                     trace=trace, pointer_calls=pointer_calls,
                     score_evaluations=score_evaluations)


def _label_names(model: DepModel, bank: np.ndarray, rows, encoded: Tensor, children) -> list:
    """Label names of attachments, from one row-form ``labeler.distribution``
    call: each pairs the top hidden of its step's state, bank row
    ``rows[i]``, with encoder row ``children[i]``."""
    dist = model.labeler.distribution(Tensor(bank[rows, model.decoder.top]),
                                      ad.gather(encoded, children))
    return [model.labels.name(i) for i in np.argmax(dist.data, axis=1).tolist()]


@dataclass
class _Walk:
    """One sentence's teacher-forced pass, from one walk of its gold tree.

    ``size`` counts the sentence's encoder rows and ``frames`` holds one
    frame tuple per decoder step.  ``pointed`` holds one (step, candidate
    mask over the encoder rows, gold row, scored) tuple per pointer row,
    and ``labeled`` one (left, right, label id) tuple per labeler row:
    ``left`` a step (dep) or an encoder row (rst), ``right`` an encoder
    row.  Every index is the sentence's own.
    """

    size: int
    frames: list = field(default_factory=list)
    pointed: list = field(default_factory=list)
    labeled: list = field(default_factory=list)

    @property
    def evaluations(self) -> int:
        return int(sum(mask.sum() for _, mask, _, _ in self.pointed))


class _Batch:
    """The walks of a batch joined into one schedule.

    Encoder indices and steps are offset by the sentences before; bank rows
    stay each sentence's own, for ``run_schedule``'s ``lengths``.  Each
    pointer row gets its sentence's encoder rows as its candidates,
    ``index``, padded to the longest sentence with its last row, and its
    candidate mask padded with False, so pads are never candidates.
    """

    def __init__(self, walks, label_steps: bool):
        sizes = np.array([w.size for w in walks])
        self.lengths = [len(w.frames) for w in walks]
        row0 = np.cumsum(sizes) - sizes
        step0 = np.cumsum(self.lengths) - self.lengths
        frames = [np.array(w.frames, dtype=np.intp).reshape(-1, 5) for w in walks]
        for f, r in zip(frames, row0):
            f[:, :3] = np.where(f[:, :3] >= 0, f[:, :3] + r, -1)
        self.frames = np.concatenate(frames)
        pointed = [(s + step, r, size, mask, target, scored)
                   for w, size, r, s in zip(walks, sizes, row0, step0)
                   for step, mask, target, scored in w.pointed]
        width = np.arange(sizes.max())
        self.pointer_rows = np.array([p[0] for p in pointed], dtype=np.intp)
        self.index = np.array([r + np.minimum(width, size - 1) for _, r, size, *_ in pointed],
                              dtype=np.intp).reshape(len(pointed), len(width))
        self.masks = np.zeros(self.index.shape, dtype=bool)
        for row, (_, _, size, mask, _, _) in zip(self.masks, pointed):
            row[:size] = mask
        self.targets = np.array([p[4] for p in pointed], dtype=np.intp)
        self.scored = np.array([p[5] for p in pointed], dtype=bool)
        self.scored_counts = [sum(scored for *_, scored in w.pointed) for w in walks]
        left0 = step0 if label_steps else row0
        labeled = [(l0 + left, r + right, label)
                   for w, l0, r in zip(walks, left0, row0) for left, right, label in w.labeled]
        self.label_left, self.label_right, self.label_ids = (
            np.array(column, dtype=np.intp) for column in (zip(*labeled) if labeled else [[]] * 3))
        self.label_counts = [len(w.labeled) for w in walks]


def _head_loss(probs: Tensor, targets, counts):
    """One row-form ``cross_entropy`` over the rows of ``probs``, and each
    example's loss value: its ``counts[b]`` consecutive rows' terms added
    left to right, as ``cross_entropy`` adds them (0.0 for none)."""
    terms = -np.log(probs.data[np.arange(len(targets)), targets])
    values, start = [], 0
    for count in counts:
        values.append(float(np.cumsum(terms[start : start + count])[-1]) if count else 0.0)
        start += count
    return ad.cross_entropy(probs, targets), values


def _walk(model: DepModel, tokens, gold: DepTree) -> _Walk:
    """One sentence's teacher-forced pass as a ``_Walk``.

    One integer walk of ``oracle_order`` builds every step's frame,
    candidate mask and gold target, and the gold label of each attach
    step.  A self-point row stays out of the loss when ``selfpoint_loss``
    is off.
    """
    n = len(tokens)
    config = model.config
    _check_length(config, n)
    if gold.n != n:
        raise TreeError(f"gold tree has {gold.n} words but the sentence has {n}")
    walk = _Walk(n + 1)
    stack = [(0, -1, -1, 0, 0)]
    attached = np.zeros(n + 1, dtype=bool)
    attached[0] = True
    for step, (head, choice) in enumerate(oracle_order(gold)):
        frame = stack.pop()
        element = frame[0]
        mask = _candidate_mask(element, attached)
        if head != element or not mask[choice]:
            raise TreeError(f"oracle event ({head}, {choice}) is illegal at frame {element}")
        walk.frames.append(frame)
        if mask.sum() > 1:
            walk.pointed.append((step, mask, choice, config.selfpoint_loss or choice != element))
        if choice != element:
            attached[choice] = True
            walk.labeled.append((step, choice, model.labels[gold.labels[choice - 1]]))
            stack.append((element, frame[1], choice, frame[3], step + 1))
            stack.append((choice, element, -1, step + 1, 0))
    return walk


def _teacher_forced(model: DepModel, examples, training, rng):
    """Teacher forcing for a batch of (tokens, gold) examples as one pass.

    ``_walk`` builds each example's schedule.  The tape then records one
    ``encoder.encode`` over every sentence, one ``pointer.prepare``, one
    ``gather_sum`` of decoder inputs, one ``decoder.run_schedule`` running
    the sentences' steps as a wavefront, one row-form ``pointer.attend`` in
    which each row scores only its own sentence's positions, one
    ``labeler.distribution`` over every attach step, and one row-form
    ``cross_entropy`` per head.  Each dropout site draws one mask for the
    whole batch as it runs, so in training the random stream is drawn in
    that order: the encoder's, ``prepare``'s, the decoder's (S, C, h) state
    mask, the pointer's and the labeler's pair.  Returns the (structure,
    label) loss tensors summed over the batch, each example's (structure,
    label) loss values, and the walks.
    """
    walks = [_walk(model, tokens, gold) for tokens, gold in examples]
    batch = _Batch(walks, label_steps=True)
    pointer = model.pointer
    encoded = model.encoder.encode([tokens for tokens, _ in examples], training=training,
                                   rng=rng)
    prepared = pointer.prepare(encoded, training=training, rng=rng)
    top = model.decoder.run_schedule(ad.gather_sum(encoded, batch.frames[:, :3]), batch.frames,
                                     batch.lengths, training, rng)

    structure, structure_values = Tensor(0.0), [0.0] * len(walks)
    if len(batch.pointer_rows):
        result = pointer.attend(ad.gather(top, batch.pointer_rows), prepared, batch.masks,
                                training=training, rng=rng, index=batch.index)
        scored = np.flatnonzero(batch.scored)
        if len(scored):
            rows = result.probs if len(scored) == len(batch.scored) else ad.gather(result.probs,
                                                                                   scored)
            structure, structure_values = _head_loss(rows, batch.targets[scored],
                                                     batch.scored_counts)
    dist = model.labeler.distribution(ad.gather(top, batch.label_left),
                                      ad.gather(encoded, batch.label_right),
                                      training=training, rng=rng)
    label, label_values = _head_loss(dist, batch.label_ids, batch.label_counts)
    return structure, label, list(zip(structure_values, label_values)), walks


def batch_losses(model: DepModel, examples, training: bool = False, rng=None):
    """Teacher-forced losses of a batch of (tokens, gold) examples on one
    tape: the (structure, label) tensors summed over the batch and each
    example's (structure, label) loss values."""
    return _teacher_forced(model, examples, training, rng)[:3]


def example_losses(model: DepModel, tokens, gold: DepTree, training: bool = False, rng=None):
    """Teacher-forced (structure, label) loss tensors for one example, a
    batch of one."""
    return batch_losses(model, [(tokens, gold)], training, rng)[:2]


def forced_decode(model: DepModel, tokens, gold: DepTree) -> float:
    """Log-probability of the gold decision sequence; the negative of the
    example's structure loss, computed over the identical code path."""
    with no_grad():
        result = run_transition(model, tokens, gold=gold)
    return -result.structure_loss.item()


def decode_greedy(model: DepModel, tokens, want_trace: bool = False):
    """Greedy decode; returns a DepTree (and the trace when requested)."""
    with no_grad():
        result = run_transition(model, tokens, want_trace=want_trace)
    tree = DepTree(result.heads, result.labels)
    if want_trace:
        return tree, result.trace
    return tree


# Columns of ``_rounds``' frame arrays: a frame tuple's fields (``decoder`` module).
_ELEMENT, _PARENT, _SIBLING, _PARENT_ROW, _SIBLING_ROW = range(5)


def check_beam_size(beam_size):
    """Reject a beam size that is not an integer of at least 1."""
    if not isinstance(beam_size, int) or isinstance(beam_size, bool) or beam_size < 1:
        raise ConfigError(f"beam size must be an integer of at least 1, got {beam_size!r}")


def _checked_beam_size(model: DepModel, sentences, beam_size) -> int:
    """The beam size (the config's when None), once it and every sentence are checked."""
    if beam_size is None:
        beam_size = model.config.beam_size
    check_beam_size(beam_size)
    for tokens in sentences:
        _check_length(model.config, len(tokens))
    return beam_size


def decode_beam(model: DepModel, tokens, beam_size: int = None):
    """Beam search over pointing decisions; returns (DepTree, log-probability).

    A one-sentence call of ``_rounds``.  The beam size defaults to the
    config's; beam size 1 reproduces greedy decoding bit-for-bit.
    """
    return _rounds(model, [tokens], _checked_beam_size(model, [tokens], beam_size))[0]


# Most rows that one ``_rounds`` pass decodes together, a sentence of n
# words counting (n+1) x beam size; a longer corpus is cut into
# consecutive chunks, so the pass's arrays stay bounded on large dev sets.
BATCH_ROWS = 2048


def _chunks(sizes) -> list:
    """Consecutive ranges of item indices whose ``sizes`` sum to at most
    ``BATCH_ROWS``; an item larger than that gets a range of its own."""
    chunks, start, total = [], 0, 0
    for i, size in enumerate(sizes):
        if i > start and total + size > BATCH_ROWS:
            chunks.append(range(start, i))
            start, total = i, 0
        total += size
    if start < len(sizes):
        chunks.append(range(start, len(sizes)))
    return chunks


def decode_batch(model: DepModel, sentences, beam_size: int = None) -> list:
    """Beam search over many sentences; returns their DepTrees in input order.

    The beam size defaults to the config's; it and every sentence are
    checked before anything is decoded.  The sentences go to ``_rounds`` in
    consecutive chunks of at most ``BATCH_ROWS`` rows, but a one-sentence
    chunk at beam size 1 goes to ``decode_greedy``, faster for one
    sentence.  On the tested corpora the trees equal ``decode_beam``'s
    (``decode_greedy``'s at beam size 1) sentence by sentence.
    """
    beam_size = _checked_beam_size(model, sentences, beam_size)
    trees = []
    for chunk in _chunks([(len(tokens) + 1) * beam_size for tokens in sentences]):
        batch = [sentences[i] for i in chunk]
        trees += ([decode_greedy(model, batch[0])] if len(batch) == 1 and beam_size == 1
                  else [tree for tree, _ in _rounds(model, batch, beam_size)])
    return trees


def _rounds(model: DepModel, sentences, beam_size: int) -> list:
    """Beam search over sentences as the rows of one pass; returns each
    sentence's best (DepTree, log-probability) in input order.

    One batch-form ``encoder.encode`` and one ``pointer.prepare`` cover
    every sentence.  A row is one hypothesis of one sentence: its stack of
    frames and their depth, attachments (columns past the sentence's words
    count as attached), heads, for each attached word the bank row of the
    step that attached it, the bank row of its latest decoder state, and
    its log-probability.  Rows are grouped by sentence, longest first.  A
    round runs every row as one k-row ``fuse`` and ``step`` and one
    pointer call.  The states go into one bank (row 0 the zero state)
    sized for min(beam_size, n+1) rows per round and grown when full.  One
    stable ``np.lexsort`` on sentence, then on -log-probability, ranks
    every candidate, so ties keep hypothesis order, then candidate order,
    and each sentence keeps its first ``beam_size``.  After its 2n+1st
    decision a sentence's best row is recorded and its rows, the last
    ones, are dropped.  No later decision reads a label, so labels come
    last: one ``labeler.distribution`` call pairs the top hidden of each
    recorded attachment's bank row (``HierDecoder.top``) with its child's
    encoder row, over the best trees of every sentence only.

    Bit policy: one sentence attends from every row against the 2-D
    prepared matrix whenever any row has a real choice; several sentences
    attend from the rows with a real choice only, each over its own
    sentence's positions through ``index``.  Each label comes from one 2-D
    product over the chunk's attachments, so it can differ from the
    per-step vector form only on a last-bit tie.
    """
    decoder, count = model.decoder, len(sentences)
    lengths = np.array([len(tokens) + 1 for tokens in sentences])
    order = np.argsort(-lengths, kind="stable")
    sizes, row0 = lengths[order], (np.cumsum(lengths) - lengths)[order]
    steps, width = 2 * sizes - 1, np.arange(sizes[0])
    results = [None] * count
    with no_grad():
        encoded = model.encoder.encode(sentences)
        prepared = model.pointer.prepare(encoded)
        bank = np.zeros((1 + steps.sum() * min(beam_size, sizes[0]), decoder.components,
                         decoder.hidden_dim))
        used = 1
        frames = np.full((count, len(width), 5), -1, dtype=np.intp)
        frames[:, 0] = (0, -1, -1, 0, 0)
        attached = width >= sizes[:, None]
        attached[:, 0] = True
        heads, label_rows = np.zeros((2, count, len(width)), dtype=np.intp)
        group, depth, prev_row = np.arange(count), np.ones(count, np.intp), np.zeros(count, np.intp)
        log_prob = np.zeros(count)
        done = []  # (sentence, heads, label rows, log-probability) of each best row

        for t in range(steps[0]):
            k = len(group)
            top = frames[np.arange(k), depth - 1]
            element, words = top[:, _ELEMENT], top[:, _ELEMENT : _SIBLING + 1]
            blocks = bank[np.stack([prev_row, top[:, _PARENT_ROW], top[:, _SIBLING_ROW]])]
            fused = decoder.fuse(*map(Tensor, blocks))
            state, d = decoder.step(
                ad.gather_sum(encoded, np.where(words >= 0, words + row0[group, None], -1)), fused)
            if used + k > len(bank):
                bank = np.pad(bank, ((0, max(used, k)), (0, 0), (0, 0)))
            bank[used : used + k] = state.data
            state_row = np.arange(used, used + k)
            used += k

            mask = _candidate_mask(element, attached)
            candidates = np.flatnonzero(mask)
            hyp = candidates // len(width)
            totals = log_prob[hyp]
            if len(candidates) > k:  # some row has a real choice to make
                if count == 1:
                    probs = model.pointer.attend(d, prepared, mask).probs.data
                else:
                    pointed = np.flatnonzero(mask.sum(axis=1) > 1)
                    size = sizes[group[pointed], None]
                    c = size.max()
                    index = row0[group[pointed], None] + np.minimum(width[:c], size - 1)
                    probs = np.ones(mask.shape)
                    probs[pointed, :c] = model.pointer.attend(
                        ad.gather(d, pointed), prepared, mask[pointed, :c], index=index).probs.data
                totals = totals + np.log(probs.ravel()[candidates])
            ranked = np.lexsort((-totals, group[hyp]))
            sentence = group[hyp[ranked]]
            # A sentence's candidates are contiguous: one is past its first
            # beam_size when the one beam_size places before it shares it.
            first = np.ones(len(ranked), dtype=bool)
            first[beam_size:] = sentence[beam_size:] != sentence[:-beam_size]
            ranked, group = ranked[first], sentence[first]
            hyp, choice, log_prob = hyp[ranked], candidates[ranked] % len(width), totals[ranked]
            if steps[group[-1]] == t + 1:  # the last rows' sentences made their last decision
                live = np.count_nonzero(steps[group] > t + 1)
                for b, i in zip(*np.unique(group[live:], return_index=True)):
                    row, end = hyp[live + i], sizes[b]
                    done.append((b, heads[row, 1:end].tolist(), label_rows[row, 1:end].copy(),
                                 float(log_prob[live + i])))
                hyp, choice, log_prob, group = (a[:live] for a in (hyp, choice, log_prob, group))

            # Pop each kept row's frame.  At beam size 1 every row keeps its
            # place, so slicing off finished rows stands in for a copy.
            pick = slice(len(hyp)) if beam_size == 1 else hyp
            frames, attached, heads, label_rows = (
                a[pick] for a in (frames, attached, heads, label_rows))
            depth = depth[pick] - 1
            head, prev_row = element[hyp], state_row[hyp]
            grown = np.flatnonzero(choice != head)
            if grown.size:
                # ``run_transition``'s pushes: the popped frame with the child as
                # its sibling, then the child's frame, both with this step's state.
                child, at, row = choice[grown], depth[grown], prev_row[grown]
                frames[grown, at, _SIBLING], frames[grown, at, _SIBLING_ROW] = child, row
                frames[grown, at + 1] = np.stack([child, head[grown], np.full_like(child, -1),
                                                  row, np.zeros_like(child)], axis=1)
                depth[grown] += 2
                attached[grown, child] = True
                heads[grown, child] = head[grown]
                label_rows[grown, child] = row

        # One labeler call over the best rows' attachments; sentence b's
        # word w is encoder row row0[b] + w.
        names = iter(_label_names(model, bank, np.concatenate([rows for _, _, rows, _ in done]),
                                  encoded, np.concatenate([row0[b] + np.arange(1, sizes[b])
                                                           for b, *_ in done])))
        for b, tree_heads, _, score in done:
            results[order[b]] = (DepTree(tree_heads, [next(names) for _ in tree_heads]), score)
    return results


# The special entries each encoder vocabulary starts with, in the order
# ``DepEncoder`` takes the vocabularies.
VOCAB_SPECIALS = {"word_vocab": (UNK, ROOT), "pos_vocab": (UNK, ROOT),
                  "char_vocab": (PAD, UNK, ROOT)}


def build_dep_vocabs(items):
    """Word/POS/char vocabularies and the label inventory from training data."""
    words, pos, chars, labels = set(), set(), set(), set()
    for tokens, tree in items:
        for token in tokens:
            words.add(token.form)
            pos.add(token.upos)
            chars.update(token.chars)
        labels.update(tree.labels)
    vocabs = [Vocab.build(entries, specials=specials)
              for entries, specials in zip((words, pos, chars), VOCAB_SPECIALS.values())]
    return (*vocabs, LabelSet(sorted(labels)))


def train_dep(items, config: DepConfig, dev_items=None, log=None, init_hook=None):
    """Teacher-forced training through ``fit_loop``; returns (model, history).

    Per-epoch evaluation (on dev when given, else on the training data)
    drives best-model selection by UAS with LAS as the tiebreaker.  The
    learning rate decays on plateau only when a dev set exists; without
    one there is no held-out signal, so the rate stays fixed.  History
    rows double as the training log.  ``init_hook(model)`` runs once
    after initialization, before training.
    """
    config.validate()
    if not items:
        raise ConfigError("training corpus is empty")
    for _, tree in items:
        tree.validate(single_root=config.single_root)

    model = DepModel(config, *build_dep_vocabs(items), np.random.default_rng(config.seed))
    history, snapshots = fit_loop(
        model, items, config, batch_losses, _evaluate_dep, {"uas": ("uas", "las")},
        [("uas", config.target_uas), ("las", config.target_las)],
        dev_items=dev_items, log=log, init_hook=init_hook)
    model.restore(snapshots["uas"])
    return model, history


def _evaluate_dep(model, items):
    trees = decode_batch(model, [tokens for tokens, _ in items], beam_size=1)
    agg = score_dep_corpus([(tokens, gold, tree) for (tokens, gold), tree in zip(items, trees)])
    return {"uas": agg.uas, "las": agg.las}


def config_to_dict(config) -> dict:
    return {f.name: getattr(config, f.name) for f in fields(config)}


def config_from_dict(cls, data: dict):
    """Build a config dataclass from string-or-typed values, type-checked."""
    kwargs = {}
    spec = {f.name: f for f in fields(cls)}
    for key, value in data.items():
        if key not in spec:
            raise ConfigError(f"unknown config key {key!r}")
        kwargs[key] = _coerce(spec[key], value)
    return cls(**kwargs)


def _coerce(field_spec, value):
    if value is None or not isinstance(value, str):
        return value
    target = field_spec.type
    text = value.strip()
    if text.lower() in ("none", ""):
        return None
    try:
        if target == "int":
            return int(text)
        if target == "float":
            return float(text)
        if target == "bool":
            if text.lower() in ("true", "1", "yes"):
                return True
            if text.lower() in ("false", "0", "no"):
                return False
            raise ValueError(text)
    except ValueError as err:
        raise ConfigError(f"bad value {value!r} for {field_spec.name}") from err
    return text
