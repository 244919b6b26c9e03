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
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, no_grad
from .decoder import (DecoderFrame, FUSIONS, HierDecoder, VARIANTS, init_dep_stack,
                      partial_tree_features)
from .encoder import DepEncoder, PAD, ROOT, UNK, Vocab
from .errors import ConfigError, TrainingError, TreeError
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

    _INT_FIELDS = ("word_dim", "pos_dim", "char_dim", "char_filters", "char_window",
                   "encoder_layers", "encoder_hidden", "decoder_layers", "decoder_hidden",
                   "arc_mlp", "label_mlp", "batch_size", "epochs", "beam_size", "max_len")
    _DROPOUT_FIELDS = ("embed_dropout", "recurrent_dropout", "layer_dropout",
                       "state_dropout", "mlp_dropout")

    def validate(self):
        _check_common(self, VARIANTS, FUSIONS)
        return self


def _check_common(config, variants, fusions):
    """Reject out-of-range hyperparameters before any compute starts."""
    if config.variant not in variants:
        raise ConfigError(f"unknown variant {config.variant!r}; expected one of "
                          + ", ".join(variants))
    if config.fusion not in fusions:
        raise ConfigError(f"unknown fusion {config.fusion!r}; expected one of "
                          + ", ".join(fusions))
    for name in config._INT_FIELDS:
        value = getattr(config, name)
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise ConfigError(f"{name} must be a positive integer, got {value!r}")
    for name in config._DROPOUT_FIELDS:
        value = getattr(config, name)
        if not 0.0 <= value < 1.0:
            raise ConfigError(f"{name} must be in [0, 1), got {value!r}")
    for name in ("lr", "eps", "clip"):
        if not getattr(config, name) > 0:
            raise ConfigError(f"{name} must be positive, got {getattr(config, name)!r}")
    for name in ("beta1", "beta2"):
        value = getattr(config, name)
        if not 0.0 <= value < 1.0:
            raise ConfigError(f"{name} must be in [0, 1), got {value!r}")
    if not 0.0 < config.decay <= 1.0:
        raise ConfigError(f"decay must be in (0, 1], got {config.decay!r}")


def fit_loop(model, items, config, example_losses, evaluate, selections, targets,
             dev_items=None, log=None, init_hook=None, weight_decay=0.0):
    """Teacher-forced Adam training shared by both tasks; returns (history, snapshots).

    Each epoch visits ``items`` in a fresh random order in batches of
    ``config.batch_size``.  Every example's (structure, label) losses come
    from ``example_losses(model, *item, training=True, rng=...)``; their
    sum, scaled by one over the batch size, is backpropagated, and each
    batch ends with global-norm clipping and one Adam step.  A non-finite
    loss raises ``TrainingError`` before any gradient from it is applied.

    After each epoch ``evaluate(model, eval_items)`` (dev when given, else
    the training data) returns the named metrics for the history row
    ``{epoch, loss, <metrics>, lr}``, and ``log`` gets the same row as one
    line.  ``selections`` maps a name to the metric names whose tuple ranks
    epochs; the best epoch of each is kept as a parameter snapshot, and a
    non-improving epoch of the first one decays the learning rate when a
    dev set exists.  ``targets`` lists (metric, threshold) pairs: training
    stops once the first threshold is set and every set one is reached.
    ``init_hook(model)`` runs once before training.
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
        epoch_loss = 0.0
        for lo in range(0, len(order), config.batch_size):
            batch = order[lo : lo + config.batch_size]
            optimizer.zero_grad()
            inv = Tensor(1.0 / len(batch))
            for idx in batch:
                s, l = example_losses(model, *items[int(idx)], training=True, rng=train_rng)
                total = ad.add(s, l)
                if not np.isfinite(total.data):
                    raise TrainingError("loss is not finite", step=step)
                ad.backward(ad.mul(total, inv))
                epoch_loss += total.item()
            clip_by_global_norm(optimizer.params, config.clip)
            optimizer.step()
            step += 1

        metrics = evaluate(model, eval_items)
        row = {"epoch": epoch, "loss": epoch_loss / len(items), **metrics, "lr": optimizer.lr}
        history.append(row)
        if log is not None:
            scores = "".join(f"{name} {value:.2f} " for name, value in metrics.items())
            log(f"epoch {epoch} loss {row['loss']:.6f} {scores}lr {row['lr']:.6g}")
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
    if n > config.max_len:
        raise ConfigError(f"sentence length {n} exceeds max_len {config.max_len}")


def run_transition(model: DepModel, tokens, gold: DepTree = None, training: bool = False,
                   rng=None, want_trace: bool = False) -> RunResult:
    """Shared stepper for teacher forcing (gold given) and greedy decoding.

    With a gold tree the oracle order drives every decision and the loss
    tensors are populated; without one, decisions follow the pointer and
    label argmax.  The same candidate masking applies in both modes, so a
    forced pass scores exactly the probabilities the decoder would see.
    """
    n = len(tokens)
    config = model.config
    _check_length(config, n)
    events = iter(oracle_order(gold)) if gold is not None else None

    encoded = model.encoder.encode(tokens, training=training, rng=rng)
    prepared = model.pointer.prepare(encoded.matrix(), training=training, rng=rng)

    stack = init_dep_stack(n)
    attached = np.zeros(n + 1, dtype=bool)
    attached[0] = True
    prev_state = model.decoder.zero_state()
    heads = [None] * n
    labels = [None] * n
    structure_terms = []
    label_terms = []
    trace = []
    pointer_calls = 0
    score_evaluations = 0
    step = 0

    while stack:
        frame = stack.pop()
        element = frame.element
        x = partial_tree_features(frame, encoded.states)
        fused = model.decoder.fuse(prev_state, frame.parent_state, frame.sibling_state,
                                   training=training, rng=rng)
        state, d = model.decoder.step(x, fused)
        prev_state = state
        step += 1

        mask = _candidate_mask(element, attached)
        n_candidates = int(mask.sum())
        result = None
        if n_candidates > 1:
            result = model.pointer.attend(d, prepared, mask, training=training, rng=rng)
            pointer_calls += 1
            score_evaluations += n_candidates

        if events is not None:
            head, choice = next(events)
            if head != element or not mask[choice]:
                raise TreeError(f"oracle event ({head}, {choice}) is illegal at frame {element}")
        elif result is not None:
            choice = result.best()
        else:
            choice = int(np.flatnonzero(mask)[0])

        log_prob = 0.0
        if result is not None:
            if gold is None or config.selfpoint_loss or choice != element:
                nll = result.nll(choice)
                structure_terms.append(nll)
                log_prob = -nll.item()

        label_name = None
        if choice == element:
            pass
        else:
            attached[choice] = True
            heads[choice - 1] = element
            dist = model.labeler.distribution(d, encoded.states[choice],
                                              training=training, rng=rng)
            if gold is not None:
                label_name = gold.labels[choice - 1]
                label_terms.append(ad.cross_entropy(dist, model.labels[label_name]))
            else:
                label_name = model.labels.name(int(np.argmax(dist.data)))
            labels[choice - 1] = label_name
            child = DecoderFrame(element=choice, head_index=choice, parent_index=element,
                                 parent_state=state)
            stack.append(replace(frame, sibling_state=state, sibling_index=choice))
            stack.append(child)

        if want_trace:
            trace.append(TraceStep(step=step, head=element, target=choice, log_prob=log_prob,
                                   candidates=n_candidates, label=label_name,
                                   probabilities=result.probs.data.copy() if result else None))

    return RunResult(heads=heads, labels=labels,
                     structure_loss=ad.sum_terms(structure_terms),
                     label_loss=ad.sum_terms(label_terms),
                     trace=trace, pointer_calls=pointer_calls,
                     score_evaluations=score_evaluations)


def example_losses(model: DepModel, tokens, gold: DepTree, training: bool = False, rng=None):
    """Teacher-forced (structure, label) loss tensors for one example."""
    result = run_transition(model, tokens, gold=gold, training=training, rng=rng)
    return result.structure_loss, result.label_loss


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


# Columns of the beam's frame arrays: the frame's element, the words of its
# parent and of its nearest generated sibling (-1 when absent), and the bank
# rows of the decoder states captured when those two were generated.
_ELEMENT, _PARENT, _SIBLING, _PARENT_ROW, _SIBLING_ROW = range(5)


def decode_beam(model: DepModel, tokens, beam_size: int = None):
    """Beam search over pointing decisions; returns (DepTree, log-probability).

    All hypotheses advance one decision per round, so every complete parse
    takes exactly 2n+1 rounds and the beam stays in lockstep.  A round runs
    its k live hypotheses as one k-row pass through the decoder's ``fuse``
    and ``step``, the pointer and the labeler.  Each hypothesis is one row
    of a set of arrays: its stack of frames and their depth, attachments,
    heads, label ids, the bank row of its latest decoder state, and its
    log-probability.  The decoder states of every round go into one bank
    whose row 0 is the zero state, which stands for an absent parent or
    sibling.  One stable sort ranks all candidates, so ties keep
    hypothesis order, then candidate order.  Beam size 1 reproduces greedy
    decoding bit-for-bit.
    """
    config = model.config
    if beam_size is None:
        beam_size = config.beam_size
    if beam_size < 1:
        raise ConfigError(f"beam size must be at least 1, got {beam_size}")
    n = len(tokens)
    _check_length(config, n)

    with no_grad():
        encoded = model.encoder.encode(tokens)
        reps = encoded.matrix()
        prepared = model.pointer.prepare(reps)
        decoder = model.decoder
        # Room for every round of a beam up to n+1 wide; wider beams grow it.
        bank = np.zeros((decoder.components, 1 + (2 * n + 1) * min(beam_size, n + 1),
                         decoder.hidden_dim))
        used = 1
        root, = init_dep_stack(n)
        frames = np.full((1, n + 1, 5), -1, dtype=np.intp)
        frames[0, 0] = (root.element, -1, -1, 0, 0)
        depth = np.ones(1, dtype=np.intp)
        attached = np.zeros((1, n + 1), dtype=bool)
        attached[:, 0] = True
        heads = np.zeros((1, n + 1), dtype=np.intp)
        labels = np.zeros((1, n + 1), dtype=np.intp)
        prev_row = np.zeros(1, dtype=np.intp)
        log_prob = np.zeros(1)

        def states(bank_rows):
            return tuple(Tensor(component[bank_rows]) for component in bank)

        for _ in range(2 * n + 1):
            k = len(depth)
            top = frames[np.arange(k), depth - 1]
            element = top[:, _ELEMENT]
            fused = decoder.fuse(states(prev_row), states(top[:, _PARENT_ROW]),
                                 states(top[:, _SIBLING_ROW]))
            state, d = decoder.step(Tensor(_frame_inputs(reps.data, top)), fused)
            if used + k > bank.shape[1]:
                wider = np.zeros((bank.shape[0], max(2 * bank.shape[1], used + k), bank.shape[2]))
                wider[:, :used] = bank[:, :used]
                bank = wider
            for component, part in zip(bank, state):
                component[used : used + k] = part.data
            state_row = np.arange(used, used + k)
            used += k

            mask = _candidate_mask(element, attached)
            candidates = np.flatnonzero(mask)
            totals = log_prob[candidates // (n + 1)]
            if len(candidates) > k:  # some hypothesis has a real choice to make
                probs = model.pointer.attend(d, prepared, mask).probs.data
                totals = totals + np.log(probs.ravel()[candidates])
            order = np.argsort(-totals, kind="stable")[:beam_size]
            hyp, choice = np.divmod(candidates[order], n + 1)
            log_prob = totals[order]

            head = element[hyp]
            prev_row = state_row[hyp]
            frames, depth = frames[hyp], depth[hyp] - 1
            attached, heads, labels = attached[hyp], heads[hyp], labels[hyp]
            grown = np.flatnonzero(choice != head)
            if grown.size:
                child, row, at = choice[grown], prev_row[grown], depth[grown]
                frames[grown, at, _SIBLING] = child
                frames[grown, at, _SIBLING_ROW] = row
                frames[grown, at + 1] = np.stack([child, head[grown], np.full_like(child, -1),
                                                  row, np.zeros_like(child)], axis=1)
                depth[grown] += 2
                attached[grown, child] = True
                heads[grown, child] = head[grown]
                dist = model.labeler.distribution(ad.gather(d, hyp[grown]),
                                                  ad.gather(reps, child))
                labels[grown, child] = np.argmax(dist.data, axis=1)

    tree = DepTree(heads[0, 1:].tolist(), [model.labels.name(i) for i in labels[0, 1:].tolist()])
    return tree, float(log_prob[0])


def _frame_inputs(reps: np.ndarray, top: np.ndarray) -> np.ndarray:
    """``partial_tree_features`` for the top frame of every hypothesis: the
    element's encoder row plus its parent's and its sibling's, when present."""
    x = reps[top[:, _ELEMENT]]
    for column in (_PARENT, _SIBLING):
        present = top[:, column] >= 0
        if present.any():
            x = np.where(present[:, None], x + reps[top[:, column]], x)
    return x


def build_dep_vocabs(items):
    """Word/POS/char vocabularies and the label inventory from training data."""
    words, pos, chars, labels = set(), set(), set(), set()
    for tokens, tree in items:
        for token in tokens:
            words.add(token.form)
            pos.add(token.upos)
            chars.update(token.chars)
        labels.update(tree.labels)
    word_vocab = Vocab.build(words, specials=(UNK, ROOT))
    pos_vocab = Vocab.build(pos, specials=(UNK, ROOT))
    char_vocab = Vocab.build(chars, specials=(PAD, UNK, ROOT))
    return word_vocab, pos_vocab, char_vocab, LabelSet(sorted(labels))


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
        model, items, config, example_losses, _evaluate_dep, {"uas": ("uas", "las")},
        [("uas", config.target_uas), ("las", config.target_las)],
        dev_items=dev_items, log=log, init_hook=init_hook)
    model.restore(snapshots["uas"])
    return model, history


def _evaluate_dep(model, items):
    agg = score_dep_corpus([(tokens, gold, decode_greedy(model, tokens))
                            for tokens, gold in items])
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
