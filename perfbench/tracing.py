"""Outside-in tracing for the benchmark's traced runs.

Spans are recorded at the public entry points of the ptrparse modules by
wrapping them from the benchmark's own code: model sub-modules get a
bound-method attribute on the instance (installed from ``init_hook`` or
after ``load``), module-level functions that the pipelines look up at call
time are swapped on their module, and the two methods that Python looks up
on the type (``CharCnn.__call__``, ``Adam.step``) are swapped on the class.
Every swap is undone by ``uninstall``.  No child module is replaced, so
``Module.parameters()`` and checkpoint bytes are unchanged, and no wrapper
touches a value, so traced and untraced runs compute the same numbers.

Autodiff work is counted, not timed: every op ends in ``_node`` (graph
recorded) or ``_const`` (no graph), so counting those two calls counts
tape operations, split by whether gradient recording was on.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter, defaultdict

import numpy as np

from ptrparse import autodiff, dep, estimators, nn, optim, rst

# Span names; each yields <name>_s, <name>_self_s and <name>_share.
SPANS = (
    "dep.train", "rst.train", "dep.greedy", "dep.beam", "rst.parse",
    "dep.eval_decode", "rst.eval_decode", "metrics.score",
    "encoder.encode", "nn.char_cnn", "nn.recurrent",
    "decoder.fuse", "decoder.step", "scoring.prepare", "scoring.pointer", "scoring.labeler",
    "autodiff.backward", "optim.clip", "optim.step",
    "estimators.load", "checkpoint.load",
)

# ``estimators.load`` minus ``checkpoint.load``: rebuilding the model, random init included.
RENAMED = {"estimators.load_self_s": "estimators.rebuild_s"}

# Counts, taken over a run's first pass so that they repeat exactly.
COUNTS = (
    "autodiff.ops_per_token", "autodiff.ops_per_token_nograd",
    "nn.char_cnn_calls", "encoder.calls", "decoder.steps",
    "scoring.pointer_calls", "scoring.score_evaluations",
    "scoring.labeler_calls", "scoring.labeler_useful_frac", "optim.steps",
)


def layer_metric_names():
    """Every per-layer metric a traced run reports, with unit and direction."""
    names = []
    for span in SPANS:
        names += [(RENAMED.get(name, name), unit, "lower")
                  for name, unit in ((f"{span}_s", "s"), (f"{span}_self_s", "s"),
                                     (f"{span}_share", "frac"))]
    units = {"autodiff.ops_per_token": "ops/tok", "autodiff.ops_per_token_nograd": "ops/tok",
             "scoring.labeler_useful_frac": "frac"}
    for count in COUNTS:
        better = "higher" if count == "scoring.labeler_useful_frac" else "lower"
        names.append((count, units.get(count, "count"), better))
    names.append(("trace.overhead_frac", "frac", "lower"))
    return names


class Tracer:
    """In-memory span recorder plus call counters."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, sentence id]
        self.counts = Counter()
        self.sentence = 0
        self._stack = []
        self._undo = []

    def open(self, name) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.sentence])
        self._stack.append(index)
        return index

    def close(self, index):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span; the benchmark's own call sites use this."""
        index = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(index)

    def new_sentence(self):
        self.sentence += 1

    def decoded(self, tokens: int, labels: int):
        """Record one decode output: its size and the labels it carries."""
        self.counts["decode.tokens"] += tokens
        self.counts["decode.labels"] += labels

    # -- installation -----------------------------------------------------

    @contextlib.contextmanager
    def active(self, model=None):
        """Trace inside the block: global entry points, plus ``model``'s if given."""
        self.install_globals()
        try:
            if model is not None:
                self.install_model(model)
            yield self
        finally:
            self.uninstall()

    def _swap(self, owner, attr, name, after=None, before=None):
        original = getattr(owner, attr)
        own = attr in vars(owner)
        tracer = self

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            index = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(index)
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original if own else None))

    def install_globals(self):
        """Swap module-level entry points and the two type-level methods."""
        counts = self.counts
        self._swap(autodiff, "backward", "autodiff.backward")
        self._swap(nn.CharCnn, "__call__", "nn.char_cnn",
                   after=lambda a, r: counts.update(("nn.char_cnn_calls",)))
        self._swap(optim.Adam, "step", "optim.step",
                   after=lambda a, r: counts.update(("optim.steps",)))
        for module in (dep, rst):
            self._swap(module, "clip_by_global_norm", "optim.clip")
        self._swap(dep, "score_dep_corpus", "metrics.score")
        self._swap(rst, "score_parseval_corpus", "metrics.score")
        self._swap(dep, "decode_greedy", "dep.eval_decode", before=lambda a: self.new_sentence(),
                   after=lambda a, tree: self.decoded(tree.n, tree.n))
        self._swap(rst, "decode_rst", "rst.eval_decode", before=lambda a: self.new_sentence(),
                   after=lambda a, tree: self.decoded(len(a[1]), tree.m - 1))
        self._swap(rst, "dot_attend", "scoring.pointer", after=self._count_pointer)
        self._swap(estimators, "load_checkpoint", "checkpoint.load")

        state = autodiff._state
        make_node, make_const = autodiff._node, autodiff._const

        def node(data, parents, bwd):
            counts["ops.grad"] += 1
            return make_node(data, parents, bwd)

        def const(data):
            counts["ops.grad" if getattr(state, "enabled", True) else "ops.nograd"] += 1
            return make_const(data)

        autodiff._node, autodiff._const = node, const
        self._undo.append((autodiff, "_node", make_node))
        self._undo.append((autodiff, "_const", make_const))

    def install_model(self, model):
        """Wrap one model's sub-module entry points with instance attributes."""
        counts = self.counts

        def encode_started(args):
            if autodiff.grad_enabled():
                self.new_sentence()

        self._swap(model.encoder, "encode", "encoder.encode", before=encode_started,
                   after=lambda a, r: counts.update(("encoder.calls",)))
        self._swap(model.encoder.encoder, "encode", "nn.recurrent")
        self._swap(model.decoder, "fuse", "decoder.fuse")
        self._swap(model.decoder, "step", "decoder.step",
                   after=lambda a, r: counts.update(("decoder.steps",)))
        def labeled(args, result):
            counts["scoring.labeler_calls"] += 1
            if not autodiff.grad_enabled():
                counts["scoring.labeler_calls_nograd"] += 1

        self._swap(model.labeler, "distribution", "scoring.labeler", after=labeled)
        pointer = getattr(model, "pointer", None)
        if pointer is not None:
            self._swap(pointer, "prepare", "scoring.prepare")
            self._swap(pointer, "attend", "scoring.pointer", after=self._count_pointer)

    def _count_pointer(self, args, result):
        self.counts["scoring.pointer_calls"] += 1
        mask = result.mask
        self.counts["scoring.score_evaluations"] += (int(np.count_nonzero(mask))
                                                     if mask is not None else len(result))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- reporting --------------------------------------------------------

    def span_metrics(self, wall: float, passes: int) -> dict:
        """Seconds per pass over the keys, and shares of the traced wall time."""
        total = defaultdict(float)
        own = defaultdict(float)
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        for (name, start, end, _, _), child in zip(self.spans, covered):
            total[name] += end - start
            own[name] += end - start - child
        metrics = {}
        for name in SPANS:
            metrics[f"{name}_s"] = total[name] / passes
            metrics[RENAMED.get(f"{name}_self_s", f"{name}_self_s")] = own[name] / passes
            metrics[f"{name}_share"] = total[name] / wall
        return metrics

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("name\tstart\tend\tparent\tsentence\n")
            for name, start, end, parent, sentence in self.spans:
                handle.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{sentence}\n")


def count_metrics(counts: Counter, train_tokens: int) -> dict:
    """Per-layer counts from a snapshot taken after the first pass."""
    decode_tokens = counts["decode.tokens"]
    nograd_calls = counts["scoring.labeler_calls_nograd"]
    return {
        "autodiff.ops_per_token": counts["ops.grad"] / train_tokens if train_tokens else 0.0,
        "autodiff.ops_per_token_nograd": counts["ops.nograd"] / decode_tokens if decode_tokens else 0.0,
        "nn.char_cnn_calls": counts["nn.char_cnn_calls"],
        "encoder.calls": counts["encoder.calls"],
        "decoder.steps": counts["decoder.steps"],
        "scoring.pointer_calls": counts["scoring.pointer_calls"],
        "scoring.score_evaluations": counts["scoring.score_evaluations"],
        "scoring.labeler_calls": counts["scoring.labeler_calls"],
        "scoring.labeler_useful_frac": counts["decode.labels"] / nograd_calls if nograd_calls else 0.0,
        "optim.steps": counts["optim.steps"],
    }
