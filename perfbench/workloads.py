"""The benchmark's workloads, measurement loop and correctness checks.

Every workload is driven through the public ptrparse API only.  A
workload's work is a fixed list of *keys*: the sentences of a decode
corpus, or one seeded training call.  A run sets up several times (for a
median ``setup_s``), then runs the keys in order, pass after pass, until
``seconds`` have passed and at least one full pass is done.  Each key's
time is the median of its repeats, scaled to a reference machine speed by
``Meter``.  Outputs are then re-checked.
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import json
import math
import resource
import signal
import statistics
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ptrparse import (DepConfig, DependencyParser, DiscourseParser, PtrParseError, RstConfig,
                      decode_beam, decode_greedy, decode_rst, score_dep_corpus,
                      score_parseval_corpus, train_dep, train_rst)
from ptrparse.corpus import gen_synthetic_dep, gen_synthetic_rst, segmented_from_texts

from tracing import Tracer, count_metrics

# (name, unit, better, bound): what a user of the parser sees.
END_TO_END = (
    ("tok_s", "tok/s", "higher", 0.2),
    ("op_ms_p50", "ms", "lower", 0.2),
    ("op_ms_p90", "ms", "lower", 0.2),
    ("ckpt_load_ms", "ms", "lower", 0.2),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
)

MODEL_SEED = 7       # corpus and init seed of the model the decode workloads load
SETUP_REPEATS = 5
CKPT_LOADS = 40
TRACED_LOADS = 5     # checkpoint loads per traced pass
BEAM_SIZE = 10
SIZE_STRIDE = 17     # prime, so i*17 mod L visits every size once per cycle of L
TRAIN, HELD_OUT = 0, 1  # corpus streams of one seed

CRITERION3 = dict(variant="pst", fusion="sgate", encoder_hidden=64, decoder_hidden=64,
                  arc_mlp=64, label_mlp=16, batch_size=8)
CRITERION4 = dict(word_dim=64, encoder_hidden=64, encoder_layers=2, decoder_layers=2,
                  rel_mlp=64, fusion="plain", embed_dropout=0.0, encoder_dropout=0.0,
                  decoder_dropout=0.0, classifier_dropout=0.0, l2=0.0, batch_size=8)


@dataclass(frozen=True)
class Sizes:
    """Corpus sizes and model configs; ``TINY`` shrinks them for the smoke test."""

    dep_train: tuple = (64, 12)      # (sentences, longest sentence)
    dep_parse: tuple = (128, 40)
    rst_train: tuple = (64, 8)       # (sentences, most EDUs)
    rst_parse: tuple = (128, 16)
    model_corpus: int = 16           # training sentences of the decode workloads' model
    epochs: int = 1                  # epochs per training call
    checks: int = 16                 # sentences re-decoded with a trace after measuring
    dep_config: dict = field(default_factory=lambda: dict(CRITERION3))
    rst_config: dict = field(default_factory=lambda: dict(CRITERION4))


FULL = Sizes()
TINY = Sizes(dep_train=(6, 4), dep_parse=(6, 5), rst_train=(6, 4), rst_parse=(6, 5),
             model_corpus=4, epochs=2, checks=3,
             dep_config=dict(CRITERION3, word_dim=8, pos_dim=4, char_dim=4, char_filters=4,
                             encoder_layers=1, encoder_hidden=6, decoder_hidden=8, arc_mlp=6,
                             label_mlp=5),
             rst_config=dict(CRITERION4, word_dim=8, encoder_hidden=6, encoder_layers=1,
                             decoder_layers=1, rel_mlp=6))


# -- inputs ------------------------------------------------------------------


def size_cycle(count: int, largest: int) -> list:
    """Sizes 1..largest in the order i*17 mod largest, repeated to ``count``."""
    if math.gcd(SIZE_STRIDE, largest) != 1:
        raise ValueError(f"size cycle needs {largest} coprime to {SIZE_STRIDE}")
    return [(i * SIZE_STRIDE) % largest + 1 for i in range(count)]


def by_size(generate, size_of, wanted: list, seed: int, stream: int) -> list:
    """Generated items whose sizes are ``wanted``, in that order.

    Only the contents depend on the seed.  The amount of work per run then
    does not follow a seed's draw of sentence lengths, which would
    otherwise dominate the spread between runs on different seeds.
    """
    need = Counter(wanted)
    buckets = defaultdict(list)
    round_ = 0
    while any(len(buckets[s]) < k for s, k in need.items()):
        pool_seed = int(np.random.SeedSequence([seed, stream, round_]).generate_state(1)[0])
        for item in generate(pool_seed, 4 * len(wanted)):
            bucket = buckets[size_of(item)]
            if len(bucket) < need[size_of(item)]:  # keep memory independent of the seed
                bucket.append(item)
        round_ += 1
    taken = Counter()
    picked = []
    for s in wanted:
        picked.append(buckets[s][taken[s]])
        taken[s] += 1
    return picked


def dep_corpus(seed, stream, count, longest):
    return by_size(lambda s, c: gen_synthetic_dep(s, c, max_len=longest, vocab_size=200,
                                                  label_count=8),
                   lambda item: len(item[0]), size_cycle(count, longest), seed, stream)


def rst_corpus(seed, stream, count, most_edus):
    """EDU counts cycle like sentence lengths; each tree has 2.5 words per EDU
    (rounded down), the mean of the generator's 1-4."""
    wanted = [(m, 5 * m // 2) for m in size_cycle(count, most_edus)]
    trees = by_size(lambda s, c: gen_synthetic_rst(s, c, max_edus=most_edus, label_count=8),
                    lambda item: (item[1].m, sum(len(t.split()) for t in item[0])),
                    wanted, seed, stream)
    return [segmented_from_texts(texts) + (tree,) for texts, tree in trees]


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode("utf-8")).hexdigest()[:16]


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def dep_out(tree):
    return [tree.heads, tree.labels]


def rst_out(tree):
    return sorted(tree.spans())


def dep_inputs(items):
    return [[[t.form for t in tokens], dep_out(tree)] for tokens, tree in items]


def rst_inputs(items):
    return [[words, ends, rst_out(tree)] for words, ends, tree in items]


def valid_dep(tree, n) -> bool:
    try:
        tree.validate()
    except PtrParseError:
        return False
    return tree.n == n and all(label is not None for label in tree.labels)


def valid_rst(tree, m) -> bool:
    try:
        tree.validate()
    except PtrParseError:
        return False
    return tree.m == m


def greedy_counts_ok(tree, trace, n) -> bool:
    """2n+1 decoder steps and at most 2n pointer calls for an n-word sentence."""
    pointer_calls = sum(1 for step in trace if step.candidates > 1)
    return tree.n == n and len(trace) == 2 * n + 1 and pointer_calls <= 2 * n


def check_dep_greedy(model, items):
    """Greedy re-decode with a trace; returns (outputs, number failed)."""
    outputs, failed = [], 0
    for tokens, _ in items:
        tree, trace = decode_greedy(model, tokens, want_trace=True)
        failed += not (valid_dep(tree, len(tokens)) and greedy_counts_ok(tree, trace, len(tokens)))
        outputs.append(dep_out(tree))
    return outputs, failed


# -- timing ------------------------------------------------------------------


_CAL_WEIGHTS = np.random.default_rng(0).standard_normal((64, 64)) * 0.1


def forward_work(steps=30):
    """Calibration for decoding: a Python loop of small numpy ops, no tape."""
    x = np.ones(64)
    total = 0.0
    for i in range(steps):
        x = np.tanh(_CAL_WEIGHTS @ x + 0.1)
        total += float(x[i & 63])
    return total


def tape_work(steps=10):
    """Calibration for training and loading: a small forward pass recorded as
    closures, then replayed backwards with outer-product weight gradients."""
    nodes = []
    x = np.ones(64)
    for _ in range(steps):
        y = np.tanh(_CAL_WEIGHTS @ x)
        nodes.append(lambda g, x=x, y=y: (_CAL_WEIGHTS.T @ (g * (1.0 - y * y)), np.outer(g, x)))
        x = y
    grad, weight_grad = np.ones(64), np.zeros((64, 64))
    for backward in reversed(nodes):
        grad, step = backward(grad)
        weight_grad += step
    return weight_grad


FORWARD, TAPE = 0, 1
# Fast-state times of the two calibrations on a 2-vCPU Intel Xeon VM
# (Python 3.11, numpy 2.4, OpenBLAS 0.3, one BLAS thread).
REFERENCE_S = (130e-6, 200e-6)
# Which calibrations scale which work: decoding slows like ``forward_work`` in
# some slow states and like ``tape_work`` in others, so it takes both.
DECODING, TRAINING = (FORWARD, TAPE), (TAPE,)
SAMPLE_PERIOD_S = 0.02
NEIGHBOURS = 4       # samples on either side of a timed interval that also count


class Meter:
    """Samples the machine's speed while a run measures, and scales timings by it.

    Cores of a shared VM can switch between a fast and a slow state.  On the
    VM of ``REFERENCE_S`` the states are 1.4x to 1.7x apart depending on the
    work and can last longer than a run, so raw times of one commit differ
    by 40% or more between runs.
    Every ``SAMPLE_PERIOD_S`` an interval timer runs both fixed calibrations,
    which do not touch ptrparse; ``sample`` runs them on demand.  A timed
    interval, less the sampler's own time in it, is scaled by the reference
    time over the mean time of the samples inside it and of the
    ``NEIGHBOURS`` nearest on either side, for the calibrations that match
    the timed work (the geometric mean when there are two).  It then reads
    as the time the work takes when the calibrations take their reference
    times.
    """

    def __init__(self):
        self.starts, self.ends = [], []   # sorted, for bisect
        self.seconds = ([], [])           # per calibration kind
        self._busy = False

    def sample(self, signum=None, frame=None):
        if self._busy:  # a timer tick during a sample would break the order
            return
        self._busy = True
        try:
            start = time.perf_counter()
            forward_work()
            middle = time.perf_counter()
            tape_work()
            end = time.perf_counter()
            self.starts.append(start)
            self.ends.append(end)
            self.seconds[FORWARD].append(middle - start)
            self.seconds[TAPE].append(end - middle)
        finally:
            self._busy = False

    @contextlib.contextmanager
    def sampling(self):
        self.sample()
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.sample()

    def unscaled(self, start, end) -> float:
        """Seconds of [start, end] without the sampler's own time."""
        lo, hi = bisect.bisect_left(self.starts, start), bisect.bisect_left(self.starts, end)
        return end - start - sum(self.ends[i] - self.starts[i] for i in range(lo, hi))

    def scaled(self, start, end, kinds) -> float:
        """Seconds of [start, end] without the sampler, at the reference speed."""
        lo = max(bisect.bisect_left(self.starts, start) - NEIGHBOURS, 0)
        hi = bisect.bisect_left(self.starts, end) + NEIGHBOURS
        factors = [REFERENCE_S[k] / statistics.fmean(self.seconds[k][lo:hi]) for k in kinds]
        return self.unscaled(start, end) * statistics.geometric_mean(factors)


# -- workloads ---------------------------------------------------------------


@dataclass
class Unit:
    """One run of one key: a decoded sentence, or one training call."""

    span: tuple              # perf_counter at the call's start and end
    op_spans: list           # (start, end) of each operation: the sentence, or each epoch
    output: object           # JSON-able, for the digest
    result: object = None    # the tree or history itself, for quality scores
    failed: int = 0

    @property
    def seconds(self) -> float:
        return self.span[1] - self.span[0]


@dataclass
class State:
    """What a set-up leaves for the measured runs."""

    items: list
    tokens: list             # tokens (or words) of each key
    path: Path               # checkpoint the load timings read
    inputs: str              # digest of the inputs and the checkpoint bytes
    model: object = None
    config: object = None


class _Built(Exception):
    """Raised from ``init_hook`` to end a training call once its model exists."""

    def __init__(self, model):
        super().__init__()
        self.model = model


def _stop_after_build(model):
    raise _Built(model)


def _save(parser_cls, model, path):
    parser = parser_cls()
    parser.model_ = model
    parser.save(path)


class TrainWorkload:
    """One key: a seeded training call that every repeat runs identically."""

    ops = "epochs trained"
    calibration = TRAINING

    def setup(self, seed, sizes, out_dir) -> State:
        """Corpus, model build, and a checkpoint of the built model for the load timings."""
        items = self.corpus(seed, sizes)
        config = self.make_config(seed, sizes)
        try:
            self.train(items, config, init_hook=_stop_after_build)
            raise RuntimeError("training finished without calling init_hook")
        except _Built as built:
            path = Path(out_dir) / f"{self.name}-model.ptp"
            _save(self.parser, built.model, path)
        tokens = sum(self.size(item) for item in items) * config.epochs
        return State(items=items, tokens=[tokens], path=path, config=config,
                     inputs=digest([self.describe(items), file_digest(path)]))

    def traced_model(self, state):
        return None  # each training call's model is wrapped from init_hook

    def run(self, state, key, tracer):
        stamps = []

        def hook(model):
            stamps.append(time.perf_counter())
            if tracer:
                tracer.install_model(model)

        epochs = state.config.epochs
        call = lambda: self.train(state.items, state.config,
                                  log=lambda line: stamps.append(time.perf_counter()),
                                  init_hook=hook)
        start = time.perf_counter()
        try:
            outcome = tracer.call(self.span, call) if tracer else call()
        except PtrParseError:
            return Unit((start, time.perf_counter()), [], None, failed=epochs)
        span = (start, time.perf_counter())
        model, history = self.unpack(outcome)
        state.model = model
        failed = (epochs - len(history)
                  + sum(1 for row in history if not math.isfinite(row["loss"])))
        return Unit(span, list(zip(stamps, stamps[1:])), history, result=history, failed=failed)

    def checks(self, state, first, sizes):
        """Re-decode training sentences with the trained model and check each tree."""
        if state.model is None:
            return [], sizes.checks, {}  # every training call failed
        outputs, failed = self.recheck(state.model, state.items[:sizes.checks])
        history = first[0].result or [{}]
        quality = {k: v for k, v in history[-1].items() if k not in ("epoch", "lr")}
        return outputs, failed, quality


class DepTrain(TrainWorkload):
    name = "dep-train"
    parser = DependencyParser
    span = "dep.train"
    train = staticmethod(train_dep)

    def corpus(self, seed, sizes):
        return dep_corpus(seed, TRAIN, *sizes.dep_train)

    def make_config(self, seed, sizes):
        return DepConfig(**sizes.dep_config, epochs=sizes.epochs, seed=seed)

    def size(self, item):
        return len(item[0])

    describe = staticmethod(dep_inputs)

    def unpack(self, outcome):
        return outcome

    def recheck(self, model, items):
        return check_dep_greedy(model, items)


class RstTrain(TrainWorkload):
    name = "rst-train"
    parser = DiscourseParser
    span = "rst.train"
    train = staticmethod(train_rst)

    def corpus(self, seed, sizes):
        return rst_corpus(seed, TRAIN, *sizes.rst_train)

    def make_config(self, seed, sizes):
        return RstConfig(**sizes.rst_config, epochs=sizes.epochs, seed=seed)

    def size(self, item):
        return len(item[0])

    describe = staticmethod(rst_inputs)

    def unpack(self, outcome):
        return outcome.model, outcome.history

    def recheck(self, model, items):
        outputs, failed = [], 0
        for words, ends, _ in items:
            tree = decode_rst(model, words, ends)
            failed += not valid_rst(tree, len(ends))
            outputs.append(rst_out(tree))
        return outputs, failed


class DecodeWorkload:
    """One key per sentence of a held-out corpus.

    The model is trained at set-up from a fixed seed with the estimator's
    ``fit``, saved and loaded back, so the run's seed changes only the
    sentences decoded.
    """

    ops = "sentences decoded"
    calibration = DECODING

    def setup(self, seed, sizes, out_dir) -> State:
        items = self.corpus(seed, HELD_OUT, sizes)
        model_items = self.corpus(MODEL_SEED, TRAIN, sizes)[:sizes.model_corpus]
        estimator = self.parser(**self.config(sizes), epochs=1, seed=MODEL_SEED)
        estimator.fit(*self.fit_args(model_items))
        path = Path(out_dir) / f"{self.name}-model.ptp"
        estimator.save(path)
        model = self.parser.load(path).model_
        return State(items=items, tokens=[self.size(item) for item in items], path=path,
                     model=model, inputs=digest([self.describe(items), file_digest(path)]))

    def traced_model(self, state):
        return state.model

    def run(self, state, key, tracer):
        item = state.items[key]
        before = tracer.counts.copy() if tracer else None
        start = time.perf_counter()
        try:
            if tracer:
                tracer.new_sentence()
                result = tracer.call(self.span, self.decode, state.model, item)
            else:
                result = self.decode(state.model, item)
        except PtrParseError:
            span = (start, time.perf_counter())
            return Unit(span, [span], None, failed=1)
        span = (start, time.perf_counter())
        ok = self.valid(result, item)
        if tracer:
            tracer.decoded(self.size(item), self.labels(result))
            ok = ok and self.counts_ok(self.size(item), tracer.counts - before)
        return Unit(span, [span], self.output(result), result=result, failed=int(not ok))


class DepDecode(DecodeWorkload):
    parser = DependencyParser

    def corpus(self, seed, stream, sizes):
        count, longest = sizes.dep_parse if stream == HELD_OUT else sizes.dep_train
        return dep_corpus(seed, stream, count, longest)

    def config(self, sizes):
        return sizes.dep_config

    def fit_args(self, items):
        return [tokens for tokens, _ in items], [tree for _, tree in items]

    def size(self, item):
        return len(item[0])

    describe = staticmethod(dep_inputs)

    def labels(self, result):
        return self.tree(result).n

    def checks(self, state, first, sizes):
        """Greedy re-decode with a trace (2n+1 steps, <= 2n pointer calls); UAS/LAS."""
        outputs, failed = check_dep_greedy(state.model, state.items[:sizes.checks])
        failed += sum(self.disagrees(first[key], out) for key, out in enumerate(outputs))
        scored = [(tokens, gold, self.tree(first[key].result))
                  for key, (tokens, gold) in enumerate(state.items)
                  if first[key].result is not None]
        score = score_dep_corpus(scored)
        return outputs, failed, {"uas": score.uas, "las": score.las}


class DepGreedy(DepDecode):
    name = "dep-greedy"
    span = "dep.greedy"

    def decode(self, model, item):
        return decode_greedy(model, item[0])

    def tree(self, result):
        return result

    def valid(self, result, item):
        return valid_dep(result, len(item[0]))

    def output(self, result):
        return dep_out(result)

    def disagrees(self, unit, checked):
        return unit.output != checked

    def counts_ok(self, n, counts):
        return counts["decoder.steps"] == 2 * n + 1 and counts["scoring.pointer_calls"] <= 2 * n


class DepBeam(DepDecode):
    name = "dep-beam"
    span = "dep.beam"

    def decode(self, model, item):
        return decode_beam(model, item[0], beam_size=BEAM_SIZE)

    def tree(self, result):
        return result[0]

    def valid(self, result, item):
        tree, log_prob = result
        return valid_dep(tree, len(item[0])) and math.isfinite(log_prob) and log_prob <= 0.0

    def output(self, result):
        tree, log_prob = result
        return dep_out(tree) + [log_prob]

    def disagrees(self, unit, checked):
        return False  # beam search may rightly pick another tree than greedy

    def counts_ok(self, n, counts):
        # Each round steps every live hypothesis once, at most BEAM_SIZE of them.
        return (counts["decoder.steps"] <= BEAM_SIZE * (2 * n + 1)
                and counts["scoring.pointer_calls"] <= BEAM_SIZE * 2 * n)


class RstParse(DecodeWorkload):
    name = "rst-parse"
    span = "rst.parse"
    parser = DiscourseParser

    def corpus(self, seed, stream, sizes):
        count, most = sizes.rst_parse if stream == HELD_OUT else sizes.rst_train
        return rst_corpus(seed, stream, count, most)

    def config(self, sizes):
        return sizes.rst_config

    def fit_args(self, items):
        return [(words, ends) for words, ends, _ in items], [tree for _, _, tree in items]

    def size(self, item):
        return len(item[0])

    describe = staticmethod(rst_inputs)

    def decode(self, model, item):
        return decode_rst(model, item[0], item[1])

    def valid(self, result, item):
        return valid_rst(result, len(item[1]))

    def output(self, result):
        return rst_out(result)

    def labels(self, result):
        return result.m - 1

    def counts_ok(self, n, counts):
        return True  # the split count is fixed by the tree, which valid() checks

    def checks(self, state, first, sizes):
        """Every tree was validated as it was decoded; this adds Parseval scores."""
        pairs = [(tree, first[key].result) for key, (_, _, tree) in enumerate(state.items)
                 if first[key].result is not None]
        score = score_parseval_corpus(pairs)
        return [], 0, {"span": score.span_f1, "nuclearity": score.nuclearity_f1,
                       "relation": score.relation_f1}


WORKLOADS = {w.name: w for w in (DepTrain(), DepGreedy(), DepBeam(), RstTrain(), RstParse())}


# -- one run -----------------------------------------------------------------


def _quantile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Runs(defaultdict):
    """Units per key.  A repeat is compared with the key's first unit as it
    arrives and then keeps only its timings, so memory does not grow with
    the number of passes."""

    def __init__(self):
        super().__init__(list)
        self.mismatches = 0

    def add(self, key, unit):
        units = self[key]
        if units:
            self.mismatches += unit.output != units[0].output
            unit.output = unit.result = None
        units.append(unit)


def _measure(keys, seconds, run, load, sample):
    """``run(key)`` pass after pass until ``seconds`` have passed and one pass is done.

    Checkpoint loads are spread evenly over the same window, between runs,
    so they see the same machine conditions as the runs.  A load is shorter
    than the sampling period, so ``sample`` runs right before and after it.
    """

    def timed_load():
        sample()
        start = time.perf_counter()
        load()
        end = time.perf_counter()
        sample()
        return start, end

    runs = Runs()
    loads = []
    start = time.perf_counter()
    index = 0
    while index < len(keys) or time.perf_counter() < start + seconds:
        while (len(loads) < CKPT_LOADS
               and time.perf_counter() >= start + len(loads) * seconds / CKPT_LOADS):
            loads.append(timed_load())
        key = keys[index % len(keys)]
        runs.add(key, run(key))
        index += 1
    while len(loads) < CKPT_LOADS:
        loads.append(timed_load())
    return runs, loads


def _measure_traced(workload, state, keys, seconds, tracer, load):
    """Whole traced passes until ``seconds`` have passed.

    The first pass runs each key untraced right before its traced run, so
    both see the same machine speed; their ratio is the tracing overhead.
    Counts are taken over the first pass, which is the same work on every
    run of one seed.
    """
    runs, reference, counts = Runs(), [], Counter()
    model = workload.traced_model(state)
    start = time.perf_counter()
    passes = 0
    while passes == 0 or time.perf_counter() < start + seconds:
        for key in keys:
            if passes == 0:
                reference.append(workload.run(state, key, None))
            with tracer.active(model):
                runs.add(key, workload.run(state, key, tracer))
        with tracer.active():
            for _ in range(TRACED_LOADS):
                tracer.call("estimators.load", load)
        if passes == 0:
            counts.update(tracer.counts)
        passes += 1
    wall = time.perf_counter() - start - sum(r.seconds for r in reference)
    return runs, reference, counts, passes, wall


def run_workload(name, seed, seconds, trace, out_dir, sizes=FULL):
    """Run one workload; returns the report (metrics, counts, digest, quality)."""
    workload = WORKLOADS[name]
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    meter = Meter()

    # Traced times stay raw: the sampler would land inside the spans.
    with contextlib.nullcontext() if trace else meter.sampling():
        setups, identities = [], set()
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            state = workload.setup(seed, sizes, out_dir)
            setups.append((start, time.perf_counter()))
            identities.add(state.inputs)

        keys = list(range(len(state.tokens)))
        load = lambda: workload.parser.load(state.path)
        if trace:
            tracer = Tracer()
            runs, reference, counts, passes, wall = _measure_traced(workload, state, keys,
                                                                    seconds, tracer, load)
            loads = []
        else:
            runs, loads = _measure(keys, seconds, lambda key: workload.run(state, key, None),
                                   load, meter.sample)
            reference = []

    # Outputs must repeat wherever the same work repeats: every pass, every
    # set-up (checkpoint bytes included) and, traced, the untraced reference.
    first = [runs[key][0] for key in keys]
    nondeterministic = len(identities) - 1
    nondeterministic += runs.mismatches
    nondeterministic += sum(r.output != first[key].output for key, r in zip(keys, reference))
    check_outputs, check_failed, quality = workload.checks(state, first, sizes)

    repeats = [len(runs[key]) for key in keys]
    samples = sum(min(len(u.op_spans) for u in runs[key]) for key in keys)
    attempted = sum(max(len(unit.op_spans), unit.failed) for key in keys for unit in runs[key])
    attempted += len(check_outputs)
    failed = (sum(unit.failed for key in keys for unit in runs[key]) + check_failed
              + nondeterministic)

    def end_to_end(seconds):
        """Metrics from ``seconds(span, kinds)``; each key's time, and each of
        its operations' times, is the median over the key's repeats."""
        key_s, op_s = [], []
        for key in keys:
            units = runs[key]
            key_s.append(statistics.median(seconds(u.span, workload.calibration)
                                           for u in units))
            for i in range(min(len(u.op_spans) for u in units)):
                op_s.append(statistics.median(seconds(u.op_spans[i], workload.calibration)
                                              for u in units))
        return {
            "tok_s": sum(state.tokens) / sum(key_s),
            "op_ms_p50": 1000.0 * statistics.median(op_s) if op_s else 0.0,
            "op_ms_p90": 1000.0 * _quantile(op_s, 90) if op_s else 0.0,
            "ckpt_load_ms": 1000.0 * statistics.median(seconds(s, TRAINING) for s in loads),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": statistics.median(seconds(s, TRAINING) for s in setups),
        }

    report = {
        "workload": name, "seed": seed, "trace": int(trace),
        "ops": workload.ops, "attempted": attempted, "failed": failed,
        "nondeterministic": nondeterministic, "keys": len(keys), "samples": samples,
        "repeats_min": min(repeats), "repeats_max": max(repeats),
        "checked": len(check_outputs),
        "digest": digest({"inputs": state.inputs,
                          "outputs": [unit.output for unit in first],
                          "checks": check_outputs}),
        "quality": quality,
    }
    if not trace:
        metrics = end_to_end(lambda span, kinds: meter.scaled(*span, kinds))
        report["unscaled"] = end_to_end(lambda span, kinds: meter.unscaled(*span))
        report["calibration_samples"] = len(meter.starts)
        report["calibration_s"] = {"forward": statistics.median(meter.seconds[FORWARD]),
                                   "tape": statistics.median(meter.seconds[TAPE])}
    else:
        train_tokens = sum(state.tokens) if workload.ops == "epochs trained" else 0
        metrics = tracer.span_metrics(wall, passes)
        metrics.update(count_metrics(counts, train_tokens))
        traced_first = sum(runs[key][0].seconds for key in keys)
        metrics["trace.overhead_frac"] = traced_first / sum(r.seconds for r in reference) - 1.0
        report["passes"] = passes
        tracer.write_spans(out_dir / f"spans-{name}-s{seed}.tsv")
    report["metrics"] = metrics
    return report
