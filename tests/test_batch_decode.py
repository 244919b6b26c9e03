"""Batched decoding across sentences: ``dep.decode_batch`` (greedy at beam
size 1, beam search above) and ``rst.decode_rst_batch`` give the trees of
the one-sentence paths, in input order, on trained and held-out corpora,
across chunk boundaries, and with the one-sentence path's errors for bad
input."""

from functools import partial

import pytest

from ptrparse import dep, rst
from ptrparse.errors import ConfigError, DataError, SegmentationError
from ptrparse.metrics import score_dep_corpus, score_parseval_corpus
from ptrparse.trees import Token

from helpers import dep_held_out, rst_held_out


def dep_equal(batched, one_by_one):
    return [(t.heads, t.labels) for t in batched] == [(t.heads, t.labels) for t in one_by_one]


def rst_equal(batched, one_by_one):
    return [t.spans() for t in batched] == [t.spans() for t in one_by_one]


def test_dep_batch_matches_one_sentence_decode(dep_trained):
    model, items = dep_trained
    for sentences in ([tokens for tokens, _ in items], dep_held_out()):
        batched = dep.decode_batch(model, sentences, beam_size=1)
        assert dep_equal(batched, [dep.decode_greedy(model, tokens) for tokens in sentences])


def test_dep_beam_batch_matches_one_sentence_beam(dep_trained):
    """A batched beam gives ``decode_beam``'s trees, and log-probabilities
    within 1e-9: rows of several sentences score through ``index``, whose
    last bits can differ from the one-sentence product's."""
    model, items = dep_trained
    for sentences in ([tokens for tokens, _ in items], dep_held_out()):
        one = [dep.decode_beam(model, tokens, beam_size=4) for tokens in sentences]
        assert dep_equal(dep.decode_batch(model, sentences, beam_size=4), [t for t, _ in one])
        rounds = dep._rounds(model, sentences, 4)
        assert dep_equal([t for t, _ in rounds], [t for t, _ in one])
        assert max(abs(got - want) for (_, got), (_, want) in zip(rounds, one)) <= 1e-9
    # The beam size defaults to the config's, as in ``decode_beam``.
    sentences = sentences[:3]
    assert dep_equal(dep.decode_batch(model, sentences),
                     [dep.decode_beam(model, tokens)[0] for tokens in sentences])


def test_rst_batch_matches_one_sentence_decode(rst_trained):
    model, items = rst_trained
    for pairs in ([(words, ends) for words, ends, _ in items], rst_held_out()):
        batched = rst.decode_rst_batch(model, pairs)
        assert rst_equal(batched, [rst.decode_rst(model, *pair) for pair in pairs])
        for tree, (_, ends) in zip(batched, pairs):
            tree.validate()
            assert tree.m == len(ends)


def test_dep_batch_counts_rounds_not_sentence_steps(dep_trained, monkeypatch):
    """One encoder call and one k-row decoder fuse and step per round, for
    greedy and beam decoding alike: 2n+1 rounds for the longest sentence."""
    model, items = dep_trained
    sentences = [tokens for tokens, _ in items[:16]]
    calls = {}
    for name, owner in (("encode", model.encoder), ("fuse", model.decoder),
                        ("step", model.decoder)):
        original = getattr(owner, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    rounds = 2 * max(map(len, sentences)) + 1
    for beam_size in (1, 4):
        calls.update(encode=0, fuse=0, step=0)
        dep.decode_batch(model, sentences, beam_size=beam_size)
        assert calls == {"encode": 1, "fuse": rounds, "step": rounds}


def count_decoder_calls(model, monkeypatch) -> dict:
    """Counts of the calls made to ``model.decoder``'s ``fuse`` and
    ``step`` through the instance, where a tracer wraps them."""
    calls = {"fuse": 0, "step": 0}
    for name in calls:
        original = getattr(model.decoder, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(model.decoder, name, counted)
    return calls


def test_one_sentence_decoders_fuse_and_step_once_per_decoder_step(dep_trained, rst_trained,
                                                                   monkeypatch):
    """``decode_greedy``, ``decode_beam`` and ``decode_rst`` call the
    decoder's ``fuse`` and ``step`` once per decoder step: 2n+1 times for
    an n-word sentence, greedy or beam, and once per pointed span (three
    or more EDUs) for a discourse sentence."""
    model, items = dep_trained
    calls = count_decoder_calls(model, monkeypatch)
    for tokens, _ in items[:6]:
        for decode in (dep.decode_greedy, partial(dep.decode_beam, beam_size=4)):
            calls.update(fuse=0, step=0)
            decode(model, tokens)
            steps = 2 * len(tokens) + 1
            assert calls == {"fuse": steps, "step": steps}
    model, items = rst_trained
    calls, total = count_decoder_calls(model, monkeypatch), 0
    for words, ends, _ in items[:6]:
        calls.update(fuse=0, step=0)
        tree = rst.decode_rst(model, words, ends)
        pointed = sum(node.end - node.start >= 2 for node in tree.internal_nodes())
        assert calls == {"fuse": pointed, "step": pointed}
        total += pointed
    assert total > 0


@pytest.mark.parametrize("task", ["dep", "rst"])
def test_one_sentence_batch_runs_the_loop(task, dep_trained, rst_trained, monkeypatch):
    if task == "dep":
        model, items = dep_trained
        module, loop, batch = dep, "decode_greedy", partial(dep.decode_batch, beam_size=1)
        arg = items[5][0]
        args = (arg,)
    else:
        model, items = rst_trained
        module, loop, batch = rst, "decode_rst", rst.decode_rst_batch
        arg = tuple(items[5][:2])
        args = arg
    seen = []
    original = getattr(module, loop)
    monkeypatch.setattr(module, loop, lambda m, *a: seen.append(a) or original(m, *a))
    (tree,) = batch(model, [arg])
    assert seen == [args]
    assert tree == original(model, *args)
    assert batch(model, []) == []


@pytest.mark.parametrize("limit", [1, 12, 40])
def test_chunk_boundaries_keep_input_order(limit, dep_trained, rst_trained, monkeypatch):
    """A lowered ``BATCH_ROWS`` cuts the corpus into consecutive chunks,
    single-sentence ones and ones larger than the limit included; a beam
    counts (n+1) x beam size rows per sentence."""
    dep_model, dep_items = dep_trained
    rst_model, rst_items = rst_trained
    sentences = [tokens for tokens, _ in dep_items[:20]]
    pairs = [(words, ends) for words, ends, _ in rst_items[:20]]
    whole = {beam_size: dep.decode_batch(dep_model, sentences, beam_size=beam_size)
             for beam_size in (1, 3)}
    whole_rst = rst.decode_rst_batch(rst_model, pairs)
    monkeypatch.setattr(dep, "BATCH_ROWS", limit)
    for beam_size in (1, 3):
        chunks = dep._chunks([(len(tokens) + 1) * beam_size for tokens in sentences])
        assert [i for chunk in chunks for i in chunk] == list(range(len(sentences)))
        assert len(chunks) > 1
        assert dep_equal(dep.decode_batch(dep_model, sentences, beam_size=beam_size),
                         whole[beam_size])
    assert rst_equal(rst.decode_rst_batch(rst_model, pairs), whole_rst)


def test_chunks_split_on_rows(monkeypatch):
    monkeypatch.setattr(dep, "BATCH_ROWS", 10)
    assert dep._chunks([4, 6, 1, 12, 3, 3, 3, 2]) == [range(0, 2), range(2, 3), range(3, 4),
                                                       range(4, 7), range(7, 8)]
    assert dep._chunks([]) == []


def forbid_encode(model, monkeypatch):
    def encode(*args, **kwargs):
        raise AssertionError("decoding started before the batch was checked")

    monkeypatch.setattr(model.encoder, "encode", encode)


def test_dep_batch_rejects_bad_sentence_before_decoding(dep_trained, monkeypatch):
    model, items = dep_trained
    good = [tokens for tokens, _ in items[:4]]
    too_long = [Token(f"w{i}") for i in range(model.config.max_len + 1)]
    for bad, error in ((too_long, ConfigError), ([], DataError)):
        with pytest.raises(error) as one:
            dep.decode_greedy(model, bad)
        for beam_size in (1, 4):
            with monkeypatch.context() as patch:
                forbid_encode(model, patch)
                with pytest.raises(error) as batched:
                    dep.decode_batch(model, good + [bad] + good, beam_size=beam_size)
            assert one.type is batched.type is error
    with monkeypatch.context() as patch:
        forbid_encode(model, patch)
        with pytest.raises(ConfigError, match="beam size"):
            dep.decode_batch(model, good, beam_size=0)


def test_rst_batch_rejects_bad_sentence_before_decoding(rst_trained, monkeypatch):
    model, items = rst_trained
    good = [(words, ends) for words, ends, _ in items[:4]]
    too_long = (["w"] * (model.config.max_len + 1), [model.config.max_len + 1])
    for bad, error in ((too_long, ConfigError), (([], [1]), DataError),
                       ((["a", "b", "c"], [2, 1, 3]), SegmentationError),
                       ((["a", "b"], [1]), SegmentationError)):
        with pytest.raises(error) as one:
            rst.decode_rst(model, *bad)
        with monkeypatch.context() as patch:
            forbid_encode(model, patch)
            with pytest.raises(error) as batched:
                rst.decode_rst_batch(model, good + [bad] + good)
        assert one.type is batched.type is error


def test_evaluate_dep_scores_the_per_sentence_trees(dep_trained):
    model, items = dep_trained
    agg = score_dep_corpus([(tokens, gold, dep.decode_greedy(model, tokens))
                            for tokens, gold in items])
    assert dep._evaluate_dep(model, items) == {"uas": agg.uas, "las": agg.las}


def test_evaluate_rst_scores_the_per_sentence_trees(rst_trained):
    model, items = rst_trained
    agg = score_parseval_corpus([(gold, rst.decode_rst(model, words, ends))
                                 for words, ends, gold in items],
                                include_root=model.config.include_root)
    assert rst._evaluate_rst(model, items) == {"span": agg.span_f1,
                                               "nuclearity": agg.nuclearity_f1,
                                               "relation": agg.relation_f1}

