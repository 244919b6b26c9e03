"""Acceptance gate: ten end-to-end properties of the toolkit, one test each.

Each test covers one numbered criterion and prints a PASS line when it
holds; timed criteria assert their own runtime budget.  The overfit
criteria train real models and dominate the suite's wall-clock time.
"""

import time

import numpy as np
import pytest

from ptrparse import autodiff as ad
from ptrparse.autodiff import Tensor, no_grad
from ptrparse.cli import main
from ptrparse.corpus import gen_synthetic_dep, gen_synthetic_rst, segmented_from_texts
from ptrparse.decoder import HierDecoder
from ptrparse.dep import (DepConfig, DepModel, build_dep_vocabs, decode_beam,
                          decode_greedy, forced_decode, run_transition, train_dep)
from ptrparse.metrics import bucket_scores_dep, score_dep, score_dep_corpus, score_parseval
from ptrparse.nn import (Biaffine, BiaffineLabeler, BiRecurrentEncoder, CharCnn,
                         Embedding, GruCell, LstmCell, MlpElu)
from ptrparse.rst import (RstConfig, RstModel, build_rst_vocab, corpus_label_set,
                          decode_rst, run_splits, train_rst)
from ptrparse.rst import forced_decode as forced_decode_rst
from ptrparse.scoring import BiaffinePointer, PairLabeler, dot_attend
from ptrparse.trees import DepTree, DiscTree, Token, internal, leaf

from helpers import check_gradients


def leafy(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


def const(rng, *shape):
    return Tensor(rng.standard_normal(shape))


def dot(c, v):
    return ad.matmul(c, v)


def tiny_dep_config(seed, **overrides):
    base = dict(word_dim=8, pos_dim=4, char_dim=4, char_filters=4, char_window=3,
                encoder_layers=1, encoder_hidden=6, decoder_layers=1, decoder_hidden=8,
                arc_mlp=6, label_mlp=5, variant="pst", fusion="gate",
                embed_dropout=0.0, recurrent_dropout=0.0, layer_dropout=0.0,
                state_dropout=0.0, mlp_dropout=0.0, batch_size=4, seed=seed)
    base.update(overrides)
    return DepConfig(**base).validate()


def dep_model_from_corpus(config, items):
    return DepModel(config, *build_dep_vocabs(items), np.random.default_rng(config.seed))


def test_criterion_01_gradient_correctness():
    """Every layer, the fused decoder step, the pointer, and the classifiers
    agree with central finite differences at three random shapes each."""
    start = time.monotonic()
    checks = 0
    for s in range(3):
        rng = np.random.default_rng(100 + s)

        emb = Embedding(4 + s, 3 + s, rng)
        c1, c2 = const(rng, 3 + s), const(rng, 3 + s)
        check_gradients(lambda: ad.add(dot(c1, emb.lookup(1)),
                                       ad.add(dot(c2, emb.lookup(0)), dot(c1, emb.lookup(1)))),
                        [emb.weight])

        cnn = CharCnn(6, 2 + s, 3 + s, 2, pad_index=0, rng=rng)
        cw = const(rng, 3 + s)
        ids = [1, 3, 2, 4][: 2 + s]
        check_gradients(lambda: dot(cw, cnn(ids)),
                        [p for _, p in cnn.parameters()])

        lstm = LstmCell(3 + s, 2 + s, rng)
        x, h, c = leafy(rng, 3 + s), leafy(rng, 2 + s), leafy(rng, 2 + s)
        ch, cc = const(rng, 2 + s), const(rng, 2 + s)

        def lstm_loss():
            nh, nc = lstm.step(x, h, c)
            return ad.add(dot(ch, nh), dot(cc, nc))

        check_gradients(lstm_loss, [lstm.w_x, lstm.w_h, lstm.bias, x, h, c])

        gru = GruCell(3 + s, 2 + s, rng)
        gx, gh = leafy(rng, 3 + s), leafy(rng, 2 + s)
        check_gradients(lambda: dot(ch, gru.step(gx, gh)),
                        [gru.w_rz, gru.u_rz, gru.b_rz, gru.w_n, gru.u_n, gru.b_n, gx, gh])

        kind = "gru" if s == 1 else "lstm"
        enc = BiRecurrentEncoder(kind, 1, 3 + s, 2 + s, rng)
        seq = [leafy(rng, 3 + s) for _ in range(3)]
        outc = [const(rng, 2 * (2 + s)) for _ in range(3)]

        def encoder_loss():
            states = enc.encode(seq)
            outs = [ad.row(states, t) for t in range(len(seq))]
            acc = dot(outc[0], outs[0])
            for cvec, out in zip(outc[1:], outs[1:]):
                acc = ad.add(acc, dot(cvec, out))
            return acc

        check_gradients(encoder_loss, [p for _, p in enc.parameters()] + seq)

        mlp = MlpElu(3 + s, 2 + s, rng)
        mx = leafy(rng, 3 + s)
        mc = const(rng, 2 + s)
        check_gradients(lambda: dot(mc, mlp(mx)), [mlp.weight, mlp.bias, mx])

        bif = Biaffine(3 + s, 2 + s, rng)
        ba, bb = leafy(rng, 3 + s), leafy(rng, 2 + s)
        rows = leafy(rng, 4, 2 + s)
        rc = const(rng, 4)
        check_gradients(lambda: ad.add(bif.score(ba, bb), dot(rc, bif.score_rows(ba, rows))),
                        [bif.w, bif.u, bif.v, bif.b, ba, bb, rows])

        lab = BiaffineLabeler(3 + s, 2 + s, 4, rng)
        lc = const(rng, 4)
        check_gradients(lambda: dot(lc, lab.scores(ba, bb)),
                        [lab.w, lab.u, lab.v, lab.b])

        for fusion in ("gate", "sgate", "plain"):
            dec = HierDecoder("lstm", 1, 4 + s, 3 + s, "pst", fusion,
                              np.random.default_rng(200 + s), state_dropout=0.0)
            comps = dec.components
            prev = tuple(leafy(rng, 3 + s) for _ in range(comps))
            parent = tuple(leafy(rng, 3 + s) for _ in range(comps))
            sib = tuple(leafy(rng, 3 + s) for _ in range(comps))
            dx = leafy(rng, 4 + s)
            dconsts = [const(rng, 3 + s) for _ in range(comps + 1)]

            def decoder_loss():
                state, top = dec.step(dx, dec.fuse(prev, parent, sib))
                acc = dot(dconsts[0], top)
                for cvec, comp in zip(dconsts[1:], state):
                    acc = ad.add(acc, dot(cvec, comp))
                return acc

            check_gradients(decoder_loss, [p for _, p in dec.parameters()]
                            + list(prev) + list(parent) + list(sib) + [dx])
            checks += 1

        ptr = BiaffinePointer(3 + s, 4 + s, 3, np.random.default_rng(300 + s), dropout=0.0)
        pd = leafy(rng, 3 + s)
        pmat = leafy(rng, 5, 4 + s)
        mask = np.array([False, True, True, False, True])

        def pointer_loss():
            return ptr.attend(pd, ptr.prepare(pmat), mask).nll(2)

        check_gradients(pointer_loss, [p for _, p in ptr.parameters()] + [pd, pmat])

        pl = PairLabeler(3 + s, 4 + s, 3, 4, np.random.default_rng(400 + s), dropout=0.0)
        ll, lr = leafy(rng, 3 + s), leafy(rng, 4 + s)
        check_gradients(lambda: ad.cross_entropy(pl.distribution(ll, lr), 2),
                        [p for _, p in pl.parameters()] + [ll, lr])

        dmat = leafy(rng, 6, 3 + s)
        dd = leafy(rng, 3 + s)
        check_gradients(lambda: dot_attend(dmat, dd, 1, 5, 1).nll(2), [dmat, dd])
        checks += 12

    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"gradient checks took {elapsed:.1f}s"
    print(f"criterion 1 gradient correctness: PASS ({checks} checks, {elapsed:.1f}s)")


def test_criterion_02_decode_validity_fuzz():
    """1000 random sentences and 1000 random EDU sequences under random
    parameters always decode to valid trees, within the pointer budget."""
    start = time.monotonic()
    forms = [f"w{i}" for i in range(60)]
    pos_tags = ["N", "V", "A", "X"]
    rng = np.random.default_rng(7)

    for block in range(10):
        seed = 50 + block
        corpus = gen_synthetic_dep(seed, 12, max_len=8, vocab_size=40, label_count=5)
        variant = ("p", "ps", "pst")[block % 3]
        fusion = ("gate", "sgate", "plain")[block % 3]
        model = dep_model_from_corpus(tiny_dep_config(seed, variant=variant, fusion=fusion),
                                      corpus)
        for _ in range(100):
            n = int(rng.integers(1, 16))
            tokens = [Token(str(rng.choice(forms)), str(rng.choice(pos_tags)))
                      for _ in range(n)]
            with no_grad():
                result = run_transition(model, tokens)
            DepTree(result.heads, result.labels).validate()
            assert result.pointer_calls <= 2 * n, \
                f"{result.pointer_calls} pointer calls for n={n}"

    for block in range(10):
        seed = 70 + block
        items = [segmented_from_texts(texts) + (tree,)
                 for texts, tree in gen_synthetic_rst(seed, 12, max_edus=6, label_count=5)]
        config = RstConfig(word_dim=8, encoder_hidden=6, encoder_layers=1, decoder_layers=1,
                           rel_mlp=6, variant=("p", "ps", "pst")[block % 3],
                           fusion=("gate", "sgate", "plain")[block % 3],
                           embed_dropout=0.0, encoder_dropout=0.0, decoder_dropout=0.0,
                           classifier_dropout=0.0, l2=0.0, seed=seed).validate()
        model = RstModel(config, build_rst_vocab(items), corpus_label_set(items),
                         np.random.default_rng(seed))
        for _ in range(100):
            m = int(rng.integers(1, 13))
            sizes = rng.integers(1, 4, size=m)
            words = [str(rng.choice(forms)) for _ in range(int(sizes.sum()))]
            ends = [int(e) for e in np.cumsum(sizes)]
            tree = decode_rst(model, words, ends)
            tree.validate()
            assert tree.m == m

    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"fuzz took {elapsed:.1f}s"
    print(f"criterion 2 decode validity fuzz: PASS (2000 decodes, {elapsed:.1f}s)")


@pytest.mark.slow
def test_criterion_03_dependency_overfit():
    """A 64-sentence synthetic treebank is memorized to UAS >= 99 and
    LAS >= 98 within 200 epochs on one core."""
    start = time.monotonic()
    items = gen_synthetic_dep(7, 64, max_len=12, vocab_size=200, label_count=8)
    config = DepConfig(variant="pst", fusion="sgate", encoder_hidden=64,
                       decoder_hidden=64, arc_mlp=64, label_mlp=16, batch_size=8,
                       epochs=200, seed=7, target_uas=99.0, target_las=98.0)
    model, history = train_dep(items, config)
    last = history[-1]
    elapsed = time.monotonic() - start
    assert last["epoch"] <= 200
    assert last["uas"] >= 99.0, f"train UAS {last['uas']:.2f} < 99"
    assert last["las"] >= 98.0, f"train LAS {last['las']:.2f} < 98"
    assert elapsed < 600.0, f"dependency overfit took {elapsed:.1f}s"
    print(f"criterion 3 dependency overfit: PASS (epoch {last['epoch']}, "
          f"UAS {last['uas']:.2f}, LAS {last['las']:.2f}, {elapsed:.0f}s)")


@pytest.mark.slow
def test_criterion_04_discourse_overfit():
    """A 64-tree synthetic discourse corpus is memorized to Span = 100 and
    Relation >= 99 within 300 epochs under the plain fusion."""
    start = time.monotonic()
    items = [segmented_from_texts(texts) + (tree,)
             for texts, tree in gen_synthetic_rst(7, 64, max_edus=8, label_count=8)]
    config = RstConfig(word_dim=64, encoder_hidden=64, encoder_layers=2,
                       decoder_layers=2, rel_mlp=64, fusion="plain",
                       embed_dropout=0.0, encoder_dropout=0.0, decoder_dropout=0.0,
                       classifier_dropout=0.0, l2=0.0, batch_size=8, epochs=300,
                       seed=7, target_span=100.0, target_relation=99.0)
    outcome = train_rst(items, config)
    last = outcome.history[-1]
    elapsed = time.monotonic() - start
    assert last["epoch"] <= 300
    assert last["span"] == 100.0, f"train Span {last['span']:.2f} != 100"
    assert last["relation"] >= 99.0, f"train Relation {last['relation']:.2f} < 99"
    assert elapsed < 600.0, f"discourse overfit took {elapsed:.1f}s"
    print(f"criterion 4 discourse overfit: PASS (epoch {last['epoch']}, "
          f"Span {last['span']:.2f}, Relation {last['relation']:.2f}, {elapsed:.0f}s)")


def states_equal(a, b):
    return all(np.array_equal(x.data, y.data) for x, y in zip(a, b))


def test_criterion_05_variant_nesting():
    """With the sibling and temporal weights and states zeroed, the richer
    decoder variants reproduce the parent-only variant bit for bit."""
    agreements = 0
    for trial in range(100):
        rng = np.random.default_rng(1000 + trial)
        fusion = ("gate", "sgate", "plain")[trial % 3]
        layers = 1 + (trial % 2)
        hidden = 3 + (trial % 3)
        in_dim = 4 + (trial % 2)
        seed = 2000 + trial
        decoders = {v: HierDecoder("lstm", layers, in_dim, hidden, v, fusion,
                                   np.random.default_rng(seed), state_dropout=0.0)
                    for v in ("p", "ps", "pst")}
        comps = decoders["p"].components
        zero_weights = trial % 2 == 1
        if zero_weights:
            for dec in decoders.values():
                for w in (dec.w_d, dec.w_s, dec.w_gd, dec.w_gs):
                    w.data[...] = 0.0

        prev = tuple(Tensor(rng.standard_normal(hidden)) for _ in range(comps))
        parent = tuple(Tensor(rng.standard_normal(hidden)) for _ in range(comps))
        sib = tuple(Tensor(rng.standard_normal(hidden)) for _ in range(comps))
        x = Tensor(rng.standard_normal(in_dim))
        zeros = decoders["pst"].zero_state()

        state_p, top_p = decoders["p"].step(x, decoders["p"].fuse(prev, parent, sib))
        if zero_weights:
            ps_args = (prev, parent, sib)
            pst_args = (zeros, parent, sib)
        else:
            ps_args = (prev, parent, None)
            pst_args = (zeros, parent, None)
        state_ps, top_ps = decoders["ps"].step(x, decoders["ps"].fuse(*ps_args))
        state_pst, top_pst = decoders["pst"].step(x, decoders["pst"].fuse(*pst_args))

        assert states_equal(state_p, state_ps) and np.array_equal(top_p.data, top_ps.data)
        assert states_equal(state_p, state_pst) and np.array_equal(top_p.data, top_pst.data)
        agreements += 1
    print(f"criterion 5 variant nesting: PASS ({agreements} bit-identical steps)")


def elu_np(x):
    return np.where(x > 0, x, np.expm1(np.minimum(x, 0.0)))


def exhaustive_best(model, tokens):
    """Enumerate every legal decision sequence of the transition system with
    frontier-batched numpy math; returns (heads, log_prob, runner_up_margin).

    Valid only for variant "p" with plain fusion and one decoder layer: the
    fused state then depends on the stored parent snapshot alone, so each
    hypothesis carries only its stack, attachment set, and state row.
    """
    config = model.config
    assert (config.variant, config.fusion, config.decoder_layers) == ("p", "plain", 1)
    n = len(tokens)
    with no_grad():
        encoded = model.encoder.encode(tokens)
        prepared = model.pointer.prepare(encoded)
    S = encoded.data
    R = prepared.data
    S_ext = np.vstack([S, np.zeros_like(S[0])])

    dec = model.decoder
    Wp = dec.w_p.data
    cell = dec.cells[0]
    Wx, Wh, b = cell.w_x.data, cell.w_h.data, cell.bias.data
    h_dim = cell.hidden_dim
    W1, b1 = model.pointer.g1.weight.data, model.pointer.g1.bias.data
    Wb = model.pointer.biaffine.w.data
    u, v = model.pointer.biaffine.u.data, model.pointer.biaffine.v.data
    b0 = model.pointer.biaffine.b.data

    # frame: (element, parent index, sibling index, state-pool row); -1 = absent
    stacks = [((0, -1, -1, -1),)]
    attached = [tuple([True] + [False] * n)]
    heads = [(-1,) * (n + 1)]
    lps = np.zeros(1)
    pool_h = [np.zeros((1, h_dim))]
    pool_c = [np.zeros((1, h_dim))]
    pool_size = 1

    for _ in range(2 * n + 1):
        k = len(stacks)
        top = np.array([s[-1] for s in stacks])
        el, par, sib, prow = top[:, 0], top[:, 1], top[:, 2], top[:, 3]
        X = S_ext[el] + S_ext[par] + S_ext[sib]
        all_h, all_c = np.vstack(pool_h), np.vstack(pool_c)
        has_parent = (prow >= 0)[:, None]
        PH = np.where(has_parent, all_h[np.maximum(prow, 0)], 0.0)
        PC = np.where(has_parent, all_c[np.maximum(prow, 0)], 0.0)
        fused_h = np.tanh(PH @ Wp.T)
        fused_c = np.tanh(PC @ Wp.T)
        pre = X @ Wx.T + fused_h @ Wh.T + b
        i_g = 1.0 / (1.0 + np.exp(-pre[:, :h_dim]))
        f_g = 1.0 / (1.0 + np.exp(-pre[:, h_dim:2 * h_dim]))
        g_g = np.tanh(pre[:, 2 * h_dim:3 * h_dim])
        o_g = 1.0 / (1.0 + np.exp(-pre[:, 3 * h_dim:]))
        C = f_g * fused_c + i_g * g_g
        H = o_g * np.tanh(C)
        pool_h.append(H)
        pool_c.append(C)
        base_row = pool_size
        pool_size += k

        att = np.array(attached)
        mask = ~att
        mask[:, 0] = False
        root_rows = el == 0
        mask[root_rows, 0] = ~mask[root_rows, 1:].any(axis=1)
        nonroot = np.flatnonzero(~root_rows)
        mask[nonroot, el[nonroot]] = True

        A = elu_np(H @ W1 + b1)
        scores = (A @ Wb) @ R.T + (A @ u)[:, None] + (R @ v)[None, :] + b0
        mx = np.where(mask, scores, -np.inf).max(axis=1)
        expd = np.where(mask, np.exp(np.where(mask, scores - mx[:, None], 0.0)), 0.0)
        probs = expd / expd.sum(axis=1, keepdims=True)
        with np.errstate(divide="ignore"):
            lsteps = np.where(mask, np.log(np.where(mask, probs, 1.0)), -np.inf)

        new_stacks, new_attached, new_heads, new_lps = [], [], [], []
        for i in range(k):
            cands = np.flatnonzero(mask[i])
            stack, att_i, heads_i = stacks[i], attached[i], heads[i]
            element = int(el[i])
            frame, rest = stack[-1], stack[:-1]
            forced = len(cands) == 1
            for c in cands:
                c = int(c)
                new_lps.append(lps[i] if forced else lps[i] + lsteps[i, c])
                if c == element:
                    new_stacks.append(rest)
                    new_attached.append(att_i)
                    new_heads.append(heads_i)
                else:
                    updated = (frame[0], frame[1], c, frame[3])
                    child = (c, element, -1, base_row + i)
                    new_stacks.append(rest + (updated, child))
                    a = list(att_i)
                    a[c] = True
                    new_attached.append(tuple(a))
                    h = list(heads_i)
                    h[c] = element
                    new_heads.append(tuple(h))
        stacks, attached, heads = new_stacks, new_attached, new_heads
        lps = np.array(new_lps)

    assert all(len(s) == 0 for s in stacks)
    order = np.argsort(-lps)
    margin = float(lps[order[0]] - lps[order[1]]) if len(lps) > 1 else np.inf
    return list(heads[order[0]][1:]), float(lps[order[0]]), margin


def test_criterion_06_beam_oracle():
    """Beam-10 matches exhaustive enumeration on 6-word sentences, and
    beam-1 reproduces greedy decoding bit for bit."""
    items = gen_synthetic_dep(13, 24, max_len=8, vocab_size=30, label_count=5)
    config = tiny_dep_config(13, word_dim=8, encoder_hidden=5, arc_mlp=7,
                             variant="p", fusion="plain", batch_size=8, epochs=40)
    model, _ = train_dep(items, config)
    forms = sorted({t.form for tokens, _ in items for t in tokens})
    rng = np.random.default_rng(99)

    for trial in range(50):
        tokens = [Token(str(w), "N") for w in rng.choice(forms, size=6)]
        beam_tree, beam_lp = decode_beam(model, tokens, beam_size=10)
        best_heads, best_lp, margin = exhaustive_best(model, tokens)
        assert beam_tree.heads == best_heads, \
            f"trial {trial}: beam {beam_tree.heads} vs exhaustive {best_heads}"
        assert abs(beam_lp - best_lp) < 1e-9
        assert margin > 1e-9

    greedy_checked = 0
    for trial in range(80):
        n = 6 if trial < 50 else int(rng.integers(1, 10))
        tokens = [Token(str(w), "N") for w in rng.choice(forms, size=n)]
        beam_tree, beam_lp = decode_beam(model, tokens, beam_size=1)
        greedy_tree = decode_greedy(model, tokens)
        assert beam_tree == greedy_tree
        with no_grad():
            rerun = run_transition(model, tokens)
        assert DepTree(rerun.heads, rerun.labels) == greedy_tree
        assert beam_lp == -rerun.structure_loss.item()
        greedy_checked += 1

    print(f"criterion 6 beam oracle: PASS (50 exhaustive matches, "
          f"{greedy_checked} greedy identities)")


def test_criterion_07_forced_decode_consistency():
    """The teacher-forced structure loss is the exact negative of the forced
    decode log-probability, and an overfit model reproduces its training
    set under greedy decoding."""
    items = gen_synthetic_dep(17, 12, max_len=7, vocab_size=30, label_count=5)
    model = dep_model_from_corpus(tiny_dep_config(17), items)
    rng = np.random.default_rng(3)
    for tokens, tree in items:
        result = run_transition(model, tokens, gold=tree, training=True, rng=rng)
        assert result.structure_loss.item() == -forced_decode(model, tokens, tree)

    rst_items = [segmented_from_texts(texts) + (tree,)
                 for texts, tree in gen_synthetic_rst(19, 8, max_edus=6, label_count=4)]
    rst_config = RstConfig(word_dim=8, encoder_hidden=6, encoder_layers=1,
                           decoder_layers=1, rel_mlp=6, embed_dropout=0.0,
                           encoder_dropout=0.0, decoder_dropout=0.0,
                           classifier_dropout=0.0, l2=0.0, seed=19).validate()
    rst_model = RstModel(rst_config, build_rst_vocab(rst_items),
                         corpus_label_set(rst_items), np.random.default_rng(19))
    for words, ends, tree in rst_items:
        result = run_splits(rst_model, words, ends, gold=tree, training=True, rng=rng)
        assert result.structure_loss.item() == -forced_decode_rst(rst_model, words,
                                                                  ends, tree)

    overfit_items = gen_synthetic_dep(23, 8, max_len=6, vocab_size=30, label_count=4)
    overfit_config = tiny_dep_config(23, word_dim=12, pos_dim=6, char_dim=6,
                                     char_filters=8, encoder_hidden=16,
                                     decoder_hidden=16, arc_mlp=16, label_mlp=8,
                                     variant="ps", fusion="gate", epochs=150,
                                     target_uas=100.0, target_las=100.0)
    overfit_model, history = train_dep(overfit_items, overfit_config)
    for tokens, tree in overfit_items:
        assert decode_greedy(overfit_model, tokens) == tree
    print(f"criterion 7 forced-decode consistency: PASS (20 exact losses, "
          f"overfit to gold at epoch {history[-1]['epoch']})")


def test_criterion_08_quadratic_scaling():
    """Total attention-score evaluations grow quadratically: doubling the
    sentence length multiplies them by 4 within a +-20% band."""
    corpus = gen_synthetic_dep(21, 24, max_len=8, vocab_size=30, label_count=5)
    model = dep_model_from_corpus(tiny_dep_config(21, variant="p", fusion="plain",
                                                  word_dim=8, encoder_hidden=5,
                                                  arc_mlp=7), corpus)
    forms = sorted({t.form for tokens, _ in corpus for t in tokens})
    averages = {}
    for n in (10, 20, 40):
        total = 0
        for s in range(30):
            rng = np.random.default_rng(1000 + 31 * n + s)
            tokens = [Token(str(w), "N") for w in rng.choice(forms, size=n)]
            with no_grad():
                total += run_transition(model, tokens).score_evaluations
        averages[n] = total / 30
    first = averages[20] / averages[10]
    second = averages[40] / averages[20]
    assert 3.2 <= first <= 4.8, f"10->20 ratio {first:.2f} outside [3.2, 4.8]"
    assert 3.2 <= second <= 4.8, f"20->40 ratio {second:.2f} outside [3.2, 4.8]"
    print(f"criterion 8 quadratic scaling: PASS (ratios {first:.2f}, {second:.2f})")


def test_criterion_09_metrics_oracles():
    """Attachment and Parseval scorers reproduce hand-computed examples, and
    bucketed reports equal filter-and-rescore recomputation."""
    tokens = [Token(f"t{i}", "N") for i in range(10)]
    gold = DepTree([0] + list(range(1, 10)), [f"r{i}" for i in range(10)])
    wrong = list(gold.heads)
    wrong[5] = 0
    pred = DepTree(wrong, list(gold.labels))
    assert score_dep(tokens, gold, pred).uas == 90.0

    gold_disc = internal(internal(leaf(1), leaf(2), "NS", "Elab"), leaf(3), "NS", "Elab")
    pred_disc = internal(leaf(1), internal(leaf(2), leaf(3), "NS", "Elab"), "NS", "Elab")
    parseval = score_parseval(DiscTree(gold_disc).validate(), DiscTree(pred_disc).validate())
    assert parseval.span_f1 == 50.0

    corpus = gen_synthetic_dep(29, 40, max_len=25, vocab_size=50, label_count=5)
    model = dep_model_from_corpus(tiny_dep_config(29, max_len=64), corpus)
    triples = [(toks, tree, decode_greedy(model, toks)) for toks, tree in corpus]
    rows = bucket_scores_dep(triples, width=5)
    assert sum(row.count for row in rows) == len(triples)
    for row in rows:
        members = [t for t in triples if row.low <= len(t[0]) <= row.high]
        again = score_dep_corpus(members)
        assert row.count == len(members)
        assert row.score.uas == again.uas and row.score.las == again.las
    print(f"criterion 9 metrics oracles: PASS (UAS 90.0, Span F1 50.0, "
          f"{len(rows)} buckets re-derived)")


DEP_RUN_CFG = """\
word_dim=6
pos_dim=4
char_dim=4
char_filters=5
char_window=3
encoder_layers=1
encoder_hidden=8
decoder_layers=1
decoder_hidden=8
arc_mlp=8
label_mlp=6
embed_dropout=0.1
recurrent_dropout=0.1
layer_dropout=0.1
state_dropout=0.1
mlp_dropout=0.1
batch_size=4
epochs=3
seed=3
"""

RST_RUN_CFG = """\
word_dim=6
encoder_hidden=4
encoder_layers=1
decoder_layers=1
rel_mlp=6
embed_dropout=0.1
encoder_dropout=0.1
decoder_dropout=0.1
classifier_dropout=0.1
batch_size=4
epochs=3
seed=5
"""


def test_criterion_10_training_determinism(tmp_path):
    """Two training runs with the same configuration and seed write
    byte-identical logs and checkpoints, dropout included."""
    dep_data = tmp_path / "dep.conllu"
    assert main(["gen-data", "--kind", "dep", "--seed", "3", "--count", "8",
                 "--max-len", "6", "--vocab-size", "30", "--labels", "4",
                 "--out", str(dep_data)]) == 0
    dep_cfg = tmp_path / "dep.cfg"
    dep_cfg.write_text(DEP_RUN_CFG)
    for run in ("a", "b"):
        assert main(["train", "--task", "dep", "--train", str(dep_data),
                     "--out", str(tmp_path / f"dep_{run}"),
                     "--config", str(dep_cfg)]) == 0
    for name in ("train.log", "config.resolved", "checkpoint.ptp"):
        assert (tmp_path / "dep_a" / name).read_bytes() \
            == (tmp_path / "dep_b" / name).read_bytes(), f"dep {name} differs"

    rst_data = tmp_path / "rst.brackets"
    assert main(["gen-data", "--kind", "rst", "--seed", "5", "--count", "8",
                 "--max-edus", "5", "--labels", "4", "--out", str(rst_data)]) == 0
    rst_cfg = tmp_path / "rst.cfg"
    rst_cfg.write_text(RST_RUN_CFG)
    for run in ("a", "b"):
        assert main(["train", "--task", "rst", "--train", str(rst_data),
                     "--out", str(tmp_path / f"rst_{run}"),
                     "--config", str(rst_cfg)]) == 0
    for name in ("train.log", "config.resolved", "checkpoint-span.ptp",
                 "checkpoint-relation.ptp"):
        assert (tmp_path / "rst_a" / name).read_bytes() \
            == (tmp_path / "rst_b" / name).read_bytes(), f"rst {name} differs"
    print("criterion 10 training determinism: PASS (both tasks byte-identical)")
