"""Hierarchical decoder tests: fusion math against scalar oracles, variant
nesting, and the recurrent step."""

import numpy as np
import pytest

from ptrparse import autodiff as ad
from ptrparse.autodiff import Tensor
from ptrparse.decoder import FUSIONS, VARIANTS, HierDecoder
from ptrparse.errors import ConfigError

from helpers import check_gradients, lstm_cell_three_logistics, weighted

RNG = np.random.default_rng(20240813)


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def make_decoder(variant="pst", fusion="gate", cell="lstm", layers=1, hidden=4,
                 input_dim=6, seed=0):
    return HierDecoder(cell, layers, input_dim, hidden, variant, fusion,
                       np.random.default_rng(seed))


def random_state(dec, rng):
    return tuple(Tensor(rng.standard_normal(dec.hidden_dim)) for _ in range(dec.components))


def test_variant_fusion_constants():
    assert VARIANTS == ("p", "ps", "pst")
    assert FUSIONS == ("gate", "sgate", "plain")


def test_constructor_validation():
    with pytest.raises(ConfigError):
        make_decoder(variant="x")
    with pytest.raises(ConfigError):
        make_decoder(fusion="x")
    with pytest.raises(ConfigError):
        HierDecoder("rnn", 1, 4, 4, "p", "plain", np.random.default_rng(0))
    with pytest.raises(ConfigError):
        HierDecoder("lstm", 0, 4, 4, "p", "plain", np.random.default_rng(0))


def test_zero_state_shape():
    dec = make_decoder(cell="lstm", layers=2)
    assert dec.components == 4
    assert all(np.array_equal(s.data, np.zeros(4)) for s in dec.zero_state())
    gru = make_decoder(cell="gru", layers=2)
    assert gru.components == 2


def test_components_dimension_per_cell():
    assert make_decoder(cell="lstm", layers=3).components == 6
    assert make_decoder(cell="gru", layers=3).components == 3


def scalar_decoder(fusion):
    """Hidden size 1 so the fusion math can be checked by hand."""
    dec = HierDecoder("gru", 1, 2, 1, "pst", fusion, np.random.default_rng(3))
    dec.w_d.data[:] = [[0.5]]
    dec.w_p.data[:] = [[-0.25]]
    dec.w_s.data[:] = [[2.0]]
    dec.w_gd.data[:] = [[1.5]]
    dec.w_gp.data[:] = [[-1.0]]
    dec.w_gs.data[:] = [[0.75]]
    dec.b_g.data[:] = [0.1]
    return dec


def test_fuse_gate_scalar_oracle():
    dec = scalar_decoder("gate")
    prev, par, sib = 0.3, -0.7, 0.9
    fused = dec.fuse((Tensor(np.array([prev])),), (Tensor(np.array([par])),),
                     (Tensor(np.array([sib])),))
    combined = np.tanh(0.5 * prev + (-0.25) * par + 2.0 * sib)
    gate = sigmoid(1.5 * prev + (-1.0) * par + 0.75 * sib + 0.1)
    assert fused[0].data[0] == pytest.approx(gate * combined, abs=1e-15)


def test_fuse_sgate_scalar_oracle():
    dec = scalar_decoder("sgate")
    prev, par, sib = 0.3, -0.7, 0.9
    fused = dec.fuse((Tensor(np.array([prev])),), (Tensor(np.array([par])),),
                     (Tensor(np.array([sib])),))
    combined = np.tanh(0.5 * prev + (-0.25) * par + 2.0 * sib)
    gate = sigmoid((-1.0) * (prev * par) + 0.75 * (prev * sib) + 0.1)
    assert fused[0].data[0] == pytest.approx(gate * combined, abs=1e-15)


def test_fuse_plain_scalar_oracle_ignores_gate_weights():
    dec = scalar_decoder("plain")
    prev, par, sib = 0.3, -0.7, 0.9
    fused = dec.fuse((Tensor(np.array([prev])),), (Tensor(np.array([par])),),
                     (Tensor(np.array([sib])),))
    combined = np.tanh(0.5 * prev + (-0.25) * par + 2.0 * sib)
    assert fused[0].data[0] == pytest.approx(combined, abs=1e-15)
    dec.w_gd.data[:] = 99.0
    again = dec.fuse((Tensor(np.array([prev])),), (Tensor(np.array([par])),),
                     (Tensor(np.array([sib])),))
    assert again[0].data[0] == fused[0].data[0]


def copy_weights(src, dst):
    for (name, a), (_, b) in zip(src.parameters(), dst.parameters()):
        b.data[:] = a.data


def test_variant_p_ignores_sibling_and_prev():
    base = make_decoder(variant="p", seed=5)
    rng = np.random.default_rng(0)
    parent = random_state(base, rng)
    sib_a = random_state(base, rng)
    sib_b = random_state(base, rng)
    prev_a = random_state(base, rng)
    prev_b = random_state(base, rng)
    one = base.fuse(prev_a, parent, sib_a)
    two = base.fuse(prev_b, parent, sib_b)
    for x, y in zip(one, two):
        assert np.array_equal(x.data, y.data)


def test_variant_ps_ignores_prev_only():
    dec = make_decoder(variant="ps", seed=5)
    rng = np.random.default_rng(1)
    parent = random_state(dec, rng)
    sib = random_state(dec, rng)
    one = dec.fuse(random_state(dec, rng), parent, sib)
    two = dec.fuse(random_state(dec, rng), parent, sib)
    for x, y in zip(one, two):
        assert np.array_equal(x.data, y.data)
    other_sib = dec.fuse(random_state(dec, rng), parent, random_state(dec, rng))
    assert any(not np.array_equal(x.data, y.data) for x, y in zip(one, other_sib))


def test_variant_nesting_bit_identical():
    # With the dropped inputs actually zero, wider variants reproduce the
    # narrower ones exactly, bit for bit.
    p = make_decoder(variant="p", seed=6)
    ps = make_decoder(variant="ps", seed=99)
    pst = make_decoder(variant="pst", seed=100)
    copy_weights(p, ps)
    copy_weights(p, pst)
    rng = np.random.default_rng(2)
    for _ in range(20):
        parent = random_state(p, rng)
        anything = random_state(p, rng)
        from_p = p.fuse(anything, parent, random_state(p, rng))
        from_ps = ps.fuse(anything, parent, None)
        from_pst = pst.fuse(p.zero_state(), parent, None)
        for a, b in zip(from_p, from_ps):
            assert np.array_equal(a.data, b.data)
        for a, b in zip(from_p, from_pst):
            assert np.array_equal(a.data, b.data)


def test_fuse_absent_parent_uses_zeros():
    dec = make_decoder(variant="pst", fusion="plain", seed=7)
    rng = np.random.default_rng(3)
    prev = random_state(dec, rng)
    explicit = dec.fuse(prev, dec.zero_state(), None)
    implicit = dec.fuse(prev, None, None)
    for a, b in zip(explicit, implicit):
        assert np.array_equal(a.data, b.data)


def test_step_runs_cell_stack_from_fused_state():
    dec = make_decoder(cell="lstm", layers=2, seed=8)
    rng = np.random.default_rng(4)
    fused = random_state(dec, rng)
    x = Tensor(rng.standard_normal(6))
    state, top = dec.step(x, fused)
    assert len(state) == 4
    h0, c0 = dec.cells[0].step(x, fused[0], fused[1])
    assert np.array_equal(state[0].data, h0.data)
    assert np.array_equal(state[1].data, c0.data)
    h1, c1 = dec.cells[1].step(h0, fused[2], fused[3])
    assert np.array_equal(state[2].data, h1.data)
    assert np.array_equal(top.data, h1.data)


def test_step_gru_state_layout():
    dec = make_decoder(cell="gru", layers=2, seed=9)
    rng = np.random.default_rng(5)
    fused = random_state(dec, rng)
    x = Tensor(rng.standard_normal(6))
    state, top = dec.step(x, fused)
    assert len(state) == 2
    assert np.array_equal(top.data, state[1].data)


def test_fusion_weights_shared_across_components():
    # Two components with identical inputs fuse to identical outputs.
    dec = make_decoder(cell="lstm", layers=1, variant="pst", fusion="sgate", seed=10)
    rng = np.random.default_rng(6)
    v = Tensor(rng.standard_normal(4))
    w = Tensor(rng.standard_normal(4))
    u = Tensor(rng.standard_normal(4))
    fused = dec.fuse((v, v), (w, w), (u, u))
    assert np.array_equal(fused[0].data, fused[1].data)


def test_state_dropout_training_only():
    dec = HierDecoder("lstm", 1, 6, 4, "pst", "gate", np.random.default_rng(11),
                      state_dropout=0.5)
    rng = np.random.default_rng(7)
    prev, par, sib = (random_state(dec, rng) for _ in range(3))
    a = dec.fuse(prev, par, sib)
    b = dec.fuse(prev, par, sib)
    for x, y in zip(a, b):
        assert np.array_equal(x.data, y.data)
    c = dec.fuse(prev, par, sib, training=True, rng=np.random.default_rng(8))
    assert any((x.data == 0.0).any() for x in c)


def test_fused_step_gradients():
    for fusion in FUSIONS:
        dec = HierDecoder("lstm", 1, 5, 3, "pst", fusion, np.random.default_rng(12))
        rng = np.random.default_rng(9)
        prev = tuple(Tensor(rng.standard_normal(3), requires_grad=True) for _ in range(2))
        par = tuple(Tensor(rng.standard_normal(3), requires_grad=True) for _ in range(2))
        sib = tuple(Tensor(rng.standard_normal(3), requires_grad=True) for _ in range(2))
        x = Tensor(rng.standard_normal(5), requires_grad=True)
        tensors = [p for _, p in dec.parameters()] + list(prev + par + sib) + [x]

        def loss():
            fused = dec.fuse(prev, par, sib)
            state, top = dec.step(x, fused)
            return weighted(ad.hconcat([top, state[1]]))

        check_gradients(loss, tensors)


def assert_rows_match(got_rows, want_vectors, exact):
    """Row i of every matrix equals the matching vector, bit for bit or to 1e-12."""
    for got, want in zip(got_rows, want_vectors, strict=True):
        if exact:
            assert np.array_equal(got, want)
        else:
            assert np.abs(got - want).max() <= 1e-12


@pytest.mark.parametrize("cell", ["lstm", "gru"])
@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("fusion", FUSIONS)
def test_fuse_and_step_row_form_match_vector_form(cell, variant, fusion):
    # k states as rows give, row by row, what k single-state calls give:
    # bit for bit with one row, to rounding with several.  A zero row is
    # the row form of an absent (None) parent or sibling.
    dec = make_decoder(variant, fusion, cell=cell, layers=2, hidden=5, input_dim=6, seed=4)
    rng = np.random.default_rng(5)
    for k, absent in ((1, None), (1, 0), (3, 1)):
        prev, parent, sibling = ([rng.standard_normal((k, 5)) for _ in range(dec.components)]
                                 for _ in range(3))
        for component in parent + sibling if absent is not None else ():
            component[absent] = 0.0
        x = rng.standard_normal((k, 6))
        fused = dec.fuse(tuple(map(Tensor, prev)), tuple(map(Tensor, parent)),
                         tuple(map(Tensor, sibling)))
        state, top = dec.step(Tensor(x), fused)
        for i in range(k):
            def vectors(components):
                return None if i == absent else tuple(Tensor(c[i]) for c in components)
            want_fused = dec.fuse(tuple(Tensor(c[i]) for c in prev), vectors(parent),
                                  vectors(sibling))
            want_state, want_top = dec.step(Tensor(x[i]), want_fused)
            assert_rows_match([t.data[i] for t in fused + state + (top,)],
                              [t.data for t in want_fused + want_state + (want_top,)],
                              exact=k == 1)


def reference_round(dec, prev, parent, sibling, x):
    """One decoding round as the decoder ran it before state blocks, on
    arrays: one fusion per state component (vectors for one state,
    contiguous (k, hidden) matrices for k rows), then one cell step per
    layer with one logistic call per LSTM gate.  Returns the fused
    components, the new state's components and the top hidden state."""
    weights = tuple(t.data for t in (dec.w_d, dec.w_p, dec.w_s, dec.w_gd, dec.w_gp, dec.w_gs,
                                     dec.b_g))
    zero = np.zeros(dec.hidden_dim)

    def components(block, used=True):
        if block is None or not used:
            return [zero] * dec.components
        return [np.ascontiguousarray(block[..., i, :]) for i in range(dec.components)]

    fused = [ad._fuse(p, q, s, weights, dec.fusion)[0]
             for p, q, s in zip(components(prev, dec.variant == "pst"), components(parent),
                                components(sibling, dec.variant != "p"))]
    state, inp = [], x
    for layer, cell in enumerate(dec.cells):
        if dec.cell == "lstm":
            xw = ad._linear(cell.w_x.data, inp) + cell.bias.data
            h, c, _ = lstm_cell_three_logistics(xw, cell.w_h.data, fused[2 * layer],
                                                fused[2 * layer + 1])
            state += [h, c]
        else:
            x_rz = ad._linear(cell.w_rz.data, inp) + cell.b_rz.data
            x_n = ad._linear(cell.w_n.data, inp) + cell.b_n.data
            h, _ = ad._gru_cell(x_rz, x_n, cell.u_rz.data, cell.u_n.data, fused[layer], None)
            state.append(h)
        inp = h
    return fused, state, inp


@pytest.mark.parametrize("layers", [1, 2])
@pytest.mark.parametrize("cell", ["lstm", "gru"])
@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("fusion", FUSIONS)
def test_block_round_matches_per_component_round_bit_for_bit(fusion, variant, cell, layers):
    # Blocks read from a state bank, as the decoders read them: one state
    # (components, hidden) and k states (k, components, hidden), with the
    # zero row among them and an absent (None) parent or sibling.
    hidden, k = 16, 5
    dec = make_decoder(variant, fusion, cell=cell, layers=layers, hidden=hidden, input_dim=7,
                       seed=21)
    rng = np.random.default_rng(22)
    bank = rng.standard_normal((9, dec.components, hidden))
    bank[0] = 0.0
    cases = [(bank[3], bank[1], bank[2], rng.standard_normal(7)),
             (bank[4], bank[0], bank[0], rng.standard_normal(7)),
             (bank[5], None, bank[2], rng.standard_normal(7)),
             (bank[5], bank[3], None, rng.standard_normal(7))]
    rows = rng.integers(0, len(bank), (3, k))
    rows[1:, 0] = 0
    cases.append((*bank[rows], rng.standard_normal((k, 7))))
    for prev, parent, sibling, x in cases:
        fused = dec.fuse(*(None if b is None else Tensor(b) for b in (prev, parent, sibling)))
        state, top = dec.step(Tensor(x), fused)
        want_fused, want_state, want_top = reference_round(dec, prev, parent, sibling, x)
        assert fused.data.shape == state.data.shape == prev.shape
        assert np.array_equal(fused.data, np.stack(want_fused, axis=-2))
        assert np.array_equal(state.data, np.stack(want_state, axis=-2))
        assert np.array_equal(top.data, want_top)


def test_tuple_form_is_the_block_form():
    # The tuple API joins components into a block and splits the results.
    dec = make_decoder("pst", "sgate", cell="lstm", layers=2, hidden=4, seed=23)
    rng = np.random.default_rng(24)
    prev, parent, sibling = (rng.standard_normal((3, dec.components, 4)) for _ in range(3))
    x = Tensor(rng.standard_normal((3, 6)))
    block = dec.fuse(Tensor(prev), Tensor(parent), Tensor(sibling))
    block_state, block_top = dec.step(x, block)

    def split(b):
        return tuple(Tensor(b[:, i]) for i in range(dec.components))

    fused = dec.fuse(split(prev), split(parent), split(sibling))
    state, top = dec.step(x, fused)
    assert np.array_equal(np.stack([f.data for f in fused], axis=1), block.data)
    assert np.array_equal(np.stack([s.data for s in state], axis=1), block_state.data)
    assert np.array_equal(top.data, block_top.data)
