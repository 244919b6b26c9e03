"""Optimizer tests: clipping against a hand oracle, Adam against frozen
two-step closed-form values, decay, and failure modes."""

import numpy as np
import pytest

from ptrparse.autodiff import Tensor
from ptrparse.errors import ConfigError, NumericError
from ptrparse.optim import Adam, clip_by_global_norm


def params_of(*arrays):
    out = []
    for i, a in enumerate(arrays):
        t = Tensor(np.asarray(a, dtype=float), requires_grad=True)
        out.append((f"p{i}", t))
    return out


def test_clip_noop_below_threshold():
    params = params_of([1.0, 2.0])
    params[0][1].grad = np.array([3.0, 4.0])  # norm 5
    scale, norm = clip_by_global_norm(params, 5.0)
    assert scale == 1.0 and norm == 5.0
    assert np.array_equal(params[0][1].grad, [3.0, 4.0])


def test_clip_rescales_to_max_norm():
    params = params_of([0.0, 0.0], [0.0])
    params[0][1].grad = np.array([6.0, 8.0])
    params[1][1].grad = np.array([0.0])
    # global norm 10, max 5 -> scale 0.5
    scale, norm = clip_by_global_norm(params, 5.0)
    assert scale == pytest.approx(0.5) and norm == 10.0
    assert np.allclose(params[0][1].grad, [3.0, 4.0])
    norm = np.sqrt(sum((p.grad ** 2).sum() for _, p in params))
    assert norm == pytest.approx(5.0)


def test_clip_rejects_bad_max_norm():
    with pytest.raises(ConfigError):
        clip_by_global_norm(params_of([1.0]), 0.0)
    with pytest.raises(ConfigError):
        clip_by_global_norm(params_of([1.0]), -1.0)


def test_adam_two_steps_closed_form():
    # Constant gradient 0.5: bias-corrected moments give mhat = g and
    # vhat = g*g every step, so each update is exactly lr * g / (|g| + eps).
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = Adam([("p", p)], lr=0.1, betas=(0.9, 0.99), eps=1e-8)
    p.grad = np.array([0.5])
    opt.step()
    assert p.data[0] == pytest.approx(0.9000000019999999, abs=1e-12)
    p.zero_grad()
    p.grad = np.array([0.5])
    opt.step()
    assert p.data[0] == pytest.approx(0.8000000040000001, abs=1e-12)


def test_adam_weight_decay_is_coupled_l2():
    # g = -0.5, p = 2, wd = 0.5.  Coupled L2 adapts g_eff = g + wd * p = 0.5,
    # so the first step moves p by -lr * 0.5 / (0.5 + eps).  Decoupled decay
    # (AdamW) would step by -lr * (g / (|g| + eps) + wd * p) and leave p at 2.
    p = Tensor(np.array([2.0]), requires_grad=True)
    opt = Adam([("p", p)], lr=0.1, betas=(0.9, 0.99), eps=1e-8, weight_decay=0.5)
    p.grad = np.array([-0.5])
    opt.step()
    assert p.data[0] == pytest.approx(2.0 - 0.1 * 0.5 / (0.5 + 1e-8), abs=1e-12)
    assert np.array_equal(p.grad, [-0.5])


def test_adam_weight_decay_enters_gradient():
    # Decoupled-from-loss but coupled-to-moments decay: g_eff = g + wd * p.
    p = Tensor(np.array([2.0]), requires_grad=True)
    opt = Adam([("p", p)], lr=0.1, betas=(0.9, 0.99), eps=1e-8, weight_decay=0.5)
    p.grad = np.array([0.0])
    opt.step()
    # g_eff = 1.0, update = lr * 1.0 / (1.0 + eps)
    assert p.data[0] == pytest.approx(2.0 - 0.1 * 1.0 / (1.0 + 1e-8), abs=1e-12)


def test_adam_decay_lr():
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = Adam([("p", p)], lr=0.01, betas=(0.9, 0.9), eps=1e-8, decay=0.75)
    opt.decay_lr()
    assert opt.lr == pytest.approx(0.0075)
    opt.decay_lr()
    assert opt.lr == pytest.approx(0.005625)


def test_adam_zero_grad_clears_all():
    p = Tensor(np.array([1.0, 1.0]), requires_grad=True)
    opt = Adam([("p", p)], lr=0.1)
    p.grad = np.array([5.0, 5.0])
    opt.zero_grad()
    assert np.array_equal(p.grad, [0.0, 0.0])


def test_adam_rejects_nonfinite_gradient():
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = Adam([("p", p)], lr=0.1)
    p.grad = np.array([np.nan])
    with pytest.raises(NumericError) as info:
        opt.step()
    assert "p" in str(info.value)


def test_adam_validates_config():
    p = Tensor(np.array([1.0]), requires_grad=True)
    with pytest.raises(ConfigError):
        Adam([("p", p)], lr=0.0)
    with pytest.raises(ConfigError):
        Adam([("p", p)], lr=0.1, betas=(1.0, 0.9))
    with pytest.raises(ConfigError):
        Adam([("p", p)], lr=0.1, betas=(0.9, -0.1))


def test_adam_independent_moments_per_parameter():
    a = Tensor(np.array([0.0]), requires_grad=True)
    b = Tensor(np.array([0.0]), requires_grad=True)
    opt = Adam([("a", a), ("b", b)], lr=0.1, betas=(0.9, 0.99), eps=1e-8)
    a.grad = np.array([1.0])
    b.grad = np.array([-1.0])
    opt.step()
    # Symmetric gradients produce symmetric updates.
    assert a.data[0] == pytest.approx(-b.data[0], abs=1e-15)


def test_adam_matches_reference_trajectory():
    # Five steps with varying gradients against a literal reimplementation.
    rng = np.random.default_rng(5)
    p = Tensor(rng.standard_normal(4), requires_grad=True)
    ref = p.data.copy()
    lr, b1, b2, eps = 0.05, 0.9, 0.95, 1e-8
    opt = Adam([("p", p)], lr=lr, betas=(b1, b2), eps=eps)
    m = np.zeros(4)
    v = np.zeros(4)
    for t in range(1, 6):
        g = rng.standard_normal(4)
        p.zero_grad()
        p.grad = g.copy()
        opt.step()
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1 ** t)
        vhat = v / (1 - b2 ** t)
        ref = ref - lr * mhat / (np.sqrt(vhat) + eps)
        assert np.allclose(p.data, ref, atol=1e-14)


def reference_adam_step(opt):
    """``Adam.step`` as it was before its in-place rewrite, on ``opt``'s
    own state: one update, with fresh temporaries for every expression."""
    opt.step_count += 1
    bc1 = 1.0 - opt.beta1 ** opt.step_count
    bc2 = 1.0 - opt.beta2 ** opt.step_count
    for name, p in opt.params:
        g = p._grad
        if g is None:
            continue
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for parameter {name}")
        if opt.weight_decay:
            g = g + opt.weight_decay * p.data
        m = opt._m[name]
        v = opt._v[name]
        m *= opt.beta1
        m += (1.0 - opt.beta1) * g
        v *= opt.beta2
        v += (1.0 - opt.beta2) * g * g
        p.data -= opt.lr * (m / bc1) / (np.sqrt(v / bc2) + opt.eps)


@pytest.mark.parametrize("weight_decay", [0.0, 5e-4])
def test_adam_in_place_step_is_bit_identical(weight_decay):
    rng = np.random.default_rng(17)
    shapes = [(3, 4), (5,), (), (2, 3, 2)]
    arrays = [rng.standard_normal(shape) for shape in shapes]

    def make():
        params = [(f"p{i}", Tensor(a.copy(), requires_grad=True)) for i, a in enumerate(arrays)]
        return params, Adam(params, lr=0.01, betas=(0.9, 0.95), eps=1e-8,
                            weight_decay=weight_decay)

    (new_params, new), (old_params, old) = make(), make()
    for step in range(6):
        grads = [rng.standard_normal(shape) * 10.0 ** (step - 3) for shape in shapes]
        for params in (new_params, old_params):
            for (_, p), g in zip(params, grads):
                p.grad = None if step == 2 and g.ndim == 1 else g.copy()  # one skipped grad
        new.step()
        reference_adam_step(old)
        assert new.step_count == old.step_count == step + 1
        for (name, p), (_, q) in zip(new_params, old_params):
            assert np.array_equal(p.data, q.data), name
            assert np.array_equal(new._m[name], old._m[name]), name
            assert np.array_equal(new._v[name], old._v[name]), name
            assert p.data.shape == q.data.shape


def test_adam_nonfinite_last_gradient_moves_nothing():
    a = Tensor(np.array([1.0]), requires_grad=True)
    b = Tensor(np.array([2.0, 3.0]), requires_grad=True)
    opt = Adam([("a", a), ("b", b)], lr=0.1)
    a.grad, b.grad = np.array([0.5]), np.array([0.25, -0.5])
    opt.step()
    before = {name: (p.data.copy(), opt._m[name].copy(), opt._v[name].copy())
              for name, p in opt.params}
    a.grad, b.grad = np.array([1.0]), np.array([0.0, np.inf])
    with pytest.raises(NumericError, match="parameter b"):
        opt.step()
    assert opt.step_count == 1
    for name, p in opt.params:
        data, m, v = before[name]
        assert np.array_equal(p.data, data), name
        assert np.array_equal(opt._m[name], m), name
        assert np.array_equal(opt._v[name], v), name
