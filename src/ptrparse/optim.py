"""Adam optimizer with bias correction, plus global-norm gradient clipping."""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, NumericError


def clip_by_global_norm(params, max_norm: float) -> tuple:
    """Scale all gradients in place so their joint L2 norm is at most ``max_norm``.

    ``params`` is an iterable of (name, tensor) pairs.  Returns ``(scale,
    norm)``: the factor applied (1.0 when no clipping occurred) and the
    joint norm before clipping.
    """
    if max_norm <= 0:
        raise ConfigError(f"clip norm must be positive, got {max_norm}")
    total = 0.0
    grads = []
    for _, p in params:
        g = p._grad
        if g is None:
            continue
        grads.append(g)
        total += float(np.dot(g.ravel(), g.ravel()))
    norm = math.sqrt(total)
    if norm <= max_norm or norm == 0.0:
        return 1.0, norm
    scale = max_norm / norm
    for g in grads:
        g *= scale
    return scale, norm


class Adam:
    """Adam with step-count bias correction and optional coupled L2 decay.

    Weight decay is classic L2 regularization: ``weight_decay * p`` is added
    to the gradient before the moment updates, so it is rescaled by the
    adaptive step like any other gradient (not decoupled as in AdamW).

    The learning rate can be multiplicatively annealed via ``decay_lr``; the
    caller decides when (this toolkit decays on a dev-metric plateau).
    """

    def __init__(self, params, lr: float = 0.001, betas=(0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0, decay: float = 0.75):
        if lr <= 0:
            raise ConfigError(f"learning rate must be positive, got {lr}")
        if not (0.0 <= betas[0] < 1.0 and 0.0 <= betas[1] < 1.0):
            raise ConfigError(f"betas must lie in [0, 1), got {betas}")
        self.params = [(name, p) for name, p in params]
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.decay = decay
        self.step_count = 0
        self._m = {name: np.zeros_like(p.data) for name, p in self.params}
        self._v = {name: np.zeros_like(p.data) for name, p in self.params}
        # Two scratch arrays as large as the largest parameter, shared by all
        # parameters in turn, so a step allocates no parameter-sized array.
        largest = max((p.data.size for _, p in self.params), default=0)
        self._scratch = (np.empty(largest), np.empty(largest))

    def step(self):
        """Apply one update from the gradients currently stored on the params.

        Every gradient is checked before anything moves: a non-finite one
        raises ``NumericError`` with every parameter, moment and the step
        count as they were.  The update runs in place, in the operation
        order of ``m = β1·m + (1-β1)·g``, ``v = β2·v + (1-β2)·g·g`` and
        ``p -= lr·(m/bc1) / (sqrt(v/bc2) + eps)``.
        """
        live = [(name, p) for name, p in self.params if p._grad is not None]
        for name, p in live:
            if not np.all(np.isfinite(p._grad)):
                raise NumericError(f"non-finite gradient for parameter {name}")
        self.step_count += 1
        bc1 = 1.0 - self.beta1 ** self.step_count
        bc2 = 1.0 - self.beta2 ** self.step_count
        for name, p in live:
            g = p._grad
            a, b = (buffer[: g.size].reshape(g.shape) for buffer in self._scratch)
            if self.weight_decay:
                g = np.add(g, np.multiply(self.weight_decay, p.data, out=a), out=a)
            m = self._m[name]
            v = self._v[name]
            m *= self.beta1
            m += np.multiply(1.0 - self.beta1, g, out=b)
            v *= self.beta2
            v += np.multiply(np.multiply(1.0 - self.beta2, g, out=b), g, out=b)
            step = np.multiply(self.lr, np.divide(m, bc1, out=a), out=a)
            denom = np.add(np.sqrt(np.divide(v, bc2, out=b), out=b), self.eps, out=b)
            p.data -= np.divide(step, denom, out=a)

    def decay_lr(self):
        self.lr *= self.decay

    def zero_grad(self):
        for _, p in self.params:
            p._grad = None
