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

    def step(self):
        """Apply one update from the gradients currently stored on the params."""
        self.step_count += 1
        bc1 = 1.0 - self.beta1 ** self.step_count
        bc2 = 1.0 - self.beta2 ** self.step_count
        for name, p in self.params:
            g = p._grad
            if g is None:
                continue
            if not np.all(np.isfinite(g)):
                raise NumericError(f"non-finite gradient for parameter {name}")
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            m = self._m[name]
            v = self._v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)

    def decay_lr(self):
        self.lr *= self.decay

    def zero_grad(self):
        for _, p in self.params:
            p._grad = None
