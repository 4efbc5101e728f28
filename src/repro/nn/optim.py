"""Optimizers: AdamW (paper hyperparameters) and the EMA of model weights.

The paper trains with AdamW (betas [0.85, 0.9], eps 1e-8, weight decay 0.01)
and keeps an exponential moving average of parameters with a 100k-image
half-life, using only the EMA weights at inference.
"""

from __future__ import annotations

import numpy as np

from .module import Module, Parameter

__all__ = ["AdamW", "EMA"]

#: AdamW's moment decays, denominator floor and decoupled weight decay:
#: the paper's values (§VI-B).
BETAS = (0.85, 0.9)
EPS = 1e-8
WEIGHT_DECAY = 0.01


class AdamW:
    """Decoupled-weight-decay Adam.

    State (exp_avg / exp_avg_sq, both FP32 like the paper's "model states")
    is one array per parameter, in parameter order;
    :class:`repro.parallel.ZeroOptimizer` adds an owner per parameter.
    """

    def __init__(self, params: list[Parameter], lr: float = 5e-4,
                 weight_decay: float = WEIGHT_DECAY):
        self.params = list(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.step_count = 0
        self.exp_avg = [np.zeros_like(p.data) for p in self.params]
        self.exp_avg_sq = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        self.step_count += 1
        b1, b2 = BETAS
        bias1 = 1.0 - b1 ** self.step_count
        bias2 = 1.0 - b2 ** self.step_count
        for p, m, v in zip(self.params, self.exp_avg, self.exp_avg_sq):
            if p.grad is None:
                continue
            g = p.grad
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            update = (m / bias1) / (np.sqrt(v / bias2) + EPS)
            if self.weight_decay:
                p.data *= 1.0 - self.lr * self.weight_decay
            p.data -= self.lr * update


class EMA:
    """Exponential moving average of parameters with an image half-life.

    ``decay`` per update follows ``0.5 ** (images_per_step / halflife)`` so
    the configured half-life is measured in *images seen*, matching the
    paper's "100k image half-life".
    """

    def __init__(self, model: Module, halflife_images: float = 100_000.0):
        self.halflife_images = halflife_images
        self.shadow = {name: p.data.copy() for name, p in model.named_parameters()}

    def decay_for(self, images_per_step: float) -> float:
        return float(0.5 ** (images_per_step / self.halflife_images))

    def update(self, model: Module, images_per_step: float) -> None:
        d = self.decay_for(images_per_step)
        for name, p in model.named_parameters():
            shadow = self.shadow[name]
            shadow *= d
            shadow += (1.0 - d) * p.data

    def copy_to(self, model: Module) -> None:
        """Load EMA weights into the model (inference mode per the paper)."""
        for name, p in model.named_parameters():
            p.data = self.shadow[name].copy()

    def state_dict(self) -> dict[str, np.ndarray]:
        return {k: v.copy() for k, v in self.shadow.items()}
