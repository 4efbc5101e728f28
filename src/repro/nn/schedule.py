"""Learning-rate schedules: the paper's (linear warmup over 50k images,
constant at the peak, then linear decay to zero over the final 100k of 3M
total images), and a constant rate for the short runs that do not warm up
(SWiPe, finetuning, distillation)."""

from __future__ import annotations

from typing import NamedTuple

__all__ = ["WarmupConstantDecay", "ConstantLR"]


class ConstantLR(NamedTuple):
    """One learning rate for every step, as a schedule."""

    lr: float

    def lr_at(self, images_seen: float) -> float:
        return self.lr


class WarmupConstantDecay:
    """Piecewise-linear LR schedule measured in images seen.

    Parameters
    ----------
    peak_lr:
        Plateau learning rate (paper: 5e-4).
    warmup_images:
        Linear ramp from 0 to ``peak_lr`` (paper: 50k).
    total_images:
        Total images in the run (paper: 3M).
    decay_images:
        Length of the final linear decay to zero (paper: 100k).
    """

    def __init__(self, peak_lr: float = 5e-4, warmup_images: float = 50_000,
                 total_images: float = 3_000_000, decay_images: float = 100_000):
        if warmup_images + decay_images > total_images:
            raise ValueError("warmup + decay exceed total images")
        self.peak_lr = peak_lr
        self.warmup_images = warmup_images
        self.total_images = total_images
        self.decay_images = decay_images

    def lr_at(self, images_seen: float) -> float:
        if images_seen < 0:
            raise ValueError("images_seen must be non-negative")
        if images_seen < self.warmup_images:
            return self.peak_lr * images_seen / self.warmup_images
        decay_start = self.total_images - self.decay_images
        if images_seen <= decay_start:
            return self.peak_lr
        if images_seen >= self.total_images:
            return 0.0
        frac = (self.total_images - images_seen) / self.decay_images
        return self.peak_lr * frac
