"""Optimizers: AdamW (paper hyperparameters) and the EMA of model weights.

The paper trains with AdamW (betas [0.85, 0.9], eps 1e-8, weight decay 0.01)
and keeps an exponential moving average of parameters with a 100k-image
half-life, using only the EMA weights at inference.
"""

from __future__ import annotations

import itertools
import mmap

import numpy as np

from .module import Module, Parameter

__all__ = ["AdamW", "EMA", "FlatParams"]

#: AdamW's moment decays, denominator floor and decoupled weight decay:
#: the paper's values (§VI-B).
BETAS = (0.85, 0.9)
EPS = 1e-8
WEIGHT_DECAY = 0.01


class FlatParams:
    """``params``' arrays seated as in-order views, ``views``, of one
    buffer, ``flat``, in an anonymous shared mapping: a process forked
    later reads their live values (:class:`repro.rows.KeptWorkers`).
    Arrays so seated already, by another owner, stay: the views are shared."""

    def __init__(self, params: list[Parameter]):
        self.params = list(params)
        arrays = [p.data for p in self.params]
        self.offsets = np.cumsum([0] + [a.size for a in arrays]).tolist()
        flat, n = arrays[0].base, self.offsets[-1]
        mapped = getattr(getattr(flat, "base", None), "obj", None)
        if not (isinstance(mapped, mmap.mmap) and flat.size == n and all(
                a.__array_interface__ == v.__array_interface__
                for a, v in zip(arrays, self.like(flat)))):
            flat = np.frombuffer(mmap.mmap(-1, n * arrays[0].itemsize),
                                 arrays[0].dtype)
            arrays = self.like(flat)
        self.flat, self.views = flat, arrays
        self.check()

    def like(self, flat: np.ndarray) -> list[np.ndarray]:
        """Views of ``flat`` in this layout, one per parameter."""
        return [flat[lo:hi].reshape(p.data.shape) for p, lo, hi in
                zip(self.params, self.offsets, self.offsets[1:])]

    def check(self) -> np.ndarray:
        """``flat``, each array rebound since (``p.data = …``) copied into
        its slot and re-seated; one of another shape or dtype raises."""
        for p, view in zip(self.params, self.views):
            if (a := p.data) is not view:
                if (a.shape, a.dtype) != (view.shape, view.dtype):
                    raise TypeError(f"{p.name} rebound to {a.dtype}{a.shape}"
                                    f", not {view.dtype}{view.shape}")
                view[...] = a
                p.data = view
        return self.flat


class AdamW:
    """Decoupled-weight-decay Adam.

    State (exp_avg / exp_avg_sq, both FP32 like the paper's "model states")
    is one view of a flat buffer per parameter, in parameter order;
    :class:`repro.parallel.ZeroOptimizer` adds an owner per parameter.
    """

    def __init__(self, params: list[Parameter], lr: float = 5e-4,
                 weight_decay: float = WEIGHT_DECAY):
        self.seat = FlatParams(params)
        self.params = self.seat.params
        self.lr = lr
        self.weight_decay = weight_decay
        self.step_count = 0
        # the moments, the gathered gradients and a temporary
        self._m, self._v, self._g, self._t = np.zeros(
            (4, self.seat.flat.size), self.seat.flat.dtype)
        self.exp_avg, self.exp_avg_sq = map(self.seat.like, (self._m, self._v))

    def step(self) -> None:
        """Update each parameter with a gradient, a run of consecutive ones
        at a time, by a per-parameter update's elementwise arithmetic (so
        its bits); a gradient of another dtype raises before any change."""
        self.seat.check()
        params, at, runs = self.params, self.seat.offsets, []
        for has, run in itertools.groupby(
                range(len(params)), lambda i: params[i].grad is not None):
            if has:
                run = list(run)
                runs.append((at[run[0]], at[run[-1] + 1]))
                np.concatenate([params[i].grad.ravel() for i in run],
                               out=self._g[slice(*runs[-1])], casting="no")
        self.step_count += 1
        b1, b2 = BETAS
        bias1 = 1.0 - b1 ** self.step_count
        bias2 = 1.0 - b2 ** self.step_count
        for lo, hi in runs:
            w, m, v, g, t = (a[lo:hi] for a in (self.seat.flat, self._m,
                                                self._v, self._g, self._t))
            m *= b1
            m += np.multiply(g, 1 - b1, out=t)
            v *= b2
            v += np.multiply(np.multiply(g, 1 - b2, out=t), g, out=t)
            np.sqrt(np.divide(v, bias2, out=g), out=g)
            g += EPS
            np.divide(np.divide(m, bias1, out=t), g, out=t)   # the update
            if self.weight_decay:
                w *= 1.0 - self.lr * self.weight_decay
            w -= np.multiply(t, self.lr, out=t)


class EMA:
    """Exponential moving average of parameters with an image half-life.

    ``decay`` per update follows ``0.5 ** (images_per_step / halflife)`` so
    the configured half-life is measured in *images seen*, matching the
    paper's "100k image half-life".
    """

    def __init__(self, model: Module, halflife_images: float = 100_000.0):
        self.halflife_images = halflife_images
        names, params = zip(*model.named_parameters())
        self.seat = FlatParams(params)
        self._shadow, self._t = self.seat.flat.copy(), self.seat.flat.copy()
        self.shadow = dict(zip(names, self.seat.like(self._shadow)))

    def decay_for(self, images_per_step: float) -> float:
        return float(0.5 ** (images_per_step / self.halflife_images))

    def update(self, images_per_step: float) -> None:
        d = self.decay_for(images_per_step)
        self._shadow *= d
        self._shadow += np.multiply(self.seat.check(), 1.0 - d, out=self._t)

    def copy_to(self, model: Module) -> None:
        """Load EMA weights into the model (inference mode per the paper)."""
        for name, p in model.named_parameters():
            p.data = self.shadow[name].copy()
