"""Outside-in tracing: in-memory spans around public ``repro`` callables.

Nothing here lives in ``src/``.  :func:`install` replaces each callable
named in :data:`PROBES` with a timing wrapper (class methods on the class,
by-name bindings on the module that holds the name), :func:`uninstall`
puts the originals back.  A span is ``(name, layer, start, end, parent,
op)``; spans started while no other span is open are roots and open a new
``op`` id, which every span below them shares.  A span's *self time* is
its duration minus the part its direct children cover (single thread, so
children are disjoint and nested).
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager
from typing import Callable, NamedTuple

__all__ = ["Span", "Tracer", "Probe", "PROBES", "install", "uninstall",
           "tracing"]


class Span:
    """One timed call.  ``parent`` is an index into ``Tracer.spans`` (-1 for
    a root); ``note`` carries the few call facts the ledger needs (rows of
    a forward, whether a cache get hit)."""

    __slots__ = ("name", "layer", "start", "end", "parent", "op", "note")

    def __init__(self, name, layer, start, parent, op):
        self.name = name
        self.layer = layer
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.note = None

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """Span store + open-span stack."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._ops = 0

    def begin(self, name: str, layer: str) -> Span:
        if self._stack:
            parent = self._stack[-1]
            op = self.spans[parent].op
        else:
            parent = -1
            self._ops += 1
            op = self._ops
        span = Span(name, layer, self.clock(), parent, op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def finish(self, span: Span) -> None:
        span.end = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, layer: str):
        s = self.begin(name, layer)
        try:
            yield s
        finally:
            self.finish(s)

    def self_times(self) -> list[float]:
        """Self time of every span, aligned with ``spans``."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                covered[s.parent] += s.dur
        return [s.dur - c for s, c in zip(self.spans, covered)]

    def write_chrome(self, path: str) -> None:
        """Chrome/Perfetto trace: one complete event per span."""
        t0 = self.spans[0].start if self.spans else 0.0
        events = [{"name": s.name, "cat": s.layer, "ph": "X", "pid": 0,
                   "tid": 0, "ts": (s.start - t0) * 1e6, "dur": s.dur * 1e6,
                   "args": {"op": s.op}} for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events}, fh)


class Probe(NamedTuple):
    """``module``'s attribute path ``attr`` (``Class.method`` or a function
    name) is timed as span ``name`` of ``layer``; ``note(args, result)``
    optionally records a call fact on the span."""

    module: str
    attr: str
    name: str
    layer: str
    note: Callable | None = None


def _rows(args, _result):
    return args[1].shape[0]


PROBES: tuple[Probe, ...] = (
    # serve
    Probe("repro.serve.service", "ForecastService.run", "service.run",
          "serve"),
    Probe("repro.serve.queue", "AdmissionQueue.submit", "queue.submit",
          "serve"),
    Probe("repro.serve.batcher", "MicroBatcher.next_batch",
          "batcher.next_batch", "serve"),
    Probe("repro.serve.worker", "ServeWorkerPool.dispatch", "pool.dispatch",
          "serve", lambda a, r: (r[2]["members"], r[2]["forwards"])),
    Probe("repro.serve.cache", "ForecastCache.get", "cache.get", "serve",
          lambda a, r: r is not None),
    Probe("repro.serve.cache", "ForecastCache.put", "cache.put", "serve",
          lambda a, r: a[1]),
    Probe("repro.serve.service", "array_digest", "array_digest", "serve"),
    # diffusion
    Probe("repro.diffusion.sampler", "ResidualForecaster.ensemble_rollout",
          "ensemble_rollout", "diffusion"),
    Probe("repro.diffusion.sampler", "ResidualForecaster.step_members",
          "step_members", "diffusion", _rows),
    Probe("repro.serve.samplers", "OneStepForecaster.step_members",
          "one_step", "diffusion", _rows),
    Probe("repro.diffusion.solver", "DpmSolver2S.sample_members",
          "sample_members", "diffusion"),
    # model
    Probe("repro.model.aeris", "Aeris.forward", "aeris.forward", "model",
          _rows),
    Probe("repro.model.aeris", "Aeris.embed_stage", "aeris.embed", "model",
          _rows),
    Probe("repro.model.aeris", "Aeris.decode_stage", "aeris.decode",
          "model"),
    Probe("repro.model.blocks", "SwinBlock.forward", "block.forward",
          "model"),
    Probe("repro.model.blocks", "SwinBlock.attend", "block.attend", "model"),
    # nn
    Probe("repro.nn.attention", "MultiHeadAttention.forward", "mha.forward",
          "nn"),
    Probe("repro.nn.swiglu", "SwiGLU.forward", "swiglu.forward", "nn"),
    Probe("repro.nn.norm", "RMSNorm.forward", "rmsnorm.forward", "nn"),
    Probe("repro.nn.norm", "AdaLNModulation.forward", "adaln.forward", "nn"),
    Probe("repro.nn.linear", "Linear.forward", "linear.forward", "nn"),
    Probe("repro.nn.embedding", "TimestepEmbedding.forward",
          "time_embed.forward", "nn"),
    Probe("repro.nn.optim", "AdamW.step", "adamw.step", "nn"),
    Probe("repro.nn.optim", "EMA.update", "ema.update", "nn"),
    # kernels, through the names their consumers hold
    Probe("repro.nn.attention", "fused_apply_rotary", "rope", "kernels"),
    Probe("repro.nn.attention", "fused_dot_product_attention",
          "attention_core", "kernels"),
    Probe("repro.nn.swiglu", "fused_swiglu_forward", "swiglu_fused",
          "kernels"),
    Probe("repro.model.blocks", "plan_partition", "window_gather",
          "kernels"),
    Probe("repro.model.blocks", "plan_merge", "window_gather", "kernels"),
    # tensor
    Probe("repro.tensor.tensor", "Tensor.backward", "tensor.backward",
          "tensor"),
    # train / data
    Probe("repro.train.trainer", "Trainer.train_step", "train_step",
          "train"),
    Probe("repro.data.era5", "SyntheticReanalysis.training_batch",
          "training_batch", "data"),
    Probe("repro.data.forcings", "ForcingProvider.__call__", "forcing",
          "data"),
    # parallel
    Probe("repro.parallel.swipe", "SwipeEngine.train_step",
          "swipe.train_step", "parallel"),
    Probe("repro.parallel.pipeline", "AerisPipeline.forward_backward",
          "pipeline.forward_backward", "parallel"),
    Probe("repro.parallel.comm", "SimCluster.transfer", "cluster.transfer",
          "parallel"),
    Probe("repro.parallel.comm", "SimCluster.allreduce", "cluster.allreduce",
          "parallel"),
    Probe("repro.parallel.comm", "SimCluster.allgather", "cluster.allgather",
          "parallel"),
    Probe("repro.parallel.zero", "ZeroOptimizer.step", "zero.step",
          "parallel"),
)


def _resolve(probe: Probe):
    """``(owner, attribute name)`` the probe patches."""
    owner = importlib.import_module(probe.module)
    *path, attr = probe.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


def _wrap(fn, probe: Probe, tracer: Tracer):
    begin, finish = tracer.begin, tracer.finish
    name, layer, note = probe.name, probe.layer, probe.note

    def wrapper(*args, **kwargs):
        span = begin(name, layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            finish(span)
        if note is not None:
            span.note = note(args, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def install(tracer: Tracer, probes=PROBES) -> list:
    """Patch every probe; returns the undo list for :func:`uninstall`."""
    undo = []
    for probe in probes:
        owner, attr = _resolve(probe)
        original = vars(owner)[attr]
        setattr(owner, attr, _wrap(original, probe, tracer))
        undo.append((owner, attr, original))
    return undo


def uninstall(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


@contextmanager
def tracing(tracer: Tracer, probes=PROBES):
    undo = install(tracer, probes)
    try:
        yield tracer
    finally:
        uninstall(undo)
