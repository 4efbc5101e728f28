"""The per-layer ledger: reduce a traced run's spans and counters to the
per-layer metrics of ``BENCHMARK.json``.

A layer is a ``repro`` module.  :data:`LEDGER` is the catalogue — name,
unit, which way is better, and the end-to-end metric and workload the
number is expected to move ("target"; everything else should stay flat).
A metric of a layer the workload never enters reads 0.
"""

from __future__ import annotations

import time
from typing import NamedTuple

import numpy as np

from .harness import warm_forward      # also puts src/ on sys.path
from .stats import median, tail_percentile
from .trace import Tracer

from repro.kernels import plan_cache_stats  # noqa: E402
from repro.perf import bubble_fraction, forward_flops_per_sample  # noqa: E402
from repro.tensor import Tensor, arena, count_flops, no_grad  # noqa: E402

__all__ = ["Entry", "LEDGER", "Counters", "reduce", "micro_measures"]


class Entry(NamedTuple):
    name: str
    unit: str
    better: str
    target: str


_SERVE_TP = "work_per_s @ serve_cycle"
_ROLLOUT = "work_per_s @ rollout_ens16"
_STEADY = "latency_p50_s @ serve_steady"
_TRAIN = "work_per_s @ train_tiny"
_SWIPE = "work_per_s @ swipe_train"

LEDGER: tuple[Entry, ...] = (
    # serve
    Entry("serve.loop_overhead_frac", "frac", "lower", _SERVE_TP),
    Entry("serve.execute_self_ms_per_dispatch", "ms", "lower", _SERVE_TP),
    Entry("serve.batch_rows_mean", "rows", "higher", _SERVE_TP),
    Entry("serve.forwards_per_request", "count", "lower", _SERVE_TP),
    Entry("serve.dispatches_per_rep", "count", "lower", _SERVE_TP),
    Entry("serve.cache_hit_rate", "frac", "higher", _SERVE_TP),
    Entry("serve.useful_step_frac", "frac", "higher", _SERVE_TP),
    Entry("serve.cache_get_us_p50", "us", "lower", _SERVE_TP),
    Entry("serve.cache_put_us_p50", "us", "lower", _SERVE_TP),
    Entry("serve.digest_ms_per_request", "ms", "lower", _SERVE_TP),
    Entry("serve.queue_wait_mean_s", "s", "lower", _STEADY),
    Entry("serve.worker_busy_frac", "frac", "lower", _STEADY),
    Entry("serve.fast_latency_p50_s", "s", "lower", _STEADY),
    Entry("serve.latency_tail_s", "s", "lower", _STEADY),
    Entry("serve.latency_tail_pct", "pct", "higher", "none (sample size)"),
    Entry("serve.rejected", "count", "lower", "failed"),
    Entry("serve.timeout", "count", "lower", "failed"),
    Entry("serve.failed", "count", "lower", "failed"),
    # diffusion
    Entry("diffusion.solver_self_ms_per_data_step", "ms", "lower", _ROLLOUT),
    Entry("diffusion.forwards_per_member_step", "count", "lower", _ROLLOUT),
    Entry("diffusion.model_forwards_per_rep", "count", "lower", _ROLLOUT),
    Entry("diffusion.one_step_ms_p50", "ms", "lower",
          "serve.fast_latency_p50_s @ serve_steady"),
    # model
    Entry("model.forward_share", "frac", "lower", "work_per_s @ inference"),
    Entry("model.forward_ms_p50", "ms", "lower", "work_per_s @ inference"),
    Entry("model.forward_rows_mean", "rows", "higher", "none (contrast)"),
    Entry("model.forward_us_per_row", "us", "lower", "work_per_s @ inference"),
    Entry("model.embed_ms", "ms", "lower", _STEADY),
    Entry("model.time_embed_ms", "ms", "lower", _STEADY),
    Entry("model.block_ms", "ms", "lower", _ROLLOUT),
    Entry("model.decode_ms", "ms", "lower", _STEADY),
    Entry("model.glue_self_ms", "ms", "lower", _STEADY),
    # nn
    Entry("nn.attention_self_ms", "ms", "lower", _STEADY),
    Entry("nn.swiglu_ms", "ms", "lower", _ROLLOUT),
    Entry("nn.rmsnorm_ms", "ms", "lower", _STEADY),
    Entry("nn.adaln_ms", "ms", "lower", _STEADY),
    Entry("nn.linear_ms", "ms", "lower", _ROLLOUT),
    Entry("nn.adamw_step_ms", "ms", "lower", _TRAIN),
    Entry("nn.ema_update_ms", "ms", "lower", _TRAIN),
    # kernels
    Entry("kernels.rope_ms", "ms", "lower", _ROLLOUT),
    Entry("kernels.attention_core_ms", "ms", "lower", _ROLLOUT),
    Entry("kernels.swiglu_fused_ms", "ms", "lower", _ROLLOUT),
    Entry("kernels.window_gather_ms", "ms", "lower", _ROLLOUT),
    Entry("kernels.plan_cache_hit_rate", "frac", "higher", _ROLLOUT),
    # tensor
    Entry("tensor.objects_per_forward", "count", "lower", _STEADY),
    Entry("tensor.matmul_wrap_ratio", "ratio", "lower", _STEADY),
    Entry("tensor.alloc_bytes_per_forward", "bytes", "lower", _STEADY),
    Entry("tensor.arena_hit_rate", "frac", "higher", _STEADY),
    Entry("tensor.backward_ms", "ms", "lower", _TRAIN),
    Entry("tensor.flops_per_forward", "flop", "lower", "none (exact)"),
    # perf: reconciliation against the analytic model, moves nothing
    Entry("perf.flops_ratio", "ratio", "higher", "none (reconcile)"),
    Entry("perf.forward_gflops_b1", "gflop/s", "higher", "none (reconcile)"),
    Entry("perf.forward_gflops_b16", "gflop/s", "higher", "none (reconcile)"),
    Entry("perf.comm_bytes_ratio", "ratio", "higher", "none (reconcile)"),
    # train
    Entry("train.step_ms_p50", "ms", "lower", _TRAIN),
    Entry("train.forward_ms", "ms", "lower", _TRAIN),
    Entry("train.data_ms", "ms", "lower", _TRAIN),
    Entry("train.other_self_ms", "ms", "lower", _TRAIN),
    Entry("train.loss_final", "loss", "lower", "none (correctness)"),
    # parallel
    Entry("parallel.step_ms_p50", "ms", "lower", _SWIPE),
    Entry("parallel.pipeline_ms", "ms", "lower", _SWIPE),
    Entry("parallel.transfer_self_ms", "ms", "lower", _SWIPE),
    Entry("parallel.collective_ms", "ms", "lower", _SWIPE),
    Entry("parallel.zero_step_ms", "ms", "lower", _SWIPE),
    Entry("parallel.comm_bytes_per_step", "bytes", "lower", _SWIPE),
    Entry("parallel.comm_ops_per_step", "count", "lower", _SWIPE),
    Entry("parallel.bubble_frac_model", "frac", "lower", "none (model)"),
    # data / bench
    Entry("data.training_batch_ms", "ms", "lower", _TRAIN),
    Entry("data.forcing_ms_per_data_step", "ms", "lower", _ROLLOUT),
    Entry("bench.trace_overhead_frac", "frac", "lower", "none (harness)"),
    Entry("bench.self_time_coverage", "frac", "higher", "none (harness)"),
)


class Counters(NamedTuple):
    """Program-side counters snapshotted around the measured loop."""

    arena: dict
    plans: dict
    cache: dict | None
    comm_bytes: int
    comm_ops: int

    @classmethod
    def snapshot(cls, workload) -> "Counters":
        service = getattr(workload, "service", None)
        engine = getattr(workload, "engine", None)
        stats = engine.cluster.stats if engine is not None else None
        return cls(
            arena().stats(), plan_cache_stats(),
            service.cache.stats() if service is not None else None,
            stats.total_bytes() if stats is not None else 0,
            sum(stats.ops.values()) if stats is not None else 0)


def _rate(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


class _Spans:
    """Name-indexed view of a tracer's spans with their self times."""

    def __init__(self, tracer: Tracer, speed: float = 1.0):
        self.spans = tracer.spans
        self.self_s = tracer.self_times()
        self.to_ms = 1e3 / speed
        self.by_name: dict[str, list[int]] = {}
        for i, s in enumerate(self.spans):
            self.by_name.setdefault(s.name, []).append(i)

    def idx(self, *names):
        return [i for n in names for i in self.by_name.get(n, ())]

    def count(self, *names) -> int:
        return len(self.idx(*names))

    def total_ms(self, *names) -> float:
        return self.to_ms * sum(self.spans[i].dur for i in self.idx(*names))

    def self_ms(self, *names) -> float:
        return self.to_ms * sum(self.self_s[i] for i in self.idx(*names))

    def durs_ms(self, *names) -> list[float]:
        return [self.to_ms * self.spans[i].dur for i in self.idx(*names)]

    def notes(self, *names) -> list:
        return [self.spans[i].note for i in self.idx(*names)]

    def has_ancestor(self, i: int, name: str) -> bool:
        i = self.spans[i].parent
        while i >= 0:
            if self.spans[i].name == name:
                return True
            i = self.spans[i].parent
        return False


def _per(total: float, n: int) -> float:
    return total / n if n else 0.0


def reduce(tracer: Tracer, workload, reps, traced_idx,
           before: Counters, after: Counters, micro: dict) -> dict:
    """Every ledger metric for one traced run.  ``reps`` are all measured
    repetitions (times at reference machine speed), ``traced_idx`` the ones
    that ran under the wrappers (the two kinds alternate at the same size);
    ``before`` / ``after`` bracket all of them.  Span times are divided by
    the machine's slowness factor over the traced segments, like every
    other time the benchmark reports."""
    traced_log = [(raw, speed) for raw, speed, traced in workload.clock.log
                  if traced]
    speed = median(s for _, s in traced_log)
    traced = set(traced_idx)
    traced_reps = [r for i, r in enumerate(reps) if i in traced]
    plain_reps = [r for i, r in enumerate(reps) if i not in traced]
    sp = _Spans(tracer, speed)
    m = {e.name: 0.0 for e in LEDGER}
    m.update(micro)
    n_reps = len(traced_reps)
    rep_ms = sp.total_ms("bench.segment")
    passes = sp.count("aeris.embed")          # one per model forward pass
    steps = sp.count("train_step", "swipe.train_step")

    # -- bench ---------------------------------------------------------------
    traced_rate = median(r.wall_s / r.work for r in traced_reps)
    plain_rate = median(r.wall_s / r.work for r in plain_reps)
    m["bench.trace_overhead_frac"] = traced_rate / plain_rate - 1.0
    m["bench.self_time_coverage"] = _per(
        sum(sp.self_s), sum(raw for raw, _ in traced_log))

    # -- serve ---------------------------------------------------------------
    service = getattr(workload, "service", None)
    if service is not None:
        run_ms = sp.total_ms("service.run")
        dispatch = sp.notes("pool.dispatch")
        requests = sum(r.attempted for r in traced_reps)
        m["serve.loop_overhead_frac"] = _per(
            run_ms - sp.total_ms("pool.dispatch"), run_ms)
        m["serve.execute_self_ms_per_dispatch"] = _per(
            sp.self_ms("pool.dispatch"), len(dispatch))
        m["serve.batch_rows_mean"] = _per(sum(d[0] for d in dispatch),
                                          len(dispatch))
        m["serve.forwards_per_request"] = _per(sp.count("aeris.forward"),
                                               requests)
        m["serve.dispatches_per_rep"] = _per(len(dispatch), n_reps)
        m["serve.cache_hit_rate"] = _rate(
            after.cache["hits"] - before.cache["hits"],
            after.cache["misses"] - before.cache["misses"])
        puts = sp.notes("cache.put")
        m["serve.useful_step_frac"] = _per(len(set(puts)), len(puts))
        m["serve.cache_get_us_p50"] = 1e3 * median(sp.durs_ms("cache.get"))
        m["serve.cache_put_us_p50"] = 1e3 * median(sp.durs_ms("cache.put"))
        m["serve.digest_ms_per_request"] = _per(sp.total_ms("array_digest"),
                                                requests)
        m["serve.queue_wait_mean_s"] = float(np.mean(workload.queue_waits))
        if workload.duration_fn is None:   # virtual clock ran on raw wall
            busy_s = sum(sp.spans[i].dur for i in sp.idx("pool.dispatch"))
        else:
            busy_s = sum(workload.duration_fn(
                {"members": d[0], "forwards": d[1]}) for d in dispatch)
        span_s = sum(v for v, traced in workload.virtual_spans if traced)
        m["serve.worker_busy_frac"] = _per(
            busy_s, len(service.pool.workers) * span_s)
        m["serve.fast_latency_p50_s"] = median(workload.latencies["fast"])
        pct, tail = tail_percentile(
            [v for lat in workload.latencies.values() for v in lat])
        m["serve.latency_tail_s"], m["serve.latency_tail_pct"] = tail, pct
        for key in ("rejected", "timeout", "failed"):
            m[f"serve.{key}"] = float(service.tally[key])

    # -- diffusion -----------------------------------------------------------
    data_steps = sp.count("step_members", "one_step")
    m["diffusion.solver_self_ms_per_data_step"] = _per(
        sp.self_ms("step_members", "one_step", "sample_members"), data_steps)
    m["diffusion.forwards_per_member_step"] = _per(
        sum(sp.has_ancestor(i, "step_members")
            for i in sp.idx("aeris.forward")), sp.count("step_members"))
    if data_steps:
        m["diffusion.model_forwards_per_rep"] = _per(
            sp.count("aeris.forward"), n_reps)
    m["diffusion.one_step_ms_p50"] = median(sp.durs_ms("one_step"))
    m["data.forcing_ms_per_data_step"] = _per(sp.total_ms("forcing"),
                                              data_steps)

    # -- model / nn / kernels, per forward pass ------------------------------
    rows = sp.notes("aeris.embed")
    m["model.forward_share"] = _per(sp.total_ms("aeris.forward"), rep_ms)
    m["model.forward_ms_p50"] = median(sp.durs_ms("aeris.forward"))
    m["model.forward_rows_mean"] = _per(sum(rows), passes)
    m["model.forward_us_per_row"] = 1e3 * _per(
        sp.total_ms("aeris.forward"), sum(sp.notes("aeris.forward")))
    for name, span, self_only in (
            ("model.embed_ms", "aeris.embed", False),
            ("model.time_embed_ms", "time_embed.forward", False),
            ("model.block_ms", "block.forward", False),
            ("model.decode_ms", "aeris.decode", False),
            ("model.glue_self_ms", "block.forward", True),
            ("nn.attention_self_ms", "mha.forward", True),
            ("nn.swiglu_ms", "swiglu.forward", False),
            ("nn.rmsnorm_ms", "rmsnorm.forward", False),
            ("nn.adaln_ms", "adaln.forward", False),
            ("nn.linear_ms", "linear.forward", False),
            ("kernels.rope_ms", "rope", False),
            ("kernels.attention_core_ms", "attention_core", False),
            ("kernels.swiglu_fused_ms", "swiglu_fused", False),
            ("kernels.window_gather_ms", "window_gather", False)):
        total = sp.self_ms(span) if self_only else sp.total_ms(span)
        m[name] = _per(total, passes)
    m["nn.adamw_step_ms"] = _per(sp.total_ms("adamw.step"),
                                 sp.count("adamw.step"))
    m["nn.ema_update_ms"] = _per(sp.total_ms("ema.update"),
                                 sp.count("ema.update"))
    plan_hits = sum(after.plans[c]["hits"] - before.plans[c]["hits"]
                    for c in after.plans)
    plan_misses = sum(after.plans[c]["misses"] - before.plans[c]["misses"]
                      for c in after.plans)
    m["kernels.plan_cache_hit_rate"] = _rate(plan_hits, plan_misses)
    m["tensor.arena_hit_rate"] = _rate(
        after.arena["hits"] - before.arena["hits"],
        after.arena["misses"] - before.arena["misses"])
    m["tensor.backward_ms"] = _per(sp.total_ms("tensor.backward"), steps)

    # -- train ---------------------------------------------------------------
    trainer = getattr(workload, "trainer", None)
    if trainer is not None:
        m["train.step_ms_p50"] = median(sp.durs_ms("train_step"))
        m["train.forward_ms"] = _per(sp.total_ms("aeris.forward"), steps)
        m["train.data_ms"] = _per(sp.total_ms("training_batch"), steps)
        m["train.other_self_ms"] = _per(sp.self_ms("train_step"), steps)
        history = trainer.history
        m["train.loss_final"] = float(np.mean(
            history[-max(1, len(history) // 5):]))
    m["data.training_batch_ms"] = _per(sp.total_ms("training_batch"),
                                       sp.count("training_batch"))

    # -- parallel ------------------------------------------------------------
    engine = getattr(workload, "engine", None)
    if engine is not None:
        m["parallel.step_ms_p50"] = median(sp.durs_ms("swipe.train_step"))
        m["parallel.pipeline_ms"] = _per(
            sp.total_ms("pipeline.forward_backward"), steps)
        m["parallel.transfer_self_ms"] = _per(
            sp.self_ms("cluster.transfer"), steps)
        m["parallel.collective_ms"] = _per(
            sp.total_ms("cluster.allreduce", "cluster.allgather"), steps)
        m["parallel.zero_step_ms"] = _per(sp.total_ms("zero.step"), steps)
        m["parallel.comm_bytes_per_step"] = _per(
            after.comm_bytes - before.comm_bytes, len(reps))
        m["parallel.comm_ops_per_step"] = _per(
            after.comm_ops - before.comm_ops, len(reps))
        m["parallel.bubble_frac_model"] = bubble_fraction(
            workload.topology.pp, engine.config.layout.gas)
        predicted = workload.comm_prediction()["allreduce"]
        m["perf.comm_bytes_ratio"] = _per(
            engine.cluster.stats.total_bytes("allreduce"),
            predicted * (len(workload.history) + 1))
    return m


def _median_seconds(fn, n: int) -> float:
    out = []
    for _ in range(n):
        t0 = time.perf_counter()
        fn()
        out.append(time.perf_counter() - t0)
    return median(out)


def micro_measures(model, gauge) -> dict:
    """``tensor.*`` / ``perf.*`` numbers that come from one model forward
    rather than from the workload's spans: exact object / FLOP counts, the
    autograd wrapper's matmul cost, and achieved FLOP rates at 1 and 16
    rows.  Run outside the timed section."""
    out = {}
    created = []
    original = Tensor.__init__

    def counting_init(self, data, *args, **kwargs):
        original(self, data, *args, **kwargs)
        created.append(self.data)

    Tensor.__init__ = counting_init
    try:
        warm_forward(model, (1,))
    finally:
        Tensor.__init__ = original
    out["tensor.objects_per_forward"] = float(len(created))
    # Computed, not measured: payload bytes of the constructed tensors that
    # own their memory (views of an earlier array allocate nothing).
    out["tensor.alloc_bytes_per_forward"] = float(
        sum(a.nbytes for a in created if a.base is None))

    with count_flops() as counter:
        warm_forward(model, (1,))
    predicted = forward_flops_per_sample(model.config)
    out["tensor.flops_per_forward"] = float(counter.forward)
    out["perf.flops_ratio"] = counter.forward / predicted
    for rows in (1, 16):
        warm_forward(model, (rows,))
        slow = gauge.read()
        seconds = _median_seconds(lambda: warm_forward(model, (rows,)), 5)
        seconds /= 0.5 * (slow + gauge.read())
        out[f"perf.forward_gflops_b{rows}"] = (
            counter.forward * rows / seconds / 1e9)

    # The qkv projection of a one-row forward: (1, windows, tokens, dim)
    # against (dim, 3 dim).
    cfg = model.config
    rng = np.random.default_rng(0)
    a = rng.standard_normal(
        (1, cfg.seq_len // cfg.tokens_per_window, cfg.tokens_per_window,
         cfg.dim)).astype(np.float32)
    w = rng.standard_normal((cfg.dim, 3 * cfg.dim)).astype(np.float32)
    ta, tw = Tensor(a), Tensor(w)
    with no_grad():
        wrapped = _median_seconds(lambda: ta @ tw, 200)
    raw = _median_seconds(lambda: np.matmul(a, w), 200)
    out["tensor.matmul_wrap_ratio"] = wrapped / raw
    return out
