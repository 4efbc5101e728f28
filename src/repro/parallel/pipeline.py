"""Pipeline parallelism over the AERIS stage structure PP = L + 2.

The paper isolates data I/O + input embedding into the first stage and
decoding + output into the last, with one Swin layer per interior stage —
keeping I/O latency out of the interior stages' bubble.  The other depth a
pipeline takes is PP = 1: one stage that runs ``Aeris.forward`` and one
backward sweep, the single-process step (the training engine's
:class:`~repro.train.Trainer` runs there).

This executor performs *real* pipelined training numerics: activations are
detached at stage boundaries, handed to the next stage (metered as PP
send/recv), and gradients are routed back through the same boundaries during
backward.  Gradient accumulation over microbatches happens naturally because
``Tensor.backward`` accumulates into parameter ``.grad``.  The resulting
gradients match a monolithic forward/backward to ``rtol=2e-4`` (what
``test_gradients_match_monolithic`` holds), not bit-for-bit: microbatch
accumulation associates the sums differently (ROADMAP fact (viii)).

Execution order inside one process is sequential; the 1F1B/GPipe *timing*
(bubble fraction) is modeled in :mod:`repro.perf.pipeline_model`, which is
also where the schedules live.

Tracing (:mod:`repro.obs`): when enabled, every stage pass is an
``obs.span`` (category ``pp-exec``), and after each ``forward_backward`` the
measured mean
stage costs are replayed through
:func:`repro.perf.pipeline_model.simulate_timeline` onto **per-rank
1F1B tracks** (category ``pp-1f1b``) — the exported Chrome trace then
shows the warmup/steady-state/cooldown staircase and the bubble the perf
model predicts, even though the simulation executes sequentially.  With
tracing disabled none of this runs (no clock reads, no span objects).
"""

from __future__ import annotations

import numpy as np

from ..model import Aeris
from ..obs.profile import count as _count, gauge as _gauge, get_tracer
from ..obs.profile import span as _span
from ..tensor import Tensor
from .comm import SimCluster

__all__ = ["AerisPipeline", "pipeline_check"]


class AerisPipeline:
    """Microbatched pipelined forward/backward for an :class:`Aeris`.

    Parameters
    ----------
    model:
        The full model (stage views are taken of its submodules; parameters
        are shared, not copied).
    cluster / pp_group:
        Optional metering: activation handoffs are charged as p2p bytes
        between consecutive ``pp_group`` ranks.  The group's length is
        the stage count, 1 or ``L + 2`` (``L + 2`` without a group).
    name:
        Trace track prefix (``dp0``, ``dp1``, ... inside a SWiPe engine) so
        per-replica timelines stay distinguishable.
    """

    def __init__(self, model: Aeris, cluster: SimCluster | None = None,
                 pp_group: list[int] | None = None, name: str = "pp"):
        self.model = model
        self.cluster = cluster
        self.pp_group = pp_group
        self.name = name
        self.n_stages = (len(pp_group) if pp_group
                         else model.config.pp_stages)
        if self.n_stages not in (1, model.config.pp_stages):
            raise ValueError(f"{self.n_stages} pipeline stages: the model "
                             f"runs as 1 or {model.config.pp_stages}")
        self._virtual_clock = None  # end of the last replayed 1F1B timeline

    def _meter(self, stage: int, nbytes: int,
               payload: np.ndarray | None = None) -> None:
        """Charge a stage-boundary handoff as p2p traffic; routed through
        the cluster's fault-aware transfer so pipeline activations can
        experience (and surface) injected faults."""
        if self.cluster is None or self.pp_group is None:
            return
        self.cluster.transfer("p2p", self.pp_group[stage],
                              self.pp_group[stage + 1], nbytes,
                              payload=payload)

    def forward_backward(self, x_t: np.ndarray, t: np.ndarray,
                         cond: np.ndarray, forc: np.ndarray,
                         loss_fn, n_micro: int) -> float:
        """Run ``n_micro`` microbatches; returns the *sum* of loss values.

        ``loss_fn(pred: Tensor, micro_slice: slice) -> Tensor`` must already
        scale by ``1 / n_micro`` if averaged gradients are desired — the
        summed return value then equals the full-batch mean loss.
        Parameter gradients accumulate across microbatches.
        """
        batch = x_t.shape[0]
        if batch % n_micro:
            raise ValueError(f"batch {batch} not divisible into {n_micro} "
                             "microbatches")
        tracer = get_tracer()
        first = len(tracer.spans) if tracer is not None else 0
        mb = batch // n_micro
        total_loss = 0.0
        for m in range(n_micro):
            sl = slice(m * mb, (m + 1) * mb)
            total_loss += self._one_microbatch(
                x_t[sl], t[sl], cond[sl], forc[sl],
                lambda pred: loss_fn(pred, sl), m)
        if tracer is not None and self.n_stages > 1:
            self._replay_1f1b(tracer, tracer.spans[first:], n_micro)
        return total_loss

    def _pass(self, phase: str, stage: int, micro: int):
        """The execution span of one (phase, stage) pass of a microbatch."""
        return _span(f"{phase} s{stage} m{micro}", track=f"{self.name}/exec",
                     category="pp-exec", phase=phase, stage=stage, micro=micro)

    # -- 1F1B timeline replay ----------------------------------------------
    def _replay_1f1b(self, tracer, recorded: list, n_micro: int) -> None:
        """Lay the mean stage costs of this call's ``pp-exec`` spans onto
        the 1F1B schedule as per-rank virtual spans; consecutive calls
        extend the same virtual timeline so multi-step bubbles stay
        geometrically exact."""
        from ..perf.pipeline_model import schedule_1f1b, simulate_timeline
        passes = [s for s in recorded if s.category == "pp-exec"]
        fwd, bwd = ([s.duration for s in passes if s.attrs["phase"] == phase]
                    for phase in "FB")
        if not fwd or not bwd:
            return
        sim = simulate_timeline(schedule_1f1b(self.n_stages, n_micro),
                                t_fwd=sum(fwd) / len(fwd),
                                t_bwd=sum(bwd) / len(bwd))
        base = self._virtual_clock if self._virtual_clock is not None \
            else tracer.clock()
        for phase, stage, micro, start, finish in sim["events"]:
            tracer.add_span(f"{phase}{micro}", base + start, base + finish,
                            track=f"{self.name}/rank{stage}",
                            category="pp-1f1b", phase=phase, stage=stage,
                            micro=micro)
        self._virtual_clock = base + sim["makespan"]
        _count("pp.microbatches", "microbatches through the pipeline",
               n_micro, pipeline=self.name)
        _gauge("pp.bubble", "1F1B bubble at measured stage costs",
               sim["bubble"], pipeline=self.name)

    # -- single microbatch -------------------------------------------------
    def _one_microbatch(self, x_t, t, cond, forc, loss_fn,
                        micro: int = 0) -> float:
        model = self.model
        if self.n_stages == 1:
            with self._pass("F", 0, micro):
                loss = loss_fn(model(Tensor(x_t), Tensor(t), Tensor(cond),
                                     Tensor(forc)))
            with self._pass("B", 0, micro):
                loss.backward()
            return loss.item()
        # Stage 0: I/O + embedding (+ the shared time embedding, which is
        # broadcast to every interior stage).
        with self._pass("F", 0, micro):
            embed_out = model.embed_stage(Tensor(x_t), Tensor(cond),
                                          Tensor(forc))
            t_emb = model.time_embed(Tensor(t))
        act = embed_out

        boundary_inputs: list[Tensor] = []
        boundary_tembs: list[Tensor] = []
        stage_outputs: list[Tensor] = []
        for s, layer in enumerate(model.layers):
            with self._pass("F", s + 1, micro):
                inp = Tensor(act.numpy().copy(), requires_grad=True)
                temb_in = Tensor(t_emb.numpy().copy(), requires_grad=True)
                self._meter(s, inp.data.nbytes + temb_in.data.nbytes,
                            payload=inp.data)
                out = layer(inp, temb_in)
            boundary_inputs.append(inp)
            boundary_tembs.append(temb_in)
            stage_outputs.append(out)
            act = out
        # Last stage: decode + loss; its backward runs down to the stage
        # boundary (``dec_in`` is the detached boundary tensor).
        with self._pass("F", self.n_stages - 1, micro):
            dec_in = Tensor(act.numpy().copy(), requires_grad=True)
            self._meter(self.n_stages - 2, dec_in.data.nbytes,
                        payload=dec_in.data)
            pred = model.decode_stage(dec_in)
            loss = loss_fn(pred)
        with self._pass("B", self.n_stages - 1, micro):
            loss.backward()

        # Backward through interior stages, routing boundary gradients.
        grad = dec_in.grad
        for s in range(len(model.layers) - 1, -1, -1):
            with self._pass("B", s + 1, micro):
                self._meter(s, grad.nbytes, payload=grad)
                stage_outputs[s].backward(grad)
                grad = boundary_inputs[s].grad
        with self._pass("B", 0, micro):
            # Time-embedding gradients arrive from every interior stage.
            temb_grad = np.zeros_like(t_emb.numpy())
            for temb_in in boundary_tembs:
                if temb_in.grad is not None:
                    temb_grad += temb_in.grad
            t_emb.backward(temb_grad)
            # Embedding-stage backward: the stage-0 graph was kept alive via
            # `embed_out`; `grad` now holds dL/d(embedding output).
            embed_out.backward(grad)
        return loss.item()


def pipeline_check(report, pp: int, n_micro: int, schedule: str = "1f1b",
                   category: str = "pp-1f1b",
                   track_prefix: str | None = None,
                   tol_simulated: float = 0.02,
                   tol_closed_form: float = 0.2) -> dict:
    """Observed bubble fraction (from the trace geometry) vs. the perf
    model's closed form and a timeline replay at measured stage costs.

    A :class:`repro.obs.TraceReport` check over the per-rank ``pp-1f1b``
    spans :class:`AerisPipeline` lays onto the trace.  The closed form
    assumes uniform stages with ``t_bwd = 2 t_fwd``; real stages are not
    uniform (I/O stages are thinner than Swin stages), hence the looser
    ``tol_closed_form``.
    """
    from ..perf.pipeline_model import (bubble_fraction, observed_bubble,
                                       simulate_schedule)
    spans = report.tracer.select(category=category,
                                 track_prefix=track_prefix)
    if not spans:
        where = f"category {category!r}"
        if track_prefix is not None:
            where += f" on tracks starting with {track_prefix!r}"
        raise ValueError(f"no spans with {where}")
    observed, n_tracks, makespan = observed_bubble(spans)
    predicted_closed = bubble_fraction(pp, n_micro, schedule)
    fwd = [s.duration for s in spans if s.attrs.get("phase") == "F"]
    bwd = [s.duration for s in spans if s.attrs.get("phase") == "B"]
    predicted_sim = None
    if fwd and bwd:
        predicted_sim = simulate_schedule(
            schedule, pp, n_micro, t_fwd=sum(fwd) / len(fwd),
            t_bwd=sum(bwd) / len(bwd))["bubble"]
    err_closed = abs(observed - predicted_closed)
    err_sim = (abs(observed - predicted_sim)
               if predicted_sim is not None else None)
    agrees = (err_closed <= tol_closed_form
              and (err_sim is None or err_sim <= tol_simulated))
    return {
        "check": "pipeline_bubble",
        "pp": pp, "n_micro": n_micro, "schedule": schedule,
        "n_tracks": n_tracks, "n_spans": len(spans),
        "makespan_s": makespan,
        "observed_bubble": observed,
        "predicted_bubble_closed_form": predicted_closed,
        "predicted_bubble_simulated": predicted_sim,
        "abs_error_closed_form": err_closed,
        "abs_error_simulated": err_sim,
        "agrees": agrees,
        "summary": (
            f"pipeline bubble (PP={pp}, M={n_micro}, {schedule}): "
            f"observed {observed:.4f} | closed-form {predicted_closed:.4f}"
            + (f" | simulated {predicted_sim:.4f}"
               if predicted_sim is not None else "")
            + f" | {'OK' if agrees else 'MISMATCH'}"),
    }
