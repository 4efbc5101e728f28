"""Pipeline schedules and bubble model.

Numerics of pipelined training live in :mod:`repro.parallel.pipeline`
(execution order is irrelevant to gradients); this module models *time*:
schedule event lists, an explicit timeline simulator, and the closed-form
bubble fractions the scaling analysis uses.

Schedules
---------
* **GPipe** — all forwards, then all backwards; bubble (PP−1)/(M+PP−1) in
  the uniform-stage, t_bwd = 2 t_fwd approximation.
* **1F1B** — same bubble, much lower activation footprint (≤ PP in-flight
  microbatches instead of M); what AERIS uses.
* **Zero-bubble (ZB-H1)** — the paper's future-work item: splitting the
  backward into input- and weight-gradient parts fills the bubble; modeled
  with the ZB-H1 bound of ~1/3 of the 1F1B bubble.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["bubble_fraction", "observed_bubble", "Event", "schedule_gpipe",
           "schedule_1f1b", "schedule_zb_h1", "SCHEDULES",
           "simulate_schedule", "simulate_timeline", "max_in_flight"]


def bubble_fraction(pp: int, microbatches: int, schedule: str = "1f1b"
                    ) -> float:
    """Idle fraction of the pipelined forward/backward phase."""
    if pp < 1 or microbatches < 1:
        raise ValueError("pp and microbatches must be positive")
    base = (pp - 1) / (microbatches + pp - 1)
    if schedule in ("1f1b", "gpipe"):
        return base
    if schedule == "zero-bubble":
        return base / 3.0
    raise ValueError(f"unknown schedule {schedule!r}")


def observed_bubble(spans) -> tuple[float, int, float]:
    """``(bubble, n_tracks, makespan)`` re-measured from the geometry of
    one pipelined phase's stage-pass spans (one ``track`` per rank):
    ``bubble = 1 − busy / (n_tracks · makespan)``, the quantity
    :func:`simulate_timeline` reports for a modelled schedule."""
    n_tracks = len({s.track for s in spans})
    makespan = max(s.end for s in spans) - min(s.start for s in spans)
    busy = sum(s.duration for s in spans)
    return 1.0 - busy / (n_tracks * makespan), n_tracks, makespan


@dataclass(frozen=True)
class Event:
    stage: int
    microbatch: int
    phase: str   # "F" or "B"


def schedule_gpipe(pp: int, microbatches: int) -> list[list[Event]]:
    """Per-stage event order: all forwards then all backwards."""
    return [[Event(s, m, "F") for m in range(microbatches)]
            + [Event(s, m, "B") for m in range(microbatches)]
            for s in range(pp)]


def schedule_1f1b(pp: int, microbatches: int) -> list[list[Event]]:
    """Per-stage event order under 1F1B: warmup forwards, steady-state
    alternating F/B, cooldown backwards."""
    out = []
    for s in range(pp):
        warmup = min(pp - s, microbatches)
        events = [Event(s, m, "F") for m in range(warmup)]
        fwd_next, bwd_next = warmup, 0
        while bwd_next < microbatches:
            events.append(Event(s, bwd_next, "B"))
            bwd_next += 1
            if fwd_next < microbatches:
                events.append(Event(s, fwd_next, "F"))
                fwd_next += 1
        out.append(events)
    return out


def schedule_zb_h1(pp: int, microbatches: int) -> list[list[Event]]:
    """A ZB-H1-style schedule: the backward is split into input-gradient
    ("B") and weight-gradient ("W") parts; W has no cross-stage dependency,
    so deferring it fills what would otherwise be cooldown bubble.

    This simplified generator issues the 1F1B order for F/B and appends all
    W passes at the end of each stage's list; the dependency-driven timeline
    then schedules W into the idle cooldown slots.
    """
    base = schedule_1f1b(pp, microbatches)
    out = []
    for s, events in enumerate(base):
        out.append(events + [Event(s, m, "W") for m in range(microbatches)])
    return out


#: Schedule name -> (per-stage event lists, share of the backward its "B"
#: pass does; a "W" pass does the rest).
SCHEDULES = {"gpipe": (schedule_gpipe, 1.0), "1f1b": (schedule_1f1b, 1.0),
             "zero-bubble": (schedule_zb_h1, 0.5)}


def simulate_schedule(name: str, pp: int, microbatches: int, t_fwd: float,
                      t_bwd: float) -> dict:
    """:func:`simulate_timeline` of the named schedule at per-pass costs
    ``t_fwd`` / ``t_bwd``.  ``"zero-bubble"`` replays :func:`schedule_zb_h1`
    with the backward split evenly into its input-gradient ("B") and
    weight-gradient ("W") passes, so the work per microbatch is unchanged;
    an unknown name raises ``ValueError``."""
    if name not in SCHEDULES:
        raise ValueError(f"unknown schedule {name!r}")
    maker, share = SCHEDULES[name]
    return simulate_timeline(maker(pp, microbatches), t_fwd=t_fwd,
                             t_bwd=t_bwd * share,
                             t_w=t_bwd * (1.0 - share))


def simulate_timeline(schedule: list[list[Event]], t_fwd: float,
                      t_bwd: float, t_w: float | None = None) -> dict:
    """Dependency-driven timeline of a pipeline schedule.

    Dependencies: F(s, m) needs F(s−1, m); B(s, m) needs B(s+1, m) and the
    local F(s, m); W(s, m) needs only the local B(s, m). Stages process
    their own event lists in order, except that W passes may be overtaken
    by later-queued F/B work (they are fill-in work by construction).
    Returns the makespan, per-stage busy time, the bubble fraction, and the
    resolved per-event times (``events``: one ``(phase, stage, microbatch,
    start, finish)`` tuple per scheduled pass) — the observability layer
    replays these onto per-rank trace tracks so the bubble is visible in
    ``chrome://tracing``.
    """
    pp = len(schedule)
    t_w = t_bwd / 2.0 if t_w is None else t_w
    durations = {"F": t_fwd, "B": t_bwd, "W": t_w}
    done: dict[tuple[str, int, int], float] = {}
    events: list[tuple[str, int, int, float, float]] = []
    ready_time = [0.0] * pp
    queues = [list(ev) for ev in schedule]
    remaining = sum(len(q) for q in queues)

    def dependency(ev: Event, s: int):
        """Finish time of ev's dependency, or None if not yet runnable."""
        if ev.phase == "F":
            if s == 0:
                return 0.0
            return done.get(("F", s - 1, ev.microbatch))
        if ev.phase == "B":
            dep_f = done.get(("F", s, ev.microbatch))
            if dep_f is None:
                return None
            if s == pp - 1:
                return dep_f
            dep_b = done.get(("B", s + 1, ev.microbatch))
            return None if dep_b is None else max(dep_f, dep_b)
        # W: local input-gradient pass must be complete.
        return done.get(("B", s, ev.microbatch))

    while remaining:
        progressed = False
        for s in range(pp):
            if not queues[s]:
                continue
            # Head-of-line event; if it is blocked and a W is available,
            # run the W instead (fill-in semantics).
            chosen = None
            head = queues[s][0]
            dep = dependency(head, s)
            if dep is not None:
                chosen = (0, head, dep)
            else:
                for i, ev in enumerate(queues[s]):
                    if ev.phase != "W":
                        continue
                    dep_w = dependency(ev, s)
                    if dep_w is not None:
                        chosen = (i, ev, dep_w)
                        break
            if chosen is None:
                continue
            i, ev, dep = chosen
            start = max(ready_time[s], dep)
            finish = start + durations[ev.phase]
            done[(ev.phase, s, ev.microbatch)] = finish
            events.append((ev.phase, s, ev.microbatch, start, finish))
            ready_time[s] = finish
            queues[s].pop(i)
            remaining -= 1
            progressed = True
        if not progressed:
            raise RuntimeError("schedule deadlocked")
    makespan = max(done.values())
    busy = [sum(durations[ev.phase] for ev in stage_events)
            for stage_events in schedule]
    bubble = 1.0 - sum(busy) / (pp * makespan)
    return {"makespan": makespan, "busy_per_stage": busy[0],
            "bubble": bubble, "events": events}


def max_in_flight(schedule: list[list[Event]]) -> int:
    """Peak number of microbatches whose activations stage 0 must hold
    (forwards issued minus backwards completed) — the memory advantage of
    1F1B over GPipe."""
    peak = 0
    outstanding = 0
    for ev in schedule[0]:
        if ev.phase == "F":
            outstanding += 1
        else:
            outstanding -= 1
        peak = max(peak, outstanding)
    return peak
