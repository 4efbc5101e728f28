"""Delta-debugging shrinker for failing scenarios.

Given a scenario whose run produced violations, :func:`shrink` searches
for a smaller scenario that *still* trips at least one of the same
invariants, using the classic ddmin algorithm over the fault-event list
plus domain-specific reduction passes:

* **events** — ddmin over the scheduled fault events;
* **rates** — zero the background fault rates (all at once, then one at
  a time);
* **horizon** — shorten the run (fewer train steps / serve requests);
* **load** — thin the serve workload to single-member forecasts;
* **deploy** — drop the canary-deployment phase entirely.

Passes repeat to a fixpoint under an evaluation budget.  A candidate is
accepted iff its violation set still intersects the original failing
invariant names — the shrunk repro fails *for the same reason*, not just
somehow.  Every accepted reduction is recorded so the CLI can narrate
the shrink trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .scenario import Scenario

__all__ = ["ShrinkResult", "shrink"]


@dataclass
class ShrinkResult:
    """Outcome of one shrink search."""

    scenario: Scenario          #: the minimized scenario
    result: object              #: its RunResult (still failing)
    evals: int = 0              #: scenario executions spent
    steps: list = field(default_factory=list)  #: accepted reductions


class _Search:
    """Shared state: eval budget, memoized runs, current best."""

    def __init__(self, run_fn, failing_names, max_evals: int):
        self.run_fn = run_fn
        self.failing = frozenset(failing_names)
        self.max_evals = max_evals
        self.evals = 0
        self._seen: set[str] = set()

    def exhausted(self) -> bool:
        return self.evals >= self.max_evals

    def still_fails(self, scenario: Scenario):
        """Run ``scenario``; return its RunResult if it reproduces one of
        the original failing invariants, else None.  Duplicate candidates
        (already tried this search) are skipped without spending evals."""
        key = repr(sorted(scenario.to_dict().items(), key=repr))
        if key in self._seen or self.exhausted():
            return None
        self._seen.add(key)
        self.evals += 1
        result = self.run_fn(scenario)
        if result.violation_names() & self.failing:
            return result
        return None


def _chunks(items: list, n: int) -> list[list]:
    size = max(1, len(items) // n)
    out = [items[i:i + size] for i in range(0, len(items), size)]
    return out[:n - 1] + [sum(out[n - 1:], [])] if len(out) > n else out


def _ddmin_events(scenario: Scenario, search: _Search, accept) -> Scenario:
    """Classic ddmin over the scheduled event list."""
    events = list(scenario.events)
    n = 2
    while len(events) >= 2 and not search.exhausted():
        reduced = False
        chunks = _chunks(events, n)
        for i, chunk in enumerate(chunks):
            rest = [e for j, c in enumerate(chunks) if j != i for e in c]
            candidate = replace(scenario, events=tuple(rest))
            result = search.still_fails(candidate)
            if result is not None:
                accept(candidate, result,
                       f"drop {len(chunk)} event(s) -> {len(rest)} left")
                scenario, events = candidate, rest
                n = max(2, n - 1)
                reduced = True
                break
        if not reduced:
            if n >= len(events):
                break
            n = min(len(events), 2 * n)
    # 1-minimal polish: try dropping each surviving event individually.
    i = 0
    while i < len(events) and not search.exhausted():
        rest = events[:i] + events[i + 1:]
        candidate = replace(scenario, events=tuple(rest))
        result = search.still_fails(candidate)
        if result is not None:
            accept(candidate, result, "drop 1 event")
            scenario, events = candidate, rest
        else:
            i += 1
    return scenario


def _zero_rates(scenario: Scenario, search: _Search, accept) -> Scenario:
    rates = dict(scenario.rates)
    live = [k for k, v in rates.items() if v > 0]
    if not live:
        return scenario
    zeroed = tuple(sorted((k, 0.0) for k in rates))
    candidate = replace(scenario, rates=zeroed)
    result = search.still_fails(candidate)
    if result is not None:
        accept(candidate, result, "zero all background rates")
        return candidate
    for key in live:
        trial = dict(rates)
        trial[key] = 0.0
        candidate = replace(scenario,
                            rates=tuple(sorted(trial.items())))
        result = search.still_fails(candidate)
        if result is not None:
            accept(candidate, result, f"zero rate {key}")
            scenario, rates = candidate, trial
    return scenario


def _shorten_horizon(scenario: Scenario, search: _Search,
                     accept) -> Scenario:
    n = scenario.horizon
    for target in (1, n // 4, n // 2):
        if target < 1 or target >= scenario.horizon:
            continue
        candidate = scenario.with_horizon(target)
        result = search.still_fails(candidate)
        if result is not None:
            accept(candidate, result, f"horizon {n} -> {target}")
            return candidate
    return scenario


def _thin_load(scenario: Scenario, search: _Search, accept) -> Scenario:
    if scenario.serve is None or scenario.serve.n_members <= 1:
        return scenario
    candidate = replace(scenario,
                        serve=replace(scenario.serve, n_members=1))
    result = search.still_fails(candidate)
    if result is not None:
        accept(candidate, result, "thin load: single-member forecasts")
        return candidate
    return scenario


def _drop_deploy(scenario: Scenario, search: _Search, accept) -> Scenario:
    if scenario.workload != "serve_deploy":
        return scenario
    candidate = replace(scenario, workload="serve", deploy=None)
    result = search.still_fails(candidate)
    if result is not None:
        accept(candidate, result, "drop canary deployment")
        return candidate
    return scenario


_PASSES = (_drop_deploy, _ddmin_events, _zero_rates, _shorten_horizon,
           _thin_load)


def shrink(scenario: Scenario, failing_names, run_fn,
           max_evals: int = 80, initial_result=None) -> ShrinkResult:
    """Minimize ``scenario`` while preserving a failure.

    Parameters
    ----------
    scenario:
        The failing scenario to reduce.
    failing_names:
        Invariant names the original run violated; a candidate counts as
        failing iff its violations intersect this set.
    run_fn:
        ``Scenario -> RunResult`` (normally ``SimRunner.run``).
    max_evals:
        Hard cap on scenario executions across all passes.
    initial_result:
        The original RunResult, if already in hand (avoids one re-run).
    """
    search = _Search(run_fn, failing_names, max_evals)
    if initial_result is None:
        initial_result = run_fn(scenario)
        search.evals += 1
    if not (set(initial_result.violation_names()) & search.failing):
        raise ValueError("scenario does not fail the given invariants; "
                         "nothing to shrink")
    best = ShrinkResult(scenario=scenario, result=initial_result)

    def accept(candidate, result, note):
        best.scenario = candidate
        best.result = result
        best.steps.append(note)

    changed = True
    while changed and not search.exhausted():
        before = best.scenario
        for pass_fn in _PASSES:
            pass_fn(best.scenario, search, accept)
        changed = best.scenario is not before
    best.evals = search.evals
    return best
