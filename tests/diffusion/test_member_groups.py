"""Member groups: ``step_sharded`` runs a data step over contiguous groups
of ensemble members at once, and every observable of one
``step_members`` call survives the split — next states and their dtype,
generator states, FLOP totals, the per-member counters, a served batch's
forecast.  Each case forces the core count by monkeypatching
``rows._CORES``, so it runs the same on a 1-core box."""

import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from repro import obs, rows
from repro.diffusion import SolverConfig, member_rngs
from repro.diffusion.sampler import (ResidualForecaster, lockstep_rollout,
                                     step_sharded)
from repro.kernels import abft_guard
from repro.model import Aeris
from repro.resilience import FaultInjector, FaultPlan, inject_compute
from repro.serve import OneStepForecaster
from repro.tensor import count_flops

from ..serve.test_service import make_service, request
from .test_one_path_exact import FIELDS, same_stream

#: Counters booked per member, whatever the grouping.
PER_MEMBER = ("sampler.member_forwards", "sampler.data_steps",
              "solver.steps")


@pytest.fixture(params=["standard", "high", "fast"])
def stepper(request, serve_world):
    """The three tiers' steppers: 2S, 2S with churn, the one-step
    student."""
    _, forecaster, student, _ = serve_world
    if request.param == "fast":
        fields = {name: getattr(forecaster, name) for name in FIELDS}
        return OneStepForecaster(**dict(fields, model=student))
    return replace(forecaster, solver_config={
        "standard": SolverConfig(10),
        "high": SolverConfig(20, churn=0.3)}[request.param])


@pytest.fixture
def calls(monkeypatch):
    """Rows and thread of every ``step_members`` call, either class."""
    seen = []
    for cls in (ResidualForecaster, OneStepForecaster):
        original = vars(cls)["step_members"]

        def spy(self, states, time_indices, rngs, _original=original):
            seen.append((len(rngs), threading.get_ident()))
            return _original(self, states, time_indices, rngs)

        monkeypatch.setattr(cls, "step_members", spy)
    return seen


def member_states(serve_world, members):
    archive, _, _, idx = serve_world
    return np.stack([archive.fields[idx + k % 3] for k in range(members)])


class TestExactness:
    @pytest.mark.parametrize("members, cores, groups", [
        (8, 2, [4, 4]), (9, 2, [4, 5]), (16, 2, [8, 8]), (18, 2, [9, 9]),
        (8, 3, [4, 4]), (9, 3, [4, 5]), (16, 3, [5, 5, 6]),
        (18, 3, [6, 6, 6])])
    def test_groups_equal_one_call(self, serve_world, stepper, members,
                                   cores, groups, calls, monkeypatch):
        _, _, _, idx = serve_world
        states = member_states(serve_world, members)
        indices = [idx + k % 2 for k in range(members)]
        ours, theirs = member_rngs(members, 9), member_rngs(members, 9)
        monkeypatch.setattr(rows, "_CORES", 1)
        want = stepper.step_members(states, indices, theirs)
        monkeypatch.setattr(rows, "_CORES", cores)
        del calls[:]
        got = step_sharded(stepper, states, indices, ours)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
        assert all(map(same_stream, ours, theirs))
        assert sorted(n for n, _ in calls) == groups
        assert len({thread for _, thread in calls}) > 1

    def test_lockstep_rollout_is_one_join_per_data_step(self, serve_world,
                                                        calls, monkeypatch):
        archive, forecaster, _, idx = serve_world
        stepper = replace(forecaster, solver_config=SolverConfig(2))
        out = np.zeros((8, 3) + archive.fields[idx].shape, np.float32)
        out[:, 0] = archive.fields[idx]
        runs = []
        for cores in (1, 2):
            monkeypatch.setattr(rows, "_CORES", cores)
            runs.append(lockstep_rollout(stepper, out.copy(),
                                         member_rngs(8, 4), idx))
        np.testing.assert_array_equal(runs[1], runs[0])
        assert [n for n, _ in calls] == [8, 8, 4, 4, 4, 4]

    def test_served_batch_with_followers_equals_one_group(self, serve_world,
                                                          calls,
                                                          monkeypatch):
        """Single flight inside a batch: the second and third requests
        re-ask the first's members (followers), so the rows stepped are
        the distinct member-states; the groups split those."""
        def serve(cores):
            monkeypatch.setattr(rows, "_CORES", cores)
            svc = make_service(serve_world, with_student=True)
            reqs = [request(serve_world, tier=tier, n_members=m, n_steps=n,
                            seed=seed, arrival_s=0.0)
                    for tier, m, n, seed in (
                        ("fast", 8, 2, 1), ("fast", 4, 2, 1),
                        ("fast", 6, 1, 1), ("fast", 2, 2, 3),
                        ("standard", 9, 1, 2), ("standard", 9, 1, 2))]
            resps = svc.run(reqs)
            assert svc.pool.n_dispatches == 2
            return resps

        serial = serve(1)
        del calls[:]
        split = serve(2)
        assert sorted(n for n, _ in calls) == [4] + [5] * 5
        for a, b in zip(serial, split):
            assert a.ok and b.ok
            np.testing.assert_array_equal(b.forecast, a.forecast)
            assert (b.cache_hits, b.cache_misses, b.batch_forwards) == \
                (a.cache_hits, a.cache_misses, a.batch_forwards)


class TestAccounting:
    def test_flop_and_counter_totals_equal(self, serve_world, monkeypatch):
        _, forecaster, _, idx = serve_world
        stepper = replace(forecaster, solver_config=SolverConfig(2))
        states = member_states(serve_world, 16)
        totals = []
        for cores in (1, 2):
            monkeypatch.setattr(rows, "_CORES", cores)
            with obs.observed() as (_, registry), count_flops() as flops:
                step_sharded(stepper, states, idx, member_rngs(16, 2))
            totals.append((flops.forward, flops.backward, {
                name: registry.counter(name).total()
                for name in PER_MEMBER + ("sampler.model_forwards",)}))
        (serial_flops, back, serial), (split_flops, _, split) = totals
        assert serial_flops == split_flops > 0 and back == 0
        assert serial["sampler.member_forwards"] == 16 * 3
        assert serial["sampler.data_steps"] == serial["solver.steps"] == 16
        for name in PER_MEMBER:
            assert split[name] == serial[name]
        # one stacked forward per solver evaluation per group
        assert serial["sampler.model_forwards"] == 3
        assert split["sampler.model_forwards"] == 2 * 3

    def test_a_forward_inside_a_group_submits_nothing(self, serve_world,
                                                      monkeypatch):
        """Each group's forwards run whole (``_IN_SHARD``): the one pool
        worker is handed the second group and nothing else, so it never
        waits on itself."""
        _, forecaster, _, idx = serve_world
        stepper = replace(forecaster, solver_config=SolverConfig(2))
        monkeypatch.setattr(rows, "_CORES", 2)
        monkeypatch.setattr(rows, "_POOL", None)
        submitted, bounds = [], []
        pool = rows._pool()
        submit, row_bounds = pool.submit, rows._row_bounds

        def counting(fn, *args):
            submitted.append(args[1:])
            return submit(fn, *args)

        def recording(n):
            bounds.append((n, row_bounds(n)))
            return bounds[-1][1]

        monkeypatch.setattr(pool, "submit", counting)
        monkeypatch.setattr(rows, "_row_bounds", recording)
        forwards = []
        forward = Aeris.forward

        def spy(self, x_t, *args):
            forwards.append(x_t.shape[0])
            return forward(self, x_t, *args)

        monkeypatch.setattr(Aeris, "forward", spy)
        try:
            step_sharded(stepper, member_states(serve_world, 16), idx,
                         member_rngs(16, 0))
        finally:
            pool.shutdown(wait=True)
        assert submitted == [(8, 16)]
        assert forwards == [8] * 6
        assert bounds[0] == (16, [0, 8, 16])
        assert bounds[1:] == [(8, [0, 8])] * 6

    @pytest.mark.parametrize("guard", ["abft", "injector"])
    def test_a_live_guard_keeps_one_group(self, serve_world, guard, calls,
                                          monkeypatch):
        """Guarded GEMMs are addressed by their order in the step."""
        _, forecaster, _, idx = serve_world
        stepper = replace(forecaster, solver_config=SolverConfig(2))
        monkeypatch.setattr(rows, "_CORES", 2)
        live = abft_guard() if guard == "abft" \
            else inject_compute(FaultInjector(FaultPlan(events=())))
        with live:
            step_sharded(stepper, member_states(serve_world, 16), idx,
                         member_rngs(16, 0))
        assert [n for n, _ in calls] == [16]


class TestFailure:
    @pytest.mark.parametrize("failing", ["caller", "worker"])
    def test_error_raised_after_every_group_joined(self, serve_world,
                                                   failing, monkeypatch):
        _, forecaster, _, idx = serve_world
        stepper = replace(forecaster, solver_config=SolverConfig(2))
        monkeypatch.setattr(rows, "_CORES", 2)
        main, finished = threading.get_ident(), []
        original = vars(ResidualForecaster)["step_members"]

        def flaky(self, states, time_indices, rngs):
            in_caller = threading.get_ident() == main
            if in_caller == (failing == "caller"):
                raise RuntimeError(f"{failing} group failed")
            time.sleep(0.2)             # the healthy group finishes last
            out = original(self, states, time_indices, rngs)
            finished.append(len(rngs))
            return out

        monkeypatch.setattr(ResidualForecaster, "step_members", flaky)
        with pytest.raises(RuntimeError, match=f"{failing} group"):
            step_sharded(stepper, member_states(serve_world, 8), idx,
                         member_rngs(8, 0))
        assert finished == [4]
