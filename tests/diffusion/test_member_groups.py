"""Member groups: ``step_sharded`` runs a data step over contiguous groups
of ensemble members at once — this process the first, a kept worker
process each other — and every observable of one ``step_members`` call
survives the split: next states and their dtype, generator states, a
served batch's forecast.  Each case forces the core count by
monkeypatching ``rows._CORES`` (the reference runs at 1), so it runs the
same on a 1-core box.  A worker's own calls are not seen here: the groups
are read from what this process steps and what it sends (``sent``)."""

import os
import pickle
import signal
import time
import types
from dataclasses import dataclass, replace

import numpy as np
import pytest

from repro import obs, rows
from repro.baselines import DeterministicTrainer, EdmConfig, EdmTrainer
from repro.diffusion import SolverConfig, member_rngs
from repro.diffusion.sampler import (ResidualForecaster, lockstep_rollout,
                                     step_sharded)
from repro.kernels import abft_guard
from repro.model import Aeris
from repro.resilience import FaultInjector, FaultPlan, inject_compute
from repro.serve import OneStepForecaster
from repro.tensor import count_flops, no_grad

from ..serve.test_service import make_service, request
from .test_one_path_exact import FIELDS, same_stream

#: Counters booked per member, whatever the grouping.
PER_MEMBER = ("sampler.member_forwards", "sampler.data_steps",
              "solver.steps")


@pytest.fixture(params=["standard", "high", "fast"])
def stepper(request, serve_world):
    """The three tiers' steppers: 2S, 2S with churn, the one-step
    student."""
    return tiers(serve_world, {"standard": SolverConfig(10),
                               "high": SolverConfig(20, churn=0.3)}
                 )[request.param]


def tiers(serve_world, configs) -> dict:
    """One stepper per tier, ``configs`` the diffusion tiers' solvers."""
    _, forecaster, student, _ = serve_world
    fields = {name: getattr(forecaster, name) for name in FIELDS}
    return {"fast": OneStepForecaster(**dict(fields, model=student)),
            **{name: replace(forecaster, solver_config=config)
               for name, config in configs.items()}}


@pytest.fixture(scope="module")
def flows(serve_world):
    """A stepper of each parameterization: TrigFlow's DPM-Solver, the
    one-step student, the EDM baseline's Heun sampler, the point
    baseline's single forward."""
    archive, forecaster, student, _ = serve_world
    config = forecaster.model.config
    fields = {name: getattr(forecaster, name) for name in FIELDS}
    return {
        "dpm": replace(forecaster, solver_config=SolverConfig(2, churn=0.3)),
        "student": OneStepForecaster(**dict(fields, model=student)),
        "edm": EdmTrainer(Aeris(config, seed=2), archive,
                          edm=EdmConfig(n_sample_steps=2)).forecaster(),
        "point": DeterministicTrainer(Aeris(config, seed=1),
                                      archive).forecaster()}


@pytest.fixture
def calls(monkeypatch):
    """Rows of every ``step_members`` call this process makes, either
    class."""
    seen = []
    for cls in (ResidualForecaster, OneStepForecaster):
        original = vars(cls)["step_members"]

        def spy(self, states, time_indices, rngs, _original=original):
            seen.append(len(rngs))
            return _original(self, states, time_indices, rngs)

        monkeypatch.setattr(cls, "step_members", spy)
    return seen


@pytest.fixture
def sent(monkeypatch):
    """``(lo, hi)`` of every request sent to a worker."""
    bounds = []

    def dumps(obj, protocol):
        bounds.append(obj[:2])
        return pickle.dumps(obj, protocol)

    monkeypatch.setattr(rows, "pickle", types.SimpleNamespace(
        dumps=dumps, HIGHEST_PROTOCOL=pickle.HIGHEST_PROTOCOL))
    return bounds


@pytest.fixture
def forks(monkeypatch):
    """Counts the forks made (the real ``os.fork`` runs)."""
    made = []
    real = os.fork

    def fork():
        pid = real()
        if pid:
            made.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return made


def member_states(serve_world, members):
    archive, _, _, idx = serve_world
    return np.stack([archive.fields[idx + k % 3] for k in range(members)])


def split_equals_serial(serve_world, stepper, members, cores, monkeypatch,
                        seed=9):
    """One data step of ``members`` members at ``cores`` against one
    ``step_members`` call at one core: equal states, dtype and generator
    streams.  Returns the states."""
    _, _, _, idx = serve_world
    states = member_states(serve_world, members)
    indices = [idx + k % 2 for k in range(members)]
    ours, theirs = member_rngs(members, seed), member_rngs(members, seed)
    monkeypatch.setattr(rows, "_CORES", 1)
    with no_grad():
        want = stepper.step_members(states, indices, theirs)
    monkeypatch.setattr(rows, "_CORES", cores)
    got = step_sharded(stepper, states, indices, ours)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)
    assert all(map(same_stream, ours, theirs))
    return got


class TestExactness:
    @pytest.mark.parametrize("members, cores, groups", [
        (8, 2, [4, 4]), (9, 2, [4, 5]), (16, 2, [8, 8]), (18, 2, [9, 9]),
        (8, 3, [2, 3, 3]), (9, 3, [3, 3, 3]), (16, 3, [5, 5, 6]),
        (18, 3, [6, 6, 6])])
    def test_groups_equal_one_call(self, serve_world, stepper, members,
                                   cores, groups, calls, sent, forks,
                                   monkeypatch):
        split_equals_serial(serve_world, stepper, members, cores,
                            monkeypatch)
        assert calls[0] == members
        assert calls[1:] + [hi - lo for lo, hi in sent] == groups
        assert len(forks) == cores - 1

    @pytest.mark.parametrize("members", [2, 3, 4, 5, 9, 16, 18])
    @pytest.mark.parametrize("flow", ["dpm", "student", "edm", "point"])
    def test_every_parameterization_at_every_member_count(
            self, serve_world, flows, flow, members, sent, monkeypatch):
        split_equals_serial(serve_world, flows[flow], members, 2,
                            monkeypatch)
        assert sent == [(members // 2, members)]

    def test_lockstep_rollout_is_one_join_per_data_step(self, serve_world,
                                                        calls, sent, forks,
                                                        monkeypatch):
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
        assert calls == [8, 8, 4, 4]
        assert sent == [(4, 8)] * 2 and len(forks) == 1

    def test_served_batch_with_followers_equals_one_group(self, serve_world,
                                                          calls, sent,
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
        assert sorted(calls + [hi - lo for lo, hi in sent]) == [4] + [5] * 5
        for a, b in zip(serial, split):
            assert a.ok and b.ok
            np.testing.assert_array_equal(b.forecast, a.forecast)
            assert (b.cache_hits, b.cache_misses, b.batch_forwards) == \
                (a.cache_hits, a.cache_misses, a.batch_forwards)


class TestAccounting:
    def test_flop_and_counter_totals_equal(self, serve_world, forks,
                                           monkeypatch):
        """A FLOP counter and an obs sink keep the step in this process
        (a worker's bookings would be lost with it): the totals are the
        serial step's."""
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
        assert split == serial and serial["sampler.model_forwards"] == 3
        assert forks == []

    def test_a_forward_inside_a_group_submits_nothing(self, serve_world,
                                                      monkeypatch):
        """Each group's forwards run whole (``_IN_SHARD``), here and in
        the worker, which was forked with these spies: a split a forward
        asked for inside a group is one group, or the worker's assertion
        error is raised here."""
        _, forecaster, _, idx = serve_world
        stepper = replace(forecaster, solver_config=SolverConfig(2))
        monkeypatch.setattr(rows, "_CORES", 2)
        bounds, fork_bounds = [], rows._fork_bounds

        def spied(n):
            bounds.append((n, fork_bounds(n)))
            return bounds[-1][1]

        monkeypatch.setattr(rows, "_fork_bounds", spied)
        forwards = []
        forward = Aeris.forward

        def spy(self, x_t, *args):
            n = x_t.shape[0]
            forwards.append(n)
            assert rows._fork_bounds(n) == [0, n], "a nested split"
            return forward(self, x_t, *args)

        monkeypatch.setattr(Aeris, "forward", spy)
        step_sharded(stepper, member_states(serve_world, 16), idx,
                     member_rngs(16, 0))
        assert forwards == [8] * 3
        assert bounds == [(16, [0, 8, 16])] + [(8, [0, 8])] * 3

    @pytest.mark.parametrize("guard", ["abft", "injector"])
    def test_a_live_guard_keeps_one_group(self, serve_world, guard, calls,
                                          forks, monkeypatch):
        """Guarded GEMMs are addressed by their order in the step."""
        _, forecaster, _, idx = serve_world
        stepper = replace(forecaster, solver_config=SolverConfig(2))
        monkeypatch.setattr(rows, "_CORES", 2)
        live = abft_guard() if guard == "abft" \
            else inject_compute(FaultInjector(FaultPlan(events=())))
        with live:
            step_sharded(stepper, member_states(serve_world, 16), idx,
                         member_rngs(16, 0))
        assert calls == [16] and forks == []

    def test_a_model_that_is_not_a_module_stays_here(self, forks,
                                                     monkeypatch):
        """Only a :class:`~repro.nn.Module`'s weights can be shared with a
        worker: another model's steps run in one call here."""
        seen = []

        @dataclass
        class Stub:
            model: object

            def step_members(self, states, time_indices, rngs):
                seen.append(list(time_indices))
                return states + 1.0

        monkeypatch.setattr(rows, "_CORES", 2)
        states = np.zeros((4, 2, 3), np.float32)
        out = step_sharded(Stub(model=lambda *args: None), states, 7,
                           member_rngs(4, 0))
        np.testing.assert_array_equal(out, states + 1.0)
        assert seen == [[7] * 4] and forks == []


class TestKeptWorkers:
    def test_tiers_and_member_counts_fork_nothing_more(self, serve_world,
                                                       forks, monkeypatch):
        """Each tier's stepper re-forks once, the first time it splits;
        then tier changes and member counts 1 → 2 → 4 → 10 → 2 fork no
        new worker, the results the serial ones throughout."""
        steppers = tiers(serve_world, {"standard": SolverConfig(2),
                                       "high": SolverConfig(3, churn=0.3)})
        monkeypatch.setattr(rows, "_CORES", 2)
        for stepper in steppers.values():
            split_equals_serial(serve_world, stepper, 2, 2, monkeypatch)
        assert len(forks) == 3
        pids = rows.WORKERS.pids
        for seed, members in enumerate((1, 2, 4, 10, 2)):
            for stepper in steppers.values():
                split_equals_serial(serve_world, stepper, members, 2,
                                    monkeypatch, seed)
        assert len(forks) == 3 and rows.WORKERS.pids == pids

    def test_a_new_version_forks_once(self, serve_world, forks,
                                      monkeypatch):
        _, forecaster, _, _ = serve_world
        old = replace(forecaster, solver_config=SolverConfig(2))
        new = replace(old, model=Aeris(forecaster.model.config, seed=6))
        for stepper in (old, new, new, old):
            split_equals_serial(serve_world, stepper, 4, 2, monkeypatch)
        assert len(forks) == 2
        old.model = new.model                   # a field rebound: re-forks
        split_equals_serial(serve_world, old, 4, 2, monkeypatch)
        assert len(forks) == 3

    @pytest.mark.parametrize("how", ["load_state_dict", "in_place",
                                     "rebind"])
    def test_weights_changed_between_steps(self, serve_world, how, forks,
                                           monkeypatch):
        """The worker reads the weights from their shared mapping: a load
        or an in-place write lands there, a rebound array is copied back
        before the next step; none forks again."""
        _, forecaster, _, _ = serve_world
        config = forecaster.model.config
        stepper = replace(forecaster, model=Aeris(config, seed=4),
                          solver_config=SolverConfig(2))
        before = split_equals_serial(serve_world, stepper, 4, 2,
                                     monkeypatch)
        other = Aeris(config, seed=8)
        if how == "load_state_dict":
            stepper.model.load_state_dict(other.state_dict())
        for p, q in zip(stepper.model.parameters(), other.parameters()):
            if how == "in_place":
                p.data *= 0.5
            elif how == "rebind":
                p.data = q.data * 0.5
        after = split_equals_serial(serve_world, stepper, 4, 2, monkeypatch)
        assert not np.array_equal(after, before)
        assert len(forks) == 1

    def test_stress_tiers_counts_and_weights(self, serve_world, forks,
                                             monkeypatch):
        """60 steps over three tiers and ten member counts, the weights
        rebound or reloaded every few: equal to serial throughout (a
        worker reading a stale or half-written weight would not be)."""
        _, forecaster, _, _ = serve_world
        config = forecaster.model.config
        steppers = list(tiers(serve_world, {
            "standard": SolverConfig(1),
            "high": SolverConfig(2, churn=0.3)}).values())
        steppers[1:] = [replace(s, model=Aeris(config, seed=4))
                        for s in steppers[1:]]
        for k in range(60):
            split_equals_serial(serve_world, steppers[k % 3], 2 + k % 10,
                                2, monkeypatch, seed=k)
            if k % 7 == 6:
                donor = Aeris(config, seed=k)
                steppers[1].model.load_state_dict(donor.state_dict())
            if k % 11 == 10:
                for p in steppers[2].model.parameters():
                    p.data = p.data + 0.01
        assert len(forks) == 3


class TestFailure:
    @pytest.mark.parametrize("failing", ["caller", "worker"])
    def test_error_raised_after_every_group_joined(self, serve_world,
                                                   failing, tmp_path,
                                                   monkeypatch):
        _, forecaster, _, idx = serve_world
        stepper = replace(forecaster, solver_config=SolverConfig(2))
        monkeypatch.setattr(rows, "_CORES", 2)
        main, finished = os.getpid(), []
        original = vars(ResidualForecaster)["step_members"]

        def flaky(self, states, time_indices, rngs):
            in_caller = os.getpid() == main
            if in_caller == (failing == "caller"):
                raise RuntimeError(f"{failing} group failed")
            time.sleep(0.2)             # the healthy group finishes last
            out = original(self, states, time_indices, rngs)
            finished.append(len(rngs))
            if not in_caller:
                (tmp_path / "worker").write_text(str(len(rngs)))
            return out

        monkeypatch.setattr(ResidualForecaster, "step_members", flaky)
        with pytest.raises(RuntimeError, match=f"{failing} group") as info:
            step_sharded(stepper, member_states(serve_world, 8), idx,
                         member_rngs(8, 0))
        if failing == "caller":
            assert (tmp_path / "worker").read_text() == "4"
        else:
            assert finished == [4]
            if hasattr(info.value, "add_note"):              # >= 3.11
                assert "forked worker" in "".join(info.value.__notes__)
        assert rows.WORKERS.pids == []

    def test_a_killed_worker_is_a_typed_error_then_reforked(
            self, serve_world, forks, monkeypatch):
        _, forecaster, _, idx = serve_world
        stepper = replace(forecaster, solver_config=SolverConfig(2))
        split_equals_serial(serve_world, stepper, 4, 2, monkeypatch)
        pid = rows.WORKERS.pids[0]
        os.kill(pid, signal.SIGKILL)
        os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)  # dead, unreaped
        with pytest.raises(ChildProcessError, match="SIGKILL"):
            step_sharded(stepper, member_states(serve_world, 4), idx,
                         member_rngs(4, 0))
        assert rows.WORKERS.pids == []
        split_equals_serial(serve_world, stepper, 4, 2, monkeypatch)
        assert len(forks) == 2
