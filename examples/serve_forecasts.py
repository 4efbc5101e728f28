"""Serving forecasts: stand up a ForecastService in front of a trained
model, fire a mixed-tier burst at it, and read the accounting back.

Shows the full serving loop — admission, micro-batching, the
content-addressed cache, tiered samplers (one-step student vs
DPM-Solver), and the observability cross-check — at example scale.

    python examples/serve_forecasts.py        (~2 minutes)
"""

import numpy as np

from repro import obs, quickstart_components
from repro.diffusion import ConsistencyConfig, ConsistencyDistiller
from repro.model import Aeris
from repro.serve import (ForecastRequest, ForecastService, ServiceConfig,
                         serve_check)


def distill_student(archive, trainer, n_steps=60):
    """A quick consistency distillation for the ``fast`` tier."""
    teacher = Aeris(trainer.model.config)
    teacher.load_state_dict(trainer.model.state_dict())
    trainer.ema.copy_to(teacher)
    teacher.eval()
    student = Aeris(trainer.model.config)
    student.load_state_dict(teacher.state_dict())
    distiller = ConsistencyDistiller(teacher, student,
                                     config=ConsistencyConfig(seed=0))
    rng = np.random.default_rng(0)
    train_idx = archive.split_indices("train")
    for _ in range(n_steps):
        idx = rng.choice(train_idx, size=4, replace=False)
        cond, residual, forc = archive.training_batch(
            idx, trainer.state_norm, trainer.residual_norm,
            trainer.forcing_norm)
        distiller.train_step(residual, cond, forc)
    return student


def main() -> None:
    archive, trainer = quickstart_components(train_years=0.4, seed=1)
    print("Training AERIS ...")
    trainer.fit(150)
    print("Distilling the one-step student (fast tier) ...")
    student = distill_student(archive, trainer)

    obs.enable()
    service = ForecastService(trainer.forecaster(), student=student,
                              config=ServiceConfig(n_workers=2))

    # A burst: three users ask about the same initial condition (two of
    # them identically — cache hits), across quality tiers.
    ic = int(archive.split_indices("test")[10])
    state0 = archive.fields[ic]
    burst = [
        ForecastRequest(init_state=state0, n_steps=4, n_members=4,
                        tier="standard", seed=7, start_index=ic,
                        arrival_s=0.0),
        ForecastRequest(init_state=state0, n_steps=4, n_members=4,
                        tier="standard", seed=7, start_index=ic,
                        arrival_s=0.1),  # identical -> pure cache
        ForecastRequest(init_state=state0, n_steps=8, n_members=2,
                        tier="fast", seed=3, start_index=ic,
                        arrival_s=0.2),  # one student eval per step
    ]
    responses = service.run(burst)

    for resp in responses:
        req = resp.request
        print(f"\n{req.tier:>8} tier, {req.n_members} members x "
              f"{req.n_steps} steps -> {resp.status}")
        print(f"  latency {resp.latency_s * 1e3:7.1f} ms   "
              f"queue wait {resp.queue_wait_s * 1e3:6.1f} ms   "
              f"worker {resp.worker}")
        print(f"  batch: {resp.batch_members} members in "
              f"{resp.batch_forwards} stacked forwards   cache "
              f"{resp.cache_hits} hits / {resp.cache_misses} misses")

    print("\nService accounting:")
    stats = service.stats()
    print(f"  tally {stats['tally']}")
    cache = stats["cache"]
    print(f"  cache {cache['entries']} entries, {cache['bytes']:,} B, "
          f"hit rate {cache['hit_rate']:.2f}")
    report = obs.TraceReport()
    report.run(serve_check, service)
    print("\n" + report.render().splitlines()[1])
    obs.disable()


if __name__ == "__main__":
    main()
