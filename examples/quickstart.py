"""Quickstart: train a tiny AERIS on the synthetic reanalysis, make an
ensemble forecast and score it (RMSE, MAE, bias, ACC, CRPS, spread-skill,
the rank histogram of Fig. 5a), then re-run the forecast with BF16
matmuls.

Runs in ~1 minute on a laptop::

    python examples/quickstart.py
"""

import numpy as np

from repro import SolverConfig, quickstart_components
from repro.data import TOY_SET
from repro.eval import (acc, bias, crps_ensemble, ensemble_mean_rmse, mae,
                        rank_histogram, spread_skill_ratio)
from repro.tensor import autocast_bf16


def main() -> None:
    print("Generating a synthetic reanalysis and building the trainer ...")
    archive, trainer = quickstart_components(train_years=0.5, seed=0)
    print(f"  archive: {archive.fields.shape} "
          f"({', '.join(TOY_SET.names)})")
    print(f"  model:   {trainer.model.num_parameters():,} parameters")

    print("Training (200 steps of the TrigFlow diffusion objective) ...")
    trainer.fit(200)
    print(f"  loss {np.mean(trainer.history[:20]):.3f} -> "
          f"{np.mean(trainer.history[-20:]):.3f}, held-out "
          f"{trainer.validation_loss():.3f}")

    print("Forecasting: 5-member ensemble, 2 days ahead ...")
    forecaster = trainer.forecaster(SolverConfig(n_steps=4, churn=0.3))
    ic = int(archive.split_indices("test")[10])
    ens = forecaster.ensemble_rollout(archive.fields[ic], n_steps=8,
                                      n_members=5, seed=0, start_index=ic)
    truth = archive.fields[ic:ic + 9]

    z, clim = TOY_SET.index("Z500"), archive.daily_climatology()
    for lead in (4, 8):
        e = ens[:, lead, ..., z]
        t = truth[lead, ..., z]
        m, c = e.mean(axis=0), archive.climatology_at(clim, ic + lead)[..., z]
        print(f"  +{lead * 6:3d}h Z500: ens-mean RMSE "
              f"{ensemble_mean_rmse(e, t, archive.grid):6.2f} m, MAE "
              f"{mae(m, t, archive.grid):6.2f} m, bias "
              f"{bias(m, t, archive.grid):+6.2f} m, ACC "
              f"{acc(m, t, c, archive.grid):.2f}, CRPS "
              f"{crps_ensemble(e, t, archive.grid):6.2f} m, SSR "
              f"{spread_skill_ratio(e, t, archive.grid):.2f}")
    # Fig. 5a: a U shape (truth outside the members) is under-dispersion
    print(f"  +48h Z500 rank histogram (truth's rank among 5 members): "
          f"{rank_histogram(ens[:, 8, ..., z], truth[8, ..., z]).tolist()}")

    print("Same forecast with BF16 matmul operands (paper §V-A) ...")
    with autocast_bf16():
        bf16 = forecaster.ensemble_rollout(archive.fields[ic], n_steps=8,
                                           n_members=5, seed=0,
                                           start_index=ic)
    t, grid = truth[8, ..., z], archive.grid
    print(f"  +48h Z500 ens-mean RMSE: BF16 "
          f"{ensemble_mean_rmse(bf16[:, 8, ..., z], t, grid):.3f} m, "
          f"FP32 {ensemble_mean_rmse(ens[:, 8, ..., z], t, grid):.3f} m")
    print("Done. See examples/medium_range_ensemble.py for baselines and "
          "longer leads.")


if __name__ == "__main__":
    main()
