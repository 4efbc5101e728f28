"""Figure 7 — subseasonal-to-seasonal (S2S) forecasts to 90 days.

Regenerates the three panels:
* 7a — daily Niño 3.4 index forecasts against the truth (spring barrier
  spread in the paper);
* 7b — 90-day rollout stability: fields stay bounded, sharp (power spectra
  do not collapse, unlike the deterministic baseline);
* 7c — Hovmöller diagram of equatorial U850 anomalies with realistic
  propagation.
"""

import numpy as np
from conftest import write_result

from repro.data import TOY_SET
from repro.diffusion import SolverConfig
from repro.eval import hovmoller, nino34_index, propagation_speed, sharpness_ratio

N_DAYS = 90
N_STEPS = N_DAYS * 4
N_MEMBERS = 2


def run_rollouts(archive, aeris_trainer, det_trainer):
    ic = int(archive.split_indices("test")[8])
    fc = aeris_trainer.forecaster(SolverConfig(n_steps=4, churn=0.3))
    ens = fc.ensemble_rollout(archive.fields[ic], N_STEPS, N_MEMBERS,
                              seed=71, start_index=ic)
    det = det_trainer.forecaster().rollout(archive.fields[ic], N_STEPS,
                                           start_index=ic)
    truth = archive.fields[ic:ic + N_STEPS + 1]
    return ic, ens, det, truth


def test_fig7_s2s(benchmark, bench_archive, aeris_trainer, det_trainer):
    archive = bench_archive
    ic, ens, det, truth = benchmark.pedantic(
        run_rollouts, args=(archive, aeris_trainer, det_trainer),
        rounds=1, iterations=1)
    grid = archive.grid
    clim = archive.daily_climatology()
    clim_stack = np.stack([archive.climatology_at(clim, ic + k)
                           for k in range(0, N_STEPS + 1, 4)])

    # --- 7a: Niño 3.4 daily index -----------------------------------------
    daily = slice(0, N_STEPS + 1, 4)
    truth_nino = nino34_index(truth[daily], grid, climatology=None) \
        - nino34_index(clim_stack, grid)
    ens_nino = np.stack([
        nino34_index(ens[m, daily], grid) - nino34_index(clim_stack, grid)
        for m in range(N_MEMBERS)])
    lines = [f"Figure 7a — Niño 3.4 daily index ({N_DAYS}-day forecasts "
             f"from step {ic}):",
             f"{'day':>4s} {'truth':>7s} {'ens mean':>9s} {'spread':>7s}"]
    for d in range(0, N_DAYS + 1, 10):
        lines.append(f"{d:>4d} {truth_nino[d]:>7.2f} "
                     f"{ens_nino[:, d].mean():>9.2f} "
                     f"{ens_nino[:, d].std():>7.2f}")

    # --- 7b: stability + sharpness -------------------------------------------
    sst, q700 = TOY_SET.index("SST"), TOY_SET.index("Q700")
    lines.append("\nFigure 7b — day-90 field statistics (stability):")
    stable = True
    for name in TOY_SET.names:
        c = TOY_SET.index(name)
        f_std = ens[0, -1, ..., c].std()
        t_std = truth[-1, ..., c].std()
        ratio = f_std / max(t_std, 1e-9)
        stable &= bool(0.25 < ratio < 4.0)
        lines.append(f"  {name:6s} forecast std {f_std:9.3f} vs truth "
                     f"{t_std:9.3f} (ratio {ratio:.2f})")
    sharp_aeris = sharpness_ratio(ens[0, -1, ..., q700].astype(np.float64),
                                  truth[-1, ..., q700].astype(np.float64))
    sharp_det = sharpness_ratio(det[-1, ..., q700].astype(np.float64),
                                truth[-1, ..., q700].astype(np.float64))
    lines.append(f"  Q700 small-scale power ratio: AERIS {sharp_aeris:.2f} "
                 f"vs deterministic {sharp_det:.2f} (1.0 = spectrally "
                 "faithful)")

    # --- 7c: Hovmöller ----------------------------------------------------------
    clim_full = np.stack([archive.climatology_at(clim, ic + k)
                          for k in range(N_STEPS + 1)])
    truth_hov = hovmoller(truth, grid, climatology=clim_full)
    fcst_hov = hovmoller(ens[0], grid, climatology=clim_full)
    sp_truth = propagation_speed(truth_hov, 6.0, grid.dlon)
    sp_fcst = propagation_speed(fcst_hov, 6.0, grid.dlon)
    var_ratio = fcst_hov.var() / max(truth_hov.var(), 1e-12)
    lines.append("\nFigure 7c — Hovmöller of U850 anomalies (10N-10S):")
    lines.append(f"  dominant propagation speed: truth {sp_truth:+.1f} "
                 f"deg/day, forecast {sp_fcst:+.1f} deg/day")
    lines.append(f"  diagram variance ratio forecast/truth: {var_ratio:.2f}")
    write_result("fig7_s2s.txt", "\n".join(lines) + "\n")

    # --- paper-shape assertions ------------------------------------------------
    assert np.isfinite(ens).all(), "rollout not stable to 90 days"
    assert stable, "day-90 field variability collapsed or exploded"
    # Diffusion keeps small-scale power much better than the deterministic
    # rollout (the paper's central S2S claim).
    assert sharp_aeris > sharp_det
    assert sharp_aeris > 0.2
    # The Hovmöller stays in a realistic variability band.
    assert 0.1 < var_ratio < 10.0
    # Niño index remains in physical bounds for 90 days.
    assert np.abs(ens_nino).max() < 6.0
