"""A toy general-circulation model generating the synthetic reanalysis.

The paper trains on four decades of 0.25° ERA5; that archive (16 TiB) and
the exascale machine to learn from it are unavailable here, so this module
supplies the closest laptop-scale equivalent: a deterministic, chaotic,
multi-timescale Earth-system simulator on a reduced lat-lon grid.  It
preserves the *learning problem structure* AERIS addresses:

* chaotic synoptic dynamics with finite predictability — hidden Lorenz-96
  latents force advected anomaly fields, so one-step residuals have an
  irreducible stochastic component (what the diffusion ensemble must
  capture);
* advection by a seasonal jet — residuals are spatially structured and
  partially predictable from the visible state;
* a slow ocean — a recharge-discharge ENSO oscillator drives equatorial
  Pacific SST (the Niño 3.4 / spring-barrier diagnostics of Figure 7a);
* extremes — tropical cyclones with genesis/steering/intensification/decay
  (Figure 6) and persistent summer heatwaves over land (Figure 5b);
* seasonal and diurnal cycles phase-locked to the TOA solar forcing.

All evolution is deterministic given the initial seed; the state is
fork-able, which is how the perturbed-physics "IFS ENS"-like baseline
(:mod:`repro.baselines.numerical`) produces its ensemble.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace

import numpy as np

from .forcings import (DAYS_PER_YEAR, STEPS_PER_DAY, StaticFields,
                       _smooth_noise, toa_solar)
from .grid import LatLonGrid
from .variables import TOY_SET

__all__ = ["GcmConfig", "GcmState", "ToyGCM", "TropicalCyclone", "Heatwave"]

_DT_DAYS = 1.0 / STEPS_PER_DAY  # 6h step


# What no caller varies (every twin shares it), with its unit.
N_LATENTS = 24                 # Lorenz-96 ring size
L96_DT = 0.06                  # L96 time units per 6h step
EASTERLY_SPEED = 6.0           # m/s tropical easterlies
SMOOTH_PASSES = 1              # hyperdiffusion strength
ENSO_PERIOD_YEARS = 3.7
TC_RATE_PER_DAY = 0.10         # genesis rate in season
TC_MAX_AMPLITUDE = 28.0        # hPa central pressure deficit scale
TC_RADIUS_DEG = 9.0
HEATWAVE_RATE_PER_DAY = 0.035
HEATWAVE_AMPLITUDE = 7.5       # K
EVENT_RAMP_DAYS = 2.5          # grow / decay time of an event's envelope
HEATWAVE_RADIUS_DEG = 16.0
SEED_SPATIAL = 1234            # basis-pattern seed (shared across twins)

# Ring neighbours of the Lorenz-96 tendency, rows [i+1, i-2, i-1].
_L96_RING = (np.arange(N_LATENTS) + np.array([[1], [-2], [-1]])) % N_LATENTS
_CHANNEL = {name: i for i, name in enumerate(TOY_SET.names)}


@dataclass(frozen=True)
class GcmConfig:
    """The physics constants the perturbed-physics NWP baseline jitters
    (:meth:`ToyGCM.perturbed_twin`); the rest are the constants above."""

    l96_forcing: float = 8.0       # chaos strength
    jet_speed: float = 28.0        # m/s midlatitude jet maximum
    anomaly_wind: float = 9.0      # m/s latent-driven wind variability
    forcing_amp: float = 0.065     # latent forcing injected per step
    relax_rate: float = 0.012      # anomaly damping per step (~20 day decay)
    enso_coupling: float = 0.012   # latent noise into the ocean


@dataclass
class TropicalCyclone:
    lat: float
    lon: float
    intensity: float   # 0..1
    age_days: float = 0.0
    hemisphere: int = 1  # +1 NH, -1 SH


@dataclass
class Heatwave:
    lat: float
    lon: float
    amplitude: float   # K at peak
    age_days: float = 0.0
    duration_days: float = 10.0


@dataclass
class GcmState:
    """Full prognostic state; deep-copyable for forecast forking."""

    step: int
    latents: np.ndarray          # (K,) Lorenz-96
    enso: np.ndarray             # (2,) [T_e anomaly (K), thermocline h]
    q: np.ndarray                # (H, W) geopotential-anomaly scalar
    theta: np.ndarray            # (H, W) thermal-anomaly scalar
    moisture: np.ndarray         # (H, W) moisture-anomaly scalar
    cyclones: list = field(default_factory=list)
    heatwaves: list = field(default_factory=list)
    rng: np.random.Generator = field(
        default_factory=lambda: np.random.default_rng(0))

    def clone(self) -> "GcmState":
        rng = np.random.Generator(type(self.rng.bit_generator)(0))
        rng.bit_generator.state = self.rng.bit_generator.state
        return replace(
            self, latents=self.latents.copy(), enso=self.enso.copy(),
            q=self.q.copy(), theta=self.theta.copy(),
            moisture=self.moisture.copy(),
            cyclones=[replace(tc) for tc in self.cyclones],
            heatwaves=[replace(hw) for hw in self.heatwaves], rng=rng)


def _l96_tendency(x: np.ndarray, forcing: float) -> np.ndarray:
    ahead, behind2, behind = x[_L96_RING]
    return (ahead - behind2) * behind - x + forcing


def _gradient(f: np.ndarray) -> np.ndarray:
    """``np.gradient(f, axis=0)`` at unit spacing: centred differences
    inside, one-sided at the two edges."""
    out = np.empty_like(f)
    out[1:-1] = (f[2:] - f[:-2]) / 2.0
    out[0] = f[1] - f[0]
    out[-1] = f[-1] - f[-2]
    return out


class ToyGCM:
    """The simulator.  One instance is bound to a grid, geography, and a
    :class:`GcmConfig`; states evolve through :meth:`step`."""

    def __init__(self, grid: LatLonGrid, static: StaticFields,
                 config: GcmConfig = GcmConfig()):
        self.grid = grid
        self.static = static
        self.config = config
        self._build_patterns()

    # -- fixed spatial structures ------------------------------------------
    def _build_patterns(self) -> None:
        """Every function of the grid and the geography alone; a
        :meth:`perturbed_twin` shares these, so nothing here reads ``config``."""
        g = self.grid
        h, w = g.height, g.width
        rng = np.random.default_rng(SEED_SPATIAL)
        # Bases are held flat, (count, H*W): the operand of the per-step dot.
        self.basis_q = self._smooth_bases(rng, N_LATENTS, cutoff=3.5)
        self.basis_theta = self._smooth_bases(rng, N_LATENTS, cutoff=3.0)
        self.basis_m = self._smooth_bases(rng, N_LATENTS, cutoff=4.0)
        self.basis_u = self._smooth_bases(rng, 4, cutoff=2.0)
        self.basis_v = self._smooth_bases(rng, 4, cutoff=2.0)
        lats = g.lats
        lat2 = lats[:, None]
        latr = np.deg2rad(lat2)
        # ENSO SST pattern: equatorial central-east Pacific blob.
        lon2 = g.lons[None, :]
        dlon = np.minimum(np.abs(lon2 - 210.0), 360.0 - np.abs(lon2 - 210.0))
        self._enso_sst = 2.2 * (np.exp(-(lat2 / 10.0) ** 2)
                                * np.exp(-(dlon / 40.0) ** 2))
        self.coslat = np.clip(np.cos(latr), 0.2, None)
        self._hemi_sign = np.sign(np.tan(latr))  # flips in SH
        # Jet profiles; the season and the config only scale them.
        self._jet_nh = np.exp(-(((lats - 42.0) / 14.0) ** 2))
        self._jet_sh = np.exp(-(((lats + 42.0) / 14.0) ** 2))
        self._easterly = -EASTERLY_SPEED * np.exp(-((lats / 14.0) ** 2))
        # Climatology columns (H, 1); only ``seasonal_t`` moves with the step.
        self._seasonal_amp = 14.0 * (np.abs(lat2) / 90.0)
        self._hemis = np.tanh(lat2 / 25.0)
        self._t850_mean = 248.0 + 42.0 * np.cos(latr) ** 2
        self._sst_mean = 271.5 + 28.5 * np.cos(latr) ** 2
        self._z500_mean = 5850.0 - 450.0 * np.sin(latr) ** 2
        self._mslp_mean = (
            1013.0 + 7.0 * np.exp(-(((np.abs(lat2) - 32.0) / 12.0) ** 2))
            - 9.0 * np.exp(-(((np.abs(lat2) - 62.0) / 12.0) ** 2))
            - 4.0 * np.exp(-((lat2 / 10.0) ** 2)))
        self._q700_mean = 6.0 * np.exp(-((lat2 / 26.0) ** 2))
        for shared in (self._mslp_mean, self._q700_mean):  # handed out as is
            shared.setflags(write=False)
        # Geography terms of T2M and the SST land proxy.
        land = self.static.land_mask
        self._is_land = land > 0.5
        self._lapse = 0.0065 * self.static.orography
        self._land_diurnal = 3.5 * land
        self._land_theta = 2.0 * land * 6.5
        # Flat gather indices of the smoother's [east, west, north, south]
        # neighbours; the advection's undisplaced row / column of each cell.
        cell = np.arange(h * w).reshape(h, w)
        rows, cols = np.arange(h), np.arange(w)
        self._neighbours = np.stack([
            cell[:, (cols - 1) % w], cell[:, (cols + 1) % w],
            cell[np.maximum(rows - 1, 0)], cell[np.minimum(rows + 1, h - 1)]])
        self._row_of = rows[:, None].astype(np.float64)
        self._col_of = cols[None, :].astype(np.float64)

    def _smooth_bases(self, rng, count: int, cutoff: float) -> np.ndarray:
        out = np.stack([_smooth_noise(rng, self.grid.height, self.grid.width,
                                      cutoff=cutoff) for _ in range(count)])
        return (out / np.sqrt(count)).reshape(count, -1)

    def _smooth(self, f: np.ndarray, passes: int = 1) -> np.ndarray:
        """Cheap 5-point smoother; zonally periodic, meridionally clamped."""
        for _ in range(passes):
            east, west, north, south = f.take(self._neighbours)
            f = 0.5 * f + 0.125 * (east + west + north + south)
        return f

    # -- climatological background -------------------------------------------
    def _season_phase(self, step: int) -> float:
        doy = (step / STEPS_PER_DAY) % DAYS_PER_YEAR
        # Peaks at NH midsummer (doy ~202).
        return float(np.cos(2 * np.pi * (doy - 202.0) / DAYS_PER_YEAR))

    def jet(self, step: int) -> np.ndarray:
        """Zonal-mean zonal wind u(lat) (m/s) with a seasonal swing."""
        cfg = self.config
        season = self._season_phase(step)
        # Winter hemisphere jet is stronger.
        strength_nh = cfg.jet_speed * (1.0 - 0.30 * season)
        strength_sh = cfg.jet_speed * (1.0 + 0.30 * season)
        return (strength_nh * self._jet_nh + strength_sh * self._jet_sh
                + self._easterly)

    def climatology(self, step: int) -> dict[str, np.ndarray]:
        """Seasonal background keyed by TOY variable name: zonally uniform
        ``(H, 1)`` columns that broadcast against ``(H, W)`` fields."""
        seasonal_t = self._seasonal_amp * self._season_phase(step) * self._hemis
        return {"T850": self._t850_mean + seasonal_t,
                "SST": self._sst_mean + 0.5 * seasonal_t,
                "Z500": self._z500_mean - 12.0 * seasonal_t,
                "MSLP": self._mslp_mean, "Q700": self._q700_mean}

    # -- initialization -------------------------------------------------------
    def initial_state(self, seed: int = 0, spinup_steps: int = 240) -> GcmState:
        rng = np.random.default_rng(seed)
        h, w = self.grid.height, self.grid.width
        k = N_LATENTS
        state = GcmState(
            step=0,
            latents=self.config.l96_forcing * (1.0 + 0.01 * rng.normal(size=k)),
            enso=np.array([0.8 * rng.normal(), 0.8 * rng.normal()]),
            q=np.zeros((h, w)),
            theta=np.zeros((h, w)),
            moisture=np.zeros((h, w)),
            rng=rng,
        )
        for _ in range(spinup_steps):
            self.step(state)
        return state

    # -- dynamics -------------------------------------------------------------
    def _advect_plan(self, u_deg: np.ndarray, v_deg: np.ndarray):
        """Semi-Lagrangian departure points (displacements in grid-degrees
        per step): flat indices of the four cells around each (zonally
        periodic, meridionally clamped) and their bilinear weights."""
        g = self.grid
        h, w = g.height, g.width
        rows = (self._row_of + v_deg / g.dlat).clip(0.0, h - 1.000001)
        cols = (self._col_of - u_deg / g.dlon) % w
        floor_r, floor_c = np.floor(rows), np.floor(cols)
        fr, fc = rows - floor_r, cols - floor_c
        gr, gc = 1 - fr, 1 - fc
        r0, c0 = floor_r.astype(np.int64), floor_c.astype(np.int64)
        r0w, r1w = r0 * w, np.minimum(r0 + 1, h - 1) * w
        c1 = (c0 + 1) % w
        return ((r0w + c0, r0w + c1, r1w + c0, r1w + c1),
                (gr * gc, gr * fc, fr * gc, fr * fc))

    @staticmethod
    def _advect(f: np.ndarray, plan) -> np.ndarray:
        """Sample ``f`` at the plan's departure points (bilinear)."""
        (i00, i01, i10, i11), (w00, w01, w10, w11) = plan
        return (w00 * f.take(i00) + w01 * f.take(i01)
                + w10 * f.take(i10) + w11 * f.take(i11))

    @staticmethod
    def _standardized(latents: np.ndarray) -> np.ndarray:
        """Standardized latents as the ``(1, K)`` row the basis dots take."""
        latn = (latents - latents.mean()) / max(latents.std(), 1e-6)
        return latn.reshape(1, -1)

    def _winds(self, latn: np.ndarray, jet: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
        """(u, v) in m/s from the standardized latents and the zonal jet."""
        cfg = self.config
        shape = (self.grid.height, self.grid.width)
        u = jet[:, None] + cfg.anomaly_wind * np.dot(
            latn[:, :4], self.basis_u).reshape(shape)
        v = cfg.anomaly_wind * 0.6 * np.dot(
            latn[:, 4:8], self.basis_v).reshape(shape)
        return u, v

    def step(self, state: GcmState) -> GcmState:
        """Advance the state by one 6h step, in place; returns the state."""
        cfg = self.config
        # 1) Latent chaos (RK4 Lorenz-96).
        x = state.latents
        dt = L96_DT
        k1 = _l96_tendency(x, cfg.l96_forcing)
        k2 = _l96_tendency(x + 0.5 * dt * k1, cfg.l96_forcing)
        k3 = _l96_tendency(x + 0.5 * dt * k2, cfg.l96_forcing)
        k4 = _l96_tendency(x + dt * k3, cfg.l96_forcing)
        state.latents = x + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        latn = self._standardized(state.latents)

        # 2) ENSO recharge-discharge oscillator, excited by zero-mean chaotic
        # forcing from the fast latents (per-step increments).
        te, th = state.enso
        steps_per_year = DAYS_PER_YEAR / _DT_DAYS
        omega = 2 * np.pi / (ENSO_PERIOD_YEARS * steps_per_year)
        damp = 1.0 / (2.5 * steps_per_year)  # ~2.5-year e-folding
        forcing = cfg.enso_coupling * latn[0, 0]
        state.enso = np.array([te + omega * th - damp * te + forcing,
                               th - omega * te - damp * th])

        # 3) Advected anomaly scalars forced by latents, on one departure plan.
        jet = self.jet(state.step)
        u, v = self._winds(latn, jet)
        seconds = _DT_DAYS * 86400.0
        deg_per_m = 1.0 / 111_000.0
        plan = self._advect_plan(u * seconds * deg_per_m / self.coslat,
                                 v * seconds * deg_per_m)
        for name, basis in (("q", self.basis_q), ("theta", self.basis_theta),
                            ("moisture", self.basis_m)):
            fld = getattr(state, name)
            adv = self._advect(fld, plan)
            forced = cfg.forcing_amp * np.dot(latn, basis).reshape(fld.shape)
            new = (1.0 - cfg.relax_rate) * adv + forced
            setattr(state, name, self._smooth(new, SMOOTH_PASSES))

        # 4) Events.
        summer = {hemi: self._tc_season_weight(state.step, hemi)
                  for hemi in (1, -1)}
        self._step_cyclones(state, jet, summer)
        self._step_heatwaves(state, summer)
        state.step += 1
        return state

    # -- tropical cyclones -----------------------------------------------------
    def _tc_season_weight(self, step: int, hemisphere: int) -> float:
        doy = (step / STEPS_PER_DAY) % DAYS_PER_YEAR
        peak = 250.0 if hemisphere > 0 else 45.0
        dist = min(abs(doy - peak), DAYS_PER_YEAR - abs(doy - peak))
        return float(np.exp(-((dist / 45.0) ** 2)))

    def _step_cyclones(self, state: GcmState, jet: np.ndarray,
                       summer: dict) -> None:
        g = self.grid
        # Genesis (seeded, hence deterministic along a trajectory).
        for hemi in (1, -1):
            rate = TC_RATE_PER_DAY * _DT_DAYS * summer[hemi]
            if state.rng.uniform() < rate:
                lat = hemi * state.rng.uniform(8.0, 18.0)
                lon = state.rng.uniform(0.0, 360.0)
                if self.static.land_mask[g.lat_index(lat), g.lon_index(lon)] < 0.5:
                    state.cyclones.append(TropicalCyclone(
                        lat=lat, lon=lon, intensity=0.15, hemisphere=hemi))
        # Motion + intensity.
        survivors = []
        for tc in state.cyclones:
            li = g.lat_index(tc.lat)
            steering_u = 0.35 * jet[li] - 2.5  # m/s; easterly in tropics
            dlon = steering_u * 86400.0 * _DT_DAYS / 111_000.0 / max(
                np.cos(np.deg2rad(tc.lat)), 0.3)
            poleward = tc.hemisphere * (0.28 + 0.30 * (abs(tc.lat) / 30.0) ** 2)
            tc.lon = (tc.lon + dlon) % 360.0
            tc.lat += poleward
            tc.age_days += _DT_DAYS
            over_land = self.static.land_mask[
                g.lat_index(tc.lat), g.lon_index(tc.lon)] > 0.5
            warm = max(0.0, 1.0 - (abs(tc.lat) / 32.0) ** 2)
            growth = 0.55 * warm * (0.0 if over_land else 1.0)
            decay = 0.9 if over_land else 0.06 + 0.5 * (abs(tc.lat) / 45.0) ** 4
            tc.intensity += _DT_DAYS * (growth * (1.0 - tc.intensity)
                                        - decay * tc.intensity)
            if tc.intensity > 0.03 and abs(tc.lat) < 55.0 and tc.age_days < 25.0:
                survivors.append(tc)
        state.cyclones = survivors

    # -- heatwaves ---------------------------------------------------------------
    def _step_heatwaves(self, state: GcmState, summer: dict) -> None:
        g = self.grid
        for hemi in (1, -1):
            # Summer-hemisphere genesis over midlatitude land (cyclone peak).
            if state.rng.uniform() < HEATWAVE_RATE_PER_DAY * _DT_DAYS * summer[hemi]:
                lat = hemi * state.rng.uniform(38.0, 58.0)
                lon = state.rng.uniform(0.0, 360.0)
                if self.static.land_mask[g.lat_index(lat), g.lon_index(lon)] > 0.5:
                    state.heatwaves.append(Heatwave(
                        lat=lat, lon=lon,
                        amplitude=HEATWAVE_AMPLITUDE * state.rng.uniform(0.6, 1.3),
                        duration_days=state.rng.uniform(6.0, 14.0)))
        survivors = []
        for hw in state.heatwaves:
            hw.age_days += _DT_DAYS
            if hw.age_days < hw.duration_days:
                survivors.append(hw)
        state.heatwaves = survivors

    @staticmethod
    def _event_envelope(age: float, duration: float) -> float:
        """Smooth grow-hold-decay profile in [0, 1]."""
        up = min(1.0, age / EVENT_RAMP_DAYS)
        down = min(1.0, max(0.0, (duration - age)) / EVENT_RAMP_DAYS)
        return up * down

    def _gaussian_blob(self, lat: float, lon: float, radius_deg: float
                       ) -> np.ndarray:
        g = self.grid
        dlat = g.lats[:, None] - lat
        dlon = np.abs(g.lons[None, :] - lon)
        dlon = np.minimum(dlon, 360.0 - dlon) * np.cos(np.deg2rad(lat))
        d2 = dlat ** 2 + dlon ** 2
        return np.exp(-d2 / (2.0 * radius_deg ** 2))

    # -- diagnostics -------------------------------------------------------------
    def diagnostics(self, state: GcmState) -> np.ndarray:
        """Synthesize the 9-channel observable fields ``(H, W, C)``."""
        g = self.grid
        clim = self.climatology(state.step)
        u_ms, v_ms = self._winds(self._standardized(state.latents),
                                 self.jet(state.step))

        zanom = 120.0 * state.q
        z500 = clim["Z500"] + zanom
        # Geostrophic-like winds from the Z500 anomaly.
        dzdy = _gradient(zanom) / (g.dlat * 111_000.0)
        dzdx = _gradient(zanom.T).T / (g.dlon * 111_000.0) / self.coslat
        geo_scale = 9.81 / 1.0e-4  # g / f0
        u_geo = (-geo_scale * dzdy * self._hemi_sign * 0.10).clip(-40, 40)
        v_geo = (geo_scale * dzdx * self._hemi_sign * 0.10).clip(-40, 40)

        u850 = 0.75 * u_ms + 0.6 * u_geo
        v850 = 0.75 * v_ms + 0.6 * v_geo
        u10 = 0.45 * u_ms + 0.35 * u_geo
        v10 = 0.45 * v_ms + 0.35 * v_geo

        t850 = clim["T850"] + 6.5 * state.theta
        mslp = clim["MSLP"] - 9.0 * self._smooth(state.q, 1)
        q700 = np.maximum(clim["Q700"] * (1.0 + 0.55 * state.moisture), 0.0)

        sst_anom = self._enso_sst * state.enso[0] \
            + 0.8 * self._smooth(state.theta, 2)
        sst = clim["SST"] + sst_anom
        # SST relaxes to a fixed proxy over land (masked in evaluation).
        sst = np.where(self._is_land, clim["SST"], sst)

        solar = toa_solar(g, state.step) / 1361.0
        land = self.static.land_mask
        t2m = (t850 + 6.0
               - self._lapse
               + self._land_diurnal * (solar - 0.25)  # diurnal cycle over land
               + self._land_theta * state.theta * 0.3)

        # Event imprints.
        for tc in state.cyclones:
            blob = self._gaussian_blob(tc.lat, tc.lon, TC_RADIUS_DEG)
            depth = TC_MAX_AMPLITUDE * tc.intensity
            mslp = mslp - depth * blob
            z500 = z500 - 2.0 * depth * blob
            q700 = q700 + 2.5 * tc.intensity * blob
            # Cyclonic winds: tangential flow around the center.
            gy = _gradient(blob) / g.dlat
            gx = _gradient(blob.T).T / g.dlon / self.coslat
            # Counterclockwise (NH) tangential flow: with rows running
            # north->south, (u, v) ∝ −(∂blob/∂row, ∂blob/∂col).
            spin = 16.0 * depth / TC_MAX_AMPLITUDE * tc.hemisphere
            u10 = u10 - spin * gy
            v10 = v10 - spin * gx
            u850 = u850 - 1.3 * spin * gy
            v850 = v850 - 1.3 * spin * gx
        for hw in state.heatwaves:
            blob = self._gaussian_blob(hw.lat, hw.lon, HEATWAVE_RADIUS_DEG)
            env = self._event_envelope(hw.age_days, hw.duration_days)
            t2m = t2m + hw.amplitude * env * blob * land
            t850 = t850 + 0.6 * hw.amplitude * env * blob
            z500 = z500 + 5.0 * hw.amplitude * env * blob
            mslp = mslp + 0.25 * hw.amplitude * env * blob

        out = np.empty((g.height, g.width, len(TOY_SET)), dtype=np.float32)
        for name, fld in (("T2M", t2m), ("U10", u10), ("V10", v10),
                          ("MSLP", mslp), ("SST", sst), ("Z500", z500),
                          ("T850", t850), ("Q700", q700), ("U850", u850)):
            out[..., _CHANNEL[name]] = fld
        return out

    # -- convenience -------------------------------------------------------------
    def run(self, state: GcmState, n_steps: int):
        """Yield ``(step_index, fields)`` for ``n_steps`` successive steps."""
        for _ in range(n_steps):
            self.step(state)
            yield state.step, self.diagnostics(state)

    def perturbed_twin(self, rel_error: float, seed: int) -> "ToyGCM":
        """An imperfect copy of this model: every tunable constant perturbed
        by ``~rel_error`` relative noise (the NWP-baseline physics).  The
        twin shares this model's grid tables and differs in ``config`` only."""
        rng = np.random.default_rng(seed)
        cfg = self.config
        def jitter(v: float) -> float:
            return float(v * (1.0 + rel_error * rng.normal()))
        twin = copy.copy(self)
        twin.config = replace(
            cfg,
            l96_forcing=jitter(cfg.l96_forcing),
            jet_speed=jitter(cfg.jet_speed),
            anomaly_wind=jitter(cfg.anomaly_wind),
            forcing_amp=jitter(cfg.forcing_amp),
            relax_rate=jitter(cfg.relax_rate),
            enso_coupling=jitter(cfg.enso_coupling),
        )
        return twin
