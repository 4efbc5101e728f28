"""The data layer as it stood before the per-step hoists (PR 22), kept
verbatim as a differential oracle: ``test_gcm_exact.py`` steps this and the
shipped :class:`repro.data.gcm.ToyGCM` side by side and requires
``array_equal`` everywhere.  Test-only; comparing against a model that runs
on the same machine keeps the oracle independent of this box's libm.

Copied from commit ffbe1d7: ``LatLonGrid`` (the members the model reads),
``toa_solar``, ``_l96_tendency``, ``_smooth`` and the whole of ``ToyGCM``
(renamed ``ReferenceGCM``).  Only the names they resolve changed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.data.forcings import (DAYS_PER_YEAR, STEPS_PER_DAY, StaticFields,
                                 _smooth_noise)
from repro.data.gcm import (EASTERLY_SPEED, ENSO_PERIOD_YEARS,
                            HEATWAVE_AMPLITUDE, HEATWAVE_RADIUS_DEG,
                            HEATWAVE_RATE_PER_DAY, L96_DT, N_LATENTS,
                            SEED_SPATIAL, SMOOTH_PASSES, TC_MAX_AMPLITUDE,
                            TC_RADIUS_DEG, TC_RATE_PER_DAY, GcmConfig,
                            GcmState, Heatwave, TropicalCyclone)
from repro.data.variables import TOY_SET

_DT_DAYS = 1.0 / STEPS_PER_DAY  # 6h step
_SOLAR_CONSTANT = 1361.0  # W/m^2


@dataclass(frozen=True)
class ReferenceGrid:
    """Equiangular latitude-longitude grid, poles excluded.

    Rows run north to south (lat ``+max .. −max``), columns west to east
    (lon ``0 .. 360``), matching the row-major image layout of the model.
    """

    height: int
    width: int

    @property
    def lats(self) -> np.ndarray:
        """Cell-center latitudes (degrees), shape ``(height,)``."""
        step = 180.0 / self.height
        return (90.0 - step / 2 - step * np.arange(self.height)).astype(np.float64)

    @property
    def lons(self) -> np.ndarray:
        """Cell-center longitudes (degrees in [0, 360)), shape ``(width,)``."""
        return (360.0 / self.width * np.arange(self.width)).astype(np.float64)

    @property
    def dlat(self) -> float:
        return 180.0 / self.height

    @property
    def dlon(self) -> float:
        return 360.0 / self.width

    # -- index helpers -------------------------------------------------------
    def lat_index(self, lat: float) -> int:
        """Row index of the cell containing ``lat``."""
        return int(np.clip(np.argmin(np.abs(self.lats - lat)), 0, self.height - 1))

    def lon_index(self, lon: float) -> int:
        return int(np.round((lon % 360.0) / self.dlon)) % self.width


def toa_solar(grid: ReferenceGrid, step: int) -> np.ndarray:
    """Instantaneous TOA insolation (W/m^2) at a 6-hourly step index.

    Standard solar geometry: declination follows the day of year, the hour
    angle follows UTC time and longitude.
    """
    day_of_year = (step // STEPS_PER_DAY) % DAYS_PER_YEAR
    hour_utc = (step % STEPS_PER_DAY) * 24.0 / STEPS_PER_DAY
    decl = np.deg2rad(-23.44) * np.cos(2 * np.pi * (day_of_year + 10) / DAYS_PER_YEAR)
    lat = np.deg2rad(grid.lats)[:, None]
    # Local solar hour angle (radians): 0 at local noon.
    hour_local = (hour_utc + grid.lons / 15.0) % 24.0
    hour_angle = np.deg2rad(15.0 * (hour_local - 12.0))[None, :]
    cos_zenith = (np.sin(lat) * np.sin(decl)
                  + np.cos(lat) * np.cos(decl) * np.cos(hour_angle))
    return (_SOLAR_CONSTANT * np.clip(cos_zenith, 0.0, None)).astype(np.float64)


def _l96_tendency(x: np.ndarray, forcing: float) -> np.ndarray:
    return ((np.roll(x, -1) - np.roll(x, 2)) * np.roll(x, 1) - x + forcing)


def _smooth(f: np.ndarray, passes: int = 1) -> np.ndarray:
    """Cheap 5-point smoother; zonally periodic, meridionally clamped."""
    for _ in range(passes):
        east = np.roll(f, 1, axis=1)
        west = np.roll(f, -1, axis=1)
        north = np.vstack([f[:1], f[:-1]])
        south = np.vstack([f[1:], f[-1:]])
        f = 0.5 * f + 0.125 * (east + west + north + south)
    return f


class ReferenceGCM:
    """The simulator.  One instance is bound to a grid, geography, and a
    :class:`GcmConfig`; states evolve through :meth:`step`."""

    def __init__(self, grid: ReferenceGrid, static: StaticFields,
                 config: GcmConfig = GcmConfig()):
        self.grid = grid
        self.static = static
        self.config = config
        self._build_patterns()

    # -- fixed spatial structures ------------------------------------------
    def _build_patterns(self) -> None:
        g = self.grid
        rng = np.random.default_rng(SEED_SPATIAL)
        k = N_LATENTS
        self.basis_q = self._smooth_bases(rng, k, cutoff=3.5)
        self.basis_theta = self._smooth_bases(rng, k, cutoff=3.0)
        self.basis_m = self._smooth_bases(rng, k, cutoff=4.0)
        self.basis_u = self._smooth_bases(rng, 4, cutoff=2.0)
        self.basis_v = self._smooth_bases(rng, 4, cutoff=2.0)
        lats = g.lats
        latr = np.deg2rad(lats)
        # ENSO SST pattern: equatorial central-east Pacific blob.
        lat2 = lats[:, None]
        lon2 = g.lons[None, :]
        dlon = np.minimum(np.abs(lon2 - 210.0), 360.0 - np.abs(lon2 - 210.0))
        self.enso_pattern = (np.exp(-(lat2 / 10.0) ** 2)
                             * np.exp(-(dlon / 40.0) ** 2))
        self.coslat = np.clip(np.cos(latr), 0.2, None)[:, None]
        self.latr = latr

    def _smooth_bases(self, rng, count: int, cutoff: float) -> np.ndarray:
        out = np.stack([_smooth_noise(rng, self.grid.height, self.grid.width,
                                      cutoff=cutoff) for _ in range(count)])
        return out / np.sqrt(count)

    # -- climatological background -------------------------------------------
    def _season_phase(self, step: int) -> float:
        doy = (step / STEPS_PER_DAY) % DAYS_PER_YEAR
        # Peaks at NH midsummer (doy ~202).
        return float(np.cos(2 * np.pi * (doy - 202.0) / DAYS_PER_YEAR))

    def jet(self, step: int) -> np.ndarray:
        """Zonal-mean zonal wind u(lat) (m/s) with a seasonal swing."""
        cfg = self.config
        lats = self.grid.lats
        season = self._season_phase(step)
        # Winter hemisphere jet is stronger.
        strength_nh = cfg.jet_speed * (1.0 - 0.30 * season)
        strength_sh = cfg.jet_speed * (1.0 + 0.30 * season)
        jet_nh = strength_nh * np.exp(-(((lats - 42.0) / 14.0) ** 2))
        jet_sh = strength_sh * np.exp(-(((lats + 42.0) / 14.0) ** 2))
        easterly = -EASTERLY_SPEED * np.exp(-((lats / 14.0) ** 2))
        return jet_nh + jet_sh + easterly

    def climatology(self, step: int) -> dict[str, np.ndarray]:
        """Seasonal background fields (H, W) keyed by TOY variable name."""
        g = self.grid
        lats = g.lats[:, None]
        latr = np.deg2rad(lats)
        season = self._season_phase(step)
        hemis = np.tanh(lats / 25.0)
        seasonal_t = 14.0 * (np.abs(lats) / 90.0) * season * hemis
        t850 = 248.0 + 42.0 * np.cos(latr) ** 2 + seasonal_t
        sst = 271.5 + 28.5 * np.cos(latr) ** 2 + 0.5 * seasonal_t
        z500 = 5850.0 - 450.0 * np.sin(latr) ** 2 - 12.0 * seasonal_t
        mslp = (1013.0 + 7.0 * np.exp(-(((np.abs(lats) - 32.0) / 12.0) ** 2))
                - 9.0 * np.exp(-(((np.abs(lats) - 62.0) / 12.0) ** 2))
                - 4.0 * np.exp(-((lats / 10.0) ** 2)))
        q700 = 6.0 * np.exp(-((lats / 26.0) ** 2))
        ones = np.ones((g.height, g.width))
        return {"T850": t850 * ones, "SST": sst * ones, "Z500": z500 * ones,
                "MSLP": mslp * ones, "Q700": q700 * ones}

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
    def _advect(self, f: np.ndarray, u_deg: np.ndarray, v_deg: np.ndarray
                ) -> np.ndarray:
        """Semi-Lagrangian advection: sample each cell at its departure
        point (bilinear; zonally periodic, meridionally clamped)."""
        g = self.grid
        h, w = g.height, g.width
        rows = np.arange(h)[:, None] + v_deg / g.dlat     # departure row
        cols = np.arange(w)[None, :] - u_deg / g.dlon     # departure col
        rows = np.clip(rows, 0.0, h - 1.000001)
        cols = cols % w
        r0 = np.floor(rows).astype(np.int64)
        c0 = np.floor(cols).astype(np.int64)
        fr = rows - r0
        fc = cols - c0
        r1 = np.clip(r0 + 1, 0, h - 1)
        c1 = (c0 + 1) % w
        return ((1 - fr) * (1 - fc) * f[r0, c0] + (1 - fr) * fc * f[r0, c1]
                + fr * (1 - fc) * f[r1, c0] + fr * fc * f[r1, c1])

    def _winds_deg(self, state: GcmState) -> tuple[np.ndarray, np.ndarray,
                                                   np.ndarray, np.ndarray]:
        """(u, v) in m/s and in grid-degrees-per-step."""
        cfg = self.config
        latn = (state.latents - state.latents.mean()) / max(state.latents.std(), 1e-6)
        u = self.jet(state.step)[:, None] + cfg.anomaly_wind * np.tensordot(
            latn[:4], self.basis_u, axes=(0, 0))
        v = cfg.anomaly_wind * 0.6 * np.tensordot(
            latn[4:8], self.basis_v, axes=(0, 0))
        seconds = _DT_DAYS * 86400.0
        deg_per_m = 1.0 / 111_000.0
        u_deg = u * seconds * deg_per_m / self.coslat
        v_deg = v * seconds * deg_per_m
        return u, v, u_deg, v_deg

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

        # 2) ENSO recharge-discharge oscillator, excited by zero-mean chaotic
        # forcing from the fast latents (per-step increments).
        te, th = state.enso
        steps_per_year = DAYS_PER_YEAR / _DT_DAYS
        omega = 2 * np.pi / (ENSO_PERIOD_YEARS * steps_per_year)
        damp = 1.0 / (2.5 * steps_per_year)  # ~2.5-year e-folding
        latn0 = (state.latents[0] - state.latents.mean()) \
            / max(state.latents.std(), 1e-6)
        forcing = cfg.enso_coupling * latn0
        state.enso = np.array([te + omega * th - damp * te + forcing,
                               th - omega * te - damp * th])

        # 3) Advected anomaly scalars forced by latents.
        latn = (state.latents - state.latents.mean()) / max(state.latents.std(), 1e-6)
        _, _, u_deg, v_deg = self._winds_deg(state)
        for name, basis in (("q", self.basis_q), ("theta", self.basis_theta),
                            ("moisture", self.basis_m)):
            fld = getattr(state, name)
            adv = self._advect(fld, u_deg, v_deg)
            forced = cfg.forcing_amp * np.tensordot(latn, basis, axes=(0, 0))
            new = (1.0 - cfg.relax_rate) * adv + forced
            setattr(state, name, _smooth(new, SMOOTH_PASSES))

        # 4) Events.
        self._step_cyclones(state)
        self._step_heatwaves(state)
        state.step += 1
        return state

    # -- tropical cyclones -----------------------------------------------------
    def _tc_season_weight(self, step: int, hemisphere: int) -> float:
        doy = (step / STEPS_PER_DAY) % DAYS_PER_YEAR
        peak = 250.0 if hemisphere > 0 else 45.0
        dist = min(abs(doy - peak), DAYS_PER_YEAR - abs(doy - peak))
        return float(np.exp(-((dist / 45.0) ** 2)))

    def _step_cyclones(self, state: GcmState) -> None:
        g = self.grid
        # Genesis (seeded, hence deterministic along a trajectory).
        for hemi in (1, -1):
            rate = TC_RATE_PER_DAY * _DT_DAYS * self._tc_season_weight(
                state.step, hemi)
            if state.rng.uniform() < rate:
                lat = hemi * state.rng.uniform(8.0, 18.0)
                lon = state.rng.uniform(0.0, 360.0)
                if self.static.land_mask[g.lat_index(lat), g.lon_index(lon)] < 0.5:
                    state.cyclones.append(TropicalCyclone(
                        lat=lat, lon=lon, intensity=0.15, hemisphere=hemi))
        # Motion + intensity.
        survivors = []
        jet = self.jet(state.step)
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
    def _step_heatwaves(self, state: GcmState) -> None:
        g = self.grid
        for hemi in (1, -1):
            # Summer-hemisphere genesis over midlatitude land.
            weight = self._tc_season_weight(state.step, hemi)  # same summer peak
            if state.rng.uniform() < HEATWAVE_RATE_PER_DAY * _DT_DAYS * weight:
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
    def _event_envelope(age: float, duration: float, ramp: float = 2.5) -> float:
        """Smooth grow-hold-decay profile in [0, 1]."""
        up = min(1.0, age / ramp)
        down = min(1.0, max(0.0, (duration - age)) / ramp)
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
        u_ms, v_ms, _, _ = self._winds_deg(state)

        z500 = clim["Z500"] + 120.0 * state.q
        # Geostrophic-like winds from the Z500 anomaly.
        zanom = 120.0 * state.q
        dzdy = np.gradient(zanom, axis=0) / (g.dlat * 111_000.0)
        dzdx = np.gradient(zanom, axis=1) / (g.dlon * 111_000.0) / self.coslat
        geo_scale = 9.81 / 1.0e-4  # g / f0
        sign = np.sign(np.tan(self.latr))[:, None]  # flips in SH
        u_geo = np.clip(-geo_scale * dzdy * sign * 0.10, -40, 40)
        v_geo = np.clip(geo_scale * dzdx * sign * 0.10, -40, 40)

        u850 = 0.75 * u_ms + 0.6 * u_geo
        v850 = 0.75 * v_ms + 0.6 * v_geo
        u10 = 0.45 * u_ms + 0.35 * u_geo
        v10 = 0.45 * v_ms + 0.35 * v_geo

        t850 = clim["T850"] + 6.5 * state.theta
        mslp = clim["MSLP"] - 9.0 * _smooth(state.q, 1)
        q700 = np.clip(clim["Q700"] * (1.0 + 0.55 * state.moisture), 0.0, None)

        sst_anom = 2.2 * self.enso_pattern * state.enso[0] \
            + 0.8 * _smooth(state.theta, 2)
        sst = clim["SST"] + sst_anom
        # SST relaxes to a fixed proxy over land (masked in evaluation).
        sst = np.where(self.static.land_mask > 0.5, clim["SST"], sst)

        solar = toa_solar(g, state.step) / 1361.0
        land = self.static.land_mask
        t2m = (t850 + 6.0
               - 0.0065 * self.static.orography
               + 3.5 * land * (solar - 0.25)       # diurnal cycle over land
               + 2.0 * land * 6.5 * state.theta * 0.3)

        # Event imprints.
        for tc in state.cyclones:
            blob = self._gaussian_blob(tc.lat, tc.lon, TC_RADIUS_DEG)
            depth = TC_MAX_AMPLITUDE * tc.intensity
            mslp = mslp - depth * blob
            z500 = z500 - 2.0 * depth * blob
            q700 = q700 + 2.5 * tc.intensity * blob
            # Cyclonic winds: tangential flow around the center.
            gy = np.gradient(blob, axis=0) / g.dlat
            gx = np.gradient(blob, axis=1) / g.dlon / self.coslat
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
        out[..., TOY_SET.index("T2M")] = t2m
        out[..., TOY_SET.index("U10")] = u10
        out[..., TOY_SET.index("V10")] = v10
        out[..., TOY_SET.index("MSLP")] = mslp
        out[..., TOY_SET.index("SST")] = sst
        out[..., TOY_SET.index("Z500")] = z500
        out[..., TOY_SET.index("T850")] = t850
        out[..., TOY_SET.index("Q700")] = q700
        out[..., TOY_SET.index("U850")] = u850
        return out

    # -- convenience -------------------------------------------------------------
    def run(self, state: GcmState, n_steps: int):
        """Yield ``(step_index, fields)`` for ``n_steps`` successive steps."""
        for _ in range(n_steps):
            self.step(state)
            yield state.step, self.diagnostics(state)

    def perturbed_twin(self, rel_error: float, seed: int) -> "ReferenceGCM":
        """An imperfect copy of this model: every tunable constant perturbed
        by ``~rel_error`` relative noise (the NWP-baseline physics)."""
        rng = np.random.default_rng(seed)
        cfg = self.config
        def jitter(v: float) -> float:
            return float(v * (1.0 + rel_error * rng.normal()))
        twin_cfg = replace(
            cfg,
            l96_forcing=jitter(cfg.l96_forcing),
            jet_speed=jitter(cfg.jet_speed),
            anomaly_wind=jitter(cfg.anomaly_wind),
            forcing_amp=jitter(cfg.forcing_amp),
            relax_rate=jitter(cfg.relax_rate),
            enso_coupling=jitter(cfg.enso_coupling),
        )
        return ReferenceGCM(self.grid, self.static, twin_cfg)
