"""AERIS model configurations.

Carries both the *symbolic* Table II configurations (1.3B–80B; used by the
performance model, never instantiated) and tiny *trainable* presets that run
the identical architecture end-to-end on the toy reanalysis.

Parameter-count formula
-----------------------
With the paper's PP = L + 2 rule (L = number of Swin layers) and two
transformer blocks per Swin layer, per-block parameters are

    attention          4·d²          (qkv + output projections)
    SwiGLU             3·d·f
    adaLN (×2)         6·d²          (two per block: attention + FFN branch)

which lands the Table II configs close to their nominal sizes (40B -> 40.8B,
80B -> 79.3B, 1.3B -> 1.32B; 13B and 26B are within ~10–25%, the residual
coming from unpublished block multiplicities). `count_parameters` implements
the exact formula used by the live model, validated in tests against
`Module.num_parameters()`.

Table II consistency note: the paper's Nodes column obeys nodes = WP × PP
only if the 40B row uses WP=36 (6×6) and the 80B row WP=64 (8×8) — the values
the running text uses ("40B ... WP=36 and PP=20", "80B ... WP=64"). We encode
those consistent values.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

__all__ = ["AerisConfig", "ParallelLayout", "TABLE_II", "TINY", "SMALL",
           "count_parameters", "config_to_dict", "config_from_dict"]


@dataclass(frozen=True)
class ParallelLayout:
    """SWiPe layout for one configuration (Table II columns)."""

    wp: int              # window-parallel group size (A*B)
    wp_grid: tuple[int, int]  # (A, B) node grid
    pp: int              # pipeline stages (= swin layers + 2)
    sp: int              # sequence parallel degree (GPU tiles per node)
    gas: int             # gradient accumulation steps

    def __post_init__(self):
        if self.wp_grid[0] * self.wp_grid[1] != self.wp:
            raise ValueError(f"wp_grid {self.wp_grid} inconsistent with wp={self.wp}")

    @property
    def nodes_per_instance(self) -> int:
        """Nodes for a single model instance: WP × PP (paper Section VII-A)."""
        return self.wp * self.pp


@dataclass(frozen=True)
class AerisConfig:
    """Architecture + data-shape configuration."""

    name: str
    # data shape
    height: int = 720
    width: int = 1440
    channels: int = 70          # 5 surface + 5 atmospheric x 13 levels
    forcing_channels: int = 3   # TOA solar, surface geopotential, land-sea mask
    patch_size: int = 1         # pixel-level
    # architecture
    dim: int = 1536
    heads: int = 12
    ffn_dim: int = 9216
    swin_layers: int = 10       # L; PP = L + 2
    blocks_per_layer: int = 2
    window: tuple[int, int] = (60, 60)
    time_freqs: int = 32
    # parallel layout (symbolic for Table II configs)
    layout: ParallelLayout | None = None

    def __post_init__(self):
        if self.height % self.patch_size or self.width % self.patch_size:
            raise ValueError(
                f"{self.name}: image {self.height}x{self.width} not divisible "
                f"by patch size {self.patch_size}")
        grid_h = self.height // self.patch_size
        grid_w = self.width // self.patch_size
        if grid_h % self.window[0] or grid_w % self.window[1]:
            raise ValueError(
                f"{self.name}: token grid {grid_h}x{grid_w} not divisible "
                f"by window {self.window}")
        if self.dim % self.heads:
            raise ValueError(f"{self.name}: dim not divisible by heads")
        if (self.dim // self.heads) % 4:
            raise ValueError(f"{self.name}: head_dim must be divisible by 4 "
                             "for axial 2D RoPE")

    # -- derived quantities -------------------------------------------------
    @property
    def head_dim(self) -> int:
        return self.dim // self.heads

    @property
    def n_blocks(self) -> int:
        return self.swin_layers * self.blocks_per_layer

    @property
    def grid(self) -> tuple[int, int]:
        """Token grid after patching (patch 1 -> pixel grid)."""
        return (self.height // self.patch_size, self.width // self.patch_size)

    @property
    def seq_len(self) -> int:
        h, w = self.grid
        return h * w

    @property
    def tokens_per_window(self) -> int:
        return self.window[0] * self.window[1]

    @property
    def in_channels(self) -> int:
        """Noisy-residual + initial-condition + forcings, concatenated
        channel-wise (paper: x_hat_t = [x_t, x_{i-1}, x_f])."""
        return 2 * self.channels + self.forcing_channels

    @property
    def pp_stages(self) -> int:
        """PP = L + 2: I/O + embedding isolated in first/last stages."""
        return self.swin_layers + 2


def config_to_dict(config: AerisConfig) -> dict:
    """JSON-safe dict for manifests / the model registry.

    Tuples become lists (JSON has no tuples); :func:`config_from_dict`
    restores them, so the pair round-trips exactly.
    """
    d = dataclasses.asdict(config)
    d["window"] = list(config.window)
    if config.layout is not None:
        d["layout"]["wp_grid"] = list(config.layout.wp_grid)
    return d


def config_from_dict(d: dict) -> AerisConfig:
    """Inverse of :func:`config_to_dict` (re-runs ``__post_init__``
    validation, so a manifest edited into inconsistency is rejected)."""
    d = dict(d)
    d["window"] = tuple(d["window"])
    layout = d.get("layout")
    if layout is not None:
        layout = dict(layout)
        layout["wp_grid"] = tuple(layout["wp_grid"])
        d["layout"] = ParallelLayout(**layout)
    return AerisConfig(**d)


def count_parameters(config: AerisConfig) -> int:
    """Analytical parameter count, mirroring the live model exactly."""
    d, f = config.dim, config.ffn_dim
    per_block = (
        3 * d * d + d * d          # qkv + out projections (no bias)
        + 3 * d * f                # SwiGLU gate/up/down (no bias)
        + 2 * (d * 3 * d + 3 * d)  # two adaLN modulations (weight + bias)
        + 2 * d                    # two RMSNorm gains
    )
    p2 = config.patch_size ** 2
    embed = config.in_channels * p2 * d + d
    decode = d * config.channels * p2 + config.channels * p2  # no final affine
    time_embed = config.time_freqs * d + d
    return config.n_blocks * per_block + embed + decode + time_embed


def _table_config(name, dim, heads, ffn, pp, wp, wp_grid, gas, sp=12) -> AerisConfig:
    return AerisConfig(
        name=name, dim=dim, heads=heads, ffn_dim=ffn, swin_layers=pp - 2,
        layout=ParallelLayout(wp=wp, wp_grid=wp_grid, pp=pp, sp=sp, gas=gas))


#: Table II configurations (Aurora SP=12 tiles/node; LUMI SP=8).
TABLE_II: dict[str, AerisConfig] = {
    "1.3B": _table_config("1.3B", 1536, 12, 9216, pp=12, wp=4, wp_grid=(2, 2), gas=60),
    "13B": _table_config("13B", 4608, 36, 25600, pp=16, wp=16, wp_grid=(4, 4), gas=48),
    "40B": _table_config("40B", 6144, 48, 40960, pp=20, wp=36, wp_grid=(6, 6), gas=140),
    "80B": _table_config("80B", 7680, 60, 46080, pp=26, wp=64, wp_grid=(8, 8), gas=52),
    "26B(L)": _table_config("26B(L)", 6144, 48, 32768, pp=14, wp=36, wp_grid=(6, 6),
                            gas=70, sp=8),
}

#: Nominal parameter counts as named in the paper, for reporting.
NOMINAL_PARAMS = {"1.3B": 1.3e9, "13B": 13e9, "40B": 40e9, "80B": 80e9,
                  "26B(L)": 26e9}

#: Trainable preset exercising every architectural feature at toy scale.
TINY = AerisConfig(
    name="tiny", height=16, width=32, channels=9, forcing_channels=3,
    dim=32, heads=4, ffn_dim=64, swin_layers=2, blocks_per_layer=2,
    window=(4, 4), time_freqs=8,
    layout=ParallelLayout(wp=4, wp_grid=(2, 2), pp=4, sp=2, gas=2))

#: Slightly larger trainable preset for the skill benchmarks.
SMALL = AerisConfig(
    name="small", height=24, width=48, channels=9, forcing_channels=3,
    dim=64, heads=4, ffn_dim=128, swin_layers=2, blocks_per_layer=2,
    window=(8, 8), time_freqs=16,
    layout=ParallelLayout(wp=4, wp_grid=(2, 2), pp=4, sp=2, gas=2))
