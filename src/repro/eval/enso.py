"""ENSO diagnostics: the Niño 3.4 index (Figure 7a)."""

from __future__ import annotations

import numpy as np

from ..data import LatLonGrid, TOY_SET

__all__ = ["NINO34_BOX", "nino34_index"]

#: Niño 3.4 region: 5°S–5°N, 170°W–120°W (= 190°E–240°E).
NINO34_BOX = (-5.0, 5.0, 190.0, 240.0)


def nino34_index(fields: np.ndarray, grid: LatLonGrid,
                 climatology: np.ndarray | None = None) -> np.ndarray:
    """Area-mean SST (anomaly) over the Niño 3.4 box.

    ``fields``: ``(..., H, W, C)``; returns the index with the trailing three
    axes reduced. If ``climatology`` (same trailing shape) is given, the
    anomaly w.r.t. it is computed — the standard index definition.
    """
    c = TOY_SET.index("SST")
    sst = fields[..., c]
    if climatology is not None:
        sst = sst - climatology[..., c]
    mask = grid.box_mask(*NINO34_BOX)
    return grid.area_mean(sst, mask=mask)
