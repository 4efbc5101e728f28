"""Axial-frequency 2D rotary position embeddings (paper Section V-B,
after Heo et al., "Rotary position embedding for vision transformer").

Queries and keys are rotated before the attention dot product "in place of
relative positional biases". Axial 2D RoPE splits each head's feature pairs
in half: the first half rotates with the token's *row* within the window,
the second half with its *column*. Because RoPE enters q·k only through
coordinate differences, the same window-local table serves shifted and
unshifted windows alike.
"""

from __future__ import annotations

import numpy as np

__all__ = ["axial_rope_table"]

#: Frequency base.  Windows are small (30–60 tokens per axis), so a much
#: smaller base than the LLM-conventional 10000 keeps the highest
#: wavelength comparable to the window extent.
ROPE_BASE = 100.0


def axial_rope_table(window: tuple[int, int], head_dim: int
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Build float32 (cos, sin) tables of shape ``(wh*ww, head_dim // 2)``.

    Parameters
    ----------
    window:
        (wh, ww) window shape; the table covers its row-major token order.
    head_dim:
        Per-head feature count; must be divisible by 4 (two axes × pairs).
    """
    if head_dim % 4:
        raise ValueError("head_dim must be divisible by 4 for axial 2D RoPE")
    wh, ww = window
    quarter = head_dim // 4
    freqs = ROPE_BASE ** (-np.arange(quarter) / quarter)   # (quarter,)
    rows = np.repeat(np.arange(wh), ww)               # token row, row-major
    cols = np.tile(np.arange(ww), wh)                 # token column
    row_angles = rows[:, None] * freqs[None, :]       # (T, quarter)
    col_angles = cols[:, None] * freqs[None, :]       # (T, quarter)
    angles = np.concatenate([row_angles, col_angles], axis=1)  # (T, head_dim/2)
    return (np.cos(angles).astype(np.float32),
            np.sin(angles).astype(np.float32))
