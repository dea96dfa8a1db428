"""Fully digital matched-filter benchmark with per-interval power matching.

The benchmark transmitter steers along the conjugate channel and scales each
interval so its radiated power equals the single-RF solution's.  Receive
gains compensate path loss, shadowing and the block-mean power scaling; the
expected (not realized) matched-filter self-gain M * pathgain is removed, so
residual fading fluctuations stay in the distortion on purpose.
"""

from __future__ import annotations

import numpy as np


def mf_precode_block(channel_matrix, symbol_block, target_powers):
    """Matched-filter transmit block with exact powers ||x(n)||^2 = target_powers[n].

    Returns (x_block, c) where x_block[:, n] = c[n] * H^H @ s(n), c[n] >= 0:
    a fresh block of directions H^H @ s(n), scaled by c in place.  A zero
    direction only passes when its target power is zero (the column
    is then zero).
    """
    directions = channel_matrix.conj().T @ symbol_block
    norms_sq = np.einsum("ij,ij->j", directions.conj(), directions).real
    degenerate = norms_sq == 0.0
    if np.any(degenerate & (target_powers > 0.0)):
        raise ValueError("H^H s vanishes; cannot meet target power")
    scale = np.sqrt(np.where(degenerate, 0.0, target_powers / np.where(degenerate, 1.0, norms_sq)))
    directions *= scale[None, :]
    return directions, scale


def mf_post_gains(users, num_elements, mean_scale):
    """Receive gains 1 / (mean_scale * M * pathgain_k) for the benchmark."""
    return 1.0 / (mean_scale * num_elements * users.path_gain)
