"""Fully digital matched-filter benchmark with per-interval power matching.

The benchmark transmitter steers along the conjugate channel and scales each
interval so its radiated power equals the single-RF solution's.  Receive
gains compensate path loss, shadowing and the block-mean power scaling; the
expected (not realized) matched-filter self-gain M * pathgain is removed, so
residual fading fluctuations stay in the distortion on purpose.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateDirectionError


def mf_precode_block(channel_matrix, symbol_block, target_powers):
    """Matched-filter transmit block with exact powers ||x(n)||^2 = target_powers[n].

    Returns (x_block, c) where x_block[:, n] = c[n] * H^H @ s(n), c[n] >= 0.
    A zero direction only passes when its target power is zero (the column
    is then zero).
    """
    target_powers = np.asarray(target_powers, dtype=float)
    if np.any(target_powers < 0.0):
        raise ValueError("target powers must be nonnegative")
    directions = channel_matrix.conj().T @ np.asarray(symbol_block, dtype=complex)
    norms_sq = np.einsum("ij,ij->j", directions.conj(), directions).real
    degenerate = norms_sq == 0.0
    if np.any(degenerate & (target_powers > 0.0)):
        raise DegenerateDirectionError("H^H s vanishes; cannot meet target power")
    scale = np.sqrt(np.where(degenerate, 0.0, target_powers / np.where(degenerate, 1.0, norms_sq)))
    return directions * scale[None, :], scale


def mf_post_gains(users, num_elements, mean_scale):
    """Receive gains 1 / (mean_scale * M * pathgain_k) for the benchmark."""
    if not mean_scale > 0.0:
        raise ValueError("mean_scale must be positive")
    return 1.0 / (mean_scale * num_elements * users.path_gain)
