"""Distortion, transmit power and PAPR of a tuned transmission block."""

from __future__ import annotations

import numpy as np

DB_FLOOR = -200.0  # dB stand-in for an exact-zero linear value


def db10(value):
    """10*log10 with a numeric floor for exact zeros.

    Returns (db, floored) where ``floored`` marks a value clamped at
    ``DB_FLOOR`` because the linear input was zero.
    """
    if value == 0.0:
        return DB_FLOOR, True
    return float(10.0 * np.log10(value)), False


def transmit_block(surface, w_block, gains):
    """(M, N) block x(n) = gain(n) * diag(surface) @ w(n).

    Returns a fresh block, scaled by the gains in place; ``w_block`` and
    ``gains`` are left as they are.
    """
    x_block = surface.complex_coeffs[:, None] * w_block
    x_block *= gains[None, :]
    return x_block


def distortion(symbols, post_gains, channel_matrix, x_block):
    """Noise-free per-user distortion, averaged over the block.

    (1/K)(1/N) * sum_n ||s(n) - G H x(n)||^2 for (K, N) symbols, (K,) gains
    and an (M, N) transmit block, returned in linear scale.
    """
    residual = symbols - (post_gains[:, None] * channel_matrix) @ x_block
    num_users, num_intervals = symbols.shape
    return float(np.sum(np.abs(residual) ** 2) / (num_users * num_intervals))


def average_power(gains):
    """Average transmit power (1/N) * sum_n gain(n)^2."""
    return float(np.mean(np.abs(gains) ** 2))


def papr(gains):
    """Peak-to-average power ratio max_n gain(n)^2 / P_avg, >= 1."""
    if not np.any(gains):
        raise ValueError("all feed gains are zero")
    powers = np.abs(gains) ** 2
    return float(np.max(powers) / np.mean(powers))

