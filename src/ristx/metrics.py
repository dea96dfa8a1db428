"""Distortion, transmit power and PAPR of a tuned transmission block."""

from __future__ import annotations

import numpy as np

DB_FLOOR = -200.0  # dB stand-in for an exact-zero linear value


def db10(value):
    """10*log10 with a numeric floor for exact zeros.

    Returns (db, floored) where ``floored`` marks a value clamped at
    ``DB_FLOOR`` because the linear input was zero.
    """
    if value < 0.0:
        raise ValueError("dB conversion of a negative value")
    if value == 0.0:
        return DB_FLOOR, True
    return float(10.0 * np.log10(value)), False


def transmit_block(surface, w_block, gains):
    """(M, N) block x(n) = gain(n) * diag(surface) @ w(n)."""
    gains = np.asarray(gains, dtype=float)
    coeffs = surface.complex_coeffs
    return coeffs[:, None] * np.asarray(w_block) * gains[None, :]


def distortion(symbols, post_gains, channel_matrix, x_block):
    """Noise-free per-user distortion, averaged over the block.

    (1/K)(1/N) * sum_n ||s(n) - G H x(n)||^2 for (K, N) symbols, (K,) gains
    and an (M, N) transmit block, returned in linear scale.
    """
    s = np.asarray(symbols)
    if s.ndim != 2 or s.shape[1] < 1:
        raise ValueError("symbols must be a K x N matrix with N >= 1")
    x = np.asarray(x_block)
    if x.shape[1] != s.shape[1]:
        raise ValueError("symbol and transmit blocks differ in length")
    gains = np.asarray(post_gains)
    if channel_matrix.shape != (s.shape[0], x.shape[0]):
        raise ValueError("channel dimensions do not match the blocks")
    residual = s - (gains[:, None] * channel_matrix) @ x
    num_users, num_intervals = s.shape
    return float(np.sum(np.abs(residual) ** 2) / (num_users * num_intervals))


def average_power(gains):
    """Average transmit power (1/N) * sum_n gain(n)^2."""
    gains = np.asarray(gains, dtype=float)
    if gains.size < 1:
        raise ValueError("need at least one interval")
    return float(np.mean(np.abs(gains) ** 2))


def papr(gains):
    """Peak-to-average power ratio max_n gain(n)^2 / P_avg, >= 1."""
    gains = np.asarray(gains, dtype=float)
    if gains.size < 1:
        raise ValueError("need at least one interval")
    if not np.any(gains):
        raise ValueError("all feed gains are zero")
    powers = np.abs(gains) ** 2
    return float(np.max(powers) / np.mean(powers))

