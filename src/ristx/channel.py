"""User placement, shadowing, small-scale fading and channel assembly.

All randomness flows through explicitly injected numpy generators; functions
are pure given the generator state, so trials can be produced concurrently
from independently derived streams.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Cell:
    """Large-scale propagation parameters of the single cell."""

    r_min: float            # minimal (reference) distance, meters
    r_max: float            # outer radius, meters
    path_loss_exponent: float
    shadow_std_db: float


@dataclass(frozen=True)
class UserLargeScale:
    """Large-scale state of one user."""

    distance: float   # meters
    shadowing: float  # linear-scale log-normal draw, > 0
    path_gain: float  # shadowing / (distance / r_min)**exponent


def large_scale_gains(users):
    """Linear power gains shadowing / r_norm**exponent, one per user."""
    return np.array([u.path_gain for u in users])


def draw_users(num_users, cell, rng):
    """Draw user positions and shadowing for one channel realization.

    Distances follow the uniform-area density on the annulus
    [r_min, r_max] (pdf proportional to r); shadowing is log-normal with
    zero dB mean and ``shadow_std_db`` dB standard deviation.
    """
    if num_users < 1:
        raise ValueError("num_users must be positive")
    u = rng.random(num_users)
    distance = np.sqrt(cell.r_min**2 + u * (cell.r_max**2 - cell.r_min**2))
    shadow_db = rng.normal(0.0, cell.shadow_std_db, num_users)
    shadowing = 10.0 ** (shadow_db / 10.0)
    return [
        UserLargeScale(
            distance=float(d),
            shadowing=float(s),
            path_gain=float(s) / float(d / cell.r_min) ** cell.path_loss_exponent,
        )
        for d, s in zip(distance, shadowing)
    ]


def draw_fading(num_users, num_elements, rng):
    """I.i.d. circularly-symmetric complex normal matrix, unit variance."""
    if num_users < 1 or num_elements < 1:
        raise ValueError("matrix dimensions must be positive")
    shape = (num_users, num_elements)
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    return (re + 1j * im) / np.sqrt(2.0)


def assemble_channel(large_scale, fading):
    """(K, M) channel: fading rows scaled by sqrt(shadowing / r_norm**exponent)."""
    fading = np.asarray(fading)
    if fading.ndim != 2 or fading.shape[0] != len(large_scale):
        raise ValueError(
            f"fading shape {fading.shape} does not match {len(large_scale)} users"
        )
    return np.sqrt(large_scale_gains(large_scale))[:, None] * fading


def compensating_gains(large_scale):
    """Receive gains, shape (K,), that cancel path loss and shadowing exactly.

    Applying these to the assembled channel recovers the pure fading matrix,
    so the single-RF distortion becomes invariant to the large-scale draw.
    """
    return 1.0 / np.sqrt(large_scale_gains(large_scale))
