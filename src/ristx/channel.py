"""User placement, shadowing, small-scale fading and channel assembly.

All randomness flows through explicitly injected numpy generators; functions
are pure given the generator state, so trials can be produced concurrently
from independently derived streams.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

R_MIN = 100.0  # meters: the cell's inner radius and the path-loss reference


@dataclass(frozen=True)
class Users:
    """Large-scale state of the K users of one channel realization."""

    distance: np.ndarray   # (K,) meters
    shadowing: np.ndarray  # (K,) linear-scale log-normal draws, > 0
    path_gain: np.ndarray  # (K,) shadowing / (distance / R_MIN)**exponent


def draw_users(num_users, cfg, rng):
    """Draw user positions and shadowing for one channel realization.

    Distances follow the uniform-area density on the annulus [R_MIN,
    cfg.r_max] (pdf proportional to r), path gains fall off with exponent
    ``cfg.path_loss_exponent``, and shadowing is log-normal with zero dB mean
    and ``cfg.shadow_std_db`` dB standard deviation, for ``num_users`` >= 1.
    ``R_MIN`` is a unit, not a parameter: the draw depends on it only
    through ``cfg.r_max / R_MIN``.
    """
    u = rng.random(num_users)
    distance = np.sqrt(R_MIN**2 + u * (cfg.r_max**2 - R_MIN**2))
    shadow_db = rng.normal(0.0, cfg.shadow_std_db, num_users)
    shadowing = 10.0 ** (shadow_db / 10.0)
    # Python's float power, one user at a time: numpy's vectorised ``**``
    # may round the last bit differently, which would change the datasets.
    path_gain = np.array([
        s / (d / R_MIN) ** cfg.path_loss_exponent
        for d, s in zip(distance.tolist(), shadowing.tolist())
    ])
    return Users(distance, shadowing, path_gain)


def draw_fading(num_users, num_elements, rng):
    """I.i.d. circularly-symmetric complex normal matrix, unit variance."""
    re, im = rng.standard_normal((2, num_users, num_elements))
    return (re + 1j * im) / np.sqrt(2.0)


def assemble_channel(users, fading):
    """(K, M) channel: fading rows scaled by sqrt(shadowing / r_norm**exponent)."""
    return np.sqrt(users.path_gain)[:, None] * fading


def compensating_gains(users):
    """Receive gains, shape (K,), that cancel path loss and shadowing exactly.

    Applying these to the assembled channel recovers the pure fading matrix,
    so the single-RF distortion becomes invariant to the large-scale draw.
    """
    return 1.0 / np.sqrt(users.path_gain)
