"""Test helpers shared by several test modules."""

import itertools

import numpy as np

from ristx.channel import Users


def crandn(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def brute_force_optimum(matrix, s):
    """Exhaustive search over all +-1 patterns with the per-pattern optimal gain."""
    best = np.inf
    for bits in itertools.product((1.0, -1.0), repeat=matrix.shape[1]):
        w = np.array(bits, dtype=complex)
        hw = matrix @ w
        den = float(np.real(np.vdot(hw, hw)))
        if den < 1e-300:
            obj = float(np.real(np.vdot(s, s)))
        else:
            gain = float(np.real(np.vdot(hw, s))) / den
            r = s - gain * hw
            obj = float(np.real(np.vdot(r, r)))
        best = min(best, obj)
    return best


def users(shadowing=1.0, r_norm=1.0, count=1, nu=3.2, r_ref=100.0):
    # ``count`` users, each with the given (scalar or per-user) values
    shadowing = np.broadcast_to(np.asarray(shadowing, dtype=float), (count,))
    r_norm = np.broadcast_to(np.asarray(r_norm, dtype=float), (count,))
    return Users(
        distance=r_norm * r_ref,
        shadowing=shadowing,
        path_gain=shadowing / r_norm**nu,
    )
