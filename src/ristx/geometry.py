"""Element layout of the reflecting surface and feed-to-surface propagation.

The feed sits at the origin with its zenith along +z; boresight points along
+x toward the surface center, so broadside illumination corresponds to an
elevation angle of pi/2.  The surface is a vertical sqrt(M) x sqrt(M) grid of
pitch ``wavelength`` (element cells tile a sqrt(M)*lambda square).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UnilluminatedElementError


def wrap_phase(x):
    """Wrap angles to [-pi, pi)."""
    return np.mod(np.asarray(x, dtype=float) + np.pi, 2.0 * np.pi) - np.pi


@dataclass(frozen=True)
class FeedPattern:
    """Ideal-sector radiation pattern of the RF feed.

    Constant gain inside an elevation band around broadside, horizontally
    omnidirectional, zero outside.

    Attributes:
        vertical_beamwidth: full elevation beamwidth in radians, in (0, pi].
        peak_gain: in-band gain.  The default normalizes total radiated
            power, i.e. the pattern integrates to 4*pi over the sphere:
            peak = 4*pi / (band solid angle) = 1 / sin(beamwidth / 2).
    """

    vertical_beamwidth: float
    peak_gain: float

    def __post_init__(self):
        if not 0.0 < self.vertical_beamwidth <= np.pi:
            raise ValueError("vertical_beamwidth must be in (0, pi]")
        if not self.peak_gain > 0.0:
            raise ValueError("peak_gain must be positive")

    @classmethod
    def ideal_sector(cls, vertical_beamwidth, peak_gain=None):
        """Build an ideal-sector pattern; peak_gain defaults to the 4*pi norm."""
        if peak_gain is None:
            if not 0.0 < vertical_beamwidth <= np.pi:
                raise ValueError("vertical_beamwidth must be in (0, pi]")
            peak_gain = 1.0 / math.sin(vertical_beamwidth / 2.0)
        return cls(float(vertical_beamwidth), float(peak_gain))


def pattern_gain(pattern, theta, phi):
    """Feed gain toward elevation ``theta`` (from zenith) and azimuth ``phi``.

    theta must lie in [0, pi] and phi in [-pi, pi); either may be an array.
    The ideal sector returns ``peak_gain`` for |theta - pi/2| <= beamwidth/2
    and 0 outside, independent of phi.
    """
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if np.any(theta < 0.0) or np.any(theta > np.pi):
        raise ValueError("theta out of range [0, pi]")
    if np.any(phi < -np.pi) or np.any(phi >= np.pi):
        raise ValueError("phi out of range [-pi, pi)")
    inside = np.abs(theta - np.pi / 2.0) <= pattern.vertical_beamwidth / 2.0
    gain = np.where(inside, pattern.peak_gain, 0.0)
    if gain.ndim == 0:
        return float(gain)
    return gain


@dataclass(frozen=True)
class ElementGrid:
    """Surface element positions in spherical coordinates about the feed."""

    num_elements: int
    wavelength: float
    feed_distance: float
    radius: np.ndarray  # (M,) element distances from the feed, meters
    theta: np.ndarray   # (M,) elevation from feed zenith, radians
    phi: np.ndarray     # (M,) azimuth, radians


def layout_elements(num_elements, wavelength, feed_distance):
    """Lay out a sqrt(M) x sqrt(M) grid of pitch ``wavelength``.

    The grid is centered on the boresight axis through the feed at distance
    ``feed_distance``.  Elements are enumerated row-major, vertical index
    outer.  Deterministic.
    """
    m = int(num_elements)
    if m < 1 or m != num_elements:
        raise ValueError("num_elements must be a positive integer")
    side = math.isqrt(m)
    if side * side != m:
        raise ValueError(f"num_elements must be a perfect square, got {m}")
    if not wavelength > 0.0:
        raise ValueError("wavelength must be positive")
    if not feed_distance > 0.0:
        raise ValueError("feed_distance must be positive")

    offsets = (np.arange(side) - (side - 1) / 2.0) * wavelength
    vert, horiz = np.meshgrid(offsets, offsets, indexing="ij")
    vert = vert.ravel()
    horiz = horiz.ravel()
    radius = np.sqrt(feed_distance**2 + horiz**2 + vert**2)
    theta = np.arccos(vert / radius)
    phi = np.arctan2(horiz, feed_distance)
    return ElementGrid(m, float(wavelength), float(feed_distance), radius, theta, phi)


@dataclass(frozen=True)
class SurfaceModel:
    """Per-element propagation coefficients of the illuminated surface.

    attenuation[m] is the amplitude gain from feed to element m and
    phase[m] the propagation phase -2*pi*r_m/lambda wrapped to [-pi, pi).
    """

    attenuation: np.ndarray
    phase: np.ndarray
    efficiency: float
    wavelength: float
    feed_distance: float

    @property
    def num_elements(self):
        return self.attenuation.shape[0]

    def complex_coeffs(self):
        """Diagonal of the propagation matrix as a complex vector."""
        return self.attenuation * np.exp(1j * self.phase)

    def to_record(self):
        """JSON-serializable form used in trial records."""
        return {
            "M": int(self.num_elements),
            "lambda_m": self.wavelength,
            "R_d_m": self.feed_distance,
            "zeta": self.efficiency,
            "T": self.attenuation.tolist(),
            "omega": self.phase.tolist(),
        }


def propagation_coeffs(grid, pattern, efficiency):
    """Attenuation and propagation phase for every element of ``grid``.

    Amplitude: wavelength * sqrt(efficiency * gain) / (4*pi*r); phase:
    -2*pi*r/wavelength wrapped to [-pi, pi).  Raises
    UnilluminatedElementError if any element sees zero feed gain.
    """
    if not 0.0 < efficiency <= 1.0:
        raise ValueError("efficiency must be in (0, 1]")
    gain = np.asarray(pattern_gain(pattern, grid.theta, grid.phi))
    if np.any(gain <= 0.0):
        bad = int(np.argmax(gain <= 0.0))
        raise UnilluminatedElementError(
            f"element {bad} lies outside the feed pattern "
            f"(theta={grid.theta[bad]:.4f} rad)"
        )
    attenuation = grid.wavelength * np.sqrt(efficiency * gain) / (4.0 * np.pi * grid.radius)
    phase = wrap_phase(-2.0 * np.pi * grid.radius / grid.wavelength)
    return SurfaceModel(
        attenuation, phase, float(efficiency), grid.wavelength, grid.feed_distance
    )
