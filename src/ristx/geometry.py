"""Element layout of the reflecting surface and feed-to-surface propagation.

The feed sits at the origin with its zenith along +z; boresight points along
+x toward the surface center, so broadside illumination corresponds to an
elevation angle of pi/2.  The surface is a vertical sqrt(M) x sqrt(M) grid of
pitch ``WAVELENGTH`` (element cells tile a sqrt(M)*lambda square).  The
wavelength is a unit, not a parameter: outputs depend on it only through
``feed_distance / WAVELENGTH``.

The feed pattern is an ideal sector: constant gain inside an elevation band
of full width ``beamwidth`` around broadside, the same at every azimuth, and
zero outside.  The in-band gain 1 / sin(beamwidth / 2) normalizes the total
radiated power, i.e. the pattern integrates to 4*pi over the sphere.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

WAVELENGTH = 0.008  # meters: the element pitch


def wrap_phase(x):
    """Wrap angles to [-pi, pi)."""
    return np.mod(np.asarray(x, dtype=float) + np.pi, 2.0 * np.pi) - np.pi


def layout_elements(num_elements, feed_distance):
    """Lay out a sqrt(M) x sqrt(M) grid of pitch ``WAVELENGTH``.

    The grid is centered on the boresight axis through the feed at distance
    ``feed_distance``.  Elements are enumerated row-major, vertical index
    outer.  Returns ``(radius, theta)``, each of shape (M,): the element
    distances from the feed in meters and their elevations from the feed
    zenith in radians, for a perfect square ``num_elements``.  Deterministic.
    """
    side = math.isqrt(num_elements)

    offsets = (np.arange(side) - (side - 1) / 2.0) * WAVELENGTH
    vert, horiz = np.meshgrid(offsets, offsets, indexing="ij")
    vert = vert.ravel()
    horiz = horiz.ravel()
    radius = np.sqrt(feed_distance**2 + horiz**2 + vert**2)
    return radius, np.arccos(vert / radius)


@dataclass(frozen=True)
class SurfaceModel:
    """Per-element propagation coefficients of the illuminated surface.

    attenuation[m] is the amplitude gain from feed to element m and
    phase[m] the propagation phase -2*pi*r_m/lambda wrapped to [-pi, pi).
    """

    attenuation: np.ndarray
    phase: np.ndarray

    @functools.cached_property
    def complex_coeffs(self):
        """Diagonal of the propagation matrix as a complex vector,
        computed on first access and read-only, so that every trial on the
        surface shares it."""
        coeffs = self.attenuation * np.exp(1j * self.phase)
        coeffs.flags.writeable = False
        return coeffs


def propagation_coeffs(num_elements, feed_distance, beamwidth, efficiency):
    """Attenuation and propagation phase of every element of the surface
    laid out by ``layout_elements`` under the ideal-sector feed.

    Amplitude: WAVELENGTH * sqrt(efficiency * gain) / (4*pi*r) with the
    in-band gain 1 / sin(beamwidth / 2); phase: -2*pi*r/WAVELENGTH wrapped
    to [-pi, pi).  ``beamwidth`` is the full elevation beamwidth in radians,
    in (0, pi].  Raises ValueError if any element lies outside the beam.
    """
    radius, theta = layout_elements(num_elements, feed_distance)
    outside = np.abs(theta - np.pi / 2.0) > beamwidth / 2.0
    if np.any(outside):
        bad = int(np.argmax(outside))
        raise ValueError(
            f"element {bad} lies outside the feed pattern "
            f"(theta={theta[bad]:.4f} rad)"
        )
    gain = 1.0 / math.sin(beamwidth / 2.0)
    attenuation = WAVELENGTH * np.sqrt(efficiency * gain) / (4.0 * np.pi * radius)
    phase = wrap_phase(-2.0 * np.pi * radius / WAVELENGTH)
    return SurfaceModel(attenuation, phase)
