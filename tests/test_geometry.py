import math
import re

import numpy as np
import pytest

from ristx.geometry import layout_elements, propagation_coeffs, wrap_phase
from ristx.harness import ConfigError, SimConfig, run_trial


def wrap_oracle(x):
    # independent modular-arithmetic wrap to [-pi, pi)
    m = math.fmod(x + math.pi, 2.0 * math.pi)
    if m < 0:
        m += 2.0 * math.pi
    return m - math.pi


def in_band_gain(surf, radius, wavelength=0.008):
    # invert the amplitude formula T = lambda * sqrt(G) / (4 pi r) at zeta = 1
    return (surf.attenuation * 4 * np.pi * radius / wavelength) ** 2


def on_boresight(radius, efficiency=1.0, wavelength=0.008):
    # one element at feed distance r lies at radius r, theta = pi/2, and
    # beamwidth pi gives the in-band gain 1
    return propagation_coeffs(1, wavelength, radius, np.pi, efficiency)


class TestLayout:
    def test_single_element_on_boresight(self):
        radius, theta = layout_elements(1, 0.008, 1.0)
        assert radius[0] == pytest.approx(1.0, abs=0)
        assert theta[0] == pytest.approx(np.pi / 2)

    def test_m4_element_distances(self):
        # offsets are +-lambda/2 on both axes: r = sqrt(1 + 2*(0.004)^2)
        radius, _ = layout_elements(4, 0.008, 1.0)
        expected = math.sqrt(1.0 + 2.0 * 0.004**2)
        assert np.allclose(radius, expected, rtol=1e-14)
        assert expected == pytest.approx(1.000016, abs=1e-6)

    def test_m64_corner_distance(self):
        lam = 0.008
        rd = lam * math.sqrt(64 / math.pi)
        radius, _ = layout_elements(64, lam, rd)
        corner = math.sqrt(rd**2 + 2.0 * (3.5 * lam) ** 2)
        assert radius.max() == pytest.approx(corner, rel=1e-12)
        assert corner == pytest.approx(0.0540, abs=5e-4)

    def test_grid_span_and_pitch(self):
        rd = 10.0
        radius, theta = layout_elements(9, 0.5, rd)
        # in-plane offsets recovered from the spherical coordinates:
        # vertical = r * cos(theta), |horizontal| = sqrt((r sin(theta))^2 - R_d^2)
        vert = np.round(radius * np.cos(theta), 12)
        horiz = np.round(np.sqrt(np.maximum((radius * np.sin(theta)) ** 2 - rd**2, 0.0)), 6)
        assert np.allclose(np.unique(vert), [-0.5, 0.0, 0.5])
        assert np.allclose(np.unique(horiz), [0.0, 0.5])
        # row-major, vertical index outer: |horizontal| alternates along a row
        assert np.allclose(horiz, np.tile([0.5, 0.0, 0.5], 3))
        assert np.allclose(vert, np.repeat([-0.5, 0.0, 0.5], 3))

    def test_feed_inside_bound_holds(self):
        # r_m >= R_d > R_d - sqrt(M)*lambda/sqrt(2) for the planar layout
        rd = 0.008 * math.sqrt(64 / math.pi)
        radius, _ = layout_elements(64, 0.008, rd)
        assert np.all(radius >= rd)
        bound = rd - math.sqrt(64) * 0.008 / math.sqrt(2)
        assert np.all(radius >= bound)

    @pytest.mark.parametrize("m", [2, 3, 5, 63, 0, -4])
    def test_non_square_or_bad_m(self, m):
        # layout_elements trusts its size: run_trial refuses such an M first
        message = (f"config field 'num_elements': {m!r} "
                   "is not a positive perfect square up to 65536")
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            run_trial(SimConfig(), 2, m, 1, 0)


class TestPatternGain:
    def test_broadside_in_band(self):
        # the in-band gain is the 4*pi normalization 1/sin(beamwidth/2)
        surf = propagation_coeffs(1, 0.008, 1.0, 2 * np.pi / 3, 1.0)
        assert in_band_gain(surf, 1.0)[0] == pytest.approx(2 / math.sqrt(3))

    def test_zenith_outside_band(self):
        # a feed close behind a 3x3 grid sees the middle column's top and
        # bottom elements near zenith and nadir, outside a 120-degree band;
        # the first of them in row-major order is element 1
        with pytest.raises(ValueError, match="element 1 lies outside the feed pattern"):
            propagation_coeffs(9, 1.0, 0.1, 2 * np.pi / 3, 1.0)

    def test_full_band_gain(self):
        surf = on_boresight(1.0)
        assert in_band_gain(surf, 1.0)[0] == pytest.approx(1.0)

    @pytest.mark.parametrize("beamwidth", [0.2, np.pi / 3, 2 * np.pi / 3, np.pi])
    def test_normalization_by_quadrature(self, beamwidth):
        # oracle: integral of G over the sphere equals 4*pi within 1%, with
        # G the in-band gain recovered from the boresight attenuation
        peak = in_band_gain(propagation_coeffs(1, 0.008, 1.0, beamwidth, 1.0), 1.0)[0]
        theta = np.linspace(0.0, np.pi, 20001)
        gains = np.where(np.abs(theta - np.pi / 2) <= beamwidth / 2, peak, 0.0)
        integral = 2 * np.pi * np.trapezoid(gains * np.sin(theta), theta)
        assert integral == pytest.approx(4 * np.pi, rel=0.01)


class TestPropagation:
    def test_amplitude_at_one_meter(self):
        # T = lambda * sqrt(zeta * G) / (4 pi r) with G = 1
        surf = on_boresight(1.0)
        assert surf.attenuation[0] == pytest.approx(0.008 / (4 * np.pi))
        assert surf.attenuation[0] == pytest.approx(6.366e-4, rel=1e-3)
        assert surf.phase[0] == pytest.approx(wrap_oracle(-2 * np.pi / 0.008), abs=1e-9)

    def test_full_turn_phase(self):
        # r = lambda puts the propagation phase at a full turn
        surf = on_boresight(0.008)
        assert surf.phase[0] == 0.0
        assert surf.attenuation[0] == pytest.approx(1.0 / (4 * np.pi))

    def test_efficiency_scales_amplitude(self):
        for r in (0.5, 1.0, 2.0):
            full = on_boresight(r, 1.0)
            quarter = on_boresight(r, 0.25)
            assert np.array_equal(quarter.attenuation, 0.5 * full.attenuation)
            assert np.array_equal(quarter.phase, full.phase)

    def test_inverse_distance_law(self):
        for r in (0.3, 0.7, 1.1):
            base = on_boresight(r)
            scaled = on_boresight(2.0 * r)
            assert np.array_equal(scaled.attenuation, base.attenuation / 2.0)

    def test_phase_depends_on_radius_mod_wavelength(self):
        lam = 0.008
        a = on_boresight(0.013, wavelength=lam)
        b = on_boresight(0.013 + 250 * lam, wavelength=lam)
        assert a.phase[0] == pytest.approx(b.phase[0], abs=1e-8)

    def test_wrap_matches_modular_oracle(self):
        rng = np.random.default_rng(3)
        xs = rng.uniform(-1e4, 1e4, 200)
        wrapped = wrap_phase(xs)
        assert np.all(wrapped >= -np.pi) and np.all(wrapped < np.pi)
        for x, w in zip(xs, wrapped):
            assert w == pytest.approx(wrap_oracle(x), abs=1e-9)

    def test_reconstruction_is_bitwise(self):
        args = (16, 0.008, 0.008 * math.sqrt(16 / math.pi), 2 * np.pi / 3, 1.0)
        first = propagation_coeffs(*args)
        second = propagation_coeffs(*args)
        assert np.array_equal(first.attenuation, second.attenuation)
        assert np.array_equal(first.phase, second.phase)

    def test_formula_against_elementwise_loop(self):
        radius, _ = layout_elements(16, 0.008, 0.05)
        surf = propagation_coeffs(16, 0.008, 0.05, 2 * np.pi / 3, 0.7)
        g = 1.0 / math.sin(np.pi / 3)
        for m in range(16):
            expected = 0.008 * math.sqrt(0.7 * g) / (4 * math.pi * radius[m])
            assert surf.attenuation[m] == pytest.approx(expected, rel=1e-15)

    def test_unilluminated_element_raises(self):
        # narrow beam over a wide surface leaves corner elements dark
        with pytest.raises(ValueError, match="outside the feed pattern"):
            propagation_coeffs(64, 0.008, 0.01, 0.2, 1.0)

    def test_default_geometry_fully_illuminated(self):
        # the harness default feed distance keeps every element in the sector
        for m in (1, 64, 121, 225):
            surf = propagation_coeffs(
                m, 0.008, 0.008 * math.sqrt(m / math.pi), 2 * np.pi / 3, 1.0)
            assert np.all(surf.attenuation > 0)

    def test_single_element_reduces_to_boresight_scalar(self):
        # M=1 with the default feed distance: one coefficient whose modulus
        # is the amplitude formula evaluated at r = R_d
        lam = 0.008
        rd = lam * math.sqrt(1 / math.pi)
        surf = propagation_coeffs(1, lam, rd, 2 * np.pi / 3, 1.0)
        coeff = surf.complex_coeffs
        assert coeff.shape == (1,)
        expected = lam * math.sqrt(1 / math.sin(np.pi / 3)) / (4 * math.pi * rd)
        assert abs(coeff[0]) == pytest.approx(expected, rel=1e-12)

    def test_complex_coeffs_computed_once_and_read_only(self):
        # every trial on a surface reads the one array built with it
        surf = propagation_coeffs(225, 0.008, 0.008 * math.sqrt(225 / math.pi),
                                  2 * np.pi / 3, 1.0)
        coeffs = surf.complex_coeffs
        assert surf.complex_coeffs is coeffs
        assert coeffs.tobytes() == (surf.attenuation * np.exp(1j * surf.phase)).tobytes()
        assert not coeffs.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            coeffs[0] = 0.0
