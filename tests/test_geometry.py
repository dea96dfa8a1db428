import math

import numpy as np
import pytest

from ristx.errors import UnilluminatedElementError
from ristx.geometry import (
    ElementGrid,
    FeedPattern,
    layout_elements,
    pattern_gain,
    propagation_coeffs,
    wrap_phase,
)


def wrap_oracle(x):
    # independent modular-arithmetic wrap to [-pi, pi)
    m = math.fmod(x + math.pi, 2.0 * math.pi)
    if m < 0:
        m += 2.0 * math.pi
    return m - math.pi


def sector_pattern(beamwidth, peak=None):
    return FeedPattern.ideal_sector(beamwidth, peak)


class TestLayout:
    def test_single_element_on_boresight(self):
        grid = layout_elements(1, 0.008, 1.0)
        assert grid.radius[0] == pytest.approx(1.0, abs=0)
        assert grid.theta[0] == pytest.approx(np.pi / 2)
        assert grid.phi[0] == pytest.approx(0.0, abs=0)

    def test_m4_element_distances(self):
        # offsets are +-lambda/2 on both axes: r = sqrt(1 + 2*(0.004)^2)
        grid = layout_elements(4, 0.008, 1.0)
        expected = math.sqrt(1.0 + 2.0 * 0.004**2)
        assert np.allclose(grid.radius, expected, rtol=1e-14)
        assert expected == pytest.approx(1.000016, abs=1e-6)

    def test_m64_corner_distance(self):
        lam = 0.008
        rd = lam * math.sqrt(64 / math.pi)
        grid = layout_elements(64, lam, rd)
        corner = math.sqrt(rd**2 + 2.0 * (3.5 * lam) ** 2)
        assert grid.radius.max() == pytest.approx(corner, rel=1e-12)
        assert corner == pytest.approx(0.0540, abs=5e-4)

    def test_grid_span_and_pitch(self):
        grid = layout_elements(9, 0.5, 10.0)
        # in-plane offsets recovered from the spherical coordinates:
        # horizontal = R_d * tan(phi), vertical = r * cos(theta)
        horiz = np.sort(np.unique(np.round(grid.feed_distance * np.tan(grid.phi), 12)))
        vert = np.sort(np.unique(np.round(grid.radius * np.cos(grid.theta), 12)))
        assert np.allclose(horiz, [-0.5, 0.0, 0.5])
        assert np.allclose(vert, [-0.5, 0.0, 0.5])

    def test_feed_inside_bound_holds(self):
        # r_m >= R_d > R_d - sqrt(M)*lambda/sqrt(2) for the planar layout
        grid = layout_elements(64, 0.008, 0.008 * math.sqrt(64 / math.pi))
        assert np.all(grid.radius >= grid.feed_distance)
        bound = grid.feed_distance - math.sqrt(64) * 0.008 / math.sqrt(2)
        assert np.all(grid.radius >= bound)

    @pytest.mark.parametrize("m", [2, 3, 5, 63, 0, -4])
    def test_non_square_or_bad_m(self, m):
        with pytest.raises(ValueError):
            layout_elements(m, 0.008, 1.0)

    @pytest.mark.parametrize("lam,rd", [(0.0, 1.0), (-0.1, 1.0), (0.008, 0.0), (0.008, -2.0)])
    def test_nonpositive_dimensions(self, lam, rd):
        with pytest.raises(ValueError):
            layout_elements(4, lam, rd)


class TestPatternGain:
    def test_broadside_in_band(self):
        p = sector_pattern(2 * np.pi / 3)
        # default peak is the 4*pi normalization 1/sin(beamwidth/2)
        assert pattern_gain(p, np.pi / 2, 0.0) == pytest.approx(2 / math.sqrt(3))

    def test_zenith_outside_band(self):
        p = sector_pattern(2 * np.pi / 3)
        assert pattern_gain(p, 0.0, 0.0) == 0.0

    def test_full_band_gain(self):
        p = sector_pattern(np.pi)
        assert pattern_gain(p, np.pi / 4, 0.0) == pytest.approx(1.0)

    @pytest.mark.parametrize("beamwidth", [0.2, np.pi / 3, 2 * np.pi / 3, np.pi])
    def test_normalization_by_quadrature(self, beamwidth):
        # oracle: integral of G over the sphere equals 4*pi within 1%
        p = sector_pattern(beamwidth)
        theta = np.linspace(0.0, np.pi, 20001)
        gains = pattern_gain(p, theta, np.zeros_like(theta))
        integral = 2 * np.pi * np.trapezoid(gains * np.sin(theta), theta)
        assert integral == pytest.approx(4 * np.pi, rel=0.01)

    def test_azimuth_independent(self):
        p = sector_pattern(2 * np.pi / 3)
        phis = np.linspace(-np.pi, np.pi, 7, endpoint=False)
        gains = pattern_gain(p, np.full_like(phis, np.pi / 2), phis)
        assert np.all(gains == gains[0])

    def test_out_of_range_angles(self):
        p = sector_pattern(2 * np.pi / 3)
        with pytest.raises(ValueError):
            pattern_gain(p, -0.1, 0.0)
        with pytest.raises(ValueError):
            pattern_gain(p, 3.2, 0.0)
        with pytest.raises(ValueError):
            pattern_gain(p, 1.0, np.pi)

    def test_invalid_pattern_params(self):
        with pytest.raises(ValueError):
            FeedPattern.ideal_sector(0.0)
        with pytest.raises(ValueError):
            FeedPattern.ideal_sector(3.5)
        with pytest.raises(ValueError):
            FeedPattern(1.0, -2.0)


def unit_grid(radius, wavelength=0.008):
    radius = np.atleast_1d(np.asarray(radius, dtype=float))
    return ElementGrid(
        num_elements=radius.size,
        wavelength=wavelength,
        feed_distance=float(radius.min()),
        radius=radius,
        theta=np.full(radius.size, np.pi / 2),
        phi=np.zeros(radius.size),
    )


class TestPropagation:
    def test_amplitude_at_one_meter(self):
        # T = lambda * sqrt(zeta * G) / (4 pi r) with G = 1
        surf = propagation_coeffs(unit_grid(1.0), sector_pattern(np.pi, peak=1.0), 1.0)
        assert surf.attenuation[0] == pytest.approx(0.008 / (4 * np.pi))
        assert surf.attenuation[0] == pytest.approx(6.366e-4, rel=1e-3)
        assert surf.phase[0] == pytest.approx(wrap_oracle(-2 * np.pi / 0.008), abs=1e-9)

    def test_full_turn_phase(self):
        # r = lambda puts the propagation phase at a full turn
        surf = propagation_coeffs(unit_grid(0.008), sector_pattern(np.pi, peak=1.0), 1.0)
        assert surf.phase[0] == 0.0
        assert surf.attenuation[0] == pytest.approx(1.0 / (4 * np.pi))

    def test_efficiency_scales_amplitude(self):
        grid = unit_grid([0.5, 1.0, 2.0])
        p = sector_pattern(np.pi, peak=1.0)
        full = propagation_coeffs(grid, p, 1.0)
        quarter = propagation_coeffs(grid, p, 0.25)
        assert np.array_equal(quarter.attenuation, 0.5 * full.attenuation)
        assert np.array_equal(quarter.phase, full.phase)

    def test_inverse_distance_law(self):
        p = sector_pattern(np.pi, peak=1.0)
        base = propagation_coeffs(unit_grid([0.3, 0.7, 1.1]), p, 1.0)
        scaled = propagation_coeffs(unit_grid(2.0 * np.array([0.3, 0.7, 1.1])), p, 1.0)
        assert np.array_equal(scaled.attenuation, base.attenuation / 2.0)

    def test_phase_depends_on_radius_mod_wavelength(self):
        lam = 0.008
        p = sector_pattern(np.pi, peak=1.0)
        a = propagation_coeffs(unit_grid(0.013, lam), p, 1.0)
        b = propagation_coeffs(unit_grid(0.013 + 250 * lam, lam), p, 1.0)
        assert a.phase[0] == pytest.approx(b.phase[0], abs=1e-8)

    def test_wrap_matches_modular_oracle(self):
        rng = np.random.default_rng(3)
        xs = rng.uniform(-1e4, 1e4, 200)
        wrapped = wrap_phase(xs)
        assert np.all(wrapped >= -np.pi) and np.all(wrapped < np.pi)
        for x, w in zip(xs, wrapped):
            assert w == pytest.approx(wrap_oracle(x), abs=1e-9)

    def test_reconstruction_is_bitwise(self):
        grid = layout_elements(16, 0.008, 0.008 * math.sqrt(16 / math.pi))
        p = sector_pattern(2 * np.pi / 3)
        first = propagation_coeffs(grid, p, 1.0)
        second = propagation_coeffs(grid, p, 1.0)
        assert np.array_equal(first.attenuation, second.attenuation)
        assert np.array_equal(first.phase, second.phase)

    def test_formula_against_elementwise_loop(self):
        grid = layout_elements(16, 0.008, 0.05)
        p = sector_pattern(2 * np.pi / 3)
        surf = propagation_coeffs(grid, p, 0.7)
        for m in range(16):
            g = pattern_gain(p, grid.theta[m], grid.phi[m])
            expected = 0.008 * math.sqrt(0.7 * g) / (4 * math.pi * grid.radius[m])
            assert surf.attenuation[m] == pytest.approx(expected, rel=1e-15)

    def test_unilluminated_element_raises(self):
        # narrow beam over a wide surface leaves corner elements dark
        grid = layout_elements(64, 0.008, 0.01)
        with pytest.raises(UnilluminatedElementError):
            propagation_coeffs(grid, sector_pattern(0.2), 1.0)

    def test_bad_efficiency(self):
        grid = unit_grid(1.0)
        p = sector_pattern(np.pi, peak=1.0)
        for zeta in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                propagation_coeffs(grid, p, zeta)

    def test_record_fields(self):
        grid = layout_elements(4, 0.008, 0.05)
        surf = propagation_coeffs(grid, sector_pattern(2 * np.pi / 3), 1.0)
        rec = surf.to_record()
        assert rec["M"] == 4
        assert rec["lambda_m"] == 0.008
        assert rec["R_d_m"] == 0.05
        assert rec["zeta"] == 1.0
        assert len(rec["T"]) == 4 and len(rec["omega"]) == 4

    def test_default_geometry_fully_illuminated(self):
        # the harness default feed distance keeps every element in the sector
        for m in (1, 64, 121, 225):
            grid = layout_elements(m, 0.008, 0.008 * math.sqrt(m / math.pi))
            surf = propagation_coeffs(grid, sector_pattern(2 * np.pi / 3), 1.0)
            assert np.all(surf.attenuation > 0)

    def test_single_element_reduces_to_boresight_scalar(self):
        # M=1 with the default feed distance: one coefficient whose modulus
        # is the amplitude formula evaluated at r = R_d
        lam = 0.008
        rd = lam * math.sqrt(1 / math.pi)
        pattern = sector_pattern(2 * np.pi / 3)
        surf = propagation_coeffs(layout_elements(1, lam, rd), pattern, 1.0)
        coeff = surf.complex_coeffs()
        assert coeff.shape == (1,)
        expected = lam * math.sqrt(pattern.peak_gain) / (4 * math.pi * rd)
        assert abs(coeff[0]) == pytest.approx(expected, rel=1e-12)
