import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fsosim import ConstellationSpec, build_constellation
from fsosim.geometry import PhysicalConstants, great_circle_distance, max_lisl_range
from fsosim.links import _segments_clear_origin, pair_distance
from fsosim.orbital import SatelliteId

ORBIT_RADIUS = 6928.0  # 6378 + 550


def distance(p, q) -> float:
    """One pair through the kernel that measures every snapshot's link lengths."""
    return float(pair_distance(np.array([p], dtype=float), np.array([q], dtype=float))[0])


def has_line_of_sight(p, q, occlusion_radius_km) -> bool:
    """One pair through the kernel that decides every snapshot's line of sight."""
    return bool(_segments_clear_origin(np.array([p], dtype=float), np.array([q], dtype=float),
                                       occlusion_radius_km)[0])


def unit_vector(theta, phi):
    return np.array([math.cos(phi) * math.cos(theta),
                     math.cos(phi) * math.sin(theta),
                     math.sin(phi)])


angles = st.floats(min_value=-math.pi, max_value=math.pi, allow_nan=False)
lat_angles = st.floats(min_value=-math.pi / 2, max_value=math.pi / 2, allow_nan=False)
coords = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False)
points = st.tuples(coords, coords, coords).map(np.array)


def test_distance_345():
    assert distance((0, 0, 0), (3, 4, 0)) == 5.0


def test_distance_identity():
    p = np.array([12.5, -3.0, 8.0])
    assert distance(p, p) == 0.0


def test_distance_intra_plane_neighbors(shell):
    # chord between in-plane neighbors: 2 * 6928 * sin(pi/66) = 659.295 km
    a, b = shell.positions_at(0.0)[:2]
    assert distance(a, b) == pytest.approx(659.5, abs=1.0)


@given(points, points, points)
def test_distance_is_a_metric(p, q, r):
    assert distance(p, q) >= 0.0
    assert distance(p, q) == distance(q, p)
    assert distance(p, r) <= distance(p, q) + distance(q, r) + 1e-9


def test_line_of_sight_antipodal_blocked():
    p = np.array([ORBIT_RADIUS, 0.0, 0.0])
    assert not has_line_of_sight(p, -p, 6458.0)


def test_line_of_sight_coincident_point():
    p = np.array([0.0, ORBIT_RADIUS, 0.0])
    assert has_line_of_sight(p, p, 6458.0)


def test_line_of_sight_5000km_chord_clears():
    # perpendicular miss distance sqrt(6928^2 - 2500^2) = 6461 km > 6458 km
    half_angle = math.asin(2500.0 / ORBIT_RADIUS)
    p = ORBIT_RADIUS * unit_vector(-half_angle, 0.0)
    q = ORBIT_RADIUS * unit_vector(half_angle, 0.0)
    assert distance(p, q) == pytest.approx(5000.0, abs=1e-6)
    assert has_line_of_sight(p, q, 6458.0)


@given(angles, lat_angles, angles, lat_angles)
def test_line_of_sight_symmetric(t1, p1, t2, p2):
    p = ORBIT_RADIUS * unit_vector(t1, p1)
    q = ORBIT_RADIUS * unit_vector(t2, p2)
    assert has_line_of_sight(p, q, 6458.0) == has_line_of_sight(q, p, 6458.0)


def test_max_lisl_range_paper_constellation():
    assert max_lisl_range(550.0, 80.0) == pytest.approx(5016.0, abs=1.0)


def test_max_lisl_range_grazing_zero():
    assert max_lisl_range(80.0, 80.0) == 0.0


def test_max_lisl_range_no_clearance():
    # 2 * sqrt(6928^2 - 6378^2) = 5410.5 km
    assert max_lisl_range(550.0, 0.0) == pytest.approx(5410.5, abs=1.0)


@given(st.floats(min_value=100, max_value=2000), st.floats(min_value=0, max_value=99),
       st.floats(min_value=1, max_value=500), st.floats(min_value=0.1, max_value=99))
def test_max_lisl_range_monotonic(alt, clear, alt_up, clear_up):
    base = max_lisl_range(alt, clear)
    assert max_lisl_range(alt + alt_up, clear) >= base
    if clear + clear_up <= alt:
        assert max_lisl_range(alt, clear + clear_up) <= base


@given(angles, lat_angles, angles, lat_angles, st.floats(min_value=0, max_value=500))
def test_range_and_visibility_agree_at_orbit_radius(t1, p1, t2, p2, clearance):
    """At the shared orbit radius, being within the visibility-limited max
    range and having line of sight are the same predicate."""
    p = ORBIT_RADIUS * unit_vector(t1, p1)
    q = ORBIT_RADIUS * unit_vector(t2, p2)
    threshold = max_lisl_range(550.0, clearance)
    within = distance(p, q) <= threshold
    clear = has_line_of_sight(p, q, 6378.0 + clearance)
    if abs(distance(p, q) - threshold) > 1e-6:  # away from the boundary
        assert within == clear


def test_great_circle_zero():
    assert great_circle_distance((12.0, 34.0), (12.0, 34.0)) == 0.0


def test_great_circle_antipodal_equator():
    assert great_circle_distance((0.0, 0.0), (0.0, 180.0), 6378.0) == pytest.approx(
        math.pi * 6378.0, abs=1e-6)


def test_great_circle_toronto_istanbul():
    got = great_circle_distance((43.6489, -79.3817), (41.1065, 29.0278), 6378.0)
    assert got == pytest.approx(8198.0, rel=0.01)


def test_latitude_equator(shell):
    # the first satellite starts at its ascending node
    assert shell.latitude_deg(SatelliteId(0, 0), 0.0) == 0.0


def test_latitude_pole():
    polar = build_constellation(ConstellationSpec(inclination_deg=90.0))
    top = polar.latitude_deg(SatelliteId(0, 0), polar.spec.orbital_period_s / 4.0)
    assert top == pytest.approx(90.0, abs=1e-6)


def test_latitude_max_excursion_equals_inclination(shell):
    # a quarter period past the ascending node the satellite tops out
    top = shell.latitude_deg(SatelliteId(0, 0), shell.spec.orbital_period_s / 4.0)
    assert top == pytest.approx(53.0, abs=0.01)


def test_constants_validate_positive():
    with pytest.raises(ValueError):
        PhysicalConstants(node_delay_ms=0.0)
