import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fsosim.errors import ConfigurationError
from fsosim.orbital import (ConstellationSpec, GroundStation, SatelliteId,
                            build_constellation, format_id, ground_station_position,
                            parse_id)

sat_indices = st.tuples(st.integers(0, 23), st.integers(0, 65))
times = st.floats(min_value=0.0, max_value=7200.0, allow_nan=False)


def node_line_raan_deg(shell, t=0.0):
    """RAAN of every satellite's orbit plane, read from its state: the
    ascending node lies along z x h, h = p x v the orbit normal."""
    h = np.cross(shell.positions_at(t), shell.velocities_at(t))
    return np.rad2deg(np.arctan2(h[:, 0], -h[:, 1]))


def test_shell_has_1584_satellites(shell):
    assert len(shell) == 1584
    assert shell.positions_at(0.0).shape == shell.velocities_at(0.0).shape == (1584, 3)


def test_degenerate_single_satellite():
    shell = build_constellation(ConstellationSpec(plane_count=1, sats_per_plane=1,
                                                  phasing_offset=0))
    assert shell.satellite_id(0) == SatelliteId(0, 0)
    # at the epoch it sits on its ascending node, which lies on +x
    p, v = shell.positions_at(0.0), shell.velocities_at(0.0)
    assert np.allclose(p, [[shell.spec.orbit_radius_km, 0.0, 0.0]], atol=1e-9)
    assert v[0, 2] > 0.0
    assert node_line_raan_deg(shell)[0] == pytest.approx(0.0, abs=1e-9)


def test_adjacent_planes_15_degrees_apart(shell):
    raan = node_line_raan_deg(shell) % 360.0
    for plane in range(23):
        a = raan[shell.flat_index(SatelliteId(plane, 0))]
        b = raan[shell.flat_index(SatelliteId(plane + 1, 0))]
        assert b - a == pytest.approx(15.0, abs=1e-9)


def test_orbital_period():
    # 2*pi*sqrt(6928^3 / 398600.4418) = 5738.8 s
    assert ConstellationSpec().orbital_period_s == pytest.approx(5739.0, abs=1.0)


# hypothesis draws cannot use the session fixture; bind a module-level shell
_shell = build_constellation(ConstellationSpec())


def state_at(shell, sat, t):
    """Position and velocity of one satellite, picked out of the whole shell."""
    k = shell.flat_index(sat)
    return shell.positions_at(t)[k], shell.velocities_at(t)[k]


@given(sat_indices, times)
def test_circular_state(sat_idx, t):
    position, velocity = state_at(_shell, SatelliteId(*sat_idx), t)
    radius = float(np.linalg.norm(position))
    speed = float(np.linalg.norm(velocity))
    spec = _shell.spec
    assert abs(radius - spec.orbit_radius_km) < 1e-6
    assert abs(float(position @ velocity)) < 1e-6
    assert abs(speed - spec.orbital_speed_kms) < 1e-9


@given(sat_indices)
def test_periodicity(sat_idx):
    sat = SatelliteId(*sat_idx)
    period = _shell.spec.orbital_period_s
    p0, _ = state_at(_shell, sat, 0.0)
    p1, _ = state_at(_shell, sat, period)
    assert float(np.linalg.norm(p1 - p0)) < 1e-3


def test_radius_is_6928(shell):
    position, _ = state_at(shell, SatelliteId(5, 17), 1234.5)
    assert float(np.linalg.norm(position)) == pytest.approx(6928.0, abs=1e-9)


@given(st.tuples(st.integers(0, 23), st.integers(0, 65)),
       st.tuples(st.integers(0, 23), st.integers(0, 65)), times, times)
def test_intra_plane_distances_constant(a_idx, b_idx, t1, t2):
    a = SatelliteId(a_idx[0], a_idx[1])
    b = SatelliteId(a_idx[0], b_idx[1])  # force same plane
    if a == b:
        return
    d1 = np.linalg.norm(state_at(_shell, a, t1)[0] - state_at(_shell, b, t1)[0])
    d2 = np.linalg.norm(state_at(_shell, a, t2)[0] - state_at(_shell, b, t2)[0])
    assert abs(float(d1) - float(d2)) < 1e-3


def rotation_matrix_states(spec, t):
    """Independent propagation: each satellite's in-plane state, rotated by an
    explicit R3(raan) R1(inclination) built per satellite."""
    n = spec.satellite_count
    r, rate = spec.orbit_radius_km, spec.mean_motion_rad_s
    incl = math.radians(spec.inclination_deg)
    r1 = np.array([[1.0, 0.0, 0.0],
                   [0.0, math.cos(incl), -math.sin(incl)],
                   [0.0, math.sin(incl), math.cos(incl)]])
    positions, velocities = [], []
    for plane in range(spec.plane_count):
        raan = math.radians(plane * spec.raan_spread_deg / spec.plane_count)
        r3 = np.array([[math.cos(raan), -math.sin(raan), 0.0],
                       [math.sin(raan), math.cos(raan), 0.0],
                       [0.0, 0.0, 1.0]])
        for slot in range(spec.sats_per_plane):
            u = (2.0 * math.pi * (slot / spec.sats_per_plane + plane * spec.phasing_offset / n)
                 + rate * t)
            positions.append(r3 @ r1 @ [r * math.cos(u), r * math.sin(u), 0.0])
            velocities.append(rate * (r3 @ r1 @ [-r * math.sin(u), r * math.cos(u), 0.0]))
    return np.array(positions), np.array(velocities)


@settings(deadline=None)
@given(planes=st.integers(1, 8), slots=st.integers(3, 30), data=st.data(),
       inclination_deg=st.floats(0.0, 180.0), raan_spread_deg=st.sampled_from([180.0, 360.0]),
       t=times)
def test_positions_and_velocities_match_rotation_matrices(planes, slots, data, inclination_deg,
                                                          raan_spread_deg, t):
    spec = ConstellationSpec(plane_count=planes, sats_per_plane=slots,
                             phasing_offset=data.draw(st.integers(0, planes - 1)),
                             inclination_deg=inclination_deg, raan_spread_deg=raan_spread_deg)
    shell = build_constellation(spec)
    p, v = shell.positions_at(t), shell.velocities_at(t)
    p_ref, v_ref = rotation_matrix_states(spec, t)
    assert np.allclose(p, p_ref, rtol=0.0, atol=1e-9)
    assert np.allclose(v, v_ref, rtol=0.0, atol=1e-12)
    assert np.allclose(np.linalg.norm(p, axis=1), spec.orbit_radius_km, rtol=0.0, atol=1e-9)
    assert np.allclose(np.linalg.norm(v, axis=1), spec.orbital_speed_kms, rtol=0.0, atol=1e-12)
    assert np.allclose(np.einsum("ij,ij->i", p, v), 0.0, rtol=0.0, atol=1e-8)


def test_unknown_satellite_rejected(shell):
    with pytest.raises(KeyError):
        shell.flat_index(SatelliteId(24, 0))
    with pytest.raises(KeyError):
        shell.flat_index(SatelliteId(0, 66))


@pytest.mark.parametrize("spec_kwargs", [
    dict(plane_count=0),
    dict(sats_per_plane=0),
    dict(altitude_km=-1.0),
    dict(phasing_offset=24),
    dict(phasing_offset=-1),
])
def test_invalid_spec_rejected(spec_kwargs):
    with pytest.raises(ConfigurationError):
        ConstellationSpec(**spec_kwargs)


def test_format_id_first_satellite():
    assert format_id(SatelliteId(0, 0)) == "x10101"


def test_format_id_last_slot_first_plane():
    assert format_id(SatelliteId(0, 65)) == "x10166"


def test_format_id_plane24_slot54():
    assert format_id(SatelliteId(23, 53)) == "x12454"


@pytest.mark.parametrize("spec_kwargs", [
    dict(plane_count=100, phasing_offset=0),
    dict(sats_per_plane=100),
])
def test_spec_rejects_shells_beyond_two_digit_ids(spec_kwargs):
    with pytest.raises(ConfigurationError, match="99"):
        ConstellationSpec(**spec_kwargs)


def test_spec_accepts_99_planes_of_99_and_formats_the_last_id():
    spec = ConstellationSpec(plane_count=99, sats_per_plane=99, phasing_offset=0)
    shell = build_constellation(spec)
    assert format_id(shell.satellite_id(len(shell) - 1)) == "x19999"


@pytest.mark.parametrize("planes, slots", [(1, 1), (24, 66), (7, 13), (99, 99)])
def test_shell_names_are_the_formatted_ids(planes, slots):
    spec = ConstellationSpec(plane_count=planes, sats_per_plane=slots, phasing_offset=0)
    shell = build_constellation(spec)
    assert shell.names == tuple(format_id(shell.satellite_id(k)) for k in range(len(shell)))


def test_shell_construction_derives_nothing_it_may_not_read(shell_spec):
    """A shell computes its frame's cosines and sines and its names when
    first read, not when built: a phasing scan builds shells that it only
    inspects."""
    shell = build_constellation(shell_spec)
    assert "_frame" not in vars(shell) and "names" not in vars(shell)
    shell.positions_at(12.5)
    assert "_frame" in vars(shell) and "names" not in vars(shell)


def test_parse_id_inverts_format_id():
    for sat in (SatelliteId(0, 0), SatelliteId(23, 53), SatelliteId(98, 98)):
        assert parse_id(format_id(sat)) == sat
    for text in ("x10001", "x10100", "x1245", "x124540", "X12454", "Sydney"):
        assert parse_id(text) is None


def test_format_id_overflow_rejected():
    with pytest.raises(ValueError):
        format_id(SatelliteId(99, 0))
    with pytest.raises(ValueError):
        format_id(SatelliteId(0, 99))


def test_ground_station_reference_point():
    gs = GroundStation("ref", 0.0, 0.0)
    assert np.allclose(ground_station_position(gs, 0.0), [6378.0, 0.0, 0.0])


def test_ground_station_pole_invariant():
    gs = GroundStation("pole", 90.0, 12.0)
    for t in (0.0, 1800.0, 86400.0):
        assert np.allclose(ground_station_position(gs, t), [0.0, 0.0, 6378.0], atol=1e-9)


@given(st.floats(-90, 90), st.floats(-180, 180), times)
def test_ground_station_stays_on_sphere(lat, lon, t):
    gs = GroundStation("s", lat, lon)
    assert float(np.linalg.norm(ground_station_position(gs, t))) == pytest.approx(
        6378.0, abs=1e-9)


def test_ground_station_validation():
    with pytest.raises(ConfigurationError):
        GroundStation("bad", 91.0, 0.0)
    with pytest.raises(ConfigurationError):
        GroundStation("bad", 0.0, 181.0)
    with pytest.raises(ConfigurationError):
        GroundStation("bad", 0.0, 0.0, range_km=0.0)


def test_latitude_deg_vectorized(shell):
    sat = SatelliteId(0, 0)
    t = np.arange(0.0, 100.0)
    lat = shell.latitude_deg(sat, t)
    assert lat.shape == (100,)
    assert lat[0] == pytest.approx(0.0, abs=1e-12)
    assert np.all(np.abs(lat) <= 53.0 + 1e-9)
