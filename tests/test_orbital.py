import numpy as np
import pytest
from hypothesis import given, strategies as st

from fsosim.errors import ConfigurationError
from fsosim.orbital import (ConstellationSpec, GroundStation, SatelliteId,
                            build_constellation, format_id, ground_station_position,
                            parse_id)

sat_indices = st.tuples(st.integers(0, 23), st.integers(0, 65))
times = st.floats(min_value=0.0, max_value=7200.0, allow_nan=False)


def test_shell_has_1584_satellites(shell):
    assert len(shell) == 1584
    assert len(shell.elements()) == 1584


def test_degenerate_single_satellite():
    shell = build_constellation(ConstellationSpec(plane_count=1, sats_per_plane=1,
                                                  phasing_offset=0))
    (sat, elements), = shell.elements()
    assert sat == SatelliteId(0, 0)
    assert elements.raan_deg == 0.0
    assert elements.phase_deg == 0.0


def test_adjacent_planes_15_degrees_apart(shell):
    elements = dict(shell.elements())
    for plane in range(23):
        a = elements[SatelliteId(plane, 0)].raan_deg
        b = elements[SatelliteId(plane + 1, 0)].raan_deg
        assert b - a == pytest.approx(15.0, abs=1e-12)


def test_orbital_period():
    # 2*pi*sqrt(6928^3 / 398600.4418) = 5738.8 s
    assert ConstellationSpec().orbital_period_s == pytest.approx(5739.0, abs=1.0)


# hypothesis draws cannot use the session fixture; bind a module-level shell
_shell = build_constellation(ConstellationSpec())


@given(sat_indices, times)
def test_circular_state(sat_idx, t):
    sat = SatelliteId(*sat_idx)
    state = _shell.state_at(sat, t)
    radius = float(np.linalg.norm(state.position_km))
    speed = float(np.linalg.norm(state.velocity_kms))
    spec = _shell.spec
    assert abs(radius - spec.orbit_radius_km) < 1e-6
    assert abs(float(state.position_km @ state.velocity_kms)) < 1e-6
    assert abs(speed - spec.orbital_speed_kms) < 1e-9


@given(sat_indices)
def test_periodicity(sat_idx):
    sat = SatelliteId(*sat_idx)
    period = _shell.spec.orbital_period_s
    p0 = _shell.state_at(sat, 0.0).position_km
    p1 = _shell.state_at(sat, period).position_km
    assert float(np.linalg.norm(p1 - p0)) < 1e-3


def test_radius_is_6928(shell):
    state = shell.state_at(SatelliteId(5, 17), 1234.5)
    assert float(np.linalg.norm(state.position_km)) == pytest.approx(6928.0, abs=1e-9)


@given(st.tuples(st.integers(0, 23), st.integers(0, 65)),
       st.tuples(st.integers(0, 23), st.integers(0, 65)), times, times)
def test_intra_plane_distances_constant(a_idx, b_idx, t1, t2):
    a = SatelliteId(a_idx[0], a_idx[1])
    b = SatelliteId(a_idx[0], b_idx[1])  # force same plane
    if a == b:
        return
    d1 = np.linalg.norm(_shell.state_at(a, t1).position_km - _shell.state_at(b, t1).position_km)
    d2 = np.linalg.norm(_shell.state_at(a, t2).position_km - _shell.state_at(b, t2).position_km)
    assert abs(float(d1) - float(d2)) < 1e-3


@given(sat_indices, times)
def test_vectorized_positions_match_scalar(sat_idx, t):
    sat = SatelliteId(*sat_idx)
    k = _shell.flat_index(sat)
    bulk = _shell.positions_at(t)[k]
    single = _shell.state_at(sat, t).position_km
    assert np.allclose(bulk, single, atol=1e-9)
    bulk_v = _shell.velocities_at(t)[k]
    single_v = _shell.state_at(sat, t).velocity_kms
    assert np.allclose(bulk_v, single_v, atol=1e-12)


def test_unknown_satellite_rejected(shell):
    with pytest.raises(KeyError):
        shell.state_at(SatelliteId(24, 0), 0.0)
    with pytest.raises(KeyError):
        shell.state_at(SatelliteId(0, 66), 0.0)


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
    assert shell.format_id(shell.satellite_id(len(shell) - 1)) == "x19999"


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
