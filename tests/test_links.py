import dataclasses
import functools
import math
import types
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fsosim import (BUNDLED_STATIONS, ConstellationSpec, GroundStation, LinkEngine, Mode,
                    ScenarioConfig, build_constellation, run_scenario)
from fsosim import links
from fsosim.links import LinkType, Permanence, degree_counts, link_census
from fsosim.orbital import Constellation, SatelliteId, ground_station_position
from fsosim.scenario import _route_slot, evaluate_slot, lower_bounds
from fsosim.validation import permanent_degree_profile, scan_phasing_offset

STANDARD_RANGES = (659.5, 1319.0, 1500.0, 1700.0, 2500.0, 3500.0, 5016.0)


def fine_separation_extrema(shell, a, b, step_s=0.1):
    """Independent resampling of the pair separation over one period."""
    times = np.arange(0.0, shell.spec.orbital_period_s + step_s, step_s)
    ka, kb = shell.flat_index(a), shell.flat_index(b)
    spec = shell.spec
    u = np.deg2rad(np.array([
        a.slot_index * 360.0 / spec.sats_per_plane
        + a.plane_index * spec.phasing_offset * 360.0 / spec.satellite_count,
        b.slot_index * 360.0 / spec.sats_per_plane
        + b.plane_index * spec.phasing_offset * 360.0 / spec.satellite_count,
    ]))[:, None] + spec.mean_motion_rad_s * times[None, :]
    raan = np.deg2rad(np.array([a.plane_index, b.plane_index]) * 15.0)[:, None]
    incl = math.radians(spec.inclination_deg)
    r = spec.orbit_radius_km
    x = r * (np.cos(u) * np.cos(raan) - np.sin(u) * np.sin(raan) * math.cos(incl))
    y = r * (np.cos(u) * np.sin(raan) + np.sin(u) * np.cos(raan) * math.cos(incl))
    z = r * np.sin(u) * math.sin(incl)
    d = np.sqrt((x[0] - x[1])**2 + (y[0] - y[1])**2 + (z[0] - z[1])**2)
    assert ka != kb
    return float(d.min()), float(d.max())


def pair_class(spec, a, b):
    """Class (plane offset, slot offset) of a satellite pair in the engine's
    tables. Swapping endpoints leaves the separation history unchanged, so
    the class is read from the lower-plane endpoint; the plane offset never
    wraps, which holds for partial-spread shells too."""
    if b.plane_index < a.plane_index:
        a, b = b, a
    return b.plane_index - a.plane_index, (b.slot_index - a.slot_index) % spec.sats_per_plane


def pair_max_distance_km(engine, a, b):
    """Largest separation the pair reaches over one orbital period."""
    return float(engine.pair_max_table_km[pair_class(engine.constellation.spec, a, b)])


def pair_min_distance_km(engine, a, b):
    """Smallest separation the pair reaches over one orbital period."""
    return float(engine.pair_min_table_km[pair_class(engine.constellation.spec, a, b)])


def is_permanent(engine, a, b, lisl_range_km):
    """True iff the pair never drifts beyond lisl_range_km over a period."""
    return pair_max_distance_km(engine, a, b) <= lisl_range_km


def test_intra_plane_neighbors_permanent_at_min_range(engine):
    assert is_permanent(engine, SatelliteId(0, 0), SatelliteId(0, 1), 659.5)


def test_intra_plane_three_hop_not_permanent_at_1319(engine):
    # chord 2 * 6928 * sin(3*pi/66) = 1971.9 km
    assert not is_permanent(engine, SatelliteId(0, 0), SatelliteId(0, 3), 1319.0)
    assert pair_max_distance_km(
        engine, SatelliteId(0, 0), SatelliteId(0, 3)) == pytest.approx(1971.9, abs=1.0)


def test_opposing_plane_not_permanent_at_1319(engine):
    assert not is_permanent(engine, SatelliteId(0, 0), SatelliteId(12, 0), 1319.0)


def test_pair_distance_symmetry(engine):
    rng = np.random.default_rng(3)
    for _ in range(100):
        a = SatelliteId(int(rng.integers(24)), int(rng.integers(66)))
        b = SatelliteId(int(rng.integers(24)), int(rng.integers(66)))
        if a == b:
            continue
        assert pair_max_distance_km(engine, a, b) == pytest.approx(
            pair_max_distance_km(engine, b, a), rel=1e-5)
        for r in STANDARD_RANGES:
            assert is_permanent(engine, a, b, r) == is_permanent(engine, b, a, r)


def test_permanence_agrees_with_fine_resampling(engine):
    """Class-table permanence vs an independent 0.1 s resampling, 50 pairs."""
    rng = np.random.default_rng(7)
    shell = engine.constellation
    for _ in range(50):
        a = SatelliteId(int(rng.integers(24)), int(rng.integers(66)))
        b = SatelliteId(int(rng.integers(24)), int(rng.integers(66)))
        if a == b:
            continue
        fine_min, fine_max = fine_separation_extrema(shell, a, b)
        for r in (659.5, 1700.0, 5016.0):
            if is_permanent(engine, a, b, r):
                assert fine_max <= r
        # The class tables hold the exact (closed-form) extrema, which the
        # 0.1 s resample approaches from inside, here to within 0.1 m; the
        # 4 km side of each bound is looser than needed.
        assert fine_min - 0.05 <= pair_min_distance_km(engine, a, b) <= fine_min + 4.0
        assert fine_max + 0.05 >= pair_max_distance_km(engine, a, b) >= fine_max - 4.0


def sampled_class_tables(spec):
    """Reference class tables: the separation of every (plane offset, slot
    offset) class sampled at 1 s over one period, intra-plane classes at
    their constant chord. Returns (max, min), inf for the self class."""
    planes, slots = spec.plane_count, spec.sats_per_plane
    r = spec.orbit_radius_km
    times = np.arange(0.0, math.ceil(spec.orbital_period_s) + 1.0, 1.0)
    u_ref = spec.mean_motion_rad_s * times
    incl = math.radians(spec.inclination_deg)
    ci, si = math.cos(incl), math.sin(incl)

    def track(raan_rad, u):
        cu, su = np.cos(u), np.sin(u)
        co, so = math.cos(raan_rad), math.sin(raan_rad)
        return np.stack([
            r * (cu * co - su * so * ci),
            r * (cu * so + su * co * ci),
            r * (su * si)], axis=-1)

    ref = track(0.0, u_ref)
    pair_max = np.full((planes, slots), np.inf)
    pair_min = np.full((planes, slots), np.inf)
    slot_step = 2.0 * math.pi / slots
    phase_step = 2.0 * math.pi / (planes * slots)
    chords = 2.0 * r * np.sin(np.pi * np.arange(1, slots) / slots)
    pair_max[0, 1:] = chords
    pair_min[0, 1:] = chords
    ds_offsets = np.arange(slots) * slot_step
    for dp in range(1, planes):
        raan = 2.0 * math.pi * dp / planes * (spec.raan_spread_deg / 360.0)
        u = u_ref[None, :] + (ds_offsets + dp * spec.phasing_offset * phase_step)[:, None]
        d = np.linalg.norm(track(raan, u) - ref[None, :, :], axis=-1)
        pair_max[dp] = d.max(axis=1)
        pair_min[dp] = d.min(axis=1)
    return pair_max, pair_min


@settings(deadline=None)
@given(planes=st.integers(1, 8), slots=st.integers(3, 30), data=st.data(),
       inclination_deg=st.floats(0.0, 180.0), raan_spread_deg=st.sampled_from([180.0, 360.0]))
def test_closed_form_tables_bound_the_sampled_separations(planes, slots, data, inclination_deg,
                                                          raan_spread_deg):
    spec = ConstellationSpec(plane_count=planes, sats_per_plane=slots,
                             phasing_offset=data.draw(st.integers(0, planes - 1)),
                             inclination_deg=inclination_deg, raan_spread_deg=raan_spread_deg)
    engine = LinkEngine(build_constellation(spec))
    closed_max, closed_min = engine.pair_max_table_km, engine.pair_min_table_km
    sampled_max, sampled_min = sampled_class_tables(spec)
    assert closed_max[0, 0] == closed_min[0, 0] == np.inf
    pair = np.isfinite(sampled_max)
    # Every sample lies within [min, max] up to the 1 m guard of the NNG
    # candidate cut: where a pair nearly coincides, 1 - cos g cancels and
    # leaves the closed form up to r * sqrt(2 * eps) = 0.15 m off.
    assert np.all(closed_max[pair] >= sampled_max[pair] - 1e-3)
    assert np.all(closed_min[pair] <= sampled_min[pair] + 1e-3)
    # At 550 km the two maxima of an orbit fall 0.41 s apart modulo 1 s, so
    # a sample lands within 0.3 s of one, where a separation is at most
    # r * n^2 * 0.3^2 = 0.75 m short of its maximum.
    assert np.all(closed_max[pair] - sampled_max[pair] <= 1e-3)


@settings(deadline=None)
@given(planes=st.integers(1, 30), slots=st.integers(1, 70),
       offsets=st.lists(st.integers(0, 29), min_size=1, max_size=30),
       inclination_deg=st.floats(0.0, 180.0), altitude_km=st.floats(300.0, 2000.0),
       raan_spread_deg=st.one_of(st.sampled_from([180.0, 360.0]), st.floats(1.0, 360.0)))
@example(planes=1, slots=66, offsets=[0], inclination_deg=53.0, altitude_km=550.0,
         raan_spread_deg=360.0)
@example(planes=24, slots=1, offsets=list(range(24)), inclination_deg=53.0, altitude_km=550.0,
         raan_spread_deg=360.0)
@example(planes=1, slots=1, offsets=[0, 0], inclination_deg=90.0, altitude_km=550.0,
         raan_spread_deg=180.0)
def test_stacked_class_tables_equal_each_offsets_own(planes, slots, offsets, inclination_deg,
                                                     altitude_km, raan_spread_deg):
    """class_tables over many phasing offsets stacks, bit for bit, the
    tables that an engine of each offset builds for itself."""
    spec = ConstellationSpec(plane_count=planes, sats_per_plane=slots, phasing_offset=0,
                             inclination_deg=inclination_deg, altitude_km=altitude_km,
                             raan_spread_deg=raan_spread_deg)
    offsets = [f % planes for f in offsets]
    stacked_max, stacked_min = links.class_tables(spec, offsets)
    assert stacked_max.shape == stacked_min.shape == (len(offsets), planes, slots)
    for k, f in enumerate(offsets):
        own = LinkEngine(build_constellation(dataclasses.replace(spec, phasing_offset=f)))
        assert stacked_max[k].tobytes() == own.pair_max_table_km.tobytes(), f
        assert stacked_min[k].tobytes() == own.pair_min_table_km.tobytes(), f


def test_permanent_profile_equals_sampled_reference_at_every_offset():
    """The closed form sorts every Starlink-shell class as the 1 s sampling
    did at the seven paper ranges, so the phasing scan still pins 15."""
    for f in range(24):
        spec = dataclasses.replace(ConstellationSpec(), phasing_offset=f)
        sampled_max, _ = sampled_class_tables(spec)
        expected = tuple(int((sampled_max <= r).sum()) for r in STANDARD_RANGES)
        assert permanent_degree_profile(build_constellation(spec), STANDARD_RANGES) == expected, f
    assert scan_phasing_offset(ConstellationSpec())[0] == 15


def test_temporary_snapshot_links_leave_range(engine):
    snap = engine.snapshot(0.0, 1700.0, Mode.NNG)
    shell = engine.constellation
    temp = np.nonzero(~snap.sat_permanent)[0]
    rng = np.random.default_rng(11)
    for k in rng.choice(temp, size=10, replace=False):
        a = shell.satellite_id(int(snap.sat_a[k]))
        b = shell.satellite_id(int(snap.sat_b[k]))
        _, fine_max = fine_separation_extrema(shell, a, b)
        assert fine_max > 1700.0


def sat_type_code_of(snap, a, b):
    """Type code of the snapshot's link between satellites a and b."""
    shell = snap.constellation
    i, j = sorted((shell.flat_index(a), shell.flat_index(b)))
    (k,) = np.flatnonzero((snap.sat_a == i) & (snap.sat_b == j))
    return int(snap.sat_type_code[k])


def test_link_type_intra_plane(engine):
    snap = engine.snapshot(0.0, 1700.0, Mode.NNG)
    assert sat_type_code_of(snap, SatelliteId(0, 0), SatelliteId(0, 1)) == 0  # IntraOP


def test_link_type_adjacent_plane(engine):
    # x10101 vs x10265: neighboring plane, co-moving
    snap = engine.snapshot(0.0, 1700.0, Mode.NNG)
    assert sat_type_code_of(snap, SatelliteId(0, 0), SatelliteId(1, 64)) == 1  # AdjacentOP


def test_link_type_counter_directional(engine):
    """A link whose endpoints move against each other is CrossingOP."""
    shell = engine.constellation
    snap = engine.snapshot(0.0, 5016.0, Mode.NNG)
    vel = shell.velocities_at(0.0)
    k = shell.flat_index(SatelliteId(0, 0))
    partners = np.concatenate([snap.sat_b[snap.sat_a == k], snap.sat_a[snap.sat_b == k]])
    found = [int(j) for j in partners if float(vel[k] @ vel[j]) < 0.0]
    assert found
    assert sat_type_code_of(snap, SatelliteId(0, 0), shell.satellite_id(found[0])) == 3
    assert LinkType.CROSSING_OP is links._SAT_TYPE_CODES[3]


def test_ng_snapshot_degree_2_at_min_range(engine):
    degs = degree_counts(engine.snapshot(0.0, 659.5, Mode.NG))
    assert degs.min() == degs.max() == 2


def test_ng_snapshot_degree_4_at_1319(engine):
    degs = degree_counts(engine.snapshot(0.0, 1319.0, Mode.NG))
    assert degs.min() == degs.max() == 4


def test_ng_degree_uniform_and_constant_across_slots(engine):
    for t in (0.0, 600.0, 2749.0):
        degs = degree_counts(engine.snapshot(t, 1700.0, Mode.NG))
        assert degs.min() == degs.max() == 10


def test_degree_single_satellite(engine):
    snap = engine.snapshot(0.0, 1700.0, Mode.NG)
    shell = engine.constellation
    assert degree_counts(snap)[shell.flat_index(SatelliteId(0, 0))] == 10
    with pytest.raises(KeyError):
        shell.flat_index(SatelliteId(50, 0))


def test_all_links_degree_at_reference_latitudes(engine):
    from fsosim.validation import slot_nearest_latitude
    sat = SatelliteId(0, 0)
    shell = engine.constellation
    slot_eq = slot_nearest_latitude(shell, sat, 0.0)
    slot_hi = slot_nearest_latitude(shell, sat, 47.33)
    k = shell.flat_index(sat)
    at_equator = degree_counts(engine.snapshot(float(slot_eq), 1700.0, Mode.NNG))[k]
    at_47 = degree_counts(engine.snapshot(float(slot_hi), 1700.0, Mode.NNG))[k]
    assert abs(at_equator - 22) <= 2
    assert abs(at_47 - 40) <= 3


def test_ground_links_excluded_from_degree(engine):
    stations = (GroundStation("eq", 0.0, 0.0),)
    snap = engine.snapshot(0.0, 1700.0, Mode.NG, stations)
    assert len(snap.gs_sat_index) > 0
    bare = engine.snapshot(0.0, 1700.0, Mode.NG)
    assert np.array_equal(degree_counts(snap), degree_counts(bare))


def test_empty_station_list_means_no_ground_links(engine):
    snap = engine.snapshot(0.0, 1700.0, Mode.NNG)
    assert len(snap.gs_sat_index) == 0
    census = link_census(snap)
    assert (LinkType.GROUND_LINK, Permanence.TEMPORARY) not in census.counts


def test_zero_range_snapshot_has_no_links(engine):
    census = link_census(engine.snapshot(0.0, 0.0, Mode.NNG))
    assert census.total_undirected == 0
    assert census.total_directed == 0


def test_census_at_min_range_all_intra_permanent(engine):
    census = link_census(engine.snapshot(0.0, 659.5, Mode.NG))
    assert census.counts == {(LinkType.INTRA_OP, Permanence.PERMANENT): 1584}
    assert census.total_undirected == 1584
    assert census.total_directed == 3168


def test_census_ratio_at_least_two(engine):
    for r in (659.5, 1700.0, 5016.0):
        ng = link_census(engine.snapshot(0.0, r, Mode.NG)).total_undirected
        nng = link_census(engine.snapshot(0.0, r, Mode.NNG)).total_undirected
        assert nng >= 2 * ng


def test_ng_links_subset_of_nng(engine):
    for t in (0.0, 977.0):
        for r in (1319.0, 1700.0):
            ng = engine.snapshot(t, r, Mode.NG)
            nng = engine.snapshot(t, r, Mode.NNG)
            ng_pairs = set(zip(ng.sat_a.tolist(), ng.sat_b.tolist()))
            nng_pairs = set(zip(nng.sat_a.tolist(), nng.sat_b.tolist()))
            assert ng_pairs <= nng_pairs


def test_links_monotone_in_range(engine):
    for mode in (Mode.NG, Mode.NNG):
        small = engine.snapshot(300.0, 1319.0, mode)
        large = engine.snapshot(300.0, 1700.0, mode)
        small_pairs = set(zip(small.sat_a.tolist(), small.sat_b.tolist()))
        large_pairs = set(zip(large.sat_a.tolist(), large.sat_b.tolist()))
        assert small_pairs <= large_pairs


def test_all_four_link_types_present_in_nng(engine):
    for r in (1319.0, 1700.0):
        types = {link_type for (link_type, _perm) in
                 link_census(engine.snapshot(0.0, r, Mode.NNG)).counts}
        assert {LinkType.INTRA_OP, LinkType.ADJACENT_OP,
                LinkType.NEARBY_OP, LinkType.CROSSING_OP} <= types


def test_link_lengths_within_range_and_delay_consistent(engine):
    stations = (GroundStation("eq", 0.0, 0.0),)
    snap = engine.snapshot(123.0, 1700.0, Mode.NNG, stations)
    assert np.all(snap.sat_length_km <= 1700.0)
    assert np.all(snap.gs_length_km <= 1000.0)
    # every length is the distance between its endpoints' positions
    assert np.allclose(snap.sat_length_km, np.linalg.norm(
        snap.sat_positions[snap.sat_a] - snap.sat_positions[snap.sat_b], axis=1), rtol=1e-12)
    assert np.allclose(snap.gs_length_km, np.linalg.norm(
        snap.sat_positions[snap.gs_sat_index] - snap.gs_positions[snap.gs_station_index],
        axis=1), rtol=1e-12)
    census = link_census(snap)
    assert census.total_undirected == snap.link_count


def test_ground_link_always_temporary(engine):
    stations = (GroundStation("eq", 0.0, 0.0),)
    snap = engine.snapshot(0.0, 1319.0, Mode.NNG, stations)
    assert len(snap.gs_sat_index) > 0
    census = link_census(snap)
    ground = {key: n for key, n in census.counts.items() if key[0] is LinkType.GROUND_LINK}
    assert ground == {(LinkType.GROUND_LINK, Permanence.TEMPORARY): len(snap.gs_sat_index)}


def test_permanent_links_never_longer_than_range_across_slots(engine):
    for t in (0.0, 1800.0, 3599.0):
        snap = engine.snapshot(t, 1500.0, Mode.NG)
        assert np.all(snap.sat_length_km <= 1500.0)


def test_snapshot_no_self_loops_or_duplicates(engine):
    snap = engine.snapshot(42.0, 1700.0, Mode.NNG)
    assert np.all(snap.sat_a < snap.sat_b)
    pairs = set(zip(snap.sat_a.tolist(), snap.sat_b.tolist()))
    assert len(pairs) == len(snap.sat_a)


def test_single_plane_shell_everything_permanent():
    # 40-slot ring: neighbor chord 2*6928*sin(pi/40) = 1087 km, second ring 2169 km
    shell = build_constellation(ConstellationSpec(plane_count=1, sats_per_plane=40,
                                                  phasing_offset=0))
    engine = LinkEngine(shell)
    snap = engine.snapshot(0.0, 1200.0, Mode.NNG)
    assert np.all(snap.sat_permanent)
    assert link_census(snap).total_undirected == 40


SNAPSHOT_FIELDS = ("sat_positions", "gs_positions", "sat_a", "sat_b", "sat_length_km",
                   "sat_type_code", "sat_permanent", "gs_station_index", "gs_sat_index",
                   "gs_length_km")
SHARED_PASS_TIMES = (0.0, 7.0, 1234.0)


def small_walker_engine():
    spec = ConstellationSpec(plane_count=6, sats_per_plane=20, phasing_offset=1)
    return LinkEngine(build_constellation(spec))


def assert_same_snapshot(expected, actual):
    for name in SNAPSHOT_FIELDS:
        x, y = getattr(expected, name), getattr(actual, name)
        assert x.dtype == y.dtype, name
        assert np.array_equal(x, y), name


@pytest.mark.parametrize("shell_name", ["starlink", "walker-6x20"])
def test_shared_geometry_selection_equals_own_snapshot(shell_name, engine):
    """Selecting from one superset geometry gives each of the 14 (range, mode)
    snapshots exactly, in the same link order, as measuring it alone: a
    geometry requested for all 14, and one requested only for their cover,
    NNG at 5,016 km."""
    if shell_name != "starlink":
        engine = small_walker_engine()
    stations = (GroundStation("Sydney", -33.8614, 151.2099),
                GroundStation("Sao Paulo", -23.5475, -46.6361),
                GroundStation("Quito", -0.18, -78.47))
    requests = [(r, mode) for r in STANDARD_RANGES for mode in Mode]
    for t in SHARED_PASS_TIMES:
        geometries = [engine.slot_geometry(t, asked) for asked in (requests, [(5016.0, Mode.NNG)])]
        for r, mode in requests:
            alone = engine.snapshot(t, r, mode, stations)
            for shared in geometries:
                assert_same_snapshot(alone, engine.snapshot(t, r, mode, stations, shared))


def test_shared_geometry_selects_each_range_and_mode_once(engine, monkeypatch):
    """The 26 study queries of one instant hold 14 (range, mode) pairs: from
    a shared geometry they select their links 14 times, and each snapshot
    equals the one the query measures alone. Each of the 14 selections is
    keyed by the engine's LinkClasses of its (range, mode). A snapshot
    selects its links when they are first read, so the selections are
    counted once the snapshots have been compared."""
    queries = [(BUNDLED_STATIONS[a], BUNDLED_STATIONS[b], r, mode)
               for a, b, ranges in ((0, 1, STANDARD_RANGES), (2, 3, (1700.0, 5016.0)),
                                    (4, 5, (1700.0, 5016.0)), (6, 7, (1700.0, 5016.0)))
               for r in ranges for mode in Mode]
    alone = [engine.snapshot(7.0, r, mode, (src, dst)) for src, dst, r, mode in queries]
    shared = engine.slot_geometry(7.0, {(r, mode) for _, _, r, mode in queries})
    selections = []
    selection = links.SlotGeometry.selection

    def counting(self, classes):
        if self is shared and classes not in self._selected:
            selections.append(classes)
        return selection(self, classes)

    monkeypatch.setattr(links.SlotGeometry, "selection", counting)
    selected = [engine.snapshot(7.0, r, mode, (src, dst), shared) for src, dst, r, mode in queries]
    for expected, snap in zip(alone, selected):
        assert_same_snapshot(expected, snap)
    assert len(queries) == 26 and len(selections) == 14
    assert set(selections) == {engine.classes(r, mode) for _, _, r, mode in queries}


def test_counted_snapshots_build_no_index(engine, monkeypatch):
    """A shared-geometry snapshot that is only counted builds no link index:
    for each of the 14 study (range, mode) pairs, its link_count equals the
    length of the index that its links, read later, are picked through."""
    requests = [(r, mode) for r in STANDARD_RANGES for mode in Mode]
    stations = BUNDLED_STATIONS[:2]
    shared = engine.slot_geometry(7.0, requests)
    selection = links.SlotGeometry.selection

    def refuse(self, classes):
        raise AssertionError("a counted snapshot built its index")

    monkeypatch.setattr(links.SlotGeometry, "selection", refuse)
    snaps = [engine.snapshot(7.0, r, mode, stations, shared) for r, mode in requests]
    counts = [snap.link_count for snap in snaps]
    assert not shared._selected
    assert not any("_index" in vars(snap) for snap in snaps)
    monkeypatch.setattr(links.SlotGeometry, "selection", selection)
    for (r, mode), snap, count in zip(requests, snaps, counts):
        index = shared.selection(engine.classes(r, mode))
        sat_links = len(shared.length_km) if isinstance(index, slice) else len(index)
        assert count == sat_links + len(snap.gs_sat_index) == len(snap.sat_a) + len(
            snap.gs_sat_index), (r, mode)
        assert snap.link_count == count, (r, mode)  # now read from the index


def test_snapshot_rejects_geometry_that_does_not_cover_it(engine):
    shared = engine.slot_geometry(5.0, [(1700.0, Mode.NG)])
    with pytest.raises(ValueError):
        engine.snapshot(5.0, 1700.0, Mode.NNG, geometry=shared)
    with pytest.raises(ValueError):
        engine.snapshot(5.0, 5016.0, Mode.NG, geometry=shared)
    with pytest.raises(ValueError):
        engine.snapshot(6.0, 1700.0, Mode.NG, geometry=shared)
    with pytest.raises(ValueError):
        engine.snapshot(links.Instant(engine, 6.0), 1700.0, Mode.NG, geometry=shared)
    other = small_walker_engine()
    with pytest.raises(ValueError):  # another engine's geometry or Instant
        other.snapshot(5.0, 1700.0, Mode.NG, geometry=shared)
    with pytest.raises(ValueError):
        engine.snapshot(links.Instant(other, 5.0), 1700.0, Mode.NG, geometry=shared)
    with pytest.raises(ValueError):  # a mask is for a geometry of the snapshot's own
        engine.snapshot(5.0, 1700.0, Mode.NG, geometry=shared,
                        alive=np.ones(len(engine.constellation), dtype=bool))
    with pytest.raises(ValueError):
        engine.slot_geometry(5.0, [])


def test_node_index_inverts_satellite_ids(engine):
    snap = engine.snapshot(0.0, 659.5, Mode.NG, (GroundStation("Sydney", -33.86, 151.21),))
    assert snap.node_index("x12454") == 23 * 66 + 53
    assert snap.node_index("x10101") == 0
    assert snap.node_index("Sydney") == 1584
    for k in (0, 65, 66, 1583):
        assert snap.node_index(snap.node_name(k)) == k
    for missing in ("x12501", "x10167", "x10000", "Tokyo"):
        with pytest.raises(KeyError):
            snap.node_index(missing)


def reference_type_codes(shell, a, b, t):
    """Type codes of the pairs (a, b) at time t, from their plane indices,
    the offset wrapped around the shell, and their velocities."""
    vel = shell.velocities_at(t)
    co_moving = np.einsum("ij,ij->i", vel[a], vel[b]) > 0.0
    offset = np.abs(shell.plane_of[a] - shell.plane_of[b])
    offset = np.minimum(offset, shell.spec.plane_count - offset)
    return np.where(offset == 0, 0, np.where(co_moving, np.where(offset == 1, 1, 2), 3))


@pytest.mark.parametrize("count", [0, 1, links._PAIR_BLOCK - 1, links._PAIR_BLOCK,
                                   links._PAIR_BLOCK + 1])
def test_blockwise_geometry_equals_one_pass(count, shell, monkeypatch):
    """Lengths, plane-relation types and line of sight computed block by
    block equal one einsum over the whole candidate list, bit for bit."""
    engine = LinkEngine(shell)
    t, r = 321.0, 5016.0
    candidates = engine.classes(r, Mode.NNG).pairs().take(slice(0, count))
    assert len(candidates.a) == count

    def first_candidates(_classes, alive=None):
        assert alive is None
        return candidates

    monkeypatch.setattr(links.LinkClasses, "pairs", first_candidates)
    geometry = engine.slot_geometry(t, [(r, Mode.NNG)])

    pos = shell.positions_at(t)
    diff = pos[candidates.a] - pos[candidates.b]
    length = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    near = length <= r
    a, b = candidates.a[near], candidates.b[near]
    p, chord = pos[a], pos[b] - pos[a]
    s = np.clip(-np.einsum("ij,ij->i", p, chord)
                / np.maximum(np.einsum("ij,ij->i", chord, chord), 1e-300), 0.0, 1.0)
    closest = p + s[:, None] * chord
    clear = np.einsum("ij,ij->i", closest, closest) >= engine.constants.occlusion_radius_km**2

    assert np.array_equal(geometry.pairs.a, a) and np.array_equal(geometry.pairs.b, b)
    assert np.array_equal(geometry.length_km, length[near])
    assert np.array_equal(geometry.type_code, reference_type_codes(shell, a, b, t))
    assert geometry.clear_of_earth.dtype == bool
    assert np.array_equal(geometry.clear_of_earth, clear)


# -- candidate order and lazy typing ---------------------------------------

def generated_candidate_pairs(engine, class_mask):
    """The candidate pairs of class_mask as (a, b, flat class), generated
    base-major and then in (dp, ds) order from every base satellite, with
    no ordering of the result: the reference for the engine's sorted
    lists."""
    shell = engine.constellation
    spec = shell.spec
    planes, slots, n = spec.plane_count, spec.sats_per_plane, spec.satellite_count
    cls_dp, cls_ds = np.nonzero(class_mask)
    a = np.repeat(np.arange(n), len(cls_dp))
    dp, ds = np.tile(cls_dp, n), np.tile(cls_ds, n)
    plane_b = shell.plane_of[a] + dp
    b = plane_b * slots + (shell.slot_of[a] + ds) % slots
    keep = (plane_b < planes) & (a < b)
    return set(zip(a[keep].tolist(), b[keep].tolist(), (dp * slots + ds)[keep].tolist()))


def grazing_chord_km(engine):
    """The longest link that can clear the occlusion sphere."""
    r_orbit = engine.constellation.spec.orbit_radius_km
    return 2.0 * math.sqrt(r_orbit**2 - engine.constants.occlusion_radius_km**2)


@st.composite
def small_shells(draw, raan_spreads_deg=(180.0, 360.0)):
    """A Walker shell of 1-8 planes of 3-30 satellites, any phasing offset
    and one of the RAAN spreads."""
    planes = draw(st.integers(1, 8))
    return build_constellation(ConstellationSpec(
        plane_count=planes, sats_per_plane=draw(st.integers(3, 30)),
        phasing_offset=draw(st.integers(0, planes - 1)),
        raan_spread_deg=draw(st.sampled_from(raan_spreads_deg))))


@settings(deadline=None)
@given(shell=small_shells(), mode=st.sampled_from(list(Mode)),
       chord_fraction=st.floats(0.1, 1.3))
def test_candidate_pairs_come_sorted(shell, mode, chord_fraction):
    """Candidate lists are strictly increasing in a * N + b, and hold the
    pairs and classes that unsorted generation gives."""
    engine = LinkEngine(shell)
    classes = engine.classes(chord_fraction * grazing_chord_km(engine), mode)
    pairs = classes.pairs()
    assert np.all(np.diff(pairs.a.astype(np.int64) * len(shell) + pairs.b) > 0)
    found = set(zip(pairs.a.tolist(), pairs.b.tolist(), pairs.cls.tolist()))
    assert len(found) == len(pairs.a)
    assert found == generated_candidate_pairs(engine, classes.mask)


def test_empty_mask_gives_empty_lists(shell):
    engine = LinkEngine(shell)
    classes = engine.classes(1.0, Mode.NG)  # below every class
    assert not classes.mask.any()
    pairs = classes.pairs()
    assert [(len(x), x.dtype) for x in (pairs.a, pairs.b, pairs.cls)] == [
        (0, np.int32), (0, np.int32), (0, np.int16)]


def test_starlink_lists_equal_generated_pairs(shell):
    """Each of the 14 Starlink candidate lists holds the pairs and classes
    that unsorted generation gives, strictly ascending in a * N + b; and a
    geometry shared by all 14 measures the candidate pairs of their cover,
    the very classes of NNG at 5,016 km."""
    engine = LinkEngine(shell)
    requests = [(r, mode) for r in STANDARD_RANGES for mode in Mode]
    assert engine.slot_geometry(0.0, requests).cover is engine.classes(5016.0, Mode.NNG)
    for r, mode in requests:
        classes = engine.classes(r, mode)
        pairs = classes.pairs()
        assert pairs.a.dtype == pairs.b.dtype == np.int32 and pairs.cls.dtype == np.int16
        assert np.all(np.diff(pairs.a.astype(np.int64) * len(shell) + pairs.b) > 0)
        generated = generated_candidate_pairs(engine, classes.mask)
        assert len(pairs.a) == len(generated)
        assert set(zip(pairs.a.tolist(), pairs.b.tolist(), pairs.cls.tolist())) == generated


@settings(deadline=None)
@given(shell=small_shells(), mode=st.sampled_from(list(Mode)),
       chord_fraction=st.floats(0.1, 1.3), t=st.floats(0.0, 6000.0))
def test_plane_relation_types_on_random_shells(shell, mode, chord_fraction, t):
    """The type codes a geometry derives from its pair classes equal those
    from plane indices and velocities, on shells with few or an odd number
    of planes and with half or full RAAN spreads."""
    engine = LinkEngine(shell)
    geometry = engine.slot_geometry(t, [(chord_fraction * grazing_chord_km(engine), mode)])
    pairs = geometry.pairs
    assert np.array_equal(geometry.type_code, reference_type_codes(shell, pairs.a, pairs.b, t))


@settings(deadline=None)
@given(shell=small_shells(), mode=st.sampled_from(list(Mode)),
       chord_fraction=st.floats(0.1, 1.3), t=st.floats(0.0, 6000.0),
       geometry_kind=st.sampled_from(["lone", "masked", "shared", "wider"]),
       seed=st.integers(0, 2**32 - 1))
def test_lazily_picked_link_arrays_equal_the_eager_ones(shell, mode, chord_fraction, t,
                                                        geometry_kind, seed):
    """A snapshot's link count reads no link array, and the satellite links'
    endpoints and lengths it picks when first read are those its geometry's
    selection picks: on a geometry of its own, with or without a mask of
    live satellites, and on a shared one measured for its own (range, mode)
    or for a wider cover."""
    engine = LinkEngine(shell)
    r = chord_fraction * grazing_chord_km(engine)
    alive = None
    if geometry_kind == "masked":
        alive = np.random.default_rng(seed).random(len(shell)) < 0.5
    geometry = None
    if geometry_kind == "shared":
        geometry = engine.slot_geometry(t, [(r, mode)])
    elif geometry_kind == "wider":
        geometry = engine.slot_geometry(t, [(r, mode), (1.5 * r, Mode.NNG)])
    snap = engine.snapshot(t, r, mode, BUNDLED_STATIONS[:4], geometry, alive)
    count = snap.link_count
    assert not {"_index", "sat_a", "sat_b", "sat_length_km"} & set(vars(snap))
    geometry = snap._geometry
    index = geometry.selection(engine.classes(r, mode))
    for name, eager in (("sat_a", geometry.pairs.a), ("sat_b", geometry.pairs.b),
                        ("sat_length_km", geometry.length_km)):
        lazy = getattr(snap, name)
        assert lazy.dtype == eager.dtype and np.array_equal(lazy, eager[index]), name
    assert count == len(snap.sat_a) + len(snap.gs_sat_index)
    assert count == link_census(snap).total_undirected


def walker_period_s(spec):
    """The time gcd(P, f) T / N after which a Walker-delta shell of P planes,
    N satellites, phasing offset f and period T, with a 360 degree RAAN
    spread, repeats up to a rotation about the pole and a relabelling."""
    return (math.gcd(spec.plane_count, spec.phasing_offset) * spec.orbital_period_s
            / spec.satellite_count)


def assert_repeats_every_walker_period(shell):
    """Snapshots at t and one Walker period later hold as many links, of the
    same types and permanence, and of the same lengths."""
    engine = LinkEngine(shell)
    tau = walker_period_s(shell.spec)
    requests = [(r, mode) for r in (659.5, 1700.0, 5016.0, 5100.0) for mode in Mode]
    for t in (0.0, 17.3, 1234.5):
        geometries = [engine.slot_geometry(s, requests) for s in (t, t + tau)]
        for r, mode in requests:
            now, later = (engine.snapshot(g.instant, r, mode, geometry=g) for g in geometries)
            assert now.link_count == later.link_count, (t, r, mode)
            assert link_census(now).counts == link_census(later).counts, (t, r, mode)
            assert np.allclose(np.sort(now.sat_length_km), np.sort(later.sat_length_km),
                               rtol=0.0, atol=1e-6), (t, r, mode)


def test_starlink_shell_repeats_every_walker_period(shell):
    assert walker_period_s(shell.spec) == pytest.approx(10.869, abs=1e-3)
    assert_repeats_every_walker_period(shell)


@settings(deadline=None)
@given(shell=small_shells(raan_spreads_deg=(360.0,)))
def test_small_shells_repeat_every_walker_period(shell):
    assert_repeats_every_walker_period(shell)


def test_routing_needs_no_velocities(monkeypatch):
    """Plane-relation types are computed only when read, and routing reads none."""
    def refuse(self, t):
        raise AssertionError("velocities propagated for routing")

    monkeypatch.setattr(Constellation, "velocities_at", refuse)
    engine = LinkEngine(build_constellation(ConstellationSpec()))
    cfg = ScenarioConfig(src=BUNDLED_STATIONS[0], dst=BUNDLED_STATIONS[1],
                         lisl_range_km=5016.0, mode=Mode.NNG, slot_count=3)
    records, summary = run_scenario(engine, cfg, 1)
    assert summary.slots_with_path == len(records) == 3


def test_census_types_a_geometry_once(engine, monkeypatch):
    """Two snapshots on one geometry share its plane-relation types."""
    calls = []
    velocities_at = Constellation.velocities_at

    def counting(self, t):
        calls.append(t)
        return velocities_at(self, t)

    monkeypatch.setattr(Constellation, "velocities_at", counting)
    geometry = engine.slot_geometry(17.0, [(1700.0, Mode.NG), (1700.0, Mode.NNG)])
    assert not calls
    censuses = [link_census(engine.snapshot(17.0, 1700.0, mode, geometry=geometry))
                for mode in Mode]
    assert calls == [17.0]
    assert censuses[0].total_undirected < censuses[1].total_undirected


# -- pruned snapshots: live rows and the brute force -----------------------

def bound_mask(engine, t, r, src, dst, quantile):
    """The satellites whose lower bound (scenario.lower_bounds) on a path
    from src to dst at range r lies within the given quantile of the
    bounds: a mask clustered about the great circle between the stations,
    as evaluate_slot cuts."""
    instant = links.Instant(engine, t)
    cfg = ScenarioConfig(src, dst, lisl_range_km=r)
    bounds = lower_bounds(engine, cfg, instant.angle_beyond_reach(src),
                          instant.angle_beyond_reach(dst))
    return bounds <= np.quantile(bounds, quantile)


MASK_KINDS = ("empty", "one", "last plane", "all but one", "random", "bounds")


@st.composite
def alive_masks(draw, engine, r):
    """A mask of live satellites of the engine's shell: none, one, one of
    the last plane, whose row may be empty, all but one, a random mask, or
    one cut by lower bounds at range r."""
    n = len(engine.constellation)
    alive = np.zeros(n, dtype=bool)
    kind = draw(st.sampled_from(MASK_KINDS))
    if kind == "one":
        alive[draw(st.integers(0, n - 1))] = True
    elif kind == "last plane":
        alive[draw(st.integers(n - engine.constellation.spec.sats_per_plane, n - 1))] = True
    elif kind == "all but one":
        alive[:] = True
        alive[draw(st.integers(0, n - 1))] = False
    elif kind == "random":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        alive = rng.random(n) < draw(st.floats(0.0, 1.0))
    elif kind == "bounds":
        src, dst = (GroundStation(name, draw(st.floats(-90.0, 90.0)),
                                  draw(st.floats(-180.0, 180.0)), draw(st.floats(1000.0, 4000.0)))
                    for name in ("s", "d"))
        alive = bound_mask(engine, draw(st.floats(0.0, 6000.0)), r, src, dst,
                           draw(st.floats(0.0, 1.0)))
    return alive


@st.composite
def masked_shells(draw):
    """An engine on a random small shell, a range on either side of the
    grazing chord, and a mask of live satellites (alive_masks)."""
    engine = LinkEngine(draw(small_shells()))
    r = draw(st.floats(0.1, 1.3)) * grazing_chord_km(engine)
    return engine, r, draw(alive_masks(engine, r))


@functools.cache
def starlink_engine():
    return LinkEngine(build_constellation(ConstellationSpec()))


@st.composite
def live_pair_cases(draw):
    """An engine, a LinkClasses and a mask of live satellites: a masked small
    shell's range under either mode, or on the Starlink shell one of the
    14 study (range, mode) pairs, whose cover is among them
    (test_starlink_lists_equal_generated_pairs), under a mask of any of
    MASK_KINDS."""
    if draw(st.booleans()):
        engine, r, alive = draw(masked_shells())
        return engine, engine.classes(r, draw(st.sampled_from(list(Mode)))), alive
    engine = starlink_engine()
    classes = engine.classes(draw(st.sampled_from(STANDARD_RANGES)),
                             draw(st.sampled_from(list(Mode))))
    return engine, classes, draw(alive_masks(engine, draw(st.sampled_from(STANDARD_RANGES))))


@settings(deadline=None, max_examples=300)
@given(case=live_pair_cases())
def test_live_pairs_are_the_filtered_list(case):
    """The pairs generated from the runs of live satellites alone are the
    unmasked pairs whose two satellites are live, in the same order and
    dtypes; and an engine that has built other masks' tables generates the
    unmasked pairs that a fresh engine does."""
    engine, classes, alive = case
    whole = classes.pairs()
    live = classes.pairs(alive)
    fresh = LinkEngine(engine.constellation).classes(classes.lisl_range_km, classes.mode).pairs()
    keep = alive[whole.a] & alive[whole.b]
    for name in ("a", "b", "cls"):
        x, y, z = getattr(live, name), getattr(whole, name), getattr(fresh, name)
        assert x.dtype == y.dtype == z.dtype and np.array_equal(y, z), name
        assert np.array_equal(x, y[keep]), name


def recording_branches(taken):
    """Patches of the two generation branches that append their names,
    "gather" or "lookup", to taken before they run."""
    def recording(name):
        method = getattr(links.LinkClasses, name)

        def record(self, *args):
            taken.append(name)
            return method(self, *args)
        return mock.patch.object(links.LinkClasses, name, record)
    return recording("gather"), recording("lookup")


@settings(deadline=None, max_examples=300)
@given(case=live_pair_cases(), block=st.sampled_from([links._PAIR_BLOCK, 1, 7, 100]))
def test_both_generation_paths_give_the_filtered_list(case, block):
    """The two ways of generating the pairs of m live satellites, from their
    runs (LinkClasses.gather) and by looking every ordered live pair up
    (LinkClasses.lookup, here also over blocks of a few entries), each give
    the unmasked pairs whose two satellites are live, in the same order and
    dtypes; and a masked LinkClasses.pairs takes the lookup exactly when m^2
    lies below the live runs' summed size. The masks (none, one or all but
    one live satellite, random, cut by lower bounds) lie on both sides of
    that switch."""
    _engine, classes, alive = case
    whole = classes.pairs()
    keep = alive[whole.a] & alive[whole.b]
    live = np.flatnonzero(alive).astype(np.int32)
    with mock.patch.object(links, "_PAIR_BLOCK", block):
        branches = [classes.gather(live, alive), classes.lookup(live)]
    taken = []
    gather_patch, lookup_patch = recording_branches(taken)
    with gather_patch, lookup_patch:
        dispatched = classes.pairs(alive)
    size = classes.runs[3]
    assert taken == ["lookup" if len(live) ** 2 < size[live].sum() else "gather"]
    for pairs in branches + [dispatched]:
        for name in ("a", "b", "cls"):
            x, y = getattr(pairs, name), getattr(whole, name)
            assert x.dtype == y.dtype and np.array_equal(x, y[keep]), name


def test_a_pruned_starlink_pass_looks_its_pairs_up():
    """Sydney-Sao Paulo NNG at 5,016 km, Earth rotation 105 deg, t = 0: the
    one pass keeps 91 satellites, whose runs hold 30,211 entries against 8,281
    ordered pairs, so it must generate its pairs by lookup; with the run
    gather made to fail, the slot still gives the unpruned record."""
    engine = LinkEngine(build_constellation(ConstellationSpec()), earth_rotation0_deg=105.0)
    cfg = ScenarioConfig(BUNDLED_STATIONS[0], BUNDLED_STATIONS[1], 5016.0, Mode.NNG,
                         slot_count=1)
    expected = _route_slot(engine, cfg, 0)
    taken = []
    gather_patch, lookup_patch = recording_branches(taken)

    def refuse(lo, size):
        raise AssertionError("a pruned pass gathered its runs")

    with gather_patch, lookup_patch, mock.patch.object(links, "_run_rows", refuse):
        assert evaluate_slot(engine, cfg, 0) == expected
    assert taken == ["lookup"]


def whole_shell_ground_links(positions, g, range_km):
    """Every satellite of the shell within range_km of the station position
    g and above its horizon, with its slant range: the rule applied to the
    whole shell."""
    delta = positions - g
    slant = np.sqrt(np.einsum("ij,ij->i", delta, delta))
    feasible = np.flatnonzero((slant <= range_km) & (delta @ g > 0.0))
    return feasible, slant[feasible]


def cross_product_angle_beyond_reach(engine, gs, t, positions):
    """angle_beyond_reach with every angle taken from the cross product,
    as atan2(|x x g|, x.g)."""
    r = engine.constellation.spec.orbit_radius_km
    r_e = engine.constants.earth_radius_km
    g = ground_station_position(gs, t, engine.earth_rotation0_deg, r_e)
    theta = np.arctan2(np.linalg.norm(np.cross(positions, g), axis=1), positions @ g)
    reach = 2.0 * math.asin(math.sqrt(min(max(
        (gs.range_km - abs(r - r_e)) * (gs.range_km + abs(r - r_e)) / (4.0 * r * r_e), 0.0), 1.0)))
    return np.maximum(theta - reach, 0.0)


@st.composite
def station_cases(draw):
    """An engine on a random small shell at 300-2,000 km, at any Earth
    rotation, a station at any latitude (the poles included) with a slant
    range from below the altitude up to 3,000 km, and a time."""
    shell = draw(small_shells())
    spec = dataclasses.replace(shell.spec, altitude_km=draw(st.floats(300.0, 2000.0)))
    engine = LinkEngine(build_constellation(spec),
                        earth_rotation0_deg=draw(st.floats(0.0, 360.0)))
    latitude = draw(st.sampled_from([-90.0, 90.0]) | st.floats(-90.0, 90.0))
    range_km = draw(st.floats(0.5, 1.5)) * spec.altitude_km if draw(st.booleans()) else \
        draw(st.floats(1.0, 3000.0))
    gs = GroundStation("g", latitude, draw(st.floats(-180.0, 180.0)), range_km)
    return engine, gs, draw(st.floats(0.0, 6000.0))


@settings(deadline=None, max_examples=300)
@given(case=station_cases())
def test_station_geometry_equals_the_whole_shell_rule(case):
    """An Instant's ground links, which measure only the satellites that a
    dot-product test lets through, are the whole-shell rule's: the same
    satellites and bit-equal slant ranges. The angles beyond reach, taken
    from the same dot product, lie within 1e-12 rad of the cross-product
    form."""
    engine, gs, t = case
    instant = links.Instant(engine, t)
    feasible, slant = instant.ground_links(gs)
    g, _ = instant.station(gs)
    expected, expected_slant = whole_shell_ground_links(instant.positions, g, gs.range_km)
    assert feasible.dtype == np.int32 and np.array_equal(feasible, expected)
    assert np.array_equal(slant, expected_slant)
    angle = instant.angle_beyond_reach(gs)
    expected_angle = cross_product_angle_beyond_reach(engine, gs, t, instant.positions)
    assert np.abs(angle - expected_angle).max() <= 1e-12


def test_class_masks_are_built_once_and_read_only(engine):
    for r in STANDARD_RANGES:
        for mode in Mode:
            classes = engine.classes(r, mode)
            mask = classes.mask
            assert engine.classes(r, mode) is classes and not mask.flags.writeable
            with pytest.raises(ValueError):
                mask[0, 0] = True


def held_bytes(value) -> int:
    """Bytes of the numpy arrays reachable from value through dicts, lists,
    tuples and dataclasses, their cached properties included."""
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, dict):
        value = list(value.values())
    elif dataclasses.is_dataclass(value):
        value = list(vars(value).values())
    return sum(map(held_bytes, value)) if isinstance(value, (list, tuple)) else 0


def test_engine_holds_little_for_the_study_masks(shell):
    """After a snapshot at each of the 14 (range, mode) pairs of the study,
    and a read of each one's lookup table, all that the engine holds
    besides its shell totals under 2 MiB, though their candidate lists
    hold 383 k pairs at 5,016 km NNG alone: every process of a pooled
    batch holds its own copy."""
    engine = LinkEngine(shell)
    for r in STANDARD_RANGES:
        for mode in Mode:
            engine.snapshot(0.0, r, mode)
            engine.classes(r, mode).table
    state = {key: value for key, value in vars(engine).items()
             if key not in ("constellation", "constants")}
    assert 0 < held_bytes(state) < 2 * 2**20


def cut_snapshot(snap, alive):
    """The arrays of snap with only the satellite links between, and the
    ground links to, the satellites alive marks: what a snapshot that
    measures only the pairs of live satellites must hold."""
    sat, ground = alive[snap.sat_a] & alive[snap.sat_b], alive[snap.gs_sat_index]
    return types.SimpleNamespace(
        sat_positions=snap.sat_positions, gs_positions=snap.gs_positions,
        **{name: getattr(snap, name)[sat]
           for name in ("sat_a", "sat_b", "sat_length_km", "sat_type_code", "sat_permanent")},
        **{name: getattr(snap, name)[ground]
           for name in ("gs_station_index", "gs_sat_index", "gs_length_km")})


def test_lone_pruned_snapshots_equal_cuts_of_a_shared_geometry(engine):
    """On the Starlink shell, a snapshot that measures only the pairs of live
    satellites equals, array by array, the snapshot of a shared geometry
    cut by the same mask, at each of the 14 (range, mode) pairs, for masks
    cut by the lower bounds of Sydney-Sao Paulo and New York-Jakarta and a
    random mask."""
    t = 7.0
    stations = BUNDLED_STATIONS[:2]
    requests = [(r, mode) for r in STANDARD_RANGES for mode in Mode]
    shared = engine.slot_geometry(t, requests)
    rng = np.random.default_rng(15)
    for r, mode in requests:
        masks = [bound_mask(engine, t, r, BUNDLED_STATIONS[a], BUNDLED_STATIONS[b], 0.1)
                 for a, b in ((0, 1), (6, 7))]
        whole = engine.snapshot(t, r, mode, stations, shared)
        for alive in masks + [rng.random(len(engine.constellation)) < 0.6]:
            assert_same_snapshot(cut_snapshot(whole, alive),
                                 engine.snapshot(t, r, mode, stations, None, alive))


def brute_force_links(engine, t, r, stations, alive):
    """Per mode, the satellite links (a, b, length, type code, permanent) and
    the ground links (station, satellite, length) among the live
    satellites at time t and range r, from all pairs, with an explicit
    line-of-sight test, independent of the candidate classes; NG keeps
    only the pairs whose largest separation over an orbit, read from the
    class tables by their lower-plane endpoint, lies within range."""
    shell = engine.constellation
    slots = shell.spec.sats_per_plane
    pos = shell.positions_at(t)
    a, b = np.triu_indices(len(shell), 1)
    p, q = pos[a], pos[b]
    chord = q - p
    length = np.linalg.norm(chord, axis=1)
    s = np.clip(-np.sum(p * chord, axis=1) / np.sum(chord * chord, axis=1), 0.0, 1.0)
    clear = np.linalg.norm(p + s[:, None] * chord, axis=1) >= engine.constants.occlusion_radius_km
    permanent = engine.pair_max_table_km[shell.plane_of[b] - shell.plane_of[a],
                                         (shell.slot_of[b] - shell.slot_of[a]) % slots] <= r
    link = alive[a] & alive[b] & (length <= r) & clear
    types = reference_type_codes(shell, a, b, t)
    ground = []
    for k, gs in enumerate(stations):
        g = ground_station_position(gs, t, engine.earth_rotation0_deg,
                                    engine.constants.earth_radius_km)
        slant = np.linalg.norm(pos - g, axis=1)
        sats = np.flatnonzero(alive & (slant <= gs.range_km) & ((pos - g) @ g > 0.0))
        ground += [(k, sat, slant[sat]) for sat in sats.tolist()]
    out = {}
    for mode in Mode:
        keep = link & permanent if mode is Mode.NG else link
        out[mode] = (a[keep], b[keep], length[keep], types[keep], permanent[keep], ground)
    return out


def assert_brute_force_links(snap, expected):
    a, b, length, types, permanent, ground = expected
    assert np.array_equal(snap.sat_a, a) and np.array_equal(snap.sat_b, b)
    assert np.allclose(snap.sat_length_km, length, rtol=0.0, atol=1e-9)
    assert np.array_equal(snap.sat_type_code, types)
    assert np.array_equal(snap.sat_permanent, permanent)
    found = list(zip(snap.gs_station_index.tolist(), snap.gs_sat_index.tolist()))
    assert found == [(k, sat) for k, sat, _ in ground]
    assert np.allclose(snap.gs_length_km, [slant for _, _, slant in ground], rtol=0.0, atol=1e-9)


@settings(deadline=None, max_examples=300)
@example(case=(small_walker_engine(), 659.5, np.ones(120, dtype=bool)), t=0.0)
@example(case=(small_walker_engine(), 1700.0, np.arange(120) % 7 > 0), t=7.0)
@example(case=(small_walker_engine(), 5016.0, np.arange(120) % 3 > 0), t=1234.0)
@example(case=(small_walker_engine(), 5100.0, np.arange(120) < 60), t=1234.0)
@given(case=masked_shells(), t=st.floats(0.0, 6000.0))
def test_small_shell_snapshot_matches_brute_force(case, t):
    """On random small shells, at ranges on both sides of the grazing chord,
    the snapshots a query measures alone and the ones it selects from a
    shared geometry, each with no mask and with a mask of live satellites
    (the shared one cut by cut_snapshot), hold the links of an all-pairs
    brute force over the live satellites: the same links in the same
    order, lengths within 1e-9 km, types and permanence, and the same
    ground links. The explicit examples keep the 6 x 20 shell at ranges
    below and above the grazing chord."""
    engine, r, alive = case
    stations = (GroundStation("s", 10.0, 20.0, 2500.0), GroundStation("d", -35.0, 100.0, 4000.0))
    everyone = np.ones(len(engine.constellation), dtype=bool)
    shared = engine.slot_geometry(t, [(r, mode) for mode in Mode])
    for mask in (None, alive):
        expected = brute_force_links(engine, t, r, stations, everyone if mask is None else mask)
        for mode in Mode:
            whole = engine.snapshot(t, r, mode, stations, shared)
            for snap in (engine.snapshot(t, r, mode, stations, None, mask),
                         whole if mask is None else cut_snapshot(whole, mask)):
                assert_brute_force_links(snap, expected[mode])


# -- one comparison per pair against the class masks ------------------------

def class_mask_links(geometry, classes):
    """Per pair of the geometry, True iff the class-mask rule makes it a link
    of classes' (range, mode): its class lies in the mask, it is within
    range and, where the Earth can block the range, the segment between its
    satellites clears the occlusion sphere (an explicit closest-point test)."""
    pairs = geometry.pairs
    keep = classes.mask.ravel()[pairs.cls] & (geometry.length_km <= classes.lisl_range_km)
    if classes.line_of_sight:
        pos = geometry.instant.positions
        p, chord = pos[pairs.a], pos[pairs.b] - pos[pairs.a]
        s = np.clip(-np.sum(p * chord, axis=1) / np.sum(chord * chord, axis=1), 0.0, 1.0)
        keep &= (np.linalg.norm(p + s[:, None] * chord, axis=1)
                 >= geometry.instant.engine.constants.occlusion_radius_km)
    return keep


def masked_sum_census(types, permanent, ground_links):
    """Census counts by (type, permanence) from one masked sum per key, in
    the order of LinkType and then Permanence, zero counts left out."""
    counts = {}
    for code, link_type in enumerate(links._SAT_TYPE_CODES):
        for permanence, of_permanence in ((Permanence.PERMANENT, permanent),
                                          (Permanence.TEMPORARY, ~permanent)):
            n = int(np.count_nonzero((types == code) & of_permanence))
            if n:
                counts[(link_type, permanence)] = n
    if ground_links:
        counts[(LinkType.GROUND_LINK, Permanence.TEMPORARY)] = ground_links
    return counts


@st.composite
def wider_covers(draw):
    """An engine on a random small shell or on the Starlink shell, a cover
    range R on either side of the grazing chord, and a range r < R: a
    fraction of R, or at or just below the smallest or the largest
    separation of a class below R, where a pair is only barely in range or
    only barely permanent."""
    shell = draw(small_shells()) if draw(st.booleans()) else starlink_engine().constellation
    engine = LinkEngine(shell)
    cover = draw(st.floats(0.1, 1.3)) * grazing_chord_km(engine)
    if draw(st.booleans()):
        r = draw(st.floats(0.0, 1.0, exclude_max=True)) * cover
    else:
        table = draw(st.sampled_from([engine.pair_min_table_km, engine.pair_max_table_km]))
        near = np.sort(table[table < cover])
        r = cover if not len(near) else float(draw(st.sampled_from(near.tolist())))
        r = min(r - draw(st.sampled_from([0.0, 1e-9, 1e-6, 1e-3])), np.nextafter(cover, 0.0))
    return engine, r, cover


@settings(deadline=None, max_examples=60)
@example(case=(starlink_engine(), 5016.0, 6000.0), t=1234.0)
@example(case=(small_walker_engine(), 1700.0, 5100.0), t=7.0)
@given(case=wider_covers(), t=st.floats(0.0, 6000.0))
def test_one_comparison_selects_what_the_class_masks_select(case, t):
    """On an NNG(R) geometry, every pair within r < R has its class in the
    NNG(r) mask, which is what lets one comparison per pair stand in for
    the class mask; and for r and R under NG and NNG, the geometry's count
    and selection, and a snapshot's permanence and census, equal those of
    the class-mask rule (class_mask_links, masked_sum_census)."""
    engine, r, cover = case
    geometry = engine.slot_geometry(t, [(cover, Mode.NNG)])
    pairs, length = geometry.pairs, geometry.length_km
    assert engine.classes(r, Mode.NNG).mask.ravel()[pairs.cls[length <= r]].all()
    stations = (GroundStation("s", 10.0, 20.0, 2500.0), GroundStation("d", -35.0, 100.0, 4000.0))
    for lisl_range_km in (r, cover):
        permanent = engine.classes(lisl_range_km, Mode.NG).mask.ravel()[pairs.cls]
        for mode in Mode:
            classes = engine.classes(lisl_range_km, mode)
            keep = class_mask_links(geometry, classes)
            assert geometry.count(classes) == np.count_nonzero(keep), (lisl_range_km, mode)
            index = np.arange(len(length))[geometry.selection(classes)]
            assert np.array_equal(index, np.flatnonzero(keep)), (lisl_range_km, mode)
            assert geometry.count(classes) == len(index)
            snap = engine.snapshot(t, lisl_range_km, mode, stations, geometry)
            assert np.array_equal(snap.sat_permanent, permanent[keep]), (lisl_range_km, mode)
            census = link_census(snap)
            expected = masked_sum_census(geometry.type_code[keep], permanent[keep],
                                         len(snap.gs_sat_index))
            assert list(census.counts.items()) == list(expected.items()), (lisl_range_km, mode)
