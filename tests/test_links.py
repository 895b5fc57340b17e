import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fsosim import (BUNDLED_STATIONS, ConstellationSpec, GroundStation, LinkEngine, Mode,
                    ScenarioConfig, build_constellation, run_scenario)
from fsosim import links
from fsosim.links import LinkType, Permanence, degree_counts, link_census
from fsosim.orbital import Constellation, SatelliteId
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
    snapshots exactly, in the same link order, as measuring it alone."""
    if shell_name != "starlink":
        engine = small_walker_engine()
    stations = (GroundStation("Sydney", -33.8614, 151.2099),
                GroundStation("Sao Paulo", -23.5475, -46.6361),
                GroundStation("Quito", -0.18, -78.47))
    requests = [(r, mode) for r in STANDARD_RANGES for mode in Mode]
    for t in SHARED_PASS_TIMES:
        shared = engine.slot_geometry(t, requests)
        for r, mode in requests:
            alone = engine.snapshot(t, r, mode, stations)
            assert_same_snapshot(alone, engine.snapshot(t, r, mode, stations, shared))


def test_shared_geometry_selects_each_range_and_mode_once(engine, monkeypatch):
    """The 26 study queries of one instant hold 14 (range, mode) pairs: from
    a shared geometry they select their links 14 times, and each snapshot
    equals the one the query measures alone."""
    queries = [(BUNDLED_STATIONS[a], BUNDLED_STATIONS[b], r, mode)
               for a, b, ranges in ((0, 1, STANDARD_RANGES), (2, 3, (1700.0, 5016.0)),
                                    (4, 5, (1700.0, 5016.0)), (6, 7, (1700.0, 5016.0)))
               for r in ranges for mode in Mode]
    alone = [engine.snapshot(7.0, r, mode, (src, dst)) for src, dst, r, mode in queries]
    shared = engine.slot_geometry(7.0, {(r, mode) for _, _, r, mode in queries})
    selections = []
    class_mask = LinkEngine._class_mask

    def counting(self, lisl_range_km, mode):
        selections.append((lisl_range_km, mode))
        return class_mask(self, lisl_range_km, mode)

    monkeypatch.setattr(LinkEngine, "_class_mask", counting)
    for expected, (src, dst, r, mode) in zip(alone, queries):
        assert_same_snapshot(expected, engine.snapshot(7.0, r, mode, (src, dst), shared))
    assert len(queries) == 26 and len(selections) == 14


def test_pair_class_is_the_candidate_class(engine):
    """LinkEngine.pair_class reads each candidate pair's class as the
    candidate lists store it, with its endpoints in either order."""
    for shell_engine in (engine, small_walker_engine()):
        pairs = shell_engine._candidate_pairs(shell_engine._class_mask(5016.0, Mode.NNG))
        assert np.array_equal(shell_engine.pair_class(pairs.a, pairs.b), pairs.cls)
        assert np.array_equal(shell_engine.pair_class(pairs.b, pairs.a), pairs.cls)


def test_small_shell_snapshot_matches_brute_force():
    """All-pairs distances with an explicit line-of-sight test, independent of
    the candidate classes; NG additionally keeps only permanent pairs."""
    engine = small_walker_engine()
    shell = engine.constellation
    occ = engine.constants.occlusion_radius_km
    for t in SHARED_PASS_TIMES:
        pos = shell.positions_at(t)
        for r in STANDARD_RANGES + (5100.0,):
            expected = {mode: set() for mode in Mode}
            for i in range(len(shell)):
                for j in range(i + 1, len(shell)):
                    p, q = pos[i], pos[j]
                    if np.linalg.norm(p - q) > r:
                        continue
                    s = np.clip(-(p @ (q - p)) / ((q - p) @ (q - p)), 0.0, 1.0)
                    if np.linalg.norm(p + s * (q - p)) < occ:
                        continue
                    expected[Mode.NNG].add((i, j))
                    if is_permanent(engine, shell.satellite_id(i), shell.satellite_id(j), r):
                        expected[Mode.NG].add((i, j))
            shared = engine.slot_geometry(t, [(r, mode) for mode in Mode])
            for mode in Mode:
                snap = engine.snapshot(t, r, mode, geometry=shared)
                found = set(zip(snap.sat_a.tolist(), snap.sat_b.tolist()))
                assert found == expected[mode], (t, r, mode)


def test_snapshot_rejects_geometry_that_does_not_cover_it(engine):
    shared = engine.slot_geometry(5.0, [(1700.0, Mode.NG)])
    with pytest.raises(ValueError):
        engine.snapshot(5.0, 1700.0, Mode.NNG, geometry=shared)
    with pytest.raises(ValueError):
        engine.snapshot(5.0, 5016.0, Mode.NG, geometry=shared)
    with pytest.raises(ValueError):
        engine.snapshot(6.0, 1700.0, Mode.NG, geometry=shared)
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


@pytest.mark.parametrize("count", [0, 1, links._PAIR_BLOCK - 1, links._PAIR_BLOCK,
                                   links._PAIR_BLOCK + 1])
def test_blockwise_geometry_equals_one_pass(count, shell):
    """Lengths, plane-relation types and line of sight computed block by
    block equal one einsum over the whole candidate list, bit for bit."""
    engine = LinkEngine(shell)
    t, r = 321.0, 5016.0
    candidates = engine._candidate_pairs(engine._class_mask(r, Mode.NNG)).take(slice(0, count))
    assert len(candidates.a) == count
    engine._candidate_pairs = lambda _mask: candidates
    geometry = engine.slot_geometry(t, [(r, Mode.NNG)])

    pos, vel = shell.positions_at(t), shell.velocities_at(t)
    diff = pos[candidates.a] - pos[candidates.b]
    length = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    near = length <= r
    a, b = candidates.a[near], candidates.b[near]
    co_moving = np.einsum("ij,ij->i", vel[a], vel[b]) > 0.0
    p, chord = pos[a], pos[b] - pos[a]
    s = np.clip(-np.einsum("ij,ij->i", p, chord)
                / np.maximum(np.einsum("ij,ij->i", chord, chord), 1e-300), 0.0, 1.0)
    closest = p + s[:, None] * chord
    clear = np.einsum("ij,ij->i", closest, closest) >= engine.constants.occlusion_radius_km**2

    assert np.array_equal(geometry.pairs.a, a) and np.array_equal(geometry.pairs.b, b)
    assert np.array_equal(geometry.length_km, length[near])
    offset = candidates.plane_offset[near]
    type_code = np.where(offset == 0, 0, np.where(co_moving, np.where(offset == 1, 1, 2), 3))
    assert np.array_equal(geometry.type_code, type_code)
    assert geometry.clear_of_earth().dtype == bool
    assert np.array_equal(geometry.clear_of_earth(), clear)


# -- candidate order and lazy typing ---------------------------------------

def generated_candidate_pairs(engine, class_mask):
    """The candidate pairs of class_mask as (a, b, flat class, plane offset),
    generated base-major and then in (dp, ds) order from every base
    satellite, with no ordering of the result: the reference for the
    engine's sorted lists."""
    shell = engine.constellation
    spec = shell.spec
    planes, slots, n = spec.plane_count, spec.sats_per_plane, spec.satellite_count
    cls_dp, cls_ds = np.nonzero(class_mask)
    a = np.repeat(np.arange(n), len(cls_dp))
    dp, ds = np.tile(cls_dp, n), np.tile(cls_ds, n)
    plane_b = shell.plane_of[a] + dp
    b = plane_b * slots + (shell.slot_of[a] + ds) % slots
    keep = (plane_b < planes) & (a < b)
    offset = np.abs(shell.plane_of[a] - plane_b)
    offset = np.minimum(offset, planes - offset)
    return set(zip(a[keep].tolist(), b[keep].tolist(), (dp * slots + ds)[keep].tolist(),
                   offset[keep].tolist()))


def grazing_chord_km(engine):
    """The longest link that can clear the occlusion sphere."""
    r_orbit = engine.constellation.spec.orbit_radius_km
    return 2.0 * math.sqrt(r_orbit**2 - engine.constants.occlusion_radius_km**2)


@settings(deadline=None)
@given(planes=st.integers(1, 8), slots=st.integers(3, 30), data=st.data(),
       raan_spread_deg=st.sampled_from([180.0, 360.0]), mode=st.sampled_from(list(Mode)),
       chord_fraction=st.floats(0.1, 1.3))
def test_candidate_pairs_come_sorted(planes, slots, data, raan_spread_deg, mode, chord_fraction):
    """Candidate lists are strictly increasing in a * N + b, and hold the
    pairs, classes and plane offsets that unsorted generation gives."""
    spec = ConstellationSpec(plane_count=planes, sats_per_plane=slots,
                             phasing_offset=data.draw(st.integers(0, planes - 1)),
                             raan_spread_deg=raan_spread_deg)
    engine = LinkEngine(build_constellation(spec))
    mask = engine._class_mask(chord_fraction * grazing_chord_km(engine), mode)
    pairs = engine._candidate_pairs(mask)
    assert np.all(np.diff(pairs.a.astype(np.int64) * spec.satellite_count + pairs.b) > 0)
    found = set(zip(pairs.a.tolist(), pairs.b.tolist(), pairs.cls.tolist(),
                    pairs.plane_offset.tolist()))
    assert len(found) == len(pairs.a)
    assert found == generated_candidate_pairs(engine, mask)


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
