import contextlib
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from fsosim import (BUNDLED_STATIONS, ComparisonResult, ConstellationSpec, GroundStation,
                    LinkEngine, Mode, PhysicalConstants, ScenarioConfig, build_constellation,
                    run_scenario)
from fsosim import links, scenario
from fsosim.errors import ConfigurationError
from fsosim.links import Instant
from fsosim.orbital import Constellation, parse_id
from fsosim.scenario import (DEFAULT_RANGES_KM, SlotRecord, _chunks, _route_slot, compare_many,
                             evaluate_slot, lower_bounds, run_scenarios, summarize,
                             write_comparison_csv, write_slots_csv, write_summary_csv)

SYDNEY = BUNDLED_STATIONS[0]
SAO_PAULO = BUNDLED_STATIONS[1]


@pytest.fixture(scope="module")
def ring_engine():
    # single plane: permanent-only and all-links graphs coincide
    shell = build_constellation(ConstellationSpec(plane_count=1, sats_per_plane=40,
                                                  phasing_offset=0))
    return LinkEngine(shell)


def short_cfg(rng_km, mode=Mode.NNG, slots=30, src=SYDNEY, dst=SAO_PAULO):
    return ScenarioConfig(src=src, dst=dst, lisl_range_km=rng_km, mode=mode,
                          slot_count=slots)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        ScenarioConfig(SYDNEY, SAO_PAULO, lisl_range_km=0.0)
    with pytest.raises(ConfigurationError):
        ScenarioConfig(SYDNEY, SAO_PAULO, 1500.0, slot_count=0)
    with pytest.raises(ConfigurationError):
        ScenarioConfig(SYDNEY, SAO_PAULO, 1500.0, slot_duration_s=0.0)
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ConfigurationError, match="lisl_range_km"):
            ScenarioConfig(SYDNEY, SAO_PAULO, lisl_range_km=value)
        with pytest.raises(ConfigurationError, match="slot_duration_s"):
            ScenarioConfig(SYDNEY, SAO_PAULO, 1500.0, slot_duration_s=value)
    with pytest.raises(ConfigurationError, match="Sydney"):
        ScenarioConfig(SYDNEY, SYDNEY, 1500.0)


def test_node_delay_comes_from_the_engine(shell):
    """Every hop costs the engine's node delay; the scenario has none of its own."""
    engine = LinkEngine(shell, PhysicalConstants(node_delay_ms=5.0))
    records, summary = run_scenario(engine, short_cfg(1700.0, Mode.NNG, slots=4))
    assert summary.slots_with_path == 4
    for r in records:
        assert r.node_delay_ms == 5.0 * r.hop_count
        assert r.latency_ms == r.propagation_ms + r.node_delay_ms


def test_single_slot_summary_equals_record():
    # stations straddling the first satellite's start point, one-hop path
    shell = build_constellation(ConstellationSpec())
    engine = LinkEngine(shell)
    near = GroundStation("near", 0.0, 0.5)
    far = GroundStation("far", 0.0, -0.5)
    cfg = ScenarioConfig(src=near, dst=far, lisl_range_km=659.5, mode=Mode.NNG,
                         slot_count=1)
    records, summary = run_scenario(engine, cfg)
    assert len(records) == 1
    record = records[0]
    assert record.path_found
    assert summary.slots_with_path == 1
    assert summary.slot_count == 1
    assert summary.avg_latency_ms == record.latency_ms
    assert summary.avg_hops == record.hop_count


def test_averages_exclude_pathless_slots():
    records = [
        SlotRecord(0, True, latency_ms=100.0, propagation_ms=80.0, node_delay_ms=20.0,
                   hop_count=2, node_sequence=("a", "s", "b")),
        SlotRecord(1, False),
        SlotRecord(2, True, latency_ms=50.0, propagation_ms=40.0, node_delay_ms=10.0,
                   hop_count=1, node_sequence=("a", "s", "b")),
    ]
    summary = summarize(records)
    assert summary.slots_with_path == 2
    assert summary.slot_count == 3
    assert summary.avg_latency_ms == 75.0
    assert summary.avg_hops == 1.5


def test_no_paths_summary_has_no_averages(engine):
    cfg = short_cfg(659.5, Mode.NG, slots=5)
    records, summary = run_scenario(engine, cfg)
    assert summary.slots_with_path == 0
    assert summary.avg_latency_ms is None
    assert summary.avg_hops is None
    assert all(not r.path_found for r in records)
    assert all(r.latency_ms is None for r in records)


def test_records_in_slot_order_and_accounting(engine):
    cfg = short_cfg(1700.0, Mode.NNG, slots=10)
    records, summary = run_scenario(engine, cfg)
    assert [r.slot_index for r in records] == list(range(10))
    assert summary.slots_with_path == 10
    for r in records:
        assert r.latency_ms == r.propagation_ms + r.node_delay_ms
        assert r.node_delay_ms == 10.0 * r.hop_count
        assert r.node_sequence[0] == "Sydney"
        assert r.node_sequence[-1] == "Sao Paulo"


def test_parallel_run_matches_serial(engine):
    cfg = short_cfg(1700.0, Mode.NNG, slots=12)
    serial_records, serial_summary = run_scenario(engine, cfg, parallelism=1)
    parallel_records, parallel_summary = run_scenario(engine, cfg, parallelism=2)
    assert serial_records == parallel_records
    assert serial_summary == parallel_summary


def test_compare_improvement_nonnegative_per_slot(engine):
    (result,) = compare_many(engine, [short_cfg(1700.0, slots=20)])
    assert result.ng_summary.slots_with_path == 20
    assert result.latency_improvement_ms is not None
    assert result.latency_improvement_ms > 0.0
    for ng, nng in zip(result.ng_records, result.nng_records):
        assert ng.slot_index == nng.slot_index
        if ng.path_found:
            assert nng.path_found
            assert nng.latency_ms <= ng.latency_ms + 1e-6


def test_compare_improvement_unavailable_when_ng_pathless(engine):
    (result,) = compare_many(engine, [short_cfg(659.5, slots=3)])
    assert result.ng_summary.slots_with_path == 0
    assert result.latency_improvement_ms is None
    assert result.hop_improvement is None


def test_identical_policies_give_zero_improvement(ring_engine):
    # both policies see the same single-plane ring, so the runs coincide
    over = GroundStation("over", 0.0, 0.4)
    off = GroundStation("off", 2.0, 8.0)
    cfg = ScenarioConfig(src=over, dst=off, lisl_range_km=1200.0, slot_count=8)
    (result,) = compare_many(ring_engine, [cfg])
    assert result.ng_records == result.nng_records
    if result.ng_summary.slots_with_path:
        assert result.latency_improvement_ms == 0.0
        assert result.hop_improvement == 0.0


def test_tiny_station_range_never_routes(engine):
    src = dataclasses.replace(SYDNEY, range_km=1e-3)
    dst = dataclasses.replace(SAO_PAULO, range_km=1e-3)
    rows = compare_many(engine, [short_cfg(r, slots=3, src=src, dst=dst)
                                 for r in (1319.0, 1700.0)])
    for row in rows:
        assert row.ng_summary.slots_with_path == 0
        assert row.nng_summary.slots_with_path == 0


def test_csv_emission(tmp_path, engine):
    cfg = short_cfg(1700.0, Mode.NNG, slots=3)
    records, summary = run_scenario(engine, cfg)
    slots_file = tmp_path / "slots.csv"
    write_slots_csv(slots_file, records)
    lines = slots_file.read_text().splitlines()
    assert lines[0] == "slot_index,path_found,latency_ms,propagation_ms,node_delay_ms,hop_count,path"
    assert len(lines) == 4
    assert lines[1].startswith("0,true,")
    assert ";" in lines[1].split(",")[-1]

    summary_file = tmp_path / "summary.csv"
    write_summary_csv(summary_file, [(cfg.name, cfg.mode, cfg.lisl_range_km, summary)])
    header, row = summary_file.read_text().splitlines()
    assert header == "scenario,mode,range_km,avg_latency_ms,avg_hops,slots_with_path,slot_count"
    assert row.startswith("Sydney-Sao Paulo,NNG,1700.000000,")

    comp_file = tmp_path / "compare.csv"
    write_comparison_csv(comp_file, cfg.name, compare_many(engine, [short_cfg(659.5, slots=2)]))
    header, row = comp_file.read_text().splitlines()
    assert "latency_improvement_ms" in header
    assert ",," in row  # NG averages unavailable -> empty fields


def test_csv_byte_reproducible(tmp_path, engine):
    cfg = short_cfg(1319.0, Mode.NNG, slots=4)
    records, _ = run_scenario(engine, cfg)
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_slots_csv(f1, records)
    records2, _ = run_scenario(engine, cfg, parallelism=2)
    write_slots_csv(f2, records2)
    assert f1.read_bytes() == f2.read_bytes()


def test_batch_matches_one_run_per_query(engine):
    """A mixed batch, with two slot grids, gives each query the records of
    its own run."""
    queries = [short_cfg(1700.0, Mode.NG, slots=5), short_cfg(5016.0, Mode.NNG, slots=5),
               short_cfg(1319.0, Mode.NNG, slots=5, src=BUNDLED_STATIONS[2],
                         dst=BUNDLED_STATIONS[3]),
               dataclasses.replace(short_cfg(1700.0, Mode.NNG, slots=4), slot_duration_s=2.5)]
    batch = run_scenarios(engine, queries, parallelism=2)
    assert len(batch) == len(queries)
    for cfg, (records, summary) in zip(queries, batch):
        assert (records, summary) == run_scenario(engine, cfg)


def test_compare_many_matches_one_run_per_policy(engine):
    """Each comparison holds the NG and NNG runs of its base config, in order."""
    bases = [short_cfg(1319.0, slots=3), short_cfg(5016.0, slots=3, src=BUNDLED_STATIONS[4],
                                                   dst=BUNDLED_STATIONS[5])]
    expected = []
    for base in bases:
        (ng, ng_summary), (nng, nng_summary) = (
            run_scenario(engine, dataclasses.replace(base, mode=mode)) for mode in Mode)
        expected.append(ComparisonResult(base.lisl_range_km, ng_summary, nng_summary,
                                         tuple(ng), tuple(nng)))
    assert compare_many(engine, bases) == expected


def test_workers_use_the_callers_engine(engine, monkeypatch):
    """The pool's workers inherit the engine; none of them builds one."""
    queries = [short_cfg(1700.0, Mode.NG, slots=6), short_cfg(1700.0, Mode.NNG, slots=6)]
    serial = run_scenarios(engine, queries)

    def refuse(*args, **kwargs):
        raise AssertionError("a LinkEngine was built")

    monkeypatch.setattr(LinkEngine, "__init__", refuse)
    assert run_scenarios(engine, queries, parallelism=2) == serial


# -- pruning by a guessed bound -----------------------------------------

def unpruned(engine, cfg):
    """Every slot of cfg routed in one pass, with no satellite dropped."""
    return [_route_slot(engine, cfg, i) for i in range(cfg.slot_count)]


@contextlib.contextmanager
def recorded_passes():
    """Every routing pass of evaluate_slot within the block, in order, as
    (query, slot index, alive mask or None, record)."""
    seen = []
    route = scenario._route_slot

    def recording(engine, cfg, slot_index, alive=None, instant=None):
        record = route(engine, cfg, slot_index, alive, instant)
        seen.append((cfg, slot_index, alive, record))
        return record

    scenario._route_slot = recording
    try:
        yield seen
    finally:
        scenario._route_slot = route


def accepted_passes(seen):
    """Per (query, slot index), the last pass, whose record evaluate_slot
    returned, and the number of passes."""
    last, count = {}, {}
    for cfg, i, alive, record in seen:
        last[(cfg, i)] = (alive, record)
        count[(cfg, i)] = count.get((cfg, i), 0) + 1
    return last, count


def bounds_at(engine, cfg, slot_index):
    instant = Instant(engine, slot_index * cfg.slot_duration_s)
    return lower_bounds(engine, cfg, instant.angle_beyond_reach(cfg.src),
                        instant.angle_beyond_reach(cfg.dst))


def path_satellites(engine, record):
    return [engine.constellation.flat_index(parse_id(name))
            for name in record.node_sequence[1:-1]]


def grazing_chord(engine):
    r_orbit = engine.constellation.spec.orbit_radius_km
    return 2.0 * math.sqrt(max(r_orbit**2 - engine.constants.occlusion_radius_km**2, 0.0))


@st.composite
def small_shell_queries(draw):
    """An engine on a random small shell, and a query of two stations on it:
    the stations lie within 60 degrees of each other in latitude and
    longitude, so that a small shell often connects them, or within 120;
    the stations' Earth radius may differ from the shell's; the range
    reaches beyond where line of sight binds, and the node delay down to
    nearly 0."""
    planes = draw(st.integers(1, 8))
    spec = ConstellationSpec(plane_count=planes, sats_per_plane=draw(st.integers(3, 30)),
                             phasing_offset=draw(st.integers(0, planes - 1)),
                             raan_spread_deg=draw(st.sampled_from([180.0, 360.0])))
    station_radius = spec.earth_radius_km + draw(st.sampled_from([0.0, -300.0, 150.0]))
    constants = PhysicalConstants(
        earth_radius_km=station_radius,
        node_delay_ms=draw(st.one_of(st.floats(1e-9, 1e-3), st.floats(1e-3, 20.0))))
    engine = LinkEngine(build_constellation(spec), constants)
    lat, lon = draw(st.floats(-90.0, 90.0)), draw(st.floats(-180.0, 180.0))
    spread = draw(st.sampled_from([60.0, 120.0]))
    dlat, dlon = (draw(st.floats(-spread, spread)) for _ in range(2))
    stations = [GroundStation(name, min(max(lat + dl, -90.0), 90.0),
                              (lon + dn + 180.0) % 360.0 - 180.0,
                              draw(st.floats(1000.0, 4000.0)))
                for name, dl, dn in (("s", 0.0, 0.0), ("d", dlat, dlon))]
    cfg = ScenarioConfig(*stations, lisl_range_km=draw(st.floats(0.1, 1.3)) * grazing_chord(engine),
                         mode=draw(st.sampled_from(list(Mode))),
                         slot_duration_s=draw(st.floats(1.0, 30.0)), slot_count=24)
    return engine, cfg


def proven_pathless(engine, cfg, slot_index):
    return engine.proven_pathless(Instant(engine, slot_index * cfg.slot_duration_s),
                                  cfg.lisl_range_km, cfg.mode, cfg.src, cfg.dst)


@settings(deadline=None, max_examples=150)
@given(case=small_shell_queries(), sibling_fraction=st.floats(0.3, 1.0))
def test_pruned_runs_equal_unpruned_slots(case, sibling_fraction):
    """On random small shells and stations, a query's records equal those of
    unpruned slots when it runs alone, and in a shared batch with the other
    policy at its range, the same policy at a shorter range and the
    reversed station pair. In each run, a slot with no path is proven
    pathless, after no pass or after pruned passes only, or ends with an
    unpruned pass; a slot with a path ends with an unpruned pass or with
    one whose mask keeps every satellite of the unpruned path and every
    satellite whose lower bound is at most the optimum, so its U was no
    less than the optimum."""
    engine, cfg = case
    other = dataclasses.replace(cfg, mode=Mode.NNG if cfg.mode is Mode.NG else Mode.NG)
    shorter = dataclasses.replace(cfg, lisl_range_km=sibling_fraction * cfg.lisl_range_km)
    reverse = dataclasses.replace(cfg, src=cfg.dst, dst=cfg.src, mode=Mode.NNG)
    batch = [cfg, other, shorter, reverse]
    expected = [unpruned(engine, query) for query in batch]
    with recorded_passes() as lone:
        assert run_scenarios(engine, [cfg])[0][0] == expected[0]  # pruned before measuring
    with recorded_passes() as shared:
        # pruned within a shared geometry
        assert [records for records, _ in run_scenarios(engine, batch)] == expected
    most, proven = 0, 0
    for seen, queries in ((lone, [cfg]), (shared, batch)):
        accepted, count = accepted_passes(seen)
        most = max(most, *count.values(), 0)
        for query in queries:
            for record in expected[batch.index(query)]:
                i = record.slot_index
                alive, last = accepted.get((query, i), (None, None))
                if not record.path_found:
                    if last is None or alive is not None:
                        assert proven_pathless(engine, query, i)
                        proven += 1
                    continue
                assert last == record
                if alive is None:
                    continue
                assert alive[path_satellites(engine, record)].all()
                assert alive[bounds_at(engine, query, i) <= record.latency_ms].all()
    event(f"most passes in a slot: {min(most, 4)}{'+' if most > 4 else ''}")
    event(f"slots with a path: {sum(r.path_found for r in expected[0]) > 0}")
    event(f"slots proven pathless: {proven > 0}")


@settings(deadline=None, max_examples=150)
@given(case=small_shell_queries())
def test_lower_bounds_never_exceed_the_optimum(case):
    """On every slot with a path, the lower bound of each satellite on the
    optimal path lies at or below the optimum."""
    engine, cfg = case
    closest = math.inf
    for record in unpruned(engine, cfg):
        if not record.path_found:
            continue
        highest = bounds_at(engine, cfg, record.slot_index)[path_satellites(engine, record)].max()
        assert highest <= record.latency_ms + 1e-9
        closest = min(closest, record.latency_ms - highest)
    event(f"the bound came within 1 ms of the optimum: {closest < 1.0}")


def test_any_last_latency_gives_the_unpruned_record(engine):
    """A last latency below the optimum, far above it or inf, or none at
    all, only changes the passes a slot takes, never its record. A guess
    below the optimum cannot be confirmed, so it takes a second pass; inf,
    whose slot the component proof leaves open, guesses as none does."""
    cfg = short_cfg(5016.0, Mode.NNG, slots=2)
    expected = _route_slot(engine, cfg, 1)
    low, high = 0.9 * expected.latency_ms, 3.0 * expected.latency_ms
    unpruned_passes = {}
    for last_ms in (low, high, math.inf, None):
        with recorded_passes() as seen:
            assert evaluate_slot(engine, cfg, 1, last_ms=last_ms) == expected
        unpruned_passes[last_ms] = [alive is None for _, _, alive, _ in seen]
    assert len(unpruned_passes[low]) >= 2
    assert len(unpruned_passes[high]) == 1
    # 10 % above the smallest bound holds here
    assert unpruned_passes[math.inf] == unpruned_passes[None] == [False]


def test_a_shared_instant_gives_a_lone_slots_record(engine):
    """One Instant reused by the queries of two ranges under both modes, a
    fresh Instant and none give each query the unpruned record, for no
    last latency, the optimum or inf. The NG and NNG queries of a range
    share the shared Instant's lower bounds."""
    shared = Instant(engine, 2.0)
    for rng_km in (1700.0, 5016.0):
        for mode in Mode:
            cfg = short_cfg(rng_km, mode, slots=3)
            expected = _route_slot(engine, cfg, 2)
            for last_ms in (None, expected.latency_ms, math.inf):
                assert evaluate_slot(engine, cfg, 2, last_ms, shared) == expected
                assert evaluate_slot(engine, cfg, 2, last_ms, Instant(engine, 2.0)) == expected
                assert evaluate_slot(engine, cfg, 2, last_ms) == expected
    assert set(shared.bounds) == {(SYDNEY, SAO_PAULO, 1700.0), (SYDNEY, SAO_PAULO, 5016.0)}


def test_chunk_starts_grow_their_guess(engine):
    """Madrid-Tokyo's optimum lies well above its smallest lower bound, as
    its great circle climbs above the shell's inclination. At a chunk's
    first slot, with no last latency, a guess that misses grows, so the
    slot takes at most three passes and none of them unpruned."""
    counts = []
    for rng_km in (1700.0, 5016.0):
        for mode in Mode:
            cfg = short_cfg(rng_km, mode, slots=1, src=BUNDLED_STATIONS[4],
                            dst=BUNDLED_STATIONS[5])
            expected = _route_slot(engine, cfg, 0)
            with recorded_passes() as seen:
                assert evaluate_slot(engine, cfg, 0) == expected
            assert all(alive is not None for _, _, alive, _ in seen)
            counts.append(len(seen))
    assert all(1 <= count <= 3 for count in counts) and max(counts) > 1


def test_pathless_study_queries_are_proven(engine):
    """Sydney-Sao Paulo NG at 659.5 and 1,319 km has no path: every slot is
    proven pathless, the first after its pruned guesses miss, the others
    before any pass, so no slot routes unpruned."""
    for rng_km in (659.5, 1319.0):
        cfg = short_cfg(rng_km, Mode.NG, slots=20)
        expected = unpruned(engine, cfg)
        assert not any(record.path_found for record in expected)
        with recorded_passes() as seen:
            assert run_scenario(engine, cfg)[0] == expected
        assert seen and all(alive is not None and i == 0 for _, i, alive, _ in seen)


def test_a_path_after_a_pathless_slot_is_guessed(engine):
    """A station at 60 deg N sees no satellite in some 20 s slots. Those
    slots are proven pathless, and a slot with a path after one without
    guesses U from its smallest lower bound, so no pass is unpruned."""
    north = GroundStation("north", 60.0, 10.0)
    for mode in Mode:
        cfg = short_cfg(1700.0, mode, slots=24, src=north, dst=BUNDLED_STATIONS[5])
        cfg = dataclasses.replace(cfg, slot_duration_s=20.0)
        expected = unpruned(engine, cfg)
        with recorded_passes() as seen:
            assert run_scenario(engine, cfg)[0] == expected
        assert all(alive is not None for _, _, alive, _ in seen)
        assert any(not a.path_found and b.path_found for a, b in zip(expected, expected[1:]))


@settings(deadline=None, max_examples=100)
@given(case=small_shell_queries())
def test_component_labels_prove_only_pathless_slots(case):
    """On random small shells, the component labels of a query's class mask
    partition the satellites as a union-find over every candidate pair of
    the mask does, and every slot that the proof calls pathless has no
    path when routed unpruned."""
    engine, cfg = case
    spec = engine.constellation.spec
    classes = engine.classes(cfg.lisl_range_km, cfg.mode)
    mask = classes.mask
    n = spec.plane_count * spec.sats_per_plane
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    plane, slot = np.divmod(np.arange(n), spec.sats_per_plane)
    for a in range(n):
        b = np.arange(a + 1, n)
        # The lower-plane endpoint reads the class; a plane offset never wraps.
        ds = np.where(plane[b] >= plane[a], slot[b] - slot[a], slot[a] - slot[b])
        for partner in b[mask[np.abs(plane[b] - plane[a]), ds % spec.sats_per_plane]]:
            parent[find(a)] = find(int(partner))
    roots = [find(x) for x in range(n)]
    labels = classes.labels
    assert len(set(labels)) == len(set(roots)) == len(set(zip(labels, roots)))
    records = unpruned(engine, cfg)
    proven = [i for i in range(cfg.slot_count) if proven_pathless(engine, cfg, i)]
    assert not any(records[i].path_found for i in proven)
    event(f"components: {min(len(set(roots)), 3)}{'+' if len(set(roots)) > 3 else ''}")
    event(f"slots proven pathless: {len(proven) > 0}")


def test_a_lone_slot_propagates_once(engine, monkeypatch):
    """A query alone at its instant propagates the shell once a slot, for
    its bounds and every pass, also when a slot takes a second pass. A
    batch of the 26 study queries propagates once an instant, and computes
    each station's position (and so its x.g over the shell), central
    angles and ground links at most once an instant, for the stations of
    the queries due then."""
    calls = []
    positions_at = Constellation.positions_at

    def counting(self, t):
        calls.append(t)
        return positions_at(self, t)

    monkeypatch.setattr(Constellation, "positions_at", counting)
    cfg = short_cfg(5016.0, Mode.NNG, slots=10)
    records, _ = run_scenario(engine, cfg)
    assert calls == [float(i) for i in range(10)]
    calls.clear()
    with recorded_passes() as seen:  # a guess below the optimum takes a second pass
        assert evaluate_slot(engine, cfg, 1, last_ms=0.9 * records[1].latency_ms) == records[1]
    assert len(seen) >= 2 and calls == [1.0]

    located, found = [], {}
    ground_station_position = links.ground_station_position

    def locating(gs, t, *args):
        located.append((t, gs))
        return ground_station_position(gs, t, *args)

    def counting(method):
        def counted(self, gs):
            # A computed result is a new object; a cached one is the same.
            result = method(self, gs)
            found.setdefault(method.__name__, {}).setdefault((self.time_s, gs), {})[
                id(result)] = result
            return result
        return counted

    monkeypatch.setattr(links, "ground_station_position", locating)
    for name in ("angle_beyond_reach", "ground_links"):
        monkeypatch.setattr(Instant, name, counting(getattr(Instant, name)))
    calls.clear()
    queries = study_queries(slots=5)
    run_scenarios(engine, queries)
    assert calls == [float(i) for i in range(5)]
    due = {(float(i), gs) for i in range(5) for q in queries for gs in (q.src, q.dst)}
    assert len(located) == len(set(located)) and set(located) == due
    assert set(found["angle_beyond_reach"]) <= due and set(found["ground_links"]) == due
    assert all(len(results) == 1 for per in found.values() for results in per.values())


def test_sibling_queries_share_lower_bounds(engine, monkeypatch):
    """The NG and NNG queries of one station pair and range share their
    lower bounds: over a batch of the 26 study queries, lower_bounds runs
    once per (src, dst, range) and instant at which one of its queries
    prunes, that is, at its first slot or after a slot with a path (a slot
    after one without is proven pathless before it prunes, in the study)."""
    instants, calls = [], []
    positions_at, lower_bounds_ = Constellation.positions_at, scenario.lower_bounds

    def propagating(self, t):
        instants.append(t)
        return positions_at(self, t)

    def counting(engine, cfg, src_angle, dst_angle):
        calls.append((instants[-1], cfg.src, cfg.dst, cfg.lisl_range_km))
        return lower_bounds_(engine, cfg, src_angle, dst_angle)

    monkeypatch.setattr(Constellation, "positions_at", propagating)
    monkeypatch.setattr(scenario, "lower_bounds", counting)
    queries = study_queries(slots=5)
    results = run_scenarios(engine, queries)
    pruning = {(float(i), cfg.src, cfg.dst, cfg.lisl_range_km)
               for cfg, (records, _) in zip(queries, results)
               for i in range(5) if i == 0 or records[i - 1].path_found}
    assert len(calls) == len(set(calls)) and set(calls) == pruning
    assert len({key for key in pruning if key[0] == 0.0}) == 13


def test_records_do_not_depend_on_chunk_starts(engine):
    """Serial and pooled runs guess from a last latency at different slots,
    yet give the unpruned records. Serially, every slot after the first
    takes at most two passes, and keeps under 10 % of the satellites."""
    cfg = short_cfg(5016.0, Mode.NNG, slots=40)
    expected = unpruned(engine, cfg)
    with recorded_passes() as seen:
        assert run_scenarios(engine, [cfg])[0][0] == expected
    accepted, count = accepted_passes(seen)
    assert all(count[(cfg, i)] <= 2 for i in range(1, 40))
    assert all(alive is not None and alive.mean() < 0.1 for alive, _ in accepted.values())
    assert run_scenarios(engine, [cfg], parallelism=2)[0][0] == expected


def study_queries(slots):
    """The paper's 26 queries: Sydney-Sao Paulo at seven ranges, three more
    city pairs at 1,700 and 5,016 km, each under NG and NNG."""
    pairs = [(SYDNEY, SAO_PAULO, DEFAULT_RANGES_KM)]
    pairs += [(BUNDLED_STATIONS[a], BUNDLED_STATIONS[b], (1700.0, 5016.0))
              for a, b in ((2, 3), (4, 5), (6, 7))]
    return [ScenarioConfig(src, dst, r, mode, slot_count=slots)
            for src, dst, ranges in pairs for r in ranges for mode in Mode]


def test_study_batch_equals_unpruned_slots(engine):
    """The 26 study queries give the records of unpruned slots run one query
    at a time, as one batch, and as one batch on two workers."""
    queries = study_queries(slots=4)
    expected = [unpruned(engine, cfg) for cfg in queries]
    assert [run_scenario(engine, cfg)[0] for cfg in queries] == expected
    assert [records for records, _ in run_scenarios(engine, queries)] == expected
    assert [records for records, _ in run_scenarios(engine, queries, parallelism=2)] == expected


def test_short_runs_get_one_chunk_a_worker():
    """Pool chunks hold at least five instants, or as many as give each
    worker one chunk, so most slots of a short run guess from a last
    latency;
    a run whose four chunks a worker hold five instants or more keeps them.
    Chunks cover the instants in order."""
    def sizes(count, parallelism):
        instants = [(float(i), [(0, i)]) for i in range(count)]
        chunks = _chunks(instants, parallelism)
        assert [instant for chunk in chunks for instant in chunk] == instants
        return [len(chunk) for chunk in chunks]

    assert sizes(10, 2) == [5, 5]
    assert sizes(3600, 2) == [450] * 8
    assert sizes(40, 2) == [5] * 8
    assert sizes(20, 2) == [5] * 4
    assert sizes(4, 2) == [2, 2]
    assert sizes(10, 4) == [3, 3, 3, 1]
