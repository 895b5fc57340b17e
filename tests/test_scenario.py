import dataclasses
import math

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from fsosim import (BUNDLED_STATIONS, ComparisonResult, ConstellationSpec, GroundStation,
                    LinkEngine, Mode, PhysicalConstants, ScenarioConfig, build_constellation,
                    run_scenario)
from fsosim.errors import ConfigurationError
from fsosim.orbital import parse_id
from fsosim.scenario import (DEFAULT_RANGES_KM, SlotRecord, _chunks, _PathBound, compare_many,
                             evaluate_slot, run_scenarios, summarize, write_comparison_csv,
                             write_slots_csv, write_summary_csv)

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


# -- pruning by a path ------------------------------------------------

def unpruned(engine, cfg):
    """Every slot of cfg routed on its own, with no bound."""
    return [evaluate_slot(engine, cfg, i) for i in range(cfg.slot_count)]


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


@settings(deadline=None, max_examples=150)
@given(case=small_shell_queries(), sibling_fraction=st.floats(0.3, 1.0))
def test_pruned_runs_equal_unpruned_slots(case, sibling_fraction):
    """On random small shells and stations, a query's records equal those of
    unpruned slots when it runs alone, bounded by its last path or, for
    NNG, by its NG pilot; and in a shared batch, where it and its siblings
    (the other policy at its range, the same policy at a shorter range, and
    the reversed station pair, which has no sibling) are bounded by last
    paths, by each other's paths and by pilots. Whenever a bound forms from
    any of these paths, the slot has a path, and the bound is no less than
    the slot's optimum and keeps every satellite of the path found."""
    engine, cfg = case
    other = dataclasses.replace(cfg, mode=Mode.NNG if cfg.mode is Mode.NG else Mode.NG)
    shorter = dataclasses.replace(cfg, lisl_range_km=sibling_fraction * cfg.lisl_range_km)
    reverse = dataclasses.replace(cfg, src=cfg.dst, dst=cfg.src, mode=Mode.NNG)
    batch = [cfg, other, shorter, reverse]
    expected = [unpruned(engine, query) for query in batch]
    assert run_scenarios(engine, [cfg])[0][0] == expected[0]  # pruned before measuring
    shared = run_scenarios(engine, batch)  # pruned within a shared geometry
    assert [records for records, _ in shared] == expected
    formed = set()
    for i, record in enumerate(expected[0]):
        t = record.slot_index * cfg.slot_duration_s
        positions = engine.constellation.positions_at(t)
        sources = {"last": expected[0][i - 1] if i else None, "other": expected[1][i],
                   "shorter": expected[2][i]}
        for source, given in sources.items():
            if given is None or not given.path_found:
                continue
            bound = _PathBound(engine, cfg, t, given.node_sequence)
            alive = bound(positions)
            if alive is None:
                continue
            formed.add(source)
            assert record.path_found
            assert bound.upper_ms >= record.latency_ms - 1e-9
            assert alive[path_satellites(engine, record)].all()
    event(f"bounds formed from: {sorted(formed) or 'none'}")
    event(f"slots with a path: {sum(r.path_found for r in expected[0]) > 0}")


@settings(deadline=None, max_examples=150)
@given(case=small_shell_queries())
def test_lower_bounds_never_exceed_the_optimum(case):
    """On every slot with a path, both lower bounds of each satellite on the
    optimal path lie at or below the optimum."""
    engine, cfg = case
    closest = math.inf
    for record in unpruned(engine, cfg):
        if not record.path_found:
            continue
        t = record.slot_index * cfg.slot_duration_s
        chord, arc = _PathBound(engine, cfg, t).lower_bounds(engine.constellation.positions_at(t))
        sats = path_satellites(engine, record)
        assert chord[sats].max() <= record.latency_ms + 1e-9
        assert arc[sats].max() <= record.latency_ms + 1e-9
        closest = min(closest, record.latency_ms - arc[sats].max())
    event(f"the arc bound came within 1 ms of the optimum: {closest < 1.0}")


def test_a_broken_last_path_forms_no_bound(engine):
    """The last path bounds a slot only while each of its links holds: with
    a ground link or a satellite link lost, the slot routes unpruned."""
    cfg = short_cfg(5016.0, Mode.NNG, slots=2)
    last = evaluate_slot(engine, cfg, 0)
    positions = engine.constellation.positions_at(1.0)
    assert _PathBound(engine, cfg, 1.0, last.node_sequence)(positions) is not None
    sats = path_satellites(engine, last)
    assert len(sats) >= 2
    longest = float(np.max(np.linalg.norm(np.diff(positions[sats], axis=0), axis=1)))
    broken = [dataclasses.replace(cfg, src=dataclasses.replace(SYDNEY, range_km=1.0)),
              dataclasses.replace(cfg, lisl_range_km=longest - 1e-3)]
    for lost in broken:
        bound = _PathBound(engine, lost, 1.0, last.node_sequence)
        assert bound(positions) is None
        assert bound.upper_ms is None
        pruned = engine.snapshot(1.0, lost.lisl_range_km, Mode.NNG, (lost.src, lost.dst),
                                 prune=bound)
        whole = engine.snapshot(1.0, lost.lisl_range_km, Mode.NNG, (lost.src, lost.dst))
        assert np.array_equal(pruned.sat_a, whole.sat_a)
        assert np.array_equal(pruned.gs_sat_index, whole.gs_sat_index)
        assert evaluate_slot(engine, lost, 1, prune=bound) == evaluate_slot(engine, lost, 1)


def test_a_temporary_link_bounds_no_ng_slot(engine):
    """A path bounds a query only if each of its links is one of the query's:
    an NNG path that holds a temporary link, though within range and in
    sight, forms no bound for NG at the same range and slot, and the next
    candidate, the NG path, forms one."""
    nng, ng = (short_cfg(1700.0, mode, slots=1) for mode in (Mode.NNG, Mode.NG))
    nng_path, ng_path = (evaluate_slot(engine, cfg, 0) for cfg in (nng, ng))
    snap = engine.snapshot(0.0, 1700.0, Mode.NNG, (SYDNEY, SAO_PAULO))
    sats = path_satellites(engine, nng_path)
    on_path = {tuple(sorted(pair)) for pair in zip(sats, sats[1:])}
    temporary = [(a, b) in on_path for a, b, permanent
                 in zip(snap.sat_a.tolist(), snap.sat_b.tolist(), snap.sat_permanent)
                 if not permanent]
    assert any(temporary)
    positions = engine.constellation.positions_at(0.0)
    assert engine.chain_lengths(sats, positions, 1700.0, Mode.NNG, 1e-6) is not None
    assert engine.chain_lengths(sats, positions, 1700.0, Mode.NG, 1e-6) is None
    bound = _PathBound(engine, ng, 0.0, nng_path.node_sequence)
    assert bound(positions) is None and bound.upper_ms is None
    bound = _PathBound(engine, ng, 0.0, nng_path.node_sequence, ng_path.node_sequence)
    assert bound(positions) is not None
    assert bound.upper_ms == pytest.approx(ng_path.latency_ms, abs=1e-9)


def test_records_do_not_depend_on_chunk_starts(engine, monkeypatch):
    """Serial and pooled runs start their bounds at different slots, yet give
    the unpruned records. Serially, every slot tries a bound: the first
    from its NG pilot, the rest from the last path, or from the pilot
    where the last path lost a link."""
    cfg = short_cfg(5016.0, Mode.NNG, slots=40)
    expected = unpruned(engine, cfg)
    bounds = []
    call = _PathBound.__call__

    def recording(self, positions):
        alive = call(self, positions)
        bounds.append(None if alive is None else alive.mean())
        return alive

    monkeypatch.setattr(_PathBound, "__call__", recording)
    serial = run_scenarios(engine, [cfg])[0][0]
    formed = [share for share in bounds if share is not None]
    assert len(bounds) == 40 and len(formed) >= 38
    assert max(formed) < 0.1
    monkeypatch.undo()
    assert serial == expected
    assert run_scenarios(engine, [cfg], parallelism=2)[0][0] == expected


def study_queries(slots):
    """The paper's 26 queries: Sydney-Sao Paulo at seven ranges, three more
    city pairs at 1,700 and 5,016 km, each under NG and NNG."""
    pairs = [(SYDNEY, SAO_PAULO, DEFAULT_RANGES_KM)]
    pairs += [(BUNDLED_STATIONS[a], BUNDLED_STATIONS[b], (1700.0, 5016.0))
              for a, b in ((2, 3), (4, 5), (6, 7))]
    return [ScenarioConfig(src, dst, r, mode, slot_count=slots)
            for src, dst, ranges in pairs for r in ranges for mode in Mode]


def test_study_batch_bounds_slots_by_siblings(engine, monkeypatch):
    """In a batch of the 26 study queries, queries with no last path take
    their bounds from the paths that queries with fewer links found at the
    same instant, or from a pilot; the records equal those of one-query
    runs and of unpruned slots, serially and on two workers."""
    queries = study_queries(slots=4)
    expected = [unpruned(engine, cfg) for cfg in queries]
    assert [run_scenario(engine, cfg)[0] for cfg in queries] == expected
    first = []
    call = _PathBound.__call__

    def recording(self, positions):
        alive = call(self, positions)
        if self.t == 0.0:
            first.append((len(self.paths), self.pilot is not None, alive is not None))
        return alive

    monkeypatch.setattr(_PathBound, "__call__", recording)
    assert [records for records, _ in run_scenarios(engine, queries)] == expected
    # At the first instant, 19 queries find a sibling path, and each forms a
    # bound. The other 7 are the smallest NG query of each city pair, the
    # Sydney-Sao Paulo NG queries at 1,319 and 1,500 km, whose subsets found
    # no path, and NNG at 659.5 km, whose NG sibling found none, so it needs
    # no pilot either.
    assert len(first) == 19
    assert all(paths == 1 and not pilot and formed for paths, pilot, formed in first)
    monkeypatch.undo()
    assert [records for records, _ in run_scenarios(engine, queries, parallelism=2)] == expected


def test_short_runs_get_one_chunk_a_worker():
    """Pool chunks hold at least five instants, or as many as give each
    worker one chunk, so a short run's last paths bound most of its slots;
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
