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
from fsosim.scenario import (SlotRecord, _PathBound, compare_many, evaluate_slot,
                             run_scenarios, summarize, write_comparison_csv, write_slots_csv,
                             write_summary_csv)

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


# -- pruning by the last path ------------------------------------------

def unpruned(engine, cfg):
    """Every slot of cfg routed on its own, with no bound."""
    return [evaluate_slot(engine, cfg, i) for i in range(cfg.slot_count)]


def path_satellites(engine, record):
    return [engine.constellation.flat_index(parse_id(name))
            for name in record.node_sequence[1:-1]]


@settings(deadline=None, max_examples=150)
@given(planes=st.integers(1, 8), slots=st.integers(3, 30), data=st.data(),
       raan_spread_deg=st.sampled_from([180.0, 360.0]), mode=st.sampled_from(list(Mode)),
       chord_fraction=st.floats(0.1, 1.3),
       node_delay_ms=st.one_of(st.floats(1e-9, 1e-3), st.floats(1e-3, 20.0)),
       slot_duration_s=st.floats(1.0, 30.0))
def test_pruned_runs_equal_unpruned_slots(planes, slots, data, raan_spread_deg, mode,
                                          chord_fraction, node_delay_ms, slot_duration_s):
    """On random small shells, station pairs, ranges up to where line of sight
    binds, and node delays down to nearly 0, a batch's records, pruned by
    each query's last path, equal those of unpruned slots; and whenever a
    bound forms, it is no less than the slot's optimum and keeps every
    satellite of the path found."""
    spec = ConstellationSpec(plane_count=planes, sats_per_plane=slots,
                             phasing_offset=data.draw(st.integers(0, planes - 1)),
                             raan_spread_deg=raan_spread_deg)
    engine = LinkEngine(build_constellation(spec), PhysicalConstants(node_delay_ms=node_delay_ms))
    r_orbit = spec.orbit_radius_km
    chord = 2.0 * math.sqrt(r_orbit**2 - engine.constants.occlusion_radius_km**2)
    # The destination lies within 60 degrees of the source in latitude and
    # longitude, so that a small shell often connects the two.
    lat, lon = data.draw(st.floats(-90.0, 90.0)), data.draw(st.floats(-180.0, 180.0))
    stations = [GroundStation(name, min(max(lat + dlat, -90.0), 90.0),
                              (lon + dlon + 180.0) % 360.0 - 180.0,
                              data.draw(st.floats(1000.0, 4000.0)))
                for name, dlat, dlon in (("s", 0.0, 0.0),
                                         ("d", data.draw(st.floats(-60.0, 60.0)),
                                          data.draw(st.floats(-60.0, 60.0))))]
    cfg = ScenarioConfig(*stations, lisl_range_km=chord_fraction * chord, mode=mode,
                         slot_duration_s=slot_duration_s, slot_count=24)
    expected = unpruned(engine, cfg)
    assert run_scenarios(engine, [cfg])[0][0] == expected  # pruned before measuring
    other = dataclasses.replace(cfg, mode=Mode.NNG if mode is Mode.NG else Mode.NG)
    shared = run_scenarios(engine, [cfg, other])  # pruned within a shared geometry
    assert shared[0][0] == expected
    assert shared[1][0] == unpruned(engine, other)
    formed = 0
    for last, record in zip(expected, expected[1:]):
        if not last.path_found:
            continue
        t = record.slot_index * cfg.slot_duration_s
        bound = _PathBound(engine, cfg, t, last.node_sequence)
        alive = bound(engine.constellation.positions_at(t))
        if alive is None:
            continue
        formed += 1
        assert record.path_found
        assert bound.upper_ms >= record.latency_ms - 1e-9
        assert alive[path_satellites(engine, record)].all()
    event(f"bounds formed: {'none' if not formed else 'some'}")


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


def test_records_do_not_depend_on_chunk_starts(engine, monkeypatch):
    """Serial and pooled runs start their bounds at different slots, yet give
    the unpruned records. Serially, every slot after the first tries a bound,
    which fails only where the last path has lost a link."""
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
    assert len(bounds) == 39 and len(formed) >= 30
    assert max(formed) < 0.6
    monkeypatch.undo()
    assert serial == expected
    assert run_scenarios(engine, [cfg], parallelism=2)[0][0] == expected
