"""Acceptance suite: one test per criterion, one printed pass/fail line each.

The latency criteria need full-hour runs (3,600 one-second slots) of the
Sydney-Sao Paulo sweep and of three more city pairs at 1,700 and 5,016 km;
those runs are shared through session fixtures and each executes exactly
once. Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""
import dataclasses
import math
import time

import numpy as np
import pytest

from fsosim import (BUNDLED_STATIONS, ConstellationSpec, LinkEngine, Mode,
                    ScenarioConfig, build_constellation, cli, great_circle_distance,
                    max_lisl_range, run_scenario)
from fsosim.links import degree_counts, link_census
from fsosim.orbital import SatelliteId
from fsosim.routing import shortest_path
from fsosim.scenario import DEFAULT_RANGES_KM
from fsosim.validation import (REFERENCE_PERMANENT_DEGREES, scan_phasing_offset,
                               slot_nearest_latitude, total_degree_profile)
from test_routing import oracle_shortest_path, random_graph

pytestmark = pytest.mark.acceptance

WORKERS = min(4, cli.usable_cpus())
SLOTS = 3600
FEASIBLE_RANGES = (1500.0, 1700.0, 2500.0, 3500.0, 5016.0)
NNG_AVG_LATENCY_MS = {1500.0: 171.61, 1700.0: 157.35, 2500.0: 124.17,
                      3500.0: 109.19, 5016.0: 90.89}
CITY_PAIRS = (("Toronto", "Istanbul"), ("Madrid", "Tokyo"), ("New York", "Jakarta"))


def report(number: int, ok: bool, detail: str) -> None:
    print(f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def station(name: str):
    return next(gs for gs in BUNDLED_STATIONS if gs.name == name)


@pytest.fixture(scope="session")
def pinned_offset():
    offset, _profiles = scan_phasing_offset(ConstellationSpec())
    return offset


@pytest.fixture(scope="session")
def acc_engine(pinned_offset):
    spec = dataclasses.replace(ConstellationSpec(), phasing_offset=pinned_offset)
    return LinkEngine(build_constellation(spec))


def _full_run(engine, src_name, dst_name, mode, range_km):
    cfg = ScenarioConfig(src=station(src_name), dst=station(dst_name),
                         lisl_range_km=range_km, mode=mode, slot_count=SLOTS)
    started = time.perf_counter()
    records, summary = run_scenario(engine, cfg, WORKERS)
    return records, summary, time.perf_counter() - started


@pytest.fixture(scope="session")
def syd_sao_runs(acc_engine):
    runs = {}
    for mode in (Mode.NG, Mode.NNG):
        for r in DEFAULT_RANGES_KM:
            runs[(mode, r)] = _full_run(acc_engine, "Sydney", "Sao Paulo", mode, r)
    return runs


@pytest.fixture(scope="session")
def city_runs(acc_engine):
    runs = {}
    for src, dst in CITY_PAIRS:
        for mode in (Mode.NG, Mode.NNG):
            for r in (1700.0, 5016.0):
                runs[(src, dst, mode, r)] = _full_run(acc_engine, src, dst, mode, r)
    return runs


def test_criterion_1_geometry_constants():
    spec = ConstellationSpec()
    chord = 2.0 * spec.orbit_radius_km * math.sin(math.pi / spec.sats_per_plane)
    max_range = max_lisl_range(550.0, 80.0)
    ok = abs(chord - 659.5) <= 1.0 and abs(max_range - 5016.0) <= 1.0
    report(1, ok, f"neighbor chord {chord:.2f} km (659.5 +/- 1); "
                  f"max link range {max_range:.2f} km (5016 +/- 1)")


def test_criterion_2_permanent_degree_census(pinned_offset, acc_engine):
    failures = []
    values = []
    for idx, (r, expected) in enumerate(zip(DEFAULT_RANGES_KM, REFERENCE_PERMANENT_DEGREES)):
        degs = degree_counts(acc_engine.snapshot(0.0, r, Mode.NG))
        lo, hi = int(degs.min()), int(degs.max())
        values.append(lo)
        tolerance = 0 if idx < 4 else 2
        if lo != hi:
            failures.append(f"degree not uniform at {r:g} km ({lo}..{hi})")
        elif abs(lo - expected) > tolerance:
            failures.append(f"{lo} at {r:g} km, expected {expected} +/- {tolerance}")
    report(2, not failures,
           f"phasing offset {pinned_offset}: degrees {values} vs "
           f"{list(REFERENCE_PERMANENT_DEGREES)}; " + ("; ".join(failures) or "all within tolerance"))


def test_criterion_3_temporary_connectivity_by_latitude(acc_engine):
    shell = acc_engine.constellation
    sat = SatelliteId(0, 0)
    slot_eq = slot_nearest_latitude(shell, sat, 0.0, SLOTS)
    slot_hi = slot_nearest_latitude(shell, sat, 47.33, SLOTS)
    eq = total_degree_profile(shell, float(slot_eq), DEFAULT_RANGES_KM, sat)
    hi = total_degree_profile(shell, float(slot_hi), DEFAULT_RANGES_KM, sat)
    idx = DEFAULT_RANGES_KM.index(1700.0)
    failures = []
    if abs(eq[idx] - 22) > 3:
        failures.append(f"equator degree {eq[idx]} vs 22 +/- 3")
    if abs(hi[idx] - 40) > 3:
        failures.append(f"47.33 deg degree {hi[idx]} vs 40 +/- 3")
    for r, e, h in zip(DEFAULT_RANGES_KM, eq, hi):
        if r >= 1319.0 and not h > e:
            failures.append(f"at {r:g} km high-latitude {h} not > equatorial {e}")
    report(3, not failures,
           f"slot {slot_eq} (lat~0): {eq[idx]} links; slot {slot_hi} (lat~47.33): "
           f"{hi[idx]} links at 1700 km; " + ("; ".join(failures) or "monotone by latitude"))


def test_criterion_4_census_ratio(acc_engine):
    ratios = []
    failures = []
    for r in DEFAULT_RANGES_KM:
        ng = link_census(acc_engine.snapshot(0.0, r, Mode.NG, BUNDLED_STATIONS))
        nng = link_census(acc_engine.snapshot(0.0, r, Mode.NNG, BUNDLED_STATIONS))
        ratio = nng.total_undirected / ng.total_undirected
        ratios.append(round(ratio, 2))
        if ratio < 2.0:
            failures.append(f"ratio {ratio:.2f} < 2.0 at {r:g} km")
    report(4, not failures, f"all-links/permanent-only totals ratio per range: {ratios}")


def test_criterion_5_path_feasibility(syd_sao_runs):
    failures = []
    ng_zero = {659.5: syd_sao_runs[(Mode.NG, 659.5)][1].slots_with_path,
               1319.0: syd_sao_runs[(Mode.NG, 1319.0)][1].slots_with_path}
    for r, n in ng_zero.items():
        if n != 0:
            failures.append(f"permanent-only at {r:g} km found {n} slots, expected 0")
    for r in DEFAULT_RANGES_KM[1:]:
        n = syd_sao_runs[(Mode.NNG, r)][1].slots_with_path
        if n != SLOTS:
            failures.append(f"all-links at {r:g} km found {n}/{SLOTS} slots")
    n_min = syd_sao_runs[(Mode.NNG, 659.5)][1].slots_with_path
    if not 1500 <= n_min <= 2700:
        failures.append(f"all-links at 659.5 km found {n_min} slots, expected 1500..2700")
    report(5, not failures,
           f"permanent-only slots at 659.5/1319 km: {list(ng_zero.values())}; "
           f"all-links slots at 659.5 km: {n_min}; " + ("; ".join(failures) or "as expected"))


def test_criterion_6_latency_magnitudes_and_trend(syd_sao_runs):
    failures = []
    nng_avgs = {r: syd_sao_runs[(Mode.NNG, r)][1].avg_latency_ms for r in FEASIBLE_RANGES}
    for r, expected in NNG_AVG_LATENCY_MS.items():
        got = nng_avgs[r]
        if abs(got - expected) > 0.30 * expected:
            failures.append(f"all-links avg {got:.2f} ms at {r:g} km vs {expected} +/- 30%")
    ordered = [nng_avgs[r] for r in FEASIBLE_RANGES]
    if not all(a > b for a, b in zip(ordered, ordered[1:])):
        failures.append(f"all-links averages not strictly decreasing: {ordered}")
    improvements = {}
    for r in FEASIBLE_RANGES:
        ng = syd_sao_runs[(Mode.NG, r)][1]
        improvement = ng.avg_latency_ms - nng_avgs[r]
        improvements[r] = improvement
        if improvement <= 0:
            failures.append(f"no improvement at {r:g} km ({improvement:.3f} ms)")
    if abs(improvements[1700.0] - 23.43) > 0.30 * 23.43:
        failures.append(f"1700 km improvement {improvements[1700.0]:.2f} ms vs 23.43 +/- 30%")
    best = max(improvements, key=improvements.get)
    if best not in (1500.0, 1700.0, 2500.0):
        failures.append(f"largest improvement at {best:g} km, expected within 1500/1700/2500")
    detail = ", ".join(f"{r:g}km {nng_avgs[r]:.2f}ms (+{improvements[r]:.2f})"
                       for r in FEASIBLE_RANGES)
    report(6, not failures, detail + ("; " + "; ".join(failures) if failures else ""))


def test_criterion_7_per_slot_dominance_and_accounting(syd_sao_runs, city_runs):
    failures = []
    all_pairs = [("Sydney", "Sao Paulo")] + list(CITY_PAIRS)

    def runs_for(src, dst, mode, r):
        if (src, dst) == ("Sydney", "Sao Paulo"):
            return syd_sao_runs[(mode, r)]
        return city_runs[(src, dst, mode, r)]

    checked = 0
    for src, dst in all_pairs:
        for r in (1700.0, 5016.0):
            ng_records = runs_for(src, dst, Mode.NG, r)[0]
            nng_records = runs_for(src, dst, Mode.NNG, r)[0]
            for ng, nng in zip(ng_records, nng_records):
                for rec in (ng, nng):
                    if rec.path_found:
                        if rec.latency_ms != rec.propagation_ms + rec.node_delay_ms:
                            failures.append(f"accounting identity broken at slot {rec.slot_index}")
                        if rec.node_delay_ms != 10.0 * rec.hop_count:
                            failures.append(f"node delay not 10*hops at slot {rec.slot_index}")
                if ng.path_found:
                    checked += 1
                    if not nng.path_found:
                        failures.append(f"{src}-{dst}@{r:g}: all-links missed slot {ng.slot_index}")
                    elif nng.latency_ms > ng.latency_ms + 1e-6:
                        failures.append(
                            f"{src}-{dst}@{r:g} slot {ng.slot_index}: "
                            f"{nng.latency_ms:.6f} > {ng.latency_ms:.6f}")
    # latency orders with terrestrial distance at both ranges
    for r in (1700.0, 5016.0):
        for mode in (Mode.NG, Mode.NNG):
            avgs = [runs_for(src, dst, mode, r)[1].avg_latency_ms for src, dst in CITY_PAIRS]
            if not (avgs[0] < avgs[1] < avgs[2]):
                failures.append(f"{mode.value}@{r:g}: averages {avgs} not ordered by distance")
    report(7, not failures,
           f"{checked} slot pairs dominance-checked across {len(all_pairs)} connections; "
           + ("; ".join(failures[:4]) or "all dominated with exact accounting"))


def test_criterion_8_station_distances():
    expected = {("Toronto", "Istanbul"): 8198.0, ("Madrid", "Tokyo"): 10778.0,
                ("New York", "Jakarta"): 16198.0}
    failures = []
    got = {}
    for (a, b), want in expected.items():
        sa, sb = station(a), station(b)
        d = great_circle_distance((sa.latitude_deg, sa.longitude_deg),
                                  (sb.latitude_deg, sb.longitude_deg), 6378.0)
        got[(a, b)] = round(d)
        if abs(d - want) > 0.01 * want:
            failures.append(f"{a}-{b}: {d:.0f} km vs {want:.0f} +/- 1%")
    report(8, not failures, f"great-circle distances {list(got.values())} km "
                            f"vs {[int(v) for v in expected.values()]}")


def test_criterion_9_routing_oracle():
    rng = np.random.default_rng(2024)
    mismatches = 0
    for _ in range(500):
        graph, src, dst = random_graph(rng)
        expected = oracle_shortest_path(graph, src, dst)
        got = shortest_path(graph, src, dst)
        if expected is None:
            if got is not None:
                mismatches += 1
        elif got is None or got.latency_ms != expected.latency_ms:
            mismatches += 1
    report(9, mismatches == 0, f"500 random graphs vs exhaustive oracle, "
                               f"{mismatches} latency mismatches")


def test_criterion_10_performance_envelope(syd_sao_runs):
    _records, summary, elapsed = syd_sao_runs[(Mode.NNG, 5016.0)]
    ok = elapsed < 600.0 and summary.slot_count == SLOTS
    report(10, ok, f"full 3600-slot all-links run at 5016 km took {elapsed:.1f} s "
                   f"on {WORKERS} workers (< 600 s)")
