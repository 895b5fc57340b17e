"""Tests of the benchmark's reference model and of its checks' power to
catch wrong outputs. Run with: python3 -m pytest benchmark/test_reference.py
"""
import json
import math
from pathlib import Path

import numpy as np
import pytest

import checks
import reference as ref
import run
from spans import LAYER_UNITS


def test_heap_dijkstra_hand_built_graph():
    # Stations 3 -> 4. One satellite (0) gives a 1-hop path of 1 + 10 + 50 ms;
    # two satellites (1, 2) give 1 + 10 + 1 + 10 + 1 = 23 ms, which must win.
    # Satellite 5 is unreachable.
    tails = [3, 0, 3, 1, 2, 2, 1]
    heads = [0, 4, 1, 2, 4, 1, 5]
    prop = [1.0, 50.0, 1.0, 1.0, 1.0, 1.0, 1.0]
    weights = [w + (10.0 if h < 3 or h == 5 else 0.0) for w, h in zip(prop, heads)]
    latency, path = ref.shortest_latency(6, tails, heads, weights, 3, 4)
    assert latency == pytest.approx(23.0)
    assert path == [3, 1, 2, 4]
    assert ref.shortest_latency(6, tails, heads, weights, 3, 5)[0] == pytest.approx(22.0)
    assert ref.shortest_latency(6, [3], [0], [1.0], 3, 4) is None


def test_closed_form_separation_matches_sampling():
    shell = ref.Shell()
    rng = np.random.default_rng(7)
    a = rng.integers(0, shell.count, 12)
    b = rng.integers(0, shell.count, 12)
    times = np.arange(0.0, shell.period_s, 0.5)
    sampled = np.linalg.norm(shell.track(a, times) - shell.track(b, times), axis=2).max(axis=1)
    closed = shell.max_separation_km(a, b)
    assert np.all(closed >= sampled - 1e-9)
    assert np.all(closed - sampled < 1e-2)


def test_permanent_degrees_match_the_paper():
    shell = ref.Shell()
    others = np.arange(1, shell.count)
    far = shell.max_separation_km(np.zeros_like(others), others)
    assert tuple(int((far <= r).sum()) for r in ref.RANGES_KM) == checks.PAPER_PERMANENT_DEGREES


def test_brute_force_links_respect_range_and_sight():
    shell = ref.Shell(planes=4, sats_per_plane=6, phasing=1)
    links = ref.satellite_links(shell, 30.0, max_range_km=20_000.0)
    pos = shell.positions(30.0)
    all_pairs = shell.count * (shell.count - 1) // 2
    assert 0 < len(links.a) < all_pairs  # antipodal pairs are blocked by the Earth
    assert np.all(ref.chord_clears(pos[links.a], pos[links.b], shell.occlusion_radius_km))
    assert np.allclose(np.linalg.norm(pos[links.a] - pos[links.b], axis=1), links.length_km)
    assert np.all(links.type_code[shell.plane_of(links.a) == shell.plane_of(links.b)] == 0)


@pytest.fixture(scope="module")
def real_slot():
    """A reference route at 5,016 km NNG, written as fsosim reports one."""
    shell = ref.Shell()
    links = ref.satellite_links(shell, 0.0)
    query = {"src": "Sydney", "dst": "Sao Paulo", "mode": "NNG", "range_km": 5016.0}
    latency, hops, path = ref.route(shell, links, 0.0, 5016.0, "NNG", "Sydney", "Sao Paulo", 0.0)
    record = {"slot_index": 0, "path_found": True, "latency_ms": latency,
              "propagation_ms": latency - 10.0 * hops, "node_delay_ms": 10.0 * hops,
              "hop_count": hops,
              "path": ["Sydney"] + [ref.satellite_name(shell, k) for k in path[1:-1]]
              + ["Sao Paulo"]}
    return shell, query, record


def _path_failures(shell, query, record):
    report = checks.Report()
    checks.check_path(report, "slot 0", shell, 0.0, 0.0, query, record, 0.0)
    return report.failures


def test_correct_path_passes(real_slot):
    assert _path_failures(*real_slot) == []


def test_corrupted_latency_is_caught(real_slot):
    shell, query, record = real_slot
    assert _path_failures(shell, query, dict(record, latency_ms=record["latency_ms"] + 1e-4))
    report = checks.Report()
    checks.check_reference_routes(report, shell, 0.0, 0, [query],
                                  [dict(record, latency_ms=record["latency_ms"] + 1e-5)])
    assert report.failures


def test_corrupted_path_is_caught(real_slot):
    shell, query, record = real_slot
    path = list(record["path"])
    path[1] = ref.satellite_name(shell, (ref.satellite_index(shell, path[1]) + 33) % shell.count)
    assert _path_failures(shell, query, dict(record, path=path))


def test_ng_hop_leaving_range_is_caught():
    shell = ref.Shell()
    report = checks.Report()
    checks.check_permanent_hops(report, shell, {(0, 1): 659.5, (0, 66 * 12): 5016.0})
    assert report.checked == 2 and len(report.failures) == 1
    assert math.isclose(shell.max_separation_km([0], [1])[0], 659.295, abs_tol=1e-3)


def test_benchmark_json_names_every_printed_metric():
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    phase = {"round_wall_s": [2.0, 1.0], "round_cpu_s": [2.0, 1.0], "peak_rss_mib": 100.0}
    printed = run.end_to_end({"slot_queries_per_round": 20}, phase, [1.0])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        {k: unit for k, (_, unit) in printed.items()}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(checks.CHECKS)
