import dataclasses
import heapq
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import csr_matrix

from fsosim import (BUNDLED_STATIONS, ConstellationSpec, GraphSnapshot, LinkEngine, Mode,
                    PathResult, PhysicalConstants, build_constellation)
from fsosim.routing import RouteGraph, _directed_arcs, shortest_path

LIGHT_MS_KM = 299.792458  # one light-millisecond
ORACLE_MAX_NODES = 12


def make_graph(is_satellite, edges, names=None):
    """edges: list of (u, v, length_km)."""
    is_satellite = np.asarray(is_satellite, dtype=bool)
    edge_u = np.array([e[0] for e in edges], dtype=np.int64)
    edge_v = np.array([e[1] for e in edges], dtype=np.int64)
    lengths = np.array([e[2] for e in edges], dtype=float)
    if names is None:
        names = [f"n{k}" for k in range(len(is_satellite))]
    return RouteGraph(is_satellite=is_satellite, edge_u=edge_u, edge_v=edge_v,
                      edge_length_km=lengths, name_of=list(names).__getitem__)


def random_graph(rng):
    """Random mixed graph with <= 12 nodes, >= 2 stations, random weights."""
    n = int(rng.integers(2, ORACLE_MAX_NODES + 1))
    n_gs = int(rng.integers(2, min(n, 4) + 1))
    kinds = np.array([True] * (n - n_gs) + [False] * n_gs)
    rng.shuffle(kinds)
    stations = np.nonzero(~kinds)[0]
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.45:
                edges.append((u, v, float(rng.uniform(1.0, 5000.0))))
    if not edges:
        edges.append((0, 1, float(rng.uniform(1.0, 5000.0))))
    graph = make_graph(kinds, edges)
    src, dst = (int(x) for x in rng.choice(stations, size=2, replace=False))
    return graph, src, dst


# -- reference routers, on the full arc list ---------------------------

def full_arc_reference(graph, src, dst):
    """Every edge in both directions, node delay on entering a satellite,
    then every arc through a station other than src or dst dropped."""
    prop = graph.edge_length_km * (1e6 / graph.c_mps)
    enter = np.where(graph.is_satellite, graph.node_delay_ms, 0.0)
    tails = np.concatenate([graph.edge_u, graph.edge_v])
    heads = np.concatenate([graph.edge_v, graph.edge_u])
    weights = np.concatenate([prop, prop]) + enter[heads]
    station = ~graph.is_satellite
    keep = ~(station[heads] & (heads != dst)) & ~(station[tails] & (tails != src))
    return tails[keep], heads[keep], weights[keep]


def node_of(graph, raw, node):
    """Index of a node given by name, or by index in a RouteGraph."""
    if isinstance(graph, GraphSnapshot):
        return graph.node_index(node)
    if isinstance(node, (int, np.integer)):
        return int(node)
    return [raw.name_of(k) for k in range(raw.node_count)].index(node)


def reference_arcs(graph, src, dst):
    """The RouteGraph of graph (a GraphSnapshot or a RouteGraph), the node
    indices of src and dst, and the full reference arcs between them."""
    raw = RouteGraph.from_snapshot(graph) if isinstance(graph, GraphSnapshot) else graph
    s, d = node_of(graph, raw, src), node_of(graph, raw, dst)
    assert s != d
    return raw, s, d, full_arc_reference(raw, s, d)


def path_result(graph, nodes):
    """The PathResult of a node path, its propagation delay summed link by
    link from the source, as shortest_path sums it."""
    length_of = {}
    for u, v, length in zip(graph.edge_u.tolist(), graph.edge_v.tolist(),
                            graph.edge_length_km.tolist()):
        length_of[(u, v)] = length_of[(v, u)] = length
    per_km = 1e6 / graph.c_mps
    prop_ms = 0.0
    for u, v in zip(nodes, nodes[1:]):
        prop_ms += length_of[(u, v)] * per_km
    hops = int(sum(1 for k in nodes if graph.is_satellite[k]))
    node_ms = graph.node_delay_ms * hops
    return PathResult(node_sequence=tuple(graph.name_of(k) for k in nodes), hop_count=hops,
                      propagation_delay_ms=prop_ms, node_delay_ms=node_ms,
                      latency_ms=prop_ms + node_ms)


def shortest_path_exact(graph, src, dst):
    """Reference heap Dijkstra with a total tie order: paths are ranked by
    (latency, hop count, node-index sequence), and the unique minimum under
    that order is returned, or None if dst is unreachable."""
    raw, s, d, (tails, heads, weights) = reference_arcs(graph, src, dst)
    order = np.argsort(tails, kind="stable")
    tails, heads, weights = tails[order], heads[order], weights[order]
    n = raw.node_count
    indptr = np.searchsorted(tails, np.arange(n + 1))
    sat = raw.is_satellite

    dist = [(math.inf, math.inf)] * n
    parent = [-1] * n
    dist[s] = (0.0, 0)
    heap = [(0.0, 0, s)]

    def path_to(node):
        nodes = [node]
        while nodes[-1] != s:
            nodes.append(parent[nodes[-1]])
        nodes.reverse()
        return nodes

    while heap:
        lat, hops, u = heapq.heappop(heap)
        if (lat, hops) > dist[u]:
            continue
        if u == d:
            break
        for k in range(indptr[u], indptr[u + 1]):
            v = int(heads[k])
            cand = (lat + float(weights[k]), hops + (1 if sat[v] else 0))
            if cand < dist[v]:
                dist[v] = cand
                parent[v] = u
                heapq.heappush(heap, (cand[0], cand[1], v))
            elif cand == dist[v] and parent[v] != u and path_to(u) < path_to(parent[v]):
                parent[v] = u
    if dist[d][0] == math.inf:
        return None
    return path_result(raw, path_to(d))


def oracle_shortest_path(graph, src, dst):
    """Exhaustive enumeration of every simple path, for graphs of at most
    ORACLE_MAX_NODES nodes, ranked as shortest_path_exact ranks them."""
    raw, s, d, arcs = reference_arcs(graph, src, dst)
    if raw.node_count > ORACLE_MAX_NODES:
        raise ValueError(f"oracle refuses graphs with more than {ORACLE_MAX_NODES} nodes")
    adjacency = {}
    for tail, head, weight in zip(*(a.tolist() for a in arcs)):
        adjacency.setdefault(tail, []).append((head, weight))
    for neighbors in adjacency.values():
        neighbors.sort()
    sat = raw.is_satellite
    best = None

    def walk(u, visited, lat, hops, trail):
        nonlocal best
        if u == d:
            if best is None or (lat, hops, tuple(trail)) < best:
                best = (lat, hops, tuple(trail))
            return
        for v, w in adjacency.get(u, ()):
            if v not in visited:
                trail.append(v)
                walk(v, visited | {v}, lat + w, hops + (1 if sat[v] else 0), trail)
                trail.pop()

    walk(s, {s}, 0.0, 0, [s])
    return None if best is None else path_result(raw, list(best[2]))


def test_direct_station_link_is_one_light_millisecond():
    graph = make_graph([False, False], [(0, 1, LIGHT_MS_KM)], names=["gs1", "gs2"])
    result = shortest_path(graph, "gs1", "gs2")
    assert result.latency_ms == 1.0
    assert result.hop_count == 0
    assert result.node_sequence == ("gs1", "gs2")


def test_one_satellite_relay_accounting():
    graph = make_graph([False, True, False],
                       [(0, 1, LIGHT_MS_KM), (1, 2, LIGHT_MS_KM)],
                       names=["gs1", "satA", "gs2"])
    result = shortest_path(graph, "gs1", "gs2")
    assert result.propagation_delay_ms == pytest.approx(2.0, abs=1e-12)
    assert result.node_delay_ms == 10.0
    assert result.latency_ms == pytest.approx(12.0, abs=1e-12)
    assert result.hop_count == 1


def test_nine_hop_chain_accounting():
    # nine satellites, total propagation 52.24 ms -> latency 142.24 ms
    kinds = [False] + [True] * 9 + [False]
    per_link_km = 52.24 / 10.0 * LIGHT_MS_KM
    edges = [(k, k + 1, per_link_km) for k in range(10)]
    result = shortest_path(make_graph(kinds, edges), 0, 10)
    assert result.hop_count == 9
    assert result.node_delay_ms == 90.0
    assert result.propagation_delay_ms == pytest.approx(52.24, abs=1e-9)
    assert result.latency_ms == pytest.approx(142.24, abs=1e-9)
    assert result.latency_ms == result.propagation_delay_ms + result.node_delay_ms


def test_disconnected_returns_none():
    graph = make_graph([False, True, False], [(0, 1, 100.0)])
    assert shortest_path(graph, 0, 2) is None
    assert shortest_path_exact(graph, 0, 2) is None
    assert oracle_shortest_path(graph, 0, 2) is None


def test_single_edge_graph_oracle():
    graph = make_graph([False, False], [(0, 1, 500.0)])
    assert oracle_shortest_path(graph, 0, 1).node_sequence == ("n0", "n1")


def test_same_endpoints_rejected():
    graph = make_graph([False, False], [(0, 1, 500.0)])
    with pytest.raises(ValueError):
        shortest_path(graph, 0, 0)


def test_unknown_node_rejected():
    graph = make_graph([False, False], [(0, 1, 500.0)])
    with pytest.raises(KeyError):
        shortest_path(graph, "gs1", "nope")
    with pytest.raises(KeyError):
        shortest_path(graph, 0, 7)


def test_oracle_refuses_large_graphs():
    kinds = [False] * 13
    edges = [(k, k + 1, 10.0) for k in range(12)]
    with pytest.raises(ValueError):
        oracle_shortest_path(make_graph(kinds, edges), 0, 12)


def test_paths_do_not_route_through_stations():
    # the free station in the middle must not be used as a relay
    graph = make_graph(
        [False, False, False, True],
        [(0, 1, 10.0), (1, 2, 10.0), (0, 3, 10.0), (3, 2, 10.0)],
        names=["src", "mid", "dst", "sat"])
    for impl in (shortest_path, shortest_path_exact, oracle_shortest_path):
        result = impl(graph, "src", "dst")
        assert result.node_sequence == ("src", "sat", "dst")


def test_oracle_equivalence_500_random_graphs():
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 500:
        graph, src, dst = random_graph(rng)
        expected = oracle_shortest_path(graph, src, dst)
        got_fast = shortest_path(graph, src, dst)
        got_exact = shortest_path_exact(graph, src, dst)
        if expected is None:
            assert got_fast is None and got_exact is None
        else:
            assert got_fast.latency_ms == expected.latency_ms
            assert got_exact.latency_ms == expected.latency_ms
            # the reference implementation shares the oracle's full tie order
            assert got_exact.node_sequence == expected.node_sequence
            assert got_exact.hop_count == expected.hop_count
        checked += 1


def test_superset_monotonicity_random_graphs():
    rng = np.random.default_rng(77)
    for _ in range(100):
        graph, src, dst = random_graph(rng)
        base = oracle_shortest_path(graph, src, dst)
        if base is None:
            continue
        # drop a random edge -> latency can only get worse
        drop = int(rng.integers(len(graph.edge_u)))
        keep = np.ones(len(graph.edge_u), dtype=bool)
        keep[drop] = False
        sub = RouteGraph(is_satellite=graph.is_satellite,
                         edge_u=graph.edge_u[keep], edge_v=graph.edge_v[keep],
                         edge_length_km=graph.edge_length_km[keep],
                         name_of=graph.name_of)
        worse = oracle_shortest_path(sub, src, dst)
        if worse is not None:
            assert worse.latency_ms >= base.latency_ms - 1e-12


def test_node_delay_scales_with_hops():
    rng = np.random.default_rng(5)
    for _ in range(50):
        graph, src, dst = random_graph(rng)
        for delay in (0.0, 10.0, 25.0):
            result = shortest_path(dataclasses.replace(graph, node_delay_ms=delay), src, dst)
            if result is None:
                continue
            assert result.node_delay_ms == delay * result.hop_count
            assert result.latency_ms == result.propagation_delay_ms + result.node_delay_ms


# -- on real snapshots --------------------------------------------------

@pytest.fixture(scope="module")
def routed_snapshot(engine):
    return engine.snapshot(0.0, 1700.0, Mode.NNG, BUNDLED_STATIONS[:2])


def test_snapshot_fast_vs_exact(engine, routed_snapshot):
    fast = shortest_path(routed_snapshot, "Sydney", "Sao Paulo")
    exact = shortest_path_exact(routed_snapshot, "Sydney", "Sao Paulo")
    assert fast is not None and exact is not None
    assert fast.latency_ms == pytest.approx(exact.latency_ms, rel=1e-12)


def test_snapshot_path_is_valid(routed_snapshot):
    result = shortest_path(routed_snapshot, "Sydney", "Sao Paulo")
    names = result.node_sequence
    assert names[0] == "Sydney" and names[-1] == "Sao Paulo"
    assert result.hop_count == len(names) - 2
    edge_set = set()
    for a, b in zip(routed_snapshot.sat_a.tolist(), routed_snapshot.sat_b.tolist()):
        edge_set.add((a, b))
        edge_set.add((b, a))
    n_sat = routed_snapshot.satellite_count
    for gi, si in zip(routed_snapshot.gs_station_index.tolist(),
                      routed_snapshot.gs_sat_index.tolist()):
        edge_set.add((n_sat + gi, si))
        edge_set.add((si, n_sat + gi))
    idx = [routed_snapshot.node_index(name) for name in names]
    for u, v in zip(idx, idx[1:]):
        assert (u, v) in edge_set


def test_snapshot_propagation_lower_bound(routed_snapshot):
    result = shortest_path(routed_snapshot, "Sydney", "Sao Paulo")
    src_pos, dst_pos = routed_snapshot.gs_positions  # Sydney, Sao Paulo
    chord_ms = np.linalg.norm(src_pos - dst_pos) * 1e6 / routed_snapshot.constants.c_mps
    assert result.propagation_delay_ms >= chord_ms


def test_snapshot_node_delay_comes_from_its_constants(shell):
    """A snapshot charges its own constants' node delay per hop, not a
    default of the router's."""
    engine = LinkEngine(shell, PhysicalConstants(node_delay_ms=5.0))
    snap = engine.snapshot(0.0, 1700.0, Mode.NNG, BUNDLED_STATIONS[:2])
    result = shortest_path(snap, "Sydney", "Sao Paulo")
    assert result.hop_count > 0
    assert result.node_delay_ms == 5.0 * result.hop_count
    assert result.latency_ms == result.propagation_delay_ms + result.node_delay_ms
    assert RouteGraph.from_snapshot(snap).node_delay_ms == 5.0


def test_snapshot_superset_latency_dominance(engine):
    for t in (0.0, 1200.0):
        ng = engine.snapshot(t, 1700.0, Mode.NG, BUNDLED_STATIONS[:2])
        nng = engine.snapshot(t, 1700.0, Mode.NNG, BUNDLED_STATIONS[:2])
        lat_ng = shortest_path(ng, "Sydney", "Sao Paulo").latency_ms
        lat_nng = shortest_path(nng, "Sydney", "Sao Paulo").latency_ms
        assert lat_nng <= lat_ng + 1e-6


# -- arc lists against the full-arc reference -----------------------------

def assert_same_csr(graph, src, dst):
    n = graph.node_count
    matrices = [csr_matrix((w, (t, h)), shape=(n, n))
                for t, h, w in (full_arc_reference(graph, src, dst),
                                _directed_arcs(graph, src, dst))]
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(matrices[0], name), getattr(matrices[1], name)), name


def assert_canonical_arc_order(graph, src, dst):
    """Grouping the arcs by tail, stably, as scipy's compressed build does,
    orders them by (tail, head) with no pair repeated: the CSR it gives is
    canonical before any sort."""
    tails, heads, weights = _directed_arcs(graph, src, dst)
    by_tail = np.argsort(tails, kind="stable")
    assert np.array_equal(by_tail, np.lexsort((heads, tails)))
    n = graph.node_count
    indptr = np.concatenate([[0], np.cumsum(np.bincount(tails, minlength=n))])
    assert csr_matrix((weights[by_tail], heads[by_tail], indptr),
                      shape=(n, n)).has_canonical_format


def assert_snapshot_arcs(snap):
    """The snapshot's arcs come in canonical order and build the reference
    CSR, from its first station to its second and from its third to its
    first."""
    graph = RouteGraph.from_snapshot(snap)
    assert graph.edge_u.dtype == graph.edge_v.dtype == np.int32
    n_sat = snap.satellite_count
    for src, dst in ((n_sat, n_sat + 1), (n_sat + 2, n_sat)):
        assert_canonical_arc_order(graph, src, dst)
        assert_same_csr(graph, src, dst)


@pytest.mark.parametrize("range_km", [1700.0, 5016.0])
@pytest.mark.parametrize("mode", list(Mode))
def test_snapshot_arcs_build_the_reference_csr(engine, range_km, mode):
    assert_snapshot_arcs(engine.snapshot(0.0, range_km, mode, BUNDLED_STATIONS[:3]))


# Stations that reach far enough to link to the satellites of sparse shells.
FAR_STATIONS = tuple(dataclasses.replace(gs, range_km=6000.0) for gs in BUNDLED_STATIONS[:3])


@settings(deadline=None, max_examples=60)
@given(planes=st.integers(1, 8), slots=st.integers(3, 30), data=st.data(),
       raan_spread_deg=st.sampled_from([180.0, 360.0]), mode=st.sampled_from(list(Mode)),
       chord_fraction=st.floats(0.1, 1.3), t=st.floats(0.0, 6000.0))
def test_small_shell_arcs_build_the_reference_csr(planes, slots, data, raan_spread_deg, mode,
                                                  chord_fraction, t):
    """Random Walker shells, at ranges on both sides of the grazing chord."""
    spec = ConstellationSpec(plane_count=planes, sats_per_plane=slots,
                             phasing_offset=data.draw(st.integers(0, planes - 1)),
                             raan_spread_deg=raan_spread_deg)
    engine = LinkEngine(build_constellation(spec))
    chord = 2.0 * math.sqrt(spec.orbit_radius_km**2 - engine.constants.occlusion_radius_km**2)
    assert_snapshot_arcs(engine.snapshot(t, chord_fraction * chord, mode, FAR_STATIONS))


def test_snapshot_csr_is_never_sorted(engine, monkeypatch):
    """shortest_path hands scipy a snapshot's arcs in an order that needs no sort."""
    def refuse(self):
        raise AssertionError("scipy sorted the arcs of a snapshot")

    monkeypatch.setattr(csr_matrix, "sort_indices", refuse)
    snap = engine.snapshot(0.0, 5016.0, Mode.NNG, BUNDLED_STATIONS[:2])
    assert shortest_path(snap, "Sydney", "Sao Paulo") is not None


@pytest.mark.parametrize("edges", [
    [(3, 0, 10.0), (0, 1, 5.0), (4, 1, 7.0), (2, 1, 3.0)],  # stations as edge_u
    [(0, 3, 10.0), (0, 1, 5.0), (1, 4, 7.0), (1, 2, 3.0)],  # stations as edge_v
    [(3, 4, 30.0), (2, 3, 4.0), (0, 2, 9.0), (0, 1, 5.0)],  # station-station edges
], ids=["station-u", "station-v", "station-station"])
def test_hand_built_arcs_build_the_reference_csr(edges):
    graph = make_graph([True, True, False, False, False], edges)
    for src, dst in itertools.permutations([2, 3, 4], 2):
        for delay in (0.0, 10.0):
            assert_same_csr(dataclasses.replace(graph, node_delay_ms=delay), src, dst)
