import dataclasses
import heapq
import itertools
import math
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import csr_matrix

from fsosim import (BUNDLED_STATIONS, ConstellationSpec, LinkEngine, Mode, PathResult,
                    PhysicalConstants, build_constellation)
from fsosim.geometry import NODE_DELAY_MS, SPEED_OF_LIGHT_MPS
from fsosim.links import degree_counts
from fsosim.routing import _directed_arcs, _link_lengths, shortest_path
from test_links import masked_shells

LIGHT_MS_KM = 299.792458  # one light-millisecond
ORACLE_MAX_NODES = 12
SAT_FIELDS = ("sat_a", "sat_b", "sat_length_km")
GROUND_FIELDS = ("gs_station_index", "gs_sat_index", "gs_length_km")


def route_snapshot(satellites, stations, sat_links, ground_links, node_delay_ms=NODE_DELAY_MS):
    """A snapshot-shaped namespace holding what shortest_path reads of a
    GraphSnapshot: the named satellites are nodes 0..N-1 and the named
    stations follow. sat_links are (a, b, km) by satellite index and
    ground_links (station, satellite, km) by station and satellite index,
    each in any order."""
    names = [*satellites, *stations]
    columns = {}
    for fields, links in ((SAT_FIELDS, sat_links), (GROUND_FIELDS, ground_links)):
        for k, (name, dtype) in enumerate(zip(fields, (np.int32, np.int32, float))):
            columns[name] = np.array([link[k] for link in links], dtype=dtype)
    return types.SimpleNamespace(
        satellite_count=len(satellites), node_count=len(names), **columns,
        constants=types.SimpleNamespace(c_mps=SPEED_OF_LIGHT_MPS, node_delay_ms=node_delay_ms),
        node_name=names.__getitem__, node_index={n: k for k, n in enumerate(names)}.__getitem__)


def make_graph(satellites, stations, links, node_delay_ms=NODE_DELAY_MS):
    """route_snapshot from links (x, y, km) between named nodes, in the order
    and orientation given; a link at a station is that station's ground link."""
    n_sat = len(satellites)
    index = {name: k for k, name in enumerate([*satellites, *stations])}
    sat_links, ground_links = [], []
    for x, y, km in links:
        u, v = index[x], index[y]
        if u < n_sat and v < n_sat:
            sat_links.append((u, v, km))
        else:
            station, sat = (u, v) if u >= n_sat else (v, u)
            assert sat < n_sat, "a station links only to satellites"
            ground_links.append((station - n_sat, sat, km))
    return route_snapshot(satellites, stations, sat_links, ground_links, node_delay_ms)


def with_node_delay(graph, node_delay_ms):
    constants = types.SimpleNamespace(c_mps=graph.constants.c_mps, node_delay_ms=node_delay_ms)
    return types.SimpleNamespace(**{**vars(graph), "constants": constants})


def drop_link(graph, k):
    """graph without its k-th link, counting its satellite links first."""
    fields, n = dict(vars(graph)), len(graph.sat_a)
    names, j = (SAT_FIELDS, k) if k < n else (GROUND_FIELDS, k - n)
    for name in names:
        fields[name] = np.delete(fields[name], j)
    return types.SimpleNamespace(**fields)


def random_graph(rng):
    """Random snapshot-shaped graph of at most 12 nodes, 2 to 4 of them
    stations, with random links and lengths, and two of its stations."""
    n = int(rng.integers(2, ORACLE_MAX_NODES + 1))
    n_gs = int(rng.integers(2, min(n, 4) + 1))
    n_sat = n - n_gs

    def drawn(pairs):
        return [(u, v, float(rng.uniform(1.0, 5000.0))) for u, v in pairs if rng.random() < 0.45]

    sat_links = drawn(itertools.combinations(range(n_sat), 2))
    ground_links = drawn(itertools.product(range(n_gs), range(n_sat)))
    stations = [f"g{k}" for k in range(n_gs)]
    graph = route_snapshot([f"s{k}" for k in range(n_sat)], stations, sat_links, ground_links)
    src, dst = (stations[k] for k in rng.choice(n_gs, size=2, replace=False))
    return graph, src, dst


# -- reference routers, on the full arc list ---------------------------

def edge_list(graph):
    """graph (a snapshot or a route_snapshot) as one undirected edge list,
    ground links then satellite links, with a kind per node."""
    n_sat = graph.satellite_count
    return types.SimpleNamespace(
        node_count=graph.node_count, is_satellite=np.arange(graph.node_count) < n_sat,
        edge_u=np.concatenate([graph.gs_station_index + n_sat, graph.sat_a]),
        edge_v=np.concatenate([graph.gs_sat_index, graph.sat_b]),
        edge_length_km=np.concatenate([graph.gs_length_km, graph.sat_length_km]),
        c_mps=graph.constants.c_mps, node_delay_ms=graph.constants.node_delay_ms,
        name_of=graph.node_name)


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


def reference_arcs(graph, src, dst):
    """The edge list of graph, the node indices of the named src and dst,
    and the full reference arcs between them."""
    edges = edge_list(graph)
    s, d = graph.node_index(src), graph.node_index(dst)
    assert s != d
    return edges, s, d, full_arc_reference(edges, s, d)


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


def test_one_satellite_relay_accounting():
    graph = make_graph(["satA"], ["gs1", "gs2"],
                       [("gs1", "satA", LIGHT_MS_KM), ("satA", "gs2", LIGHT_MS_KM)])
    result = shortest_path(graph, "gs1", "gs2")
    assert result.propagation_delay_ms == pytest.approx(2.0, abs=1e-12)
    assert result.node_delay_ms == 10.0
    assert result.latency_ms == pytest.approx(12.0, abs=1e-12)
    assert result.hop_count == 1
    assert result.node_sequence == ("gs1", "satA", "gs2")


def test_nine_hop_chain_accounting():
    # nine satellites, total propagation 52.24 ms -> latency 142.24 ms
    sats = [f"s{k}" for k in range(9)]
    chain = ["gs1", *sats, "gs2"]
    per_link_km = 52.24 / 10.0 * LIGHT_MS_KM
    links = [(x, y, per_link_km) for x, y in zip(chain, chain[1:])]
    result = shortest_path(make_graph(sats, ["gs1", "gs2"], links), "gs1", "gs2")
    assert result.hop_count == 9
    assert result.node_delay_ms == 90.0
    assert result.propagation_delay_ms == pytest.approx(52.24, abs=1e-9)
    assert result.latency_ms == pytest.approx(142.24, abs=1e-9)
    assert result.latency_ms == result.propagation_delay_ms + result.node_delay_ms


def test_disconnected_returns_none():
    graph = make_graph(["sat"], ["gs1", "gs2"], [("gs1", "sat", 100.0)])
    assert shortest_path(graph, "gs1", "gs2") is None
    assert shortest_path_exact(graph, "gs1", "gs2") is None
    assert oracle_shortest_path(graph, "gs1", "gs2") is None


def test_single_edge_graph_oracle():
    """One laser link between the stations' satellites: the oracle walks it."""
    graph = make_graph(["s0", "s1"], ["gs1", "gs2"],
                       [("gs1", "s0", 500.0), ("s0", "s1", 500.0), ("s1", "gs2", 500.0)])
    assert oracle_shortest_path(graph, "gs1", "gs2").node_sequence == ("gs1", "s0", "s1", "gs2")


def test_same_endpoints_rejected():
    graph = make_graph(["sat"], ["gs1", "gs2"], [("gs1", "sat", 500.0), ("sat", "gs2", 500.0)])
    with pytest.raises(ValueError):
        shortest_path(graph, "gs1", "gs1")


def test_unknown_node_rejected():
    graph = make_graph(["sat"], ["gs1", "gs2"], [("gs1", "sat", 500.0), ("sat", "gs2", 500.0)])
    with pytest.raises(KeyError):
        shortest_path(graph, "gs1", "nope")


def test_oracle_refuses_large_graphs():
    sats = [f"s{k}" for k in range(11)]
    chain = ["gs1", *sats, "gs2"]
    links = [(x, y, 10.0) for x, y in zip(chain, chain[1:])]
    with pytest.raises(ValueError):
        oracle_shortest_path(make_graph(sats, ["gs1", "gs2"], links), "gs1", "gs2")


def test_paths_do_not_route_through_stations():
    """Relaying through the free station mid would cover 40 km instead of
    5,020 km at the same hop count, yet no router may use it."""
    graph = make_graph(["A", "B"], ["src", "mid", "dst"],
                       [("src", "A", 10.0), ("A", "B", 5000.0), ("B", "dst", 10.0),
                        ("A", "mid", 10.0), ("mid", "B", 10.0)])
    for impl in (shortest_path, shortest_path_exact, oracle_shortest_path):
        result = impl(graph, "src", "dst")
        assert result.node_sequence == ("src", "A", "B", "dst")
        relayed = [impl(graph, "src", "mid"), impl(graph, "mid", "dst")]
        assert sum(leg.latency_ms for leg in relayed) < result.latency_ms


def test_links_in_any_order_give_the_oracle_record():
    """A hand-built graph may hold its satellite links reversed and out of
    order: the path record still sums the lengths of the path's own links."""
    sats = ["s0", "s1", "s2"]
    links = [("s2", "s1", 1.0), ("g0", "s0", 10.0), ("s1", "s0", 5.0), ("s2", "g1", 7.0),
             ("s0", "s2", 100.0)]
    for order in itertools.permutations(links):
        graph = make_graph(sats, ["g0", "g1"], list(order))
        assert shortest_path(graph, "g0", "g1") == oracle_shortest_path(graph, "g0", "g1")


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
        # drop a random link -> latency can only get worse
        sub = drop_link(graph, int(rng.integers(len(graph.sat_a) + len(graph.gs_sat_index))))
        worse = oracle_shortest_path(sub, src, dst)
        if worse is not None:
            assert worse.latency_ms >= base.latency_ms - 1e-12


def test_node_delay_scales_with_hops():
    rng = np.random.default_rng(5)
    for _ in range(50):
        graph, src, dst = random_graph(rng)
        for delay in (0.0, 10.0, 25.0):
            result = shortest_path(with_node_delay(graph, delay), src, dst)
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


def test_snapshot_superset_latency_dominance(engine):
    for t in (0.0, 1200.0):
        ng = engine.snapshot(t, 1700.0, Mode.NG, BUNDLED_STATIONS[:2])
        nng = engine.snapshot(t, 1700.0, Mode.NNG, BUNDLED_STATIONS[:2])
        lat_ng = shortest_path(ng, "Sydney", "Sao Paulo").latency_ms
        lat_nng = shortest_path(nng, "Sydney", "Sao Paulo").latency_ms
        assert lat_nng <= lat_ng + 1e-6


# -- arc lists against the full-arc reference -----------------------------

def assert_same_csr(graph, src, dst):
    """The router's arcs between node indices src and dst are int32 and
    build the CSR of the reference arcs of graph's edge list."""
    arcs = _directed_arcs(graph, src, dst)
    assert arcs[0].dtype == arcs[1].dtype == np.int32
    n = graph.node_count
    matrices = [csr_matrix((w, (t, h)), shape=(n, n))
                for t, h, w in (full_arc_reference(edge_list(graph), src, dst), arcs)]
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
    n_sat = snap.satellite_count
    for src, dst in ((n_sat, n_sat + 1), (n_sat + 2, n_sat)):
        assert_canonical_arc_order(snap, src, dst)
        assert_same_csr(snap, src, dst)


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
    """Random Walker shells, at ranges on both sides of the grazing chord,
    unmasked or with a random mask of live satellites."""
    spec = ConstellationSpec(plane_count=planes, sats_per_plane=slots,
                             phasing_offset=data.draw(st.integers(0, planes - 1)),
                             raan_spread_deg=raan_spread_deg)
    engine = LinkEngine(build_constellation(spec))
    chord = 2.0 * math.sqrt(spec.orbit_radius_km**2 - engine.constants.occlusion_radius_km**2)
    live_share = data.draw(st.none() | st.floats(0.0, 1.0))
    alive = None if live_share is None else (
        np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).random(planes * slots)
        < live_share)
    assert_snapshot_arcs(engine.snapshot(t, chord_fraction * chord, mode, FAR_STATIONS,
                                         None, alive))


def test_snapshot_csr_is_never_sorted(engine, monkeypatch):
    """shortest_path hands scipy a snapshot's arcs in an order that needs no sort."""
    def refuse(self):
        raise AssertionError("scipy sorted the arcs of a snapshot")

    monkeypatch.setattr(csr_matrix, "sort_indices", refuse)
    snap = engine.snapshot(0.0, 5016.0, Mode.NNG, BUNDLED_STATIONS[:2])
    assert shortest_path(snap, "Sydney", "Sao Paulo") is not None


@pytest.mark.parametrize("links", [
    # stations named first in their links, the satellite link reversed
    [("g3", "s0", 10.0), ("s1", "s0", 5.0), ("g4", "s1", 7.0), ("g2", "s1", 3.0)],
    # stations named last, the ground links in descending station order
    [("s1", "g4", 7.0), ("s0", "g3", 10.0), ("s1", "s0", 5.0), ("s1", "g2", 3.0)],
    # stations sharing satellites, each listing them in descending order
    [("g4", "s1", 30.0), ("g3", "s1", 4.0), ("s0", "s1", 9.0), ("g3", "s0", 5.0),
     ("g2", "s1", 6.0), ("g4", "s0", 8.0)],
], ids=["station-u", "station-v", "station-station"])
def test_hand_built_arcs_build_the_reference_csr(links):
    """Hand-built graphs whose links come in no canonical order."""
    graph = make_graph(["s0", "s1"], ["g2", "g3", "g4"], links)
    for src, dst in itertools.permutations([2, 3, 4], 2):
        for delay in (0.0, 10.0):
            assert_same_csr(with_node_delay(graph, delay), src, dst)


# -- path records ------------------------------------------------------------

def scanned_lengths(snap, nodes):
    """Length of each link of the path nodes, found by scanning every link
    of the snapshot in both orientations."""
    n_sat = snap.satellite_count
    links = [(snap.sat_a, snap.sat_b, snap.sat_length_km),
             (snap.gs_sat_index, snap.gs_station_index + n_sat, snap.gs_length_km)]
    lengths = []
    for u, v in zip(nodes, nodes[1:]):
        found = [length for ends_a, ends_b, lengths_km in links
                 for a, b, length in zip(ends_a.tolist(), ends_b.tolist(), lengths_km.tolist())
                 if {a, b} == {u, v}]
        assert len(found) == 1
        lengths.append(found[0])
    return lengths


@settings(deadline=None, max_examples=200)
@given(case=masked_shells(), t=st.floats(0.0, 6000.0), mode=st.sampled_from(list(Mode)))
def test_path_lengths_are_the_scanned_links(case, t, mode):
    """On random masked small-shell snapshots, a routed path's propagation
    delay is the sum, link by link from the source, of the lengths a scan
    of every link finds; and the links of a walk that keeps entering the
    satellite with the most links have the scanned lengths."""
    engine, r, alive = case
    snap = engine.snapshot(t, r, mode, FAR_STATIONS[:2], None, alive)
    result = shortest_path(snap, FAR_STATIONS[0].name, FAR_STATIONS[1].name)
    if result is not None:
        nodes = [snap.node_index(name) for name in result.node_sequence]
        per_km = 1e6 / snap.constants.c_mps
        prop_ms = 0.0
        for length_km in scanned_lengths(snap, nodes):
            prop_ms += length_km * per_km
        assert result.propagation_delay_ms == prop_ms
    degree = degree_counts(snap)
    walk = [int(np.argmax(degree))]
    for _ in range(6 if degree.max() > 0 else 0):
        x = walk[-1]
        partners = np.concatenate([snap.sat_b[snap.sat_a == x], snap.sat_a[snap.sat_b == x]])
        walk.append(int(partners[np.argmax(degree[partners])]))
    assert _link_lengths(snap, walk) == scanned_lengths(snap, walk)
