"""Latency-shortest paths over a snapshot's connectivity graph.

Edge weight is the link propagation delay; every arrival at a satellite
additionally pays the per-hop node delay, while ground stations pay none.
A path's latency is therefore its total propagation delay plus
node_delay * hops, with hops counting the satellites visited. The node
charge is folded into the edges as an enter cost, which keeps the problem
a plain weighted digraph; arcs that would route *through* a station are
dropped, so ground stations can only ever terminate a path.

``shortest_path`` builds that digraph as a CSR matrix, from a
GraphSnapshot or a hand-built RouteGraph, and runs scipy's compiled
Dijkstra on it. A snapshot's arcs arrive in canonical CSR order (heads
ascending within each tail), so scipy's compressed build never sorts
them; a hand-built graph's arcs may come in any order, and scipy sorts
those. The reported latency is summed again along the found path,
link by link from the source. tests/test_routing.py checks it against an
exhaustive oracle and a reference Dijkstra with a total tie order.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as _sparse_dijkstra

from .geometry import NODE_DELAY_MS, SPEED_OF_LIGHT_MPS
from .links import GraphSnapshot


@dataclass(frozen=True)
class PathResult:
    """One station-to-station path with its delay breakdown."""

    node_sequence: tuple[str, ...]
    hop_count: int
    propagation_delay_ms: float
    node_delay_ms: float
    latency_ms: float


@dataclass(frozen=True)
class RouteGraph:
    """Undirected weighted graph with satellite/station node kinds; every
    satellite entered costs node_delay_ms."""

    is_satellite: np.ndarray  # bool per node
    edge_u: np.ndarray
    edge_v: np.ndarray
    edge_length_km: np.ndarray
    c_mps: float = SPEED_OF_LIGHT_MPS
    node_delay_ms: float = NODE_DELAY_MS
    name_of: Callable[[int], str] = field(default=str)

    @property
    def node_count(self) -> int:
        return len(self.is_satellite)

    @classmethod
    def from_snapshot(cls, snapshot: GraphSnapshot) -> "RouteGraph":
        n_sat = snapshot.satellite_count
        kinds = np.zeros(snapshot.node_count, dtype=bool)
        kinds[:n_sat] = True
        return cls(
            is_satellite=kinds,
            edge_u=np.concatenate([snapshot.sat_a, snapshot.gs_sat_index]),
            edge_v=np.concatenate([snapshot.sat_b, snapshot.gs_station_index + n_sat]),
            edge_length_km=np.concatenate([snapshot.sat_length_km, snapshot.gs_length_km]),
            c_mps=snapshot.constants.c_mps,
            node_delay_ms=snapshot.constants.node_delay_ms,
            name_of=snapshot.node_name)


def _endpoints(graph, src, dst) -> tuple[RouteGraph, int, int]:
    """graph as a RouteGraph, and the node indices of src and dst. A snapshot
    resolves node names; a RouteGraph takes names or node indices."""
    if isinstance(graph, GraphSnapshot):
        raw, index = RouteGraph.from_snapshot(graph), graph.node_index
    else:
        raw = graph

        def index(node) -> int:
            if isinstance(node, (int, np.integer)):
                if not 0 <= node < raw.node_count:
                    raise KeyError(f"node index {node} out of range")
                return int(node)
            for k in range(raw.node_count):
                if raw.name_of(k) == node:
                    return k
            raise KeyError(f"node {node!r} not present in graph")
    s, d = index(src), index(dst)
    if s == d:
        raise ValueError("source and destination must differ")
    return raw, s, d


def _directed_arcs(graph: RouteGraph, src: int, dst: int):
    """Directed arcs (tail, head, weight) with node delay charged on
    satellite entry; arcs through interior stations are dropped. Only edges
    at a station need that filter: the rest enter a satellite both ways.
    Reverse arcs come first, so that for a snapshot, whose edges u < v are
    sorted and whose stations list their satellites ascending, each row's
    heads ascend: reverse heads, forward heads, then the destination."""
    per_km, sat = 1e6 / graph.c_mps, graph.is_satellite
    inner = np.take(sat, graph.edge_u) & np.take(sat, graph.edge_v)
    u, v = graph.edge_u[inner], graph.edge_v[inner]
    w = graph.edge_length_km[inner] * per_km + graph.node_delay_ms
    tails = np.concatenate([graph.edge_u[~inner], graph.edge_v[~inner]])
    heads = np.concatenate([graph.edge_v[~inner], graph.edge_u[~inner]])
    weights = (np.tile(graph.edge_length_km[~inner] * per_km, 2)
               + np.where(sat[heads], graph.node_delay_ms, 0.0))
    keep = (sat[heads] | (heads == dst)) & (sat[tails] | (tails == src))
    return (np.concatenate([v, u, tails[keep]]), np.concatenate([u, v, heads[keep]]),
            np.concatenate([w, w, weights[keep]]))


def _result_from_nodes(graph: RouteGraph, nodes: list[int],
                       length_of: dict[tuple[int, int], float]) -> PathResult:
    prop_ms = 0.0
    per_km = 1e6 / graph.c_mps
    for u, v in zip(nodes, nodes[1:]):
        prop_ms += length_of[(u, v)] * per_km
    hops = int(sum(1 for k in nodes if graph.is_satellite[k]))
    node_ms = graph.node_delay_ms * hops
    return PathResult(
        node_sequence=tuple(graph.name_of(k) for k in nodes),
        hop_count=hops,
        propagation_delay_ms=prop_ms,
        node_delay_ms=node_ms,
        latency_ms=prop_ms + node_ms)


def _length_lookup(graph: RouteGraph, nodes: list[int]) -> dict[tuple[int, int], float]:
    """Length of every edge between two nodes of the path, both ways round."""
    is_on_path = np.zeros(graph.node_count, dtype=bool)
    is_on_path[nodes] = True
    # edge_v is tested only where edge_u is on the path.
    on_path = np.flatnonzero(np.take(is_on_path, graph.edge_u))
    on_path = on_path[np.take(is_on_path, graph.edge_v[on_path])]
    found: dict[tuple[int, int], float] = {}
    for u, v, length in zip(graph.edge_u[on_path], graph.edge_v[on_path],
                            graph.edge_length_km[on_path]):
        length = float(length)
        found[(int(u), int(v))] = length
        found[(int(v), int(u))] = length
    return found


def shortest_path(graph, src, dst) -> PathResult | None:
    """Minimum-latency path between two stations, or None if unreachable.

    A snapshot's node delay is its constants.node_delay_ms. Deterministic
    for a given graph; among equal-latency paths the choice is
    implementation-defined.
    """
    raw, s, d = _endpoints(graph, src, dst)
    tails, heads, weights = _directed_arcs(raw, s, d)
    n = raw.node_count
    matrix = csr_matrix((weights, (tails, heads)), shape=(n, n))
    dist, pred = _sparse_dijkstra(matrix, directed=True, indices=s, return_predecessors=True)
    if not np.isfinite(dist[d]):
        return None
    nodes = [d]
    while nodes[-1] != s:
        nodes.append(int(pred[nodes[-1]]))
    nodes.reverse()
    return _result_from_nodes(raw, nodes, _length_lookup(raw, nodes))
