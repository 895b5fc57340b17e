"""Latency-shortest paths over a snapshot's connectivity graph.

Edge weight is the link propagation delay; every arrival at a satellite
additionally pays the per-hop node delay, while ground stations pay none.
A path's latency is therefore its total propagation delay plus
node_delay * hops, with hops counting the satellites visited. The node
charge is folded into the arcs as an enter cost, which keeps the problem
a plain weighted digraph, and stations only begin or end a path.

``shortest_path`` builds that digraph from a GraphSnapshot's two link
sets, its satellite links and its ground links, as a CSR matrix and runs
scipy's compiled Dijkstra on it. The arcs arrive in canonical CSR order
(heads ascending within each tail), so scipy's compressed build never
sorts them. The reported latency is summed again along the found path,
link by link from the source. tests/test_routing.py checks it against an
exhaustive oracle and a reference Dijkstra with a total tie order.

scipy is imported by the first call of ``shortest_path``, not with this
module, so that a process that routes nothing (``fsosim validate``,
``fsosim census``) never loads it; once it is loaded, the two imports
cost about 0.7 us a call (2-vCPU x86_64, scipy 1.17.1). A process pool imports it before it forks
(scenario.run_scenarios), so that its workers inherit it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .links import GraphSnapshot


@dataclass(frozen=True)
class PathResult:
    """One station-to-station path with its delay breakdown."""

    node_sequence: tuple[str, ...]
    hop_count: int
    propagation_delay_ms: float
    node_delay_ms: float
    latency_ms: float


def _directed_arcs(snap: GraphSnapshot, s: int, d: int):
    """Directed arcs (tail, head, weight) from node s to node d, with the node
    delay charged on entering a satellite: each satellite link both ways,
    reversed (b -> a) first, then the destination's ground links inbound and
    the source's ground links outbound. A snapshot's links a < b are sorted
    and each station lists its satellites ascending, so each tail's heads
    ascend: reverse heads, forward heads, then the destination."""
    per_km, delay = 1e6 / snap.constants.c_mps, snap.constants.node_delay_ms
    w = snap.sat_length_km * per_km + delay
    into = snap.gs_station_index == d - snap.satellite_count
    out = snap.gs_station_index == s - snap.satellite_count
    return (np.concatenate([snap.sat_b, snap.sat_a, snap.gs_sat_index[into],
                            np.full(np.count_nonzero(out), s, dtype=np.int32)]),
            np.concatenate([snap.sat_a, snap.sat_b,
                            np.full(np.count_nonzero(into), d, dtype=np.int32),
                            snap.gs_sat_index[out]]),
            np.concatenate([w, w, snap.gs_length_km[into] * per_km,
                            snap.gs_length_km[out] * per_km + delay]))


def _link_lengths(snap: GraphSnapshot, nodes: list[int]) -> list[float]:
    """Length of each link of the path nodes, in order. A satellite link
    (a, b), a < b, is found by searchsorted on sat_a, then on sat_b within
    a's run, as a GraphSnapshot sorts its links; in a graph built with its
    links in another order, a link not found so is scanned for. A link to
    a station is found among that station's ground links."""
    n_sat, sat_a, sat_b = snap.satellite_count, snap.sat_a, snap.sat_b
    a, b = np.sort(np.array([nodes[:-1], nodes[1:]], dtype=sat_a.dtype), axis=0)
    sat = b < n_sat
    start = np.searchsorted(sat_a, a[sat]).tolist()
    stop = np.searchsorted(sat_a, a[sat], side="right").tolist()
    lengths = np.empty(len(a))
    for k, lo, hi in zip(np.flatnonzero(sat).tolist(), start, stop):
        at = lo + int(np.searchsorted(sat_b[lo:hi], b[k]))
        if at == hi or sat_a[at] != a[k] or sat_b[at] != b[k]:
            at = np.argmax(((sat_a == a[k]) & (sat_b == b[k]))
                           | ((sat_a == b[k]) & (sat_b == a[k])))
        lengths[k] = snap.sat_length_km[at]
    for k in np.flatnonzero(~sat).tolist():
        at = (snap.gs_station_index == b[k] - n_sat) & (snap.gs_sat_index == a[k])
        lengths[k] = snap.gs_length_km[np.argmax(at)]
    return lengths.tolist()


def shortest_path(snap: GraphSnapshot, src: str, dst: str) -> PathResult | None:
    """Minimum-latency path between two nodes of the snapshot, given by name,
    or None if unreachable.

    The node delay is the snapshot's constants.node_delay_ms. Deterministic
    for a given snapshot; among equal-latency paths the choice is
    implementation-defined.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    s, d = snap.node_index(src), snap.node_index(dst)
    if s == d:
        raise ValueError("source and destination must differ")
    tails, heads, weights = _directed_arcs(snap, s, d)
    n = snap.node_count
    matrix = csr_matrix((weights, (tails, heads)), shape=(n, n))
    dist, pred = dijkstra(matrix, directed=True, indices=s, return_predecessors=True)
    if not np.isfinite(dist[d]):
        return None
    nodes = [d]
    while nodes[-1] != s:
        nodes.append(int(pred[nodes[-1]]))
    nodes.reverse()
    per_km = 1e6 / snap.constants.c_mps
    prop_ms = 0.0
    for length_km in _link_lengths(snap, nodes):
        prop_ms += length_km * per_km
    hops = sum(1 for k in nodes if k < snap.satellite_count)
    node_ms = snap.constants.node_delay_ms * hops
    return PathResult(
        node_sequence=tuple(snap.node_name(k) for k in nodes),
        hop_count=hops,
        propagation_delay_ms=prop_ms,
        node_delay_ms=node_ms,
        latency_ms=prop_ms + node_ms)
