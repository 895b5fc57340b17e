"""Independent reference model of the simulated network.

The benchmark checks fsosim's outputs against the computations here, so
this module imports nothing from fsosim. It restates the geometry, the
link rules and the routing objective from their definitions:

* satellite positions of a Walker-delta shell on circular orbits, and
  Earth-fixed ground stations on a rotating sphere;
* the laser links of a slot by all-pairs brute force with the
  line-of-sight test, and a pair's permanence from the closed-form
  maximum separation of two circular orbits of equal radius;
* a plain heap Dijkstra whose arcs charge the node delay on entering a
  satellite.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

C_KM_PER_MS = 299_792.458e-3          # speed of light in vacuum
SIDEREAL_RATE_RAD_S = 7.2921159e-5    # Earth's rotation rate
OCCLUSION_CLEARANCE_KM = 80.0         # a laser chord must stay this far above the surface
NODE_DELAY_MS = 10.0                  # charged on entering each satellite
STATION_RANGE_KM = 1000.0             # ground-to-satellite slant range
RANGES_KM = (659.5, 1319.0, 1500.0, 1700.0, 2500.0, 3500.0, 5016.0)

# Stations at the stock exchanges of the studied cities: (latitude, longitude) in degrees.
STATIONS = {
    "Sydney": (-33.8614, 151.2099),
    "Sao Paulo": (-23.5475, -46.6361),
    "Toronto": (43.6489, -79.3817),
    "Istanbul": (41.1065, 29.0278),
    "Madrid": (40.4168, -3.7038),
    "Tokyo": (35.6795, 139.7770),
    "New York": (40.7069, -74.0113),
    "Jakarta": (-6.2241, 106.8076),
}

TYPE_NAMES = ("IntraOP", "AdjacentOP", "NearbyOP", "CrossingOP")
GROUND_TYPE = "GroundLink"


@dataclass(frozen=True)
class Shell:
    """A Walker-delta shell: planes spread over 360 deg of ascending node,
    slots evenly phased in each plane, and plane p's slot 0 ahead of plane
    0's by p * phasing * 360 / satellites degrees."""

    planes: int = 24
    sats_per_plane: int = 66
    altitude_km: float = 550.0
    inclination_deg: float = 53.0
    phasing: int = 15
    earth_radius_km: float = 6378.0
    mu_km3_s2: float = 398_600.4418

    @property
    def count(self) -> int:
        return self.planes * self.sats_per_plane

    @property
    def radius_km(self) -> float:
        return self.earth_radius_km + self.altitude_km

    @property
    def mean_motion(self) -> float:
        return math.sqrt(self.mu_km3_s2 / self.radius_km ** 3)

    @property
    def period_s(self) -> float:
        return 2.0 * math.pi / self.mean_motion

    @property
    def occlusion_radius_km(self) -> float:
        return self.earth_radius_km + OCCLUSION_CLEARANCE_KM

    def plane_of(self, k):
        return np.asarray(k) // self.sats_per_plane

    def slot_of(self, k):
        return np.asarray(k) % self.sats_per_plane

    def _plane_axes(self, plane):
        """In-plane unit vectors: towards the ascending node, and 90 deg ahead of it."""
        node = 2.0 * math.pi * np.asarray(plane, dtype=float) / self.planes
        incl = math.radians(self.inclination_deg)
        x = np.stack([np.cos(node), np.sin(node), np.zeros_like(node)], axis=-1)
        y = np.stack([-np.sin(node) * math.cos(incl), np.cos(node) * math.cos(incl),
                      np.full_like(node, math.sin(incl))], axis=-1)
        return x, y

    def _epoch_phase(self, k):
        k = np.asarray(k)
        return 2.0 * math.pi * (self.slot_of(k) / self.sats_per_plane
                                + self.plane_of(k) * self.phasing / self.count)

    def positions(self, t: float, sats=None) -> np.ndarray:
        """Inertial positions (km) of the given satellites (default: all) at time t."""
        k = np.arange(self.count) if sats is None else np.asarray(sats)
        x, y = self._plane_axes(self.plane_of(k))
        u = self._epoch_phase(k) + self.mean_motion * t
        return self.radius_km * (np.cos(u)[..., None] * x + np.sin(u)[..., None] * y)

    def track(self, sats, times) -> np.ndarray:
        """Positions of each satellite at each time, shape (len(sats), len(times), 3)."""
        sats = np.asarray(sats)
        x, y = self._plane_axes(self.plane_of(sats))
        u = self._epoch_phase(sats)[:, None] + self.mean_motion * np.asarray(times)[None, :]
        return self.radius_km * (np.cos(u)[..., None] * x[:, None, :]
                                 + np.sin(u)[..., None] * y[:, None, :])

    def orbit_normals(self, sats) -> np.ndarray:
        x, y = self._plane_axes(self.plane_of(sats))
        return np.cross(x, y)

    def max_separation_km(self, a, b) -> np.ndarray:
        """Largest distance each pair (a, b) reaches over one orbit, in closed form.

        With both satellites on circles of radius r and equal period, the
        cosine of their separation angle is A + K cos(2u + c) in the
        argument of latitude u, so the maximum distance is
        sqrt(2 r^2 (1 - A + K)).
        """
        xa, ya = self._plane_axes(self.plane_of(a))
        xb, yb = self._plane_axes(self.plane_of(b))
        delta = self._epoch_phase(b) - self._epoch_phase(a)
        xx = np.einsum("ij,ij->i", xa, xb)
        xy = np.einsum("ij,ij->i", xa, yb)
        yx = np.einsum("ij,ij->i", ya, xb)
        yy = np.einsum("ij,ij->i", ya, yb)
        mean = 0.5 * ((xx + yy) * np.cos(delta) + (xy - yx) * np.sin(delta))
        swing = 0.5 * np.hypot(xx - yy, xy + yx)
        r = self.radius_km
        return np.sqrt(np.maximum(2.0 * r * r * (1.0 - mean + swing), 0.0))


def satellite_name(shell: Shell, k: int) -> str:
    return f"x1{int(shell.plane_of(k)) + 1:02d}{int(shell.slot_of(k)) + 1:02d}"


def satellite_index(shell: Shell, name: str) -> int:
    """Flat index of a satellite named x1PPSS (1-based plane and slot)."""
    if len(name) != 6 or not name.startswith("x1") or not name[2:].isdigit():
        raise ValueError(f"not a satellite name: {name!r}")
    plane, slot = int(name[2:4]) - 1, int(name[4:6]) - 1
    if not (0 <= plane < shell.planes and 0 <= slot < shell.sats_per_plane):
        raise ValueError(f"satellite {name!r} is not in the shell")
    return plane * shell.sats_per_plane + slot


def station_position(name: str, t: float, rotation0_deg: float,
                     earth_radius_km: float = 6378.0) -> np.ndarray:
    """Inertial position (km) of a station on the rotating spherical Earth."""
    lat, lon = STATIONS[name]
    lam = math.radians(lon + rotation0_deg) + SIDEREAL_RATE_RAD_S * t
    phi = math.radians(lat)
    return earth_radius_km * np.array([math.cos(phi) * math.cos(lam),
                                       math.cos(phi) * math.sin(lam),
                                       math.sin(phi)])


def chord_clears(p, q, occlusion_radius_km: float) -> np.ndarray:
    """True where the straight segment p-q stays outside the occlusion sphere."""
    chord = q - p
    s = np.clip(-np.einsum("ij,ij->i", p, chord)
                / np.maximum(np.einsum("ij,ij->i", chord, chord), 1e-300), 0.0, 1.0)
    closest = p + s[:, None] * chord
    return np.linalg.norm(closest, axis=1) >= occlusion_radius_km


@dataclass
class SatLinks:
    """Undirected satellite links of one slot with their classification."""

    a: np.ndarray
    b: np.ndarray
    length_km: np.ndarray
    max_separation_km: np.ndarray  # over one orbit; permanent at range r iff <= r
    type_code: np.ndarray          # index into TYPE_NAMES

    def select(self, range_km: float, mode: str) -> np.ndarray:
        keep = self.length_km <= range_km
        if mode == "NG":
            keep &= self.max_separation_km <= range_km
        return keep


def satellite_links(shell: Shell, t: float, max_range_km: float = RANGES_KM[-1]) -> SatLinks:
    """Every satellite pair within max_range_km at time t with a clear line of
    sight, by brute force over all pairs."""
    pos = shell.positions(t)
    heads, tails, lengths = [], [], []
    for a in range(shell.count - 1):
        d = np.linalg.norm(pos[a + 1:] - pos[a], axis=1)
        near = np.nonzero(d <= max_range_km)[0]
        heads.append(np.full(len(near), a))
        tails.append(near + a + 1)
        lengths.append(d[near])
    a, b, length = np.concatenate(heads), np.concatenate(tails), np.concatenate(lengths)
    clear = chord_clears(pos[a], pos[b], shell.occlusion_radius_km)
    a, b, length = a[clear], b[clear], length[clear]

    # Co-moving pairs fly the same way: their velocities n * (h x p) have a
    # positive dot product, (ha.hb)(pa.pb) - (ha.pb)(pa.hb) > 0.
    ha, hb = shell.orbit_normals(a), shell.orbit_normals(b)
    pa, pb = pos[a], pos[b]
    dot = (np.einsum("ij,ij->i", ha, hb) * np.einsum("ij,ij->i", pa, pb)
           - np.einsum("ij,ij->i", ha, pb) * np.einsum("ij,ij->i", pa, hb))
    offset = np.abs(shell.plane_of(a) - shell.plane_of(b))
    offset = np.minimum(offset, shell.planes - offset)
    type_code = np.where(dot > 0.0, np.where(offset == 1, 1, 2), 3)
    type_code[offset == 0] = 0
    return SatLinks(a, b, length, shell.max_separation_km(a, b), type_code)


def ground_links(shell: Shell, pos: np.ndarray, station_pos: np.ndarray):
    """Satellites a station reaches: within its slant range and above its horizon."""
    delta = pos - station_pos
    slant = np.linalg.norm(delta, axis=1)
    ok = (slant <= STATION_RANGE_KM) & (delta @ station_pos > 0.0)
    sats = np.nonzero(ok)[0]
    return sats, slant[sats]


def census(shell: Shell, links: SatLinks, t: float, range_km: float, mode: str,
           stations, rotation0_deg: float) -> dict[tuple[str, str], int]:
    """Link counts by (type, permanence) at one slot, range and link policy."""
    keep = links.select(range_km, mode)
    permanent = links.max_separation_km[keep] <= range_km
    codes = links.type_code[keep]
    counts: dict[tuple[str, str], int] = {}
    for code, name in enumerate(TYPE_NAMES):
        for perm, label in ((True, "Permanent"), (False, "Temporary")):
            n = int(((codes == code) & (permanent == perm)).sum())
            if n:
                counts[(name, label)] = n
    pos = shell.positions(t)
    ground = sum(len(ground_links(shell, pos, station_position(s, t, rotation0_deg,
                                                                shell.earth_radius_km))[0])
                 for s in stations)
    if ground:
        counts[(GROUND_TYPE, "Temporary")] = ground
    return counts


def shortest_latency(node_count: int, tails, heads, weights, src: int, dst: int):
    """Plain heap Dijkstra on a directed graph; returns (latency, node path) or None."""
    order = np.argsort(tails, kind="stable")
    indptr = np.searchsorted(np.asarray(tails)[order], np.arange(node_count + 1)).tolist()
    heads = np.asarray(heads)[order].tolist()
    weights = np.asarray(weights, dtype=float)[order].tolist()
    dist = [math.inf] * node_count
    prev = [-1] * node_count
    done = [False] * node_count
    dist[src] = 0.0
    heap = [(0.0, src)]
    while heap:
        d, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        if u == dst:
            break
        for k in range(indptr[u], indptr[u + 1]):
            v = heads[k]
            nd = d + weights[k]
            if nd < dist[v]:
                dist[v] = nd
                prev[v] = u
                heapq.heappush(heap, (nd, v))
    if not done[dst]:
        return None
    path = [dst]
    while path[-1] != src:
        path.append(prev[path[-1]])
    return dist[dst], path[::-1]


def route(shell: Shell, links: SatLinks, t: float, range_km: float, mode: str,
          src: str, dst: str, rotation0_deg: float):
    """Minimum latency (ms), hop count and node path between two stations at one
    slot, or None. Satellites are nodes 0..N-1, the stations N and N+1.

    Nodes are the satellites plus the two stations; the stations can only
    start or end a path, and entering a satellite costs NODE_DELAY_MS.
    """
    n = shell.count
    keep = links.select(range_km, mode)
    a, b, length = links.a[keep], links.b[keep], links.length_km[keep]
    pos = shell.positions(t)
    s_sats, s_len = ground_links(shell, pos, station_position(src, t, rotation0_deg,
                                                             shell.earth_radius_km))
    d_sats, d_len = ground_links(shell, pos, station_position(dst, t, rotation0_deg,
                                                             shell.earth_radius_km))
    tails = np.concatenate([a, b, np.full(len(s_sats), n), d_sats])
    heads = np.concatenate([b, a, s_sats, np.full(len(d_sats), n + 1)])
    prop = np.concatenate([length, length, s_len, d_len]) / C_KM_PER_MS
    weights = prop + np.where(heads < n, NODE_DELAY_MS, 0.0)
    found = shortest_latency(n + 2, tails, heads, weights, n, n + 1)
    if found is None:
        return None
    latency, path = found
    return latency, sum(1 for v in path if v < n), path
