"""Laser-link classification and per-slot connectivity graphs.

Links between satellites are classed two ways: by the orbital-plane
relation of their endpoints (intra-plane, adjacent-plane, nearby-plane, or
crossing-plane) and by permanence (a pair is permanent at a given range iff
it never leaves that range over one orbital period). Snapshots collect all
feasible links at one instant under a range and a link policy:

* NG  - permanent inter-satellite links only,
* NNG - permanent and temporary inter-satellite links.

Ground-to-satellite links are present in both policies and are always
classed temporary (satellites pass over stations).

Because every orbit shares the same radius, period, and inclination, the
distance history of a pair depends only on the plane offset and slot offset
between its members. Permanence is therefore precomputed once per
constellation into a (plane_count x sats_per_plane) class table of
max/min separations over one period, in closed form. Two satellites with
RAAN difference W, inclination i and phase lead delta subtend an angle g,
cos g = (A+B)/2 cos(delta) - C sin(delta) + (A-B)/2 cos(2u + delta) at
argument of latitude u, where A = cos W, B = A cos^2 i + sin^2 i and
C = cos i sin W; their separation r sqrt(2 (1 - cos g)) peaks and dips where
cos(2u + delta) = +/-1. Intra-plane classes get the chord 2 r sin(delta/2).

Candidate pairs, and so a snapshot's satellite links, come sorted by
endpoints; plane-relation types and permanence are computed when first read.
"""
from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import PhysicalConstants
from .orbital import (Constellation, GroundStation, format_id, ground_station_position,
                      parse_id)


class LinkType(enum.Enum):
    INTRA_OP = "IntraOP"
    ADJACENT_OP = "AdjacentOP"
    NEARBY_OP = "NearbyOP"
    CROSSING_OP = "CrossingOP"
    GROUND_LINK = "GroundLink"


class Permanence(enum.Enum):
    PERMANENT = "Permanent"
    TEMPORARY = "Temporary"


class Mode(enum.Enum):
    """Link policy of a snapshot: permanent-only (NG) or all links (NNG)."""

    NG = "NG"
    NNG = "NNG"


_PAIR_BLOCK = 16_384  # pairs per block in the per-slot geometry pass
_SAT_TYPE_CODES = (LinkType.INTRA_OP, LinkType.ADJACENT_OP,
                   LinkType.NEARBY_OP, LinkType.CROSSING_OP)


@dataclass(frozen=True)
class LinkCensus:
    """Exhaustive partition of a snapshot's links by (type, permanence)."""

    time_s: float
    lisl_range_km: float
    mode: Mode
    counts: dict[tuple[LinkType, Permanence], int]
    total_undirected: int
    total_directed: int  # every link counted once per direction


class GraphSnapshot:
    """The connectivity graph of the network at one time slot.

    Satellite nodes use flat indices 0..N-1; ground stations follow in the
    order given, at indices N..N+K-1. Link data is held in parallel arrays,
    one set for satellite links (sat_a < sat_b, sorted) and one for ground
    links, which are all temporary. The satellite links are the rows index
    of a slot geometry's pairs; their types and permanence are read lazily.
    """

    def __init__(self, *, time_s, lisl_range_km, mode, constellation, constants,
                 stations, geometry, index, gs_positions,
                 gs_station_index, gs_sat_index, gs_length_km):
        self.time_s = time_s
        self.lisl_range_km = lisl_range_km
        self.mode = mode
        self.constellation = constellation
        self.constants = constants
        self.stations = tuple(stations)
        self._geometry = geometry
        self._index = index
        self.sat_positions = geometry.positions
        self.gs_positions = gs_positions
        self.sat_a = _pick(geometry.pairs.a, index)
        self.sat_b = _pick(geometry.pairs.b, index)
        self.sat_length_km = _pick(geometry.length_km, index)
        self.gs_station_index = gs_station_index
        self.gs_sat_index = gs_sat_index
        self.gs_length_km = gs_length_km

    @functools.cached_property
    def sat_type_code(self) -> np.ndarray:
        return _pick(self._geometry.type_code, self._index)

    @functools.cached_property
    def sat_permanent(self) -> np.ndarray:
        permanent = self._geometry.engine.pair_max_table_km <= self.lisl_range_km
        return np.take(permanent, _pick(self._geometry.pairs.cls, self._index))

    @property
    def satellite_count(self) -> int:
        return len(self.constellation)

    @property
    def node_count(self) -> int:
        return self.satellite_count + len(self.stations)

    @property
    def link_count(self) -> int:
        return len(self.sat_a) + len(self.gs_sat_index)

    def node_name(self, index: int) -> str:
        if index < self.satellite_count:
            return format_id(self.constellation.satellite_id(index))
        return self.stations[index - self.satellite_count].name

    def node_index(self, node: str) -> int:
        """Resolve a station name or formatted satellite id to a node index."""
        for k, gs in enumerate(self.stations):
            if gs.name == node:
                return self.satellite_count + k
        sat = parse_id(node) if isinstance(node, str) else None
        if sat is not None:
            try:
                return self.constellation.flat_index(sat)
            except KeyError:
                pass
        raise KeyError(f"node {node!r} not present in snapshot")


class LinkEngine:
    """Builds snapshots of one constellation under shared physical constants.

    The pair-class permanence tables, pair_max_table_km and
    pair_min_table_km (the largest and smallest separation over one period
    by plane offset and slot offset), are computed once at construction and
    are read-only afterwards, so one engine can serve any number of slots,
    ranges, and modes. The candidate-pair cache is filled lazily and is not
    guarded by a lock, so threads must not build snapshots on one engine
    concurrently. Forked worker processes may share an engine: each gets a
    copy-on-write image of the tables and of whatever the cache held at the
    fork, and fills its own copy of the cache from there.
    """

    def __init__(self, constellation: Constellation, constants: PhysicalConstants | None = None,
                 earth_rotation0_deg: float = 0.0):
        self.constellation = constellation
        self.constants = constants if constants is not None else PhysicalConstants()
        self.earth_rotation0_deg = earth_rotation0_deg
        self.pair_max_table_km, self.pair_min_table_km = self._build_class_tables()
        self._candidate_cache: dict[bytes, _PairRows] = {}

    # -- pair classes -------------------------------------------------

    def _build_class_tables(self) -> tuple[np.ndarray, np.ndarray]:
        spec = self.constellation.spec
        planes, slots = spec.plane_count, spec.sats_per_plane
        dp = np.arange(planes)[:, None]
        raan = 2.0 * np.pi * dp / planes * (spec.raan_spread_deg / 360.0)
        delta = 2.0 * np.pi * (np.arange(slots) / slots + dp * spec.phasing_offset / (planes * slots))
        incl = math.radians(spec.inclination_deg)
        ci, si = math.cos(incl), math.sin(incl)
        # (A+B)/2 and |A-B|/2 of the module docstring; A - B = -si^2 (1 - cos W).
        mean = (0.5 * (np.cos(raan) * (1.0 + ci**2) + si**2) * np.cos(delta)
                - ci * np.sin(raan) * np.sin(delta))
        swing = 0.5 * si**2 * (1.0 - np.cos(raan))
        pair_max = spec.orbit_radius_km * np.sqrt(np.maximum(2.0 * (1.0 - mean + swing), 0.0))
        pair_min = spec.orbit_radius_km * np.sqrt(np.maximum(2.0 * (1.0 - mean - swing), 0.0))
        pair_max[0, 0] = pair_min[0, 0] = np.inf  # a satellite is no pair with itself
        return pair_max, pair_min

    # -- snapshots ----------------------------------------------------

    def _class_mask(self, lisl_range_km: float, mode: Mode) -> np.ndarray:
        """Pair classes (dp, ds) that can ever satisfy (range, mode).

        NG keeps classes whose max stays within range (permanent); NNG keeps
        classes whose min ever comes within range.
        """
        if mode is Mode.NG:
            return self.pair_max_table_km <= lisl_range_km
        # The 1 m guard absorbs rounding in the exact extrema and in measured
        # lengths, so the cut keeps every pair that is ever in range.
        return self.pair_min_table_km <= lisl_range_km + 1e-3

    def _candidate_pairs(self, class_mask: np.ndarray) -> _PairRows:
        """Satellite pairs a < b whose class lies in class_mask, sorted by (a, b)
        and cached per mask."""
        key = class_mask.tobytes()
        cached = self._candidate_cache.get(key)
        if cached is not None:
            return cached
        spec = self.constellation.spec
        # A class (dp, ds) reaches the partner dp planes above the base, so
        # enumerating qualifying classes from every base satellite generates
        # each cross-plane pair once (from its lower-plane endpoint) and each
        # intra-plane pair twice; a < b dedupes the latter. The partner of
        # base (plane p, slot s) is (p + dp) * S + (s + ds) mod S, so ordering
        # each base slot's classes by (dp, (s + ds) mod S) once, and tiling
        # that table over the planes, yields the pairs sorted by (a, b) with
        # no sort of the whole list. Sorted lists make the pairs of a smaller
        # mask an order-preserving subsequence of those of a larger one.
        cls_dp, cls_ds = np.nonzero(class_mask)
        slots, n = spec.sats_per_plane, spec.satellite_count
        partner_slot = (np.arange(slots)[:, None] + cls_ds) % slots
        order = np.argsort(cls_dp * slots + partner_slot, axis=1)
        a = np.repeat(np.arange(n, dtype=np.int32), len(cls_dp))
        dp = np.tile(cls_dp[order].astype(np.int32).ravel(), spec.plane_count)
        ds = np.tile(cls_ds[order].astype(np.int32).ravel(), spec.plane_count)
        plane_b = self.constellation.plane_of[a] + dp
        slot_b = (self.constellation.slot_of[a] + ds) % spec.sats_per_plane
        keep = plane_b < spec.plane_count
        a, dp, ds, plane_b, slot_b = a[keep], dp[keep], ds[keep], plane_b[keep], slot_b[keep]
        b = (plane_b * spec.sats_per_plane + slot_b).astype(np.int32)
        keep = a < b
        a, b, dp, ds = a[keep], b[keep], dp[keep], ds[keep]
        plane_offset = np.abs(self.constellation.plane_of[a] - self.constellation.plane_of[b])
        plane_offset = np.minimum(plane_offset, spec.plane_count - plane_offset)
        result = _PairRows(a=a, b=b, cls=(dp * slots + ds).astype(np.int16),
                           plane_offset=plane_offset.astype(np.int8))
        self._candidate_cache[key] = result
        return result

    def pair_class(self, a, b) -> np.ndarray:
        """Flat class index of the satellite pairs (a, b), as _candidate_pairs
        stores it: read from the endpoint of lower index, which lies in the
        lower plane or, within a plane, trails the other."""
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        plane_of, slot_of = self.constellation.plane_of, self.constellation.slot_of
        slots = self.constellation.spec.sats_per_plane
        return (plane_of[hi] - plane_of[lo]) * slots + (slot_of[hi] - slot_of[lo]) % slots

    def line_of_sight_binds(self, lisl_range_km: float) -> bool:
        """True iff the range exceeds the grazing chord, so that the Earth can
        block a pair that is within range."""
        r_orbit = self.constellation.spec.orbit_radius_km
        occ = self.constants.occlusion_radius_km
        return lisl_range_km > 2.0 * math.sqrt(max(r_orbit**2 - occ**2, 0.0))

    def ground_reach(self, gs: GroundStation, t: float, positions: np.ndarray):
        """The station's position at time t; per satellite at positions, whether
        the station can link to it (within its slant range and above its
        horizon); and the slant ranges."""
        g = ground_station_position(gs, t, self.earth_rotation0_deg,
                                    self.constants.earth_radius_km)
        delta = positions - g
        slant = np.sqrt(np.einsum("ij,ij->i", delta, delta))
        return g, (slant <= gs.range_km) & (delta @ g > 0.0), slant

    def chain_lengths(self, satellites, positions: np.ndarray, lisl_range_km: float,
                      mode: Mode, margin_km: float) -> np.ndarray | None:
        """Lengths of the links between consecutive satellites, at positions, or
        None if one of them is not a link of (range, mode): its pair class lies
        outside the mode's class mask, or it is not within the range or, where
        line of sight binds, not clear of the occlusion sphere, by at least
        margin_km."""
        satellites = np.asarray(satellites, dtype=np.intp)
        a, b = satellites[:-1], satellites[1:]
        if not np.take(self._class_mask(lisl_range_km, mode), self.pair_class(a, b)).all():
            return None
        p, q = positions[a], positions[b]
        lengths = _distance(p, q)
        if np.any(lengths > lisl_range_km - margin_km):
            return None
        occ = self.constants.occlusion_radius_km + margin_km
        if self.line_of_sight_binds(lisl_range_km) and not _segments_clear_origin(p, q, occ).all():
            return None
        return lengths

    def slot_geometry(self, t: float, requests) -> SlotGeometry:
        """The state at time t that snapshots for any of the requests share.

        requests is an iterable of (lisl_range_km, Mode). Positions are
        propagated once, and the candidate pairs of all requests are measured
        once as one superset; pairs longer than the largest requested range
        are dropped.
        """
        requests = frozenset((float(r), Mode(mode)) for r, mode in requests)
        if not requests:
            raise ValueError("a slot geometry needs at least one (range, mode) request")
        return self._measure(t, requests, self.constellation.positions_at(t))

    def _measure(self, t: float, requests: frozenset, positions: np.ndarray,
                 alive: np.ndarray | None = None) -> SlotGeometry:
        """The slot geometry of the requests at positions; with alive, a mask
        over the satellites, only the pairs of two live satellites."""
        union = np.logical_or.reduce([self._class_mask(r, mode) for r, mode in requests])
        pairs = self._candidate_pairs(union)
        if alive is not None:
            # The pairs come sorted by a, so alive[a] is alive repeated by row
            # length, which costs less than gathering it.
            row_ends = np.searchsorted(pairs.a, np.arange(len(alive) + 1, dtype=pairs.a.dtype))
            live = np.repeat(alive, np.diff(row_ends)) & np.take(alive, pairs.b)
            pairs = pairs.take(np.flatnonzero(live))
        length = pairs.per_pair(positions, _distance, float)
        near = np.flatnonzero(length <= max(r for r, _ in requests))
        return SlotGeometry(engine=self, time_s=t, requests=requests, positions=positions,
                            pairs=pairs.take(near), length_km=length[near])

    def snapshot(self, t: float, lisl_range_km: float, mode: Mode,
                 ground_stations: list[GroundStation] | tuple[GroundStation, ...] = (),
                 geometry: SlotGeometry | None = None, prune=None) -> GraphSnapshot:
        """All links feasible at time t under the range and link policy.

        With geometry from slot_geometry at the same t and with (range, mode)
        among its requests, the snapshot selects its links from that shared
        state; without it, the snapshot measures a geometry of its own. The
        links come out in the same order either way. A non-positive range
        yields a snapshot with no satellite links.

        prune, if given, is called with the satellite positions at t and
        returns None or a mask of the satellites that may carry links: the
        snapshot then keeps only the satellite links between, and the ground
        links to, those satellites, and a geometry of its own measures only
        their pairs.
        """
        if geometry is None:
            positions = self.constellation.positions_at(t)
            alive = None if prune is None else prune(positions)
            geometry = self._measure(t, frozenset({(float(lisl_range_km), Mode(mode))}),
                                     positions, alive)
            cut = None  # the geometry holds live pairs only
        elif (geometry.engine is not self or geometry.time_s != t
              or (float(lisl_range_km), mode) not in geometry.requests):
            raise ValueError(f"geometry does not cover {mode.value} at {lisl_range_km:g} km "
                             f"and t = {t:g} s")
        else:
            alive = cut = None if prune is None else prune(geometry.positions)
        index = geometry.selection(float(lisl_range_km), mode)
        if cut is not None:
            # Cut after the other tests, which leave fewer pairs to look up.
            live = (np.take(cut, _pick(geometry.pairs.a, index))
                    & np.take(cut, _pick(geometry.pairs.b, index)))
            index = np.flatnonzero(live) if isinstance(index, slice) else index[live]

        stations = tuple(ground_stations)
        gs_positions = np.zeros((len(stations), 3))
        gs_station_index: list[np.ndarray] = []
        gs_sat_index: list[np.ndarray] = []
        gs_length: list[np.ndarray] = []
        for k, gs in enumerate(stations):
            gs_positions[k], feasible, slant = geometry.ground_links(gs)
            if alive is not None:
                live = np.take(alive, feasible)
                feasible, slant = feasible[live], slant[live]
            gs_station_index.append(np.full(len(feasible), k, dtype=np.int32))
            gs_sat_index.append(feasible)
            gs_length.append(slant)

        return GraphSnapshot(
            time_s=t, lisl_range_km=lisl_range_km, mode=mode,
            constellation=self.constellation, constants=self.constants,
            stations=stations, geometry=geometry, index=index, gs_positions=gs_positions,
            gs_station_index=_concat(gs_station_index),
            gs_sat_index=_concat(gs_sat_index),
            gs_length_km=_concat(gs_length, dtype=float))


@dataclass(frozen=True, eq=False)
class _PairRows:
    """Parallel per-pair arrays: endpoints (a < b), flat pair class
    dp * sats_per_plane + ds (int16 holds it for shells of up to 99 x 99),
    and wrapped plane offset."""

    a: np.ndarray
    b: np.ndarray
    cls: np.ndarray
    plane_offset: np.ndarray

    def take(self, index) -> "_PairRows":
        return _PairRows(a=self.a[index], b=self.b[index], cls=self.cls[index],
                         plane_offset=self.plane_offset[index])

    def per_pair(self, table: np.ndarray, rows, dtype) -> np.ndarray:
        """rows(table[a], table[b]) into one array, over blocks of pairs small
        enough that the allocator reuses their temporaries from slot to slot;
        whole-list temporaries of several MB go back to the system and fault
        in again every slot. np.take gathers like fancy indexing, but faster."""
        out = np.empty(len(self.a), dtype=dtype)
        for lo in range(0, len(out), _PAIR_BLOCK):
            hi = lo + _PAIR_BLOCK
            out[lo:hi] = rows(np.take(table, self.a[lo:hi], axis=0),
                              np.take(table, self.b[lo:hi], axis=0))
        return out


@dataclass(eq=False)
class SlotGeometry:
    """Satellite state at one instant, shared by the snapshots of many queries.

    Made by LinkEngine.slot_geometry. pairs holds every pair of the
    requests' candidate classes that lies within the largest requested
    range, with its length. The plane-relation type codes, line of sight
    and the ground links of each station are computed on first use and
    then kept.
    """

    engine: LinkEngine
    time_s: float
    requests: frozenset
    positions: np.ndarray
    pairs: _PairRows
    length_km: np.ndarray
    _clear: np.ndarray | None = field(default=None, init=False, repr=False)
    _ground: dict = field(default_factory=dict, init=False, repr=False)
    _selected: dict = field(default_factory=dict, init=False, repr=False)

    @functools.cached_property
    def type_code(self) -> np.ndarray:
        """Per pair, the index of its LinkType: intra-plane (0), and otherwise
        adjacent-plane (1) or nearby-plane (2) if the two satellites move the
        same way, crossing-plane (3) if not."""
        vel = self.engine.constellation.velocities_at(self.time_s)
        pairs = self.pairs
        co_moving = pairs.per_pair(vel, lambda v, w: np.einsum("ij,ij->i", v, w) > 0.0, bool)
        type_code = np.full(len(pairs.a), 3, dtype=np.int8)
        type_code[(pairs.plane_offset == 1) & co_moving] = 1
        type_code[(pairs.plane_offset >= 2) & co_moving] = 2
        type_code[pairs.plane_offset == 0] = 0
        return type_code

    def clear_of_earth(self) -> np.ndarray:
        """Per pair, True iff the segment between the two satellites clears the
        occlusion sphere."""
        if self._clear is None:
            occ = self.engine.constants.occlusion_radius_km
            self._clear = self.pairs.per_pair(
                self.positions, lambda p, q: _segments_clear_origin(p, q, occ), bool)
        return self._clear

    def selection(self, lisl_range_km: float, mode: Mode) -> np.ndarray | slice:
        """Index of the pairs that are links of (range, mode), as int32, or
        slice(None) if every pair is; selected once per (range, mode)."""
        index = self._selected.get((lisl_range_km, mode))
        if index is None:
            engine = self.engine
            keep = np.take(engine._class_mask(lisl_range_km, mode), self.pairs.cls)
            keep &= self.length_km <= lisl_range_km
            if engine.line_of_sight_binds(lisl_range_km):
                keep &= self.clear_of_earth()
            # Keeping every pair hands out views of the geometry's arrays,
            # which snapshots, like their shared positions, never write to.
            index = slice(None) if keep.all() else np.flatnonzero(keep).astype(np.int32)
            self._selected[(lisl_range_km, mode)] = index
        return index

    def ground_links(self, gs: GroundStation) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Station position, and the satellites it can link to with their slant ranges."""
        found = self._ground.get(gs)
        if found is None:
            g, reach, slant = self.engine.ground_reach(gs, self.time_s, self.positions)
            feasible = np.flatnonzero(reach)
            found = (g, feasible.astype(np.int32), slant[feasible])
            self._ground[gs] = found
        return found


def _distance(p, q):
    diff = p - q
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


def _pick(values: np.ndarray, index: np.ndarray | slice) -> np.ndarray:
    """values[index]; np.take gathers by an int32 index faster than indexing."""
    return values[index] if isinstance(index, slice) else np.take(values, index, axis=0)


def _concat(chunks, dtype=np.int32):
    if not chunks:
        return np.zeros(0, dtype=dtype)
    return np.concatenate(chunks)


def _segments_clear_origin(p, q, occlusion_radius_km):
    chord = q - p
    cc = np.einsum("ij,ij->i", chord, chord)
    s = np.clip(-np.einsum("ij,ij->i", p, chord) / np.maximum(cc, 1e-300), 0.0, 1.0)
    closest = p + s[:, None] * chord
    return np.einsum("ij,ij->i", closest, closest) >= occlusion_radius_km**2


def degree_counts(snapshot: GraphSnapshot) -> np.ndarray:
    """Satellite-satellite degree of every satellite, shape (N,)."""
    n = snapshot.satellite_count
    return (np.bincount(snapshot.sat_a, minlength=n)
            + np.bincount(snapshot.sat_b, minlength=n))


def link_census(snapshot: GraphSnapshot) -> LinkCensus:
    """Counts of links by (type, permanence), plus undirected/directed totals."""
    counts: dict[tuple[LinkType, Permanence], int] = {}
    for code, link_type in enumerate(_SAT_TYPE_CODES):
        of_type = snapshot.sat_type_code == code
        n_perm = int((of_type & snapshot.sat_permanent).sum())
        n_temp = int((of_type & ~snapshot.sat_permanent).sum())
        if n_perm:
            counts[(link_type, Permanence.PERMANENT)] = n_perm
        if n_temp:
            counts[(link_type, Permanence.TEMPORARY)] = n_temp
    n_ground = len(snapshot.gs_sat_index)
    if n_ground:
        counts[(LinkType.GROUND_LINK, Permanence.TEMPORARY)] = n_ground
    total = int(sum(counts.values()))
    return LinkCensus(
        time_s=snapshot.time_s, lisl_range_km=snapshot.lisl_range_km, mode=snapshot.mode,
        counts=counts, total_undirected=total, total_directed=2 * total)
