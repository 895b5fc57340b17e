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
max/min separations over one period, in closed form (class_tables, which
stacks the tables of many phasing offsets in one call). Two satellites with
RAAN difference W, inclination i and phase lead delta subtend an angle g,
cos g = (A+B)/2 cos(delta) - C sin(delta) + (A-B)/2 cos(2u + delta) at
argument of latitude u, where A = cos W, B = A cos^2 i + sin^2 i and
C = cos i sin W; their separation r sqrt(2 (1 - cos g)) peaks and dips where
cos(2u + delta) = +/-1. Intra-plane classes get the chord 2 r sin(delta/2).

The state of one slot time that its snapshots, proofs and lower bounds
share lives in one Instant: the shell's positions, and per station its
position, ground links and central angles, each computed once, when first
read; that of one (range, mode), its class mask and the tables its
candidate pairs come from, in one LinkClasses. Candidate pairs, and so a
snapshot's satellite links, come sorted by endpoints; plane-relation types
and permanence are computed when first read. A pass over the few
satellites that pruning keeps costs what those satellites cost, not what
the shell does: it generates their pairs either from their runs of the
class table or, when there are fewer ordered live pairs than run entries,
by looking every ordered live pair up in a table of classes by plane and
slot offset (LinkClasses.lookup), and it measures ground links only for
the satellites that pass a dot-product test. Since every link is a
candidate pair, the connected components of a mask's candidate pairs can
prove, without a snapshot, that no link path joins two stations
(LinkEngine.proven_pathless).

A geometry shared by many (range, mode) requests selects each one's links
with one comparison per pair, not a look at its class mask: under NNG a
pair is a link at r iff its length is at most r (a pair within r lies in
the NNG(r) mask, whose 1 m guard keeps every class that ever comes within
r), and under NG iff its class's largest separation and its length both
are; the Earth test is added where it binds. Permanence at r is the same
comparison of the class's largest separation, read once per geometry.
"""
from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import PhysicalConstants
from .orbital import (Constellation, ConstellationSpec, GroundStation, ground_station_position,
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
    links, which are all temporary: the links of a LinkClasses among a slot
    geometry's pairs, and the ground links of its Instant (with alive, a
    mask over the satellites, only those to live satellites). The ground
    links are picked at construction; the index of the satellite links
    among the geometry's pairs is selected when their endpoints (sat_a,
    sat_b), lengths, types or permanence are first read. link_count counts
    the geometry's links of the snapshot's (range, mode) (SlotGeometry.count)
    and reads none of them, so a snapshot that is only counted builds no
    index and copies no link arrays.
    """

    def __init__(self, geometry: SlotGeometry, classes: LinkClasses, stations,
                 alive: np.ndarray | None = None):
        instant = geometry.instant
        self.time_s = instant.time_s
        self.lisl_range_km = classes.lisl_range_km
        self.mode = classes.mode
        self.constellation = instant.engine.constellation
        self.constants = instant.engine.constants
        self.stations = tuple(stations)
        self._geometry = geometry
        self._classes = classes
        self.sat_positions = instant.positions
        sats, slants = [], []
        for gs in self.stations:
            feasible, slant = instant.ground_links(gs)
            if alive is not None:
                live = np.take(alive, feasible)
                feasible, slant = feasible[live], slant[live]
            sats.append(feasible)
            slants.append(slant)
        self.gs_station_index = np.repeat(np.arange(len(sats), dtype=np.int32),
                                          [len(s) for s in sats])
        self.gs_sat_index = _concat(sats)
        self.gs_length_km = _concat(slants, dtype=float)

    @functools.cached_property
    def _index(self) -> np.ndarray | slice:
        return self._geometry.selection(self._classes)

    @functools.cached_property
    def sat_a(self) -> np.ndarray:
        return _pick(self._geometry.pairs.a, self._index)

    @functools.cached_property
    def sat_b(self) -> np.ndarray:
        return _pick(self._geometry.pairs.b, self._index)

    @functools.cached_property
    def sat_length_km(self) -> np.ndarray:
        return _pick(self._geometry.length_km, self._index)

    @functools.cached_property
    def gs_positions(self) -> np.ndarray:
        instant = self._geometry.instant
        return np.reshape([instant.station(gs)[0] for gs in self.stations], (-1, 3))

    @functools.cached_property
    def sat_type_code(self) -> np.ndarray:
        return _pick(self._geometry.type_code, self._index)

    @functools.cached_property
    def sat_permanent(self) -> np.ndarray:
        """Per satellite link, True iff its class's largest separation over
        one period stays within the snapshot's range."""
        return _pick(self._geometry.pair_max_km, self._index) <= self.lisl_range_km

    @property
    def satellite_count(self) -> int:
        return len(self.constellation)

    @property
    def node_count(self) -> int:
        return self.satellite_count + len(self.stations)

    @property
    def link_count(self) -> int:
        return self._geometry.count(self._classes) + len(self.gs_sat_index)

    def node_name(self, index: int) -> str:
        if index < self.satellite_count:
            return self.constellation.names[index]
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
    by plane offset and slot offset, class_tables), are computed once at
    construction and are read-only afterwards, so one engine can serve any
    number of slots, ranges, and modes. Each (range, mode) has one
    LinkClasses (classes), built when first asked for and then kept in one
    dict, and every pass generates its candidate pairs from the tables it
    holds: the 14 runs tables of the Starlink study hold 0.8 MiB and their
    lookup tables 0.17 MiB, where their candidate lists held 12.8 MiB. The
    cache has no lock, so threads must not build snapshots on one engine
    concurrently.
    Forked worker processes may share an engine; each builds the tables it
    reads.
    Snapshots, geometries and proofs take their time in seconds or as an
    Instant of this engine, whose state the calls at that time share.
    """

    def __init__(self, constellation: Constellation, constants: PhysicalConstants | None = None,
                 earth_rotation0_deg: float = 0.0):
        self.constellation = constellation
        self.constants = constants if constants is not None else PhysicalConstants()
        self.earth_rotation0_deg = earth_rotation0_deg
        self.pair_max_table_km, self.pair_min_table_km = class_tables(constellation.spec)
        self._classes: dict[tuple, LinkClasses] = {}

    # -- pair classes -------------------------------------------------

    def classes(self, lisl_range_km: float, mode: Mode) -> LinkClasses:
        """The LinkClasses of (range, mode), built once and then kept. NG
        keeps classes whose max stays within range (permanent); NNG keeps
        classes whose min ever comes within range."""
        r, mode = float(lisl_range_km), Mode(mode)
        found = self._classes.get((r, mode))
        if found is None:
            if mode is Mode.NG:
                mask = self.pair_max_table_km <= r
            else:
                # The 1 m guard absorbs rounding in the exact extrema and in
                # measured lengths, so the cut keeps every pair ever in range.
                mask = self.pair_min_table_km <= r + 1e-3
            mask.setflags(write=False)
            found = self._classes[r, mode] = LinkClasses(r, mode, mask, self.line_of_sight_binds(r))
        return found

    def line_of_sight_binds(self, lisl_range_km: float) -> bool:
        """True iff the range exceeds the grazing chord, so that the Earth can
        block a pair that is within range."""
        r_orbit = self.constellation.spec.orbit_radius_km
        occ = self.constants.occlusion_radius_km
        return lisl_range_km > 2.0 * math.sqrt(max(r_orbit**2 - occ**2, 0.0))

    # -- snapshots ----------------------------------------------------

    def _instant(self, t: float | Instant) -> Instant:
        """t as an Instant of this engine: t itself, or a new one at t seconds."""
        instant = t if isinstance(t, Instant) else Instant(self, t)
        if instant.engine is not self:
            raise ValueError("an Instant serves only the engine it was made for")
        return instant

    def slot_geometry(self, t: float | Instant, requests) -> SlotGeometry:
        """The state at time t that snapshots for any of the requests share.

        requests is an iterable of (lisl_range_km, Mode). They are measured
        once, on the positions of the Instant t, as the one class set that
        covers them all: since classes grow with the range and an NG class
        set lies inside the NNG one of its range, that is the classes of the
        largest requested range, under NNG if any request is NNG.
        """
        requests = [(float(r), Mode(mode)) for r, mode in requests]
        if not requests:
            raise ValueError("a slot geometry needs at least one (range, mode) request")
        mode = Mode.NNG if any(m is Mode.NNG for _, m in requests) else Mode.NG
        return self._measure(self._instant(t), self.classes(max(r for r, _ in requests), mode))

    def _measure(self, instant: Instant, cover: LinkClasses,
                 alive: np.ndarray | None = None) -> SlotGeometry:
        """The candidate pairs of cover at the instant that lie within its
        range; with alive, a mask over the satellites, only the pairs of two
        live satellites, so that a pass over few satellites generates few
        candidate pairs."""
        pairs = cover.pairs(alive)
        length = pairs.per_pair(instant.positions, pair_distance, float)
        near = np.flatnonzero(length <= cover.lisl_range_km)
        return SlotGeometry(instant=instant, cover=cover, pairs=pairs.take(near),
                            length_km=length[near])

    def snapshot(self, t: float | Instant, lisl_range_km: float, mode: Mode,
                 ground_stations: list[GroundStation] | tuple[GroundStation, ...] = (),
                 geometry: SlotGeometry | None = None,
                 alive: np.ndarray | None = None) -> GraphSnapshot:
        """All links feasible at time t under the range and link policy.

        With geometry from slot_geometry at the same time, whose cover
        covers (range, mode), the snapshot selects its links from that
        shared state. Without it, the snapshot measures a geometry of its
        own on the Instant t, whose positions and ground links the calls at
        that time share. The links come out in the same order either way. A
        non-positive range yields a snapshot with no satellite links.

        alive, if given, is a mask of the satellites that may carry links:
        the snapshot then measures only the pairs of live satellites,
        generated from their runs alone, and keeps only the ground links to
        them. A shared geometry takes no mask.
        """
        instant = self._instant(t)
        classes = self.classes(lisl_range_km, mode)
        if geometry is None:
            geometry = self._measure(instant, classes, alive)
        elif (alive is not None or geometry.instant.engine is not self
              or geometry.instant.time_s != instant.time_s
              or geometry.cover.lisl_range_km < classes.lisl_range_km
              or (geometry.cover.mode, classes.mode) == (Mode.NG, Mode.NNG)):
            raise ValueError(f"a shared geometry takes no mask and must cover {mode.value} at "
                             f"{lisl_range_km:g} km and t = {instant.time_s:g} s")
        return GraphSnapshot(geometry, classes, ground_stations, alive)

    def proven_pathless(self, instant: Instant, lisl_range_km: float, mode: Mode,
                        src: GroundStation, dst: GroundStation) -> bool:
        """True if no snapshot of (range, mode) at the instant can join the
        stations: no satellite that src links to shares a connected
        component of the mask's candidate-pair graph with one that dst
        links to. Every satellite link of such a snapshot is a candidate
        pair, so no path can cross between those components. The labels
        are built once per (range, mode), when first read (LinkClasses.labels)."""
        labels = self.classes(lisl_range_km, mode).labels
        src_labels, dst_labels = (np.take(labels, instant.ground_links(gs)[0])
                                  for gs in (src, dst))
        return not np.isin(src_labels, dst_labels).any()


def class_tables(spec: ConstellationSpec,
                 phasing_offsets=None) -> tuple[np.ndarray, np.ndarray]:
    """The largest and smallest separation over one period, in km, of every
    pair class (dp, ds) of the shell, as (P x S) tables; pair (0, 0), a
    satellite with itself, reads inf. With phasing_offsets, a sequence of
    Walker phasing offsets F, the tables of the shell under each offset are
    stacked into (len x P x S) arrays, each equal to that offset's own."""
    planes, slots = spec.plane_count, spec.sats_per_plane
    offset = (spec.phasing_offset if phasing_offsets is None
              else np.asarray(phasing_offsets, dtype=np.int64)[:, None, None])
    dp = np.arange(planes)[:, None]
    raan = 2.0 * np.pi * dp / planes * (spec.raan_spread_deg / 360.0)
    delta = 2.0 * np.pi * (np.arange(slots) / slots + dp * offset / (planes * slots))
    incl = math.radians(spec.inclination_deg)
    ci, si = math.cos(incl), math.sin(incl)
    # (A+B)/2 and |A-B|/2 of the module docstring; A - B = -si^2 (1 - cos W).
    mean = (0.5 * (np.cos(raan) * (1.0 + ci**2) + si**2) * np.cos(delta)
            - ci * np.sin(raan) * np.sin(delta))
    swing = 0.5 * si**2 * (1.0 - np.cos(raan))
    pair_max = spec.orbit_radius_km * np.sqrt(np.maximum(2.0 * (1.0 - mean + swing), 0.0))
    pair_min = spec.orbit_radius_km * np.sqrt(np.maximum(2.0 * (1.0 - mean - swing), 0.0))
    pair_max[..., 0, 0] = pair_min[..., 0, 0] = np.inf
    return pair_max, pair_min


@dataclass(frozen=True, eq=False)
class LinkClasses:
    """The candidate classes of one (range, mode) (LinkEngine.classes):
    mask (P x S, read-only) holds the pair classes (dp, ds) that can ever
    be its links, and line_of_sight whether the Earth can block a pair
    within range. Built when first read: its candidate pairs as runs of one
    table, a lookup table by plane and slot offset, and the component
    labels of the graph the pairs form. The mask only generates candidates;
    a geometry selects links by comparisons (SlotGeometry._keep).

    runs is (step, cls, start, size). Row s of step and cls (S x C) holds
    the mask's C classes seen from a base of slot s, sorted by step = b - a,
    with the flat class of each; base a's partners b > a in the shell are
    the entries [start[a], start[a] + size[a]) of the flattened rows.
    pairs reads the runs of some bases (gather) or looks every ordered pair
    of some satellites up in table (lookup), whichever is cheaper.
    """

    lisl_range_km: float
    mode: Mode
    mask: np.ndarray
    line_of_sight: bool

    @functools.cached_property
    def runs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        # Class (dp, ds) takes base a = p S + s to b = p S + k, with
        # k = dp S + (s + ds) mod S, so a < b iff k > s, and b lies in the
        # shell iff dp < P - p. With each slot's classes sorted by k once,
        # a base's partners are one run of its slot's row, sorted by b.
        planes, slots = self.mask.shape
        cls_dp, cls_ds = np.nonzero(self.mask)
        slot = np.arange(slots)[:, None]
        k = cls_dp * slots + (slot + cls_ds) % slots
        order = np.argsort(k, axis=1)
        first = np.count_nonzero(k <= slot, axis=1)
        stop = np.cumsum(np.bincount(cls_dp, minlength=planes))[::-1]  # classes with dp < P - p
        return ((np.take_along_axis(k, order, axis=1) - slot).astype(np.int32),
                (cls_dp * slots + cls_ds).astype(np.int16)[order],
                np.tile(np.arange(slots) * len(cls_dp) + first, planes).astype(np.int32),
                (stop[:, None] - first).ravel().astype(np.int32))

    @functools.cached_property
    def table(self) -> np.ndarray:
        """The flat class of the pair (a, b), where b lies dp planes and ds
        slots from a (|dp| < P, |ds| < S), at (dp + P, ds + S) of a 2P x 2S
        table, flattened; -1 where b <= a or the class is not in the mask."""
        planes, slots = self.mask.shape
        dp = np.arange(-planes, planes)[:, None]
        ds = np.arange(-slots, slots)
        above = (dp > 0) | ((dp == 0) & (ds > 0))
        cls = np.maximum(dp, 0) * slots + ds % slots
        keep = above & self.mask.ravel()[cls]
        table = np.where(keep, cls, -1).astype(np.int16).ravel()
        table.setflags(write=False)
        return table

    @functools.cached_property
    def labels(self) -> np.ndarray:
        """Per satellite, the label of its connected component in the graph
        of every candidate pair of the mask. scipy is imported on first
        use, so that a process that proves nothing never loads it."""
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import connected_components

        n = self.mask.size
        pairs = self.gather(np.arange(n, dtype=np.int32))
        # The pairs come sorted by a, so the runs' sizes are the CSR row counts.
        indptr = np.concatenate(([0], np.cumsum(self.runs[3])))
        graph = csr_matrix((np.ones(len(pairs.b), dtype=bool), pairs.b, indptr), shape=(n, n))
        labels = connected_components(graph, directed=False)[1]
        labels.setflags(write=False)
        return labels

    def pairs(self, alive: np.ndarray | None = None) -> _PairRows:
        """Satellite pairs a < b whose class lies in the mask, sorted by
        (a, b); with alive, a mask over the satellites, only the pairs of
        two live satellites. The m live satellites' pairs come from their
        runs, or, if m^2 is below the runs' summed size, from a lookup of
        every ordered live pair, so that a pass costs the smaller of the
        two. The pairs of a smaller mask are an order-preserving
        subsequence of those of a larger one."""
        size = self.runs[3]
        if alive is None:
            return self.gather(np.arange(len(size), dtype=np.int32))
        live = np.flatnonzero(alive).astype(np.int32)
        if len(live) ** 2 < np.take(size, live).sum():
            return self.lookup(live)
        return self.gather(live, alive)

    def gather(self, a: np.ndarray, alive: np.ndarray | None = None) -> _PairRows:
        """The pairs of the bases a (ascending int32 flat indices), sorted by
        (a, b), gathered from their runs; with alive, only those whose b is
        live too."""
        step, cls, start, size = self.runs
        size = np.take(size, a)
        rows = _run_rows(np.take(start, a), size)
        a = np.repeat(a, size)
        b = a + np.take(step, rows)
        if alive is not None:
            # Gathering the few live pairs by index is faster than three masks.
            live = np.flatnonzero(np.take(alive, b))
            rows, a, b = np.take(rows, live), np.take(a, live), np.take(b, live)
        return _PairRows(a=a, b=b, cls=np.take(cls, rows))

    def lookup(self, live: np.ndarray) -> _PairRows:
        """The pairs among the live satellites (ascending int32 flat indices),
        sorted by (a, b), by looking every ordered live pair up in table:
        a satellite at plane p and slot s has the key 2 S p + s, and the
        pair (a, b) sits at key(b) - key(a) + 2 S P + S. Rows of bases are
        looked up a block at a time, each against the later live
        satellites, in int32 blocks of at most _PAIR_BLOCK entries."""
        planes, slots = self.mask.shape
        key = live + live // slots * slots
        base = key - (2 * slots * planes + slots)
        a, b, cls = [], [], []
        lo = 0
        while lo < len(live) - 1:
            width = len(live) - lo - 1
            hi = min(lo + max(_PAIR_BLOCK // width, 1), len(live))
            block = np.take(self.table, key[None, lo + 1:] - base[lo:hi, None])
            k = np.flatnonzero(block >= 0)
            i = k // width  # np.divmod takes twice as long
            a.append(np.take(live, i + lo))
            b.append(np.take(live, k - i * width + (lo + 1)))
            cls.append(np.take(block, k))
            lo = hi
        return _PairRows(a=_concat(a), b=_concat(b), cls=_concat(cls, dtype=np.int16))


@dataclass(frozen=True, eq=False)
class _PairRows:
    """Parallel per-pair arrays: endpoints (a < b) and flat pair class
    dp * sats_per_plane + ds, where b lies dp planes above a (int16 holds it
    for shells of up to 99 x 99)."""

    a: np.ndarray
    b: np.ndarray
    cls: np.ndarray

    def take(self, index) -> "_PairRows":
        return _PairRows(a=self.a[index], b=self.b[index], cls=self.cls[index])

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


class Instant:
    """One slot time of an engine, and the state that its snapshots,
    geometries, proofs and lower bounds share, each computed when first read:
    the shell's positions, and per station its position g and x.g for every
    satellite x, from which ground_links and angle_beyond_reach both derive.
    bounds holds scenario.evaluate_slot's lower bounds by (src, dst, range),
    which the NG and NNG queries of one station pair share."""

    def __init__(self, engine: LinkEngine, time_s: float):
        self.engine = engine
        self.time_s = time_s
        self.bounds: dict = {}
        self._station, self._ground, self._angle = {}, {}, {}

    @functools.cached_property
    def positions(self) -> np.ndarray:
        return self.engine.constellation.positions_at(self.time_s)

    def station(self, gs: GroundStation) -> tuple[np.ndarray, np.ndarray]:
        """The station's position g, and x.g for every satellite x."""
        found = self._station.get(gs)
        if found is None:
            g = ground_station_position(gs, self.time_s, self.engine.earth_rotation0_deg,
                                        self.engine.constants.earth_radius_km)
            found = self._station[gs] = (g, self.positions @ g)
        return found

    def ground_links(self, gs: GroundStation) -> tuple[np.ndarray, np.ndarray]:
        """The satellites that the station can link to, with their slant
        ranges: those within the station's slant range and above its horizon.

        A satellite x of the shell, of radius r, lies within slant range R of
        the station g iff x.g >= (r^2 + |g|^2 - R^2)/2. Only the few
        satellites that pass this test with a slack of 1e-6 r^2, far above
        its rounding, are measured and put to the slant and horizon rule."""
        found = self._ground.get(gs)
        if found is None:
            g, dot = self.station(gs)
            r2 = self.engine.constellation.spec.orbit_radius_km ** 2
            near = np.flatnonzero(dot >= 0.5 * (r2 + g @ g - gs.range_km ** 2) - 1e-6 * r2)
            delta = np.take(self.positions, near, axis=0) - g
            slant = np.sqrt(np.einsum("ij,ij->i", delta, delta))
            feasible = np.flatnonzero((slant <= gs.range_km) & (delta @ g > 0.0))
            found = self._ground[gs] = (np.take(near, feasible).astype(np.int32),
                                        np.take(slant, feasible))
        return found

    def angle_beyond_reach(self, gs: GroundStation) -> np.ndarray:
        """Per satellite, by how much the central angle between it and the
        station exceeds theta_g, the largest at which the station reaches
        the orbit sphere; 0 within theta_g.

        A station at radius R_E with slant range g reaches satellites of the
        shell, of orbit radius r, up to the central angle theta_g from it,
        sin^2(theta_g/2) = (g^2 - (r - R_E)^2)/(4 r R_E). The angle between
        a satellite x and the station position p is atan2(|x x p|, x.p),
        with |x x p| = sqrt(r^2 |p|^2 - (x.p)^2), so that x.p is the one
        product taken per satellite. The root loses digits as the angle
        nears 0 or pi (to about 2e-8 rad at exactly 0), so the few
        satellites within about 1.4e-3 rad of the station's zenith or nadir
        take the cross product."""
        found = self._angle.get(gs)
        if found is None:
            r = self.engine.constellation.spec.orbit_radius_km
            r_e = self.engine.constants.earth_radius_km
            p, dot = self.station(gs)
            rp = r * math.sqrt(p @ p)
            cross = np.sqrt(np.maximum(rp * rp - dot * dot, 0.0))
            steep = np.flatnonzero(np.abs(dot) > (1.0 - 1e-6) * rp)
            if len(steep):
                cross[steep] = np.linalg.norm(np.cross(self.positions[steep], p), axis=1)
            g = gs.range_km
            reach = 2.0 * math.asin(math.sqrt(
                min(max((g - abs(r - r_e)) * (g + abs(r - r_e)) / (4.0 * r * r_e), 0.0), 1.0)))
            found = self._angle[gs] = np.maximum(np.arctan2(cross, dot) - reach, 0.0)
        return found


@dataclass(eq=False)
class SlotGeometry:
    """Satellite pairs at one Instant, shared by the snapshots of many queries.

    Made by LinkEngine.slot_geometry, or by a snapshot for itself. pairs
    holds every candidate pair of cover, the LinkClasses that covers each
    (range, mode) it serves, within cover's range, with its length. The
    plane-relation type codes, line of sight, each pair's class maximum
    (pair_max_km) and NG reach are computed on first use and then kept, so
    that each (range, mode) selects its links with one comparison per pair
    (_keep); the positions and ground links are the instant's.
    """

    instant: Instant
    cover: LinkClasses
    pairs: _PairRows
    length_km: np.ndarray
    _selected: dict = field(default_factory=dict, init=False, repr=False)

    @functools.cached_property
    def type_code(self) -> np.ndarray:
        """Per pair, the index of its LinkType: intra-plane (0), and otherwise
        adjacent-plane (1) or nearby-plane (2) if the two satellites move the
        same way, crossing-plane (3) if not. The plane offset dp of a pair's
        class is wrapped around the shell to min(dp, plane_count - dp)."""
        shell = self.instant.engine.constellation
        vel = shell.velocities_at(self.instant.time_s)
        pairs = self.pairs
        co_moving = pairs.per_pair(vel, lambda v, w: np.einsum("ij,ij->i", v, w) > 0.0, bool)
        dp = pairs.cls // shell.spec.sats_per_plane
        offset = np.minimum(dp, shell.spec.plane_count - dp)
        type_code = np.full(len(pairs.a), 3, dtype=np.int8)
        type_code[(offset == 1) & co_moving] = 1
        type_code[(offset >= 2) & co_moving] = 2
        type_code[offset == 0] = 0
        return type_code

    @functools.cached_property
    def pair_max_km(self) -> np.ndarray:
        """Per pair, its class's largest separation over one period
        (LinkEngine.pair_max_table_km): the pair is permanent at range r iff
        this is at most r."""
        return np.take(self.instant.engine.pair_max_table_km, self.pairs.cls)

    @functools.cached_property
    def ng_reach_km(self) -> np.ndarray:
        """Per pair, the smallest range at which it is within range and
        permanent, the larger of pair_max_km and its length: it is an NG
        link at r, Earth aside, iff this is at most r."""
        return np.maximum(self.pair_max_km, self.length_km)

    @functools.cached_property
    def clear_of_earth(self) -> np.ndarray:
        """Per pair, True iff the segment between the two satellites clears the
        occlusion sphere."""
        occ = self.instant.engine.constants.occlusion_radius_km
        return self.pairs.per_pair(self.instant.positions,
                                   lambda p, q: _segments_clear_origin(p, q, occ), bool)

    def selection(self, classes: LinkClasses) -> np.ndarray | slice:
        """Index of the pairs that are links of classes' (range, mode), as
        int32, or slice(None) if every pair is; selected once per classes."""
        index = self._selected.get(classes)
        if index is None:
            keep = self._keep(classes)
            # Keeping every pair hands out views of the geometry's arrays,
            # which snapshots, like their shared positions, never write to.
            index = slice(None) if keep.all() else np.flatnonzero(keep).astype(np.int32)
            self._selected[classes] = index
        return index

    def count(self, classes: LinkClasses) -> int:
        """The number of pairs that are links of classes' (range, mode): the
        length of its selection, counted without building the index when
        none has been selected."""
        index = self._selected.get(classes)
        if index is None:
            return int(np.count_nonzero(self._keep(classes)))
        return len(self.length_km) if isinstance(index, slice) else len(index)

    def _keep(self, classes: LinkClasses) -> np.ndarray:
        """Per pair, True iff it is a link of classes' (range, mode): one
        comparison with the range, of its length under NNG and of its
        ng_reach_km under NG, and, where the Earth can block the range, clear
        of the Earth. A pair within range r lies in the NNG(r) mask, since
        the mask's 1 m guard keeps every class that ever comes within r, so
        NNG needs no look at the mask."""
        reach = self.length_km if classes.mode is Mode.NNG else self.ng_reach_km
        keep = reach <= classes.lisl_range_km
        if classes.line_of_sight:
            keep &= self.clear_of_earth
        return keep


def pair_distance(p, q):
    """Per row, the distance between points p and q, (n x 3) arrays or one
    of them a single point: the one pair-distance rule of the package."""
    diff = p - q
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


def _run_rows(lo: np.ndarray, size: np.ndarray) -> np.ndarray:
    """The indices of the runs [lo, lo + size), one run after another."""
    return np.arange(size.sum()) + np.repeat(lo - (np.cumsum(size) - size), size)


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
    """Counts of links by (type, permanence), plus undirected/directed totals.
    The satellite links are counted by one bincount over 2 * type code +
    (0 if permanent else 1); keys come in type, then permanence, order and
    zero counts are left out."""
    tally = np.bincount(2 * snapshot.sat_type_code + ~snapshot.sat_permanent,
                        minlength=2 * len(_SAT_TYPE_CODES))
    counts: dict[tuple[LinkType, Permanence], int] = {
        (link_type, permanence): int(tally[2 * code + k])
        for code, link_type in enumerate(_SAT_TYPE_CODES)
        for k, permanence in enumerate(Permanence) if tally[2 * code + k]}
    n_ground = len(snapshot.gs_sat_index)
    if n_ground:
        counts[(LinkType.GROUND_LINK, Permanence.TEMPORARY)] = n_ground
    total = int(sum(counts.values()))
    return LinkCensus(
        time_s=snapshot.time_s, lisl_range_km=snapshot.lisl_range_km, mode=snapshot.mode,
        counts=counts, total_undirected=total, total_directed=2 * total)
