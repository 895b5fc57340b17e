"""Time-slotted simulation of ground-to-ground connections.

A scenario fixes a source and destination station, a laser-link range, a
link policy, and a slot grid; the runner routes the minimum-latency path on
every slot's snapshot and aggregates the results. Averages cover only the
slots where a path exists; pathless slots are data, not failures.

A batch of scenarios is evaluated slot-major: at each instant the shell is
propagated and the candidate links of every scenario are measured once, in
one shared SlotGeometry, and each scenario then selects and routes its own
snapshot. With parallelism > 1 one process pool serves the whole batch; its
tasks are chunks of slots, and the workers use the caller's engine, which
they inherit through the pool initializer rather than rebuild. Records are
always emitted in slot order regardless of the parallelism degree.

Every slot is bounded by a path when one is at hand (_PathBound):
satellites that cannot lie on a path as fast as that one are dropped from
the snapshot before it is built. The path is the query's last one, within
a chunk; failing that, the best path found at the same instant for a
query of the same stations whose links are among its own (queries are
routed by range, NG first); failing that, for NNG, the path of NG at the
same range, routed first as a pilot. The bound is exact, so records do not
depend on where chunks start or on what else a batch holds.
"""
from __future__ import annotations

import csv
import functools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import routing
from .errors import ConfigurationError
from .links import LinkEngine, Mode, SlotGeometry
from .orbital import GroundStation, parse_id

# Stations at the stock exchanges of the studied cities.
BUNDLED_STATIONS: tuple[GroundStation, ...] = (
    GroundStation("Sydney", -33.8614, 151.2099),
    GroundStation("Sao Paulo", -23.5475, -46.6361),
    GroundStation("Toronto", 43.6489, -79.3817),
    GroundStation("Istanbul", 41.1065, 29.0278),
    GroundStation("Madrid", 40.4168, -3.7038),
    GroundStation("Tokyo", 35.6795, 139.7770),
    GroundStation("New York", 40.7069, -74.0113),
    GroundStation("Jakarta", -6.2241, 106.8076),
)

DEFAULT_RANGES_KM: tuple[float, ...] = (659.5, 1319.0, 1500.0, 1700.0, 2500.0, 3500.0, 5016.0)


@dataclass(frozen=True)
class ScenarioConfig:
    """One connection study: endpoints, range, link policy, and slot grid.
    Each hop costs the engine's constants.node_delay_ms."""

    src: GroundStation
    dst: GroundStation
    lisl_range_km: float
    mode: Mode = Mode.NNG
    slot_duration_s: float = 1.0
    slot_count: int = 3600

    def __post_init__(self):
        if self.src.name == self.dst.name:
            raise ConfigurationError(
                f"scenario source and destination are both {self.src.name!r}")
        if self.lisl_range_km <= 0:
            raise ConfigurationError("scenario lisl_range_km must be positive")
        if self.slot_duration_s <= 0:
            raise ConfigurationError("scenario slot_duration_s must be positive")
        if self.slot_count < 1:
            raise ConfigurationError("scenario slot_count must be at least 1")

    @property
    def name(self) -> str:
        return f"{self.src.name}-{self.dst.name}"


@dataclass(frozen=True)
class SlotRecord:
    """Routing outcome of one time slot."""

    slot_index: int
    path_found: bool
    latency_ms: float | None = None
    propagation_ms: float | None = None
    node_delay_ms: float | None = None
    hop_count: int | None = None
    node_sequence: tuple[str, ...] | None = None


@dataclass(frozen=True)
class MetricsSummary:
    """Per-scenario aggregates over the slots where a path existed."""

    avg_latency_ms: float | None
    avg_hops: float | None
    slots_with_path: int
    slot_count: int


@dataclass(frozen=True)
class ComparisonResult:
    """NG and NNG runs of the same geometry, with improvement deltas.

    Improvements are NG minus NNG and are None when the permanent-only run
    never found a path.
    """

    lisl_range_km: float
    ng_summary: MetricsSummary
    nng_summary: MetricsSummary
    ng_records: tuple[SlotRecord, ...]
    nng_records: tuple[SlotRecord, ...]

    @property
    def latency_improvement_ms(self) -> float | None:
        if self.ng_summary.slots_with_path == 0 or self.nng_summary.slots_with_path == 0:
            return None
        return self.ng_summary.avg_latency_ms - self.nng_summary.avg_latency_ms

    @property
    def hop_improvement(self) -> float | None:
        if self.ng_summary.slots_with_path == 0 or self.nng_summary.slots_with_path == 0:
            return None
        return self.ng_summary.avg_hops - self.nng_summary.avg_hops


def evaluate_slot(engine: LinkEngine, cfg: ScenarioConfig, slot_index: int,
                  geometry: SlotGeometry | None = None, prune=None) -> SlotRecord:
    """Route one slot of the scenario, optionally on a shared slot geometry
    and with the satellites that prune drops (see LinkEngine.snapshot) left out."""
    return _route_slot(engine, cfg, slot_index, geometry, prune)


def _route_slot(engine: LinkEngine, cfg: ScenarioConfig, slot_index: int,
                geometry: SlotGeometry | None, prune) -> SlotRecord:
    # evaluate_slot's body. A pilot calls it, so that evaluate_slot runs
    # once per slot-query, whatever bounds the query.
    t = slot_index * cfg.slot_duration_s
    snap = engine.snapshot(t, cfg.lisl_range_km, cfg.mode, (cfg.src, cfg.dst), geometry, prune)
    result = routing.shortest_path(snap, cfg.src.name, cfg.dst.name)
    if result is None:
        return SlotRecord(slot_index=slot_index, path_found=False)
    return SlotRecord(
        slot_index=slot_index, path_found=True,
        latency_ms=result.latency_ms,
        propagation_ms=result.propagation_delay_ms,
        node_delay_ms=result.node_delay_ms,
        hop_count=result.hop_count,
        node_sequence=result.node_sequence)


def summarize(records: list[SlotRecord] | tuple[SlotRecord, ...]) -> MetricsSummary:
    """Aggregate slot records; averages cover only slots with a path."""
    with_path = [r for r in records if r.path_found]
    if not with_path:
        return MetricsSummary(None, None, 0, len(records))
    return MetricsSummary(
        avg_latency_ms=sum(r.latency_ms for r in with_path) / len(with_path),
        avg_hops=sum(r.hop_count for r in with_path) / len(with_path),
        slots_with_path=len(with_path),
        slot_count=len(records))


# -- batch evaluation --------------------------------------------------

# One instant of a batch: its time and the (query, slot index) pairs due then.
_Instant = tuple[float, list[tuple[int, int]]]

_MIN_CHUNK = 5  # instants a pool task holds at least, unless that would idle a worker

_WORKER_ENGINE: LinkEngine | None = None
_WORKER_CONFIGS: list[ScenarioConfig] = []


def _worker_init(engine: LinkEngine, configs: list[ScenarioConfig]):
    global _WORKER_ENGINE, _WORKER_CONFIGS
    _WORKER_ENGINE, _WORKER_CONFIGS = engine, configs


# A link of a bounding path this close to the range or to the occlusion
# sphere forms no bound, whatever rounding the snapshot's own measurement
# of it sees.
_RECHECK_MARGIN_KM = 1e-6
# Latency slack of the cut, far above the rounding in U and the lower bounds.
_BOUND_SLACK_MS = 1e-6


class _PathBound:
    """Drops, from one slot of a query, the satellites that no optimal path
    can visit, given candidate paths from elsewhere: the query's last path,
    a path found at the same instant for a query with fewer links, or that
    of a pilot.

    The first candidate whose every link is a link of the query in this
    slot (in the query's pair classes, within range and, where line of
    sight binds, in sight; both ground links within slant range and above
    the horizon) gives U, its latency here, which bounds the slot's optimum
    from above. pilot, if given, is called for one more candidate path (or
    None) when no other holds. From below, any path from station s to
    station t through satellite x costs at least max(LB_chord(x), LB_arc(x))
    (see lower_bounds). No satellite with a lower bound above U lies on an
    optimal path (the A* bound of Hart, Nilsson and Raphael, 1968), so
    dropping those changes neither the optimum nor, but for exact ties, the
    path found. upper_ms holds U after a call, None if no bound formed.
    """

    def __init__(self, engine: LinkEngine, cfg: ScenarioConfig, t: float,
                 *paths: tuple[str, ...], pilot=None):
        self.engine, self.cfg, self.t = engine, cfg, t
        self.paths, self.pilot = paths, pilot
        self.upper_ms: float | None = None

    def __call__(self, positions: np.ndarray) -> np.ndarray | None:
        ends = self._ends(positions)
        for path in self._candidates():
            self.upper_ms = self._latency(path, positions, ends)
            if self.upper_ms is not None:
                chord, arc = self.lower_bounds(positions, ends)
                return np.maximum(chord, arc) <= self.upper_ms + _BOUND_SLACK_MS
        return None

    def _candidates(self):
        yield from self.paths
        if self.pilot is not None:
            path = self.pilot()
            if path is not None:
                yield path

    def _ends(self, positions):
        return [self.engine.ground_reach(gs, self.t, positions)
                for gs in (self.cfg.src, self.cfg.dst)]

    def _latency(self, path, positions, ends) -> float | None:
        """The path's latency at positions, or None if it is not a path of the
        query there."""
        engine, cfg = self.engine, self.cfg
        sats = [engine.constellation.flat_index(parse_id(name)) for name in path[1:-1]]
        (_, reach_s, slant_s), (_, reach_d, slant_d) = ends
        if not (reach_s[sats[0]] and reach_d[sats[-1]]):
            return None
        lengths = engine.chain_lengths(sats, positions, cfg.lisl_range_km, cfg.mode,
                                       _RECHECK_MARGIN_KM)
        if lengths is None:
            return None
        per_km = 1e6 / engine.constants.c_mps
        return ((slant_s[sats[0]] + lengths.sum() + slant_d[sats[-1]]) * per_km
                + engine.constants.node_delay_ms * len(sats))

    def lower_bounds(self, positions: np.ndarray, ends=None) -> tuple[np.ndarray, np.ndarray]:
        """Per satellite x, two lower bounds on the latency of any path from
        station s to station t through x: LB_chord(x) and LB_arc(x).

        Each satellite adds the node delay d, so a satellite link of length
        l <= R, the link range, costs l/c + d, one more d aside. In straight
        lines that is at least k l with k = 1/c + d/R, and a ground link of
        length at most the station's slant range g costs its propagation
        delay; by the triangle inequality, LB_chord(x) = d + leg_s(|s - x|)
        + leg_t(|x - t|), with leg(a) = min(a, g)/c + max(a - g, 0) k.

        On the orbit sphere, of radius r, a link spans a central angle of at
        most theta_R = 2 asin(R'/2r), where R' = min(R, 2r). So links
        spanning a central angle A number at least ceil(A/theta_R) and,
        since a chord is concave in its angle, measure at least
        n R' + 2r sin((A - n theta_R)/2), n = floor(A/theta_R); they cost
        at least hops(A), the sum of the two, never less than
        A (R'/c + d)/theta_R. A station at radius R_E reaches satellites up
        to the central angle theta_g from it, with sin^2(theta_g/2) =
        (g^2 - (r - R_E)^2)/(4 r R_E), over a ground link at least
        |r - R_E| long, and central angles obey the triangle inequality, so
        LB_arc(x) = d + 2|r - R_E|/c + hops(max(theta(s, x) - theta_g(s), 0))
        + hops(max(theta(x, t) - theta_g(t), 0)). The angles come from
        atan2, and whole links are counted 1e-9 of a link short, so
        rounding stays far below the cut's slack.
        """
        engine, cfg = self.engine, self.cfg
        (g_s, _, slant_s), (g_d, _, slant_d) = ends if ends is not None else self._ends(positions)
        per_km = 1e6 / engine.constants.c_mps
        delay = engine.constants.node_delay_ms
        range_km = cfg.lisl_range_km
        k = per_km + delay / range_km

        def leg(a, g):
            return np.minimum(a, g) * per_km + np.maximum(a - g, 0.0) * k

        chord = delay + leg(slant_s, cfg.src.range_km) + leg(slant_d, cfg.dst.range_km)
        r = engine.constellation.spec.orbit_radius_km
        r_e = engine.constants.earth_radius_km
        longest = min(range_km, 2.0 * r)
        theta_r = 2.0 * math.asin(longest / (2.0 * r))

        def hops(g_pos, g):
            cross = np.cross(positions, g_pos)
            theta = np.arctan2(np.sqrt(np.einsum("ij,ij->i", cross, cross)), positions @ g_pos)
            reach = 2.0 * math.asin(math.sqrt(
                min(max((g - abs(r - r_e)) * (g + abs(r - r_e)) / (4.0 * r * r_e), 0.0), 1.0)))
            span = np.maximum(theta - reach, 0.0) / theta_r
            whole = np.floor(span)
            return (np.ceil(span - 1e-9) * delay
                    + (whole * longest + 2.0 * r * np.sin((span - whole) * (theta_r / 2.0)))
                    * per_km)

        arc = (delay + 2.0 * abs(r - r_e) * per_km
               + hops(g_s, cfg.src.range_km) + hops(g_d, cfg.dst.range_km))
        return chord, arc


def _links_within(sub: ScenarioConfig, cfg: ScenarioConfig) -> bool:
    """True iff sub's links are among cfg's at every instant: link sets nest
    as NG(R') within NG(R) within NNG(R), and NNG(R') within NNG(R), for R' <= R."""
    return ((sub.src, sub.dst) == (cfg.src, cfg.dst) and sub.lisl_range_km <= cfg.lisl_range_km
            and (sub.mode is Mode.NG or cfg.mode is Mode.NNG))


def _pilot_path(engine: LinkEngine, cfg: ScenarioConfig, slot_index: int,
                geometry: SlotGeometry | None) -> tuple[str, ...] | None:
    """The path, if any, of NG at the query's range and slot."""
    return _route_slot(engine, replace(cfg, mode=Mode.NG), slot_index, geometry,
                       None).node_sequence


def _evaluate_instants(engine: LinkEngine, configs: list[ScenarioConfig],
                       instants: list[_Instant]) -> list[tuple[int, SlotRecord]]:
    # An NNG query's pilot selects NG at its range from a shared geometry.
    # NG's pair classes lie within NNG's, so this adds no pair to measure.
    requests = {(cfg.lisl_range_km, mode) for cfg in configs
                for mode in (Mode.NG, cfg.mode)}
    last: dict[int, tuple[str, ...]] = {}  # each query's last path, if it had one
    out = []
    for t, due in instants:
        # A query alone at its instant has nothing to share, so its snapshot
        # measures its own geometry, pruned before any pair is measured.
        geometry = engine.slot_geometry(t, requests) if len(due) > 1 else None
        # By range, NG first, so that a query routes after those whose links
        # are among its own, and can take its bound from their paths when it
        # has no last path or its last path broke.
        routed: list[tuple[ScenarioConfig, SlotRecord]] = []
        for q, i in sorted(due, key=lambda d: (configs[d[0]].lisl_range_km,
                                               configs[d[0]].mode is Mode.NNG)):
            cfg = configs[q]
            subsets = [(sub, r) for sub, r in routed if _links_within(sub, cfg)]
            paths = [last[q]] if q in last else []
            found = [r for _, r in subsets if r.path_found]
            if found:
                paths.append(min(found, key=lambda r: r.latency_ms).node_sequence)
            pilot = None
            if cfg.mode is Mode.NNG and not any(sub.mode is Mode.NG
                                                and sub.lisl_range_km == cfg.lisl_range_km
                                                for sub, _ in subsets):
                # Unless NG at the same range routed here already, its path
                # bounds an NNG query that no other path bounds.
                pilot = functools.partial(_pilot_path, engine, cfg, i, geometry)
            prune = _PathBound(engine, cfg, t, *paths, pilot=pilot) if paths or pilot else None
            record = evaluate_slot(engine, cfg, i, geometry, prune)
            if record.path_found:
                last[q] = record.node_sequence
            else:
                last.pop(q, None)
            routed.append((cfg, record))
            out.append((q, record))
    return out


def _chunks(instants: list[_Instant], parallelism: int) -> list[list[_Instant]]:
    """Consecutive runs of the instants, one pool task each. Four chunks a
    worker balance the load, but no last path bounds a chunk's first
    instant, so a chunk holds at least _MIN_CHUNK instants, or as many as
    give each worker one chunk. 5 is the least that gives 10 instants on 2
    workers one chunk each; a minimum of 8 or 12 ran pooled 20- to
    60-instant runs no faster on 2 vCPU."""
    size = max(len(instants) // (parallelism * 4),
               min(_MIN_CHUNK, -(-len(instants) // parallelism)))
    return [instants[k:k + size] for k in range(0, len(instants), size)]


def _worker_chunk(instants: list[_Instant]) -> list[tuple[int, SlotRecord]]:
    return _evaluate_instants(_WORKER_ENGINE, _WORKER_CONFIGS, instants)


def run_scenarios(engine: LinkEngine, configs,
                  parallelism: int = 1) -> list[tuple[list[SlotRecord], MetricsSummary]]:
    """Evaluate every slot of every scenario, slot-major, and aggregate each.

    Returns one (records, summary) pair per config, in the given order.
    With parallelism > 1 the instants are split over one process pool;
    output is identical to the serial run.
    """
    configs = list(configs)
    by_time: dict[float, list[tuple[int, int]]] = {}
    for q, cfg in enumerate(configs):
        for i in range(cfg.slot_count):
            by_time.setdefault(i * cfg.slot_duration_s, []).append((q, i))
    instants = sorted(by_time.items())
    if parallelism <= 1 or len(instants) < 4:
        found = _evaluate_instants(engine, configs, instants)
    else:
        with ProcessPoolExecutor(max_workers=parallelism, initializer=_worker_init,
                                 initargs=(engine, configs)) as pool:
            found = [pair for part in pool.map(_worker_chunk, _chunks(instants, parallelism))
                     for pair in part]
    records: list[list[SlotRecord]] = [[] for _ in configs]
    for q, record in found:
        records[q].append(record)
    for query_records in records:
        query_records.sort(key=lambda r: r.slot_index)
    return [(query_records, summarize(query_records)) for query_records in records]


def run_scenario(engine: LinkEngine, cfg: ScenarioConfig,
                 parallelism: int = 1) -> tuple[list[SlotRecord], MetricsSummary]:
    """Evaluate every slot of the scenario and aggregate.

    With parallelism > 1 the slots are split over a process pool; output is
    identical to the serial run.
    """
    return run_scenarios(engine, [cfg], parallelism)[0]


def compare_many(engine: LinkEngine, bases, parallelism: int = 1) -> list[ComparisonResult]:
    """Compare NG and NNG for each base config, all in one batch, in order."""
    bases = list(bases)
    queries = [replace(base, mode=mode) for base in bases for mode in (Mode.NG, Mode.NNG)]
    results = run_scenarios(engine, queries, parallelism)
    out = []
    for k, base in enumerate(bases):
        (ng_records, ng_summary), (nng_records, nng_summary) = results[2 * k:2 * k + 2]
        out.append(ComparisonResult(
            lisl_range_km=base.lisl_range_km,
            ng_summary=ng_summary, nng_summary=nng_summary,
            ng_records=tuple(ng_records), nng_records=tuple(nng_records)))
    return out


# -- CSV emission ------------------------------------------------------

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def write_slots_csv(path, records) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["slot_index", "path_found", "latency_ms", "propagation_ms",
                         "node_delay_ms", "hop_count", "path"])
        for r in records:
            writer.writerow([
                r.slot_index, str(r.path_found).lower(), _fmt(r.latency_ms),
                _fmt(r.propagation_ms), _fmt(r.node_delay_ms), _fmt(r.hop_count),
                ";".join(r.node_sequence) if r.node_sequence else ""])


def write_summary_csv(path, rows) -> None:
    """rows: iterable of (scenario_name, mode, range_km, MetricsSummary)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scenario", "mode", "range_km", "avg_latency_ms",
                         "avg_hops", "slots_with_path", "slot_count"])
        for name, mode, range_km, summary in rows:
            writer.writerow([
                name, mode.value, _fmt(float(range_km)), _fmt(summary.avg_latency_ms),
                _fmt(summary.avg_hops), summary.slots_with_path, summary.slot_count])


def write_comparison_csv(path, scenario_name: str, comparisons) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scenario", "range_km",
                         "ng_avg_latency_ms", "nng_avg_latency_ms", "latency_improvement_ms",
                         "ng_avg_hops", "nng_avg_hops", "hop_improvement",
                         "ng_slots_with_path", "nng_slots_with_path", "slot_count"])
        for comp in comparisons:
            ng, nng = comp.ng_summary, comp.nng_summary
            writer.writerow([
                scenario_name, _fmt(float(comp.lisl_range_km)),
                _fmt(ng.avg_latency_ms), _fmt(nng.avg_latency_ms),
                _fmt(comp.latency_improvement_ms),
                _fmt(ng.avg_hops), _fmt(nng.avg_hops), _fmt(comp.hop_improvement),
                ng.slots_with_path, nng.slots_with_path, nng.slot_count])
