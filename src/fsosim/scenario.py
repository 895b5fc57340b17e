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

Within a chunk, each query's last path bounds its next slot (_PathBound):
satellites that cannot lie on a path as fast as that one are dropped from
the snapshot before it is built. The bound is exact, so records do not
depend on where chunks start.
"""
from __future__ import annotations

import csv
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

_WORKER_ENGINE: LinkEngine | None = None
_WORKER_CONFIGS: list[ScenarioConfig] = []


def _worker_init(engine: LinkEngine, configs: list[ScenarioConfig]):
    global _WORKER_ENGINE, _WORKER_CONFIGS
    _WORKER_ENGINE, _WORKER_CONFIGS = engine, configs


# A link of the last path this close to the range or to the occlusion
# sphere forms no bound, whatever rounding the snapshot's own measurement
# of it sees.
_RECHECK_MARGIN_KM = 1e-6
# Latency slack of the cut, far above the rounding in U and LB(x).
_BOUND_SLACK_MS = 1e-6


class _PathBound:
    """Drops, from one slot of a query, the satellites that no optimal path
    can visit, given the query's last path.

    If every link of that path is still feasible in this slot, its latency
    here, U, bounds the slot's optimum from above. From below, a satellite
    link of length l <= R costs l/c + d >= k l with k = 1/c + d/R, where d is
    the node delay and R the link range, and a ground link of length at most
    the station's slant range g costs its propagation delay. By the triangle
    inequality any path from station s to station t through satellite x then
    costs at least LB(x) = d + leg_s(|s - x|) + leg_t(|x - t|), with
    leg(a) = min(a, g)/c + max(a - g, 0) k. No satellite with LB(x) > U lies
    on an optimal path (the A* bound of Hart, Nilsson and Raphael, 1968), so
    dropping those changes neither the optimum nor, but for exact ties, the
    path found. upper_ms holds U after a call, None if no bound formed.
    """

    def __init__(self, engine: LinkEngine, cfg: ScenarioConfig, t: float,
                 node_sequence: tuple[str, ...]):
        self.engine, self.cfg, self.t = engine, cfg, t
        self.satellites = [engine.constellation.flat_index(parse_id(name))
                           for name in node_sequence[1:-1]]
        self.upper_ms: float | None = None

    def __call__(self, positions: np.ndarray) -> np.ndarray | None:
        engine, cfg, sats = self.engine, self.cfg, self.satellites
        _, reach_s, slant_s = engine.ground_reach(cfg.src, self.t, positions)
        _, reach_d, slant_d = engine.ground_reach(cfg.dst, self.t, positions)
        if not (reach_s[sats[0]] and reach_d[sats[-1]]):
            return None
        range_km = cfg.lisl_range_km
        hops = engine.chain_lengths(positions[sats], range_km, _RECHECK_MARGIN_KM)
        if hops is None:
            return None
        per_km = 1e6 / engine.constants.c_mps
        delay = engine.constants.node_delay_ms
        self.upper_ms = ((slant_s[sats[0]] + hops.sum() + slant_d[sats[-1]]) * per_km
                         + delay * len(sats))
        k = per_km + delay / range_km

        def leg(a, g):
            return np.minimum(a, g) * per_km + np.maximum(a - g, 0.0) * k

        lower = delay + leg(slant_s, cfg.src.range_km) + leg(slant_d, cfg.dst.range_km)
        return lower <= self.upper_ms + _BOUND_SLACK_MS


def _evaluate_instants(engine: LinkEngine, configs: list[ScenarioConfig],
                       instants: list[_Instant]) -> list[tuple[int, SlotRecord]]:
    requests = {(cfg.lisl_range_km, cfg.mode) for cfg in configs}
    last: dict[int, tuple[str, ...]] = {}  # each query's last path, if it had one
    out = []
    for t, due in instants:
        # A query alone at its instant has nothing to share, so its snapshot
        # measures its own geometry, pruned before any pair is measured.
        geometry = engine.slot_geometry(t, requests) if len(due) > 1 else None
        for q, i in due:
            prune = _PathBound(engine, configs[q], t, last[q]) if q in last else None
            record = evaluate_slot(engine, configs[q], i, geometry, prune)
            if record.path_found:
                last[q] = record.node_sequence
            else:
                last.pop(q, None)
            out.append((q, record))
    return out


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
        chunk_size = max(1, len(instants) // (parallelism * 4))
        chunks = [instants[k:k + chunk_size] for k in range(0, len(instants), chunk_size)]
        with ProcessPoolExecutor(max_workers=parallelism, initializer=_worker_init,
                                 initargs=(engine, configs)) as pool:
            found = [pair for part in pool.map(_worker_chunk, chunks) for pair in part]
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
