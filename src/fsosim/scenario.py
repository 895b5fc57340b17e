"""Time-slotted simulation of ground-to-ground connections.

A scenario fixes a source and destination station, a laser-link range, a
link policy, and a slot grid; the runner routes the minimum-latency path on
every slot's snapshot and aggregates the results. Averages cover only the
slots where a path exists; pathless slots are data, not failures.

A batch of scenarios is evaluated slot-major: each time gets one
links.Instant, on which the shell is propagated once, and each station's
position, central angles and ground links and each station pair's lower
bounds are computed once, when first needed; every scenario then measures
and routes a snapshot of its own on it, generating only the candidate
pairs of the satellites it keeps. With parallelism > 1 one process pool
serves the whole batch; its tasks are chunks of slots, and the workers use
the caller's engine, which they inherit through the pool initializer, and
the router's scipy, which the caller loads before the pool forks.
Records are always emitted in slot order regardless of the parallelism.

Each slot guesses an upper bound U on its optimum and drops, before the
snapshot is built, every satellite whose lower bound exceeds U; the route
found then checks the guess (evaluate_slot). The guess is 1 % above the
query's last latency within a chunk or, with none, 10 % above the smallest
lower bound, and its margin doubles while it finds no path. A slot after
one with no path, and a slot whose guess has grown over every bound with
no path found, is first checked against the components of its query's
candidate-pair graph, which prove a slot pathless without measuring or
routing it. A guess that misses costs another pass, never a wrong
record, so records do not depend on where chunks start or on what else a
batch holds.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np

from . import routing
from .errors import ConfigurationError
from .links import Instant, LinkEngine, Mode
from .orbital import GroundStation

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
        if not 0 < self.lisl_range_km < math.inf:
            raise ConfigurationError("scenario lisl_range_km must be positive and finite")
        if not 0 < self.slot_duration_s < math.inf:
            raise ConfigurationError("scenario slot_duration_s must be positive and finite")
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
                  last_ms: float | None = None, instant: Instant | None = None) -> SlotRecord:
    """Route one slot of the scenario, with the satellites that no optimal
    path can visit left out.

    last_ms is the query's latency in the slot before, inf if that slot had
    no path, or None if it is not known.
    Each pass guesses an upper bound U on the optimum and drops every
    satellite whose lower bound (see lower_bounds) exceeds U: the A* bound
    of Hart, Nilsson and Raphael (1968). A path no slower than U is the
    optimum, since every satellite of an optimal path has a bound of at
    most U and was kept, and so is, but for exact ties, the path found. A
    slower path's latency is a proven U for one last pass; after no path
    at all, the guess's margin doubles.

    A slot is put to a proof (LinkEngine.proven_pathless) before any pass
    if the slot before had no path, and otherwise before a pass that would
    drop no satellite while no pass has found a path: if the stations'
    satellites lie in different components of the query's candidate-pair
    graph, the slot has no path, and nothing more is measured or routed.
    A slot after one with no path that the proof leaves open guesses U as
    a slot with no last latency does.

    instant, if given, is the slot's Instant, whose positions, station
    state and lower bounds (Instant.bounds, by (src, dst, range)) the
    queries of the slot's time share; without it the slot makes its own.
    """
    instant = Instant(engine, slot_index * cfg.slot_duration_s) if instant is None else instant
    proof_due = True  # until a pass finds a path or a proof fails
    if last_ms == math.inf:
        if engine.proven_pathless(instant, cfg.lisl_range_km, cfg.mode, cfg.src, cfg.dst):
            return SlotRecord(slot_index=slot_index, path_found=False)
        last_ms, proof_due = None, False
    key = (cfg.src, cfg.dst, cfg.lisl_range_km)
    if key not in instant.bounds:
        instant.bounds[key] = lower_bounds(engine, cfg, instant.angle_beyond_reach(cfg.src),
                                           instant.angle_beyond_reach(cfg.dst))
    lower = instant.bounds[key]
    base, margin = (lower.min(), _FIRST_MARGIN) if last_ms is None else (last_ms, _LAST_MARGIN)
    upper = base * (1.0 + margin)
    while not (alive := lower <= upper + _BOUND_SLACK_MS).all():
        record = _route_slot(engine, cfg, slot_index, alive, instant)
        if record.path_found and record.latency_ms <= upper:
            return record
        if record.path_found:
            upper, proof_due = record.latency_ms, False
        else:
            margin *= 2.0
            upper = base * (1.0 + margin)
    if proof_due and engine.proven_pathless(instant, cfg.lisl_range_km, cfg.mode, cfg.src,
                                            cfg.dst):
        return SlotRecord(slot_index=slot_index, path_found=False)
    return _route_slot(engine, cfg, slot_index, None, instant)


def _route_slot(engine: LinkEngine, cfg: ScenarioConfig, slot_index: int,
                alive: np.ndarray | None = None, instant: Instant | None = None) -> SlotRecord:
    # One pass of evaluate_slot, over the satellites alive marks (all if
    # None), on the slot's Instant if given.
    t = slot_index * cfg.slot_duration_s if instant is None else instant
    snap = engine.snapshot(t, cfg.lisl_range_km, cfg.mode, (cfg.src, cfg.dst), alive=alive)
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


# The first guess at U. A slot's optimum moves little from the last slot's,
# so 1 % above the last latency mostly holds. With no last latency, the
# optimum of the study's queries lies near the smallest lower bound, and
# 10 % above it keeps few satellites. A guess that finds no path proves
# nothing, so its margin doubles: the optima of Madrid-Tokyo, whose great
# circle climbs above the shell's inclination, lie 14-33 % above the
# smallest bound, and a third pass at most reaches them.
_LAST_MARGIN = 0.01
_FIRST_MARGIN = 0.1
# Latency slack of the cut, far above the rounding in U and the lower bounds.
_BOUND_SLACK_MS = 1e-6


def lower_bounds(engine: LinkEngine, cfg: ScenarioConfig, src_angle: np.ndarray,
                 dst_angle: np.ndarray) -> np.ndarray:
    """Per satellite x, a lower bound LB_arc(x) on the latency of any path
    of the query from station s to station t through x, given the central
    angles from x to s and to t beyond the stations' reach
    (Instant.angle_beyond_reach), which depend on the instant but not on
    the query's range.

    Each satellite adds the node delay d, so a satellite link of length
    l <= R, the link range, costs l/c + d, one more d aside. On the orbit
    sphere, of radius r, a link spans a central angle of at most
    theta_R = 2 asin(R'/2r), where R' = min(R, 2r). So links spanning a
    central angle A number at least ceil(A/theta_R) and, since a chord is
    concave in its angle, measure at least n R' + 2r sin((A - n theta_R)/2),
    n = floor(A/theta_R); they cost at least hops(A), the sum of the two,
    never less than A (R'/c + d)/theta_R. A station at radius R_E reaches
    satellites up to the central angle theta_g from it, over a ground link
    at least |r - R_E| long, and central angles obey the triangle
    inequality, so LB_arc(x) = d + 2|r - R_E|/c + hops(max(theta(s, x) -
    theta_g(s), 0)) + hops(max(theta(x, t) - theta_g(t), 0)). Whole links
    are counted 1e-9 of a link short, so rounding stays far below the
    cut's slack.
    """
    per_km = 1e6 / engine.constants.c_mps
    delay = engine.constants.node_delay_ms
    r = engine.constellation.spec.orbit_radius_km
    r_e = engine.constants.earth_radius_km
    longest = min(cfg.lisl_range_km, 2.0 * r)
    theta_r = 2.0 * math.asin(longest / (2.0 * r))

    def hops(angle):
        span = angle / theta_r
        whole = np.floor(span)
        return (np.ceil(span - 1e-9) * delay
                + (whole * longest + 2.0 * r * np.sin((span - whole) * (theta_r / 2.0)))
                * per_km)

    return delay + 2.0 * abs(r - r_e) * per_km + hops(src_angle) + hops(dst_angle)


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

# One time of a batch and the (query, slot index) pairs due then.
_Due = tuple[float, list[tuple[int, int]]]

_MIN_CHUNK = 5  # instants a pool task holds at least, unless that would idle a worker

_WORKER_ENGINE: LinkEngine | None = None
_WORKER_CONFIGS: list[ScenarioConfig] = []


def _worker_init(engine: LinkEngine, configs: list[ScenarioConfig]):
    global _WORKER_ENGINE, _WORKER_CONFIGS
    _WORKER_ENGINE, _WORKER_CONFIGS = engine, configs


def _evaluate_instants(engine: LinkEngine, configs: list[ScenarioConfig],
                       instants: list[_Due]) -> list[tuple[int, SlotRecord]]:
    last: dict[int, float] = {}  # each query's last latency, inf if it found no path
    out = []
    for t, due in instants:
        # The queries share the Instant, not the pairs: each measures only
        # the pairs of the satellites its own bounds keep.
        instant = Instant(engine, t)
        for q, i in due:
            record = evaluate_slot(engine, configs[q], i, last.get(q), instant)
            last[q] = record.latency_ms if record.path_found else math.inf
            out.append((q, record))
    return out


def _chunks(instants: list[_Due], parallelism: int) -> list[list[_Due]]:
    """Consecutive runs of the instants, one pool task each. Four chunks a
    worker balance the load, but a chunk's first instant has no last
    latency to guess U from, so a chunk holds at least _MIN_CHUNK
    instants, or as many as give each worker one chunk. 5 is the least
    that gives 10 instants on 2 workers one chunk each; a minimum of 8 or
    12 ran pooled 20- to 60-instant runs no faster on 2 vCPU."""
    size = max(len(instants) // (parallelism * 4),
               min(_MIN_CHUNK, -(-len(instants) // parallelism)))
    return [instants[k:k + size] for k in range(0, len(instants), size)]


def _worker_chunk(instants: list[_Due]) -> list[tuple[int, SlotRecord]]:
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
        # Loaded once here, the router's scipy is inherited by every forked
        # worker, which would otherwise import it again (about 0.2 s of CPU
        # each on a 2-vCPU x86_64 machine). The pool's own modules are
        # imported here too, so that a serial run never loads them.
        from concurrent.futures import ProcessPoolExecutor

        import scipy.sparse.csgraph  # noqa: F401

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
