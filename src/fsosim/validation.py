"""Self-validation: geometry constants, phasing-offset scan, connectivity checks.

The phasing offset of the Starlink Phase-I shell is not public, so the scan
tries every offset and pins the one whose permanent-link census matches the
reference connectivity counts for this constellation, breaking ties with
the equatorial all-links census. The remaining checks confirm the fixed
geometry (minimum/maximum link range, station great-circle distances) and
the census ratio between the two link policies.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationFailure
from .geometry import PhysicalConstants, great_circle_distance, max_lisl_range
from .links import LinkEngine, Mode, SlotGeometry, class_tables, degree_counts, pair_distance
from .orbital import Constellation, ConstellationSpec, SatelliteId, build_constellation
from .scenario import DEFAULT_RANGES_KM

# Reference connectivity of the first satellite of the Starlink Phase-I
# shell (24 planes x 66 slots, 550 km, 53 deg) at the standard ranges,
# DEFAULT_RANGES_KM.
REFERENCE_PERMANENT_DEGREES = (2, 4, 6, 10, 18, 42, 88)
REFERENCE_TOTAL_DEGREES_EQUATOR = (4, 8, 12, 22, 38, 88, 180)
REFERENCE_TOTAL_DEGREES_AT_47_33 = (8, 29, 33, 40, 70, 117, 209)
PERMANENT_EXACT_COUNT = 4          # low ranges must match exactly
PERMANENT_HIGH_TOLERANCE = 2       # high ranges allow phasing slack

REFERENCE_DISTANCES_KM = (
    ("Toronto", "Istanbul", 8198.0),
    ("Madrid", "Tokyo", 10778.0),
    ("New York", "Jakarta", 16198.0),
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"[{'PASS' if self.passed else 'FAIL'}] {self.name}: {self.detail}"


def permanent_degree_profile(constellation: Constellation,
                             ranges_km=DEFAULT_RANGES_KM) -> tuple[int, ...]:
    """Permanent-link degree of every satellite (they are all equal) per range."""
    pair_max, _ = class_tables(constellation.spec)
    return tuple(int(d) for d in _permanent_degrees(pair_max, ranges_km))


def _permanent_degrees(pair_max: np.ndarray, ranges_km) -> np.ndarray:
    """Per range, the number of classes whose largest separation stays
    within it: the permanent degree, over the last two (plane, slot) axes
    of a class table or a stack of them."""
    return np.stack([np.count_nonzero(pair_max <= r, axis=(-2, -1)) for r in ranges_km],
                    axis=-1)


def total_degree_profile(constellation: Constellation, t: float,
                         ranges_km=DEFAULT_RANGES_KM,
                         sat: SatelliteId = SatelliteId(0, 0)) -> tuple[int, ...]:
    """All-links degree of one satellite at time t per range."""
    pos = constellation.positions_at(t)
    k = constellation.flat_index(sat)
    d = pair_distance(pos, pos[k])
    d[k] = np.inf
    return tuple(int((d <= r).sum()) for r in ranges_km)


def slot_nearest_latitude(constellation: Constellation, sat: SatelliteId,
                          target_deg: float, slot_count: int = 3600,
                          slot_duration_s: float = 1.0) -> int:
    """Slot index at which the satellite's latitude is closest to target_deg."""
    times = np.arange(slot_count) * slot_duration_s
    lat = constellation.latitude_deg(sat, times)
    return int(np.argmin(np.abs(lat - target_deg)))


def scan_phasing_offset(base_spec: ConstellationSpec) -> tuple[int, dict[int, tuple[int, ...]]]:
    """Pin the phasing offset that reproduces the reference permanent census.

    Qualifying offsets match the low-range permanent degrees exactly and the
    high-range ones within +/-2; ties are broken by total deviation on the
    high ranges, then by deviation from the equatorial all-links census,
    then by the offset itself. Every offset's permanent degrees come from
    one stack of class tables, and only the offsets tied on the smallest
    high-range deviation take the equatorial census. Raises
    ValidationFailure if nothing qualifies.
    """
    offsets = range(base_spec.plane_count)
    degrees = _permanent_degrees(class_tables(base_spec, offsets)[0], DEFAULT_RANGES_KM)
    profiles = {f: tuple(int(d) for d in degrees[f]) for f in offsets}
    deviation = np.abs(degrees - REFERENCE_PERMANENT_DEGREES)
    low, high = deviation[:, :PERMANENT_EXACT_COUNT], deviation[:, PERMANENT_EXACT_COUNT:]
    qualifies = (low == 0).all(axis=1) & (high <= PERMANENT_HIGH_TOLERANCE).all(axis=1)
    if not qualifies.any():
        raise ValidationFailure(
            "no phasing offset reproduces the reference permanent-link census")
    high_total = high.sum(axis=1)
    tied = np.flatnonzero(qualifies & (high_total == high_total[qualifies].min())).tolist()

    def equator_deviation(f: int) -> int:
        shell = build_constellation(dataclasses.replace(base_spec, phasing_offset=f))
        return sum(abs(a - b) for a, b in zip(total_degree_profile(shell, 0.0),
                                              REFERENCE_TOTAL_DEGREES_EQUATOR))

    return min(tied, key=lambda f: (equator_deviation(f), f)), profiles


def check_geometry_constants(spec: ConstellationSpec,
                             constants: PhysicalConstants) -> list[CheckResult]:
    chord = 2.0 * spec.orbit_radius_km * math.sin(math.pi / spec.sats_per_plane)
    name = "maximum visibility-limited link range"
    # The orbit the engine propagates, above the Earth the clearance is measured from.
    altitude_km = spec.orbit_radius_km - constants.earth_radius_km
    try:
        max_range = max_lisl_range(altitude_km, constants.occlusion_clearance_km,
                                   constants.earth_radius_km)
    except ValueError:
        range_check = CheckResult(name, False, f"the shell at {altitude_km:g} km lies below "
                                  f"the {constants.occlusion_clearance_km:g} km occlusion clearance")
    else:
        range_check = CheckResult(name, abs(max_range - 5016.0) <= 1.0,
                                  f"{max_range:.2f} km (5016 +/- 1)")
    return [CheckResult("intra-plane neighbor chord",
                        abs(chord - 659.5) <= 1.0, f"{chord:.2f} km (659.5 +/- 1)"), range_check]


def check_station_distances(stations, earth_radius_km: float) -> list[CheckResult]:
    by_name = {gs.name: gs for gs in stations}
    out = []
    for a, b, expected in REFERENCE_DISTANCES_KM:
        if a not in by_name or b not in by_name:
            out.append(CheckResult(f"distance {a}-{b}", False, "station missing"))
            continue
        got = great_circle_distance(
            (by_name[a].latitude_deg, by_name[a].longitude_deg),
            (by_name[b].latitude_deg, by_name[b].longitude_deg), earth_radius_km)
        ok = abs(got - expected) <= 0.01 * expected
        out.append(CheckResult(f"distance {a}-{b}", ok,
                               f"{got:.0f} km (expect {expected:.0f} +/- 1%)"))
    return out


def check_permanent_census(engine: LinkEngine, geometry: SlotGeometry) -> list[CheckResult]:
    out = []
    for idx, (r, expected) in enumerate(zip(DEFAULT_RANGES_KM, REFERENCE_PERMANENT_DEGREES)):
        degs = degree_counts(engine.snapshot(0.0, r, Mode.NG, geometry=geometry))
        uniform = int(degs.min()) == int(degs.max())
        value = int(degs[0])
        tol = 0 if idx < PERMANENT_EXACT_COUNT else PERMANENT_HIGH_TOLERANCE
        ok = uniform and abs(value - expected) <= tol
        out.append(CheckResult(
            f"permanent-link degree at {r:g} km", ok,
            f"every satellite has {value} (expect {expected}{'' if tol == 0 else f' +/- {tol}'})"))
    return out


def check_latitude_connectivity(engine: LinkEngine) -> list[CheckResult]:
    constellation = engine.constellation
    sat = SatelliteId(0, 0)
    slot_eq = slot_nearest_latitude(constellation, sat, 0.0)
    slot_hi = slot_nearest_latitude(constellation, sat, 47.33)
    eq = total_degree_profile(constellation, float(slot_eq), sat=sat)
    hi = total_degree_profile(constellation, float(slot_hi), sat=sat)
    idx_1700 = DEFAULT_RANGES_KM.index(1700.0)
    want_eq = REFERENCE_TOTAL_DEGREES_EQUATOR[idx_1700]
    want_hi = REFERENCE_TOTAL_DEGREES_AT_47_33[idx_1700]
    out = [
        CheckResult("all-links degree at 1700 km, equator",
                    abs(eq[idx_1700] - want_eq) <= 3, f"{eq[idx_1700]} (expect {want_eq} +/- 3)"),
        CheckResult("all-links degree at 1700 km, 47.33 deg",
                    abs(hi[idx_1700] - want_hi) <= 3, f"{hi[idx_1700]} (expect {want_hi} +/- 3)"),
    ]
    monotone = all(h > e for r, e, h in zip(DEFAULT_RANGES_KM, eq, hi) if r >= 1319.0)
    out.append(CheckResult(
        "high-latitude connectivity exceeds equatorial at >= 1319 km",
        monotone, f"equator {eq} vs 47.33 deg {hi}"))
    return out


def check_census_ratio(engine: LinkEngine, stations, geometry: SlotGeometry) -> list[CheckResult]:
    """The census totals of NNG over NG at each range. A snapshot's
    link_count is its census total, so no link is typed."""
    out = []
    for r in DEFAULT_RANGES_KM:
        ng, nng = (engine.snapshot(0.0, r, mode, stations, geometry).link_count
                   for mode in (Mode.NG, Mode.NNG))
        ratio = nng / max(ng, 1)
        out.append(CheckResult(
            f"all-links/permanent census ratio at {r:g} km",
            ratio >= 2.0, f"{nng}/{ng} = {ratio:.2f} (>= 2.0)"))
    return out


def run_validation(spec: ConstellationSpec, constants: PhysicalConstants,
                   stations, earth_rotation0_deg: float = 0.0):
    """Full quick-check battery. Returns (passed, lines, pinned_offset); when
    no offset can be pinned, the scan fails and the checks that need one are
    skipped, and pinned_offset is None."""
    results = check_geometry_constants(spec, constants)
    results += check_station_distances(stations, constants.earth_radius_km)
    try:
        pinned, _profiles = scan_phasing_offset(spec)
    except ValidationFailure as exc:
        results.append(CheckResult("phasing-offset scan", False, str(exc)))
        return False, [r.line() for r in results], None
    results.append(CheckResult(
        "phasing-offset scan", True,
        f"offset {pinned} of [0, {spec.plane_count}) reproduces the permanent census"))
    pinned_spec = dataclasses.replace(spec, phasing_offset=pinned)
    engine = LinkEngine(build_constellation(pinned_spec), constants, earth_rotation0_deg)
    geometry = engine.slot_geometry(0.0, [(r, mode) for mode in Mode for r in DEFAULT_RANGES_KM])
    results += check_permanent_census(engine, geometry)
    results += check_latitude_connectivity(engine)
    results += check_census_ratio(engine, stations, geometry)
    passed = all(r.passed for r in results)
    return passed, [r.line() for r in results], pinned
