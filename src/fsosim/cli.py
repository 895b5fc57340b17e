"""Command-line interface: config ingestion, subcommands, result emission.

Subcommands:

* ``census``   - link counts by type/permanence at a time slot,
* ``run``      - per-slot routing records plus a summary for scenarios,
* ``compare``  - permanent-only versus all-links over identical geometry,
* ``sweep``    - compare across a list of ranges,
* ``validate`` - quick self-checks; pins the phasing offset.

Every output is deterministic: re-running a subcommand with the same
configuration byte-reproduces every file.

Exit codes: 0 success, 1 runtime error, 2 configuration error,
3 validation failure.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import yaml

from . import scenario as scenario_mod
from . import validation
from .errors import ConfigurationError, ValidationFailure
from .geometry import PhysicalConstants
from .links import LinkEngine, LinkType, Mode, Permanence, link_census
from .orbital import SATELLITE_ID_PATTERN, ConstellationSpec, GroundStation, build_constellation
from .scenario import (BUNDLED_STATIONS, DEFAULT_RANGES_KM, ScenarioConfig,
                       compare_many, run_scenarios, write_comparison_csv,
                       write_slots_csv, write_summary_csv)

CONFIG_KEY_HELP = """\
configuration file keys (YAML; every key optional, defaults in parentheses):
  constellation.plane_count       orbital planes (24, Starlink Phase I shell)
  constellation.sats_per_plane    satellites per plane (66)
  constellation.altitude_km       orbit altitude (550)
  constellation.inclination_deg   inclination (53)
  constellation.phasing_offset    inter-plane phasing in [0, plane_count)
                                  (15, pinned by `validate`'s scan)
  constellation.raan_spread_deg   span of the ascending nodes (360)
  constellation.earth_radius_km   spherical Earth radius (6378)
  constellation.mu_km3s2          gravitational parameter (398600.4418)
  constants.c_mps                 speed of light in vacuum (299792458)
  constants.earth_radius_km       Earth radius for stations/occlusion (6378)
  constants.occlusion_clearance_km  grazing clearance above the surface (80;
                                  yields the 5016 km maximum link range)
  constants.node_delay_ms         per-satellite-hop delay (10)
  earth_rotation0_deg             Earth rotation angle at epoch (0)
  stations                        list of {name, latitude_deg, longitude_deg,
                                  range_km (1000)}; default: stock-exchange
                                  stations of the eight studied cities
  scenarios                       list of {src, dst, ranges_km
                                  (659.5...5016), modes ([NG, NNG]),
                                  slot_count (3600), slot_duration_s (1)}
  output_dir                      where result files go (out)
  parallelism                     worker processes; 0 = all cores (0)
"""

_CONSTELLATION_KEYS = {"plane_count", "sats_per_plane", "altitude_km", "inclination_deg",
                       "phasing_offset", "raan_spread_deg", "earth_radius_km", "mu_km3s2"}
_CONSTANTS_KEYS = {"c_mps", "earth_radius_km", "occlusion_clearance_km", "node_delay_ms"}
_STATION_KEYS = {"name", "latitude_deg", "longitude_deg", "range_km"}
_SCENARIO_KEYS = {"src", "dst", "ranges_km", "modes", "slot_count", "slot_duration_s"}
_TOP_KEYS = {"constellation", "constants", "earth_rotation0_deg", "stations",
             "scenarios", "output_dir", "parallelism"}


@dataclass(frozen=True)
class ScenarioSpec:
    """A scenario as named in the configuration file."""

    src: str
    dst: str
    ranges_km: tuple[float, ...] = DEFAULT_RANGES_KM
    modes: tuple[Mode, ...] = (Mode.NG, Mode.NNG)
    slot_count: int = 3600
    slot_duration_s: float = 1.0


@dataclass(frozen=True)
class RunConfig:
    constellation: ConstellationSpec
    constants: PhysicalConstants
    earth_rotation0_deg: float
    stations: tuple[GroundStation, ...]
    scenarios: tuple[ScenarioSpec, ...]
    output_dir: str
    parallelism: int

    def station(self, name: str) -> GroundStation:
        for gs in self.stations:
            if gs.name == name:
                return gs
        raise ConfigurationError(f"unknown station {name!r}")

    def effective_parallelism(self) -> int:
        if self.parallelism <= 0:
            return scenario_mod.default_parallelism()
        return self.parallelism


def _require_mapping(value, path: str) -> dict:
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigurationError(f"{path}: expected a mapping")
    return value


def _reject_unknown(mapping: dict, allowed: set[str], path: str) -> None:
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise ConfigurationError(f"{path}: unknown key(s) {', '.join(unknown)}")


def _parse_mode(value, path: str) -> Mode:
    try:
        return Mode(str(value))
    except ValueError:
        raise ConfigurationError(f"{path}: mode must be NG or NNG, got {value!r}") from None


def _parse_stations(raw, path: str) -> tuple[GroundStation, ...]:
    if raw is None:
        return BUNDLED_STATIONS
    if not isinstance(raw, list) or not raw:
        raise ConfigurationError(f"{path}: expected a non-empty list of stations")
    stations = []
    for k, item in enumerate(raw):
        item = _require_mapping(item, f"{path}[{k}]")
        _reject_unknown(item, _STATION_KEYS, f"{path}[{k}]")
        if "name" not in item:
            raise ConfigurationError(f"{path}[{k}].name is required")
        if SATELLITE_ID_PATTERN.fullmatch(str(item["name"])):
            raise ConfigurationError(
                f"{path}[{k}].name: {item['name']!r} has the form of a satellite id")
        try:
            stations.append(GroundStation(
                name=str(item["name"]),
                latitude_deg=float(item.get("latitude_deg", 0.0)),
                longitude_deg=float(item.get("longitude_deg", 0.0)),
                range_km=float(item.get("range_km", 1000.0))))
        except ConfigurationError as exc:
            raise ConfigurationError(f"{path}[{k}]: {exc}") from None
    names = [gs.name for gs in stations]
    if len(set(names)) != len(names):
        raise ConfigurationError(f"{path}: duplicate station names")
    return tuple(stations)


def _parse_scenarios(raw, stations, path: str) -> tuple[ScenarioSpec, ...]:
    if raw is None:
        return (ScenarioSpec(src="Sydney", dst="Sao Paulo"),)
    if not isinstance(raw, list):
        raise ConfigurationError(f"{path}: expected a list of scenarios")
    known = {gs.name for gs in stations}
    out = []
    for k, item in enumerate(raw):
        item = _require_mapping(item, f"{path}[{k}]")
        _reject_unknown(item, _SCENARIO_KEYS, f"{path}[{k}]")
        for endpoint in ("src", "dst"):
            if endpoint not in item:
                raise ConfigurationError(f"{path}[{k}].{endpoint} is required")
            if item[endpoint] not in known:
                raise ConfigurationError(
                    f"{path}[{k}].{endpoint}: unknown station {item[endpoint]!r}")
        ranges = tuple(float(r) for r in item.get("ranges_km", DEFAULT_RANGES_KM))
        if not ranges or any(r <= 0 for r in ranges):
            raise ConfigurationError(f"{path}[{k}].ranges_km: ranges must be positive")
        modes = tuple(_parse_mode(m, f"{path}[{k}].modes") for m in item.get("modes", ("NG", "NNG")))
        slot_count = int(item.get("slot_count", 3600))
        slot_duration = float(item.get("slot_duration_s", 1.0))
        if slot_count < 1:
            raise ConfigurationError(f"{path}[{k}].slot_count must be at least 1")
        if slot_duration <= 0:
            raise ConfigurationError(f"{path}[{k}].slot_duration_s must be positive")
        out.append(ScenarioSpec(src=str(item["src"]), dst=str(item["dst"]),
                                ranges_km=ranges, modes=modes,
                                slot_count=slot_count, slot_duration_s=slot_duration))
    return tuple(out)


def _coerce(mapping: dict, key: str, kind, default, path: str):
    try:
        return kind(mapping.get(key, default))
    except (TypeError, ValueError):
        raise ConfigurationError(f"{path}.{key}: expected {kind.__name__}, "
                                 f"got {mapping.get(key)!r}") from None


def parse_config(path: str | Path | None) -> RunConfig:
    """Load and validate a run configuration; missing keys take defaults."""
    if path is None:
        raw = {}
    else:
        path = Path(path)
        if not path.exists():
            raise ConfigurationError(f"configuration file not found: {path}")
        with open(path) as fh:
            try:
                raw = yaml.safe_load(fh)
            except yaml.YAMLError as exc:
                raise ConfigurationError(f"{path}: not valid YAML ({exc})") from None
        if raw is None:
            raw = {}
        if not isinstance(raw, dict):
            raise ConfigurationError("configuration root must be a mapping")
    _reject_unknown(raw, _TOP_KEYS, "config")

    cmap = _require_mapping(raw.get("constellation"), "constellation")
    _reject_unknown(cmap, _CONSTELLATION_KEYS, "constellation")
    defaults = ConstellationSpec()
    constellation = ConstellationSpec(
        plane_count=_coerce(cmap, "plane_count", int, defaults.plane_count, "constellation"),
        sats_per_plane=_coerce(cmap, "sats_per_plane", int, defaults.sats_per_plane,
                               "constellation"),
        altitude_km=_coerce(cmap, "altitude_km", float, defaults.altitude_km, "constellation"),
        inclination_deg=_coerce(cmap, "inclination_deg", float, defaults.inclination_deg,
                                "constellation"),
        phasing_offset=_coerce(cmap, "phasing_offset", int, defaults.phasing_offset,
                               "constellation"),
        raan_spread_deg=_coerce(cmap, "raan_spread_deg", float, defaults.raan_spread_deg,
                                "constellation"),
        earth_radius_km=_coerce(cmap, "earth_radius_km", float, defaults.earth_radius_km,
                                "constellation"),
        mu_km3s2=_coerce(cmap, "mu_km3s2", float, defaults.mu_km3s2, "constellation"))

    kmap = _require_mapping(raw.get("constants"), "constants")
    _reject_unknown(kmap, _CONSTANTS_KEYS, "constants")
    cdef = PhysicalConstants()
    try:
        constants = PhysicalConstants(
            c_mps=_coerce(kmap, "c_mps", float, cdef.c_mps, "constants"),
            earth_radius_km=_coerce(kmap, "earth_radius_km", float, cdef.earth_radius_km,
                                    "constants"),
            occlusion_clearance_km=_coerce(kmap, "occlusion_clearance_km", float,
                                           cdef.occlusion_clearance_km, "constants"),
            node_delay_ms=_coerce(kmap, "node_delay_ms", float, cdef.node_delay_ms, "constants"))
    except ConfigurationError:
        raise
    except ValueError as exc:
        raise ConfigurationError(str(exc)) from None

    stations = _parse_stations(raw.get("stations"), "stations")
    scenarios = _parse_scenarios(raw.get("scenarios"), stations, "scenarios")
    return RunConfig(
        constellation=constellation,
        constants=constants,
        earth_rotation0_deg=_coerce(raw, "earth_rotation0_deg", float, 0.0, "config"),
        stations=stations,
        scenarios=scenarios,
        output_dir=str(raw.get("output_dir", "out")),
        parallelism=_coerce(raw, "parallelism", int, 0, "config"))


# -- output helpers ----------------------------------------------------

def _slug(text: str) -> str:
    return "".join(c if c.isalnum() else "_" for c in text.lower())


def _write_json(path: Path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _summary_payload(summary) -> dict:
    return {
        "avg_latency_ms": summary.avg_latency_ms,
        "avg_hops": summary.avg_hops,
        "slots_with_path": summary.slots_with_path,
        "slot_count": summary.slot_count,
    }


def write_census_csv(path, censuses) -> None:
    """Census rows: time_s, range_km, mode, link_type, permanence, count."""
    type_order = {t: k for k, t in enumerate(LinkType)}
    perm_order = {p: k for k, p in enumerate(Permanence)}
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time_s", "range_km", "mode", "link_type", "permanence", "count"])
        for census in censuses:
            for (link_type, permanence) in sorted(
                    census.counts,
                    key=lambda key: (type_order[key[0]], perm_order[key[1]])):
                writer.writerow([
                    f"{census.time_s:.6f}", f"{census.lisl_range_km:.6f}", census.mode.value,
                    link_type.value, permanence.value, census.counts[(link_type, permanence)]])


# -- subcommands -------------------------------------------------------

def _make_engine(config: RunConfig) -> LinkEngine:
    return LinkEngine(build_constellation(config.constellation), config.constants,
                      config.earth_rotation0_deg)


def _cmd_census(config: RunConfig, args) -> int:
    out_dir = Path(args.output_dir or config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    engine = _make_engine(config)
    modes = [_parse_mode(args.mode, "--mode")] if args.mode else [Mode.NG, Mode.NNG]
    ranges = args.range if args.range else list(DEFAULT_RANGES_KM)
    geometry = engine.slot_geometry(args.time, [(r, mode) for mode in modes for r in ranges])
    censuses = []
    totals = {}
    for mode in modes:
        for r in ranges:
            census = link_census(
                engine.snapshot(args.time, r, mode, config.stations, geometry))
            censuses.append(census)
            totals[f"{mode.value}@{r:g}km"] = {
                "total_undirected": census.total_undirected,
                "total_directed": census.total_directed,
            }
    csv_path = out_dir / "census.csv"
    write_census_csv(csv_path, censuses)
    _write_json(out_dir / "census.json", {"time_s": args.time, "totals": totals})
    print(f"wrote {csv_path}")
    return 0


def _scenario_configs(config: RunConfig, args):
    """Scenario configs selected by flags, or everything in the config file."""
    if args.src or args.dst:
        if not (args.src and args.dst):
            raise ConfigurationError("--src and --dst must be given together")
        ranges = args.range if getattr(args, "range", None) else list(DEFAULT_RANGES_KM)
        modes = ([_parse_mode(args.mode, "--mode")]
                 if getattr(args, "mode", None) else [Mode.NG, Mode.NNG])
        specs = [ScenarioSpec(src=args.src, dst=args.dst, ranges_km=tuple(ranges),
                              modes=tuple(modes), slot_duration_s=args.slot_duration)]
    else:
        specs = list(config.scenarios)
    if args.slots is not None:
        specs = [dataclasses.replace(s, slot_count=args.slots) for s in specs]
    out = []
    for spec in specs:
        base = ScenarioConfig(
            src=config.station(spec.src), dst=config.station(spec.dst),
            lisl_range_km=spec.ranges_km[0], slot_duration_s=spec.slot_duration_s,
            slot_count=spec.slot_count)
        out.append((spec, base))
    return out


def _cmd_run(config: RunConfig, args) -> int:
    queries = [base.with_range(r).with_mode(mode)
               for spec, base in _scenario_configs(config, args)
               for mode in spec.modes for r in spec.ranges_km]
    out_dir = Path(args.output_dir or config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    engine = _make_engine(config)
    results = run_scenarios(engine, queries, config.effective_parallelism())
    summary_rows = []
    for cfg, (records, summary) in zip(queries, results):
        r, mode = cfg.lisl_range_km, cfg.mode
        stem = f"{_slug(cfg.name)}_{mode.value.lower()}_{r:g}km"
        write_slots_csv(out_dir / f"slots_{stem}.csv", records)
        summary_rows.append((cfg.name, mode, r, summary))
        print(f"{cfg.name} {mode.value} @ {r:g} km: "
              f"{summary.slots_with_path}/{summary.slot_count} slots with a path")
    write_summary_csv(out_dir / "summary.csv", summary_rows)
    _write_json(out_dir / "summary.json", [
        {"scenario": name, "mode": mode.value, "range_km": r, **_summary_payload(s)}
        for name, mode, r, s in summary_rows])
    print(f"wrote {out_dir / 'summary.csv'}")
    return 0


def _write_comparisons(config: RunConfig, args, kind: str, ranges_of) -> int:
    """Compare NG and NNG at ranges_of(spec) for every scenario, in one batch,
    and write <kind>_<pair>.csv/.json per scenario."""
    scenarios = _scenario_configs(config, args)
    out_dir = Path(args.output_dir or config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    engine = _make_engine(config)
    bases = [[base.with_range(r) for r in ranges_of(spec)] for spec, base in scenarios]
    results = compare_many(engine, [b for group in bases for b in group],
                           config.effective_parallelism())
    for (spec, _base), group in zip(scenarios, bases):
        comparisons, results = results[:len(group)], results[len(group):]
        name = f"{spec.src}-{spec.dst}"
        stem = _slug(name)
        write_comparison_csv(out_dir / f"{kind}_{stem}.csv", name, comparisons)
        _write_json(out_dir / f"{kind}_{stem}.json", [
            {
                "scenario": name, "range_km": comp.lisl_range_km,
                "ng": _summary_payload(comp.ng_summary),
                "nng": _summary_payload(comp.nng_summary),
                "latency_improvement_ms": comp.latency_improvement_ms,
                "hop_improvement": comp.hop_improvement,
            } for comp in comparisons])
        print(f"wrote {out_dir / f'{kind}_{stem}.csv'}")
    return 0


def _cmd_compare(config: RunConfig, args) -> int:
    return _write_comparisons(config, args, "compare", lambda spec: spec.ranges_km)


def _cmd_sweep(config: RunConfig, args) -> int:
    # Ascending, as range_sweep orders them.
    return _write_comparisons(config, args, "sweep", lambda spec: sorted(spec.ranges_km))


def _cmd_validate(config: RunConfig, args) -> int:
    passed, lines, pinned = validation.run_validation(
        config.constellation, config.constants, config.stations,
        config.earth_rotation0_deg)
    for line in lines:
        print(line)
    print(f"pinned phasing offset: {pinned}")
    if not passed:
        raise ValidationFailure("one or more validation checks failed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fsosim",
        description="Connectivity and latency simulator for laser-linked LEO satellite networks.",
        epilog=CONFIG_KEY_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--config", help="YAML run configuration (defaults apply when omitted)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_scenario=True):
        p.add_argument("--output-dir", help="output directory (default from config)")
        if with_scenario:
            p.add_argument("--src", help="source station name")
            p.add_argument("--dst", help="destination station name")
            p.add_argument("--range", type=float, action="append",
                           help="laser link range in km (repeatable)")
            p.add_argument("--slots", type=int, help="number of time slots")
            p.add_argument("--slot-duration", type=float, default=1.0,
                           help="slot duration in seconds (default 1)")

    p_census = sub.add_parser("census", help="link counts by type and permanence")
    p_census.add_argument("--range", type=float, action="append",
                          help="laser link range in km (repeatable; default: standard seven)")
    p_census.add_argument("--mode", choices=[m.value for m in Mode],
                          help="link policy (default: both)")
    p_census.add_argument("--time", type=float, default=0.0, help="snapshot time in seconds")
    p_census.add_argument("--output-dir", help="output directory (default from config)")
    p_census.set_defaults(func=_cmd_census)

    p_run = sub.add_parser("run", help="per-slot routing records and summaries")
    add_common(p_run)
    p_run.add_argument("--mode", choices=[m.value for m in Mode],
                       help="link policy (default: both)")
    p_run.set_defaults(func=_cmd_run)

    p_compare = sub.add_parser("compare", help="permanent-only vs all-links comparison")
    add_common(p_compare)
    p_compare.set_defaults(func=_cmd_compare)

    p_sweep = sub.add_parser("sweep", help="comparison across a range sweep")
    add_common(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_validate = sub.add_parser("validate", help="self-checks; pins the phasing offset")
    p_validate.set_defaults(func=_cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = parse_config(args.config)
        return args.func(config, args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except ValidationFailure as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - surfaced as exit code 1
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
