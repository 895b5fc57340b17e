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
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import yaml

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
    parallelism: int  # worker processes, at least 1

    def station(self, name: str) -> GroundStation:
        for gs in self.stations:
            if gs.name == name:
                return gs
        raise ConfigurationError(f"unknown station {name!r}")


def _require_mapping(value, path: str, keys_of) -> dict:
    """value as a mapping, None read as empty, whose keys all name fields of
    the dataclass keys_of."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigurationError(f"{path}: expected a mapping")
    unknown = sorted(set(value) - {f.name for f in dataclasses.fields(keys_of)})
    if unknown:
        raise ConfigurationError(f"{path}: unknown key(s) {', '.join(unknown)}")
    return value


def _coerce(value, kind, path: str):
    """value as kind; a float with a fractional part is no int."""
    try:
        coerced = kind(value)
        if kind is int and isinstance(value, float) and coerced != value:
            raise ValueError(value)
        return coerced
    except (TypeError, ValueError, OverflowError):
        raise ConfigurationError(f"{path}: expected {kind.__name__}, got {value!r}") from None


def _coerce_list(values, kind, path: str) -> tuple:
    if not isinstance(values, list):
        raise ConfigurationError(f"{path}: expected a list, got {values!r}")
    return tuple(_coerce(v, kind, f"{path}[{k}]") for k, v in enumerate(values))


def _values(cls, mapping: dict, path: str, **given) -> dict:
    """given, plus every other key of mapping coerced to the type of its
    field's default in the dataclass cls."""
    for key, value in mapping.items():
        if key not in given:
            given[key] = _coerce(value, type(getattr(cls, key)), f"{path}.{key}")
    return given


def _section(raw: dict, key: str, cls):
    """The dataclass cls built from the config mapping raw[key]."""
    return cls(**_values(cls, _require_mapping(raw.get(key), key, cls), key))


def _parse_stations(raw, path: str) -> tuple[GroundStation, ...]:
    if raw is None:
        return BUNDLED_STATIONS
    if not isinstance(raw, list) or not raw:
        raise ConfigurationError(f"{path}: expected a non-empty list of stations")
    stations = []
    for k, item in enumerate(raw):
        where = f"{path}[{k}]"
        item = _require_mapping(item, where, GroundStation)
        if "name" not in item:
            raise ConfigurationError(f"{where}.name is required")
        if SATELLITE_ID_PATTERN.fullmatch(str(item["name"])):
            raise ConfigurationError(f"{where}.name: {item['name']!r} has the form of a satellite id")
        values = _values(GroundStation, item, where, name=str(item["name"]), **{
            key: _coerce(item.get(key, 0.0), float, f"{where}.{key}")
            for key in ("latitude_deg", "longitude_deg")})
        try:
            stations.append(GroundStation(**values))
        except ConfigurationError as exc:
            raise ConfigurationError(f"{where}: {exc}") from None
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
        where = f"{path}[{k}]"
        item = _require_mapping(item, where, ScenarioSpec)
        for endpoint in ("src", "dst"):
            if endpoint not in item:
                raise ConfigurationError(f"{where}.{endpoint} is required")
            if item[endpoint] not in known:
                raise ConfigurationError(f"{where}.{endpoint}: unknown station {item[endpoint]!r}")
        lists = {key: _coerce_list(item[key], kind, f"{where}.{key}")
                 for key, kind in (("ranges_km", float), ("modes", Mode)) if key in item}
        spec = ScenarioSpec(**_values(ScenarioSpec, item, where, src=str(item["src"]),
                                      dst=str(item["dst"]), **lists))
        if not spec.ranges_km or any(r <= 0 for r in spec.ranges_km):
            raise ConfigurationError(f"{where}.ranges_km: ranges must be positive")
        if not spec.modes:
            raise ConfigurationError(f"{where}.modes: at least one mode is required")
        if spec.slot_count < 1:
            raise ConfigurationError(f"{where}.slot_count must be at least 1")
        if spec.slot_duration_s <= 0:
            raise ConfigurationError(f"{where}.slot_duration_s must be positive")
        out.append(spec)
    return tuple(out)


def parse_config(path: str | Path | None) -> RunConfig:
    """Load and validate a run configuration; missing keys take defaults."""
    raw = None
    if path is not None:
        path = Path(path)
        if not path.exists():
            raise ConfigurationError(f"configuration file not found: {path}")
        with open(path) as fh:
            try:
                raw = yaml.safe_load(fh)
            except yaml.YAMLError as exc:
                raise ConfigurationError(f"{path}: not valid YAML ({exc})") from None
    if not isinstance(raw, (dict, type(None))):
        raise ConfigurationError("configuration root must be a mapping")
    raw = _require_mapping(raw, "config", RunConfig)
    constellation = _section(raw, "constellation", ConstellationSpec)
    constants = _section(raw, "constants", PhysicalConstants)
    stations = _parse_stations(raw.get("stations"), "stations")
    scenarios = _parse_scenarios(raw.get("scenarios"), stations, "scenarios")
    rotation = _coerce(raw.get("earth_rotation0_deg", 0.0), float, "config.earth_rotation0_deg")
    parallelism = _coerce(raw.get("parallelism", 0), int, "config.parallelism")
    return RunConfig(
        constellation=constellation,
        constants=constants,
        earth_rotation0_deg=rotation,
        stations=stations,
        scenarios=scenarios,
        output_dir=str(raw.get("output_dir", "out")),
        parallelism=parallelism if parallelism > 0 else os.cpu_count() or 1)


# -- output helpers ----------------------------------------------------

def _slug(text: str) -> str:
    return "".join(c if c.isalnum() else "_" for c in text.lower())


def _write_json(path: Path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


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
    modes = [Mode(args.mode)] if args.mode else ScenarioSpec.modes
    ranges = args.range or ScenarioSpec.ranges_km
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
    """The scenario named by --src/--dst, or else every scenario of the config
    file, with --range, --mode, --slots and --slot-duration applied to each."""
    if args.src or args.dst:
        if not (args.src and args.dst):
            raise ConfigurationError("--src and --dst must be given together")
        specs = [ScenarioSpec(src=args.src, dst=args.dst)]
    else:
        specs = list(config.scenarios)
    given = {}
    if args.range:
        given["ranges_km"] = tuple(args.range)
    if getattr(args, "mode", None):
        given["modes"] = (Mode(args.mode),)
    if args.slots is not None:
        given["slot_count"] = args.slots
    if args.slot_duration is not None:
        given["slot_duration_s"] = args.slot_duration
    specs = [dataclasses.replace(s, **given) for s in specs]
    out = []
    for spec in specs:
        base = ScenarioConfig(
            src=config.station(spec.src), dst=config.station(spec.dst),
            lisl_range_km=spec.ranges_km[0], slot_duration_s=spec.slot_duration_s,
            slot_count=spec.slot_count)
        out.append((spec, base))
    return out


def _cmd_run(config: RunConfig, args) -> int:
    queries = [dataclasses.replace(base, lisl_range_km=r, mode=mode)
               for spec, base in _scenario_configs(config, args)
               for mode in spec.modes for r in spec.ranges_km]
    out_dir = Path(args.output_dir or config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    engine = _make_engine(config)
    results = run_scenarios(engine, queries, config.parallelism)
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
        {"scenario": name, "mode": mode.value, "range_km": r, **dataclasses.asdict(s)}
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
    bases = [[dataclasses.replace(base, lisl_range_km=r) for r in ranges_of(spec)]
             for spec, base in scenarios]
    results = compare_many(engine, [b for group in bases for b in group], config.parallelism)
    for (spec, _base), group in zip(scenarios, bases):
        comparisons, results = results[:len(group)], results[len(group):]
        name = f"{spec.src}-{spec.dst}"
        stem = _slug(name)
        write_comparison_csv(out_dir / f"{kind}_{stem}.csv", name, comparisons)
        _write_json(out_dir / f"{kind}_{stem}.json", [
            {
                "scenario": name, "range_km": comp.lisl_range_km,
                "ng": dataclasses.asdict(comp.ng_summary),
                "nng": dataclasses.asdict(comp.nng_summary),
                "latency_improvement_ms": comp.latency_improvement_ms,
                "hop_improvement": comp.hop_improvement,
            } for comp in comparisons])
        print(f"wrote {out_dir / f'{kind}_{stem}.csv'}")
    return 0


def _cmd_compare(config: RunConfig, args) -> int:
    return _write_comparisons(config, args, "compare", lambda spec: spec.ranges_km)


def _cmd_sweep(config: RunConfig, args) -> int:
    return _write_comparisons(config, args, "sweep", lambda spec: sorted(spec.ranges_km))


def _cmd_validate(config: RunConfig, args) -> int:
    passed, lines, pinned = validation.run_validation(
        config.constellation, config.constants, config.stations,
        config.earth_rotation0_deg)
    for line in lines:
        print(line)
    if pinned is not None:
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
            p.add_argument("--slot-duration", type=float,
                           help="slot duration in seconds (default from config, else 1)")

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
