import collections
import dataclasses
import functools

import numpy as np
import pytest

from fsosim import (BUNDLED_STATIONS, ConstellationSpec, LinkEngine, Mode, PhysicalConstants,
                    build_constellation)
from fsosim import cli, links, validation
from fsosim.errors import ValidationFailure
from fsosim.links import degree_counts, link_census
from fsosim.orbital import Constellation
from fsosim.validation import (DEFAULT_RANGES_KM, PERMANENT_EXACT_COUNT,
                               PERMANENT_HIGH_TOLERANCE, REFERENCE_PERMANENT_DEGREES,
                               REFERENCE_TOTAL_DEGREES_EQUATOR, CheckResult)


def reference_scan_candidates(base_spec):
    """The phasing scan as one engine per offset: each offset's permanent
    degrees from its engine's NG class masks, and the equatorial all-links
    census of every offset that qualifies. Returns the sorted (high-range
    deviation, equatorial deviation, offset) of the qualifying offsets and
    every offset's profile."""
    profiles, candidates = {}, []
    for f in range(base_spec.plane_count):
        shell = build_constellation(dataclasses.replace(base_spec, phasing_offset=f))
        engine = LinkEngine(shell)
        profile = tuple(int(engine.classes(r, Mode.NG).mask.sum()) for r in DEFAULT_RANGES_KM)
        profiles[f] = profile
        if profile[:PERMANENT_EXACT_COUNT] != REFERENCE_PERMANENT_DEGREES[:PERMANENT_EXACT_COUNT]:
            continue
        high_dev = [abs(a - b) for a, b in zip(profile[PERMANENT_EXACT_COUNT:],
                                               REFERENCE_PERMANENT_DEGREES[PERMANENT_EXACT_COUNT:])]
        if any(dev > PERMANENT_HIGH_TOLERANCE for dev in high_dev):
            continue
        pos = shell.positions_at(0.0)
        d = np.linalg.norm(pos - pos[0], axis=-1)
        d[0] = np.inf
        equator = [int((d <= r).sum()) for r in DEFAULT_RANGES_KM]
        eq_dev = sum(abs(a - b) for a, b in zip(equator, REFERENCE_TOTAL_DEGREES_EQUATOR))
        candidates.append((sum(high_dev), eq_dev, f))
    return sorted(candidates), profiles


@pytest.mark.parametrize("changes, pinned, tied", [
    ({}, 15, 1),                       # the Starlink shell: 7 offsets tie on high ranges
    ({"inclination_deg": 52.0}, 3, 2),  # 3 and 11 tie on both deviations
    ({"inclination_deg": 50.0}, 6, 1),  # the best high-range deviation is 2, not 0
])
def test_scan_pins_what_one_engine_per_offset_pins(changes, pinned, tied):
    """The scan over one stack of class tables pins the offset, and returns
    the profiles, that one engine per offset does, with ties broken by the
    equatorial census and then by the offset."""
    spec = dataclasses.replace(ConstellationSpec(), **changes)
    candidates, profiles = reference_scan_candidates(spec)
    assert sum(c[:2] == candidates[0][:2] for c in candidates) == tied
    assert candidates[0][2] == pinned
    assert validation.scan_phasing_offset(spec) == (pinned, profiles)
    for f, profile in profiles.items():
        assert validation.permanent_degree_profile(build_constellation(
            dataclasses.replace(spec, phasing_offset=f))) == profile


@pytest.mark.parametrize("changes", [{"inclination_deg": 60.0}, {"raan_spread_deg": 180.0}])
def test_scan_fails_where_no_offset_qualifies(changes):
    spec = dataclasses.replace(ConstellationSpec(), **changes)
    assert reference_scan_candidates(spec)[0] == []
    with pytest.raises(ValidationFailure, match="no phasing offset"):
        validation.scan_phasing_offset(spec)


def reference_permanent_census(engine, _geometry):
    """check_permanent_census with one snapshot, and so one geometry, of
    its own per range."""
    out = []
    for idx, (r, expected) in enumerate(zip(DEFAULT_RANGES_KM, REFERENCE_PERMANENT_DEGREES)):
        degs = degree_counts(engine.snapshot(0.0, r, Mode.NG))
        uniform = int(degs.min()) == int(degs.max())
        value = int(degs[0])
        tol = 0 if idx < PERMANENT_EXACT_COUNT else PERMANENT_HIGH_TOLERANCE
        ok = uniform and abs(value - expected) <= tol
        out.append(CheckResult(
            f"permanent-link degree at {r:g} km", ok,
            f"every satellite has {value} (expect {expected}{'' if tol == 0 else f' +/- {tol}'})"))
    return out


def reference_census_ratio(engine, stations, _geometry):
    """check_census_ratio with one snapshot of its own per (range, mode)."""
    out = []
    for r in DEFAULT_RANGES_KM:
        ng = link_census(engine.snapshot(0.0, r, Mode.NG, stations))
        nng = link_census(engine.snapshot(0.0, r, Mode.NNG, stations))
        ratio = nng.total_undirected / max(ng.total_undirected, 1)
        out.append(CheckResult(
            f"all-links/permanent census ratio at {r:g} km",
            ratio >= 2.0, f"{nng.total_undirected}/{ng.total_undirected} = {ratio:.2f} (>= 2.0)"))
    return out


@pytest.mark.parametrize("rotation_deg", [0.0, 123.4])
def test_shared_geometry_gives_the_reference_lines(monkeypatch, rotation_deg):
    """On the Starlink shell, the census checks on one shared geometry give
    the verdict, lines and offset of one snapshot per check."""
    args = (ConstellationSpec(), PhysicalConstants(), BUNDLED_STATIONS, rotation_deg)
    found = validation.run_validation(*args)
    monkeypatch.setattr(validation, "check_permanent_census", reference_permanent_census)
    monkeypatch.setattr(validation, "check_census_ratio", reference_census_ratio)
    assert validation.run_validation(*args) == found
    assert found[0] and len(found[1]) == 23


def test_census_checks_share_one_geometry(monkeypatch):
    """At t = 0 the census checks propagate the pinned engine's shell once,
    build one runs table and compute each station's ground links once.
    Counts start at the pinned engine's build, after the phasing scan; the
    latitude check, which propagates the shell itself, is not counted."""
    counts, shell, counting = collections.Counter(), [None], [True]
    positions_at, ground_position = Constellation.positions_at, links.ground_station_position
    latitude_check = validation.check_latitude_connectivity
    build_runs = links.LinkClasses.runs.func

    class CountingEngine(LinkEngine):
        def __init__(self, constellation, *args):
            super().__init__(constellation, *args)
            shell[0] = constellation
            counts.clear()

    def building_runs(self):
        if counting[0]:
            counts["table builds"] += 1
        return build_runs(self)

    runs = functools.cached_property(building_runs)
    runs.__set_name__(links.LinkClasses, "runs")

    def propagating(self, t):
        if counting[0] and self is shell[0]:
            counts[f"positions_at({t:g})"] += 1
        return positions_at(self, t)

    def station_position(gs, *args):
        if counting[0]:
            counts[gs.name] += 1
        return ground_position(gs, *args)

    def uncounted(engine):
        counting[0] = False
        try:
            return latitude_check(engine)
        finally:
            counting[0] = True

    monkeypatch.setattr(validation, "LinkEngine", CountingEngine)
    monkeypatch.setattr(links.LinkClasses, "runs", runs)
    monkeypatch.setattr(Constellation, "positions_at", propagating)
    monkeypatch.setattr(links, "ground_station_position", station_position)
    monkeypatch.setattr(validation, "check_latitude_connectivity", uncounted)
    passed, _lines, _offset = validation.run_validation(
        ConstellationSpec(), PhysicalConstants(), BUNDLED_STATIONS)
    assert passed
    assert counts == {"positions_at(0)": 1, "table builds": 1,
                      **{gs.name: 1 for gs in BUNDLED_STATIONS}}


def test_range_check_reads_the_engines_grazing_chord():
    """With the shell's Earth radius apart from the constants', the range
    check reports the chord at which the engine's line of sight binds,
    measured on the orbit it propagates, and fails it."""
    spec, constants = ConstellationSpec(earth_radius_km=6371.0), PhysicalConstants()
    _chord, range_check = validation.check_geometry_constants(spec, constants)
    assert range_check.line() == ("[FAIL] maximum visibility-limited link range: "
                                  "4977.74 km (5016 +/- 1)")
    engine = LinkEngine(build_constellation(spec), constants)
    assert not engine.line_of_sight_binds(4977.73)
    assert engine.line_of_sight_binds(4977.75)
    assert validation.check_geometry_constants(ConstellationSpec(), constants)[1].line() == (
        "[PASS] maximum visibility-limited link range: 5016.54 km (5016 +/- 1)")


def test_validation_needs_no_velocities(monkeypatch, capsys):
    """The census ratio counts links without typing them, so validate
    propagates no velocities, and prints what it prints with them allowed."""
    assert cli.main(["validate"]) == 0
    allowed = capsys.readouterr().out

    def refuse(self, t):
        raise AssertionError("velocities propagated for validate")

    monkeypatch.setattr(Constellation, "velocities_at", refuse)
    assert cli.main(["validate"]) == 0
    assert capsys.readouterr().out == allowed
    assert len(allowed.splitlines()) == 24
