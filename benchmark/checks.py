"""Checks of one workload's outputs against the reference model and against
properties every correct output has.

Each check_<workload> function returns a Report: the number of checks made
and a message for each that failed. Nothing here reads a stored copy of an
earlier output; every expected value is recomputed by reference.py or is a
reference figure from the paper.
"""
from __future__ import annotations

import csv
import json
import math
import re
from pathlib import Path

import numpy as np

import reference as ref

LATENCY_TOL_MS = 1e-6      # agreement asked of every recomputed latency
CSV_HALF_UNIT_MS = 0.5e-6  # CSV files round each value to six decimals
LENGTH_TOL_KM = 1e-6       # re-measured positions agree with fsosim's to ~1e-10 km
NG_UNREACHABLE_KM = (659.5, 1319.0)  # paper: permanent links alone never connect Sydney-Sao Paulo
PAPER_PERMANENT_DEGREES = (2, 4, 6, 10, 18, 42, 88)
PAPER_PHASING_OFFSET = 15
VALIDATE_CHECKS = 23       # check lines `fsosim validate` prints


class Report:
    def __init__(self):
        self.checked = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        self.checked += 1
        if not ok:
            self.failures.append(message)


def _slug(text: str) -> str:
    return "".join(c if c.isalnum() else "_" for c in text.lower())


def check_path(report: Report, label: str, shell: ref.Shell, t: float, rotation0: float,
               query: dict, rec: dict, rounding_ms: float) -> list[tuple[int, int]]:
    """Property checks of one slot's path; returns its satellite-to-satellite hops."""
    names = rec["path"]
    src, dst, range_km = query["src"], query["dst"], query["range_km"]
    if not (len(names) >= 3 and names[0] == src and names[-1] == dst):
        report.expect(False, f"{label}: path does not run {src} -> satellites -> {dst}: {names}")
        return []
    try:
        sats = [ref.satellite_index(shell, name) for name in names[1:-1]]
    except ValueError as exc:
        report.expect(False, f"{label}: {exc}")
        return []
    pos = shell.positions(t, sats)
    ground = [ref.station_position(s, t, rotation0, shell.earth_radius_km) for s in (src, dst)]
    sat_lengths = np.linalg.norm(pos[1:] - pos[:-1], axis=1)
    report.expect(bool(np.all(sat_lengths <= range_km + LENGTH_TOL_KM)),
                  f"{label}: a laser hop exceeds {range_km} km: "
                  f"{np.max(sat_lengths, initial=0.0):.6f}")
    report.expect(bool(np.all(ref.chord_clears(pos[:-1], pos[1:], shell.occlusion_radius_km))),
                  f"{label}: a laser hop crosses the occlusion sphere")
    up_lengths = []
    for g, p in ((ground[0], pos[0]), (ground[1], pos[-1])):
        slant = float(np.linalg.norm(p - g))
        up_lengths.append(slant)
        report.expect(slant <= ref.STATION_RANGE_KM + LENGTH_TOL_KM and float((p - g) @ g) > 0.0,
                      f"{label}: a ground hop is out of range or below the horizon ({slant:.3f} km)")
    propagation = (float(sat_lengths.sum()) + sum(up_lengths)) / ref.C_KM_PER_MS
    hops = len(sats)
    report.expect(rec["hop_count"] == hops, f"{label}: hop_count {rec['hop_count']} != {hops}")
    report.expect(abs(rec["node_delay_ms"] - ref.NODE_DELAY_MS * hops) <= LATENCY_TOL_MS + rounding_ms,
                  f"{label}: node delay {rec['node_delay_ms']} != 10 ms x {hops}")
    report.expect(abs(rec["propagation_ms"] - propagation) <= LATENCY_TOL_MS + rounding_ms,
                  f"{label}: propagation {rec['propagation_ms']} != re-measured {propagation}")
    report.expect(abs(rec["latency_ms"] - rec["propagation_ms"] - rec["node_delay_ms"])
                  <= LATENCY_TOL_MS + 2 * rounding_ms,
                  f"{label}: latency {rec['latency_ms']} != propagation + node delay")
    return list(zip(sats[:-1], sats[1:]))


def check_permanent_hops(report: Report, shell: ref.Shell, hop_ranges: dict) -> None:
    """Every NG hop stays within its range over one orbit, sampled every second."""
    if not hop_ranges:
        return
    pairs = sorted(hop_ranges)
    times = np.arange(0.0, math.ceil(shell.period_s) + 1.0)
    for k in range(0, len(pairs), 64):
        chunk = pairs[k:k + 64]
        a = shell.track([p[0] for p in chunk], times)
        b = shell.track([p[1] for p in chunk], times)
        worst = np.linalg.norm(a - b, axis=2).max(axis=1)
        for pair, far in zip(chunk, worst):
            report.expect(far <= hop_ranges[pair] + LENGTH_TOL_KM,
                          f"NG hop {ref.satellite_name(shell, pair[0])}-"
                          f"{ref.satellite_name(shell, pair[1])} reaches {far:.3f} km "
                          f"> {hop_ranges[pair]} km within one orbit")


def check_reference_routes(report: Report, shell: ref.Shell, rotation0: float,
                           slot: int, queries, records) -> None:
    """Reported latency equals the brute-force links + heap Dijkstra latency."""
    t = float(slot)
    links = ref.satellite_links(shell, t)
    for q, rec in zip(queries, records):
        label = f"{q['src']}-{q['dst']} {q['mode']} {q['range_km']:g} km slot {slot}"
        want = ref.route(shell, links, t, q["range_km"], q["mode"], q["src"], q["dst"], rotation0)
        if want is None:
            report.expect(not rec["path_found"], f"{label}: path reported, reference finds none")
            continue
        report.expect(rec["path_found"], f"{label}: no path reported, reference finds one")
        if rec["path_found"]:
            report.expect(abs(rec["latency_ms"] - want[0]) <= LATENCY_TOL_MS,
                          f"{label}: latency {rec['latency_ms']} != reference {want[0]}")


def check_rounds_agree(report: Report, measure: dict) -> None:
    """Every round of a run, traced or not, returned the same outcome."""
    phases = [measure[p] for p in ("untraced", "traced") if p in measure]
    for phase in phases:
        report.expect(phase["mismatched_rounds"] == 0, "rounds of a run returned different outcomes")
    report.expect(all(p["outcome"] == phases[0]["outcome"] for p in phases),
                  "traced rounds returned a different outcome from untraced ones")


def _read_slots(path: Path) -> list[dict]:
    out = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            found = row["path_found"] == "true"
            out.append({
                "slot_index": int(row["slot_index"]), "path_found": found,
                "latency_ms": float(row["latency_ms"]) if found else None,
                "propagation_ms": float(row["propagation_ms"]) if found else None,
                "node_delay_ms": float(row["node_delay_ms"]) if found else None,
                "hop_count": int(row["hop_count"]) if found else None,
                "path": row["path"].split(";") if found else []})
    return out


def check_study(inputs: dict, measure: dict) -> Report:
    report = Report()
    shell, rot0, slots = ref.Shell(), inputs["earth_rotation0_deg"], inputs["slot_count"]
    out = Path(inputs["output_dir"])
    queries = inputs["queries"]
    table = {}
    for q in queries:
        path = out / f"slots_{_slug(q['src'] + '-' + q['dst'])}_{q['mode'].lower()}_{q['range_km']:g}km.csv"
        if not path.exists():
            report.expect(False, f"missing output {path.name}")
            return report
        table[(q["src"], q["dst"], q["mode"], q["range_km"])] = _read_slots(path)

    ng_hops: dict[tuple[int, int], float] = {}
    for q in queries:
        key = (q["src"], q["dst"], q["mode"], q["range_km"])
        recs = table[key]
        report.expect([r["slot_index"] for r in recs] == list(range(slots)),
                      f"{key}: slots are not 0..{slots - 1}")
        for rec in recs:
            if not rec["path_found"]:
                continue
            hops = check_path(report, f"{key} slot {rec['slot_index']}", shell,
                              float(rec["slot_index"]), rot0, q, rec, CSV_HALF_UNIT_MS)
            if q["mode"] == "NG":
                for pair in hops:
                    pair = tuple(sorted(pair))
                    ng_hops[pair] = min(ng_hops.get(pair, math.inf), q["range_km"])
    check_permanent_hops(report, shell, ng_hops)

    # NG links are a subset of NNG links and links at r a subset of links
    # at any larger range, so per slot the latency can only fall.
    pairs = sorted({(q["src"], q["dst"]) for q in queries})
    for src, dst in pairs:
        ranges = sorted({q["range_km"] for q in queries if (q["src"], q["dst"]) == (src, dst)})
        for k in range(slots):
            def lat(mode, r):
                rec = table[(src, dst, mode, r)][k]
                return rec["latency_ms"] if rec["path_found"] else math.inf
            for r in ranges:
                report.expect(lat("NNG", r) <= lat("NG", r) + LATENCY_TOL_MS,
                              f"{src}-{dst} {r:g} km slot {k}: NNG latency above NG")
            for mode in ("NG", "NNG"):
                for lo, hi in zip(ranges, ranges[1:]):
                    report.expect(lat(mode, hi) <= lat(mode, lo) + LATENCY_TOL_MS,
                                  f"{src}-{dst} {mode} slot {k}: latency rises from "
                                  f"{lo:g} to {hi:g} km")

    summary = {(s["scenario"], s["mode"], s["range_km"]): s
               for s in json.loads((out / "summary.json").read_text())}
    for q in queries:
        s = summary.get((f"{q['src']}-{q['dst']}", q["mode"], q["range_km"]))
        recs = table[(q["src"], q["dst"], q["mode"], q["range_km"])]
        with_path = [r["latency_ms"] for r in recs if r["path_found"]]
        report.expect(s is not None and s["slots_with_path"] == len(with_path)
                      and s["slot_count"] == slots,
                      f"{q}: summary slot counts disagree with the slot file")
        if s is not None and with_path:
            report.expect(abs(s["avg_latency_ms"] - sum(with_path) / len(with_path))
                          <= LATENCY_TOL_MS + CSV_HALF_UNIT_MS,
                          f"{q}: summary average latency disagrees with the slot file")
    for (name, mode, r), s in summary.items():
        if mode == "NG":
            nng = summary[(name, "NNG", r)]
            report.expect(nng["slots_with_path"] >= s["slots_with_path"],
                          f"{name} {r:g} km: NNG availability below NG")
    for r in NG_UNREACHABLE_KM:
        report.expect(summary[("Sydney-Sao Paulo", "NG", r)]["slots_with_path"] == 0,
                      f"NG Sydney-Sao Paulo finds a path at {r:g} km")

    for slot in inputs["reference_slots"]:
        check_reference_routes(report, shell, rot0, slot, queries,
                               [table[(q["src"], q["dst"], q["mode"], q["range_km"])][slot]
                                for q in queries])
    check_census(report, shell, inputs, out)
    return report


def check_census(report: Report, shell: ref.Shell, inputs: dict, out: Path) -> None:
    t, rot0 = inputs["census_time_s"], inputs["earth_rotation0_deg"]
    got: dict[tuple[str, float], dict] = {}
    with open(out / "census.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            report.expect(float(row["time_s"]) == t, f"census row at time {row['time_s']} != {t}")
            got.setdefault((row["mode"], float(row["range_km"])), {})[
                (row["link_type"], row["permanence"])] = int(row["count"])
    links = ref.satellite_links(shell, t)
    totals = json.loads((out / "census.json").read_text())["totals"]
    for r in ref.RANGES_KM:
        for mode in ("NG", "NNG"):
            want = ref.census(shell, links, t, r, mode, list(ref.STATIONS), rot0)
            report.expect(got.get((mode, r)) == want,
                          f"census {mode} {r:g} km: {got.get((mode, r))} != brute force {want}")
            report.expect(totals[f"{mode}@{r:g}km"]["total_undirected"] == sum(want.values()),
                          f"census.json total {mode} {r:g} km != brute force")
        report.expect(totals[f"NNG@{r:g}km"]["total_undirected"]
                      >= 2 * totals[f"NG@{r:g}km"]["total_undirected"],
                      f"census at {r:g} km: NNG total below twice the NG total")


def check_nng(inputs: dict, measure: dict) -> Report:
    report = Report()
    shell, rot0 = ref.Shell(), inputs["earth_rotation0_deg"]
    query = {k: inputs[k] for k in ("src", "dst", "mode", "range_km")}
    recs = measure["untraced"]["outcome"]["records"]
    report.expect([r["slot_index"] for r in recs] == list(range(inputs["slot_count"])),
                  "slots are not 0..slot_count-1")
    for rec in recs:
        if rec["path_found"]:
            check_path(report, f"slot {rec['slot_index']}", shell, float(rec["slot_index"]),
                       rot0, query, rec, 0.0)
    for slot in inputs["reference_slots"]:
        check_reference_routes(report, shell, rot0, slot, [query], [recs[slot]])
    return report


def check_validate(inputs: dict, measure: dict) -> Report:
    report = Report()
    shell, rot0 = ref.Shell(), inputs["earth_rotation0_deg"]
    outcome = measure["untraced"]["outcome"]
    lines = outcome["lines"]
    report.expect(outcome["exit_code"] == 0, f"validate exited {outcome['exit_code']}")
    checks = [line for line in lines if line.startswith("[")]
    report.expect(len(checks) == VALIDATE_CHECKS,
                  f"validate printed {len(checks)} checks, expected {VALIDATE_CHECKS}")
    report.expect(f"pinned phasing offset: {PAPER_PHASING_OFFSET}" in lines,
                  "validate did not pin phasing offset 15")

    degrees = {float(r): int(d) for r, d in re.findall(
        r"permanent-link degree at (\S+) km: every satellite has (\d+)", "\n".join(lines))}
    others = np.arange(1, shell.count)
    analytic = tuple(int((shell.max_separation_km(np.zeros_like(others), others) <= r).sum())
                     for r in ref.RANGES_KM)
    report.expect(analytic == PAPER_PERMANENT_DEGREES,
                  f"reference permanent degrees {analytic} != paper {PAPER_PERMANENT_DEGREES}")
    report.expect(tuple(degrees.get(r) for r in ref.RANGES_KM) == PAPER_PERMANENT_DEGREES,
                  f"validate permanent degrees {degrees} != {PAPER_PERMANENT_DEGREES}")

    ratios = {float(r): (int(n), int(g)) for r, n, g in re.findall(
        r"census ratio at (\S+) km: (\d+)/(\d+) =", "\n".join(lines))}
    links = ref.satellite_links(shell, 0.0)
    for r in ref.RANGES_KM:
        want = tuple(sum(ref.census(shell, links, 0.0, r, mode, list(ref.STATIONS),
                                    rot0).values()) for mode in ("NNG", "NG"))
        report.expect(ratios.get(r) == want,
                      f"census at t=0, {r:g} km: validate {ratios.get(r)} != brute force {want}")
        report.expect(want[0] >= 2 * want[1], f"census at {r:g} km: NNG below twice NG")
    return report


CHECKS = {"study": check_study, "nng-5016": check_nng, "validate": check_validate}


def check(workload: str, inputs: dict, measure: dict) -> Report:
    """All checks of one run: the workload's own, and that its rounds agree."""
    report = CHECKS[workload](inputs, measure)
    check_rounds_agree(report, measure)
    return report
