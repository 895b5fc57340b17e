"""Spans around the calls into fsosim's public functions, recorded from outside.

A Tracer replaces chosen functions and methods of the fsosim modules with
wrappers that record (name, pid, id, parent, start, end, value) spans in
memory. Pool workers are forked from the traced process, so they inherit
the wrappers; each worker keeps its own spans and writes them to the dump
directory when it exits. All times come from time.perf_counter, which on
Linux reads the system-wide monotonic clock, so spans of different
processes share one time axis.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import time
from multiprocessing import util
from pathlib import Path

# (module, attribute, span name, value recorded from the result). Spans that
# feed no figure of their own still count as children in cli.self_s.
TARGETS = (
    ("orbital", "Constellation.positions_at", "orbital.positions_at", None),
    ("orbital", "build_constellation", "orbital.build_constellation", None),
    ("links", "LinkEngine.__init__", "links.engine_build", None),
    ("links", "LinkEngine.snapshot", "links.snapshot", lambda snap: snap.link_count),
    ("links", "link_census", "links.link_census", None),
    ("links", "degree_counts", "links.degree_counts", None),
    ("routing", "shortest_path", "routing.shortest_path",
     lambda path: None if path is None else path.hop_count),
    ("scenario", "run_scenario", "scenario.run_scenario", None),
    ("scenario", "evaluate_slot", "scenario.evaluate_slot", None),
    ("scenario", "write_slots_csv", "scenario.write_slots_csv", None),
    ("scenario", "write_summary_csv", "scenario.write_summary_csv", None),
    ("validation", "run_validation", "validation.run_validation", None),
    ("validation", "scan_phasing_offset", "validation.scan_phasing_offset", None),
    ("validation", "check_geometry_constants", "validation.check", None),
    ("validation", "check_station_distances", "validation.check", None),
    ("validation", "check_permanent_census", "validation.check", None),
    ("validation", "check_latitude_connectivity", "validation.check", None),
    ("validation", "check_census_ratio", "validation.check", None),
    ("cli", "main", "cli.main", None),
)


class Tracer:
    """In-memory span recorder; one per traced process tree."""

    def __init__(self, dump_dir: Path):
        self.dump_dir = Path(dump_dir)
        self.pid = os.getpid()
        self.spans: list[tuple] = []
        self.stack: list[tuple] = []
        self.next_id = 0

    def _own_process(self) -> None:
        """Start a fresh span buffer in a forked worker, written out at its exit."""
        if os.getpid() == self.pid:
            return
        self.pid = os.getpid()
        self.spans = []
        self.stack = []
        path = self.dump_dir / f"spans-{self.pid}-{time.monotonic_ns()}.json"
        util.Finalize(None, self._dump, args=(path,), exitpriority=100)

    def _dump(self, path: Path) -> None:
        path.write_text(json.dumps(self.spans))

    def wrap(self, name: str, fn, value_of=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._own_process()
            span_id = (self.pid, self.next_id)
            self.next_id += 1
            parent = self.stack[-1] if self.stack else None
            self.stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
            value = value_of(result) if value_of is not None else None
            self.spans.append((name, span_id, parent, start, end, value))
            return result
        return traced

    def install(self) -> None:
        """Wrap every target, including copies bound by name in other fsosim modules."""
        layers = ("orbital", "links", "routing", "scenario", "validation", "cli")
        modules = [importlib.import_module("fsosim")]
        modules += [importlib.import_module(f"fsosim.{m}") for m in layers]
        for module_name, attr, span_name, value_of in TARGETS:
            module = importlib.import_module(f"fsosim.{module_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, self.wrap(span_name, getattr(cls, meth), value_of))
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(span_name, original, value_of)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is original:
                        setattr(m, key, wrapped)

    def collect(self) -> list[tuple]:
        """Spans of this process plus those the exited workers wrote out."""
        spans = [tuple(s) for s in self.spans]
        for path in sorted(self.dump_dir.glob("spans-*.json")):
            for name, span_id, parent, start, end, value in json.loads(path.read_text()):
                spans.append((name, tuple(span_id), None if parent is None else tuple(parent),
                              start, end, value))
        return spans


# Unit of every per-layer figure layer_metrics returns, plus the tracing overhead.
LAYER_UNITS = {
    "orbital.positions_at_ms": "ms", "links.engine_build_s": "s", "links.engine_builds": "count",
    "links.snapshot_ms_p50": "ms", "links.snapshot_ms_p90": "ms", "links.snapshot_calls": "count",
    "links.links_per_snapshot": "count", "routing.shortest_path_ms_p50": "ms",
    "routing.shortest_path_ms_p90": "ms", "routing.hops_per_path": "count",
    "scenario.run_s": "s", "scenario.calls": "count", "scenario.overhead_s": "s",
    "validation.scan_s": "s", "validation.checks_s": "s", "cli.self_s": "s",
    "trace.overhead_s": "s",
}


def tail_percentile(values, pct: int):
    """Nearest-rank pct-th percentile, or None unless at least ten samples lie above it."""
    values = sorted(values)
    rank = -(-pct * len(values) // 100)
    if len(values) - rank < 10:
        return None
    return values[rank - 1]


def layer_metrics(spans: list[tuple], rounds: int) -> dict:
    """Per-layer figures from one traced phase of `rounds` identical rounds.

    Totals and counts are per round; call times are medians or 90th
    percentiles over every call. A figure that a workload does not exercise
    (no calls, or a percentile with fewer than ten samples above it) is None.
    """
    by_name: dict[str, list[tuple]] = {}
    for span in spans:
        by_name.setdefault(span[0], []).append(span)

    def durations(name):
        return [end - start for _, _, _, start, end, _ in by_name.get(name, ())]

    def median_ms(name):
        d = durations(name)
        return 1e3 * statistics.median(d) if d else None

    def p90_ms(name):
        p = tail_percentile(durations(name), 90)
        return None if p is None else 1e3 * p

    def per_round(values):
        return sum(values) / rounds

    # run_scenario overhead: its wall time minus the slot work it ran,
    # divided by the number of processes that ran that work.
    overhead = 0.0
    slot_spans = by_name.get("scenario.evaluate_slot", [])
    for _, _, _, start, end, _ in by_name.get("scenario.run_scenario", []):
        inside = [s for s in slot_spans if start <= s[3] and s[4] <= end]
        workers = len({s[1][0] for s in inside}) or 1
        overhead += (end - start) - sum(s[4] - s[3] for s in inside) / workers

    # cli self time: its span minus the spans it called directly in its own process.
    children: dict[tuple, float] = {}
    for _, _, parent, start, end, _ in spans:
        if parent is not None:
            children[parent] = children.get(parent, 0.0) + (end - start)
    cli_self = [(end - start) - children.get(span_id, 0.0)
                for _, span_id, _, start, end, _ in by_name.get("cli.main", [])]

    links = [s[5] for s in by_name.get("links.snapshot", [])]
    hops = [s[5] for s in by_name.get("routing.shortest_path", []) if s[5] is not None]
    build = durations("links.engine_build")
    return {
        "orbital.positions_at_ms": median_ms("orbital.positions_at"),
        "links.engine_build_s": statistics.median(build) if build else None,
        "links.engine_builds": len(build) / rounds,
        "links.snapshot_ms_p50": median_ms("links.snapshot"),
        "links.snapshot_ms_p90": p90_ms("links.snapshot"),
        "links.snapshot_calls": len(links) / rounds,
        "links.links_per_snapshot": sum(links) / len(links) if links else None,
        "routing.shortest_path_ms_p50": median_ms("routing.shortest_path"),
        "routing.shortest_path_ms_p90": p90_ms("routing.shortest_path"),
        "routing.hops_per_path": sum(hops) / len(hops) if hops else None,
        "scenario.run_s": per_round(durations("scenario.run_scenario")),
        "scenario.calls": len(durations("scenario.run_scenario")) / rounds,
        "scenario.overhead_s": overhead / rounds,
        "validation.scan_s": per_round(durations("validation.scan_phasing_offset")),
        "validation.checks_s": per_round(durations("validation.check")),
        "cli.self_s": per_round(cli_self),
    }
