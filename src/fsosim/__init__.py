"""Connectivity and latency simulation of laser-linked LEO satellite networks.

Builds a uniform Walker-delta shell, classifies candidate laser links by
plane relation and permanence, snapshots the connectivity graph per time
slot under a range and link policy, and routes minimum-latency paths
between ground stations.
"""
from .geometry import PhysicalConstants, great_circle_distance, max_lisl_range
from .links import (GraphSnapshot, LinkEngine, LinkType, Mode, Permanence, SlotGeometry,
                    link_census)
from .orbital import (ConstellationSpec, GroundStation, SatelliteId, build_constellation,
                      format_id, ground_station_position)
from .routing import PathResult, shortest_path
from .scenario import (BUNDLED_STATIONS, DEFAULT_RANGES_KM, ComparisonResult,
                       MetricsSummary, ScenarioConfig, SlotRecord, compare_many, run_scenario,
                       run_scenarios)

__all__ = [
    "BUNDLED_STATIONS", "ComparisonResult", "ConstellationSpec", "DEFAULT_RANGES_KM",
    "GraphSnapshot", "GroundStation", "LinkEngine", "LinkType", "MetricsSummary", "Mode",
    "PathResult", "Permanence", "PhysicalConstants", "SatelliteId", "ScenarioConfig",
    "SlotGeometry", "SlotRecord", "build_constellation", "compare_many", "format_id",
    "great_circle_distance", "ground_station_position", "link_census", "max_lisl_range",
    "run_scenario", "run_scenarios", "shortest_path",
]

__version__ = "0.1.0"
