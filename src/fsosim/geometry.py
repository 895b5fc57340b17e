"""Physical constants, the visibility-limited link range, and great-circle distance."""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigurationError

SPEED_OF_LIGHT_MPS = 299_792_458.0
EARTH_RADIUS_KM = 6378.0
EARTH_SIDEREAL_RATE_RAD_S = 7.2921159e-5
NODE_DELAY_MS = 10.0  # per satellite hop


@dataclass(frozen=True)
class PhysicalConstants:
    """Physical constants and fixed per-hop delay used throughout a run."""

    c_mps: float = SPEED_OF_LIGHT_MPS
    earth_radius_km: float = EARTH_RADIUS_KM
    occlusion_clearance_km: float = 80.0
    node_delay_ms: float = NODE_DELAY_MS

    def __post_init__(self):
        for name in ("c_mps", "earth_radius_km", "occlusion_clearance_km", "node_delay_ms"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"constants.{name} must be strictly positive")

    @property
    def occlusion_radius_km(self) -> float:
        return self.earth_radius_km + self.occlusion_clearance_km


def max_lisl_range(altitude_km: float, clearance_km: float,
                   earth_radius_km: float = EARTH_RADIUS_KM) -> float:
    """Longest laser inter-satellite link that still grazes above the clearance shell.

    Two satellites at the same altitude can see each other as long as the
    chord between them stays above earth_radius + clearance; the longest
    such chord is 2*sqrt((Re+h)^2 - (Re+clearance)^2).
    """
    if clearance_km < 0 or altitude_km < clearance_km:
        raise ValueError("require altitude_km >= clearance_km >= 0")
    r_orbit = earth_radius_km + altitude_km
    r_graze = earth_radius_km + clearance_km
    return 2.0 * math.sqrt(r_orbit * r_orbit - r_graze * r_graze)


def great_circle_distance(a, b, radius_km: float = EARTH_RADIUS_KM) -> float:
    """Great-circle distance between (lat, lon) pairs in degrees, km.

    Uses the haversine formula with an atan2 arc recovery, which stays
    accurate for nearly antipodal points.
    """
    lat1, lon1 = (math.radians(x) for x in a)
    lat2, lon2 = (math.radians(x) for x in b)
    sdlat = math.sin((lat2 - lat1) / 2.0)
    sdlon = math.sin((lon2 - lon1) / 2.0)
    h = sdlat * sdlat + math.cos(lat1) * math.cos(lat2) * sdlon * sdlon
    h = min(1.0, max(0.0, h))
    return radius_km * 2.0 * math.atan2(math.sqrt(h), math.sqrt(1.0 - h))
