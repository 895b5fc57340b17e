"""Walker-delta constellation generation and circular-orbit propagation.

The constellation is uniform: every orbit is circular at the same radius
and inclination, planes are spread evenly in right ascension, and in-plane
slots are spread evenly in phase with an inter-plane phasing offset.
Satellites and ground stations are propagated analytically, so every
operation here is a pure function of (spec, id, time). Positions are
kilometres in a right-handed inertial frame with the polar axis along +z.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .geometry import EARTH_RADIUS_KM, EARTH_SIDEREAL_RATE_RAD_S

EARTH_MU_KM3_S2 = 398_600.4418

# Satellite ids are x1PPSS with 1-based two-digit plane and slot fields.
MAX_ID_FIELD = 99
SATELLITE_ID_PATTERN = re.compile(r"x1([0-9]{2})([0-9]{2})")


@dataclass(frozen=True)
class ConstellationSpec:
    """Walker-delta shell parameters."""

    plane_count: int = 24
    sats_per_plane: int = 66
    altitude_km: float = 550.0
    inclination_deg: float = 53.0
    phasing_offset: int = 15
    raan_spread_deg: float = 360.0
    earth_radius_km: float = EARTH_RADIUS_KM
    mu_km3s2: float = EARTH_MU_KM3_S2

    def __post_init__(self):
        if self.plane_count < 1 or self.sats_per_plane < 1:
            raise ConfigurationError("constellation needs at least one plane and one slot per plane")
        if self.plane_count > MAX_ID_FIELD or self.sats_per_plane > MAX_ID_FIELD:
            raise ConfigurationError(
                f"constellation supports at most {MAX_ID_FIELD} planes and {MAX_ID_FIELD} "
                f"slots per plane (satellite ids have two-digit fields)")
        if self.altitude_km <= 0:
            raise ConfigurationError("constellation.altitude_km must be positive")
        if not 0 <= self.phasing_offset < self.plane_count:
            raise ConfigurationError(
                f"constellation.phasing_offset must lie in [0, {self.plane_count})")
        if self.earth_radius_km <= 0 or self.mu_km3s2 <= 0:
            raise ConfigurationError("earth radius and mu must be positive")

    @property
    def satellite_count(self) -> int:
        return self.plane_count * self.sats_per_plane

    @property
    def orbit_radius_km(self) -> float:
        return self.earth_radius_km + self.altitude_km

    @property
    def mean_motion_rad_s(self) -> float:
        return math.sqrt(self.mu_km3s2 / self.orbit_radius_km**3)

    @property
    def orbital_period_s(self) -> float:
        return 2.0 * math.pi / self.mean_motion_rad_s

    @property
    def orbital_speed_kms(self) -> float:
        return math.sqrt(self.mu_km3s2 / self.orbit_radius_km)


@dataclass(frozen=True, order=True)
class SatelliteId:
    """Position of a satellite within the shell: plane index and in-plane slot."""

    plane_index: int
    slot_index: int


@dataclass(frozen=True)
class GroundStation:
    """An Earth-fixed station that can link to satellites within range_km slant."""

    name: str
    latitude_deg: float
    longitude_deg: float
    range_km: float = 1000.0

    def __post_init__(self):
        if not -90.0 <= self.latitude_deg <= 90.0:
            raise ConfigurationError(f"station {self.name!r}: latitude out of [-90, 90]")
        if not -180.0 <= self.longitude_deg <= 180.0:
            raise ConfigurationError(f"station {self.name!r}: longitude out of [-180, 180]")
        if self.range_km <= 0:
            raise ConfigurationError(f"station {self.name!r}: range_km must be positive")


def format_id(sat: SatelliteId) -> str:
    """Render a satellite id as x1PPSS with 1-based two-digit plane and slot."""
    if sat.plane_index >= MAX_ID_FIELD or sat.slot_index >= MAX_ID_FIELD:
        raise ValueError(f"cannot format {sat}: two-digit field overflow")
    if sat.plane_index < 0 or sat.slot_index < 0:
        raise ValueError(f"cannot format {sat}: negative index")
    return f"x1{sat.plane_index + 1:02d}{sat.slot_index + 1:02d}"


def parse_id(text: str) -> SatelliteId | None:
    """Inverse of format_id: the SatelliteId that text names, or None."""
    match = SATELLITE_ID_PATTERN.fullmatch(text)
    if match is None or match[1] == "00" or match[2] == "00":
        return None
    return SatelliteId(int(match[1]) - 1, int(match[2]) - 1)


class Constellation:
    """An immutable Walker-delta shell with analytic propagation.

    Satellites are ordered by flat index plane*sats_per_plane + slot. All
    angles are carried in radians internally; the per-satellite RAAN and
    epoch phase arrays drive every state query.
    """

    def __init__(self, spec: ConstellationSpec):
        self.spec = spec
        n = spec.satellite_count
        self.plane_of = np.repeat(np.arange(spec.plane_count), spec.sats_per_plane)
        self.slot_of = np.tile(np.arange(spec.sats_per_plane), spec.plane_count)
        self._raan = np.deg2rad(self.plane_of * spec.raan_spread_deg / spec.plane_count)
        self._phase0 = np.deg2rad(
            self.slot_of * (360.0 / spec.sats_per_plane)
            + self.plane_of * spec.phasing_offset * (360.0 / n))
        self._incl = math.radians(spec.inclination_deg)

    def __len__(self) -> int:
        return self.spec.satellite_count

    def flat_index(self, sat: SatelliteId) -> int:
        spec = self.spec
        if not (0 <= sat.plane_index < spec.plane_count
                and 0 <= sat.slot_index < spec.sats_per_plane):
            raise KeyError(f"{sat} is not part of this constellation")
        return sat.plane_index * spec.sats_per_plane + sat.slot_index

    def satellite_id(self, flat_index: int) -> SatelliteId:
        if not 0 <= flat_index < len(self):
            raise KeyError(f"flat index {flat_index} out of range")
        s = self.spec.sats_per_plane
        return SatelliteId(flat_index // s, flat_index % s)

    def positions_at(self, t: float) -> np.ndarray:
        """Inertial positions of all satellites at time t, shape (N, 3), km."""
        u = self._phase0 + self.spec.mean_motion_rad_s * t
        return self._to_inertial(np.cos(u), np.sin(u), self.spec.orbit_radius_km)

    def velocities_at(self, t: float) -> np.ndarray:
        """Inertial velocities of all satellites at time t, shape (N, 3), km/s."""
        u = self._phase0 + self.spec.mean_motion_rad_s * t
        return self._to_inertial(-np.sin(u), np.cos(u),
                                 self.spec.orbit_radius_km * self.spec.mean_motion_rad_s)

    def _to_inertial(self, along_node, across_node, scale: float) -> np.ndarray:
        """scale * (along_node, across_node), given per satellite in its orbit
        plane (along the ascending node and 90 deg ahead of it in the direction
        of motion), rotated into the inertial frame: R3(raan) R1(incl)."""
        co, so = np.cos(self._raan), np.sin(self._raan)
        ci, si = math.cos(self._incl), math.sin(self._incl)
        return np.stack([
            scale * (along_node * co - across_node * so * ci),
            scale * (along_node * so + across_node * co * ci),
            scale * (across_node * si),
        ], axis=-1)

    def latitude_deg(self, sat: SatelliteId, t):
        """Geocentric latitude of the satellite at time t (scalar or array), degrees."""
        k = self.flat_index(sat)
        u = self._phase0[k] + self.spec.mean_motion_rad_s * np.asarray(t, dtype=float)
        return np.rad2deg(np.arcsin(np.sin(u) * math.sin(self._incl)))

def build_constellation(spec: ConstellationSpec) -> Constellation:
    """Construct the shell described by spec; raises ConfigurationError if invalid."""
    return Constellation(spec)


def ground_station_position(gs: GroundStation, t: float,
                            earth_rotation0_deg: float = 0.0,
                            earth_radius_km: float = EARTH_RADIUS_KM,
                            sidereal_rate_rad_s: float = EARTH_SIDEREAL_RATE_RAD_S) -> np.ndarray:
    """Inertial position of an Earth-fixed station at time t, km.

    The station sits on a sphere of earth_radius_km and rotates about the
    polar axis at the sidereal rate, starting from its longitude plus the
    configured epoch rotation angle.
    """
    lam = math.radians(gs.longitude_deg + earth_rotation0_deg) + sidereal_rate_rad_s * t
    phi = math.radians(gs.latitude_deg)
    return np.array([
        earth_radius_km * math.cos(phi) * math.cos(lam),
        earth_radius_km * math.cos(phi) * math.sin(lam),
        earth_radius_km * math.sin(phi),
    ])
