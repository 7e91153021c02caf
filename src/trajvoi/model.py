"""Core domain types and the local map projection.

All downstream computation works in local Euclidean meters. Longitude and
latitude are converted with an equirectangular projection about a reference
origin, which is exactly invertible and accurate to well under 0.1% over a
metropolitan-scale (~30 km) study area.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

EARTH_RADIUS_M = 6_371_000.0  # mean Earth radius


@dataclass(frozen=True)
class Measurement:
    """One timestamped planar location fix.

    x, y are meters east/north of the projection origin, t is continuous
    seconds since the epoch, and sigma is the standard deviation (meters) of
    independent Gaussian noise applied identically to x and y.
    """

    x: float
    y: float
    t: float
    sigma: float

    def __post_init__(self):
        for name in ("x", "y", "t", "sigma"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"Measurement.{name} must be finite, got {v!r}")
        if self.sigma < 0:
            raise ValueError(f"Measurement.sigma must be >= 0, got {self.sigma}")


@dataclass(frozen=True)
class Trajectory:
    """A time-ordered sequence of measurements with provenance."""

    points: Tuple[Measurement, ...]
    owner_id: str = ""
    trajectory_id: str = ""

    def __post_init__(self):
        points = tuple(self.points)
        object.__setattr__(self, "points", points)
        if len(points) < 1:
            raise ValueError("Trajectory must contain at least one measurement")
        for a, b in zip(points, points[1:]):
            if b.t < a.t:
                raise ValueError(
                    f"Trajectory {self.trajectory_id!r}: timestamps must be "
                    f"non-decreasing ({a.t} followed by {b.t})"
                )

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)


@dataclass(frozen=True)
class ProjectionConfig:
    """Reference origin of the local equirectangular projection."""

    lon0: float
    lat0: float
    name: str = ""

    def __post_init__(self):
        if not (-180.0 <= self.lon0 <= 180.0):
            raise ValueError(f"lon0 out of range: {self.lon0}")
        if not (-90.0 <= self.lat0 <= 90.0):
            raise ValueError(f"lat0 out of range: {self.lat0}")


@dataclass(frozen=True)
class Region:
    """Geographic bounding box in degrees."""

    min_lon: float
    max_lon: float
    min_lat: float
    max_lat: float

    def __post_init__(self):
        if not (self.min_lon < self.max_lon):
            raise ValueError("Region requires min_lon < max_lon")
        if not (self.min_lat < self.max_lat):
            raise ValueError("Region requires min_lat < max_lat")

    def contains(self, lon: float, lat: float) -> bool:
        return (self.min_lon <= lon <= self.max_lon
                and self.min_lat <= lat <= self.max_lat)

    def center(self) -> Tuple[float, float]:
        return (0.5 * (self.min_lon + self.max_lon),
                0.5 * (self.min_lat + self.max_lat))


def project(lon: float, lat: float, cfg: ProjectionConfig) -> Tuple[float, float]:
    """Convert degrees to local meters east/north of the origin.

    Equirectangular about (lon0, lat0):
        x = R * cos(lat0) * (lon - lon0)   [radians]
        y = R * (lat - lat0)               [radians]

    The map is exactly linear in (lon, lat), so it is exactly invertible.
    """
    if not (math.isfinite(lon) and math.isfinite(lat)):
        raise ValueError("project: lon/lat must be finite")
    if abs(lat) >= 89.0:
        raise ValueError(f"project: |lat| must be < 89 degrees, got {lat}")
    x = EARTH_RADIUS_M * math.cos(math.radians(cfg.lat0)) * math.radians(lon - cfg.lon0)
    y = EARTH_RADIUS_M * math.radians(lat - cfg.lat0)
    return x, y


def unproject(x: float, y: float, cfg: ProjectionConfig) -> Tuple[float, float]:
    """Inverse of :func:`project`; returns (lon, lat) in degrees."""
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError("unproject: x/y must be finite")
    lon = cfg.lon0 + math.degrees(x / (EARTH_RADIUS_M * math.cos(math.radians(cfg.lat0))))
    lat = cfg.lat0 + math.degrees(y / EARTH_RADIUS_M)
    return lon, lat
