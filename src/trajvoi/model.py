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

import numpy as np

EARTH_RADIUS_M = 6_371_000.0  # mean Earth radius
# Latitudes the equirectangular projection takes, origin and fixes alike,
# lie strictly inside this bound: cos(lat) vanishes at a pole.
MAX_ABS_LAT = 89.0


# a fix's values, in the order they are checked
_FIX_FIELDS = ("x", "y", "t", "sigma")


def _column(values) -> np.ndarray:
    """A read-only contiguous float64 copy of ``values``, owning its data:
    no caller can change it, and it keeps no larger array alive."""
    column = np.array(values, dtype=float, order="C")
    column.flags.writeable = False
    return column


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A time-ordered sequence of fixes with provenance, held as columns.

    Fix i is at ``x[i]``, ``y[i]`` (meters east/north of the projection
    origin) at ``t[i]`` (continuous seconds since the epoch), with
    ``sigma[i]`` the standard deviation (meters) of independent Gaussian
    noise applied identically to x and y. The four columns are read-only
    float64 arrays of one length, at least 1; every value is finite, every
    sigma >= 0 and t is non-decreasing. A violation names the first fix
    (the measurement) at fault. Trajectories compare by identity.
    """

    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    sigma: np.ndarray
    owner_id: str = ""
    trajectory_id: str = ""

    def __post_init__(self):
        for name in _FIX_FIELDS:
            object.__setattr__(self, name, _column(getattr(self, name)))
        if not (self.x.ndim == 1
                and self.x.shape == self.y.shape == self.t.shape
                == self.sigma.shape):
            raise ValueError(
                f"Trajectory {self.trajectory_id!r}: t, x, y and sigma must "
                f"be 1-d and of one length")
        bad = ~np.isfinite(self.x) | ~np.isfinite(self.y) \
            | ~np.isfinite(self.t) | ~(self.sigma >= 0)
        if bad.any():
            i = int(np.argmax(bad))
            for name in _FIX_FIELDS:
                v = float(getattr(self, name)[i])
                if not math.isfinite(v):
                    raise ValueError(
                        f"Measurement.{name} must be finite, got {v!r}")
            raise ValueError(
                f"Measurement.sigma must be >= 0, got {float(self.sigma[i])}")
        if len(self) < 1:
            raise ValueError("Trajectory must contain at least one measurement")
        back = np.diff(self.t) < 0
        if back.any():
            i = int(np.argmax(back))
            raise ValueError(
                f"Trajectory {self.trajectory_id!r}: timestamps must be "
                f"non-decreasing ({float(self.t[i])} followed by "
                f"{float(self.t[i + 1])})"
            )

    def __len__(self) -> int:
        return self.t.size

    def take(self, index) -> "Trajectory":
        """The fixes at ``index`` (a slice or a boolean mask), in order,
        with the same provenance."""
        return Trajectory(self.t[index], self.x[index], self.y[index],
                          self.sigma[index], self.owner_id,
                          self.trajectory_id)


@dataclass(frozen=True)
class ProjectionConfig:
    """Reference origin of the local equirectangular projection."""

    lon0: float
    lat0: float

    def __post_init__(self):
        if not (-180.0 <= self.lon0 <= 180.0):
            raise ValueError(f"lon0 out of range: {self.lon0}")
        if not abs(self.lat0) < MAX_ABS_LAT:
            raise ValueError(f"lat0 out of range: |lat0| must be < "
                             f"{MAX_ABS_LAT:g} degrees, got {self.lat0}")


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

    def contains(self, lon, lat):
        """Whether (lon, lat) is inside the box, boundary included; numbers
        give a bool, equal-length arrays a boolean array."""
        return ((self.min_lon <= lon) & (lon <= self.max_lon)
                & (self.min_lat <= lat) & (lat <= self.max_lat))


def project(lon, lat, cfg: ProjectionConfig):
    """Convert degrees to local meters east/north of the origin.

    Equirectangular about (lon0, lat0):
        x = R * cos(lat0) * (lon - lon0)   [radians]
        y = R * (lat - lat0)               [radians]

    The map is exactly linear in (lon, lat), so it is exactly invertible.
    ``lon`` and ``lat`` are numbers or equal-length arrays; each fix of an
    array maps exactly as it would alone.
    """
    lon = np.asarray(lon, dtype=float)
    lat = np.asarray(lat, dtype=float)
    if not (np.isfinite(lon).all() and np.isfinite(lat).all()):
        raise ValueError("project: lon/lat must be finite")
    polar = np.abs(lat) >= MAX_ABS_LAT
    if polar.any():
        raise ValueError(f"project: |lat| must be < {MAX_ABS_LAT:g} degrees, "
                         f"got {float(lat.flat[np.argmax(polar)])}")
    x = EARTH_RADIUS_M * math.cos(math.radians(cfg.lat0)) * np.radians(lon - cfg.lon0)
    y = EARTH_RADIUS_M * np.radians(lat - cfg.lat0)
    return x, y


def unproject(x: float, y: float, cfg: ProjectionConfig) -> Tuple[float, float]:
    """Inverse of :func:`project`; returns (lon, lat) in degrees."""
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError("unproject: x/y must be finite")
    lon = cfg.lon0 + math.degrees(x / (EARTH_RADIUS_M * math.cos(math.radians(cfg.lat0))))
    lat = cfg.lat0 + math.degrees(y / EARTH_RADIUS_M)
    return lon, lat
