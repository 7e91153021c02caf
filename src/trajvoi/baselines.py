"""Comparison value metrics for trajectories.

These are the simple quantities a reconstruction-based score competes
against: point count, covered time span, path length, histogram entropies
of where and when the owner was recorded, a per-point price that decays
with measurement noise, and a held-out prediction-error score. Each one is
cheap, and each one is blind to something the entropy-reduction measure
sees; they exist so the two can be correlated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Optional

import numpy as np

from .gp import GaussianTrack, GpConfig
from .infogain import PriorKnowledge, reconstruction_tracks
from .model import Trajectory

BASELINE_CSV_FIELDS = ("trajectory_id", "size", "duration_s", "distance_m",
                       "h_spatial_bits", "h_temporal_bits", "spp",
                       "correctness_err_m")


@dataclass(frozen=True)
class EntropyGridConfig:
    """Histogram geometry for the two entropy metrics.

    Spatial cells are squares of ``cell_size`` meters anchored at the
    projection origin; temporal bins are ``bin_length`` seconds anchored at
    the trajectory's first timestamp.
    """

    cell_size: float = 10.0
    bin_length: float = 60.0

    def __post_init__(self):
        if not (self.cell_size > 0 and self.bin_length > 0):
            raise ValueError("cell_size and bin_length must be > 0")


@dataclass(frozen=True)
class SppConfig:
    """Per-point pricing: each measurement is worth v0 at sigma = 0 and
    decays by a factor e every sigma_ref meters of noise."""

    v0: float = 1.0
    sigma_ref: float = 100.0

    def __post_init__(self):
        if not (self.v0 > 0 and self.sigma_ref > 0):
            raise ValueError("v0 and sigma_ref must be > 0")


def size(s: Trajectory) -> int:
    return len(s)


def duration(s: Trajectory) -> float:
    """Seconds between first and last measurement; 0 for singletons."""
    return s.points[-1].t - s.points[0].t


def travel_distance(s: Trajectory) -> float:
    """Sum of consecutive point-to-point Euclidean distances in meters."""
    if len(s) < 2:
        return 0.0
    xy = np.array([(p.x, p.y) for p in s.points])
    return float(np.sum(np.hypot(*np.diff(xy, axis=0).T)))


def _shannon_bits(counts: Iterable[int]) -> float:
    c = np.asarray(list(counts), dtype=float)
    p = c / c.sum()
    p = p[p > 0]
    return float(-(p @ np.log2(p)))


def spatial_entropy(s: Trajectory,
                    grid: EntropyGridConfig = EntropyGridConfig()) -> float:
    """Shannon entropy (bits) of the visit histogram over grid cells."""
    cells: Dict[tuple, int] = {}
    for p in s.points:
        key = (math.floor(p.x / grid.cell_size),
               math.floor(p.y / grid.cell_size))
        cells[key] = cells.get(key, 0) + 1
    return _shannon_bits(cells.values())


def temporal_entropy(s: Trajectory,
                     grid: EntropyGridConfig = EntropyGridConfig()) -> float:
    """Shannon entropy (bits) of the measurement histogram over time bins."""
    t0 = s.points[0].t
    bins: Dict[int, int] = {}
    for p in s.points:
        key = math.floor((p.t - t0) / grid.bin_length)
        bins[key] = bins.get(key, 0) + 1
    return _shannon_bits(bins.values())


def spp_value(s: Trajectory, cfg: SppConfig = SppConfig()) -> float:
    """Summed per-point value with exponential noise decay."""
    return sum(cfg.v0 * math.exp(-p.sigma / cfg.sigma_ref) for p in s.points)


@dataclass(frozen=True)
class CorrectnessResult:
    expected_error_m: float


def correctness_value(z: Trajectory, s_raw: Trajectory,
                      prior: PriorKnowledge = PriorKnowledge.uninformative(),
                      gp_cfg: GpConfig = GpConfig(),
                      posterior: Optional[GaussianTrack] = None
                      ) -> CorrectnessResult:
    """Prediction-error score of a release against the raw trajectory.

    Reconstructs from combine(Z, prior) and measures, at each raw
    measurement time, the expected Euclidean distance between the
    reconstruction and the raw point, approximated by
    sqrt(||mean - point||^2 + 2 var), with var the variance both
    coordinates share. A ``posterior`` already fit is used as it is (see
    :func:`~trajvoi.infogain.reconstruction_tracks`).
    """
    if len(s_raw) == 0:
        raise ValueError("correctness_value needs a non-empty raw trajectory")
    _, posterior_track, _ = reconstruction_tracks(z, prior, gp_cfg, posterior)
    ts = np.array([p.t for p in s_raw.points])
    q = posterior_track.query(ts)
    dx = q.mean_x - np.array([p.x for p in s_raw.points])
    dy = q.mean_y - np.array([p.y for p in s_raw.points])
    # one variance term per coordinate, added term by term: 2.0 * var
    # rounds differently in the last bit and would shift reported scores
    err = float(np.mean(np.sqrt(dx ** 2 + dy ** 2 + q.var + q.var)))
    return CorrectnessResult(expected_error_m=err)


def baseline_row(s: Trajectory, grid: EntropyGridConfig = EntropyGridConfig(),
                 spp: SppConfig = SppConfig(),
                 correctness: CorrectnessResult = None) -> dict:
    """All scalar baselines for one trajectory, keyed like the CSV header."""
    row = {
        "trajectory_id": s.trajectory_id,
        "size": size(s),
        "duration_s": duration(s),
        "distance_m": travel_distance(s),
        "h_spatial_bits": spatial_entropy(s, grid),
        "h_temporal_bits": temporal_entropy(s, grid),
        "spp": spp_value(s, spp),
        "correctness_err_m": correctness.expected_error_m if correctness else "",
    }
    return row
