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
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .gp import GaussianTrack, GpConfig
from .infogain import PriorKnowledge, fit_cell
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
    return float(s.t[-1] - s.t[0])


def travel_distance(s: Trajectory) -> float:
    """Sum of consecutive point-to-point Euclidean distances in meters."""
    if len(s) < 2:
        return 0.0
    return float(np.sum(np.hypot(np.diff(s.x), np.diff(s.y))))


def _shannon_bits(counts: Iterable[int]) -> float:
    c = np.asarray(list(counts), dtype=float)
    p = c / c.sum()
    p = p[p > 0]
    return float(-(p @ np.log2(p)))


def spatial_entropy(s: Trajectory,
                    grid: EntropyGridConfig = EntropyGridConfig()) -> float:
    """Shannon entropy (bits) of the visit histogram over grid cells."""
    # counts in order of first visit, the order their entropy terms sum in
    return _shannon_bits(Counter(zip(
        np.floor(s.x / grid.cell_size).tolist(),
        np.floor(s.y / grid.cell_size).tolist())).values())


def temporal_entropy(s: Trajectory,
                     grid: EntropyGridConfig = EntropyGridConfig()) -> float:
    """Shannon entropy (bits) of the measurement histogram over time bins."""
    return _shannon_bits(Counter(
        np.floor((s.t - s.t[0]) / grid.bin_length).tolist()).values())


def spp_value(s: Trajectory, cfg: SppConfig = SppConfig()) -> float:
    """Summed per-point value with exponential noise decay."""
    # summed in fix order on Python floats, math.exp being the rounding
    # the values were always made with
    return sum(cfg.v0 * math.exp(v) for v in (-s.sigma / cfg.sigma_ref).tolist())


def correctness_value(z: Trajectory, s_raw: Trajectory,
                      prior: PriorKnowledge = PriorKnowledge.uninformative(),
                      gp_cfg: GpConfig = GpConfig(),
                      posterior: Optional[GaussianTrack] = None) -> float:
    """Prediction-error score of a release against the raw trajectory.

    Reconstructs from combine(Z, prior) and measures, at each raw
    measurement time, the expected Euclidean distance between the
    reconstruction and the raw point, approximated by
    sqrt(||mean - point||^2 + 2 var), with var the variance both
    coordinates share. A ``posterior`` already fit (see
    :func:`~trajvoi.infogain.fit_cells`) is used as it is.
    """
    if len(s_raw) == 0:
        raise ValueError("correctness_value needs a non-empty raw trajectory")
    if posterior is None:
        _, posterior = fit_cell(z, prior, gp_cfg)
    q = posterior.query(s_raw.t)
    dx = q.mean_x - s_raw.x
    dy = q.mean_y - s_raw.y
    # one variance term per coordinate, added term by term: 2.0 * var
    # rounds differently in the last bit and would shift reported scores
    return float(np.mean(np.sqrt(dx ** 2 + dy ** 2 + q.var + q.var)))


def baseline_row(s: Trajectory, grid: EntropyGridConfig = EntropyGridConfig(),
                 spp: SppConfig = SppConfig(),
                 correctness: Optional[float] = None) -> dict:
    """All scalar baselines for one trajectory, keyed like the CSV header."""
    row = {
        "trajectory_id": s.trajectory_id,
        "size": size(s),
        "duration_s": duration(s),
        "distance_m": travel_distance(s),
        "h_spatial_bits": spatial_entropy(s, grid),
        "h_temporal_bits": temporal_entropy(s, grid),
        "spp": spp_value(s, spp),
        "correctness_err_m": "" if correctness is None else correctness,
    }
    return row
