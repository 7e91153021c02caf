"""Quality-lowering transforms of trajectories with reproducible randomness.

Three operators are provided:

* perturbation: add independent Gaussian noise per coordinate so each point
  reaches a requested total standard deviation,
* truncation: keep the temporally first fraction of points,
* subsampling: keep a uniform random fraction, nested across ratios.

Randomness comes from a PCG64 generator keyed by SHA-256 of
``(seed, trajectory_id)``, so results are reproducible across processes and
platforms and independent of evaluation order. Subsampling draws one uniform
per measurement and retains those below the ratio; because the uniforms do
not depend on the ratio, the retained set at a smaller ratio is always a
subset of the retained set at a larger ratio for the same seed.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .model import Trajectory

KINDS = ("perturbation", "truncation", "subsampling", "identity")


@dataclass(frozen=True)
class DegradationSpec:
    """One degradation operation and its parameters.

    ``total_noise`` is the per-point standard deviation after perturbation
    (it must be at least the largest input sigma). ``ratio`` is the retained
    fraction for truncation and subsampling.
    """

    kind: str
    total_noise: Optional[float] = None   # meters, perturbation only
    ratio: Optional[float] = None         # (0, 1], truncation/subsampling
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown degradation kind {self.kind!r}")
        if self.kind == "perturbation":
            if self.total_noise is None or not self.total_noise >= 0:
                raise ValueError("perturbation requires total_noise >= 0")
        if self.kind in ("truncation", "subsampling"):
            if self.ratio is None or not (0.0 < self.ratio <= 1.0):
                raise ValueError(f"{self.kind} requires ratio in (0, 1]")

    @property
    def param(self) -> float:
        """Scalar parameter of the family (total noise, ratio, or 1)."""
        if self.kind == "perturbation":
            return float(self.total_noise)
        if self.kind == "identity":
            return 1.0
        return float(self.ratio)

    def label(self) -> str:
        if self.kind == "identity":
            return "identity"
        return f"{self.kind}:{self.param:g}"


def _stream(seed: int, trajectory_id: str) -> np.random.Generator:
    # Stable per-trajectory stream: PCG64 keyed by SHA-256(seed, id).
    digest = hashlib.sha256(f"{seed}:{trajectory_id}".encode("utf-8")).digest()
    return np.random.Generator(np.random.PCG64(int.from_bytes(digest[:8], "little")))


def perturb(S: Trajectory, total_noise: float, seed: int) -> Trajectory:
    """Add Gaussian noise so every point has standard deviation total_noise.

    The added noise per point has variance total_noise^2 - sigma_i^2, drawn
    independently for x and y (x first, point by point). Timestamps and size
    are preserved; every output sigma equals total_noise.
    """
    sigmas = S.sigma
    if np.any(sigmas > total_noise):
        raise ValueError(
            f"perturb: total_noise {total_noise} is below an existing "
            f"measurement sigma (max {sigmas.max()}) in {S.trajectory_id!r}"
        )
    added_std = np.sqrt(np.maximum(total_noise ** 2 - sigmas ** 2, 0.0))
    rng = _stream(seed, S.trajectory_id)
    offsets = rng.standard_normal((len(S), 2)) * added_std[:, None]
    return replace(S, x=S.x + offsets[:, 0], y=S.y + offsets[:, 1],
                   sigma=np.full(len(S), float(total_noise)))


def kept_fixes(S: Trajectory, spec: DegradationSpec):
    """The fixes of S that the release ``spec`` keeps, as an index for
    ``S.take``: a slice, or a boolean mask under subsampling.

    Truncation keeps the temporally first floor(ratio * |S|) fixes, at
    least one. Subsampling keeps the fixes whose uniform is below the
    ratio (nested across ratios, see above), or the fix of the least
    uniform when none is. Identity keeps every fix, and so does
    perturbation, which moves them.
    """
    if spec.kind == "truncation":
        return slice(0, max(1, math.floor(spec.ratio * len(S))))
    if spec.kind == "subsampling":
        u = _stream(spec.seed, S.trajectory_id).random(len(S))
        keep = u < spec.ratio
        if not keep.any():
            keep[int(np.argmin(u))] = True
        return keep
    return slice(None)


def truncate(S: Trajectory, ratio: float) -> Trajectory:
    """Keep the temporally first floor(ratio * |S|) points, at least one."""
    return S.take(kept_fixes(S, DegradationSpec(kind="truncation",
                                                ratio=ratio)))


def subsample(S: Trajectory, ratio: float, seed: int) -> Trajectory:
    """Keep each point independently with probability ratio, at least one.

    For a fixed seed the result at a smaller ratio is a subset of the
    result at any larger ratio (see :func:`kept_fixes`).
    """
    return S.take(kept_fixes(S, DegradationSpec(kind="subsampling",
                                                ratio=ratio, seed=seed)))


def apply_spec(S: Trajectory, spec: DegradationSpec) -> Trajectory:
    """Apply one degradation spec; identity returns the input unchanged."""
    if spec.kind == "identity":
        return S
    if spec.kind == "perturbation":
        return perturb(S, spec.total_noise, spec.seed)
    return S.take(kept_fixes(S, spec))
