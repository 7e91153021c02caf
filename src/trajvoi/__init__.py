"""Quantify the intrinsic value of GPS trajectories.

The core measure is information gain: how much a released trajectory
reduces the differential entropy of a continuous-time probabilistic
reconstruction of the owner's location, relative to what the recipient
already knew. The package also ships the degradation operators used to
lower a trajectory's quality before release, simple comparison metrics,
a statistics harness, and a batch CLI (``trajvoi``).
"""

from .degrade import DegradationSpec, apply_spec, perturb, subsample, truncate
from .gp import GaussianTrack, GpConfig, fit_track
from .infogain import (IntegrationConfig, PriorKnowledge, VoiReport, VoiRow,
                       combine, evaluate_voi, gaussian_entropy, ig_at)
from .model import ProjectionConfig, Region, Trajectory, project, unproject

__version__ = "0.1.0"

__all__ = [
    "DegradationSpec", "apply_spec", "perturb", "subsample", "truncate",
    "GaussianTrack", "GpConfig", "fit_track",
    "IntegrationConfig", "PriorKnowledge", "VoiReport", "VoiRow",
    "combine", "evaluate_voi", "gaussian_entropy", "ig_at",
    "ProjectionConfig", "Region", "Trajectory",
    "project", "unproject",
    "__version__",
]
