"""Information gain of a released trajectory over prior knowledge.

The value of a location dataset Z is measured as the reduction in
uncertainty about the owner's continuous-time position once Z is known.
Position uncertainty at a time t is the differential entropy of the
reconstructed location distribution (two independent Gaussians, one per
coordinate):

    IG_t = h(loc_t | prior) - h(loc_t | Z, prior)        [bits]
    IG   = integral of IG_t over the covering day        [bit seconds]

Both coordinates share one variance (see :mod:`.gp`), so IG_t is the single
log-variance ratio log2(var_prior / var_posterior). Conditioning on more
fixes never raises a Gaussian's variance, so IG_t is never negative as long
as the posterior's evidence contains the prior's.

The prior is either uninformative (location anywhere in the region,
standard deviation ``gp.sigma0_m`` per coordinate) or an earlier, more
degraded release of the same trajectory. :func:`score_cells` is the one
place the gain is integrated: it fits each distinct reconstruction of a
trajectory's cells once, for its variance alone.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field, replace
from itertools import groupby
from typing import Dict, List, Optional, Sequence, Tuple, get_type_hints

import numpy as np

from .degrade import DegradationSpec
from .gp import (GaussianTrack, GpConfig, Training, fit_tracks,
                 point_training, train_length_scales)
# importable from here by name, where per-layer tracing wraps it
from .gp import train_length_scale  # noqa: F401
from .model import Trajectory

DAY_SECONDS = 86400.0

LOG2_2PIE = math.log2(2.0 * math.pi * math.e)


def gaussian_entropy(variance: float) -> float:
    """Differential entropy in bits of a 1-d Gaussian with this variance."""
    if not variance > 0:
        raise ValueError(f"variance must be positive, got {variance}")
    return 0.5 * (LOG2_2PIE + math.log2(variance))


@dataclass(frozen=True)
class PriorKnowledge:
    """What the recipient already knows before seeing Z.

    Either nothing beyond "somewhere in the study area" (``uninformative``:
    an N(0, sigma_f^2) location per coordinate at every time, with sigma_f
    from the GP config), or an earlier, more degraded release of the same
    trajectory (``released``, carrying the released data and the spec that
    produced it). Priors compare by value: equal priors hold one release
    object under one spec.
    """

    kind: str = "uninformative"
    released: Optional[Trajectory] = None
    released_spec: Optional[DegradationSpec] = None

    def __post_init__(self):
        if self.kind == "uninformative":
            if self.released is not None:
                raise ValueError("uninformative prior carries no release")
        elif self.kind == "released":
            if self.released is None or self.released_spec is None:
                raise ValueError("released prior needs the released "
                                 "trajectory and its degradation spec")
        else:
            raise ValueError(f"unknown prior kind {self.kind!r}")

    @property
    def label(self) -> str:
        if self.kind == "uninformative":
            return "uninformative"
        return self.released_spec.label()

    @staticmethod
    def uninformative() -> "PriorKnowledge":
        return PriorKnowledge(kind="uninformative")

    @staticmethod
    def from_release(released: Trajectory,
                     spec: DegradationSpec) -> "PriorKnowledge":
        return PriorKnowledge(kind="released", released=released,
                              released_spec=spec)


def combine(z: Trajectory, prior: PriorKnowledge) -> Trajectory:
    """Merge the release Z with the prior's data into one evidence set.

    A perturbation prior is the same trajectory under other noise, with the
    same length, order and timestamps, so the i-th point of Z fuses with the
    i-th prior point by inverse-variance weighting. Truncation and
    subsampling releases of one trajectory nest (a smaller ratio keeps a
    subset of a larger one), and the identity release holds them all, so
    the longer of Z and the prior release is their union. A release that is
    a subset of its prior thus adds no evidence and scores 0.
    """
    if prior.kind == "uninformative":
        return z
    omega = prior.released
    if omega.trajectory_id != z.trajectory_id:
        raise ValueError(
            f"prior release is from trajectory "
            f"{omega.trajectory_id!r}, not {z.trajectory_id!r}")
    if prior.released_spec.kind != "perturbation":
        return max(z, omega, key=len)
    if not np.array_equal(z.t, omega.t):
        raise ValueError(
            f"perturbation prior and release of {z.trajectory_id!r} differ "
            f"in their timestamps")
    # Powers go fix by fix on Python floats: their ** is C's pow, which
    # numpy's power does not match in the last bit, and a sigma whose
    # square overflows or vanishes raises here as it always has.
    wp, wq = np.array([(1.0 / p ** 2, 1.0 / q ** 2) for p, q in zip(
        z.sigma.tolist(), omega.sigma.tolist())]).T
    total = wp + wq
    return replace(z, x=(z.x * wp + omega.x * wq) / total,
                   y=(z.y * wp + omega.y * wq) / total,
                   sigma=[w ** -0.5 for w in total.tolist()])


@dataclass(frozen=True)
class IntegrationConfig:
    """Time grid for integrating pointwise gain over the covering day.

    Measurement times augment the uniform grid by default because the
    reconstruction variance dips sharply at data points and a uniform grid
    alone would smear those dips."""

    grid_step: float = 60.0
    day_seconds: float = DAY_SECONDS
    include_measurement_times: bool = True

    def __post_init__(self):
        if not 0 < self.grid_step <= self.day_seconds < math.inf:
            raise ValueError("grid_step must be in (0, day_seconds], and "
                             "day_seconds finite")


def covering_day_start(t: float, day_seconds: float = DAY_SECONDS) -> float:
    """Start (epoch seconds) of the UTC day containing t."""
    return math.floor(t / day_seconds) * day_seconds


def ig_at(prior_track: GaussianTrack, posterior_track: GaussianTrack,
          times) -> np.ndarray:
    """Pointwise entropy reduction in bits at each query time, summed over
    the two coordinates: 2 * 0.5 * log2 of the shared variance ratio."""
    return (np.log2(prior_track.query(times, means=False).var)
            - np.log2(posterior_track.query(times, means=False).var))


def integration_grid(day_start: float, cfg: IntegrationConfig,
                     extra_times: Sequence[float] = ()) -> np.ndarray:
    """Uniform grid over the day, augmented with the measurement times.

    The grid ends at the day's end, a shorter last step where the step does
    not divide the day. Extra times outside the day are dropped; duplicates
    collapse.
    """
    day_end = day_start + cfg.day_seconds
    n = math.ceil(cfg.day_seconds / cfg.grid_step)
    grid = np.minimum(day_start + cfg.grid_step * np.arange(n + 1), day_end)
    if not cfg.include_measurement_times:
        return grid
    extra = np.asarray(extra_times, dtype=float)
    extra = extra[(extra >= day_start) & (extra <= day_end)]
    return np.unique(np.concatenate([grid, extra]))


@dataclass(frozen=True)
class VoiRow:
    """One evaluated cell: a trajectory under a degradation and a prior.

    ``trace``, when kept, is a ((t, IG_t), ...) tuple over the integration
    grid for diagnosing a surprising total; batch runs leave it off.
    """

    trajectory_id: str
    prior: str
    kind: str
    param: float
    ig_bit_seconds: float
    length_scale_x: float
    length_scale_y: float
    day_start: float = 0.0
    day_end: float = DAY_SECONDS
    trace: Optional[tuple] = None

    def __post_init__(self):
        if self.day_end <= self.day_start:
            raise ValueError("day_end must be after day_start")

    @property
    def ig_bit_hours(self) -> float:
        return self.ig_bit_seconds / 3600.0

    def to_dict(self) -> dict:
        d = {name: getattr(self, name) for name, _ in _VOI_FIELDS}
        d["ig_bit_hours"] = self.ig_bit_hours
        if self.trace is not None:
            d["trace"] = [[t, g] for t, g in self.trace]
        return d


# (name, type) of every VoiRow field but the trace, in declaration order:
# the report's JSON keys besides the derived ig_bit_hours; its CSV columns
# leave out the day window
_VOI_FIELDS = tuple((name, kind) for name, kind
                    in get_type_hints(VoiRow).items() if name != "trace")
VOI_CSV_FIELDS = tuple(name for name, _ in _VOI_FIELDS
                       if name not in ("day_start", "day_end"))


@dataclass
class VoiReport:
    """Ordered collection of evaluated cells with stable serialization."""

    rows: List[VoiRow] = field(default_factory=list)

    @staticmethod
    def sort_key(row: VoiRow):
        return (row.trajectory_id, row.prior, row.kind, row.param)

    def sorted(self) -> "VoiReport":
        return VoiReport(rows=sorted(self.rows, key=self.sort_key))

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(VOI_CSV_FIELDS)
        writer.writerows([f"{r.param:g}" if name == "param"
                          else str(getattr(r, name))
                          for name in VOI_CSV_FIELDS] for r in self.rows)
        return out.getvalue()

    def to_jsonl(self) -> str:
        return "".join(json.dumps(r.to_dict(), sort_keys=True) + "\n"
                       for r in self.rows)

    @staticmethod
    def from_jsonl(text: str) -> "VoiReport":
        rows = []
        for line in text.splitlines():
            if not line.strip():
                continue
            d = json.loads(line)
            rows.append(VoiRow(
                **{name: kind(d[name]) for name, kind in _VOI_FIELDS},
                trace=tuple((t, g) for t, g in d["trace"])
                if "trace" in d else None))
        return VoiReport(rows=rows)


def _linear_residuals(times, values) -> np.ndarray:
    """``values`` less their ordinary least-squares line in ``times``
    (seconds). With a single point, or when all times coincide, the line is
    flat at the mean value."""
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.size == 0:
        raise ValueError("no fixes to fit a line through")
    tc = t - t.mean()
    denom = float(tc @ tc)
    if t.size < 2 or denom == 0.0:
        slope, intercept = 0.0, float(v.mean())
    else:
        slope = float(tc @ (v - v.mean())) / denom
        intercept = float(v.mean() - slope * t.mean())
    if not (math.isfinite(slope) and math.isfinite(intercept)):
        raise ValueError("least-squares line coefficients must be finite")
    return v - (intercept + slope * t)


def _release_training(omega: Trajectory) -> Training:
    """The length-scale training of a release that serves as a prior: its
    fixes about their own least-squares lines, since the GP's prior mean is
    zero."""
    training = point_training(omega)
    return training._replace(channels=[
        _linear_residuals(training.times, v) for v in training.channels])


def _train(cells: Sequence[tuple], gp_cfg: GpConfig) -> dict:
    """The length scales of many cells, each an (evidence, prior, ...)
    tuple, trained in one :func:`~trajvoi.gp.train_length_scales` call:
    each distinct released prior's, about its own least-squares lines, and
    each evidence's under the uninformative prior, about zero. Returns the
    length scale of each, keyed by released prior, or by the index of a
    cell under the uninformative prior."""
    priors = list(dict.fromkeys(cell[1] for cell in cells
                                if cell[1].kind == "released"))
    uninformed = [i for i, cell in enumerate(cells)
                  if cell[1].kind == "uninformative"]
    trainings = ([_release_training(prior.released) for prior in priors]
                 + [point_training(cells[i][0]) for i in uninformed])
    return dict(zip(priors + uninformed,
                    train_length_scales(trainings, gp_cfg)))


def _trajectory_runs(cells: Sequence[tuple]):
    """The indices of the cells, in runs of one trajectory's cells."""
    for _, run in groupby(range(len(cells)),
                          key=lambda i: cells[i][0].trajectory_id):
        yield list(run)


def score_cells(cells: Sequence[Tuple[Trajectory, PriorKnowledge, str,
                                      float]],
                gp_cfg: GpConfig = GpConfig(),
                integration: IntegrationConfig = IntegrationConfig(),
                keep_trace: bool = False):
    """Score many cells, each the evidence ``combine(z, prior)`` of a
    release Z, its prior, and the release's kind and parameter.

    A cell's gain needs only the variances of its two reconstructions,
    which depend on the fix times, the fix noise and the length scale,
    never on the coordinates. The length scales are trained in one
    :func:`_train` call, and a released prior's serves both tracks of each
    of its cells, so the gain isolates what the new data adds rather than
    what refitting does. Then, one trajectory's run of cells at a time,
    each distinct (times, noise, length scale) track is fit once, without
    coordinate channels, in one :func:`~trajvoi.gp.fit_tracks` call. For
    each day a cell covers, one union grid holds the uniform day grid and
    every evidence time of the trajectory, and each track's log variance
    is taken on it once; the uninformative prior's is a constant.
    A cell's own :func:`integration_grid` is a subset of the union grid,
    and its gain is integrated at those positions.

    A generator: per cell, in order, it yields its :class:`VoiRow`. A cell
    whose fit fails raises, ending the batch.
    """
    flat_var = float(gp_cfg.sigma_f) ** 2
    trained = _train(cells, gp_cfg)
    for run in _trajectory_runs(cells):
        # the (variance-only training, length scale) of each distinct track
        requests: dict = {}

        def track(fixes: Trajectory, l: float):
            key = (fixes.t.tobytes(), fixes.sigma.tobytes(), l)
            requests.setdefault(key, (Training(
                fixes.t, [], fixes.sigma, fixes.trajectory_id), l))
            return key

        # per cell: its length scale, prior track key (None for the
        # uninformative prior), posterior track key and evidence times
        plans = []
        for i in run:
            evidence, prior = cells[i][:2]
            if prior.kind == "uninformative":
                l = trained[i]
                plans.append((l, None, track(evidence, l), evidence.t))
                continue
            l = trained[prior]
            plans.append((l, track(prior.released, l), track(evidence, l),
                          np.concatenate([evidence.t, prior.released.t])))
        tracks = dict(zip(requests, fit_tracks(list(requests.values()),
                                               gp_cfg)))
        every_time = np.concatenate([tr.times for tr, _ in requests.values()])
        grids: dict = {}
        log_vars: dict = {}

        def log_var(day_start: float, key) -> np.ndarray:
            if (day_start, key) not in log_vars:
                grid = grids[day_start]
                log_vars[day_start, key] = np.log2(
                    np.full(grid.shape, flat_var) if key is None
                    else tracks[key].query(grid, means=False).var)
            return log_vars[day_start, key]

        for i, (l, prior_key, posterior_key, data_times) in zip(run, plans):
            evidence, prior, kind, param = cells[i]
            day_start = covering_day_start(float(data_times.min()),
                                           integration.day_seconds)
            if day_start not in grids:
                grids[day_start] = integration_grid(day_start, integration,
                                                    every_time)
            ts = integration_grid(day_start, integration, data_times)
            at = np.searchsorted(grids[day_start], ts)
            igs = (log_var(day_start, prior_key)[at]
                   - log_var(day_start, posterior_key)[at])
            yield VoiRow(trajectory_id=evidence.trajectory_id,
                         prior=prior.label, kind=kind, param=param,
                         ig_bit_seconds=float(np.trapezoid(igs, ts)),
                         length_scale_x=float(l), length_scale_y=float(l),
                         day_start=day_start,
                         day_end=day_start + integration.day_seconds,
                         trace=tuple(zip(ts.tolist(), igs.tolist()))
                         if keep_trace else None)
        # hold no track of this trajectory while fitting the next
        tracks = log_vars = None


def evaluate_voi(z: Trajectory, kind: str, param: float,
                 prior: PriorKnowledge, gp_cfg: GpConfig = GpConfig(),
                 integration: IntegrationConfig = IntegrationConfig(),
                 keep_trace: bool = False) -> VoiRow:
    """Score one release against one prior (one report row):
    :func:`score_cells` on a batch of one."""
    return next(score_cells([(combine(z, prior), prior, kind, param)],
                            gp_cfg, integration, keep_trace))


# --- degradation equivalence ------------------------------------------------

def curves_by_family(rows: Sequence[VoiRow], base_sigma: float
                     ) -> Dict[str, List[Tuple[float, float]]]:
    """Per-family (parameter, IG) curves from one trajectory's report rows,
    each sorted by parameter; duplicate parameters collapse to their median
    gain.

    The identity release joins every family: as ratio 1.0 for truncation
    and subsampling, and as the base measurement noise for perturbation.
    """
    acc: Dict[str, Dict[float, list]] = {
        "perturbation": {}, "truncation": {}, "subsampling": {}}
    for r in rows:
        if r.kind == "identity":
            targets = (("perturbation", base_sigma), ("truncation", 1.0),
                       ("subsampling", 1.0))
        elif r.kind in acc:
            targets = ((r.kind, r.param),)
        else:
            continue
        for kind, param in targets:
            acc[kind].setdefault(param, []).append(r.ig_bit_seconds)
    return {kind: [(p, float(np.median(v))) for p, v in sorted(d.items())]
            for kind, d in acc.items() if d}


def param_at_ig(curve: Sequence[Tuple[float, float]],
                target: float) -> Optional[float]:
    """Parameter whose median gain equals the target, by linear
    interpolation between adjacent parameters. None outside the curve's
    gain range. The first crossing in parameter order wins."""
    for (p0, g0), (p1, g1) in zip(curve, curve[1:]):
        lo, hi = min(g0, g1), max(g0, g1)
        if lo <= target <= hi:
            if g1 == g0:
                return p0
            return p0 + (target - g0) / (g1 - g0) * (p1 - p0)
    for p, g in curve:
        if g == target:
            return p
    return None


def match_equivalents(curve_a: Sequence[Tuple[float, float]],
                      curve_b: Sequence[Tuple[float, float]]) -> bool:
    """True when every point of curve A has a curve-B parameter of equal
    gain, meaning the two degradation families cover fully overlapping
    value ranges."""
    return all(param_at_ig(curve_b, g) is not None for _, g in curve_a)
