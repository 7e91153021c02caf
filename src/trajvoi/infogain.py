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
batch of cells once, for its variance alone, all in one smoother pass, and
reads each cell's integration grid off a union grid by position.
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
                 point_training, track_variances, train_length_scales)
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
    prior, posterior = track_variances([prior_track, posterior_track], times)
    return np.log2(prior) - np.log2(posterior)


def _day_grid(day_start: float, cfg: IntegrationConfig) -> np.ndarray:
    """The uniform grid over the day, ending at the day's end: a shorter
    last step where the step does not divide the day."""
    n = math.ceil(cfg.day_seconds / cfg.grid_step)
    return np.minimum(day_start + cfg.grid_step * np.arange(n + 1),
                      day_start + cfg.day_seconds)


def _in_day(times: np.ndarray, day_start: float,
            cfg: IntegrationConfig) -> np.ndarray:
    """The times in the day that join its grid, if measurement times do."""
    if not cfg.include_measurement_times:
        return times[:0]
    return times[(times >= day_start)
                 & (times <= day_start + cfg.day_seconds)]


def integration_grid(day_start: float, cfg: IntegrationConfig,
                     extra_times: Sequence[float] = ()) -> np.ndarray:
    """Uniform grid over the day, augmented with the measurement times.

    The grid ends at the day's end, a shorter last step where the step does
    not divide the day. Extra times outside the day, or all of them without
    measurement times, are dropped; duplicates collapse.
    """
    return np.unique(np.concatenate([_day_grid(day_start, cfg), _in_day(
        np.asarray(extra_times, dtype=float), day_start, cfg)]))


def _union_grid(day_start: float, cfg: IntegrationConfig, times):
    """The union grid ``integration_grid(day_start, cfg, times)`` and the
    positions on it that every cell's grid holds, the uniform grid's, as a
    mask."""
    union = integration_grid(day_start, cfg, times)
    marks = np.zeros(union.size, dtype=bool)
    marks[np.searchsorted(union, _day_grid(day_start, cfg))] = True
    return union, marks


def _grid_positions(union: np.ndarray, marks: np.ndarray, day_start: float,
                    cfg: IntegrationConfig, times: np.ndarray) -> np.ndarray:
    """The positions of ``integration_grid(day_start, cfg, times)`` on a
    union grid from :func:`_union_grid` whose times include ``times``."""
    marks = marks.copy()
    marks[np.searchsorted(union, _in_day(times, day_start, cfg))] = True
    return np.flatnonzero(marks)


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
    # a line whose sums overflow is refused below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
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


def _release_training(omega: Trajectory, cfg: GpConfig) -> Training:
    """The length-scale training of a release that serves as a prior: its
    fixes about their own least-squares lines, since the GP's prior mean is
    zero."""
    return Training.of(omega.t, [_linear_residuals(omega.t, v)
                                 for v in (omega.x, omega.y)],
                       omega.sigma, cfg, omega.trajectory_id)


def score_cells(cells: Sequence[Tuple[Trajectory, PriorKnowledge, str,
                                      float]],
                gp_cfg: GpConfig = GpConfig(),
                integration: IntegrationConfig = IntegrationConfig(),
                keep_trace: bool = False):
    """Score many cells, each the evidence ``combine(z, prior)`` of a
    release Z, its prior, and the release's kind and parameter.

    One planning pass builds each cell's training as a lone cell does:
    under a released prior, the prior's (its fixes about their
    least-squares lines); under the uninformative prior, the evidence's
    own. Each distinct training is built once, by
    :meth:`~trajvoi.gp.Training.of`, which is its check; a cell whose
    training fails to build gets that exception as its outcome. One
    :func:`~trajvoi.gp.train_length_scales` call trains them all. A
    released prior's length scale serves both tracks of its cells, so the
    gain isolates what the new data adds, not what refitting does. A
    cell's gain needs only the variances of its two reconstructions, which
    depend on the fix times, the fix noise and the length scale, never on
    the coordinates: each distinct (times, noise, length scale) track of
    the batch is built once, after the training, from the training
    already made for its fixes or else from its fixes alone, and fit
    without coordinate channels in one :func:`~trajvoi.gp.fit_tracks`
    call. A cell whose evidence track fails to build gets that exception
    as its outcome; a released cell meets its prior's error first.

    The gains are integrated one trajectory's run of cells at a time. For
    each day a cell covers, one union grid holds the uniform day grid and
    every evidence time of the run, and one
    :func:`~trajvoi.gp.track_variances` call takes the variance of each of
    the day's tracks on it; the uninformative prior's is a constant. A
    cell's own :func:`integration_grid` is a subset of the union grid,
    read off it by position, and its gain is integrated there.

    A generator: per cell, in order, it yields its :class:`VoiRow`, or the
    exception its inputs raise. A failure in a shared pass raises, ending
    the batch.
    """
    flat_var = float(gp_cfg.sigma_f) ** 2
    # each distinct training, or the exception building it raised: a
    # released prior's by value, the evidence's own by object; per cell,
    # its training's key, or that exception
    built: dict = {}
    plans: list = []
    for evidence, prior, *_ in cells:
        released = prior.kind == "released"
        key = prior if released else evidence
        if key not in built:
            try:
                built[key] = _release_training(prior.released, gp_cfg) \
                    if released else point_training(evidence, gp_cfg)
            except Exception as e:
                built[key] = e
        plans.append(built[key] if isinstance(built[key], Exception)
                     else key)
    trainings = {key: training for key, training in built.items()
                 if not isinstance(training, Exception)}
    scales = dict(zip(trainings, train_length_scales(
        list(trainings.values()), gp_cfg)))
    # each distinct track's (variance-only training, length scale), or the
    # exception building it raised; a track is made from ``made``, a
    # training of its fixes, where there is one, its empty channels a
    # fresh array, not a view that would keep the channel values alive
    requests: dict = {}

    def track(fixes: Trajectory, l: float, made: Optional[Training]):
        key = (fixes.t.tobytes(), fixes.sigma.tobytes(), l)
        if key not in requests:
            try:
                requests[key] = (Training.of(
                    fixes.t, [], fixes.sigma, gp_cfg, fixes.trajectory_id)
                    if made is None else made._replace(
                        resids=np.empty((0, fixes.t.size))), l)
            except Exception as e:
                requests[key] = e
        return key

    # a scored cell's plan becomes its length scale, prior track key (None
    # for the uninformative prior) and posterior track key
    for i, (evidence, prior, *_) in enumerate(cells):
        if not isinstance(plans[i], Exception):
            l = scales[plans[i]]
            prior_key = track(prior.released, l, trainings[prior]) \
                if prior.kind == "released" else None
            posterior_key = track(evidence, l, trainings.get(evidence))
            error = requests[posterior_key]
            plans[i] = error if isinstance(error, Exception) \
                else (l, prior_key, posterior_key)
    del built, trainings        # the channel values, before the fit
    fit = [key for key, request in requests.items()
           if not isinstance(request, Exception)]
    tracks = dict(zip(fit, fit_tracks([requests[key] for key in fit],
                                      gp_cfg)))
    for _, run in groupby(range(len(cells)),
                          key=lambda i: cells[i][0].trajectory_id):
        run = list(run)
        keys = dict.fromkeys(key for i in run if isinstance(plans[i], tuple)
                             for key in plans[i][1:] if key is not None)
        # each scored cell's evidence times and day, and the tracks of
        # each day's cells
        spans: dict = {}
        days: dict = {}
        for i in run:
            if isinstance(plans[i], tuple):
                evidence, prior = cells[i][:2]
                data_times = evidence.t if plans[i][1] is None \
                    else np.concatenate([evidence.t, prior.released.t])
                day_start = covering_day_start(float(data_times.min()),
                                               integration.day_seconds)
                spans[i] = data_times, day_start
                days.setdefault(day_start, {}).update(
                    (key, None) for key in plans[i][1:] if key is not None)
        # per day, the union grid and each track's log variance on it,
        # from one track_variances call; the uninformative prior's is a
        # constant
        grids: dict = {}
        for day_start, day_keys in days.items():
            union, marks = _union_grid(day_start, integration, (
                np.concatenate([requests[key][0].times for key in keys])))
            variances = track_variances([tracks[key] for key in day_keys],
                                        union)
            log_var = {key: np.log2(v, out=v)       # each v is its own array
                       for key, v in zip(day_keys, variances)}
            log_var[None] = np.log2(np.full(union.shape, flat_var))
            grids[day_start] = union, marks, log_var
        for i in run:
            if isinstance(plans[i], Exception):
                yield plans[i]
                continue
            evidence, prior, kind, param = cells[i]
            l, prior_key, posterior_key = plans[i]
            data_times, day_start = spans[i]
            union, marks, log_var = grids[day_start]
            at = _grid_positions(union, marks, day_start, integration,
                                 data_times)
            ts = union[at]
            igs = log_var[prior_key][at] - log_var[posterior_key][at]
            yield VoiRow(trajectory_id=evidence.trajectory_id,
                         prior=prior.label, kind=kind, param=param,
                         ig_bit_seconds=float(np.trapezoid(igs, ts)),
                         length_scale_x=float(l), length_scale_y=float(l),
                         day_start=day_start,
                         day_end=day_start + integration.day_seconds,
                         trace=tuple(zip(ts.tolist(), igs.tolist()))
                         if keep_trace else None)


def evaluate_voi(z: Trajectory, kind: str, param: float,
                 prior: PriorKnowledge, gp_cfg: GpConfig = GpConfig(),
                 integration: IntegrationConfig = IntegrationConfig(),
                 keep_trace: bool = False) -> VoiRow:
    """Score one release against one prior (one report row):
    :func:`score_cells` on a batch of one."""
    row = next(score_cells([(combine(z, prior), prior, kind, param)],
                           gp_cfg, integration, keep_trace))
    if isinstance(row, Exception):
        raise row
    return row


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
