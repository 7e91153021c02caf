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
degraded release of the same trajectory. :func:`evaluate_voi` is the one
path that fits both reconstructions and integrates the gain.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .degrade import DegradationSpec
from .gp import (GaussianTrack, GpConfig, MeanFunction, fit_linear_mean,
                 fit_track, fit_tracks, point_training, train_length_scales)
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
class ReleasedFit:
    """What an earlier release fixes for every gain measured against it:
    the mean trend of each coordinate, the trained length scale and the
    prior reconstruction, all under ``gp_cfg``."""

    mean_x: MeanFunction
    mean_y: MeanFunction
    length_scale: float
    track: GaussianTrack
    gp_cfg: GpConfig


@dataclass(frozen=True)
class PriorKnowledge:
    """What the recipient already knows before seeing Z.

    Either nothing beyond "somewhere in the study area" (``uninformative``:
    an N(0, sigma_f^2) location per coordinate at every time, with sigma_f
    from the GP config), or an earlier, more degraded release of the same
    trajectory (``released``, carrying the released data and the spec that
    produced it). A released prior may also carry its :class:`ReleasedFit`,
    so that the gains of many releases against it share one fit.
    """

    kind: str = "uninformative"
    released: Optional[Trajectory] = None
    released_spec: Optional[DegradationSpec] = None
    fit: Optional[ReleasedFit] = field(default=None, compare=False,
                                       repr=False)

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
    def from_release(released: Trajectory, spec: DegradationSpec,
                     gp_cfg: Optional[GpConfig] = None) -> "PriorKnowledge":
        """A released prior; with ``gp_cfg`` its fit is made now, once,
        instead of in every evaluation against it."""
        prior = PriorKnowledge(kind="released", released=released,
                               released_spec=spec)
        if gp_cfg is None:
            return prior
        (fitted,) = fit_cells([(None, prior)], gp_cfg)
        if isinstance(fitted, Exception):
            raise fitted
        return fitted[0]


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
        if not 0 < self.grid_step <= self.day_seconds:
            raise ValueError("grid_step must be in (0, day_seconds]")


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

    Extra times outside the day are dropped; duplicates collapse.
    """
    n = int(round(cfg.day_seconds / cfg.grid_step))
    grid = day_start + cfg.grid_step * np.arange(n + 1)
    if not cfg.include_measurement_times:
        return grid
    extra = np.asarray(extra_times, dtype=float)
    extra = extra[(extra >= day_start) & (extra <= day_start + cfg.day_seconds)]
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
        d = {
            "trajectory_id": self.trajectory_id,
            "prior": self.prior,
            "kind": self.kind,
            "param": self.param,
            "ig_bit_seconds": self.ig_bit_seconds,
            "ig_bit_hours": self.ig_bit_hours,
            "length_scale_x": self.length_scale_x,
            "length_scale_y": self.length_scale_y,
            "day_start": self.day_start,
            "day_end": self.day_end,
        }
        if self.trace is not None:
            d["trace"] = [[t, g] for t, g in self.trace]
        return d


VOI_CSV_FIELDS = ("trajectory_id", "prior", "kind", "param",
                  "ig_bit_seconds", "length_scale_x", "length_scale_y")


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
        lines = [",".join(VOI_CSV_FIELDS)]
        for r in self.rows:
            lines.append(",".join([
                r.trajectory_id, r.prior, r.kind, f"{r.param:g}",
                str(r.ig_bit_seconds), str(r.length_scale_x),
                str(r.length_scale_y),
            ]))
        return "\n".join(lines) + "\n"

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
                trajectory_id=d["trajectory_id"], prior=d["prior"],
                kind=d["kind"], param=float(d["param"]),
                ig_bit_seconds=float(d["ig_bit_seconds"]),
                length_scale_x=float(d["length_scale_x"]),
                length_scale_y=float(d["length_scale_y"]),
                day_start=float(d.get("day_start", 0.0)),
                day_end=float(d.get("day_end", DAY_SECONDS)),
                trace=tuple((t, g) for t, g in d["trace"])
                if "trace" in d else None))
        return VoiReport(rows=rows)


def _attempt(make):
    """``make()``, or the exception it raised."""
    try:
        return make()
    except Exception as e:
        return e


def _release_training(omega: Trajectory, cfg: GpConfig):
    """The length-scale training of a release that serves as a prior: its
    fixes about their own least-squares mean lines."""
    training = point_training(omega, (), cfg.sigma_f)
    return training._replace(mean_fns=[fit_linear_mean(training.times, v)
                                       for v in training.channels])


def _trajectory_runs(cells):
    """Runs of consecutive cell indices whose cells come from one
    trajectory (the release's, or the prior's without a release)."""
    runs, last = [], None
    for i, (z, prior) in enumerate(cells):
        source = z if z is not None else prior.released
        tid = None if source is None else source.trajectory_id
        if not runs or tid != last:
            runs.append([])
        runs[-1].append(i)
        last = tid
    return runs


def fit_cells(cells: Sequence[Tuple[Optional[Trajectory], PriorKnowledge]],
              gp_cfg: GpConfig):
    """The reconstructions behind many cells, each a release Z (or None)
    and a prior, fit together.

    A released prior learns its mean lines and length scale from the
    earlier release (a :class:`ReleasedFit`), once per distinct prior
    object that does not carry its fit yet. The trainings of those priors
    and of every release under the uninformative prior go to one
    :func:`~trajvoi.gp.train_length_scales` call. The tracks then go to
    one :func:`~trajvoi.gp.fit_tracks` call per trajectory, so that only
    one trajectory's tracks are held at a time while the caller uses them.

    A generator: per cell, in order, it yields (the prior, carrying its
    fit; the posterior track, or None without a release), or the exception
    that stopped the cell: its prior's before its own.
    """
    unfit = list({id(prior): prior for _, prior in cells
                  if prior.kind == "released" and prior.fit is None}.values())
    uninformed = [i for i, (z, prior) in enumerate(cells)
                  if z is not None and prior.kind == "uninformative"]
    trainings = ([_attempt(lambda: _release_training(prior.released, gp_cfg))
                  for prior in unfit]
                 + [point_training(cells[i][0], [MeanFunction()] * 2,
                                   gp_cfg.sigma_f)
                    for i in uninformed])
    scales = list(trainings)
    valid = [k for k, t in enumerate(trainings)
             if not isinstance(t, Exception)]
    for k, l in zip(valid, train_length_scales(
            [trainings[k] for k in valid], gp_cfg.length_scale_bounds,
            gp_cfg.grid_size)):
        scales[k] = l
    prior_trained = {id(prior): (training, l)
                     for prior, training, l in zip(unfit, trainings, scales)}
    cell_trained = dict(zip(uninformed, zip(trainings[len(unfit):],
                                            scales[len(unfit):])))

    for run in _trajectory_runs(cells):
        # each slot holds a track request's index, or the exception that
        # stopped it
        requests, prior_slots, cell_slots = [], {}, {}

        def request(training, l):
            if isinstance(l, Exception):
                return l
            requests.append((training, l))
            return len(requests) - 1

        for i in run:
            z, prior = cells[i]
            if prior.kind == "released" and prior.fit is None \
                    and id(prior) not in prior_slots:
                prior_slots[id(prior)] = (prior, request(
                    *prior_trained[id(prior)]))
            if z is None:
                continue
            if prior.kind == "uninformative":
                cell_slots[i] = request(*cell_trained[i])
                continue
            if prior.fit is None:
                training, l = prior_trained[id(prior)]
                if isinstance(l, Exception):
                    continue                  # the cell fails with its prior
                mean_fns = training.mean_fns
            else:
                mean_fns = (prior.fit.mean_x, prior.fit.mean_y)
                l = prior.fit.length_scale
            evidence = _attempt(lambda: point_training(
                combine(z, prior), mean_fns, gp_cfg.sigma_f))
            cell_slots[i] = request(evidence, evidence if isinstance(
                evidence, Exception) else l)
        tracks = fit_tracks(requests, gp_cfg)

        def track(slot):
            return tracks[slot] if isinstance(slot, int) else slot

        fitted_priors = {}
        for key, (prior, slot) in prior_slots.items():
            training, l = prior_trained[key]
            fit = track(slot)
            fitted_priors[key] = fit if isinstance(fit, Exception) else \
                replace(prior, fit=ReleasedFit(*training.mean_fns, l, fit,
                                               gp_cfg))
        for i in run:
            z, prior = cells[i]
            if prior.kind == "released":
                if prior.fit is None:
                    prior = fitted_priors[id(prior)]
                elif prior.fit.gp_cfg != gp_cfg:
                    prior = ValueError(
                        "the prior was fit under another GP config")
                if isinstance(prior, Exception):
                    yield prior
                    continue
            post = track(cell_slots.pop(i, None))
            yield post if isinstance(post, Exception) else (prior, post)
        # hold no track of this trajectory while fitting the next
        tracks = fitted_priors = fit = post = None


def reconstruction_tracks(z: Trajectory, prior: PriorKnowledge,
                          gp_cfg: GpConfig = GpConfig(),
                          posterior: Optional[GaussianTrack] = None
                          ) -> Tuple[GaussianTrack, GaussianTrack, List[float]]:
    """Prior and posterior reconstructions plus the evidence timestamps.

    With an uninformative prior the baseline is a constant-variance track
    and the reconstruction is fit to Z alone (zero mean, length scale
    trained on Z). With a released prior, the mean trend and length scale
    come from the earlier release and are shared by both tracks, so the
    gain isolates what the new data adds rather than what refitting does.
    That fit is the prior's own when it carries one, else it is made here.
    A ``posterior`` already fit by :func:`fit_cells`, given with the prior
    it returned, is used as it is.
    """
    if posterior is None:
        (fitted,) = fit_cells([(z, prior)], gp_cfg)
        if isinstance(fitted, Exception):
            raise fitted
        prior, posterior = fitted
    if prior.kind == "uninformative":
        return fit_track(None, gp_cfg), posterior, z.t.tolist()
    # the posterior's fixes are the evidence, combine(z, prior)
    data_times = sorted(set(posterior.gp.times.tolist())
                        | set(prior.released.t.tolist()))
    return prior.fit.track, posterior, data_times


def evaluate_voi(z: Trajectory, kind: str, param: float,
                 prior: PriorKnowledge, gp_cfg: GpConfig = GpConfig(),
                 integration: IntegrationConfig = IntegrationConfig(),
                 keep_trace: bool = False,
                 posterior: Optional[GaussianTrack] = None) -> VoiRow:
    """Score one release against one prior (one report row); see
    :func:`reconstruction_tracks` for ``posterior``."""
    prior_track, posterior_track, data_times = reconstruction_tracks(
        z, prior, gp_cfg, posterior)
    day_start = covering_day_start(min(data_times),
                                   integration.day_seconds)
    ts = integration_grid(day_start, integration, data_times)
    igs = ig_at(prior_track, posterior_track, ts)
    ig = float(np.trapezoid(igs, ts))
    return VoiRow(trajectory_id=z.trajectory_id, prior=prior.label,
                  kind=kind, param=param, ig_bit_seconds=ig,
                  length_scale_x=posterior_track.gp.length_scale,
                  length_scale_y=posterior_track.gp.length_scale,
                  day_start=day_start,
                  day_end=day_start + integration.day_seconds,
                  trace=tuple(zip(ts.tolist(), igs.tolist()))
                  if keep_trace else None)


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
