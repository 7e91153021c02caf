"""Continuous-time probabilistic track reconstruction.

Each spatial coordinate gets an independent scalar Gaussian process over
time with covariance

    k(t, t') = sigma_f^2 (1 + sqrt(3) d / l) exp(-sqrt(3) d / l) + [t == t'] sigma_m^2

where d = |t - t'| in hours and l is the length scale in hours. sigma_f is
the prior standard deviation (how uncertain the location is far from any
data) and the white term carries each training point's own measurement
noise. The mean function is an affine trend in time.

Exact inference via Cholesky factorization of the training covariance, with
a small escalating diagonal jitter for conditioning. Both coordinates share
the fix times, the per-fix noise and the length scale, so they share the
training covariance: one factorization per track serves both, and since the
posterior variance never looks at the coordinate values, both coordinates
share one variance too. Only the means differ. Predictions are for the
latent location, so the white-noise term is excluded at query time: reported
variance is uncertainty about where the owner was, not about a hypothetical
noisy re-measurement.

Public times are epoch seconds; only the kernel converts to hours.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular

SECONDS_PER_HOUR = 3600.0
SQRT3 = math.sqrt(3.0)

# Diagonal jitter added to the training covariance, relative to sigma_f^2.
BASE_JITTER_REL = 1e-10
MAX_JITTER_REL = 1e-4

DEFAULT_LENGTH_SCALE_BOUNDS = (0.01, 10.0)  # hours


class GpNumericalError(RuntimeError):
    """Cholesky factorization failed even at maximum jitter."""

    def __init__(self, message: str, trajectory_id: str = ""):
        super().__init__(message)
        self.trajectory_id = trajectory_id


@dataclass(frozen=True)
class GpConfig:
    """Kernel amplitude and length-scale training settings."""

    sigma_f: float = 7500.0
    length_scale_bounds: Tuple[float, float] = DEFAULT_LENGTH_SCALE_BOUNDS
    grid_size: int = 32                          # log-spaced scan resolution

    def __post_init__(self):
        if not self.sigma_f > 0:
            raise ValueError("sigma_f must be > 0")
        lo, hi = self.length_scale_bounds
        if not (0 < lo < hi):
            raise ValueError("length_scale_bounds must satisfy 0 < lo < hi")
        if self.grid_size < 2:
            raise ValueError("grid_size must be >= 2")


@dataclass(frozen=True)
class MeanFunction:
    """Affine trend m(t) = intercept + slope * t, t in seconds."""

    slope: float = 0.0       # meters per second
    intercept: float = 0.0   # meters

    def __post_init__(self):
        if not (math.isfinite(self.slope) and math.isfinite(self.intercept)):
            raise ValueError("MeanFunction coefficients must be finite")

    def __call__(self, t):
        return self.intercept + self.slope * np.asarray(t, dtype=float)


def fit_linear_mean(times, values) -> MeanFunction:
    """Ordinary least squares line through (t, value) data.

    With a single point, or when all times coincide, the slope is zero and
    the intercept is the mean value.
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.size == 0:
        raise ValueError("fit_linear_mean: empty data")
    tc = t - t.mean()
    denom = float(tc @ tc)
    if t.size < 2 or denom == 0.0:
        return MeanFunction(slope=0.0, intercept=float(v.mean()))
    slope = float(tc @ (v - v.mean())) / denom
    intercept = float(v.mean() - slope * t.mean())
    return MeanFunction(slope=slope, intercept=intercept)


def matern32(t1, t2, sigma_f: float, length_scale: float):
    """Matern 3/2 covariance between times given in hours."""
    d = np.abs(np.asarray(t1, dtype=float) - np.asarray(t2, dtype=float))
    r = (SQRT3 / length_scale) * d
    return sigma_f ** 2 * (1.0 + r) * np.exp(-r)


def _train_matrix(times_h: np.ndarray, sigmas: np.ndarray,
                  sigma_f: float, length_scale: float,
                  jitter_rel: float) -> np.ndarray:
    K = matern32(times_h[:, None], times_h[None, :], sigma_f, length_scale)
    K[np.diag_indices_from(K)] += sigmas ** 2 + jitter_rel * sigma_f ** 2
    return K


def _cholesky_with_jitter(times_h, sigmas, sigma_f, length_scale,
                          trajectory_id=""):
    jitter = BASE_JITTER_REL
    while True:
        K = _train_matrix(times_h, sigmas, sigma_f, length_scale, jitter)
        try:
            return cho_factor(K, lower=True), jitter
        except np.linalg.LinAlgError:
            jitter *= 10.0
            if jitter > MAX_JITTER_REL:
                raise GpNumericalError(
                    f"Cholesky failed at maximum jitter for trajectory "
                    f"{trajectory_id!r} (n={len(times_h)}, l={length_scale})",
                    trajectory_id=trajectory_id,
                )


class CoordinateGP:
    """Exact GP posterior for the coordinate channels of one track.

    The channels share timestamps and per-point noise, so one Cholesky
    factorization serves all of them; each channel keeps its own mean
    function and its own weights ``alpha``.
    """

    def __init__(self, times, channels, sigmas, mean_fns: Sequence[MeanFunction],
                 sigma_f: float, length_scale: float, trajectory_id: str = ""):
        self.mean_fns = tuple(mean_fns)
        self.sigma_f = float(sigma_f)
        self.length_scale = float(length_scale)
        self._times_s = np.asarray(times, dtype=float)
        self._times_h = self._times_s / SECONDS_PER_HOUR
        self.n_train = self._times_s.size
        if self.n_train:
            (chol, _), self.jitter_rel = _cholesky_with_jitter(
                self._times_h, np.asarray(sigmas, dtype=float), sigma_f,
                length_scale, trajectory_id)
            self._chol = chol
            # one solve per channel, as in log_marginal_likelihood
            self._alphas = [
                cho_solve((chol, True),
                          np.asarray(values, dtype=float) - m(self._times_s))
                for values, m in zip(channels, self.mean_fns)]
        else:
            self._chol = None
            self._alphas = None
            self.jitter_rel = 0.0

    def predict(self, times) -> Tuple[List[np.ndarray], np.ndarray]:
        """Posterior mean of each channel and the variance they share, at
        each time, for the latent coordinates."""
        q = np.atleast_1d(np.asarray(times, dtype=float))
        if self.n_train == 0:
            return ([m(q) for m in self.mean_fns],
                    np.full(q.shape, self.sigma_f ** 2))
        k_star = matern32(q[:, None] / SECONDS_PER_HOUR, self._times_h[None, :],
                          self.sigma_f, self.length_scale)
        means = [m(q) + k_star @ alpha
                 for m, alpha in zip(self.mean_fns, self._alphas)]
        v = solve_triangular(self._chol, k_star.T, lower=True)
        var = self.sigma_f ** 2 - np.einsum("ij,ij->j", v, v)
        # guard against cancellation rounding; the latent variance is positive
        np.maximum(var, 1e-12 * self.sigma_f ** 2, out=var)
        return means, var


def log_marginal_likelihood(times, channels, sigmas, mean_fns,
                            sigma_f: float, length_scale: float,
                            trajectory_id: str = "") -> float:
    """Summed log evidence of one or more coordinate channels.

    Channels share timestamps and per-point noise, so a single Cholesky
    factorization serves every channel.
    """
    t = np.asarray(times, dtype=float)
    n = t.size
    if n == 0:
        return 0.0
    (chol, _), _ = _cholesky_with_jitter(t / SECONDS_PER_HOUR,
                                         np.asarray(sigmas, dtype=float),
                                         sigma_f, length_scale, trajectory_id)
    log_det_half = float(np.sum(np.log(np.diag(chol))))
    total = 0.0
    for values, mean_fn in zip(channels, mean_fns):
        resid = np.asarray(values, dtype=float) - mean_fn(t)
        alpha = cho_solve((chol, True), resid)
        total += (-0.5 * float(resid @ alpha)
                  - log_det_half
                  - 0.5 * n * math.log(2.0 * math.pi))
    return total


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def train_length_scale(times, channels, sigmas, mean_fns, sigma_f: float,
                       bounds: Tuple[float, float] = DEFAULT_LENGTH_SCALE_BOUNDS,
                       grid_size: int = 32, rel_tol: float = 1e-3,
                       trajectory_id: str = "") -> float:
    """Pick the length scale maximizing the summed log evidence.

    A log-spaced grid scan over the bounds finds the best cell, then golden
    section search refines within the neighboring cells to a relative width
    of ``rel_tol``. The returned value never scores below any grid point.
    With fewer than two training points the geometric middle of the bounds
    is returned (the evidence carries no length-scale information there).
    """
    lo, hi = bounds
    t = np.asarray(times, dtype=float)
    if t.size < 2:
        return math.sqrt(lo * hi)

    def objective(l: float) -> float:
        return log_marginal_likelihood(t, channels, sigmas, mean_fns,
                                       sigma_f, l, trajectory_id)

    grid = np.exp(np.linspace(math.log(lo), math.log(hi), grid_size))
    evaluated: list[Tuple[float, float]] = []
    failures = 0
    for l in grid:
        try:
            evaluated.append((objective(float(l)), float(l)))
        except GpNumericalError:
            failures += 1
    if not evaluated:
        raise GpNumericalError(
            f"all {failures} length-scale candidates failed for trajectory "
            f"{trajectory_id!r}", trajectory_id=trajectory_id)

    best_l = max(evaluated, key=lambda p: p[0])[1]
    idx = int(np.argmin(np.abs(grid - best_l)))
    a = math.log(grid[max(idx - 1, 0)])
    b = math.log(grid[min(idx + 1, grid_size - 1)])

    # golden section on log length scale, tracking the best seen anywhere
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc = fd = None
    while (b - a) > rel_tol:
        if fc is None:
            try:
                fc = objective(math.exp(c))
                evaluated.append((fc, math.exp(c)))
            except GpNumericalError:
                fc = -math.inf
        if fd is None:
            try:
                fd = objective(math.exp(d))
                evaluated.append((fd, math.exp(d)))
            except GpNumericalError:
                fd = -math.inf
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = None
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = None

    best_l = max(evaluated, key=lambda p: p[0])[1]
    return min(max(best_l, lo), hi)


class TrackQuery(NamedTuple):
    mean_x: np.ndarray
    mean_y: np.ndarray
    var: np.ndarray          # shared by both coordinates


@dataclass(frozen=True)
class GaussianTrack:
    """Continuous-time reconstruction: independent Gaussians per coordinate,
    with one shared variance."""

    gp: CoordinateGP

    def query(self, times) -> TrackQuery:
        (mx, my), var = self.gp.predict(times)
        return TrackQuery(mx, my, var)


def fit_track(points, cfg: GpConfig,
              mean_x: Optional[MeanFunction] = None,
              mean_y: Optional[MeanFunction] = None,
              length_scale: Optional[float] = None,
              trajectory_id: str = "") -> GaussianTrack:
    """Fit the GP of both coordinates on a shared measurement list.

    ``points`` may be empty, in which case the track is the pure prior:
    mean function everywhere and variance sigma_f^2. When ``length_scale``
    is not given it is trained jointly on both coordinates (one shared
    value, summed evidence).
    """
    mean_fns = [mean_x or MeanFunction(), mean_y or MeanFunction()]
    points = list(points)
    times = np.array([p.t for p in points], dtype=float)
    channels = [np.array([p.x for p in points], dtype=float),
                np.array([p.y for p in points], dtype=float)]
    sigmas = np.array([p.sigma for p in points], dtype=float)

    if length_scale is None:
        length_scale = train_length_scale(
            times, channels, sigmas, mean_fns, cfg.sigma_f,
            bounds=cfg.length_scale_bounds, grid_size=cfg.grid_size,
            trajectory_id=trajectory_id)
    return GaussianTrack(CoordinateGP(times, channels, sigmas, mean_fns,
                                      cfg.sigma_f, length_scale, trajectory_id))
