"""Continuous-time probabilistic track reconstruction.

Each spatial coordinate gets an independent scalar Gaussian process over
time with covariance

    k(t, t') = sigma_f^2 (1 + sqrt(3) d / l) exp(-sqrt(3) d / l) + [t == t'] sigma_m^2

where d = |t - t'| in hours and l is the length scale in hours. sigma_f is
the prior standard deviation (how uncertain the location is far from any
data) and the white term carries each training point's own measurement
noise, plus a fixed floor of 1e-10 sigma_f^2. The mean function is an
affine trend in time.

Matern 3/2 is exactly the stationary solution of a linear SDE in the state
(position, velocity) (Hartikainen & Sarkka 2010), so inference is exact in
O(n) over the n fixes: a Kalman filter forward over the fixes gives the log
evidence, and a Rauch-Tung-Striebel (RTS) smoother back over them gives the
posterior at every fix. A query time then takes one RTS step from the fixes
on either side of it. Fixes may share a timestamp (a step of zero length);
the noise floor keeps the innovation variance positive even when their
noise is zero.

Both coordinates share the fix times, the per-fix noise and the length
scale, so they share the covariance recursion: one filter and smoother
pass per track serves both, and since the posterior variance never looks
at the coordinate values, both coordinates share one variance too. Only the
means differ. Predictions are for the latent location, so the white-noise
term is excluded at query time: reported variance is uncertainty about
where the owner was, not about a hypothetical noisy re-measurement.

Public times are epoch seconds; only the state-space model works in hours.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

SECONDS_PER_HOUR = 3600.0
SQRT3 = math.sqrt(3.0)

# Floor on every fix's noise variance, relative to sigma_f^2.
NOISE_FLOOR_REL = 1e-10

DEFAULT_LENGTH_SCALE_BOUNDS = (0.01, 10.0)  # hours


class GpNumericalError(RuntimeError):
    """The fixes of a track give no usable noise variance (non-finite)."""

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


# --- state-space form ---------------------------------------------------------
#
# The state is (position f, velocity f'), with time in hours. Over a gap dt,
# with lam = sqrt(3) / l and u = lam dt, it moves by
#
#     A(dt) = exp(-u) [[1 + u, dt], [-lam u, 1 - u]]
#
# and gains process noise Q(dt) = P_inf - A P_inf A^T, where the stationary
# covariance is P_inf = sigma_f^2 diag(1, lam^2). A symmetric 2x2 matrix is
# an (00, 01, 11) triple, A is (00, 01, 10, 11) and a channel's mean is
# (f, f'). The helpers below take plain floats, or numpy arrays of any
# broadcastable shapes, which they treat elementwise.

# Q00 / (sigma_f^2 u^3) = 4 sum_k (-2u)^k / (k! (k + 3)), highest power
# first; twelve terms reach double precision for u below _SERIES_BELOW.
_Q00_SERIES = [4.0 * (-2.0) ** k / (math.factorial(k) * (k + 3))
               for k in range(11, -1, -1)]
_SERIES_BELOW = 0.1


def _transition(dt, lam, var):
    """A(dt) and Q(dt) for gaps ``dt`` in hours, prior variance ``var``.

    Q is in closed form. Its position entry, 1 - e^-2u (1 + 2u + 2u^2),
    cancels to O(u^3) at small u and is summed from its series there. On a
    long gap exp(-u) underflows to 0, which leaves A = 0 and Q = P_inf.
    """
    u = dt * lam
    e = np.exp(-u)
    e2 = e * e
    s = np.minimum(u, _SERIES_BELOW)
    series = 0.0
    for c in _Q00_SERIES:
        series = series * s + c
    q00 = np.where(u < _SERIES_BELOW, series * s ** 3,
                   -np.expm1(-2.0 * u) - 2.0 * u * (1.0 + u) * e2)
    A = (e * (1.0 + u), e * dt, -lam * u * e, e * (1.0 - u))
    Q = (var * q00, var * lam * 2.0 * u * u * e2,
         var * lam * lam * (2.0 * u * (1.0 - u) * e2 - np.expm1(-2.0 * u)))
    return A, Q


def _apply(A, m):
    """A m for a mean m = (f, f')."""
    return A[0] * m[0] + A[1] * m[1], A[2] * m[0] + A[3] * m[1]


def _propagate(P, A, Q):
    """A P A^T + Q, and the product A P as (00, 01, 10, 11)."""
    p00, p01, p11 = P
    a00, a01, a10, a11 = A
    t00 = a00 * p00 + a01 * p01
    t01 = a00 * p01 + a01 * p11
    t10 = a10 * p00 + a11 * p01
    t11 = a10 * p01 + a11 * p11
    return ((t00 * a00 + t01 * a01 + Q[0],
             t00 * a10 + t01 * a11 + Q[1],
             t10 * a10 + t11 * a11 + Q[2]),
            (t00, t01, t10, t11))


def _rts_step(means, P, A, Q, next_means, next_P):
    """Condition a state (per-channel means, shared covariance P) on the
    smoothed state one transition (A, Q) later: with Pn = A P A^T + Q and
    G = P A^T Pn^-1, the result is m + G (m_next - A m) and
    P + G (P_next - Pn) G^T."""
    # A P read transposed is P A^T
    (n00, n01, n11), (c00, c10, c01, c11) = _propagate(P, A, Q)
    det = n00 * n11 - n01 * n01
    g00 = (c00 * n11 - c01 * n01) / det
    g01 = (c01 * n00 - c00 * n01) / det
    g10 = (c10 * n11 - c11 * n01) / det
    g11 = (c11 * n00 - c10 * n01) / det
    d00, d01, d11 = next_P[0] - n00, next_P[1] - n01, next_P[2] - n11
    h00, h01 = g00 * d00 + g01 * d01, g00 * d01 + g01 * d11      # G D
    h10, h11 = g10 * d00 + g11 * d01, g10 * d01 + g11 * d11
    smoothed_P = (P[0] + h00 * g00 + h01 * g01,
                  P[1] + h00 * g10 + h01 * g11,
                  P[2] + h10 * g10 + h11 * g11)
    smoothed_means = []
    for m, m_next in zip(means, next_means):
        pf, pd = _apply(A, m)
        rf, rd = m_next[0] - pf, m_next[1] - pd
        smoothed_means.append((m[0] + g00 * rf + g01 * rd,
                               m[1] + g10 * rf + g11 * rd))
    return smoothed_means, smoothed_P


def _track_inputs(times, channels, sigmas, mean_fns, sigma_f, trajectory_id):
    """Gaps in hours before each fix (0 before the first), each fix's noise
    variance with the floor, and each channel's residuals from its mean."""
    t = np.asarray(times, dtype=float)
    dt = np.diff(t, prepend=t[:1]) / SECONDS_PER_HOUR
    if np.any(dt < 0):
        raise ValueError(f"fix times of trajectory {trajectory_id!r} must be "
                         f"non-decreasing")
    noise = (np.asarray(sigmas, dtype=float) ** 2
             + NOISE_FLOOR_REL * sigma_f ** 2)
    if not np.all(np.isfinite(noise)):
        raise GpNumericalError(
            f"non-finite measurement noise for trajectory {trajectory_id!r}",
            trajectory_id=trajectory_id)
    resids = [np.asarray(v, dtype=float) - m(t)
              for v, m in zip(channels, mean_fns)]
    return dt, noise, resids


class _FilterPass(NamedTuple):
    lml: object        # summed log evidence: a float, or one per lane
    A: list            # per entry, the transition into each fix
    Q: list            # per entry, the process noise into each fix
    covs: list         # filtered covariance at each fix
    means: list        # per channel, the filtered mean at each fix


def _kalman_filter(dt, noise, resids, lam, var) -> _FilterPass:
    """Kalman filter over the fixes, starting from the stationary prior.

    The covariance recursion never looks at the data, so it runs once for
    all channels; each channel's means then follow from its gains. ``lam``
    is a float, or an array of lanes (one per length scale) with ``dt``
    shaped (n, 1) so that every step advances all lanes at once. The loops
    are the hot path, so _propagate and _apply are written out in them.
    """
    A, Q = _transition(dt, lam, var)
    if np.ndim(lam) == 0:
        # plain floats step far faster than 0-d arrays
        A, Q = [a.tolist() for a in A], [q.tolist() for q in Q]
    p00, p01, p11 = var, 0.0, var * lam * lam
    S, K0, K1, covs = [], [], [], []
    for a00, a01, a10, a11, q00, q01, q11, r in zip(*A, *Q, noise.tolist()):
        t00 = a00 * p00 + a01 * p01
        t01 = a00 * p01 + a01 * p11
        t10 = a10 * p00 + a11 * p01
        t11 = a10 * p01 + a11 * p11
        p00 = t00 * a00 + t01 * a01 + q00
        p01 = t00 * a10 + t01 * a11 + q01
        p11 = t10 * a10 + t11 * a11 + q11
        s = p00 + r
        k0, k1 = p00 / s, p01 / s
        p00, p01, p11 = k0 * r, p01 * (r / s), p11 - k1 * p01
        S.append(s)
        K0.append(k0)
        K1.append(k1)
        covs.append((p00, p01, p11))
    V, means = [], []
    for y in resids:
        f = d = 0.0
        vs, fds = [], []
        for a00, a01, a10, a11, k0, k1, yk in zip(*A, K0, K1, y.tolist()):
            f, d = a00 * f + a01 * d, a10 * f + a11 * d
            v = yk - f
            f, d = f + k0 * v, d + k1 * v
            vs.append(v)
            fds.append((f, d))
        V.append(vs)
        means.append(fds)
    # fixes last and contiguous, so lanes and a single scale sum alike
    S = np.moveaxis(np.array(S), 0, -1).copy()
    V = np.moveaxis(np.array(V), 1, -1).copy()
    lml = -0.5 * (len(resids) * np.log(2.0 * math.pi * S).sum(axis=-1)
                  + (V * V / S).sum(axis=-1).sum(axis=0))
    return _FilterPass(lml, A, Q, covs, means)


def _rts_smoother(run: _FilterPass):
    """The filtered and the smoothed (per-channel means, covariance) at each
    fix, from a filter pass."""
    filtered = list(zip(zip(*run.means), run.covs))
    steps = list(zip(zip(*run.A), zip(*run.Q)))
    state = filtered[-1]
    smoothed = [state]
    for k in range(len(steps) - 2, -1, -1):
        state = _rts_step(*filtered[k], *steps[k + 1], *state)
        smoothed.append(state)
    smoothed.reverse()
    return filtered, smoothed


def _stack(states):
    """(per-channel means, covariance) states as arrays along the list:
    means shaped (states, channels, 2) and covariances (states, 3)."""
    means, covs = zip(*states)
    return np.array(means, dtype=float), np.array(covs, dtype=float)


def _unstack(stacked, idx):
    """The states at ``idx`` in the helpers' tuple form, over the queries."""
    means, covs = stacked
    return ([tuple(m) for m in means[idx].transpose(1, 2, 0)],
            tuple(covs[idx].T))


class CoordinateGP:
    """Exact GP posterior for the coordinate channels of one track.

    The channels share timestamps and per-point noise, so one filter and
    smoother pass serves all of them; each channel keeps its own mean
    function and its own state means.
    """

    def __init__(self, times, channels, sigmas, mean_fns: Sequence[MeanFunction],
                 sigma_f: float, length_scale: float, trajectory_id: str = ""):
        self.mean_fns = tuple(mean_fns)
        self.sigma_f = float(sigma_f)
        self.length_scale = float(length_scale)
        self._times_s = np.asarray(times, dtype=float)
        self.n_train = self._times_s.size
        self._lam = SQRT3 / self.length_scale
        if not self.n_train:
            return
        var = self.sigma_f ** 2
        run = _kalman_filter(
            *_track_inputs(self._times_s, channels, sigmas, self.mean_fns,
                           self.sigma_f, trajectory_id), self._lam, var)
        prior = ([(0.0, 0.0)] * len(self.mean_fns),
                 (var, 0.0, var * self._lam ** 2))
        # Indexed by the number of fixes at or before a query time: on the
        # left the filtered state at the last such fix (the stationary prior
        # before the first), on the right the smoothed state at the next fix
        # (a placeholder past the last).
        filtered, smoothed = _rts_smoother(run)
        self._left = _stack([prior] + filtered)
        self._right = _stack(smoothed + [prior])

    def predict(self, times) -> Tuple[List[np.ndarray], np.ndarray]:
        """Posterior mean of each channel and the variance they share, at
        each time, for the latent coordinates."""
        q = np.atleast_1d(np.asarray(times, dtype=float))
        if self.n_train == 0:
            return ([m(q) for m in self.mean_fns],
                    np.full(q.shape, self.sigma_f ** 2))
        t, n, var = self._times_s, self.n_train, self.sigma_f ** 2
        idx = np.searchsorted(t, q, side="right")
        # Before the first fix the left state is the stationary prior, which
        # any gap leaves as it is. Past the last fix the right gap is so long
        # (lam gap = 1000) that the RTS gain is exactly 0.
        gap_left = np.maximum(q - t[np.maximum(idx - 1, 0)], 0.0)
        gap_right = np.where(idx < n, t[np.minimum(idx, n - 1)] - q,
                             1e3 / self._lam * SECONDS_PER_HOUR)
        A, Q = _transition(gap_left / SECONDS_PER_HOUR, self._lam, var)
        means, P = _unstack(self._left, idx)
        P, _ = _propagate(P, A, Q)
        means = [_apply(A, m) for m in means]
        A, Q = _transition(gap_right / SECONDS_PER_HOUR, self._lam, var)
        means, P = _rts_step(means, P, A, Q, *_unstack(self._right, idx))
        # guard against cancellation rounding; the latent variance is positive
        return ([mean_fn(q) + f for mean_fn, (f, _) in zip(self.mean_fns, means)],
                np.maximum(P[0], 1e-12 * var))


def log_marginal_likelihood(times, channels, sigmas, mean_fns,
                            sigma_f: float, length_scale: float,
                            trajectory_id: str = "") -> float:
    """Summed log evidence of one or more coordinate channels, from one
    Kalman filter pass that the channels share."""
    if np.size(times) == 0:
        return 0.0
    return float(_kalman_filter(
        *_track_inputs(times, channels, sigmas, mean_fns, sigma_f,
                       trajectory_id),
        SQRT3 / length_scale, sigma_f ** 2).lml)


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def train_length_scale(times, channels, sigmas, mean_fns, sigma_f: float,
                       bounds: Tuple[float, float] = DEFAULT_LENGTH_SCALE_BOUNDS,
                       grid_size: int = 32, rel_tol: float = 1e-3,
                       trajectory_id: str = "") -> float:
    """Pick the length scale maximizing the summed log evidence.

    A log-spaced grid scan over the bounds, one filter pass with a lane per
    grid point, finds the best cell, then golden section search refines
    within the neighboring cells to a relative width of ``rel_tol``. The
    returned value never scores below any grid point. With fewer than two
    training points the geometric middle of the bounds is returned (the
    evidence carries no length-scale information there).
    """
    lo, hi = bounds
    t = np.asarray(times, dtype=float)
    if t.size < 2:
        return math.sqrt(lo * hi)

    def objective(l: float) -> float:
        return log_marginal_likelihood(t, channels, sigmas, mean_fns,
                                       sigma_f, l, trajectory_id)

    grid = np.exp(np.linspace(math.log(lo), math.log(hi), grid_size))
    dt, noise, resids = _track_inputs(t, channels, sigmas, mean_fns, sigma_f,
                                      trajectory_id)
    scores = _kalman_filter(dt[:, None], noise, resids, SQRT3 / grid,
                            sigma_f ** 2).lml
    evaluated = list(zip(scores.tolist(), grid.tolist()))

    idx = int(np.argmax(scores))
    a = math.log(grid[max(idx - 1, 0)])
    b = math.log(grid[min(idx + 1, grid_size - 1)])

    # golden section on log length scale, tracking the best seen anywhere
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc = fd = None
    while (b - a) > rel_tol:
        if fc is None:
            fc = objective(math.exp(c))
            evaluated.append((fc, math.exp(c)))
        if fd is None:
            fd = objective(math.exp(d))
            evaluated.append((fd, math.exp(d)))
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
