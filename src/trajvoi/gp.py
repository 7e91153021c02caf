"""Continuous-time probabilistic track reconstruction.

Each spatial coordinate gets an independent scalar Gaussian process over
time with covariance

    k(t, t') = sigma_f^2 (1 + sqrt(3) d / l) exp(-sqrt(3) d / l) + [t == t'] sigma_m^2

where d = |t - t'| in hours and l is the length scale in hours. sigma_f is
the prior standard deviation (how uncertain the location is far from any
data) and the white term carries each training point's own measurement
noise, plus a fixed floor of 1e-10 sigma_f^2. The prior mean is zero: a
caller that wants a trend removed takes it out of the channel values first
(:mod:`.infogain` detrends a released prior's fixes before it trains the
prior's length scale).

Matern 3/2 is exactly the stationary solution of a linear SDE in the state
(position, velocity) (Hartikainen & Sarkka 2010), so inference is exact in
O(n) over the n fixes: a Kalman filter forward over the fixes gives the log
evidence, and a Rauch-Tung-Striebel (RTS) smoother back over them gives the
posterior at every fix. A query time between two fixes takes one RTS step
from the fixes on either side of it. Before the first fix it takes one
backward step from the stationary prior to the first fix, and from the
last fix on, where the RTS gain is 0, one forward propagation of the last
filtered state. Fixes may share a timestamp (a step of zero length); the
noise floor keeps the innovation variance positive even when their noise
is zero.

Both coordinates share the fix times, the per-fix noise and the length
scale, so they share the covariance recursion: one filter and smoother
pass per track serves both, and since the posterior variance never looks
at the coordinate values, both coordinates share one variance too. Only the
means differ. Predictions are for the latent location, so the white-noise
term is excluded at query time: reported variance is uncertainty about
where the owner was, not about a hypothetical noisy re-measurement.

A track's input is a :class:`Training`, converted and checked once by
:meth:`Training.of`; every filter, smoother and training pass takes it as
built.

Public times are epoch seconds; only the state-space model works in hours.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .model import Trajectory

SECONDS_PER_HOUR = 3600.0
SQRT3 = math.sqrt(3.0)

# Floor on every fix's noise variance, relative to sigma_f^2.
NOISE_FLOOR_REL = 1e-10

# Relative width in log length scale to which training refines a scan.
LENGTH_SCALE_REL_TOL = 1e-3


class GpNumericalError(RuntimeError):
    """The fixes of a track give no usable noise variance, or a channel
    value whose square is not finite."""

    def __init__(self, message: str, trajectory_id: str = ""):
        super().__init__(message)
        self.trajectory_id = trajectory_id


@dataclass(frozen=True)
class GpConfig:
    """Kernel amplitude and length-scale training settings."""

    sigma_f: float = 7500.0
    length_scale_bounds: Tuple[float, float] = (0.01, 10.0)     # hours
    grid_size: int = 32                          # log-spaced scan resolution

    def __post_init__(self):
        # the prior variance is sigma_f^2, a float that must not overflow
        if not (self.sigma_f > 0 and self.sigma_f * self.sigma_f < math.inf):
            raise ValueError("sigma_f must be > 0 with a finite square")
        lo, hi = self.length_scale_bounds
        if not 0 < lo < hi < math.inf:
            raise ValueError("length_scale_bounds must satisfy "
                             "0 < lo < hi < inf")
        if self.grid_size < 2:
            raise ValueError("grid_size must be >= 2")


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
    em = np.expm1(-2.0 * u)
    q00 = -em - 2.0 * u * (1.0 + u) * e2
    small = u < _SERIES_BELOW
    if small.any():
        s = u[small]
        series = 0.0
        for c in _Q00_SERIES:
            series = series * s + c
        q00[small] = series * s ** 3
    A = (e * (1.0 + u), e * dt, -lam * u * e, e * (1.0 - u))
    Q = (var * q00, var * lam * 2.0 * u * u * e2,
         var * lam * lam * (2.0 * u * (1.0 - u) * e2 - em))
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


def _filter_step(p00, p01, p11, a00, a01, a10, a11, q00, q01, q11, r):
    """One Kalman step of the covariance (00, 01, 11): predict it over the
    transition (A, Q), then update it on a fix of noise variance r. Returns
    the filtered covariance, the innovation variance s and the gain
    (k0, k1). The arguments are floats, or arrays with a lane per element;
    every filter pass runs this body. The prediction is _propagate's,
    written out: on floats a call costs more than its arithmetic."""
    t00 = a00 * p00 + a01 * p01
    t01 = a00 * p01 + a01 * p11
    t10 = a10 * p00 + a11 * p01
    t11 = a10 * p01 + a11 * p11
    p00 = t00 * a00 + t01 * a01 + q00
    p01 = t00 * a10 + t01 * a11 + q01
    p11 = t10 * a10 + t11 * a11 + q11
    s = p00 + r
    k0, k1 = p00 / s, p01 / s
    return k0 * r, p01 * (r / s), p11 - k1 * p01, s, k0, k1


def _mean_step(f, d, a00, a01, a10, a11, k0, k1, y):
    """The same step for a channel's mean (f, f') and residual y, given the
    gain: the filtered mean and the innovation. ``f``, ``d`` and ``y`` may
    stack channels on a leading axis."""
    f, d = a00 * f + a01 * d, a10 * f + a11 * d
    v = y - f
    return f + k0 * v, d + k1 * v, v


def _rts_step(means, P, A, Q, next_means, next_P, position_only=False):
    """Condition a state (per-channel means, shared covariance P) on the
    smoothed state one transition (A, Q) later: with Pn = A P A^T + Q and
    G = P A^T Pn^-1, the result is m + G (m_next - A m) and
    P + G (P_next - Pn) G^T. With ``position_only`` just the position
    entries of each: the means f and the variance (P00,)."""
    # A P read transposed is P A^T
    (n00, n01, n11), (c00, c10, c01, c11) = _propagate(P, A, Q)
    det = n00 * n11 - n01 * n01
    g00 = (c00 * n11 - c01 * n01) / det
    g01 = (c01 * n00 - c00 * n01) / det
    d00, d01, d11 = next_P[0] - n00, next_P[1] - n01, next_P[2] - n11
    h00, h01 = g00 * d00 + g01 * d01, g00 * d01 + g01 * d11      # G D
    p00 = P[0] + h00 * g00 + h01 * g01
    residuals = []
    for m, m_next in zip(means, next_means):
        pf, pd = _apply(A, m)
        residuals.append((m, m_next[0] - pf, m_next[1] - pd))
    if position_only:
        return [m[0] + g00 * rf + g01 * rd for m, rf, rd in residuals], (p00,)
    g10 = (c10 * n11 - c11 * n01) / det
    g11 = (c11 * n00 - c10 * n01) / det
    h10, h11 = g10 * d00 + g11 * d01, g10 * d01 + g11 * d11
    smoothed_P = (p00, P[1] + h00 * g10 + h01 * g11,
                  P[2] + h10 * g10 + h11 * g11)
    return ([(m[0] + g00 * rf + g01 * rd, m[1] + g10 * rf + g11 * rd)
             for m, rf, rd in residuals], smoothed_P)


class Training(NamedTuple):
    """A track's filter input under one prior scale, as :meth:`of` builds
    and checks it: the fix times (epoch seconds), the gap in hours before
    each fix (0 before the first), each fix's noise variance with the
    floor, and each channel's values about the zero prior mean, shaped
    (channels, fixes)."""

    times: np.ndarray
    dt: np.ndarray
    noise: np.ndarray
    resids: np.ndarray

    @staticmethod
    def of(times, channels, sigmas, cfg: GpConfig,
           trajectory_id: str = "") -> "Training":
        """The filter input of fixes at ``times`` with these channel values
        and noise sigmas, under prior scale ``cfg.sigma_f``. Raises on times
        out of order, and on a noise variance or a channel value whose
        square is not finite, naming ``trajectory_id``."""
        t = np.asarray(times, dtype=float)
        dt = np.diff(t, prepend=t[:1]) / SECONDS_PER_HOUR
        if np.any(dt < 0):
            raise ValueError(f"fix times of trajectory {trajectory_id!r} "
                             f"must be non-decreasing")
        resids = np.array(channels, dtype=float).reshape(len(channels),
                                                         t.size)
        # a square that overflows is refused below, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            noise = (np.asarray(sigmas, dtype=float) ** 2
                     + NOISE_FLOOR_REL * cfg.sigma_f ** 2)
            squares = resids * resids
        if not np.all(np.isfinite(noise)):
            raise GpNumericalError(
                f"non-finite measurement noise for trajectory "
                f"{trajectory_id!r}", trajectory_id=trajectory_id)
        if not np.all(np.isfinite(squares)):
            raise GpNumericalError(
                f"a channel value of trajectory {trajectory_id!r} has no "
                f"finite square", trajectory_id=trajectory_id)
        return Training(t, dt, noise, resids)


# --- lanes --------------------------------------------------------------------
#
# A lane is one filter pass: one track at one length scale. A pass runs many
# lanes, from any number of tracks, through the step bodies above, and each
# numpy operation of a step advances every lane at once, with the coordinate
# channels stacked on one axis. Lanes are sorted longest first, so the lanes
# still running at a step are a prefix. Every lane sees exactly the
# arithmetic of a pass of its own, so its results are bitwise those of one;
# a single track is a batch of one. An evidence pass keeps only each lane's
# running sums, added in fix order as it steps; a smoother pass keeps every
# fix's state, storing at each step only the lanes that run, so its buffers
# hold exactly its lane-fixes. Either runs all its lanes at once.

# Lane-fixes one numpy operation takes at a time outside the step loop:
# the transitions of a block of steps.
_BLOCK = 1 << 11
# Fewer running lanes than this step one by one on Python floats: a float
# step costs ~2.2 us per lane, a numpy step ~30 us at up to ~30 lanes
# (measured crossover). It decides how a pass steps, never which lanes
# a pass runs.
FLOAT_LANES_BELOW = 12


class _Lanes(NamedTuple):
    """Lanes over some tracks, all at prior variance ``var``: lane i runs
    ``tracks[track[i]]`` at lam = sqrt(3) / length scale ``lam[i]``."""

    tracks: Sequence[Training]
    track: np.ndarray
    lam: np.ndarray
    var: float

    @staticmethod
    def of(tracks, track, lam, var) -> "_Lanes":
        return _Lanes(tracks, np.asarray(track, dtype=int),
                      np.asarray(lam, dtype=float), float(var))

    def take(self, idx) -> "_Lanes":
        return self._replace(track=self.track[idx], lam=self.lam[idx])

    def sizes(self) -> np.ndarray:
        return np.array([t.dt.size for t in self.tracks],
                        dtype=int)[self.track]

    def channels(self) -> np.ndarray:
        return np.array([len(t.resids) for t in self.tracks],
                        dtype=int)[self.track]


class _Run(NamedTuple):
    """A filter pass over lanes sorted longest first: step k advances lanes
    0 to active[k] - 1. An evidence pass holds each lane's sums over its
    fixes so far, of log(2 pi S) for the innovation variances S and, per
    channel, of V^2 / S for the innovations V. A kept pass holds instead
    the states the smoother needs, a column per lane-fix: step k's running
    lanes sit side by side from column row[k], so lane i's fix k is column
    row[k] + i."""

    active: np.ndarray           # lanes still running at each step
    row: np.ndarray              # the first column of each step
    logs: Optional[np.ndarray]   # (lanes,) sums of log(2 pi S)
    quads: Optional[np.ndarray]  # (channels, lanes) sums of V^2 / S
    AQ: Optional[np.ndarray]     # (7, lane-fixes) transition into a fix
    P: Optional[np.ndarray]      # (3, lane-fixes) filtered covariance
    M: Optional[np.ndarray]      # (2, channels, lane-fixes) filtered means


def _kalman_filter(lanes: _Lanes, keep: bool = False) -> _Run:
    """Kalman filter over every fix of every lane (sorted longest first),
    from the stationary prior. The run holds each lane's evidence sums;
    with ``keep`` it holds instead what the smoother needs: the
    transitions and the filtered states.

    Numpy steps serve the lanes while at least FLOAT_LANES_BELOW of them
    run; the lanes left then finish one by one on Python floats."""
    ns = lanes.sizes()
    steps, m = int(ns[0]), ns.size
    channels = int(lanes.channels().max())
    active = np.searchsorted(-ns, -np.arange(steps))
    fixes = int(ns.sum())
    run = _Run(active, np.cumsum(active) - active,
               *((None, None, np.zeros((7, fixes)), np.zeros((3, fixes)),
                  np.zeros((2, channels, fixes))) if keep else
                 (np.zeros(m), np.zeros((channels, m))) + (None,) * 3))
    switch = _float_switch(run)
    state = _numpy_lanes(run, lanes, channels, switch) if switch else None
    for i in range(run.active[switch] if switch < steps else 0):
        _float_lane(run, i, lanes.tracks[lanes.track[i]], float(lanes.lam[i]),
                    lanes.var, switch,
                    state and [x[..., i].tolist() for x in state])
    return run


def _float_switch(run: _Run) -> int:
    """The first step at which fewer than FLOAT_LANES_BELOW lanes run."""
    return int(np.searchsorted(-run.active, -FLOAT_LANES_BELOW, side="right"))


def _float_lane(run: _Run, i: int, fixes: Training, lam: float, var: float,
                start: int = 0, state=None):
    """Lane ``i`` of ``run`` from fix ``start`` on, from ``state`` (the
    covariance and channel means, or None for the stationary prior), on
    Python floats, which step far faster than numpy arrays of a few
    elements: the covariance first, then each channel's means. Its
    evidence sums go on from where the numpy steps left them."""
    _, dt, noise, resids = fixes
    n, keep, channels = dt.size, run.P is not None, len(resids)
    cols = run.row[start:n] + i
    A, Q = _transition(dt[start:], lam, var)
    aq = [x.tolist() for x in A + Q]
    if state is None:
        p00, p01, p11 = var, 0.0, var * lam * lam
        means = [(0.0, 0.0)] * channels
    else:
        p00, p01, p11, f, d = state
        means = list(zip(f, d))[:channels]
    S, K0, K1, P00, P01, P11 = [], [], [], [], [], []
    for a00, a01, a10, a11, q00, q01, q11, r in zip(*aq,
                                                     noise[start:].tolist()):
        p00, p01, p11, s, k0, k1 = _filter_step(
            p00, p01, p11, a00, a01, a10, a11, q00, q01, q11, r)
        S.append(s)
        K0.append(k0)
        K1.append(k1)
        if keep:
            P00.append(p00)
            P01.append(p01)
            P11.append(p11)
    S = np.array(S)
    for c, ((f, d), y) in enumerate(zip(means, resids[:, start:].tolist())):
        V, F, D = [], [], []
        for a00, a01, a10, a11, k0, k1, yk in zip(*aq[:4], K0, K1, y):
            f, d, v = _mean_step(f, d, a00, a01, a10, a11, k0, k1, yk)
            V.append(v)
            if keep:
                F.append(f)
                D.append(d)
        if keep:
            run.M[:, c, cols] = F, D
        else:
            V = np.array(V)
            run.quads[c, i] = _add_in_order(run.quads[c, i], V * V / S)
    if keep:
        run.AQ[:, cols] = aq
        run.P[:, cols] = P00, P01, P11
    else:
        # np.log as the numpy steps take it: math.log may round otherwise
        run.logs[i] = _add_in_order(run.logs[i], np.log(2.0 * math.pi * S))


def _add_in_order(total, terms: np.ndarray) -> float:
    """``total`` plus each of ``terms`` in turn, the order in which numpy
    steps add a lane's terms (builtin sum() compensates on CPython 3.12+)."""
    total = float(total)
    for x in terms.tolist():
        total += x
    return total


def _numpy_lanes(run: _Run, lanes: _Lanes, channels: int, stop: int):
    """Steps 0 to ``stop`` (exclusive) of every lane of ``run`` at once:
    each numpy operation of a step serves all running lanes, and the
    transitions of a block of steps come from one _transition call.
    Returns the state then, as (p00, p01, p11, f, d) arrays of lanes."""
    lam, var = lanes.lam, lanes.var
    # the inputs of the lanes' tracks side by side, (2 + channels, fixes):
    # gaps, noise and residuals; each lane reads its track's
    used, local = np.unique(lanes.track, return_inverse=True)
    tracks = [lanes.tracks[t] for t in used]
    inputs = np.concatenate([np.vstack([dt, noise, resids,
                                        np.zeros((channels - len(resids),
                                                  dt.size))])
                             for _, dt, noise, resids in tracks], axis=1)
    starts = np.cumsum([0] + [t.dt.size for t in tracks])
    first = starts[local]
    last = starts[local + 1] - 1
    p00, p01, p11 = np.full(lam.size, var), np.zeros(lam.size), var * lam * lam
    f, d = np.zeros((channels, lam.size)), np.zeros((channels, lam.size))
    # Python ints index far faster than numpy scalars in the step loop
    active, row = run.active.tolist(), run.row.tolist()
    logs, quads, kept_AQ, P, M = run.logs, run.quads, run.AQ, run.P, run.M
    k = 0
    while k < stop:
        width = active[k]
        end = min(stop, k + max(1, _BLOCK // width))
        # the block's inputs, (steps, 2 + channels, lanes); past its last
        # fix a lane rereads that fix, and no step uses what it computes
        at = np.minimum(first[:width] + np.arange(k, end)[:, None],
                        last[:width])
        block = inputs[:, at].transpose(1, 0, 2)
        A, Q = _transition(block[:, 0], lam[:width], var)
        AQ = np.stack(A + Q, axis=1)
        for j, step in enumerate(range(k, end)):
            n = active[step]
            if n < p00.size:
                p00, p01, p11, f, d = p00[:n], p01[:n], p11[:n], f[:, :n], d[:, :n]
            a00, a01, a10, a11, q00, q01, q11 = AQ[j, :, :n]
            p00, p01, p11, s, k0, k1 = _filter_step(
                p00, p01, p11, a00, a01, a10, a11, q00, q01, q11,
                block[j, 1, :n])
            if P is None:
                logs[:n] += np.log(2.0 * math.pi * s)
            else:
                cols = slice(row[step], row[step] + n)
                kept_AQ[:, cols] = AQ[j, :, :n]
                P[0, cols], P[1, cols], P[2, cols] = p00, p01, p11
            if channels:            # lanes without channels have no means
                f, d, v = _mean_step(f, d, a00, a01, a10, a11, k0, k1,
                                     block[j, 2:, :n])
                if P is None:
                    quads[:, :n] += v * v / s
                else:
                    M[0, :, cols], M[1, :, cols] = f, d
        k = end
    return p00, p01, p11, f, d


def _lane_lmls(lanes: _Lanes) -> np.ndarray:
    """The log evidence of every lane, summed over its fixes and channels,
    from one filter pass over them all."""
    order = np.argsort(-lanes.sizes(), kind="stable")
    lanes = lanes.take(order)
    run = _kalman_filter(lanes)
    out = np.empty(order.size)
    out[order] = -0.5 * (lanes.channels() * run.logs + run.quads.sum(axis=0))
    return out


def _rts_smoother(run: _Run, lanes: _Lanes):
    """Smooth a kept filter run in place: its filtered covariances and
    channel means become the smoothed ones, at every fix of every lane.
    Where the filter ran lanes on floats, so does the smoother, from each
    lane's last fix back to that step; numpy steps do the rest."""
    P, M = run.P, run.M                  # a lane's last fix is smoothed
    stop = max(_float_switch(run) - 1, 0)
    for i in range(run.active[stop + 1] if stop + 1 < run.active.size else 0):
        _float_smooth(run, i, lanes.tracks[lanes.track[i]], stop)
    channels = M.shape[1]               # lanes without channels have no means
    for k in range(stop - 1, -1, -1):
        n = run.active[k + 1]
        now = slice(run.row[k], run.row[k] + n)
        after = slice(run.row[k + 1], run.row[k + 1] + n)
        aq = run.AQ[:, after]
        means, (p00, p01, p11) = _rts_step(
            [tuple(M[:, :, now])] if channels else [], tuple(P[:, now]),
            aq[:4], aq[4:], [tuple(M[:, :, after])] if channels else [],
            tuple(P[:, after]))
        for f, d in means:
            M[0, :, now], M[1, :, now] = f, d
        P[0, now], P[1, now], P[2, now] = p00, p01, p11


def _float_smooth(run: _Run, i: int, fixes: Training, stop: int):
    """Lane ``i`` of the smoother back to fix ``stop``, on Python floats."""
    n, channels = fixes.dt.size, len(fixes.resids)
    cols = run.row[stop:n] + i
    P = run.P.take(cols, axis=1).tolist()
    AQ = run.AQ.take(cols, axis=1).tolist()
    # per fix, each channel's (f, f'); a track may have no channels
    means = [tuple(zip(f, d)) for f, d in run.M[:, :channels].take(
        cols, axis=2).transpose(2, 0, 1).tolist()]
    covs = list(zip(*P))
    steps = list(zip(zip(*AQ[:4]), zip(*AQ[4:])))
    state = means[-1], covs[-1]
    smoothed = [state]
    for k in range(n - stop - 2, -1, -1):
        state = _rts_step(means[k], covs[k], *steps[k + 1], *state)
        smoothed.append(state)
    smoothed.reverse()
    run.P[:, cols] = list(zip(*(cov for _, cov in smoothed)))
    for c, channel in enumerate(zip(*(ms for ms, _ in smoothed))):
        run.M[:, c, cols] = list(zip(*channel))


def _lane_states(run: _Run, i: int, fixes: Training):
    """Lane ``i``'s state at each fix of a kept run: (means (2, channels,
    fixes), covariances (3, fixes))."""
    cols = run.row[:fixes.dt.size] + i
    return (run.M[:, :len(fixes.resids)].take(cols, axis=2),
            run.P.take(cols, axis=1))


def _track_states(lanes: _Lanes) -> list:
    """For each lane (one per track), the states its queries start from:
    the filtered and the smoothed state at each fix. One filter and one
    smoother pass serve every lane."""
    if not lanes.track.size:
        return []
    order = np.argsort(-lanes.sizes(), kind="stable")
    lanes = lanes.take(order)
    run = _kalman_filter(lanes, keep=True)
    tracks = [lanes.tracks[t] for t in lanes.track]
    filtered = [_lane_states(run, i, t) for i, t in enumerate(tracks)]
    _rts_smoother(run, lanes)
    out = [None] * order.size
    for i, (slot, t) in enumerate(zip(order.tolist(), tracks)):
        out[slot] = filtered[i], _lane_states(run, i, t)
    return out


class _Gaps(NamedTuple):
    """What a query at sorted times ``q`` shares among tracks of equal fix
    times, length scale and prior variance: ``idx[j]`` fixes lie at or
    before q[j], so q[:before] lie before the first fix and q[end:] at or
    after the last. A and Q are the transitions, in one call, first from
    each of q[:end] to its next fix, then to each of q[before:] from its
    last fix."""

    idx: np.ndarray
    before: int
    end: int
    A: tuple
    Q: tuple


def _gaps(t: np.ndarray, lam: float, var: float, q: np.ndarray) -> _Gaps:
    """The gaps of sorted query times ``q`` about fix times ``t``."""
    idx = np.searchsorted(t, q, side="right")
    before, end = np.searchsorted(idx, [1, t.size]).tolist()
    A, Q = _transition(np.concatenate([t[idx[:end]] - q[:end],
                                       q[before:] - t[idx[before:] - 1]])
                       / SECONDS_PER_HOUR, lam, var)
    return _Gaps(idx, before, end, A, Q)


def _sorted(times):
    """Query times sorted, and the order that sorted them (None if they
    already were)."""
    q = np.atleast_1d(np.asarray(times, dtype=float))
    if np.all(q[1:] >= q[:-1]):
        return q, None
    order = np.argsort(q, kind="stable")
    return q[order], order


def _unsorted(x: np.ndarray, order) -> np.ndarray:
    """Values at sorted times put back in the times' own order."""
    if order is None:
        return x
    out = np.empty_like(x)
    out[order] = x
    return out


class CoordinateGP:
    """Exact GP posterior for the coordinate channels of one track.

    The channels share timestamps and per-point noise, so one filter and
    smoother pass serves all of them; each channel keeps its own state
    means. ``states`` are that pass's filtered and smoothed states at the
    fixes (see :func:`fit_tracks`, which runs it), None only for a track
    without fixes, whose ``channels`` means are 0.
    """

    def __init__(self, times, channels: int, sigma_f: float,
                 length_scale: float, states=None):
        self.channels = channels
        self.sigma_f = float(sigma_f)
        self.length_scale = float(length_scale)
        self.times = np.asarray(times, dtype=float)
        self.n_train = self.times.size
        self._lam = SQRT3 / self.length_scale
        self._states = states

    def _at(self, gaps: _Gaps, means: bool):
        """Each channel's posterior mean (None unless ``means``) and the
        variance they share, at the sorted query times of ``gaps``.

        From the last fix at or before a time, its filtered state is
        propagated to the time. Up to the last fix, one RTS step then
        conditions that on the smoothed state at the next fix; before the
        first fix the state it conditions is the stationary prior, which
        any gap leaves as it is. From the last fix on, the RTS gain is 0
        and the propagated state is the posterior."""
        var, lam = self.sigma_f ** 2, self._lam
        (filtered_m, filtered_P), (smoothed_m, smoothed_P) = self._states
        idx, before, end, A, Q = gaps
        between = end - before
        last = idx[before:] - 1
        A_last, Q_last = [a[end:] for a in A], [x[end:] for x in Q]
        P, _ = _propagate(tuple(filtered_P.take(last, axis=1)), A_last,
                          Q_last)
        # left of each time up to the last fix: the stationary prior before
        # the first fix, else the propagated state
        left_P = tuple(np.concatenate([np.full(before, p0), p[:between]])
                       for p0, p in zip((var, 0.0, var * lam ** 2), P))
        left_m, next_m = [], []
        if means:                  # channels stacked as (channels, times)
            moved = _apply(A_last, filtered_m.take(last, axis=2))
            left_m = [tuple(np.concatenate(
                [np.zeros((self.channels, before)), x[:, :between]], axis=1)
                for x in moved)]
            next_m = [tuple(smoothed_m.take(idx[:end], axis=2))]
        f, (P00,) = _rts_step(left_m, left_P, [a[:end] for a in A],
                              [x[:end] for x in Q], next_m,
                              tuple(smoothed_P.take(idx[:end], axis=1)),
                              position_only=True)
        # guard against cancellation rounding; the latent variance is positive
        return ([*np.concatenate([f[0], moved[0][:, between:]], axis=1)]
                if means else None,
                np.maximum(np.concatenate([P00, P[0][between:]]), 1e-12 * var))

    def predict(self, times) -> Tuple[List[np.ndarray], np.ndarray]:
        """Posterior mean of each channel and the variance they share, at
        each time, for the latent coordinates."""
        q, order = _sorted(times)
        if self.n_train == 0:
            return ([np.zeros(q.shape) for _ in range(self.channels)],
                    np.full(q.shape, self.sigma_f ** 2))
        f, var = self._at(_gaps(self.times, self._lam, self.sigma_f ** 2, q),
                          True)
        return [_unsorted(x, order) for x in f], _unsorted(var, order)


def log_marginal_likelihood(times, channels, sigmas, cfg: GpConfig,
                            length_scale: float,
                            trajectory_id: str = "") -> float:
    """Summed log evidence of one or more coordinate channels under prior
    scale ``cfg.sigma_f``, from one Kalman filter pass that the channels
    share."""
    if np.size(times) == 0:
        return 0.0
    training = Training.of(times, channels, sigmas, cfg, trajectory_id)
    return float(_lane_lmls(_Lanes.of([training], [0],
                                      [SQRT3 / length_scale],
                                      cfg.sigma_f ** 2))[0])


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_step(a, b, c, d, up):
    """One golden-section round on the bracket [a, b] with probes c < d:
    ``up`` keeps [c, b] and makes a new upper probe d, otherwise [a, d] is
    kept with a new lower probe c. Returns (a, b, c, d)."""
    if up:
        a, c = c, d
        return a, b, c, a + _INV_PHI * (b - a)
    b, d = d, c
    return a, b, b - _INV_PHI * (b - a), d


def _top_path(grid) -> list:
    """The log length scales a search whose bracket is the top grid cell,
    [grid[-2], grid[-1]], probes when every comparison goes up, as one
    pinned at the upper bound does: its two first probes, then each new
    upper one, in the search's own arithmetic. Empty when that cell is
    already within LENGTH_SCALE_REL_TOL."""
    a, b = math.log(grid[-2]), math.log(grid[-1])
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    path, new = [], (c, d)
    while (b - a) > LENGTH_SCALE_REL_TOL:
        path += new
        a, b, c, d = _golden_step(a, b, c, d, True)
        new = (d,)
    return path


def _golden_search(grid, scores, bounds, seen: dict):
    """Refine the best grid point of a scan by golden-section search on log
    length scale, within the neighbouring grid cells, to a relative width
    of LENGTH_SCALE_REL_TOL, keeping the first best score seen anywhere.

    A generator: ``seen`` maps log length scales to scores already known,
    and while a round's probes are among them it runs without yielding.
    Otherwise it yields the length scales of the probes it needs (both at
    first, one per round after), is sent their scores and adds them to
    ``seen``. It returns the best length scale within ``bounds``."""
    best = (-math.inf, None)
    for f, l in zip(scores.tolist(), grid.tolist()):
        if f > best[0] or best[1] is None:
            best = (f, l)
    idx = int(np.argmax(scores))
    a = math.log(grid[max(idx - 1, 0)])
    b = math.log(grid[min(idx + 1, len(grid) - 1)])
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    new = (c, d)                        # the probes not yet compared
    while (b - a) > LENGTH_SCALE_REL_TOL:
        needed = [x for x in new if x not in seen]
        if needed:
            got = yield [math.exp(x) for x in needed]
            seen.update(zip(needed, got))
        for x in new:
            best = (seen[x], math.exp(x)) if seen[x] > best[0] else best
        up = not seen[c] > seen[d]
        a, b, c, d = _golden_step(a, b, c, d, up)
        new = (d,) if up else (c,)
    return min(max(best[1], bounds[0]), bounds[1])


def train_length_scales(trainings: Sequence[Training], cfg: GpConfig) -> list:
    """Pick, for each training, the length scale maximizing its summed log
    evidence under prior scale ``cfg.sigma_f``.

    A log-spaced scan of ``cfg.grid_size`` points over
    ``cfg.length_scale_bounds`` finds each training's best grid cell, and
    golden-section search refines within the neighbouring cells to a
    relative width of LENGTH_SCALE_REL_TOL; the result never scores below any
    grid point. All trainings advance in lockstep. The scans of the whole
    batch are one lane pass, a lane per training and grid point, and it
    also scores each training at the probes of :func:`_top_path`: a search
    pinned at the upper bound then closes without another pass. Each round
    of the searches still open is one more pass, over the probes they
    need, each search keeping its own bracket. Every lane's evidence is
    bitwise that of a pass of its own, so the searches decide as they
    would alone. With fewer than two training points the geometric middle
    of the bounds is returned (the evidence carries no length-scale
    information there). Each training is taken as :meth:`Training.of`
    built it under ``cfg``: nothing is converted or checked again.
    """
    bounds, grid_size, var = (cfg.length_scale_bounds, cfg.grid_size,
                              cfg.sigma_f ** 2)
    lo, hi = bounds
    results: list = [math.sqrt(lo * hi)] * len(trainings)
    grid = np.exp(np.linspace(math.log(lo), math.log(hi), grid_size))
    ready = [i for i, tr in enumerate(trainings) if tr.times.size >= 2]
    if not ready:
        return results
    path = _top_path(grid)
    # each training's scan: the grid, then the path's probes at the lam a
    # round would give them
    lams = np.concatenate([SQRT3 / grid, [SQRT3 / math.exp(x) for x in path]])
    scans = _lane_lmls(_Lanes.of(
        trainings, np.repeat(ready, lams.size), np.tile(lams, len(ready)),
        var)).reshape(len(ready), lams.size)
    # (training, search, the scores it was sent)
    searches = []
    for i, scan in zip(ready, scans):
        seen = dict(zip(path, scan[grid_size:].tolist()))
        searches.append((i, _golden_search(grid, scan[:grid_size], bounds,
                                           seen), None))
    while searches:
        still_open = []
        for i, search, got in searches:
            try:
                still_open.append((i, search, search.send(got)))
            except StopIteration as done:
                results[i] = done.value
        if not still_open:
            break
        wanted = [(i, l) for i, _, ls in still_open for l in ls]
        scores = _lane_lmls(_Lanes.of(
            trainings, [i for i, _ in wanted], [SQRT3 / l for _, l in wanted],
            var)).tolist()
        searches, used = [], 0
        for i, search, ls in still_open:
            searches.append((i, search, scores[used:used + len(ls)]))
            used += len(ls)
    return results


def train_length_scale(times, channels, sigmas, cfg: GpConfig,
                       trajectory_id: str = "") -> float:
    """The length scale maximizing the summed log evidence of one training:
    :func:`train_length_scales` on a batch of one."""
    return train_length_scales(
        [Training.of(times, channels, sigmas, cfg, trajectory_id)], cfg)[0]


class TrackQuery(NamedTuple):
    mean_x: np.ndarray
    mean_y: np.ndarray
    var: np.ndarray          # shared by both coordinates


@dataclass(frozen=True)
class GaussianTrack:
    """Continuous-time reconstruction: independent Gaussians per coordinate,
    with one shared variance."""

    gp: CoordinateGP

    def query(self, times, means: bool = True) -> TrackQuery:
        """The reconstruction at each time; without ``means``, only the
        variance (the mean fields are None): :func:`track_variances` on a
        batch of one."""
        if not means:
            return TrackQuery(None, None, track_variances([self], times)[0])
        mx, var = self.gp.predict(times)
        return TrackQuery(*(mx or (None, None)), var)


def track_variances(tracks: Sequence[GaussianTrack], times) -> list:
    """The posterior variance of each track at each of ``times``.

    The times are sorted once. Tracks of equal fix times, length scale and
    prior scale share the gaps to their fixes, so each such group makes
    one :func:`_transition` call; each track then propagates and smooths
    its own states. Every variance is bitwise that of the track's own
    ``predict``."""
    q, order = _sorted(times)
    out: list = [None] * len(tracks)
    groups: dict = {}
    for i, track in enumerate(tracks):
        fit = track.gp
        if not fit.n_train:
            out[i] = np.full(q.shape, fit.sigma_f ** 2)
        else:
            groups.setdefault((fit.times.tobytes(), fit.length_scale,
                               fit.sigma_f), []).append(i)
    for members in groups.values():
        first = tracks[members[0]].gp
        gaps = _gaps(first.times, first._lam, first.sigma_f ** 2, q)
        for i in members:
            out[i] = tracks[i].gp._at(gaps, False)[1]
    return [_unsorted(v, order) for v in out]


def point_training(trajectory: Trajectory, cfg: GpConfig) -> Training:
    """The training of both coordinates of a trajectory's fixes."""
    return Training.of(trajectory.t, [trajectory.x, trajectory.y],
                       trajectory.sigma, cfg, trajectory.trajectory_id)


def fit_tracks(requests: Sequence[Tuple[Training, Optional[float]]],
               cfg: GpConfig) -> list:
    """Fit GPs for many (training, length scale) requests at once, all
    under prior scale ``cfg.sigma_f``.

    The length scales left None are trained first, in one
    :func:`train_length_scales` call; then every track's filter and
    smoother run as the lanes of one filter pass and one smoother pass. A
    training without fixes gives the pure prior: mean 0 everywhere and
    variance sigma_f^2. A training without channels gives a track of the
    variance alone, bitwise that of the same fixes with channels. Each
    training is taken as :meth:`Training.of` built it under ``cfg``:
    nothing is converted or checked again.
    """
    scales = [l for _, l in requests]
    untrained = [i for i, l in enumerate(scales) if l is None]
    for i, l in zip(untrained, train_length_scales(
            [requests[i][0] for i in untrained], cfg)):
        scales[i] = l
    var = cfg.sigma_f ** 2
    slots = [i for i, (tr, _) in enumerate(requests) if tr.times.size]
    states = dict(zip(slots, _track_states(_Lanes.of(
        [tr for tr, _ in requests], slots,
        [SQRT3 / float(scales[i]) for i in slots], var))))
    return [GaussianTrack(CoordinateGP(tr.times, len(tr.resids),
                                       cfg.sigma_f, scales[i], states.get(i)))
            for i, (tr, _) in enumerate(requests)]


def fit_track(trajectory: Optional[Trajectory], cfg: GpConfig,
              length_scale: Optional[float] = None) -> GaussianTrack:
    """Fit the zero-mean GP of both coordinates on a trajectory's fixes.

    Without a trajectory (None) the track is the pure prior: mean 0
    everywhere and variance sigma_f^2. When ``length_scale`` is not given
    it is trained jointly on both coordinates (one shared value, summed
    evidence). :func:`fit_tracks` on a batch of one.
    """
    if trajectory is None:
        none = np.empty(0)
        training = Training.of(none, [none, none], none, cfg)
    else:
        training = point_training(trajectory, cfg)
    return fit_tracks([(training, length_scale)], cfg)[0]
