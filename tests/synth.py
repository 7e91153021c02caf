"""Deterministic synthetic fixtures shared by the test suite.

Everything here is frozen: the random-walk suite and the six hand-built
one-day scenarios are generated from fixed seeds and constants so that
expected orderings and medians stay stable across runs and machines.
"""

import numpy as np

from trajvoi.model import Trajectory

# Midnight UTC of 2008-10-24, the covering day used by all fixtures.
DAY_START = 1224806400.0
HOUR = 3600.0

SUITE_SEED = 20081024
SUITE_SIZE = 50
# Walk speed is in meters per sqrt-second.  The range is deliberately slow:
# the motion signal stays small against every tested noise level, so the
# trained length scale saturates identically across levels and the IG
# comparison isolates measurement quality instead of coverage.
SUITE_SPEED_RANGE = (0.05, 0.5)


def make_trajectory(xs, ts, sigmas=None, ys=None, trajectory_id="t0", owner_id="owner"):
    """Build a Trajectory from parallel coordinate/time arrays."""
    xs = np.asarray(xs, dtype=float)
    ts = np.asarray(ts, dtype=float)
    if ys is None:
        ys = np.zeros_like(xs)
    else:
        ys = np.asarray(ys, dtype=float)
    if sigmas is None:
        sigmas = np.full_like(xs, 3.0)
    elif np.isscalar(sigmas):
        sigmas = np.full_like(xs, float(sigmas))
    else:
        sigmas = np.asarray(sigmas, dtype=float)
    return Trajectory(t=ts, x=xs, y=ys, sigma=sigmas, owner_id=owner_id,
                      trajectory_id=trajectory_id)


def fixes(s):
    """A trajectory's fixes as (t, x, y, sigma) tuples, for comparisons."""
    return list(zip(s.t.tolist(), s.x.tolist(), s.y.tolist(),
                    s.sigma.tolist()))


def random_walk_suite(n=SUITE_SIZE, seed=SUITE_SEED, speed_range=SUITE_SPEED_RANGE):
    """The 50-trajectory random-walk suite used by the statistical checks.

    Each trajectory has 20-200 points spread over at most four hours of one
    day, positions follow a 2-D Brownian walk, and every measurement carries
    the 3 m default uncertainty.
    """
    rng = np.random.default_rng(seed)
    lo, hi = speed_range
    suite = []
    for k in range(n):
        npts = int(rng.integers(20, 201))
        span = rng.uniform(1800.0, 4.0 * HOUR)
        t0 = DAY_START + rng.uniform(HOUR, 19.0 * HOUR)
        ts = np.sort(rng.uniform(0.0, span, npts)) + t0
        speed = np.exp(rng.uniform(np.log(lo), np.log(hi)))
        dt = np.diff(ts, prepend=ts[0])
        steps = rng.standard_normal((npts, 2)) * (speed * np.sqrt(dt))[:, None]
        pos = np.cumsum(steps, axis=0) + rng.uniform(-3000.0, 3000.0, 2)
        suite.append(
            make_trajectory(
                pos[:, 0],
                ts,
                sigmas=3.0,
                ys=pos[:, 1],
                trajectory_id=f"synth_{k:03d}",
                owner_id="synth",
            )
        )
    return suite


# One-day scenario constants.  The two anchor times sit half an hour inside
# each end of the day so that no scenario gains an artificial advantage from
# out-of-day kernel reach, and the far-point jump is large enough that the
# evenly-spread scenarios train an interior length scale.
_T0_H = 0.5
_T1_H = 23.5
_JUMP_M = 10000.0


def scenario_trajectories():
    """Six single-day scenarios with a known qualitative IG ordering.

    a: two noisy measurements close in time
    b: the same two instants measured accurately
    c: two accurate measurements far apart in time
    d: many accurate measurements clustered near the first instant
    e: the same count spread evenly over the day
    f: the same times as (e) with intermediate locations filled in
    """
    t0 = DAY_START + _T0_H * HOUR
    t1 = DAY_START + _T1_H * HOUR

    def traj(tag, xs, ts, sigma):
        return make_trajectory(xs, ts, sigmas=sigma, trajectory_id=f"fig_{tag}", owner_id="fig")

    scen = {}
    scen["a"] = traj("a", [0.0, 0.0], [t0, t0 + HOUR / 6.0], 100.0)
    scen["b"] = traj("b", [0.0, 0.0], [t0, t0 + HOUR / 6.0], 3.0)
    scen["c"] = traj("c", [0.0, _JUMP_M], [t0, t1], 3.0)
    xs_d = [0.0, _JUMP_M] + [0.0] * 6
    ts_d = [t0, t1] + [t0 + (k + 1) * 60.0 for k in range(6)]
    order = np.argsort(ts_d)
    scen["d"] = traj("d", np.asarray(xs_d)[order], np.asarray(ts_d)[order], 3.0)
    ts_e = [t0 + k * (t1 - t0) / 7.0 for k in range(8)]
    scen["e"] = traj("e", [0.0 if k < 4 else _JUMP_M for k in range(8)], ts_e, 3.0)
    scen["f"] = traj("f", [_JUMP_M * k / 7.0 for k in range(8)], ts_e, 3.0)
    return scen
