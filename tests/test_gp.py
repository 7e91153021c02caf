"""Exact GP inference: kernel values, posterior algebra, length-scale training."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import trajvoi.gp as gp
from synth import make_trajectory
from trajvoi.gp import (GaussianTrack, GpConfig, GpNumericalError, Training,
                        fit_track, fit_tracks, log_marginal_likelihood,
                        point_training, train_length_scale,
                        train_length_scales)
from trajvoi.infogain import (IntegrationConfig, _linear_residuals,
                              covering_day_start, integration_grid)

HOUR = 3600.0


def lone_gp(times, channels, sigmas, sigma_f, length_scale,
            trajectory_id=""):
    """The GP of one track at a given length scale: fit_tracks on a batch
    of one."""
    (track,) = fit_tracks([(Training(times, channels, sigmas, trajectory_id),
                            length_scale)], GpConfig(sigma_f=sigma_f))
    return track.gp


# --- kernel ------------------------------------------------------------------

def matern32(t1, t2, sigma_f: float, length_scale: float):
    """Matern 3/2 covariance between times given in hours: the dense
    reference the state-space GP is checked against."""
    d = np.abs(np.asarray(t1, dtype=float) - np.asarray(t2, dtype=float))
    r = (math.sqrt(3.0) / length_scale) * d
    return sigma_f ** 2 * (1.0 + r) * np.exp(-r)


def test_matern_zero_lag():
    assert matern32(np.array([0.0]), np.array([0.0]), 7500.0, 1.0) \
        == pytest.approx(7500.0 ** 2)


def test_matern_at_one_length_scale():
    # (1 + sqrt(3)) * exp(-sqrt(3)), evaluated by hand
    k = matern32(np.array([1.0]), np.array([0.0]), 1.0, 1.0)
    assert k.item() == pytest.approx(0.4833577245965077, abs=1e-15)


def test_matern_far_tail():
    k = matern32(np.array([100.0]), np.array([0.0]), 1.0, 1.0)
    assert k.item() < 1e-60


def test_matern_symmetric_monotone():
    dts = np.linspace(0.0, 5.0, 40)
    k = matern32(dts, np.zeros_like(dts), 2.0, 1.3)
    assert np.all(np.diff(k) <= 0)
    k_neg = matern32(-dts, np.zeros_like(dts), 2.0, 1.3)
    assert np.allclose(k, k_neg)


# --- linear mean -------------------------------------------------------------
# A released prior trains about its least-squares lines: the values less
# the line (intercept + slope t) are the residuals checked here.

def test_fit_linear_mean_exact_line():
    r = _linear_residuals(np.array([0.0, 1.0]), np.array([0.0, 2.0]))
    assert r == pytest.approx([0.0, 0.0])


def test_fit_linear_mean_constant():
    r = _linear_residuals(np.array([1.0, 2.0, 3.0]),
                          np.array([5.0, 5.0, 5.0]))
    assert np.array_equal(r, np.zeros(3))


def test_fit_linear_mean_three_points():
    # slope 2 and intercept -1/3, at times in seconds
    ts, vs = np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 4.0])
    r = _linear_residuals(ts, vs)
    assert r == pytest.approx(vs - (2.0 * ts - 1.0 / 3.0), abs=1e-12)


def test_fit_linear_mean_degenerate():
    assert np.array_equal(_linear_residuals(np.array([3.0]),
                                            np.array([7.0])), [0.0])
    same_t = _linear_residuals(np.array([2.0, 2.0]), np.array([1.0, 3.0]))
    assert same_t == pytest.approx([-1.0, 1.0])
    with pytest.raises(ValueError):
        _linear_residuals(np.array([]), np.array([]))


# --- posterior ---------------------------------------------------------------

def test_empty_fit_is_the_prior():
    cfg = GpConfig(sigma_f=7500.0)
    track = fit_track(None, cfg)
    q = track.query(np.array([0.0, 40000.0]))
    assert np.allclose(q.mean_x, 0.0)
    assert np.allclose(q.var, 7500.0 ** 2)
    assert track.gp.n_train == 0


def test_single_point_shrinkage():
    s = make_trajectory([100.0], [0.0], sigmas=3.0)
    track = fit_track(s, GpConfig(sigma_f=7500.0), length_scale=1.0)
    q = track.query(np.array([0.0]))
    assert 97.0 <= float(q.mean_x[0]) <= 103.0
    assert float(q.var[0]) < 3.1 ** 2
    assert float(q.var[0]) < 0.001 * 7500.0 ** 2


def test_far_query_reverts_to_prior():
    s = make_trajectory([100.0], [0.0], sigmas=3.0)
    track = fit_track(s, GpConfig(sigma_f=7500.0), length_scale=0.5)
    q = track.query(np.array([50 * 0.5 * HOUR]))
    assert float(q.var[0]) == pytest.approx(7500.0 ** 2, rel=0.01)
    assert float(q.mean_x[0]) == pytest.approx(0.0, abs=1.0)


def test_posterior_variance_never_exceeds_prior():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(1, 30))
        ts = np.sort(rng.uniform(0, 6 * HOUR, n))
        xs = rng.normal(0, 500, n)
        s = make_trajectory(xs, ts, sigmas=rng.uniform(1, 30))
        track = fit_track(s, GpConfig(sigma_f=7500.0),
                          length_scale=float(rng.uniform(0.05, 9.0)))
        q = track.query(np.linspace(-HOUR, 25 * HOUR, 200))
        assert np.all(q.var <= 7500.0 ** 2 * (1 + 1e-6))


def test_oracle_direct_inverse_small_instances():
    # quick version of the full acceptance sweep
    rng = np.random.default_rng(99)
    cfg = GpConfig(sigma_f=100.0)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        ts = np.sort(rng.uniform(0, 4 * HOUR, n))
        xs = rng.normal(50, 40, n)
        sig = rng.uniform(0.5, 10, n)
        l = float(rng.uniform(0.05, 8.0))
        s = make_trajectory(xs, ts, sigmas=sig)
        track = fit_track(s, cfg, length_scale=l)
        q_ts = rng.uniform(0, 4 * HOUR, 7)
        q = track.query(q_ts)

        th = ts / HOUR
        K = matern32(th[:, None], th[None, :], 100.0, l) \
            + np.diag(sig ** 2) + 1e-10 * 100.0 ** 2 * np.eye(n)
        ks = matern32(q_ts[:, None] / HOUR, th[None, :], 100.0, l)
        Kinv = np.linalg.inv(K)
        mean = ks @ Kinv @ xs
        var = 100.0 ** 2 - np.einsum("ij,ij->i", ks @ Kinv, ks)
        var = np.maximum(var, 1e-12 * 100.0 ** 2)
        assert np.allclose(q.mean_x, mean, rtol=1e-8, atol=1e-8)
        assert np.allclose(q.var, var, rtol=1e-8, atol=1e-8)


def test_time_reversal_symmetry():
    ts = np.array([0.0, 600.0, 1800.0, 5000.0])
    xs = np.array([0.0, 50.0, -30.0, 80.0])
    s = make_trajectory(xs, ts, sigmas=3.0)
    pivot = 6000.0
    s_rev = make_trajectory(xs[::-1], (pivot - ts)[::-1], sigmas=3.0)
    cfg = GpConfig(sigma_f=500.0)
    fwd = fit_track(s, cfg, length_scale=1.0)
    rev = fit_track(s_rev, cfg, length_scale=1.0)
    q = np.linspace(-1000.0, 7000.0, 50)
    qf = fwd.query(q)
    qr = rev.query(pivot - q)
    assert np.allclose(qf.mean_x, qr.mean_x, rtol=1e-10, atol=1e-8)
    assert np.allclose(qf.var, qr.var, rtol=1e-10, atol=1e-8)


def test_channel_swap_symmetry():
    rng = np.random.default_rng(3)
    ts = np.sort(rng.uniform(0, HOUR, 12))
    xs = rng.normal(0, 100, 12)
    ys = rng.normal(0, 100, 12)
    s = make_trajectory(xs, ts, sigmas=5.0, ys=ys)
    swapped = make_trajectory(ys, ts, sigmas=5.0, ys=xs)
    cfg = GpConfig(sigma_f=800.0)
    a = fit_track(s, cfg, length_scale=0.7)
    b = fit_track(swapped, cfg, length_scale=0.7)
    q = np.linspace(0, HOUR, 30)
    qa, qb = a.query(q), b.query(q)
    assert np.array_equal(qa.mean_x, qb.mean_y)
    assert np.array_equal(qa.var, qb.var)
    assert np.array_equal(qa.mean_y, qb.mean_x)


def test_duplicate_timestamps_are_fine():
    # white noise keeps the Gram matrix well conditioned at repeated inputs
    s = make_trajectory([10.0, 12.0, 11.0], [500.0, 500.0, 500.0], sigmas=3.0)
    track = fit_track(s, GpConfig(sigma_f=100.0), length_scale=1.0)
    q = track.query(np.array([500.0]))
    assert 9.0 <= float(q.mean_x[0]) <= 13.0


def test_fit_track_runs_one_filter_and_smoother_pass(monkeypatch):
    # both coordinates share the covariance recursion, so one filter pass
    # and one smoother pass serve the whole track, and queries run neither
    calls = []

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(gp, "_kalman_filter",
                        counting("filter", gp._kalman_filter))
    monkeypatch.setattr(gp, "_rts_smoother",
                        counting("smoother", gp._rts_smoother))
    s = make_trajectory([1.0, 2.0, 4.0], [0.0, 60.0, 600.0], sigmas=3.0,
                        ys=[5.0, 3.0, 0.0])
    track = fit_track(s, GpConfig(sigma_f=100.0), length_scale=1.0)
    track.query(np.linspace(-600.0, 1200.0, 40))
    assert calls == ["filter", "smoother"]


def test_each_channel_solves_alone():
    # a channel's mean is bitwise the same whether or not it shares the
    # factorization with another channel
    rng = np.random.default_rng(4)
    ts = np.sort(rng.uniform(0, 2 * HOUR, 15))
    xs, ys = rng.normal(0, 80, 15), rng.normal(0, 80, 15)
    sig = rng.uniform(1, 10, 15)
    q = np.linspace(0, 2 * HOUR, 25)
    both = lone_gp(ts, [xs, ys], sig, 300.0, 0.8)
    (mx, my), var = both.predict(q)
    for values, mean in ((xs, mx), (ys, my)):
        alone = lone_gp(ts, [values], sig, 300.0, 0.8)
        (m,), v = alone.predict(q)
        assert np.array_equal(m, mean)
        assert np.array_equal(v, var)


def test_non_finite_sigma_raises_named_error():
    ts = np.array([0.0, 60.0, 120.0])
    xs = np.array([1.0, 2.0, 4.0])
    cfg = GpConfig(sigma_f=100.0)
    for bad in (np.nan, np.inf):
        sig = np.array([3.0, bad, 3.0])
        for build in (
                lambda: lone_gp(ts, [xs], sig, 100.0, 1.0,
                                trajectory_id="doomed"),
                lambda: log_marginal_likelihood(ts, [xs], sig, cfg, 1.0,
                                                "doomed"),
                lambda: train_length_scale(ts, [xs], sig, cfg,
                                           trajectory_id="doomed")):
            with pytest.raises(GpNumericalError) as err:
                build()
            assert err.value.trajectory_id == "doomed"
            assert "doomed" in str(err.value)


def test_decreasing_times_raise():
    ts = np.array([0.0, 60.0, 30.0])
    xs = np.array([1.0, 2.0, 4.0])
    sig = np.full(3, 3.0)
    cfg = GpConfig(sigma_f=100.0)
    with pytest.raises(ValueError):
        lone_gp(ts, [xs], sig, 100.0, 1.0)
    with pytest.raises(ValueError):
        log_marginal_likelihood(ts, [xs], sig, cfg, 1.0)
    with pytest.raises(ValueError):
        train_length_scale(ts, [xs], sig, cfg)


def test_variance_floor():
    # near-duplicate ultra-precise points push the variance to the floor
    s = make_trajectory([0.0] * 5, [0.0] * 5, sigmas=1e-9)
    track = fit_track(s, GpConfig(sigma_f=10.0), length_scale=10.0)
    q = track.query(np.array([0.0]))
    assert float(q.var[0]) >= 1e-12 * 10.0 ** 2


# --- marginal likelihood and length-scale training ----------------------------

def direct_lml(ts, xs, sig, sigma_f, l):
    n = len(ts)
    K = matern32(ts[:, None] / HOUR, ts[None, :] / HOUR, sigma_f, l) \
        + np.diag(sig ** 2) + 1e-10 * sigma_f ** 2 * np.eye(n)
    sign, logdet = np.linalg.slogdet(K)
    assert sign > 0
    return float(-0.5 * xs @ np.linalg.solve(K, xs) - 0.5 * logdet
                 - 0.5 * n * math.log(2 * math.pi))


def test_log_marginal_likelihood_matches_direct_formula():
    rng = np.random.default_rng(12)
    ts = np.sort(rng.uniform(0, 2 * HOUR, 8))
    xs = rng.normal(0, 50, 8)
    ys = rng.normal(0, 50, 8)
    sig = rng.uniform(1, 5, 8)
    got = log_marginal_likelihood(ts, [xs, ys], sig, GpConfig(sigma_f=200.0),
                                  1.5)
    want = direct_lml(ts, xs, sig, 200.0, 1.5) \
        + direct_lml(ts, ys, sig, 200.0, 1.5)
    assert got == pytest.approx(want, rel=1e-10)


def dense_posterior_var(ts, sig, sigma_f, l, q):
    K = matern32(ts[:, None] / HOUR, ts[None, :] / HOUR, sigma_f, l) \
        + np.diag(sig ** 2) + 1e-10 * sigma_f ** 2 * np.eye(len(ts))
    ks = matern32(q[:, None] / HOUR, ts[None, :] / HOUR, sigma_f, l)
    v = np.linalg.solve(np.linalg.cholesky(K), ks.T)
    return np.maximum(sigma_f ** 2 - np.einsum("ij,ij->j", v, v),
                      1e-12 * sigma_f ** 2)


def test_state_space_matches_dense_oracle_at_scale():
    # A 1000-fix walk sampled every 5-25 s. At sigma_f = 7500 m and l = 10 h
    # the dense Gram matrix is conditioned badly enough that the np.linalg
    # oracle itself drifts by ~1e-9 relative, so the prior here is 1000 m.
    rng = np.random.default_rng(1000)
    n, sf = 1000, 1000.0
    ts = 8 * HOUR + np.cumsum(rng.uniform(5.0, 25.0, n))
    xs = np.cumsum(rng.normal(0.0, 8.0, n))
    ys = np.cumsum(rng.normal(0.0, 8.0, n))
    sig = rng.uniform(2.0, 10.0, n)
    grid = integration_grid(covering_day_start(ts[0]), IntegrationConfig(), ts)
    for l in (0.05, 1.0, 10.0):
        got = log_marginal_likelihood(ts, [xs, ys], sig, GpConfig(sigma_f=sf),
                                      l)
        want = direct_lml(ts, xs, sig, sf, l) + direct_lml(ts, ys, sig, sf, l)
        assert got == pytest.approx(want, rel=1e-9)
        _, var = lone_gp(ts, [xs, ys], sig, sf, l).predict(grid)
        dense = dense_posterior_var(ts, sig, sf, l, grid)
        gain = np.trapezoid(np.log2(sf ** 2) - np.log2(var), grid)
        dense_gain = np.trapezoid(np.log2(sf ** 2) - np.log2(dense), grid)
        assert gain == pytest.approx(dense_gain, rel=1e-8)


def test_zero_noise_duplicate_timestamps_match_dense_oracle():
    # fixes that share a timestamp and carry no noise of their own: a step
    # of zero length, kept well posed by the noise floor alone. The floor is
    # all that separates the duplicates' Gram rows, so the float64 oracle is
    # itself only good to ~1e-6 here (it misses a 50-digit evaluation by
    # 3.4e-7, the state-space route by 3e-13).
    ts = np.array([0.0, 300.0, 300.0, 300.0, 900.0, 900.0, 2000.0])
    xs = np.array([5.0, 7.0, 7.0, 7.001, -3.0, -3.0, 12.0])
    sig = np.zeros(7)
    got = log_marginal_likelihood(ts, [xs], sig, GpConfig(sigma_f=100.0), 1.0)
    assert math.isfinite(got)
    assert got == pytest.approx(direct_lml(ts, xs, sig, 100.0, 1.0), rel=1e-6)
    q = np.linspace(-600.0, 2600.0, 33)
    (mean,), var = lone_gp(ts, [xs], sig, 100.0, 1.0).predict(q)
    assert np.all(np.isfinite(mean)) and np.all(var > 0)
    assert np.allclose(var, dense_posterior_var(ts, sig, 100.0, 1.0, q),
                       rtol=1e-6)


def test_transition_matches_high_precision():
    # A(dt) and Q(dt) = P_inf - A P_inf A^T in closed form. Q's position
    # entry cancels to O(u^3) at small u = lam dt, where the float form
    # keeps only a few digits, and long gaps must neither overflow nor
    # leave anything but A = 0 and Q = P_inf.
    lam, var = 2.5, 7.0
    for u in (1e-7, 2e-4, 3e-3, 0.0999, 0.1, 0.7, 4.0, 60.0, 900.0):
        dt = u / lam
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            A, Q = gp._transition(np.array([dt]), lam, var)
        with localcontext() as ctx:
            ctx.prec = 50
            U, L, T, V = (Decimal(dt) * Decimal(lam), Decimal(lam),
                          Decimal(dt), Decimal(var))
            e, e2 = (-U).exp(), (-2 * U).exp()
            want_A = (e * (1 + U), e * T, -L * U * e, e * (1 - U))
            want_Q = (V * (1 - e2 * (1 + 2 * U + 2 * U * U)),
                      V * L * 2 * U * U * e2,
                      V * L * L * (1 - e2 * (1 - 2 * U + 2 * U * U)))
        for got, want in zip(A + Q, want_A + want_Q):
            assert float(got[0]) == pytest.approx(float(want), rel=1e-13,
                                                  abs=1e-300)


def test_grid_scan_lanes_match_single_scale_calls():
    # the length-scale scan runs every grid point as a lane of one pass
    rng = np.random.default_rng(21)
    ts, xs = sample_matern_path(rng, 150, l=0.7, sigma_f=300.0, noise=4.0)
    ys = xs[::-1] + rng.normal(0, 4.0, 150)
    ts[40:43] = ts[40]                                    # a duplicate run
    sig = rng.uniform(2.0, 8.0, 150)
    channels = [_linear_residuals(ts, xs), _linear_residuals(ts, ys)]
    grid = np.exp(np.linspace(math.log(0.01), math.log(10.0), 32))
    fixes = gp._track_inputs(Training(ts, channels, sig), 300.0 ** 2)
    lanes = gp._lane_lmls(gp._Lanes.of([fixes], np.zeros(32), gp.SQRT3 / grid,
                                       300.0 ** 2))
    for l, got in zip(grid, lanes):
        want = log_marginal_likelihood(ts, channels, sig,
                                       GpConfig(sigma_f=300.0), float(l))
        assert got == want


@st.composite
def ragged_trainings(draw):
    """A batch of trainings of 0 to 60 fixes, with repeated timestamps,
    zero-noise fixes, one or two channels, each detrended or not, and the
    config of the one prior scale they share."""
    cfg = GpConfig(sigma_f=draw(st.sampled_from([60.0, 7500.0])))
    batch = []
    for _ in range(draw(st.integers(1, 24))):
        n = draw(st.integers(0, 60))
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        ts = 3 * HOUR + np.cumsum(rng.exponential(900.0, n)
                                  * (rng.random(n) > 0.25))
        values = [np.cumsum(rng.normal(0.0, 40.0, n))
                  for _ in range(draw(st.sampled_from([1, 2])))]
        sigmas = np.where(rng.random(n) < 0.3, 0.0, rng.uniform(0, 20, n))
        values = [_linear_residuals(ts, v) if n and draw(st.booleans())
                  else v for v in values]
        batch.append(Training(ts, values, sigmas))
    return batch, cfg


@settings(max_examples=30, deadline=None)
@given(ragged_trainings())
def test_batched_trainings_equal_each_training_alone(batch_and_cfg):
    # a batch mixes its trainings' lanes in shared passes, numpy and float
    # alike; no lane may see another's arithmetic
    batch, cfg = batch_and_cfg
    for training, got in zip(batch, train_length_scales(batch, cfg)):
        assert got == train_length_scale(*training[:3], cfg)


def two_sided_query(coordinate_gp, times, means=True):
    """A fitted track's means and variance at ``times`` as every query once
    took them, kept as the oracle the sliced query is checked against.
    Each time propagates the filtered state at the last fix at or before
    it (the stationary prior before the first fix), then takes one RTS
    step to the smoothed state at the next fix; past the last fix that is
    a placeholder prior so far away (lam gap = 1000) that the RTS gain is
    0."""
    g = coordinate_gp
    q = np.atleast_1d(np.asarray(times, dtype=float))
    t, n, var, lam = g.times, g.n_train, g.sigma_f ** 2, g._lam
    if n == 0:
        return ([np.zeros(q.shape) for _ in range(g.channels)]
                if means else None, np.full(q.shape, var))
    (filtered_m, filtered_P), (smoothed_m, smoothed_P) = g._states
    prior_m = np.zeros((2, g.channels, 1))
    prior_P = np.array([[var], [0.0], [var * lam ** 2]])
    left_m = np.concatenate([prior_m, filtered_m], axis=2)
    left_P = np.concatenate([prior_P, filtered_P], axis=1)
    right_m = np.concatenate([smoothed_m, prior_m], axis=2)
    right_P = np.concatenate([smoothed_P, prior_P], axis=1)
    idx = np.searchsorted(t, q, side="right")
    gap_left = np.maximum(q - t[np.maximum(idx - 1, 0)], 0.0)
    gap_right = np.where(idx < n, t[np.minimum(idx, n - 1)] - q,
                         1e3 / lam * HOUR)
    A, Q = gp._transition(gap_left / HOUR, lam, var)
    P, _ = gp._propagate(tuple(left_P[:, idx]), A, Q)
    A_right, Q_right = gp._transition(gap_right / HOUR, lam, var)
    f, (P00,) = gp._rts_step(
        [gp._apply(A, tuple(left_m[:, :, idx]))] if means else [], P,
        A_right, Q_right, [tuple(right_m[:, :, idx])] if means else [],
        tuple(right_P[:, idx]), position_only=True)
    return list(f[0]) if means else None, np.maximum(P00, 1e-12 * var)


@settings(max_examples=40, deadline=None)
@given(ragged_trainings(), st.data())
def test_sliced_queries_equal_the_two_sided_oracle(batch_and_cfg, data):
    # times before, at, between and after the fixes, sorted or not, on
    # tracks of 0 to 60 fixes; each track has a twin of equal times and
    # other noise, without channels, and the two share their group when
    # they share a length scale
    batch, cfg = batch_and_cfg
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    requests = []
    for training in batch:
        scale = data.draw(st.sampled_from([0.05, 1.0, 10.0]))
        twin = training._replace(channels=[],
                                 sigmas=rng.permutation(training.sigmas))
        requests += [(training, scale),
                     (twin, data.draw(st.sampled_from([scale, 0.3])))]
    tracks = fit_tracks(requests, cfg)
    ts = np.concatenate([training.times for training in batch])
    lo, hi = (ts.min(), ts.max()) if ts.size else (0.0, HOUR)
    q = np.concatenate([ts, ts - 1.0, ts + 1.0, [lo - 10 * HOUR,
                                                 hi + 10 * HOUR],
                        rng.uniform(lo - 2 * HOUR, hi + 2 * HOUR, 50)])
    q = np.sort(q) if data.draw(st.booleans()) else rng.permutation(q)
    for track in tracks:
        means, var = two_sided_query(track.gp, q)
        got_means, got_var = track.gp.predict(q)
        assert len(got_means) == len(means) == track.gp.channels
        for got, want in zip(got_means, means):
            assert np.array_equal(got, want)
        assert np.array_equal(got_var, var)
        assert np.array_equal(track.query(q, means=False).var, var)
    for track, var in zip(tracks, gp.track_variances(tracks, q)):
        assert np.array_equal(var, two_sided_query(track.gp, q, False)[1])


def test_a_kept_pass_without_channels_steps_no_means(monkeypatch):
    # a voi track is fit for its variance alone: with no channels, the
    # numpy steps of its kept pass and the smoother run no mean recursion
    rng = np.random.default_rng(29)
    requests = []
    for n in rng.integers(20, 60, 2 * gp.FLOAT_LANES_BELOW).tolist():
        ts = np.sort(rng.uniform(0, 8 * HOUR, n))
        requests.append((Training(ts, [], rng.uniform(0, 9, n)),
                         float(rng.uniform(0.05, 5.0))))
    calls = {"_numpy_lanes": 0, "_mean_step": 0}

    def counted(name):
        real = getattr(gp, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(gp, name, wrapper)

    counted("_numpy_lanes")
    counted("_mean_step")
    fit_tracks(requests, GpConfig(sigma_f=500.0))
    assert calls == {"_numpy_lanes": 1, "_mean_step": 0}


def test_a_failing_training_raises_its_error():
    # a batch holding an unusable training raises; isolating the cells at
    # fault is the CLI's work
    rng = np.random.default_rng(12)
    ts = np.sort(rng.uniform(0, 6 * HOUR, 40))
    good = [Training(ts, [rng.normal(0, 50, 40)], np.full(40, 3.0))
            for _ in range(20)]
    huge = Training(ts, [ts], np.full(40, 1e200), "doomed")
    backwards = Training(ts[::-1], [ts], np.full(40, 3.0))
    cfg = GpConfig(sigma_f=300.0)
    with pytest.raises(GpNumericalError) as raised:
        train_length_scales(good[:10] + [huge] + good[10:], cfg)
    assert raised.value.trajectory_id == "doomed"
    with pytest.raises(ValueError, match="non-decreasing"):
        train_length_scales(good + [backwards], cfg)


def golden_grid(grid_size=32, bounds=(0.01, 10.0)):
    return np.exp(np.linspace(math.log(bounds[0]), math.log(bounds[1]),
                              grid_size))


def drive_golden_search(shape, seeded, grid_size=32, bounds=(0.01, 10.0)):
    """Run one golden-section search on the scores ``shape`` gives each log
    length scale, sending it the scores of the probes it asks for, and with
    ``seeded`` starting it with the scores of the top cell's pinned path, as
    a grid scan scores them. Returns the scale and every length scale it
    asked for, in order."""
    grid = golden_grid(grid_size, bounds)
    seen = {x: shape(x) for x in gp._top_path(grid)} if seeded else {}
    search = gp._golden_search(grid, np.array([shape(math.log(l))
                                               for l in grid]), bounds, seen)
    asked, got = [], None
    try:
        while True:
            needed = search.send(got)
            asked += needed
            got = [shape(math.log(l)) for l in needed]
    except StopIteration as done:
        return done.value, asked


GOLDEN_SHAPES = {
    "monotone up": lambda x: x,
    "monotone down": lambda x: -x,
    "interior peak": lambda x: -(x - 0.3) ** 2,
    "tie": lambda x: 1.0,
    # pinned-like at first, the peak sits inside the top grid cell, so the
    # pinned path "up" breaks part way
    "breaks mid-path": lambda x: -(x - (math.log(10.0) - 0.05)) ** 2,
}


@pytest.mark.parametrize("grid_size, bounds", [
    (2, (0.01, 10.0)), (32, (0.01, 10.0)),
    # top cells already narrower than the tolerance: no probe at all
    (2, (1.0, 1.0005)), (32, (1.0, 1.01))])
def test_top_path_is_what_a_pinned_search_asks_for(grid_size, bounds):
    # sent only its needed probes, a search pinned at the upper bound asks
    # for the path's probes, in order, as the same floats
    scale, asked = drive_golden_search(GOLDEN_SHAPES["monotone up"], False,
                                       grid_size, bounds)
    path = gp._top_path(golden_grid(grid_size, bounds))
    assert asked == [math.exp(x) for x in path]
    assert len(path) == len(set(path))
    assert bool(path) == (bounds[1] / bounds[0] > 1.001 ** (grid_size - 1))
    assert scale == bounds[1]
    # seeded with the path's scores, it asks for nothing
    assert drive_golden_search(GOLDEN_SHAPES["monotone up"], True,
                               grid_size, bounds) == (scale, [])


@pytest.mark.parametrize("name", GOLDEN_SHAPES)
def test_golden_search_lookahead_changes_no_decision(name):
    shape = GOLDEN_SHAPES[name]
    alone, asked = drive_golden_search(shape, seeded=False)
    seeded, rest = drive_golden_search(shape, seeded=True)
    assert seeded == alone
    # sent only its needed probes, a search asks for each once; seeded, it
    # asks for the same probes less those of the path
    assert len(asked) == len(set(asked))
    path = {math.exp(x) for x in gp._top_path(golden_grid())}
    assert rest == [l for l in asked if l not in path]
    if name == "monotone up":
        assert rest == []
    elif name == "breaks mid-path":
        # the path holds its probes until its first comparison down
        assert 0 < len(rest) < len(asked)
    else:
        # a search whose bracket is not the top cell never meets the path
        assert rest == asked


def pinned_walks(count, rng):
    """Trainings of slow Brownian walks with 3 m noise, which train to the
    10 h upper bound under sigma_f = 7500 m, as the suite's walks do."""
    out = []
    for _ in range(count):
        n = int(rng.integers(20, 80))
        ts = np.sort(rng.uniform(0, 2 * HOUR, n))
        steps = rng.normal(0, 0.3 * np.sqrt(np.diff(ts, prepend=ts[0])),
                           (2, n))
        out.append(Training(ts, list(np.cumsum(steps, axis=1)),
                            np.full(n, 3.0)))
    return out


def count_passes(monkeypatch):
    """Record the lane count of every evidence pass."""
    passes = []
    real = gp._lane_lmls

    def counted(lanes):
        passes.append(lanes.track.size)
        return real(lanes)

    monkeypatch.setattr(gp, "_lane_lmls", counted)
    return passes


def test_pinned_trainings_take_one_pass(monkeypatch):
    # the grid scan also scores the top cell's pinned path, 13 probes for
    # the [grid[30], grid[31]] bracket (0.618^12 x 0.223 < 1e-3), so a
    # pinned search closes in that pass, whatever the batch's width
    cfg = GpConfig()
    path = gp._top_path(golden_grid())
    assert len(path) == 13
    passes = count_passes(monkeypatch)
    for count in (1, gp.FLOAT_LANES_BELOW - 1, gp.FLOAT_LANES_BELOW, 40):
        passes.clear()
        batch = pinned_walks(count, np.random.default_rng(count))
        assert train_length_scales(batch, cfg) \
            == [cfg.length_scale_bounds[1]] * count
        assert passes == [count * (cfg.grid_size + len(path))]
    passes.clear()
    # nothing to train makes no pass
    fit_tracks([(batch[0], 1.0), (Training([], [], []), None)], cfg)
    assert passes == []


def test_interior_trainings_in_a_wide_batch_equal_each_alone(monkeypatch):
    # searches whose best grid point is interior predict no path: each
    # decides as it would alone, and scores no probe it does not compare
    rng = np.random.default_rng(40)
    batch = []
    for l in np.exp(rng.uniform(math.log(0.1), math.log(2.0), 14)):
        ts, xs = sample_matern_path(rng, int(rng.integers(30, 90)), l=l,
                                    sigma_f=100.0, noise=2.0)
        batch.append(Training(ts, [xs], np.full(ts.size, 2.0)))
    cfg = GpConfig(sigma_f=100.0)
    passes = count_passes(monkeypatch)
    got = train_length_scales(batch, cfg)
    lo, hi = cfg.length_scale_bounds
    assert all(lo < l < hi for l in got)
    # a two-cell bracket (log width 0.446) takes 13 rounds, 14 probes
    assert sum(passes[1:]) == 14 * len(batch)
    monkeypatch.undo()
    for training, l in zip(batch, got):
        assert l == train_length_scale(*training[:3], cfg)


def lone_track_lml(fixes, lam, var):
    """The log evidence of one track at one scale, its filter written out
    on floats, each sum of terms accumulated in fix order."""
    dt, noise, resids = fixes
    A, Q = gp._transition(dt, lam, var)
    p00, p01, p11 = var, 0.0, var * lam * lam
    S, K0, K1 = [], [], []
    for a00, a01, a10, a11, q00, q01, q11, r in zip(
            *[x.tolist() for x in A + Q], noise.tolist()):
        t00, t01 = a00 * p00 + a01 * p01, a00 * p01 + a01 * p11
        t10, t11 = a10 * p00 + a11 * p01, a10 * p01 + a11 * p11
        p00 = t00 * a00 + t01 * a01 + q00
        p01 = t00 * a10 + t01 * a11 + q01
        p11 = t10 * a10 + t11 * a11 + q11
        s = p00 + r
        k0, k1 = p00 / s, p01 / s
        p00, p01, p11 = k0 * r, p01 * (r / s), p11 - k1 * p01
        S.append(s)
        K0.append(k0)
        K1.append(k1)
    V = []
    for y in resids.tolist():
        f = d = 0.0
        V.append([])
        for a00, a01, a10, a11, k0, k1, yk in zip(
                *[x.tolist() for x in A], K0, K1, y):
            f, d = a00 * f + a01 * d, a10 * f + a11 * d
            V[-1].append(yk - f)
            f, d = f + k0 * V[-1][-1], d + k1 * V[-1][-1]
    S, V = np.array(S), np.array(V).reshape(len(resids), len(S))
    logs = np.add.accumulate(np.log(2.0 * math.pi * S))[-1]
    quads = np.add.accumulate(V * V / S, axis=-1)[:, -1]
    return -0.5 * (len(resids) * logs + quads.sum(axis=0))


def test_lanes_match_a_lone_float_filter(monkeypatch):
    # ragged lanes over many tracks, numpy steps and a float tail: the 4
    # lanes of the one longest track finish on floats from step 300, going
    # on with the sums the numpy steps began, and each lane sums in fix
    # order exactly as a lone track does
    rng = np.random.default_rng(5)
    tracks, track, lams = [], [], []
    for k, n in enumerate([1, 2, 7, 8, 9, 100, 128, 129, 300] * 3 + [320]):
        ts = np.sort(rng.uniform(0, 9 * HOUR, n))
        ts[n // 3:n // 3 + 3] = ts[n // 3]
        values = [np.cumsum(rng.normal(0, 40, n)) for _ in range(1 + k % 2)]
        tracks.append(gp._track_inputs(
            Training(ts, values, rng.uniform(0, 9, n)), 800.0 ** 2))
        for l in rng.uniform(0.02, 8.0, 4):
            track.append(k)
            lams.append(gp.SQRT3 / l)
    starts = []
    real = gp._float_lane

    def spied(run, i, fixes, lam, var, start=0, state=None):
        starts.append(start)
        return real(run, i, fixes, lam, var, start, state)

    monkeypatch.setattr(gp, "_float_lane", spied)
    got = gp._lane_lmls(gp._Lanes.of(tracks, track, lams, 800.0 ** 2))
    assert starts == [300] * 4
    for k, lam, lml in zip(track, lams, got):
        assert lml == lone_track_lml(tracks[k], lam, 800.0 ** 2)


def test_an_evidence_pass_is_one_filter_call(monkeypatch):
    # 45 lanes of 1,600 fixes each (72,000 lane-fixes) keep only running
    # sums, so they run as one pass however many fixes they span
    rng = np.random.default_rng(12)
    tracks = []
    for k in range(3):
        ts = np.sort(rng.uniform(0, 40 * HOUR, 1600))
        values = [np.cumsum(rng.normal(0, 40, 1600)) for _ in range(1 + k % 2)]
        tracks.append(gp._track_inputs(
            Training(ts, values, rng.uniform(0, 9, 1600)), 800.0 ** 2))
    track = np.repeat(np.arange(3), 15)
    lams = gp.SQRT3 / np.exp(rng.uniform(math.log(0.01), math.log(10.0), 45))
    calls = []
    real = gp._kalman_filter

    def counted(lanes, keep=False):
        calls.append(lanes.track.size)
        return real(lanes, keep)

    monkeypatch.setattr(gp, "_kalman_filter", counted)
    got = gp._lane_lmls(gp._Lanes.of(tracks, track, lams, 800.0 ** 2))
    assert calls == [45]
    for k, lam, lml in zip(track, lams, got):
        assert lml == lone_track_lml(tracks[k], lam, 800.0 ** 2)


def test_a_smoother_pass_is_one_filter_call(monkeypatch):
    # one long track and 60 short ones: a kept pass stores only the lanes
    # running at each step, so all 61 lanes run as one pass whose state
    # arrays hold exactly their fixes, with no padding to the longest
    rng = np.random.default_rng(25)
    requests = []
    for n in [2000] + rng.integers(1, 9, 60).tolist():
        ts = np.sort(rng.uniform(0, 30 * HOUR, n))
        ts[n // 2:n // 2 + 2] = ts[n // 2]
        channels = [np.cumsum(rng.normal(0, 40, n)) for _ in range(2)]
        requests.append((Training(ts, channels, rng.uniform(0, 9, n)),
                         float(rng.uniform(0.05, 5.0))))
    kept = []
    real = gp._kalman_filter

    def spied(lanes, keep=False):
        run = real(lanes, keep)
        if keep:
            kept.append(run)
        return run

    monkeypatch.setattr(gp, "_kalman_filter", spied)
    tracks = fit_tracks(requests, GpConfig(sigma_f=800.0))
    assert len(kept) == 1
    run = kept[0]
    fixes = sum(np.size(training.times) for training, _ in requests)
    assert run.AQ.shape == (7, fixes)
    assert run.P.shape == (3, fixes)
    assert run.M.shape == (2, 2, fixes)
    monkeypatch.undo()
    q = np.linspace(-HOUR, 31 * HOUR, 400)
    for (training, l), track in zip(requests, tracks):
        (mx, my), var = lone_gp(*training[:3], 800.0, l).predict(q)
        got = track.query(q)
        assert np.array_equal(got.mean_x, mx)
        assert np.array_equal(got.mean_y, my)
        assert np.array_equal(got.var, var)


def test_batched_tracks_predict_like_lone_tracks():
    # enough tracks that the batch filters and smooths them with numpy
    # steps, where a lone track runs on floats
    rng = np.random.default_rng(33)
    requests, q = [], np.linspace(-HOUR, 9 * HOUR, 700)
    for n in [1, 2, 3, 5, 8, 13, 21, 34, 55, 80] * 2:
        ts = np.sort(rng.uniform(0, 8 * HOUR, n))
        ts[n // 2:n // 2 + 2] = ts[n // 2]
        s = make_trajectory(rng.normal(0, 100, n), ts,
                            sigmas=rng.uniform(0, 10, n),
                            ys=rng.normal(0, 100, n))
        channels = [_linear_residuals(ts, s.x), s.y]
        requests.append((Training(ts, channels, s.sigma),
                         float(rng.uniform(0.05, 5.0))))
    tracks = fit_tracks(requests, GpConfig(sigma_f=500.0))
    for (training, l), track in zip(requests, tracks):
        alone = lone_gp(*training[:3], 500.0, l)
        (mx, my), var = alone.predict(q)
        got = track.query(q)
        assert np.array_equal(got.mean_x, mx)
        assert np.array_equal(got.mean_y, my)
        assert np.array_equal(got.var, var)
        assert np.array_equal(track.query(q, means=False).var, var)


@pytest.mark.parametrize("copies", [1, 4])
def test_tracks_without_channels_have_the_same_variance(copies):
    # the variance never reads the coordinates, so tracks fit without
    # channels have bitwise the variance of the same tracks fit with two:
    # 4 lanes run on floats throughout, 16 on numpy steps first
    rng = np.random.default_rng(21)
    q = np.linspace(-HOUR, 9 * HOUR, 500)
    two, none = [], []
    for n in [0, 1, 2, 6, 40] * copies:
        ts = np.sort(rng.uniform(0, 8 * HOUR, n))
        ts[n // 2:n // 2 + 3] = ts[n // 2] if n else ts
        sigmas = rng.uniform(0, 10, n)
        l = float(rng.uniform(0.05, 5.0))
        channels = [rng.normal(0, 100, n), rng.normal(0, 100, n)]
        two.append((Training(ts, channels, sigmas), l))
        none.append((Training(ts, [], sigmas), l))
    assert (4 * copies < gp.FLOAT_LANES_BELOW) == (copies == 1)
    cfg = GpConfig(sigma_f=500.0)
    for with_channels, without in zip(fit_tracks(two, cfg),
                                      fit_tracks(none, cfg)):
        assert np.array_equal(without.query(q, means=False).var,
                              with_channels.query(q, means=False).var)


def sample_matern_path(rng, n, l, sigma_f, noise):
    ts = np.sort(rng.uniform(0, 12 * HOUR, n))
    th = ts / HOUR
    K = matern32(th[:, None], th[None, :], sigma_f, l) + 1e-9 * np.eye(n)
    xs = np.linalg.cholesky(K) @ rng.standard_normal(n)
    return ts, xs + rng.normal(0, noise, n)


def test_length_scale_recovery():
    rng = np.random.default_rng(2024)
    ts, xs = sample_matern_path(rng, 200, l=1.0, sigma_f=100.0, noise=1.0)
    sig = np.full(200, 1.0)
    l = train_length_scale(ts, [xs], sig, GpConfig(sigma_f=100.0))
    assert 0.5 <= l <= 2.0


def test_length_scale_fallback_below_two_points():
    l = train_length_scale(np.array([0.0]), [np.array([5.0])],
                           np.array([3.0]), GpConfig(sigma_f=100.0))
    assert l == pytest.approx(math.sqrt(0.1))


def test_length_scale_smooth_beats_jagged():
    # a slow sine saturates the search at the upper bound while white
    # noise at the same instants trains a much shorter interior scale
    rng = np.random.default_rng(77)
    ts = np.sort(rng.uniform(0, 5 * HOUR, 120))
    white = rng.normal(0, 50, 120)
    smooth = 5000.0 * np.sin(2 * np.pi * ts / (10 * HOUR))
    sig = np.full(120, 3.0)
    cfg = GpConfig(sigma_f=7500.0)
    l_white = train_length_scale(ts, [white], sig, cfg)
    l_smooth = train_length_scale(ts, [smooth], sig, cfg)
    lo, hi = cfg.length_scale_bounds
    assert l_smooth == pytest.approx(hi, rel=1e-6)
    assert lo <= l_white < l_smooth / 10


def test_trained_scale_beats_every_grid_point():
    rng = np.random.default_rng(31)
    ts, xs = sample_matern_path(rng, 60, l=0.4, sigma_f=50.0, noise=2.0)
    sig = np.full(60, 2.0)
    cfg = GpConfig(sigma_f=50.0)
    l = train_length_scale(ts, [xs], sig, cfg)
    best = log_marginal_likelihood(ts, [xs], sig, cfg, l)
    lo, hi = cfg.length_scale_bounds
    for g in np.exp(np.linspace(math.log(lo), math.log(hi), 32)):
        assert best >= log_marginal_likelihood(ts, [xs], sig, cfg,
                                               float(g)) - 1e-9


def test_fit_track_trains_jointly_when_scale_unset():
    rng = np.random.default_rng(8)
    ts, xs = sample_matern_path(rng, 80, l=1.0, sigma_f=100.0, noise=1.0)
    _, ys = sample_matern_path(np.random.default_rng(9), 80, l=1.0,
                               sigma_f=100.0, noise=1.0)
    s = make_trajectory(xs, ts, sigmas=1.0, ys=ys[:80])
    track = fit_track(s, GpConfig(sigma_f=100.0))
    joint = train_length_scale(ts, [xs, ys], np.full(80, 1.0),
                               GpConfig(sigma_f=100.0))
    assert track.gp.length_scale == joint


def test_fit_tracks_takes_the_prior_scale_from_the_config():
    # the prior variance is stated once, in GpConfig: a track without fixes
    # is N(0, sigma_f^2), a track with fixes is the dense posterior at that
    # sigma_f, and an untrained scale is trained under it
    rng = np.random.default_rng(6)
    ts = np.sort(rng.uniform(0, 2 * HOUR, 12))
    sig = rng.uniform(1, 5, 12)
    training = Training(ts, [rng.normal(0, 30, 12)], sig)
    none = np.empty(0)
    q = np.linspace(-HOUR, 3 * HOUR, 40)
    for sf in (50.0, 900.0):
        cfg = GpConfig(sigma_f=sf)
        prior, fixed, trained = fit_tracks(
            [(Training(none, [none], none), None), (training, 0.7),
             (training, None)], cfg)
        (mean,), var = prior.gp.predict(q)
        assert np.array_equal(mean, np.zeros(q.size))
        assert np.array_equal(var, np.full(q.size, sf ** 2))
        assert np.allclose(fixed.query(q, means=False).var,
                           dense_posterior_var(ts, sig, sf, 0.7, q),
                           rtol=1e-8)
        assert trained.gp.length_scale \
            == train_length_scale(*training[:3], cfg)


def test_gp_config_validation():
    with pytest.raises(ValueError):
        GpConfig(sigma_f=0.0)
    with pytest.raises(ValueError):
        GpConfig(sigma_f=math.inf)
    with pytest.raises(ValueError):
        GpConfig(length_scale_bounds=(1.0, 0.5))
    with pytest.raises(ValueError):
        GpConfig(length_scale_bounds=(1.0, math.inf))
