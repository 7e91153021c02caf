"""Exact GP inference: kernel values, posterior algebra, length-scale training."""

import math

import numpy as np
import pytest
import scipy.linalg

import trajvoi.gp as gp
from synth import make_trajectory
from trajvoi.gp import (DEFAULT_LENGTH_SCALE_BOUNDS, GaussianTrack, GpConfig,
                        GpNumericalError, MeanFunction, fit_linear_mean,
                        fit_track, log_marginal_likelihood, matern32,
                        train_length_scale)

HOUR = 3600.0


# --- kernel ------------------------------------------------------------------

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

def test_fit_linear_mean_exact_line():
    m = fit_linear_mean(np.array([0.0, 1.0]), np.array([0.0, 2.0]))
    assert m.slope == pytest.approx(2.0)
    assert m.intercept == pytest.approx(0.0)


def test_fit_linear_mean_constant():
    m = fit_linear_mean(np.array([1.0, 2.0, 3.0]), np.array([5.0, 5.0, 5.0]))
    assert m.slope == 0.0
    assert m.intercept == pytest.approx(5.0)


def test_fit_linear_mean_three_points():
    m = fit_linear_mean(np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 4.0]))
    assert m.slope == pytest.approx(2.0, abs=1e-12)
    assert m.intercept == pytest.approx(-1.0 / 3.0, abs=1e-12)


def test_fit_linear_mean_degenerate():
    m = fit_linear_mean(np.array([3.0]), np.array([7.0]))
    assert (m.slope, m.intercept) == (0.0, 7.0)
    same_t = fit_linear_mean(np.array([2.0, 2.0]), np.array([1.0, 3.0]))
    assert same_t.slope == 0.0
    assert same_t.intercept == pytest.approx(2.0)
    with pytest.raises(ValueError):
        fit_linear_mean(np.array([]), np.array([]))


def test_mean_function_evaluates_at_seconds():
    m = MeanFunction(slope=2.0, intercept=1.0)
    assert m(np.array([0.0, 0.5, 2.0])) == pytest.approx([1.0, 2.0, 5.0])


# --- posterior ---------------------------------------------------------------

def test_empty_fit_is_the_prior():
    cfg = GpConfig(sigma_f=7500.0)
    track = fit_track([], cfg)
    q = track.query(np.array([0.0, 40000.0]))
    assert np.allclose(q.mean_x, 0.0)
    assert np.allclose(q.var, 7500.0 ** 2)
    assert track.gp.n_train == 0


def test_single_point_shrinkage():
    s = make_trajectory([100.0], [0.0], sigmas=3.0)
    track = fit_track(s.points, GpConfig(sigma_f=7500.0), length_scale=1.0)
    q = track.query(np.array([0.0]))
    assert 97.0 <= float(q.mean_x[0]) <= 103.0
    assert float(q.var[0]) < 3.1 ** 2
    assert float(q.var[0]) < 0.001 * 7500.0 ** 2


def test_far_query_reverts_to_prior():
    s = make_trajectory([100.0], [0.0], sigmas=3.0)
    track = fit_track(s.points, GpConfig(sigma_f=7500.0), length_scale=0.5)
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
        track = fit_track(s.points, GpConfig(sigma_f=7500.0),
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
        track = fit_track(s.points, cfg, length_scale=l)
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
    fwd = fit_track(s.points, cfg, length_scale=1.0)
    rev = fit_track(s_rev.points, cfg, length_scale=1.0)
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
    a = fit_track(s.points, cfg, length_scale=0.7)
    b = fit_track(swapped.points, cfg, length_scale=0.7)
    q = np.linspace(0, HOUR, 30)
    qa, qb = a.query(q), b.query(q)
    assert np.array_equal(qa.mean_x, qb.mean_y)
    assert np.array_equal(qa.var, qb.var)
    assert np.array_equal(qa.mean_y, qb.mean_x)


def test_duplicate_timestamps_are_fine():
    # white noise keeps the Gram matrix well conditioned at repeated inputs
    s = make_trajectory([10.0, 12.0, 11.0], [500.0, 500.0, 500.0], sigmas=3.0)
    track = fit_track(s.points, GpConfig(sigma_f=100.0), length_scale=1.0)
    q = track.query(np.array([500.0]))
    assert 9.0 <= float(q.mean_x[0]) <= 13.0


def test_fit_track_factorizes_once(monkeypatch):
    # both coordinates share the training covariance, so one Cholesky
    # factorization serves the whole track
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return scipy.linalg.cho_factor(*args, **kwargs)

    monkeypatch.setattr(gp, "cho_factor", counting)
    s = make_trajectory([1.0, 2.0, 4.0], [0.0, 60.0, 600.0], sigmas=3.0,
                        ys=[5.0, 3.0, 0.0])
    fit_track(s.points, GpConfig(sigma_f=100.0), length_scale=1.0)
    assert len(calls) == 1


def test_each_channel_solves_alone():
    # a channel's mean is bitwise the same whether or not it shares the
    # factorization with another channel
    rng = np.random.default_rng(4)
    ts = np.sort(rng.uniform(0, 2 * HOUR, 15))
    xs, ys = rng.normal(0, 80, 15), rng.normal(0, 80, 15)
    sig = rng.uniform(1, 10, 15)
    q = np.linspace(0, 2 * HOUR, 25)
    both = gp.CoordinateGP(ts, [xs, ys], sig, [MeanFunction()] * 2, 300.0, 0.8)
    (mx, my), var = both.predict(q)
    for values, mean in ((xs, mx), (ys, my)):
        alone = gp.CoordinateGP(ts, [values], sig, [MeanFunction()], 300.0, 0.8)
        (m,), v = alone.predict(q)
        assert np.array_equal(m, mean)
        assert np.array_equal(v, var)


def test_cholesky_failure_raises_named_error(monkeypatch):
    def always_fail(*args, **kwargs):
        raise scipy.linalg.LinAlgError("forced")

    monkeypatch.setattr(gp, "cho_factor", always_fail)
    s = make_trajectory([1.0, 2.0], [0.0, 60.0], sigmas=3.0)
    with pytest.raises(GpNumericalError) as err:
        fit_track(s.points, GpConfig(sigma_f=100.0), length_scale=1.0,
                  trajectory_id="doomed")
    assert err.value.trajectory_id == "doomed"
    assert "doomed" in str(err.value)


def test_variance_floor():
    # near-duplicate ultra-precise points push the variance to the floor
    s = make_trajectory([0.0] * 5, [0.0] * 5, sigmas=1e-9)
    track = fit_track(s.points, GpConfig(sigma_f=10.0), length_scale=10.0)
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
    got = log_marginal_likelihood(ts, [xs, ys], sig,
                                  [MeanFunction(), MeanFunction()],
                                  200.0, 1.5)
    want = direct_lml(ts, xs, sig, 200.0, 1.5) \
        + direct_lml(ts, ys, sig, 200.0, 1.5)
    assert got == pytest.approx(want, rel=1e-10)


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
    l = train_length_scale(ts, [xs], sig, [MeanFunction()], 100.0)
    assert 0.5 <= l <= 2.0


def test_length_scale_fallback_below_two_points():
    l = train_length_scale(np.array([0.0]), [np.array([5.0])],
                           np.array([3.0]), [MeanFunction()], 100.0)
    assert l == pytest.approx(math.sqrt(0.1))


def test_length_scale_smooth_beats_jagged():
    # a slow sine saturates the search at the upper bound while white
    # noise at the same instants trains a much shorter interior scale
    rng = np.random.default_rng(77)
    ts = np.sort(rng.uniform(0, 5 * HOUR, 120))
    white = rng.normal(0, 50, 120)
    smooth = 5000.0 * np.sin(2 * np.pi * ts / (10 * HOUR))
    sig = np.full(120, 3.0)
    l_white = train_length_scale(ts, [white], sig, [MeanFunction()], 7500.0)
    l_smooth = train_length_scale(ts, [smooth], sig, [MeanFunction()], 7500.0)
    lo, hi = DEFAULT_LENGTH_SCALE_BOUNDS
    assert l_smooth == pytest.approx(hi, rel=1e-6)
    assert lo <= l_white < l_smooth / 10


def test_trained_scale_beats_every_grid_point():
    rng = np.random.default_rng(31)
    ts, xs = sample_matern_path(rng, 60, l=0.4, sigma_f=50.0, noise=2.0)
    sig = np.full(60, 2.0)
    mean_fns = [MeanFunction()]
    l = train_length_scale(ts, [xs], sig, mean_fns, 50.0)
    best = log_marginal_likelihood(ts, [xs], sig, mean_fns, 50.0, l)
    lo, hi = DEFAULT_LENGTH_SCALE_BOUNDS
    for g in np.exp(np.linspace(math.log(lo), math.log(hi), 32)):
        assert best >= log_marginal_likelihood(ts, [xs], sig, mean_fns,
                                               50.0, float(g)) - 1e-9


def test_fit_track_trains_jointly_when_scale_unset():
    rng = np.random.default_rng(8)
    ts, xs = sample_matern_path(rng, 80, l=1.0, sigma_f=100.0, noise=1.0)
    _, ys = sample_matern_path(np.random.default_rng(9), 80, l=1.0,
                               sigma_f=100.0, noise=1.0)
    s = make_trajectory(xs, ts, sigmas=1.0, ys=ys[:80])
    track = fit_track(s.points, GpConfig(sigma_f=100.0))
    joint = train_length_scale(ts, [xs, ys], np.full(80, 1.0),
                               [MeanFunction(), MeanFunction()], 100.0)
    assert track.gp.length_scale == joint


def test_gp_config_validation():
    with pytest.raises(ValueError):
        GpConfig(sigma_f=0.0)
    with pytest.raises(ValueError):
        GpConfig(length_scale_bounds=(1.0, 0.5))
