"""Degradation operators: noise law, truncation, nested subsampling."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from synth import make_trajectory
from trajvoi.degrade import (DegradationSpec, apply_spec, perturb, subsample,
                             truncate)


def walk(n=100, sigma=3.0, trajectory_id="w"):
    ts = np.arange(n) * 10.0
    xs = np.cumsum(np.random.default_rng(7).normal(0, 5, n))
    return make_trajectory(xs, ts, sigmas=sigma, trajectory_id=trajectory_id)


# --- spec validation ---------------------------------------------------------

def test_spec_validation():
    with pytest.raises(ValueError):
        DegradationSpec(kind="melt")
    with pytest.raises(ValueError):
        DegradationSpec(kind="perturbation")
    with pytest.raises(ValueError):
        DegradationSpec(kind="truncation", ratio=0.0)
    with pytest.raises(ValueError):
        DegradationSpec(kind="subsampling", ratio=1.5)
    assert DegradationSpec(kind="identity").param == 1.0
    assert DegradationSpec(kind="perturbation", total_noise=100.0).label() \
        == "perturbation:100"
    assert DegradationSpec(kind="truncation", ratio=0.05).label() \
        == "truncation:0.05"


# --- perturbation ------------------------------------------------------------

def test_perturb_zero_added_noise_is_identity_on_positions():
    s = walk(sigma=3.0)
    z = perturb(s, 3.0, seed=0)
    assert [(p.x, p.y, p.t) for p in z.points] \
        == [(p.x, p.y, p.t) for p in s.points]
    assert all(p.sigma == 3.0 for p in z.points)


def test_perturb_3_4_5_noise_law():
    s = walk(sigma=3.0)
    z5 = perturb(s, 5.0, seed=11)       # added std sqrt(25 - 9) = 4
    z_big = perturb(s, np.sqrt(9.0 + 64.0), seed=11)  # added std 8
    assert all(p.sigma == 5.0 for p in z5.points)
    d5 = np.array([q.x - p.x for p, q in zip(s.points, z5.points)])
    d8 = np.array([q.x - p.x for p, q in zip(s.points, z_big.points)])
    # identical seed means identical standard-normal draws, so the offsets
    # scale exactly with the added-noise standard deviation: 8 = 2 * 4
    assert np.allclose(d8, 2.0 * d5, rtol=1e-12, atol=0.0)
    assert not np.allclose(d5, 0.0)


def test_perturb_monte_carlo_offset_std():
    s = make_trajectory([0.0], [0.0], sigmas=3.0, trajectory_id="mc")
    total = np.sqrt(3.0 ** 2 + 100.0 ** 2)   # added noise exactly 100
    offsets = [perturb(s, total, seed=k).points[0].x for k in range(10000)]
    assert 97.0 <= np.std(offsets) <= 103.0


def test_perturb_rejects_total_noise_below_existing_sigma():
    s = walk(sigma=3.0)
    with pytest.raises(ValueError):
        perturb(s, 2.0, seed=0)


def test_perturb_preserves_timestamps_and_size():
    s = walk()
    z = perturb(s, 50.0, seed=3)
    assert len(z) == len(s)
    assert [p.t for p in z] == [p.t for p in s]


def test_perturb_streams_differ_by_trajectory_id():
    a = walk(trajectory_id="a")
    b = walk(trajectory_id="b")
    za = perturb(a, 50.0, seed=0)
    zb = perturb(b, 50.0, seed=0)
    assert [p.x for p in za.points] != [p.x for p in zb.points]


# --- truncation --------------------------------------------------------------

def test_truncate_keeps_first_fraction():
    s = walk(n=100)
    z = truncate(s, 0.2)
    assert z.points == s.points[:20]


def test_truncate_clamps_to_one():
    s = walk(n=3)
    z = truncate(s, 0.05)
    assert z.points == s.points[:1]


def test_truncate_ratio_one_is_identity():
    s = walk(n=17)
    assert truncate(s, 1.0).points == s.points


# --- subsampling -------------------------------------------------------------

def test_subsample_ratio_one_is_identity():
    s = walk(n=25)
    assert subsample(s, 1.0, seed=0).points == s.points


def test_subsample_count_concentrates():
    s = walk(n=10000)
    z = subsample(s, 0.4, seed=1)
    assert 3800 <= len(z) <= 4200


def test_subsample_retains_at_least_one():
    s = walk(n=4)
    z = subsample(s, 1e-9, seed=5)
    assert len(z) == 1
    assert z.points[0] in s.points


def test_subsample_nesting_fixed_pair():
    s = walk(n=200)
    for seed in range(10):
        small = set(subsample(s, 0.2, seed).points)
        large = set(subsample(s, 0.8, seed).points)
        assert small <= large


@settings(max_examples=50, deadline=None)
@given(r1=st.floats(0.01, 0.99), r2=st.floats(0.01, 0.99),
       seed=st.integers(0, 2 ** 32))
def test_subsample_nesting_property(r1, r2, seed):
    s = walk(n=60)
    lo, hi = sorted([r1, r2])
    assert set(subsample(s, lo, seed).points) \
        <= set(subsample(s, hi, seed).points)


def test_subsample_preserves_order_and_values():
    s = walk(n=50)
    z = subsample(s, 0.5, seed=9)
    it = iter(s.points)
    for p in z.points:
        # every retained point appears in the original, in order, unchanged
        while next(it) != p:
            pass


# --- apply_spec --------------------------------------------------------------

def test_apply_spec_identity_returns_input():
    s = walk()
    assert apply_spec(s, DegradationSpec(kind="identity")) is s


def test_apply_spec_deterministic():
    s = walk()
    spec = DegradationSpec(kind="perturbation", total_noise=100.0, seed=42)
    z1 = apply_spec(s, spec)
    z2 = apply_spec(s, spec)
    assert z1.points == z2.points


def test_apply_spec_dispatch():
    s = walk(n=10)
    assert len(apply_spec(s, DegradationSpec(kind="truncation", ratio=0.5))) == 5
    z = apply_spec(s, DegradationSpec(kind="subsampling", ratio=0.5, seed=1))
    assert 1 <= len(z) <= 10
