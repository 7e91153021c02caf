"""Degradation operators: noise law, truncation, nested subsampling."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from synth import fixes, make_trajectory
from trajvoi.degrade import (DegradationSpec, apply_spec, kept_fixes, perturb,
                             subsample, truncate)


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
    assert np.array_equal(z.x, s.x) and np.array_equal(z.y, s.y)
    assert np.array_equal(z.t, s.t)
    assert np.all(z.sigma == 3.0)


def test_perturb_3_4_5_noise_law():
    s = walk(sigma=3.0)
    z5 = perturb(s, 5.0, seed=11)       # added std sqrt(25 - 9) = 4
    z_big = perturb(s, np.sqrt(9.0 + 64.0), seed=11)  # added std 8
    assert np.all(z5.sigma == 5.0)
    d5 = z5.x - s.x
    d8 = z_big.x - s.x
    # identical seed means identical standard-normal draws, so the offsets
    # scale exactly with the added-noise standard deviation: 8 = 2 * 4
    assert np.allclose(d8, 2.0 * d5, rtol=1e-12, atol=0.0)
    assert not np.allclose(d5, 0.0)


def test_perturb_monte_carlo_offset_std():
    s = make_trajectory([0.0], [0.0], sigmas=3.0, trajectory_id="mc")
    total = np.sqrt(3.0 ** 2 + 100.0 ** 2)   # added noise exactly 100
    offsets = [perturb(s, total, seed=k).x[0] for k in range(10000)]
    assert 97.0 <= np.std(offsets) <= 103.0


def test_perturb_rejects_total_noise_below_existing_sigma():
    s = walk(sigma=3.0)
    with pytest.raises(ValueError):
        perturb(s, 2.0, seed=0)


def test_perturb_preserves_timestamps_and_size():
    s = walk()
    z = perturb(s, 50.0, seed=3)
    assert len(z) == len(s)
    assert np.array_equal(z.t, s.t)


def test_perturb_streams_differ_by_trajectory_id():
    a = walk(trajectory_id="a")
    b = walk(trajectory_id="b")
    za = perturb(a, 50.0, seed=0)
    zb = perturb(b, 50.0, seed=0)
    assert not np.array_equal(za.x, zb.x)


# --- truncation --------------------------------------------------------------

def test_truncate_keeps_first_fraction():
    s = walk(n=100)
    z = truncate(s, 0.2)
    assert fixes(z) == fixes(s)[:20]


def test_truncate_clamps_to_one():
    s = walk(n=3)
    z = truncate(s, 0.05)
    assert fixes(z) == fixes(s)[:1]


def test_truncate_ratio_one_is_identity():
    s = walk(n=17)
    assert fixes(truncate(s, 1.0)) == fixes(s)


# --- subsampling -------------------------------------------------------------

def test_subsample_ratio_one_is_identity():
    s = walk(n=25)
    assert fixes(subsample(s, 1.0, seed=0)) == fixes(s)


def test_subsample_count_concentrates():
    s = walk(n=10000)
    z = subsample(s, 0.4, seed=1)
    assert 3800 <= len(z) <= 4200


def test_subsample_retains_at_least_one():
    s = walk(n=4)
    z = subsample(s, 1e-9, seed=5)
    assert len(z) == 1
    assert fixes(z)[0] in fixes(s)


def test_subsample_nesting_fixed_pair():
    s = walk(n=200)
    for seed in range(10):
        small = set(fixes(subsample(s, 0.2, seed)))
        large = set(fixes(subsample(s, 0.8, seed)))
        assert small <= large


@settings(max_examples=50, deadline=None)
@given(r1=st.floats(0.01, 0.99), r2=st.floats(0.01, 0.99),
       seed=st.integers(0, 2 ** 32))
def test_subsample_nesting_property(r1, r2, seed):
    s = walk(n=60)
    lo, hi = sorted([r1, r2])
    assert set(fixes(subsample(s, lo, seed))) \
        <= set(fixes(subsample(s, hi, seed)))


def test_subsample_preserves_order_and_values():
    s = walk(n=50)
    z = subsample(s, 0.5, seed=9)
    it = iter(fixes(s))
    for p in fixes(z):
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
    assert fixes(z1) == fixes(z2)


def test_apply_spec_dispatch():
    s = walk(n=10)
    assert len(apply_spec(s, DegradationSpec(kind="truncation", ratio=0.5))) == 5
    z = apply_spec(s, DegradationSpec(kind="subsampling", ratio=0.5, seed=1))
    assert 1 <= len(z) <= 10


@pytest.mark.parametrize("spec", [
    DegradationSpec(kind="identity"),
    DegradationSpec(kind="truncation", ratio=0.35),
    DegradationSpec(kind="truncation", ratio=0.001),
    DegradationSpec(kind="subsampling", ratio=0.35, seed=4),
    DegradationSpec(kind="subsampling", ratio=0.001, seed=4),
])
def test_apply_spec_takes_the_kept_fixes(spec):
    s = walk(n=40)
    index = kept_fixes(s, spec)
    assert fixes(apply_spec(s, spec)) == fixes(s.take(index))
    assert len(s.take(index)) >= 1


def test_kept_masks_nest_across_ratios():
    s = walk(n=300)
    for seed in range(5):
        masks = [kept_fixes(s, DegradationSpec(kind="subsampling", ratio=r,
                                               seed=seed))
                 for r in (0.05, 0.2, 0.4, 0.6, 0.8, 1.0)]
        for small, large in zip(masks, masks[1:]):
            assert not (small & ~large).any()
        assert masks[-1].all()
