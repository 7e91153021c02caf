"""Size, duration, distance, grid entropies, per-point sum, correctness."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from synth import DAY_START, HOUR, make_trajectory
from trajvoi.baselines import (BASELINE_CSV_FIELDS, EntropyGridConfig,
                               SppConfig, baseline_row, correctness_value,
                               duration, size, spatial_entropy, spp_value,
                               temporal_entropy, travel_distance)
from trajvoi.degrade import perturb
from trajvoi.infogain import PriorKnowledge


def test_size_and_duration():
    s = make_trajectory([0.0, 1.0, 2.0], [0.0, 100.0, 600.0])
    assert size(s) == 3
    assert duration(s) == 600.0
    singleton = make_trajectory([0.0], [5.0])
    assert size(singleton) == 1
    assert duration(singleton) == 0.0


def test_duration_invariant_under_perturbation():
    s = make_trajectory([0.0, 1.0], [0.0, 600.0], sigmas=3.0)
    assert duration(perturb(s, 100.0, seed=1)) == duration(s)
    assert size(perturb(s, 100.0, seed=1)) == size(s)


def test_travel_distance_345():
    s = make_trajectory([0.0, 3.0], [0.0, 1.0], ys=[0.0, 4.0])
    assert travel_distance(s) == pytest.approx(5.0)
    assert travel_distance(make_trajectory([9.0], [0.0])) == 0.0


def test_travel_distance_collinear_steps():
    xs = np.arange(6) * 10.0
    s = make_trajectory(xs, np.arange(6.0))
    assert travel_distance(s) == pytest.approx(50.0)


# --- spatial entropy ---------------------------------------------------------

def test_spatial_entropy_single_cell():
    s = make_trajectory([1.0, 2.0, 3.0], [0.0, 1.0, 2.0])  # all in cell 0
    assert spatial_entropy(s) == 0.0


def test_spatial_entropy_uniform_four_cells():
    s = make_trajectory([5.0, 15.0, 25.0, 35.0], np.arange(4.0))
    assert spatial_entropy(s) == pytest.approx(2.0)


def test_spatial_entropy_two_one_split():
    s = make_trajectory([1.0, 2.0, 15.0], [0.0, 1.0, 2.0])
    assert spatial_entropy(s) == pytest.approx(0.9182958340544896, abs=1e-12)


def test_spatial_entropy_bounded_by_log_size():
    rng = np.random.default_rng(4)
    s = make_trajectory(rng.uniform(-500, 500, 40), np.arange(40.0),
                        ys=rng.uniform(-500, 500, 40))
    assert spatial_entropy(s) <= math.log2(40) + 1e-12


@settings(max_examples=30, deadline=None)
@given(kx=st.integers(-50, 50), ky=st.integers(-50, 50))
def test_spatial_entropy_translation_by_cell_multiples(kx, ky):
    cfg = EntropyGridConfig(cell_size=10.0)
    xs = np.array([1.0, 14.0, 27.0, 27.5])
    ys = np.array([3.0, 3.0, 88.0, 3.0])
    s = make_trajectory(xs, np.arange(4.0), ys=ys)
    shifted = make_trajectory(xs + 10.0 * kx, np.arange(4.0), ys=ys + 10.0 * ky)
    assert spatial_entropy(shifted, cfg) == spatial_entropy(s, cfg)


def test_perturbation_does_not_reduce_median_spatial_entropy():
    # noise spreads a tight cluster over more cells (the known defect of
    # entropy as a value measure: noisier data scores at least as high)
    s = make_trajectory(np.linspace(0.0, 4.0, 30), np.arange(30.0),
                        trajectory_id="tight")
    base = spatial_entropy(s)
    noisy = [spatial_entropy(perturb(s, 100.0, seed=k)) for k in range(31)]
    assert np.median(noisy) >= base


# --- temporal entropy --------------------------------------------------------

def test_temporal_entropy_singleton():
    assert temporal_entropy(make_trajectory([0.0], [123.0])) == 0.0


def test_temporal_entropy_uniform_six_bins():
    s = make_trajectory(np.zeros(6), DAY_START + 60.0 * np.arange(6))
    assert temporal_entropy(s) == pytest.approx(math.log2(6))


def test_temporal_entropy_three_one_split():
    # bins anchored at the first timestamp: three in the first minute,
    # one in the next
    s = make_trajectory(np.zeros(4), [0.0, 10.0, 50.0, 70.0])
    assert temporal_entropy(s) == pytest.approx(0.8112781244591328, abs=1e-12)


def test_temporal_entropy_anchoring_is_relative():
    ts = np.array([0.0, 10.0, 50.0, 70.0])
    a = make_trajectory(np.zeros(4), ts)
    b = make_trajectory(np.zeros(4), ts + 12345.0)
    assert temporal_entropy(a) == temporal_entropy(b)


# --- summed per-point value ---------------------------------------------------

def test_spp_no_decay_at_zero_sigma():
    s = make_trajectory(np.zeros(7), np.arange(7.0), sigmas=0.0)
    assert spp_value(s) == pytest.approx(7.0)


def test_spp_at_reference_sigma():
    s = make_trajectory(np.zeros(10), np.arange(10.0), sigmas=100.0)
    assert spp_value(s, SppConfig(v0=1.0, sigma_ref=100.0)) \
        == pytest.approx(10.0 / math.e)


def test_spp_strictly_decreases_with_noise():
    s = make_trajectory(np.zeros(5), np.arange(5.0), sigmas=3.0)
    assert spp_value(perturb(s, 50.0, seed=0)) < spp_value(s)


# --- correctness -------------------------------------------------------------

def test_correctness_degenerate_self_reconstruction():
    rng = np.random.default_rng(6)
    ts = DAY_START + np.sort(rng.uniform(0, HOUR, 20))
    s = make_trajectory(rng.normal(0, 10, 20), ts, sigmas=3.0)
    res = correctness_value(s, s, PriorKnowledge.uninformative())
    assert 0.0 <= res.expected_error_m < 30.0


def test_correctness_half_trajectory_scores_worse():
    rng = np.random.default_rng(7)
    ts = DAY_START + np.sort(rng.uniform(0, 2 * HOUR, 40))
    s = make_trajectory(np.cumsum(rng.normal(0, 5, 40)), ts, sigmas=3.0)
    half = make_trajectory([p.x for p in s.points[:20]],
                           [p.t for p in s.points[:20]], sigmas=3.0,
                           trajectory_id=s.trajectory_id)
    full = correctness_value(s, s, PriorKnowledge.uninformative())
    part = correctness_value(half, s, PriorKnowledge.uninformative())
    assert part.expected_error_m > full.expected_error_m


def test_correctness_far_data_dominated_by_prior_distance():
    # reconstruction data far (in time) from the raw points: the posterior
    # reverts to the prior mean there, so the error is set by the distance
    # between the raw points and that mean
    raw = make_trajectory([5000.0, 5000.0],
                          [DAY_START + 10 * HOUR, DAY_START + 10.1 * HOUR],
                          sigmas=3.0, trajectory_id="far")
    z = make_trajectory([0.0], [DAY_START], sigmas=3.0, trajectory_id="far")
    res = correctness_value(z, raw, PriorKnowledge.uninformative())
    assert res.expected_error_m > 5000.0


# --- row assembly ------------------------------------------------------------

def test_baseline_row_keys_match_csv_header():
    s = make_trajectory([0.0, 15.0], [0.0, 60.0])
    row = baseline_row(s)
    assert tuple(row) == BASELINE_CSV_FIELDS
    assert row["size"] == 2
    assert row["duration_s"] == 60.0
    assert row["correctness_err_m"] == ""


def test_baseline_row_singleton():
    s = make_trajectory([0.0], [0.0])
    row = baseline_row(s)
    assert row["size"] == 1
    assert row["duration_s"] == 0.0
    assert row["distance_m"] == 0.0
    assert row["h_spatial_bits"] == 0.0
    assert row["h_temporal_bits"] == 0.0


def test_entropy_grid_validation():
    with pytest.raises(ValueError):
        EntropyGridConfig(cell_size=0.0)
    with pytest.raises(ValueError):
        SppConfig(sigma_ref=-1.0)
