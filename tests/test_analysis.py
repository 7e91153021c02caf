"""Rank correlation, robust regression, and the join logic of the study."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trajvoi.analysis import (ConstantInputError, box_quartiles_csv,
                              correlation_study, correlations_csv,
                              histogram2d_csv, huber_fit, join_gains,
                              regression_lines_csv, spearman)
from trajvoi.infogain import VoiRow


# --- spearman ----------------------------------------------------------------

def test_spearman_monotone_is_one():
    xs = [1.0, 2.0, 3.0, 4.0]
    assert spearman(xs, [x ** 2 for x in xs]) == pytest.approx(1.0)


def test_spearman_reversed_is_minus_one():
    xs = [1.0, 5.0, 2.0, 9.0]
    assert spearman(xs, [-x for x in xs]) == pytest.approx(-1.0)


def test_spearman_pinned_value():
    # rank correlation of a double swap on five items, pinned by direct
    # evaluation: ranks are the values themselves, sum of squared rank
    # differences is 4, so rho = 1 - 6*4/(5*24) = 0.8
    assert spearman([1, 2, 3, 4, 5], [2, 1, 4, 3, 5]) == pytest.approx(0.8)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(2, 40))
def test_spearman_matches_scipy(data, n):
    # values drawn from a small pool, so that ties are common
    stats = pytest.importorskip("scipy.stats")
    pool = st.sampled_from([-2.5, -1.0, 0.0, 0.5, 3.0, 1e6]) | st.floats(
        -1e6, 1e6)
    xs = data.draw(st.lists(pool, min_size=n, max_size=n))
    ys = data.draw(st.lists(pool, min_size=n, max_size=n))
    if len(set(xs)) < 2 or len(set(ys)) < 2:
        return
    assert spearman(xs, ys) == pytest.approx(
        stats.spearmanr(xs, ys).statistic, rel=1e-12, abs=1e-12)


def test_spearman_errors():
    with pytest.raises(ConstantInputError):
        spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        spearman([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        spearman([1.0], [1.0])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=3, max_size=40,
                unique=True),
       st.data())
def test_spearman_invariant_under_increasing_transforms(xs, data):
    # integer draws keep values far enough apart that the transforms
    # below cannot collapse two of them to the same float
    ys = data.draw(st.lists(st.integers(-1000, 1000), min_size=len(xs),
                            max_size=len(xs), unique=True))
    base = spearman(xs, ys)
    assert spearman([3.0 * x + 7.0 for x in xs], ys) == pytest.approx(base)
    assert spearman(xs, [np.arctan(y) for y in ys]) == pytest.approx(base)


# --- huber -------------------------------------------------------------------

def test_huber_recovers_exact_line():
    xs = np.arange(10.0)
    fit = huber_fit(xs, 3.0 * xs - 2.0)
    assert fit.converged
    assert fit.slope == pytest.approx(3.0, abs=1e-8)
    assert fit.intercept == pytest.approx(-2.0, abs=1e-8)


def test_huber_constant_targets():
    fit = huber_fit(np.arange(5.0), np.full(5, 4.2))
    assert fit.slope == pytest.approx(0.0, abs=1e-12)
    assert fit.intercept == pytest.approx(4.2)


def test_huber_shrugs_off_gross_outlier():
    rng = np.random.default_rng(15)
    xs = np.linspace(0, 10, 60)
    ys = 2.0 * xs + 1.0 + rng.normal(0, 0.1, 60)
    ys[7] += 500.0
    robust = huber_fit(xs, ys)
    A = np.column_stack([xs, np.ones_like(xs)])
    ols_slope = np.linalg.lstsq(A, ys, rcond=None)[0][0]
    assert abs(robust.slope - 2.0) < abs(ols_slope - 2.0)
    assert abs(robust.slope - 2.0) < 0.05


def test_huber_huge_delta_equals_ols():
    rng = np.random.default_rng(16)
    xs = rng.uniform(0, 10, 50)
    ys = 1.5 * xs - 4.0 + rng.normal(0, 2.0, 50)
    A = np.column_stack([xs, np.ones_like(xs)])
    ols = np.linalg.lstsq(A, ys, rcond=None)[0]
    fit = huber_fit(xs, ys, delta=1e12)
    assert fit.slope == pytest.approx(ols[0], abs=1e-6)
    assert fit.intercept == pytest.approx(ols[1], abs=1e-6)


def test_huber_input_validation():
    with pytest.raises(ValueError):
        huber_fit([1.0], [2.0])
    with pytest.raises(ValueError):
        huber_fit([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])


# --- correlation study -------------------------------------------------------

def voi_row(tid, ig):
    return VoiRow(trajectory_id=tid, prior="uninformative", kind="identity",
                  param=1.0, ig_bit_seconds=ig, length_scale_x=1.0,
                  length_scale_y=1.0, day_start=0.0, day_end=86400.0)


def baseline(tid, size, duration, ht, hs):
    return {"trajectory_id": tid, "size": size, "duration_s": duration,
            "h_temporal_bits": ht, "h_spatial_bits": hs}


def study_inputs(n=12, seed=17):
    rng = np.random.default_rng(seed)
    # gains on a shuffled grid so every derived characteristic below is
    # tie-free and ranks are unambiguous
    igs = 1.0 + 7.5 * rng.permutation(n)
    rows, base = [], []
    for k, ig in enumerate(igs):
        rows.append(voi_row(f"t{k:02d}", float(ig)))
        base.append(baseline(f"t{k:02d}", int(ig * 3) + 1, ig * 50,
                             ig * 0.1, rng.uniform(0, 5)))
    return rows, base


def test_correlation_study_perfect_monotone_pairs():
    rows, base = study_inputs()
    results, lines = correlation_study(*join_gains(rows, base))
    by_pair = {r.y_name: r.rho for r in results}
    # size, duration and temporal entropy are monotone in gain by
    # construction, so their rank correlations are exactly 1
    assert by_pair["size"] == pytest.approx(1.0)
    assert by_pair["duration"] == pytest.approx(1.0)
    assert by_pair["temporal_entropy"] == pytest.approx(1.0)
    assert set(lines) == {"size", "duration", "temporal_entropy",
                          "spatial_entropy"}
    assert all(r.n == 12 for r in results)


def test_correlation_study_missing_ids_listed():
    rows, base = study_inputs()
    with pytest.raises(ValueError) as err:
        join_gains(rows, base[:-2])
    assert "t10" in str(err.value) and "t11" in str(err.value)


def test_correlation_study_duplicate_gain_rows():
    rows, base = study_inputs()
    with pytest.raises(ValueError):
        join_gains(rows + [rows[0]], base)


def test_correlation_study_empty():
    with pytest.raises(ValueError):
        join_gains([], [])


# --- plot data ----------------------------------------------------------------

def test_histogram2d_csv_counts():
    xs = [0.0, 0.1, 5.0]
    ys = [0.0, 0.2, 5.0]
    text = histogram2d_csv(xs, ys, bins=2)
    lines = text.strip().splitlines()
    assert lines[0] == "x_lo,x_hi,y_lo,y_hi,count"
    counts = [int(line.split(",")[-1]) for line in lines[1:]]
    assert sum(counts) == 3


def test_csv_emitters_are_deterministic():
    rows, base = study_inputs()
    results, lines = correlation_study(*join_gains(rows, base))
    assert correlations_csv(results) == correlations_csv(results)
    assert regression_lines_csv(lines).startswith(
        "characteristic,slope,intercept,converged,iterations\n")


def test_box_quartiles_csv():
    rows = [voi_row(f"t{k}", float(k)) for k in range(5)]
    text = box_quartiles_csv(rows)
    lines = text.strip().splitlines()
    assert lines[0] == "prior,kind,param,n,min,q1,median,q3,max"
    fields = lines[1].split(",")
    assert fields[:4] == ["uninformative", "identity", "1", "5"]
    assert [float(v) for v in fields[4:]] == [0.0, 1.0, 2.0, 3.0, 4.0]
