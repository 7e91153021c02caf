"""Entropy, pointwise and integrated gain, priors, report serialization."""

import json

import numpy as np
import pytest
from scipy.integrate import trapezoid

from synth import DAY_START, HOUR, fixes, make_trajectory
from trajvoi.degrade import DegradationSpec, apply_spec
from trajvoi.gp import (GpConfig, fit_track, fit_tracks, point_training,
                        train_length_scales)
from trajvoi.infogain import (IntegrationConfig, PriorKnowledge, VoiReport,
                              VoiRow, VOI_CSV_FIELDS, _release_training,
                              combine, covering_day_start, curves_by_family,
                              evaluate_voi, gaussian_entropy, ig_at,
                              integration_grid, match_equivalents,
                              param_at_ig, score_cells)


# --- entropy -----------------------------------------------------------------

def test_gaussian_entropy_unit_variance():
    # 0.5 * log2(2 pi e)
    assert gaussian_entropy(1.0) == pytest.approx(2.047095585180641, abs=1e-14)


def test_gaussian_entropy_quadrupling_variance_adds_one_bit():
    assert gaussian_entropy(4.0) - gaussian_entropy(1.0) \
        == pytest.approx(1.0, abs=1e-14)


def test_gaussian_entropy_study_area_scale():
    assert gaussian_entropy(7500.0 ** 2) \
        == pytest.approx(14.919770465451247, abs=1e-12)


def test_gaussian_entropy_rejects_nonpositive():
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError):
            gaussian_entropy(bad)


def test_gaussian_entropy_can_be_negative():
    assert gaussian_entropy(1e-4) < 0


# --- pointwise gain ----------------------------------------------------------

def constant_track(sigma):
    return fit_track(None, GpConfig(sigma_f=sigma))


def test_ig_at_identical_tracks_is_zero():
    t = constant_track(7500.0)
    assert np.allclose(ig_at(t, t, np.array([0.0, 1000.0])), 0.0)


def test_ig_at_known_variance_ratio():
    prior = constant_track(7500.0)
    post = constant_track(3.0)
    ig = ig_at(prior, post, np.array([100.0]))
    # 2 * (log2 7500 - log2 3) over the two coordinates
    assert float(ig[0]) == pytest.approx(22.575424759098897, abs=1e-12)


def test_halving_posterior_std_adds_two_bits():
    prior = constant_track(7500.0)
    ig1 = ig_at(prior, constant_track(3.0), np.array([0.0]))
    ig2 = ig_at(prior, constant_track(1.5), np.array([0.0]))
    assert float(ig2[0] - ig1[0]) == pytest.approx(2.0, abs=1e-12)


# --- integration -------------------------------------------------------------

def test_covering_day_start():
    assert covering_day_start(DAY_START) == DAY_START
    assert covering_day_start(DAY_START + 86399.0) == DAY_START
    assert covering_day_start(DAY_START + 86400.0) == DAY_START + 86400.0


def test_integration_grid_uniform_plus_extras():
    cfg = IntegrationConfig(grid_step=21600.0)
    grid = integration_grid(0.0, cfg, extra_times=[100.0, 100.0, 90000.0])
    assert grid.tolist() == [0.0, 100.0, 21600.0, 43200.0, 64800.0, 86400.0]
    plain = integration_grid(0.0, IntegrationConfig(
        grid_step=21600.0, include_measurement_times=False), [100.0])
    assert plain.tolist() == [0.0, 21600.0, 43200.0, 64800.0, 86400.0]


def test_constant_gain_integrates_to_day_times_c():
    # the grid spans the day exactly, whether or not the step divides it
    prior = constant_track(7500.0)
    post = constant_track(750.0)
    c = float(ig_at(prior, post, np.array([0.0]))[0])
    for step in (60.0, 7000.0, 50000.0):
        ts = integration_grid(0.0, IntegrationConfig(grid_step=step))
        assert (ts[0], ts[-1]) == (0.0, 86400.0)
        total = float(trapezoid(ig_at(prior, post, ts), ts))
        assert total == pytest.approx(86400.0 * c, rel=1e-12), step


def test_trapezoid_halving_changes_little():
    s = make_trajectory([0.0, 50.0], [DAY_START + 2 * HOUR,
                                      DAY_START + 2.1 * HOUR], sigmas=3.0)
    cfg = GpConfig()
    coarse = evaluate_voi(s, "identity", 1.0, PriorKnowledge.uninformative(),
                          cfg, IntegrationConfig(grid_step=60.0))
    fine = evaluate_voi(s, "identity", 1.0, PriorKnowledge.uninformative(),
                        cfg, IntegrationConfig(grid_step=30.0))
    assert fine.ig_bit_seconds == pytest.approx(coarse.ig_bit_seconds,
                                                rel=0.005)


# --- priors and combine ------------------------------------------------------

def test_prior_validation():
    with pytest.raises(ValueError):
        PriorKnowledge(kind="mystery")
    with pytest.raises(ValueError):
        PriorKnowledge(kind="released")
    assert PriorKnowledge.uninformative().label == "uninformative"


def test_combine_uninformative_returns_z():
    s = make_trajectory([0.0, 1.0], [DAY_START, DAY_START + 60], sigmas=3.0)
    assert combine(s, PriorKnowledge.uninformative()) is s


def test_combine_rejects_foreign_release():
    s = make_trajectory([0.0], [DAY_START], trajectory_id="here")
    other = make_trajectory([0.0], [DAY_START], trajectory_id="elsewhere")
    spec = DegradationSpec(kind="truncation", ratio=0.5)
    with pytest.raises(ValueError):
        combine(s, PriorKnowledge.from_release(other, spec))


def test_combine_perturbation_inverse_variance_weighting():
    s = make_trajectory([0.0, 10.0], [DAY_START, DAY_START + 60], sigmas=3.0)
    spec = DegradationSpec(kind="perturbation", total_noise=400.0, seed=5)
    omega = apply_spec(s, spec)
    z = apply_spec(s, DegradationSpec(kind="perturbation", total_noise=100.0,
                                      seed=6))
    merged = combine(z, PriorKnowledge.from_release(omega, spec))
    assert len(merged) == 2
    assert merged.trajectory_id == z.trajectory_id
    for m, zp, op in zip(fixes(merged), fixes(z), fixes(omega)):
        wz, wo = 1 / zp[3] ** 2, 1 / op[3] ** 2
        assert m[0] == zp[0]
        assert m[3] == pytest.approx((wz + wo) ** -0.5, rel=1e-12)
        assert m[1] == pytest.approx((zp[1] * wz + op[1] * wo) / (wz + wo),
                                     rel=1e-12)
    # merged points are strictly more precise than either source
    assert np.all(merged.sigma < 100.0)


def test_combine_perturbation_pairs_repeated_timestamps_by_position():
    s = make_trajectory([0.0, 5.0, 10.0],
                        [DAY_START, DAY_START, DAY_START + HOUR], sigmas=3.0)
    spec = DegradationSpec(kind="perturbation", total_noise=400.0, seed=5)
    z = apply_spec(s, DegradationSpec(kind="perturbation", total_noise=10.0,
                                      seed=6))
    merged = combine(z, PriorKnowledge.from_release(apply_spec(s, spec), spec))
    assert np.array_equal(merged.t, s.t)
    assert merged.sigma.tolist() \
        == pytest.approx([(10.0 ** -2 + 400.0 ** -2) ** -0.5] * 3, rel=1e-12)
    assert merged.sigma[0] == pytest.approx(9.997, abs=5e-4)


def test_combine_perturbation_fails_on_an_exact_fix_as_floats_do():
    # the inverse variance of an exact (sigma 0) identity fix divides by
    # zero, and the cell fails with the error Python floats raise
    s = make_trajectory([0.0, 5.0], [DAY_START, DAY_START + 60],
                        sigmas=[3.0, 0.0])
    spec = DegradationSpec(kind="perturbation", total_noise=400.0, seed=5)
    prior = PriorKnowledge.from_release(apply_spec(s, spec), spec)
    with pytest.raises(ZeroDivisionError, match="^float division by zero$"):
        combine(s, prior)


def test_combine_perturbation_rejects_other_timestamps():
    s = make_trajectory([0.0, 5.0], [DAY_START, DAY_START + 60], sigmas=3.0)
    spec = DegradationSpec(kind="perturbation", total_noise=400.0, seed=5)
    prior = PriorKnowledge.from_release(apply_spec(s, spec), spec)
    z = apply_spec(s, DegradationSpec(kind="truncation", ratio=0.5))
    with pytest.raises(ValueError):
        combine(z, prior)


def test_combine_superset_releases_use_z_alone():
    s = make_trajectory(np.arange(10.0), DAY_START + np.arange(10) * 30.0,
                        sigmas=3.0)
    spec = DegradationSpec(kind="subsampling", ratio=0.3, seed=4)
    omega = apply_spec(s, spec)
    z_spec = DegradationSpec(kind="subsampling", ratio=0.8, seed=4)
    z = apply_spec(s, z_spec)
    merged = combine(z, PriorKnowledge.from_release(omega, spec))
    assert merged is z
    # the other way round the prior already holds the whole release
    assert combine(omega, PriorKnowledge.from_release(z, z_spec)) is z


@pytest.mark.parametrize("kind", ["truncation", "subsampling"])
def test_release_inside_its_prior_scores_zero(suite, kind):
    s = suite[0]                        # 26 fixes
    prior_spec = DegradationSpec(kind=kind, ratio=0.2, seed=0)
    z = apply_spec(s, DegradationSpec(kind=kind, ratio=0.05, seed=0))
    prior = PriorKnowledge.from_release(apply_spec(s, prior_spec), prior_spec)
    assert len(s) == 26 and len(z) < len(prior.released)
    assert evaluate_voi(z, kind, 0.05, prior).ig_bit_seconds == 0.0


def test_released_prior_sets_the_scale():
    # both tracks of the cell take the scale the release trains about its
    # own mean lines, not the one the evidence trains about zero
    rng = np.random.default_rng(0)
    ts = DAY_START + np.sort(rng.uniform(0, 2 * HOUR, 30))
    s = make_trajectory(rng.normal(0, 20, 30), ts, sigmas=3.0)
    spec = DegradationSpec(kind="truncation", ratio=0.5)
    prior = PriorKnowledge.from_release(apply_spec(s, spec), spec)
    row = evaluate_voi(s, "identity", 1.0, prior)
    (release_scale,) = train_length_scales(
        [_release_training(prior.released, GpConfig())])
    assert row.length_scale_x == row.length_scale_y == release_scale
    assert release_scale == pytest.approx(9.687, abs=1e-3)
    assert fit_track(s, GpConfig()).gp.length_scale \
        == pytest.approx(5.053, abs=1e-3)


def test_release_equal_to_prior_has_no_gain():
    rng = np.random.default_rng(1)
    ts = DAY_START + np.sort(rng.uniform(0, 3 * HOUR, 40))
    s = make_trajectory(rng.normal(0, 30, 40), ts, sigmas=3.0)
    spec = DegradationSpec(kind="truncation", ratio=0.5)
    z = apply_spec(s, spec)
    prior = PriorKnowledge.from_release(z, spec)
    row = evaluate_voi(z, "truncation", 0.5, prior)
    unin = evaluate_voi(z, "truncation", 0.5, PriorKnowledge.uninformative())
    assert abs(row.ig_bit_seconds) < 1e-6 * abs(unin.ig_bit_seconds)


def test_second_measurement_an_hour_later_adds_gain():
    single = make_trajectory([0.0], [DAY_START + 12 * HOUR], sigmas=3.0)
    double = make_trajectory([0.0, 0.0], [DAY_START + 12 * HOUR,
                                          DAY_START + 13 * HOUR], sigmas=3.0)
    one = evaluate_voi(single, "identity", 1.0, PriorKnowledge.uninformative())
    two = evaluate_voi(double, "identity", 1.0, PriorKnowledge.uninformative())
    assert one.ig_bit_seconds > 0
    assert two.ig_bit_seconds > one.ig_bit_seconds


def test_gain_bounded_by_entropy_range():
    rng = np.random.default_rng(2)
    ts = DAY_START + np.sort(rng.uniform(0, 4 * HOUR, 60))
    s = make_trajectory(rng.normal(0, 10, 60), ts, sigmas=3.0)
    row = evaluate_voi(s, "identity", 1.0, PriorKnowledge.uninformative(),
                       keep_trace=True)
    post = fit_track(s, GpConfig())
    grid = np.array([t for t, _ in row.trace])
    var_min = post.query(grid).var.min()
    bound = 86400.0 * 2 * (gaussian_entropy(7500.0 ** 2)
                           - gaussian_entropy(var_min))
    assert row.ig_bit_seconds <= bound


def pinned_walk():
    """A 40-fix walk whose fixes 10-12 share one timestamp."""
    rng = np.random.default_rng(9)
    ts = DAY_START + 8 * HOUR + np.sort(rng.uniform(0, 3 * HOUR, 40)).round(-1)
    ts[10:13] = ts[10]
    xs, ys = np.cumsum(rng.normal(0, 20, (2, 40)), axis=1)
    return make_trajectory(xs, ts, sigmas=3.0, ys=ys, trajectory_id="pin")


def pinned_cell(case):
    s = pinned_walk()
    if case in ("uninformative", "uninformative-grid-only"):
        return evaluate_voi(s, "identity", 1.0, PriorKnowledge.uninformative(),
                            integration=IntegrationConfig(
                                include_measurement_times=case
                                == "uninformative"))
    if case == "subsampling-prior":
        spec = DegradationSpec(kind="subsampling", ratio=0.4, seed=2)
        return evaluate_voi(s, "identity", 1.0, PriorKnowledge.from_release(
            apply_spec(s, spec), spec))
    spec = DegradationSpec(kind="perturbation", total_noise=200.0, seed=4)
    z = apply_spec(s, DegradationSpec(kind="perturbation", total_noise=50.0,
                                      seed=5))
    return evaluate_voi(z, "perturbation", 50.0, PriorKnowledge.from_release(
        apply_spec(s, spec), spec))


@pytest.mark.parametrize("case, ig", [
    ("uninformative", 241463.23647028636),
    ("uninformative-grid-only", 240122.866784226),
    ("subsampling-prior", 33931.38286760516),
    ("perturbation-prior", 47911.46321538456),
])
def test_gain_pinned_to_its_last_bit(case, ig):
    # guards how the evidence times and both tracks of a cell are derived
    assert len(set(pinned_walk().t.tolist())) == 38
    assert repr(pinned_cell(case).ig_bit_seconds) == repr(ig)


def mixed_cells():
    """Cells of two trajectories, as (evidence, prior, kind, param), under
    the uninformative prior and under released priors of each family. The
    second trajectory's first fix falls two minutes before UTC midnight, and
    its subsampled releases at 0.3 and 0.5 start after it."""
    rng = np.random.default_rng(3)
    late = make_trajectory(np.cumsum(rng.normal(0, 20, 30)),
                           DAY_START + 86400.0 - 120.0
                           + np.arange(30) * 300.0,
                           sigmas=3.0, trajectory_id="late")
    sub, trunc = ({r: DegradationSpec(kind=kind, ratio=r, seed=1)
                   for r in (0.2, 0.3, 0.5, 0.8)}
                  for kind in ("subsampling", "truncation"))
    noise = {n: DegradationSpec(kind="perturbation", total_noise=n, seed=n)
             for n in (50, 200)}
    identity = DegradationSpec(kind="identity")
    matrix = [(None, [identity, trunc[0.5], sub[0.3], noise[50]]),
              (sub[0.5], [identity, sub[0.3], sub[0.8]]),
              (noise[200], [identity, noise[50]]),
              (trunc[0.5], [trunc[0.2], identity])]
    cells = []
    for s in (pinned_walk(), late):
        for prior_spec, specs in matrix:
            prior = PriorKnowledge.uninformative() if prior_spec is None \
                else PriorKnowledge.from_release(apply_spec(s, prior_spec),
                                                 prior_spec)
            for spec in specs:
                cells.append((combine(apply_spec(s, spec), prior), prior,
                              spec.kind, spec.param))
    return cells


def scored_the_old_way(cell, integration):
    """A cell scored on its own grid from its two tracks fit with means:
    under the uninformative prior, the flat prior and the evidence about
    zero; under a released prior, both about the release's mean lines at
    the scale it trains."""
    evidence, prior, _, _ = cell
    cfg = GpConfig()
    if prior.released is None:
        prior_track = fit_track(None, cfg)
        posterior_track = fit_track(evidence, cfg)
        times = evidence.t
    else:
        training = _release_training(prior.released, cfg)
        (l,) = train_length_scales([training], cfg.length_scale_bounds,
                                   cfg.grid_size)
        prior_track, posterior_track = fit_tracks(
            [(training, l),
             (point_training(evidence, training.mean_fns, cfg.sigma_f), l)],
            cfg)
        times = np.union1d(evidence.t, prior.released.t)
    day_start = covering_day_start(float(times.min()))
    ts = integration_grid(day_start, integration, times)
    igs = ig_at(prior_track, posterior_track, ts)
    return (float(np.trapezoid(igs, ts)), day_start, day_start + 86400.0,
            tuple(zip(ts.tolist(), igs.tolist())))


@pytest.mark.parametrize("include_measurement_times", [True, False])
def test_batch_scoring_equals_scoring_each_cell_alone(
        include_measurement_times):
    integration = IntegrationConfig(
        include_measurement_times=include_measurement_times)
    cells = mixed_cells()
    batch = list(score_cells(cells, GpConfig(), integration, keep_trace=True))
    assert len(batch) == len(cells) == 22
    for cell, row in zip(cells, batch):
        (alone,) = score_cells([cell], GpConfig(), integration,
                               keep_trace=True)
        got = (row.ig_bit_seconds, row.day_start, row.day_end, row.trace)
        assert repr(got) == repr((alone.ig_bit_seconds, alone.day_start,
                                  alone.day_end, alone.trace))
        assert repr(got) == repr(scored_the_old_way(cell, integration))
    # nested subsets score exactly 0; the late walk covers two days
    nested = [r for r in batch if (r.prior, r.kind, r.param) in (
        ("subsampling:0.5", "subsampling", 0.3),
        ("truncation:0.5", "truncation", 0.2))]
    assert len(nested) == 4
    assert all(r.ig_bit_seconds == 0.0 for r in nested)
    assert sorted({r.day_start - DAY_START for r in batch
                   if r.trajectory_id == "late"}) == [0.0, 86400.0]


# --- report rows -------------------------------------------------------------

def make_row(**kw):
    base = dict(trajectory_id="t", prior="uninformative", kind="identity",
                param=1.0, ig_bit_seconds=3600.0, length_scale_x=1.0,
                length_scale_y=1.0, day_start=0.0, day_end=86400.0)
    base.update(kw)
    return VoiRow(**base)


def test_voi_row_units_and_validation():
    row = make_row()
    assert row.ig_bit_hours == pytest.approx(1.0)
    with pytest.raises(ValueError):
        make_row(day_end=0.0)


def test_report_sorting_and_serialization():
    rows = [make_row(trajectory_id="b"), make_row(trajectory_id="a",
                                                  kind="perturbation",
                                                  param=100.0),
            make_row(trajectory_id="a", kind="perturbation", param=3.0)]
    report = VoiReport(rows=rows).sorted()
    assert [(r.trajectory_id, r.param) for r in report.rows] \
        == [("a", 3.0), ("a", 100.0), ("b", 1.0)]

    csv_text = report.to_csv()
    assert csv_text.splitlines()[0] == ",".join(VOI_CSV_FIELDS)
    assert len(csv_text.splitlines()) == 4

    back = VoiReport.from_jsonl(report.to_jsonl())
    assert back.rows == report.rows


def test_report_jsonl_needs_the_day_window():
    line = json.loads(VoiReport(rows=[make_row()]).to_jsonl())
    for key in ("day_start", "day_end"):
        partial = {k: v for k, v in line.items() if k != key}
        with pytest.raises(KeyError, match=key):
            VoiReport.from_jsonl(json.dumps(partial) + "\n")


def test_report_jsonl_round_trips_trace():
    row = make_row(trace=((0.0, 1.5), (60.0, 2.5)))
    back = VoiReport.from_jsonl(VoiReport(rows=[row]).to_jsonl())
    assert back.rows[0].trace == ((0.0, 1.5), (60.0, 2.5))
    d = json.loads(VoiReport(rows=[row]).to_jsonl())
    assert d["trace"] == [[0.0, 1.5], [60.0, 2.5]]


# --- equivalence -------------------------------------------------------------

def test_param_at_ig_linear_interpolation():
    curve = [(0.2, 2.0), (0.8, 10.0)]
    assert param_at_ig(curve, 6.0) == pytest.approx(0.5)
    assert param_at_ig(curve, 2.0) == pytest.approx(0.2)
    assert param_at_ig(curve, 11.0) is None


def test_match_equivalents_identical_curves():
    curve = [(0.2, 2.0), (0.5, 5.0), (0.8, 10.0)]
    assert match_equivalents(curve, curve)
    for p, g in curve:
        assert param_at_ig(curve, g) == pytest.approx(p)


def test_match_equivalents_disjoint_ranges():
    a = [(0.2, 100.0), (0.8, 200.0)]
    b = [(10.0, 1.0), (400.0, 2.0)]
    assert not match_equivalents(a, b)
    assert all(param_at_ig(b, g) is None for _, g in a)


def test_equivalence_curve_runs_specs():
    rng = np.random.default_rng(10)
    ts = DAY_START + np.sort(rng.uniform(0, HOUR, 30))
    s = make_trajectory(rng.normal(0, 10, 30), ts, sigmas=3.0,
                        trajectory_id="eq")
    specs = [DegradationSpec(kind="truncation", ratio=r) for r in (0.3, 1.0)]
    rows = [evaluate_voi(apply_spec(s, spec), spec.kind, spec.param,
                         PriorKnowledge.uninformative()) for spec in specs]
    curve = curves_by_family(rows, base_sigma=3.0)["truncation"]
    assert [p for p, _ in curve] == [0.3, 1.0]
    assert curve[0][1] <= curve[1][1]


def test_curves_by_family_joins_identity_and_takes_medians():
    rows = [make_row(kind="identity", param=1.0, ig_bit_seconds=100.0),
            make_row(kind="perturbation", param=10.0, ig_bit_seconds=50.0),
            make_row(kind="truncation", param=0.5, ig_bit_seconds=10.0),
            make_row(kind="truncation", param=0.5, ig_bit_seconds=30.0),
            make_row(kind="truncation", param=0.5, ig_bit_seconds=20.0),
            make_row(kind="truncation", param=0.2, ig_bit_seconds=5.0)]
    curves = curves_by_family(rows, base_sigma=3.0)
    assert curves == {"perturbation": [(3.0, 100.0), (10.0, 50.0)],
                      "truncation": [(0.2, 5.0), (0.5, 20.0), (1.0, 100.0)],
                      "subsampling": [(1.0, 100.0)]}
    assert "subsampling" not in curves_by_family(rows[1:], base_sigma=3.0)
