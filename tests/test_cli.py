"""Batch driver end to end: tiny pipeline runs in a temp dir, plus the
error paths that must map onto exit codes 1 and 2."""

import csv
import json
import logging
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

import numpy as np

import synth
from trajvoi import cli, gp, infogain
from trajvoi.baselines import EntropyGridConfig, SppConfig
from trajvoi.degrade import DegradationSpec, apply_spec
from trajvoi.infogain import (VOI_CSV_FIELDS, PriorKnowledge, VoiReport,
                              VoiRow, evaluate_voi)
from trajvoi.ingest import (TRAJECTORY_CSV_FIELDS, read_trajectory_csv,
                            write_trajectory_csv)
from trajvoi.runconfig import load_config

DAY = synth.DAY_START
H = synth.HOUR

PLT_HEADER = ("Geolife trajectory\nWGS 84\nAltitude is in Feet\nReserved 3\n"
              "0,2,255,My Track,0,0,2,8421376\n0\n")


def small_fleet():
    """Three trajectories with clearly different size, span and spread."""
    a = synth.make_trajectory(
        [0.0, 500.0, 1000.0, 1500.0],
        [DAY + H + 60.0 * k for k in range(4)],
        trajectory_id="a", owner_id="000")
    b = synth.make_trajectory(
        [0.0, 1000.0, 2000.0, 3000.0, 4000.0, 5000.0],
        [DAY + 2 * H + 1800.0 * k for k in range(6)],
        ys=[0.0, 900.0, 1800.0, 2700.0, 3600.0, 4500.0],
        trajectory_id="b", owner_id="000")
    c = synth.make_trajectory(
        [20.0 * k for k in range(9)],
        [DAY + 5 * H + 200.0 * k for k in range(9)],
        trajectory_id="c", owner_id="001")
    return [a, b, c]


def write_config(tmp, **extra):
    traj_csv = tmp / "trajectories.csv"
    out = tmp / "out"
    text = [
        f'trajectories_csv: "{traj_csv}"',
        f'output_dir: "{out}"',
        "degradation:",
        "  noise_levels_m: [100]",
        "  truncation_ratios: [0.5]",
        "  subsampling_ratios: [0.5]",
        "priors:",
        "  perturbation_noise_m: [400]",
        "  truncation_ratios: [0.5]",
        "  subsampling_ratios: [0.5]",
    ]
    for key, value in extra.items():
        text.append(f"{key}: {value}")
    path = tmp / "run.yaml"
    path.write_text("\n".join(text) + "\n")
    return path, traj_csv, out


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """voi + baselines + analyze over the small fleet, run once."""
    tmp = tmp_path_factory.mktemp("pipeline")
    config, traj_csv, out = write_config(tmp)
    write_trajectory_csv(small_fleet(), traj_csv)
    assert cli.entrypoint(["voi", "--config", str(config)]) == 0
    assert cli.entrypoint(["baselines", "--config", str(config)]) == 0
    assert cli.entrypoint(["analyze", "--config", str(config)]) == 0
    return {"config": config, "out": out}


def test_voi_report_files(pipeline):
    out = pipeline["out"]
    report = VoiReport.from_jsonl((out / "voi_report.jsonl").read_text())
    # per trajectory: uninformative pairs with all four specs, each of the
    # three released priors with identity plus its own family
    assert len(report.rows) == 3 * (4 + 2 + 2 + 2)
    keys = [(r.trajectory_id, r.prior, r.kind, r.param) for r in report.rows]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)
    assert (out / "voi_errors.jsonl").read_text() == ""
    header = (out / "voi_report.csv").read_text().splitlines()[0]
    assert header == ",".join(VOI_CSV_FIELDS)


def test_baselines_file(pipeline):
    lines = (pipeline["out"] / "baselines.csv").read_text().splitlines()
    assert lines[0].startswith("trajectory_id,")
    assert [l.split(",")[0] for l in lines[1:]] == ["a", "b", "c"]


def test_analyze_outputs(pipeline):
    out = pipeline["out"]
    for name in ("correlations.csv", "regression_lines.csv",
                 "box_quartiles.csv", "hist2d_size.csv",
                 "hist2d_duration_s.csv", "hist2d_h_temporal_bits.csv",
                 "hist2d_h_spatial_bits.csv"):
        assert (out / name).exists(), name
    report = json.loads((out / "analyze_report.json").read_text())
    assert report["n"] == 3
    assert len(report["correlations"]) == 4
    expected = load_config(str(pipeline["config"])).config_hash()
    assert report["config_hash"] == expected


def test_equivalence_command(pipeline, capsys):
    rc = cli.entrypoint(["equivalence", "--config", str(pipeline["config"]),
                         "--trajectory", "b", "--kind", "truncation",
                         "--param", "0.7"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["target"]["kind"] == "truncation"
    assert set(payload["curves"]) == {"perturbation", "truncation",
                                      "subsampling"}
    assert set(payload["equivalents"]) == {"perturbation", "subsampling"}
    assert (pipeline["out"] / "equivalence_b.json").exists()


def test_equivalence_param_outside_curve(pipeline, capsys):
    rc = cli.entrypoint(["equivalence", "--config", str(pipeline["config"]),
                         "--trajectory", "b", "--kind", "truncation",
                         "--param", "0.1"])
    assert rc == 1
    assert "outside" in capsys.readouterr().err


def test_voi_limit_restricts_trajectories(tmp_path):
    config, traj_csv, out = write_config(tmp_path)
    write_trajectory_csv(small_fleet(), traj_csv)
    assert cli.entrypoint(["voi", "--config", str(config), "--limit", "1"]) == 0
    report = VoiReport.from_jsonl((out / "voi_report.jsonl").read_text())
    assert {r.trajectory_id for r in report.rows} == {"a"}


def test_limit_zero_writes_empty_outputs(tmp_path):
    config, traj_csv, out = write_config(tmp_path)
    write_trajectory_csv(small_fleet(), traj_csv)
    for command in ("voi", "baselines"):
        assert cli.entrypoint([command, "--config", str(config),
                               "--limit", "0", "--jobs", "2"]) == 0
    assert (out / "voi_report.jsonl").read_text() == ""
    assert (out / "baselines.csv").read_text().count("\n") == 1


@pytest.mark.parametrize("option,message", [
    (["--limit", "-1"], "limit must be >= 0"),
    (["--jobs", "0"], "jobs must be >= 1"),
])
def test_overrides_pass_the_config_checks(tmp_path, capsys, option, message):
    config, traj_csv, out = write_config(tmp_path)
    write_trajectory_csv(small_fleet(), traj_csv)
    assert cli.entrypoint(["voi", "--config", str(config), *option]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_voi_reruns_byte_identical(tmp_path):
    first = tmp_path / "one"
    second = tmp_path / "two"
    outputs = []
    for sub in (first, second):
        sub.mkdir()
        config, traj_csv, out = write_config(sub)
        write_trajectory_csv(small_fleet()[:1], traj_csv)
        assert cli.entrypoint(["voi", "--config", str(config)]) == 0
        outputs.append(out)
    for name in ("voi_report.jsonl", "voi_report.csv", "voi_errors.jsonl"):
        assert (outputs[0] / name).read_bytes() \
            == (outputs[1] / name).read_bytes()


def test_degrade_seed_plumbs_through(tmp_path):
    # gain values can legitimately coincide across seeds (they depend on
    # measurement values only through the trained length scale), so the
    # seed override is checked where it must show: the degraded outputs
    texts = {}
    for seed in (1, 2):
        sub = tmp_path / f"seed{seed}"
        sub.mkdir()
        config, traj_csv, out = write_config(sub)
        write_trajectory_csv(small_fleet(), traj_csv)
        assert cli.entrypoint(["degrade", "--config", str(config),
                               "--seed", str(seed)]) == 0
        texts[seed] = {p.name: p.read_bytes()
                       for p in (out / "degraded").iterdir()}
    assert texts[1]["perturbation_100.csv"] != texts[2]["perturbation_100.csv"]
    assert texts[1]["identity.csv"] == texts[2]["identity.csv"]
    assert texts[1]["truncation_0.5.csv"] == texts[2]["truncation_0.5.csv"]


def test_voi_duplicate_cells_warn_but_pass(tmp_path, caplog):
    config, traj_csv, out = write_config(tmp_path)
    text = config.read_text().replace("noise_levels_m: [100]",
                                      "noise_levels_m: [100, 100]")
    config.write_text(text)
    write_trajectory_csv(small_fleet()[:1], traj_csv)
    with caplog.at_level(logging.WARNING, logger="trajvoi"):
        assert cli.entrypoint(["voi", "--config", str(config)]) == 0
    assert any("duplicate" in r.message for r in caplog.records)
    report = VoiReport.from_jsonl((out / "voi_report.jsonl").read_text())
    perturb_100 = [r for r in report.rows
                   if r.kind == "perturbation" and r.prior == "uninformative"]
    assert len(perturb_100) == 1


def test_specs_of_one_label_are_duplicates(tmp_path, caplog):
    # 0.2 and 0.2000001 both label as truncation:0.2: the second would
    # overwrite the first's file and give a report row like the first's
    config, traj_csv, out = write_config(tmp_path)
    config.write_text(config.read_text().replace(
        "truncation_ratios: [0.5]", "truncation_ratios: [0.2, 0.2000001]"))
    write_trajectory_csv(small_fleet()[:1], traj_csv)
    for command in ("degrade", "voi"):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="trajvoi"):
            assert cli.entrypoint([command, "--config", str(config)]) == 0
        assert any("duplicate" in r.message for r in caplog.records)
    (traj,) = small_fleet()[:1]
    kept = apply_spec(traj, DegradationSpec(kind="truncation", ratio=0.2))
    assert (read_trajectory_csv(out / "degraded" / "truncation_0.2.csv")[0].t
            == kept.t).all()
    report = VoiReport.from_jsonl((out / "voi_report.jsonl").read_text())
    keys = [(r.prior, r.kind, f"{r.param:g}") for r in report.rows]
    assert len(keys) == len(set(keys))
    assert [r.param for r in report.rows
            if r.kind == "truncation" and r.prior == "uninformative"] == [0.2]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_voi_isolates_failing_cells(tmp_path, monkeypatch, jobs):
    # at --jobs 2 the task raises and is split inside a worker
    config, traj_csv, out = write_config(tmp_path)
    write_trajectory_csv(small_fleet()[:1], traj_csv)
    real = cli.score_cells

    def explode_on_truncation(cells, *args, **kwargs):
        if any(kind == "truncation" for _, _, kind, _ in cells):
            raise RuntimeError("boom")
        return real(cells, *args, **kwargs)

    monkeypatch.setattr(cli, "score_cells", explode_on_truncation)
    assert cli.entrypoint(["voi", "--config", str(config),
                           "--jobs", jobs]) == 2
    errors = [json.loads(line) for line in
              (out / "voi_errors.jsonl").read_text().splitlines()]
    assert len(errors) == 2  # one per prior that pairs with truncation
    assert all(e["kind"] == "truncation" for e in errors)
    assert all("boom" in e["error"] for e in errors)
    report = VoiReport.from_jsonl((out / "voi_report.jsonl").read_text())
    assert len(report.rows) == 10 - 2


def reference_matrix_config(tmp, trajectories):
    """Default (reference-matrix) config over these trajectories."""
    traj_csv = tmp / "trajectories.csv"
    out = tmp / "out"
    write_trajectory_csv(trajectories, traj_csv)
    path = tmp / "run.yaml"
    path.write_text(f'trajectories_csv: "{traj_csv}"\noutput_dir: "{out}"\n')
    return path, out


def test_voi_fits_each_prior_and_applies_each_spec_once(suite, tmp_path,
                                                        monkeypatch):
    # the 55-cell matrix: 17 releases trained under the uninformative prior
    # and 6 released priors trained once each, all in one batched call; 17
    # release specs and 2 prior-only specs (the perturbation priors' seed
    # differs). The uninformative prior's own track has no fixes, so
    # nothing to train. Of the 61 prior and posterior tracks, 27 differ in
    # their times, noise or length scale (every scale of this walk trains
    # to the upper bound); each is fit once and queried once, and the
    # uninformative prior's constant variance is never queried.
    config, _ = reference_matrix_config(tmp_path, suite[1:2])
    counts = {"trainings": 0, "training calls": 0, "apply_spec": 0,
              "tracks": 0, "fit calls": 0, "detrendings": 0}
    queried = []
    real_fit, real_variances = infogain.fit_tracks, infogain.track_variances
    real_residuals = infogain._linear_residuals

    def counted_residuals(*args):
        counts["detrendings"] += 1
        return real_residuals(*args)
    monkeypatch.setattr(infogain, "_linear_residuals", counted_residuals)

    def counted_fit(requests, *args):
        counts["tracks"] += len(requests)
        counts["fit calls"] += 1
        return real_fit(requests, *args)

    def counted_variances(tracks, times):
        queried.extend(tracks)
        return real_variances(tracks, times)
    monkeypatch.setattr(infogain, "fit_tracks", counted_fit)
    monkeypatch.setattr(infogain, "track_variances", counted_variances)

    def counted_trainings(module):
        real = module.train_length_scales

        def wrapper(trainings, *args, **kwargs):
            trained = [t for t in trainings if np.asarray(t.times).size > 0]
            counts["trainings"] += len(trained)
            counts["training calls"] += bool(trained)
            return real(trainings, *args, **kwargs)
        monkeypatch.setattr(module, "train_length_scales", wrapper)

    counted_trainings(gp)
    counted_trainings(infogain)
    real_apply = cli.apply_spec

    def counted_apply(*args, **kwargs):
        counts["apply_spec"] += 1
        return real_apply(*args, **kwargs)
    monkeypatch.setattr(cli, "apply_spec", counted_apply)
    assert cli.entrypoint(["voi", "--config", str(config)]) == 0
    assert counts["trainings"] == 23
    assert counts["training calls"] == 1
    # each released prior is detrended once, a line per channel
    assert counts["detrendings"] == 6 * 2
    assert counts["apply_spec"] <= 19
    assert (counts["tracks"], counts["fit calls"], len(queried)) \
        == (27, 1, 27)
    assert len({id(track) for track in queried}) == 27


def test_each_filter_input_is_built_once(suite, tmp_path, monkeypatch):
    # gp.Training.of converts and checks every filter input. A walk's 55
    # cells build their 23 trainings (17 releases under the uninformative
    # prior, 6 released priors) and the 11 variance-only tracks whose fixes
    # have no training: a track of fixes that have one is made from it,
    # and neither the training pass nor the fit builds anything again. A
    # baselines row builds its trajectory's one training.
    builds = []
    real = gp.Training.of

    def counted(*args, **kwargs):
        builds.append(args[4])              # the trajectory id
        return real(*args, **kwargs)
    monkeypatch.setattr(gp.Training, "of", staticmethod(counted))
    counts = []
    for k, command in ((0, "voi"), (1, "voi"), (0, "baselines")):
        (tmp_path / f"{command}{k}").mkdir()
        config, _ = reference_matrix_config(tmp_path / f"{command}{k}",
                                            suite[k:k + 1])
        builds.clear()
        assert cli.entrypoint([command, "--config", str(config)]) == 0
        assert set(builds) == {suite[k].trajectory_id}
        counts.append(len(builds))
    assert counts == [34, 34, 1]


def test_voi_takes_one_transition_per_group_of_tracks(suite, tmp_path,
                                                    monkeypatch):
    # the 27 tracks of one walk's matrix fall into 11 groups of equal fix
    # times and length scale, queried on the walk's one day: each group's
    # gaps go through one _transition call
    config, _ = reference_matrix_config(tmp_path, suite[1:2])
    queries, groups = [], []
    real_transition, real_fit = gp._transition, infogain.fit_tracks

    def counted_transition(*args):
        # the filter passes' own transitions are not queries
        if sys._getframe(1).f_code.co_name not in ("_numpy_lanes",
                                                   "_float_lane"):
            queries.append(args[0].size)
        return real_transition(*args)

    def counted_fit(*args):
        tracks = real_fit(*args)
        groups.append(len({(t.gp.times.tobytes(), t.gp.length_scale)
                           for t in tracks}))
        return tracks
    monkeypatch.setattr(gp, "_transition", counted_transition)
    monkeypatch.setattr(infogain, "fit_tracks", counted_fit)
    assert cli.entrypoint(["voi", "--config", str(config)]) == 0
    assert groups == [11]
    assert len(queries) == 11


def test_channel_values_whose_squares_overflow_are_refused(tmp_path, capfd,
                                                           caplog):
    # six fixes at +-1e308 m: every cell that trains on the walk's own
    # coordinates, and its baselines row, fails naming the walk, instead of
    # training to the lower length-scale bound or writing an infinite
    # distance, and no numpy warning is raised on the way
    xs = np.array([1e308, -1e308, 1e308, -1e308, 1e308, 1e308])
    huge = synth.make_trajectory(xs, [DAY + 9 * H + 60.0 * k
                                      for k in range(6)],
                                 ys=-xs, trajectory_id="huge")
    config, out = reference_matrix_config(tmp_path, [huge])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        codes = [cli.entrypoint([command, "--config", str(config)])
                 for command in ("voi", "baselines")]
    assert caught == []
    assert "Warning" not in capfd.readouterr().err
    assert codes == [2, 2]
    refused = "GpNumericalError: a channel value of trajectory 'huge' " \
        "has no finite square"
    errors = [json.loads(line) for line in
              (out / "voi_errors.jsonl").read_text().splitlines()]
    assert [e["error"] for e in errors if e["prior"] == "uninformative"] \
        == [refused] * 17
    rows = VoiReport.from_jsonl((out / "voi_report.jsonl").read_text()).rows
    assert rows and all(r.prior != "uninformative" for r in rows)
    assert (out / "baselines.csv").read_text().count("\n") == 1
    assert f"baselines: huge failed: {refused}" in caplog.messages


def test_a_voi_task_fits_its_tracks_in_one_pass(suite, tmp_path,
                                               monkeypatch):
    # four walks in one chunk: one fit_tracks call, one kept filter pass
    config, _ = reference_matrix_config(tmp_path, suite[:4])
    counts = {"fit calls": 0, "kept passes": 0}
    real_fit, real_filter = infogain.fit_tracks, gp._kalman_filter

    def counted_fit(*args):
        counts["fit calls"] += 1
        return real_fit(*args)

    def counted_filter(lanes, keep=False):
        counts["kept passes"] += keep
        return real_filter(lanes, keep)
    monkeypatch.setattr(infogain, "fit_tracks", counted_fit)
    monkeypatch.setattr(gp, "_kalman_filter", counted_filter)
    assert len(cli._chunks(suite[:4], 1)) == 1
    assert cli.entrypoint(["voi", "--config", str(config)]) == 0
    assert counts == {"fit calls": 1, "kept passes": 1}


def sized(sizes):
    """Trajectories of these numbers of fixes."""
    return [synth.make_trajectory(np.zeros(n), DAY + np.arange(n),
                                  trajectory_id=f"t{k}")
            for k, n in enumerate(sizes)]


@pytest.mark.parametrize("jobs", [1, 2, 5])
@pytest.mark.parametrize("sizes", [
    [40000] + [10] * 1000, [10] * 1000 + [40000], [3] * 7, [5000],
    [4096, 1, 4095, 2, 2000, 2000, 97, 6000, 1], []])
def test_chunks_cut_in_order_by_fixes(sizes, jobs):
    trajectories = sized(sizes)
    chunks = cli._chunks(trajectories, jobs)
    assert [t for chunk in chunks for t in chunk] == trajectories
    assert all(chunk for chunk in chunks)
    assert all(sum(max(len(t), cli.TRAJECTORY_FIXES) for t in chunk)
               <= max(cli.CHUNK_FIXES, max(map(len, chunk)))
               for chunk in chunks)
    assert len(chunks) >= min(jobs, len(trajectories))


def test_chunks_fill_up_to_the_fix_budget():
    # a trajectory larger than the budget gets a chunk of its own, and the
    # small ones, each counting for 32 fixes, fill chunks of 128. With two
    # workers a chunk takes at most half the fixes (3 of 7 trajectories);
    # with three, 400 of 1,200 fixes make two chunks, and the first is cut
    # in two
    chunks = cli._chunks(sized([40000] + [10] * 1000), 1)
    assert [len(chunk) for chunk in chunks] == [1] + [128] * 7 + [104]
    for sizes, jobs, lengths in (([3] * 7, 1, [7]), ([3] * 7, 2, [3, 3, 1]),
                                 ([100, 100, 1000], 3, [1, 1, 1])):
        assert [len(chunk) for chunk in cli._chunks(sized(sizes), jobs)] \
            == lengths


def test_outputs_do_not_depend_on_chunking(suite, tmp_path, monkeypatch):
    # the whole fleet in one chunk, whose lanes run together, or one
    # trajectory per chunk
    outputs = {}
    for chunk_fixes in (10 ** 9, 1):
        monkeypatch.setattr(cli, "CHUNK_FIXES", chunk_fixes)
        (tmp_path / str(chunk_fixes)).mkdir()
        config, out = reference_matrix_config(tmp_path / str(chunk_fixes),
                                              suite[:6])
        assert cli.entrypoint(["voi", "--config", str(config)]) == 0
        assert cli.entrypoint(["baselines", "--config", str(config)]) == 0
        outputs[chunk_fixes] = {name: (out / name).read_bytes() for name in (
            "voi_report.jsonl", "voi_report.csv", "voi_errors.jsonl",
            "baselines.csv")}
    assert outputs[1] == outputs[10 ** 9]


def test_voi_bad_trajectory_fails_only_its_cells(tmp_path, caplog):
    # a fix whose noise variance overflows fails the cells that meet it,
    # each with the exception it raises alone, and no task runs again in
    # halves. Every cell comes out as it does when its trajectory runs
    # alone
    fleet = small_fleet()
    bad = synth.make_trajectory([0.0, 10.0, 20.0],
                                [DAY + 3 * H + 60.0 * k for k in range(3)],
                                sigmas=[3.0, 1e200, 3.0], trajectory_id="bad")
    runs = {}
    for name, trajectories in (("all", fleet + [bad]), ("good", fleet),
                               ("bad", [bad])):
        (tmp_path / name).mkdir()
        config, traj_csv, out = write_config(tmp_path / name)
        write_trajectory_csv(trajectories, traj_csv)
        caplog.clear()
        code = cli.entrypoint(["voi", "--config", str(config)])
        runs[name] = (code, VoiReport.from_jsonl(
            (out / "voi_report.jsonl").read_text()).rows,
            [json.loads(line) for line in
             (out / "voi_errors.jsonl").read_text().splitlines()],
            (out / "voi_report.jsonl").read_text().splitlines(),
            [r.getMessage() for r in caplog.records
             if "halves again" in r.getMessage()])
    assert [r[0] for r in runs.values()] == [2, 0, 2]
    assert runs["all"][4] == []
    assert runs["good"][4] == []
    assert [line for line in runs["all"][3]
            if '"trajectory_id": "bad"' not in line] == runs["good"][3]
    assert runs["all"][1] == sorted(runs["good"][1] + runs["bad"][1],
                                    key=VoiReport.sort_key)
    assert runs["all"][2] == runs["bad"][2]
    errors = runs["bad"][2]
    assert errors and {e["trajectory_id"] for e in errors} == {"bad"}
    # its identity release fails to fit under three priors; perturbation
    # specs refuse its noise before any fit
    assert sum(e["error"].startswith("GpNumericalError") for e in errors) == 3
    assert len(errors) + len(runs["bad"][1]) == 10


def test_voi_batch_failing_as_a_whole_falls_back_to_single_cells(
        tmp_path, monkeypatch, caplog):
    # should a shared pass raise, the chunk runs again in halves, and so on
    # down to the cells at fault, and only those fail
    config, traj_csv, out = write_config(tmp_path)
    write_trajectory_csv(small_fleet(), traj_csv)
    assert cli.entrypoint(["voi", "--config", str(config)]) == 0
    expected = (out / "voi_report.jsonl").read_text()
    real = cli.score_cells

    def fragile(cells, *args):
        # b's 100 m release, alone or fused with the 400 m prior
        if any(evidence.trajectory_id == "b" and evidence.sigma[-1] > 90.0
               for evidence, *_ in cells):
            raise OverflowError("boom")
        return real(cells, *args)

    monkeypatch.setattr(cli, "score_cells", fragile)
    caplog.clear()
    assert cli.entrypoint(["voi", "--config", str(config)]) == 2
    fallbacks = [r.getMessage() for r in caplog.records
                 if "halves again" in r.getMessage()]
    # b's two cells are the 12th and 16th of 30, one in each half
    assert fallbacks == [
        f"a task of {n} items failed (OverflowError: boom); running its "
        f"halves again" for n in (30, 15, 8, 4, 2, 15, 7, 3)]
    errors = [json.loads(line) for line in
              (out / "voi_errors.jsonl").read_text().splitlines()]
    assert [(e["trajectory_id"], e["kind"], e["param"], e["error"])
            for e in errors] == [("b", "perturbation", 100.0,
                                  "OverflowError: boom")] * 2
    rows = [line for line in expected.splitlines()
            if not ('"trajectory_id": "b"' in line
                    and '"kind": "perturbation"' in line)]
    assert (out / "voi_report.jsonl").read_text().splitlines() == rows


def test_voi_exact_fix_fails_only_its_fused_cells(tmp_path):
    # an exact fix (sigma 0) cannot be fused with a perturbation prior by
    # inverse-variance weighting: the identity release of its trajectory
    # fails under each perturbation prior, and every other cell is reported
    fleet = small_fleet()
    fleet[1] = replace(fleet[1], sigma=[3.0, 3.0, 0.0, 3.0, 3.0, 3.0])
    config, out = reference_matrix_config(tmp_path, fleet)
    assert cli.entrypoint(["voi", "--config", str(config)]) == 2
    errors = [json.loads(line) for line in
              (out / "voi_errors.jsonl").read_text().splitlines()]
    perturbation_priors = [spec.label() for spec in cli._prior_specs(
        load_config(str(config))) if spec and spec.kind == "perturbation"]
    assert len(perturbation_priors) == 2
    assert [(e["trajectory_id"], e["prior"], e["kind"], e["error"])
            for e in errors] == [
        ("b", prior, "identity", "ZeroDivisionError: float division by zero")
        for prior in sorted(perturbation_priors)]
    report = VoiReport.from_jsonl((out / "voi_report.jsonl").read_text())
    assert len(report.rows) == 3 * 55 - 2


def test_correctness_pinned_to_its_last_bit(suite):
    # the identity fit behind correctness_err_m, the same whether a walk's
    # track is fit with others or alone
    walks = [suite[0], suite[13], suite[22]]
    assert [len(s) for s in walks] == [26, 200, 117]
    shared = (EntropyGridConfig(), SppConfig(), gp.GpConfig())
    want = ["3.115060247075722", "2.994254692535128", "2.7708199857256144"]
    together = cli._baseline_task((walks, *shared))
    alone = [cli._baseline_task(([s], *shared))[0] for s in walks]
    for outcomes in (together, alone):
        assert [repr(row["correctness_err_m"])
                for _, row in outcomes] == want


def test_baselines_bad_trajectory_fails_only_its_row(tmp_path, caplog):
    # a fix whose noise variance overflows fails its own trajectory's GP
    # fit; every other row comes out as in a run without it
    bad = synth.make_trajectory([0.0, 10.0, 20.0],
                                [DAY + 3 * H + 60.0 * k for k in range(3)],
                                sigmas=[3.0, 1e200, 3.0], trajectory_id="bad")
    runs = {}
    for name, trajectories in (("all", small_fleet() + [bad]),
                               ("good", small_fleet())):
        (tmp_path / name).mkdir()
        config, traj_csv, out = write_config(tmp_path / name)
        write_trajectory_csv(trajectories, traj_csv)
        runs[name] = (cli.entrypoint(["baselines", "--config", str(config)]),
                      (out / "baselines.csv").read_text())
    assert runs["all"] == (2, runs["good"][1])
    assert runs["good"][0] == 0
    assert [r.getMessage() for r in caplog.records
            if "bad failed" in r.getMessage()] == [
        "baselines: bad failed: GpNumericalError: non-finite measurement "
        "noise for trajectory 'bad'"]


def test_baselines_check_each_trajectory_before_the_shared_fit(
        suite, tmp_path, caplog):
    # a fix whose noise variance overflows fails its trajectory's check,
    # so the task is not run again in halves and the other rows come out
    # as in a run without that trajectory
    walks = list(suite[:20])
    sigma = walks[7].sigma.copy()
    sigma[len(sigma) // 2] = 1e200
    walks[7] = replace(walks[7], sigma=sigma)
    assert walks[7].trajectory_id == "synth_007"
    runs = {}
    for name, trajectories in (("all", walks),
                               ("good", walks[:7] + walks[8:])):
        (tmp_path / name).mkdir()
        config, traj_csv, out = write_config(tmp_path / name)
        write_trajectory_csv(trajectories, traj_csv)
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="trajvoi"):
            runs[name] = (
                cli.entrypoint(["baselines", "--config", str(config)]),
                (out / "baselines.csv").read_text(),
                [r.getMessage() for r in caplog.records])
    assert runs["good"] == (0, runs["good"][1], [])
    assert runs["all"] == (2, runs["good"][1], [
        "baselines: synth_007 failed: GpNumericalError: non-finite "
        "measurement noise for trajectory 'synth_007'"])
    assert runs["all"][1].count("\n") == 20


def test_ids_with_commas_survive_voi_baselines_analyze(tmp_path):
    # report CSVs quote an id where it must be, as the trajectory CSV does
    ids = ["a,b", "c", "d"]
    config, traj_csv, out = write_config(tmp_path)
    write_trajectory_csv([replace(t, trajectory_id=tid)
                          for t, tid in zip(small_fleet(), ids)], traj_csv)
    for command in ("voi", "baselines", "analyze"):
        assert cli.entrypoint([command, "--config", str(config)]) == 0
    for name in ("voi_report.csv", "baselines.csv"):
        with open(out / name, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert sorted({r["trajectory_id"] for r in rows}) == ids, name
    assert json.loads((out / "analyze_report.json").read_text())["n"] == 3


def test_voi_rows_equal_per_cell_evaluation(suite, tmp_path):
    # sharing a prior's fit across its cells must not change one bit
    config, out = reference_matrix_config(tmp_path, suite[:3])
    assert cli.entrypoint(["voi", "--config", str(config)]) == 0
    cfg = load_config(str(config))
    rows = []
    for traj in read_trajectory_csv(cfg.trajectories_csv):
        for prior_spec in cli._prior_specs(cfg):
            for spec in cli._degradation_specs(cfg):
                if not cli._applicable(spec, prior_spec):
                    continue
                prior = PriorKnowledge.uninformative() if prior_spec is None \
                    else PriorKnowledge.from_release(
                        apply_spec(traj, prior_spec), prior_spec)
                rows.append(evaluate_voi(apply_spec(traj, spec), spec.kind,
                                         spec.param, prior, cfg.gp,
                                         cfg.integration))
    assert len(rows) == 3 * 55
    assert (out / "voi_report.jsonl").read_text() \
        == VoiReport(rows=rows).sorted().to_jsonl()


def test_voi_failed_prior_fit_fails_only_its_cells(suite, tmp_path,
                                                   monkeypatch):
    config, out = reference_matrix_config(tmp_path, suite[:1])
    real = infogain.train_length_scales
    # the noise variance a training holds for a 300 m fix
    noise_300 = gp.Training.of([0.0], [], [300.0],
                               load_config(str(config)).gp).noise

    def detrended(training):
        x = training.resids[0]
        return np.allclose(infogain._linear_residuals(training.times, x), x)

    def fail_on_300m_prior(trainings, *args, **kwargs):
        # a released prior trains about its own least-squares lines; the
        # 300 m release under the uninformative prior trains as it is
        if any(np.all(t.noise == noise_300) and detrended(t)
               for t in trainings):
            raise RuntimeError("no fit")
        return real(trainings, *args, **kwargs)

    monkeypatch.setattr(infogain, "train_length_scales", fail_on_300m_prior)
    assert cli.entrypoint(["voi", "--config", str(config)]) == 2
    errors = [json.loads(line) for line in
              (out / "voi_errors.jsonl").read_text().splitlines()]
    # identity plus the six perturbation levels pair with that prior
    assert len(errors) == 7
    for e in errors:
        assert set(e) == {"trajectory_id", "prior", "kind", "param", "error"}
        assert e["trajectory_id"] == suite[0].trajectory_id
        assert e["prior"] == "perturbation:300"
        assert e["kind"] in ("identity", "perturbation")
        assert e["error"] == "RuntimeError: no fit"
    report = VoiReport.from_jsonl((out / "voi_report.jsonl").read_text())
    assert len(report.rows) == 55 - 7
    assert "perturbation:300" not in {r.prior for r in report.rows}


def test_voi_survives_a_dead_worker(tmp_path, monkeypatch):
    config, traj_csv, out = write_config(tmp_path)
    write_trajectory_csv(small_fleet(), traj_csv)
    real = cli.score_cells

    def die_on_b(cells, *args, **kwargs):
        if any(evidence.trajectory_id == "b" for evidence, *_ in cells):
            os._exit(1)
        return real(cells, *args, **kwargs)

    monkeypatch.setattr(cli, "score_cells", die_on_b)
    assert cli.entrypoint(["voi", "--config", str(config),
                           "--jobs", "2"]) == 2
    errors = [json.loads(line) for line in
              (out / "voi_errors.jsonl").read_text().splitlines()]
    assert len(errors) == 10
    assert {e["trajectory_id"] for e in errors} == {"b"}
    assert all("BrokenProcessPool" in e["error"] for e in errors)
    report = VoiReport.from_jsonl((out / "voi_report.jsonl").read_text())
    assert len(report.rows) == 20
    assert {r.trajectory_id for r in report.rows} == {"a", "c"}


def test_voi_dead_worker_loses_only_its_cells(tmp_path, monkeypatch):
    # the worker dies on b's two truncation cells only: its task runs again
    # in halves, each on a fresh worker, down to those two cells
    config, traj_csv, out = write_config(tmp_path)
    write_trajectory_csv(small_fleet(), traj_csv)
    assert cli.entrypoint(["voi", "--config", str(config)]) == 0
    expected = (out / "voi_report.jsonl").read_text().splitlines()
    real = cli.score_cells

    def die_on_b_truncation(cells, *args, **kwargs):
        if any(evidence.trajectory_id == "b" and kind == "truncation"
               for evidence, _, kind, _ in cells):
            os._exit(1)
        return real(cells, *args, **kwargs)

    monkeypatch.setattr(cli, "score_cells", die_on_b_truncation)
    assert cli.entrypoint(["voi", "--config", str(config),
                           "--jobs", "2"]) == 2
    errors = [json.loads(line) for line in
              (out / "voi_errors.jsonl").read_text().splitlines()]
    assert [(e["trajectory_id"], e["prior"], e["kind"])
            for e in errors] == [("b", prior, "truncation")
                                 for prior in ("truncation:0.5",
                                               "uninformative")]
    assert all(e["error"].startswith("BrokenProcessPool: ") for e in errors)
    assert (out / "voi_report.jsonl").read_text().splitlines() == [
        line for line in expected
        if not ('"trajectory_id": "b"' in line
                and '"kind": "truncation"' in line)]


def test_baselines_survive_a_dead_worker(tmp_path, monkeypatch):
    config, traj_csv, out = write_config(tmp_path)
    write_trajectory_csv(small_fleet(), traj_csv)
    real = cli.correctness_value

    def die_on_b(z, *args, **kwargs):
        if z.trajectory_id == "b":
            os._exit(1)
        return real(z, *args, **kwargs)

    monkeypatch.setattr(cli, "correctness_value", die_on_b)
    assert cli.entrypoint(["baselines", "--config", str(config),
                           "--jobs", "2"]) == 2
    lines = (out / "baselines.csv").read_text().splitlines()
    assert [l.split(",")[0] for l in lines[1:]] == ["a", "c"]


def test_missing_trajectory_csv_is_config_error(tmp_path, capsys):
    config, _, _ = write_config(tmp_path)
    assert cli.entrypoint(["voi", "--config", str(config)]) == 1
    assert "not found" in capsys.readouterr().err


def test_unknown_config_key_is_config_error(tmp_path, capsys):
    config = tmp_path / "bad.yaml"
    config.write_text("definitely_not_a_key: 1\n")
    assert cli.entrypoint(["voi", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "definitely_not_a_key" in err


def test_degrade_writes_one_csv_per_spec(tmp_path):
    config, traj_csv, out = write_config(tmp_path)
    write_trajectory_csv(small_fleet(), traj_csv)
    assert cli.entrypoint(["degrade", "--config", str(config)]) == 0
    names = sorted(p.name for p in (out / "degraded").iterdir())
    assert names == ["identity.csv", "perturbation_100.csv",
                     "subsampling_0.5.csv", "truncation_0.5.csv"]
    # the identity copy reproduces the input file exactly
    assert (out / "degraded" / "identity.csv").read_bytes() \
        == traj_csv.read_bytes()


def degrade_fleet():
    """Trajectories whose degraded rows are easy to get wrong: ids that
    need CSV quoting or hold a %, repeated timestamps, awkward magnitudes
    and a lone fix."""
    return [
        synth.make_trajectory([0.0, 7.5, -2.25e-5, 3.3e9],
                              [DAY, DAY, DAY + 60.0, DAY + 60.0],
                              ys=[1.0 / 3.0, 0.0, -0.0, 5e-324],
                              sigmas=[3.0, 0.0, 2.5, 3.0],
                              trajectory_id='a,"b"', owner_id="o,1"),
        synth.make_trajectory([10.0 * k for k in range(12)],
                              [DAY + H + 30.0 * k for k in range(12)],
                              trajectory_id="p%d%%", owner_id="own%r"),
        synth.make_trajectory([5.0], [DAY + 2 * H], trajectory_id="lone"),
        synth.make_trajectory([1.0, 2.0, 3.0],
                              [DAY + 3 * H + k for k in range(3)],
                              trajectory_id="three", owner_id="001"),
    ]


def test_degrade_files_equal_per_spec_writes(tmp_path, caplog):
    # each file degrade writes in its one pass holds what writing that
    # spec's releases alone would
    config, traj_csv, out = write_config(tmp_path)
    config.write_text(config.read_text()
                      .replace("noise_levels_m: [100]",
                               "noise_levels_m: [100, 3.5]")
                      .replace("truncation_ratios: [0.5]",
                               "truncation_ratios: [0.5, 0.05, 0.5]", 1)
                      .replace("subsampling_ratios: [0.5]",
                               "subsampling_ratios: [0.5, 0.000001]", 1))
    write_trajectory_csv(degrade_fleet(), traj_csv)
    with caplog.at_level(logging.WARNING, logger="trajvoi"):
        assert cli.entrypoint(["degrade", "--config", str(config)]) == 0
    assert [r.getMessage() for r in caplog.records] \
        == ["degrade: 1 duplicate specs were dropped"]
    trajectories = read_trajectory_csv(traj_csv)
    specs, _ = cli._distinct(cli._degradation_specs(load_config(config)),
                             DegradationSpec.label)
    assert len(specs) == 7
    assert sorted(p.name for p in (out / "degraded").iterdir()) == sorted(
        spec.label().replace(":", "_") + ".csv" for spec in specs)
    for spec in specs:
        want = tmp_path / "want.csv"
        write_trajectory_csv([apply_spec(t, spec) for t in trajectories],
                             want)
        got = out / "degraded" / (spec.label().replace(":", "_") + ".csv")
        assert got.read_bytes() == want.read_bytes(), spec
    # one fix per trajectory: truncation 0.05 keeps one of at most 19
    # fixes, and subsampling 1e-06 keeps none by its uniforms, so the one
    # of the least uniform
    for name in ("truncation_0.05.csv", "subsampling_1e-06.csv"):
        assert [len(t) for t in read_trajectory_csv(
            out / "degraded" / name)] == [1, 1, 1, 1]
    assert cli.entrypoint(["degrade", "--config", str(config),
                           "--limit", "0"]) == 0
    header = ",".join(TRAJECTORY_CSV_FIELDS) + "\n"
    assert {p.read_text() for p in (out / "degraded").iterdir()} == {header}


def test_degrade_refuses_a_noise_level_below_a_sigma(tmp_path, capsys):
    config, traj_csv, out = write_config(tmp_path)
    config.write_text(config.read_text().replace(
        "noise_levels_m: [100]", "noise_levels_m: [100, 2.75]"))
    write_trajectory_csv(degrade_fleet(), traj_csv)
    assert cli.entrypoint(["degrade", "--config", str(config)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: perturbation level 2.75 m is below the sigma of a fix (3 m) "
        "in trajectory 'a,\"b\"'"]
    assert not (out / "degraded").exists()


def test_ingest_command(tmp_path):
    plt_root = tmp_path / "plt"
    day_dir = plt_root / "000" / "Trajectory"
    day_dir.mkdir(parents=True)
    (day_dir / "20081024025304.plt").write_text(
        PLT_HEADER
        + "39.906631,116.385564,0,492,39745.1204,2008-10-24,02:53:04\n"
        + "39.906700,116.385700,0,492,39745.1205,2008-10-24,02:53:09\n")
    config, traj_csv, out = write_config(tmp_path,
                                         plt_root=f'"{plt_root}"')
    assert cli.entrypoint(["ingest", "--config", str(config)]) == 0
    assert traj_csv.exists()
    manifest = json.loads((out / "ingest_manifest.json").read_text())
    assert manifest["files_read"] == 1
    assert manifest["measurements_retained"] == 2
    assert manifest["trajectories"] == 1


def test_ingest_plt_shorter_than_its_header_is_config_error(tmp_path,
                                                             capsys):
    day_dir = tmp_path / "plt" / "000" / "Trajectory"
    day_dir.mkdir(parents=True)
    short = day_dir / "20081024025304.plt"
    short.write_text("Geolife trajectory\nWGS 84\n")
    config, _, _ = write_config(tmp_path,
                                plt_root=f'"{tmp_path / "plt"}"')
    assert cli.entrypoint(["ingest", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err == (f"error: {short}: PLT file has 2 lines, shorter than the "
                   f"6-line header\n")


@pytest.mark.parametrize("command", ["voi", "baselines", "degrade"])
@pytest.mark.parametrize("row", [
    "a,000,1224810000.000,0,0\n",             # a short row
    "a,000,1224810000.000,nan,0,3\n",         # a non-finite coordinate
    "b,000,1224810000.000,0,0,3\na,000,1224810060.000,0,0,3\n",  # a again
])
def test_malformed_trajectory_csv_is_config_error(tmp_path, capsys, command,
                                                  row):
    config, traj_csv, _ = write_config(tmp_path)
    traj_csv.write_text("trajectory_id,owner_id,t,x,y,sigma\n"
                        "a,000,1224806400.000,0,0,3\n" + row)
    assert cli.entrypoint([command, "--config", str(config)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: malformed trajectory CSV {traj_csv}: ")
    assert err[0].count(str(traj_csv)) == 1


def output_files(out):
    return {p.relative_to(out): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("command", ["degrade", "voi", "baselines"])
def test_limit_stops_reading_before_later_malformed_rows(tmp_path, command):
    # trajectory 3 has a short row and trajectory 4 reuses a's id; with
    # --limit 1 the reader stops at b's first row and never sees them
    a, b, _ = small_fleet()
    runs = {}
    for name in ("cut", "tail"):
        (tmp_path / name).mkdir()
        config, traj_csv, out = write_config(tmp_path / name)
        write_trajectory_csv([a, b] if name == "tail" else [a], traj_csv)
        if name == "tail":
            with open(traj_csv, "a") as fh:
                fh.write("c,001,1224810000.000,0,0,3\n"
                         "c,001,1224810060.000,0\n"
                         "a,000,1224820000.000,0,0,3\n")
        assert cli.entrypoint([command, "--config", str(config),
                               "--limit", "1"]) == 0
        runs[name] = output_files(out)
    assert runs["tail"] and runs["tail"] == runs["cut"]


@pytest.mark.parametrize("command", ["degrade", "voi", "baselines"])
def test_unreadable_trajectory_csv_is_config_error(tmp_path, capsys,
                                                   command):
    config, traj_csv, _ = write_config(tmp_path)
    traj_csv.mkdir()
    assert cli.entrypoint([command, "--config", str(config)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: cannot read trajectory CSV {traj_csv}: ")
    assert err[0].count(str(traj_csv)) == 1


def test_ingest_unreadable_plt_path_is_config_error(tmp_path, capsys):
    day_dir = tmp_path / "plt" / "000" / "Trajectory"
    (day_dir / "20081024025304.plt").mkdir(parents=True)
    config, _, _ = write_config(tmp_path,
                                plt_root=f'"{tmp_path / "plt"}"')
    assert cli.entrypoint(["ingest", "--config", str(config)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(
        f"error: cannot read {day_dir / '20081024025304.plt'}: ")


def test_ingest_without_plt_root(tmp_path, capsys):
    config, _, _ = write_config(tmp_path)
    assert cli.entrypoint(["ingest", "--config", str(config)]) == 1
    assert "plt_root" in capsys.readouterr().err


def fake_row(tid, kind="identity", param=1.0):
    return VoiRow(trajectory_id=tid, prior="uninformative", kind=kind,
                  param=param, ig_bit_seconds=float(len(tid)),
                  length_scale_x=1.0, length_scale_y=1.0)


def baselines_text(ids):
    header = ("trajectory_id,size,duration_s,distance_m,h_spatial_bits,"
              "h_temporal_bits,spp,correctness_err_m")
    rows = [f"{tid},{3 + k},{100.0 + k},{10.0},{0.1 * k},{0.2 * k},{1.0},"
            for k, tid in enumerate(ids)]
    return header + "\n" + "\n".join(rows) + "\n"


def test_analyze_reports_missing_join_ids(tmp_path, capsys):
    config, _, out = write_config(tmp_path)
    out.mkdir(parents=True)
    report = VoiReport(rows=[fake_row("aa"), fake_row("bb"), fake_row("ccc")])
    (out / "voi_report.jsonl").write_text(report.to_jsonl())
    (out / "baselines.csv").write_text(baselines_text(["aa", "bb"]))
    assert cli.entrypoint(["analyze", "--config", str(config)]) == 1
    assert "ccc" in capsys.readouterr().err


def test_analyze_needs_identity_cells(tmp_path, capsys):
    config, _, out = write_config(tmp_path)
    out.mkdir(parents=True)
    rows = [fake_row("aa", kind="perturbation", param=100.0)]
    (out / "voi_report.jsonl").write_text(VoiReport(rows=rows).to_jsonl())
    (out / "baselines.csv").write_text(baselines_text(["aa"]))
    assert cli.entrypoint(["analyze", "--config", str(config)]) == 1
    assert "identity" in capsys.readouterr().err


def test_outputs_do_not_depend_on_blas_threads(suite, tmp_path):
    # the same run with one and with two BLAS threads, each in a fresh
    # interpreter so that the thread count takes effect
    traj_csv = tmp_path / "suite.csv"
    write_trajectory_csv(suite[:20], traj_csv)
    src = str(Path(cli.__file__).resolve().parents[1])
    outputs = {}
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        config = tmp_path / f"threads{threads}.yaml"
        config.write_text("\n".join([
            f'trajectories_csv: "{traj_csv}"',
            f'output_dir: "{out}"',
            "degradation:",
            "  noise_levels_m: [100]",
            "  truncation_ratios: [0.5]",
            "  subsampling_ratios: [0.5]",
            "priors:",
            "  perturbation_noise_m: [400]",
            "  truncation_ratios: []",
            "  subsampling_ratios: []",
        ]) + "\n")
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        for command in ("voi", "baselines"):
            subprocess.run([sys.executable, "-m", "trajvoi.cli", command,
                            "--config", str(config)], env=env, check=True,
                           capture_output=True)
        outputs[threads] = {name: (out / name).read_bytes()
                            for name in ("voi_report.jsonl", "baselines.csv")}
    assert outputs["1"] == outputs["2"]
