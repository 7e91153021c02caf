"""Acceptance checklist.

One test per shipped claim, each printing a single "criterion N PASS/FAIL"
line with the measured numbers (run pytest with -s or -rA to see them).
The dataset replication check only runs when the source PLT tree is on
disk; point GEOLIFE_ROOT at it (default /data/geolife).
"""

import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

import synth
from test_gp import matern32
from trajvoi import cli
from trajvoi.analysis import spearman
from trajvoi.baselines import EntropyGridConfig, spatial_entropy, temporal_entropy
from trajvoi.degrade import DegradationSpec, apply_spec, perturb, subsample
from trajvoi.gp import GpConfig, fit_track
from trajvoi.infogain import PriorKnowledge, evaluate_voi, gaussian_entropy
from trajvoi.ingest import write_trajectory_csv
from trajvoi.runconfig import PRIOR_SEED_OFFSET

NOISE_LEVELS = (3.0, 10.0, 100.0, 200.0, 300.0, 400.0)
RATIOS = (0.8, 0.6, 0.4, 0.2, 0.05)


def report(number, passed, detail):
    line = f"criterion {number} {'PASS' if passed else 'FAIL'}: {detail}"
    print(line)
    assert passed, line


def ig_of(z, kind, param, prior):
    return evaluate_voi(z, kind, param, prior).ig_bit_seconds


# --- 1: qualitative ordering of the six one-day scenarios ---------------

def test_criterion_1_scenario_chain():
    started = time.perf_counter()
    prior = PriorKnowledge.uninformative()
    ig = {tag: ig_of(s, "identity", 1.0, prior)
          for tag, s in synth.scenario_trajectories().items()}
    elapsed = time.perf_counter() - started
    chain = ig["a"] < ig["b"] < ig["c"] < ig["d"] < ig["e"]
    f_near_e = abs(ig["f"] - ig["e"]) <= 0.10 * ig["e"]
    f_above_d = ig["f"] >= ig["d"]
    detail = (", ".join(f"{k}={ig[k]:.0f}" for k in "abcdef")
              + f" bit*s, {elapsed:.1f}s")
    report(1, chain and f_near_e and f_above_d and elapsed < 30.0, detail)


# --- 2 and 3: medians over the 50-walk suite -----------------------------

@pytest.fixture(scope="module")
def noise_medians(suite):
    prior_spec = DegradationSpec(kind="perturbation", total_noise=400.0,
                                 seed=PRIOR_SEED_OFFSET)
    started = time.perf_counter()
    medians = {}
    for level in NOISE_LEVELS:
        spec = DegradationSpec(kind="perturbation", total_noise=level, seed=0)
        rows = {"uninformative": [], "informed": []}
        for traj in suite:
            z = apply_spec(traj, spec)
            released = PriorKnowledge.from_release(
                apply_spec(traj, prior_spec), prior_spec)
            rows["uninformative"].append(
                ig_of(z, "perturbation", level, PriorKnowledge.uninformative()))
            rows["informed"].append(ig_of(z, "perturbation", level, released))
        for name, igs in rows.items():
            medians[(name, level)] = float(np.median(igs))
    return medians, time.perf_counter() - started


def test_criterion_2_noise_monotonicity(noise_medians):
    medians, elapsed = noise_medians
    unin = [medians[("uninformative", l)] for l in NOISE_LEVELS]
    informed = [medians[("informed", l)] for l in NOISE_LEVELS]
    decreasing = all(a > b for a, b in zip(unin, unin[1:]))
    dominated = all(i < u for i, u in zip(informed, unin))
    detail = (f"medians uninformative {[f'{v:.0f}' for v in unin]}, "
              f"400m prior {[f'{v:.0f}' for v in informed]}, {elapsed:.0f}s")
    report(2, decreasing and dominated and elapsed < 600.0, detail)


@pytest.fixture(scope="module")
def ratio_medians(suite):
    prior = PriorKnowledge.uninformative()
    started = time.perf_counter()
    medians = {}
    for kind in ("truncation", "subsampling"):
        for ratio in RATIOS:
            spec = DegradationSpec(kind=kind, ratio=ratio, seed=0) \
                if kind == "subsampling" else \
                DegradationSpec(kind=kind, ratio=ratio)
            igs = [ig_of(apply_spec(t, spec), kind, ratio, prior)
                   for t in suite]
            medians[(kind, ratio)] = float(np.median(igs))
    return medians, time.perf_counter() - started


def test_criterion_3_subsampling_beats_truncation(ratio_medians):
    medians, elapsed = ratio_medians
    trunc = [medians[("truncation", r)] for r in RATIOS]
    sub = [medians[("subsampling", r)] for r in RATIOS]
    ordered = all(s >= t for s, t in zip(sub, trunc))
    trunc_down = all(a > b for a, b in zip(trunc, trunc[1:]))
    sub_down = all(a > b for a, b in zip(sub, sub[1:]))
    detail = (f"truncation {[f'{v:.0f}' for v in trunc]}, "
              f"subsampling {[f'{v:.0f}' for v in sub]}, {elapsed:.0f}s")
    report(3, ordered and trunc_down and sub_down and elapsed < 600.0, detail)


# --- 4: posterior equals the direct-inverse oracle ------------------------

def test_criterion_4_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(20240404)
    # moderate prior scale: posterior variance is sigma_f^2 minus a nearly
    # equal quadratic form, and a huge sigma_f would turn that cancellation
    # into noise orders beyond what either linear-algebra route controls
    sf = 100.0
    cfg = GpConfig(sigma_f=sf)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 6))
        ts = np.sort(rng.uniform(0.0, 6 * synth.HOUR, n))
        xs = rng.normal(0.0, 200.0, n)
        ys = rng.normal(0.0, 200.0, n)
        sig = rng.uniform(1.0, 30.0, n)
        l = float(rng.uniform(0.05, 9.0))
        track = fit_track(synth.make_trajectory(xs, ts, sigmas=sig, ys=ys),
                          cfg, length_scale=l)
        q_ts = rng.uniform(-synth.HOUR, 7 * synth.HOUR, 9)
        q = track.query(q_ts)

        th = ts / synth.HOUR
        K = matern32(th[:, None], th[None, :], sf, l) \
            + np.diag(sig ** 2) + 1e-10 * sf ** 2 * np.eye(n)
        ks = matern32(q_ts[:, None] / synth.HOUR, th[None, :], sf, l)
        Kinv = np.linalg.inv(K)
        var = np.maximum(sf ** 2 - np.einsum("ij,ij->i", ks @ Kinv, ks),
                         1e-12 * sf ** 2)
        for got, want in ((q.mean_x, ks @ Kinv @ xs),
                          (q.mean_y, ks @ Kinv @ ys), (q.var, var)):
            # fraction of the 1e-8 relative band used (1e-8 absolute floor
            # so that means crossing zero stay comparable)
            used = np.max(np.abs(got - want) / (1e-8 + 1e-8 * np.abs(want)))
            worst = max(worst, float(used))
    elapsed = time.perf_counter() - started
    report(4, worst <= 1.0 and elapsed < 60.0,
           f"worst deviation {worst:.2e} of the 1e-8 relative tolerance "
           f"over 1000 instances, {elapsed:.1f}s")


# --- 5: entropy against the integral definition ---------------------------

def test_criterion_5_entropy_vs_integration():
    started = time.perf_counter()
    worst = 0.0
    for sigma in (0.5, 1.0, 3.0, 100.0, 7500.0):
        def neg_p_log2_p(x, s=sigma):
            p = math.exp(-0.5 * (x / s) ** 2) / (s * math.sqrt(2 * math.pi))
            return -p * math.log2(p)

        numeric, _ = quad(neg_p_log2_p, -20 * sigma, 20 * sigma,
                          limit=200, points=[0.0])
        worst = max(worst, abs(numeric - gaussian_entropy(sigma ** 2)))
    elapsed = time.perf_counter() - started
    report(5, worst < 1e-4 and elapsed < 10.0,
           f"worst gap {worst:.2e} bits, {elapsed:.2f}s")


# --- 6: exact unit fixtures ------------------------------------------------

def test_criterion_6_exact_fixtures():
    failures = []

    # entropy hand values to 1e-6
    grid = EntropyGridConfig(cell_size=10.0, bin_length=60.0)
    two_one = synth.make_trajectory([1.0, 2.0, 15.0], [0.0, 1.0, 2.0],
                                    ys=[1.0, 2.0, 1.0])
    if abs(spatial_entropy(two_one, grid) - 0.9182958340544896) > 1e-6:
        failures.append("spatial entropy (2,1)")
    three_one = synth.make_trajectory([0.0] * 4, [0.0, 10.0, 50.0, 70.0])
    if abs(temporal_entropy(three_one, grid) - 0.8112781244591328) > 1e-6:
        failures.append("temporal entropy (3,1)")
    single = synth.make_trajectory([5.0], [0.0])
    if spatial_entropy(single, grid) != 0.0 or temporal_entropy(single, grid) != 0.0:
        failures.append("singleton entropy")

    # 3-4-5 noise law, exactly: raising 3 m measurements to a 5 m total
    # adds a 4 m std draw, byte-identical to perturbing exact (sigma 0)
    # measurements at the same instants straight to 4 m. Both runs share
    # the keyed noise stream, so any deviation in the added std shows.
    ts = [0.0, 60.0, 120.0]
    z345 = perturb(synth.make_trajectory([0.0] * 3, ts, sigmas=3.0), 5.0, seed=7)
    z4 = perturb(synth.make_trajectory([0.0] * 3, ts, sigmas=0.0), 4.0, seed=7)
    if np.any(z345.sigma != 5.0):
        failures.append("3-4-5 total sigma")
    d345 = np.column_stack((z345.x, z345.y))
    d4 = np.column_stack((z4.x, z4.y))
    if not (np.array_equal(d345, d4) and np.all(d345 != 0.0)):
        failures.append("3-4-5 added draw")

    # subsampling nesting, 100 seeds x 5 ratios
    big = synth.make_trajectory(np.arange(200.0), np.arange(200.0) * 10.0)
    for seed in range(100):
        kept = [frozenset(subsample(big, r, seed).t.tolist())
                for r in sorted(RATIOS)]
        if not all(a <= b for a, b in zip(kept, kept[1:])):
            failures.append(f"nesting seed {seed}")
            break

    report(6, not failures, "all exact fixtures hold" if not failures
           else "failed: " + ", ".join(failures))


# --- 7: dataset replication (only with the source data on disk) -----------

GEOLIFE_ROOT = Path(os.environ.get("GEOLIFE_ROOT", "/data/geolife"))


def _geolife_present():
    return GEOLIFE_ROOT.is_dir() \
        and next(GEOLIFE_ROOT.glob("*/Trajectory/*.plt"), None) is not None


needs_dataset = pytest.mark.skipif(
    not _geolife_present(),
    reason=f"source dataset not found under {GEOLIFE_ROOT}; set GEOLIFE_ROOT")

PAPER_IG_RHO = {"size": 0.85, "duration": 0.97,
                "temporal_entropy": 0.96, "spatial_entropy": 0.68}
CROSS_PAIRS = ((("size", "duration_s"), 0.86),
               (("distance_m", "h_spatial_bits"), 0.89),
               (("distance_m", "h_temporal_bits"), 0.78),
               (("h_temporal_bits", "size"), 0.89),
               (("h_temporal_bits", "duration_s"), 0.97))


def strength_class(rho):
    if abs(rho) >= 0.7:
        return "strong"
    if abs(rho) >= 0.4:
        return "moderate"
    return "weak"


def _dataset_config(tmp, limit=None):
    out = tmp / "out"
    lines = [f'plt_root: "{GEOLIFE_ROOT}"',
             f'trajectories_csv: "{tmp}/trajectories.csv"',
             f'output_dir: "{out}"',
             f"jobs: {os.cpu_count() or 1}",
             "degradation:",
             "  noise_levels_m: []",
             "  truncation_ratios: []",
             "  subsampling_ratios: []",
             "priors:",
             "  perturbation_noise_m: []",
             "  truncation_ratios: []",
             "  subsampling_ratios: []"]
    if limit is not None:
        lines.append(f"limit: {limit}")
    path = tmp / "run.yaml"
    path.write_text("\n".join(lines) + "\n")
    return path, out


def _run_study(tmp):
    config, out = _dataset_config(tmp)
    for command in ("voi", "baselines", "analyze"):
        rc = cli.entrypoint([command, "--config", str(config)])
        assert rc == 0, f"{command} exited {rc}"
    analyzed = json.loads((out / "analyze_report.json").read_text())
    ig_rho = {c["y"]: c["rho"] for c in analyzed["correlations"]}
    import csv as _csv
    with open(out / "baselines.csv", newline="") as fh:
        rows = list(_csv.DictReader(fh))
    cross = {}
    for (col_a, col_b), _ in CROSS_PAIRS:
        cross[(col_a, col_b)] = spearman(
            [float(r[col_a]) for r in rows], [float(r[col_b]) for r in rows])
    return ig_rho, cross, out


@needs_dataset
def test_criterion_7_dataset_replication(tmp_path):
    ingest_cfg, out = _dataset_config(tmp_path)
    assert cli.entrypoint(["ingest", "--config", str(ingest_cfg)]) == 0
    manifest = json.loads((out / "ingest_manifest.json").read_text())
    counts_ok = (manifest["measurements_retained"] > 15_000_000
                 and abs(manifest["trajectories"] - 45_831) <= 0.10 * 45_831)

    ig_rho, cross, _ = _run_study(tmp_path)
    rho_ok = all(abs(ig_rho[name] - want) <= 0.05
                 for name, want in PAPER_IG_RHO.items())
    cross_ok = all(abs(cross[pair] - want) <= 0.05
                   for pair, want in CROSS_PAIRS)
    detail = (f"{manifest['measurements_retained']} measurements, "
              f"{manifest['trajectories']} trajectories, ig rho {ig_rho}, "
              f"cross {cross}")
    report(7, counts_ok and rho_ok and cross_ok, detail)


@needs_dataset
def test_criterion_7_limit_variant_same_classes(tmp_path):
    started = time.perf_counter()
    full_tmp = tmp_path / "full"
    full_tmp.mkdir()
    config, _ = _dataset_config(full_tmp)
    assert cli.entrypoint(["ingest", "--config", str(config)]) == 0
    ig_full, cross_full, _ = _run_study(full_tmp)

    small_tmp = tmp_path / "limited"
    small_tmp.mkdir()
    config, out = _dataset_config(small_tmp, limit=2000)
    assert cli.entrypoint(["ingest", "--config", str(config)]) == 0
    for command in ("voi", "baselines", "analyze"):
        assert cli.entrypoint([command, "--config", str(config)]) == 0
    analyzed = json.loads((out / "analyze_report.json").read_text())
    ig_small = {c["y"]: c["rho"] for c in analyzed["correlations"]}
    elapsed = time.perf_counter() - started

    same = all(
        np.sign(ig_small[name]) == np.sign(ig_full[name])
        and strength_class(ig_small[name]) == strength_class(ig_full[name])
        for name in PAPER_IG_RHO)
    report(7, same and elapsed < 3 * 3600.0,
           f"limit-2000 rho {ig_small} vs full {ig_full}, {elapsed:.0f}s")


# --- 8: worker count must not leak into the outputs ------------------------

def test_criterion_8_jobs_determinism(suite, tmp_path):
    traj_csv = tmp_path / "suite.csv"
    write_trajectory_csv(suite, traj_csv)
    outputs = {}
    for jobs in (1, 8):
        out = tmp_path / f"jobs{jobs}"
        config = tmp_path / f"jobs{jobs}.yaml"
        config.write_text("\n".join([
            f'trajectories_csv: "{traj_csv}"',
            f'output_dir: "{out}"',
            "degradation:",
            "  noise_levels_m: [3, 10, 100, 200, 300, 400]",
            "  truncation_ratios: []",
            "  subsampling_ratios: []",
            "  include_identity: false",
            "priors:",
            "  perturbation_noise_m: [400]",
            "  truncation_ratios: []",
            "  subsampling_ratios: []",
        ]) + "\n")
        for command in ("voi", "baselines"):
            assert cli.entrypoint([command, "--config", str(config),
                                   "--jobs", str(jobs)]) == 0
        outputs[jobs] = {name: (out / name).read_bytes()
                         for name in ("voi_report.jsonl", "voi_report.csv",
                                      "voi_errors.jsonl", "baselines.csv")}
    identical = outputs[1] == outputs[8]
    report(8, identical, "600-cell suite run and its baselines identical "
           "with 1 and 8 workers"
           if identical else "outputs differ between worker counts")
