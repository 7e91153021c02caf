"""YAML run configuration: defaults, coercion, rejection, hashing."""

import math
import os
import subprocess
import sys
from dataclasses import fields, is_dataclass
from pathlib import Path

import pytest
import yaml

import trajvoi
from trajvoi.runconfig import (PRIOR_SEED_OFFSET, SETTINGS, ConfigError,
                               RunConfig, load_config)


def write(tmp_path, text):
    p = tmp_path / "run.yaml"
    p.write_text(text)
    return str(p)


def test_defaults_reproduce_reference_protocol():
    cfg = RunConfig()
    assert cfg.noise_levels_m == [3.0, 10.0, 100.0, 200.0, 300.0, 400.0]
    assert cfg.truncation_ratios == [0.8, 0.6, 0.4, 0.2, 0.05]
    assert cfg.subsampling_ratios == [0.8, 0.6, 0.4, 0.2, 0.05]
    assert cfg.prior_noise_m == [400.0, 300.0]
    assert cfg.prior_truncation_ratios == [0.05, 0.2]
    assert cfg.gp.sigma_f == 7500.0
    assert cfg.gp.length_scale_bounds == (0.01, 10.0)
    assert cfg.integration.grid_step == 60.0
    assert cfg.integration.day_seconds == 86400.0
    assert cfg.region.min_lon == 116.20 and cfg.region.max_lat == 40.06
    assert cfg.jobs == 1 and cfg.limit is None
    assert cfg.include_identity and cfg.prior_uninformative


def test_effective_prior_seed():
    assert RunConfig().effective_prior_seed() == PRIOR_SEED_OFFSET
    assert RunConfig(seed=5).effective_prior_seed() == 5 + PRIOR_SEED_OFFSET
    assert RunConfig(seed=5, prior_seed=42).effective_prior_seed() == 42


def test_load_config_none_and_empty_file(tmp_path):
    default = RunConfig()
    assert load_config(None).to_dict() == default.to_dict()
    assert load_config(write(tmp_path, "")).to_dict() == default.to_dict()
    assert load_config(write(tmp_path, "# only a comment\n")).to_dict() \
        == default.to_dict()


def test_load_config_applies_and_coerces(tmp_path):
    path = write(tmp_path, """
plt_root: /data/plt
output_dir: results
jobs: "4"
limit: 100
degradation:
  noise_levels_m: [50, 150]
  seed: 9
  prior_seed: 77
priors:
  uninformative: false
  perturbation_noise_m: [250]
gp:
  sigma0_m: 5000
  length_scale_bounds_h: [0.1, 2]
integration:
  grid_step_s: 30
  include_measurement_times: false
segmentation:
  max_gap_s: 600
""")
    cfg = load_config(path)
    assert cfg.plt_root == "/data/plt"
    assert cfg.output_dir == "results"
    assert cfg.jobs == 4 and cfg.limit == 100
    assert cfg.noise_levels_m == [50.0, 150.0]
    assert cfg.seed == 9 and cfg.effective_prior_seed() == 77
    assert cfg.prior_uninformative is False
    assert cfg.prior_noise_m == [250.0]
    assert cfg.gp.sigma_f == 5000.0
    assert cfg.gp.length_scale_bounds == (0.1, 2.0)
    assert cfg.integration.grid_step == 30.0
    assert cfg.integration.include_measurement_times is False
    assert cfg.segmentation.max_gap == 600.0
    # untouched sections keep their defaults
    assert cfg.truncation_ratios == [0.8, 0.6, 0.4, 0.2, 0.05]


@pytest.mark.parametrize("text,fragment", [
    ("bogus_key: 1\n", "bogus_key"),
    ("degradation:\n  noise: [1]\n", "degradation"),
    ("gp: 3\n", "must be a mapping"),
    ("- a\n- b\n", "must be a mapping"),
    ("jobs: 0\n", "jobs"),
    ("limit: -1\n", "limit"),
    ("degradation:\n  noise_levels_m: [0]\n", "> 0"),
    ("degradation:\n  truncation_ratios: [1.5]\n", "(0, 1]"),
    ("priors:\n  subsampling_ratios: [0]\n", "(0, 1]"),
    ("gp:\n  sigma0_m: -1\n", "sigma"),
    # an infinite setting would fail or poison every cell at run time
    ("gp:\n  sigma0_m: .inf\n", "sigma"),
    ("gp:\n  sigma0_m: 1.0e200\n", "sigma"),
    ("gp:\n  length_scale_bounds_h: [0.1, .inf]\n", "length_scale_bounds"),
    ("integration:\n  day_seconds: .inf\n", "day_seconds"),
    ("segmentation:\n  default_sigma_m: .inf\n", "default_sigma"),
    ("segmentation:\n  default_sigma_m: .nan\n", "default_sigma"),
    ("degradation:\n  noise_levels_m: [3, .inf]\n", "noise_levels_m"),
    ("priors:\n  perturbation_noise_m: [.inf]\n", "perturbation prior noise"),
    ("entropy_grid:\n  cell_size_m: .inf\n", "cell_size"),
    ("entropy_grid:\n  bin_length_s: .inf\n", "bin_length"),
    ("spp:\n  v0: .inf\n", "v0"),
    ("spp:\n  sigma_ref_m: .inf\n", "sigma_ref"),
    # cos(lat0) is ~0 at a pole: every x would collapse to ~1e-13 m
    ("projection:\n  lat0: 90\n", "lat0"),
    ("projection:\n  lat0: -89\n", "lat0"),
    ("jobs: [1, 2]\n", ""),
    # YAML types are taken strictly: no string for a list or a boolean,
    # no boolean or fraction for an integer, exactly two bounds
    ("degradation:\n  noise_levels_m: \"34\"\n", "noise_levels_m"),
    ("degradation:\n  include_identity: \"false\"\n", "include_identity"),
    ("priors:\n  uninformative: \"no\"\n", "uninformative"),
    ("integration:\n  include_measurement_times: \"false\"\n",
     "include_measurement_times"),
    ("gp:\n  length_scale_bounds_h: [0.1, 2, 5]\n", "length_scale_bounds_h"),
    ("degradation:\n  seed: 1.9\n", "seed"),
    ("degradation:\n  seed: true\n", "seed"),
    ("jobs: 2.7\n", "jobs"),
    ("gp:\n  grid_size: 32.9\n", "grid_size"),
    ("trajectories_csv: [a]\n", "trajectories_csv"),
    # a repeated key would silently drop the first value
    ("degradation: {seed: 3}\ndegradation: {noise_levels_m: [50]}\n",
     "duplicate key 'degradation'"),
    ("degradation:\n  seed: 3\n  seed: 4\n", "duplicate key 'seed'"),
    ("jobs: [1\n", "cannot parse config"),
])
def test_load_config_rejects(tmp_path, text, fragment):
    with pytest.raises(ConfigError) as err:
        load_config(write(tmp_path, text))
    assert fragment in str(err.value)


def test_infinite_max_gap_never_splits(tmp_path):
    # the one setting where infinity means something: no gap is too long
    cfg = load_config(write(tmp_path, "segmentation:\n  max_gap_s: .inf\n"))
    assert cfg.segmentation.max_gap == math.inf


@pytest.mark.parametrize("field, value, message", [
    ("jobs", 0, "jobs must be >= 1"),
    ("limit", -1, "limit must be >= 0"),
    ("noise_levels_m", [0.0], "noise_levels_m entries must be finite and > 0"),
    ("prior_truncation_ratios", [1.5],
     "prior truncation ratios entries must be in (0, 1]"),
])
def test_run_config_checks_its_own_fields(field, value, message):
    # built directly, not only through load_config
    with pytest.raises(ValueError) as err:
        RunConfig(**{field: value})
    assert str(err.value) == message


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "nope.yaml"))


def test_config_hash_stability_and_sensitivity(tmp_path):
    a = load_config(write(tmp_path, "degradation: {seed: 3}\n"))
    b = load_config(write(tmp_path, "degradation: {seed: 3}\n"))
    assert a.config_hash() == b.config_hash()
    assert len(a.config_hash()) == 64
    c = load_config(write(tmp_path, "degradation: {seed: 4}\n"))
    assert a.config_hash() != c.config_hash()


def test_config_hash_ignores_run_placement():
    # the worker count and the output directory change no result, so runs
    # that differ only there carry the same hash in their reports
    a = RunConfig(jobs=1, output_dir="out")
    b = RunConfig(jobs=8, output_dir="elsewhere/out")
    assert a.config_hash() == b.config_hash()


def test_setup_path_loads_no_scipy():
    # importing the package and its CLI, and loading a config, stays clear
    # of scipy, which only the tests need
    code = ("import sys, trajvoi, trajvoi.cli\n"
            "from trajvoi.runconfig import load_config\n"
            "load_config(None)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = str(Path(trajvoi.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_config_hash_backs_out_derived_prior_seed():
    # spelling out the derived prior seed is the same configuration
    implicit = RunConfig(seed=2)
    explicit = RunConfig(seed=2, prior_seed=2 + PRIOR_SEED_OFFSET)
    assert implicit.config_hash() == explicit.config_hash()


def test_settings_table_reaches_every_field_once():
    # a field no row names would drop out of loading, to_dict and
    # config_hash without a word
    expected = []
    for f in fields(RunConfig):
        default = getattr(RunConfig(), f.name)
        expected += ([f"{f.name}.{g.name}" for g in fields(default)]
                     if is_dataclass(default) else [f.name])
    attrs = [attr for _, _, attr, *_ in SETTINGS]
    assert sorted(attrs) == sorted(expected)


def test_readme_lists_every_key(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("All keys:", 1)[1].split("```yaml\n", 1)[1]
    block = block.split("```", 1)[0]
    load_config(write(tmp_path, block))
    documented = set()
    for key, value in yaml.safe_load(block).items():
        documented |= ({(key, k) for k in value} if isinstance(value, dict)
                       else {(None, key)})
    assert documented == {(section, key) for section, key, *_ in SETTINGS}


# config_hash of each configuration, recorded before the settings table
# replaced the hand-written loader; bench/run.py writes the last four
# shapes (its paths fixed here)
BENCH_BASE = ("plt_root: plt\ntrajectories_csv: out/trajectories.csv\n"
              "output_dir: out\njobs: 1\n")


@pytest.mark.parametrize("text,digest", [
    ("", "4852f2ac36c8af0987e6cef85cf53577f932dd9e1e5de4d38de28db735507bab"),
    ("degradation: {seed: 3}\n",
     "1d72df96adffd3a7971d35d7c2e170c8ad5bbd6a6582e43ca6c1204ff01b78f9"),
    (BENCH_BASE,
     "6a6a4dbba2c20672a0e032c9f8e0ebd2aa40b7b6f73e8732164e79f90da33307"),
    (BENCH_BASE + "segmentation: {max_gap_s: 86400}\n",
     "3c73b849eb9a58729e9a438ccde30bfcc247beb3f667974d311ee12a3a16bf4e"),
    (BENCH_BASE + "segmentation: {max_gap_s: 86400}\n"
     "degradation: {noise_levels_m: [], truncation_ratios: [], "
     "subsampling_ratios: [], include_identity: true}\n"
     "priors: {perturbation_noise_m: [], truncation_ratios: [], "
     "subsampling_ratios: [], uninformative: true}\n",
     "4453ccb0f019b190b6905037172467c7d8e4df5cf5c9a9862b52b0ac90c09cdb"),
    (BENCH_BASE + "limit: 1\n"
     "degradation: {noise_levels_m: [10.0], truncation_ratios: [], "
     "subsampling_ratios: [], include_identity: true}\n"
     "priors: {perturbation_noise_m: [400.0], truncation_ratios: [], "
     "subsampling_ratios: []}\n",
     "9c2081f835fcac543d7544a2a5733b1ce0a2b4444cd56813a8b020fcd78554b1"),
])
def test_config_hash_is_pinned(tmp_path, text, digest):
    assert load_config(write(tmp_path, text)).config_hash() == digest
