"""Declarative batch-run configuration.

One YAML file describes an entire experiment: where the data lives, the
study region and projection, the degradation matrix, the prior scenarios,
and every numeric knob. All defaults reproduce the reference protocol
(Beijing region, noise levels 3..400 m, ratios 0.8..0.05, sigma0 = 7500 m),
so an empty file is a complete, meaningful configuration.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

import yaml

from .baselines import EntropyGridConfig, SppConfig
from .gp import GpConfig
from .infogain import IntegrationConfig
from .ingest import SegmentationConfig
from .model import ProjectionConfig, Region

# offset applied to the base seed to derive an independent noise stream for
# previously-released perturbation priors (subsampling priors reuse the base
# seed on purpose: nesting makes the release a superset of the prior)
PRIOR_SEED_OFFSET = 1_000_003

DEFAULT_NOISE_LEVELS_M = (3.0, 10.0, 100.0, 200.0, 300.0, 400.0)
DEFAULT_RATIOS = (0.8, 0.6, 0.4, 0.2, 0.05)
DEFAULT_PRIOR_NOISE_M = (400.0, 300.0)
DEFAULT_PRIOR_RATIOS = (0.05, 0.2)


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration (CLI exit code 1)."""


@dataclass
class RunConfig:
    plt_root: Optional[str] = None
    trajectories_csv: str = "out/trajectories.csv"
    output_dir: str = "out"

    region: Region = field(default_factory=lambda: Region(
        min_lon=116.20, max_lon=116.55, min_lat=39.80, max_lat=40.06))
    projection: ProjectionConfig = field(default_factory=lambda: ProjectionConfig(
        lon0=116.375, lat0=39.93))
    segmentation: SegmentationConfig = field(default_factory=SegmentationConfig)

    noise_levels_m: List[float] = field(
        default_factory=lambda: list(DEFAULT_NOISE_LEVELS_M))
    truncation_ratios: List[float] = field(
        default_factory=lambda: list(DEFAULT_RATIOS))
    subsampling_ratios: List[float] = field(
        default_factory=lambda: list(DEFAULT_RATIOS))
    include_identity: bool = True
    seed: int = 0
    prior_seed: Optional[int] = None  # derived from seed when unset

    prior_uninformative: bool = True
    prior_noise_m: List[float] = field(
        default_factory=lambda: list(DEFAULT_PRIOR_NOISE_M))
    prior_truncation_ratios: List[float] = field(
        default_factory=lambda: list(DEFAULT_PRIOR_RATIOS))
    prior_subsampling_ratios: List[float] = field(
        default_factory=lambda: list(DEFAULT_PRIOR_RATIOS))

    gp: GpConfig = field(default_factory=GpConfig)
    integration: IntegrationConfig = field(default_factory=IntegrationConfig)
    entropy_grid: EntropyGridConfig = field(default_factory=EntropyGridConfig)
    spp: SppConfig = field(default_factory=SppConfig)

    jobs: int = 1
    limit: Optional[int] = None

    def effective_prior_seed(self) -> int:
        if self.prior_seed is not None:
            return self.prior_seed
        return self.seed + PRIOR_SEED_OFFSET

    def to_dict(self) -> dict:
        return {
            "plt_root": self.plt_root,
            "trajectories_csv": self.trajectories_csv,
            "output_dir": self.output_dir,
            "region": {"min_lon": self.region.min_lon,
                       "max_lon": self.region.max_lon,
                       "min_lat": self.region.min_lat,
                       "max_lat": self.region.max_lat},
            "projection": {"lon0": self.projection.lon0,
                           "lat0": self.projection.lat0},
            "segmentation": {"max_gap_s": self.segmentation.max_gap,
                             "default_sigma_m": self.segmentation.default_sigma},
            "degradation": {"noise_levels_m": self.noise_levels_m,
                            "truncation_ratios": self.truncation_ratios,
                            "subsampling_ratios": self.subsampling_ratios,
                            "include_identity": self.include_identity,
                            "seed": self.seed,
                            "prior_seed": self.effective_prior_seed()},
            "priors": {"uninformative": self.prior_uninformative,
                       "perturbation_noise_m": self.prior_noise_m,
                       "truncation_ratios": self.prior_truncation_ratios,
                       "subsampling_ratios": self.prior_subsampling_ratios},
            "gp": {"sigma0_m": self.gp.sigma_f,
                   "length_scale_bounds_h": list(self.gp.length_scale_bounds),
                   "grid_size": self.gp.grid_size},
            "integration": {"grid_step_s": self.integration.grid_step,
                            "day_seconds": self.integration.day_seconds,
                            "include_measurement_times":
                                self.integration.include_measurement_times},
            "entropy_grid": {"cell_size_m": self.entropy_grid.cell_size,
                             "bin_length_s": self.entropy_grid.bin_length},
            "spp": {"v0": self.spp.v0, "sigma_ref_m": self.spp.sigma_ref},
            "jobs": self.jobs,
            "limit": self.limit,
        }

    def config_hash(self) -> str:
        """Digest of the settings that shape the results: where a run
        writes and how many workers it uses are left out."""
        settings = self.to_dict()
        del settings["jobs"], settings["output_dir"]
        blob = json.dumps(settings, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def _take(section: dict, key: str, default):
    return section.pop(key) if key in section else default


def _done(name: str, section: dict):
    if section:
        raise ConfigError(f"unknown keys in {name!r}: {sorted(section)}")


def _section(raw: dict, name: str) -> dict:
    value = raw.pop(name, {}) or {}
    if not isinstance(value, dict):
        raise ConfigError(f"section {name!r} must be a mapping")
    return dict(value)


def load_config(path: Optional[str] = None) -> RunConfig:
    """Build a RunConfig from a YAML file; every key is optional."""
    raw = {}
    if path is not None:
        try:
            text = Path(path).read_text()
        except OSError as e:
            raise ConfigError(f"cannot read config {path!r}: {e}")
        loaded = yaml.safe_load(text)
        if loaded is None:
            loaded = {}
        if not isinstance(loaded, dict):
            raise ConfigError(f"config root must be a mapping, got "
                              f"{type(loaded).__name__}")
        raw = dict(loaded)
    try:
        return _from_raw(raw)
    except ConfigError:
        raise
    except (TypeError, ValueError) as e:
        raise ConfigError(str(e))


def _from_raw(raw: dict) -> RunConfig:
    cfg = RunConfig()
    cfg.plt_root = _take(raw, "plt_root", cfg.plt_root)
    cfg.trajectories_csv = _take(raw, "trajectories_csv", cfg.trajectories_csv)
    cfg.output_dir = _take(raw, "output_dir", cfg.output_dir)

    sec = _section(raw, "region")
    cfg.region = Region(
        min_lon=float(_take(sec, "min_lon", cfg.region.min_lon)),
        max_lon=float(_take(sec, "max_lon", cfg.region.max_lon)),
        min_lat=float(_take(sec, "min_lat", cfg.region.min_lat)),
        max_lat=float(_take(sec, "max_lat", cfg.region.max_lat)))
    _done("region", sec)

    sec = _section(raw, "projection")
    cfg.projection = ProjectionConfig(
        lon0=float(_take(sec, "lon0", cfg.projection.lon0)),
        lat0=float(_take(sec, "lat0", cfg.projection.lat0)))
    _done("projection", sec)

    sec = _section(raw, "segmentation")
    cfg.segmentation = SegmentationConfig(
        max_gap=float(_take(sec, "max_gap_s", cfg.segmentation.max_gap)),
        default_sigma=float(_take(sec, "default_sigma_m",
                                  cfg.segmentation.default_sigma)))
    _done("segmentation", sec)

    sec = _section(raw, "degradation")
    cfg.noise_levels_m = [float(v) for v in
                          _take(sec, "noise_levels_m", cfg.noise_levels_m)]
    cfg.truncation_ratios = [float(v) for v in
                             _take(sec, "truncation_ratios",
                                   cfg.truncation_ratios)]
    cfg.subsampling_ratios = [float(v) for v in
                              _take(sec, "subsampling_ratios",
                                    cfg.subsampling_ratios)]
    cfg.include_identity = bool(_take(sec, "include_identity",
                                      cfg.include_identity))
    cfg.seed = int(_take(sec, "seed", cfg.seed))
    prior_seed = _take(sec, "prior_seed", None)
    cfg.prior_seed = None if prior_seed is None else int(prior_seed)
    _done("degradation", sec)

    sec = _section(raw, "priors")
    cfg.prior_uninformative = bool(_take(sec, "uninformative",
                                         cfg.prior_uninformative))
    cfg.prior_noise_m = [float(v) for v in
                         _take(sec, "perturbation_noise_m", cfg.prior_noise_m)]
    cfg.prior_truncation_ratios = [float(v) for v in
                                   _take(sec, "truncation_ratios",
                                         cfg.prior_truncation_ratios)]
    cfg.prior_subsampling_ratios = [float(v) for v in
                                    _take(sec, "subsampling_ratios",
                                          cfg.prior_subsampling_ratios)]
    _done("priors", sec)

    sec = _section(raw, "gp")
    bounds = _take(sec, "length_scale_bounds_h",
                   list(GpConfig().length_scale_bounds))
    cfg.gp = GpConfig(
        sigma_f=float(_take(sec, "sigma0_m", GpConfig().sigma_f)),
        length_scale_bounds=(float(bounds[0]), float(bounds[1])),
        grid_size=int(_take(sec, "grid_size", GpConfig().grid_size)))
    _done("gp", sec)

    sec = _section(raw, "integration")
    cfg.integration = IntegrationConfig(
        grid_step=float(_take(sec, "grid_step_s",
                              IntegrationConfig().grid_step)),
        day_seconds=float(_take(sec, "day_seconds",
                                IntegrationConfig().day_seconds)),
        include_measurement_times=bool(
            _take(sec, "include_measurement_times",
                  IntegrationConfig().include_measurement_times)))
    _done("integration", sec)

    sec = _section(raw, "entropy_grid")
    cfg.entropy_grid = EntropyGridConfig(
        cell_size=float(_take(sec, "cell_size_m",
                              EntropyGridConfig().cell_size)),
        bin_length=float(_take(sec, "bin_length_s",
                               EntropyGridConfig().bin_length)))
    _done("entropy_grid", sec)

    sec = _section(raw, "spp")
    cfg.spp = SppConfig(
        v0=float(_take(sec, "v0", SppConfig().v0)),
        sigma_ref=float(_take(sec, "sigma_ref_m", SppConfig().sigma_ref)))
    _done("spp", sec)

    cfg.jobs = int(_take(raw, "jobs", cfg.jobs))
    limit = _take(raw, "limit", None)
    cfg.limit = None if limit is None else int(limit)
    _done("top level", raw)

    if cfg.jobs < 1:
        raise ConfigError("jobs must be >= 1")
    if cfg.limit is not None and cfg.limit < 0:
        raise ConfigError("limit must be >= 0")
    for name, values in (("noise_levels_m", cfg.noise_levels_m),
                         ("perturbation prior noise", cfg.prior_noise_m)):
        if any(v <= 0 for v in values):
            raise ConfigError(f"{name} entries must be > 0")
    for name, values in (("truncation_ratios", cfg.truncation_ratios),
                         ("subsampling_ratios", cfg.subsampling_ratios),
                         ("prior truncation ratios", cfg.prior_truncation_ratios),
                         ("prior subsampling ratios", cfg.prior_subsampling_ratios)):
        if any(not 0 < v <= 1 for v in values):
            raise ConfigError(f"{name} entries must be in (0, 1]")
    return cfg
