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
import math
from dataclasses import dataclass, field, replace
from operator import attrgetter
from pathlib import Path
from typing import Callable, List, Optional, Tuple

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


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration (CLI exit code 1)."""


@dataclass
class RunConfig:
    plt_root: Optional[str] = None
    trajectories_csv: str = "out/trajectories.csv"
    output_dir: str = "out"

    region: Region = field(default_factory=lambda: Region(
        min_lon=116.20, max_lon=116.55, min_lat=39.80, max_lat=40.06))
    projection: ProjectionConfig = field(
        default_factory=lambda: ProjectionConfig(lon0=116.375, lat0=39.93))
    segmentation: SegmentationConfig = field(default_factory=SegmentationConfig)

    noise_levels_m: List[float] = field(
        default_factory=lambda: [3.0, 10.0, 100.0, 200.0, 300.0, 400.0])
    truncation_ratios: List[float] = field(
        default_factory=lambda: [0.8, 0.6, 0.4, 0.2, 0.05])
    subsampling_ratios: List[float] = field(
        default_factory=lambda: [0.8, 0.6, 0.4, 0.2, 0.05])
    include_identity: bool = True
    seed: int = 0
    prior_seed: Optional[int] = None  # derived from seed when unset

    prior_uninformative: bool = True
    prior_noise_m: List[float] = field(default_factory=lambda: [400.0, 300.0])
    prior_truncation_ratios: List[float] = field(
        default_factory=lambda: [0.05, 0.2])
    prior_subsampling_ratios: List[float] = field(
        default_factory=lambda: [0.05, 0.2])

    gp: GpConfig = field(default_factory=GpConfig)
    integration: IntegrationConfig = field(default_factory=IntegrationConfig)
    entropy_grid: EntropyGridConfig = field(default_factory=EntropyGridConfig)
    spp: SppConfig = field(default_factory=SppConfig)

    jobs: int = 1
    limit: Optional[int] = None

    def __post_init__(self):
        for ok, value, message in (
                (_positive, self.noise_levels_m,
                 "noise_levels_m entries must be finite and > 0"),
                (_ratios, self.truncation_ratios,
                 "truncation_ratios entries must be in (0, 1]"),
                (_ratios, self.subsampling_ratios,
                 "subsampling_ratios entries must be in (0, 1]"),
                (_positive, self.prior_noise_m,
                 "perturbation prior noise entries must be finite and > 0"),
                (_ratios, self.prior_truncation_ratios,
                 "prior truncation ratios entries must be in (0, 1]"),
                (_ratios, self.prior_subsampling_ratios,
                 "prior subsampling ratios entries must be in (0, 1]"),
                (lambda n: n >= 1, self.jobs, "jobs must be >= 1"),
                (lambda n: n is None or n >= 0, self.limit,
                 "limit must be >= 0")):
            if not ok(value):
                raise ValueError(message)

    def effective_prior_seed(self) -> int:
        return (self.seed + PRIOR_SEED_OFFSET if self.prior_seed is None
                else self.prior_seed)

    def to_dict(self) -> dict:
        """The settings in the YAML layout, the prior seed spelled out."""
        out: dict = {}
        for section, key, attr, _ in SETTINGS:
            part = out.setdefault(section, {}) if section else out
            part[key] = attrgetter(attr)(self)
        out["degradation"]["prior_seed"] = self.effective_prior_seed()
        return out

    def config_hash(self) -> str:
        """Digest of the settings that shape the results: where a run
        writes and how many workers it uses are left out."""
        settings = self.to_dict()
        del settings["jobs"], settings["output_dir"]
        blob = json.dumps(settings, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


# --- the schema -------------------------------------------------------------
# A coercion turns a YAML value into a field's value or raises ValueError:
# a bool, str or list must be written as one, a number never as a bool.

def _exactly(kind: type) -> Callable:
    """A coercion that takes a value of type ``kind`` as it is."""
    def coerce(value):
        if not isinstance(value, kind):
            raise ValueError(f"must be a {kind.__name__}, got {value!r}")
        return value
    return coerce


def _optional(coerce: Callable) -> Callable:
    return lambda value: None if value is None else coerce(value)


def _float(value) -> float:
    if isinstance(value, bool):
        raise ValueError(f"must be a number, got {value!r}")
    return float(value)


def _int(value) -> int:
    if isinstance(value, bool) or (isinstance(value, float)
                                   and not value.is_integer()):
        raise ValueError(f"must be an integer, got {value!r}")
    return int(value)


def _floats(value) -> List[float]:
    return [_float(v) for v in _exactly(list)(value)]


def _bounds(value) -> Tuple[float, float]:
    lo, hi = _floats(value)             # a ValueError unless exactly two
    return lo, hi


def _positive(values) -> bool:
    return all(0 < v < math.inf for v in values)


def _ratios(values) -> bool:
    return all(0 < v <= 1 for v in values)


_bool, _text = _exactly(bool), _exactly(str)

# One row per setting, in the order of to_dict: YAML section (None at the
# top level), YAML key, RunConfig attribute ("gp.sigma_f" for a field of a
# section) and coercion. Defaults and checks stay on the dataclasses.
SETTINGS = (
    (None, "plt_root", "plt_root", _optional(_text)),
    (None, "trajectories_csv", "trajectories_csv", _text),
    (None, "output_dir", "output_dir", _text),
    ("region", "min_lon", "region.min_lon", _float),
    ("region", "max_lon", "region.max_lon", _float),
    ("region", "min_lat", "region.min_lat", _float),
    ("region", "max_lat", "region.max_lat", _float),
    ("projection", "lon0", "projection.lon0", _float),
    ("projection", "lat0", "projection.lat0", _float),
    ("segmentation", "max_gap_s", "segmentation.max_gap", _float),
    ("segmentation", "default_sigma_m", "segmentation.default_sigma", _float),
    ("degradation", "noise_levels_m", "noise_levels_m", _floats),
    ("degradation", "truncation_ratios", "truncation_ratios", _floats),
    ("degradation", "subsampling_ratios", "subsampling_ratios", _floats),
    ("degradation", "include_identity", "include_identity", _bool),
    ("degradation", "seed", "seed", _int),
    ("degradation", "prior_seed", "prior_seed", _optional(_int)),
    ("priors", "uninformative", "prior_uninformative", _bool),
    ("priors", "perturbation_noise_m", "prior_noise_m", _floats),
    ("priors", "truncation_ratios", "prior_truncation_ratios", _floats),
    ("priors", "subsampling_ratios", "prior_subsampling_ratios", _floats),
    ("gp", "sigma0_m", "gp.sigma_f", _float),
    ("gp", "length_scale_bounds_h", "gp.length_scale_bounds", _bounds),
    ("gp", "grid_size", "gp.grid_size", _int),
    ("integration", "grid_step_s", "integration.grid_step", _float),
    ("integration", "day_seconds", "integration.day_seconds", _float),
    ("integration", "include_measurement_times",
     "integration.include_measurement_times", _bool),
    ("entropy_grid", "cell_size_m", "entropy_grid.cell_size", _float),
    ("entropy_grid", "bin_length_s", "entropy_grid.bin_length", _float),
    ("spp", "v0", "spp.v0", _float),
    ("spp", "sigma_ref_m", "spp.sigma_ref", _float),
    (None, "jobs", "jobs", _int),
    (None, "limit", "limit", _optional(_int)),
)


class _Loader(yaml.SafeLoader):
    """The safe loader, refusing a key given twice in one mapping (of which
    ``yaml.safe_load`` keeps the last value without a word)."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key, _ in node.value:
            if isinstance(key, yaml.ScalarNode):
                if (key.tag, key.value) in seen:
                    raise yaml.constructor.ConstructorError(
                        None, None, f"duplicate key {key.value!r}",
                        key.start_mark)
                seen.add((key.tag, key.value))
        return super().construct_mapping(node, deep)


def load_config(path: Optional[str] = None,
                overrides: Optional[dict] = None) -> RunConfig:
    """Build a RunConfig from a YAML file, every key optional, then apply
    ``overrides``, a mapping laid out like the file (the CLI options)."""
    text = ""
    if path is not None:
        try:
            text = Path(path).read_text()
        except OSError as e:
            raise ConfigError(f"cannot read config {path!r}: {e}")
    try:
        raw = yaml.load(text, Loader=_Loader)   # None for an empty file
    except yaml.YAMLError as e:
        raise ConfigError(f"cannot parse config {path!r}: {e}")
    if not isinstance(raw, (dict, type(None))):
        raise ConfigError(f"config root must be a mapping, got "
                          f"{type(raw).__name__}")
    try:
        return _apply(_apply(RunConfig(), raw or {}), overrides or {})
    except (TypeError, ValueError) as e:    # a section's own checks too
        raise ConfigError(str(e)) from e


def _apply(cfg: RunConfig, raw: dict) -> RunConfig:
    """``cfg`` with the settings of the YAML mapping ``raw``; it and each
    section dataclass are rebuilt, so each checks its own fields."""
    changes: dict = {}
    sections = dict.fromkeys(section for section, *_ in SETTINGS if section)
    for name in (None, *sections):          # None: the top level
        given = raw if name is None else raw.get(name) or {}
        if not isinstance(given, dict):
            raise ConfigError(f"section {name!r} must be a mapping")
        rows = [row for row in SETTINGS if row[0] == name]
        known = {key for _, key, *_ in rows}
        if name is None:
            known |= set(sections)
        if set(given) - known:
            raise ConfigError(f"unknown keys in {name or 'top level'!r}: "
                              f"{sorted(set(given) - known)}")
        for _, key, attr, coerce in rows:
            if key not in given:
                continue
            try:
                value = coerce(given[key])
            except (TypeError, ValueError) as e:
                raise ConfigError(f"{name + '.' if name else ''}{key}: {e}")
            owner, _, field_name = attr.rpartition(".")
            changes.setdefault(owner, {})[field_name] = value
    top = changes.pop("", {})
    for owner, fields in changes.items():
        top[owner] = replace(getattr(cfg, owner), **fields)
    return replace(cfg, **top)
