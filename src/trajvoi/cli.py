"""Batch driver: run the full pipeline from a declarative config.

Subcommands mirror the pipeline stages:

    ingest       PLT tree -> trajectory CSV + manifest
    degrade      trajectory CSV -> one degraded CSV per matrix entry
    voi          trajectory CSV -> gain report (JSONL + CSV) per cell
    baselines    trajectory CSV -> comparison metric CSV
    analyze      reports -> correlations + plot data
    equivalence  reports -> cross-family parameter matches for one trajectory

Outputs are byte-deterministic for a given config and input: work may fan
out over processes, but results are sorted on a stable key before a single
writer emits them, and timing information goes to the log only. Exit codes:
0 success (duplicate cells in the matrix are dropped with a warning), 1
configuration error or unreadable input file, 2 some cells (voi) or rows
(baselines) failed and were left out.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import logging
import sys
import time
from concurrent import futures
from itertools import compress
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import analysis, infogain
from .baselines import (BASELINE_CSV_FIELDS, baseline_row, correctness_value)
from .degrade import DegradationSpec, apply_spec, kept_fixes
from .gp import (GpNumericalError, _track_inputs, fit_tracks,
                 point_training)
from .infogain import (PriorKnowledge, VoiReport, curves_by_family,
                       match_equivalents, param_at_ig, score_cells)
# not called here; the per-layer tracer (bench/tracing.py) wraps this name
from .infogain import evaluate_voi  # noqa: F401
from .ingest import (PltFormatError, csv_heads, csv_rows, ingest_plt_tree,
                     moved_rows, open_trajectory_csv, read_trajectory_csv,
                     write_trajectory_csv)
from .model import Trajectory
from .runconfig import ConfigError, RunConfig, load_config

log = logging.getLogger("trajvoi")


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _load_trajectories(cfg: RunConfig) -> List[Trajectory]:
    path = Path(cfg.trajectories_csv)
    if not path.exists():
        raise ConfigError(f"trajectory CSV not found: {path} (run ingest "
                          f"first or point trajectories_csv at existing data)")
    try:
        return read_trajectory_csv(path, cfg.limit)
    except ValueError as e:
        raise ConfigError(f"malformed trajectory CSV {path}: {e}") from e
    except OSError as e:
        raise ConfigError(f"cannot read trajectory CSV {path}: "
                          f"{e.strerror or e}") from e


# --- cell matrix -------------------------------------------------------------

def _specs(noise_levels_m, truncation_ratios, subsampling_ratios,
           noise_seed: int, seed: int) -> List[DegradationSpec]:
    """One spec per family parameter. Subsampling always draws with the
    release seed, so a smaller ratio keeps a subset of a larger one."""
    return ([DegradationSpec(kind="perturbation", total_noise=n,
                             seed=noise_seed) for n in noise_levels_m]
            + [DegradationSpec(kind="truncation", ratio=r)
               for r in truncation_ratios]
            + [DegradationSpec(kind="subsampling", ratio=r, seed=seed)
               for r in subsampling_ratios])


def _degradation_specs(cfg: RunConfig) -> List[DegradationSpec]:
    identity = [DegradationSpec(kind="identity")] if cfg.include_identity \
        else []
    return identity + _specs(cfg.noise_levels_m, cfg.truncation_ratios,
                             cfg.subsampling_ratios, cfg.seed, cfg.seed)


def _prior_specs(cfg: RunConfig) -> List[Optional[DegradationSpec]]:
    """Prior scenarios: None is the uninformative prior, a spec makes the
    earlier release the recipient already holds."""
    uninformative = [None] if cfg.prior_uninformative else []
    return uninformative + _specs(
        cfg.prior_noise_m, cfg.prior_truncation_ratios,
        cfg.prior_subsampling_ratios, cfg.effective_prior_seed(), cfg.seed)


def _applicable(spec: DegradationSpec,
                prior: Optional[DegradationSpec]) -> bool:
    """Released priors only pair with their own degradation family (plus
    the identity release); the uninformative prior pairs with everything."""
    return prior is None or spec.kind in ("identity", prior.kind)


def _distinct(items: list, label) -> Tuple[list, int]:
    """``items`` less each whose ``label`` an earlier one has, and how many
    were dropped: two specs of one label would write one file, or report
    rows that cannot be told apart."""
    kept, labels = [], set()
    for item in items:
        if label(item) not in labels:
            labels.add(label(item))
            kept.append(item)
    return kept, len(items) - len(kept)


def _describe(e: BaseException) -> str:
    return f"{type(e).__name__}: {e}"


def _voi_failed(item, error: BaseException):
    """The error record of a (trajectory, spec, prior spec) cell."""
    traj, spec, prior_spec = item
    return ("error", {"trajectory_id": traj.trajectory_id,
                      "prior": "uninformative" if prior_spec is None
                      else prior_spec.label(),
                      "kind": spec.kind, "param": spec.param,
                      "error": _describe(error)})


def _baseline_failed(traj: Trajectory, error: BaseException):
    return ("error", {"trajectory_id": traj.trajectory_id,
                      "error": _describe(error)})


# Fixes per chunk: a chunk's trainings and tracks run as the lanes of
# shared filter passes (see gp), so more fixes per chunk amortise each pass
# over more lanes, at the cost of holding all of the chunk's tracks at once
# while its cells are scored.
CHUNK_FIXES = 4096
# Fixes a trajectory counts for at least, in a chunk's budget: each of its
# distinct tracks (about 25 under the reference matrix) holds about 1.6 kB
# of objects, whatever its size, about what 32 fixes of its states take.
TRAJECTORY_FIXES = 32


def _chunks(trajectories: Sequence[Trajectory], jobs: int) -> list:
    """The trajectories in order, cut into chunks of consecutive ones: each
    holds at most CHUNK_FIXES fixes unless one trajectory alone holds more,
    each trajectory counting for at least TRAJECTORY_FIXES, and there are
    at least k = min(jobs, trajectories) chunks. Trajectories fill a chunk
    until the next would take it past min(CHUNK_FIXES, ceil(fixes / k)),
    so that k workers get about equal shares. While there are fewer than
    k chunks, the one of most fixes among those of two or more
    trajectories is cut where its halves' fixes are closest."""
    def fixes(chunk) -> int:
        return sum(max(len(t), TRAJECTORY_FIXES) for t in chunk)

    k = min(jobs, len(trajectories))
    cap = min(CHUNK_FIXES, -(-fixes(trajectories) // max(k, 1)))
    chunks: list = []
    held = 0
    for traj in trajectories:
        if not chunks or held + fixes([traj]) > cap:
            chunks.append([])
            held = 0
        chunks[-1].append(traj)
        held += fixes([traj])
    while len(chunks) < k:
        i = max((i for i, chunk in enumerate(chunks) if len(chunk) > 1),
                key=lambda i: fixes(chunks[i]))
        ends = np.cumsum([fixes([t]) for t in chunks[i]])
        cut = 1 + int(np.argmin(np.abs(2 * ends[:-1] - ends[-1])))
        chunks[i:i + 1] = [chunks[i][:cut], chunks[i][cut:]]
    return chunks


def _voi_task(task):
    """Score a task's (trajectory, spec, prior spec) cells: one outcome
    per cell, in order, or raise.

    Each distinct (trajectory, spec) is applied once (again for each cell
    that needs it, should it fail), and each cell's release is combined
    with its prior; a cell whose release or fusion fails has that
    exception as its outcome. The other cells are scored together (one
    training call and one batch of variance-only tracks for the task; see
    infogain.score_cells): a cell whose inputs the GP refuses has that
    exception as its outcome, and a failure in a shared pass raises."""
    items, gp_cfg, integration = task
    releases: dict = {}

    def release(traj, spec):
        if (traj, spec) not in releases:
            releases[traj, spec] = apply_spec(traj, spec)
        return releases[traj, spec]

    outcomes, scored, to_score = [], [], []
    for traj, spec, prior_spec in items:
        try:
            z = release(traj, spec)
            prior = PriorKnowledge.uninformative() if prior_spec is None \
                else PriorKnowledge.from_release(release(traj, prior_spec),
                                                 prior_spec)
            to_score.append((infogain.combine(z, prior), prior, spec.kind,
                             spec.param))
            scored.append(len(outcomes))
            outcomes.append(None)
        except Exception as e:
            outcomes.append(e)
    for k, row in zip(scored, score_cells(to_score, gp_cfg, integration)):
        outcomes[k] = row if isinstance(row, Exception) else ("ok", row)
    return outcomes


def _baseline_task(task):
    """Baseline metrics of a chunk of trajectories, one outcome each, or
    raise. Each trajectory's GP inputs are checked first, as a voi task
    checks its cells' (see infogain.score_cells): one the GP refuses has
    that exception as its outcome. The identity GPs of the others (zero
    mean, length scale trained on each trajectory) are fit together in
    one fit_tracks call."""
    chunk, grid, spp, gp_cfg = task
    outcomes, fit = [], []
    for traj in chunk:
        training = point_training(traj)
        try:
            _track_inputs(training, gp_cfg.sigma_f ** 2)
        except (ValueError, GpNumericalError) as e:
            outcomes.append(e)
            continue
        fit.append((len(outcomes), traj, training))
        outcomes.append(None)
    tracks = fit_tracks([(training, None) for *_, training in fit], gp_cfg)
    for (k, traj, _), track in zip(fit, tracks):
        outcomes[k] = ("ok", baseline_row(traj, grid, spp,
                                          correctness_value(traj, track)))
    return outcomes


def _halves(task) -> list:
    """The non-empty halves of a task, each with the shared arguments."""
    items, *shared = task
    half = len(items) // 2
    return [(part, *shared) for part in (items[:half], items[half:]) if part]


def _run(fn, task, failed) -> list:
    """``fn(task)``, with ``failed(item, exception)`` in place of each
    item's exception. A task that raises runs again as its two halves,
    and a lone item that raises gets ``failed`` as its outcome."""
    items = task[0]
    try:
        outcomes = fn(task)
    except Exception as e:
        if len(items) == 1:
            return [failed(items[0], e)]
        log.warning("a task of %d items failed (%s); running its halves "
                    "again", len(items), _describe(e))
        return [o for half in _halves(task) for o in _run(fn, half, failed)]
    return [failed(item, o) if isinstance(o, Exception) else o
            for item, o in zip(items, outcomes)]


def _died(f: futures.Future) -> bool:
    return isinstance(f.exception(), futures.BrokenExecutor)


def _map(fn, tasks, jobs: int, failed) -> list:
    """The outcomes of ``fn`` over ``tasks``, one per item of every task in
    order, over ``jobs`` worker processes when ``jobs`` is more than one.

    A task is a list of items and the arguments they share. ``fn`` returns
    one outcome per item, or the exception that item raised alone, or it
    raises; _map is the one place a failure becomes an outcome, so that it
    costs only the items at fault. A task that raises runs again as its
    two halves in the process that ran it, and a lone item that raises
    gets ``failed(item, exception)``.

    A worker that dies (killed by the OS, say) breaks its pool. The
    outcomes already returned are kept, and each unfinished task runs
    again as its two halves, each on a fresh one-worker pool, ``jobs``
    such pools at a time. A half whose worker dies is split again, and a
    lone item whose worker dies gets ``failed(item, BrokenProcessPool)``."""
    if jobs <= 1 or not tasks:
        return [o for task in tasks for o in _run(fn, task, failed)]
    with futures.ProcessPoolExecutor(max_workers=min(jobs,
                                                     len(tasks))) as pool:
        submitted = [pool.submit(_run, fn, task, failed) for task in tasks]
        futures.wait(submitted)
    results, lost = [], []

    def rerun(start, task):
        log.warning("a task of %d items was lost with its worker; running "
                    "its halves again, each on a fresh worker", len(task[0]))
        for half in _halves(task):
            lost.append((start, half))
            start += len(half[0])

    for task, f in zip(tasks, submitted):
        if _died(f):
            rerun(len(results), task)
            results += [None] * len(task[0])
        else:
            results += f.result()
    alone: dict = {}
    try:
        while lost or alone:
            while lost and len(alone) < jobs:
                start, task = lost.pop()
                pool = futures.ProcessPoolExecutor(max_workers=1)
                alone[pool.submit(_run, fn, task, failed)] = (start, task,
                                                              pool)
            done, _ = futures.wait(alone,
                                   return_when=futures.FIRST_COMPLETED)
            for f in done:
                start, task, pool = alone.pop(f)
                pool.shutdown()
                items = task[0]
                if not _died(f):
                    results[start:start + len(items)] = f.result()
                elif len(items) == 1:
                    results[start] = failed(items[0], f.exception())
                else:
                    rerun(start, task)
    finally:
        for _, _, pool in alone.values():
            pool.shutdown(cancel_futures=True)
    return results


# --- subcommands -------------------------------------------------------------

def cmd_ingest(cfg: RunConfig) -> int:
    if cfg.plt_root is None:
        raise ConfigError("ingest needs plt_root in the config")
    root = Path(cfg.plt_root)
    if not root.is_dir():
        raise ConfigError(f"plt_root is not a directory: {root}")
    started = time.perf_counter()
    try:
        trajectories, manifest = ingest_plt_tree(
            root, cfg.region, cfg.projection, cfg.segmentation)
    except PltFormatError as e:
        raise ConfigError(str(e)) from e
    except OSError as e:
        raise ConfigError(f"cannot read {e.filename or root}: "
                          f"{e.strerror or e}") from e
    if cfg.limit is not None:
        trajectories = trajectories[:cfg.limit]
    out = Path(cfg.output_dir)
    traj_csv = Path(cfg.trajectories_csv)
    traj_csv.parent.mkdir(parents=True, exist_ok=True)
    write_trajectory_csv(trajectories, traj_csv)
    _write_text(out / "ingest_manifest.json", manifest.to_json())
    log.info("ingest: %d files, %d trajectories, %d measurements in %.1fs",
             manifest.files_read, len(trajectories),
             sum(len(t) for t in trajectories), time.perf_counter() - started)
    return 0


def _check_noise_levels(specs: Sequence[DegradationSpec],
                        trajectories: Sequence[Trajectory]) -> None:
    """A ConfigError for the first perturbation level below the sigma of
    a fix, naming the first trajectory that holds such a fix."""
    largest = [float(traj.sigma.max()) for traj in trajectories]
    for spec in specs:
        for traj, sigma in zip(trajectories, largest):
            if spec.kind == "perturbation" and sigma > spec.total_noise:
                raise ConfigError(
                    f"perturbation level {spec.total_noise:g} m is below the "
                    f"sigma of a fix ({sigma:g} m) in trajectory "
                    f"{traj.trajectory_id!r}")


def cmd_degrade(cfg: RunConfig) -> int:
    """One file per distinct spec, all written in one walk over the
    trajectories: each trajectory's rows are formatted once, and a
    truncation or subsampling file takes the rows it keeps; a perturbation
    file formats only its moved positions."""
    trajectories = _load_trajectories(cfg)
    specs, duplicates = _distinct(_degradation_specs(cfg),
                                  DegradationSpec.label)
    if duplicates:
        log.warning("degrade: %d duplicate specs were dropped", duplicates)
    _check_noise_levels(specs, trajectories)
    out = Path(cfg.output_dir) / "degraded"
    out.mkdir(parents=True, exist_ok=True)
    names = [spec.label().replace(":", "_") for spec in specs]
    with contextlib.ExitStack() as stack:
        files = [stack.enter_context(open_trajectory_csv(out / f"{name}.csv"))
                 for name in names]
        for traj in trajectories:
            rows, heads = csv_rows(traj), None
            for spec, fh in zip(specs, files):
                if spec.kind == "perturbation":
                    if heads is None:
                        heads = csv_heads(traj)
                    z = apply_spec(traj, spec)
                    fh.write("".join(moved_rows(heads, z.x, z.y,
                                                spec.total_noise)))
                    continue
                index = kept_fixes(traj, spec)
                fh.write("".join(rows[index] if isinstance(index, slice)
                                 else compress(rows, index.tolist())))
    for name in names:
        log.info("degrade: wrote %s (%d trajectories)", name,
                 len(trajectories))
    return 0


def cmd_voi(cfg: RunConfig) -> int:
    trajectories = _load_trajectories(cfg)
    specs = _degradation_specs(cfg)
    priors = _prior_specs(cfg)
    if not specs:
        raise ConfigError("degradation matrix is empty")
    if not priors:
        raise ConfigError("no prior scenarios configured")

    cells, duplicates = _distinct(
        [(spec, prior) for prior in priors for spec in specs
         if _applicable(spec, prior)],
        lambda cell: (cell[0].label(), cell[1] and cell[1].label()))
    dropped = duplicates * len(trajectories)
    if dropped:
        log.warning("voi: %d duplicate cells in the matrix were dropped",
                    dropped)
    tasks = [([(traj, spec, prior) for traj in chunk for spec, prior in cells],
              cfg.gp, cfg.integration)
             for chunk in _chunks(trajectories, cfg.jobs)]
    started = time.perf_counter()
    outcomes = _map(_voi_task, tasks, cfg.jobs, _voi_failed)
    rows = [p for status, p in outcomes if status == "ok"]
    errors = [p for status, p in outcomes if status == "error"]

    report = VoiReport(rows=rows).sorted()
    errors.sort(key=lambda e: (e["trajectory_id"], e["prior"], e["kind"],
                               e["param"]))
    out = Path(cfg.output_dir)
    _write_text(out / "voi_report.jsonl", report.to_jsonl())
    _write_text(out / "voi_report.csv", report.to_csv())
    _write_text(out / "voi_errors.jsonl",
                "".join(json.dumps(e, sort_keys=True) + "\n" for e in errors))

    log.info("voi: %d cells (%d failed) in %.1fs wall",
             len(rows) + len(errors), len(errors),
             time.perf_counter() - started)
    if errors:
        log.warning("voi: %d cells failed; see voi_errors.jsonl", len(errors))
    return 2 if errors else 0


def cmd_baselines(cfg: RunConfig) -> int:
    trajectories = _load_trajectories(cfg)
    tasks = [(chunk, cfg.entropy_grid, cfg.spp, cfg.gp)
             for chunk in _chunks(trajectories, cfg.jobs)]
    outcomes = _map(_baseline_task, tasks, cfg.jobs, _baseline_failed)
    rows = [p for status, p in outcomes if status == "ok"]
    errors = [p for status, p in outcomes if status == "error"]
    rows.sort(key=lambda r: r["trajectory_id"])

    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(BASELINE_CSV_FIELDS)
    writer.writerows([r["trajectory_id"], str(r["size"])]
                     + [repr(float(r[k])) for k in BASELINE_CSV_FIELDS[2:]]
                     for r in rows)
    _write_text(Path(cfg.output_dir) / "baselines.csv", text.getvalue())
    log.info("baselines: %d rows (%d failed)", len(rows), len(errors))
    for e in errors:
        log.warning("baselines: %s failed: %s", e["trajectory_id"], e["error"])
    return 2 if errors else 0


def cmd_analyze(cfg: RunConfig) -> int:
    out = Path(cfg.output_dir)
    report_path = out / "voi_report.jsonl"
    baseline_path = out / "baselines.csv"
    for p in (report_path, baseline_path):
        if not p.exists():
            raise ConfigError(f"analyze needs {p}; run voi and baselines first")
    all_rows = VoiReport.from_jsonl(report_path.read_text()).rows
    raw_rows = [r for r in all_rows
                if r.kind == "identity" and r.prior == "uninformative"]
    if not raw_rows:
        raise ConfigError("analyze needs identity-release cells under the "
                          "uninformative prior in voi_report.jsonl")
    with open(baseline_path, newline="") as fh:
        baseline_rows = list(csv.DictReader(fh))
    try:
        ig, columns = analysis.join_gains(raw_rows, baseline_rows)
        results, lines = analysis.correlation_study(ig, columns)
    except ValueError as e:
        raise ConfigError(str(e))
    for column, vals in columns.items():
        _write_text(out / f"hist2d_{column}.csv",
                    analysis.histogram2d_csv(vals, ig))
    _write_text(out / "correlations.csv", analysis.correlations_csv(results))
    _write_text(out / "regression_lines.csv",
                analysis.regression_lines_csv(lines))
    _write_text(out / "box_quartiles.csv", analysis.box_quartiles_csv(all_rows))

    report = {
        "config_hash": cfg.config_hash(),
        "n": len(raw_rows),
        "correlations": [{"x": r.x_name, "y": r.y_name, "rho": r.rho,
                          "n": r.n} for r in results],
        "huber_lines": {name: {"slope": f.slope, "intercept": f.intercept,
                               "converged": f.converged}
                        for name, f in lines.items()},
    }
    _write_text(out / "analyze_report.json",
                json.dumps(report, sort_keys=True, indent=2) + "\n")
    for r in results:
        log.info("analyze: rho(%s, %s) = %.4f (n=%d)",
                 r.x_name, r.y_name, r.rho, r.n)
    return 0


def cmd_equivalence(cfg: RunConfig, trajectory_id: str, kind: str,
                    param: float) -> int:
    report_path = Path(cfg.output_dir) / "voi_report.jsonl"
    if not report_path.exists():
        raise ConfigError(f"equivalence needs {report_path}; run voi first")
    rows = [r for r in VoiReport.from_jsonl(report_path.read_text()).rows
            if r.trajectory_id == trajectory_id
            and r.prior == "uninformative"]
    if not rows:
        raise ConfigError(f"no uninformative-prior cells for trajectory "
                          f"{trajectory_id!r} in {report_path}")
    curves = curves_by_family(rows, cfg.segmentation.default_sigma)
    if kind not in curves:
        raise ConfigError(f"no {kind!r} curve for trajectory "
                          f"{trajectory_id!r}; families: {sorted(curves)}")
    curve = curves[kind]
    params = [p for p, _ in curve]
    if not params[0] <= param <= params[-1]:
        raise ConfigError(f"parameter {param:g} outside the sampled "
                          f"{kind} range [{params[0]:g}, {params[-1]:g}]")
    target_ig = float(np.interp(param, params, [g for _, g in curve]))

    equivalents = {}
    full_overlap = {}
    for other, other_curve in curves.items():
        if other == kind:
            continue
        equivalents[other] = param_at_ig(other_curve, target_ig)
        full_overlap[other] = match_equivalents(curve, other_curve)
    report = {
        "config_hash": cfg.config_hash(),
        "trajectory_id": trajectory_id,
        "target": {"kind": kind, "param": param,
                   "ig_bit_seconds": target_ig},
        "equivalents": equivalents,
        "full_overlap": full_overlap,
        "curves": {k: [[p, g] for p, g in c] for k, c in curves.items()},
    }
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    _write_text(Path(cfg.output_dir) / f"equivalence_{trajectory_id}.json",
                text)
    sys.stdout.write(text)
    return 0


# --- argument parsing --------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="YAML run configuration (defaults reproduce the "
                             "reference protocol)")
    common.add_argument("--seed", type=int, help="override degradation seed")
    common.add_argument("--limit", type=int, metavar="N",
                        help="only process the first N trajectories; "
                             "degrade, voi and baselines read the trajectory "
                             "CSV up to the first row of trajectory N+1, "
                             "ingest still parses the whole PLT tree")
    common.add_argument("--jobs", type=int, metavar="J",
                        help="worker processes for cell evaluation")

    parser = argparse.ArgumentParser(
        prog="trajvoi",
        description="Quantify the intrinsic value of GPS trajectories as "
                    "information gain over prior knowledge.")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("ingest", parents=[common],
                   help="parse a PLT tree into the trajectory CSV")
    sub.add_parser("degrade", parents=[common],
                   help="materialize every degraded version as CSV")
    sub.add_parser("voi", parents=[common],
                   help="evaluate information gain for every cell")
    sub.add_parser("baselines", parents=[common],
                   help="compute comparison metrics per trajectory")
    sub.add_parser("analyze", parents=[common],
                   help="correlate gain with the comparison metrics")
    eq = sub.add_parser("equivalence", parents=[common],
                        help="find degradation parameters of equal gain")
    eq.add_argument("--trajectory", required=True, metavar="ID")
    eq.add_argument("--kind", required=True,
                    choices=("perturbation", "truncation", "subsampling"))
    eq.add_argument("--param", required=True, type=float,
                    help="target degradation parameter (meters or ratio)")
    return parser


def entrypoint(argv: Optional[Sequence[str]] = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        overrides = {key: value for key, value in
                     (("limit", args.limit), ("jobs", args.jobs))
                     if value is not None}
        if args.seed is not None:
            overrides["degradation"] = {"seed": args.seed}
        cfg = load_config(args.config, overrides)
        if args.command == "ingest":
            return cmd_ingest(cfg)
        if args.command == "degrade":
            return cmd_degrade(cfg)
        if args.command == "voi":
            return cmd_voi(cfg)
        if args.command == "baselines":
            return cmd_baselines(cfg)
        if args.command == "analyze":
            return cmd_analyze(cfg)
        if args.command == "equivalence":
            return cmd_equivalence(cfg, args.trajectory, args.kind, args.param)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(entrypoint())


if __name__ == "__main__":
    main()
