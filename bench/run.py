"""Benchmark for trajvoi: one seeded workload, timed through the CLI.

    python3 bench/run.py --workload study --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src`` directory, never from an installed copy. One run:

1. generates the workload's input for ``--seed`` in a child process (or
   reuses it from ``bench/.cache``), so generation is in no metric;
2. times ``setup_s`` over fresh interpreters;
3. runs one untimed warm-up round on the workload's tiny input, then
   whole timed rounds until ``--seconds`` have passed. A round calls the
   CLI entry point in this process for ``ingest``, ``degrade``, ``voi`` and
   ``baselines``, with ``--jobs 1``;
4. checks the outputs against computations made apart from the program
   (``checks.py``);
5. prints one JSON line: with ``--trace 0`` the end-to-end metrics, with
   ``--trace 1`` the per-layer metrics of a traced run (``tracing.py``).

BLAS and OpenMP are pinned to one thread before numpy loads, here and in
every child process.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# before numpy loads, here (with checks and tracing) and in every child
# process, which inherits the environment
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import checks  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CACHE = HERE / ".cache"

WORKLOADS = ("study", "long-tracks", "ingest")
COMMANDS = ("ingest", "degrade", "voi", "baselines")
SETUP_SPAWNS = 4

# Interpreter start through `import trajvoi` and `load_config`; prints the
# monotonic clock (system-wide on Linux) at the end.
SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import trajvoi\n"
    "from trajvoi.runconfig import load_config\n"
    "load_config(sys.argv[2])\n"
    "print(time.perf_counter(), trajvoi.__file__)\n"
)

# Invocations of each command per round. A command that takes well under a
# second on a workload's input runs several times, so that every metric
# rests on enough samples to be steady on a noisy machine.
REPEATS = {
    "study": {"ingest": 60, "degrade": 20, "voi": 1, "baselines": 8},
    "long-tracks": {"ingest": 20, "degrade": 40, "voi": 1, "baselines": 1},
    "ingest": {"ingest": 1, "degrade": 1, "voi": 3, "baselines": 3},
}

NO_OTHER_FAMILIES = {"noise_levels_m": [], "truncation_ratios": [],
                     "subsampling_ratios": []}
NO_RELEASED_PRIORS = {"perturbation_noise_m": [], "truncation_ratios": [],
                      "subsampling_ratios": []}


def workload_configs(workload: str, plt_root: Path, out: Path):
    """Config per command. Each workload runs the whole pipeline so that
    every end-to-end metric is measured on it; the commands outside a
    workload's focus run at a small fixed size."""
    base = {"plt_root": str(plt_root),
            "trajectories_csv": str(out / "trajectories.csv"),
            "output_dir": str(out), "jobs": 1}
    if workload == "study":
        # the reference matrix; suite-like walks have sparse fixes, so the
        # gap threshold is raised to keep each walk one trajectory
        run = dict(base, segmentation={"max_gap_s": 86400})
        return {c: run for c in COMMANDS}
    if workload == "long-tracks":
        # identity release, uninformative prior; baselines refits the same
        # GP as voi, so it scores the first track only
        run = dict(base, segmentation={"max_gap_s": 86400},
                   degradation=dict(NO_OTHER_FAMILIES, include_identity=True),
                   priors=dict(NO_RELEASED_PRIORS, uninformative=True))
        return dict({c: run for c in COMMANDS}, baselines=dict(run, limit=1))
    # ingest: the reference matrix for degrade (17 files); voi and
    # baselines score only the first trajectory, with one perturbation
    # level under an uninformative and a released perturbation prior
    small = dict(base, limit=1,
                 degradation=dict(NO_OTHER_FAMILIES, noise_levels_m=[10.0],
                                  include_identity=True),
                 priors=dict(NO_RELEASED_PRIORS, perturbation_noise_m=[400.0]))
    return {"ingest": base, "degrade": base, "voi": small, "baselines": small}


class Workspace:
    """Generated input, configs and output directory of one run."""

    def __init__(self, workload: str, seed: int, size: str, tag: str):
        self.input = Path(subprocess.run(
            [sys.executable, str(HERE / "gen.py"), "--workload", workload,
             "--seed", str(seed), "--size", size, "--cache", str(CACHE / "inputs")],
            check=True, capture_output=True, text=True).stdout.strip())
        self.expected = json.loads((self.input / "expected.json").read_text())
        self.work = CACHE / "runs" / f"{workload}-{size}-{tag}-{os.getpid()}"
        self.out = self.work / "out"
        self.configs = {}
        for command, cfg in workload_configs(workload, self.input / "plt",
                                             self.out).items():
            path = self.work / f"{command}.json"    # JSON is valid YAML
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(cfg, indent=1) + "\n")
            self.configs[command] = path

    def cleanup(self):
        shutil.rmtree(self.work, ignore_errors=True)


def measure_setup(config: Path) -> float:
    """Median over fresh interpreters, after one spawn that warms the
    bytecode cache."""
    samples = []
    for k in range(SETUP_SPAWNS + 1):
        started = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC),
                               str(config)], check=True, capture_output=True,
                              text=True)
        ended, module_file = done.stdout.split()
        if not Path(module_file).resolve().is_relative_to(SRC):
            raise RuntimeError(f"trajvoi imported from {module_file}, "
                               f"not from {SRC}")
        if k:
            samples.append(float(ended) - started)
    return statistics.median(samples)


def output_digest(out: Path) -> dict:
    """SHA-256 of every output file, read in blocks to keep the peak low."""
    digests = {}
    for p in sorted(out.rglob("*")):
        if p.is_file():
            h = hashlib.sha256()
            with open(p, "rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    h.update(block)
            digests[str(p.relative_to(out))] = h.hexdigest()
    return digests


def schedule(repeats: dict) -> list:
    """A round's invocations, each command's spread evenly over the round.

    The machine's speed drifts over seconds, so a command's samples are
    interleaved with the others' rather than run back to back. The round
    opens with ``ingest``, which writes the CSV the other commands read.
    """
    slots = []
    for order, command in enumerate(COMMANDS):
        k = repeats[command]
        offset = 0.0 if command == "ingest" else 0.5
        slots += [((i + offset) / k, order, command) for i in range(k)]
    return [command for _, _, command in sorted(slots)]


def run_round(cli, ws: Workspace, repeats: dict) -> dict:
    """One round of the four commands, each invoked ``repeats[command]``
    times; returns the wall time of every invocation and the round's
    operations, counted after each invocation, untimed."""
    seconds = {c: [] for c in COMMANDS}
    ops = {"attempted": 0, "failed": 0}
    for command in schedule(repeats):
        argv = [command, "--config", str(ws.configs[command]), "--jobs", "1"]
        started = time.perf_counter()
        code = cli.entrypoint(argv)
        seconds[command].append(time.perf_counter() - started)
        for k, v in checks.account(ws, command, code).items():
            ops[k] += v
    return {"seconds": seconds, "ops": ops}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="timed rounds continue until this much time passed")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny is for the smoke test")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "trajvoi" / "__init__.py").is_file():
        print(f"error: no trajvoi sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    phases, mark = {}, [time.perf_counter()]

    def phase(name):
        now = time.perf_counter()
        phases[name], mark[0] = now - mark[0], now

    workspaces = []
    try:
        ws = Workspace(args.workload, args.seed, args.size, "run")
        workspaces.append(ws)
        warm = Workspace(args.workload, args.seed, "tiny", "warm")
        workspaces.append(warm)
        phase("generate")
        setup_s = measure_setup(ws.configs["voi"])
        phase("setup")

        import trajvoi
        from trajvoi import cli
        if not Path(trajvoi.__file__).resolve().is_relative_to(SRC):
            raise RuntimeError(f"trajvoi imported from {trajvoi.__file__}")

        tracer = tracing.Tracer() if args.trace else None
        with tracing.installed(tracer):
            # warms imports, parsers and caches on the tiny input, untimed
            run_round(cli, warm, dict.fromkeys(COMMANDS, 1))
            phase("warm-up")
            rounds, digests = [], []
            started = time.perf_counter()
            while True:
                if tracer:
                    tracer.reset()
                r = run_round(cli, ws, REPEATS[args.workload])
                if tracer:
                    r["layers"] = tracer.spans
                rounds.append(r)
                print("round " + " ".join(
                    f"{c} {statistics.median(s):.3f}s x{len(s)}"
                    for c, s in r["seconds"].items()), file=sys.stderr)
                digests.append(output_digest(ws.out))
                if time.perf_counter() - started >= args.seconds:
                    break
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        phase("timed")

        problems, ig_gap = checks.check_outputs(ws)
        if any(d != digests[0] for d in digests):
            problems.append("outputs differ between rounds")
        for p in problems:
            print(f"check failed: {p}", file=sys.stderr)
        phase("checks")

        e2e = end_to_end(ws, rounds)
        e2e["setup_s"] = (setup_s, "s")
        e2e["peak_rss_mib"] = (peak_rss_mib, "MiB")
        if tracer:
            for name, (value, unit) in sorted(e2e.items()):
                print(f"traced {name}: {value:.6g} {unit}", file=sys.stderr)
            declared = json.loads((ROOT / "BENCHMARK.json").read_text())
            metrics = tracing.per_layer(rounds, declared["per_layer"],
                                        ws.out / "trajectories.csv")
        else:
            metrics = e2e
        print(f"{len(rounds)} timed rounds; " + ", ".join(
            f"{k} {v:.1f}s" for k, v in phases.items())
            + f"; largest relative gap to the dense gain {ig_gap:.2e}",
            file=sys.stderr)
        print(json.dumps({
            "correct": not problems,
            "attempted": sum(r["ops"]["attempted"] for r in rounds),
            "failed": sum(r["ops"]["failed"] for r in rounds),
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in sorted(metrics.items())},
        }))
        return 0
    finally:
        for w in workspaces:
            w.cleanup()


def end_to_end(ws: Workspace, rounds) -> dict:
    """Median over every timed invocation of each command's throughput."""
    exp = ws.expected
    cells = sum(1 for line in (ws.out / "voi_report.jsonl").read_text()
                .splitlines() if line.strip())
    rows = len((ws.out / "baselines.csv").read_text().splitlines()) - 1

    def rate(work, command):
        return statistics.median(work / s for r in rounds
                                 for s in r["seconds"][command])

    return {
        "ingest_lines_per_s": (rate(exp["data_lines"], "ingest"), "lines/s"),
        "degrade_points_per_s": (rate(exp["retained"], "degrade"), "points/s"),
        "voi_cells_per_s": (rate(cells, "voi"), "cells/s"),
        "baselines_rows_per_s": (rate(rows, "baselines"), "rows/s"),
    }


if __name__ == "__main__":
    sys.exit(main())
