"""Seeded input generators for the benchmark.

Every workload's input is a Geolife-layout PLT tree,
``<out>/plt/<owner>/Trajectory/<stamp>.plt``, so the program receives only
files. Beside the tree the generator writes what it put there:

- ``expected.json``: counts (files, data lines, malformed lines, fixes
  outside the study region, retained fixes, trajectories), the trajectory
  ids and sizes in CSV order, and the covering UTC day;
- ``expected.npz``: lon, lat and t of every retained fix, in the order the
  trajectory CSV must list them.

The make-up of each input is fixed by workload and size: point counts,
where malformed lines, out-of-region fixes and long gaps sit, and which
trajectory gets which size. The seed draws only values: walk shapes and
speeds, start times, sampling intervals, gap lengths and the variant of
each malformed line. So every count the benchmark reports repeats across
seeds, and the work per run does too. All times are whole seconds,
strictly increasing, never on a whole minute of the day (a fix on the
day's 60 s integration grid would collapse into a grid point and change
the query count), and inside one UTC day.

Run as a script to write one input (or find it already written) under a
cache directory; it prints the input's directory:

    python3 bench/gen.py --workload study --seed 1 --cache bench/.cache/inputs
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

DAY_START = 1224806400          # 2008-10-24 00:00:00 UTC
DAY_SECONDS = 86400

# projection origin and study region of the program's default config
LON0, LAT0 = 116.375, 39.93
REGION = (116.20, 116.55, 39.80, 40.06)      # min_lon, max_lon, min_lat, max_lat
EARTH_RADIUS_M = 6_371_000.0

# random-walk speed in m per sqrt(s), as in the frozen test suite: slow
# enough that every tested noise level hides the motion
SPEED_RANGE = (0.05, 0.5)

PLT_HEADER = ("Geolife trajectory\nWGS 84\nAltitude is in Feet\nReserved 3\n"
              "0,2,255,My Track,0,0,2,8421376\n0\n")

# Workload make-up per size. "tiny" is for the smoke test and the warm-up
# round; "full" is what the benchmark measures.
SIZES = {
    "study": {
        # one suite-like walk per owner: 20-200 points over 0.5-4 h
        "full": {"points": (20, 65, 110, 155, 200)},
        "tiny": {"points": (20, 30)},
    },
    "long-tracks": {
        # one dense walk per owner, 5-25 s between fixes
        "full": {"points": (1000, 1200)},
        "tiny": {"points": (60,)},
    },
    "ingest": {
        # owners x files x lines, two >300 s gaps inside every file
        "full": {"owners": 7, "files": 4, "lines": 2000},
        "tiny": {"owners": 2, "files": 2, "lines": 150},
    },
}

# slot layout of an ingest file: slot i holds a malformed line when
# i % BAD_EVERY == BAD_AT and a fix outside the region when
# i % OUT_EVERY == OUT_AT; a long gap precedes the slots at GAP_FRACTIONS
BAD_EVERY, BAD_AT = 97, 50
OUT_EVERY, OUT_AT = 89, 30
GAP_FRACTIONS = (0.1, 0.55)


def unproject(x, y):
    """Local meters to (lon, lat) degrees, equirectangular about the origin."""
    lon = LON0 + np.degrees(np.asarray(x) / (EARTH_RADIUS_M
                                             * math.cos(math.radians(LAT0))))
    lat = LAT0 + np.degrees(np.asarray(y) / EARTH_RADIUS_M)
    return lon, lat


def _off_minute(t: int) -> int:
    return t + 1 if t % 60 == 0 else t


def _walk(rng, times, start_xy):
    """2-D Brownian walk in meters sampled at ``times`` (seconds)."""
    speed = math.exp(rng.uniform(math.log(SPEED_RANGE[0]),
                                 math.log(SPEED_RANGE[1])))
    dt = np.diff(times, prepend=times[0]).astype(float)
    steps = rng.standard_normal((len(times), 2)) * (speed * np.sqrt(dt))[:, None]
    return np.cumsum(steps, axis=0) + np.asarray(start_xy)


def _stamp(t: int):
    d = datetime.fromtimestamp(t, tz=timezone.utc)
    return d.strftime("%Y-%m-%d"), d.strftime("%H:%M:%S")


def _fix_line(lat: str, lon: str, t: int, altitude: int) -> str:
    date, clock = _stamp(t)
    serial = t / 86400.0 + 25569.0
    return f"{lat},{lon},0,{altitude},{serial:.10f},{date},{clock}"


def _malformed_line(lat: str, lon: str, t: int, variant: int) -> str:
    date, clock = _stamp(t)
    if variant == 0:
        return f"{lat},{lon},0"                                   # short
    if variant == 1:
        return f"{lat}x,{lon},0,100,0,{date},{clock}"             # bad number
    if variant == 2:
        return f"{lat},{lon},0,100,0,2008-13-40,{clock}"          # bad date
    if variant == 3:
        return f"{lat},{lon},0,100,0,{date},25:61:99"             # bad time
    return f"nan,{lon},0,100,0,{date},{clock}"                    # non-finite


class _Tree:
    """Accumulates PLT files and the generator's own account of them."""

    def __init__(self, root: Path):
        self.root = root
        self.files = 0
        self.data_lines = 0
        self.malformed = 0
        self.out_of_region = 0
        self.by_owner = {}      # owner -> list of (lon, lat, t) retained

    def write(self, owner, lines, first_t):
        d = self.root / owner / "Trajectory"
        d.mkdir(parents=True, exist_ok=True)
        stamp = datetime.fromtimestamp(first_t, tz=timezone.utc)
        with open(d / f"{stamp:%Y%m%d%H%M%S}.plt", "w", newline="\n") as fh:
            fh.write(PLT_HEADER)
            fh.write("\n".join(lines) + "\n")
        self.files += 1
        self.data_lines += len(lines)

    def retain(self, owner, lon, lat, t):
        self.by_owner.setdefault(owner, []).append((lon, lat, t))


def _walk_file(tree, rng, owner, times):
    """One clean walk, one PLT file, every fix inside the region."""
    xy = _walk(rng, times, rng.uniform(-3000.0, 3000.0, 2))
    lon, lat = unproject(xy[:, 0], xy[:, 1])
    altitude = rng.integers(50, 300, len(times))
    lines = []
    for lo, la, t, alt in zip(lon, lat, times, altitude):
        slat, slon = f"{la:.9f}", f"{lo:.9f}"
        lines.append(_fix_line(slat, slon, int(t), int(alt)))
        tree.retain(owner, float(slon), float(slat), int(t))
    tree.write(owner, lines, int(times[0]))


def _study(tree, rng, points):
    for k, n in enumerate(points):
        span = int(rng.uniform(1800.0, 4 * 3600.0))
        t0 = DAY_START + 60 * int(rng.integers(60, 19 * 60))
        offsets = np.arange(1, span + 1)
        offsets = offsets[offsets % 60 != 0]
        times = t0 + np.sort(rng.choice(offsets, size=n, replace=False))
        _walk_file(tree, rng, f"{k:03d}", times)


def _long_tracks(tree, rng, points):
    for k, n in enumerate(points):
        t = DAY_START + 60 * int(rng.integers(60, 10 * 60))
        times = []
        for step in rng.integers(5, 26, n).tolist():
            t = _off_minute(t + step)
            times.append(t)
        _walk_file(tree, rng, f"{k:03d}", np.asarray(times))


def _ingest(tree, rng, owners, files, lines):
    gap_slots = {int(f * lines) for f in GAP_FRACTIONS}
    kinds = []
    for i in range(lines):
        if i == 0 or i in gap_slots:
            kinds.append("fix")
        elif i % BAD_EVERY == BAD_AT:
            kinds.append("malformed")
        elif i % OUT_EVERY == OUT_AT:
            kinds.append("outside")
        else:
            kinds.append("fix")
    min_lon, max_lon, min_lat, max_lat = REGION
    for o in range(owners):
        owner = f"{o:03d}"
        t = DAY_START + 2 * 3600 + 60 * int(rng.integers(0, 60))
        start = rng.uniform(-8000.0, 8000.0, 2)
        for _ in range(files):
            steps = rng.integers(1, 4, lines)
            steps[0] = rng.integers(600, 1801)          # between files
            for i in gap_slots:
                steps[i] = rng.integers(400, 1801)      # inside a file
            times = []
            for step in steps.tolist():
                t = _off_minute(t + step)
                times.append(t)
            times = np.asarray(times)
            xy = _walk(rng, times, start)
            start = xy[-1]
            lon, lat = unproject(xy[:, 0], xy[:, 1])
            altitude = rng.integers(50, 300, lines).tolist()
            variant = rng.integers(0, 5, lines).tolist()
            shift = rng.uniform(0.01, 0.5, lines).tolist()
            out = []
            for i, kind in enumerate(kinds):
                slat, slon, ti = f"{lat[i]:.9f}", f"{lon[i]:.9f}", int(times[i])
                if kind == "malformed":
                    out.append(_malformed_line(slat, slon, ti, variant[i]))
                    tree.malformed += 1
                    continue
                if kind == "outside":
                    if variant[i] % 2:
                        slat = f"{max_lat + shift[i]:.9f}"
                    else:
                        slon = f"{min_lon - shift[i]:.9f}"
                    tree.out_of_region += 1
                else:
                    tree.retain(owner, float(slon), float(slat), ti)
                out.append(_fix_line(slat, slon, ti, altitude[i]))
            tree.write(owner, out, int(times[0]))


def generate(workload: str, seed: int, size: str, out: Path) -> dict:
    """Write one workload input under ``out`` and return its account."""
    spec = SIZES[workload][size]
    # one stream per (workload, size, seed); the workload name keeps two
    # workloads on the same seed from sharing draws
    rng = np.random.default_rng([seed % 2 ** 63, sorted(SIZES).index(workload),
                                 ("full", "tiny").index(size)])
    tree = _Tree(out / "plt")
    if workload == "study":
        _study(tree, rng, spec["points"])
    elif workload == "long-tracks":
        _long_tracks(tree, rng, spec["points"])
    else:
        _ingest(tree, rng, **spec)

    # the program's segmentation rule, stated independently: per owner,
    # time order, a new trajectory after any gap over 300 s (study and
    # long-tracks raise the threshold to a day, so each walk stays whole)
    max_gap = 300 if workload == "ingest" else DAY_SECONDS
    ids, sizes, lon, lat, t = [], [], [], [], []
    for owner in sorted(tree.by_owner):
        recs = sorted(tree.by_owner[owner], key=lambda r: r[2])
        k, count = 0, 0
        for j, (lo, la, ti) in enumerate(recs):
            if j and ti - recs[j - 1][2] > max_gap:
                ids.append(f"{owner}_{k:05d}")
                sizes.append(count)
                k, count = k + 1, 0
            count += 1
            lon.append(lo)
            lat.append(la)
            t.append(ti)
        ids.append(f"{owner}_{k:05d}")
        sizes.append(count)
    if not (DAY_START <= min(t) and max(t) < DAY_START + DAY_SECONDS):
        raise RuntimeError("generated times leave the covering day")
    account = {
        "workload": workload, "seed": seed, "size": size,
        "day_start": DAY_START, "max_gap_s": max_gap,
        "files": tree.files, "data_lines": tree.data_lines,
        "malformed": tree.malformed, "out_of_region": tree.out_of_region,
        "retained": len(t), "trajectories": len(ids),
        "trajectory_ids": ids, "trajectory_sizes": sizes,
    }
    np.savez(out / "expected.npz", lon=np.asarray(lon), lat=np.asarray(lat),
             t=np.asarray(t, dtype=float))
    (out / "expected.json").write_text(json.dumps(account, indent=1) + "\n")
    return account


def ensure(workload: str, seed: int, size: str, cache: Path) -> Path:
    """Generate into ``cache`` unless a finished copy is already there.

    The directory name carries a digest of this file, so a changed
    generator never reuses inputs made by an older one.
    """
    digest = hashlib.sha256(Path(__file__).read_bytes()).hexdigest()[:10]
    dest = cache / f"{workload}-{size}-seed{seed}-{digest}"
    if (dest / "expected.json").is_file():
        return dest
    tmp = cache / f".{dest.name}.{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    generate(workload, seed, size, tmp)
    shutil.rmtree(dest, ignore_errors=True)
    tmp.rename(dest)
    return dest


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(SIZES))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", default="full", choices=("full", "tiny"))
    p.add_argument("--cache", required=True, type=Path,
                   help="directory holding generated inputs")
    a = p.parse_args(argv)
    print(ensure(a.workload, a.seed, a.size, a.cache))
    return 0


if __name__ == "__main__":
    sys.exit(main())
