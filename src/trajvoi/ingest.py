"""GPS log ingestion: PLT parsing, region filtering, gap segmentation, CSV I/O.

PLT files (as produced by common GPS loggers) carry 6 header lines followed
by one record per line:

    lat,lon,0,altitude_ft,serial_days,YYYY-MM-DD,HH:MM:SS

Only lat, lon and the date/time fields are used; timestamps are interpreted
as UTC. Malformed data lines are skipped and counted rather than aborting
the run, since large dumps routinely contain stray lines.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from operator import itemgetter
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from .model import ProjectionConfig, Region, Trajectory, project

PLT_HEADER_LINES = 6

TRAJECTORY_CSV_FIELDS = ("trajectory_id", "owner_id", "t", "x", "y", "sigma")


class PltFormatError(ValueError):
    """Raised when a PLT file is too short to contain its fixed header."""


@dataclass(frozen=True)
class SegmentationConfig:
    """Gap threshold and default per-point uncertainty used at ingest."""

    max_gap: float = 300.0        # seconds; a larger gap starts a new trajectory
    default_sigma: float = 3.0    # meters; typical GPS-phone accuracy

    def __post_init__(self):
        if not self.max_gap > 0:
            raise ValueError("max_gap must be > 0")
        if not 0 <= self.default_sigma < math.inf:
            raise ValueError("default_sigma must be finite and >= 0")


@dataclass
class IngestManifest:
    """Counters accumulated over an ingest run."""

    files_read: int = 0
    lines_skipped: int = 0
    measurements_retained: int = 0
    trajectories: int = 0

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2) + "\n"


@dataclass
class PltParseResult:
    """Parsed fixes as an (n, 3) float64 array of (lon, lat, t) rows, in
    file order, and the count of data lines that failed to parse."""

    records: np.ndarray = field(default_factory=lambda: np.empty((0, 3)))
    lines_skipped: int = 0


_UNSEEN = object()   # not in the memo yet; None is a remembered answer


def _strict_digits(text: str) -> bool:
    return text.isascii() and text.isdigit()


def _day_start(date: str) -> Optional[int]:
    """Epoch seconds of a strict ``YYYY-MM-DD`` date's UTC midnight; None
    for any other text or an impossible date."""
    date = date.strip()
    if not (len(date) == 10 and date[4] == date[7] == "-"
            and _strict_digits(date[:4] + date[5:7] + date[8:])):
        return None
    try:
        stamp = datetime.strptime(date, "%Y-%m-%d")
    except ValueError:
        return None
    return int(stamp.replace(tzinfo=timezone.utc).timestamp())


def _clock_seconds(clock: str) -> Optional[int]:
    """Seconds into the day of a strict ``HH:MM:SS`` clock (hour < 24,
    minute and second < 60); None for any other text."""
    clock = clock.strip()
    if not (len(clock) == 8 and clock[2] == clock[5] == ":"
            and _strict_digits(clock[:2] + clock[3:5] + clock[6:])):
        return None
    h, m, s = int(clock[:2]), int(clock[3:5]), int(clock[6:])
    if h > 23 or m > 59 or s > 59:
        return None
    return 3600 * h + 60 * m + s


def parse_plt(file_bytes: bytes) -> PltParseResult:
    """Parse PLT content into (lon, lat, t) records in file order.

    Files shorter than the fixed 6-line header are rejected; a file with
    exactly the header and no data lines yields an empty record array.
    Any data line that fails to parse is counted in ``lines_skipped``.

    Each distinct date is parsed once, in its strict ``YYYY-MM-DD`` form,
    and each clock by a strict ``HH:MM:SS`` parse; a line whose date or
    clock is in any other form takes the general ``strptime`` route, so
    either way a line parses exactly as that route alone would parse it.
    """
    text = file_bytes.decode("utf-8", errors="replace")
    lines = text.splitlines()
    if len(lines) < PLT_HEADER_LINES:
        raise PltFormatError(
            f"PLT file has {len(lines)} lines, shorter than the "
            f"{PLT_HEADER_LINES}-line header"
        )
    days: Dict[str, Optional[int]] = {}
    lons: List[float] = []
    lats: List[float] = []
    times: List[float] = []
    skipped = 0
    for line in lines[PLT_HEADER_LINES:]:
        if not line.strip():
            continue
        parts = line.split(",")
        try:
            if len(parts) < 7:
                raise ValueError("short line")
            lat = float(parts[0])
            lon = float(parts[1])
            if not (math.isfinite(lat) and math.isfinite(lon)):
                raise ValueError("non-finite coordinate")
            day = days.get(parts[5], _UNSEEN)
            if day is _UNSEEN:
                day = days[parts[5]] = _day_start(parts[5])
            clock = _clock_seconds(parts[6])
            if day is None or clock is None:
                stamp = datetime.strptime(
                    parts[5].strip() + " " + parts[6].strip(),
                    "%Y-%m-%d %H:%M:%S")
                t = stamp.replace(tzinfo=timezone.utc).timestamp()
            else:
                t = float(day + clock)
        except ValueError:
            skipped += 1
            continue
        lons.append(lon)
        lats.append(lat)
        times.append(t)
    records = np.column_stack((lons, lats, times)) if times \
        else np.empty((0, 3))
    return PltParseResult(records, skipped)


def _records(records) -> np.ndarray:
    return np.asarray(records, dtype=float).reshape(-1, 3)


def filter_region(records, region: Region) -> np.ndarray:
    """Keep (lon, lat, t) records inside the bounding box (inclusive),
    preserving order."""
    records = _records(records)
    return records[region.contains(records[:, 0], records[:, 1])]


def segment(records,
            cfg: SegmentationConfig,
            projection: ProjectionConfig,
            owner_id: str = "") -> List[Trajectory]:
    """Split a time-sorted (lon, lat, t) record array into trajectories at
    large time gaps.

    A new trajectory starts whenever the gap to the next record is strictly
    greater than ``cfg.max_gap``. Every measurement is projected to local
    meters and assigned ``cfg.default_sigma``. The concatenation of the
    output reproduces the input records exactly.
    """
    lon, lat, t = _records(records).T
    gaps = np.diff(t)
    if (gaps < 0).any():
        i = int(np.argmax(gaps < 0))
        raise ValueError(f"segment: records must be sorted by time "
                         f"({float(t[i])} then {float(t[i + 1])})")
    if not t.size:
        return []
    prefix = owner_id or "traj"
    x, y = project(lon, lat, projection)
    sigma = np.full(t.size, cfg.default_sigma)
    bounds = [0, *(np.flatnonzero(gaps > cfg.max_gap) + 1).tolist(), t.size]
    return [Trajectory(t[a:b], x[a:b], y[a:b], sigma[a:b], owner_id,
                       f"{prefix}_{k:05d}")
            for k, (a, b) in enumerate(zip(bounds, bounds[1:]))]


# A row of the flat CSV format, after its ids: t keeps millisecond
# fixed-point precision, because epoch-scale values would lose whole seconds
# at 9 significant digits; x, y and sigma use 9 significant digits.
# %-formatting writes a float as format() does, and faster.
_TIME, _POSITION, _SIGMA = "%.3f,", "%.9g,%.9g,", "%.9g\n"


def _ids(traj: Trajectory) -> str:
    """The ``trajectory_id,owner_id,`` text of a trajectory's rows, as a
    %-format: csv quotes an id only where it must (a comma, a quote or a
    line break), and the row end it writes is cut off."""
    ids = io.StringIO()
    csv.writer(ids).writerow((traj.trajectory_id, traj.owner_id))
    return (ids.getvalue()[:-2] + ",").replace("%", "%%")


def csv_rows(traj: Trajectory) -> List[str]:
    """A trajectory's rows of the flat CSV format, one per fix."""
    row = _ids(traj) + _TIME + _POSITION + _SIGMA
    return list(map(row.__mod__, zip(traj.t.tolist(), traj.x.tolist(),
                                     traj.y.tolist(), traj.sigma.tolist())))


def csv_heads(traj: Trajectory) -> List[str]:
    """Per fix, the ``trajectory_id,owner_id,t,`` text its row opens with."""
    return list(map((_ids(traj) + _TIME).__mod__, traj.t.tolist()))


def moved_rows(heads: List[str], x: np.ndarray, y: np.ndarray,
               sigma: float) -> List[str]:
    """The rows of fixes that open with ``heads`` (see :func:`csv_heads`),
    moved to ``x``, ``y``, each with standard deviation ``sigma``."""
    row = "%s" + _POSITION + _SIGMA % sigma
    return list(map(row.__mod__, zip(heads, x.tolist(), y.tolist())))


def open_trajectory_csv(path):
    """A new flat CSV file at ``path``, open for writing, its header
    written."""
    fh = open(path, "w", encoding="utf-8", newline="\n")
    fh.write(",".join(TRAJECTORY_CSV_FIELDS) + "\n")
    return fh


def write_trajectory_csv(trajectories: Iterable[Trajectory], path) -> None:
    """Write trajectories to the flat CSV interchange format, one
    trajectory's rows at a time (see :func:`csv_rows`)."""
    with open_trajectory_csv(path) as fh:
        for traj in trajectories:
            fh.write("".join(csv_rows(traj)))


def _full_rows(reader, width: int) -> Iterable[List[str]]:
    """The non-empty rows of a ``csv.reader``; a row with fewer than
    ``width`` fields is a ValueError naming its line."""
    for row in reader:
        if len(row) >= width:
            yield row
        elif row:
            raise ValueError(f"line {reader.line_num}: {len(row)} fields, "
                             f"fewer than {width}")


def read_trajectory_csv(path, limit: Optional[int] = None) -> List[Trajectory]:
    """Read the flat CSV format back into trajectories (file order).

    Columns are found by header name. The rows of one trajectory must be
    contiguous and share one owner_id; otherwise a ValueError names the
    trajectory. Rows are read one trajectory at a time, so only that
    trajectory's text is held besides the trajectories already read.

    With ``limit`` set, at most the first ``limit`` trajectories are
    returned and reading stops there: the last one ends at the first row
    of the next, which is read and checked for width but not converted,
    and no later row is read or checked.
    """
    trajectories: List[Trajectory] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        column = {name: i for i, name in enumerate(next(reader, []))}
        missing = set(TRAJECTORY_CSV_FIELDS) - set(column)
        if missing:
            raise ValueError(f"trajectory CSV missing columns: {sorted(missing)}")
        tid, owner, *values = (column[name] for name in TRAJECTORY_CSV_FIELDS)
        width = max(tid, owner, *values) + 1
        seen = set()
        for trajectory_id, group in itertools.islice(itertools.groupby(
                _full_rows(reader, width), key=itemgetter(tid)), limit):
            rows = list(group)
            if trajectory_id in seen:
                raise ValueError(f"trajectory {trajectory_id!r}: its rows "
                                 f"are not contiguous")
            seen.add(trajectory_id)
            owners = {row[owner] for row in rows}
            if len(owners) > 1:
                raise ValueError(f"trajectory {trajectory_id!r}: rows with "
                                 f"owner_ids {sorted(owners)}")
            columns = list(zip(*rows))
            t, x, y, sigma = (np.array(list(map(float, columns[i])))
                              for i in values)
            trajectories.append(Trajectory(t, x, y, sigma, owners.pop(),
                                           trajectory_id))
    return trajectories


def ingest_plt_tree(root, region: Region, projection: ProjectionConfig,
                    cfg: SegmentationConfig) -> Tuple[List[Trajectory], IngestManifest]:
    """Ingest a directory tree of PLT files grouped per owner.

    Owners follow the common logger layout ``<root>/<owner>/Trajectory/*.plt``;
    files not under a ``Trajectory`` folder are grouped by their immediate
    parent directory name. Records are merged per owner, sorted by time,
    filtered to the region and segmented. A file shorter than its header
    is a PltFormatError naming the file.
    """
    root = Path(root)
    manifest = IngestManifest()
    by_owner: Dict[str, List[np.ndarray]] = {}
    for plt_path in sorted(root.rglob("*.plt")):
        owner = plt_path.parent.name
        if owner.lower() == "trajectory":
            owner = plt_path.parent.parent.name
        try:
            result = parse_plt(plt_path.read_bytes())
        except PltFormatError as e:
            raise PltFormatError(f"{plt_path}: {e}") from None
        manifest.files_read += 1
        manifest.lines_skipped += result.lines_skipped
        by_owner.setdefault(owner, []).append(result.records)

    trajectories: List[Trajectory] = []
    for owner in sorted(by_owner):
        records = filter_region(np.concatenate(by_owner.pop(owner)), region)
        records = records[np.argsort(records[:, 2], kind="stable")]
        manifest.measurements_retained += len(records)
        trajectories.extend(segment(records, cfg, projection, owner_id=owner))
    manifest.trajectories = len(trajectories)
    return trajectories, manifest
