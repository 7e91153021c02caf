"""PLT parsing, gap segmentation, CSV round trip, tree ingestion."""

import gc
import json
import math
import tracemalloc
from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import synth

from trajvoi.ingest import (IngestManifest, PltFormatError, SegmentationConfig,
                            filter_region, ingest_plt_tree, parse_plt,
                            read_trajectory_csv, segment,
                            write_trajectory_csv)
from trajvoi.model import ProjectionConfig, Region, Trajectory

BEIJING = ProjectionConfig(lon0=116.375, lat0=39.93)
REGION = Region(min_lon=116.20, max_lon=116.55, min_lat=39.80, max_lat=40.06)

PLT_HEADER = (
    "Geolife trajectory\n"
    "WGS 84\n"
    "Altitude is in Feet\n"
    "Reserved 3\n"
    "0,2,255,My Track,0,0,2,8421376\n"
    "0\n"
)


def plt_bytes(*lines):
    return (PLT_HEADER + "".join(line + "\n" for line in lines)).encode()


def test_parse_plt_record():
    result = parse_plt(plt_bytes(
        "39.906631,116.385564,0,492,39745.1204,2008-10-24,02:53:04"))
    assert result.lines_skipped == 0
    assert len(result.records) == 1
    lon, lat, t = result.records[0]
    assert lon == 116.385564
    assert lat == 39.906631
    # 2008-10-24T02:53:04Z, hand-converted
    assert t == 1224816784.0


def test_parse_plt_header_only():
    result = parse_plt(PLT_HEADER.encode())
    assert result.records.shape == (0, 3)
    assert result.lines_skipped == 0


def test_parse_plt_too_short():
    with pytest.raises(PltFormatError):
        parse_plt(b"one\ntwo\nthree\n")


def test_parse_plt_skips_malformed_lines():
    result = parse_plt(plt_bytes(
        "39.906631,116.385564,0,492,39745.1204,2008-10-24,02:53:04",
        "not,a,valid,record",
        "39.90,116.39,0,492,39745.1205,2008-10-24,02:53:09",
        "39.90,116.39,0,492,39745.1205,2008-13-45,99:99:99",
    ))
    assert len(result.records) == 2
    assert result.lines_skipped == 2


def test_filter_region():
    records = [(116.30, 39.90, 0.0), (117.00, 39.90, 1.0), (116.55, 40.06, 2.0)]
    kept = filter_region(records, REGION)
    assert kept.tolist() == [[116.30, 39.90, 0.0], [116.55, 40.06, 2.0]]
    assert len(filter_region([], REGION)) == 0


def make_records(times):
    return [(116.30 + 1e-6 * i, 39.90, float(t)) for i, t in enumerate(times)]


def test_segment_splits_at_strict_gap():
    cfg = SegmentationConfig(max_gap=300.0, default_sigma=3.0)
    trajs = segment(make_records([0, 100, 200, 600, 700]), cfg, BEIJING,
                    owner_id="007")
    assert [len(t) for t in trajs] == [3, 2]
    assert all((t.sigma == 3.0).all() for t in trajs)
    # concatenation preserves every record in order
    all_times = [v for t in trajs for v in t.t.tolist()]
    assert all_times == [0.0, 100.0, 200.0, 600.0, 700.0]


def test_segment_boundary_gap_is_not_a_split():
    cfg = SegmentationConfig()
    trajs = segment(make_records([0, 300]), cfg, BEIJING)
    assert len(trajs) == 1
    assert len(trajs[0]) == 2


def test_segment_single_record():
    trajs = segment(make_records([42]), SegmentationConfig(), BEIJING)
    assert len(trajs) == 1
    assert len(trajs[0]) == 1


def test_segment_rejects_unsorted():
    with pytest.raises(ValueError):
        segment(make_records([10, 5]), SegmentationConfig(), BEIJING)


def test_segment_ids_are_stable():
    trajs = segment(make_records([0, 1000, 2000]), SegmentationConfig(),
                    BEIJING, owner_id="012")
    assert [t.trajectory_id for t in trajs] == ["012_00000", "012_00001",
                                                "012_00002"]


def test_trajectory_csv_round_trip(tmp_path):
    cfg = SegmentationConfig()
    trajs = segment(make_records([0, 100, 600]), cfg, BEIJING, owner_id="001")
    path = tmp_path / "t.csv"
    write_trajectory_csv(trajs, path)
    back = read_trajectory_csv(path)
    assert len(back) == len(trajs)
    for a, b in zip(trajs, back):
        assert a.trajectory_id == b.trajectory_id
        assert a.owner_id == b.owner_id
        assert np.allclose(b.t, a.t, rtol=0.0, atol=1e-3)
        assert np.allclose(b.x, a.x, rtol=1e-8, atol=0.0)
        assert np.allclose(b.y, a.y, rtol=1e-8, atol=0.0)
        assert np.array_equal(b.sigma, a.sigma)


def test_read_trajectory_csv_rejects_missing_columns(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("trajectory_id,owner_id,t\n")
    with pytest.raises(ValueError):
        read_trajectory_csv(path)


def make_plt_tree(root):
    d = root / "000" / "Trajectory"
    d.mkdir(parents=True)
    (d / "20081024.plt").write_bytes(plt_bytes(
        "39.906631,116.385564,0,492,39745.1204,2008-10-24,02:53:04",
        "39.906700,116.385600,0,492,39745.1205,2008-10-24,02:53:09",
        "39.906800,116.385700,0,492,39745.1300,2008-10-24,03:30:00",
        "garbage line",
    ))
    d2 = root / "001" / "Trajectory"
    d2.mkdir(parents=True)
    (d2 / "a.plt").write_bytes(plt_bytes(
        "39.950000,116.400000,0,100,0,2008-10-25,10:00:00"))
    # outside the study region: dropped by the filter
    (d2 / "b.plt").write_bytes(plt_bytes(
        "10.000000,10.000000,0,100,0,2008-10-25,11:00:00"))


def test_ingest_plt_tree(tmp_path):
    make_plt_tree(tmp_path)
    cfg = SegmentationConfig()
    trajs, manifest = ingest_plt_tree(tmp_path, REGION, BEIJING, cfg)
    assert manifest.files_read == 3
    assert manifest.lines_skipped == 1
    assert manifest.measurements_retained == 4
    # owner 000: 3:30 is over 300 s after 2:53 -> two trajectories
    assert manifest.trajectories == 3
    assert [t.owner_id for t in trajs] == ["000", "000", "001"]
    assert json.loads(manifest.to_json())["trajectories"] == 3


def test_ingest_empty_tree(tmp_path):
    trajs, manifest = ingest_plt_tree(tmp_path, REGION, BEIJING,
                                      SegmentationConfig())
    assert trajs == []
    assert manifest == IngestManifest(files_read=0, lines_skipped=0,
                                      measurements_retained=0, trajectories=0)


def test_ingest_rerun_is_byte_identical(tmp_path):
    make_plt_tree(tmp_path)
    cfg = SegmentationConfig()
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    for out in (out1, out2):
        trajs, _ = ingest_plt_tree(tmp_path, REGION, BEIJING, cfg)
        write_trajectory_csv(trajs, out)
    assert out1.read_bytes() == out2.read_bytes()


# --- PLT parsing against the per-line strptime route --------------------------

def _oracle_line(line):
    # the per-line route every line once took, kept here as the reference
    parts = line.split(",")
    if len(parts) < 7:
        raise ValueError("short line")
    lat = float(parts[0])
    lon = float(parts[1])
    stamp = datetime.strptime(parts[5].strip() + " " + parts[6].strip(),
                              "%Y-%m-%d %H:%M:%S")
    t = stamp.replace(tzinfo=timezone.utc).timestamp()
    if not (math.isfinite(lat) and math.isfinite(lon)):
        raise ValueError("non-finite coordinate")
    return [lon, lat, t]


def _oracle_parse(lines):
    records, skipped = [], 0
    for line in lines:
        if not line.strip():
            continue
        try:
            records.append(_oracle_line(line))
        except (ValueError, IndexError):
            skipped += 1
    return records, skipped


def _number(width):
    # a field of one or two digits, or padded to the width
    return st.integers(0, 10 ** width - 1).flatmap(lambda v: st.sampled_from(
        [str(v), str(v).zfill(width)]))


_SPACE = st.sampled_from(["", " ", "  ", "\t"])
_YEAR = st.one_of(st.sampled_from([1900, 1999, 2000, 2008, 2009, 2012]),
                  st.integers(1, 9999)).flatmap(
    lambda y: st.sampled_from([str(y), str(y).zfill(4)]))
_DATE = st.one_of(
    st.tuples(_YEAR, st.integers(0, 13), st.integers(0, 32)).flatmap(
        lambda ymd: st.tuples(st.just(ymd[0]),
                              st.sampled_from([str(ymd[1]),
                                               str(ymd[1]).zfill(2)]),
                              st.sampled_from([str(ymd[2]),
                                               str(ymd[2]).zfill(2)]))
    ).map("-".join),
    # 29 February in leap and non-leap years, and a day lost to a typo
    st.sampled_from(["2008-02-29", "2000-02-29", "2009-02-29", "1900-02-29",
                     "2008-10-2x", "2008/10/24", "", "2008-10-24 "]))
_CLOCK = st.one_of(
    st.tuples(st.integers(0, 25), st.integers(0, 61), st.integers(0, 62)
              ).flatmap(lambda hms: st.tuples(*(
                  st.sampled_from([str(v), str(v).zfill(2)]) for v in hms))
                        ).map(":".join),
    st.sampled_from(["24:00:00", "23:60:00", "23:59:60", "23:59:61",
                     "23:59", "12:00:00 PM", "", "1:2:3"]))
_COORD = st.one_of(
    st.floats(-90, 90).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "", "x", " 39.9 ", "1e999",
                     "39,9"]))


@st.composite
def _plt_line(draw):
    shape = draw(st.sampled_from(["full", "full", "full", "short", "extra",
                                  "empty"]))
    if shape == "empty":
        return draw(_SPACE)
    fields = [draw(_COORD), draw(_COORD), "0", "492", "39745.12",
              draw(_SPACE) + draw(_DATE) + draw(_SPACE),
              draw(_SPACE) + draw(_CLOCK) + draw(_SPACE)]
    if shape == "short":
        fields = fields[:draw(st.integers(0, 6))]
    elif shape == "extra":
        fields.append("extra")
    return ",".join(fields)


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(_plt_line(), max_size=12))
def test_parse_plt_matches_the_per_line_strptime_route(lines):
    result = parse_plt(plt_bytes(*lines))
    records, skipped = _oracle_parse(lines)
    assert result.records.tolist() == records
    assert result.lines_skipped == skipped


def test_parse_plt_strict_and_general_forms_agree():
    # the same instants written strictly and loosely, and what strptime
    # refuses: hour 24, minute 60, seconds 60 and 61, 29 February 2009
    lines = ["39.9,116.3,0,0,0,2008-02-29,07:08:09",
             "39.9,116.3,0,0,0, 2008-2-29 , 7:8:9 ",
             "39.9,116.3,0,0,0,2008-10-24,24:00:00",
             "39.9,116.3,0,0,0,2008-10-24,23:60:00",
             "39.9,116.3,0,0,0,2008-10-24,23:59:60",
             "39.9,116.3,0,0,0,2008-10-24,23:59:61",
             "39.9,116.3,0,0,0,2009-02-29,00:00:00",
             "nan,116.3,0,0,0,2008-10-24,00:00:00",
             "39.9,116.3,0,0,0,2008-10-24"]
    result = parse_plt(plt_bytes(*lines))
    assert result.records.tolist() == [[116.3, 39.9, 1204268889.0]] * 2
    assert result.lines_skipped == 7
    assert _oracle_parse(lines) == (result.records.tolist(), 7)


# --- trajectory CSV --------------------------------------------------------------

CSV_HEADER = "trajectory_id,owner_id,t,x,y,sigma\n"


def test_read_trajectory_csv_rejects_rows_out_of_contiguity(tmp_path):
    path = tmp_path / "split.csv"
    path.write_text(CSV_HEADER + "a,o,0.000,1,2,3\n"
                    "b,o,0.000,1,2,3\n"
                    "a,o,1.000,1,2,3\n")
    with pytest.raises(ValueError, match="'a'.*not contiguous"):
        read_trajectory_csv(path)


def test_read_trajectory_csv_rejects_an_owner_change(tmp_path):
    path = tmp_path / "owners.csv"
    path.write_text(CSV_HEADER + "a,o1,0.000,1,2,3\n"
                    "a,o2,1.000,1,2,3\n")
    with pytest.raises(ValueError, match=r"'a'.*\['o1', 'o2'\]"):
        read_trajectory_csv(path)


def test_read_trajectory_csv_finds_columns_by_name(tmp_path):
    path = tmp_path / "shuffled.csv"
    path.write_text("sigma,y,note,x,t,owner_id,trajectory_id\n"
                    "3,20,n,10,0.5,o,a\n"
                    "4,21,n,11,1.5,o,a\n"
                    "\n"
                    "5,22,n,12,2.5,p,b\n")
    a, b = read_trajectory_csv(path)
    assert (a.trajectory_id, a.owner_id, b.trajectory_id, b.owner_id) \
        == ("a", "o", "b", "p")
    assert [a.t.tolist(), a.x.tolist(), a.y.tolist(), a.sigma.tolist()] \
        == [[0.5, 1.5], [10.0, 11.0], [20.0, 21.0], [3.0, 4.0]]
    assert b.x.tolist() == [12.0]


@pytest.mark.parametrize("bad_row", ["3,20,n,10", "   "])
def test_read_trajectory_csv_rejects_a_short_row_by_line(tmp_path, bad_row):
    # the id column is last, so a short row lacks it as well
    path = tmp_path / "short.csv"
    path.write_text("sigma,y,note,x,t,owner_id,trajectory_id\n"
                    "3,20,n,10,0.5,o,a\n"
                    f"{bad_row}\n")
    with pytest.raises(ValueError, match="line 3: .*fewer than 7"):
        read_trajectory_csv(path)


def test_read_trajectory_csv_limit_reads_a_prefix(tmp_path):
    fleet = [synth.make_trajectory(np.arange(n) * 10.0,
                                   1e9 + 60.0 * np.arange(n),
                                   trajectory_id=f"w_{k}", owner_id=f"o{k % 2}")
             for k, n in enumerate((3, 1, 5, 2))]
    path = tmp_path / "fleet.csv"
    write_trajectory_csv(fleet, path)
    full = read_trajectory_csv(path)
    assert len(full) == len(fleet)
    for limit in [*range(len(fleet) + 2), None]:
        part = read_trajectory_csv(path, limit)
        assert isinstance(part, list)
        want = full[:limit]
        assert len(part) == len(want)
        for got, ref in zip(part, want):
            assert (got.trajectory_id, got.owner_id) \
                == (ref.trajectory_id, ref.owner_id)
            for name in ("t", "x", "y", "sigma"):
                assert np.array_equal(getattr(got, name), getattr(ref, name))


def test_read_trajectory_csv_limit_stops_at_the_next_first_row(tmp_path):
    # b's first row ends a; it is read for its width but not converted
    path = tmp_path / "tail.csv"
    path.write_text(CSV_HEADER + "a,o,0.000,1,2,3\n"
                    "a,o,1.000,1,2,3\n"
                    "b,o,zero,1,2,3\n"
                    "c,o,0.000,1,2,3\n"
                    "c,o,1.000,1,2\n"
                    "a,o,2.000,1,2,3\n")
    (a,) = read_trajectory_csv(path, 1)
    assert (a.trajectory_id, a.t.tolist()) == ("a", [0.0, 1.0])
    assert read_trajectory_csv(path, 0) == []
    for limit in (2, None):
        with pytest.raises(ValueError, match="'zero'"):
            read_trajectory_csv(path, limit)
    short_next = tmp_path / "short_next.csv"
    short_next.write_text(CSV_HEADER + "a,o,0.000,1,2,3\nb,o,0.000\n")
    with pytest.raises(ValueError, match="line 3: .*fewer than 6"):
        read_trajectory_csv(short_next, 1)


def test_read_trajectory_csv_checks_the_header_at_limit_zero(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("trajectory_id,owner_id,t,x,y\na,o,0,1,2\n")
    with pytest.raises(ValueError, match="missing columns"):
        read_trajectory_csv(path, 0)


def test_trajectory_csv_round_trips_ids_that_need_quoting(tmp_path):
    odd = synth.make_trajectory([1.0, 2.0], [10.0, 20.0],
                                trajectory_id="a,b", owner_id='say "o"')
    plain = synth.make_trajectory([3.0], [30.0], trajectory_id="plain",
                                  owner_id="o")
    path = tmp_path / "t.csv"
    write_trajectory_csv([odd, plain], path)
    back = read_trajectory_csv(path)
    assert [(s.trajectory_id, s.owner_id) for s in back] \
        == [("a,b", 'say "o"'), ("plain", "o")]
    assert [len(s) for s in back] == [2, 1]
    lines = path.read_text().splitlines()
    assert lines[1].startswith('"a,b","say ""o""",10.000,')
    assert lines[3].startswith("plain,o,30.000,")


def test_trajectory_csv_rewrite_is_byte_identical(tmp_path):
    # awkward values: signed zero, tiny and huge magnitudes, repeated
    # timestamps and exact (sigma 0) fixes
    awkward = Trajectory(
        t=[-0.0, 0.0005, 0.0005, 1224806400.123, 1224806400.123],
        x=[-0.0, 1.234e-5, -9.87654321e-7, 12345678.9, -3.3e12],
        y=[5e-324, -1e-4, 7.0000001e7, 1.0 / 3.0, -2.5],
        sigma=[0.0, 0.0, 1e-9, 3.0, 1.5e7],
        owner_id="own%r", trajectory_id="odd_%d")
    plain = synth.make_trajectory([1.0, 2.0], [10.0, 20.0],
                                  trajectory_id="plain")
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    write_trajectory_csv([awkward, plain], first)
    write_trajectory_csv(read_trajectory_csv(first), second)
    assert second.read_bytes() == first.read_bytes()
    # t at millisecond fixed point, the rest at 9 significant digits
    assert first.read_text().splitlines()[1:] == [
        f"{s.trajectory_id},{s.owner_id},{format(t, '.3f')},"
        f"{format(x, '.9g')},{format(y, '.9g')},{format(sigma, '.9g')}"
        for s in (awkward, plain) for t, x, y, sigma in synth.fixes(s)]
    assert first.read_text().splitlines()[1] \
        == "odd_%d,own%r,-0.000,-0,4.94065646e-324,0"


def test_loaded_trajectories_hold_at_most_64_bytes_per_point(tmp_path):
    fleet = [synth.make_trajectory(np.arange(100.0), 1e9 + np.arange(100.0),
                                   trajectory_id=f"w_{k:03d}")
             for k in range(100)]
    path = tmp_path / "fleet.csv"
    write_trajectory_csv(fleet, path)
    del fleet
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loaded = read_trajectory_csv(path)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    points = sum(len(t) for t in loaded)
    assert points == 10_000
    assert held / points <= 64
