"""Projection and core type behavior."""

import math

import pytest
from hypothesis import given, strategies as st

from trajvoi.model import (EARTH_RADIUS_M, Measurement, ProjectionConfig,
                           Region, Trajectory, project, unproject)

BEIJING = ProjectionConfig(lon0=116.375, lat0=39.93)


def test_origin_maps_to_origin():
    assert project(116.375, 39.93, BEIJING) == (0.0, 0.0)
    assert unproject(0.0, 0.0, BEIJING) == (116.375, 39.93)


def test_one_e5_degree_east():
    # R * cos(39.93 deg) * 1e-5 deg in radians; the tolerance absorbs the
    # float cancellation in forming 116.375 + 1e-5 minus the origin, which
    # caps agreement with the closed form near 1e-9
    x, y = project(116.375 + 1e-5, 39.93, BEIJING)
    assert x == pytest.approx(0.8526751491133487, abs=1e-9)
    assert y == 0.0


def test_one_e5_degree_north():
    x, y = project(116.375, 39.93 + 1e-5, BEIJING)
    assert x == 0.0
    assert y == pytest.approx(1.1119492664455874, abs=1e-9)


def test_round_trip_city_point():
    lon, lat = unproject(*project(116.30, 39.90, BEIJING), BEIJING)
    assert lon == pytest.approx(116.30, abs=1e-9)
    assert lat == pytest.approx(39.90, abs=1e-9)


def test_far_corner_lands_inside_the_30km_square():
    # the corner of a 30 km box centered on the origin should unproject to
    # roughly the region's NE corner; check by projecting straight back
    lon, lat = unproject(15000.0, 15000.0, BEIJING)
    x, y = project(lon, lat, BEIJING)
    assert x == pytest.approx(15000.0, abs=1e-6)
    assert y == pytest.approx(15000.0, abs=1e-6)
    corner_x, corner_y = project(116.55, 40.06, BEIJING)
    assert math.hypot(x - corner_x, y - corner_y) < 600.0


def test_projection_is_linear_in_degree_offsets():
    # x and y are linear in (lon - lon0) and (lat - lat0), so offsets add
    a = (0.05, 0.02)
    b = (0.07, 0.06)
    ax, ay = project(116.375 + a[0], 39.93 + a[1], BEIJING)
    bx, by = project(116.375 + b[0], 39.93 + b[1], BEIJING)
    sx, sy = project(116.375 + a[0] + b[0], 39.93 + a[1] + b[1], BEIJING)
    assert sx == pytest.approx(ax + bx, rel=1e-12)
    assert sy == pytest.approx(ay + by, rel=1e-12)


@given(lon=st.floats(116.20, 116.55), lat=st.floats(39.80, 40.06))
def test_round_trip_property(lon, lat):
    lon2, lat2 = unproject(*project(lon, lat, BEIJING), BEIJING)
    assert abs(lon2 - lon) < 1e-9
    assert abs(lat2 - lat) < 1e-9


def test_high_latitude_rejected():
    with pytest.raises(ValueError):
        project(10.0, 89.5, BEIJING)
    with pytest.raises(ValueError):
        project(10.0, -89.0, BEIJING)


def test_measurement_validation():
    with pytest.raises(ValueError):
        Measurement(x=float("nan"), y=0.0, t=0.0, sigma=3.0)
    with pytest.raises(ValueError):
        Measurement(x=0.0, y=0.0, t=0.0, sigma=-1.0)


def test_trajectory_requires_sorted_nonempty():
    p0 = Measurement(x=0.0, y=0.0, t=10.0, sigma=3.0)
    p1 = Measurement(x=1.0, y=0.0, t=5.0, sigma=3.0)
    with pytest.raises(ValueError):
        Trajectory(points=(), trajectory_id="e")
    with pytest.raises(ValueError):
        Trajectory(points=(p0, p1), trajectory_id="u")
    t = Trajectory(points=(p1, p0), trajectory_id="ok")
    assert len(t) == 2
    assert [p.t for p in t] == [5.0, 10.0]


def test_region_contains():
    r = Region(min_lon=116.20, max_lon=116.55, min_lat=39.80, max_lat=40.06)
    assert r.contains(116.30, 39.90)
    assert not r.contains(117.00, 39.90)
    assert r.contains(116.55, 40.06)  # inclusive boundary
    assert r.center() == (pytest.approx(116.375), pytest.approx(39.93))
