"""Projection and core type behavior."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from trajvoi.model import (EARTH_RADIUS_M, ProjectionConfig, Region,
                           Trajectory, project, unproject)

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


def fix(**values):
    """A one-fix trajectory, the fix at the origin unless told otherwise."""
    return Trajectory(**{name: [values.get(name, 0.0)]
                         for name in ("t", "x", "y", "sigma")})


def test_measurement_validation():
    with pytest.raises(ValueError, match=r"^Measurement\.x must be finite, got nan$"):
        fix(x=float("nan"))
    with pytest.raises(ValueError, match=r"^Measurement\.t must be finite, got inf$"):
        fix(t=float("inf"))
    with pytest.raises(ValueError, match=r"^Measurement\.sigma must be >= 0, got -1\.0$"):
        fix(sigma=-1.0)
    # the first fix at fault is named, and a fix's fields in x, y, t,
    # sigma order
    with pytest.raises(ValueError, match=r"^Measurement\.y must be finite, got -inf$"):
        Trajectory(t=[0.0, 1.0, 2.0], x=[0.0, 0.0, np.nan],
                   y=[0.0, -np.inf, 0.0], sigma=[3.0, np.nan, -1.0])


def test_trajectory_requires_sorted_nonempty():
    with pytest.raises(ValueError, match="at least one measurement"):
        Trajectory(t=[], x=[], y=[], sigma=[], trajectory_id="e")
    with pytest.raises(ValueError, match=r"'u': timestamps must be "
                                         r"non-decreasing \(10\.0 followed by 5\.0\)"):
        Trajectory(t=[10.0, 5.0], x=[0.0, 1.0], y=[0.0, 0.0],
                   sigma=[3.0, 3.0], trajectory_id="u")
    t = Trajectory(t=[5.0, 5.0, 10.0], x=[1.0, 2.0, 0.0], y=[0.0] * 3,
                   sigma=[3.0] * 3, trajectory_id="ok")
    assert len(t) == 3
    assert t.t.tolist() == [5.0, 5.0, 10.0]


def test_trajectory_columns_are_equal_length_read_only_float64():
    with pytest.raises(ValueError, match="of one length"):
        Trajectory(t=[0.0, 1.0], x=[0.0], y=[0.0, 0.0], sigma=[3.0, 3.0])
    xs = np.array([1, 2, 3])
    s = Trajectory(t=[0, 1, 2], x=xs, y=np.zeros(3), sigma=np.full(3, 3.0))
    for column in (s.t, s.x, s.y, s.sigma):
        assert column.dtype == np.float64 and column.flags.c_contiguous
        with pytest.raises(ValueError):
            column[0] = 7.0
    xs[0] = 9          # a copy was taken: the int input is not the column
    assert s.x[0] == 1.0
    kept = s.take(np.array([True, False, True]))
    assert kept.x.tolist() == [1.0, 3.0]
    assert (kept.owner_id, kept.trajectory_id) == (s.owner_id, s.trajectory_id)


def test_region_contains():
    r = Region(min_lon=116.20, max_lon=116.55, min_lat=39.80, max_lat=40.06)
    assert r.contains(116.30, 39.90)
    assert not r.contains(117.00, 39.90)
    assert r.contains(116.55, 40.06)  # inclusive boundary
    lon, lat = np.array([116.30, 117.00, 116.55]), np.array([39.90] * 3)
    assert r.contains(lon, lat).tolist() == [True, False, True]
