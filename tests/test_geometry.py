"""Geometry kernel tests: frozen reference values, oracles, error contracts."""

import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risrates import (
    BlockageWedge,
    BlockedRegionError,
    CircularSector,
    DegenerateIntersectionError,
    GeometryDomainError,
    MoveGeometry,
    Point2D,
    SegmentObstacle,
    bearing,
    blocked_candidate_area,
    displaced_distance,
    displaced_position,
    excess_area,
    load_packaged,
    numeric_blocked_area,
    shadowed_visible_area,
    visible_excess_area_A1,
    visible_region_predicate,
    wall_shadow_interval,
    wedge_from_wall,
)
from risrates.geometry import (_sector_contains_many, segment_crosses,
                               wedge_circle_area)

XI45 = math.radians(45.0)


def _static_scene():
    return load_packaged("table3-static-obstacle").scenario


# ---------------------------------------------------------------------------
# displaced distance


def test_displaced_distance_reference_value():
    g = MoveGeometry(r=2.0, d_U=2.0, xi=XI45)
    # closed form: sqrt(8 + 4*sqrt(2))
    assert displaced_distance(g) == pytest.approx(math.sqrt(8.0 + 4.0 * math.sqrt(2.0)), rel=1e-14)
    assert displaced_distance(g) == pytest.approx(3.695518130045147, rel=1e-12)


def test_displaced_distance_axis_cases():
    assert displaced_distance(MoveGeometry(2.0, 3.0, 0.0)) == pytest.approx(5.0, rel=1e-14)
    assert displaced_distance(MoveGeometry(2.0, 3.0, math.pi)) == pytest.approx(1.0, rel=1e-12)
    assert displaced_distance(MoveGeometry(2.0, 2.0, math.pi)) == 0.0


@given(r=st.floats(0.1, 20.0), d=st.floats(0.0, 40.0), xi=st.floats(0.0, math.pi))
def test_displaced_distance_triangle_bounds(r, d, xi):
    R = displaced_distance(MoveGeometry(r, d, xi))
    assert abs(r - d) - 1e-9 <= R <= r + d + 1e-9


@given(r=st.floats(0.1, 20.0), d=st.floats(0.01, 40.0))
def test_displaced_distance_decreasing_in_angle(r, d):
    xs = [displaced_distance(MoveGeometry(r, d, x))
          for x in np.linspace(0.0, math.pi, 20)]
    assert all(a >= b - 1e-12 for a, b in zip(xs, xs[1:]))


def test_move_geometry_validation():
    with pytest.raises(ValueError):
        MoveGeometry(0.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        MoveGeometry(1.0, -0.1, 0.5)
    with pytest.raises(ValueError):
        MoveGeometry(1.0, 1.0, 3.5)


# ---------------------------------------------------------------------------
# excess area


def _disk_difference_area(r: float, R: float, d: float) -> float:
    """Independent oracle: area(disk(c2,R) \\ disk(c1,r)), centers d apart."""
    if d >= r + R:
        return math.pi * R * R
    if d + r <= R:
        return math.pi * (R * R - r * r)
    if d + R <= r:
        return 0.0
    a1 = math.acos(max(-1.0, min(1.0, (d * d + r * r - R * R) / (2.0 * d * r))))
    a2 = math.acos(max(-1.0, min(1.0, (d * d + R * R - r * r) / (2.0 * d * R))))
    lens = (r * r * (a1 - math.sin(a1) * math.cos(a1))
            + R * R * (a2 - math.sin(a2) * math.cos(a2)))
    return math.pi * R * R - lens


def test_excess_area_reference_value():
    a = excess_area(MoveGeometry(2.0, 2.0, XI45))
    # closed form for this triangle: 4*pi + 7*pi/sqrt(2) + 2*sqrt(2)... check
    # against the lens-difference oracle instead of a re-derivation.
    assert a == pytest.approx(30.94488802265964, rel=1e-12)
    R = displaced_distance(MoveGeometry(2.0, 2.0, XI45))
    assert a == pytest.approx(_disk_difference_area(2.0, R, 2.0), rel=1e-12)


def test_excess_area_zero_displacement_is_exactly_zero():
    assert excess_area(MoveGeometry(1.7, 0.0, 0.9)) == 0.0
    assert excess_area(MoveGeometry(2.0, 2.0, math.pi)) == 0.0  # R collapses


def test_excess_area_obtuse_branch():
    # r + d*cos(xi) < 0 forces the reflected asin branch
    g = MoveGeometry(1.0, 3.0, math.radians(160.0))
    assert g.r + g.d_U * math.cos(g.xi) < 0.0
    R = displaced_distance(g)
    assert excess_area(g) == pytest.approx(_disk_difference_area(1.0, R, 3.0),
                                           rel=1e-11)


@settings(max_examples=300)
@given(r=st.floats(0.1, 20.0), d=st.floats(1e-3, 40.0), xi=st.floats(0.0, math.pi))
def test_excess_area_matches_lens_oracle(r, d, xi):
    # d is bounded away from 0 because the oracle's acos argument divides a
    # catastrophically cancelled r^2 - R^2 by d; the closed form itself stays
    # well conditioned (see the bounds test for the small-d regime).
    g = MoveGeometry(r, d, xi)
    R = displaced_distance(g)
    expected = _disk_difference_area(r, R, d)
    assert excess_area(g) == pytest.approx(expected, rel=1e-9, abs=1e-9)


@given(r=st.floats(0.1, 20.0), d=st.floats(0.0, 40.0), xi=st.floats(0.0, math.pi))
def test_excess_area_bounds(r, d, xi):
    g = MoveGeometry(r, d, xi)
    R = displaced_distance(g)
    a = excess_area(g)
    assert 0.0 <= a <= math.pi * R * R + 1e-9


# ---------------------------------------------------------------------------
# wedge/circle intersection and the blocked area


def test_wedge_circle_area_full_disk_when_nothing_cuts():
    # both border rays steeper than pi/2 or clearing the disk: full disk
    assert wedge_circle_area(1.0, 5.0, 1.7, 1.2) == pytest.approx(math.pi, rel=1e-12)
    assert wedge_circle_area(2.0, 10.0, 0.4, 0.5) == pytest.approx(4 * math.pi, rel=1e-12)


def test_wedge_circle_area_single_cap():
    # ray at offset a cuts: h = t*sin(a) < rho; cap area rho^2*(phi - sin*cos)
    rho, t, a = 1.0, 3.0, 0.1
    h = t * math.sin(a)
    phi = math.acos(h / rho)
    expected = math.pi - (phi - math.sin(phi) * math.cos(phi))
    assert wedge_circle_area(rho, t, a, 1.5) == pytest.approx(expected, rel=1e-12)


def test_wedge_circle_area_monotone_in_width():
    grid = np.linspace(0.05, math.pi - 0.21, 40)
    areas = [wedge_circle_area(1.0, 3.0, 0.2, b) for b in grid]
    assert all(b >= a - 1e-12 for a, b in zip(areas, areas[1:]))


def test_wedge_circle_area_domain_errors():
    with pytest.raises(DegenerateIntersectionError):
        wedge_circle_area(1.0, 2.0, math.asin(0.5), 0.3)  # ray tangent
    with pytest.raises(DegenerateIntersectionError):
        wedge_circle_area(1.0, 1.0, 0.3, 0.3)  # apex on the circle
    with pytest.raises(GeometryDomainError):
        wedge_circle_area(1.0, 0.5, 0.3, 0.3)  # apex inside the disk
    with pytest.raises(GeometryDomainError):
        wedge_circle_area(1.0, 5.0, 2.0, 2.0)  # wider than a half-plane
    with pytest.raises(GeometryDomainError):
        wedge_circle_area(1.0, 5.0, -0.1, 0.4)  # center outside the wedge
    assert wedge_circle_area(0.0, 5.0, 0.2, 0.2) == 0.0


def test_blocked_candidate_area_static_scene_reference():
    scene = _static_scene()
    g = MoveGeometry(2.0, 2.0, XI45)
    R = displaced_distance(g)
    l2, _ = displaced_position(scene.ue, scene.ris_direction,
                               scene.orientation, 2.0, XI45)
    wedge = wedge_from_wall(scene.enb, scene.walls[0], scene.ue, l2)
    assert wedge.d_BU1 == pytest.approx(7.004691285131701, rel=1e-12)
    assert wedge.d_BU2 == pytest.approx(7.310075916742484, rel=1e-12)
    assert wedge.width == pytest.approx(0.5364354576047314, rel=1e-12)
    blocked = blocked_candidate_area(wedge, 2.0, R)
    assert blocked == pytest.approx(20.716745329139822, rel=1e-10)
    # and the two wedge/disk pieces it decomposes into
    outer = wedge_circle_area(R, wedge.d_BU2, wedge.alpha3, wedge.alpha4)
    inner = wedge_circle_area(2.0, wedge.d_BU1, wedge.alpha1,
                              wedge.width - wedge.alpha1)
    assert outer == pytest.approx(27.242429103103014, rel=1e-10)
    assert inner == pytest.approx(6.525683773963192, rel=1e-10)


def test_blocked_candidate_area_collapsed_wedge_logs_and_returns_zero(caplog):
    w = BlockageWedge(apex=Point2D(0.0, 0.0), alpha1=0.0, alpha3=0.0,
                      alpha4=0.0, d_BU1=5.0, d_BU2=6.0)
    with caplog.at_level(logging.INFO, logger="risrates.geometry"):
        assert blocked_candidate_area(w, 1.0, 2.0) == 0.0
    assert any("degenerate-intersection" in rec.message for rec in caplog.records)


def test_blocked_candidate_area_rejects_user_outside_wedge():
    w = BlockageWedge(apex=Point2D(0.0, 0.0), alpha1=0.9, alpha3=0.2,
                      alpha4=0.3, d_BU1=5.0, d_BU2=6.0)
    with pytest.raises(GeometryDomainError):
        blocked_candidate_area(w, 1.0, 2.0)


def test_visible_excess_area_reference_value():
    scene = _static_scene()
    g = MoveGeometry(2.0, 2.0, XI45)
    assert visible_excess_area_A1(scene, g) == pytest.approx(10.228142693519818,
                                                             rel=1e-9)


def test_visible_excess_area_no_walls_equals_excess():
    scene = load_packaged("table3-static-noobstacle").scenario
    bare = type(scene)(room=scene.room, enb=scene.enb, walls=(),
                       extra_obstacles=(), ue=scene.ue,
                       serving_ris_distance=2.0,
                       ris_direction=scene.ris_direction,
                       orientation=scene.orientation, lambda_RIS=0.1,
                       mobility=scene.mobility)
    g = MoveGeometry(2.0, 2.0, XI45)
    assert visible_excess_area_A1(bare, g) == pytest.approx(excess_area(g), rel=1e-12)


def test_subtraction_validity_guard_raises():
    # Exclusion circle pokes out of the displaced coverage disk inside the
    # shadow: the closed-form subtraction must refuse instead of lying.
    scene = _static_scene()
    bad = type(scene)(room=scene.room, enb=scene.enb, walls=scene.walls,
                      extra_obstacles=(), ue=Point2D(6.0, 4.2),
                      serving_ris_distance=2.0, ris_direction=0.0,
                      orientation=1, lambda_RIS=0.1, mobility=scene.mobility)
    with pytest.raises(GeometryDomainError):
        visible_excess_area_A1(bad, MoveGeometry(2.0, 0.5, math.radians(90.0)))


# ---------------------------------------------------------------------------
# wall shadows, displacement bookkeeping


def test_wall_shadow_interval_basic():
    apex = Point2D(0.0, 0.0)
    wall = SegmentObstacle(Point2D(1.0, -1.0), Point2D(1.0, 1.0))
    start, width = wall_shadow_interval(apex, wall)
    assert start == pytest.approx(-math.pi / 4.0, abs=1e-12)
    assert width == pytest.approx(math.pi / 2.0, abs=1e-12)


def test_wall_shadow_interval_collinear_raises():
    apex = Point2D(0.0, 0.0)
    with pytest.raises(GeometryDomainError):
        wall_shadow_interval(apex, SegmentObstacle(Point2D(1.0, 0.0),
                                                   Point2D(2.0, 0.0)))


def test_wedge_from_wall_outside_shadow_raises():
    apex = Point2D(0.0, 0.0)
    wall = SegmentObstacle(Point2D(1.0, -1.0), Point2D(1.0, 1.0))
    with pytest.raises(BlockedRegionError):
        wedge_from_wall(apex, wall, Point2D(-3.0, 0.0), Point2D(3.0, 0.1))
    with pytest.raises(BlockedRegionError):
        wedge_from_wall(apex, wall, Point2D(3.0, 0.1), Point2D(-3.0, 0.0))


def test_displaced_position_conventions():
    ue = Point2D(1.0, 1.0)
    # serving node due east; xi=0 moves due west regardless of orientation
    for orientation in (1, -1):
        p, heading = displaced_position(ue, 0.0, orientation, 2.0, 0.0)
        assert p.x == pytest.approx(-1.0, abs=1e-12)
        assert p.y == pytest.approx(1.0, abs=1e-12)
        assert math.cos(heading) == pytest.approx(-1.0, abs=1e-12)
    # ccw rotates the heading counterclockwise from the away direction:
    # away is west here, so ccw by 90 degrees points south, cw points north
    p_ccw, _ = displaced_position(ue, 0.0, 1, 1.0, math.radians(90.0))
    p_cw, _ = displaced_position(ue, 0.0, -1, 1.0, math.radians(90.0))
    assert p_ccw.y < ue.y < p_cw.y
    assert p_ccw.x == pytest.approx(ue.x, abs=1e-12)


def test_bearing():
    assert bearing(Point2D(0, 0), Point2D(1, 1)) == pytest.approx(math.pi / 4)


# ---------------------------------------------------------------------------
# numeric area estimation


def test_numeric_blocked_area_requires_bbox():
    with pytest.raises(GeometryDomainError, match="bounded"):
        numeric_blocked_area(lambda p: np.ones(len(p), bool),
                             SegmentObstacle(Point2D(0, 0), Point2D(1, 0)),
                             10_000, origin=Point2D(5, 5))


def test_numeric_blocked_area_rejects_tiny_sample_counts():
    with pytest.raises(ValueError):
        numeric_blocked_area(lambda p: np.ones(len(p), bool),
                             SegmentObstacle(Point2D(0, 0), Point2D(1, 0)),
                             999, bbox=(0, 0, 1, 1), origin=Point2D(5, 5))


def test_numeric_blocked_area_segment_needs_origin():
    with pytest.raises(ValueError, match="origin"):
        numeric_blocked_area(lambda p: np.ones(len(p), bool),
                             SegmentObstacle(Point2D(0, 0), Point2D(1, 0)),
                             10_000, bbox=(0, 0, 1, 1))


def test_numeric_blocked_area_known_sector_area():
    # quarter-plane sector over the unit square around its corner
    sector = CircularSector(origin=Point2D(0.0, 0.0), radius=math.inf,
                            start_angle=0.0, sweep=math.pi / 2.0)
    est = numeric_blocked_area(lambda p: np.ones(len(p), bool), sector,
                               200_000, bbox=(-1.0, -1.0, 1.0, 1.0), seed=5)
    assert est.area == pytest.approx(1.0, abs=5 * est.stderr + 1e-3)


def test_numeric_blocked_area_deterministic_by_seed():
    seg = SegmentObstacle(Point2D(0.5, -1.0), Point2D(0.5, 1.0))
    kw = dict(bbox=(0.0, -1.0, 2.0, 1.0), origin=Point2D(2.5, 0.0), seed=42)
    pred = lambda p: np.ones(len(p), bool)
    a = numeric_blocked_area(pred, seg, 50_000, **kw)
    b = numeric_blocked_area(pred, seg, 50_000, **kw)
    assert a.area == b.area
    assert a.stderr == b.stderr


def test_visible_region_predicate_counts_frozen_region():
    # closed-form A1 of the static scene vs rejection sampling the predicate
    scene = _static_scene()
    g = MoveGeometry(2.0, 2.0, XI45)
    R = displaced_distance(g)
    l2, _ = displaced_position(scene.ue, scene.ris_direction,
                               scene.orientation, 2.0, XI45)
    pred, bbox = visible_region_predicate(scene.enb, scene.walls, scene.ue,
                                          l2, 2.0, R)
    rng = np.random.default_rng(99)
    n = 400_000
    pts = np.empty((n, 2))
    pts[:, 0] = rng.uniform(bbox[0], bbox[2], n)
    pts[:, 1] = rng.uniform(bbox[1], bbox[3], n)
    frac = np.count_nonzero(pred(pts)) / n
    box = (bbox[2] - bbox[0]) * (bbox[3] - bbox[1])
    se = box * math.sqrt(frac * (1 - frac) / n)
    assert frac * box == pytest.approx(10.228142693519818, abs=4 * se)


# ---------------------------------------------------------------------------
# exact shadowed areas (polar sweep)


def _displaced(scene, d_U, xi):
    g = MoveGeometry(scene.serving_ris_distance, d_U, xi)
    l2, heading = displaced_position(scene.ue, scene.ris_direction,
                                     scene.orientation, d_U, xi)
    return g, displaced_distance(g), l2, heading


@pytest.mark.parametrize("name", ["noobstacle", "obstacle", "selfblock"])
def test_shadowed_area_full_turn_equals_closed_form_A1(name):
    # a full-turn sector shadows the whole visible excess region
    scene = load_packaged(f"table3-static-{name}").scenario
    checked = 0
    for d_U in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0):
        for xi_deg in (10.0, 30.0, 45.0, 60.0, 90.0):
            g, R, l2, _ = _displaced(scene, d_U, math.radians(xi_deg))
            try:
                a1 = visible_excess_area_A1(scene, g)
            except GeometryDomainError:
                continue
            sector = CircularSector(l2, math.inf, 0.3, 2.0 * math.pi)
            area = shadowed_visible_area(scene.enb, scene.walls, scene.ue, l2,
                                         g.r, R, sector)
            assert area == pytest.approx(a1, rel=1e-9), (d_U, xi_deg)
            checked += 1
    assert checked >= 12


@pytest.mark.parametrize("d_U, xi_deg", [(2.0, 45.0), (1.4, 60.0),
                                          (1.8, 65.0), (3.0, 30.0)])
def test_shadowed_area_matches_rejection_oracle(d_U, xi_deg):
    obstacle = load_packaged("table3-static-obstacle").scenario
    selfblock = load_packaged("table3-static-selfblock").scenario
    g, R, l2, heading = _displaced(obstacle, d_U, math.radians(xi_deg))
    theta = selfblock.self_block.theta
    shadows = (obstacle.extra_obstacles[0],
               CircularSector(l2, math.inf, heading - 0.5 * theta, theta))
    pred, bbox = visible_region_predicate(obstacle.enb, obstacle.walls,
                                          obstacle.ue, l2, g.r, R)
    for extra in shadows:
        exact = shadowed_visible_area(obstacle.enb, obstacle.walls,
                                      obstacle.ue, l2, g.r, R, extra)
        assert exact == shadowed_visible_area(obstacle.enb, obstacle.walls,
                                              obstacle.ue, l2, g.r, R, extra)
        est = numeric_blocked_area(pred, extra, 2_000_000, bbox=bbox,
                                   origin=l2, seed=2024)
        assert est.area > 0.0
        assert abs(exact - est.area) <= 4.0 * est.stderr, (extra, exact, est)


def test_shadowed_area_rejects_unsupported_shadows():
    scene = _static_scene()
    g, R, l2, _ = _displaced(scene, 2.0, XI45)
    args = (scene.enb, scene.walls, scene.ue, l2, g.r, R)
    elsewhere = CircularSector(scene.ue, math.inf, 0.0, 1.0)
    with pytest.raises(GeometryDomainError, match="anchored"):
        shadowed_visible_area(*args, elsewhere)
    with pytest.raises(TypeError):
        shadowed_visible_area(*args, l2)
    assert shadowed_visible_area(*args[:-1], 0.0,
                                 scene.extra_obstacles[0]) == 0.0


# ---------------------------------------------------------------------------
# segment visibility


def test_segment_visibility_blocking_and_clear():
    wall = SegmentObstacle(Point2D(1.0, -1.0), Point2D(1.0, 1.0))
    assert segment_crosses(0.0, 0.0, 2.0, 0.0, wall)
    assert not segment_crosses(0.0, 0.0, 0.5, 0.5, wall)
    assert not segment_crosses(0.0, 2.0, 2.0, 2.0, wall)
    # touching an endpoint blocks; arrays broadcast against a scalar origin
    px = np.array([2.0, 0.5, 2.0, 1.0])
    py = np.array([0.0, 0.5, 3.0, 1.0])
    np.testing.assert_array_equal(segment_crosses(0.0, 0.0, px, py, wall),
                                  [True, False, False, True])
    np.testing.assert_array_equal(
        segment_crosses(np.array([0.0, 3.0]), 0.0, 2.0, 0.0, wall),
        [True, False])


def test_circular_sector_validation_and_membership():
    with pytest.raises(ValueError):
        CircularSector(Point2D(0, 0), 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        CircularSector(Point2D(0, 0), 1.0, 0.0, 7.0)
    s = CircularSector(Point2D(0, 0), 2.0, 0.0, math.pi / 2)
    pts = np.array([[1.0, 1.0], [1.0, -1.0], [3.0, 3.0]])
    np.testing.assert_array_equal(_sector_contains_many(s, pts),
                                  [True, False, False])


def test_blockage_wedge_validation():
    with pytest.raises(ValueError):
        BlockageWedge(Point2D(0, 0), -0.1, 0.2, 0.2, 1.0, 1.0)
    with pytest.raises(ValueError):
        BlockageWedge(Point2D(0, 0), 0.1, 0.2, 0.2, 0.0, 1.0)
    w = BlockageWedge(Point2D(0, 0), 0.1, 0.2, 0.3, 1.0, 1.0)
    assert w.width == pytest.approx(0.5)


def test_segment_obstacle_validation():
    with pytest.raises(ValueError):
        SegmentObstacle(Point2D(1.0, 2.0), Point2D(1.0, 2.0))
