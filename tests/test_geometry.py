"""Geometry kernel tests: frozen reference values, oracles, error contracts."""

import dataclasses
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
from risrates.geometry import (TWO_PI, _check_subtraction_valid,
                               _circle_circle, _clip, _div, _line_circle,
                               _line_line, _sector_contains_many,
                               segment_crosses, wedge_circle_area)

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


def _sampled_check_refuses(apex, start, width, l1, l2, r, R):
    """The earlier domain check, kept as a reference: it tests 2,048 equally
    spaced points of circle(L1, r) and refuses when an in-shadow one lies
    beyond R (with the same 1e-9 slack)."""
    t = np.linspace(0.0, 2.0 * math.pi, 2048, endpoint=False)
    px = l1.x + r * np.cos(t)
    py = l1.y + r * np.sin(t)
    ang = np.arctan2(py - apex.y, px - apex.x)
    inside = (ang - start) % (2.0 * math.pi) <= width
    if not inside.any():
        return False
    d2 = (px - l2.x) ** 2 + (py - l2.y) ** 2
    return float(d2[inside].max()) > R * R * (1.0 + 1e-9)


def _dense_worst_sq(apex, start, width, l1, l2, r):
    """Worst squared distance from L2 over the in-shadow part of circle(L1,
    r), by brute force: 2^16 circle points, the border rays' crossings with
    the circle, and a golden-section refinement around the best point."""
    def at(t):
        return l1.x + r * math.cos(t), l1.y + r * math.sin(t)

    def inside(x, y):
        ang = math.atan2(y - apex.y, x - apex.x)
        return (ang - start) % (2.0 * math.pi) <= width

    def d2(x, y):
        return (x - l2.x) ** 2 + (y - l2.y) ** 2

    n = 2 ** 16
    t = np.arange(n) * (2.0 * math.pi / n)
    px, py = l1.x + r * np.cos(t), l1.y + r * np.sin(t)
    ang = np.arctan2(py - apex.y, px - apex.x)
    ins = (ang - start) % (2.0 * math.pi) <= width
    points = []
    if ins.any():
        dd = np.where(ins, (px - l2.x) ** 2 + (py - l2.y) ** 2, -np.inf)
        best = float(t[int(np.argmax(dd))])
        points.append(at(best))
        lo, hi = best - 2.0 * math.pi / n, best + 2.0 * math.pi / n
        g = (math.sqrt(5.0) - 1.0) / 2.0
        for _ in range(80):
            a, b = hi - g * (hi - lo), lo + g * (hi - lo)
            if d2(*at(a)) < d2(*at(b)):
                lo = a
            else:
                hi = b
        points.append(at(0.5 * (lo + hi)))
    kept = [d2(x, y) for x, y in points if inside(x, y)]
    for ang in (start, start + width):
        # a crossing of a border ray is in the wedge's closure
        ux, uy = math.cos(ang), math.sin(ang)
        fx, fy = apex.x - l1.x, apex.y - l1.y
        half = fx * ux + fy * uy
        disc = half * half - (fx * fx + fy * fy - r * r)
        if disc >= 0.0:
            kept += [d2(apex.x + s * ux, apex.y + s * uy)
                     for s in (-half - math.sqrt(disc), -half + math.sqrt(disc))
                     if s >= 0.0]
    return max(kept) if kept else None


def _check_battery(n=200, seed=2027):
    """Seeded wall / user / move scenes: a wall seen from the base station at
    the origin, a user inside its shadow, and one displacement step."""
    rng = np.random.default_rng(seed)
    apex = Point2D(0.0, 0.0)
    for _ in range(n):
        centre, half = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.05, 0.4)
        reach = rng.uniform(1.0, 3.0)
        wall = SegmentObstacle(
            Point2D(reach * math.cos(centre - half), reach * math.sin(centre - half)),
            Point2D(reach * math.cos(centre + half), reach * math.sin(centre + half)))
        start, width = wall_shadow_interval(apex, wall)
        at, far = centre + 0.9 * rng.uniform(-half, half), reach + rng.uniform(1.0, 6.0)
        l1 = Point2D(far * math.cos(at), far * math.sin(at))
        g = MoveGeometry(rng.uniform(0.5, 3.0), rng.uniform(0.1, 3.0),
                         rng.uniform(0.0, 0.6))
        # the serving node off to one side, where it is often in sight
        side = int(rng.choice([-1, 1]))
        l2, _ = displaced_position(l1, at + side * rng.uniform(1.0, 2.1),
                                   side, g.d_U, g.xi)
        yield apex, start, width, l1, l2, g.r, displaced_distance(g)


def test_subtraction_check_worst_distance_is_exact():
    checked = 0
    for apex, start, width, l1, l2, r, _ in _check_battery():
        dense = _dense_worst_sq(apex, start, width, l1, l2, r)
        exact = _check_subtraction_valid(apex, start, width, l1, l2, r,
                                         math.inf)
        assert abs(exact - dense) <= 1e-12 * dense, (exact, dense)
        checked += 1
    assert checked == 200


def test_subtraction_check_refuses_what_sampling_refused():
    refused = accepted = 0
    for scene in _check_battery():
        try:
            _check_subtraction_valid(*scene)
        except GeometryDomainError:
            refused += 1
            continue
        assert not _sampled_check_refuses(*scene), scene
        accepted += 1
    assert refused >= 50 and accepted >= 50, (refused, accepted)


def test_subtraction_check_sees_between_the_old_sample_points():
    # a narrow wedge from an apex 3 away from L1 covers two short arcs of
    # circle(L1, 1), each between two of the 2,048 points the earlier check
    # tested; the near arc lies beyond R from L2, the far one within it
    l1 = Point2D(0.0, 0.0)
    mid = 100.5 * 2.0 * math.pi / 2048
    apex = Point2D(3.0 * math.cos(mid), 3.0 * math.sin(mid))
    half = math.pi / 2048 / 20.0
    start, width = mid + math.pi - half, 2.0 * half
    l2 = Point2D(-0.5 * math.cos(mid), -0.5 * math.sin(mid))
    args = (apex, start, width, l1, l2, 1.0, 1.2)
    assert not _sampled_check_refuses(*args)
    with pytest.raises(GeometryDomainError, match="exclusion circle"):
        _check_subtraction_valid(*args)
    assert _check_subtraction_valid(*args[:-1], 1.5) == pytest.approx(
        _dense_worst_sq(*args[:-1]), rel=1e-12)
    # turned a quarter, the wedge misses the circle: nothing to check
    assert _check_subtraction_valid(apex, start + 0.5 * math.pi, width,
                                    *args[3:]) is None


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
    # numpy's cos and sin broadcast over arrays of moves; they may round one
    # ulp away from math's, so the points agree within a few ulp
    ue = Point2D(10.0, 10.0)
    rng = np.random.default_rng(5)
    d_U, xi = rng.uniform(0.0, 5.0, 200), rng.uniform(0.0, math.pi, 200)
    for orientation in (1, -1):
        p, heading = displaced_position(ue, 0.7, orientation, d_U, xi, np)
        one = [displaced_position(ue, 0.7, orientation, d, x)
               for d, x in zip(d_U.tolist(), xi.tolist())]
        np.testing.assert_array_equal(heading, [h for _, h in one])
        np.testing.assert_array_max_ulp(p.x, [q.x for q, _ in one], 4)
        np.testing.assert_array_max_ulp(p.y, [q.y for q, _ in one], 4)


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


def _numpy_sweep(enb, walls, ue, displaced, r, R, extra):
    """shadowed_visible_area as it was before its pieces ran in plain
    floats, kept as a reference: the same cuts, then every piece evaluated
    at once in numpy arrays."""
    if R <= 0.0:
        return 0.0
    l2 = (displaced.x, displaced.y)
    l1 = (ue.x, ue.y)
    b = (enb.x, enb.y)
    lines = []  # (point, direction) of every straight boundary
    borders = []  # per wall: the wedge's start and end border directions
    for wall in walls:
        start, width = wall_shadow_interval(enb, wall)
        ds = (math.cos(start), math.sin(start))
        de = (math.cos(start + width), math.sin(start + width))
        borders.append((ds, de))
        lines += [(b, ds), (b, de)]
    cap = R
    points = [b]
    if isinstance(extra, SegmentObstacle):
        span_start, span = wall_shadow_interval(displaced, extra)
        seg_a = (extra.a.x, extra.a.y)
        seg_e = (extra.b.x - extra.a.x, extra.b.y - extra.a.y)
        lines.append((seg_a, seg_e))
        points += [seg_a, (extra.b.x, extra.b.y)]
    elif isinstance(extra, CircularSector):
        if extra.origin != displaced:
            raise GeometryDomainError(
                "a shadow sector must be anchored at the displaced position")
        span_start, span = extra.start_angle, extra.sweep
        cap = min(R, extra.radius)
    else:
        raise TypeError(f"unsupported shadow source: {type(extra).__name__}")

    circles = ((l2, cap), (l1, r))
    points += _circle_circle(l2, cap, l1, r)
    for i, (p, d) in enumerate(lines):
        for q, e in lines[i + 1:]:
            points += _line_line(p, d, q, e)
        for c, rho in circles:
            points += _line_circle(p, d, c, rho)
    breaks = [bearing(displaced, Point2D(*pt)) for pt in points]
    along = [math.atan2(d[1], d[0]) for _, d in lines]
    breaks += along + [a + math.pi for a in along]
    wx, wy = l2[0] - l1[0], l2[1] - l1[1]
    d_u = math.hypot(wx, wy)
    if d_u > 0.0:
        # toward L1 the coverage circle can touch circle(L1, r) without
        # crossing it, where a middle ray would see the two tied; and from
        # outside circle(L1, r) only the rays between its tangents meet it
        toward = bearing(displaced, ue)
        breaks.append(toward)
        if r <= d_u:
            half = math.asin(r / d_u)
            breaks += [toward - half, toward + half]
    cuts = {0.0, span}
    cuts.update(o for o in ((a - span_start) % TWO_PI for a in breaks)
                if 0.0 < o < span)
    ends = span_start + np.array(sorted(cuts))
    phi = 0.5 * (ends[1:] + ends[:-1])
    ux, uy = np.cos(phi), np.sin(phi)

    # Every boundary's radius along the middle ray of each piece, and its
    # antiderivative of rho^2/2 at the piece ends: 0 for the origin, the
    # cap circle's sector, the exclusion circle's roots -proj -/+ sqrt(disc)
    # with r*sin(theta) = d_u*sin(psi), and each line's -h^2*cot/2.
    proj = wx * ux + wy * uy
    disc = proj * proj - (wx * wx + wy * wy - r * r)
    root = np.sqrt(np.where(disc >= 0.0, disc, np.nan))
    radii = [np.zeros_like(phi), np.full_like(phi, cap),
             -proj - root, -proj + root]
    psi = ends - bearing(ue, displaced)
    theta = np.arcsin(np.clip(d_u * np.sin(psi) / r, -1.0, 1.0))
    common = 0.5 * r * r * psi + 0.25 * d_u * d_u * np.sin(2.0 * psi)
    split = 0.5 * r * r * (theta + 0.5 * np.sin(2.0 * theta))
    prims = [np.zeros_like(ends), 0.5 * cap * cap * ends,
             common + split, common - split]
    with np.errstate(divide="ignore", invalid="ignore"):
        for (p, d), alpha in zip(lines, along):
            # cross(d, l2 - p + t u) = 0
            c0 = d[0] * (l2[1] - p[1]) - d[1] * (l2[0] - p[0])
            radii.append(-c0 / (d[0] * uy - d[1] * ux))
            # the antiderivative stays within |h|*cap/2 while the line is
            # inside the cap circle; a line through L2 meets that circle
            # within roundoff of its pole
            h = c0 / math.hypot(*d)
            top = 0.5 * abs(h) * cap
            prims.append(np.clip(-0.5 * h * h / np.tan(ends - alpha),
                                 -top, top))
        rise = np.diff(np.stack(prims, axis=1), axis=0)
    v = np.stack(radii, axis=1)
    # column 1 is the cap circle
    rise = np.where((v > 0.0) & (v < cap), rise,
                    np.where(v >= cap, rise[:, 1:2], 0.0))
    t = np.clip(np.nan_to_num(v, nan=0.0, posinf=cap, neginf=0.0), 0.0, cap)
    order = np.argsort(t, axis=1)
    t = np.take_along_axis(t, order, axis=1)
    rise = np.take_along_axis(rise, order, axis=1)

    mid = 0.5 * (t[:, 1:] + t[:, :-1])
    px = l2[0] + mid * ux[:, None]
    py = l2[1] + mid * uy[:, None]
    keep = (px - l1[0]) ** 2 + (py - l1[1]) ** 2 >= r * r
    vx, vy = px - b[0], py - b[1]
    for ds, de in borders:
        keep &= ~((ds[0] * vy - ds[1] * vx >= 0.0)
                  & (vx * de[1] - vy * de[0] >= 0.0))
    if isinstance(extra, SegmentObstacle):
        # the sight line from L2 meets the obstacle at radii[-1]
        keep &= mid >= radii[-1][:, None]
    return float(np.where(keep, rise[:, 1:] - rise[:, :-1], 0.0).sum())


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


@pytest.mark.parametrize("name", ["noobstacle", "obstacle", "selfblock"])
def test_shadowed_area_is_additive_over_sectors(name):
    # seven equal sectors tile the full turn, so their areas must sum to it
    # up to roundoff, wherever the sector borders fall among the tangents,
    # poles and crossings of the boundaries
    scene = load_packaged(f"table3-static-{name}").scenario
    parts = [2.0 * math.pi * k / 7.0 for k in range(8)]
    for d_U in (0.25 * k for k in range(1, 15)):
        for xi_deg in range(0, 181, 15):
            g, R, l2, _ = _displaced(scene, d_U, math.radians(xi_deg))
            args = (scene.enb, scene.walls, scene.ue, l2, g.r, R)
            full = shadowed_visible_area(
                *args, CircularSector(l2, math.inf, 0.0, 2.0 * math.pi))
            pieces = sum(shadowed_visible_area(
                *args, CircularSector(l2, math.inf, a, b - a))
                for a, b in zip(parts, parts[1:]))
            assert abs(full - pieces) <= 1e-12 * R * R, (d_U, xi_deg)


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


@pytest.mark.parametrize("name", ["static-obstacle", "static-selfblock",
                                  "uniform-obstacle", "uniform-selfblock"])
def test_float_sweep_matches_numpy_reference(name):
    # every bite shadow of the room, over its whole (d_U, xi) range
    scene = load_packaged(f"table3-{name}").scenario
    checked = 0
    for d_U in np.linspace(0.1, 3.5, 18):
        for xi_deg in range(0, 181, 10):
            g, R, l2, heading = _displaced(scene, float(d_U),
                                           math.radians(xi_deg))
            args = (scene.enb, scene.walls, scene.ue, l2, g.r, R)
            shadows = list(scene.extra_obstacles)
            if scene.self_block is not None:
                theta = scene.self_block.theta
                shadows.append(CircularSector(l2, math.inf,
                                              heading - 0.5 * theta, theta))
            for extra in shadows:
                new = shadowed_visible_area(*args, extra)
                ref = _numpy_sweep(*args, extra)
                assert abs(new - ref) <= 1e-12 * R * R, (d_U, xi_deg, extra)
                checked += 1
    assert checked >= 18 * 19


def test_float_sweep_helpers_give_numpy_ieee_results():
    # the sweep's plain-float division and clip stand in for numpy's, so
    # they must give what numpy gives where Python would raise; repr tells
    # NaN, the infinities and the signed zeros apart
    values = [0.0, -0.0, 1.5, -2.0, math.inf, -math.inf, math.nan]
    with np.errstate(divide="ignore", invalid="ignore"):
        for a in values:
            for b in values:
                assert repr(_div(a, b)) == repr(float(np.divide(a, b)))
            for top in (0.0, 1.0, math.inf):
                assert repr(_clip(a, top)) == repr(float(np.clip(a, -top, top)))


def _degenerate_scene(name):
    """(scene, d_U, xi, sector start) on table3-static-noobstacle's room,
    built so that two sweep boundaries meet where a middle ray could tie
    them."""
    base = load_packaged("table3-static-noobstacle").scenario
    if name == "wall-border-through-L2":
        # the wall starts at L2, so its shadow's first border ray holds L2
        d_U, xi = 2.0, math.radians(30.0)
        _, _, l2, _ = _displaced(base, d_U, xi)
        top = bearing(base.enb, base.ue) + 0.2
        far = Point2D(base.enb.x + 5.0 * math.cos(top),
                      base.enb.y + 5.0 * math.sin(top))
        walled = dataclasses.replace(base, walls=(SegmentObstacle(l2, far),))
        return walled, d_U, xi, 0.3
    if name == "sector-border-on-tangent":
        # sectors start on a tangent from L2 to the exclusion circle
        d_U, xi = 2.5, math.radians(30.0)
        g, _, l2, _ = _displaced(base, d_U, xi)
        tangent = (bearing(l2, base.ue)
                   + math.asin(g.r / math.hypot(l2.x - base.ue.x,
                                                l2.y - base.ue.y)))
        return base, d_U, xi, tangent
    # xi = 0: the coverage circle touches the exclusion circle, R = d_U + r
    return base, 2.75, 0.0, 0.3


@pytest.mark.parametrize("name", ["wall-border-through-L2",
                                  "sector-border-on-tangent", "circles-touch"])
def test_float_sweep_on_degenerate_scenes(name):
    scene, d_U, xi, start = _degenerate_scene(name)
    g, R, l2, _ = _displaced(scene, d_U, xi)
    args = (scene.enb, scene.walls, scene.ue, l2, g.r, R)
    turn = CircularSector(l2, math.inf, start, 2.0 * math.pi)
    full = shadowed_visible_area(*args, turn)
    parts = [start + 2.0 * math.pi * k / 7.0 for k in range(8)]
    pieces = sum(shadowed_visible_area(
        *args, CircularSector(l2, math.inf, a, b - a))
        for a, b in zip(parts, parts[1:]))
    assert abs(full - pieces) <= 1e-12 * R * R
    assert full == pytest.approx(visible_excess_area_A1(scene, g), rel=1e-9)
    assert abs(full - _numpy_sweep(*args, turn)) <= 1e-12 * R * R


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
    # floats, a scalar origin with array ends and array origins give one
    # verdict: touching the wall inside and at an end, collinear overlap,
    # collinear and apart (conservatively True), then random segments
    rng = np.random.default_rng(3)
    ox = np.concatenate(([0.0, 0.0, 1.0, 1.0], rng.uniform(-1.0, 3.0, 60)))
    oy = np.concatenate(([0.0, 1.0, -2.0, 2.0], rng.uniform(-2.0, 2.0, 60)))
    px = np.concatenate(([1.0, 2.0, 1.0, 1.0], rng.uniform(-1.0, 3.0, 60)))
    py = np.concatenate(([0.5, 1.0, 0.0, 3.0], rng.uniform(-2.0, 2.0, 60)))
    ends = list(zip(px.tolist(), py.tolist()))
    verdicts = []
    for x, y in zip(ox.tolist(), oy.tolist()):
        row = [segment_crosses(x, y, ex, ey, wall) for ex, ey in ends]
        assert all(type(v) is bool for v in row)
        np.testing.assert_array_equal(segment_crosses(x, y, px, py, wall),
                                      row)
        verdicts.append(row)
    assert [verdicts[i][i] for i in range(4)] == [True] * 4
    assert 0 < np.count_nonzero(verdicts) < len(ox) * len(px)
    np.testing.assert_array_equal(
        segment_crosses(ox[:, None], oy[:, None], px, py, wall), verdicts)


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
