"""Planar geometry kernel: displacement, coverage-overlap areas, wall shadows.

Everything here works in one canonical unit system: meters, radians, square
meters. The movement-angle convention used throughout the package: an angle
of 0 means the user moves directly away from its serving node, pi means
directly toward it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

if TYPE_CHECKING:
    import numpy as np


def _logger():
    """This module's logger, "risrates.geometry". logging is imported only
    when a record is made, so a call that makes none does not load it."""
    import logging
    return logging.getLogger(__name__)


TWO_PI = 2.0 * math.pi

# Inverse-trig arguments may drift past [-1, 1] by roundoff; anything beyond
# this tolerance is a logic error, not noise.
_TRIG_TOL = 1e-12
# Relative margin below which a ray/circle contact counts as tangent.
_TANGENT_RTOL = 1e-9


class GeometryDomainError(ValueError):
    """Inputs left the domain where the closed-form areas are valid."""


class DegenerateIntersectionError(GeometryDomainError):
    """Numerically tangent wedge/circle contact; the case split is unstable."""


class BlockedRegionError(GeometryDomainError):
    """The user or its displaced position is outside the wall shadow."""


@dataclass(frozen=True)
class Point2D:
    x: float
    y: float

    def distance_to(self, other: "Point2D") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


@dataclass(frozen=True)
class SegmentObstacle:
    """A wall or obstacle modeled as a line segment with two endpoints."""

    a: Point2D
    b: Point2D

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise ValueError("obstacle endpoints must be distinct")


@dataclass(frozen=True)
class CircularSector:
    """Disc sector spanning `sweep` radians counterclockwise from `start_angle`.

    radius may be math.inf for an unbounded (angular-only) sector.
    """

    origin: Point2D
    radius: float
    start_angle: float
    sweep: float

    def __post_init__(self) -> None:
        if not self.radius > 0.0:
            raise ValueError("sector radius must be positive (math.inf allowed)")
        if not 0.0 <= self.sweep <= TWO_PI:
            raise ValueError("sector sweep must lie in [0, 2*pi]")


@dataclass(frozen=True)
class MoveGeometry:
    """One displacement step: serving-node distance r, speed d_U, angle xi."""

    r: float
    d_U: float
    xi: float

    def __post_init__(self) -> None:
        if not self.r > 0.0:
            raise ValueError("serving-node distance r must be positive")
        if not self.d_U >= 0.0:  # NaN fails too
            raise ValueError("displacement d_U must be nonnegative")
        if not 0.0 <= self.xi <= math.pi:
            raise ValueError("movement angle xi must lie in [0, pi]")


@dataclass(frozen=True)
class BlockageWedge:
    """Wall-shadow wedge seen from the apex (the base station).

    Angles are offsets, not absolute bearings. alpha3 and alpha4 are the
    angles from the apex->L2 direction (L2 = displaced user) to the two wedge
    border rays, one on each side, so the full angular width is
    alpha3 + alpha4. alpha1 is the angle from the apex->L1 direction (L1 =
    original user position) to the same border ray alpha3 is measured
    against; L1's offset to the other ray is (alpha3 + alpha4) - alpha1.
    d_BU1 and d_BU2 are the apex distances to L1 and L2.
    """

    apex: Point2D
    alpha1: float
    alpha3: float
    alpha4: float
    d_BU1: float
    d_BU2: float

    def __post_init__(self) -> None:
        for name in ("alpha1", "alpha3", "alpha4"):
            v = getattr(self, name)
            if not 0.0 <= v < math.pi:
                raise ValueError(f"{name} must lie in [0, pi)")
        if not (self.d_BU1 > 0.0 and self.d_BU2 > 0.0):
            raise ValueError("apex distances must be positive")

    @property
    def width(self) -> float:
        return self.alpha3 + self.alpha4


def _clamped_unit(x: float, what: str) -> float:
    """Clamp an inverse-trig argument to [-1, 1], raising beyond tolerance."""
    if x > 1.0:
        if x > 1.0 + _TRIG_TOL:
            raise GeometryDomainError(f"{what} = {x!r} exceeds 1 beyond tolerance")
        return 1.0
    if x < -1.0:
        if x < -(1.0 + _TRIG_TOL):
            raise GeometryDomainError(f"{what} = {x!r} is below -1 beyond tolerance")
        return -1.0
    return x


def bearing(p: Point2D, q: Point2D) -> float:
    """Angle of the direction p -> q."""
    return math.atan2(q.y - p.y, q.x - p.x)


def displaced_distance_sq(r, d_U, xi, xp=None):
    """Squared distance from the serving node (r away) to the user after a
    displacement d_U at movement angle xi, in the numeric namespace xp:
    None reads this module's math when called, and xp=np broadcasts over
    arrays of d_U and xi.

    Law of cosines in the triangle (node, start, end); the angle at the start
    position is pi - xi because xi = 0 points directly away from the node.
    Near zero, roundoff can leave the result slightly negative.
    """
    xp = math if xp is None else xp
    return r * r + d_U * d_U - 2.0 * r * d_U * xp.cos(xp.pi - xi)


def displaced_distance(g: MoveGeometry) -> float:
    """Distance from the serving node to the user after one displacement."""
    return math.sqrt(max(displaced_distance_sq(g.r, g.d_U, g.xi), 0.0))


def excess_area(g: MoveGeometry) -> float:
    """Area newly within reach after the move: inside circle(L2, R), outside
    circle(L1, r), where R = displaced_distance(g).

    The closed form is exact for every xi in [0, pi] and d_U >= 0 once the
    obtuse branch of the asin term is taken (the serving node lies on both
    circle boundaries, so the circles always properly intersect).
    """
    if g.d_U == 0.0:
        return 0.0
    R = displaced_distance(g)
    if R == 0.0:
        return 0.0
    arg = _clamped_unit(g.d_U * math.sin(g.xi) / R, "excess-area asin argument")
    sigma = math.asin(arg)
    if g.r + g.d_U * math.cos(g.xi) < 0.0:
        # The angle subtended at L2 is obtuse; asin alone folds it back.
        sigma = math.pi - sigma
    area = (math.pi * R * R
            - R * R * (g.xi - sigma)
            - g.r * g.r * (math.pi - g.xi)
            + g.r * g.d_U * math.sin(g.xi))
    if area < 0.0:
        if area < -1e-9 * max(math.pi * R * R, 1.0):
            _logger().warning(
                "excess area clamped to 0 from %.6g (R=%.6g, r=%.6g)",
                area, R, g.r)
        area = 0.0
    return area


def wedge_circle_area(rho: float, apex_dist: float,
                      off_a: float, off_b: float) -> float:
    """Area of disk(C, rho) intersected with an infinite wedge.

    The wedge apex sits at distance apex_dist from the disk center C, with C
    inside the wedge: off_a and off_b are the nonnegative angles from the
    apex->C direction to the two border rays, so the width is off_a + off_b.
    The result is the full disk minus a circular cap behind each border ray
    that actually cuts the disk; the caps are disjoint whenever the apex lies
    outside the disk and the width is at most pi, which is required here.
    """
    if rho == 0.0:
        return 0.0
    if rho < 0.0:
        raise GeometryDomainError("disk radius must be nonnegative")
    if off_a < 0.0 or off_b < 0.0:
        raise GeometryDomainError(
            "disk center must lie inside the wedge (ray offsets nonnegative)")
    sweep = off_a + off_b
    if sweep == 0.0:
        return 0.0
    if sweep > math.pi:
        raise GeometryDomainError("wedge wider than a half-plane is unsupported")
    if abs(apex_dist - rho) <= _TANGENT_RTOL * max(rho, 1.0):
        raise DegenerateIntersectionError("wedge apex numerically on the circle")
    if apex_dist < rho:
        raise GeometryDomainError("wedge apex inside the disk is unsupported")

    area = math.pi * rho * rho
    for off in (off_a, off_b):
        if off >= math.pi / 2.0:
            continue  # the perpendicular foot falls behind the apex
        h = apex_dist * math.sin(off)
        if abs(h - rho) <= _TANGENT_RTOL * max(rho, 1.0):
            raise DegenerateIntersectionError(
                "wedge border ray numerically tangent to the circle")
        if h < rho:
            phi = math.acos(_clamped_unit(h / rho, "cap half-angle cosine"))
            area -= rho * rho * (phi - math.sin(phi) * math.cos(phi))
    return area


def blocked_candidate_area(w: BlockageWedge, r: float, R: float) -> float:
    """Area of the wall shadow that would otherwise hold new candidates.

    Computed as (wedge inside the displaced coverage disk of radius R) minus
    (wedge inside the serving exclusion disk of radius r). The subtraction is
    only meaningful when the exclusion disk's in-wedge part sits inside the
    coverage disk; visible_excess_area_A1 verifies that before calling.
    """
    if r <= 0.0:
        raise GeometryDomainError("exclusion radius r must be positive")
    if R < 0.0:
        raise GeometryDomainError("coverage radius R must be nonnegative")
    sweep = w.width
    if sweep == 0.0:
        _logger().info(
            "degenerate-intersection: collapsed wedge misses both circles")
        return 0.0
    if w.alpha1 > sweep:
        raise GeometryDomainError(
            "alpha1 exceeds the wedge width: the user direction is outside the wedge")
    outer = 0.0 if R == 0.0 else wedge_circle_area(R, w.d_BU2, w.alpha3, w.alpha4)
    inner = wedge_circle_area(r, w.d_BU1, w.alpha1, sweep - w.alpha1)
    blocked = outer - inner
    if blocked < 0.0:
        if blocked < -1e-9 * max(outer, 1.0):
            _logger().warning(
                "blocked area clamped to 0 (inner %.6g > outer %.6g)",
                inner, outer)
        blocked = 0.0
    return blocked


def wall_shadow_interval(apex: Point2D, wall: SegmentObstacle) -> tuple[float, float]:
    """(start, width) of the ccw angular interval the wall subtends at apex."""
    ta = bearing(apex, wall.a)
    tb = bearing(apex, wall.b)
    width = (tb - ta) % TWO_PI
    if width == 0.0 or abs(width - math.pi) < 1e-15:
        raise GeometryDomainError("apex is collinear with the wall segment")
    if width <= math.pi:
        return ta, width
    return tb, TWO_PI - width


# a wall's shadow at an apex: unit border directions u1 and u2, then width
WallWedge = tuple[float, float, float, float, float]


def wall_shadow_wedges(apex: Point2D, walls: Sequence[SegmentObstacle]
                       ) -> tuple[WallWedge, ...]:
    """Each wall's shadow at apex as (u1x, u1y, u2x, u2y, width): the closed
    wedge swept counterclockwise from border u1 to border u2."""
    wedges = []
    for wall in walls:
        start, width = wall_shadow_interval(apex, wall)
        wedges.append((math.cos(start), math.sin(start),
                       math.cos(start + width), math.sin(start + width), width))
    return tuple(wedges)


def angular_offset(start: float, direction: float) -> float:
    """Counterclockwise offset of `direction` from `start`, in [0, 2*pi)."""
    return (direction - start) % TWO_PI


def displaced_position(ue: Point2D, ris_direction: float, orientation: int,
                       d_U, xi, xp=None) -> tuple[Point2D, float]:
    """Position after one displacement step, plus the absolute heading.

    ris_direction is the bearing from the user to its serving node; xi = 0
    moves directly away from it, and orientation (+1 ccw, -1 cw) picks which
    side of the away direction the angle opens toward. xp is the numeric
    namespace, as in displaced_distance_sq: with xp=np it broadcasts over
    arrays of d_U and xi, and the point holds arrays.
    """
    xp = math if xp is None else xp
    heading = ris_direction + xp.pi + orientation * xi
    return Point2D(ue.x + d_U * xp.cos(heading),
                   ue.y + d_U * xp.sin(heading)), heading


def wedge_from_wall(apex: Point2D, wall: SegmentObstacle,
                    l1: Point2D, l2: Point2D) -> BlockageWedge:
    """Build the shadow wedge of a wall, anchored on the user positions.

    Raises BlockedRegionError if either position is outside the shadow; the
    visible-area model only applies while both stay shadowed.
    """
    start, width = wall_shadow_interval(apex, wall)
    off1 = angular_offset(start, bearing(apex, l1))
    off2 = angular_offset(start, bearing(apex, l2))
    if off1 > width:
        raise BlockedRegionError("user position is outside the wall shadow")
    if off2 > width:
        raise BlockedRegionError("displaced position left the wall shadow")
    return BlockageWedge(apex=apex, alpha1=off1, alpha3=off2,
                         alpha4=width - off2,
                         d_BU1=apex.distance_to(l1),
                         d_BU2=apex.distance_to(l2))


def _check_subtraction_valid(apex: Point2D, start: float, width: float,
                             l1: Point2D, l2: Point2D,
                             r: float, R: float) -> float | None:
    """The in-shadow part of circle(L1, r) must sit inside disk(L2, R).

    That part is the set of circle points whose bearing from the apex lies
    in the wedge [start, start + width]. The squared distance to L2 is a
    cosine of the angle around the circle, so its maximum over the
    in-shadow arcs is exact: the circle point facing away from L2 when that
    point is in the wedge, else an arc end, where a border ray crosses the
    circle. No candidate means the circle has no in-shadow part. Returns
    that maximum, or None when there is no such part.
    """
    wx, wy = l1.x - l2.x, l1.y - l2.y
    d_u = math.hypot(wx, wy)
    ux, uy = (wx / d_u, wy / d_u) if d_u > 0.0 else (1.0, 0.0)
    far = (l1.x + r * ux, l1.y + r * uy)
    candidates = []
    if (math.atan2(far[1] - apex.y, far[0] - apex.x) - start) % TWO_PI <= width:
        candidates.append(far)
    a = (apex.x, apex.y)
    for ang in (start, start + width):
        d = (math.cos(ang), math.sin(ang))
        candidates += [p for p in _line_circle(a, d, (l1.x, l1.y), r)
                       if (p[0] - a[0]) * d[0] + (p[1] - a[1]) * d[1] >= 0.0]
    if not candidates:
        return None
    worst = max((x - l2.x) ** 2 + (y - l2.y) ** 2 for x, y in candidates)
    if worst > R * R * (1.0 + 1e-9):
        raise GeometryDomainError(
            "exclusion circle leaves the displaced coverage disk inside the "
            "wall shadow; the area subtraction does not apply "
            f"(worst distance {math.sqrt(worst):.6g} > R {R:.6g})")
    return worst


def visible_excess_area_A1(scene, g: MoveGeometry) -> float:
    """Excess area still visible past the wall shadows (the closed-form A1).

    `scene` is a known-room scenario (see risrates.scenarios.ScenarioKnown);
    only its enb, walls, ue, ris_direction and orientation fields are used.
    """
    a_e = excess_area(g)
    if a_e == 0.0:
        return 0.0
    R = displaced_distance(g)
    l1 = scene.ue
    l2, _ = displaced_position(l1, scene.ris_direction, scene.orientation,
                               g.d_U, g.xi)
    blocked = 0.0
    for wall in scene.walls:
        start, width = wall_shadow_interval(scene.enb, wall)
        wedge = wedge_from_wall(scene.enb, wall, l1, l2)
        _check_subtraction_valid(scene.enb, start, width, l1, l2, g.r, R)
        blocked += blocked_candidate_area(wedge, g.r, R)
    a1 = a_e - blocked
    if a1 < 0.0:
        a1 = 0.0
    return min(a1, a_e)


# ---------------------------------------------------------------------------
# Exact shadowed areas (polar sweep)


def _line_line(p, d, q, e) -> list[tuple[float, float]]:
    """Crossing of the lines p + s*d and q + t*e (none when parallel)."""
    den = d[0] * e[1] - d[1] * e[0]
    if den == 0.0:
        return []
    s = ((q[0] - p[0]) * e[1] - (q[1] - p[1]) * e[0]) / den
    return [(p[0] + s * d[0], p[1] + s * d[1])]


def _line_circle(p, d, c, rho) -> list[tuple[float, float]]:
    """Crossings of the line p + s*d with the circle (c, rho)."""
    fx, fy = p[0] - c[0], p[1] - c[1]
    a = d[0] * d[0] + d[1] * d[1]
    b = fx * d[0] + fy * d[1]
    disc = b * b - a * (fx * fx + fy * fy - rho * rho)
    if disc < 0.0:
        return []
    sq = math.sqrt(disc)
    return [(p[0] + s * d[0], p[1] + s * d[1])
            for s in ((-b - sq) / a, (-b + sq) / a)]


def _circle_circle(c0, r0, c1, r1) -> list[tuple[float, float]]:
    """Crossings of the circles (c0, r0) and (c1, r1)."""
    dx, dy = c1[0] - c0[0], c1[1] - c0[1]
    dist = math.hypot(dx, dy)
    if dist == 0.0 or dist > r0 + r1 or dist < abs(r0 - r1):
        return []
    a = (r0 * r0 - r1 * r1 + dist * dist) / (2.0 * dist)
    h = math.sqrt(max(r0 * r0 - a * a, 0.0))
    mx, my = c0[0] + a * dx / dist, c0[1] + a * dy / dist
    return [(mx - h * dy / dist, my + h * dx / dist),
            (mx + h * dy / dist, my - h * dx / dist)]


def shadowed_visible_area(enb: Point2D, walls: Sequence[SegmentObstacle],
                          ue: Point2D, displaced: Point2D, r: float, R: float,
                          extra) -> float:
    """Exact area of (visible excess region ∩ shadow(extra)).

    The region is the one visible_region_predicate(enb, walls, ue, displaced,
    r, R) tests, and the shadow has numeric_blocked_area's meaning with
    origin=displaced: a SegmentObstacle hides every point whose sight
    segment from `displaced` crosses it; a CircularSector must be anchored
    at `displaced` (its radius is honoured).

    Polar sweep around L2 = displaced: every boundary cuts the ray at angle
    phi at one radius in closed form (the coverage circle, the exclusion
    circle's two roots, each wall wedge's two border lines through the base
    station, the obstacle's line), so the area is the integral over phi of
    the sum of (b^2 - a^2)/2 over the ray's in-region intervals [a, b]. The
    sweep is cut at the directions of the region's vertices (segment
    endpoints, the base station, every pairwise crossing of the boundary
    lines and circles), of each line's two parallel directions, and of the
    exclusion circle's tangents and centre. Between two cuts every boundary
    keeps its rank along the ray, so one ray through the piece's middle
    classifies the intervals, and each kept interval adds the difference of
    its two boundaries' antiderivatives of rho^2/2 across the piece. A
    boundary behind L2 (or missing the ray) counts as radius 0, and one at
    or past the coverage circle as that circle.

    The pieces run in plain floats, and each piece end's antiderivatives
    serve both pieces that meet there. Where Python would raise, the
    arithmetic keeps IEEE results: x/0 is +-inf and 0/0 NaN (a ray parallel
    to a line, or a line through L2 at its pole), a NaN radius counts as 0,
    and a NaN compares False.
    """
    if R <= 0.0:
        return 0.0
    l2 = (displaced.x, displaced.y)
    l1 = (ue.x, ue.y)
    bx, by = enb.x, enb.y
    b = (bx, by)
    borders = wall_shadow_wedges(enb, walls)
    lines = []  # (point, direction) of every straight boundary
    for u1x, u1y, u2x, u2y, _ in borders:
        lines += [(b, (u1x, u1y)), (b, (u2x, u2y))]
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
    breaks = [math.atan2(y - l2[1], x - l2[0]) for x, y in points]
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
    ends = [span_start + o for o in sorted(cuts)]
    away = bearing(ue, displaced)
    segment = isinstance(extra, SegmentObstacle)
    heads = []  # per line: direction, c0, -h^2/2, the bound |h|*cap/2, alpha
    for (p, d), alpha in zip(lines, along):
        # cross(d, l2 - p + t u) = 0
        c0 = d[0] * (l2[1] - p[1]) - d[1] * (l2[0] - p[0])
        h = c0 / math.hypot(*d)
        heads.append((d, c0, -0.5 * h * h, 0.5 * abs(h) * cap, alpha))

    def prims(e):
        # each boundary's antiderivative of rho^2/2 at the piece end e: the
        # cap circle's sector, the exclusion circle's roots -proj -/+
        # sqrt(disc) with r*sin(theta) = d_u*sin(psi), and each line's
        # -h^2*cot/2, held within |h|*cap/2 while the line is inside the cap
        # circle (a line through L2 meets that circle within roundoff of its
        # pole). The origin's is 0.
        psi = e - away
        theta = math.asin(_clip(_div(d_u * math.sin(psi), r), 1.0))
        common = 0.5 * r * r * psi + 0.25 * d_u * d_u * math.sin(2.0 * psi)
        split = 0.5 * r * r * (theta + 0.5 * math.sin(2.0 * theta))
        return [0.5 * cap * cap * e, common + split, common - split] + [
            _clip(_div(q, math.tan(e - alpha)), top)
            for _, _, q, top, alpha in heads]

    total = 0.0
    lo = prims(ends[0])
    for e0, e1 in zip(ends, ends[1:]):
        hi = prims(e1)
        rise = [y - x for x, y in zip(lo, hi)]
        lo = hi
        phi = 0.5 * (e1 + e0)
        ux, uy = math.cos(phi), math.sin(phi)
        # every boundary's radius along the middle ray: the exclusion
        # circle's roots (NaN where the ray misses it), then each line's
        proj = wx * ux + wy * uy
        disc = proj * proj - (wx * wx + wy * wy - r * r)
        root = math.sqrt(disc) if disc >= 0.0 else math.nan
        radii = [-proj - root, -proj + root] + [
            _div(-c0, d[0] * uy - d[1] * ux) for d, c0, _, _, _ in heads]
        # a boundary behind L2 (or missing the ray) sits at 0 and adds 0;
        # one at or past the cap circle merges with it
        bounds = sorted(((v, dv) for v, dv in zip(radii, rise[1:])
                         if 0.0 < v < cap), key=lambda vd: vd[0])
        bounds = [(0.0, 0.0)] + bounds + [(cap, rise[0])]
        for (t0, r0), (t1, r1) in zip(bounds, bounds[1:]):
            mid = 0.5 * (t1 + t0)
            px, py = l2[0] + mid * ux, l2[1] + mid * uy
            ex, ey = px - l1[0], py - l1[1]
            vx, vy = px - bx, py - by
            if (ex * ex + ey * ey >= r * r
                    and not any(u1x * vy - u1y * vx >= 0.0
                                and vx * u2y - vy * u2x >= 0.0
                                for u1x, u1y, u2x, u2y, _ in borders)
                    # the sight line from L2 meets the obstacle at radii[-1]
                    and (not segment or mid >= radii[-1])):
                total += r1 - r0
    return total


def _div(a: float, b: float) -> float:
    """a / b with IEEE results where Python raises: x/0 is +-inf, 0/0 NaN."""
    if b:
        return a / b
    if a != a or a == 0.0:
        return math.nan
    return math.copysign(math.inf, a) * math.copysign(1.0, b)


def _clip(x: float, top: float) -> float:
    """x held to [-top, top]. NaN stays NaN: max and min return their first
    argument when no comparison holds."""
    return min(max(x, -top), top)


# ---------------------------------------------------------------------------
# Sight-line test and numeric (rejection-sampling) areas


def segment_crosses(ox, oy, px, py, seg: SegmentObstacle):
    """Does the segment from (ox, oy) to (px, py) meet seg? Broadcasts over
    arrays of either end; floats give a bool.

    Inclusive test by orientation signs: touching counts as crossing, and
    segments on one line give True, overlapping or not ((1, 2)-(1, 3)
    against (1, -1)-(1, 1) does). The exact polar sweep counts such a point
    as visible; uniform draws hit the case with probability zero.
    """
    ax, ay, bx, by = seg.a.x, seg.a.y, seg.b.x, seg.b.y
    # d1, d2: the sides of seg's line the two ends lie on
    d1 = (bx - ax) * (oy - ay) - (by - ay) * (ox - ax)
    d2 = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
    # d3, d4: the sides of the segment's line seg's two ends lie on
    ux, uy = px - ox, py - oy
    d3 = ux * (ay - oy) - uy * (ax - ox)
    d4 = ux * (by - oy) - uy * (bx - ox)
    return (d1 * d2 <= 0.0) & (d3 * d4 <= 0.0)


@dataclass(frozen=True)
class AreaEstimate:
    area: float
    stderr: float
    samples: int
    seed: object = None


def _sector_contains_many(sector: CircularSector, pts: np.ndarray) -> np.ndarray:
    import numpy as np
    dx = pts[:, 0] - sector.origin.x
    dy = pts[:, 1] - sector.origin.y
    off = (np.arctan2(dy, dx) - sector.start_angle) % TWO_PI
    inside = off <= sector.sweep
    if math.isfinite(sector.radius):
        inside &= dx * dx + dy * dy <= sector.radius * sector.radius
    return inside


def _shadow_mask(pts: np.ndarray, extra, origin: Point2D | None) -> np.ndarray:
    if isinstance(extra, SegmentObstacle):
        if origin is None:
            raise ValueError("origin is required for a segment-obstacle shadow")
        return segment_crosses(origin.x, origin.y, pts[:, 0], pts[:, 1], extra)
    if isinstance(extra, CircularSector):
        return _sector_contains_many(extra, pts)
    raise TypeError(f"unsupported shadow source: {type(extra).__name__}")


def numeric_blocked_area(region: Callable[[np.ndarray], np.ndarray],
                         extra, samples: int = 10_000_000, *,
                         bbox: tuple[float, float, float, float] | None = None,
                         origin: Point2D | None = None,
                         seed=None) -> AreaEstimate:
    """Rejection-sampling estimate of area(region ∩ shadow(extra)).

    region maps an (N, 2) array of points to a boolean mask. bbox must bound
    the region (an unbounded region has no Monte Carlo area). For a
    SegmentObstacle the shadow is the set of points whose sight segment from
    `origin` crosses it; for a CircularSector it is plain membership, with a
    finite radius honored. The seed makes parallel shards reproducible; it is
    passed straight to numpy's default_rng and may be an int or a tuple.
    This is the Monte Carlo oracle for the exact shadowed_visible_area.
    """
    if samples < 10_000:
        raise ValueError("samples must be at least 10^4")
    if bbox is None:
        raise GeometryDomainError(
            "region must be bounded: pass bbox=(xmin, ymin, xmax, ymax)")
    x0, y0, x1, y1 = bbox
    if not (x1 > x0 and y1 > y0):
        raise GeometryDomainError("bbox must have positive area")
    import numpy as np
    rng = np.random.default_rng(seed)
    box_area = (x1 - x0) * (y1 - y0)
    hits = 0
    remaining = int(samples)
    chunk = 2_000_000
    while remaining:
        n = min(chunk, remaining)
        pts = np.empty((n, 2))
        pts[:, 0] = rng.uniform(x0, x1, n)
        pts[:, 1] = rng.uniform(y0, y1, n)
        mask = np.asarray(region(pts), dtype=bool)
        if mask.any():
            hits += int(np.count_nonzero(_shadow_mask(pts[mask], extra, origin)))
        remaining -= n
    frac = hits / samples
    return AreaEstimate(area=frac * box_area,
                        stderr=box_area * math.sqrt(frac * (1.0 - frac) / samples),
                        samples=samples, seed=seed)


def visible_region_predicate(enb: Point2D, walls: Sequence[SegmentObstacle],
                             ue: Point2D, displaced: Point2D,
                             r: float, R: float):
    """Vectorized membership test for the visible excess region, plus a bbox.

    A point belongs when it is strictly inside the displaced coverage disk,
    not inside the serving exclusion circle, and not inside any wall's
    angular shadow as seen from the base station.
    """
    import numpy as np
    intervals = [wall_shadow_interval(enb, w) for w in walls]

    def predicate(pts: np.ndarray) -> np.ndarray:
        dx = pts[:, 0] - displaced.x
        dy = pts[:, 1] - displaced.y
        inside = dx * dx + dy * dy < R * R
        ex = pts[:, 0] - ue.x
        ey = pts[:, 1] - ue.y
        inside &= ex * ex + ey * ey >= r * r
        if intervals:
            ang = np.arctan2(pts[:, 1] - enb.y, pts[:, 0] - enb.x)
            for start, width in intervals:
                inside &= (ang - start) % TWO_PI > width
        return inside

    bbox = (displaced.x - R, displaced.y - R, displaced.x + R, displaced.y + R)
    return predicate, bbox
