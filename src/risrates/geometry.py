"""Planar geometry kernel: displacement, coverage-overlap areas, wall shadows.

Everything here works in one canonical unit system: meters, radians, square
meters. The movement-angle convention used throughout the package: an angle
of 0 means the user moves directly away from its serving node, pi means
directly toward it.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

logger = logging.getLogger(__name__)

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
        if self.d_U < 0.0:
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


def displaced_distance_sq(r, d_U, xi):
    """Squared distance from the serving node (r away) to the user after a
    displacement d_U at movement angle xi; broadcasts over arrays.

    Law of cosines in the triangle (node, start, end); the angle at the start
    position is pi - xi because xi = 0 points directly away from the node.
    Near zero, roundoff can leave the result slightly negative.
    """
    return r * r + d_U * d_U - 2.0 * r * d_U * np.cos(math.pi - xi)


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
            logger.warning("excess area clamped to 0 from %.6g (R=%.6g, r=%.6g)",
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
        logger.info("degenerate-intersection: collapsed wedge misses both circles")
        return 0.0
    if w.alpha1 > sweep:
        raise GeometryDomainError(
            "alpha1 exceeds the wedge width: the user direction is outside the wedge")
    outer = 0.0 if R == 0.0 else wedge_circle_area(R, w.d_BU2, w.alpha3, w.alpha4)
    inner = wedge_circle_area(r, w.d_BU1, w.alpha1, sweep - w.alpha1)
    blocked = outer - inner
    if blocked < 0.0:
        if blocked < -1e-9 * max(outer, 1.0):
            logger.warning("blocked area clamped to 0 (inner %.6g > outer %.6g)",
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


def angular_offset(start: float, direction: float) -> float:
    """Counterclockwise offset of `direction` from `start`, in [0, 2*pi)."""
    return (direction - start) % TWO_PI


def displaced_position(ue: Point2D, ris_direction: float, orientation: int,
                       d_U: float, xi: float) -> tuple[Point2D, float]:
    """Position after one displacement step, plus the absolute heading.

    ris_direction is the bearing from the user to its serving node; xi = 0
    moves directly away from it, and orientation (+1 ccw, -1 cw) picks which
    side of the away direction the angle opens toward.
    """
    heading = ris_direction + math.pi + orientation * xi
    return Point2D(ue.x + d_U * math.cos(heading),
                   ue.y + d_U * math.sin(heading)), heading


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
                             r: float, R: float, n: int = 2048) -> None:
    """The in-shadow part of circle(L1, r) must sit inside disk(L2, R)."""
    t = np.linspace(0.0, TWO_PI, n, endpoint=False)
    px = l1.x + r * np.cos(t)
    py = l1.y + r * np.sin(t)
    ang = np.arctan2(py - apex.y, px - apex.x)
    inside = (ang - start) % TWO_PI <= width
    if not inside.any():
        return
    d2 = (px - l2.x) ** 2 + (py - l2.y) ** 2
    worst = float(d2[inside].max())
    if worst > R * R * (1.0 + 1e-9):
        raise GeometryDomainError(
            "exclusion circle leaves the displaced coverage disk inside the "
            "wall shadow; the area subtraction does not apply "
            f"(worst distance {math.sqrt(worst):.6g} > R {R:.6g})")


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

# Gauss-Legendre nodes per sweep piece. The integrand is analytic inside each
# piece and breakpoints are graded towards every near-real singularity, so
# this many nodes reach roundoff.
_SWEEP_NODES = 24
# Graded breakpoints stop at pieces this wide (radians).
_GRADE_TO = 0.5


@functools.cache
def _sweep_rules() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, 1], plain and mapped through
    s -> 3s^2 - 2s^3. The map's derivative vanishes at both ends, which
    absorbs the square-root behaviour of the exclusion-circle radii next to
    a tangent angle. numpy.polynomial is imported here, not at module level,
    to keep the package import fast."""
    from numpy.polynomial.legendre import leggauss
    s, w = leggauss(_SWEEP_NODES)
    s, w = 0.5 * (s + 1.0), 0.5 * w
    return s, w, s * s * (3.0 - 2.0 * s), 6.0 * w * s * (1.0 - s)


def _sweep_nodes(start: float, span: float, breaks: list[float],
                 tangents: list[float]) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature nodes and weights over the angles [start, start + span]:
    Gauss-Legendre on each piece between the breakpoints, with the mapped
    rule on the pieces that end at one of the tangent angles."""
    cuts = {0.0, span}
    cuts.update(o for o in ((a - start) % TWO_PI for a in breaks + tangents)
                if 0.0 < o < span)
    tangent = [(a - start) % TWO_PI for a in tangents]
    for tau in tangent:
        # a cut near a tangent leaves the next piece close to a square-root
        # branch point: grade the pieces down to that distance
        if 0.0 < tau < span:
            gap = min(abs(c - tau) for c in cuts if c != tau)
            cuts.update(o for o in _graded(tau, gap) if 0.0 < o < span)
    cuts = np.array(sorted(cuts))
    at_tangent = np.isin(cuts, tangent)
    mapped = (at_tangent[:-1] | at_tangent[1:])[:, None]
    width = np.diff(cuts)[:, None]
    s, w, s_mapped, w_mapped = _sweep_rules()
    phi = start + cuts[:-1, None] + width * np.where(mapped, s_mapped, s)
    return phi.ravel(), (width * np.where(mapped, w_mapped, w)).ravel()


def _graded(center: float, scale: float) -> list[float]:
    """Breakpoints at center and at center +/- scale * 2^k for k = 0, 1, ...
    up to _GRADE_TO. Placed around a singularity `scale` away from `center`,
    they keep every piece near it no wider than its distance to the
    singularity."""
    out = [center]
    if scale > 0.0:
        out += [center - scale, center + scale]
        while scale < _GRADE_TO:
            scale *= 2.0
            out += [center - scale, center + scale]
    return out


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
    phi at radii in closed form (coverage and exclusion circles, each wall
    wedge's two border lines through the base station, the obstacle's
    line), so the area is the integral over phi of the sum of (b^2 - a^2)/2
    over the ray's in-region intervals [a, b]. Gauss-Legendre runs on each
    piece between the directions of the region's vertices: segment
    endpoints, the base station, tangents to the exclusion circle and every
    pairwise crossing of the boundary lines and circles.
    """
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
    for p, d in lines:
        # A line at distance h from L2 cuts the ray at h / |sin(phi - along)|,
        # whose poles lie asin(h / cap) past the directions in which the
        # line leaves disk(L2, cap).
        h = abs(d[0] * (l2[1] - p[1]) - d[1] * (l2[0] - p[0])) / math.hypot(*d)
        if h < cap:
            along = math.atan2(d[1], d[0])
            breaks += (_graded(along, math.asin(h / cap))
                       + _graded(along + math.pi, math.asin(h / cap)))
    d_u = math.hypot(l2[0] - l1[0], l2[1] - l1[1])
    tangents = []
    if d_u > 0.0:
        # The exclusion radii branch where disc(phi) = 0: seen from outside
        # circle(L1, r), at the two tangents and at their mirror images
        # behind L2; seen from inside, acosh(q) off the real axis at
        # toward +/- pi/2.
        q = r / d_u
        toward = bearing(displaced, ue)
        if q < 1.0:
            half = math.asin(q)
            tangents = [toward - half, toward + half]
            breaks += [toward + math.pi - half, toward + math.pi + half]
        else:
            for a in (toward - 0.5 * math.pi, toward + 0.5 * math.pi):
                breaks += _graded(a, math.acosh(q))
    phi, weights = _sweep_nodes(span_start, span, breaks, tangents)
    ux, uy = np.cos(phi), np.sin(phi)

    # Candidate radii along each ray; the pieces between consecutive sorted
    # radii are classified at their midpoints.
    wx, wy = l2[0] - l1[0], l2[1] - l1[1]
    proj = wx * ux + wy * uy
    disc = proj * proj - (wx * wx + wy * wy - r * r)
    root = np.sqrt(np.where(disc >= 0.0, disc, np.nan))
    radii = [np.zeros_like(phi), np.full_like(phi, cap),
             -proj - root, -proj + root]
    with np.errstate(divide="ignore", invalid="ignore"):
        for p, d in lines:
            # cross(d, l2 - p + t u) = 0
            c0 = d[0] * (l2[1] - p[1]) - d[1] * (l2[0] - p[0])
            radii.append(-c0 / (d[0] * uy - d[1] * ux))
    t = np.sort(np.clip(np.nan_to_num(np.stack(radii, axis=1), nan=0.0,
                                      posinf=cap, neginf=0.0), 0.0, cap),
                axis=1)
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
    f = 0.5 * np.where(keep, t[:, 1:] ** 2 - t[:, :-1] ** 2, 0.0).sum(axis=1)
    return float(weights @ f)


# ---------------------------------------------------------------------------
# Sight-line test and numeric (rejection-sampling) areas


def segment_crosses(ox, oy, px, py, seg: SegmentObstacle) -> np.ndarray:
    """Does the segment from (ox, oy) to (px, py) meet seg? Broadcasts over
    arrays of either end.

    Inclusive test by orientation signs: touching counts as crossing, and the
    collinear-overlap corner cases resolve to True, which is the conservative
    choice for a blockage test.
    """
    ax, ay, bx, by = seg.a.x, seg.a.y, seg.b.x, seg.b.y
    d1 = (bx - ax) * (oy - ay) - (by - ay) * (ox - ax)
    d2 = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
    d3 = (px - ox) * (ay - oy) - (py - oy) * (ax - ox)
    d4 = (px - ox) * (by - oy) - (py - oy) * (bx - ox)
    return (d1 * d2 <= 0.0) & (d3 * d4 <= 0.0)


@dataclass(frozen=True)
class AreaEstimate:
    area: float
    stderr: float
    samples: int
    seed: object = None


def _sector_contains_many(sector: CircularSector, pts: np.ndarray) -> np.ndarray:
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
