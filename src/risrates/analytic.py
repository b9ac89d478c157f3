"""Closed-form reassignment/handover rates, marginals over mobility laws,
signaling totals, and server dimensioning."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable

from .geometry import (CircularSector, GeometryDomainError, MoveGeometry,
                       displaced_distance, displaced_position,
                       shadowed_visible_area, visible_excess_area_A1)
# Not called here; perfbench/spans.py wraps these names in this module.
from .geometry import numeric_blocked_area, visible_region_predicate  # noqa: F401
from .scenarios import (MobilitySpec, ScenarioKnown, ScenarioUnknown,
                        SignalingConfig, law_bounds)
from .stochastic import event_probability, p_not_blocked_Z

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class RateReport:
    """Signaling-rate summary. e_gamma is the canonical total
    e_sb + p_a * e_so; e_gamma_expanded reports the alternative composed
    form (1 + p_event per class, times 1 + p_a) for comparison."""

    p_rr: float
    p_ho: float
    e_rr: float
    e_ho: float
    e_sb: float
    e_so: float
    e_gamma: float
    e_gamma_expanded: float

    def __post_init__(self) -> None:
        for name in ("p_rr", "p_ho", "e_rr", "e_ho", "e_sb", "e_so",
                     "e_gamma", "e_gamma_expanded"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be nonnegative")


# ---------------------------------------------------------------------------
# Quadrature

_SIMPSON_DEPTH = 50  # bisections adaptive Simpson makes at most
_PROBES = 9  # evenly spaced points _NearestValid evaluates first


def adaptive_simpson(f: Callable[[float], float], a: float, b: float,
                     tol: float = 1e-6) -> float:
    """Adaptive Simpson integral of f on [a, b] to absolute tolerance tol."""
    if a == b:
        return 0.0
    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _simpson_rec(f, a, b, fa, fm, fb, whole, tol, _SIMPSON_DEPTH)


def _simpson_rec(f, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    if depth <= 0 or abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    return (_simpson_rec(f, a, m, fa, flm, fm, left, 0.5 * tol, depth - 1)
            + _simpson_rec(f, m, b, fm, frm, fb, right, 0.5 * tol, depth - 1))


class _NearestValid:
    """Integrand wrapper that replaces domain-failing nodes with the value at
    the nearest valid abscissa, counting the substitutions."""

    def __init__(self, f: Callable[[float], float], a: float, b: float):
        self._f = f
        self._cache: list[tuple[float, float]] = []
        self.failures = 0
        errors: list[GeometryDomainError] = []
        for i in range(_PROBES):
            t = a + (b - a) * i / (_PROBES - 1)
            try:
                self._cache.append((t, f(t)))
            except GeometryDomainError as exc:
                errors.append(exc)
        if not self._cache:
            raise errors[0]  # nothing valid anywhere on the interval

    def __call__(self, t: float) -> float:
        for tc, vc in self._cache:
            if tc == t:
                return vc
        try:
            v = self._f(t)
        except GeometryDomainError:
            self.failures += 1
            _, v = min(self._cache, key=lambda kv: abs(kv[0] - t))
            return v
        self._cache.append((t, v))
        return v


def _mean_over_interval(f, lo, hi, tol):
    """Mean of f over [lo, hi] with nearest-valid clamping of bad nodes."""
    wrapped = _NearestValid(f, lo, hi)
    value = adaptive_simpson(wrapped, lo, hi, tol=0.5 * tol * (hi - lo)) / (hi - lo)
    if wrapped.failures:
        logger.warning("quadrature clamped %d node(s) to the nearest valid value",
                       wrapped.failures)
    return value


def _marginal_mean(point_fn: Callable[[float, float], float],
                   mobility: MobilitySpec, tol: float = 1e-6) -> float:
    """Mean of point_fn(speed, angle) under the mobility laws, by adaptive
    Simpson (absolute error <= tol); nested over angle then speed when both
    laws are spread."""
    s_lo, s_hi = law_bounds(mobility.speed_law)
    a_lo, a_hi = law_bounds(mobility.angle_law)
    speed_fixed = s_lo == s_hi
    angle_fixed = a_lo == a_hi

    if speed_fixed and angle_fixed:
        return point_fn(s_lo, a_lo)
    if angle_fixed:
        return _mean_over_interval(lambda d: point_fn(d, a_lo), s_lo, s_hi, tol)
    if speed_fixed:
        return _mean_over_interval(lambda x: point_fn(s_lo, x), a_lo, a_hi, tol)

    def angle_slice(x: float) -> float:
        return _mean_over_interval(lambda d: point_fn(d, x), s_lo, s_hi,
                                   0.5 * tol)

    return _mean_over_interval(angle_slice, a_lo, a_hi, 0.5 * tol)


# ---------------------------------------------------------------------------
# Known-room probabilities


def p_rr_known(A: float, lambda_RIS: float) -> float:
    """Probability that at least one candidate lands in an area A."""
    if A < 0.0:
        raise ValueError("area must be nonnegative")
    if lambda_RIS < 0.0:
        raise ValueError("lambda_RIS must be nonnegative")
    return -math.expm1(-A * lambda_RIS)


def p_rr_with_areas(A1: float, A_extra: float, lambda_RIS: float) -> float:
    """Reassignment probability with an extra blocked bite removed from A1."""
    if A_extra < 0.0:
        raise ValueError("A_extra must be nonnegative")
    if A_extra > A1:
        raise ValueError(
            f"A_extra ({A_extra!r}) exceeds A1 ({A1!r}): inconsistent geometry")
    return p_rr_known(A1 - A_extra, lambda_RIS)


def blocked_bite_area(scene: ScenarioKnown, d_U: float, xi: float) -> float:
    """Area of the visible excess region hidden by the scene's extra
    obstacles and self-blockage sector at one displacement point: the sum of
    the exact per-shadow areas (overlapping shadows count twice)."""
    g = MoveGeometry(r=scene.serving_ris_distance, d_U=d_U, xi=xi)
    R = displaced_distance(g)
    if R == 0.0:
        return 0.0
    l2, heading = displaced_position(scene.ue, scene.ris_direction,
                                     scene.orientation, d_U, xi)
    shadows = list(scene.extra_obstacles)
    if scene.self_block is not None and scene.self_block.theta > 0.0:
        direction = (heading if scene.self_block_direction is None
                     else scene.self_block_direction)
        shadows.append(CircularSector(
            origin=l2, radius=math.inf,
            start_angle=direction - 0.5 * scene.self_block.theta,
            sweep=scene.self_block.theta))
    return sum((shadowed_visible_area(scene.enb, scene.walls, scene.ue, l2,
                                      g.r, R, shadow) for shadow in shadows),
               0.0)


def _scene_has_bites(scene: ScenarioKnown) -> bool:
    return bool(scene.extra_obstacles) or (
        scene.self_block is not None and scene.self_block.theta > 0.0)


def rr_probability_known(scene: ScenarioKnown, d_U: float, xi: float) -> float:
    """Reassignment probability at one displacement point of a known room.

    The wall shadow enters through the closed-form visible area A1; extra
    obstacles and the body shadow are removed as exact bites, clamped into
    [0, A1] because overlapping shadows are summed, not unioned.
    """
    if d_U == 0.0:
        return 0.0
    g = MoveGeometry(r=scene.serving_ris_distance, d_U=d_U, xi=xi)
    a1 = visible_excess_area_A1(scene, g)
    if a1 > 0.0 and _scene_has_bites(scene):
        bite = min(blocked_bite_area(scene, d_U, xi), a1)
        return p_rr_with_areas(a1, bite, scene.lambda_RIS)
    return p_rr_known(a1, scene.lambda_RIS)


def p_rr_marginal(scene: ScenarioKnown, mobility: MobilitySpec, *,
                  tol: float = 1e-6) -> float:
    """Reassignment probability averaged over the mobility laws; point-mass
    laws collapse to the closed form."""
    return _marginal_mean(lambda d, x: rr_probability_known(scene, d, x),
                          mobility, tol=tol)


# ---------------------------------------------------------------------------
# Unknown-obstacle probabilities and rates


def p_ho(s: ScenarioUnknown, d_U: float, xi: float, *,
         pz: float | None = None) -> float:
    """Handover probability: at least one unblocked base station inside the
    displaced coverage disk. Zero displacement means no new candidates at
    all, so the probability is exactly zero there. pz, if given, is
    p_not_blocked_Z of the scenario, worked out once by the caller."""
    if pz is None:
        pz = p_not_blocked_Z(s.obstacle_model, s.self_block, s.R_LoS)
    return event_probability(pz, s.lambda_eNB, s.r_eNB, d_U, xi)


def p_rr_unknown(s: ScenarioUnknown, d_U: float, xi: float, *,
                 pz: float | None = None) -> float:
    """Reassignment probability in the unknown-obstacle model; same shape as
    p_ho with the reflective-node density and radius."""
    if pz is None:
        pz = p_not_blocked_Z(s.obstacle_model, s.self_block, s.R_LoS)
    return event_probability(pz, s.lambda_RIS, s.r_RIS, d_U, xi)


def marginal_p_ho(s: ScenarioUnknown, tol: float = 1e-6) -> float:
    # the blockage probability does not depend on the move: one call
    pz = p_not_blocked_Z(s.obstacle_model, s.self_block, s.R_LoS)
    return _marginal_mean(lambda d, x: p_ho(s, d, x, pz=pz), s.mobility,
                          tol=tol)


def marginal_p_rr_unknown(s: ScenarioUnknown, tol: float = 1e-6) -> float:
    pz = p_not_blocked_Z(s.obstacle_model, s.self_block, s.R_LoS)
    return _marginal_mean(lambda d, x: p_rr_unknown(s, d, x, pz=pz),
                          s.mobility, tol=tol)


def ho_rate(s: ScenarioUnknown, sig: SignalingConfig) -> float:
    """Expected handover initiations per unit time, summed over SGWs."""
    return sum(sig.sgw_rates) * marginal_p_ho(s)


def rr_rate(s: ScenarioUnknown, sig: SignalingConfig) -> float:
    """Expected reassignment initiations per unit time, over RIS managers."""
    return sum(sig.rism_rates) * marginal_p_rr_unknown(s)


def signaling_rate(s: ScenarioUnknown, sig: SignalingConfig) -> RateReport:
    """Total signaling rate: basic per-session signaling plus success-gated
    mobility overhead."""
    ph = marginal_p_ho(s)
    pr = marginal_p_rr_unknown(s)
    e_ho = sum(sig.sgw_rates) * ph
    e_rr = sum(sig.rism_rates) * pr
    e_sb = sum(sig.sgw_rates) + sum(sig.rism_rates)
    e_so = e_ho + e_rr
    e_gamma = e_sb + sig.p_a * e_so
    expanded = ((1.0 + ph) * sum(sig.sgw_rates)
                + (1.0 + pr) * sum(sig.rism_rates)) * (1.0 + sig.p_a)
    return RateReport(p_rr=pr, p_ho=ph, e_rr=e_rr, e_ho=e_ho, e_sb=e_sb,
                      e_so=e_so, e_gamma=e_gamma, e_gamma_expanded=expanded)


def _normalize_kind(kind: str) -> str:
    k = kind.strip().lower().replace("_", "-")
    if k in ("ris-m", "rism"):
        return "rism"
    if k == "sgw":
        return "sgw"
    raise ValueError(f"unknown server kind {kind!r}; expected RIS-M or SGW")


def class_load(s: ScenarioUnknown, sig: SignalingConfig, kind: str) -> float:
    """Total signaling load attributed to one server class: basic sessions
    plus the success-gated overhead of the event kind the class owns
    (handover for SGW, reassignment for RIS-M)."""
    k = _normalize_kind(kind)
    if k == "rism":
        return sum(sig.rism_rates) * (1.0 + sig.p_a * marginal_p_rr_unknown(s))
    return sum(sig.sgw_rates) * (1.0 + sig.p_a * marginal_p_ho(s))


def dimension_servers(target_capacity: float, s: ScenarioUnknown,
                      sig: SignalingConfig, kind: str) -> int:
    """Smallest server count keeping the per-server load share under the
    capacity, with the class total split uniformly."""
    if not (target_capacity > 0.0) or not math.isfinite(target_capacity):
        raise ValueError(f"target capacity must be a positive finite number, "
                         f"got {target_capacity!r}")
    ratio = class_load(s, sig, kind) / target_capacity
    if not math.isfinite(ratio):
        raise ValueError(f"class load / target capacity is {ratio!r}; no "
                         f"server count suffices")
    return max(1, math.ceil(ratio - 1e-12))
