"""Monte Carlo estimators for reassignment and handover probabilities.

Estimators draw trials in fixed-size shards, each shard seeded from
(master seed, shard index), so a parallel harness reproduces the sequential
result exactly. Single-trial functions draw the node field as one count
uniform plus one matrix of per-node uniforms, which makes outcomes pathwise
monotone in the density under a shared seed (a larger mean only appends
nodes after an identical prefix).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import TWO_PI, displaced_distance, displaced_position, MoveGeometry, wall_shadow_interval
from .scenarios import Deterministic, Law, MobilitySpec, ScenarioKnown, ScenarioUnknown
from .stochastic import p_self_blocked, poisson_count

SHARD_SIZE = 4096


@dataclass(frozen=True)
class TrialOutcome:
    rr_occurred: bool
    ho_occurred: bool
    candidate_count: int

    def __post_init__(self) -> None:
        if self.candidate_count < 0:
            raise ValueError("candidate_count must be nonnegative")


@dataclass(frozen=True)
class Estimate:
    mean: float
    stderr: float
    trials: int
    seed: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.mean <= 1.0:
            raise ValueError("mean must lie in [0, 1]")
        if self.trials < 1:
            raise ValueError("trials must be positive")


def _draw_law(rng: np.random.Generator, law: Law, n: int) -> np.ndarray:
    if isinstance(law, Deterministic):
        return np.full(n, law.value)
    if law.low == law.high:
        return np.full(n, law.low)
    return rng.uniform(law.low, law.high, n)


def _poisson_counts(rng: np.random.Generator, means: np.ndarray) -> np.ndarray:
    """Vectorized Poisson counts, inversion below mean 60 (one uniform per
    entry), generator fallback above."""
    means = np.asarray(means, dtype=float)
    counts = np.zeros(means.shape, dtype=np.int64)
    big = means > 60.0
    if big.any():
        counts[big] = rng.poisson(means[big])
    small = ~big
    if small.any():
        m = means[small]
        u = rng.random(m.shape)
        c = np.zeros(m.shape, dtype=np.int64)
        pk = np.exp(-m)
        cdf = pk.copy()
        remaining = u > cdf
        k = 0
        while remaining.any():
            k += 1
            pk = pk * (m / k)
            cdf = cdf + pk
            newly = remaining & (u <= cdf)
            c[newly] = k
            remaining &= ~newly
            if k > 2000:  # precision-exhausted tail
                c[remaining] = k
                break
        counts[small] = c
    return counts


# ---------------------------------------------------------------------------
# Known-room reassignment trials


def rr_outcome_from_field(scene: ScenarioKnown, points: np.ndarray,
                          d_U: float, xi: float) -> TrialOutcome:
    """Pure candidate test for an explicit node field, one displacement.

    A node is a viable new serving candidate when it is strictly closer to
    the displaced position than the serving node will be, not inside the
    serving exclusion circle, not inside any wall's shadow as seen from the
    base station, has a sight line to the displaced position clear of the
    extra obstacles, and is outside the body-shadow sector.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    l2, heading = displaced_position(scene.ue, scene.ris_direction,
                                     scene.orientation, d_U, xi)
    if d_U > 0.0:
        R = displaced_distance(MoveGeometry(r=scene.serving_ris_distance,
                                            d_U=d_U, xi=xi))
    else:
        R = scene.serving_ris_distance
    _, ok = _candidate_mask(scene, _wall_wedges(scene), pts[:, 0], pts[:, 1],
                            np.full(1, l2.x), np.full(1, l2.y), np.full(1, R),
                            np.full(1, heading),
                            np.zeros(len(pts), dtype=np.int64))
    count = int(np.count_nonzero(ok))
    return TrialOutcome(rr_occurred=count > 0, ho_occurred=False,
                        candidate_count=count)


_Wedge = tuple[float, float, float, float, float]


def _wall_wedges(scene: ScenarioKnown) -> tuple[_Wedge, ...]:
    """Each wall's shadow at the base station as (u1x, u1y, u2x, u2y,
    width): the closed wedge swept counterclockwise from u1 to u2."""
    wedges = []
    for wall in scene.walls:
        start, width = wall_shadow_interval(scene.enb, wall)
        wedges.append((math.cos(start), math.sin(start),
                       math.cos(start + width), math.sin(start + width), width))
    return tuple(wedges)


def _outside_wedge(vx, vy, u1x, u1y, u2x, u2y, width: float) -> np.ndarray:
    """True where vector v lies outside the closed wedge swept
    counterclockwise from ray u1 to ray u2, by cross-product signs."""
    c1 = u1x * vy - u1y * vx  # >= 0: v at or counterclockwise of u1
    c2 = vx * u2y - vy * u2x  # >= 0: v at or clockwise of u2
    if width < math.pi:
        return (c1 < 0.0) | (c2 < 0.0)
    if width < TWO_PI:
        # outside a reflex wedge = strictly inside the open convex
        # complement swept counterclockwise from u2 to u1
        return (c1 < 0.0) & (c2 < 0.0)
    return np.zeros(np.shape(vx), dtype=bool)


def _candidate_mask(scene: ScenarioKnown, walls: tuple[_Wedge, ...],
                    px: np.ndarray, py: np.ndarray,
                    l2x: np.ndarray, l2y: np.ndarray, R: np.ndarray,
                    heading: np.ndarray, trial_idx: np.ndarray,
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized candidate predicate over the points of several trials.

    Each point is judged against the displacement (l2x, l2y, R, heading) of
    its trial, trial_idx. Returns the indices of the points strictly inside
    their coverage disk and, aligned with them, the candidate mask; the
    other predicates run only on those points.
    """
    R2 = R ** 2
    # one displacement for every trial (both mobility laws fixed): scalars
    shared = all(a.min() == a.max() for a in (l2x, l2y, R2, heading))
    if shared:
        tx, ty, r2, hd = l2x[0], l2y[0], R2[0], heading[0]
    else:
        tx, ty, r2 = l2x[trial_idx], l2y[trial_idx], R2[trial_idx]
    dist2 = px - tx
    dist2 *= dist2
    dy = py - ty
    dy *= dy
    dist2 += dy
    idx = np.flatnonzero(dist2 < r2)  # strict: ties are no events
    px, py = px[idx], py[idx]
    if not shared:
        trial = trial_idx[idx]
        tx, ty, hd = l2x[trial], l2y[trial], heading[trial]
    dx = px - tx
    dy = py - ty
    r = scene.serving_ris_distance
    ex = px - scene.ue.x
    ey = py - scene.ue.y
    ok = ex * ex + ey * ey >= r * r
    if walls:
        vx = px - scene.enb.x
        vy = py - scene.enb.y
        for wedge in walls:
            ok &= _outside_wedge(vx, vy, *wedge)
    for obs in scene.extra_obstacles:
        ax, ay, bx, by = obs.a.x, obs.a.y, obs.b.x, obs.b.y
        d1 = (bx - ax) * (ty - ay) - (by - ay) * (tx - ax)
        d2 = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
        d3 = dx * (ay - ty) - dy * (ax - tx)
        d4 = dx * (by - ty) - dy * (bx - tx)
        ok &= ~((d1 * d2 <= 0.0) & (d3 * d4 <= 0.0))
    if scene.self_block is not None and scene.self_block.theta > 0.0:
        theta = scene.self_block.theta
        if scene.self_block_direction is not None:
            hd = scene.self_block_direction
        lo = hd - 0.5 * theta
        ok &= _outside_wedge(dx, dy, np.cos(lo), np.sin(lo),
                             np.cos(lo + theta), np.sin(lo + theta), theta)
    return idx, ok


def run_rr_trial(scene: ScenarioKnown, d_U: float, xi: float,
                 seed: int = 0) -> TrialOutcome:
    """One reassignment trial: sample a node field over the room, test it."""
    rng = np.random.default_rng(seed)
    x0, y0, x1, y1 = scene.room
    mean = scene.lambda_RIS * (x1 - x0) * (y1 - y0)
    n = poisson_count(rng, mean)
    pts = rng.random((n, 2))
    pts[:, 0] = x0 + pts[:, 0] * (x1 - x0)
    pts[:, 1] = y0 + pts[:, 1] * (y1 - y0)
    if d_U == 0.0:
        return TrialOutcome(rr_occurred=False, ho_occurred=False,
                            candidate_count=0)
    return rr_outcome_from_field(scene, pts, d_U, xi)


def _rr_shard(scene: ScenarioKnown, mobility: MobilitySpec, n: int,
              rng: np.random.Generator) -> int:
    """Number of successful trials in one shard. Draw order: speeds, angles,
    count uniforms, then all x positions, then all y positions."""
    return _rr_successes(scene, mobility, n, rng, _wall_wedges(scene))


def _rr_successes(scene: ScenarioKnown, mobility: MobilitySpec, n: int,
                  rng: np.random.Generator, walls: tuple[_Wedge, ...]) -> int:
    """_rr_shard with the scene's wall wedges computed by the caller."""
    speeds = _draw_law(rng, mobility.speed_law, n)
    angles = _draw_law(rng, mobility.angle_law, n)
    x0, y0, x1, y1 = scene.room
    mean = scene.lambda_RIS * (x1 - x0) * (y1 - y0)
    counts = _poisson_counts(rng, np.full(n, mean))
    total = int(counts.sum())
    if total == 0:
        return 0
    px = rng.uniform(x0, x1, total)
    py = rng.uniform(y0, y1, total)

    away = scene.ris_direction + math.pi
    heading = away + scene.orientation * angles
    l2x = scene.ue.x + speeds * np.cos(heading)
    l2y = scene.ue.y + speeds * np.sin(heading)
    r = scene.serving_ris_distance
    R = np.sqrt(r * r + speeds * speeds
                - 2.0 * r * speeds * np.cos(math.pi - angles))
    trial_idx = np.repeat(np.arange(n), counts)
    idx, ok = _candidate_mask(scene, walls, px, py, l2x, l2y, R, heading,
                              trial_idx)
    hits = np.zeros(n, dtype=bool)
    hits[trial_idx[idx.compress(ok)]] = True
    hits &= speeds > 0.0
    return int(np.count_nonzero(hits))


def _estimate(shard_fn: Callable[..., int],
              scene: ScenarioKnown | ScenarioUnknown, mobility: MobilitySpec,
              Z: int, seed: int) -> Estimate:
    """Mean of Z trials run in shards of SHARD_SIZE, shard k drawing from
    SeedSequence((seed, k)); shard_fn(scene, mobility, n, rng) returns the
    number of successes among n trials."""
    if Z < 1:
        raise ValueError("Z must be at least 1")
    successes = 0
    for shard_idx, done in enumerate(range(0, Z, SHARD_SIZE)):
        rng = np.random.default_rng(np.random.SeedSequence((seed, shard_idx)))
        successes += shard_fn(scene, mobility, min(SHARD_SIZE, Z - done), rng)
    mean = successes / Z
    return Estimate(mean=mean, stderr=math.sqrt(mean * (1.0 - mean) / Z),
                    trials=Z, seed=seed)


def estimate_rr(scene: ScenarioKnown, mobility: MobilitySpec,
                Z: int = 100_000, seed: int = 0) -> Estimate:
    """Mean of Z independent reassignment trials with per-trial mobility."""
    walls = _wall_wedges(scene)
    return _estimate(functools.partial(_rr_successes, walls=walls), scene,
                     mobility, Z, seed)


# ---------------------------------------------------------------------------
# Unknown-obstacle handover trials


def run_ho_trial(s: ScenarioUnknown, d_U: float, xi: float,
                 seed: int = 0) -> TrialOutcome:
    """One handover trial: Poisson base-station field over the displaced
    coverage disk, thinned by static blockage (radius drawn from the
    linear-in-area law on [0, R_LoS]) and by the body shadow."""
    rng = np.random.default_rng(seed)
    R = displaced_distance(MoveGeometry(r=s.r_eNB, d_U=d_U, xi=xi)) \
        if d_U > 0.0 else s.r_eNB
    n = poisson_count(rng, s.lambda_eNB * math.pi * R * R)
    u = rng.random((n, 3))
    survivors = _ho_survivors(s, u)
    count = int(np.count_nonzero(survivors))
    return TrialOutcome(rr_occurred=False, ho_occurred=count > 0,
                        candidate_count=count)


def _ho_survivors(s: ScenarioUnknown, u: np.ndarray) -> np.ndarray:
    radii = s.R_LoS * np.sqrt(u[:, 0])
    beta = s.obstacle_model.beta
    beta0 = s.obstacle_model.beta0
    alive = u[:, 1] < np.exp(-(beta * radii + beta0))
    alive &= u[:, 2] >= p_self_blocked(s.self_block)
    return alive


def _ho_shard(s: ScenarioUnknown, mobility: MobilitySpec, n: int,
              rng: np.random.Generator) -> int:
    speeds = _draw_law(rng, mobility.speed_law, n)
    angles = _draw_law(rng, mobility.angle_law, n)
    r = s.r_eNB
    R2 = r * r + speeds * speeds - 2.0 * r * speeds * np.cos(math.pi - angles)
    counts = _poisson_counts(rng, s.lambda_eNB * math.pi * R2)
    total = int(counts.sum())
    if total == 0:
        return 0
    u = rng.random((total, 3))
    alive = _ho_survivors(s, u)
    trial_idx = np.repeat(np.arange(n), counts)
    hits = np.bincount(trial_idx[alive], minlength=n) > 0
    hits &= speeds > 0.0
    return int(np.count_nonzero(hits))


def estimate_ho(s: ScenarioUnknown, mobility: MobilitySpec,
                Z: int = 100_000, seed: int = 0) -> Estimate:
    """Mean of Z independent handover trials with per-trial mobility."""
    return _estimate(_ho_shard, s, mobility, Z, seed)
