"""Probability primitives: PPP sampling, blockage and self-blockage models.

Densities are per square meter everywhere in code; the config layer converts
per-km2 inputs before objects are built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import TWO_PI, Point2D

# Dimensionless switch point for the series branch of the survival bracket.
_SERIES_SWITCH = 0.05
_SERIES_TERMS = 13


@dataclass(frozen=True)
class RandomObstacleModel:
    """Random rectangular obstacles: density lambda_B (per m^2) and mean
    length/width. The derived blockage coefficients follow random shape
    theory with uniformly random obstacle orientation."""

    lambda_B: float
    mean_l: float
    mean_w: float

    def __post_init__(self) -> None:
        if self.lambda_B < 0.0:
            raise ValueError("lambda_B must be nonnegative")
        if self.mean_l < 0.0 or self.mean_w < 0.0:
            raise ValueError("mean obstacle dimensions must be nonnegative")

    @property
    def beta(self) -> float:
        """Per-meter blockage rate along a link."""
        return (2.0 / math.pi) * self.lambda_B * (self.mean_l + self.mean_w)

    @property
    def beta0(self) -> float:
        """Length-independent blockage offset."""
        return self.lambda_B * self.mean_l * self.mean_w


@dataclass(frozen=True)
class SelfBlockModel:
    """User-body blockage: a sector of angle theta is shadowed."""

    theta: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.theta <= TWO_PI:
            raise ValueError("theta must lie in [0, 2*pi]")


@dataclass(frozen=True)
class PppRegion:
    """Sampling region for a homogeneous PPP.

    shape "rectangle" takes bounds (x0, y0, x1, y1); shape "disk" takes
    bounds (cx, cy, radius).
    """

    shape: str
    bounds: tuple
    density: float

    def __post_init__(self) -> None:
        if self.shape not in ("rectangle", "disk"):
            raise ValueError("shape must be 'rectangle' or 'disk'")
        if self.density < 0.0:
            raise ValueError("density must be nonnegative")
        if self.area <= 0.0:
            raise ValueError("region must have positive measure")

    @property
    def area(self) -> float:
        if self.shape == "rectangle":
            x0, y0, x1, y1 = self.bounds
            return (x1 - x0) * (y1 - y0)
        _, _, radius = self.bounds
        return math.pi * radius * radius


def poisson_count(rng: np.random.Generator, mean: float) -> int:
    """Poisson draw; inversion from a single uniform for small means.

    The inversion branch is monotone in the mean for a fixed uniform, which
    gives common-random-number couplings for free. Large means fall back to
    the generator's own (transformed-rejection) sampler.
    """
    if mean < 0.0:
        raise ValueError("mean must be nonnegative")
    if mean == 0.0:
        return 0
    if mean > 60.0:
        return int(rng.poisson(mean))
    u = rng.random()
    p = math.exp(-mean)
    cdf = p
    k = 0
    while u > cdf:
        k += 1
        p *= mean / k
        cdf += p
        if k > 10_000:  # numerically stuck tail; effectively impossible
            break
    return k


def sample_ppp(region: PppRegion, seed=None) -> list[Point2D]:
    """Sample one PPP realization over the region. Fixed seed, fixed points."""
    xy = sample_ppp_xy(region, np.random.default_rng(seed))
    return [Point2D(float(x), float(y)) for x, y in xy]


def sample_ppp_xy(region: PppRegion, rng: np.random.Generator) -> np.ndarray:
    """Array-valued PPP sampler sharing one draw order with sample_ppp:
    count first, then x-coordinates (or radii), then y (or angles)."""
    n = poisson_count(rng, region.density * region.area)
    pts = np.empty((n, 2))
    if n == 0:
        return pts
    if region.shape == "rectangle":
        x0, y0, x1, y1 = region.bounds
        pts[:, 0] = rng.uniform(x0, x1, n)
        pts[:, 1] = rng.uniform(y0, y1, n)
    else:
        cx, cy, radius = region.bounds
        rr = radius * np.sqrt(rng.random(n))
        ang = rng.uniform(0.0, TWO_PI, n)
        pts[:, 0] = cx + rr * np.cos(ang)
        pts[:, 1] = cy + rr * np.sin(ang)
    return pts


def p_blocked_static(r: float, m: RandomObstacleModel) -> float:
    """Probability that a static link of length r is blocked."""
    if r < 0.0:
        raise ValueError("link length must be nonnegative")
    return -math.expm1(-(m.beta * r + m.beta0))


def p_self_blocked(m: SelfBlockModel) -> float:
    """Probability that a uniformly oriented node falls in the body shadow."""
    return m.theta / TWO_PI


def survival_bracket(x: float) -> float:
    """(2/x^2) * (1 - (1 + x) e^{-x}), the radial average of e^{-beta r}
    under the linear-in-area radius law on [0, R_LoS] with x = beta * R_LoS.

    Small arguments use the alternating series
    2 * sum_{m>=0} (-1)^m (m+1)/(m+2)! x^m = 1 - 2x/3 + x^2/4 - x^3/15 + ...
    to dodge the catastrophic cancellation in the closed form; both branches
    agree to well below 1e-12 at the switch point.
    """
    if x < 0.0:
        raise ValueError("argument must be nonnegative")
    if x <= _SERIES_SWITCH:
        total = 0.0
        sign = 1.0
        xpow = 1.0
        factorial = 2.0  # (m+2)! for m = 0
        for m in range(_SERIES_TERMS):
            total += sign * 2.0 * (m + 1) / factorial * xpow
            sign = -sign
            xpow *= x
            factorial *= m + 3
        return total
    return 2.0 * (1.0 - (1.0 + x) * math.exp(-x)) / (x * x)


def p_not_blocked_Z(m: RandomObstacleModel, s: SelfBlockModel,
                    R_LoS: float) -> float:
    """Probability that a random node inside the LoS disk is unblocked by
    both the obstacle field and the user's own body."""
    if R_LoS <= 0.0:
        raise ValueError("R_LoS must be positive")
    x = m.beta * R_LoS
    val = (1.0 - p_self_blocked(s)) * math.exp(-m.beta0) * survival_bracket(x)
    return min(max(val, 0.0), 1.0)
