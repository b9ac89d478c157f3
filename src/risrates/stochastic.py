"""Probability primitives: Poisson counts, blockage and self-blockage
models, and the candidate event probability.

Densities are per square meter everywhere in code; the config layer converts
per-km2 inputs before objects are built.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import TWO_PI, displaced_distance_sq

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


def poisson_counts(rng: np.random.Generator, means, size=None) -> np.ndarray:
    """Poisson counts, one per entry of `means` broadcast to `size` (by
    default the shape of `means`): inversion from one uniform per entry up
    to mean 60, the generator's own sampler above.

    For a fixed uniform, inversion is monotone in the mean, which gives
    common-random-number couplings: under a shared seed, means up to 60
    give counts that never fall as a mean grows.
    """
    means = np.asarray(means, dtype=float)
    shape = means.shape if size is None else size
    if means.size and means.min() == means.max():
        # one mean for every entry: no masks, and the CDF comes from a table
        m = means.flat[0]
        if m < 0.0:
            raise ValueError("Poisson means must be nonnegative")
        if m > 60.0:
            return rng.poisson(m, shape)
        return _invert_one_mean(m, rng.random(shape))
    means = np.broadcast_to(means, shape)
    if (means < 0.0).any():
        raise ValueError("Poisson means must be nonnegative")
    counts = np.zeros(means.shape, dtype=np.int64)
    big = means > 60.0
    if big.any():
        counts[big] = rng.poisson(means[big])
    small = ~big
    if small.any():
        m = means[small]
        counts[small] = _invert(m, rng.random(m.shape))
    return counts


# Inversion caps counts here, deep in a tail that the double-precision CDF
# cannot resolve.
_MAX_COUNT = 2001


def _invert(m: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Smallest k with u <= CDF_k(m), entry by entry, at most _MAX_COUNT."""
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
        if k == _MAX_COUNT:
            c[remaining] = k
            break
    return c


@functools.lru_cache(maxsize=64)
def _cdf_table(m: float) -> np.ndarray:
    """CDF_0, CDF_1, ... of one mean by _invert's recurrence, read-only.
    accumulate runs it in order, so every entry has the loop's bits. The
    table ends where the sum stops growing: past the mode the terms only
    shrink, so every later entry would repeat the last one."""
    pk = np.empty(_MAX_COUNT + 1)
    pk[0] = np.exp(-m)
    pk[1:] = m / np.arange(1, _MAX_COUNT + 1, dtype=float)
    cdf = np.add.accumulate(np.multiply.accumulate(pk))
    flat = np.flatnonzero(cdf[1:] == cdf[:-1])
    if flat.size:
        cdf = cdf[:flat[0] + 1]
    cdf.flags.writeable = False
    return cdf


def _invert_one_mean(m: np.float64, u: np.ndarray) -> np.ndarray:
    """_invert for a mean shared by every entry: the table of that mean is
    searched, for the entries above CDF_0 (count 1 or more) only. A uniform
    above the whole table gets the cap, as in the loop."""
    cdf = _cdf_table(float(m))
    u = np.asarray(u)
    counts = np.zeros(u.shape, dtype=np.int64)
    u_flat = u.reshape(-1)
    drew = np.flatnonzero(u_flat > cdf[0])
    k = np.searchsorted(cdf, u_flat[drew], side="left")
    k[k == cdf.size] = _MAX_COUNT
    counts.reshape(-1)[drew] = k
    return counts


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


def event_probability(pz: float, density: float, r: float, d_U, xi):
    """1 - exp(-pz * density * pi * R^2): the probability that a Poisson
    field of candidates, each unblocked with probability pz, puts at least
    one inside the displaced coverage disk, whose radius R is the distance
    from the serving node (r away) after the move. Zero where the user does
    not move. Broadcasts over d_U and xi."""
    p = -np.expm1(-pz * density * math.pi * displaced_distance_sq(r, d_U, xi))
    return np.where(d_U > 0.0, p, 0.0)
