"""Blockage-field statistics: frozen constants, series accuracy, sampling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risrates.stochastic import (
    RandomObstacleModel,
    SelfBlockModel,
    _SERIES_SWITCH,
    p_blocked_static,
    p_not_blocked_Z,
    p_self_blocked,
    poisson_counts,
    survival_bracket,
)


def _reference_model() -> RandomObstacleModel:
    return RandomObstacleModel(lambda_B=0.2 / 1e6, mean_l=10.0, mean_w=10.0)


def test_obstacle_model_derived_coefficients():
    m = _reference_model()
    assert m.beta == pytest.approx(2.5464790894703254e-06, rel=1e-12)
    assert m.beta0 == pytest.approx(2.0e-05, rel=1e-12)


def test_obstacle_model_validation():
    with pytest.raises(ValueError):
        RandomObstacleModel(lambda_B=-1.0, mean_l=1.0, mean_w=1.0)
    with pytest.raises(ValueError):
        RandomObstacleModel(lambda_B=1.0, mean_l=-1.0, mean_w=1.0)


def test_p_blocked_static_reference_value():
    m = _reference_model()
    assert p_blocked_static(1000.0, m) == pytest.approx(0.0025631884976922782,
                                                        rel=1e-12)
    assert p_blocked_static(0.0, m) == pytest.approx(-math.expm1(-m.beta0),
                                                     rel=1e-12)


@given(st.floats(0.0, 1e5))
def test_p_blocked_static_is_a_probability_and_increases(r):
    m = _reference_model()
    p = p_blocked_static(r, m)
    assert 0.0 <= p <= 1.0
    assert p_blocked_static(r + 100.0, m) >= p


def test_self_block_model():
    assert p_self_blocked(SelfBlockModel(theta=math.pi / 4)) == pytest.approx(1 / 8)
    assert p_self_blocked(SelfBlockModel(theta=0.0)) == 0.0
    assert p_self_blocked(SelfBlockModel(theta=2 * math.pi)) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        SelfBlockModel(theta=-0.1)
    with pytest.raises(ValueError):
        SelfBlockModel(theta=7.0)


# ---------------------------------------------------------------------------
# survival bracket (radial average of the static-blockage survival)


def _bracket_exact(x: float) -> float:
    from mpmath import mp, mpf
    from mpmath import exp as mexp
    mp.dps = 50
    xv = mpf(x)
    if xv == 0:
        return 1.0
    return float(2 * (1 - (1 + xv) * mexp(-xv)) / xv ** 2)


@pytest.mark.parametrize("x", [1e-12, 1e-6, 0.01, 0.049, 0.05, 0.0500001,
                               0.1, 0.5, 1.0, 5.0, 25.464790894703254e-3])
def test_survival_bracket_against_high_precision(x):
    assert survival_bracket(x) == pytest.approx(_bracket_exact(x),
                                                rel=1e-12, abs=1e-13)


def test_survival_bracket_branch_continuity_at_switch():
    x = _SERIES_SWITCH
    series = survival_bracket(x)
    closed = 2.0 * (1.0 - (1.0 + x) * math.exp(-x)) / (x * x)
    assert abs(series - closed) <= 1e-12


def test_survival_bracket_limits_and_validation():
    assert survival_bracket(0.0) == 1.0
    with pytest.raises(ValueError):
        survival_bracket(-0.01)


@given(st.floats(1e-9, 50.0))
def test_survival_bracket_range_and_decrease(x):
    g = survival_bracket(x)
    assert 0.0 < g <= 1.0
    assert survival_bracket(x * 1.5) <= g + 1e-12


def test_p_not_blocked_Z_reference_value():
    m = _reference_model()
    s = SelfBlockModel(theta=math.radians(45.0))
    assert p_not_blocked_Z(m, s, 10_000.0) == pytest.approx(
        0.86026922458743304, rel=1e-12)


def test_p_not_blocked_Z_structure():
    m = _reference_model()
    no_body = p_not_blocked_Z(m, SelfBlockModel(theta=0.0), 10_000.0)
    half = p_not_blocked_Z(m, SelfBlockModel(theta=math.pi), 10_000.0)
    assert half == pytest.approx(0.5 * no_body, rel=1e-12)
    assert p_not_blocked_Z(m, SelfBlockModel(theta=2 * math.pi), 10_000.0) == 0.0
    with pytest.raises(ValueError):
        p_not_blocked_Z(m, SelfBlockModel(theta=0.0), 0.0)


# ---------------------------------------------------------------------------
# Poisson sampling


def test_poisson_count_zero_and_negative_mean():
    rng = np.random.default_rng(0)
    assert poisson_counts(rng, 0.0) == 0
    with pytest.raises(ValueError):
        poisson_counts(rng, [1.0, -0.5])


@pytest.mark.parametrize("mean", [0.3, 7.0, 80.0])
def test_poisson_count_moments(mean):
    rng = np.random.default_rng(1234)
    n = 40_000
    draws = poisson_counts(rng, np.full(n, mean))
    se_mean = math.sqrt(mean / n)
    assert draws.mean() == pytest.approx(mean, abs=4.5 * se_mean)
    # Poisson variance equals the mean; allow a generous band
    assert draws.var() == pytest.approx(mean, rel=0.1)


def test_poisson_count_monotone_in_mean_for_shared_uniform():
    # inversion takes one uniform per entry, so under a shared stream every
    # entry's count is monotone in its own mean up to the mean-60 switch
    means = np.linspace(0.0, 60.0, 241)
    for seed in range(20):
        low = poisson_counts(np.random.default_rng(seed), means)
        for scale in (1.01, 1.5, 2.0):
            high = poisson_counts(np.random.default_rng(seed),
                                  np.minimum(scale * means, 60.0))
            assert (high >= low).all()
            assert (high > low).any()


def test_poisson_count_scalar_mean_matches_length_one_vector():
    # a scalar mean draws exactly what a length-1 vector does, in both
    # regimes, and leaves the generator in the same state
    for mean in (0.3, 5.0, 59.9, 61.0, 5000.0):
        for seed in range(50):
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            assert poisson_counts(a, mean) == poisson_counts(b, [mean])[0]
            assert a.random() == b.random()
