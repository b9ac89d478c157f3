"""Blockage-field statistics: frozen constants, series accuracy, sampling."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risrates import geometry, montecarlo, stochastic
from risrates.geometry import Point2D
from risrates.montecarlo import poisson_counts
from risrates.stochastic import (
    RandomObstacleModel,
    SelfBlockModel,
    _SERIES_SWITCH,
    p_blocked_static,
    p_not_blocked_Z,
    p_self_blocked,
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
    with mp.workdps(50):
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
    # a NaN mean is refused, as numpy's own sampler refuses it, not drawn
    # as a count of 0
    with pytest.raises(ValueError):
        poisson_counts(rng, math.nan, 5)
    with pytest.raises(ValueError):
        poisson_counts(rng, [1.0, math.nan])


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


def _reference_inversion(rng, means):
    """poisson_counts below the mean-60 switch as one loop over k for every
    entry, the form the one-mean table must reproduce. A uniform above the
    whole summed CDF counts the last k whose term is nonzero."""
    m = np.asarray(means, dtype=float)
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
        spent = remaining & (pk == 0.0)
        c[spent] = k - 1
        remaining &= ~spent
    return c


def _one_mean_counts(rng, mean, n):
    """n Poisson(mean) counts from n uniforms of rng, by the one-mean table
    (invert_drawn), as an array of every entry's count."""
    counts = np.zeros(n, dtype=np.int64)
    drew, k = montecarlo.invert_drawn(mean, rng.random(n))
    counts[drew] = k
    return counts


@pytest.mark.parametrize("n", [1, 7, 4096])
def test_one_mean_table_matches_inversion_loop(n):
    means = [0.0, 1e-9, 0.0429, *np.linspace(0.0, 60.0, 61)[1:], 60.0]
    for mean in means:
        for seed in range(5):
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            got = _one_mean_counts(a, mean, n)
            assert np.array_equal(got, _reference_inversion(b, np.full(n, mean)))
            assert a.bit_generator.state == b.bit_generator.state


def test_table_cache_keeps_means_apart():
    # one generator pair walks through means in turn, each several times,
    # neighbours in the list one ulp or one step of the d_U sweep apart: a
    # table cached for one mean must never serve another
    montecarlo._table.cache_clear()
    means = [0.0429, 5.0, np.nextafter(5.0, 6.0), 0.5278, 60.0, 0.0, 13.66,
             np.nextafter(60.0, 0.0)]
    a, b = np.random.default_rng(11), np.random.default_rng(11)
    for rnd in range(3):
        for i, mean in enumerate(means):
            n = (1, 7, 4096)[(rnd + i) % 3]
            got = _one_mean_counts(a, mean, n)
            assert np.array_equal(got, _reference_inversion(b, np.full(n, mean)))
            assert a.bit_generator.state == b.bit_generator.state
    info = montecarlo._table.cache_info()
    assert info.currsize == len(means)
    assert info.hits == 2 * len(means)
    table = montecarlo._table(5.0)[0]
    with pytest.raises(ValueError):
        table[0] = 1.0
    assert not np.array_equal(table,
                              montecarlo._table(np.nextafter(5.0, 6.0))[0])


@pytest.mark.parametrize("mean", [0.043, 0.5, 10.0, 59.9, 60.0])
def test_guide_table_counts_what_a_plain_search_counts(mean):
    # the uniforms where a count can change: every CDF entry and its two
    # float neighbours, every guide bin edge and its neighbours, and a
    # random spread; all kept inside [0, 1) as a generator's would be
    m = np.float64(mean)
    cdf = montecarlo._table(mean)[0]
    edges = np.arange(montecarlo._GUIDE) / montecarlo._GUIDE
    probes = [cdf, edges, np.random.default_rng(8).random(100_000)]
    probes += [np.nextafter(p, side) for p in probes[:2] for side in (0.0, 1.0)]
    u = np.concatenate(probes)
    u = u[(u >= 0.0) & (u < 1.0)]
    drew, k = montecarlo.invert_drawn(m, u)
    assert k.dtype == np.int64
    assert np.array_equal(drew, np.flatnonzero(u > cdf[0]))
    plain = np.searchsorted(cdf, u[drew], side="left")
    inside = plain < cdf.size
    assert np.array_equal(k[inside], plain[inside])
    # a uniform past the whole table goes to the loop, as before
    assert np.array_equal(
        k[~inside],
        montecarlo._invert(np.full((~inside).sum(), m), u[drew[~inside]]))


def test_table_last_is_the_loop_count_past_the_table():
    # the table's last count is what the loop over k counts for a uniform
    # above the whole table, on a grid of means and at each one's one-ulp
    # neighbours; the table's arrays are read-only
    grid = np.linspace(0.0, montecarlo.SWITCH, 121)
    means = np.concatenate([grid, np.nextafter(grid, -1.0),
                            np.nextafter(grid, np.inf)])
    for mean in means[means >= 0.0]:
        cdf, guide, split, last = montecarlo._table(float(mean))
        u = np.nextafter(cdf[-1], 2.0)
        assert montecarlo._invert(np.array([mean]), np.array([u]))[0] == last
        assert not any(a.flags.writeable for a in (cdf, guide, split))


def test_walking_distinct_means_builds_one_table_each():
    # a table holds everything a mean's inversion needs: one build a mean
    # however often invert_drawn asks for it, and none for poisson_counts,
    # whose inversion loop needs no table
    montecarlo._table.cache_clear()
    means = [0.0, 0.0429, 1.0, np.nextafter(1.0, 2.0), 7.5, 30.0, 59.9,
             montecarlo.SWITCH]
    rng = np.random.default_rng(5)
    for _ in range(3):
        for mean in means:
            poisson_counts(rng, mean, 64)
            montecarlo.invert_drawn(mean, rng.random(64))
    assert montecarlo._table.cache_info().misses == 8


def test_one_shared_mean_broadcasts_to_size():
    # a one-element mean with a size draws what the full array draws
    for mean in (0.0, 0.0429, 7.5, 60.0, 61.0):
        for n in (1, 7, 4096):
            a, b = np.random.default_rng(3), np.random.default_rng(3)
            assert np.array_equal(poisson_counts(a, [mean], n),
                                  poisson_counts(b, np.full(n, mean)))
            assert a.bit_generator.state == b.bit_generator.state


class _TopUniform:
    """Stands in for a generator whose every uniform is the largest double
    below 1."""

    def random(self, shape):
        return np.full(shape, 1.0 - 2.0 ** -53)


def _last_nonzero_term(mean):
    """Last k whose term p_k = p_(k-1) * (mean / k) has not underflowed."""
    pk, k = np.exp(-mean), 0
    while pk * (mean / (k + 1)) > 0.0:
        k += 1
        pk = pk * (mean / k)
    return k


def test_inversion_cap_is_the_last_nonzero_term():
    # for some means the summed CDF stops short of 1 - 2**-53 and the count
    # is capped at the last k whose term is nonzero; for others it reaches
    # that uniform first. The one-mean table and poisson_counts's loop give
    # the same count.
    means = np.linspace(0.0, 60.0, 121)
    expected = _reference_inversion(_TopUniform(), means)
    assert np.array_equal(poisson_counts(_TopUniform(), means), expected)
    capped = 0
    for mean, want in zip(means, expected):
        assert np.array_equal(_one_mean_counts(_TopUniform(), mean, 3),
                              np.full(3, want))
        last = _last_nonzero_term(mean)
        assert want <= last
        capped += int(want == last)
    assert 0 < capped < 121
    # mean 0.1 once counted 2001 on both paths
    assert _last_nonzero_term(0.1) == 121
    assert (_one_mean_counts(_TopUniform(), 0.1, 3) == 121).all()
    assert poisson_counts(_TopUniform(), [0.1, 0.2])[0] == 121


def test_mixed_means_go_through_the_inversion_loop(monkeypatch):
    def refuse(m, u):
        raise AssertionError("one-mean table used for mixed means")

    monkeypatch.setattr(montecarlo, "invert_drawn", refuse)
    means = np.array([0.2, 5.0, 5.0, 59.0])
    for seed in range(20):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        assert np.array_equal(poisson_counts(a, means),
                              _reference_inversion(b, means))


# ---------------------------------------------------------------------------
# the shared formulas in another numeric namespace


def test_shared_formulas_follow_a_swapped_math(monkeypatch):
    # the displacement and event formulas read their module's math when
    # called, so mpmath in its place carries 50 digits through them; each
    # reference evaluates the same float inputs directly in mpmath
    mp, mpf = mpmath.mp, mpmath.mpf
    monkeypatch.setattr(geometry, "math", mpmath)
    monkeypatch.setattr(stochastic, "math", mpmath)
    with mp.workdps(50):
        def close(got, want):
            return isinstance(got, mpf) and abs(got - want) < mpf(10) ** -40

        def r2(r, d_U, xi):
            return (mpf(r) ** 2 + mpf(d_U) ** 2
                    - 2 * mpf(r) * mpf(d_U) * mpmath.cos(mp.pi - mpf(xi)))

        assert close(geometry.displaced_distance_sq(3, 0.5, 1), r2(3, 0.5, 1))
        l2, heading = geometry.displaced_position(Point2D(10.0, 4.0), 0.7, -1,
                                                  2.5, 1.1)
        h = mpf(0.7) + mp.pi - mpf(1.1)
        assert close(heading, h)
        assert close(l2.x, 10 + mpf(2.5) * mpmath.cos(h))
        assert close(l2.y, 4 + mpf(2.5) * mpmath.sin(h))
        pz, density = 0.37, 0.1
        got = stochastic.event_probability(pz, density, 3.0, 0.5, 1.0)
        want = -mpmath.expm1(-mpf(pz * density) * mp.pi * r2(3.0, 0.5, 1.0))
        assert close(got, want)
