"""Shard-level and estimator-level checks for the Monte Carlo engines."""

import dataclasses
import math

import numpy as np
import pytest

from risrates import (
    Estimate,
    MoveGeometry,
    displaced_distance,
    displaced_position,
    estimate_ho,
    estimate_rr,
    load_packaged,
    marginal_p_ho,
    p_rr_known,
    rr_probability_known,
)
from risrates.geometry import (TWO_PI, Point2D, SegmentObstacle,
                               wall_shadow_interval)
from risrates.montecarlo import (SHARD_SIZE, _candidate_mask, _ho_shard,
                                 _rr_shard, _wall_wedges, rr_candidate_count)
from risrates.scenarios import Deterministic, MobilitySpec, Uniform, draw_law
from risrates.stochastic import SelfBlockModel, poisson_counts

XI45 = math.radians(45.0)


def _static(name: str):
    return load_packaged(f"table3-static-{name}").scenario


def test_outcome_and_estimate_validation():
    with pytest.raises(ValueError):
        Estimate(mean=1.2, stderr=0.0, trials=10, seed=0)
    with pytest.raises(ValueError):
        Estimate(mean=0.5, stderr=0.01, trials=0, seed=0)


# ---------------------------------------------------------------------------
# explicit-field candidate predicate, one scene per blocking mechanism


def test_field_predicate_blocking_mechanisms():
    noob = _static("noobstacle")
    obst = _static("obstacle")
    selfb = _static("selfblock")
    # displaced position is (7.304, 3.702); coverage radius 3.6955;
    # the wall throws a shadow over bearings -16.7..14.0 degrees from the
    # base station; the body sector covers bearings 264..304 degrees from
    # the displaced point.
    cases = [
        # (point, expected in noobstacle / obstacle / selfblock)
        ((9.0, 6.6), True, True, True),      # unobstructed
        ((8.0, 1.5), True, True, False),     # inside the body sector only
        ((5.6, 1.0), True, False, True),     # sight line crosses the segment
        ((9.5, 4.5), False, False, False),   # wall shadow
        ((6.81, 6.3), False, False, False),  # serving exclusion circle
        ((2.0, 9.0), False, False, False),   # beyond the coverage radius
    ]
    for pt, e_no, e_ob, e_sb in cases:
        field = np.array([pt])
        assert rr_candidate_count(noob, field, 2.0, XI45) == e_no
        assert rr_candidate_count(obst, field, 2.0, XI45) == e_ob
        assert rr_candidate_count(selfb, field, 2.0, XI45) == e_sb

    field = np.array([c[0] for c in cases])
    assert rr_candidate_count(noob, field, 2.0, XI45) == 3
    assert rr_candidate_count(obst, field, 2.0, XI45) == 2
    assert rr_candidate_count(selfb, field, 2.0, XI45) == 2


def test_field_predicate_radius_is_strict():
    noob = _static("noobstacle")
    l2 = (7.303998130045147, 3.7019690437593795)
    R = 3.695518130045147
    inside = (l2[0] + 0.999 * R * 0.5, l2[1] + 0.999 * R * math.sqrt(3) / 2)
    outside = (l2[0] + 1.001 * R * 0.5, l2[1] + 1.001 * R * math.sqrt(3) / 2)
    assert rr_candidate_count(noob, np.array([inside]), 2.0, XI45) == 1
    assert rr_candidate_count(noob, np.array([outside]), 2.0, XI45) == 0


def test_zero_displacement_trial_has_no_event():
    scene = _static("noobstacle")
    # without a move the coverage disk is the exclusion circle: no point of
    # a dense field can be a candidate, and no trial of a shard succeeds
    x0, y0, x1, y1 = scene.room
    field = np.random.default_rng(9).uniform((x0, y0), (x1, y1), (5000, 2))
    assert rr_candidate_count(scene, field, 0.0, XI45) == 0
    still = MobilitySpec(Deterministic(0.0), Deterministic(XI45))
    assert _rr_shard(scene, still, 200, np.random.default_rng(9)) == 0


# ---------------------------------------------------------------------------
# the candidate kernel against the bearing-based reference predicate


def _reference_candidates(scene, px, py, l2x, l2y, R, heading, trial_idx):
    """Every predicate on every point, wedges tested by bearings (arctan2
    and a modulo): the reference for the compress-first kernel."""
    tx = l2x[trial_idx]
    ty = l2y[trial_idx]
    dx = px - tx
    dy = py - ty
    ok = dx * dx + dy * dy < R[trial_idx] ** 2
    r = scene.serving_ris_distance
    ex = px - scene.ue.x
    ey = py - scene.ue.y
    ok &= ex * ex + ey * ey >= r * r
    if scene.walls:
        ang = np.arctan2(py - scene.enb.y, px - scene.enb.x)
        for wall in scene.walls:
            start, width = wall_shadow_interval(scene.enb, wall)
            ok &= (ang - start) % TWO_PI > width
    for obs in scene.extra_obstacles:
        ax, ay, bx, by = obs.a.x, obs.a.y, obs.b.x, obs.b.y
        d1 = (bx - ax) * (ty - ay) - (by - ay) * (tx - ax)
        d2 = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
        d3 = (px - tx) * (ay - ty) - (py - ty) * (ax - tx)
        d4 = (px - tx) * (by - ty) - (py - ty) * (bx - tx)
        ok &= ~((d1 * d2 <= 0.0) & (d3 * d4 <= 0.0))
    if scene.self_block is not None and scene.self_block.theta > 0.0:
        theta = scene.self_block.theta
        if scene.self_block_direction is None:
            direction = heading[trial_idx]
        else:
            direction = np.full(len(px), scene.self_block_direction)
        off = (np.arctan2(dy, dx) - (direction - 0.5 * theta)) % TWO_PI
        ok &= off > theta
    return ok


def _kernel_scenes():
    noob = _static("noobstacle")
    yield "wall", noob
    yield "obstacle", _static("obstacle")
    # base station mid-room: one wedge straddles the +-pi bearing cut
    yield "walls-across-bearing-cut", dataclasses.replace(
        noob, enb=Point2D(5.0, 5.0),
        walls=(SegmentObstacle(Point2D(3.0, 4.0), Point2D(3.0, 6.0)),
               SegmentObstacle(Point2D(8.0, 1.0), Point2D(9.0, 3.0))))
    for deg in (45, 90, 180, 270, 360):
        for direction in (None, math.radians(70.0)):
            yield f"body-{deg}-{direction}", dataclasses.replace(
                _static("selfblock"),
                self_block=SelfBlockModel(math.radians(deg)),
                self_block_direction=direction)


@pytest.mark.parametrize("mobility", [
    MobilitySpec(Uniform(0.5, 2.5), Uniform(0.0, math.pi)),
    MobilitySpec(Deterministic(2.0), Deterministic(XI45)),
], ids=["per-trial", "shared"])
@pytest.mark.parametrize("label, scene", list(_kernel_scenes()),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_candidate_kernel_matches_reference(label, scene, mobility):
    rng = np.random.default_rng(2024)
    n = 400
    speeds = draw_law(rng, mobility.speed_law, n)
    angles = draw_law(rng, mobility.angle_law, n)
    heading = scene.ris_direction + math.pi + scene.orientation * angles
    l2x = scene.ue.x + speeds * np.cos(heading)
    l2y = scene.ue.y + speeds * np.sin(heading)
    r = scene.serving_ris_distance
    R = np.sqrt(r * r + speeds * speeds
                - 2.0 * r * speeds * np.cos(math.pi - angles))
    counts = rng.poisson(50.0, n)
    trial_idx = np.repeat(np.arange(n), counts)
    x0, y0, x1, y1 = scene.room
    px = rng.uniform(x0, x1, len(trial_idx))
    py = rng.uniform(y0, y1, len(trial_idx))

    expected = np.flatnonzero(_reference_candidates(
        scene, px, py, l2x, l2y, R, heading, trial_idx))
    idx, ok = _candidate_mask(scene, _wall_wedges(scene), px, py, l2x, l2y,
                              R, heading, trial_idx)
    np.testing.assert_array_equal(idx[ok], expected)
    if scene.self_block is not None and scene.self_block.theta == TWO_PI:
        assert len(expected) == 0
    else:
        assert 0 < len(expected) < len(px) // 4


# ---------------------------------------------------------------------------
# pathwise monotonicity under a shared seed


def test_ho_trials_monotone_in_density():
    # one-trial shards: a denser field only appends nodes, each with its
    # three uniforms, after an identical prefix, so a handover at the lower
    # density is kept at the higher one
    base = load_packaged("table4-unknown").scenario
    # scale down so the Poisson mean stays in the inversion regime, where
    # the coupled-prefix property holds
    small = dataclasses.replace(base, lambda_eNB=1e-4, r_eNB=30.0)
    denser = dataclasses.replace(small, lambda_eNB=3e-4)
    mobility = MobilitySpec(Deterministic(2.0), Deterministic(XI45))
    differ = 0
    for seed in range(40):
        low = _ho_shard(small, mobility, 1, np.random.default_rng(seed))
        high = _ho_shard(denser, mobility, 1, np.random.default_rng(seed))
        assert high >= low
        differ += high != low
    assert differ > 0


# ---------------------------------------------------------------------------
# estimators


def test_estimate_rr_deterministic_and_sharded():
    scene = _static("noobstacle")
    mob = MobilitySpec(speed_law=Deterministic(2.0),
                       angle_law=Deterministic(XI45))
    a = estimate_rr(scene, mob, Z=6000, seed=3)
    b = estimate_rr(scene, mob, Z=6000, seed=3)
    c = estimate_rr(scene, mob, Z=6000, seed=4)
    assert a == b
    assert a.mean != c.mean
    assert a.trials == 6000

    # the estimator must equal a manual shard-by-shard accumulation
    successes = 0
    for shard_idx, n in enumerate((SHARD_SIZE, 6000 - SHARD_SIZE)):
        rng = np.random.default_rng(np.random.SeedSequence((3, shard_idx)))
        successes += _rr_shard(scene, mob, n, rng)
    assert a.mean == successes / 6000


# estimate_rr(..., Z=20_000, seed=0).mean of the bearing-based kernel. The
# values lock the draw order (speeds, angles, count uniforms, all x, then
# all y) and the predicate; lambda_RIS = 0.8 per m^2 puts 80 nodes in the
# mean, so the counts come from the generator's Poisson branch.
PINNED_RR = [
    ("table3-static-noobstacle", None, 0.63855),
    ("table3-static-obstacle", None, 0.557),
    ("table3-static-selfblock", None, 0.51065),
    ("table3-uniform-noobstacle", None, 0.4322),
    ("table3-uniform-obstacle", None, 0.41275),
    ("table3-uniform-selfblock", None, 0.28715),
    ("table3-static-obstacle", 0.8, 0.9986),
]


@pytest.mark.parametrize("name, lam, mean", PINNED_RR)
def test_estimate_rr_pinned_at_seed_0(name, lam, mean):
    scene = load_packaged(name).scenario
    if lam is not None:
        scene = dataclasses.replace(scene, lambda_RIS=lam)
    assert estimate_rr(scene, scene.mobility, Z=20_000, seed=0).mean == mean


def test_estimate_rr_matches_closed_form():
    scene = _static("noobstacle")
    mob = MobilitySpec(speed_law=Deterministic(2.0),
                       angle_law=Deterministic(XI45))
    est = estimate_rr(scene, mob, Z=20_000, seed=1)
    closed = p_rr_known(10.228142693519818, scene.lambda_RIS)
    assert abs(est.mean - closed) <= 4.0 * max(est.stderr, 1e-4)


@pytest.mark.parametrize("name", ["obstacle", "selfblock"])
def test_estimate_rr_matches_closed_form_off_nominal(name):
    scene = _static(name)
    x0, y0, x1, y1 = scene.room
    for d, xi_deg in ((1.2, 55.0), (1.4, 60.0), (1.6, 60.0), (1.8, 65.0)):
        xi = math.radians(xi_deg)
        # the closed form integrates over the plane and the trials over the
        # room: they agree where disk(L2, R) stays inside the room
        R = displaced_distance(MoveGeometry(scene.serving_ris_distance, d, xi))
        l2, _ = displaced_position(scene.ue, scene.ris_direction,
                                   scene.orientation, d, xi)
        assert x0 <= l2.x - R and l2.x + R <= x1
        assert y0 <= l2.y - R and l2.y + R <= y1
        closed = rr_probability_known(scene, d, xi)
        est = estimate_rr(scene, MobilitySpec(speed_law=Deterministic(d),
                                              angle_law=Deterministic(xi)),
                          Z=100_000, seed=11)
        assert abs(est.mean - closed) <= max(0.01, 3.0 * est.stderr), (d, xi_deg)


def test_estimate_ho_matches_closed_form():
    s = load_packaged("table4-unknown").scenario
    est = estimate_ho(s, s.mobility, Z=20_000, seed=2)
    assert abs(est.mean - marginal_p_ho(s)) <= 4.0 * max(est.stderr, 1e-4)


def test_estimators_reject_empty_runs():
    scene = _static("noobstacle")
    s = load_packaged("table4-unknown").scenario
    with pytest.raises(ValueError):
        estimate_rr(scene, scene.mobility, Z=0)
    with pytest.raises(ValueError):
        estimate_ho(s, s.mobility, Z=0)


def test_stationary_users_never_trigger_events():
    scene = _static("noobstacle")
    mob = MobilitySpec(speed_law=Deterministic(0.0),
                       angle_law=Deterministic(XI45))
    assert estimate_rr(scene, mob, Z=2000, seed=0).mean == 0.0
    s = load_packaged("table4-unknown").scenario
    assert estimate_ho(s, mob, Z=2000, seed=0).mean == 0.0


# ---------------------------------------------------------------------------
# vectorized Poisson counts


def test_poisson_counts_moments_both_regimes():
    rng = np.random.default_rng(10)
    for mean in (0.7, 12.0, 80.0):
        counts = poisson_counts(rng, np.full(30_000, mean))
        se = math.sqrt(mean / 30_000)
        assert counts.mean() == pytest.approx(mean, abs=4.5 * se)
        assert counts.var() == pytest.approx(mean, rel=0.1)


def test_poisson_counts_zero_mean_and_mixed_vector():
    rng = np.random.default_rng(0)
    means = np.array([0.0, 5.0, 0.0, 70.0])
    counts = poisson_counts(rng, means)
    assert counts[0] == 0
    assert counts[2] == 0
    assert counts.shape == (4,)
    assert counts.dtype.kind == "i"
