"""Shard-level and estimator-level checks for the Monte Carlo engines."""

import dataclasses
import functools
import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from risrates import montecarlo
from risrates.geometry import (TWO_PI, Point2D, SegmentObstacle,
                               displaced_distance_sq, wall_shadow_interval,
                               wall_shadow_wedges)
from risrates.montecarlo import (HO_RUN, RR_RUN, SHARD_SIZE, _candidate_mask,
                                 _estimate, _ho_run, _invert, _rr_run,
                                 _workspace, draw_law, poisson_counts)
from risrates.scenarios import (Deterministic, MobilitySpec, Uniform,
                                is_point_mass)
from risrates.stochastic import (RandomObstacleModel, SelfBlockModel,
                                 p_self_blocked)

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


def rr_candidate_count(scene, points, d_U, xi):
    """Viable new serving candidates among explicit points at one
    displacement: _candidate_mask with the displacement as scalars."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    l2, heading = displaced_position(scene.ue, scene.ris_direction,
                                     scene.orientation, d_U, xi)
    R = displaced_distance(MoveGeometry(scene.serving_ris_distance, d_U, xi))
    walls = wall_shadow_wedges(scene.enb, scene.walls)
    _, ok = _candidate_mask(scene, walls, pts[:, 0], pts[:, 1],
                            np.full(1, l2.x), np.full(1, l2.y), np.full(1, R),
                            np.full(1, heading))
    return int(np.count_nonzero(ok))


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
    assert _rr_run(scene, still, [200], [np.random.default_rng(9)],
                   wall_shadow_wedges(scene.enb, scene.walls)) == 0


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
    walls = wall_shadow_wedges(scene.enb, scene.walls)
    idx, ok = _candidate_mask(scene, walls, px, py, l2x, l2y, R, heading,
                              trial_idx)
    np.testing.assert_array_equal(idx[ok], expected)
    if scene.self_block is not None and scene.self_block.theta == TWO_PI:
        assert len(expected) == 0
    else:
        assert 0 < len(expected) < len(px) // 4


# ---------------------------------------------------------------------------
# the blocked RR shard against its whole-shard form


def _reference_rr_successes(scene, mobility, n, rng, walls):
    """The RR shard with every node of the shard in one _candidate_mask
    call: n-long trial indices by np.repeat, shard-long temporaries."""
    speeds = draw_law(rng, mobility.speed_law, n)
    angles = draw_law(rng, mobility.angle_law, n)
    x0, y0, x1, y1 = scene.room
    mean = scene.lambda_RIS * (x1 - x0) * (y1 - y0)
    counts = poisson_counts(rng, mean, n)
    total = int(counts.sum())
    if total == 0:
        return 0
    px = rng.uniform(x0, x1, total)
    py = rng.uniform(y0, y1, total)

    away = scene.ris_direction + math.pi
    heading = away + scene.orientation * angles
    l2x = scene.ue.x + speeds * np.cos(heading)
    l2y = scene.ue.y + speeds * np.sin(heading)
    R = np.sqrt(displaced_distance_sq(scene.serving_ris_distance, speeds,
                                      angles, np))
    trial_idx = np.repeat(np.arange(n), counts)
    idx, ok = _candidate_mask(scene, walls, px, py, l2x, l2y, R, heading,
                              trial_idx)
    hits = np.zeros(n, dtype=bool)
    hits[trial_idx[idx.compress(ok)]] = True
    hits &= speeds > 0.0
    return int(np.count_nonzero(hits))


def _ahead(rng, k):
    """A copy of rng's PCG64 stream, k doubles further on."""
    bg = np.random.PCG64(0)  # a fixed seed skips the entropy read
    bg.state = rng.bit_generator.state
    return np.random.Generator(bg.advance(k))


def _rr_successes(scene, mobility, n, rng, walls):
    """The RR shard one shard at a time, as the package ran it before runs
    of shards: its nodes judged in blocks of _BLOCK in one _workspace, x
    drawn from rng into the workspace and y from a copy of the stream
    started past all x, the trial index built by np.add.at and cumsum."""
    speeds, angles = (draw_law(rng, law, 1 if is_point_mass(law) else n)
                      for law in (mobility.speed_law, mobility.angle_law))
    x0, y0, x1, y1 = scene.room
    mean = scene.lambda_RIS * (x1 - x0) * (y1 - y0)
    ends = np.cumsum(poisson_counts(rng, mean, n))
    total = int(ends[-1])
    if total == 0:
        return 0
    y_rng = _ahead(rng, total)

    away = scene.ris_direction + math.pi
    heading = away + scene.orientation * angles
    l2x = scene.ue.x + speeds * np.cos(heading)
    l2y = scene.ue.y + speeds * np.sin(heading)
    R = np.sqrt(displaced_distance_sq(scene.serving_ris_distance, speeds,
                                      angles, np))
    shared = l2x.size == 1
    if not shared:
        l2x, l2y, R, heading = np.broadcast_arrays(l2x, l2y, R, heading)
    block = montecarlo._BLOCK
    work = _workspace(min(block, total), not shared)
    f = work[0]
    hits = np.zeros(n, dtype=bool)
    for start in range(0, total, block):
        stop = min(start + block, total)
        px, py = f[0, :stop - start], f[1, :stop - start]
        rng.random(out=px)
        px *= x1 - x0
        px += x0
        y_rng.random(out=py)
        py *= y1 - y0
        py += y0
        lo, hi = np.searchsorted(ends, (start, stop - 1), side="right")
        own = slice(lo, hi + 1)
        if shared:
            idx, ok = _candidate_mask(scene, walls, px, py, l2x, l2y, R,
                                      heading, work=work)
        else:
            trial = np.zeros(stop - start, dtype=np.intp)
            np.add.at(trial, ends[lo:hi] - start, 1)
            np.cumsum(trial, out=trial)
            idx, ok = _candidate_mask(scene, walls, px, py, l2x[own],
                                      l2y[own], R[own], heading[own], trial,
                                      work)
        before = np.searchsorted(idx.compress(ok), ends[own] - start)
        hits[own] |= np.diff(before, prepend=0) > 0
    rng.bit_generator.state = y_rng.bit_generator.state
    hits &= speeds > 0.0
    return int(np.count_nonzero(hits))


def _node_total(scene, mobility, n, seed):
    """Nodes the RR shard of `seed` draws: its speed, angle and count draws
    replayed."""
    rng = np.random.default_rng(seed)
    draw_law(rng, mobility.speed_law, n)
    draw_law(rng, mobility.angle_law, n)
    x0, y0, x1, y1 = scene.room
    return int(poisson_counts(rng, scene.lambda_RIS * (x1 - x0) * (y1 - y0),
                              n).sum())


# Blocks of 7 and 64 nodes make trials straddle block edges. A 4096-trial
# shard runs only at blocks of 2^15 and of the default _BLOCK = 2^16 (at 7
# nodes per block its 650,000 nodes at lambda_RIS = 1.6 take about 8 s):
# about 1, 2, 10 and 20 blocks of 2^15 at 0.05, 0.1, 0.8 and 1.6, and 1, 1,
# 5 and 10 of 2^16 (a block judges 7/8 of _BLOCK nodes with fixed laws and
# half with a spread one, so a few more). Each case also runs with _BLOCK at
# exactly the shard's node total. The shifted room, 12.5 m by 8 m and away
# from the origin, scales and shifts the positions differently along x and
# y.
_FIXED = MobilitySpec(Deterministic(2.0), Deterministic(XI45))
_SPREAD = MobilitySpec(Uniform(0.5, 2.5), Uniform(0.0, math.pi))
_SHIFTED = (-0.75, 1.25, 11.75, 9.25)


@pytest.mark.parametrize("n, block", [
    (1, 7), (1, 64), (1, 2 ** 15),
    (7, 7), (7, 64), (7, 2 ** 15),
    (4096, 2 ** 15), (4096, montecarlo._BLOCK),
])
@pytest.mark.parametrize("mobility, room", [
    (_FIXED, None),
    (_SPREAD, None),
    # the table3-uniform-* shape, and its mirror
    (MobilitySpec(Uniform(0.5, 2.5), Deterministic(XI45)), None),
    (MobilitySpec(Deterministic(2.0), Uniform(0.0, math.pi)), None),
    (_FIXED, _SHIFTED),
    (_SPREAD, _SHIFTED),
], ids=["fixed", "spread", "spread-speed", "spread-angle",
        "fixed-shifted-room", "spread-shifted-room"])
@pytest.mark.parametrize("lam", [0.05, 0.1, 0.8, 1.6])
def test_blocked_rr_shard_matches_reference(monkeypatch, lam, mobility, room,
                                            n, block):
    # room of 100 m^2: means 5, 10, 80 and 160 nodes per trial, across the
    # mean-60 branch of the Poisson sampler
    scene = dataclasses.replace(_static("selfblock"), lambda_RIS=lam)
    if room is not None:
        scene = dataclasses.replace(scene, room=room)
    walls = wall_shadow_wedges(scene.enb, scene.walls)
    for seed in range(5):
        b = np.random.default_rng(seed)
        expected = _reference_rr_successes(scene, mobility, n, b, walls)
        total = _node_total(scene, mobility, n, seed)
        for size in (block, total):
            monkeypatch.setattr(montecarlo, "_BLOCK", max(size, 1))
            a = np.random.default_rng(seed)
            assert _rr_run(scene, mobility, [n], [a], walls) == expected, \
                (seed, size)
            assert a.bit_generator.state == b.bit_generator.state


# Every predicate at once: the self-blocking room with the obstacle room's
# segment, so a block runs the wall, segment and body-shadow tests.
_ALL_PREDICATES = dataclasses.replace(
    _static("selfblock"), extra_obstacles=_static("obstacle").extra_obstacles)
_STILL = MobilitySpec(Deterministic(0.0), Deterministic(XI45))


# Runs of RR_RUN shards end one trial short of and one trial past a run
# edge, and 3 shards and 5 trials leave a last shard of 5. Blocks of 7 and
# 1,000 nodes straddle trial and shard edges; the per-shard reference runs
# at the default _BLOCK. A block of 7 nodes (3 with the spread law) runs
# where the trials draw about 2,000 nodes or fewer: every Z at lambda_RIS 0
# and 0.001, and Z = 1 at 0.1 (the others would take seconds each).
@pytest.mark.parametrize("Z", [1, 4095, RR_RUN * SHARD_SIZE - 1,
                               RR_RUN * SHARD_SIZE + 1, 3 * SHARD_SIZE + 5])
@pytest.mark.parametrize("lam", [0.0, 0.001, 0.1, 0.8])
@pytest.mark.parametrize("mobility", [_FIXED, _SPREAD, _STILL],
                         ids=["fixed", "spread", "still"])
def test_rr_runs_match_per_shard_reference(monkeypatch, mobility, lam, Z):
    scene = dataclasses.replace(_ALL_PREDICATES, lambda_RIS=lam)
    walls = wall_shadow_wedges(scene.enb, scene.walls)
    shards = -(-Z // SHARD_SIZE)
    sizes = [min(SHARD_SIZE, Z - k * SHARD_SIZE) for k in range(shards)]
    reference = _seeded(3, shards)
    expected = sum(_rr_successes(scene, mobility, n, rng, walls)
                   for n, rng in zip(sizes, reference))
    assert estimate_rr(scene, mobility, Z, seed=3).mean == expected / Z
    blocks = [1000, 2 ** 15]
    if Z * lam * 100.0 <= 2_000:
        blocks.append(7)
    for block in blocks:
        monkeypatch.setattr(montecarlo, "_BLOCK", block)
        rngs = _seeded(3, shards)
        assert sum(_rr_run(scene, mobility, sizes[i:i + RR_RUN],
                           rngs[i:i + RR_RUN], walls)
                   for i in range(0, shards, RR_RUN)) == expected, block
        for k, (a, b) in enumerate(zip(rngs, reference)):
            assert a.bit_generator.state == b.bit_generator.state, (block, k)


def _run_peak(scene, mobility):
    """Peak traced bytes of one run of RR_RUN full shards at seed 0, and
    the nodes it draws."""
    walls = wall_shadow_wedges(scene.enb, scene.walls)
    total = sum(_node_total(scene, mobility, SHARD_SIZE,
                            np.random.SeedSequence((0, k)))
                for k in range(RR_RUN))
    rngs = _seeded(0, RR_RUN)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _rr_run(scene, mobility, [SHARD_SIZE] * RR_RUN, rngs, walls)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak, total


# A run streams its x and y positions block by block and judges each block
# in scratch, so it holds no node-long array. This older, looser bound
# allows one: at lambda_RIS = 0.1 and 1.6 a run of RR_RUN 4096-trial shards
# must peak below 8 bytes per node it draws plus 16 _BLOCK-long float
# arrays. It was set before measuring; a shard that holds both its x and its
# y positions (16 bytes per node) exceeds it at 1.6 with _BLOCK = 2^15 or
# 2^16. The next test pins the tighter bound with no per-node term.
@pytest.mark.parametrize("mobility", [_FIXED, _SPREAD],
                         ids=["fixed", "spread"])
def test_rr_shard_memory_is_one_array_per_node(mobility):
    for lam in (0.1, 1.6):
        scene = dataclasses.replace(_static("selfblock"), lambda_RIS=lam)
        peak, total = _run_peak(scene, mobility)
        bound = 8 * total + 16 * 8 * montecarlo._BLOCK
        assert peak < bound, (lam, peak, bound, total)


# No array of a run is longer than a block or the run's trials: at
# lambda_RIS = 0.1 and 1.6 (about 41,000 and 655,000 nodes a shard) a run
# of RR_RUN 4096-trial shards must peak below 12 _BLOCK-long float arrays,
# with no per-node term. The bound was set before measuring; a shard that
# holds its x positions (8 bytes per node) exceeds it at 1.6.
@pytest.mark.parametrize("mobility", [_FIXED, _SPREAD],
                         ids=["fixed", "spread"])
def test_rr_shard_memory_is_independent_of_node_count(mobility):
    bound = 12 * 8 * montecarlo._BLOCK
    for lam in (0.1, 1.6):
        scene = dataclasses.replace(_static("selfblock"), lambda_RIS=lam)
        peak, _ = _run_peak(scene, mobility)
        assert peak < bound, (lam, peak, bound)


# A handover run draws its node uniforms block by block into one buffer, so
# its memory, like a reassignment run's, stays below 12 _BLOCK-long float
# arrays whatever the density: one run of HO_RUN 4096-trial shards on
# table4-unknown with a 358-degree body shadow, at lambda_eNB 1.5 and 6 per
# m^2 (means of about 64 and 256 base stations with the fixed speed, more
# with U(0.5, 15)). Runs that hold each shard's node uniforms whole, and
# then the run's, peaked at 19 to 556 MiB here.
@pytest.mark.parametrize("speed", [None, Uniform(0.5, 15.0)],
                         ids=["fixed", "spread-speed"])
def test_ho_run_memory_is_independent_of_node_count(speed):
    base = load_packaged("table4-unknown").scenario
    mobility = base.mobility
    if speed is not None:
        mobility = MobilitySpec(speed, mobility.angle_law)
    bound = 12 * 8 * montecarlo._BLOCK
    for lam in (1.5, 6.0):
        s = dataclasses.replace(base, lambda_eNB=lam,
                                self_block=SelfBlockModel(math.radians(358.0)))
        rngs = _seeded(0, HO_RUN)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            _ho_run(s, mobility, [SHARD_SIZE] * HO_RUN, rngs)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < bound, (lam, peak, bound)


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
        low = _ho_run(small, mobility, [1], [np.random.default_rng(seed)])
        high = _ho_run(denser, mobility, [1], [np.random.default_rng(seed)])
        assert high >= low
        differ += high != low
    assert differ > 0


# ---------------------------------------------------------------------------
# the handover shard against its whole-array form

UNKNOWN = ("table4-unknown", "mobility-dip", "obstacle-density",
           "dimensioning-speed10", "dimensioning-speed15")


def _reference_counts(rng, means):
    """Poisson counts over a full array of means with no one-mean table:
    the generator's sampler above 60, the inversion loop at and below."""
    counts = np.zeros(means.shape, dtype=np.int64)
    big = means > 60.0
    if big.any():
        counts[big] = rng.poisson(means[big])
    small = ~big
    if small.any():
        m = means[small]
        counts[small] = _invert(m, rng.random(m.shape))
    return counts


def _reference_ho_shard(s, mobility, n, rng):
    """The handover shard as one array per trial for every quantity: n
    speeds, angles, R^2 and means, every trial expanded, hits by bincount."""
    speeds = draw_law(rng, mobility.speed_law, n)
    angles = draw_law(rng, mobility.angle_law, n)
    R2 = np.maximum(displaced_distance_sq(s.r_eNB, speeds, angles, np),
                    0.0)
    counts = _reference_counts(rng, s.lambda_eNB * math.pi * R2)
    total = int(counts.sum())
    if total == 0:
        return 0
    u = rng.random((total, 3))
    radii = s.R_LoS * np.sqrt(u[:, 0])
    m = s.obstacle_model
    alive = u[:, 1] < np.exp(-(m.beta * radii + m.beta0))
    alive &= u[:, 2] >= p_self_blocked(s.self_block)
    trial_idx = np.repeat(np.arange(n), counts)
    hits = np.bincount(trial_idx[alive], minlength=n) > 0
    hits &= speeds > 0.0
    return int(np.count_nonzero(hits))


def _ho_cases():
    for name in UNKNOWN:
        s = load_packaged(name).scenario
        yield name, s, s.mobility
    s = load_packaged("table4-unknown").scenario
    speed = Uniform(0.5, 15.0)
    angle = Uniform(0.0, math.pi)
    fixed_speed, fixed_angle = s.mobility.speed_law, s.mobility.angle_law
    yield "both-spread", s, MobilitySpec(speed, angle)
    yield "speed-spread", s, MobilitySpec(speed, fixed_angle)
    yield "angle-spread", s, MobilitySpec(fixed_speed, angle)
    # trials that do not move draw nodes but never hand over: U(0, 5e-324)
    # rounds about half its draws to a speed of exactly 0
    yield "speed-from-0", s, MobilitySpec(Uniform(0.0, 3.0), angle)
    yield "speed-0-or-subnormal", s, MobilitySpec(Uniform(0.0, 5e-324), angle)
    yield "still", s, MobilitySpec(Deterministic(0.0), fixed_angle)
    # means above 60 go to the generator's sampler; a body shadow of 358
    # degrees keeps most trials without a live node
    body = SelfBlockModel(math.radians(358.0))
    yield "mean-above-60", dataclasses.replace(
        s, lambda_eNB=1.5, self_block=body), s.mobility
    yield "means-across-60", dataclasses.replace(
        s, lambda_eNB=0.1, self_block=body), MobilitySpec(speed, fixed_angle)
    yield "theta-0", dataclasses.replace(
        s, self_block=SelfBlockModel(0.0)), s.mobility
    yield "lambda_B-0", dataclasses.replace(
        s, obstacle_model=RandomObstacleModel(0.0, 10.0, 10.0)), s.mobility


@pytest.mark.parametrize("n", [1, 7, 4096])
@pytest.mark.parametrize("label, s, mobility", list(_ho_cases()),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_ho_shard_matches_reference(label, s, mobility, n):
    for seed in range(5):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        assert _ho_run(s, mobility, [n], [a]) == _reference_ho_shard(
            s, mobility, n, b), seed
        assert a.bit_generator.state == b.bit_generator.state


def _at_mean(s, speed, angle, target):
    """s with a base-station density whose HO mean at this fixed speed and
    angle is exactly `target`, or None if no density within 64 ulps of
    target / mean-at-density-1 gives it."""
    unit = montecarlo._ho_means(dataclasses.replace(s, lambda_eNB=1.0),
                                speed, angle)
    lam = target / unit
    for i in range(64):
        for lam_i in (lam + i * np.spacing(lam), lam - i * np.spacing(lam)):
            t = dataclasses.replace(s, lambda_eNB=lam_i)
            if montecarlo._ho_means(t, speed, angle) == target:
                return t
    return None


@pytest.mark.parametrize("target", [60.0, np.nextafter(60.0, np.inf)],
                         ids=["at-switch", "one-ulp-above"])
def test_ho_run_at_the_inversion_switch_matches_reference(target):
    # _ho_run inverts a fixed mean up to the Poisson sampler's switch and
    # leaves a larger one to poisson_counts; the reference switches above 60
    # on its own, so a switch restated apart from the sampler's would show
    base = load_packaged("table4-unknown").scenario
    angle = base.mobility.angle_law
    for v in (1.0, 1.5, 4.0, 7.5):
        s = _at_mean(base, np.float64(v), np.float64(angle.value), target)
        if s is not None:
            break
    assert s is not None
    s = dataclasses.replace(s, self_block=SelfBlockModel(math.radians(358.0)))
    mobility = MobilitySpec(Deterministic(v), angle)
    for n in (1, 7, 4096):
        for seed in range(5):
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            assert _ho_run(s, mobility, [n], [a]) == _reference_ho_shard(
                s, mobility, n, b), (n, seed)
            assert a.bit_generator.state == b.bit_generator.state


def _seeded(seed, shards):
    return [np.random.default_rng(np.random.SeedSequence((seed, k)))
            for k in range(shards)]


def _ho_node_total(s, mobility, n, rng):
    """Nodes the HO shard of rng draws: its speed, angle and count draws
    replayed."""
    speeds = draw_law(rng, mobility.speed_law, n)
    angles = draw_law(rng, mobility.angle_law, n)
    R2 = np.maximum(displaced_distance_sq(s.r_eNB, speeds, angles, np),
                    0.0)
    return int(_reference_counts(rng, s.lambda_eNB * math.pi * R2).sum())


# Runs of HO_RUN shards end one trial short of, at and one trial past a
# run edge; 33 shards leave a last run of one partial shard. A block of
# 500 nodes gathers a few shards at a time at low means and splits a shard
# at high ones. Blocks of 1 and 7 nodes split shards and trials everywhere;
# they run where the trials draw 6,000 nodes or fewer, as every case does at
# Z = 1 and most at every Z, since each block is one judge call.
@pytest.mark.parametrize("Z", [1, 4095, HO_RUN * SHARD_SIZE - 1,
                               HO_RUN * SHARD_SIZE, HO_RUN * SHARD_SIZE + 1,
                               33 * SHARD_SIZE + 7])
@pytest.mark.parametrize("label, s, mobility", list(_ho_cases()),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_ho_runs_match_per_shard_reference(monkeypatch, label, s, mobility,
                                           Z):
    shards = -(-Z // SHARD_SIZE)
    sizes = [min(SHARD_SIZE, Z - k * SHARD_SIZE) for k in range(shards)]
    reference = _seeded(3, shards)
    expected = sum(_reference_ho_shard(s, mobility, n, rng)
                   for n, rng in zip(sizes, reference))
    assert estimate_ho(s, mobility, Z, seed=3).mean == expected / Z
    blocks = [montecarlo._BLOCK, 500]
    if sum(_ho_node_total(s, mobility, n, rng)
           for n, rng in zip(sizes, _seeded(3, shards))) <= 6_000:
        blocks += [1, 7]
    for block in blocks:
        monkeypatch.setattr(montecarlo, "_BLOCK", block)
        rngs = _seeded(3, shards)
        assert sum(_ho_run(s, mobility, sizes[i:i + HO_RUN],
                           rngs[i:i + HO_RUN])
                   for i in range(0, shards, HO_RUN)) == expected, block
        for k, (a, b) in enumerate(zip(rngs, reference)):
            assert a.bit_generator.state == b.bit_generator.state, (block, k)


# estimate_ho(..., Z=200_000, seed=0).mean, recorded with the whole-array
# shard (_reference_ho_shard). "mean-above-60" is table4-unknown at
# lambda_eNB = 1.5 per m^2 (64 base stations in the mean) and a body
# shadow of 358 degrees.
PINNED_HO = [
    ("table4-unknown", 0.03525),
    ("mobility-dip", 0.023405),
    ("obstacle-density", 0.027495),
    ("dimensioning-speed10", 0.156775),
    ("dimensioning-speed15", 0.364785),
    ("both-spread", 0.184685),
    ("mean-above-60", 0.2965),
]


@pytest.mark.parametrize("label, mean", PINNED_HO)
def test_estimate_ho_pinned_at_seed_0(label, mean):
    _, s, mobility = next(c for c in _ho_cases() if c[0] == label)
    assert estimate_ho(s, mobility, Z=200_000, seed=0).mean == mean


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
        successes += _rr_successes(scene, mob, n, rng,
                                   wall_shadow_wedges(scene.enb, scene.walls))
    assert a.mean == successes / 6000


@pytest.mark.parametrize("Z", [1, 4095, 4096, 4097, 3 * SHARD_SIZE + 5])
@pytest.mark.parametrize("laws", ["fixed", "spread"])
def test_estimate_independent_of_workers(laws, Z):
    room = _static("obstacle")
    s = load_packaged("table4-unknown").scenario
    if laws == "fixed":
        room_mob, ho_mob = room.mobility, s.mobility
    else:
        room_mob = MobilitySpec(Uniform(0.5, 2.5), Uniform(0.0, math.pi))
        ho_mob = MobilitySpec(Uniform(0.5, 15.0), Uniform(0.0, math.pi))
    rr = functools.partial(_rr_run, room, room_mob,
                           walls=wall_shadow_wedges(room.enb, room.walls))
    ho = functools.partial(_ho_run, s, ho_mob)
    for run_fn, run in ((rr, RR_RUN), (ho, HO_RUN)):
        one = _estimate(run_fn, Z, 5, workers=1, run=run)
        for workers in (2, 3, 8):
            assert _estimate(run_fn, Z, 5, workers=workers,
                             run=run) == one, (run_fn, workers)


# Every thread the manifest counts (mc_workers) gets a run: 4,097 trials on
# 2 threads and 9,000 on 3 run as runs of one shard, not as one run of 2 or
# 3 shards; 5 shards on 4 threads give 3 runs of 2 or 1, so 3 threads; 49
# shards (a sweep row of 200,000 trials) on 2 threads give 13 runs.
@pytest.mark.parametrize("Z, workers, threads", [
    (1, 2, 1), (SHARD_SIZE + 1, 2, 2), (9000, 3, 3), (5 * SHARD_SIZE, 4, 3),
    (49 * SHARD_SIZE, 2, 2), (200 * SHARD_SIZE, 8, 8)])
def test_runs_leave_no_thread_without_work(Z, workers, threads):
    lengths = []

    def run_fn(sizes, rngs):
        lengths.append(len(sizes))
        return 0

    est = _estimate(run_fn, Z, 0, workers=workers, run=RR_RUN)
    assert sum(lengths) == -(-Z // SHARD_SIZE) == est.shards
    assert len(lengths) >= threads and max(lengths) <= RR_RUN
    assert est.threads == threads


# shard k of a seed-0 estimate starts in the state of
# PCG64(SeedSequence((0, k))), for the first 200 shards
_SHARD_OF_STATE = {
    np.random.PCG64(np.random.SeedSequence((0, k))).state["state"]["state"]: k
    for k in range(200)}


def _shard_index(rng) -> int:
    return _SHARD_OF_STATE[rng.bit_generator.state["state"]["state"]]


def test_estimate_runs_every_shard_once_under_thread_switching():
    # more threads than cores, switching every microsecond: a shard index
    # claimed twice or lost shows in the list of shards run
    shards = 200
    ran = []

    def shard(sizes, rngs):
        (n,), (rng,) = sizes, rngs
        ran.append(_shard_index(rng))
        return n

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        est = _estimate(shard, shards * SHARD_SIZE - 3, 0, workers=8)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(ran) == list(range(shards))
    assert est.mean == 1.0


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_estimate_stops_and_reraises_the_first_failure(error):
    # shard 2 raises while shard 3 runs on a second thread, which raises
    # after it; the third thread, on shards of a millisecond each, must stop
    shards = 50
    raised = []
    calls = []
    entered_3 = threading.Event()
    raised_2 = threading.Event()

    def shard(sizes, rngs):
        (n,), (rng,) = sizes, rngs
        k = _shard_index(rng)
        calls.append(k)
        if k == 2:
            assert entered_3.wait(5.0)
            raised.append(error("shard 2"))
            raised_2.set()
            raise raised[-1]
        if k == 3:
            entered_3.set()
            assert raised_2.wait(5.0)
            time.sleep(0.05)
            raised.append(error("shard 3"))
            raise raised[-1]
        time.sleep(0.001)
        return n

    with pytest.raises(error) as info:
        _estimate(shard, shards * SHARD_SIZE, 0, workers=3)
    assert len(raised) == 2
    assert info.value is raised[0]
    assert len(calls) < shards


# ---------------------------------------------------------------------------
# shard generators derived in bulk


def _seeded_state(seed: int, k: int) -> dict:
    return np.random.PCG64(np.random.SeedSequence((seed, k))).state


# seeds of one to seven 32-bit words: with k's word, up to 8 entropy words,
# more than SeedSequence's pool of 4
KEY_SEEDS = [0, 1, 7, 2**32 - 1, 2**32, 2**64 + 5, 2**96, 2**200 + 12345]


@pytest.mark.parametrize("seed", KEY_SEEDS, ids=[
    "0", "1", "7", "2^32-1", "2^32", "2^64+5", "2^96", "2^200+12345"])
def test_shard_keys_give_the_seed_sequence_state(seed):
    keys = montecarlo._shard_keys(seed, 0, 5000)
    assert keys.shape == (5000, 4) and keys.dtype == np.uint64
    for k, key in enumerate(keys.tolist()):
        assert montecarlo._pcg64_state(key) == _seeded_state(seed, k), k
    # indices of two words take SeedSequence itself, also within a chunk
    for first in (2**31, 2**32 - 1, 2**32, 2**32 + 1, 2**32 - 2):
        for i, key in enumerate(montecarlo._shard_keys(seed, first,
                                                       3).tolist()):
            assert (montecarlo._pcg64_state(key)
                    == _seeded_state(seed, first + i)), (first, i)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**160), first=st.integers(0, 2**33),
       count=st.integers(1, 40))
def test_shard_keys_give_the_seed_sequence_state_anywhere(seed, first, count):
    keys = montecarlo._shard_keys(seed, first, count).tolist()
    assert [montecarlo._pcg64_state(key) for key in keys] == [
        _seeded_state(seed, first + i) for i in range(count)]


def test_negative_seed_raises_what_seed_sequence_raises():
    with pytest.raises(ValueError) as numpy_error:
        np.random.SeedSequence((-1, 0))
    with pytest.raises(ValueError) as keys_error:
        montecarlo._shard_keys(-1, 0, 1)
    s = load_packaged("table4-unknown").scenario
    with pytest.raises(ValueError) as estimate_error:
        estimate_ho(s, s.mobility, Z=100, seed=-1)
    assert (str(keys_error.value) == str(estimate_error.value)
            == str(numpy_error.value) == "expected non-negative integer")


def test_estimate_derives_keys_one_chunk_at_a_time(monkeypatch):
    # 2^28 shards: keys for all of them up front would take 8 GiB
    shard_keys = montecarlo._shard_keys
    asked = []

    def one_chunk(seed, first, count):
        assert not asked and count <= montecarlo._KEY_CHUNK, (first, count)
        asked.append((first, count))
        return shard_keys(seed, first, count)

    runs = []

    def run_fn(sizes, rngs):
        runs.append(len(sizes))
        if len(runs) == 3:
            raise RuntimeError("third run")
        return sum(sizes)

    monkeypatch.setattr(montecarlo, "_shard_keys", one_chunk)
    with pytest.raises(RuntimeError, match="third run"):
        _estimate(run_fn, 2**40, 0, run=HO_RUN)
    assert asked == [(0, montecarlo._KEY_CHUNK)]
    assert runs == [HO_RUN] * 3


# Peak traced memory of a 4e6-trial HO estimate at seed 0, after a warm-up
# estimate, while every shard built its own SeedSequence and generator; a
# chunk of keys may add at most 64 KiB to it.
HO_PEAK_PER_SHARD_SEEDING = 814_494


def test_ho_estimate_memory_with_chunked_keys():
    s = load_packaged("table4-unknown").scenario
    estimate_ho(s, s.mobility, Z=50_000, seed=0)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        estimate_ho(s, s.mobility, Z=4_000_000, seed=0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= HO_PEAK_PER_SHARD_SEEDING + 64 * 1024, peak


def test_estimates_share_no_generator_state():
    s = load_packaged("table4-unknown").scenario
    room = _static("obstacle")
    spread = MobilitySpec(Uniform(0.5, 15.0), Uniform(0.0, math.pi))
    rr = functools.partial(_rr_run, room, room.mobility,
                           walls=wall_shadow_wedges(room.enb, room.walls))
    ho_a = estimate_ho(s, s.mobility, Z=50_000, seed=3)
    rr_a = _estimate(rr, 30_000, 3, workers=2)
    estimate_ho(s, spread, Z=30_000, seed=4)
    _estimate(rr, 20_000, 4, workers=2)
    assert estimate_ho(s, s.mobility, Z=50_000, seed=3) == ho_a
    assert _estimate(rr, 30_000, 3, workers=2) == rr_a

    def broken(sizes, rngs):
        # draws part of a run and raises, leaving the generators mid-stream
        for rng in rngs:
            rng.random(100)
        raise RuntimeError("mid-run")

    for workers in (1, 2):
        with pytest.raises(RuntimeError):
            _estimate(broken, 50_000, 3, workers=workers, run=HO_RUN)
        assert estimate_ho(s, s.mobility, Z=50_000, seed=3) == ho_a
        assert _estimate(rr, 30_000, 3, workers=2) == rr_a


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
