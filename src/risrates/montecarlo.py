"""Every draw of the package: law draws, Poisson counts, the Monte Carlo
estimators for reassignment and handover probabilities and the load
simulator's sessions. numpy loads with this module, when draws start.

Reassignment shard runs and load-simulator chunks run on threads through
one driver, _threaded: each thread takes the next task from a shared
iterator and returns an integer count, and the first failure stops every
thread. Both estimators go through _estimate, that draws trials in
fixed-size shards, shard k drawing the stream of PCG64(SeedSequence((master
seed, k))), and hands runs of consecutive shards to one run function
(_rr_run or _ho_run, scene and mobility bound in) that returns an integer
success count. So the estimate does not depend on which thread runs a
shard or in what order: reassignment shards run on one thread per CPU and
give the same bits as one thread. Each Estimate records the shards it drew
and the threads that drew them, which a run's manifest reports. No shard
builds a SeedSequence or a generator: SeedSequence's hash runs as uint32
array operations over up to _KEY_CHUNK shards at once, and each thread
loads a shard's PCG64 state into one of its own generators before the
shard draws.

Shards are handed out in runs, RR_RUN consecutive reassignment shards or
HO_RUN handover shards, and both kinds of run share one skeleton. Each
shard keeps its own generator and draws, and only those generator calls run
shard by shard; the rest runs once over the trials of the whole run, with
the same results as one array per trial. _run_draws draws the laws and the
Poisson counts: invert_drawn inverts the count uniforms of all shards at
once where every trial shares one mean up to SWITCH, and poisson_counts
draws each shard's counts otherwise. _hits then draws the run's nodes,
shard after shard, into blocks of at most _BLOCK nodes that may split a
shard or span several, and the kernel judges each block: a reassignment
block's disk, exclusion, wall and body-shadow predicates write into one
workspace made per run, and its sight-line test runs as plain arithmetic on
the few points left; a handover block's blockage and body shadow run on its
node uniforms. So no array is longer than a block or the run's trials,
whatever the density.

The load simulator draws each server's sessions from one stream, speeds,
then angles, then uniforms. Its threads count chunks of _BLOCK // WORKERS
sessions, each jumping generators of its own ahead in that stream (PCG64's
advance) to a chunk's draws, which takes the values of one pass.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import os
import threading
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from .geometry import (TWO_PI, WallWedge, displaced_distance_sq,
                       displaced_position, segment_crosses, wall_shadow_wedges)
from .scenarios import (Law, MobilitySpec, ScenarioKnown, ScenarioUnknown,
                        is_point_mass, law_bounds)
from .stochastic import event_probability, p_self_blocked

SHARD_SIZE = 4096
# Shards per unit of handover work: each keeps its own generator, and the
# array work between draws runs once for all of them.
HO_RUN = 16
# Shards per unit of reassignment work: their counts are inverted together,
# and a block of nodes may span several of them. Runs of 2, 4 and 8 ran
# within a few percent of each other; 8 held the most memory.
RR_RUN = 4


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# Threads for reassignment shards and load-simulator chunks, at most one per
# shard run or chunk. numpy releases the interpreter lock inside their array
# work, so these overlap.
WORKERS = _available_cpus()


@dataclass(frozen=True)
class Estimate:
    """Mean and standard error of `trials` trials drawn from `seed`, and
    the plan that drew them: `shards` shards on `threads` threads (0 for an
    estimate made by hand). The plan leaves the result unchanged, so it
    takes no part in comparing estimates."""

    mean: float
    stderr: float
    trials: int
    seed: int
    shards: int = field(default=0, compare=False)
    threads: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.mean <= 1.0:
            raise ValueError("mean must lie in [0, 1]")
        if self.trials < 1:
            raise ValueError("trials must be positive")


# ---------------------------------------------------------------------------
# Draws shared by every kernel


def draw_law(rng: np.random.Generator, law: Law, n: int) -> np.ndarray:
    """n draws from the law: one double each from rng, except that a point
    mass takes nothing from rng."""
    lo, hi = law_bounds(law)
    if is_point_mass(law):
        return np.full(n, lo)
    return rng.uniform(lo, hi, n)


# Largest Poisson mean drawn by inversion; above it, the generator's sampler.
SWITCH = 60.0


def _sample(rng: np.random.Generator, means: np.ndarray) -> np.ndarray:
    """rng.poisson, with a mean it refuses named in the error."""
    try:
        return rng.poisson(means)
    except ValueError as exc:  # numpy says only "lam value too large"
        raise ValueError(f"Poisson mean {np.max(means):g} is too large to "
                         f"draw ({exc})") from None


def poisson_counts(rng: np.random.Generator, means, size=None) -> np.ndarray:
    """Poisson counts, one per entry of `means` broadcast to `size` (by
    default the shape of `means`): the generator's own sampler for the
    means above SWITCH, then inversion from one uniform per entry for the
    rest, by one loop over k whether the means are shared or mixed. A run
    whose trials share one mean up to SWITCH inverts its uniforms with
    invert_drawn instead, which counts what the loop counts.

    For a fixed uniform, inversion is monotone in the mean, which gives
    common-random-number couplings: under a shared seed, means up to SWITCH
    give counts that never fall as a mean grows.
    """
    means = np.asarray(means, dtype=float)
    if not (means >= 0.0).all():  # refuses NaN too, as rng.poisson does
        raise ValueError("Poisson means must be nonnegative")
    means = np.broadcast_to(means, means.shape if size is None else size)
    counts = np.zeros(means.shape, dtype=np.int64)
    big = means > SWITCH
    if big.any():
        counts[big] = _sample(rng, means[big])
    small = ~big
    if small.any():
        m = means[small]
        counts[small] = _invert(m, rng.random(m.shape))
    return counts


# Terms a table sums before it is cut: every term of a mean up to SWITCH
# has underflowed to zero well before the last (at SWITCH, after k = 555).
_TERMS = 2002
# Bins of a mean's guide table: a power of two, so u * _GUIDE is exact.
_GUIDE = 4096


def _invert(m: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Smallest k with u <= CDF_k(m), entry by entry. The summed CDF can
    stop short of the largest uniforms; a uniform above it gets the last k
    whose term is nonzero."""
    c = np.zeros(m.shape, dtype=np.int64)
    pk = np.exp(-m)
    cdf = pk.copy()
    remaining = u > cdf
    k = 0
    while remaining.any():
        k += 1
        pk = pk * (m / k)
        remaining &= pk > 0.0
        c += remaining
        cdf = cdf + pk
        remaining &= u > cdf
    return c


@functools.lru_cache(maxsize=64)
def _table(m: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """(cdf, guide, split, last) of one mean, the arrays read-only. cdf is
    CDF_0, CDF_1, ... by _invert's recurrence, which accumulate runs in
    order, so every entry has the loop's bits; it ends where the sum stops
    growing (past the mode the terms only shrink). last is the last k whose
    term is nonzero: what _invert counts for a uniform above the table.
    guide[j] counts the CDF entries below j / _GUIDE, so a uniform in
    [j, j + 1) / _GUIDE counts between guide[j] and guide[j + 1]; split[j]
    marks the bins where those differ, the only ones that hold a CDF entry
    (Chen and Asau's guide table). uint16 holds every count up to _TERMS."""
    pk = np.empty(_TERMS)
    pk[0] = np.exp(-m)
    pk[1:] = m / np.arange(1, _TERMS, dtype=float)
    terms = np.multiply.accumulate(pk)
    last = int(np.count_nonzero(terms)) - 1  # a zero term stays zero
    cdf = np.add.accumulate(terms)
    flat = np.flatnonzero(cdf[1:] == cdf[:-1])
    if flat.size:
        cdf = cdf[:flat[0] + 1]
    guide = np.searchsorted(cdf, np.arange(_GUIDE + 1) / _GUIDE,
                            side="left").astype(np.uint16)
    guide, split = guide[:-1], guide[1:] != guide[:-1]
    for a in (cdf, guide, split):
        a.flags.writeable = False
    return cdf, guide, split, last


def invert_drawn(m: float, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Poisson(m) counts by inversion of a flat u, as (entries, counts) of
    the entries that count 1 or more; m is at most SWITCH. Each count is
    what _invert gives. The guide gives the count of every uniform above
    CDF_0 whose bin holds no CDF entry, and the mean's table is searched
    for the rest; a uniform above the whole table counts last."""
    cdf, guide, split, last = _table(float(m))
    drew = np.flatnonzero(u > cdf[0])
    k = (u[drew] * _GUIDE).astype(np.int64)  # each uniform's bin, then count
    search = np.flatnonzero(split.take(k))
    k[...] = guide.take(k)
    k[search] = np.searchsorted(cdf, u[drew[search]], side="left")
    k[k == cdf.size] = last
    return drew, k


# ---------------------------------------------------------------------------
# Known-room reassignment trials


def _clear_of_wedge(ok: np.ndarray, vx, vy, u1x, u1y, u2x, u2y,
                    width: float, c: np.ndarray, below: np.ndarray) -> None:
    """ok &= vector v lies outside the closed wedge swept counterclockwise
    from ray u1 to ray u2, by cross-product signs; c is two float rows and
    below two bool rows of ok's length."""
    if width >= TWO_PI:
        ok[:] = False
        return
    c1 = np.multiply(u1x, vy, out=c[0])
    c1 -= np.multiply(u1y, vx, out=c[1])  # >= 0: v at or ccw of u1
    np.less(c1, 0.0, out=below[0])
    c2 = np.multiply(vx, u2y, out=c[0])
    c2 -= np.multiply(vy, u2x, out=c[1])  # >= 0: v at or cw of u2
    np.less(c2, 0.0, out=below[1])
    if width < math.pi:
        below[0] |= below[1]
    else:
        # outside a reflex wedge = strictly inside the open convex
        # complement swept counterclockwise from u2 to u1
        below[0] &= below[1]
    ok &= below[0]


def _workspace(size: int, per_trial: bool) -> tuple:
    """Scratch for _candidate_mask over up to `size` points: three bool
    rows and six float rows, or, for points judged against their own
    trials, eight float rows and one trial-index row."""
    if not per_trial:
        return np.empty((6, size)), None, np.empty((3, size), bool)
    return (np.empty((8, size)), np.empty((1, size), np.intp),
            np.empty((3, size), bool))


def _candidate_mask(scene: ScenarioKnown, walls: tuple[WallWedge, ...],
                    px: np.ndarray, py: np.ndarray,
                    l2x: np.ndarray, l2y: np.ndarray, R: np.ndarray,
                    heading: np.ndarray, trial_idx: np.ndarray | None = None,
                    work: tuple | None = None,
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized candidate predicate over the points of several trials.

    Without trial_idx, every point is judged against the one displacement
    held in the one-element arrays (l2x, l2y, R, heading); with it, each
    point against the displacement of its trial, trial_idx. Returns the
    indices of some points, every candidate among them, and aligned with
    them the candidate mask. The exclusion and wall tests run only on the
    points strictly inside their coverage disk, and the sight-line and
    body-shadow tests only on those that passed them, the points returned.

    Every point-long step but the sight-line test writes into `work` (from
    _workspace, at least len(px) long), made here when not given: the disk
    test into two float rows, which then take the inside points, and each
    later predicate into the rows left. Each predicate is the plain
    expression evaluated in the same order, so writing in place or on fewer
    points changes no verdict.
    px and py are read only before the first write to work's first two
    rows, so they may be those rows.
    """
    m = len(px)
    f, t, b = _workspace(m, trial_idx is not None) if work is None else work
    R2 = R ** 2

    def at(v, row, index):  # v at each point's trial; one value if shared
        if trial_idx is None:
            return v[0]
        return np.take(v, index, out=row[:len(index)], mode="clip")

    dist2 = np.subtract(px, at(l2x, f[2], trial_idx), out=f[2, :m])
    dist2 *= dist2
    dy = np.subtract(py, at(l2y, f[3], trial_idx), out=f[3, :m])
    dy *= dy
    dist2 += dy
    inside = np.less(dist2, at(R2, f[3], trial_idx), out=b[1, :m])
    idx = np.flatnonzero(inside)  # strict: ties are no events
    k = idx.size
    f, b = f[:, :k], b[:, :k]
    px = np.take(px, idx, out=f[2], mode="clip")
    py = np.take(py, idx, out=f[3], mode="clip")
    trial = (None if trial_idx is None
             else np.take(trial_idx, idx, out=t[0, :k], mode="clip"))
    r = scene.serving_ris_distance
    ex = np.subtract(px, scene.ue.x, out=f[4])
    ex *= ex
    ey = np.subtract(py, scene.ue.y, out=f[5])
    ey *= ey
    ex += ey
    ok = np.greater_equal(ex, r * r, out=b[0])
    if walls:
        vx = np.subtract(px, scene.enb.x, out=f[4])
        vy = np.subtract(py, scene.enb.y, out=f[5])
        for wedge in walls:  # the rows of the draws are free once gathered
            _clear_of_wedge(ok, vx, vy, *wedge, f[:2], b[1:])
    if not (scene.extra_obstacles or scene.has_body_shadow):
        return idx, ok
    # the sight-line and body-shadow tests run only on the points that
    # passed so far, most of them cut by the wall shadows
    keep = np.flatnonzero(ok)
    idx, k = idx.take(keep), keep.size
    f, b = f[:, :k], b[:, :k]
    px = np.take(px, keep, out=f[4], mode="clip")
    py = np.take(py, keep, out=f[5], mode="clip")
    ok = b[0]
    ok[:] = True
    if trial is not None:
        trial = trial.take(keep)
    # the last two rows, which a shared displacement leaves unread
    tx, ty = at(l2x, f[-2], trial), at(l2y, f[-1], trial)
    for obs in scene.extra_obstacles:
        ok &= ~segment_crosses(tx, ty, px, py, obs)
    if scene.has_body_shadow:
        theta = scene.self_block.theta
        dx = np.subtract(px, tx, out=f[0])
        dy = np.subtract(py, ty, out=f[1])
        lo = scene.body_shadow_start(heading if trial_idx is not None
                                     else heading[0])
        # rays of each trial, read at its points; cos and sin are the same
        # bits on a gathered array
        rays = (np.cos(lo), np.sin(lo), np.cos(lo + theta),
                np.sin(lo + theta))
        if np.ndim(lo):
            rays = [at(u, row, trial) for u, row in zip(rays, f[4:])]
        _clear_of_wedge(ok, dx, dy, *rays, theta, f[2:4], b[1:])
    return idx, ok


# Nodes a run judges at once (a handover block holds this many, three
# uniforms each), and the load simulator's sessions in its threads' chunks
# together: temporaries stay about this size however many nodes or sessions
# are drawn. A reassignment block holds 7/8 of it with one displacement and
# half with one per trial, whose workspace has 10 rows to 6; that leaves
# room for a run's per-trial arrays, so a run peaks below the 6-row
# workspace of _BLOCK nodes that a dense single shard reached.
_BLOCK = 2 ** 16


def _run_draws(mobility: MobilitySpec, mean, sizes: list[int],
               rngs: list[np.random.Generator], keep_laws: bool) -> tuple:
    """(moved, draws, bounds, node_edges) of the trials of a run of shards
    that draw a node, shard i drawing sizes[i] trials from rngs[i]: speeds,
    angles, then Poisson counts. `mean` is every trial's Poisson mean, or a
    function of a shard's speeds and angles that gives theirs. moved marks
    the drawing trials whose speed is above 0, and draws holds their speeds
    and angles if keep_laws is set (else nothing); a point-mass law gives
    one value for every trial. Drawing trial j owns the run's nodes bounds[j]
    to bounds[j + 1] - 1 (bounds: 0, then the cumulative counts), and shard
    i the nodes node_edges[i] to node_edges[i + 1] - 1.

    With one mean up to SWITCH the count uniforms of all shards go into one
    buffer, and one invert_drawn gives the trials that drew a node and their
    counts; otherwise each shard draws its counts with poisson_counts. A
    run keeps only what it returns: keeping the speeds and angles of a
    spread-law handover run, which reads neither, made it about 10%
    slower."""
    edges = list(itertools.accumulate(sizes, initial=0))
    laws = (mobility.speed_law, mobility.angle_law)
    inverted = not callable(mean) and 0.0 <= mean <= SWITCH
    counts = np.empty(edges[-1], dtype=float if inverted else np.int64)
    # a point mass's one value, or None for a law that every shard draws
    fixed = [draw_law(None, law, 1) if is_point_mass(law) else None
             for law in laws]
    spread = any(v is None for v in fixed)
    # moved, then the laws if kept: one value for every trial, or None for
    # values of each trial
    kept = [None if fixed[0] is None else fixed[0] > 0.0]
    if keep_laws:
        kept += fixed
    per_shard = []  # each shard's values of kept, if a law is spread
    shard = fixed
    for rng, a, b in zip(rngs, edges, edges[1:]):
        if spread:
            shard = [draw_law(rng, law, b - a) if v is None else v
                     for law, v in zip(laws, fixed)]
            per_shard.append([shard[0] > 0.0, *shard][:len(kept)])
        if inverted:  # the count uniforms
            rng.random(out=counts[a:b])
        else:
            counts[a:b] = poisson_counts(
                rng, mean(*shard) if callable(mean) else mean, b - a)
    if inverted:
        drew, counts = invert_drawn(mean, counts)
    else:
        drew = np.flatnonzero(counts)
        counts = counts[drew]
    bounds = np.concatenate(((0,), np.cumsum(counts, out=counts)))
    node_edges = bounds[np.searchsorted(drew, edges)].tolist()
    kept = [np.concatenate([k[i] for k in per_shard])[drew] if v is None
            else v for i, v in enumerate(kept)]
    return kept[0], kept[1:], bounds, node_edges


def _hits(moved: np.ndarray, bounds: np.ndarray, node_edges: list[int],
          rngs: list[np.random.Generator], cap: int,
          draw: Callable, judge: Callable) -> int:
    """Trials of a run that moved and that `judge` finds among their
    nodes; moved, bounds and node_edges as _run_draws gives them.

    The run's nodes, shard after shard, are drawn into blocks of `cap`
    nodes, and a block may split a shard or hold several: draw(rng, n, k,
    rows) draws nodes k, k + 1, ... of the n nodes of rng's shard into the
    block's `rows` (a slice). judge(own, cuts) marks the trials with a hit
    in the block, as a mask over own: own (a slice) holds the drawing
    trials with a node in the block, of which trial own.start + j owns
    block rows cuts[j] to cuts[j + 1] - 1."""
    hit = np.zeros(bounds.size - 1, dtype=bool)
    total = node_edges[-1]
    fill = 0  # nodes drawn into the block so far
    for rng, a, b in zip(rngs, node_edges, node_edges[1:]):
        at = a
        while at < b:
            m = min(b - at, cap - fill)
            draw(rng, b - a, at - a, slice(fill, fill + m))
            fill += m
            at += m
            if fill == cap or at == total:
                start = at - fill
                first = bounds.searchsorted(start, side="right") - 1
                own = slice(first, bounds.searchsorted(at))
                cuts = bounds[first:own.stop + 1] - start
                cuts[0], cuts[-1] = 0, fill
                hit[own] |= judge(own, cuts)
                fill = 0
    hit &= moved
    return int(np.count_nonzero(hit))


def _rr_run(scene: ScenarioKnown, mobility: MobilitySpec, sizes: list[int],
            rngs: list[np.random.Generator],
            walls: tuple[WallWedge, ...]) -> int:
    """Successful reassignment trials in a run of shards, shard i drawing
    sizes[i] trials from rngs[i] (walls: the scene's wall_shadow_wedges at
    its base station). Each shard draws speeds, angles and count uniforms
    (_run_draws, every trial's mean lambda_RIS * |room|), then all x and
    all y positions.

    The run's nodes are judged in _hits's blocks in one _workspace. A shard
    draws its x positions into the workspace from a spare generator loaded
    with its state, and its y positions from its own generator moved past
    all its x, which leaves it past its y. That takes the values of drawing
    them all at once. Both laws fixed give one displacement, judged as
    scalars; otherwise each node is judged against its trial's.
    """
    x0, y0, x1, y1 = scene.room
    moved, (speeds, angles), bounds, node_edges = _run_draws(
        mobility, scene.lambda_RIS * (x1 - x0) * (y1 - y0), sizes, rngs,
        keep_laws=True)
    l2, heading = displaced_position(scene.ue, scene.ris_direction,
                                     scene.orientation, speeds, angles, np)
    R = np.sqrt(displaced_distance_sq(scene.serving_ris_distance, speeds,
                                      angles, np))
    l2x, l2y, R, heading = np.broadcast_arrays(l2.x, l2.y, R, heading)
    shared = l2x.size == 1
    block = max(7 * _BLOCK // 8 if shared else _BLOCK // 2, 1)
    work = _workspace(min(block, node_edges[-1]), not shared)
    f = work[0]
    spare, = _generators(1)

    def draw(rng: np.random.Generator, n: int, k: int, rows: slice) -> None:
        if not k:
            spare.bit_generator.state = rng.bit_generator.state
            rng.bit_generator.advance(n)
        spare.random(out=f[0, rows])
        rng.random(out=f[1, rows])

    def judge(own: slice, cuts: np.ndarray) -> np.ndarray:
        n = cuts[-1]
        # the bits of rng.uniform(x0, x1): adding a zero corner changes none
        px, py = f[0, :n], f[1, :n]
        px *= x1 - x0
        if x0:
            px += x0
        py *= y1 - y0
        if y0:
            py += y0
        if shared:
            idx, ok = _candidate_mask(scene, walls, px, py, l2x, l2y, R,
                                      heading, work=work)
        else:
            trial = np.repeat(np.arange(cuts.size - 1), np.diff(cuts))
            idx, ok = _candidate_mask(scene, walls, px, py, l2x[own],
                                      l2y[own], R[own], heading[own], trial,
                                      work)
        found = np.searchsorted(cuts[1:], idx.compress(ok), side="right")
        return np.bincount(found, minlength=cuts.size - 1) > 0

    return _hits(moved, bounds, node_edges, rngs, f.shape[1], draw, judge)


# SeedSequence's hash constants and PCG64's multiplier, as numpy's
# bit_generator.pyx and pcg64.h define them.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32, _M128 = 2 ** 32 - 1, 2 ** 128 - 1
# Shards whose generator keys are derived together: 32 KiB of keys, so
# memory stays bounded whatever Z is.
_KEY_CHUNK = 1024


def _shard_keys(seed: int, first: int, count: int) -> np.ndarray:
    """SeedSequence((seed, k)).generate_state(4, np.uint64) for the shards
    k = first .. first + count - 1, as the rows of a (count, 4) array.

    SeedSequence hashes its entropy words with constants that do not depend
    on the words, so every shard whose index is one 32-bit word is hashed
    in one pass of uint32 array operations. Shards from 2^32 on, never
    reached below 2^44 trials, take SeedSequence itself.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")  # as SeedSequence
    n = max(0, min(count, 2 ** 32 - first))
    # the entropy words: the seed's, least significant first, then k's
    entropy = [np.full(n, seed >> shift & _M32, np.uint32)
               for shift in range(0, max(seed.bit_length(), 1), 32)]
    entropy.append(np.arange(first, first + n).astype(np.uint32))
    h = _INIT_A

    def hashmix(v: np.ndarray, mult: int = _MULT_A) -> np.ndarray:
        nonlocal h
        v = v ^ np.uint32(h)
        h = h * mult & _M32
        v *= np.uint32(h)
        v ^= v >> 16
        return v

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        r = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
        r ^= r >> 16
        return r

    # the pool of 4 words, then generate_state's 8 words from it
    pool = [hashmix(v) for v in (entropy + [np.zeros(n, np.uint32)] * 3)[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    h = _INIT_B
    state = np.stack([hashmix(pool[i % 4], _MULT_B) for i in range(8)], axis=1)
    keys = np.empty((count, 4), np.uint64)
    keys[:n] = state.astype("<u4").view("<u8")
    for i in range(n, count):
        keys[i] = np.random.SeedSequence((seed, first + i)).generate_state(
            4, np.uint64)
    return keys


def _pcg64_state(key: list[int]) -> dict:
    """The state of PCG64(seq) for a seed sequence whose
    generate_state(4, np.uint64) gives key: PCG's seeding step, with the
    first two words as the starting state and the last two as the stream."""
    s0, s1, i0, i1 = key
    inc = ((i0 << 64 | i1) << 1 | 1) & _M128
    state = (((s0 << 64 | s1) + inc) * _PCG_MULT + inc) & _M128
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}


def _keyed_runs(seed: int, shards: int,
                run: int) -> Iterator[tuple[int, np.ndarray]]:
    """(first shard, keys) of each run of up to `run` consecutive shards in
    turn, keys being the run's rows of _shard_keys, derived a chunk at a
    time; a run ends at the end of its chunk."""
    for start in range(0, shards, _KEY_CHUNK):
        keys = _shard_keys(seed, start, min(_KEY_CHUNK, shards - start))
        for i in range(0, len(keys), run):
            yield start + i, keys[i:i + run]


def _generators(count: int) -> list[np.random.Generator]:
    """count PCG64 generators, each to be loaded with a state before it
    draws (a fixed seed skips the entropy read)."""
    return [np.random.Generator(np.random.PCG64(0)) for _ in range(count)]


def _threaded(tasks: Iterator, counters: list[Callable[..., int]]) -> int:
    """Sum of counter(task) over every task of `tasks`: counters[0] runs on
    the calling thread and each other counter on a helper thread of its
    own, each taking the next task from the shared iterator until none is
    left. Counts are integers, so their sum does not depend on which thread
    ran which task. After a task raises, or an interrupt reaches the calling
    thread, no thread starts another task; the first such exception
    propagates once every thread has stopped."""
    lock = threading.Lock()
    stop = threading.Event()
    errors: list[BaseException] = []
    totals = [0] * len(counters)  # one slot per thread

    def work(slot: int) -> None:
        try:
            while not stop.is_set():
                with lock:
                    task = next(tasks, None)
                if task is None:
                    break
                totals[slot] += counters[slot](task)
        except BaseException as exc:  # re-raised once every thread stopped
            errors.append(exc)
            stop.set()

    helpers = [threading.Thread(target=work, args=(slot,))
               for slot in range(1, len(counters))]
    for helper in helpers:
        helper.start()
    work(0)
    for helper in helpers:
        helper.join()
    if errors:
        raise errors[0]
    return sum(totals)


def _estimate(run_fn: Callable[[list[int], list[np.random.Generator]], int],
              Z: int, seed: int, workers: int = 1, run: int = 1) -> Estimate:
    """Mean of Z trials run in ceil(Z / SHARD_SIZE) shards, shard k drawing
    the stream of PCG64(SeedSequence((seed, k))), handed out in runs of
    `run` consecutive shards; run_fn(sizes, rngs) returns the number of
    successes in one run, whose shard i draws sizes[i] trials from rngs[i].
    Runs are cut to ceil(shards / workers) shards where that is shorter, so
    that every thread gets a run, and no more threads start than there are
    runs.

    The calling thread and up to workers - 1 helper threads take the runs
    through _threaded, and each loads a shard's state into one of its own
    `run` generators before the shard draws.
    """
    if Z < 1:
        raise ValueError("Z must be at least 1")
    shards = -(-Z // SHARD_SIZE)
    run = min(run, -(-shards // min(workers, shards)))
    workers = min(workers, -(-shards // run))

    def runner() -> Callable[[tuple[int, np.ndarray]], int]:
        rngs = _generators(run)

        def run_shards(task: tuple[int, np.ndarray]) -> int:
            first, keys = task
            for rng, key in zip(rngs, keys.tolist()):
                rng.bit_generator.state = _pcg64_state(key)
            return run_fn([min(SHARD_SIZE, Z - k * SHARD_SIZE)
                           for k in range(first, first + len(keys))],
                          rngs[:len(keys)])
        return run_shards

    successes = _threaded(_keyed_runs(seed, shards, run),
                          [runner() for _ in range(workers)])
    mean = successes / Z
    return Estimate(mean=mean, stderr=math.sqrt(mean * (1.0 - mean) / Z),
                    trials=Z, seed=seed, shards=shards, threads=workers)


def estimate_rr(scene: ScenarioKnown, mobility: MobilitySpec,
                Z: int = 100_000, seed: int = 0) -> Estimate:
    """Mean of Z independent reassignment trials with per-trial mobility,
    on WORKERS threads, RR_RUN shards at a time."""
    walls = wall_shadow_wedges(scene.enb, scene.walls)
    return _estimate(functools.partial(_rr_run, scene, mobility, walls=walls),
                     Z, seed, workers=WORKERS, run=RR_RUN)


# ---------------------------------------------------------------------------
# Unknown-obstacle handover trials


def _ho_run(s: ScenarioUnknown, mobility: MobilitySpec, sizes: list[int],
            rngs: list[np.random.Generator]) -> int:
    """Number of handovers in a run of shards, shard i drawing sizes[i]
    trials from rngs[i]: a Poisson base-station field over each displaced
    coverage disk, thinned by static blockage (radius drawn from the
    linear-in-area law on [0, R_LoS]) and by the body shadow. Each shard
    draws speeds, angles and counts (_run_draws), then three uniforms per
    node into one buffer of _hits's blocks. With both laws point masses
    every trial shares one Poisson mean; otherwise each shard's means come
    from its own draws.
    """
    laws = (mobility.speed_law, mobility.angle_law)
    mean = functools.partial(_ho_means, s)
    if all(map(is_point_mass, laws)):
        # numpy scalars take the same ufunc loops as one-element arrays
        mean = mean(*(np.float64(law_bounds(law)[0]) for law in laws))
    moved, _, bounds, node_edges = _run_draws(mobility, mean, sizes, rngs,
                                              keep_laws=False)
    u = np.empty((min(_BLOCK, node_edges[-1]), 3))
    model = s.obstacle_model
    clear = p_self_blocked(s.self_block)

    def draw(rng: np.random.Generator, n: int, k: int, rows: slice) -> None:
        rng.random(out=u[rows])

    def judge(own: slice, cuts: np.ndarray) -> np.ndarray:
        nodes = u[:cuts[-1]]
        radii = s.R_LoS * np.sqrt(nodes[:, 0])
        alive = nodes[:, 1] < np.exp(-(model.beta * radii + model.beta0))
        alive &= nodes[:, 2] >= clear
        return np.logical_or.reduceat(alive, cuts[:-1])

    return _hits(moved, bounds, node_edges, rngs, len(u), draw, judge)


def _ho_means(s: ScenarioUnknown, speeds: np.ndarray,
              angles: np.ndarray) -> np.ndarray:
    """Poisson mean of base stations in each displaced coverage disk."""
    R2 = np.maximum(displaced_distance_sq(s.r_eNB, speeds, angles, np),
                    0.0)
    return s.lambda_eNB * math.pi * R2


def estimate_ho(s: ScenarioUnknown, mobility: MobilitySpec,
                Z: int = 100_000, seed: int = 0) -> Estimate:
    """Mean of Z independent handover trials with per-trial mobility, on
    the calling thread alone, HO_RUN shards at a time.

    A fixed-law shard of table4-unknown takes about 35 us of an estimate
    on a 2-core Xeon, most of it its 4096 count uniforms and their share of
    the run's inversion. These are short calls that hold the interpreter
    lock, so two threads ran a 977-shard estimate no faster (35.4 against
    34.5 us a shard).
    """
    return _estimate(functools.partial(_ho_run, s, mobility), Z, seed,
                     run=HO_RUN)


# ---------------------------------------------------------------------------
# Load simulator sessions


def _server_events(rng: np.random.Generator, n: int, laws: tuple[Law, Law],
                   p_a: float,
                   probability: Callable[[np.ndarray, np.ndarray], np.ndarray],
                   workers: int) -> tuple[int, int]:
    """(events, threads) of a server's n sessions, whose speeds, angles and
    uniforms follow one another in rng's stream (a point-mass law draws
    none); rng is moved past them all. A session runs the procedure when its
    uniform is below p_a times probability(speed, angle).

    Threads take chunks of _BLOCK // workers sessions through _threaded, so
    their buffers together hold about _BLOCK sessions; a helper starts only
    for a second chunk. For each stream a chunk draws from, its thread loads
    rng's state into a generator of its own and jumps it ahead to the
    chunk's first draw there, which takes the values of one pass. With both
    laws fixed the threshold is worked out once, on one-element arrays,
    which run the same numpy loops as a chunk.
    """
    block = max(_BLOCK // workers, 1)
    drawn = [0 if is_point_mass(law) else n for law in laws] + [n]
    offsets = list(itertools.accumulate(drawn, initial=0))
    state = rng.bit_generator.state
    rng.bit_generator.advance(offsets[-1])
    fixed = not any(drawn[:2])
    if fixed:
        q = p_a * probability(*(draw_law(None, law, 1) for law in laws))

    def counter() -> Callable[[int], int]:
        rngs = _generators(3)
        u = np.empty(min(block, n))
        below = np.empty(u.size, dtype=bool)

        def count(start: int) -> int:
            m = min(block, n - start)
            for own, offset, k in zip(rngs, offsets, drawn):
                if k:
                    own.bit_generator.state = state
                    own.bit_generator.advance(offset + start)
            chunk_q = q if fixed else p_a * probability(
                *(draw_law(own, law, m) for own, law in zip(rngs, laws)))
            rngs[2].random(out=u[:m])
            return int(np.count_nonzero(np.less(u[:m], chunk_q,
                                                out=below[:m])))
        return count

    threads = min(workers, -(-n // block))
    return _threaded(iter(range(0, n, block)),
                     [counter() for _ in range(threads)]), threads


def load_draws(mobility: MobilitySpec,
               servers: list[tuple[float, float, float]], pz: float,
               p_a: float, seed: int) -> Iterator[tuple[int, int, int]]:
    """(sessions, events, threads) of each (mean, radius, density) server in
    turn, drawn from default_rng(seed): a Poisson(mean) count n of
    sessions, each of which draws a fresh move and runs the procedure with
    probability p_a times its event probability against that candidate
    field (candidates unblocked with probability pz). _server_events counts
    the events on up to WORKERS threads (threads: how many, 0 for an idle
    server), all stopped before the counts are yielded; the counts do not
    depend on how many.
    """
    rng = np.random.default_rng(seed)
    laws = (mobility.speed_law, mobility.angle_law)
    for mean, radius, density in servers:
        # an idle server takes no uniform from the stream
        n = int(poisson_counts(rng, mean)) if mean else 0
        if not n:
            yield 0, 0, 0
            continue
        probability = functools.partial(event_probability, pz, density,
                                        radius, xp=np)
        yield n, *_server_events(rng, n, laws, p_a, probability, WORKERS)

