"""Monte Carlo estimators for reassignment and handover probabilities.

Both estimators go through one driver, _estimate, that draws trials in
fixed-size shards, shard k drawing the stream of PCG64(SeedSequence((master
seed, k))), and hands runs of consecutive shards to one run function
(_rr_run or _ho_run, scene and mobility bound in) that returns an integer
success count. So the estimate does not depend on which thread runs a
shard or in what order: reassignment shards run on one thread per CPU and
give the same bits as one thread. No shard builds a SeedSequence or a
generator: SeedSequence's hash runs as uint32 array operations over up to
_KEY_CHUNK shards at once, and each thread loads a shard's PCG64 state into
one of its own generators before the shard draws.

A reassignment shard holds no array longer than one block of _BLOCK nodes.
Each block's x positions come from the shard's generator and its y
positions from a copy of the stream started past all x positions, and
every predicate writes into one workspace made per shard, so its working
set stays bounded whatever the density.

Handover shards are handed out in runs of HO_RUN consecutive shards. Each
shard keeps its own generator and draws, and only those generator calls run
shard by shard: the table search for the counts, blockage and hit marking
run once over the trials of the whole run that drew a base station, with
the same results as one array per trial. A handover shard then costs about
its draws.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import os
import threading
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .geometry import (TWO_PI, WallWedge, displaced_distance_sq,
                       segment_crosses, wall_shadow_wedges)
from .scenarios import (MobilitySpec, ScenarioKnown, ScenarioUnknown,
                        draw_law, is_point_mass, law_bounds)
from .stochastic import (SWITCH, _ahead, invert_drawn, p_self_blocked,
                         poisson_counts)

SHARD_SIZE = 4096
# Shards per unit of handover work: each keeps its own generator, and the
# array work between draws runs once for all of them.
HO_RUN = 16


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# Threads for reassignment shards, at most one per shard. numpy releases the
# interpreter lock inside a shard's array work, so these overlap.
WORKERS = _available_cpus()


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
    trials, eight float rows and two trial-index rows."""
    if not per_trial:
        return np.empty((6, size)), None, np.empty((3, size), bool)
    return (np.empty((8, size)), np.empty((2, size), np.intp),
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
    indices of the points strictly inside their coverage disk and, aligned
    with them, the candidate mask; the other predicates run only on those
    points.

    Every point-long step writes into `work` (from _workspace, at least
    len(px) long), made here when not given: the disk test into two float
    rows, which then take the inside points, and each later predicate into
    the rows left. Each predicate is the plain expression evaluated in the
    same order, so writing in place changes no verdict. px and py are read
    only before the first write to work's first two rows, so they may be
    those rows.
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
    if trial_idx is None:  # the rows of the draws are free once gathered
        trial, spare = None, (f[4], f[5], f[0], f[1])
    else:
        trial = np.take(trial_idx, idx, out=t[1, :k], mode="clip")
        spare = f[4:]
    tx, ty = at(l2x, f[0], trial), at(l2y, f[1], trial)
    r = scene.serving_ris_distance
    ex = np.subtract(px, scene.ue.x, out=spare[0])
    ex *= ex
    ey = np.subtract(py, scene.ue.y, out=spare[1])
    ey *= ey
    ex += ey
    ok = np.greater_equal(ex, r * r, out=b[0])
    if walls:
        vx = np.subtract(px, scene.enb.x, out=spare[0])
        vy = np.subtract(py, scene.enb.y, out=spare[1])
        for wedge in walls:
            _clear_of_wedge(ok, vx, vy, *wedge, spare[2:], b[1:])
    for obs in scene.extra_obstacles:
        crosses = segment_crosses(tx, ty, px, py, obs, (spare, b[1:]))
        ok &= np.invert(crosses, out=crosses)
    if scene.self_block is not None and scene.self_block.theta > 0.0:
        theta = scene.self_block.theta
        dx = np.subtract(px, tx, out=spare[0])
        dy = np.subtract(py, ty, out=spare[1])
        hd = heading if trial_idx is not None else heading[0]
        if scene.self_block_direction is not None:
            hd = scene.self_block_direction
        lo = hd - 0.5 * theta
        # rays of each trial, read at its points; cos and sin are the same
        # bits on a gathered array
        rays = (np.cos(lo), np.sin(lo), np.cos(lo + theta),
                np.sin(lo + theta))
        if np.ndim(lo):
            rays = [at(u, row, trial) for u, row in zip(rays, f[:4])]
        _clear_of_wedge(ok, dx, dy, *rays, theta, spare[2:], b[1:])
    return idx, ok


# Nodes judged per _candidate_mask call, and the nodes after which a run of
# handover shards judges those gathered so far: temporaries stay about this
# size however many nodes the trials draw.
_BLOCK = 2 ** 16


def _rr_successes(scene: ScenarioKnown, mobility: MobilitySpec, n: int,
                  rng: np.random.Generator,
                  walls: tuple[WallWedge, ...]) -> int:
    """Successful trials in a shard of n (walls: the scene's
    wall_shadow_wedges at its base station), drawing speeds, angles, count
    uniforms, all x, then all y positions; judged in blocks of _BLOCK nodes
    in one _workspace made per shard: no array of the shard is longer than
    a block.

    A point-mass law draws one value that holds for every trial, so both
    laws fixed give one displacement, judged as scalars; otherwise each
    block's trial index is built in a workspace row. The stream holds all x
    positions, then all y positions: each block draws its x from rng into
    the workspace and its y from a copy of the stream started past all x,
    and rng ends where that copy does. That takes the same values from the
    generator as drawing them all at once.
    """
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
                                      angles, np.cos))
    shared = l2x.size == 1
    if not shared:
        l2x, l2y, R, heading = np.broadcast_arrays(l2x, l2y, R, heading)
    work = _workspace(min(_BLOCK, total), not shared)
    f, t, _ = work
    hits = np.zeros(n, dtype=bool)
    for start in range(0, total, _BLOCK):
        stop = min(start + _BLOCK, total)
        px, py = f[0, :stop - start], f[1, :stop - start]
        rng.random(out=px)  # the bits of rng.uniform(x0, x1, total)
        px *= x1 - x0
        px += x0
        y_rng.random(out=py)
        py *= y1 - y0
        py += y0
        # trials lo..hi own nodes start..stop-1; lo and hi may have nodes in
        # the blocks before and after
        lo, hi = np.searchsorted(ends, (start, stop - 1), side="right")
        own = slice(lo, hi + 1)
        if shared:
            idx, ok = _candidate_mask(scene, walls, px, py, l2x, l2y, R,
                                      heading, work=work)
        else:
            # each node's trial: a step of one at each trial end
            trial = t[0, :stop - start]
            trial[:] = 0
            np.add.at(trial, ends[lo:hi] - start, 1)
            np.cumsum(trial, out=trial)
            idx, ok = _candidate_mask(scene, walls, px, py, l2x[own],
                                      l2y[own], R[own], heading[own], trial,
                                      work)
        # a trial has a candidate when more of the block's candidates lie
        # before its end than before the previous trial's end
        before = np.searchsorted(idx.compress(ok), ends[own] - start)
        hits[own] |= np.diff(before, prepend=0) > 0
    rng.bit_generator.state = y_rng.bit_generator.state
    hits &= speeds > 0.0
    return int(np.count_nonzero(hits))


def _rr_run(scene: ScenarioKnown, mobility: MobilitySpec, sizes: list[int],
            rngs: list[np.random.Generator],
            walls: tuple[WallWedge, ...]) -> int:
    """_rr_successes summed over a run of shards."""
    return sum(_rr_successes(scene, mobility, n, rng, walls)
               for n, rng in zip(sizes, rngs))


def _shard_plan(Z: int, workers: int) -> tuple[int, int]:
    """(shards, threads) of an estimate over Z trials offered `workers`
    threads: ceil(Z / SHARD_SIZE) shards, and never more threads than
    shards."""
    if Z < 1:
        raise ValueError("Z must be at least 1")
    shards = -(-Z // SHARD_SIZE)
    return shards, min(workers, shards)


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


def _estimate(run_fn: Callable[[list[int], list[np.random.Generator]], int],
              Z: int, seed: int, workers: int = 1, run: int = 1) -> Estimate:
    """Mean of Z trials run in shards of SHARD_SIZE, shard k drawing the
    stream of PCG64(SeedSequence((seed, k))), handed out in runs of `run`
    consecutive shards; run_fn(sizes, rngs) returns the number of successes
    in one run, whose shard i draws sizes[i] trials from rngs[i].

    The calling thread and up to workers - 1 helper threads each take the
    next run from a shared iterator until none is left, and load each
    shard's state into one of their own `run` generators. Counts are
    integers, so their sum, and the estimate, does not depend on which
    thread ran which run. After a run raises, or an interrupt reaches the
    calling thread, no thread starts another run; the first such exception
    propagates once every thread has stopped.
    """
    shards, workers = _shard_plan(Z, workers)
    runs = _keyed_runs(seed, shards, run)
    lock = threading.Lock()
    stop = threading.Event()
    errors: list[BaseException] = []
    successes = [0] * workers  # one slot per thread

    def work(slot: int) -> None:
        try:
            # each shard's state is loaded before it draws
            rngs = [np.random.Generator(np.random.PCG64(0))
                    for _ in range(min(run, shards))]
            while not stop.is_set():
                with lock:
                    first, keys = next(runs, (shards, None))
                if first >= shards:
                    break
                for rng, key in zip(rngs, keys.tolist()):
                    rng.bit_generator.state = _pcg64_state(key)
                successes[slot] += run_fn(
                    [min(SHARD_SIZE, Z - k * SHARD_SIZE)
                     for k in range(first, first + len(keys))],
                    rngs[:len(keys)])
        except BaseException as exc:  # re-raised once every thread stopped
            errors.append(exc)
            stop.set()

    helpers = [threading.Thread(target=work, args=(slot,))
               for slot in range(1, workers)]
    for helper in helpers:
        helper.start()
    work(0)
    for helper in helpers:
        helper.join()
    if errors:
        raise errors[0]
    mean = sum(successes) / Z
    return Estimate(mean=mean, stderr=math.sqrt(mean * (1.0 - mean) / Z),
                    trials=Z, seed=seed)


def estimate_rr(scene: ScenarioKnown, mobility: MobilitySpec,
                Z: int = 100_000, seed: int = 0) -> Estimate:
    """Mean of Z independent reassignment trials with per-trial mobility,
    on WORKERS threads, one shard at a time."""
    walls = wall_shadow_wedges(scene.enb, scene.walls)
    return _estimate(functools.partial(_rr_run, scene, mobility, walls=walls),
                     Z, seed, workers=WORKERS)


# ---------------------------------------------------------------------------
# Unknown-obstacle handover trials


def _ho_run(s: ScenarioUnknown, mobility: MobilitySpec, sizes: list[int],
            rngs: list[np.random.Generator]) -> int:
    """Number of handovers in a run of shards, shard i drawing sizes[i]
    trials from rngs[i]: a Poisson base-station field over each displaced
    coverage disk, thinned by static blockage (radius drawn from the
    linear-in-area law on [0, R_LoS]) and by the body shadow. Draw order
    in each shard: speeds, angles, count uniforms, then three uniforms per
    node.

    Only the draws run shard by shard. With both laws point masses every
    trial shares one speed, angle and Poisson mean; up to mean SWITCH the
    count uniforms of all shards go into one buffer, and one invert_drawn
    gives the trials that drew a node and their counts. Otherwise each shard
    draws its counts with poisson_counts. Blockage and hit marking run over
    the drawing trials of consecutive shards together, gathered until they
    hold _BLOCK nodes or more.
    """
    edges = list(itertools.accumulate(sizes, initial=0))
    laws = (mobility.speed_law, mobility.angle_law)
    mean = None
    if all(map(is_point_mass, laws)):
        # numpy scalars take the same ufunc loops as one-element arrays
        speed, angle = (np.float64(law_bounds(law)[0]) for law in laws)
        mean = _ho_means(s, speed, angle)
    if mean is not None and 0.0 <= mean <= SWITCH:
        u = np.empty(edges[-1])
        for rng, a, b in zip(rngs, edges, edges[1:]):
            rng.random(out=u[a:b])
        drew, counts = invert_drawn(mean, u)
        moved = np.full(drew.size, speed > 0.0)
    else:
        counts = np.empty(edges[-1], dtype=np.int64)
        moved = np.empty(edges[-1], dtype=bool)
        for rng, a, b in zip(rngs, edges, edges[1:]):
            speeds, angles = (draw_law(rng, law, 1 if is_point_mass(law)
                                       else b - a) for law in laws)
            counts[a:b] = poisson_counts(rng, _ho_means(s, speeds, angles),
                                         b - a)
            moved[a:b] = speeds > 0.0
        drew = np.flatnonzero(counts)
        counts, moved = counts[drew], moved[drew]
    # shard i's drawing trials are drew[trial_edges[i]:trial_edges[i + 1]]
    # and own nodes node_edges[i] to node_edges[i + 1] - 1
    trial_edges = [0, *np.searchsorted(drew, edges[1:]).tolist()]
    node_edges = np.concatenate(((0,), np.cumsum(counts)))[trial_edges]
    node_edges = node_edges.tolist()
    hits = 0
    start = 0  # first shard whose nodes are not yet judged
    nodes: list[np.ndarray] = []
    for i, rng in enumerate(rngs, 1):
        nodes.append(rng.random((node_edges[i] - node_edges[i - 1], 3)))
        if node_edges[i] - node_edges[start] >= _BLOCK or i == len(rngs):
            a, b = trial_edges[start], trial_edges[i]
            if b > a:
                hits += _ho_hits(s, counts[a:b], np.concatenate(nodes),
                                 moved[a:b])
            start, nodes = i, []
    return hits


def _ho_means(s: ScenarioUnknown, speeds: np.ndarray,
              angles: np.ndarray) -> np.ndarray:
    """Poisson mean of base stations in each displaced coverage disk."""
    R2 = np.maximum(displaced_distance_sq(s.r_eNB, speeds, angles, np.cos),
                    0.0)
    return s.lambda_eNB * math.pi * R2


def _ho_hits(s: ScenarioUnknown, counts: np.ndarray, u: np.ndarray,
             moved: np.ndarray) -> int:
    """Trials that moved and hold a node clear of blockage and of the body
    shadow: trial i owns counts[i] >= 1 consecutive rows of u, three
    uniforms per node."""
    radii = s.R_LoS * np.sqrt(u[:, 0])
    m = s.obstacle_model
    alive = u[:, 1] < np.exp(-(m.beta * radii + m.beta0))
    alive &= u[:, 2] >= p_self_blocked(s.self_block)
    hits = np.zeros(counts.size, dtype=bool)
    hits[np.repeat(np.arange(counts.size), counts)[alive]] = True
    hits &= moved
    return int(np.count_nonzero(hits))


def estimate_ho(s: ScenarioUnknown, mobility: MobilitySpec,
                Z: int = 100_000, seed: int = 0) -> Estimate:
    """Mean of Z independent handover trials with per-trial mobility, on
    the calling thread alone, HO_RUN shards at a time.

    A fixed-law shard takes about 40-60 us of a run on a 2-core Xeon:
    loading its generator's state 3-4 (building a SeedSequence and a
    generator took about 19), its 4096 count uniforms 10-20, and the rest
    its node uniforms and its share of the run's search and marking. These
    are short calls that hold the interpreter lock, so two threads ran a
    977-shard estimate no faster (58 against 57 us a shard).
    """
    return _estimate(functools.partial(_ho_run, s, mobility), Z, seed,
                     run=HO_RUN)


def run_record(kind: str, Z: int, estimates: int = 1) -> dict:
    """Manifest entries for `estimates` runs of estimate_<kind> ("rr" or
    "ho") over Z trials each: the threads one run uses and the shards all of
    them run."""
    shards, workers = _shard_plan(Z, WORKERS if kind == "rr" else 1)
    return {"mc_workers": workers, "mc_shards": estimates * shards}
