"""Seeded simulation of the induced walk and Monte Carlo estimators.

Reproducibility contract: the generator is PCG64, and trial i of an
estimator draws from the substream seeded by SeedSequence((seed, i))
(seed taken modulo 2**64), one uniform per step. Identical (network,
arguments, seed) therefore give bit-identical estimates on every
platform, whatever order the trials run in, as long as results are
reduced in trial order.

The estimators meet the contract with one lock-step kernel instead of one
generator object per trial. It derives the PCG64 (state, inc) of a block
of trials at once, replaying SeedSequence's hash pool and PCG64's seeding
in numpy uint64 arithmetic. Up to _CHUNK lanes then advance by one PCG64
step per round, each looking its trial's next vertex up by the bucket of
its 64-bit output, and bisecting its uniform in the row's cuts, vectorised,
only where a cut lies inside that bucket. A lane whose trial arrives takes
the next trial at once, so the lanes stay full until every trial has had
one; after that, finished lanes are masked out. When few trials are still
walking, their states are handed to one reused PCG64 and each is finished
in a flat scalar loop over blocks of its outputs, with the same lookup and
the bisect that ``step`` and ``trace_walk`` make. Every trial reads only
its own stream and its result is stored at its own index, so the
estimates are those of walking each substream on its own.

All three walkers read one walk table (``_table``): the rows of
``Network.walk``, one tuple per row, and, for the lock-step kernel only,
its cuts and jump rows as arrays and the compressed rows, fetched when a
lock-step round first runs. ``Network.walk`` states the rule it encodes
and why a bisect of u in a row's cuts picks what the running-sum bisect
picks, bit for bit. Each row's tuple starts with its jump entries, a
guide table over that bisect (Chen & Asau 1974): for each of the 64
buckets of u's top bits, the row every uniform in it picks, or -1 where a
cut lies inside it. The bucket is the output's top 6 bits, so a step whose
bucket holds no cut needs neither the uniform nor the bisect.

The pendant argument's G~, net plus a pendant vertex at z, is walked
through a table spliced from net's (``_pendant_table``): the builder of
every row of ``Network.walk`` builds z's row with the pendant appended and
the pendant's one-entry row, and the splice maps row z and row n to them
over net's own rows, which are not copied. It is the table of the network
build_network would make of G~, bit for bit, and no such network is
built. Its arrays, copies of net's, are spliced only when the lock-step
kernel asks for them. The scalar loop reads a per-estimate list of the
rows (``_marked``), the splice laid over them, where arrivals at a target
or an anchor are marked in the rows of their neighbours only, so no
estimate costs O(n * 64) and the network's table is never changed.

A trial that would run past the step cap aborts the whole estimate with
CapExceeded rather than truncating: silent truncation would bias the mean
downward invisibly.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import islice
from operator import length_hint

import numpy as np

from .errors import CapExceeded
from .network import (
    BUCKET_BITS,
    BUCKETS,
    Network,
    VertexId,
    _check_conductance,
    _pendant_totals,
    _walk_table,
)
from .util import DEFAULT_STEP_CAP, sized

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1

# Lanes walked in lock step, and trials seeded at a time; bounds the
# kernel's memory.
_CHUNK = 2048
# Once every trial has had a lane and at most this many are live, they
# finish in the scalar loop, where a step costs less than a lock-step
# round's fixed numpy overhead.
_SCALAR_TAIL = 64
# Bytes an estimate holds per trial at its peak: the int64 samples and the
# float temporary of the standard deviation, in each of the three
# estimators. Measured with tracemalloc as the slope between 10**6 and
# 2 * 10**6 trials on K4.
_SAMPLE_BYTES = 16
# Uniforms drawn at a time for a trial in the scalar loop: the first block,
# then doubling up to the last. A trial's stream is its own, so draws past
# its end are simply dropped.
_BLOCKS = (16, 4096)

# SeedSequence (NumPy, pool size 4) and PCG64 (O'Neill's XSL-RR 128/64).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint64(0xCA01F9DD), np.uint64(0x4973F715)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG_MULT_HI = np.uint64(_PCG_MULT >> 64)
_PCG_MULT_LO = np.uint64(_PCG_MULT & _MASK64)
_PCG_MULT_B0 = np.uint64(_PCG_MULT & _MASK32)  # 32-bit halves of _PCG_MULT_LO
_PCG_MULT_B1 = np.uint64(_PCG_MULT >> 32 & _MASK32)
_LOW32, _SHIFT32, _SHIFT16 = np.uint64(_MASK32), np.uint64(32), np.uint64(16)
# A 64-bit output's bucket of the guide table (Network.walk) is its top
# BUCKET_BITS, which are the top bits of the uniform's 53.
_BUCKET_SHIFT = np.uint64(64 - BUCKET_BITS)


@dataclass(frozen=True, eq=False)
class Estimate:
    """Monte Carlo point estimate with its provenance.

    std_error is the sample standard deviation over sqrt(trials) (zero
    for a single trial). steps_total is the number of walk steps taken
    over all trials and steps_max the longest trial, which shows how close
    the estimate came to the step cap. Both are fixed by the seed.
    """

    mean: float
    std_error: float
    trials: int
    seed: int
    steps_total: int
    steps_max: int


@dataclass(frozen=True, eq=False)
class ExcursionEstimate(Estimate):
    """Excursion-count estimate plus the empirical distribution of counts."""

    counts: dict[int, int] = field(default_factory=dict)


@dataclass(frozen=True, eq=False)
class WalkTrace:
    """A recorded walk: X_0, X_1, ... and why it stopped."""

    start: VertexId
    steps: tuple[VertexId, ...]
    terminal_reason: str  # "hit-target" | "cap-reached"


def trial_generator(seed: int, trial: int) -> np.random.Generator:
    """The pinned substream for one trial: PCG64 over SeedSequence((seed, trial))."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed & _MASK64, trial))))


def _hash_constants(init: int, mult: int, count: int) -> list[tuple[np.uint64, np.uint64]]:
    """The (xor, multiply) constant pairs of SeedSequence's successive hashes.

    The hash constant evolves the same way whatever is hashed, so every
    pair is known in advance.
    """
    pairs = []
    for _ in range(count):
        pairs.append((np.uint64(init), np.uint64(init * mult & _MASK32)))
        init = init * mult & _MASK32
    return pairs


# The 16 hashes that fill and mix the pool, and the 8 that draw the state.
_POOL_HASHES = _hash_constants(_INIT_A, _MULT_A, 16)
_STATE_HASHES = _hash_constants(_INIT_B, _MULT_B, 8)


def _hash(value: np.ndarray, xor: np.uint64, mult: np.uint64) -> np.ndarray:
    """SeedSequence's hash of 32-bit words kept in uint64 lanes, as a new array."""
    value = value ^ xor
    value *= mult
    value &= _LOW32
    value ^= value >> _SHIFT16
    return value


def _pcg_step(hi: np.ndarray, lo: np.ndarray, inc_hi: np.ndarray, inc_lo: np.ndarray) -> None:
    """Advance each state by one PCG64 step in place: state * mult + inc mod 2**128.

    The state is held as 64-bit halves. The high half of lo * mult_lo is
    summed from the 32-bit partial products, each of which fits in 64 bits.
    """
    a0 = lo & _LOW32
    a1 = lo >> _SHIFT32
    cross = a0 * _PCG_MULT_B1
    mid = (a0 * _PCG_MULT_B0 >> _SHIFT32) + (cross & _LOW32)
    hi *= _PCG_MULT_LO
    hi += cross >> _SHIFT32
    cross = a1 * _PCG_MULT_B0
    mid += cross & _LOW32
    hi += cross >> _SHIFT32
    hi += a1 * _PCG_MULT_B1
    hi += mid >> _SHIFT32
    hi += lo * _PCG_MULT_HI
    lo *= _PCG_MULT_LO
    lo += inc_lo
    hi += inc_hi
    hi += lo < inc_lo


def _seed_states(seed: int, first: int, count: int) -> tuple[np.ndarray, ...]:
    """PCG64 (state, inc) of trials first .. first + count - 1, as uint64 halves.

    Returns (state_hi, state_lo, inc_hi, inc_lo); for each trial i the pair
    equals ``PCG64(SeedSequence((seed mod 2**64, i))).state``. The entropy,
    the seed's one or two 32-bit words then the trial's, fits the pool of
    four words, which SeedSequence pads with zero words, so every trial's
    high word (0 below 2**32) is hashed and one pass seeds them all. Words
    sit in uint64 lanes: the product of two fits, and masking takes it mod
    2**32.
    """
    seed &= _MASK64
    seed_words = (seed & _MASK32, seed >> 32) if seed > _MASK32 else (seed,)
    trials = np.arange(first, first + count, dtype=np.uint64)
    entropy = [np.full(count, word, dtype=np.uint64) for word in seed_words]
    entropy += [trials & _LOW32, trials >> _SHIFT32]
    entropy += [np.zeros_like(trials)] * (4 - len(entropy))
    # Inputs are dropped once hashed: seeding sets the kernel's peak memory.
    del trials
    hashes = iter(_POOL_HASHES)
    pool = [_hash(word, *next(hashes)) for word in entropy]
    del entropy
    for src in range(4):
        for dst in range(4):
            if src != dst:
                x, y = pool[dst], _hash(pool[src], *next(hashes))
                x *= _MIX_L
                y *= _MIX_R
                x -= y
                x &= _LOW32
                x ^= x >> _SHIFT16

    # generate_state(4, uint64): eight hashed 32-bit words, paired little-endian.
    halves = []
    for i, (xor, mult) in enumerate(_STATE_HASHES):
        word = _hash(pool[i % 4], xor, mult)
        if i % 2:
            halves[-1] |= word << _SHIFT32
        else:
            halves.append(word)
    del pool
    hi, lo, inc_hi, inc_lo = halves

    # PCG64 srandom: inc = (initseq << 1) | 1; step from 0; add initstate; step.
    inc_hi <<= np.uint64(1)
    inc_hi |= inc_lo >> np.uint64(63)
    inc_lo <<= np.uint64(1)
    inc_lo |= np.uint64(1)
    lo += inc_lo
    hi += inc_hi
    hi += lo < inc_lo
    _pcg_step(hi, lo, inc_hi, inc_lo)
    return hi, lo, inc_hi, inc_lo


def _double(raw: np.ndarray) -> np.ndarray:
    """Generator.random's double from each 64-bit output: its top 53 bits over 2**53."""
    return (raw >> np.uint64(11)).astype(np.float64) * (1.0 / 9007199254740992.0)


def _output(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """PCG64's XSL-RR 64-bit output of each state, as random_raw gives it."""
    x = hi ^ lo
    rot = hi >> np.uint64(58)
    return (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))


def _table(net: Network) -> tuple:
    """The walk table the walkers read: (rows, splice, arrays), the rows of
    ``Network.walk``, an empty splice (see ``_pendant_table``), and a
    function giving what the lock-step kernel reads (``_lockstep_tables``):
    the cuts and jump rows of ``Network.walk`` as arrays and the compressed
    rows' indptr and neighbour rows."""
    rows, cut, jump = net.walk
    return rows, {}, lambda: (cut, jump, net.indptr, net.adjacent)


def _pendant_table(net: Network, iz: int, c: float) -> tuple:
    """The walk table of G~, net with a pendant of conductance c at row iz,
    spliced from net's: what ``_table`` gives for the network that
    build_network makes of net's edges followed by the pendant edge, bit for
    bit, without building that network.

    build_network stores the pendant edge last, so the pendant is row n, the
    last entry of row iz, and its own row is one entry back to iz; no other
    row changes. ``_walk_table``, which builds every row of ``Network.walk``,
    builds those two, and the splice maps row iz and row n to them; the rows
    returned are net's own, uncopied, and ``_marked`` lays the splice over
    them. The pendant's row is there for the lock-step kernel, whose
    finished lanes stay on the target and still read their row. The arrays
    are spliced only when the lock-step kernel asks for them: each copies
    net's, and an estimate of at most _SCALAR_TAIL trials never runs a
    lock-step round.
    """
    rows, cut, jump = net.walk
    n, lo, hi = net.n, int(net.indptr[iz]), int(net.indptr[iz + 1])
    neighbours, weights = net.row(iz)
    (row, pendant), row_cut, row_jump = _walk_table(
        np.array([*weights, c, c]), np.array([0, hi - lo + 1, hi - lo + 2]),
        np.array([*neighbours, n, iz]))

    def arrays():
        indptr, adjacent = net.indptr, net.adjacent
        return (np.concatenate((cut[:lo], row_cut[:-1], cut[hi:], row_cut[-1:])),
                np.concatenate((jump[:iz], row_jump[:1], jump[iz + 1:], row_jump[1:])),
                np.concatenate((indptr[:iz + 1], indptr[iz + 1:] + 1, [len(adjacent) + 2])),
                np.concatenate((adjacent[:hi], [n], adjacent[hi:], [iz])))

    return rows, {iz: row, n: pendant}, arrays


def _lockstep_tables(table: tuple) -> tuple:
    """A walk table's arrays as ``_advance`` and ``_pick`` read them:
    (indptr, neighbour rows, the cuts, the binary-lifting strides that cover
    the largest count of entries a row can pass, largest first, and the jump
    rows end to end)."""
    cut, jump, indptr, adjacent = table[2]()
    degree = int(np.diff(indptr).max())
    return (indptr, adjacent, cut, [1 << k for k in reversed(range((degree - 1).bit_length()))],
            jump.reshape(-1))


def _advance(tables, v: np.ndarray, raw: np.ndarray) -> np.ndarray:
    """Next row of each walk at row v given its 64-bit output raw: the jump
    row's entry for raw's bucket, and ``_pick`` of the uniform where that
    entry is -1, a cut inside the bucket."""
    jump = tables[4]
    w = jump[(v << BUCKET_BITS) | (raw >> _BUCKET_SHIFT).view(np.intp)]
    inside = np.flatnonzero(w < 0)
    if len(inside):
        w[inside] = _pick(tables, v[inside], _double(raw[inside]))
    return w


def _pick(tables, v: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Next row of each walk at row v given its uniform u: bisect_right, vectorised.

    Counts the entries of each row whose cut (``Network.walk``) is at most
    u, as the scalar loop's bisect does, by binary lifting: try strides
    from the largest power of two down, taking a stride when the last entry
    it would pass has its cut at most u. A stride past the row's end tests
    the row's last entry instead, whose cut, inf, never passes, so the
    count stops at the row's last neighbour.
    """
    indptr, row, cut, strides, _ = tables
    passed = indptr[v] - 1  # the last entry passed so far
    last = indptr[v + 1] - 1
    for stride in strides:
        np.add(passed, stride, out=passed, where=cut[np.minimum(passed + stride, last)] <= u)
    return row[passed + 1]


def _path(table: tuple, v: int, uniforms):
    """Yield the rows a walk from row v visits, drawing one uniform per step.

    The walk of ``step`` and ``trace_walk``, on a table with an empty
    splice. Its pick, ``bisect_right`` of u in the row's cuts
    (``Network.walk``), is what the jump entries tabulate, and what
    ``_finish`` and ``_advance`` fall back on where a cut lies inside u's
    bucket; ``_pick`` vectorises it.
    """
    rows = table[0]
    for u in uniforms:
        cuts, neighbours = rows[v][BUCKETS]
        v = neighbours[bisect_right(cuts, u)]
        yield v


def _marked(table: tuple, goals) -> list:
    """The rows of a walk table as a list, with its splice laid over them and
    every jump entry that steps to a row of ``goals`` (-1 for none) marked
    as -2 - that row, so that ``_finish`` tests for arrivals only on
    negative entries.

    Only the goals' neighbours' rows hold such entries, and only those are
    replaced; the table's own rows are left as they are."""
    rows = list(table[0])
    for v, row in table[1].items():
        rows[v:v + 1] = (row,)  # replaces row v, or appends it when v is len(rows)
    marks = {goal: -2 - goal for goal in goals if goal >= 0}
    for u in {u for goal in marks for u in rows[goal][BUCKETS][1]}:
        # an entry not marked is itself, as is the row's (cuts, neighbours) pair
        rows[u] = tuple(map(marks.get, rows[u], rows[u]))
    return rows


def _blocks(bits: np.random.PCG64):
    """Arrays of the 64-bit outputs Generator.random would draw its uniforms
    from, of growing size."""
    size, largest = _BLOCKS
    while True:
        yield bits.random_raw(size)
        size = min(2 * size, largest)


def _finish(rows: list, v: int, target: int, anchor: int, m: int, count: int, cap: int,
            bits: np.random.PCG64, overrun: CapExceeded) -> tuple[int, int]:
    """Walk on from row v, m steps in, until the first arrival at row target.

    Returns (m, count) then: the trial's step count and its arrivals at row
    ``anchor`` (pass -1 for none), starting from ``count``. Raises
    ``overrun`` if step ``cap`` is taken without arriving. This is
    ``_path``'s walk as one flat loop over whole blocks of outputs, because
    resuming a generator per step costs more than the step itself.

    ``rows`` is the table's rows with arrivals at target and anchor marked
    (``_marked``), so a step is one lookup of the output's bucket, and only
    a negative entry is looked at again: a marked arrival, or -1, a cut
    inside the bucket, where the block's uniforms are drawn, once, and the
    step bisects u in the row's cuts (``Network.walk``).
    A block is cut short at the cap, so the cap and the step count are
    settled once per block: on arrival, the steps taken in the block are
    its length less the outputs its iterator has left.
    """
    for raw in _blocks(bits):
        if cap - m < len(raw):
            raw = raw[:cap - m]
        buckets = iter((raw >> _BUCKET_SHIFT).tolist())
        uniforms = None
        for b in buckets:
            w = rows[v][b]
            if w < 0:
                if w == -1:
                    if uniforms is None:
                        uniforms = _double(raw).tolist()
                    cuts, neighbours = rows[v][BUCKETS]
                    # this step's uniform: ~left is -(left + 1), left the outputs to come
                    w = neighbours[bisect_right(cuts, uniforms[~length_hint(buckets)])]
                else:
                    w = -2 - w
                if w == target:
                    return m + len(raw) - length_hint(buckets), count
                if w == anchor:
                    count += 1
            v = w
        m += len(raw)
        if m == cap:
            raise overrun


def _walk_trials(table: tuple, start: int, target: int, anchor: int, trials: int,
                 seed: int, cap: int, label: VertexId) -> tuple[np.ndarray, int, int]:
    """Walk trials 0 .. trials - 1 of a walk table (``_table``) from row start
    until each first reaches row target.

    Returns (samples, steps_total, steps_max). A trial's sample is its
    number of arrivals at row ``anchor`` before the target, or its step
    count when anchor is -1; samples are in trial order. Raises
    CapExceeded, naming row start by ``label``, if any trial needs more
    than ``cap`` steps.

    Up to _CHUNK lanes walk in lock step. A lane whose trial arrives takes
    the next trial at once, from a reserve of seeded states refilled one
    _CHUNK block at a time, and records the round it started in: a trial's
    step count is the round it arrives in less that one, and the oldest
    live lane is the one the cap check reads. Once every trial has a lane,
    finished lanes are masked out until at most _SCALAR_TAIL are live, and
    those trials finish in the scalar loop, each from its own step count.
    Lanes are never compacted: compaction makes arrays of every size under
    1 KiB, and numpy caches each freed small buffer by size, so a process's
    memory grew with every estimate.
    """
    bits = np.random.PCG64(0)
    overrun = CapExceeded(f"walk from {label!r} exceeded the step cap of {cap}")
    samples = np.empty(trials, dtype=np.int64)

    lanes = min(trials, _CHUNK)
    tables = _lockstep_tables(table) if lanes > _SCALAR_TAIL else None  # for lock-step rounds
    state = _seed_states(seed, 0, lanes)
    hi, lo, inc_hi, inc_lo = state
    trial = np.arange(lanes)
    begun = np.zeros(lanes, dtype=np.int64)
    v = np.full(lanes, start, dtype=np.intp)
    seen = np.zeros(lanes, dtype=np.int64)
    walking = np.ones(lanes, dtype=bool)
    reserve, used = state, lanes  # seeded states, of which the first `used` have a lane
    taken = live = lanes  # trials given a lane; lanes walking
    n = steps_total = steps_max = 0
    deadline = cap  # no live lane reaches the cap before this round
    while live > _SCALAR_TAIL:
        _pcg_step(hi, lo, inc_hi, inc_lo)
        v = _advance(tables, v, _output(hi, lo))
        n += 1
        steps_total += live
        if anchor >= 0:
            seen += v == anchor
        done = v == target
        done &= walking
        arrived = np.flatnonzero(done)
        if len(arrived):
            started = begun[arrived]
            samples[trial[arrived]] = n - started if anchor < 0 else seen[arrived]
            steps_max = max(steps_max, n - int(started.min()))
            begun[arrived] = n
            fresh, spent = arrived[:trials - taken], arrived[trials - taken:]
            while len(fresh):  # from the reserve, reseeded when it runs out
                if used == len(reserve[0]):
                    reserve, used = _seed_states(seed, taken, min(_CHUNK, trials - taken)), 0
                room = len(reserve[0]) - used
                lane, fresh = fresh[:room], fresh[room:]
                for to, src in zip(state, reserve):
                    to[lane] = src[used:used + len(lane)]
                trial[lane] = np.arange(taken, taken + len(lane))
                v[lane] = start
                seen[lane] = 0
                used += len(lane)
                taken += len(lane)
            walking[spent] = False
            live -= len(spent)
        if n == deadline:
            deadline = int(np.min(begun, where=walking, initial=n)) + cap
            if n == deadline:
                raise overrun

    rest = np.flatnonzero(walking)
    rows = _marked(table, (target, anchor))
    tail = zip(trial[rest].tolist(), (n - begun[rest]).tolist(), v[rest].tolist(),
               seen[rest].tolist(), hi[rest].tolist(), lo[rest].tolist(),
               inc_hi[rest].tolist(), inc_lo[rest].tolist())
    for k, m, at, count, state_hi, state_lo, step_hi, step_lo in tail:
        bits.state = {
            "bit_generator": "PCG64",
            "state": {"state": state_hi << 64 | state_lo, "inc": step_hi << 64 | step_lo},
            "has_uint32": 0,
            "uinteger": 0,
        }
        steps, count = _finish(rows, at, target, anchor, m, count, cap, bits, overrun)
        samples[k] = steps if anchor < 0 else count
        steps_total += steps - m
        steps_max = max(steps_max, steps)
    return samples, steps_total, steps_max


def _sample_storage(trials: int):
    """Turn running out of memory inside the block into SystemTooLarge, naming
    the storage an estimate over ``trials`` trials needs at its peak."""
    return sized(trials * _SAMPLE_BYTES, "the estimate", "sample storage")


def _check_trial_args(trials: int, step_cap: int) -> None:
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if step_cap < 1:
        raise ValueError(f"step_cap must be >= 1, got {step_cap}")


def _summary(samples: np.ndarray, steps_total: int, steps_max: int, seed: int) -> dict:
    """Estimate fields from per-trial samples in trial order and the step counts.

    numpy sums the int64 samples in float64, as it would a float copy of
    them; while the sum stays below 2**53 every partial sum is exact, so the
    mean has the copy's bits whatever the order. The standard deviation then
    squares the float temporary samples - mean, as it would for the copy.
    """
    trials = len(samples)
    se = float(samples.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return dict(mean=float(samples.mean()), std_error=se, trials=trials, seed=seed,
                steps_total=steps_total, steps_max=steps_max)


def step(net: Network, current: VertexId, rng: np.random.Generator) -> VertexId:
    """Advance one step: neighbour z is chosen with probability C_yz / C_y.

    Sampling is inverse-CDF over the stored neighbour order, consuming
    exactly one uniform draw, so the rng state advances deterministically.
    """
    net.require(current)
    return net.vertices[next(_path(_table(net), net.index[current], (rng.random(),)))]


def trace_walk(
    net: Network,
    start: VertexId,
    target: VertexId,
    rng: np.random.Generator,
    step_cap: int = DEFAULT_STEP_CAP,
) -> WalkTrace:
    """Record a walk from start until it reaches target or hits the cap.

    Unlike the estimators, reaching the cap here is reported in the trace
    instead of raised, so callers can inspect partial paths. One uniform
    is drawn from rng per step taken.
    """
    net.require(start)
    net.require(target)
    goal = net.index[target]
    path = [start]
    reason = "cap-reached"
    walk = _path(_table(net), net.index[start], iter(rng.random, None))
    for v in islice(walk, max(step_cap, 0)):
        path.append(net.vertices[v])
        if v == goal:
            reason = "hit-target"
            break
    return WalkTrace(start=start, steps=tuple(path), terminal_reason=reason)


def _hitting_estimate(table: tuple, start: int, target: int, trials: int, seed: int,
                      cap: int, label: VertexId) -> Estimate:
    """The Estimate of the steps from row start to row target of a walk
    table, row start named by ``label``, for arguments already checked."""
    with _sample_storage(trials):
        walked = _walk_trials(table, start, target, -1, trials, seed, cap, label)
        return Estimate(**_summary(*walked, seed))


def estimate_return_time(
    net: Network,
    z: VertexId,
    trials: int,
    seed: int,
    step_cap: int = DEFAULT_STEP_CAP,
) -> Estimate:
    """Estimate the expected first-return time to z over seeded trials."""
    net.require(z)
    _check_trial_args(trials, step_cap)
    iz = net.index[z]
    return _hitting_estimate(_table(net), iz, iz, trials, seed, step_cap, net.vertices[iz])


def estimate_hitting_time(
    net: Network,
    x: VertexId,
    y: VertexId,
    trials: int,
    seed: int,
    step_cap: int = DEFAULT_STEP_CAP,
) -> Estimate:
    """Estimate the expected first-visit time from x to y (zero when x == y)."""
    net.require(x)
    net.require(y)
    _check_trial_args(trials, step_cap)
    if x == y:
        return Estimate(mean=0.0, std_error=0.0, trials=trials, seed=seed,
                        steps_total=0, steps_max=0)
    ix = net.index[x]
    return _hitting_estimate(_table(net), ix, net.index[y], trials, seed, step_cap,
                             net.vertices[ix])


def estimate_excursions(
    net: Network,
    z: VertexId,
    trials: int,
    seed: int,
    step_cap: int = DEFAULT_STEP_CAP,
    c: float = 1.0,
) -> ExcursionEstimate:
    """Count completed excursions from z before a fresh pendant at z is reached.

    The pendant hangs off z by one edge of conductance c (finite and > 0).
    Each trial walks G~, net plus the pendant, from z until the first
    arrival at the pendant; its sample is the number of returns to z on
    the way, i.e. the excursions that came back. The mean converges to
    C_z / c, and the per-count empirical distribution is kept for
    goodness-of-fit checks against the geometric law.

    G~ is walked through its spliced table (``_pendant_table``), never
    built. Checked in turn: z, c, that G~'s sums are finite, then the
    trial count and step cap.
    """
    net.require(z)
    c = _check_conductance(c)
    _pendant_totals(net, [z], c)
    _check_trial_args(trials, step_cap)
    iz = net.index[z]
    table = _pendant_table(net, iz, c)
    with _sample_storage(trials):
        returns, *steps = _walk_trials(table, iz, net.n, iz, trials, seed, step_cap,
                                       net.vertices[iz])
        summary = _summary(returns, *steps, seed)
        returns.sort()  # in place, once the summary has read the trial order
        last = np.append(np.flatnonzero(returns[1:] != returns[:-1]), len(returns) - 1)
        counts = np.diff(last, prepend=-1)  # the length of each run of one value
        return ExcursionEstimate(**summary, counts=dict(zip(returns[last].tolist(),
                                                            counts.tolist())))
