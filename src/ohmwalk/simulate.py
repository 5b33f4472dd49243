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
step per round, each picking its trial's next vertex by a vectorised
bisect of its uniform in the row's cuts. A lane whose trial arrives takes
the next trial at once, so the lanes stay full until every trial has had
one; after that, finished lanes are masked out. When few trials are still
walking, their states are handed to one reused PCG64 and each is finished
in a flat scalar loop over blocks of its uniforms, with the pick ``step``
and ``trace_walk`` also use. Every trial reads only its own stream and its
result is stored at its own index, so the estimates are those of walking
each substream on its own.

All three walkers read one table, ``Network.walk``. The rule it encodes
picks the neighbour after the entries whose running conductance sum is at
most u times the row's total. Every uniform drawn is a multiple of 2**-53,
and u * total does not decrease as u grows, so an entry passes exactly
when u reaches its cut, the least such multiple at which it passes. A
step is then a bisect of u in the row's cuts, with no product, and picks
what the running-sum bisect picks, bit for bit.

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
from .network import AugmentedNetwork, Network, VertexId
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


def _uniform(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """PCG64's XSL-RR output of each state, as the double Generator.random gives."""
    x = hi ^ lo
    rot = hi >> np.uint64(58)
    return _double((x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63))))


def _lockstep_tables(net: Network) -> tuple:
    """The network's rows as ``_pick`` reads them: (indptr, neighbour rows,
    the cuts of ``Network.walk``, and the binary-lifting strides that cover
    the largest count of entries a row can pass, largest first)."""
    degree = int(np.diff(net.indptr).max())
    return (net.indptr, net.adjacent, net.walk[1],
            [1 << k for k in reversed(range((degree - 1).bit_length()))])


def _pick(tables, v: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Next row of each walk at row v given its uniform u: bisect_right, vectorised.

    Counts the entries of each row whose cut (``Network.walk``) is at most
    u, as the scalar loop's bisect does, by binary lifting: try strides
    from the largest power of two down, taking a stride when the last entry
    it would pass has its cut at most u. A stride past the row's end tests
    the row's last entry instead, whose cut, inf, never passes, so the
    count stops at the row's last neighbour.
    """
    indptr, row, cut, strides = tables
    passed = indptr[v] - 1  # the last entry passed so far
    last = indptr[v + 1] - 1
    for stride in strides:
        np.add(passed, stride, out=passed, where=cut[np.minimum(passed + stride, last)] <= u)
    return row[passed + 1]


def _path(net: Network, v: int, uniforms):
    """Yield the rows a walk from row v visits, drawing one uniform per step.

    The walk of ``step`` and ``trace_walk``. Its pick, ``bisect_right`` of
    u in the row's cuts (``Network.walk``), is the one ``_finish`` inlines
    and ``_pick`` vectorises.
    """
    rows = net.walk[0]
    for u in uniforms:
        cuts, neighbours = rows[v]
        v = neighbours[bisect_right(cuts, u)]
        yield v


def _blocks(bits: np.random.PCG64):
    """Lists of the uniforms Generator.random would draw from bits, of growing size."""
    size, largest = _BLOCKS
    while True:
        yield _double(bits.random_raw(size)).tolist()
        size = min(2 * size, largest)


def _finish(net: Network, v: int, target: int, anchor: int, m: int, count: int, cap: int,
            bits: np.random.PCG64, overrun: CapExceeded) -> tuple[int, int]:
    """Walk on from row v, m steps in, until the first arrival at row target.

    Returns (m, count) then: the trial's step count and its arrivals at row
    ``anchor`` (pass -1 for none), starting from ``count``. Raises
    ``overrun`` if step ``cap`` is taken without arriving. This is
    ``_path``'s walk, one bisect of u in the row's cuts (``Network.walk``)
    per step, as one flat loop over whole blocks of uniforms, because
    resuming a generator per step costs more than the step itself. A block
    is cut short at the cap, so the cap and the step count are settled once
    per block: on arrival, the steps taken in the block are its length less
    the uniforms its iterator has left.
    """
    rows = net.walk[0]
    for block in _blocks(bits):
        if cap - m < len(block):
            block = block[:cap - m]
        uniforms = iter(block)
        for u in uniforms:
            cuts, neighbours = rows[v]
            v = neighbours[bisect_right(cuts, u)]
            if v == target:
                return m + len(block) - length_hint(uniforms), count
            if v == anchor:
                count += 1
        m += len(block)
        if m == cap:
            raise overrun


def _walk_trials(net: Network, start: int, target: int, anchor: int | None,
                 trials: int, seed: int, cap: int) -> tuple[np.ndarray, int, int]:
    """Walk trials 0 .. trials - 1 from row start until each first reaches row target.

    Returns (samples, steps_total, steps_max). A trial's sample is its
    number of arrivals at row ``anchor`` before the target, or its step
    count when anchor is None; samples are in trial order. Raises
    CapExceeded if any trial needs more than ``cap`` steps.

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
    tables = _lockstep_tables(net)
    bits = np.random.PCG64(0)
    overrun = CapExceeded(f"walk from {net.vertices[start]!r} exceeded the step cap of {cap}")
    samples = np.empty(trials, dtype=np.int64)

    lanes = min(trials, _CHUNK)
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
        v = _pick(tables, v, _uniform(hi, lo))
        n += 1
        steps_total += live
        if anchor is not None:
            seen += v == anchor
        done = v == target
        done &= walking
        arrived = np.flatnonzero(done)
        if len(arrived):
            started = begun[arrived]
            samples[trial[arrived]] = n - started if anchor is None else seen[arrived]
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
        steps, count = _finish(net, at, target, -1 if anchor is None else anchor, m, count,
                               cap, bits, overrun)
        samples[k] = steps if anchor is None else count
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
    return net.vertices[next(_path(net, net.index[current], (rng.random(),)))]


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
    walk = _path(net, net.index[start], iter(rng.random, None))
    for v in islice(walk, max(step_cap, 0)):
        path.append(net.vertices[v])
        if v == goal:
            reason = "hit-target"
            break
    return WalkTrace(start=start, steps=tuple(path), terminal_reason=reason)


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
    with _sample_storage(trials):
        walked = _walk_trials(net, iz, iz, None, trials, seed, step_cap)
        return Estimate(**_summary(*walked, seed))


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
    with _sample_storage(trials):
        walked = _walk_trials(net, net.index[x], net.index[y], None, trials, seed, step_cap)
        return Estimate(**_summary(*walked, seed))


def estimate_excursions(
    aug: AugmentedNetwork,
    trials: int,
    seed: int,
    step_cap: int = DEFAULT_STEP_CAP,
) -> ExcursionEstimate:
    """Count completed excursions from the anchor before reaching the pendant.

    Each trial walks the combined network from the anchor until the first
    arrival at the pendant; its sample is the number of returns to the
    anchor on the way, i.e. the excursions that came back. The mean
    converges to C_anchor / pendant_conductance, and the per-count
    empirical distribution is kept for goodness-of-fit checks against the
    geometric law.
    """
    _check_trial_args(trials, step_cap)
    net = aug.combined
    anchor = net.index[aug.anchor]
    with _sample_storage(trials):
        returns, *steps = _walk_trials(net, anchor, net.index[aug.pendant], anchor,
                                       trials, seed, step_cap)
        summary = _summary(returns, *steps, seed)
        returns.sort()  # in place, once the summary has read the trial order
        last = np.append(np.flatnonzero(returns[1:] != returns[:-1]), len(returns) - 1)
        counts = np.diff(last, prepend=-1)  # the length of each run of one value
        return ExcursionEstimate(**summary, counts=dict(zip(returns[last].tolist(),
                                                            counts.tolist())))
