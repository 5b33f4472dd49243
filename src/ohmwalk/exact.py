"""Exact walk quantities via linear algebra on the weighted Laplacian.

Everything here is computed by grounded solves, never by the closed-form
conductance ratios, so the closed forms can be checked against an
independent method. Grounding a vertex (holding it at potential 0) makes
the singular Laplacian invertible without touching pseudoinverses.

Every solve goes through one numpy kernel, ``_eliminate``: Gaussian
elimination in the subtraction-free form of Grassmann, Taksar and Heyman
(GTH). A system is a network with a *leak* (a conductance to ground) at
some vertices. Eliminating a vertex is a Kron reduction: its neighbours
gain couplings and leak in proportion to theirs, and each pivot is the sum
of a vertex's remaining couplings and its leak, never a difference. Every
update and the back-substitution add nonnegative terms only, so with the
nonnegative right-hand sides used here (vertex conductances, unit
currents) every entry of the solution is accurate to a few ulps whatever
the conductance ratios. A grounded vertex moves its couplings into its
neighbours' leak and keeps an empty unit row.

Vertices are eliminated in reverse Cuthill-McKee order
(``Network.ordering``), in which the Laplacian is a band; the kernel
stores each system's band as ``U[k, q] = W(k, k + q)`` and runs a batch
of systems over a leading axis, with elementwise updates and plain sums
along the last axis only, so each member's bits do not depend on the
batch it ran in. Each call eliminates each system it needs once
(``_solve_at``): ``round_trip`` reads both hitting times and R(x, y) from
one batch of two.

``replay``'s two systems at an anchor z differ from the plain system only
at z, so every vertex far from z is eliminated once for all anchors: the
two-level form of the FIND algorithm (Li, Ahmed, Darve & Klimeck, J.
Comput. Phys. 227, 2008). The order is cut into blocks of w anchors, w
the bandwidth; a block's *leaf* is the block and w places either side,
which holds every neighbour of its anchors. One forward sweep eliminates
the order from the front and one backward sweep from the back, each a
single system keeping a copy of the w rows next to each leaf. A leaf's
Kron reduction is the forward copy, the band in between and the backward
copy, and its two systems of at most 3w rows per anchor are solved in
batches of up to ``_batch_limit`` systems (``_leaf_solves``). A sweep
over n anchors costs about 2n · 3w · w² plus two sweeps, against 2n · n ·
w² for whole systems. When 3w >= n the one leaf is the whole network. All
of it is GTH pivots, run by the same kernel loop (``_reduce``).

Storage is sized before it is allocated; running out of memory raises
SystemTooLarge, naming that size.

A zero or non-finite pivot, or a non-finite result, raises SingularSystem:
with no cancellation, that happens only when conductances leave the
floating-point range (products underflowing to 0 or results overflowing).
Only numpy is imported.
"""
from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import SameVertex, SingularSystem, SystemTooLarge
from .network import Distribution, Network, VertexId

_BAND_BYTES = 16 * 2**20  # the largest band one batch of systems may hold


@dataclass(frozen=True, eq=False)
class HittingProfile:
    """Expected steps to reach ``target`` from every vertex, in walk steps.

    values[target] is 0; every other entry satisfies the first-step
    equation h(x) = 1 + sum_z P(x, z) h(z).
    """

    target: VertexId
    values: dict[VertexId, float]


def _band(net: Network):
    """net's couplings in elimination order: (order, place, lo, hi, width).

    Vertex ``order[k]`` is eliminated k-th and ``place`` inverts order; each
    edge joins places lo < hi. ``width`` is the envelope (see _envelope).
    """
    order = np.array(net.ordering, dtype=np.intp)
    place = np.empty(net.n, dtype=np.intp)
    place[order] = np.arange(net.n)
    tail, head, _, _ = net.arrays
    lo = np.minimum(place[tail], place[head])
    hi = np.maximum(place[tail], place[head])
    return order, place, lo, hi, _envelope(lo, hi, net.n)


def _envelope(lo, hi, n: int) -> np.ndarray:
    """How far past k row k reaches once the rows before it are eliminated,
    for edges joining places lo < hi: fill stays inside the envelope, the
    running maximum of each row's furthest coupling."""
    reach = np.arange(n)
    np.maximum.at(reach, lo, hi)
    return np.maximum.accumulate(reach) - np.arange(n)


def _batch_limit(rows: int, w: int) -> int:
    """How many systems of ``rows`` rows at band width w one batch may hold
    within _BAND_BYTES (at least 1)."""
    return max(1, _BAND_BYTES // _band_bytes(1, rows, w))


def _band_bytes(S: int, rows: int, w: int) -> int:
    """The bytes of the band U that _eliminate takes for S such systems."""
    return S * (rows + w) * (w + 1) * 8


@contextmanager
def _sized(nbytes: int):
    """Turn running out of memory inside the block into SystemTooLarge, naming
    nbytes, the band storage the solve was sized at beforehand."""
    try:
        yield
    except MemoryError:
        raise SystemTooLarge(
            f"the solve needs {nbytes / 2**20:.1f} MiB of band storage plus work arrays, "
            "more than could be allocated") from None


def _reduce(U: np.ndarray, R: np.ndarray, width, pivots: np.ndarray, rows: range) -> None:
    """GTH-eliminate ``rows`` (consecutive, in order) of a batch of banded systems.

    Layout as for _eliminate. Row k's pivot goes to pivots[k] and its Kron
    reduction is added into the rows after it, so that afterwards those rows
    hold the system reduced onto the rows not yet eliminated.
    """
    S, N, L = U.shape
    w = L - 1
    # The update of pivot k adds to W(k + a, k + b), 1 <= a < b <= w, which
    # is U[k + a, b - a]: stride L - 1 in a and 1 in b from U[k + 1, 0]. Where
    # b <= a the view lands on column 0 or on other entries, so those get + 0
    # (b = a is the self-loop term GTH drops).
    step, member, col = U.strides[1], U.strides[0], U.strides[2]
    schur = as_strided(U[:, 1:], shape=(N - w, S, w, w), strides=(step, member, step - col, col),
                       writeable=True)
    upper = np.triu(np.ones((w, w)), 1)
    for k in rows:
        e = width[k]
        row = U[:, k, 1:e + 1]
        p = row.sum(-1)
        p += R[:, 0, k]
        pivots[k] = p
        if e:
            f = row / p[:, None]
            t = f[:, :, None] * row[:, None, :]
            t *= upper[:e, :e]
            schur[k, :, :e, :e] += t
            R[:, :, k + 1:k + e + 1] += f[:, None, :] * R[:, :, k, None]


def _substitute(U: np.ndarray, R: np.ndarray, width, pivots: np.ndarray) -> np.ndarray:
    """Back-substitution after _reduce has eliminated every row: x (S, m, n)."""
    S, N, L = U.shape
    n = N - (L - 1)
    x = np.zeros((S, R.shape[1] - 1, N))
    for k in range(n - 1, -1, -1):
        e = width[k]
        s = (U[:, k, None, 1:e + 1] * x[:, :, k + 1:k + e + 1]).sum(-1)
        s += R[:, 1:, k]
        s /= pivots[k][:, None]
        x[:, :, k] = s
    return x[:, :, :n]


def _eliminate(U: np.ndarray, R: np.ndarray, width) -> tuple[np.ndarray, np.ndarray]:
    """GTH elimination and back-substitution for a batch of banded systems.

    For each member s, with w = U.shape[2] - 1 and n rows followed by w rows
    of zero padding: U[s, k, q] (1 <= q <= w) is the coupling W(k, k + q),
    R[s, 0, k] the leak at k and R[s, 1:, k] the right-hand sides, all >= 0
    and finite. Row k holds nothing past width[k]. U and R are overwritten.
    Returns x with x[s, j, k] solving right-hand side j, and the pivots (n, S).
    """
    pivots = np.empty((len(width), U.shape[0]))
    _reduce(U, R, width, pivots, range(len(width)))
    return _substitute(U, R, width, pivots), pivots


def _check(pivots: np.ndarray, *values: np.ndarray) -> None:
    """SingularSystem unless every pivot is > 0 and every value finite."""
    if not (np.all(pivots > 0.0) and all(np.all(np.isfinite(v)) for v in values)):
        raise SingularSystem(
            "grounded solve left the floating-point range: a pivot underflowed to 0 or "
            "a result overflowed, so the conductances are too far apart for doubles")


def _ground(U: np.ndarray, R: np.ndarray, members: np.ndarray, rows: np.ndarray) -> None:
    """Hold row rows[i] of member members[i] at 0: its couplings become its
    neighbours' leak, and it keeps an empty unit row (pivot 1, value 0)."""
    w = U.shape[2] - 1
    pad = U.shape[1] - w  # the first padding row, all zeros
    s, g = members[:, None], rows[:, None]
    q = np.arange(1, w + 1)
    above = np.where(g >= q, g - q, pad)
    R[s, 0, g + q] += U[s, g, q]  # couplings to g become leak, after g
    R[s, 0, above] += U[s, above, q]  # and before it
    U[s, g, q] = 0.0
    U[s, above, q] = 0.0
    R[members, :, rows] = 0.0
    R[members, 0, rows] = 1.0


def _solve_at(net: Network, grounds, b: np.ndarray, leak: np.ndarray | None = None) -> np.ndarray:
    """Solve a batch of net's grounded systems, eliminating each once.

    Member s is net's Laplacian plus ``leak[s]`` (a conductance from each
    vertex to ground; none when leak is None) with vertex row ``grounds[s]``
    held at 0, or no vertex when it is None (the leak must then reach
    ground). b[s] has a row per vertex and a column per right-hand side, all
    >= 0; row grounds[s], the current the ground absorbs, is ignored.
    Returns x of b's shape, with x[s, grounds[s]] = 0.
    """
    order, place, lo, hi, width = _band(net)
    _, _, conductance, _ = net.arrays
    S, n, m = b.shape
    w = int(width.max())
    with _sized(_band_bytes(S, n, w)):
        U = np.zeros((S, n + w, w + 1))
        U[:, lo, hi - lo] = conductance
        R = np.zeros((S, m + 1, n + w))
        R[:, 1:, :n] = b[:, order].transpose(0, 2, 1)
        if leak is not None:
            R[:, 0, :n] = leak[:, order]
        held = [s for s, g in enumerate(grounds) if g is not None]
        if held:
            _ground(U, R, np.array(held), place[[grounds[i] for i in held]])
        with np.errstate(all="ignore"):
            x, pivots = _eliminate(U, R, width.tolist())
    _check(pivots, x)
    return x[:, :, place].transpose(0, 2, 1)


def _leaves(n: int, w: int):
    """The leaf partition of n places at band width w: (B, first, end, L).

    The anchors at places [i·B, (i + 1)·B) share leaf i, the places
    [first[i], end[i]): their block and w places either side, which holds
    every neighbour of every anchor in the block. L is the largest leaf's
    size. B = w; when B + 2w >= n there is one leaf, the whole network.
    """
    if 3 * w >= n:
        return n, np.zeros(1, dtype=np.intp), np.array([n]), n
    start = np.arange(0, n, w)
    return w, np.maximum(start - w, 0), np.minimum(start + 2 * w, n), 3 * w


def _leaf_width(width: np.ndarray, first: np.ndarray, end: np.ndarray, L: int) -> list:
    """One envelope for every leaf system: at each of the L rows, the
    furthest any leaf's row reaches within the leaf. A function of the
    network alone, so a system's bits do not depend on its batch."""
    n = len(width)
    k = first[:, None] + np.arange(L)
    inside = k < end[:, None]
    k = np.minimum(k, n - 1)
    reach = np.minimum(k + width[k], end[:, None] - 1) - k
    return np.where(inside, reach, 0).max(0).tolist()


def _sweep(U: np.ndarray, R: np.ndarray, width, stops: list, w: int):
    """Eliminate one banded system (a batch of one, laid out as for
    _eliminate) from its first row, and at each of the nondecreasing
    ``stops`` copy the next w rows: their couplings U and their leak and
    right-hand side R. Eliminating rows [0, stop) changes no entry outside
    those w rows, so a copy and the untouched rows after it are the system
    Kron-reduced onto [stop, n). Returns the copies, stacked."""
    pivots = np.empty((len(width), 1))
    Uc = np.empty((len(stops), w, w + 1))
    Rc = np.empty((len(stops), R.shape[1], w))
    done = 0
    with np.errstate(all="ignore"):
        for i, stop in enumerate(stops):
            _reduce(U, R, width, pivots, range(done, stop))
            done = stop
            Uc[i] = U[0, stop:stop + w]
            Rc[i] = R[0, :, stop:stop + w]
    _check(pivots[:done], Uc, Rc)
    return Uc, Rc


def _leaf_systems(net: Network, band, first: np.ndarray, end: np.ndarray, L: int):
    """The leaves [first[i], end[i]) of net's system with no leak and the
    vertex conductances on the right: net Kron-reduced onto each leaf, laid
    out as for _eliminate over L rows (rows past a leaf's end are empty unit
    rows). Returns U (k, L + w, w + 1) and R (k, 2, L + w).

    The reduction onto [a, b) is the forward sweep's copy at a, the original
    band in the middle, and the backward sweep's copy at b: eliminating
    [0, a) changes entries among [a, a + w) only, eliminating [b, n) from
    the back entries among [b - w, b) only, and a leaf with a > 0 and b < n
    spans 3w places, so the two never meet.
    """
    order, _, lo, hi, width = band
    _, _, conductance, vertex_conductance = net.arrays
    n, w, k = net.n, int(width.max()), len(first)
    U0 = np.zeros((n + w, w + 1))
    U0[lo, hi - lo] = conductance
    rhs = np.zeros(n + w)
    rhs[:n] = vertex_conductance[order]

    rows = first[:, None] + np.arange(L)
    inside = rows < end[:, None]
    rows = np.where(inside, rows, n)  # a padding row
    U = np.zeros((k, L + w, w + 1))
    U[:, :L] = np.where(rows[:, :, None] + np.arange(w + 1) < end[:, None, None], U0[rows], 0.0)
    R = np.zeros((k, 2, L + w))
    R[:, 0, :L] = ~inside  # an empty unit row: pivot 1, value 0
    R[:, 1, :L] = rhs[rows]

    ahead = np.flatnonzero(first > 0)
    if len(ahead):
        U1, R1 = U0[None].copy(), np.zeros((1, 2, n + w))
        R1[0, 1] = rhs
        Uc, Rc = _sweep(U1, R1, width.tolist(), first[ahead].tolist(), w)
        U[ahead, :w] = Uc
        R[ahead, :, :w] = Rc
    behind = np.flatnonzero(end < n)
    if len(behind):
        # The reversed band: reversed row j is place n - 1 - j.
        Ur, Rr = np.zeros((1, n + w, w + 1)), np.zeros((1, 2, n + w))
        Ur[0, n - 1 - hi, hi - lo] = conductance
        Rr[0, 1, :n] = rhs[n - 1::-1]
        stops = (n - end[behind])[::-1].tolist()
        Uc, Rc = _sweep(Ur, Rr, _envelope(n - 1 - hi, n - 1 - lo, n).tolist(), stops, w)
        # Copy row r, reversed row n - end + r, is the leaf's local row
        # last - r, with last = end - 1 - first; its coupling q reaches down to
        # local row last - r - q, where the band stores it in column q.
        last = (end - 1 - first)[behind][:, None, None]
        r, q = np.arange(w)[:, None], np.arange(1, w + 1)
        U[behind[:, None, None], last - r - q, q] = Uc[::-1, :, 1:]
        R[behind[:, None], :, last[:, :, 0] - np.arange(w)] = Rc[::-1].transpose(0, 2, 1)
    return U, R


def _leaf_solves(net: Network, rows: list[int], leaky: list[float], c: float):
    """Replay's two systems at each anchor row z in turn (see replay.replay),
    each solved in z's leaf, places [a, b): net with a leak c at z, C~_z =
    leaky[i] and a unit current at z on the right; and net grounded at z.
    Both also have the vertex conductances on the right. Yields, per anchor,
    a and both solutions at places a, ..., b - 1: leaked (2, b - a) and
    grounded (b - a,).

    Both sweeps run once, only as far as the anchors' leaves need, and the
    leaf systems run through _eliminate in batches within _BAND_BYTES. A
    leaf depends only on net and the partition, so its bits do not depend
    on which anchors were asked for or on the batch.
    """
    band = _band(net)
    _, place, _, _, width = band
    n, w = net.n, int(width.max())
    B, first, end, L = _leaves(n, w)
    leaf_width = _leaf_width(width, first, end, L)
    ids, at = np.unique(place[rows] // B, return_inverse=True)
    starts, sizes = first[ids], (end - first)[ids]
    chunk = max(1, _batch_limit(L, w) // 2)
    sweeps = 2 if len(first) > 1 else 0
    nbytes = _band_bytes(len(ids) + 2 * min(chunk, len(rows)), L, w) + _band_bytes(sweeps, n, w)
    with _sized(nbytes):
        Ub, Rb = _leaf_systems(net, band, starts, end[ids], L)
    for start in range(0, len(rows), chunk):
        part = slice(start, start + chunk)
        leaf = at[part]
        A = len(leaf)
        g = place[rows[part]] - starts[leaf]
        leaks, grounds = np.arange(0, 2 * A, 2), np.arange(1, 2 * A, 2)
        with _sized(nbytes):
            U = Ub[np.repeat(leaf, 2)]
            R = np.zeros((2 * A, 3, L + w))
            R[:, :2] = Rb[np.repeat(leaf, 2)]
            R[leaks, 0, g] = c
            R[leaks, 1, g] = leaky[part]
            R[leaks, 2, g] = 1.0
            _ground(U, R, grounds, g)
            with np.errstate(all="ignore"):
                x, pivots = _eliminate(U, R, leaf_width)
        _check(pivots, x)
        for i, m in enumerate(sizes[leaf]):
            yield starts[leaf[i]], x[2 * i, :, :m], x[2 * i + 1, 0, :m]


def _solve_anchors(net: Network, rows: list[int], leaky: list[float], c: float):
    """For each anchor row z in turn, from its two leaf solves (_leaf_solves):
    G~'s hitting time from z to the pendant, R(z, pendant), and the return
    time to z from the hitting times at z's neighbours."""
    place = _band(net)[1]
    for iz, (a, leaked, grounded) in zip(rows, _leaf_solves(net, rows, leaky, c)):
        z = net.vertices[iz]
        h = {net.index[y]: grounded[place[net.index[y]] - a] for y, _ in net.neighbors[z]}
        z_to_pendant, resistance = leaked[:, place[iz] - a].tolist()
        yield z_to_pendant, resistance, _first_return(net, z, h)


def _first_return(net: Network, z: VertexId, h) -> float:
    """One step from z plus the conductance-weighted hitting times h (by row) back to z."""
    cz = net.vertex_conductance[z]
    return 1.0 + math.fsum(c / cz * h[net.index[y]] for y, c in net.neighbors[z])


def effective_resistance(net: Network, x: VertexId, y: VertexId) -> float:
    """Effective resistance between x and y (ohms, conductances as siemens).

    Solves the system grounded at y, with a unit current pushed in at x
    and pulled out at the ground. Symmetric in its arguments and
    zero exactly when x == y.
    """
    net.require(x)
    net.require(y)
    if x == y:
        return 0.0
    ix = net.index[x]
    b = np.zeros((1, net.n, 1))
    b[0, ix] = 1.0
    return float(_solve_at(net, [net.index[y]], b)[0, ix, 0])


def resistance_matrix(net: Network) -> np.ndarray:
    """All-pairs effective resistances from one grounded elimination.

    Entry (i, j) follows vertex order. Same grounded-solve method as
    effective_resistance, amortized: with G the grounded inverse (ground =
    first vertex), R_xy = G_xx + G_yy - 2 G_xy.
    """
    G = _solve_at(net, [0], np.eye(net.n)[None])[0]
    G = 0.5 * (G + G.T)
    d = np.diagonal(G)
    R = d[:, None] + d[None, :] - 2.0 * G
    np.fill_diagonal(R, 0.0)
    return R


def hitting_time(net: Network, target: VertexId) -> HittingProfile:
    """Expected first-visit times to ``target`` from every start vertex.

    First-step analysis: h(target) = 0 and h(x) = 1 + sum_z P(x, z) h(z)
    elsewhere. Row x of that system scaled by C_x is exactly the grounded
    Laplacian row, so the whole profile comes from one grounded solve with
    the vertex conductances as right-hand side.
    """
    net.require(target)
    *_, vertex_conductance = net.arrays
    h = _solve_at(net, [net.index[target]], vertex_conductance[None, :, None])[0, :, 0].tolist()
    return HittingProfile(target=target, values=dict(zip(net.vertices, h)))


@dataclass(frozen=True, eq=False)
class RoundTrip:
    """The trip x -> y -> x: both expected hitting times, in walk steps,
    and the effective resistance R(x, y) from the solve grounded at y."""

    x_to_y: float
    y_to_x: float
    resistance: float


def round_trip(net: Network, x: VertexId, y: VertexId) -> RoundTrip:
    """Both hitting times between x and y and R(x, y), from two eliminations.

    One batch of two systems: grounded at y, it solves the hitting-time
    right-hand side (the vertex conductances) and a unit current at x
    together; grounded at x, the hitting times back. Each value is bit for
    bit what hitting_time and effective_resistance return.
    """
    net.require(x)
    net.require(y)
    if x == y:
        raise SameVertex(f"a round trip needs two distinct vertices, got {x!r} twice")
    ix, iy = net.index[x], net.index[y]
    *_, vertex_conductance = net.arrays
    b = np.zeros((2, net.n, 2))
    b[:, :, 0] = vertex_conductance
    b[0, ix, 1] = 1.0  # the unit current, grounded at y
    x = _solve_at(net, [iy, ix], b)
    return RoundTrip(x_to_y=float(x[0, ix, 0]), y_to_x=float(x[1, iy, 0]),
                     resistance=float(x[0, ix, 1]))


def commute_time(net: Network, x: VertexId, y: VertexId) -> float:
    """Expected round trip x -> y -> x, as the sum of the two hitting times."""
    trip = round_trip(net, x, y)
    return trip.x_to_y + trip.y_to_x


def return_time(net: Network, z: VertexId) -> float:
    """Expected first-return time to z, from first-step analysis.

    One step plus the conductance-weighted average of the neighbours'
    hitting times back to z. Deliberately never reads the closed-form
    ratio, so it serves as the independent oracle for it.
    """
    net.require(z)
    *_, vertex_conductance = net.arrays
    h = _solve_at(net, [net.index[z]], vertex_conductance[None, :, None])[0, :, 0]
    return _first_return(net, z, h)


def return_time_formula(net: Network, z: VertexId) -> float:
    """Closed-form expected return time: total over vertex conductance."""
    net.require(z)
    return net.total_conductance / net.vertex_conductance[z]


def stationary_distribution(net: Network) -> Distribution:
    """Stationary law of the induced walk: each vertex weighted C_z / C."""
    C = net.total_conductance
    return Distribution({z: net.vertex_conductance[z] / C for z in net.vertices})
