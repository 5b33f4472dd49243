"""Exact walk quantities via linear algebra on the weighted Laplacian.

Everything here is computed by grounded solves, never by the closed-form
conductance ratios, so the closed forms can be checked against an
independent method. Grounding a vertex (holding it at potential 0) makes
the singular Laplacian invertible without touching pseudoinverses.

Every solve goes through one numpy kernel, ``_eliminate``: Gaussian
elimination in the subtraction-free form of Grassmann, Taksar and Heyman
(GTH). A whole system (``_solve_at``) is the network held at 0 at one
vertex, whose couplings become its neighbours' *leak* (a conductance to
ground) while it keeps an empty unit row; only replay's leaf systems
(``_leaf_solves``) also leak at their anchor. Eliminating a vertex is a
Kron reduction: its neighbours gain couplings and leak in proportion to
theirs, and each pivot is the sum of a vertex's remaining couplings and its
leak, never a difference. Every update and the back-substitution add
nonnegative terms only, so with the nonnegative right-hand sides used here
(vertex conductances, unit currents) every entry of the solution is
accurate to a few ulps whatever the conductance ratios.

Vertices are eliminated in reverse Cuthill-McKee order
(``Network.ordering``), in which the Laplacian is a band; the kernel
stores each system's band as ``U[k, q] = W(k, k + q)`` and runs a batch
of systems over a leading axis. It eliminates in panels of ``_PANEL``
rows, as blocked LU does: a panel's rows are copied into a small dense
buffer, one outer product per pivot updates the rest of the panel, and one
matmul per member applies the panel's Kron reduction to the rows after it
(``_reduce``). The back-substitution runs in the same panels, last first
(``_substitute``): one matmul per member brings in the solution after the
panel, and one more solves the panel's own rows by (I - N)^-1, N the
panel's strict upper triangle over its pivots, a nonnegative matrix built
for every panel at once (``_panel_inverses``). Each of those products is of
nonnegative numbers, so the subtraction-free guarantee holds. A member's
bits do not depend on the batch it ran in: the other updates are
elementwise, the sums run along each member's own rows, and each matmul
multiplies one member's matrices, whose shapes the system fixes. Nor do
they depend on the number of right-hand sides: a column of a matmul's
product is the same at any width, except in the gemv that numpy calls for
a product of one row or one column. So the elimination sums a one-row
update elementwise, and the back-substitution pads the right-hand sides to
two columns; its only one-row products, in a last panel of one row, have
no rows after them and a 1 x 1 inverse, so they sum nothing. Each call
eliminates each system it needs once (``_solve_at``): ``round_trip``
reads both hitting times and R(x, y) from one batch of two.

Each system is scaled by one power of two before it is eliminated
(``_scale``), chosen from the network and its leak alone: when its largest
conductance is below 1, up to [1, 2); whole systems have no leak, so a
batch of them shares one scale. That changes no solution and, for
inputs without subnormal values, no bit; subnormal conductances, which are
multiples of 5e-324, would otherwise keep only a few bits through the
Kron updates.

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
of it is GTH pivots, run by the same kernel loop (``_reduce``). Its panels
start at multiples of ``_PANEL`` in each system's own order; a sweep also
cuts one at every leaf boundary up to the furthest it needs and copies
there, between panels, so no copy depends on which anchors were asked for.

Storage is sized before it is allocated; running out of memory raises
SystemTooLarge, naming that size.

A zero or non-finite pivot, or a non-finite result, raises SingularSystem:
with no cancellation, that happens only when conductances leave the
floating-point range (products underflowing to 0 or results overflowing).
Only numpy is imported.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import SameVertex, SingularSystem
from .network import Distribution, Network, VertexId
from .util import sized

_BAND_BYTES = 16 * 2**20  # the most band storage and work arrays one batch may take
# Rows per panel of _reduce. On one pinned Xeon core, at 4, 8 and 16 rows a
# 60x60 grid's elimination took 0.047, 0.043 and 0.040 s, and a 20x20 grid's
# verify sweep, whose leaf batches pay more per pivot for wider panels, 0.10,
# 0.07 and 0.12 s.
_PANEL = 8
_sized = partial(sized, task="the solve", storage="band storage plus work arrays")


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
    lo = np.minimum(place[net.tail], place[net.head])
    hi = np.maximum(place[net.tail], place[net.head])
    return order, place, lo, hi, _envelope(lo, hi, net.n)


def _envelope(lo, hi, n: int) -> np.ndarray:
    """How far past k row k reaches once the rows before it are eliminated,
    for edges joining places lo < hi: fill stays inside the envelope, the
    running maximum of each row's furthest coupling."""
    reach = np.arange(n)
    np.maximum.at(reach, lo, hi)
    return np.maximum.accumulate(reach) - np.arange(n)


def _batch_limit(rows: int, w: int, m: int) -> int:
    """How many systems of ``rows`` rows at band width w with m right-hand
    sides one batch may hold within _BAND_BYTES (at least 1)."""
    return max(1, _BAND_BYTES // _band_bytes(1, rows, w, m))


def _band_bytes(S: int, rows: int, w: int, m: int) -> int:
    """The bytes _eliminate takes for S such systems with m right-hand sides:
    the band U and R, and the kernel's work arrays (the panel buffer and one
    pivot's update to it, the multipliers and the trailing block; each
    panel's block, its pivots, and the block's inverse or the products that
    build it; the solution)."""
    panel = _PANEL * (_PANEL + w + m + 1)
    blocks = -(-rows // _PANEL) * _PANEL * (2 * _PANEL + 3)
    solution = rows * max(m, 2)
    return S * ((rows + w) * (w + m + 2) + 2 * panel + _PANEL * w + w * (w + m + 1)
                + blocks + solution) * 8


def _diagonals(U: np.ndarray, h: int) -> np.ndarray:
    """The view D[s, r, a, b] = U[s, r + a, b - a] (a, b < h) of a band U:
    for b > a, W(r + a, r + b). Where b <= a it lands on column 0 or on
    other rows' entries, so it must only be added to where b > a. Built
    once per band; D[:, r] is then the h x h block at row r."""
    s0, s1, s2 = U.strides
    return as_strided(U, shape=(U.shape[0], U.shape[1] - h + 1, h, h),
                      strides=(s0, s1, s1 - s2, s2), writeable=True)


def _skewed(T: np.ndarray, w: int) -> np.ndarray:
    """The view skew[s, i, q] = T[s, i, i + 1 + q] (q < w) of a panel buffer:
    band row i's couplings, placed in absolute column order."""
    s0, s1, s2 = T.strides
    return as_strided(T[:, 0, 1:], shape=(T.shape[0], T.shape[1], w), strides=(s0, s1 + s2, s2),
                      writeable=True)


def _panel_ends(width, starts) -> list:
    """For each panel, the rows from one of ``starts`` to the next or to the
    end, one past the furthest row any of its rows reaches."""
    return (np.maximum.reduceat(np.arange(len(width)) + width, starts) + 1).tolist()


def _kron(D: np.ndarray, R: np.ndarray, T: np.ndarray, pivots: np.ndarray,
          upper: np.ndarray) -> None:
    """Add into h band rows the Kron reduction of a panel's p eliminated rows:
    T's rows (see _reduce) with their pivots (p, S), T's column p + a
    coupling the a-th of the h rows, the rows just after the panel. D is
    those rows' h x h block (see _diagonals) and R their leak and right-hand
    sides (S, m + 1, h). ``upper`` is a strict upper triangle at least h x h,
    as a mask. One matmul per member: its sum runs over the panel's rows,
    and each product is of nonnegative numbers."""
    h, p = D.shape[1], T.shape[1]
    F = T[:, :, p:p + h] / pivots.T[:, :, None]
    if h > 1:
        G = np.matmul(F.transpose(0, 2, 1), T[:, :, p:])
    else:  # numpy's matmul would call gemv, whose sums depend on the row's length
        G = (F * T[:, :, p:]).sum(1)[:, None]
    np.add(D, G[:, :, :h], out=D, where=upper[:h, :h])
    R += G[:, :, T.shape[2] - R.shape[1] - p:].transpose(0, 2, 1)


def _reduce(U: np.ndarray, R: np.ndarray, width, pivots: np.ndarray, stops=(),
            blocks: np.ndarray | None = None) -> list:
    """GTH-eliminate a batch of banded systems from their first row, in
    panels of at most _PANEL rows; layout as for _eliminate. Row k's pivot
    goes to pivots[k], and row k keeps its couplings and right-hand sides as
    they stood at its pivot.

    A panel's rows are copied into a buffer T in absolute column order:
    T[s, i, j] is W(k0 + i, k0 + j) for i < j < _PANEL + w, followed by
    the leak and the right-hand sides. One outer product per pivot updates
    the rest of the panel; then one matmul applies the panel's Kron
    reduction to the rows after it (_kron). Panels start at multiples of
    _PANEL and at every stop, so a member's bits depend on its own system
    and the stops only. When blocks is given (with no stops), panel b's
    couplings among its own rows, T[s, a, c] once its pivots are taken, go
    to blocks[a, c, b, s]; their strict upper triangle is what _substitute
    needs.

    Without stops every row is eliminated and [] returned. Otherwise rows
    [0, stops[-1]) are, and for each (nondecreasing) stop s a copy of the
    band rows [s, s + w), U (S, w, w + 1) and R (S, m + 1, w), taken
    between panels once rows [0, s) are eliminated and nothing is pending.
    """
    S, N, L = U.shape
    w, P = L - 1, _PANEL
    n = stops[-1] if stops else len(width)  # the rows to eliminate
    starts = sorted({*range(0, n, P), *stops} - {n})
    lead = P + w
    # T's entries at and below the diagonal take updates that nothing reads.
    T = np.zeros((S, P, lead + R.shape[1]))
    skew = _skewed(T, w)
    diagonals = _diagonals(U, w)
    upper = np.triu(np.ones((w, w), dtype=bool), 1)
    copies = dict.fromkeys(stops)
    for k0, k1, end in zip(starts, starts[1:] + [n], _panel_ends(width[:n], starts)):
        p = k1 - k0
        skew[:, :p] = U[:, k0:k1, 1:]
        T[:, :p, lead:] = R[:, :, k0:k1].transpose(0, 2, 1)
        for i in range(p):
            row = T[:, i, i + 1:]
            pivot = np.add.reduce(row[:, :lead - i], -1)  # the couplings and the leak
            pivots[k0 + i] = pivot
            if i + 1 < p:
                f = row[:, :p - i - 1] / pivot[:, None]
                T[:, i + 1:p, i + 1:] += f[:, :, None] * row[:, None, :]
        U[:, k0:k1, 1:] = skew[:, :p]
        R[:, :, k0:k1] = T[:, :p, lead:].transpose(0, 2, 1)
        if blocks is not None:
            blocks[:p, :p, k0 // P] = T[:, :p, :p].transpose(1, 2, 0)
        h = end - k1
        if h > 0:
            _kron(diagonals[:, k1, :h, :h], R[:, :, k1:end], T[:, :p], pivots[k0:k1], upper)
        if k1 in copies:
            copies[k1] = U[:, k1:k1 + w].copy(), R[:, :, k1:k1 + w].copy()
    return [copies[stop] for stop in stops]


def _panel_inverses(blocks: np.ndarray, pivots: np.ndarray) -> np.ndarray:
    """For each panel of _PANEL rows, (I - N)^-1, where N[a, b] = W(a, b) /
    pivot(a) for a < b is the panel's strict upper triangle over its
    pivots: blocks[a, b, panel, s] (see _reduce), overwritten. Returns them
    as (S, panels, _PANEL, _PANEL).

    Every panel of every member at once, from the last row up: row a is e_a
    plus the sum over b > a of N[a, b] times row b, a sum of nonnegative
    products taken in order of b. Rows past the last pivot (a short last
    panel) get pivot 1. Nothing at or below a block's diagonal is read."""
    P, _, nb, S = blocks.shape
    scale = np.ones((nb * P, S))
    scale[:len(pivots)] = pivots
    scale = scale.reshape(nb, P, S).transpose(1, 0, 2)
    M = blocks
    M[np.tril_indices(P, -1)] = 0.0
    M[np.diag_indices(P)] = 1.0
    for a in range(P - 2, -1, -1):
        M[a, a + 1:] = (M[a, a + 1:, None] / scale[a] * M[a + 1:, a + 1:]).sum(0)
    return np.ascontiguousarray(M.transpose(3, 2, 0, 1))


def _substitute(U: np.ndarray, R: np.ndarray, width, pivots: np.ndarray,
                blocks: np.ndarray) -> np.ndarray:
    """Back-substitution after _reduce has eliminated every row and filled
    blocks: x (S, m, n).

    The panels of _reduce, last first. A panel's rows are copied into a
    buffer T in absolute column order, as in _reduce. One matmul per member
    adds their couplings to the rows after the panel, times those rows'
    solutions, to their right-hand sides, which are then divided by their
    pivots; one more, by the panel's (I - N)^-1 (_panel_inverses), solves
    the panel's own rows. Every product is of nonnegative numbers. The
    right-hand sides are padded to at least two columns, so that one of them
    alone meets the same products, and the same BLAS routines, as two do: a
    one-column product would go to gemv, whose sums differ from gemm's.
    """
    S, N, L = U.shape
    w, n, P = L - 1, len(width), _PANEL
    m = R.shape[1] - 1
    inverses = _panel_inverses(blocks, pivots)
    x = np.zeros((S, n, max(m, 2)))
    x[:, :, :m] = R[:, 1:, :n].transpose(0, 2, 1)  # the right-hand sides, replaced panel by panel
    T = np.zeros((S, P, P + w))
    skew = _skewed(T, w)
    ends = _panel_ends(width, range(0, n, P))
    for k0 in range((n - 1) // P * P, -1, -P):
        k1 = min(k0 + P, n)
        p, e = k1 - k0, ends[k0 // P] - k0
        skew[:, :p] = U[:, k0:k1, 1:]
        c = np.matmul(T[:, :p, p:e], x[:, k1:k0 + e])
        c += x[:, k0:k1]
        c /= pivots[k0:k1].T[:, :, None]
        x[:, k0:k1] = np.matmul(inverses[:, k0 // P, :p, :p], c)
    return x[:, :, :m].transpose(0, 2, 1)


def _eliminate(U: np.ndarray, R: np.ndarray, width) -> tuple[np.ndarray, np.ndarray]:
    """GTH elimination and back-substitution for a batch of banded systems.

    For each member s, with w = U.shape[2] - 1 and n rows followed by w rows
    of zero padding: U[s, k, q] (1 <= q <= w) is the coupling W(k, k + q),
    R[s, 0, k] the leak at k and R[s, 1:, k] the right-hand sides, all >= 0
    and finite. Row k holds nothing past width[k]. U and R are overwritten.
    Returns x with x[s, j, k] solving right-hand side j, and the pivots (n, S).
    """
    n = len(width)
    pivots = np.empty((n, U.shape[0]))
    blocks = np.zeros((_PANEL, _PANEL, -(-n // _PANEL), U.shape[0]))
    _reduce(U, R, width, pivots, blocks=blocks)
    return _substitute(U, R, width, pivots, blocks), pivots


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


def _scale(net: Network, leak: float = 0.0) -> int:
    """The power of two that a system of net with the largest leak ``leak``
    is scaled by: its couplings, leak and right-hand sides alike, which
    changes no solution. When the largest conductance, leak included, is
    below 1, it lands in [1, 2); otherwise nothing is scaled. A system whose
    unscaled values are all normal keeps every bit, and one whose
    conductances are subnormal no longer loses bits to the multiples of
    5e-324 they round to. At most 2**1022, so a unit current stays finite."""
    top = max(float(net.conductance.max()), leak)
    return min(max(0, 1 - math.frexp(top)[1]), 1022)


def _solve_at(net: Network, grounds, b: np.ndarray) -> np.ndarray:
    """Solve a batch of net's grounded systems, eliminating each once.

    Member s is net's Laplacian with vertex row ``grounds[s]`` held at 0.
    b[s] has a row per vertex and a column per right-hand side, all >= 0;
    row grounds[s], the current the ground absorbs, is ignored. Returns x
    of b's shape, with x[s, grounds[s]] = 0. The batch is scaled as net is
    (_scale).
    """
    order, place, lo, hi, width = _band(net)
    S, n, m = b.shape
    w = int(width.max())
    k = _scale(net)
    with _sized(_band_bytes(S, n, w, m)):
        U = np.zeros((S, n + w, w + 1))
        U[:, lo, hi - lo] = np.ldexp(net.conductance, k)
        R = np.zeros((S, m + 1, n + w))
        R[:, 1:, :n] = np.ldexp(b[:, order], k).transpose(0, 2, 1)
        _ground(U, R, np.arange(S), place[grounds])
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


def _sweep(U: np.ndarray, R: np.ndarray, width, stops: list):
    """Eliminate one banded system (a batch of one, laid out as for
    _eliminate) from its first row, and at each of the nondecreasing
    ``stops`` copy the next w rows, w the band width: their couplings U and
    their leak and right-hand side R (see _reduce). A panel ends at every
    stop, so each copy is taken between two panels. Eliminating rows
    [0, stop) changes no entry outside those w rows, so a copy and the
    untouched rows after it are the system Kron-reduced onto [stop, n).
    Returns the copies, stacked."""
    pivots = np.empty((len(width), 1))
    with np.errstate(all="ignore"):
        copies = _reduce(U, R, width, pivots, stops)
    Uc = np.stack([u[0] for u, _ in copies])
    Rc = np.stack([r[0] for _, r in copies])
    _check(pivots[:stops[-1]], Uc, Rc)
    return Uc, Rc


def _leaf_systems(net: Network, band, leaves, ids: np.ndarray, scale: int):
    """Leaves ids (increasing) of the partition ``leaves`` (see _leaves) of
    net's system with no leak and the vertex conductances on the right, all
    scaled by 2**scale: net Kron-reduced onto each leaf [first, end), laid
    out as for _eliminate over L rows (rows past a leaf's end are empty
    unit rows). Returns U (k, L + w, w + 1) and R (k, 2, L + w).

    The reduction onto [a, b) is the forward sweep's copy at a, the original
    band in the middle, and the backward sweep's copy at b: eliminating
    [0, a) changes entries among [a, a + w) only, eliminating [b, n) from
    the back entries among [b - w, b) only, and a leaf with a > 0 and b < n
    spans 3w places, so the two never meet. Each sweep stops at every leaf
    boundary up to the furthest one that ids need, so where it cuts its
    panels depends on the network alone, not on which leaves were asked for.
    """
    order, _, lo, hi, width = band
    _, first, end, L = leaves
    conductance = np.ldexp(net.conductance, scale)
    n, w, k = net.n, int(width.max()), len(ids)
    U0 = np.zeros((n + w, w + 1))
    U0[lo, hi - lo] = conductance
    rhs = np.zeros(n + w)
    rhs[:n] = np.ldexp(net.row_conductance[order], scale)

    forward, backward = first[first > 0], (n - end[end < n])[::-1]  # every cut, ascending
    first, end = first[ids], end[ids]
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
        stops = forward[forward <= first[-1]]
        Uc, Rc = _sweep(U1, R1, width.tolist(), stops.tolist())
        at = np.searchsorted(stops, first[ahead])
        U[ahead, :w] = Uc[at]
        R[ahead, :, :w] = Rc[at]
    behind = np.flatnonzero(end < n)
    if len(behind):
        # The reversed band: reversed row j is place n - 1 - j.
        Ur, Rr = np.zeros((1, n + w, w + 1)), np.zeros((1, 2, n + w))
        Ur[0, n - 1 - hi, hi - lo] = conductance
        Rr[0, 1, :n] = rhs[n - 1::-1]
        stops = backward[backward <= n - end[behind[0]]]
        Uc, Rc = _sweep(Ur, Rr, _envelope(n - 1 - hi, n - 1 - lo, n).tolist(), stops.tolist())
        at = np.searchsorted(stops, n - end[behind])
        # Copy row r, reversed row n - end + r, is the leaf's local row
        # last - r, with last = end - 1 - first; its coupling q reaches down to
        # local row last - r - q, where the band stores it in column q.
        last = (end - 1 - first)[behind][:, None, None]
        r, q = np.arange(w)[:, None], np.arange(1, w + 1)
        U[behind[:, None, None], last - r - q, q] = Uc[at, :, 1:]
        R[behind[:, None], :, last[:, :, 0] - np.arange(w)] = Rc[at].transpose(0, 2, 1)
    return U, R


def _leaf_solves(net: Network, band, rows: list[int], leaky: list[float], c: float):
    """Replay's two systems at each anchor row z in turn (see replay.replay),
    each solved in z's leaf, places [a, b): net with a leak c at z, C~_z =
    leaky[i] and a unit current at z on the right; and net grounded at z.
    Both also have the vertex conductances on the right. Yields, per anchor,
    a and both solutions at places a, ..., b - 1: leaked (2, b - a) and
    grounded (b - a,).

    Both sweeps run once, only as far as the anchors' leaves need, and the
    leaf systems run through _eliminate in batches within _BAND_BYTES. A
    leaf depends only on net and the partition, so its bits do not depend
    on which anchors were asked for or on the batch. The sweeps and the
    grounded systems are scaled as net alone is, and the leaked systems as
    net with the leak c (_scale). ``band`` is _band(net).
    """
    _, place, _, _, width = band
    n, w = net.n, int(width.max())
    leaves = B, first, end, L = _leaves(n, w)
    leaf_width = _leaf_width(width, first, end, L)
    ids, at = np.unique(place[rows] // B, return_inverse=True)
    starts, sizes = first[ids], (end - first)[ids]
    chunk = max(1, _batch_limit(L, w, 2) // 2)
    sweeps = 2 if len(first) > 1 else 0
    copies = sweeps * len(first) * w * (w + 3) * 8  # every stop's w rows, stacked
    nbytes = (_band_bytes(len(ids), L, w, 1) + _band_bytes(2 * min(chunk, len(rows)), L, w, 2)
              + _band_bytes(sweeps, n, w, 1) + copies)
    scale, leak_scale = _scale(net), _scale(net, c)
    with _sized(nbytes):
        Ub, Rb = _leaf_systems(net, band, leaves, ids, scale)
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
            if leak_scale != scale:
                U[leaks] = np.ldexp(U[leaks], leak_scale - scale)
                R[leaks] = np.ldexp(R[leaks], leak_scale - scale)
            R[leaks, 0, g] = np.ldexp(c, leak_scale)
            R[leaks, 1, g] = np.ldexp(leaky[part], leak_scale)
            R[leaks, 2, g] = np.ldexp(1.0, leak_scale)
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
    band = _band(net)
    place = band[1]
    for iz, (a, leaked, grounded) in zip(rows, _leaf_solves(net, band, rows, leaky, c)):
        neighbours, _ = net.row(iz)
        z_to_pendant, resistance = leaked[:, place[iz] - a].tolist()
        yield z_to_pendant, resistance, _first_return(net, iz, grounded[place[neighbours] - a])


def _first_return(net: Network, iz: int, h: np.ndarray) -> float:
    """One step from row iz plus the conductance-weighted hitting times h back
    to it, h given at iz's neighbours in row order."""
    cz = float(net.row_conductance[iz])
    _, weights = net.row(iz)
    return 1.0 + math.fsum(c / cz * x for c, x in zip(weights, h.tolist()))


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


def hitting_time(net: Network, target: VertexId) -> HittingProfile:
    """Expected first-visit times to ``target`` from every start vertex.

    First-step analysis: h(target) = 0 and h(x) = 1 + sum_z P(x, z) h(z)
    elsewhere. Row x of that system scaled by C_x is exactly the grounded
    Laplacian row, so the whole profile comes from one grounded solve with
    the vertex conductances as right-hand side.
    """
    net.require(target)
    h = _solve_at(net, [net.index[target]], net.row_conductance[None, :, None])[0, :, 0].tolist()
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
    b = np.zeros((2, net.n, 2))
    b[:, :, 0] = net.row_conductance
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
    iz = net.index[z]
    h = _solve_at(net, [iz], net.row_conductance[None, :, None])[0, :, 0]
    return _first_return(net, iz, h[net.row(iz)[0]])


def return_time_formula(net: Network, z: VertexId) -> float:
    """Closed-form expected return time: total over vertex conductance."""
    net.require(z)
    return net.total_conductance / float(net.row_conductance[net.index[z]])


def stationary_distribution(net: Network) -> Distribution:
    """Stationary law of the induced walk: each vertex weighted C_z / C."""
    weights = net.row_conductance / net.total_conductance
    return Distribution(dict(zip(net.vertices, weights.tolist())))
