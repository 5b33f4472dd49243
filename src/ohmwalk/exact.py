"""Exact walk quantities via linear algebra on the weighted Laplacian.

Hitting times, effective resistances, return times and round trips are
computed by grounded solves, never from the closed-form conductance
ratios, so the closed forms can be checked against an independent method.
The closed forms live here too, apart from the solves: ``return_time_formula``
(C / C_z) and ``stationary_distribution`` (C_z / C) read the network's
conductances and solve nothing. Grounding a vertex (holding it at potential
0) makes the singular Laplacian invertible without touching pseudoinverses.

Every solve goes through one numpy kernel, elimination (``_reduce``) and
back-substitution (``_substitute``), which ``_eliminate`` runs in turn:
Gaussian elimination in the subtraction-free form of Grassmann, Taksar and
Heyman (GTH). A whole system (``_solve_at``) is the network held at 0 at one
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

The panels of one band run in sequence, and each costs numpy's fixed call
overhead, so a large whole system is eliminated from both ends at once (a
twisted factorization; Meurant, SIAM J. Matrix Anal. Appl. 13, 1992),
which halves that chain. Its forward half and its reversed half, the band
read from the back, are two members of one batch, and both reduce onto the
w places between them, which are then solved as a band of their own; one
back-substitution call then solves both halves. A GTH pivot is a Kron
reduction in any order, so nothing is subtracted. A system whose halves
would be shorter than ``_HALF_ROWS`` rows is one band, as before
(``_halves``).

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
single system that hands over the w rows next to each leaf as it reaches
them, written straight into the leaf. A leaf's Kron reduction is those
forward rows, the band in between and those backward rows, and its two
systems of at most 3w rows per anchor are solved in batches of up to
``_batch_limit`` systems (``_leaf_solves``). A sweep over n anchors costs
about 2n · 3w · w² plus two sweeps, against 2n · n · w² for whole
systems. When 3w >= n the one leaf is the whole network. All of it is GTH
pivots, run by the same kernel loop (``_reduce``), which eliminates every
row it is given in panels that start at multiples of ``_PANEL``. A sweep
calls it once for each segment between two leaf boundaries, on the band
from the segment's first row, and stops at every boundary up to the
furthest it needs, so no leaf's rows depend on which anchors were asked
for.

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
# Rows the reversed half of a whole system needs before _solve_at eliminates
# it from both ends (_halves). On one pinned Xeon core, both ends against one
# band took 1.08 times as long on a 60-vertex path (halves of 29 rows) and
# 0.94 times on an 80-vertex one (39 rows); 1.02 on an 8x8 grid (28 rows),
# 0.96 on 9x9 (36 rows) and 0.67 on 12x12 (66 rows).
_HALF_ROWS = 32
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
    solution = (rows + w) * max(m, 2)
    return S * ((rows + w) * (w + m + 2) + 2 * panel + _PANEL * w + w * (w + m + 1)
                + blocks + solution) * 8


def _diagonals(U: np.ndarray, h: int) -> np.ndarray:
    """The view D[s, r, a, b] = U[s, r + a, b - a] (a, b < h) of a band U:
    for b > a, W(r + a, r + b). Where b <= a it lands on column 0 or on
    other rows' entries, so it must only be added to where b > a. Built
    once per _reduce; D[:, r] is then the h x h block at row r."""
    s0, s1, s2 = U.strides
    return as_strided(U, shape=(U.shape[0], U.shape[1] - h + 1, h, h),
                      strides=(s0, s1, s1 - s2, s2), writeable=True)


def _skewed(T: np.ndarray, w: int) -> np.ndarray:
    """The view skew[s, i, q] = T[s, i, i + 1 + q] (q < w) of a panel buffer:
    band row i's couplings, placed in absolute column order."""
    s0, s1, s2 = T.strides
    return as_strided(T[:, 0, 1:], shape=(T.shape[0], T.shape[1], w), strides=(s0, s1 + s2, s2),
                      writeable=True)


def _panel_ends(width) -> list:
    """For each panel of _PANEL rows, one past the furthest row any of its
    rows reaches."""
    return (np.maximum.reduceat(np.arange(len(width)) + width, range(0, len(width), _PANEL))
            + 1).tolist()


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


def _reduce(U: np.ndarray, R: np.ndarray, width) -> tuple[np.ndarray, np.ndarray]:
    """GTH-eliminate every row of a batch of banded systems, in panels of
    _PANEL rows from the first; layout as for _eliminate. Returns the pivots
    (n, S) and each panel's couplings among its own rows: blocks[a, c, b, s]
    is T[s, a, c] of panel b once its pivots are taken, whose strict upper
    triangle is what _substitute needs. Row k keeps its couplings and
    right-hand sides as they stood at its pivot.

    A panel's rows are copied into a buffer T in absolute column order:
    T[s, i, j] is W(k0 + i, k0 + j) for i < j < _PANEL + w, followed by
    the leak and the right-hand sides. One outer product per pivot updates
    the rest of the panel; then one matmul applies the panel's Kron
    reduction to the rows after it (_kron), which may lie past the last
    row eliminated. Panels start at multiples of _PANEL, so a member's bits
    depend on its own system only.
    """
    S, N, L = U.shape
    w, n, P = L - 1, len(width), _PANEL
    lead = P + w
    pivots = np.empty((n, S))
    blocks = np.zeros((P, P, -(-n // P), S))
    # T's entries at and below the diagonal take updates that nothing reads.
    T = np.zeros((S, P, lead + R.shape[1]))
    skew = _skewed(T, w)
    diagonals = _diagonals(U, w)
    upper = np.less.outer(np.arange(w), np.arange(w))
    for k0, end in zip(range(0, n, P), _panel_ends(width)):
        k1 = min(k0 + P, n)
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
        blocks[:p, :p, k0 // P] = T[:, :p, :p].transpose(1, 2, 0)
        h = end - k1
        if h > 0:
            _kron(diagonals[:, k1, :h, :h], R[:, :, k1:end], T[:, :p], pivots[k0:k1], upper)
    return pivots, blocks


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
                blocks: np.ndarray, after: np.ndarray | None = None) -> np.ndarray:
    """Back-substitution after _reduce has eliminated every row and filled
    blocks: x (S, m, n). ``after`` (S, a, m), if given, is the solution of
    the a rows after the eliminated ones, which the last rows reach; without
    it they are zero padding.

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
    x = np.zeros((S, N, max(m, 2)))
    x[:, :n, :m] = R[:, 1:, :n].transpose(0, 2, 1)  # the right-hand sides, replaced panel by panel
    if after is not None:
        x[:, n:n + after.shape[1], :m] = after
    T = np.zeros((S, P, P + w))
    skew = _skewed(T, w)
    ends = _panel_ends(width)
    for k0 in range((n - 1) // P * P, -1, -P):
        k1 = min(k0 + P, n)
        p, e = k1 - k0, ends[k0 // P] - k0
        skew[:, :p] = U[:, k0:k1, 1:]
        c = np.matmul(T[:, :p, p:e], x[:, k1:k0 + e])
        c += x[:, k0:k1]
        c /= pivots[k0:k1].T[:, :, None]
        x[:, k0:k1] = np.matmul(inverses[:, k0 // P, :p, :p], c)
    return x[:, :n, :m].transpose(0, 2, 1)


def _eliminate(U: np.ndarray, R: np.ndarray, width) -> tuple[np.ndarray, np.ndarray]:
    """GTH elimination and back-substitution for a batch of banded systems.

    For each member s, with w = U.shape[2] - 1 and n rows followed by w rows
    of zero padding: U[s, k, q] (1 <= q <= w) is the coupling W(k, k + q),
    R[s, 0, k] the leak at k and R[s, 1:, k] the right-hand sides, all >= 0
    and finite. Row k holds nothing past width[k]. U and R are overwritten.
    Returns x with x[s, j, k] solving right-hand side j, and the pivots (n, S).
    """
    pivots, blocks = _reduce(U, R, width)
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


def _banded(lo, hi, conductance, rhs: np.ndarray, w: int):
    """A batch of systems laid out as for _eliminate at band width w: the
    couplings ``conductance`` between places lo < hi, no leak, and the
    right-hand sides rhs (S, m, n). Returns U (S, n + w, w + 1) and R
    (S, m + 1, n + w)."""
    S, m, n = rhs.shape
    U = np.zeros((S, n + w, w + 1))
    U[:, lo, hi - lo] = conductance
    R = np.zeros((S, m + 1, n + w))
    R[:, 1:, :n] = rhs
    return U, R


def _halves(n: int, w: int) -> tuple[int, int]:
    """Where _solve_at cuts a system of n places at band width w: (h, t), a
    forward half of places [0, h) and a reversed half of places [n - t, n)
    around a middle of the w places between them, h - t being 0 or 1. A
    system whose reversed half would have fewer than _HALF_ROWS rows has no
    halves, (0, 0): its middle is the whole system."""
    h = (n - w + 1) // 2
    return (h, n - w - h) if n - w - h >= _HALF_ROWS else (0, 0)


def _solve_bytes(S: int, n: int, w: int, m: int) -> int:
    """The bytes _solve_at takes for S systems of n places at band width w
    with m right-hand sides: the halves' batch of 2S members (_band_bytes
    over h rows, followed by the w middle rows) and the middle's batch."""
    h, t = _halves(n, w)
    return (_band_bytes(2 * S, h, w, m) if h else 0) + _band_bytes(S, n - h - t, w, m)


def _grounded(lo, hi, conductance, rhs: np.ndarray, g: np.ndarray):
    """Systems of couplings ``conductance`` between places lo < hi with the
    right-hand sides rhs (S, m, n), member s held at 0 at place g[s], as
    _ground holds a band: returns their couplings (S, edges), g[s]'s set to
    0, and their leak and right-hand sides (S, m + 1, n), g[s]'s couplings
    being its neighbours' leak and g[s] an empty unit row."""
    S, m, n = rhs.shape
    s, e = np.nonzero((lo == g[:, None]) | (hi == g[:, None]))
    c = np.repeat(conductance[None], S, 0)
    c[s, e] = 0.0
    R = np.zeros((S, m + 1, n))
    R[:, 1:] = rhs
    R[s, 0, lo[e] + hi[e] - g[s]] = conductance[e]
    R[np.arange(S), :, g] = 0.0
    R[np.arange(S), 0, g] = 1.0
    return c, R


def _halves_batch(lo, hi, c, V, width, h: int, t: int, w: int):
    """The halves of _solve_at's systems, laid out for _reduce: U (2S, h + w,
    w + 1), R (2S, m + 1, h + w) and their shared envelope, from the
    systems' couplings c (S, edges) between places lo < hi and their leak
    and right-hand sides V (S, m + 1, n). Member 2s holds places [0, h),
    member 2s + 1 place n - 1 - j at row h - t + j for j < t, after h - t
    empty unit rows; the w rows after them start empty."""
    S, n, pad = len(c), V.shape[2], h - t
    U = np.zeros((2 * S, h + w, w + 1))
    R = np.zeros((2 * S, V.shape[1], h + w))
    forward, back = lo < h, hi >= n - t
    U[0::2, lo[forward], (hi - lo)[forward]] = c[:, forward]
    U[1::2, pad + n - 1 - hi[back], (hi - lo)[back]] = c[:, back]
    R[0::2, :, :h] = V[:, :, :h]
    R[1::2, :, pad:h] = V[:, :, :n - t - 1:-1]
    R[1::2, 0, :pad] = 1.0
    reach = width[:h].copy()
    reach[pad:] = np.maximum(reach[pad:], _envelope(n - 1 - hi, n - 1 - lo, n)[:t])
    return U, R, reach.tolist()


def _solve_at(net: Network, grounds, b: np.ndarray) -> np.ndarray:
    """Solve a batch of net's grounded systems, eliminating each once.

    Member s is net's Laplacian with vertex row ``grounds[s]`` held at 0.
    b[s] has a row per vertex and a column per right-hand side, all >= 0;
    row grounds[s], the current the ground absorbs, is ignored. Returns x
    of b's shape, with x[s, grounds[s]] = 0. The batch is scaled as net is
    (_scale).

    A large system is eliminated from both ends of its band at once (a
    twisted factorization; Meurant, SIAM J. Matrix Anal. Appl. 13, 1992):
    its forward half, places [0, h), and its reversed half, places [n - t,
    n) last first, as two members of one _reduce batch (_halves_batch). No
    place of a half couples past the w places between them, the middle, so
    eliminating the halves updates only the middle, held as w rows after
    each member's own, which start empty. The middle system is then the
    band's own couplings, leak and right-hand sides among its places plus
    both halves' Kron updates, the reversed member's mirrored back; it is
    solved as a band of its own, and one _substitute call solves both
    halves from its solution. Every term is a sum of nonnegative numbers. A
    system without halves (_halves) is its own middle: one band, as
    _eliminate lays it out.
    """
    order, place, lo, hi, width = _band(net)
    S, n, m = b.shape
    w = int(width.max())
    h, t = _halves(n, w)
    M = n - h - t
    with _sized(_solve_bytes(S, n, w, m)):
        k = _scale(net)
        c, V = _grounded(lo, hi, np.ldexp(net.conductance, k),
                         np.ldexp(b[:, order], k).transpose(0, 2, 1), place[grounds])
        mid = (lo >= h) & (hi < h + M)
        U = np.zeros((S, M + w, w + 1))
        U[:, lo[mid] - h, hi[mid] - lo[mid]] = c[:, mid]
        R = np.zeros((S, m + 1, M + w))
        R[:, :, :M] = V[:, :, h:h + M]
        mid_width = np.arange(M - 1, -1, -1).tolist() if h else width.tolist()
        with np.errstate(all="ignore"):
            if h:
                Uh, Rh, half_width = _halves_batch(lo, hi, c, V, width, h, t, w)
                half_pivots, blocks = _reduce(Uh, Rh, half_width)
                # The reversed member's row h + r is middle place w - 1 - r,
                # and its coupling q reaches middle place w - 1 - r - q.
                r, q = np.nonzero(np.add.outer(np.arange(w), np.arange(w + 1)) < w)
                r, q = r[q > 0], q[q > 0]
                U[:, :w] += Uh[0::2, h:]
                U[:, w - 1 - r - q, q] += Uh[1::2, h + r, q]
                R[:, :, :w] += Rh[0::2, :, h:]
                R[:, :, :w] += Rh[1::2, :, :h - 1:-1]
            pivots, blocks_m = _reduce(U, R, mid_width)
            x = _substitute(U, R, mid_width, pivots, blocks_m)
            if h:
                after = np.empty((2 * S, w, m))
                after[0::2] = x.transpose(0, 2, 1)
                after[1::2] = after[0::2, ::-1]
                xh = _substitute(Uh, Rh, half_width, half_pivots, blocks, after)
                _check(half_pivots)
                x = np.concatenate((xh[0::2, :, :h], x, xh[1::2, :, h - t:][:, :, ::-1]), axis=2)
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
    _eliminate) from its first row up to each of the increasing ``stops`` in
    turn, and at each stop s yield s and views of the next w rows, w the
    band width: their couplings U (w, w + 1) and their leak and right-hand
    side R (2, w). Each segment [a, s) between stops is one _reduce over the
    band from row a, so its panels start at a and then every _PANEL rows.
    Eliminating rows [0, s) changes no entry outside the w rows at s, so
    they and the untouched rows after them are the system Kron-reduced onto
    [s, n). The views hold until the sweep goes on."""
    w, a = U.shape[2] - 1, 0
    for s in stops:
        with np.errstate(all="ignore"):
            pivots, _ = _reduce(U[:, a:], R[:, :, a:], width[a:s])
        _check(pivots, U[:, s:s + w], R[:, :, s:s + w])
        yield s, U[0, s:s + w], R[0, :, s:s + w]
        a = s


def _leaf_systems(net: Network, band, leaves, ids: np.ndarray, scale: int):
    """Leaves ids (increasing) of the partition ``leaves`` (see _leaves) of
    net's system with no leak and the vertex conductances on the right, all
    scaled by 2**scale: net Kron-reduced onto each leaf [first, end), laid
    out as for _eliminate over L rows (rows past a leaf's end are empty
    unit rows). Returns U (k, L + w, w + 1) and R (k, 2, L + w).

    The reduction onto [a, b) is the forward sweep's rows at a, the original
    band in the middle, and the backward sweep's rows at b: eliminating
    [0, a) changes entries among [a, a + w) only, eliminating [b, n) from
    the back entries among [b - w, b) only, and a leaf with a > 0 and b < n
    spans 3w places, so the two never meet. The middle is gathered from the
    forward band before it is swept. Each sweep stops at every leaf boundary
    up to the furthest one that ids need, so where it cuts its segments
    depends on the network alone, not on which leaves were asked for.
    """
    order, _, lo, hi, width = band
    _, first, end, L = leaves
    conductance = np.ldexp(net.conductance, scale)
    rhs = np.ldexp(net.row_conductance[order], scale)
    n, w, k = net.n, int(width.max()), len(ids)
    Uf, Rf = _banded(lo, hi, conductance, rhs[None, None], w)

    forward, backward = first[first > 0], (n - end[end < n])[::-1]  # every cut, ascending
    first, end = first[ids], end[ids]
    rows = first[:, None] + np.arange(L)
    inside = rows < end[:, None]
    rows = np.where(inside, rows, n)  # a padding row
    U = np.zeros((k, L + w, w + 1))
    U[:, :L] = np.where(rows[:, :, None] + np.arange(w + 1) < end[:, None, None], Uf[0, rows], 0.0)
    R = np.zeros((k, 2, L + w))
    R[:, 0, :L] = ~inside  # an empty unit row: pivot 1, value 0
    R[:, 1, :L] = Rf[0, 1, rows]

    at = {f: i for i, f in enumerate(first.tolist())}
    for s, Us, Rs in _sweep(Uf, Rf, width.tolist(), forward[forward <= first[-1]].tolist()):
        if s in at:
            U[at[s], :w] = Us
            R[at[s], :, :w] = Rs
    # The reversed band: reversed row j is place n - 1 - j. Its rows at
    # n - end are the leaf's last w rows, last first: row r is local row
    # last - r, with last = end - 1 - first, and its coupling q reaches down
    # to local row last - r - q, where the leaf's band stores it in column q.
    stops = backward[backward <= n - end[0]].tolist()
    if stops:
        Ur, Rr = _banded(n - 1 - hi, n - 1 - lo, conductance, rhs[None, None, ::-1], w)
        at = {n - e: i for i, e in enumerate(end.tolist())}
        r, q = np.arange(w), np.arange(1, w + 1)
        for s, Us, Rs in _sweep(Ur, Rr, _envelope(n - 1 - hi, n - 1 - lo, n).tolist(), stops):
            if s in at:
                last = end[at[s]] - 1 - first[at[s]]
                U[at[s], last - r[:, None] - q, q] = Us[:, 1:]
                R[at[s]][:, last - r] = Rs
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
    nbytes = (_band_bytes(len(ids), L, w, 1) + _band_bytes(2 * min(chunk, len(rows)), L, w, 2)
              + _band_bytes(sweeps, n, w, 1))
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
