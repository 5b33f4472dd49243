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
one batch of two. ``replay`` runs its anchors in batches of up to
``_batch_limit`` systems.

A zero or non-finite pivot, or a non-finite result, raises SingularSystem:
with no cancellation, that happens only when conductances leave the
floating-point range (products underflowing to 0 or results overflowing).
Only numpy is imported.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import SameVertex, SingularSystem
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
    edge joins places lo < hi. ``width[k]`` bounds how far past k row k
    reaches once the rows before it are eliminated: fill stays inside the
    envelope, the running maximum of each row's furthest coupling.
    """
    order = np.array(net.ordering, dtype=np.intp)
    place = np.empty(net.n, dtype=np.intp)
    place[order] = np.arange(net.n)
    tail, head, _, _ = net.arrays
    lo = np.minimum(place[tail], place[head])
    hi = np.maximum(place[tail], place[head])
    reach = np.arange(net.n)
    np.maximum.at(reach, lo, hi)
    width = np.maximum.accumulate(reach) - np.arange(net.n)
    return order, place, lo, hi, width


def _batch_limit(net: Network) -> int:
    """How many of net's systems one batch may hold within _BAND_BYTES (at least 1)."""
    width = int(_band(net)[4].max())
    return max(1, _BAND_BYTES // ((net.n + width) * (width + 1) * 8))


def _eliminate(U: np.ndarray, R: np.ndarray, width) -> tuple[np.ndarray, np.ndarray]:
    """GTH elimination and back-substitution for a batch of banded systems.

    For each member s, with w = U.shape[2] - 1 and n rows followed by w rows
    of zero padding: U[s, k, q] (1 <= q <= w) is the coupling W(k, k + q),
    R[s, 0, k] the leak at k and R[s, 1:, k] the right-hand sides, all >= 0
    and finite. Row k holds nothing past width[k]. U and R are overwritten.
    Returns x with x[s, j, k] solving right-hand side j, and the pivots (n, S).
    """
    S, N, L = U.shape
    w = L - 1
    n = N - w
    pivots = np.empty((n, S))
    # The update of pivot k adds to W(k + a, k + b), 1 <= a < b <= w, which
    # is U[k + a, b - a]: stride L - 1 in a and 1 in b from U[k + 1, 0]. Where
    # b <= a the view lands on column 0 or on other entries, so those get + 0
    # (b = a is the self-loop term GTH drops).
    step, member, col = U.strides[1], U.strides[0], U.strides[2]
    schur = as_strided(U[:, 1:], shape=(n, S, w, w), strides=(step, member, step - col, col),
                       writeable=True)
    upper = np.triu(np.ones((w, w)), 1)
    for k, e in enumerate(width):
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
    x = np.zeros((S, R.shape[1] - 1, N))
    for k in range(n - 1, -1, -1):
        e = width[k]
        s = (U[:, k, None, 1:e + 1] * x[:, :, k + 1:k + e + 1]).sum(-1)
        s += R[:, 1:, k]
        s /= pivots[k][:, None]
        x[:, :, k] = s
    return x[:, :, :n], pivots


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
    U = np.zeros((S, n + w, w + 1))
    U[:, lo, hi - lo] = conductance
    R = np.zeros((S, m + 1, n + w))
    R[:, 1:, :n] = b[:, order].transpose(0, 2, 1)
    if leak is not None:
        R[:, 0, :n] = leak[:, order]
    held = [s for s, g in enumerate(grounds) if g is not None]
    if held:
        s = np.array(held)[:, None]
        g = place[[grounds[i] for i in held]][:, None]
        q = np.arange(1, w + 1)
        above = np.where(g >= q, g - q, n)  # a padding row where there is none
        R[s, 0, g + q] += U[s, g, q]  # couplings to g become leak, after g
        R[s, 0, above] += U[s, above, q]  # and before it
        U[s, g, q] = 0.0
        U[s, above, q] = 0.0
        R[s[:, 0], :, g[:, 0]] = 0.0
        R[s[:, 0], 0, g[:, 0]] = 1.0  # an empty unit row: pivot 1, value 0
    with np.errstate(all="ignore"):
        x, pivots = _eliminate(U, R, width.tolist())
    if not (np.all(pivots > 0.0) and np.all(np.isfinite(x))):
        raise SingularSystem(
            "grounded solve left the floating-point range: a pivot underflowed to 0 or "
            "a result overflowed, so the conductances are too far apart for doubles")
    return x[:, :, place].transpose(0, 2, 1)


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
