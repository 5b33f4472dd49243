"""Exact walk quantities via linear algebra on the weighted Laplacian.

Everything here is computed by grounded solves, never by the closed-form
conductance ratios, so the closed forms can be checked against an
independent method. Grounding (deleting the row and column of one vertex)
makes the singular Laplacian invertible without touching pseudoinverses.
Each call factors each grounded matrix it needs once (``_solve_at``):
``round_trip`` reads both hitting times and R(x, y) from two factors.
It also solves net's Laplacian with c added to the diagonal at z, which is
net plus a pendant edge c at z grounded at the pendant (used by ``replay``).

Row z of a grounded Laplacian is nonzero only at z and its neighbours,
so the matrix is assembled straight into sparse CSC form from the
network's edge arrays and factored by SuperLU (scipy.sparse.linalg.splu).
SuperLU is single-threaded and deterministic, so repeated solves give
identical bits. scipy is imported inside the solve path only: commands
that never solve (stationary, simulate) do not pay for loading it.

LU loses entrywise accuracy where conductances of very different sizes
meet at a pivot: the small one is rounded away. The conductance span
(largest over smallest conductance in the solved system, a replay leak's c
included) predicts that loss for one pass over the edge array; a span above
1e6 emits IllConditionedWarning instead of failing, since extreme ratios
are legal inputs. The 1-norm condition number, which bounds only the
normwise error, missed many such systems.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import IllConditionedWarning, SameVertex, SingularSystem
from .network import Distribution, Network, VertexId

SPAN_LIMIT = 1e6


@dataclass(frozen=True, eq=False)
class HittingProfile:
    """Expected steps to reach ``target`` from every vertex, in walk steps.

    values[target] is 0; every other entry satisfies the first-step
    equation h(x) = 1 + sum_z P(x, z) h(z).
    """

    target: VertexId
    values: dict[VertexId, float]


def _laplacian(net: Network, ground: int | None = None, diagonal=None):
    """Sparse (CSC) Laplacian of net, with row and column ``ground`` deleted
    when it is given; the other rows keep their order. ``diagonal`` replaces
    the diagonal C_z; where it exceeds C_z, z leaks the excess to ground."""
    from scipy.sparse import csc_array

    tail, head, conductance, vertex_conductance = net.arrays
    diagonal = vertex_conductance if diagonal is None else diagonal
    size = net.n
    pos = np.arange(size)
    if ground is not None:
        size -= 1
        pos[ground] = -1
        pos[ground + 1:] -= 1
    rows = np.concatenate((pos[tail], pos[head], pos))
    cols = np.concatenate((pos[head], pos[tail], pos))
    values = np.concatenate((-conductance, -conductance, diagonal))
    keep = (rows >= 0) & (cols >= 0)
    return csc_array((values[keep], (rows[keep], cols[keep])), shape=(size, size))


def _solve_grounded(A, b: np.ndarray) -> np.ndarray:
    """Solve a grounded system A x = b from one factor, with the singularity guards."""
    from scipy.sparse.linalg import splu

    try:
        lu = splu(A)
    except RuntimeError as exc:
        raise SingularSystem(f"grounded system is singular: {exc}") from exc
    x = lu.solve(b)
    if not np.all(np.isfinite(x)):
        raise SingularSystem("grounded solve produced non-finite values")
    return x


def _solve_at(net: Network, ground: int | None, b: np.ndarray, diagonal=None) -> np.ndarray:
    """Solve L x = b with x[ground] = 0 for every column of b, from one factor.
    b has a row per vertex; row ``ground``, the current the ground absorbs, is ignored.
    With ground None, L keeps every row and ``diagonal`` (see _laplacian) must leak.
    Warns when the system's conductance span exceeds SPAN_LIMIT."""
    _, _, conductance, vertex_conductance = net.arrays
    lo, hi = float(conductance.min()), float(conductance.max())
    if diagonal is not None:  # the leak: 0 when it was rounded away, an infinite span
        leak = float((diagonal - vertex_conductance).max())
        lo, hi = min(lo, leak), max(hi, leak)
    if hi > SPAN_LIMIT * lo:  # no division, in Python floats: lo may be 0, hi / lo inf
        warnings.warn(
            f"grounded system conductances span {lo:.3e} to {hi:.3e}, a ratio above "
            f"{SPAN_LIMIT:.0e}; results may lose precision",
            IllConditionedWarning,
            stacklevel=2,
        )
    keep = np.arange(net.n) != ground  # every row when ground is None
    x = np.zeros(b.shape)
    x[keep] = _solve_grounded(_laplacian(net, ground, diagonal), b[keep])
    return x


def effective_resistance(net: Network, x: VertexId, y: VertexId) -> float:
    """Effective resistance between x and y (ohms, conductances as siemens).

    Solves the grounded system: column/row y deleted, unit current pushed
    in at x and pulled out at the ground. Symmetric in its arguments and
    zero exactly when x == y.
    """
    net.require(x)
    net.require(y)
    if x == y:
        return 0.0
    ix = net.index[x]
    b = np.zeros(net.n)
    b[ix] = 1.0
    return float(_solve_at(net, net.index[y], b)[ix])


def resistance_matrix(net: Network) -> np.ndarray:
    """All-pairs effective resistances from one grounded factorization.

    Entry (i, j) follows vertex order. Same grounded-solve method as
    effective_resistance, amortized: with G the grounded inverse (ground =
    first vertex), R_xy = G_xx + G_yy - 2 G_xy.
    """
    G = _solve_at(net, 0, np.eye(net.n))
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
    h = _solve_at(net, net.index[target], vertex_conductance).tolist()
    return HittingProfile(target=target, values=dict(zip(net.vertices, h)))


@dataclass(frozen=True, eq=False)
class RoundTrip:
    """The trip x -> y -> x: both expected hitting times, in walk steps,
    and the effective resistance R(x, y) from the solve grounded at y."""

    x_to_y: float
    y_to_x: float
    resistance: float


def round_trip(net: Network, x: VertexId, y: VertexId) -> RoundTrip:
    """Both hitting times between x and y and R(x, y), from two factorizations.

    The factor grounded at y solves the hitting-time right-hand side (the
    vertex conductances) and a unit current at x together; the factor
    grounded at x solves the hitting times back. Each value is bit for
    bit what hitting_time and effective_resistance return.
    """
    net.require(x)
    net.require(y)
    if x == y:
        raise SameVertex(f"a round trip needs two distinct vertices, got {x!r} twice")
    ix, iy = net.index[x], net.index[y]
    *_, vertex_conductance = net.arrays
    unit_current = np.arange(net.n) == ix
    to_y = _solve_at(net, iy, np.column_stack((vertex_conductance, unit_current)))
    to_x = _solve_at(net, ix, vertex_conductance)
    return RoundTrip(x_to_y=float(to_y[ix, 0]), y_to_x=float(to_x[iy]),
                     resistance=float(to_y[ix, 1]))


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
    profile = hitting_time(net, z).values
    cz = net.vertex_conductance[z]
    return 1.0 + math.fsum(c / cz * profile[y] for y, c in net.neighbors[z])


def return_time_formula(net: Network, z: VertexId) -> float:
    """Closed-form expected return time: total over vertex conductance."""
    net.require(z)
    return net.total_conductance / net.vertex_conductance[z]


def stationary_distribution(net: Network) -> Distribution:
    """Stationary law of the induced walk: each vertex weighted C_z / C."""
    C = net.total_conductance
    return Distribution({z: net.vertex_conductance[z] / C for z in net.vertices})
