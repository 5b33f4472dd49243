"""Exact walk quantities via linear algebra on the weighted Laplacian.

Everything here is computed by grounded solves, never by the closed-form
conductance ratios, so the closed forms can be checked against an
independent method. Grounding (deleting the row and column of one vertex)
makes the singular Laplacian invertible without touching pseudoinverses.

Row z of a grounded Laplacian is nonzero only at z and its neighbours,
so the matrix is assembled straight into sparse CSC form from the
network's edge arrays and factored by SuperLU (scipy.sparse.linalg.splu).
SuperLU is single-threaded and deterministic, so repeated solves give
identical bits. scipy is imported inside the solve path only: commands
that never solve (stationary, simulate) do not pay for loading it.

Each solve also computes the system's 1-norm condition number, not an
estimate of it, at the cost of one extra solve: a grounded Laplacian A of
a connected network is a symmetric nonsingular M-matrix, so A^-1 >= 0
entrywise and ||A^-1||_1 = max(A^-1 1). A system whose condition number
exceeds 1e12 emits IllConditionedWarning instead of failing, since
extreme conductance ratios are legal inputs.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import IllConditionedWarning, SameVertex, SingularSystem
from .network import Distribution, Network, VertexId

CONDITION_LIMIT = 1e12


@dataclass(frozen=True, eq=False)
class Laplacian:
    """Weighted Laplacian: C_y on the diagonal, -C_yz off it, with the
    label -> row-index map used to build it."""

    matrix: np.ndarray
    index: dict[VertexId, int]


@dataclass(frozen=True, eq=False)
class HittingProfile:
    """Expected steps to reach ``target`` from every vertex, in walk steps.

    values[target] is 0; every other entry satisfies the first-step
    equation h(x) = 1 + sum_z P(x, z) h(z).
    """

    target: VertexId
    values: dict[VertexId, float]


def _laplacian(net: Network, ground: int | None = None):
    """Sparse (CSC) Laplacian of net, with row and column ``ground`` deleted
    when it is given; the other rows keep their order."""
    from scipy.sparse import csc_array

    tail, head, conductance, diagonal = net.arrays
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


def build_laplacian(net: Network) -> Laplacian:
    """Dense weighted Laplacian of net, rows and columns in vertex order."""
    return Laplacian(matrix=_laplacian(net).toarray(), index=dict(net.index))


def _condition_number(A, lu) -> float:
    """1-norm condition number of a grounded Laplacian A, given its factor.

    A is a symmetric M-matrix, so A^-1 is entrywise nonnegative and its
    1-norm (largest column sum, equal to the largest row sum by symmetry)
    is the largest entry of A^-1 applied to the all-ones vector.
    """
    return float(abs(A).sum(axis=0).max() * lu.solve(np.ones(A.shape[0])).max())


def _solve_grounded(A, b: np.ndarray) -> np.ndarray:
    """Solve a grounded system A x = b, with the singularity and condition guards."""
    from scipy.sparse.linalg import splu

    try:
        lu = splu(A)
    except RuntimeError as exc:
        raise SingularSystem(f"grounded system is singular: {exc}") from exc
    cond = _condition_number(A, lu)
    if not math.isfinite(cond):
        raise SingularSystem("grounded system is numerically singular")
    if cond > CONDITION_LIMIT:
        warnings.warn(
            f"grounded system condition number {cond:.3e} exceeds "
            f"{CONDITION_LIMIT:.0e}; results may lose precision",
            IllConditionedWarning,
            stacklevel=2,
        )
    x = lu.solve(b)
    if not np.all(np.isfinite(x)):
        raise SingularSystem("grounded solve produced non-finite values")
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
    iy = net.index[y]
    ix = net.index[x]
    row = ix - 1 if ix > iy else ix
    b = np.zeros(net.n - 1)
    b[row] = 1.0
    v = _solve_grounded(_laplacian(net, iy), b)
    return float(v[row])


def resistance_matrix(net: Network) -> np.ndarray:
    """All-pairs effective resistances from one grounded factorization.

    Entry (i, j) follows vertex order. Same grounded-solve method as
    effective_resistance, amortized: with G the grounded inverse (ground =
    first vertex), R_xy = G_xx + G_yy - 2 G_xy.
    """
    n = net.n
    G = np.zeros((n, n))
    if n > 1:
        inv = _solve_grounded(_laplacian(net, 0), np.eye(n - 1))
        inv = 0.5 * (inv + inv.T)
        G[1:, 1:] = inv
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
    it = net.index[target]
    *_, vertex_conductance = net.arrays
    h = _solve_grounded(_laplacian(net, it), np.delete(vertex_conductance, it)).tolist()
    values = {target: 0.0}
    values.update(zip(net.vertices[:it] + net.vertices[it + 1:], h))
    return HittingProfile(target=target, values=values)


def commute_time(net: Network, x: VertexId, y: VertexId) -> float:
    """Expected round trip x -> y -> x, as the sum of the two hitting times."""
    net.require(x)
    net.require(y)
    if x == y:
        raise SameVertex(f"commute time needs two distinct vertices, got {x!r} twice")
    return hitting_time(net, y).values[x] + hitting_time(net, x).values[y]


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
