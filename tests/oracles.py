"""Independent oracle computations the library results are checked against.

Everything here deliberately avoids the library's grounded-Laplacian code
path: hitting times come from the identity-minus-kernel system assembled
directly from transition probabilities, stationary laws from the dominant
left eigenvector, and the geometric goodness-of-fit statistic from first
principles. The Monte Carlo references walk one trial at a time, each on
its own ``SeedSequence((seed, i))`` generator, with sampling tables built
from the network's neighbour lists rather than the library's.

``grounded_solve_exact`` solves a stored floating-point system exactly, in
rationals, so a floating-point solve's own rounding error can be measured.
``resistance_oracle`` takes all-pairs resistances from a dense
pseudoinverse.
``reverse_cuthill_mckee`` is the elimination order written out as its own
breadth-first loop, and ``strongly_connected`` asks scipy's graph routines
whether a kernel is irreducible.

The one exception is ``pendant_network_steps``: it is not an independent
oracle but the reference route that ``replay``'s bits are pinned to, the
library's own solves on an explicitly built pendant network.
"""
import math
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from itertools import accumulate

import numpy as np
from scipy.sparse.csgraph import connected_components
from scipy.stats import chi2

from ohmwalk import (
    CapExceeded,
    Network,
    attach_pendant,
    return_time,
    return_time_formula,
    round_trip,
    transition_distribution,
    transition_matrix,
)


def induced_kernel(net: Network, states) -> np.ndarray:
    """Kernel of the network's walk with rows/columns in the given state
    order, assembled from per-vertex distributions (not the index map)."""
    k = len(states)
    P = np.zeros((k, k))
    for i, s in enumerate(states):
        d = transition_distribution(net, s)
        for j, t in enumerate(states):
            P[i, j] = d.weight(t)
    return P


def grounded_solve_exact(A, b) -> list:
    """Exact solution of A x = b by Gaussian elimination in ``Fraction``.

    Every float converts to a Fraction without rounding, so this is the
    exact solution of the system as stored. A is a float array, or nested
    lists of floats or Fractions (see dense_laplacian). b is a vector, or a
    matrix with one column per right-hand side; the result has b's shape,
    as nested lists of Fractions. Raises ZeroDivisionError if A is singular.
    """
    b = np.asarray(b, dtype=float)
    rhs = b.reshape(len(b), -1).tolist()
    A = A.tolist() if isinstance(A, np.ndarray) else A
    rows = [[Fraction(v) for v in a + r] for a, r in zip(A, rhs)]
    n = len(rows)
    for k in range(n):
        p = next((i for i in range(k, n) if rows[i][k]), None)
        if p is None:
            raise ZeroDivisionError("the stored system is singular")
        rows[k], rows[p] = rows[p], rows[k]
        pivot = rows[k]
        for i in range(k + 1, n):
            f = rows[i][k] / pivot[k]
            if f:
                rows[i] = [v - f * w for v, w in zip(rows[i], pivot)]
    x = [None] * n
    for k in reversed(range(n)):
        row = rows[k]
        x[k] = [(row[n + j] - sum(row[i] * x[i][j] for i in range(k + 1, n))) / row[k]
                for j in range(len(rhs[0]))]
    return x if b.ndim > 1 else [v for v, in x]


def dense_laplacian(net: Network, ground=None, leak=None) -> list:
    """Exact Laplacian of net plus ``leak`` on the diagonal, as nested lists
    of Fractions, built from the edge list; row and column ``ground`` are
    deleted when it is given, and the other rows keep vertex order.

    Each diagonal entry is the exact sum of the vertex's conductances and
    its leak (a conductance to ground per vertex row), so a leak far below
    C_z is not rounded away as it would be in a float matrix.
    """
    n = net.n
    L = [[Fraction(0)] * n for _ in range(n)]
    for u, v, c in net.edges:
        i, j = net.index[u], net.index[v]
        L[i][j] = L[j][i] = -Fraction(c)
        L[i][i] += Fraction(c)
        L[j][j] += Fraction(c)
    if leak is not None:
        for i, c in enumerate(np.asarray(leak, dtype=float).tolist()):
            L[i][i] += Fraction(c)
    keep = [i for i in range(n) if i != ground]
    return [[L[i][j] for j in keep] for i in keep]


def reverse_cuthill_mckee(net: Network) -> tuple:
    """Reference for ``Network.ordering``: breadth-first from the first row of
    least degree, unvisited neighbours by increasing degree (ties in stored
    order), then reversed."""
    indptr, row, _ = net.walk
    degree = [indptr[v + 1] - indptr[v] for v in range(net.n)]
    start = min(range(net.n), key=degree.__getitem__)
    order = [start]
    seen = [False] * net.n
    seen[start] = True
    for v in order:  # grows while it is read: a breadth-first queue
        fresh = sorted((u for u in row[indptr[v]:indptr[v + 1]] if not seen[u]),
                       key=degree.__getitem__)
        for u in fresh:
            seen[u] = True
        order.extend(fresh)
    return tuple(reversed(order))


def resistance_oracle(net: Network) -> np.ndarray:
    """All-pairs effective resistances from the pseudoinverse G of the
    Laplacian (``dense_laplacian``, rounded to floats): R[x, y] = G[x, x] +
    G[y, y] - 2 G[x, y], rows in vertex order."""
    G = np.linalg.pinv(np.array(dense_laplacian(net), dtype=float))
    d = np.diagonal(G)
    return d[:, None] + d[None, :] - 2.0 * G


def strongly_connected(P) -> bool:
    """Whether the support of P is one strongly connected component."""
    return connected_components(np.asarray(P) > 0.0, connection="strong",
                                return_labels=False) == 1


def hitting_times_oracle(net: Network, target) -> dict:
    """Solve (I - P) h = 1 with the target row pinned to h = 0."""
    P = transition_matrix(net)
    n = net.n
    t = net.index[target]
    A = np.eye(n) - P
    A[t, :] = 0.0
    A[t, t] = 1.0
    b = np.ones(n)
    b[t] = 0.0
    h = np.linalg.solve(A, b)
    return {v: float(h[net.index[v]]) for v in net.vertices}


def return_time_oracle(net: Network, z) -> float:
    """One step plus the kernel-weighted hitting times of the neighbours."""
    P = transition_matrix(net)
    h = hitting_times_oracle(net, z)
    iz = net.index[z]
    return 1.0 + float(
        sum(P[iz, net.index[v]] * h[v] for v in net.vertices)
    )


def stationary_oracle(net: Network) -> dict:
    """Left eigenvector of the kernel for eigenvalue 1, normalized."""
    P = transition_matrix(net)
    w, vecs = np.linalg.eig(P.T)
    pi = np.real(vecs[:, np.argmax(np.real(w))])
    pi = np.abs(pi)
    pi /= pi.sum()
    return {v: float(pi[net.index[v]]) for v in net.vertices}


def geometric_fit_pvalue(counts: dict, p: float) -> float:
    """Chi-square goodness-of-fit p-value of observed failure counts
    against Geometric(p) (failures before first success).

    Bins are 0, 1, ... while the expected count stays at least 5, with the
    remaining tail pooled; degrees of freedom are bins - 1 since p is
    given, not fitted.
    """
    trials = sum(counts.values())
    expected = []
    observed = []
    k = 0
    while True:
        e = trials * p * (1.0 - p) ** k
        if e < 5.0 or k > max(counts, default=0) + 1:
            break
        expected.append(e)
        observed.append(counts.get(k, 0))
        k += 1
    tail_expected = trials * (1.0 - p) ** k
    expected.append(tail_expected)
    observed.append(sum(c for kk, c in counts.items() if kk >= k))
    expected = np.asarray(expected)
    observed = np.asarray(observed, dtype=float)
    stat = float(np.sum((observed - expected) ** 2 / expected))
    dof = len(expected) - 1
    return float(chi2.sf(stat, dof))


def per_trial_walks(net: Network, start, target, anchor, trials: int, seed: int, cap: int):
    """(steps, arrivals at anchor before target) of each trial, walked one by one.

    Trial i draws one uniform per step from PCG64 over
    SeedSequence((seed mod 2**64, i)) and picks the neighbour by bisecting
    the running conductance sums for that uniform times the last sum.
    """
    tables = {}
    for v in net.vertices:
        nbrs = tuple(z for z, _ in net.neighbors[v])
        tables[v] = (nbrs, tuple(accumulate(c for _, c in net.neighbors[v])))
    steps, arrivals = [], []
    for i in range(trials):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed % 2**64, i))))
        current, n, seen = start, 0, 0
        while True:
            if n >= cap:
                raise CapExceeded(f"walk from {start!r} exceeded the step cap of {cap}")
            nbrs, cum = tables[current]
            k = bisect_right(cum, rng.random() * cum[-1])
            current = nbrs[min(k, len(nbrs) - 1)]
            n += 1
            if current == target:
                break
            if current == anchor:
                seen += 1
        steps.append(n)
        arrivals.append(seen)
    return steps, arrivals


def _summary(samples: list, steps: list) -> dict:
    data = np.asarray(samples, dtype=float)
    se = float(data.std(ddof=1) / math.sqrt(len(data))) if len(data) > 1 else 0.0
    return {"mean": float(data.mean()), "std_error": se,
            "steps_total": sum(steps), "steps_max": max(steps)}


def return_time_mc_oracle(net: Network, z, trials: int, seed: int, cap: int) -> dict:
    """Per-trial reference for estimate_return_time: mean, std_error and step counts."""
    steps, _ = per_trial_walks(net, z, z, None, trials, seed, cap)
    return _summary(steps, steps)


def hitting_time_mc_oracle(net: Network, x, y, trials: int, seed: int, cap: int) -> dict:
    """Per-trial reference for estimate_hitting_time with x != y."""
    steps, _ = per_trial_walks(net, x, y, None, trials, seed, cap)
    return _summary(steps, steps)


def excursions_mc_oracle(aug, trials: int, seed: int, cap: int) -> dict:
    """Per-trial reference for estimate_excursions, with the count distribution."""
    steps, returns = per_trial_walks(aug.combined, aug.anchor, aug.pendant, aug.anchor,
                                      trials, seed, cap)
    counts = Counter(returns)
    return dict(_summary(returns, steps), counts={k: counts[k] for k in sorted(counts)})


def pendant_network_steps(net: Network, z, c: float) -> list:
    """(expected, computed) of each replay step, in order, solved on G~.

    G~ is built with attach_pendant; both hitting times across the pendant
    edge and R(z, pendant) come from round_trip on it, and the return time
    from first-step analysis on net.
    """
    aug = attach_pendant(net, z, c)
    c = aug.pendant_conductance
    trip = round_trip(aug.combined, z, aug.pendant)
    ret = return_time(net, z)
    C, Cz = net.total_conductance, net.vertex_conductance[z]
    return [
        (1.0, trip.y_to_x),
        (1.0 / c, trip.resistance),
        (aug.combined.total_conductance * trip.resistance, trip.y_to_x + trip.x_to_y),
        (C / c + 1.0, trip.x_to_y),
        (Cz / c * ret + 1.0, trip.x_to_y),
        (return_time_formula(net, z), ret),
    ]
