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

``build_network`` and ``parse_network_file`` are the library's network
builder and edge-list parser as they were before the network was held in
compressed rows: one entry, and one line, at a time, with label-keyed dicts
(``ReferenceNetwork``). Every field of a library ``Network`` is checked
against them bit for bit.

``trace_json_dict`` is the layout of a replay trace's JSON written out as
dicts, field by field, for the text that ``ProofTrace.to_json_dict`` parses
and that ``verify`` prints.

The one exception is ``pendant_network_steps``: it is not an independent
oracle but the reference route that ``replay``'s bits are pinned to, the
library's own solves on an explicitly built pendant network.
"""
import math
from bisect import bisect_right
from collections import Counter
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate

import numpy as np
from scipy.sparse.csgraph import connected_components
from scipy.stats import chi2

from ohmwalk import (
    AmbiguousLabel,
    CapExceeded,
    Disconnected,
    Network,
    NonPositiveConductance,
    OhmwalkError,
    ParseError,
    SelfLoop,
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
    indptr, row = net.indptr.tolist(), net.adjacent.tolist()
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


def step_json_dict(step) -> dict:
    """A ProofStep as its JSON layout: the estimate and its band's verdict
    only when the step has an estimate."""
    doc = {
        "name": step.name,
        "expected": step.expected,
        "computed": step.computed,
        "abs_err": step.abs_err,
        "rel_err": step.rel_err,
        "pass": step.passed,
    }
    if step.estimate is not None:
        doc["estimate"] = asdict(step.estimate)
        doc["estimate_pass"] = step.estimate_passed
    return doc


def trace_json_dict(trace) -> dict:
    """A ProofTrace as its JSON layout, the anchor as it is."""
    return {
        "network": {
            "n": trace.n,
            "m": trace.m,
            "total_conductance": trace.total_conductance,
        },
        "anchor": trace.anchor,
        "pendant_conductance": trace.pendant_conductance,
        "steps": [step_json_dict(s) for s in trace.steps],
        "pass": trace.passed,
    }


@dataclass(frozen=True, eq=False)
class ReferenceNetwork:
    """A network as the reference build_network makes it: label-keyed
    fields, and the derived tables built from them one vertex at a time."""

    vertices: tuple
    edges: tuple
    index: dict
    neighbors: dict
    vertex_conductance: dict
    total_conductance: float

    @property
    def n(self) -> int:
        return len(self.vertices)

    @cached_property
    def tail(self):
        return np.array([self.index[u] for u, _, _ in self.edges], dtype=np.intp)

    @cached_property
    def head(self):
        return np.array([self.index[v] for _, v, _ in self.edges], dtype=np.intp)

    @cached_property
    def conductance(self):
        return np.array([c for _, _, c in self.edges])

    @cached_property
    def row_conductance(self):
        return np.array([self.vertex_conductance[v] for v in self.vertices])

    @cached_property
    def walk(self):
        rows, cut = [], []
        for v in self.vertices:
            running = list(accumulate(c for _, c in self.neighbors[v]))
            cuts = [_least_uniform(s, running[-1]) for s in running[:-1]]
            rows.append((tuple(cuts), tuple(self.index[z] for z, _ in self.neighbors[v])))
            cut += [*cuts, math.inf]
        return tuple(rows), np.array(cut)

    @cached_property
    def ordering(self):
        tail, head = self.tail, self.head
        ends, other = np.concatenate((tail, head)), np.concatenate((head, tail))
        degree = np.bincount(ends, minlength=self.n)
        ranked = np.lexsort((np.tile(np.arange(len(tail)), 2), degree[other], ends))
        indptr = np.concatenate(([0], np.cumsum(degree))).tolist()
        row = other[ranked].tolist()
        order = _breadth_first(int(degree.argmin()), lambda v: row[indptr[v]:indptr[v + 1]])
        return tuple(reversed(order))


def _least_uniform(running: float, total: float) -> float:
    """The least k * 2**-53, k in [0, 2**53], with running <= k * 2**-53 * total,
    bisected one k at a time."""
    lo, hi = 0, 2**53
    while lo < hi:
        mid = (lo + hi) // 2
        if running <= mid * 2.0**-53 * total:
            hi = mid
        else:
            lo = mid + 1
    return hi * 2.0**-53


def _breadth_first(start, neighbours) -> list:
    order, seen = [start], {start}
    for v in order:
        for u in neighbours(v):
            if u not in seen:
                seen.add(u)
                order.append(u)
    return order


def _check_conductance(c) -> float:
    try:
        value = float(c)
    except (TypeError, ValueError):
        raise NonPositiveConductance(f"conductance {c!r} is not a real number")
    if not math.isfinite(value) or value <= 0.0:
        raise NonPositiveConductance(f"conductance must be finite and > 0, got {c!r}")
    return value


def _sum(values) -> float:
    try:
        return math.fsum(values)
    except OverflowError:
        return math.inf


def build_network(edge_list) -> ReferenceNetwork:
    """Reference for ohmwalk.build_network: each entry checked and merged in
    turn, then an adjacency dict, a breadth-first search and per-vertex sums."""
    edge_list = list(edge_list)
    if not edge_list:
        raise ValueError("edge list is empty")

    index = {}
    vertices = []

    def intern(v):
        i = index.setdefault(v, len(vertices))
        if i == len(vertices):
            vertices.append(v)
        elif type(vertices[i]) is not type(v):
            raise AmbiguousLabel(f"labels {vertices[i]!r} and {v!r} are equal "
                                 f"but of different types")
        return i

    merged = {}  # in first-appearance order
    for i, (u, v, c) in enumerate(edge_list):
        try:
            value = _check_conductance(c)
            iu, iv = intern(u), intern(v)
            if iu == iv:
                raise SelfLoop(f"self-loop at vertex {u!r}")
            key = (iu, iv) if iu < iv else (iv, iu)
            merged[key] = total = merged.get(key, 0.0) + value
            if not math.isfinite(total):
                raise NonPositiveConductance(f"conductance between {vertices[key[0]]!r} "
                                             f"and {vertices[key[1]]!r} sums to {total!r}")
        except OhmwalkError as exc:
            exc.edge = i
            raise

    adjacency = {v: [] for v in vertices}
    edges = []
    for (iu, iv), c in merged.items():
        u, v = vertices[iu], vertices[iv]
        edges.append((u, v, c))
        adjacency[u].append((v, c))
        adjacency[v].append((u, c))

    reached = _breadth_first(vertices[0], lambda v: [y for y, _ in adjacency[v]])
    if len(reached) != len(vertices):
        missing = min(set(vertices) - set(reached), key=index.__getitem__)
        raise Disconnected(f"graph is not connected (no path to {missing!r})")

    vertex_conductance = {v: _sum(c for _, c in adjacency[v]) for v in vertices}
    total = _sum(vertex_conductance.values())
    if not math.isfinite(total):
        v = next((v for v, cz in vertex_conductance.items() if not math.isfinite(cz)), None)
        what = "total conductance" if v is None else f"conductance of vertex {v!r}"
        raise NonPositiveConductance(f"{what} is not finite")

    return ReferenceNetwork(
        vertices=tuple(vertices),
        edges=tuple(edges),
        index=index,
        neighbors={v: tuple(adjacency[v]) for v in vertices},
        vertex_conductance=vertex_conductance,
        total_conductance=total,
    )


def parse_network_file(text: str) -> ReferenceNetwork:
    """Reference for ohmwalk.cli.parse_network_file: one line at a time,
    after dropping one leading byte-order mark."""
    if text.startswith("\ufeff"):
        text = text[1:]
    edges = []
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) == 2:
            u, v = tokens
            c = 1.0
        elif len(tokens) == 3:
            u, v = tokens[0], tokens[1]
            try:
                c = float(tokens[2])
            except ValueError:
                raise ParseError(lineno, f"bad conductance {tokens[2]!r}")
        else:
            raise ParseError(lineno, f"expected `u v [conductance]`, got {len(tokens)} fields")
        edges.append((u, v, c))
        lines.append(lineno)
    if not edges:
        raise ParseError(None, "no edges in input")
    try:
        return build_network(edges)
    except OhmwalkError as exc:
        if exc.edge is None:
            raise
        raise type(exc)(f"line {lines[exc.edge]}: {exc}") from exc


NETWORK_FIELDS = ("vertices", "index", "edges", "neighbors", "vertex_conductance",
                  "total_conductance", "tail", "head", "conductance", "row_conductance", "walk",
                  "ordering")


def bits(value):
    """value with every float replaced by its hex form and every label by
    (type, label), so that == compares bits and types, not values: 1 and
    True, or 0.1 and a float that prints the same, stay apart. Dicts keep
    their order, arrays their dtype."""
    if isinstance(value, np.ndarray):
        return str(value.dtype), bits(value.tolist())
    if type(value) is float:
        return float.hex(value)
    if isinstance(value, (tuple, list)):
        return type(value).__name__, [bits(v) for v in value]
    if isinstance(value, dict):
        return "dict", [(bits(k), bits(v)) for k, v in value.items()]
    return type(value).__name__, value


def network_bits(net) -> dict:
    """Every field in NETWORK_FIELDS of a Network or a ReferenceNetwork, as bits."""
    return {name: bits(getattr(net, name)) for name in NETWORK_FIELDS}


def outcome(build, *args):
    """network_bits of build(*args), or the error it raises: its type, edge,
    line (ParseError) and message."""
    try:
        return network_bits(build(*args))
    except (OhmwalkError, ValueError, TypeError) as exc:
        return (type(exc).__name__, getattr(exc, "edge", None), getattr(exc, "line", None),
                str(exc))
