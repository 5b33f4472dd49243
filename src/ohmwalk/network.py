"""Weighted-network data model: construction, validation, augmentation.

A network is a finite connected graph whose edges carry positive
conductances. The induced random walk steps from y to a neighbour z with
probability C_yz / C_y, where C_y is the sum of conductances incident to
y. Networks are immutable after construction and safe to share between
threads; every function here is pure.

Vertex labels are opaque (strings or integers). Row indices for linear
algebra are assigned by first appearance in the edge list, and the
neighbour order stored per vertex is the first-appearance order of the
corresponding edges, so downstream sampling and solves are reproducible.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

from .errors import (
    AmbiguousLabel,
    Disconnected,
    HasSelfLoopMass,
    NonPositiveConductance,
    NotIrreducible,
    NotReversible,
    OhmwalkError,
    SelfLoop,
    UnknownVertex,
)
from .util import rel_err

VertexId = str | int

DETAILED_BALANCE_TOL = 1e-9
DISTRIBUTION_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class Network:
    """Finite connected weighted graph with positive edge conductances.

    Attributes:
        vertices: labels in first-appearance order (defines row indices).
        edges: merged undirected edges as (u, v, conductance) tuples.
        index: label -> row index.
        neighbors: label -> tuple of (neighbour label, conductance).
        vertex_conductance: label -> sum of incident conductances (C_z).
        total_conductance: sum of vertex conductances (C); equals twice
            the sum of edge conductances.
    """

    vertices: tuple[VertexId, ...]
    edges: tuple[tuple[VertexId, VertexId, float], ...]
    index: dict[VertexId, int]
    neighbors: dict[VertexId, tuple[tuple[VertexId, float], ...]]
    vertex_conductance: dict[VertexId, float]
    total_conductance: float

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def m(self) -> int:
        return len(self.edges)

    def __contains__(self, v: VertexId) -> bool:
        return v in self.index and type(self.vertices[self.index[v]]) is type(v)

    def degree(self, z: VertexId) -> int:
        """Number of distinct neighbours of z (parallel edges were merged)."""
        self.require(z)
        return len(self.neighbors[z])

    def require(self, v: VertexId) -> None:
        """Raise UnknownVertex unless v belongs to this network, and
        AmbiguousLabel if it only equals a vertex of another type (1 and True)."""
        i = self.index.get(v)
        if i is None:
            raise UnknownVertex(f"vertex {v!r} is not in the network")
        if type(self.vertices[i]) is not type(v):
            raise AmbiguousLabel(f"labels {self.vertices[i]!r} and {v!r} are equal "
                                 f"but of different types")

    @cached_property
    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The network as arrays: (tail, head, conductance, vertex conductance).

        The first three are parallel over ``edges``: the row indices of each
        edge's two ends and its conductance. The last is C_z in vertex order.
        Built on first use and kept, which is safe because a network never
        changes.
        """
        tail = np.array([self.index[u] for u, _, _ in self.edges], dtype=np.intp)
        head = np.array([self.index[v] for _, v, _ in self.edges], dtype=np.intp)
        conductance = np.array([c for _, _, c in self.edges])
        vertex_conductance = np.array([self.vertex_conductance[v] for v in self.vertices])
        return tail, head, conductance, vertex_conductance

    @cached_property
    def walk(self) -> tuple[tuple[int, ...], tuple[int, ...], tuple[float, ...]]:
        """Inverse-CDF tables of the walk: (indptr, neighbour row, cumulative conductance).

        The neighbours of row v sit at ``indptr[v]:indptr[v + 1]`` in their
        stored order, each with its row index and the running sum of the
        conductances up to and including it. Every running sum is its own
        left-to-right sum, so the last entry of a row is bit for bit the
        total that sampling scales by. Tuples, because the simulator's
        scalar loop indexes them one step at a time; built on first use and
        kept.
        """
        indptr = [0]
        row: list[int] = []
        cumulative: list[float] = []
        for v in self.vertices:
            row.extend(self.index[z] for z, _ in self.neighbors[v])
            cumulative.extend(accumulate(c for _, c in self.neighbors[v]))
            indptr.append(len(row))
        return tuple(indptr), tuple(row), tuple(cumulative)

    @cached_property
    def spans(self) -> tuple[tuple[int, int, float], ...]:
        """Each row's span of ``walk``: (first entry, last entry, total conductance).

        The total is the row's last running sum, bit for bit. Bisecting a
        row's running sums for ``u * total`` over ``first:last`` picks a
        neighbour for any u in [0, 1]: leaving the last entry out of the
        search means a target at or above it still lands on the last
        neighbour. Built on first use and kept.
        """
        indptr, _, cumulative = self.walk
        return tuple((lo, hi - 1, cumulative[hi - 1]) for lo, hi in zip(indptr, indptr[1:]))

    @cached_property
    def ordering(self) -> tuple[int, ...]:
        """Row indices in reverse Cuthill-McKee order, the exact solver's elimination order.

        Breadth-first from the first row of least degree, each vertex's unvisited
        neighbours taken by increasing degree (ties in stored order), then
        reversed. Neighbours land close together in the order, so the Laplacian
        is a narrow band in it. Read from ``arrays``: one lexsort over both ends
        of every edge puts each vertex's neighbours in that order, and an edge's
        index is its stored position at both ends. Built on first use and kept.
        """
        tail, head, _, _ = self.arrays
        ends, other = np.concatenate((tail, head)), np.concatenate((head, tail))
        degree = np.bincount(ends, minlength=self.n)
        ranked = np.lexsort((np.tile(np.arange(len(tail)), 2), degree[other], ends))
        indptr = np.concatenate(([0], np.cumsum(degree))).tolist()
        row = other[ranked].tolist()
        order = _breadth_first(int(degree.argmin()), lambda v: row[indptr[v]:indptr[v + 1]])
        return tuple(reversed(order))


@dataclass(frozen=True, eq=False)
class AugmentedNetwork:
    """A network plus one fresh degree-one vertex hung off an anchor.

    ``combined`` is the enlarged network; ``base`` is the untouched
    original. The pendant has exactly one edge, to ``anchor``, and the
    combined total conductance is base.total_conductance plus twice the
    pendant conductance.
    """

    base: Network
    pendant: VertexId
    anchor: VertexId
    pendant_conductance: float
    combined: Network


@dataclass(frozen=True, eq=False)
class Distribution:
    """Probability weights over vertices; entries absent from the map are 0."""

    weights: dict[VertexId, float]

    def __post_init__(self):
        total = math.fsum(self.weights.values())
        if any(w < 0.0 for w in self.weights.values()):
            raise ValueError("distribution has a negative weight")
        if abs(total - 1.0) > DISTRIBUTION_TOL:
            raise ValueError(f"distribution weights sum to {total!r}, not 1")

    def weight(self, v: VertexId) -> float:
        return self.weights.get(v, 0.0)

    def support(self) -> tuple[VertexId, ...]:
        return tuple(self.weights)


def _breadth_first(start, neighbours) -> list:
    """The vertices reachable from ``start``, in breadth-first order. Each vertex's
    unseen ``neighbours(v)`` join the queue in their stored order."""
    order, seen = [start], {start}
    for v in order:  # grows while it is read: a breadth-first queue
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
    """math.fsum of conductances, or inf where the sum overflows."""
    try:
        return math.fsum(values)
    except OverflowError:
        return math.inf


def _partials(values) -> list[float]:
    """Shewchuk's nonoverlapping partials of finite values whose sum does not
    overflow, the expansion math.fsum keeps: they add up to the values' sum
    exactly, so ``math.fsum([*partials, *more])`` is the correctly rounded sum
    of the values and ``more`` together."""
    partials: list[float] = []
    for x in values:
        i = 0
        for y in partials:
            if abs(x) < abs(y):
                x, y = y, x
            hi = x + y
            lo = y - (hi - x)
            if lo:
                partials[i] = lo
                i += 1
            x = hi
        partials[i:] = [x]
    return partials


def build_network(edge_list) -> Network:
    """Build a validated Network from (u, v, conductance) triples.

    Parallel entries for the same vertex pair are merged by summing their
    conductances. Self-loops are rejected, as is any conductance that is
    not a finite positive real, and the resulting graph must be connected.
    Labels that compare equal but differ in type (1, 1.0 and True) raise
    AmbiguousLabel instead of silently naming one vertex. Sums that
    overflow are rejected too: a merged edge, a vertex conductance C_z or
    the total C that is not finite raises NonPositiveConductance naming
    the pair or vertex. An error caused by one entry carries that entry's
    index as ``edge``.
    """
    edge_list = list(edge_list)
    if not edge_list:
        raise ValueError("edge list is empty")

    index: dict[VertexId, int] = {}
    vertices: list[VertexId] = []

    def intern(v: VertexId) -> int:
        i = index.setdefault(v, len(vertices))
        if i == len(vertices):
            vertices.append(v)
        elif type(vertices[i]) is not type(v):
            raise AmbiguousLabel(f"labels {vertices[i]!r} and {v!r} are equal "
                                 f"but of different types")
        return i

    merged: dict[tuple[int, int], float] = {}  # in first-appearance order
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

    adjacency: dict[VertexId, list[tuple[VertexId, float]]] = {v: [] for v in vertices}
    edges = []
    for (iu, iv), c in merged.items():
        u, v = vertices[iu], vertices[iv]
        edges.append((u, v, c))
        adjacency[u].append((v, c))
        adjacency[v].append((u, c))

    reached = _breadth_first(vertices[0], lambda v: [y for y, _ in adjacency[v]])
    if len(reached) != len(vertices):  # name the first vertex, in input order, not reached
        missing = min(set(vertices) - set(reached), key=index.__getitem__)
        raise Disconnected(f"graph is not connected (no path to {missing!r})")

    vertex_conductance = {v: _sum(c for _, c in adjacency[v]) for v in vertices}
    total = _sum(vertex_conductance.values())
    if not math.isfinite(total):  # C bounds every C_z, so this checks them all
        v = next((v for v, cz in vertex_conductance.items() if not math.isfinite(cz)), None)
        what = "total conductance" if v is None else f"conductance of vertex {v!r}"
        raise NonPositiveConductance(f"{what} is not finite")

    return Network(
        vertices=tuple(vertices),
        edges=tuple(edges),
        index=index,
        neighbors={v: tuple(adjacency[v]) for v in vertices},
        vertex_conductance=vertex_conductance,
        total_conductance=total,
    )


def transition_distribution(net: Network, y: VertexId) -> Distribution:
    """One-step law of the induced walk from y: each neighbour z gets C_yz / C_y."""
    net.require(y)
    cy = net.vertex_conductance[y]
    return Distribution({z: c / cy for z, c in net.neighbors[y]})


def transition_matrix(net: Network) -> np.ndarray:
    """Row-stochastic kernel of the induced walk, rows in vertex order.

    Each entry is C_yz / C_y, one division, from the edge arrays.
    """
    tail, head, conductance, vertex_conductance = net.arrays
    P = np.zeros((net.n, net.n))
    P[tail, head] = conductance / vertex_conductance[tail]
    P[head, tail] = conductance / vertex_conductance[head]
    return P


def attach_pendant(net: Network, z: VertexId, c: float = 1.0) -> AugmentedNetwork:
    """Hang a fresh degree-one vertex off z with conductance c on the new edge.

    The base network is left untouched; the combined network contains every
    original edge plus the single pendant edge, so its total conductance is
    net.total_conductance + 2 c. The pendant label is generated from z and
    guaranteed not to collide with existing labels.
    """
    net.require(z)
    value = _check_conductance(c)
    label = f"~{z}"
    while label in net.index:
        label += "~"
    combined = build_network(list(net.edges) + [(z, label, value)])
    return AugmentedNetwork(
        base=net,
        pendant=label,
        anchor=z,
        pendant_conductance=value,
        combined=combined,
    )


def _require_square_stochastic(P: np.ndarray) -> None:
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise ValueError(f"kernel must be square, got shape {P.shape}")
    if P.shape[0] < 2:
        raise ValueError("kernel needs at least two states")
    if not np.all(np.isfinite(P) & (P >= 0.0)):
        raise ValueError("kernel entries must be finite and >= 0")
    if np.any(np.abs(P.sum(axis=1) - 1.0) > 1e-9):
        raise ValueError("kernel rows must sum to 1")


def chain_to_network(P, scale: float = 1.0, states=None) -> Network:
    """Realize a reversible irreducible kernel as an electric network.

    Solves pi P = pi and lays conductance scale * pi_y * P(y, z) on each
    edge (symmetrized across the two orientations), so the induced walk of
    the returned network has kernel P again. States default to 0..k-1;
    pass explicit labels to control vertex naming.
    """
    P = np.asarray(P, dtype=float)
    _require_square_stochastic(P)
    if scale <= 0.0 or not math.isfinite(scale):
        raise ValueError(f"scale must be finite and > 0, got {scale!r}")
    k = P.shape[0]
    if states is None:
        states = tuple(range(k))
    else:
        states = tuple(states)
        if len(states) != k:
            raise ValueError("states length does not match kernel size")
        if len(set(states)) != k:
            raise ValueError("state labels must be unique")

    loops = np.flatnonzero(np.diagonal(P) > 0.0)
    if loops.size:
        raise HasSelfLoopMass(f"kernel keeps mass in place at state {states[loops[0]]!r}")
    if any(len(_breadth_first(0, lambda y: np.flatnonzero(arcs[y]).tolist())) < k
           for arcs in (P > 0.0, P.T > 0.0)):  # 0 reaches every state, and every state reaches 0
        raise NotIrreducible("kernel support is not strongly connected")

    # pi solves (P^T - I) pi = 0; swap in the normalization sum(pi) = 1
    # for the last (redundant) equation.
    A = P.T - np.eye(k)
    A[-1, :] = 1.0
    b = np.zeros(k)
    b[-1] = 1.0
    pi = np.linalg.solve(A, b)
    pi = pi / pi.sum()

    flows = pi[:, None] * P
    residual = np.abs(flows - flows.T)
    worst = np.unravel_index(np.argmax(residual), residual.shape)
    if rel_err(flows[worst], flows.T[worst]) > DETAILED_BALANCE_TOL:
        y, z = worst
        raise NotReversible(
            f"detailed balance fails between states {states[y]!r} and {states[z]!r}: "
            f"{flows[worst]!r} vs {flows.T[worst]!r}"
        )

    edges = []
    for y in range(k):
        for z in range(y + 1, k):
            if P[y, z] > 0.0:
                edges.append((states[y], states[z], scale * 0.5 * (flows[y, z] + flows[z, y])))
    return build_network(edges)
