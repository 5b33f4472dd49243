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

A network is held once, in arrays: compressed sparse rows (each row's
neighbour rows and conductances in stored order), the merged edges, and
every C_z, laid out by one step for both ``build_network`` (after one
pass over the edge list) and ``attach_pendant``. The solver, the
simulator and the replayer index rows; the label-facing views
(``edges``, ``neighbors``, ``vertex_conductance``) are built from the
arrays only when something reads them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, repeat
from typing import NoReturn

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
from .util import sized

VertexId = str | int

DETAILED_BALANCE_TOL = 1e-9
DISTRIBUTION_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class Network:
    """Finite connected weighted graph with positive edge conductances.

    Attributes, all fixed at construction (the arrays are read-only):
        vertices: labels in first-appearance order (defines row indices).
        index: label -> row index.
        indptr: row v's neighbours sit at ``indptr[v]:indptr[v + 1]`` of
            ``adjacent`` and ``weight`` (compressed sparse rows).
        adjacent: each row's neighbour rows, in stored order: the order in
            which their merged edges first appear in the edge list.
        weight: the conductance of each entry of ``adjacent``.
        tail, head, conductance: the merged undirected edges in
            first-appearance order, as the rows of their two ends (tail <
            head) and the summed conductance.
        row_conductance: C_z of each row, the correctly rounded sum of its
            row of ``weight``.
        total_conductance: sum of vertex conductances (C); equals twice
            the sum of edge conductances.

    Cached on first use: the label views ``edges`` ((u, v, conductance)
    tuples), ``neighbors`` (label -> tuple of (neighbour label,
    conductance)) and ``vertex_conductance`` (label -> C_z), and the
    derived tables ``walk`` and ``ordering``.
    """

    vertices: tuple[VertexId, ...]
    index: dict[VertexId, int]
    indptr: np.ndarray
    adjacent: np.ndarray
    weight: np.ndarray
    tail: np.ndarray
    head: np.ndarray
    conductance: np.ndarray
    row_conductance: np.ndarray
    total_conductance: float

    def __post_init__(self):
        for array in (self.indptr, self.adjacent, self.weight, self.tail, self.head,
                      self.conductance, self.row_conductance):
            array.flags.writeable = False

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def m(self) -> int:
        return len(self.tail)

    def __contains__(self, v: VertexId) -> bool:
        return v in self.index and type(self.vertices[self.index[v]]) is type(v)

    def degree(self, z: VertexId) -> int:
        """Number of distinct neighbours of z (parallel edges were merged)."""
        self.require(z)
        i = self.index[z]
        return int(self.indptr[i + 1] - self.indptr[i])

    def require(self, v: VertexId) -> None:
        """Raise UnknownVertex unless v belongs to this network, and
        AmbiguousLabel if it only equals a vertex of another type (1 and True)."""
        i = self.index.get(v)
        if i is None:
            raise UnknownVertex(f"vertex {v!r} is not in the network")
        if type(self.vertices[i]) is not type(v):
            raise AmbiguousLabel(f"labels {self.vertices[i]!r} and {v!r} are equal "
                                 f"but of different types")

    def row(self, v: int) -> tuple[list[int], list[float]]:
        """Row v's neighbour rows and their conductances, in stored order."""
        lo, hi = self.indptr[v], self.indptr[v + 1]
        return self.adjacent[lo:hi].tolist(), self.weight[lo:hi].tolist()

    @cached_property
    def edges(self) -> tuple[tuple[VertexId, VertexId, float], ...]:
        """The merged undirected edges as (u, v, conductance), in stored order."""
        label = self.vertices.__getitem__
        return tuple(zip(map(label, self.tail.tolist()), map(label, self.head.tolist()),
                         self.conductance.tolist()))

    @cached_property
    def neighbors(self) -> dict[VertexId, tuple[tuple[VertexId, float], ...]]:
        """label -> tuple of (neighbour label, conductance), in stored order."""
        entries = list(zip(map(self.vertices.__getitem__, self.adjacent.tolist()),
                           self.weight.tolist()))
        bounds = self.indptr.tolist()
        return {v: tuple(entries[lo:hi]) for v, lo, hi in zip(self.vertices, bounds, bounds[1:])}

    @cached_property
    def vertex_conductance(self) -> dict[VertexId, float]:
        """label -> sum of incident conductances (C_z)."""
        return dict(zip(self.vertices, self.row_conductance.tolist()))

    @cached_property
    def walk(self) -> tuple[tuple[tuple[tuple[float, ...], tuple[int, ...]], ...], np.ndarray]:
        """Inverse-CDF table of the walk, as uniform thresholds: (rows, cut).

        The rule it encodes: from row v, given a uniform u, entry j of the
        row (in stored order) passes when its running sum, the
        left-to-right sum of the conductances up to and including it, is
        at most ``u * total``, where total is the row's last running sum;
        the walk steps to the entry after the passed ones, the last
        neighbour at most, so the last entry itself is never tested.

        Every uniform the simulator draws is a multiple of 2**-53 in
        [0, 1), as ``Generator.random``'s are, and ``u * total`` does not
        decrease as u grows. So entry j passes exactly when u is at least
        its cut: the least k * 2**-53, k in [0, 2**53], with running sum at
        most ``k * 2**-53 * total``; k = 2**53 qualifies, as that product is
        the total. Cuts are found for every entry at once by bisection over
        k, at most 54 rounds, which settles whatever the total's size,
        subnormal included. A step is then ``bisect_right`` of u in the
        row's cuts: the same count of passed entries as the running-sum
        bisect, bit for bit, with no product.

        ``rows[v]`` is (the cuts of every entry of row v but the last, the
        neighbour rows of all its entries), tuples because the scalar loop
        indexes them one step at a time. ``cut`` holds every entry's
        cut at its place in ``adjacent``, inf at each row's last entry, for
        the lock-step kernel to gather. Built on first use and kept.
        """
        bounds = self.indptr.tolist()
        weight = self.weight.tolist()
        rows = map(weight.__getitem__, map(slice, bounds, bounds[1:]))
        running = np.fromiter(chain.from_iterable(map(accumulate, rows)), dtype=float,
                              count=len(weight))
        last = self.indptr[1:] - 1
        total = np.repeat(running[last], np.diff(self.indptr))
        # Where the total is normal, k is within 4 of running / total * 2**53,
        # so the bisection starts from that bracket of 9 wherever its ends
        # show that it holds k (at low = 0, low - 1 gives a negative product,
        # under every running sum), and from [0, 2**53] elsewhere: 4 rounds
        # instead of 54 on most networks.
        guess = (running / total * 2.0**53).astype(np.int64)
        low = np.clip(guess - 4, 0, 2**53)
        high = np.clip(guess + 4, 0, 2**53)
        held = running <= high * 2.0**-53 * total
        held &= running > (low - 1) * 2.0**-53 * total
        low[~held], high[~held] = 0, 2**53
        for _ in range(54):  # high - low + 1 candidates, at least halved each round
            if np.array_equal(low, high):
                break
            mid = (low + high) >> 1
            passes = running <= mid * 2.0**-53 * total
            np.copyto(high, mid, where=passes)
            np.add(mid, 1, out=low, where=~passes)
        cut = high * 2.0**-53
        cut[last] = np.inf
        cut.flags.writeable = False
        cuts, neighbours = cut.tolist(), self.adjacent.tolist()
        return tuple((tuple(cuts[lo:hi - 1]), tuple(neighbours[lo:hi]))
                     for lo, hi in zip(bounds, bounds[1:])), cut

    @cached_property
    def ordering(self) -> tuple[int, ...]:
        """Row indices in reverse Cuthill-McKee order, the exact solver's elimination order.

        Breadth-first from the first row of least degree, each vertex's unvisited
        neighbours taken by increasing degree (ties in stored order), then
        reversed. Neighbours land close together in the order, so the Laplacian
        is a narrow band in it. One stable sort of the rows' entries by (row,
        neighbour degree) ranks every row's neighbours. It reaches every row
        exactly when the graph is connected, so build_network builds it to
        check that. Kept once built.
        """
        degree = np.diff(self.indptr)
        rank = np.repeat(np.arange(self.n), degree) * (int(degree.max()) + 1) + degree[self.adjacent]
        ranked = np.argsort(rank, kind="stable")
        bounds = self.indptr.tolist()
        row = self.adjacent[ranked].tolist()
        order = _breadth_first(int(degree.argmin()), bounds, row)
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
        for v, w in self.weights.items():
            if not 0.0 <= w < math.inf:  # false for nan too
                raise ValueError(f"distribution weight of {v!r} is {w!r}, "
                                 "not a finite number >= 0")
        total = math.fsum(self.weights.values())
        if abs(total - 1.0) > DISTRIBUTION_TOL:
            raise ValueError(f"distribution weights sum to {total!r}, not 1")

    def weight(self, v: VertexId) -> float:
        return self.weights.get(v, 0.0)

    def support(self) -> tuple[VertexId, ...]:
        return tuple(self.weights)


def _breadth_first(start: int, bounds: list[int], rows: list[int]) -> list[int]:
    """The rows reachable from row ``start`` of compressed rows (row v's
    neighbours are rows[bounds[v]:bounds[v + 1]]), in breadth-first order.
    Each row's unseen neighbours join the queue in their order there."""
    order = [start]
    seen = [False] * len(bounds)
    seen[start] = True
    for v in order:  # grows while it is read: a breadth-first queue
        for u in rows[bounds[v]:bounds[v + 1]]:
            if not seen[u]:
                seen[u] = True
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


def _row_sums(values: list[float], bounds: list[int]) -> list[float]:
    """_sum of each row values[bounds[v]:bounds[v + 1]]."""
    return [_sum(values[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]


def _partials(values: list[float]) -> list[float]:
    """Terms that add up to the sum of finite values exactly, when that sum
    does not overflow, so that ``math.fsum([*terms, *more])`` is the
    correctly rounded sum of the values and ``more`` together.

    Each term is math.fsum of the values less the terms before it, until
    that rest is 0. A term is at most half an ulp of the one before it, and
    every rest is a multiple of 2**-1074, so there are a few dozen terms at
    most, and one when the values' sum is a double (unit conductances)."""
    terms: list[float] = []
    while rest := math.fsum([*values, *(-term for term in terms)]):
        terms.append(rest)
    return terms


def build_network(edge_list) -> Network:
    """Build a validated Network from (u, v, conductance) triples.

    Parallel entries for the same vertex pair are merged by summing their
    conductances, left to right in input order. Self-loops are rejected, as
    is any conductance that is not a finite positive real, and the
    resulting graph must be connected. Labels that compare equal but
    differ in type (1, 1.0 and True) raise AmbiguousLabel instead of
    silently naming one vertex. Sums that overflow are rejected too: a
    merged edge, a vertex conductance C_z or the total C that is not finite
    raises NonPositiveConductance naming the pair or vertex. An error
    caused by one entry carries that entry's index as ``edge``; when
    several entries are at fault, it is the first, as if the entries were
    checked one by one (see _first_fault).

    Every entry is checked at once, in arrays. Only when a check fails are
    the entries read one by one, to name the entry at fault.
    """
    edge_list = list(edge_list)
    if not edge_list:
        raise ValueError("edge list is empty")
    try:
        shaped = set(map(len, edge_list)) == {3}
    except TypeError:  # an entry without a length; _first_fault unpacks it
        shaped = False
    if not shaped:
        _first_fault(edge_list)
    return _build(*zip(*edge_list))


def _build(tails, heads, conductances) -> Network:
    """build_network of the entries zip(tails, heads, conductances), given as
    three sequences of one length, at least 1."""
    labels = [None] * (2 * len(tails))  # u, v of each entry in turn: first-appearance order
    labels[0::2], labels[1::2] = tails, heads
    index: dict[VertexId, int] = {}
    try:
        values = np.fromiter(map(float, conductances), dtype=float, count=len(conductances))
        # Each label's row: a label met for the first time is given the next
        # one, len(index), which map reads before setdefault inserts it.
        rows = np.fromiter(map(index.setdefault, labels, map(len, repeat(index))),
                           dtype=np.intp, count=len(labels))
    except (TypeError, ValueError, OverflowError):  # a conductance or label _first_fault names
        _first_fault(zip(tails, heads, conductances))
    vertices = tuple(index)
    n = len(vertices)
    u, v = rows[0::2], rows[1::2]
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    # Each merged edge is the first entry of its pair; entry_edge maps an
    # entry to its merged edge in first-appearance order.
    _, first, inverse = np.unique(lo * n + hi, return_index=True, return_inverse=True)
    by_appearance = np.argsort(first)
    entry_edge = np.empty_like(by_appearance)
    entry_edge[by_appearance] = np.arange(len(first))
    conductance = np.zeros(len(first))
    with np.errstate(all="ignore"):  # a sum that overflows, or inf - inf, is a fault
        np.add.at(conductance, entry_edge[inverse.reshape(-1)], values)  # in input order
        valid = np.all(np.isfinite(values) & (values > 0.0))
    mixed = len(set(map(type, labels))) > 1
    if (not valid or np.any(u == v) or not np.all(np.isfinite(conductance))
            or (mixed and len(dict.fromkeys(zip(map(type, labels), labels))) > n)):
        _first_fault(zip(tails, heads, conductances))
    net = _from_edges(vertices, index, lo[first[by_appearance]], hi[first[by_appearance]],
                      conductance)
    # The elimination order is a breadth-first search, so it reaches every
    # row exactly when the graph is connected; it is kept for the solver.
    if len(net.ordering) != n:  # name the first vertex, in input order, not reached from 0
        seen = np.zeros(n, dtype=bool)
        seen[_breadth_first(0, net.indptr.tolist(), net.adjacent.tolist())] = True
        raise Disconnected(f"graph is not connected (no path to {vertices[int(seen.argmin())]!r})")
    _check_total(net)
    return net


def _from_edges(vertices, index, tail, head, conductance, row_conductance=None) -> Network:
    """The Network of the merged edges tail[i] < head[i] with conductance[i],
    in stored order, over rows 0..len(vertices) - 1; row_conductance, the
    array of each row's C_z, is summed from the rows unless given.

    Compressed rows: both ends of each edge, edge by edge, sorted by row and
    then by place in that sequence, so each row lists its edges in stored
    order. Unique keys sort as fast in any order; a stable sort of the rows
    alone, a timsort, took three times as long on a shuffled grid60.
    """
    ends = np.stack((tail, head), axis=1).reshape(-1)
    entries = np.argsort(ends * len(ends) + np.arange(len(ends)))
    adjacent = np.stack((head, tail), axis=1).reshape(-1)[entries]
    weight = conductance[entries // 2]
    indptr = np.zeros(len(vertices) + 1, dtype=np.intp)
    np.cumsum(np.bincount(ends, minlength=len(vertices)), out=indptr[1:])
    if row_conductance is None:
        row_conductance = np.array(_row_sums(weight.tolist(), indptr.tolist()))
    return Network(vertices=vertices, index=index, indptr=indptr, adjacent=adjacent,
                   weight=weight, tail=tail, head=head, conductance=conductance,
                   row_conductance=row_conductance,
                   total_conductance=_sum(row_conductance.tolist()))


def _first_fault(edge_list) -> NoReturn:
    """Raise the error of the first entry at fault, reading the entries one
    by one: an entry's conductance, then its labels as they are first met
    (AmbiguousLabel names the label met first), then a self-loop, then its
    pair's running sum over the entries so far. An entry that is not three
    values fails to unpack; entries that are but have no length raise
    TypeError at the end."""
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

    merged: dict[tuple[int, int], float] = {}
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
    raise TypeError("edge list entries must be (u, v, conductance) sequences")


def _check_total(net: Network) -> None:
    """NonPositiveConductance unless the total C, the sum of the C_z, is
    finite, naming the first vertex whose C_z is not, if one is not."""
    if not math.isfinite(net.total_conductance):  # C bounds every C_z, so this checks them all
        bad = np.flatnonzero(~np.isfinite(net.row_conductance))
        what = f"conductance of vertex {net.vertices[bad[0]]!r}" if bad.size else "total conductance"
        raise NonPositiveConductance(f"{what} is not finite")


def transition_distribution(net: Network, y: VertexId) -> Distribution:
    """One-step law of the induced walk from y: each neighbour z gets C_yz / C_y."""
    net.require(y)
    i = net.index[y]
    cy = float(net.row_conductance[i])
    rows, weights = net.row(i)
    return Distribution({net.vertices[z]: c / cy for z, c in zip(rows, weights)})


def transition_matrix(net: Network) -> np.ndarray:
    """Row-stochastic kernel of the induced walk, rows in vertex order.

    Each entry is C_yz / C_y, one division, from the edge arrays. Running
    out of memory for the n x n array raises SystemTooLarge.
    """
    with sized(8 * net.n**2, "the transition matrix", "dense storage"):
        P = np.zeros((net.n, net.n))
    P[net.tail, net.head] = net.conductance / net.row_conductance[net.tail]
    P[net.head, net.tail] = net.conductance / net.row_conductance[net.head]
    return P


def attach_pendant(net: Network, z: VertexId, c: float = 1.0) -> AugmentedNetwork:
    """Hang a fresh degree-one vertex off z with conductance c on the new edge.

    The base network is left untouched; the combined network contains every
    original edge plus the single pendant edge, so its total conductance is
    net.total_conductance + 2 c. The pendant label is generated from z and
    guaranteed not to collide with existing labels.

    The combined network is the base's edges followed by (z, pendant, c),
    laid out by build_network's compressed-row step: what build_network
    makes of them, bit for bit. Only C_z is summed again, and ``ordering``
    waits for a solve, since the network is connected by construction.
    """
    net.require(z)
    value = _check_conductance(c)
    label = f"~{z}"
    while label in net.index:
        label += "~"
    iz = net.index[z]
    row_conductance = np.append(net.row_conductance, value)
    row_conductance[iz] = _sum([*net.row(iz)[1], value])
    combined = _from_edges(net.vertices + (label,), {**net.index, label: net.n},
                           np.append(net.tail, iz), np.append(net.head, net.n),
                           np.append(net.conductance, value), row_conductance)
    _check_total(combined)
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


def _stationary(P: np.ndarray) -> np.ndarray:
    """pi of an irreducible kernel with an empty diagonal, by GTH (Grassmann,
    Taksar & Heyman, Oper. Res. 33, 1985): states are eliminated last to
    first, each pivot the sum of the probabilities of leaving for an earlier
    state, then back-substituted. No step subtracts, so every entry is
    accurate to a few ulps relative (O'Cinneide, Numer. Math. 65, 1993)."""
    A = P.copy()
    k = len(A)
    for j in range(k - 1, 0, -1):
        A[:j, j] /= _sum(A[j, :j].tolist())
        A[:j, :j] += A[:j, j, None] * A[j, :j]
    pi = np.ones(k)
    for j in range(1, k):
        pi[j] = _sum((pi[:j] * A[:j, j]).tolist())
    return pi / _sum(pi.tolist())


def chain_to_network(P, scale: float = 1.0, states=None) -> Network:
    """Realize a reversible irreducible kernel as an electric network.

    Finds pi P = pi (_stationary) and lays conductance scale * pi_y * P(y, z)
    on each edge (symmetrized across the two orientations), so the induced
    walk of the returned network has kernel P again. Detailed balance is
    checked relatively, so a one-way arc fails it however small its flow.
    States default to 0..k-1; pass explicit labels to control vertex naming.
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
    # 0 reaches every state, and every state reaches 0; np.nonzero lists the
    # arcs y -> z row by row, so they are compressed rows as they stand.
    bounds = np.arange(k + 1)
    if any(len(_breadth_first(0, np.searchsorted(y, bounds).tolist(), z.tolist())) < k
           for y, z in map(np.nonzero, (P > 0.0, P.T > 0.0))):
        raise NotIrreducible("kernel support is not strongly connected")

    with np.errstate(all="ignore"):  # a pivot that underflows to 0 is caught below
        flows = _stationary(P)[:, None] * P
    if not np.all(flows[P > 0.0] >= np.finfo(float).tiny):  # nan fails too
        raise NonPositiveConductance("the kernel's stationary flows leave the normal "
                                     "floating-point range: too far apart for doubles")
    top = np.maximum(flows, flows.T)
    excess = np.divide(np.abs(flows - flows.T), top, out=np.zeros_like(top), where=top > 0.0)
    worst = np.unravel_index(np.argmax(excess), excess.shape)
    if excess[worst] > DETAILED_BALANCE_TOL:
        y, z = worst
        raise NotReversible(
            f"detailed balance fails between states {states[y]!r} and {states[z]!r}: "
            f"{float(flows[worst])!r} vs {float(flows.T[worst])!r}"
        )

    y, z = np.nonzero(np.triu(P > 0.0, 1))  # row by row
    conductance = scale * 0.5 * (flows[y, z] + flows[z, y])
    label = states.__getitem__
    return build_network(zip(map(label, y.tolist()), map(label, z.tolist()),
                             conductance.tolist()))
