"""Seeded inputs and the four benchmark workloads.

Every input is an edge-list file written here from the benchmark seed; the
CLI reads only those files. The seed relabels every vertex. On the exact
workloads it also shuffles the edge order, which changes the row order of
every grounded solve.

The Monte Carlo workloads keep the canonical edge order and pass the fixed
simulation seed MC_SEED. Relabelling leaves the walks untouched (rows and
neighbour order follow first appearance in the file, not label text), so
their estimates can be compared bit for bit with the values recorded in
reference.json. A seed-dependent simulation seed would also make the
mc-long wall time a draw from a heavy tail: one return trial on the
1000-cycle has mean 1000 steps and standard deviation near 18000, so 1000
trials vary by about 57 % from seed to seed.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

MC_SEED = 0


@dataclass(frozen=True)
class Graph:
    """One generated input file.

    ``edges`` holds (label, label, conductance) in file order and
    ``labels[i]`` is the label of canonical vertex i.
    """

    path: str
    edges: tuple[tuple[str, str, float], ...]
    labels: tuple[str, ...]


@dataclass(frozen=True)
class Invocation:
    """One `python -m ohmwalk.cli` call and the graph it reads."""

    argv: tuple[str, ...]
    graph: Graph


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    invocations: tuple[Invocation, ...]
    setup_graph: Graph  # the largest input; set-up parses it


def grid(k: int) -> list[tuple[int, int, float]]:
    """k x k lattice; vertex i * k + j sits at row i, column j."""
    edges = []
    for i in range(k):
        for j in range(k):
            if i + 1 < k:
                edges.append((i * k + j, (i + 1) * k + j, 1.0))
            if j + 1 < k:
                edges.append((i * k + j, i * k + j + 1, 1.0))
    return edges


def path(n: int) -> list[tuple[int, int, float]]:
    return [(i, i + 1, 1.0) for i in range(n - 1)]


def cycle(n: int) -> list[tuple[int, int, float]]:
    return [(i, (i + 1) % n, 1.0) for i in range(n)]


def complete(n: int) -> list[tuple[int, int, float]]:
    return [(i, j, 1.0) for i in range(n) for j in range(i + 1, n)]


def extreme(r: float) -> list[tuple[int, int, float]]:
    """a-b 1, b-c r, c-d 1, d-a 1/r, a-c 1: max/min conductance ratio r**2."""
    a, b, c, d = range(4)
    return [(a, b, 1.0), (b, c, r), (c, d, 1.0), (d, a, 1.0 / r), (a, c, 1.0)]


def write_graph(workdir: Path, name: str, edges, rng: random.Random,
                shuffle_edges: bool) -> Graph:
    """Relabel (and optionally reorder) canonical edges and write the file."""
    n = 1 + max(max(u, v) for u, v, _ in edges)
    labels = tuple(f"v{p}" for p in rng.sample(range(n), n))
    edges = list(edges)
    if shuffle_edges:
        rng.shuffle(edges)
    labelled = tuple((labels[u], labels[v], c) for u, v, c in edges)
    file = workdir / f"{name}.edges"
    file.write_text("".join(f"{u} {v} {c!r}\n" for u, v, c in labelled), encoding="utf-8")
    return Graph(path=str(file), edges=labelled, labels=labels)


def _cli(graph: Graph, *argv) -> Invocation:
    return Invocation(argv=tuple(str(a) for a in argv), graph=graph)


def _mc_short(workdir: Path, rng: random.Random) -> tuple[Invocation, ...]:
    k4 = write_graph(workdir, "k4", complete(4), rng, shuffle_edges=False)
    tri = write_graph(workdir, "triangle", complete(3), rng, shuffle_edges=False)
    sim = ("--seed", MC_SEED)
    return (
        _cli(k4, "simulate", "return", k4.path, k4.labels[0], "--trials", 100_000, *sim),
        _cli(k4, "simulate", "excursions", k4.path, k4.labels[0], "--trials", 50_000, *sim),
        _cli(tri, "verify", tri.path, "--simulate", "--trials", 10_000, *sim),
    )


def _mc_long(workdir: Path, rng: random.Random) -> tuple[Invocation, ...]:
    line = write_graph(workdir, "path200", path(200), rng, shuffle_edges=False)
    ring = write_graph(workdir, "cycle1000", cycle(1000), rng, shuffle_edges=False)
    sim = ("--seed", MC_SEED)
    return (
        _cli(line, "simulate", "hitting", line.path, line.labels[0], line.labels[199],
             "--trials", 40, *sim),
        _cli(ring, "simulate", "return", ring.path, ring.labels[0], "--trials", 1000, *sim),
    )


def _solve_large(workdir: Path, rng: random.Random) -> tuple[Invocation, ...]:
    g = write_graph(workdir, "grid60", grid(60), rng, shuffle_edges=True)
    a, b = g.labels[0], g.labels[-1]
    return (
        _cli(g, "resistance", g.path, a, b),
        _cli(g, "hitting", g.path, a, b),
        _cli(g, "commute", g.path, a, b),
        _cli(g, "verify", g.path, "--vertex", a),
    )


def _verify_sweep(workdir: Path, rng: random.Random) -> tuple[Invocation, ...]:
    graphs = [
        write_graph(workdir, "grid20", grid(20), rng, shuffle_edges=True),
        write_graph(workdir, "k60", complete(60), rng, shuffle_edges=True),
    ]
    for r in (1e8, 1e10, 1e12):
        graphs.append(write_graph(workdir, f"extreme-{r:.0e}", extreme(r), rng,
                                  shuffle_edges=True))
    return tuple(_cli(g, "verify", g.path) for g in graphs)


# name -> (why it was chosen, function that writes its inputs)
WORKLOADS = {
    "mc-short": (
        "simulate return/excursions on K4 and verify --simulate on a triangle: "
        "3-4 steps per trial, so per-trial seeding dominates; exact stays idle",
        _mc_short,
    ),
    "mc-long": (
        "simulate hitting across a 200-path and return on a 1000-cycle: thousands "
        "of steps per trial, so the per-step walk kernel dominates",
        _mc_long,
    ),
    "solve-large": (
        "resistance, hitting, commute and verify corner to corner on a 60x60 grid: "
        "dense assembly and LU of a 3599x3599 system dominate time and memory",
        _solve_large,
    ),
    "verify-sweep": (
        "verify every anchor of a 20x20 grid, K60 and three extreme-ratio networks: "
        "many small solves plus per-anchor Python work, and known rounding failures",
        _verify_sweep,
    ),
}


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Write the workload's inputs for this seed and return its invocations."""
    why, make = WORKLOADS[name]
    workdir.mkdir(parents=True, exist_ok=True)
    invocations = make(workdir, random.Random(seed))
    largest = max((inv.graph for inv in invocations), key=lambda g: len(g.edges))
    return Workload(name=name, why=why, invocations=invocations, setup_graph=largest)
