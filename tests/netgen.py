"""Seeded random-network generation shared by property and acceptance tests."""
import numpy as np

from ohmwalk import Network, build_network, transition_matrix


def random_connected_network(
    rng: np.random.Generator,
    n_lo: int = 2,
    n_hi: int = 12,
    c_lo: float = 0.1,
    c_hi: float = 10.0,
    unit: bool = False,
) -> Network:
    """Random connected graph: a random tree plus a uniform number of extra
    edges (anywhere from none up to completing the graph), conductances
    uniform in [c_lo, c_hi] unless ``unit`` pins them all to 1."""
    n = int(rng.integers(n_lo, n_hi + 1))
    pairs = [(int(rng.integers(0, v)), v) for v in range(1, n)]
    tree = set(pairs)
    pool = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if (i, j) not in tree
    ]
    extra = int(rng.integers(0, len(pool) + 1))
    if extra:
        chosen = rng.permutation(len(pool))[:extra]
        pairs.extend(pool[k] for k in chosen)
    if unit:
        weights = np.ones(len(pairs))
    else:
        weights = rng.uniform(c_lo, c_hi, size=len(pairs))
    return build_network(
        [(f"v{i}", f"v{j}", float(w)) for (i, j), w in zip(pairs, weights)]
    )


def grid_network(rows: int, cols: int, rng: np.random.Generator | None = None,
                 span: float = 0.0) -> Network:
    """A rows x cols grid, vertex i * cols + j at (i, j); conductances
    log-uniform in [10**-span, 10**span] when rng is given, else all 1."""
    edges = [(i * cols + j, i * cols + j + d) for i in range(rows) for j in range(cols)
             for d in (1, cols) if (d == 1 and j < cols - 1) or (d == cols and i < rows - 1)]
    if rng is None:
        return build_network([(u, v, 1.0) for u, v in edges])
    return build_network([(u, v, float(10.0 ** rng.uniform(-span, span))) for u, v in edges])


def network_suite(seed: int, count: int, **kwargs):
    """Deterministic stream of random networks for a whole test suite."""
    rng = np.random.default_rng(seed)
    return [random_connected_network(rng, **kwargs) for _ in range(count)]


def random_reversible_kernel(rng: np.random.Generator, n_lo: int = 2, n_hi: int = 8):
    """A reversible irreducible kernel without self-loops, as the induced
    walk of a random network. Returns (kernel, source network)."""
    net = random_connected_network(rng, n_lo=n_lo, n_hi=n_hi)
    return transition_matrix(net), net
