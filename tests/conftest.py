import numpy as np
import pytest

from ohmwalk import build_network


@pytest.fixture
def k2():
    return build_network([("a", "b", 1.0)])


@pytest.fixture
def triangle():
    return build_network([("a", "b", 1.0), ("b", "c", 1.0), ("c", "a", 1.0)])


@pytest.fixture
def unit_path():
    return build_network([("a", "b", 1.0), ("b", "c", 1.0)])


@pytest.fixture
def weighted_path():
    return build_network([("1", "2", 1.0), ("2", "3", 2.0)])


@pytest.fixture
def k4():
    labels = ["a", "b", "c", "d"]
    return build_network(
        [(labels[i], labels[j], 1.0) for i in range(4) for j in range(i + 1, 4)]
    )


@pytest.fixture
def star3():
    return build_network([("hub", "l1", 1.0), ("hub", "l2", 1.0), ("hub", "l3", 1.0)])


@pytest.fixture
def eliminations(monkeypatch):
    """What the exact layer eliminates while the test runs: one entry per
    system, its row count (a grounded vertex keeps a unit row, so a whole
    system is n), and one per sweep, the rows it eliminated.

    Whole systems are recorded as ``exact._solve_at`` is asked for them: it
    eliminates each member once, from both ends when it is large, in kernel
    calls that TestBothEnds counts. Leaf systems go through
    ``exact._eliminate`` and sweeps through ``exact._sweep``, so patching the
    three module attributes sees every elimination. A sweep is a generator,
    eliminating up to each stop it yields; it is recorded once it is done,
    with the last.
    """
    from ohmwalk import exact

    calls = []
    solve, kernel, sweep = exact._solve_at, exact._eliminate, exact._sweep

    def solve_spy(net, grounds, b):
        calls.extend([net.n] * len(grounds))
        return solve(net, grounds, b)

    def spy(U, R, width):
        calls.extend([len(width)] * U.shape[0])
        return kernel(U, R, width)

    def sweep_spy(U, R, width, stops):
        s = None
        for s, *rows in sweep(U, R, width, stops):
            yield s, *rows
        if s is not None:
            calls.append(s)

    monkeypatch.setattr(exact, "_solve_at", solve_spy)
    monkeypatch.setattr(exact, "_eliminate", spy)
    monkeypatch.setattr(exact, "_sweep", sweep_spy)
    return calls


@pytest.fixture
def small_memory(monkeypatch):
    """np.zeros and np.empty refuse arrays of more than 10**5 entries, as an
    allocator that has run out of memory would, so that no test allocates much."""
    def refusing(allocate):
        def refuse(shape, *args, **kwargs):
            if np.prod(shape) > 10**5:
                raise MemoryError(f"cannot allocate an array of shape {shape}")
            return allocate(shape, *args, **kwargs)
        return refuse

    for name in ("zeros", "empty"):
        monkeypatch.setattr(np, name, refusing(getattr(np, name)))
