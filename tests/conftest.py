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

    Every solve goes through ``exact._eliminate``, which takes a batch of
    systems, and every sweep through ``exact._sweep``, so patching the module
    attributes sees every elimination.
    """
    from ohmwalk import exact

    calls = []
    kernel, sweep = exact._eliminate, exact._sweep

    def spy(U, R, width):
        calls.extend([len(width)] * U.shape[0])
        return kernel(U, R, width)

    def sweep_spy(U, R, width, stops, w):
        calls.append(stops[-1])
        return sweep(U, R, width, stops, w)

    monkeypatch.setattr(exact, "_eliminate", spy)
    monkeypatch.setattr(exact, "_sweep", sweep_spy)
    return calls


@pytest.fixture
def small_memory(monkeypatch):
    """np.zeros refuses arrays of more than 10**5 entries, as an allocator
    that has run out of memory would, so that no test allocates much."""
    zeros = np.zeros

    def refuse(shape, *args, **kwargs):
        if np.prod(shape) > 10**5:
            raise MemoryError(f"cannot allocate an array of shape {shape}")
        return zeros(shape, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", refuse)
