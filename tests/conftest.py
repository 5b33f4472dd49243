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
    """Sizes of the systems the exact layer eliminates while the test runs,
    one entry per system (a grounded vertex keeps a unit row, so each is n).

    Every solve goes through ``exact._eliminate``, which takes a batch of
    systems, so patching the module attribute sees every elimination.
    """
    from ohmwalk import exact

    calls = []
    kernel = exact._eliminate

    def spy(U, R, width):
        calls.extend([len(width)] * U.shape[0])
        return kernel(U, R, width)

    monkeypatch.setattr(exact, "_eliminate", spy)
    return calls
