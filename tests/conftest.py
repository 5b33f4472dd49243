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
def splu_calls(monkeypatch):
    """Sizes of the matrices scipy's sparse LU factors while the test runs.

    The exact layer imports splu at call time, so patching the module
    attribute sees every factorization.
    """
    import scipy.sparse.linalg

    calls = []
    factor = scipy.sparse.linalg.splu

    def spy(A, *args, **kwargs):
        calls.append(A.shape[0])
        return factor(A, *args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", spy)
    return calls
