import math
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ohmwalk
from ohmwalk import (
    AmbiguousLabel,
    Disconnected,
    Distribution,
    HasSelfLoopMass,
    NonPositiveConductance,
    NotIrreducible,
    NotReversible,
    SelfLoop,
    SystemTooLarge,
    UnknownVertex,
    build_network,
    chain_to_network,
    transition_distribution,
    transition_matrix,
)

import oracles
from ohmwalk.simulate import _marked, _pendant_table
from netgen import random_connected_network, random_reversible_kernel
from oracles import (bits, induced_kernel, network_bits, outcome, reverse_cuthill_mckee,
                     strongly_connected)


class TestBuildNetwork:
    def test_single_edge(self):
        net = build_network([("a", "b", 1.0)])
        assert net.n == 2
        assert net.m == 1
        assert net.vertex_conductance == {"a": 1.0, "b": 1.0}
        assert net.total_conductance == 2.0

    def test_unit_triangle(self, triangle):
        assert triangle.n == 3
        assert triangle.m == 3
        assert all(triangle.vertex_conductance[v] == 2.0 for v in triangle.vertices)
        assert triangle.total_conductance == 6.0

    def test_weighted_path_sums(self, weighted_path):
        assert weighted_path.vertex_conductance == {"1": 1.0, "2": 3.0, "3": 2.0}
        assert weighted_path.total_conductance == 6.0

    def test_disconnected_rejected(self):
        with pytest.raises(Disconnected):
            build_network([("a", "b", 1.0), ("c", "d", 1.0)])

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoop):
            build_network([("a", "a", 1.0)])

    @pytest.mark.parametrize("edges,first,second", [
        ([(1, "b", 1.0), (True, "c", 1.0)], "1", "True"),
        ([(1, "b", 1.0), (1.0, "c", 1.0)], "1", "1.0"),
        ([(True, 1, 1.0)], "True", "1"),
    ])
    def test_hash_equal_labels_of_different_types_rejected(self, edges, first, second):
        # they used to merge into one vertex, or pass for a self-loop
        with pytest.raises(AmbiguousLabel, match=f"labels {first} and {second} "):
            build_network(edges)

    @pytest.mark.parametrize("edges,edge,error", [
        ([("a", "b", 1.0), ("b", "c", -1.0)], 1, NonPositiveConductance),
        ([("a", "b", 1.0), ("c", "c", 1.0), ("b", "c", 1.0)], 1, SelfLoop),
        ([("a", "b", 1.0), ("c", "a", 1.0), (1, "c", 1.0), (True, "b", 1.0)], 3, AmbiguousLabel),
        ([("a", "b", 1e308), ("b", "c", 1.0), ("b", "a", 1e308)], 2, NonPositiveConductance),
    ])
    def test_errors_name_the_edge_at_fault(self, edges, edge, error):
        with pytest.raises(error) as exc:
            build_network(edges)
        assert exc.value.edge == edge

    def test_disconnected_names_first_unreached_vertex(self):
        # the search starts at the first vertex, not at d of least degree
        edges = [("a", "b", 1.0), ("b", "c", 1.0), ("c", "a", 1.0), ("d", "e", 1.0)]
        with pytest.raises(Disconnected, match=r"^graph is not connected \(no path to 'd'\)$"):
            build_network(edges)

    def test_whole_graph_errors_name_no_edge(self):
        with pytest.raises(Disconnected) as exc:
            build_network([("a", "b", 1.0), ("c", "d", 1.0)])
        assert exc.value.edge is None

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf"), "x", None])
    def test_bad_conductance_rejected(self, bad):
        with pytest.raises(NonPositiveConductance):
            build_network([("a", "b", bad)])

    @pytest.mark.parametrize("edges,named", [
        ([("a", "b", 1e308), ("b", "a", 1e308), ("b", "c", 1.0)], "'a' and 'b'"),
        ([("a", "b", 1e308), ("b", "c", 1e308)], "vertex 'b'"),
        ([("a", "b", 1e308)], "total conductance"),
    ])
    def test_overflowing_sums_rejected(self, edges, named):
        # merged edge, vertex conductance and total must all stay finite
        with pytest.raises(NonPositiveConductance, match=named):
            build_network(edges)

    def test_empty_edge_list_rejected(self):
        with pytest.raises(ValueError):
            build_network([])

    def test_parallel_edges_merge_by_summing(self):
        net = build_network([("a", "b", 1.0), ("b", "a", 2.5), ("b", "c", 1.0)])
        assert net.m == 2
        assert net.vertex_conductance["a"] == 3.5
        assert net.degree("a") == 1

    def test_vertex_order_is_first_appearance(self):
        net = build_network([("x", "b", 1.0), ("b", "a", 1.0)])
        assert net.vertices == ("x", "b", "a")
        assert net.index == {"x": 0, "b": 1, "a": 2}


_LABEL_POOL = [0, 1, 2, 3, "a", "b", "c", "1"]  # str and int, none equal to another
_CLASHES = [0.0, False, 1.0, True]  # each equal to 0 or 1
_CONDUCTANCES = st.one_of(st.sampled_from([5e-324, 1e-308, 0.5, 1.0, 2.5, 1e308]),
                          st.floats(min_value=0.1, max_value=10.0),
                          st.floats(min_value=5e-324, max_value=1e308))
_BAD_CONDUCTANCES = st.sampled_from([0.0, -1.0, math.nan, math.inf, -math.inf, "x", None])


@st.composite
def _edge_lists(draw, faults=False):
    """A connected edge list on 2-7 labels: a path through them, then more
    pairs, each entry either way round and the whole shuffled, so pairs
    repeat in both orientations. With faults, up to three faulty entries are
    added: a label equal to another of another type, a self-loop, a bad
    conductance, a pair summing past 1e308, or a second component."""
    labels = draw(st.lists(st.sampled_from(_LABEL_POOL), min_size=2, max_size=7, unique=True))
    vertex = st.sampled_from(labels)
    pairs = list(zip(labels, labels[1:]))
    pairs += draw(st.lists(st.tuples(vertex, vertex).filter(lambda p: p[0] != p[1]),
                           max_size=12))
    edges = [(u, v, draw(_CONDUCTANCES)) if draw(st.booleans()) else (v, u, draw(_CONDUCTANCES))
             for u, v in pairs]
    if faults:
        for _ in range(draw(st.integers(1, 3))):
            kind = draw(st.sampled_from(["clash", "loop", "bad", "overflow", "apart"]))
            u, v = draw(vertex), draw(vertex)
            if kind == "clash":
                edges.append((draw(st.sampled_from(_CLASHES)), v, draw(_CONDUCTANCES)))
            elif kind == "loop":
                edges.append((u, u, draw(_CONDUCTANCES)))
            elif kind == "bad":
                edges.append((u, v, draw(_BAD_CONDUCTANCES)))
            elif kind == "overflow":
                edges += [(u, v, 1e308), (v, u, 1e308)]
            else:
                edges.append(("x", "y", draw(_CONDUCTANCES)))
    return draw(st.permutations(edges))


class TestAgainstReference:
    """Every field, bit for bit and label type for label type, against the
    one-entry-at-a-time builder in tests/oracles.py."""

    @settings(max_examples=300, deadline=None)
    @given(_edge_lists())
    def test_every_field_matches(self, edges):
        assert outcome(build_network, edges) == outcome(oracles.build_network, edges)

    @settings(max_examples=300, deadline=None)
    @given(_edge_lists(faults=True))
    def test_every_error_matches(self, edges):
        # the same type, entry (.edge) and message, or the same network
        assert outcome(build_network, edges) == outcome(oracles.build_network, edges)

    @pytest.mark.parametrize("seed", range(12))
    def test_larger_networks_with_parallel_edges(self, seed):
        rng = np.random.default_rng(seed)
        base = random_connected_network(rng, n_lo=20, n_hi=60)
        repeats = [(v, u, float(rng.uniform(0.1, 10.0))) if rng.random() < 0.5
                   else (u, v, float(rng.uniform(0.1, 10.0)))
                   for u, v, _ in base.edges for _ in range(int(rng.integers(0, 4)))]
        listed = list(base.edges) + repeats
        edges = [listed[i] for i in rng.permutation(len(listed))]
        net = build_network(edges)
        assert network_bits(net) == network_bits(oracles.build_network(edges))
        # the pendant's walk table, spliced from net's, is the reference's
        z = net.vertices[int(rng.integers(net.n))]
        table = _pendant_table(net, net.index[z], 0.3)
        cut, jump, indptr, adjacent = table[2]()
        reference = oracles.build_network([*edges, (z, f"~{z}", 0.3)])
        assert bits((tuple(_marked(table, ())), cut, jump)) == bits(reference.walk)
        neighbours = [[reference.index[u] for u, _ in reference.neighbors[v]]
                      for v in reference.vertices]
        assert indptr.tolist() == [0, *accumulate(map(len, neighbours))]
        assert adjacent.tolist() == [u for row in neighbours for u in row]

    def test_parallel_entries_sum_left_to_right(self):
        net = build_network([("a", "b", 0.1), ("b", "a", 0.2), ("a", "b", 0.3), ("b", "c", 1.0)])
        assert net.edges[0][2] == (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3)

    def test_entries_without_a_length(self):
        # a generator of three values unpacks, but is not a triple
        with pytest.raises(TypeError, match="sequences"):
            build_network([("a", "b", 1.0), (x for x in ("b", "c", 1.0))])

    def test_arrays_are_read_only(self, triangle):
        with pytest.raises(ValueError):
            triangle.weight[0] = 2.0


class TestNetworkInvariants:
    @pytest.mark.parametrize("seed", range(20))
    def test_conductance_sums_consistent(self, seed):
        net = random_connected_network(np.random.default_rng(seed))
        edge_total = 2.0 * math.fsum(c for _, _, c in net.edges)
        by_vertex = math.fsum(net.vertex_conductance.values())
        assert net.total_conductance == pytest.approx(edge_total, rel=1e-12)
        assert net.total_conductance == pytest.approx(by_vertex, rel=1e-12)
        for z in net.vertices:
            recomputed = math.fsum(c for _, c in net.neighbors[z])
            assert net.vertex_conductance[z] == pytest.approx(recomputed, rel=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_unit_conductance_degenerates_to_degrees(self, seed):
        net = random_connected_network(np.random.default_rng(seed), unit=True)
        assert all(net.vertex_conductance[z] == net.degree(z) for z in net.vertices)
        assert net.total_conductance == 2.0 * net.m

    def test_degree_of_unknown_vertex(self, k2):
        with pytest.raises(UnknownVertex):
            k2.degree("zz")


def _grid_edges(k: int) -> list:
    return ([(i * k + j, i * k + j + 1, 1.0) for i in range(k) for j in range(k - 1)]
            + [(i * k + j, (i + 1) * k + j, 1.0) for i in range(k - 1) for j in range(k)])


class TestOrdering:
    @pytest.mark.parametrize("seed", range(30))
    def test_matches_reference_on_random_networks(self, seed):
        net = random_connected_network(np.random.default_rng(seed), n_hi=40)
        assert net.ordering == reverse_cuthill_mckee(net)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_reference_on_shuffled_grids(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(3, 25))
        edges = _grid_edges(k)
        net = build_network([edges[i] for i in rng.permutation(len(edges))])
        assert net.ordering == reverse_cuthill_mckee(net)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_reference_with_parallel_edges_in_both_orientations(self, seed):
        # repeats of an edge, either way round and anywhere in the list, merge
        # into the first appearance, which fixes every stored position
        rng = np.random.default_rng(seed)
        edges = list(random_connected_network(rng, n_hi=30).edges)
        repeats = [(v, u, c) if rng.random() < 0.5 else (u, v, c)
                   for u, v, c in edges for _ in range(int(rng.integers(0, 3)))]
        listed = edges + repeats
        net = build_network([listed[i] for i in rng.permutation(len(listed))])
        assert net.ordering == reverse_cuthill_mckee(net)

    def test_solves_do_not_build_the_walk_tables(self):
        # nor the label views: the solver, the replayer and the simulator read rows
        net = random_connected_network(np.random.default_rng(0), n_lo=6)
        z, y = net.vertices[:2]
        ohmwalk.hitting_time(net, z)
        ohmwalk.round_trip(net, z, y)
        ohmwalk.replay(net, z)
        assert "ordering" in net.__dict__
        assert not {"edges", "neighbors", "vertex_conductance", "walk"} & net.__dict__.keys()
        ohmwalk.estimate_return_time(net, z, 100, 0)
        assert "walk" in net.__dict__
        assert not {"edges", "neighbors", "vertex_conductance"} & net.__dict__.keys()
        # a pendant walk table is spliced from the base's arrays, not its label views
        ohmwalk.estimate_excursions(net, z, 100, 0)
        ohmwalk.replay(net, z, simulate_with=(10, 0))
        assert not {"edges", "neighbors", "vertex_conductance"} & net.__dict__.keys()


# Entry points of every layer, each given a label that only equals vertex 1.
_LABEL_CALLS = {
    "hitting_time": lambda net, v: ohmwalk.hitting_time(net, v),
    "effective_resistance": lambda net, v: ohmwalk.effective_resistance(net, 3, v),
    "round_trip": lambda net, v: ohmwalk.round_trip(net, v, 3),
    "commute_time": lambda net, v: ohmwalk.commute_time(net, 3, v),
    "return_time": lambda net, v: ohmwalk.return_time(net, v),
    "return_time_formula": lambda net, v: ohmwalk.return_time_formula(net, v),
    "estimate_return_time": lambda net, v: ohmwalk.estimate_return_time(net, v, 10, 0),
    "estimate_hitting_time": lambda net, v: ohmwalk.estimate_hitting_time(net, 3, v, 10, 0),
    "trace_walk": lambda net, v: ohmwalk.trace_walk(net, v, 3, np.random.default_rng(0)),
    "replay": lambda net, v: ohmwalk.replay(net, v),
    "estimate_excursions": lambda net, v: ohmwalk.estimate_excursions(net, v, 10, 0),
    "degree": lambda net, v: net.degree(v),
}


class TestLabelTypes:
    @pytest.mark.parametrize("call", list(_LABEL_CALLS))
    @pytest.mark.parametrize("label", [True, 1.0])
    def test_hash_equal_label_of_another_type_rejected(self, call, label):
        # True and 1.0 used to be looked up as vertex 1: hitting_time(net, True)
        # keyed its target True and estimate_return_time(net, True) walked
        net = build_network([(1, 2, 1.0), (2, 3, 1.0)])
        with pytest.raises(AmbiguousLabel, match=f"labels 1 and {label!r} "):
            _LABEL_CALLS[call](net, label)

    def test_membership_checks_the_type(self):
        net = build_network([(1, 2, 1.0), (2, 3, 1.0), ("a", 3, 1.0)])
        assert 1 in net and "a" in net
        assert True not in net and 1.0 not in net and "1" not in net

    def test_stored_labels_pass(self):
        net = build_network([(1, 2, 1.0), (2, 3, 1.0)])
        assert ohmwalk.hitting_time(net, 1).values == {1: 0.0, 2: 3.0, 3: 4.0}
        assert ohmwalk.replay(net, 1).passed


class TestTransitionDistribution:
    def test_forced_move(self, k2):
        assert transition_distribution(k2, "a").weights == {"b": 1.0}

    def test_weighted_split(self, weighted_path):
        d = transition_distribution(weighted_path, "2")
        assert d.weight("1") == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert d.weight("3") == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_triangle_symmetry(self, triangle):
        d = transition_distribution(triangle, "a")
        assert d.weights == {"b": 0.5, "c": 0.5}

    def test_unknown_vertex(self, triangle):
        with pytest.raises(UnknownVertex):
            transition_distribution(triangle, "zz")

    @pytest.mark.parametrize("seed", range(15))
    def test_rows_sum_to_one_and_support_is_neighbors(self, seed):
        net = random_connected_network(np.random.default_rng(seed))
        for y in net.vertices:
            d = transition_distribution(net, y)
            assert math.fsum(d.weights.values()) == pytest.approx(1.0, abs=1e-12)
            assert set(d.support()) == {z for z, _ in net.neighbors[y]}
            assert d.weight(y) == 0.0


class TestTransitionMatrix:
    @pytest.mark.parametrize("seed", range(15))
    def test_entries_are_one_division_each(self, seed):
        rng = np.random.default_rng(seed)
        base = random_connected_network(rng)
        # repeat some edges, reversed, so parallel entries merge
        repeats = [(v, u, float(rng.uniform(0.1, 10.0)))
                   for u, v, _ in base.edges if rng.random() < 0.5]
        net = build_network(list(base.edges) + repeats)
        want = np.zeros((net.n, net.n))
        for y in net.vertices:
            for z, c in net.neighbors[y]:
                want[net.index[y], net.index[z]] = c / net.vertex_conductance[y]
        assert transition_matrix(net).tolist() == want.tolist()

    def test_out_of_memory_raises_system_too_large(self, small_memory):
        net = build_network(_grid_edges(20))  # 160000 entries
        with pytest.raises(SystemTooLarge, match=r"the transition matrix needs 1\.2 MiB "):
            transition_matrix(net)


class TestDistributionType:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            Distribution({"a": 0.5, "b": 0.6})

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Distribution({"a": 1.5, "b": -0.5})

    @pytest.mark.parametrize("weights,vertex", [({"a": 0.5, "b": math.nan, "c": 0.5}, "b"),
                                                ({"a": math.inf, "b": -math.inf}, "a")])
    def test_rejects_a_weight_that_is_not_finite(self, weights, vertex):
        with pytest.raises(ValueError, match=f"weight of {vertex!r} is .*, not a finite"):
            Distribution(weights)

    def test_absent_weight_is_zero(self):
        d = Distribution({"a": 1.0})
        assert d.weight("b") == 0.0


class TestChainToNetwork:
    def test_two_state_flip(self):
        net = chain_to_network([[0.0, 1.0], [1.0, 0.0]])
        assert net.n == 2
        assert np.allclose(transition_matrix(net), [[0, 1], [1, 0]])

    def test_triangle_kernel_round_trips(self):
        P = np.full((3, 3), 0.5)
        np.fill_diagonal(P, 0.0)
        net = chain_to_network(P)
        cs = [c for _, _, c in net.edges]
        assert max(cs) == pytest.approx(min(cs), rel=1e-12)
        assert np.allclose(induced_kernel(net, (0, 1, 2)), P, atol=1e-12)

    def test_rejects_non_reversible(self):
        P = [[0.0, 0.9, 0.1], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]]
        with pytest.raises(NotReversible):
            chain_to_network(P)

    def test_non_reversible_message_prints_plain_floats(self):
        # A 4-cycle: pi is 1/4 at every state, so the flows are exact on any
        # LAPACK, and the message must not show numpy's scalar repr.
        P = np.roll(np.eye(4), 1, axis=1)
        with pytest.raises(NotReversible) as info:
            chain_to_network(P)
        assert str(info.value) == "detailed balance fails between states 0 and 1: 0.25 vs 0.0"

    def test_rejects_self_loop_mass(self):
        P = [[0.5, 0.5], [1.0, 0.0]]
        with pytest.raises(HasSelfLoopMass):
            chain_to_network(P)

    def test_rejects_reducible(self):
        P = [
            [0.0, 1.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [0.0, 0.0, 1.0, 0.0],
        ]
        with pytest.raises(NotIrreducible):
            chain_to_network(P)
        # one-way: state 0 is transient, and no state keeps mass in place
        with pytest.raises(NotIrreducible):
            chain_to_network([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])

    def test_rejects_non_stochastic(self):
        with pytest.raises(ValueError):
            chain_to_network([[0.0, 0.5], [1.0, 0.0]])
        # NaN compares false everywhere: the first kernel used to be realized
        # as a network whose walk is not P, the second to raise NotIrreducible
        for P in ([[0.0, 1.0, math.nan], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]],
                  [[0.0, math.nan], [1.0, 0.0]]):
            with pytest.raises(ValueError, match="finite"):
                chain_to_network(P)

    def test_explicit_state_labels(self):
        net = chain_to_network([[0.0, 1.0], [1.0, 0.0]], states=("u", "w"))
        assert net.vertices == ("u", "w")

    def test_duplicate_state_labels_rejected(self):
        with pytest.raises(ValueError):
            chain_to_network([[0.0, 1.0], [1.0, 0.0]], states=("u", "u"))

    def test_irreducible_exactly_when_scipy_finds_one_component(self):
        rng = np.random.default_rng(2024)
        kernels = [random_reversible_kernel(rng)[0] for _ in range(10)]
        for _ in range(150):
            k = int(rng.integers(2, 10))
            support = rng.random((k, k)) < rng.uniform(0.1, 0.6)
            np.fill_diagonal(support, False)
            for y in np.flatnonzero(~support.any(axis=1)):  # every row needs an arc
                support[y, rng.choice(np.delete(np.arange(k), y))] = True
            kernels.append(support * rng.uniform(0.1, 1.0, (k, k)))
            if k >= 4:  # block-reducible: the first block only leaks into the second
                cut = int(rng.integers(2, k - 1))
                block = kernels[-1].copy()
                block[cut:, :cut] = 0.0
                for y in np.flatnonzero(~block.any(axis=1)):
                    block[y, cut if y != cut else cut + 1] = 1.0
                kernels.append(block)
        for k in (3, 5, 8):
            cycle = np.roll(np.eye(k), 1, axis=1)  # one-way cycle: irreducible
            kernels.append(cycle)
            tail = cycle.copy()  # state 0 feeds a one-way cycle it never returns from
            tail[k - 1] = np.roll(tail[k - 1], 1)
            kernels.append(tail)
        seen = set()
        for P in kernels:
            P = P / P.sum(axis=1, keepdims=True)
            try:
                chain_to_network(P)
                irreducible = True
            except NotIrreducible:
                irreducible = False
            except NotReversible:  # raised only once irreducibility has passed
                irreducible = True
            assert irreducible == strongly_connected(P), P
            seen.add(irreducible)
        assert seen == {True, False}

    @pytest.mark.parametrize("seed", range(6))
    def test_edges_match_a_double_loop(self, seed):
        P, _ = random_reversible_kernel(np.random.default_rng(seed), n_hi=12)
        k = len(P)
        states = [f"s{k - y}" for y in range(k)]
        flows = _gth_stationary(P)[:, None] * P
        edges = []
        for y in range(k):
            for z in range(y + 1, k):
                if P[y, z] > 0.0:
                    edges.append((states[y], states[z], 3.7 * 0.5 * (flows[y, z] + flows[z, y])))
        assert (network_bits(chain_to_network(P, scale=3.7, states=states))
                == network_bits(build_network(edges)))

    def test_realizes_a_chain_whose_stationary_law_spans_1e76(self):
        # pi falls by about 99 per state; a dense solve lost the small masses
        # and realized row 19 off by a factor of 49
        P = _birth_death(40, 0.01)
        net = chain_to_network(P)
        Q = induced_kernel(net, tuple(range(40)))
        support = P > 0.0
        assert np.all(np.abs(Q[support] - P[support]) <= 1e-12 * P[support])
        assert np.all(Q[~support] == 0.0)

    def test_rejects_a_one_way_arc_however_small_its_flow(self):
        # pi is about 7e-73 at 37, so the arc 37 -> 39 carries a flow far
        # below 1e-9: only a relative balance test sees it
        P = _birth_death(40, 0.01)
        P[37, 39], P[37, 36] = 0.005, P[37, 36] - 0.005
        with pytest.raises(NotReversible, match="between states 37 and 39: .* vs 0.0$"):
            chain_to_network(P)

    def test_stationary_flows_past_the_normal_range_raise_a_typed_error(self):
        # pi falls below 1e-308 near state 155, so no network of doubles has this walk
        with pytest.raises(NonPositiveConductance, match="flows leave the normal floating-point"):
            chain_to_network(_birth_death(200, 0.01))

    @pytest.mark.parametrize("seed", range(12))
    def test_round_trip_on_induced_kernels(self, seed):
        source = random_connected_network(np.random.default_rng(seed), n_hi=8)
        P = transition_matrix(source)
        rebuilt = chain_to_network(P, scale=3.7)
        states = tuple(range(source.n))
        assert np.max(np.abs(induced_kernel(rebuilt, states) - P)) < 1e-9


def _gth_stationary(P) -> np.ndarray:
    """pi of an irreducible kernel by GTH in scalar loops: states eliminated
    last to first, each pivot the sum of the probabilities of leaving for an
    earlier state, then back-substitution; every sum a math.fsum, as in
    chain_to_network."""
    k = len(P)
    A = P.tolist()
    for j in range(k - 1, 0, -1):
        pivot = math.fsum(A[j][:j])
        for i in range(j):
            A[i][j] /= pivot
        for i in range(j):
            for col in range(j):
                A[i][col] += A[i][j] * A[j][col]
    pi = [1.0]
    for j in range(1, k):
        pi.append(math.fsum(pi[i] * A[i][j] for i in range(j)))
    total = math.fsum(pi)
    return np.array([p / total for p in pi])


def _birth_death(k: int, up: float) -> np.ndarray:
    """The walk on 0..k-1 that steps up with probability ``up`` and down
    otherwise, reflecting at both ends."""
    P = np.zeros((k, k))
    P[0, 1] = P[k - 1, k - 2] = 1.0
    for i in range(1, k - 1):
        P[i, i + 1], P[i, i - 1] = up, 1.0 - up
    return P


@st.composite
def edge_lists(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    tree = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    pool = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in set(tree)]
    extras = draw(st.lists(st.sampled_from(pool), unique=True, max_size=len(pool))) if pool else []
    conductance = st.floats(min_value=0.1, max_value=10.0, allow_nan=False)
    return [
        (f"v{i}", f"v{j}", draw(conductance))
        for i, j in tree + extras
    ]


@settings(max_examples=40, deadline=None)
@given(edge_lists())
def test_build_then_reread_fixed_point(edges):
    net = build_network(edges)
    again = build_network(net.edges)
    assert again.vertices == net.vertices
    assert again.edges == net.edges
    assert again.total_conductance == net.total_conductance


@settings(max_examples=40, deadline=None)
@given(edge_lists())
def test_transition_rows_are_distributions(edges):
    net = build_network(edges)
    for y in net.vertices:
        d = transition_distribution(net, y)
        assert math.fsum(d.weights.values()) == pytest.approx(1.0, abs=1e-12)
        assert all(w > 0.0 for w in d.weights.values())
