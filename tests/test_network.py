import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ohmwalk import (
    AmbiguousLabel,
    Disconnected,
    Distribution,
    HasSelfLoopMass,
    NonPositiveConductance,
    NotIrreducible,
    NotReversible,
    SelfLoop,
    UnknownVertex,
    attach_pendant,
    build_network,
    chain_to_network,
    transition_distribution,
    transition_matrix,
)

from netgen import random_connected_network
from oracles import induced_kernel


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


class TestDistributionType:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            Distribution({"a": 0.5, "b": 0.6})

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Distribution({"a": 1.5, "b": -0.5})

    def test_absent_weight_is_zero(self):
        d = Distribution({"a": 1.0})
        assert d.weight("b") == 0.0


class TestAttachPendant:
    def test_triangle_totals(self, triangle):
        aug = attach_pendant(triangle, "a", 1.0)
        assert aug.combined.n == 4
        assert aug.combined.total_conductance == pytest.approx(8.0, rel=1e-12)

    def test_k2_becomes_path(self, k2):
        aug = attach_pendant(k2, "a", 1.0)
        assert aug.combined.n == 3
        assert aug.combined.total_conductance == pytest.approx(4.0, rel=1e-12)
        assert aug.combined.degree(aug.pendant) == 1

    def test_generalized_conductance(self, triangle):
        aug = attach_pendant(triangle, "a", 2.0)
        recomputed = math.fsum(aug.combined.vertex_conductance.values())
        assert aug.combined.total_conductance == pytest.approx(10.0, rel=1e-12)
        assert recomputed == pytest.approx(10.0, rel=1e-12)

    def test_base_untouched_and_removal_recovers(self, triangle):
        aug = attach_pendant(triangle, "b", 0.7)
        assert aug.base is triangle
        assert aug.combined.vertex_conductance["a"] == triangle.vertex_conductance["a"]
        stripped = [e for e in aug.combined.edges if aug.pendant not in e[:2]]
        rebuilt = build_network(stripped)
        assert rebuilt.edges == triangle.edges
        assert rebuilt.total_conductance == triangle.total_conductance

    def test_pendant_label_is_fresh(self):
        net = build_network([("a", "~a", 1.0)])
        aug = attach_pendant(net, "a", 1.0)
        assert aug.pendant not in net.index
        assert aug.combined.degree(aug.pendant) == 1

    def test_errors(self, triangle):
        with pytest.raises(UnknownVertex):
            attach_pendant(triangle, "zz")
        with pytest.raises(NonPositiveConductance):
            attach_pendant(triangle, "a", 0.0)


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

    def test_rejects_non_stochastic(self):
        with pytest.raises(ValueError):
            chain_to_network([[0.0, 0.5], [1.0, 0.0]])

    def test_explicit_state_labels(self):
        net = chain_to_network([[0.0, 1.0], [1.0, 0.0]], states=("u", "w"))
        assert net.vertices == ("u", "w")

    def test_duplicate_state_labels_rejected(self):
        with pytest.raises(ValueError):
            chain_to_network([[0.0, 1.0], [1.0, 0.0]], states=("u", "u"))

    @pytest.mark.parametrize("seed", range(12))
    def test_round_trip_on_induced_kernels(self, seed):
        source = random_connected_network(np.random.default_rng(seed), n_hi=8)
        P = transition_matrix(source)
        rebuilt = chain_to_network(P, scale=3.7)
        states = tuple(range(source.n))
        assert np.max(np.abs(induced_kernel(rebuilt, states) - P)) < 1e-9


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
