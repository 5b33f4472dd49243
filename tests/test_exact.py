import math
import warnings

import numpy as np
import pytest

from ohmwalk import (
    IllConditionedWarning,
    SameVertex,
    SingularSystem,
    UnknownVertex,
    build_network,
    commute_time,
    effective_resistance,
    hitting_time,
    resistance_matrix,
    return_time,
    return_time_formula,
    stationary_distribution,
    transition_matrix,
    rel_err,
)
from ohmwalk.exact import _condition_number, _laplacian, _solve_grounded

from netgen import random_connected_network
from oracles import hitting_times_oracle, return_time_oracle, stationary_oracle


class TestLaplacian:
    @pytest.mark.parametrize("seed", range(10))
    def test_structure(self, seed):
        net = random_connected_network(np.random.default_rng(seed))
        L = _laplacian(net).toarray()
        assert np.allclose(L, L.T)
        assert np.max(np.abs(L.sum(axis=1))) < 1e-12
        off = L[~np.eye(net.n, dtype=bool)]
        assert np.all(off <= 0.0)
        assert np.linalg.matrix_rank(L) == net.n - 1

    def test_index_map_matches_network(self, weighted_path):
        L = _laplacian(weighted_path).toarray()
        index = weighted_path.index
        assert index == {"1": 0, "2": 1, "3": 2}
        assert L[index["2"], index["2"]] == 3.0
        assert L[index["2"], index["3"]] == -2.0


class TestEffectiveResistance:
    def test_single_unit_edge(self, k2):
        assert effective_resistance(k2, "a", "b") == pytest.approx(1.0, rel=1e-12)

    def test_series_conductances(self, weighted_path):
        # two resistors in series: 1/1 + 1/2
        assert effective_resistance(weighted_path, "1", "3") == pytest.approx(1.5, rel=1e-12)

    def test_triangle_parallel_reduction(self, triangle):
        # direct edge (1 ohm) parallel with the two-edge path (2 ohms)
        assert effective_resistance(triangle, "a", "b") == pytest.approx(2.0 / 3.0, rel=1e-12)

    def test_same_vertex_is_zero(self, triangle):
        assert effective_resistance(triangle, "b", "b") == 0.0

    @pytest.mark.parametrize("seed", range(10))
    def test_symmetry_and_matrix_agreement(self, seed):
        net = random_connected_network(np.random.default_rng(seed))
        R = resistance_matrix(net)
        for i, x in enumerate(net.vertices):
            for y in net.vertices[i + 1:]:
                r = effective_resistance(net, x, y)
                assert r == pytest.approx(effective_resistance(net, y, x), rel=1e-9)
                assert r == pytest.approx(R[net.index[x], net.index[y]], rel=1e-9)

    def test_unknown_vertex(self, k2):
        with pytest.raises(UnknownVertex):
            effective_resistance(k2, "a", "zz")


class TestHittingTime:
    def test_forced_single_step(self, k2):
        assert hitting_time(k2, "b").values == {"b": 0.0, "a": 1.0}

    def test_unit_path_endpoint(self, unit_path):
        values = hitting_time(unit_path, "c").values
        assert values["a"] == pytest.approx(4.0, rel=1e-12)
        assert values["b"] == pytest.approx(3.0, rel=1e-12)
        assert values["c"] == 0.0

    def test_triangle_by_symmetry(self, triangle):
        values = hitting_time(triangle, "c").values
        assert values["a"] == pytest.approx(2.0, rel=1e-12)
        assert values["b"] == pytest.approx(2.0, rel=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_kernel_system_oracle(self, seed):
        net = random_connected_network(np.random.default_rng(seed))
        for target in net.vertices:
            got = hitting_time(net, target).values
            want = hitting_times_oracle(net, target)
            assert all(rel_err(got[v], want[v]) < 1e-9 for v in net.vertices)

    @pytest.mark.parametrize("seed", range(10))
    def test_harmonicity_residual(self, seed):
        net = random_connected_network(np.random.default_rng(seed))
        P = transition_matrix(net)
        for target in net.vertices:
            h = hitting_time(net, target).values
            assert h[target] == 0.0
            assert all(v >= 0.0 and math.isfinite(v) for v in h.values())
            for x in net.vertices:
                if x == target:
                    continue
                ix = net.index[x]
                expected = 1.0 + sum(
                    P[ix, net.index[z]] * h[z] for z in net.vertices
                )
                assert rel_err(h[x], expected) < 1e-9


class TestCommuteTime:
    def test_k2(self, k2):
        assert commute_time(k2, "a", "b") == pytest.approx(2.0, rel=1e-12)

    def test_unit_path_ends(self, unit_path):
        assert commute_time(unit_path, "a", "c") == pytest.approx(8.0, rel=1e-12)

    def test_triangle_adjacent(self, triangle):
        assert commute_time(triangle, "a", "b") == pytest.approx(4.0, rel=1e-12)

    def test_same_vertex_rejected(self, triangle):
        with pytest.raises(SameVertex):
            commute_time(triangle, "a", "a")

    @pytest.mark.parametrize("seed", range(10))
    def test_equals_conductance_times_resistance(self, seed):
        net = random_connected_network(np.random.default_rng(seed))
        C = net.total_conductance
        for i, x in enumerate(net.vertices):
            for y in net.vertices[i + 1:]:
                commute = commute_time(net, x, y)
                assert rel_err(commute, C * effective_resistance(net, x, y)) < 1e-9


class TestReturnTime:
    def test_k2_deterministic(self, k2):
        assert return_time(k2, "a") == pytest.approx(2.0, rel=1e-12)
        assert return_time_formula(k2, "a") == 2.0

    def test_leaf_neighbors_force_two_steps(self, weighted_path):
        assert return_time(weighted_path, "2") == pytest.approx(2.0, rel=1e-12)

    def test_triangle(self, triangle):
        for z in triangle.vertices:
            assert return_time(triangle, z) == pytest.approx(3.0, rel=1e-12)
            assert return_time_formula(triangle, z) == pytest.approx(3.0, rel=1e-12)

    def test_weighted_path_formula(self, weighted_path):
        assert return_time_formula(weighted_path, "1") == pytest.approx(6.0, rel=1e-12)

    def test_star_center_and_leaf(self, star3):
        # 2m/deg: center 6/3, leaf 6/1
        assert return_time(star3, "hub") == pytest.approx(2.0, rel=1e-12)
        assert return_time(star3, "l1") == pytest.approx(6.0, rel=1e-12)
        assert return_time_formula(star3, "hub") == pytest.approx(2.0, rel=1e-12)
        assert return_time_formula(star3, "l1") == pytest.approx(6.0, rel=1e-12)

    def test_paw_graph(self):
        # star plus one leaf-leaf edge: m=4, so 2m/deg is 8/3 at the
        # degree-3 hub and 8 at the remaining pure leaf
        paw = build_network([
            ("hub", "l1", 1.0), ("hub", "l2", 1.0), ("hub", "l3", 1.0),
            ("l1", "l2", 1.0),
        ])
        assert return_time(paw, "hub") == pytest.approx(8.0 / 3.0, rel=1e-12)
        assert return_time(paw, "l3") == pytest.approx(8.0, rel=1e-12)

    @pytest.mark.parametrize("seed", range(15))
    def test_first_step_matches_formula_and_oracle(self, seed):
        net = random_connected_network(np.random.default_rng(seed))
        for z in net.vertices:
            fs = return_time(net, z)
            assert rel_err(fs, return_time_formula(net, z)) < 1e-9
            assert rel_err(fs, return_time_oracle(net, z)) < 1e-9


class TestStationaryDistribution:
    def test_triangle_uniform(self, triangle):
        pi = stationary_distribution(triangle)
        assert all(pi.weight(z) == pytest.approx(1.0 / 3.0, abs=1e-15) for z in triangle.vertices)

    def test_weighted_path(self, weighted_path):
        pi = stationary_distribution(weighted_path).weights
        assert pi["1"] == pytest.approx(1.0 / 6.0, abs=1e-15)
        assert pi["2"] == pytest.approx(1.0 / 2.0, abs=1e-15)
        assert pi["3"] == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_k2(self, k2):
        assert stationary_distribution(k2).weights == {"a": 0.5, "b": 0.5}

    @pytest.mark.parametrize("seed", range(10))
    def test_fixed_point_and_eigen_oracle(self, seed):
        net = random_connected_network(np.random.default_rng(seed))
        pi = stationary_distribution(net)
        vec = np.array([pi.weight(v) for v in net.vertices])
        assert np.max(np.abs(vec @ transition_matrix(net) - vec)) < 1e-12
        want = stationary_oracle(net)
        assert all(abs(pi.weight(v) - want[v]) < 1e-9 for v in net.vertices)


class TestResistanceGeometry:
    @pytest.mark.parametrize("seed", range(10))
    def test_metric_axioms(self, seed):
        net = random_connected_network(np.random.default_rng(seed))
        R = resistance_matrix(net)
        n = net.n
        assert np.max(np.abs(R - R.T)) < 1e-9
        assert np.all(R >= -1e-12)
        assert np.all(np.diagonal(R) == 0.0)
        off = R[~np.eye(n, dtype=bool)]
        if off.size:
            assert np.min(off) > 0.0
        # triangle inequality, indices [x, w, y]: R[x,y] <= R[x,w] + R[w,y]
        via = R[:, :, None] + R[None, :, :]
        direct = R[:, None, :]
        assert np.all(via >= direct - 1e-9)

    @pytest.mark.parametrize("seed", range(8))
    def test_rayleigh_monotonicity(self, seed):
        net = random_connected_network(np.random.default_rng(seed), n_hi=8)
        R0 = resistance_matrix(net)
        for k, (u, v, c) in enumerate(net.edges):
            bumped = [
                (x, y, w * 2.0 if i == k else w)
                for i, (x, y, w) in enumerate(net.edges)
            ]
            R1 = resistance_matrix(build_network(bumped))
            assert np.all(R1 <= R0 + 1e-9 * np.maximum(1.0, R0))


class TestConditioning:
    def test_extreme_ratio_warns_but_returns(self):
        net = build_network([("a", "b", 1e-9), ("b", "c", 1e9)])
        with pytest.warns(IllConditionedWarning):
            r = effective_resistance(net, "a", "c")
        assert r == pytest.approx(1e9 + 1e-9, rel=1e-6)

    def test_normal_network_stays_silent(self, triangle):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            effective_resistance(triangle, "a", "b")
            hitting_time(triangle, "a")

    def test_singular_system_is_a_bug_signal(self):
        from scipy.sparse import csc_array

        with pytest.raises(SingularSystem):
            _solve_grounded(csc_array((2, 2)), np.ones(2))

    def test_grounded_drops_row_and_column(self):
        net = random_connected_network(np.random.default_rng(0))
        L = _laplacian(net).toarray()
        for ground in range(net.n):
            A = _laplacian(net, ground).toarray()
            assert A.tolist() == np.delete(np.delete(L, ground, 0), ground, 1).tolist()

    @pytest.mark.parametrize("seed", range(10))
    def test_m_matrix_condition_number_is_exact(self, seed):
        from scipy.sparse.linalg import splu

        net = random_connected_network(np.random.default_rng(seed))
        for ground in range(net.n):
            A = _laplacian(net, ground)
            want = np.linalg.cond(A.toarray(), 1)
            assert _condition_number(A, splu(A)) == pytest.approx(want, rel=1e-6)


def _log_uniform_network(rng: np.random.Generator):
    net = random_connected_network(rng)
    return build_network(
        [(u, v, float(10.0 ** rng.uniform(-6.0, 6.0))) for u, v, _ in net.edges]
    )


def _assert_solves_match_oracles(net, tolerance):
    C = net.total_conductance
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IllConditionedWarning)
        got = {t: hitting_time(net, t).values for t in net.vertices}
        returns = {z: return_time(net, z) for z in net.vertices}
        resistances = {
            (x, y): effective_resistance(net, x, y)
            for i, x in enumerate(net.vertices)
            for y in net.vertices[i + 1:]
        }
    want = {t: hitting_times_oracle(net, t) for t in net.vertices}
    for t in net.vertices:
        assert all(rel_err(got[t][v], want[t][v]) <= tolerance for v in net.vertices)
        assert rel_err(returns[t], return_time_oracle(net, t)) <= tolerance
    for (x, y), r in resistances.items():
        # the oracle's resistance, from its commute time: R = (h_xy + h_yx) / C
        assert rel_err(r, (want[y][x] + want[x][y]) / C) <= tolerance


class TestSparseSolves:
    @pytest.mark.parametrize("seed", range(20))
    def test_match_dense_oracles(self, seed):
        net = random_connected_network(np.random.default_rng(seed))
        _assert_solves_match_oracles(net, 1e-12)

    @pytest.mark.parametrize("seed", range(20))
    def test_log_uniform_conductances_match_within_condition_bound(self, seed):
        # Conductances spanning 1e-6..1e6 make grounded systems with
        # condition numbers up to ~1e13. Any backward-stable solve, the dense
        # oracle's included, is then only good to about cond * eps, so the
        # 1e-12 agreement applies where that bound is below it.
        net = _log_uniform_network(np.random.default_rng(seed))
        cond = max(np.linalg.cond(_laplacian(net, g).toarray(), 1) for g in range(net.n))
        _assert_solves_match_oracles(net, max(1e-12, cond * np.finfo(float).eps))
