import math
import warnings
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from ohmwalk import (
    SameVertex,
    SingularSystem,
    SystemTooLarge,
    UnknownVertex,
    build_network,
    commute_time,
    effective_resistance,
    hitting_time,
    resistance_matrix,
    return_time,
    return_time_formula,
    round_trip,
    stationary_distribution,
    transition_matrix,
    rel_err,
    replay,
)
from ohmwalk.exact import (
    _band,
    _first_return,
    _leaf_solves,
    _leaves,
    _solve_anchors,
    _solve_at,
)
from ohmwalk.network import _sum

from netgen import grid_network, random_connected_network
from oracles import (
    dense_laplacian,
    grounded_solve_exact,
    hitting_times_oracle,
    return_time_oracle,
    stationary_oracle,
)


class TestLaplacian:
    @pytest.mark.parametrize("seed", range(10))
    def test_structure(self, seed):
        net = random_connected_network(np.random.default_rng(seed))
        L = np.array(dense_laplacian(net), dtype=float)
        assert np.allclose(L, L.T)
        assert np.max(np.abs(L.sum(axis=1))) < 1e-12
        off = L[~np.eye(net.n, dtype=bool)]
        assert np.all(off <= 0.0)
        assert np.linalg.matrix_rank(L) == net.n - 1

    def test_index_map_matches_network(self, weighted_path):
        L = np.array(dense_laplacian(weighted_path), dtype=float)
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


class TestRoundTrip:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_dense_oracles(self, seed):
        net = random_connected_network(np.random.default_rng(seed))
        to = {t: hitting_times_oracle(net, t) for t in net.vertices}
        C = net.total_conductance
        for x in net.vertices:
            for y in net.vertices:
                if x == y:
                    continue
                trip = round_trip(net, x, y)
                assert rel_err(trip.x_to_y, to[y][x]) <= 1e-12
                assert rel_err(trip.y_to_x, to[x][y]) <= 1e-12
                # the oracle's resistance, from its commute time: R = (h_xy + h_yx) / C
                assert rel_err(trip.resistance, (to[y][x] + to[x][y]) / C) <= 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_bit_equal_to_separate_solves(self, seed):
        rng = np.random.default_rng(seed)
        net = random_connected_network(rng)
        if seed % 2:  # conductances over twelve decades
            net = build_network(
                [(u, v, float(10.0 ** rng.uniform(-6.0, 6.0))) for u, v, _ in net.edges]
            )
        for x in net.vertices:
            for y in net.vertices:
                if x == y:
                    continue
                trip = round_trip(net, x, y)
                assert trip.x_to_y == hitting_time(net, y).values[x]
                assert trip.y_to_x == hitting_time(net, x).values[y]
                assert trip.resistance == effective_resistance(net, x, y)
                assert commute_time(net, x, y) == trip.x_to_y + trip.y_to_x

    def test_unit_path(self, unit_path):
        trip = round_trip(unit_path, "a", "c")
        assert trip.x_to_y == pytest.approx(4.0, rel=1e-12)
        assert trip.y_to_x == pytest.approx(4.0, rel=1e-12)
        assert trip.resistance == pytest.approx(2.0, rel=1e-12)

    def test_same_vertex_rejected(self, triangle):
        with pytest.raises(SameVertex):
            round_trip(triangle, "b", "b")

    @pytest.mark.parametrize("x,y", [("zz", "a"), ("a", "zz"), ("zz", "zz")])
    def test_unknown_vertex(self, triangle, x, y):
        with pytest.raises(UnknownVertex, match="zz"):
            round_trip(triangle, x, y)

    def test_factors_one_matrix_per_ground(self, eliminations):
        net = random_connected_network(np.random.default_rng(3))
        x, y = net.vertices[0], net.vertices[-1]
        round_trip(net, x, y)
        assert eliminations == [net.n, net.n]
        eliminations.clear()
        commute_time(net, x, y)
        assert len(eliminations) == 2
        eliminations.clear()
        hitting_time(net, y)
        effective_resistance(net, x, y)
        resistance_matrix(net)
        assert len(eliminations) == 3


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
    def test_extreme_ratio_solves_accurately(self):
        net = build_network([("a", "b", 1e-9), ("b", "c", 1e9)])
        want = Fraction(1) / Fraction(1e-9) + Fraction(1) / Fraction(1e9)
        assert abs(Fraction(effective_resistance(net, "a", "c")) - want) <= 1e-15 * want

    def test_normal_network_stays_silent(self, triangle):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            effective_resistance(triangle, "a", "b")
            hitting_time(triangle, "a")

    def test_out_of_range_raises_singular_system(self, triangle):
        # R(a, c) = 2e308 overflows. A 5e-324 pendant leak makes the results
        # overflow where it is eliminated last (a) and halves to 0, leaving a
        # zero pivot, where it is eliminated first (c).
        net = build_network([("a", "b", 1e-308), ("b", "c", 1e-308)])
        with pytest.raises(SingularSystem, match="floating-point range"):
            effective_resistance(net, "a", "c")
        assert triangle.ordering == (2, 1, 0)
        for z in "ac":
            with pytest.raises(SingularSystem, match="floating-point range"):
                replay(triangle, z, 5e-324)

    def test_grounded_drops_row_and_column(self):
        # grounding g solves L with row and column g deleted, and x[g] is 0
        net = random_connected_network(np.random.default_rng(0))
        *_, vertex_conductance = net.arrays
        for ground in range(net.n):
            x = _solve_at(net, [ground], vertex_conductance[None, :, None])[0, :, 0]
            keep = np.arange(net.n) != ground
            want = [e for e, in grounded_solve_exact(dense_laplacian(net, ground),
                                                      vertex_conductance[keep, None])]
            assert x[ground] == 0.0
            assert all(abs(Fraction(float(v)) - e) <= 1e-13 * e for v, e in zip(x[keep], want))

    def test_out_of_memory_raises_system_too_large(self, small_memory):
        # a hub makes the band as wide as the network: 501 x 501 doubles a system
        net = build_network([("hub", f"l{i}", 1.0) for i in range(500)])
        with pytest.raises(SystemTooLarge, match=r"needs 3\.8 MiB of band storage"):
            effective_resistance(net, "hub", "l1")
        with pytest.raises(SystemTooLarge):
            replay(net, "l1")

    def test_denormal_conductance_solves_exactly(self):
        net = build_network([("a", "b", 1.0), ("b", "c", 5e-324)])
        assert effective_resistance(net, "a", "b") == 1.0
        assert hitting_time(net, "b").values == {"a": 1.0, "b": 0.0, "c": 1.0}
        assert return_time(net, "b") == 2.0

    def test_conductance_rounded_away_still_solves(self):
        # b's C_b = 1 + 1e-300 rounds to 1; the elimination never forms it
        net = build_network([("a", "b", 1.0), ("b", "c", 1e-300)])
        assert effective_resistance(net, "a", "c") == pytest.approx(1.0 + 1e300, rel=1e-9)


@lru_cache(maxsize=None)
def _accuracy_sample() -> tuple:
    """(entrywise relative errors, warnings emitted) over a seeded sample:
    6-12-vertex networks with log-uniform conductances over spans 1e2..1e18,
    grounded at every vertex (hitting-time right-hand side), and each
    anchor's replay leak system with a log-uniform pendant c. The error is
    against the exact rational solve of the system its couplings and leak
    define."""
    rng = np.random.default_rng(0)
    errors = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for _ in range(20):
            span = 10.0 ** rng.uniform(2.0, 18.0)
            shape = random_connected_network(rng, n_lo=6, n_hi=12)
            net = build_network([(u, v, float(span ** rng.uniform(0.0, 1.0)))
                                 for u, v, _ in shape.edges])
            *_, vertex_conductance = net.arrays
            conductances = [w for _, _, w in net.edges]
            lo, hi = math.log10(min(conductances)), math.log10(max(conductances))
            systems = [(g, vertex_conductance[:, None], None) for g in range(net.n)]
            for z in net.vertices:
                c = float(10.0 ** rng.uniform(lo - 3.0, hi + 3.0))
                iz = net.index[z]
                leaky = vertex_conductance.copy()
                leaky[iz] = _sum([*(w for _, w in net.neighbors[z]), c])
                leak = np.zeros(net.n)
                leak[iz] = c
                systems.append((None, np.column_stack((leaky, np.arange(net.n) == iz)), leak))
            for ground, b, leak in systems:
                keep = np.arange(net.n) != ground
                got = _solve_at(net, [ground], b[None],
                                None if leak is None else leak[None])[0][keep].ravel()
                want = np.ravel(np.array(grounded_solve_exact(
                    dense_laplacian(net, ground, leak), b[keep]), dtype=object))
                errors.append(max(float(abs(Fraction(float(x)) - e) / e)
                                  for x, e in zip(got, want)))
    return tuple(errors), len(caught)


class TestAccuracy:
    """Subtraction-free elimination is entrywise accurate at any conductance
    ratio, so there is nothing to warn of."""

    def test_every_system_within_1e_13_of_exact(self):
        errors, _ = _accuracy_sample()
        assert len(errors) > 300
        assert max(errors) <= 1e-13

    def test_sample_emits_no_warning(self):
        assert _accuracy_sample()[1] == 0

    @pytest.mark.parametrize("big", [1e6, 1.01e6, 1e18])  # either side of the old 1e6 limit
    def test_wide_spans_solve_accurately(self, big):
        net = build_network([("a", "b", 1.0), ("b", "c", big)])
        want = 1 + Fraction(1) / Fraction(big)
        assert abs(Fraction(effective_resistance(net, "a", "c")) - want) <= 1e-15 * want
        assert hitting_time(net, "b").values == {"a": 1.0, "b": 0.0, "c": 1.0}

    @pytest.mark.parametrize("c", [1e-7, 1e-30])
    def test_small_pendants_pass(self, triangle, c):
        # the leak is c itself: C_a + c rounds to C_a at 1e-30, but is never formed
        trace = replay(triangle, "a", c)
        assert trace.passed, [(s.name, s.rel_err) for s in trace.steps]

    def test_batch_members_match_single_solves(self):
        # elementwise updates and last-axis sums: a member's bits ignore its batch
        net = _log_uniform_network(np.random.default_rng(5))
        *_, vertex_conductance = net.arrays
        grounds = [None, *range(net.n)]
        b = np.broadcast_to(vertex_conductance[None, :, None], (len(grounds), net.n, 2)).copy()
        b[0, 0, 1] = 1.0
        leak = np.zeros((len(grounds), net.n))
        leak[0, 0] = 0.5
        batch = _solve_at(net, grounds, b, leak)
        for s, ground in enumerate(grounds):
            one = _solve_at(net, [ground], b[s:s + 1], leak[s:s + 1])
            assert batch[s].tolist() == one[0].tolist()
        assert _solve_at(net, grounds[:3], b[:3], leak[:3]).tolist() == batch[:3].tolist()


def _anchor_solves(net, c):
    """Each anchor's two solutions in its leaf and replay's values from them:
    [(iz, C~_z, the leaf's vertex rows, leaked, grounded, values)]."""
    rows = list(range(net.n))
    leaky = [_sum([*(w for _, w in net.neighbors[z]), c]) for z in net.vertices]
    order = _band(net)[0]
    return [(iz, cz, order[a:a + len(grounded)], leaked, grounded, values)
            for iz, cz, (a, leaked, grounded), values in zip(
                rows, leaky, _leaf_solves(net, rows, leaky, c), _solve_anchors(net, rows, leaky, c))]


def _leaf_count(net) -> int:
    return len(_leaves(net.n, int(_band(net)[4].max()))[1])


class TestLeaves:
    """Each anchor's two systems, solved in its leaf after the shared sweeps,
    against the same systems eliminated whole, and solved exactly. The
    leaves' whole solutions are compared: replay's values at z hold on any
    network with z's edges and the same total on the right, so they would
    not show a wrong reduction."""

    @pytest.mark.parametrize("c", [1e-8, 1.0, 1e8])
    @pytest.mark.parametrize("k", [8, 11])
    def test_match_whole_eliminations(self, k, c):
        # Both are subtraction-free eliminations of one system in two orders.
        net = grid_network(k, k, np.random.default_rng(k), span=6.0)
        assert _leaf_count(net) >= 3
        *_, vertex_conductance = net.arrays
        for iz, cz, leaf, leaked, grounded, values in _anchor_solves(net, c):
            b = np.zeros((2, net.n, 2))
            b[:, :, 0] = vertex_conductance
            b[0, iz] = cz, 1.0
            leak = np.zeros((2, net.n))
            leak[0, iz] = c
            x = _solve_at(net, [None, iz], b, leak)
            got = np.concatenate([leaked.ravel(), grounded])
            want = np.concatenate([x[0, leaf].T.ravel(), x[1, leaf, 0]])
            assert np.all(np.abs(got - want) <= 1e-14 * want), iz
            want = x[0, iz, 0], x[0, iz, 1], _first_return(net, net.vertices[iz], x[1, :, 0])
            assert all(abs(g - e) <= 1e-14 * e for g, e in zip(values, want)), iz

    @pytest.mark.parametrize("rows,cols,c", [(4, 4, 1e-8), (3, 7, 1.0), (4, 5, 1e8)])
    def test_match_exact_solves(self, rows, cols, c):
        net = grid_network(rows, cols, np.random.default_rng(rows * cols), span=6.0)
        assert _leaf_count(net) >= 3
        *_, vertex_conductance = net.arrays
        for iz, cz, leaf, leaked, grounded, _ in _anchor_solves(net, c):
            leak = np.zeros(net.n)
            leak[iz] = c
            b = np.zeros((net.n, 2))
            b[:, 0] = vertex_conductance
            b[iz] = cz, 1.0
            want = grounded_solve_exact(dense_laplacian(net, None, leak), b)
            pairs = [(leaked[j, k], want[v][j]) for k, v in enumerate(leaf) for j in range(2)]
            keep = np.arange(net.n) != iz
            want = dict(zip(np.flatnonzero(keep), grounded_solve_exact(
                dense_laplacian(net, iz), vertex_conductance[keep])))
            pairs += [(h, want[v]) for h, v in zip(grounded, leaf) if v != iz]
            assert all(abs(Fraction(float(g)) - e) <= 1e-13 * e for g, e in pairs), iz


class TestSpanWarning:
    """There is no span warning: at any conductance span each grounded system
    is eliminated once, with all its right-hand sides, and never re-solved."""

    def test_one_solve_per_factorization(self, eliminations):
        net = _log_uniform_network(np.random.default_rng(3))  # spans twelve decades
        x, y = net.vertices[0], net.vertices[-1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            hitting_time(net, y)
            effective_resistance(net, x, y)
            resistance_matrix(net)
            return_time(net, x)
            round_trip(net, x, y)
            replay(net, x)
        assert eliminations == [net.n] * 8

def _log_uniform_network(rng: np.random.Generator):
    net = random_connected_network(rng)
    return build_network(
        [(u, v, float(10.0 ** rng.uniform(-6.0, 6.0))) for u, v, _ in net.edges]
    )


def _assert_solves_match_oracles(net, tolerance):
    C = net.total_conductance
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
        cond = max(np.linalg.cond(np.array(dense_laplacian(net, g), dtype=float), 1)
                   for g in range(net.n))
        _assert_solves_match_oracles(net, max(1e-12, cond * np.finfo(float).eps))
