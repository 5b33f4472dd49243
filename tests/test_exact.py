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
    return_time,
    return_time_formula,
    round_trip,
    stationary_distribution,
    transition_matrix,
    rel_err,
    replay,
)
from ohmwalk import exact
from ohmwalk.exact import (
    _PANEL,
    _band,
    _band_bytes,
    _banded,
    _check,
    _eliminate,
    _envelope,
    _first_return,
    _ground,
    _halves,
    _leaf_solves,
    _leaf_systems,
    _leaves,
    _reduce,
    _scale,
    _solve_anchors,
    _solve_at,
    _solve_bytes,
    _sweep,
)
from ohmwalk.network import _sum

from netgen import grid_network, random_connected_network, resistances
from oracles import (
    dense_laplacian,
    grounded_solve_exact,
    hitting_times_oracle,
    resistance_oracle,
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
        # against every pair of the dense pseudoinverse's resistance matrix
        net = random_connected_network(np.random.default_rng(seed))
        R = resistance_oracle(net)
        for i, x in enumerate(net.vertices):
            for y in net.vertices[i + 1:]:
                r = effective_resistance(net, x, y)
                assert r == pytest.approx(effective_resistance(net, y, x), rel=1e-9)
                assert r == pytest.approx(R[net.index[x], net.index[y]], rel=1e-9)

    def test_unknown_vertex(self, k2):
        with pytest.raises(UnknownVertex):
            effective_resistance(k2, "a", "zz")

    @pytest.mark.parametrize("seed", range(6))
    def test_all_pairs_table_is_bit_for_bit_effective_resistance(self, seed):
        # the table the metric and monotonicity properties read (netgen.resistances)
        rng = np.random.default_rng(seed)
        net = _log_uniform_network(rng) if seed % 2 else random_connected_network(rng, n_hi=20)
        R = resistances(net)
        assert R.tolist() == [[effective_resistance(net, x, y) for y in net.vertices]
                              for x in net.vertices]


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
        return_time(net, x)
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
        R = resistances(net)
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
        R0 = resistances(net)
        for k, (u, v, c) in enumerate(net.edges):
            bumped = [
                (x, y, w * 2.0 if i == k else w)
                for i, (x, y, w) in enumerate(net.edges)
            ]
            R1 = resistances(build_network(bumped))
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
        vertex_conductance = net.row_conductance
        for ground in range(net.n):
            x = _solve_at(net, [ground], vertex_conductance[None, :, None])[0, :, 0]
            keep = np.arange(net.n) != ground
            want = [e for e, in grounded_solve_exact(dense_laplacian(net, ground),
                                                      vertex_conductance[keep, None])]
            assert x[ground] == 0.0
            assert all(abs(Fraction(float(v)) - e) <= 1e-13 * e for v, e in zip(x[keep], want))

    def test_out_of_memory_raises_system_too_large(self, small_memory):
        # a hub makes the band as wide as the network: a system holds 1001 x 501
        # band doubles, the kernel's trailing block 500 x 502 more, and the
        # back-substitution's 63 panel blocks, their inverses and the solution
        net = build_network([("hub", f"l{i}", 1.0) for i in range(500)])
        with pytest.raises(SystemTooLarge, match=r"needs 5\.9 MiB of band storage plus work"):
            effective_resistance(net, "hub", "l1")
        with pytest.raises(SystemTooLarge):
            replay(net, "l1")

    def test_denormal_conductance_solves_exactly(self):
        net = build_network([("a", "b", 1.0), ("b", "c", 5e-324)])
        assert effective_resistance(net, "a", "b") == 1.0
        assert hitting_time(net, "b").values == {"a": 1.0, "b": 0.0, "c": 1.0}
        assert return_time(net, "b") == 2.0

    @pytest.mark.parametrize("shift", (1, 60, 600, 900))
    def test_power_of_two_scaling_keeps_every_bit(self, shift):
        # a system whose largest conductance is below 1 is scaled back up by a
        # power of two, which is exact while every value stays normal
        net = _log_uniform_network(np.random.default_rng(shift))
        up = 1 - math.frexp(max(c for _, _, c in net.edges))[1]
        base = build_network([(u, v, math.ldexp(c, up)) for u, v, c in net.edges])
        small = build_network([(u, v, math.ldexp(c, -shift)) for u, v, c in base.edges])
        x, y = base.vertices[0], base.vertices[-1]
        assert hitting_time(small, y).values == hitting_time(base, y).values
        assert return_time(small, x) == return_time(base, x)
        assert effective_resistance(small, x, y) == math.ldexp(effective_resistance(base, x, y),
                                                               shift)

    def test_conductance_rounded_away_still_solves(self):
        # b's C_b = 1 + 1e-300 rounds to 1; the elimination never forms it
        net = build_network([("a", "b", 1.0), ("b", "c", 1e-300)])
        assert effective_resistance(net, "a", "c") == pytest.approx(1.0 + 1e300, rel=1e-9)


@lru_cache(maxsize=None)
def _accuracy_sample() -> tuple:
    """(entrywise relative errors, warnings emitted) over a seeded sample:
    6-12-vertex networks with log-uniform conductances over spans 1e2..1e18,
    grounded at every vertex (hitting-time right-hand side), and each
    anchor's replay leak system with a log-uniform pendant c, solved in the
    anchor's leaf as replay solves it (_leaf_solves). The error is against
    the exact rational solve of the system its couplings and leak define,
    over the leaf's vertices."""
    rng = np.random.default_rng(0)
    errors = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for _ in range(20):
            span = 10.0 ** rng.uniform(2.0, 18.0)
            shape = random_connected_network(rng, n_lo=6, n_hi=12)
            net = build_network([(u, v, float(span ** rng.uniform(0.0, 1.0)))
                                 for u, v, _ in shape.edges])
            vertex_conductance = net.row_conductance
            conductances = [w for _, _, w in net.edges]
            lo, hi = math.log10(min(conductances)), math.log10(max(conductances))
            solves = []
            for ground in range(net.n):
                keep = np.arange(net.n) != ground
                got = _solve_at(net, [ground], vertex_conductance[None, :, None])[0, keep, 0]
                solves.append((got, grounded_solve_exact(dense_laplacian(net, ground),
                                                         vertex_conductance[keep])))
            band = _band(net)
            for z in net.vertices:
                c = float(10.0 ** rng.uniform(lo - 3.0, hi + 3.0))
                iz = net.index[z]
                leaky = vertex_conductance.copy()
                leaky[iz] = _sum([*(w for _, w in net.neighbors[z]), c])
                leak = np.zeros(net.n)
                leak[iz] = c
                a, leaked, _ = next(_leaf_solves(net, band, [iz], [leaky[iz]], c))
                leaf = band[0][a:a + leaked.shape[1]]
                want = grounded_solve_exact(dense_laplacian(net, None, leak),
                                            np.column_stack((leaky, np.arange(net.n) == iz)))
                solves.append((leaked.T.ravel(), [e for v in leaf for e in want[v]]))
            for got, want in solves:
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
        # the updates are elementwise or one matmul per member: a member's bits ignore its batch
        _assert_batch_members_match(_log_uniform_network(np.random.default_rng(5)))

    def test_batch_members_match_single_solves_over_several_panels(self):
        net = grid_network(5, 5, np.random.default_rng(5), span=6.0)
        assert net.n > 3 * _PANEL
        _assert_batch_members_match(net)


def _assert_batch_members_match(net):
    vertex_conductance = net.row_conductance
    grounds = list(range(net.n))
    b = np.broadcast_to(vertex_conductance[None, :, None], (net.n, net.n, 2)).copy()
    b[1, 0, 1] = 1.0
    batch = _solve_at(net, grounds, b)
    for s, ground in enumerate(grounds):
        one = _solve_at(net, [ground], b[s:s + 1])
        assert batch[s].tolist() == one[0].tolist()
    assert _solve_at(net, grounds[:3], b[:3]).tolist() == batch[:3].tolist()


def _anchor_solves(net, c):
    """Each anchor's two solutions in its leaf and replay's values from them:
    [(iz, C~_z, the leaf's vertex rows, leaked, grounded, values)]."""
    rows = list(range(net.n))
    leaky = [_sum([*(w for _, w in net.neighbors[z]), c]) for z in net.vertices]
    band = _band(net)
    return [(iz, cz, band[0][a:a + len(grounded)], leaked, grounded, values)
            for iz, cz, (a, leaked, grounded), values in zip(
                rows, leaky, _leaf_solves(net, band, rows, leaky, c),
                _solve_anchors(net, rows, leaky, c))]


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
        order, place, lo, hi, _ = _band(net)
        couplings = dict(zip(zip(lo.tolist(), hi.tolist()), net.conductance.tolist()))
        for iz, cz, leaf, leaked, grounded, values in _anchor_solves(net, c):
            z = place[iz]
            b = np.zeros((2, net.n, 2))  # by place
            b[:, :, 0] = net.row_conductance[order]
            b[0, z] = cz, 1.0
            leaks = np.zeros((2, net.n))
            leaks[0, z] = c
            x, pivots = _kernel_solves(net.n, couplings, [None, z], leaks, b)
            _check(pivots, x)
            x = x[:, place]  # by vertex row
            got = np.concatenate([leaked.ravel(), grounded])
            want = np.concatenate([x[0, leaf].T.ravel(), x[1, leaf, 0]])
            assert np.all(np.abs(got - want) <= 1e-14 * want), iz
            want = x[0, iz, 0], x[0, iz, 1], _first_return(net, iz, x[1, net.row(iz)[0], 0])
            assert all(abs(g - e) <= 1e-14 * e for g, e in zip(values, want)), iz

    @pytest.mark.parametrize("rows,cols,c", [(4, 4, 1e-8), (3, 7, 1.0), (4, 5, 1e8)])
    def test_match_exact_solves(self, rows, cols, c):
        net = grid_network(rows, cols, np.random.default_rng(rows * cols), span=6.0)
        assert _leaf_count(net) >= 3
        vertex_conductance = net.row_conductance
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

    def test_sweep_yields_the_rows_one_reduction_leaves(self):
        # A sweep reduces one segment between stops at a time, its panels
        # starting at each stop; at w = 11 those are not multiples of _PANEL.
        net = grid_network(11, 11, np.random.default_rng(11), span=6.0)
        order, _, lo, hi, width = _band(net)
        w = int(width.max())
        first = _leaves(net.n, w)[1]
        assert w % _PANEL and len(first) >= 3

        def fresh():
            return _banded(lo, hi, net.conductance, net.row_conductance[order][None, None], w)

        stops = first[first > 0].tolist()
        swept = [(s, u.copy(), r.copy()) for s, u, r in _sweep(*fresh(), width.tolist(), stops)]
        assert [s for s, _, _ in swept] == stops
        for s, u, r in swept:
            U, R = fresh()
            _reduce(U, R, width[:s].tolist())
            for got, want in ((u, U[0, s:s + w]), (r, R[0, :, s:s + w])):
                assert np.all(np.abs(got - want) <= 1e-14 * want), s

    def test_leaf_systems_do_not_depend_on_which_leaves_are_asked_for(self):
        net = grid_network(11, 11, np.random.default_rng(5), span=6.0)
        band = _band(net)
        leaves = _leaves(net.n, int(band[4].max()))
        every = np.arange(len(leaves[1]))
        U, R = _leaf_systems(net, band, leaves, every, 0)
        for ids in [[i] for i in every] + [[0, 3], [1, 2, len(every) - 1]]:
            Ui, Ri = _leaf_systems(net, band, leaves, np.array(ids), 0)
            assert Ui.tolist() == U[ids].tolist() and Ri.tolist() == R[ids].tolist(), ids


def _band_couplings(rng, n: int, w: int, star: bool) -> dict:
    """The couplings W(i, j), i < j, of an n-row system, log-uniform in
    [1e-6, 1e6]: every pair of places at most w apart or, for a star, place 0
    to every other place (its fill makes the rest dense)."""
    pairs = ([(0, j) for j in range(1, n)] if star else
             [(i, j) for i in range(n) for j in range(i + 1, min(i + w + 1, n))])
    return {pair: float(10.0 ** rng.uniform(-6.0, 6.0)) for pair in pairs}


def _kernel_solves(n: int, couplings: dict, grounds, leaks: np.ndarray, b: np.ndarray):
    """_eliminate on a batch laid out by hand: member s has the couplings,
    leak leaks[s] and right-hand sides b[s] (n, m), and is held at 0 at
    place grounds[s] unless that is None. Returns x (S, n, m) and the pivots."""
    lo, hi = np.array(list(couplings), dtype=np.intp).reshape(-1, 2).T
    width = _envelope(lo, hi, n)
    w = int(width.max())
    S, _, m = b.shape
    U = np.zeros((S, n + w, w + 1))
    U[:, lo, hi - lo] = list(couplings.values())
    R = np.zeros((S, m + 1, n + w))
    R[:, 0, :n] = leaks
    R[:, 1:, :n] = b.transpose(0, 2, 1)
    held = [s for s, g in enumerate(grounds) if g is not None]
    if held:
        _ground(U, R, np.array(held), np.array([grounds[s] for s in held]))
    with np.errstate(all="ignore"):
        x, pivots = _eliminate(U, R, width.tolist())
    return x.transpose(0, 2, 1), pivots


def _exact_solve(n: int, couplings: dict, ground, leak, b) -> dict:
    """The exact solution, by place, of the system _kernel_solves makes of
    one member, its ground's row and column deleted."""
    A = [[Fraction(0)] * n for _ in range(n)]
    for (i, j), c in couplings.items():
        A[i][j] = A[j][i] = -Fraction(c)
        A[i][i] += Fraction(c)
        A[j][j] += Fraction(c)
    for i, c in enumerate(leak.tolist()):
        A[i][i] += Fraction(c)
    keep = [i for i in range(n) if i != ground]
    if not keep:  # one place, held at 0
        return {}
    return dict(zip(keep, grounded_solve_exact([[A[i][j] for j in keep] for i in keep], b[keep])))


_PANEL_CASES = ([(n, w, False) for n in (3, 7, 8, 9, 17) for w in (1, 7, 8, 9) if w < n]
                + [(n, n - 1, True) for n in (3, 7, 8, 9, 17)])


class TestPanels:
    """The kernel eliminates in panels of _PANEL rows, each panel's update to
    the rows after it one matmul per member. Systems laid out by hand with
    row counts and band widths on either side of the panel size, against
    exact rational solves, alone and in a batch."""

    @pytest.mark.parametrize("n,w,star", _PANEL_CASES)
    def test_match_exact_solves_alone_and_in_a_batch(self, n, w, star):
        rng = np.random.default_rng(n * 100 + w)
        couplings = _band_couplings(rng, n, w, star)
        grounds = [None, n // 2, n - 1]
        leaks = np.zeros((3, n))
        leaks[0, rng.permutation(n)[:2]] = 10.0 ** rng.uniform(-6.0, 6.0, 2)
        leaks[2, 0] = 10.0 ** rng.uniform(-6.0, 6.0)
        b = 10.0 ** rng.uniform(-6.0, 6.0, (3, n, 2))
        batch, pivots = _kernel_solves(n, couplings, grounds, leaks, b)
        _check(pivots, batch)
        for s, ground in enumerate(grounds):
            want = _exact_solve(n, couplings, ground, leaks[s], b[s])
            got = batch[s]
            for k, e in want.items():
                assert all(abs(Fraction(float(g)) - v) <= 1e-13 * v for g, v in zip(got[k], e)), k
            if ground is not None:
                assert got[ground].tolist() == [0.0, 0.0]
            one, _ = _kernel_solves(n, couplings, [ground], leaks[s:s + 1], b[s:s + 1])
            assert one[0].tolist() == got.tolist()

    def test_pivot_underflowing_mid_panel_raises_singular_system(self):
        # Places 3, 4 and 5 hang together by unit couplings, and their only
        # leak, 5e-324 at 3, halves to 0 when 3 is eliminated, so the pivot
        # at 5, inside the first panel, is 0.
        couplings = {(0, 1): 1.0, (1, 2): 1.0, (3, 4): 1.0, (3, 5): 1.0, (4, 5): 1.0,
                     **{(i, i + 1): 1.0 for i in range(6, 11)}}
        leak = np.zeros((1, 12))
        leak[0, [0, 3, 11]] = 1.0, 5e-324, 1.0
        x, pivots = _kernel_solves(12, couplings, [None], leak, np.ones((1, 12, 1)))
        assert 5 % _PANEL and pivots[5, 0] == 0.0 and np.all(pivots[:5] > 0.0)
        with pytest.raises(SingularSystem, match="floating-point range"):
            _check(pivots, x)


_SUBSTITUTION_SIZES = (1, 2, 3, 7, 8, 9, 17)  # last panels of 1, 2, 3, 7 and 8 rows


def _chorded_path(rng, n: int) -> dict:
    """Log-uniform couplings along a path of n places, plus a chord from
    every third place to the one three further on."""
    pairs = [(i, i + 1) for i in range(n - 1)] + [(i, i + 3) for i in range(0, n - 3, 3)]
    return {pair: float(10.0 ** rng.uniform(-6.0, 6.0)) for pair in pairs}


class TestSubstitution:
    """_substitute solves a panel's rows with one matmul for the rows after
    it and one by the panel's (I - N)^-1, the right-hand sides padded to two
    columns. Whole solutions against exact rational solves, at system sizes
    whose last panel has 1 to 8 rows."""

    @pytest.mark.parametrize("m", (1, 2))
    @pytest.mark.parametrize("n", _SUBSTITUTION_SIZES)
    def test_match_exact_solves_alone_and_in_a_batch(self, n, m):
        rng = np.random.default_rng(10 * n + m)
        couplings = _chorded_path(rng, n)
        grounds = [None, n // 2, n - 1]
        leaks = np.zeros((3, n))
        leaks[0, rng.permutation(n)[:2]] = 10.0 ** rng.uniform(-6.0, 6.0, min(n, 2))
        leaks[2, 0] = 10.0 ** rng.uniform(-6.0, 6.0)
        b = 10.0 ** rng.uniform(-6.0, 6.0, (3, n, m))
        batch, pivots = _kernel_solves(n, couplings, grounds, leaks, b)
        _check(pivots, batch)
        for s, ground in enumerate(grounds):
            got = batch[s]
            for k, e in _exact_solve(n, couplings, ground, leaks[s], b[s]).items():
                assert all(abs(Fraction(float(g)) - v) <= 1e-13 * v for g, v in zip(got[k], e)), k
            if ground is not None:
                assert got[ground].tolist() == [0.0] * m
            one, _ = _kernel_solves(n, couplings, [ground], leaks[s:s + 1], b[s:s + 1])
            assert one[0].tolist() == got.tolist()
        if m == 2:  # each column gets the bits it gets alone
            for j in range(2):
                alone, _ = _kernel_solves(n, couplings, grounds, leaks, b[:, :, j:j + 1])
                assert alone[:, :, 0].tolist() == batch[:, :, j].tolist()

    @pytest.mark.parametrize("n", _SUBSTITUTION_SIZES[1:])
    def test_round_trip_is_bit_equal_to_single_solves(self, n):
        rng = np.random.default_rng(n)
        net = build_network([(i, j, c) for (i, j), c in _chorded_path(rng, n).items()])
        for x, y in ((0, n - 1), (n - 1, 0), (n // 2, 0), (1, n // 2)):
            if x == y:
                continue
            trip = round_trip(net, x, y)
            assert trip.x_to_y == hitting_time(net, y).values[x]
            assert trip.y_to_x == hitting_time(net, x).values[y]
            assert trip.resistance == effective_resistance(net, x, y)


def _path(n: int, rng=None):
    """A path of n vertices, its conductances log-uniform over 1e-6 .. 1e6
    if rng is given, else all 1."""
    return build_network([(i, i + 1, 1.0 if rng is None else float(10.0 ** rng.uniform(-6, 6)))
                          for i in range(n - 1)])


def _cycle(n: int, rng):
    return build_network([(i, (i + 1) % n, float(10.0 ** rng.uniform(-6.0, 6.0)))
                          for i in range(n)])


def _chorded_ends(rng):
    """A path of 90 with chords three apart near one end and two apart
    further in from the other, so that each half is wider than the other
    somewhere and their shared envelope needs both."""
    pairs = ([(i, i + 1) for i in range(89)] + [(i, i + 3) for i in range(12)]
             + [(i, i + 2) for i in range(55, 70)])
    return build_network([(u, v, float(10.0 ** rng.uniform(-6.0, 6.0))) for u, v in pairs])


def _kernel_calls(monkeypatch):
    """Record every _reduce and _substitute call _solve_at makes: (name, U,
    R, width), U and R as they were passed."""
    calls = []
    for name in ("_reduce", "_substitute"):
        def spy(U, R, width, *rest, _name=name, _kernel=getattr(exact, name)):
            calls.append((_name, U.copy(), R.copy(), list(width)))
            return _kernel(U, R, width, *rest)
        monkeypatch.setattr(exact, name, spy)
    return calls


class TestBothEnds:
    """_solve_at eliminates a large system from both ends at once: its
    forward and reversed halves in one _reduce batch, then the w-place
    middle between them as a band of its own, then both halves in one
    _substitute call. Whole solutions against exact rational solves, with
    the ground and the unit current in each part."""

    @staticmethod
    def _parts(net):
        """Vertex rows at places of the forward half, the middle and the
        reversed half: the first, one inside and the last of each."""
        order, _, _, _, width = _band(net)
        n, w = net.n, int(width.max())
        h, t = _halves(n, w)
        assert h >= _PANEL * 4 and t >= _PANEL * 4 and h - t in (0, 1)
        places = [0, h // 2, h - 1, h, h + w // 2, h + w - 1, n - t, n - t // 2, n - 1]
        return [int(order[p]) for p in places]

    @pytest.mark.parametrize("make", [
        pytest.param(lambda: _path(80, np.random.default_rng(1)), id="path80-w1-padded"),
        pytest.param(lambda: _path(81, np.random.default_rng(2)), id="path81-w1"),
        pytest.param(lambda: _cycle(81, np.random.default_rng(3)), id="cycle81-w2"),
        pytest.param(lambda: grid_network(18, 4, np.random.default_rng(4), span=6.0),
                     id="grid18x4-w4-span1e12"),
        pytest.param(lambda: grid_network(12, 6, np.random.default_rng(5)), id="grid12x6-w6"),
        pytest.param(lambda: _chorded_ends(np.random.default_rng(8)), id="chords-w3-one-w2-other"),
    ])
    def test_match_exact_solves_in_every_part(self, make):
        net = make()
        parts = self._parts(net)
        grounds = parts[1::3]  # one ground inside each part
        b = np.zeros((len(grounds), net.n, 1 + len(parts)))
        b[:, :, 0] = net.row_conductance
        b[:, parts, range(1, 1 + len(parts))] = 1.0  # a unit current at each place listed
        x = _solve_at(net, grounds, b)
        for s, ground in enumerate(grounds):
            assert not x[s, ground].any()
            keep = np.arange(net.n) != ground
            want = grounded_solve_exact(dense_laplacian(net, ground), b[s, keep])
            for got, exact_row in zip(x[s, keep], want):
                for g, e in zip(got.tolist(), exact_row):
                    assert abs(Fraction(g) - e) <= 1e-13 * e

    def test_batch_members_match_single_solves(self):
        net = grid_network(10, 10, np.random.default_rng(6), span=6.0)
        assert _halves(net.n, int(_band(net)[4].max()))[0]
        _assert_batch_members_match(net)

    def test_round_trip_is_bit_equal_to_single_solves(self):
        net = grid_network(12, 12, np.random.default_rng(7), span=3.0)
        x, y = net.vertices[0], net.vertices[-1]
        trip = round_trip(net, x, y)
        assert trip.x_to_y == hitting_time(net, y).values[x]
        assert trip.y_to_x == hitting_time(net, x).values[y]
        assert trip.resistance == effective_resistance(net, x, y)
        assert commute_time(net, x, y) == trip.x_to_y + trip.y_to_x

    def test_halves_reduce_in_one_batch_and_substitute_in_one_call(self, monkeypatch):
        net = _path(80)
        h, t = _halves(80, 1)
        assert (h, t) == (40, 39)
        calls = _kernel_calls(monkeypatch)
        b = np.broadcast_to(net.row_conductance[None, :, None], (3, 80, 1))
        _solve_at(net, [0, 40, 79], b)
        assert [(name, U.shape, len(width)) for name, U, _, width in calls] == [
            ("_reduce", (6, h + 1, 2), h),  # both halves of each system, then the middle
            ("_reduce", (3, 2, 2), 1),
            ("_substitute", (3, 2, 2), 1),
            ("_substitute", (6, h + 1, 2), h),
        ]
        _, U, R, _ = calls[0]
        assert R[1::2, 0, 0].tolist() == [1.0] * 3  # the reversed half's padding row
        assert not U[1::2, 0].any()

    @pytest.mark.parametrize("make", [
        pytest.param(lambda: build_network([(i, j, 1.0) for i in range(4) for j in range(i + 1, 4)]),
                     id="k4"),
        pytest.param(lambda: random_connected_network(np.random.default_rng(3), n_lo=12, n_hi=12),
                     id="random12"),
        pytest.param(lambda: _path(60), id="path60"),  # halves of 29 rows: below _HALF_ROWS
    ])
    def test_small_systems_make_the_one_band_calls(self, monkeypatch, make):
        # below the threshold the middle is the whole system, laid out as the
        # band was before halves: _banded, then _ground
        net = make()
        order, place, lo, hi, width = _band(net)
        w = int(width.max())
        assert _halves(net.n, w) == (0, 0)
        grounds = [net.n - 1, 0]
        b = np.zeros((2, net.n, 2))
        b[:, :, 0] = net.row_conductance
        b[0, 0, 1] = 1.0
        k = _scale(net)
        U, R = _banded(lo, hi, np.ldexp(net.conductance, k),
                       np.ldexp(b[:, order], k).transpose(0, 2, 1), w)
        _ground(U, R, np.arange(2), place[grounds])
        calls = _kernel_calls(monkeypatch)
        got = _solve_at(net, grounds, b)
        assert [name for name, *_ in calls] == ["_reduce", "_substitute"]
        _, U_in, R_in, width_in = calls[0]
        assert (U_in.tolist(), R_in.tolist(), width_in) == (U.tolist(), R.tolist(), width.tolist())
        x, _ = _eliminate(U, R, width.tolist())
        assert got.tolist() == x[:, :, place].transpose(0, 2, 1).tolist()

    def test_layout_is_sized_before_allocation(self):
        # the arithmetic alone: a grid of 10**6 vertices, whose halves' batch
        # holds about one band, never a forward and a reversed band at once
        n, w = 10**6, 1000
        h, t = _halves(n, w)
        assert (h, t) == (499500, 499500)
        assert _solve_bytes(2, n, w, 2) == _band_bytes(4, h, w, 2) + _band_bytes(2, w, w, 2)
        assert _solve_bytes(2, n, w, 2) < 1.01 * _band_bytes(2, n, w, 2)
        assert _solve_bytes(1, 501, 499, 1) == _band_bytes(1, 501, 499, 1)  # no halves

    def test_out_of_memory_raises_system_too_large(self, small_memory):
        net = grid_network(60, 60)
        w = int(_band(net)[4].max())
        want = _solve_bytes(1, net.n, w, 1) / 2**20
        with pytest.raises(SystemTooLarge, match=rf"needs {want:.1f} MiB of band storage"):
            effective_resistance(net, net.vertices[0], net.vertices[-1])


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
            effective_resistance(net, y, x)
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
